//! Graph IO: SNAP-style edge-list text and a compact binary snapshot format.
//!
//! The binary format is what the dataset registry caches to disk so that
//! multi-minute benchmark sessions don't regenerate graphs. Layout (all
//! little-endian):
//!
//! ```text
//! magic   b"SRG1"           4 bytes
//! n       u64
//! m       u64
//! offsets (n+1) × u64       CSR out-offsets
//! targets m × u32           CSR out-targets
//! ```
//!
//! The in-adjacency is rebuilt on load (O(m), cheaper than doubling the
//! file).
//!
//! `SRG1` is a *load-then-query* format: the whole graph is deserialised
//! into RAM. For graphs bigger than memory, [`crate::storage`] defines
//! the page-aligned `SRGD` layout queryable in place through a
//! [`DiskGraph`](crate::storage::DiskGraph);
//! [`convert_binary`](crate::storage::convert_binary) migrates an `SRG1`
//! snapshot to it.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::view::GraphView;
use simrank_common::NodeId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SRG1";

/// Error type for graph IO.
#[derive(Debug)]
pub enum IoError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The input did not parse as the expected format.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a whitespace-separated edge list (`src dst` per line, `#`/`%`
/// comments and blank lines ignored) into a builder so callers can apply
/// their own normalisation policy.
pub fn read_edge_list<R: Read>(reader: R) -> Result<GraphBuilder, IoError> {
    let mut builder = GraphBuilder::new();
    let reader = BufReader::new(reader);
    // Reuse one line buffer to avoid per-line allocation (perf-book: reading
    // lines from a file).
    let mut line = String::new();
    let mut reader = reader;
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(IoError::Format(format!("line {lineno}: expected two ids")));
        };
        let s: NodeId = a
            .parse()
            .map_err(|_| IoError::Format(format!("line {lineno}: bad id {a:?}")))?;
        let t: NodeId = b
            .parse()
            .map_err(|_| IoError::Format(format!("line {lineno}: bad id {b:?}")))?;
        builder.add_edge(s, t);
    }
    Ok(builder)
}

/// Reads an edge-list file from `path` (see [`read_edge_list`]).
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<GraphBuilder, IoError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as a plain edge list.
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (s, t) in g.edges() {
        writeln!(w, "{s} {t}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serialises the graph into the compact binary snapshot format.
pub fn to_binary(g: &CsrGraph) -> Vec<u8> {
    let (offsets, targets) = g.raw_out();
    let mut buf = Vec::with_capacity(4 + 16 + offsets.len() * 8 + targets.len() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(g.num_nodes() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    for &o in offsets {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
    }
    for &t in targets {
        buf.extend_from_slice(&t.to_le_bytes());
    }
    buf
}

/// Splits the first `N` bytes off `data`; `None` if fewer remain.
fn take<const N: usize>(data: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = data.split_first_chunk::<N>()?;
    *data = rest;
    Some(*head)
}

/// Deserialises a graph from the binary snapshot format (the bytes
/// [`to_binary`] returns, or a file's contents), validating the
/// structural invariants.
pub fn from_binary(data: impl AsRef<[u8]>) -> Result<CsrGraph, IoError> {
    let mut data = data.as_ref();
    let truncated = || IoError::Format("truncated header".into());
    let magic: [u8; 4] = take(&mut data).ok_or_else(truncated)?;
    if &magic != MAGIC {
        return Err(IoError::Format(format!("bad magic {magic:?}")));
    }
    let n64 = take(&mut data)
        .map(u64::from_le_bytes)
        .ok_or_else(truncated)?;
    let m64 = take(&mut data)
        .map(u64::from_le_bytes)
        .ok_or_else(truncated)?;
    // The header fields are untrusted: a corrupt/malicious `n` or `m` must
    // fail cleanly here, before any allocation. `u128` arithmetic rules out
    // the wrap that `(n + 1) * 8 + m * 4` in `usize` allows (a wrapped
    // `need` can collide with the actual payload size and defeat the size
    // check), and the equality against the payload length bounds both
    // fields by the bytes actually present, so no allocation below can
    // exceed the input size.
    const MAX_NODES: u64 = u32::MAX as u64 + 1; // node ids are u32
    if n64 > MAX_NODES {
        return Err(IoError::Format(format!(
            "node count {n64} exceeds the u32 id space"
        )));
    }
    let need = (n64 as u128 + 1) * 8 + m64 as u128 * 4;
    if need != data.len() as u128 {
        return Err(IoError::Format(format!(
            "payload size {} does not match n={n64}, m={m64}",
            data.len()
        )));
    }
    let n = n64 as usize;
    let m = m64 as usize;
    // The size check above makes every chunk below whole: `n + 1` offsets
    // of 8 bytes, then exactly `m` targets of 4.
    let (offset_bytes, target_bytes) = data.split_at((n + 1) * 8);
    let offsets: Vec<usize> = offset_bytes
        .as_chunks::<8>()
        .0
        .iter()
        .map(|&b| u64::from_le_bytes(b) as usize)
        .collect();
    let mut targets = target_bytes
        .as_chunks::<4>()
        .0
        .iter()
        .map(|&b| u32::from_le_bytes(b));
    if offsets[0] != 0 || offsets[n] != m || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(IoError::Format("corrupt offsets".into()));
    }
    let mut edges = Vec::with_capacity(m);
    for (s, w) in offsets.windows(2).enumerate() {
        for t in targets.by_ref().take(w[1] - w[0]) {
            if t as usize >= n {
                return Err(IoError::Format(format!("target {t} out of range")));
            }
            edges.push((s as NodeId, t));
        }
    }
    // The writer emits sorted lists; verify rather than trust.
    if edges.windows(2).any(|w| w[0] >= w[1]) {
        return Err(IoError::Format("edge list not sorted/unique".into()));
    }
    Ok(CsrGraph::from_sorted_edges(n, &edges))
}

/// Writes the binary snapshot to a file.
pub fn save_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), IoError> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_binary(g))?;
    Ok(())
}

/// Loads a binary snapshot from a file.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<CsrGraph, IoError> {
    from_binary(std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::shapes;

    #[test]
    fn edge_list_round_trip() -> Result<(), IoError> {
        let g = shapes::jeh_widom();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf)?;
        let parsed = read_edge_list(&buf[..])?.build();
        assert_eq!(parsed, g);
        Ok(())
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() -> Result<(), IoError> {
        let text = "# comment\n% other comment\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes())?.build();
        assert_eq!(g.num_edges(), 2);
        Ok(())
    }

    #[test]
    fn edge_list_reports_bad_lines() {
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        let err = read_edge_list("a b\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad id"));
    }

    #[test]
    fn binary_round_trip() -> Result<(), IoError> {
        let g = crate::gen::gnm(200, 1000, 5);
        let bytes = to_binary(&g);
        let back = from_binary(bytes)?;
        assert_eq!(back, g);
        assert!(back.validate().is_ok());
        Ok(())
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = shapes::cycle(4);
        let bytes = to_binary(&g);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(from_binary(bad_magic).is_err());

        let truncated = &bytes[..bytes.len() - 2];
        assert!(from_binary(truncated).is_err());
        assert!(from_binary(&bytes[..10]).is_err(), "short header");

        let mut bad_target = bytes.clone();
        let len = bad_target.len();
        bad_target[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_binary(bad_target).is_err());
    }

    /// Builds a 20-byte header (magic + n + m) followed by `payload` bytes
    /// of zeros — the attacker-controlled shapes the hardened decoder must
    /// reject without panicking, wrapping, or allocating proportionally to
    /// the claimed counts.
    fn crafted(n: u64, m: u64, payload: usize) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        buf.resize(20 + payload, 0);
        buf
    }

    #[test]
    fn corrupt_header_huge_n_is_a_format_error() {
        // Claims ~2^64 nodes with an empty payload: `(n + 1) * 8` would
        // overflow in usize (panic in debug, wrap in release) and
        // `Vec::with_capacity(n + 1)` would OOM if it got that far.
        for n in [u64::MAX, u64::MAX / 8, u32::MAX as u64 + 2] {
            let err = from_binary(crafted(n, 0, 0)).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "n={n}: {err}");
        }
    }

    #[test]
    fn corrupt_header_huge_m_is_a_format_error() {
        for m in [u64::MAX, u64::MAX / 4, 1 << 40] {
            let err = from_binary(crafted(4, m, 48)).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "m={m}: {err}");
        }
    }

    #[test]
    fn corrupt_header_wrapping_values_are_format_errors() {
        // Values crafted so the old usize arithmetic wraps to a small
        // `need` that *matches* the payload on 64-bit targets, defeating
        // the size check entirely:
        //   n = 2^61 - 1 → (n + 1) * 8 ≡ 0 (mod 2^64), so with m = 0 the
        //   wrapped need equals an empty payload;
        //   m = 2^62 → m * 4 ≡ 0, wrapping the target bytes away.
        let wrap_n = (1u64 << 61) - 1;
        let err = from_binary(crafted(wrap_n, 0, 0)).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");

        let wrap_m = 1u64 << 62;
        let err = from_binary(crafted(2, wrap_m, 24)).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");

        // And a combination that wraps both terms back to the real size of
        // a tiny well-formed-looking payload.
        let err = from_binary(crafted(wrap_n, wrap_m, 0)).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
    }

    #[test]
    fn payload_size_mismatch_is_a_format_error() {
        // Consistent-looking small header over the wrong number of bytes.
        for payload in [0, 15, 17, 100] {
            let err = from_binary(crafted(1, 0, payload)).unwrap_err();
            assert!(
                matches!(err, IoError::Format(_)),
                "payload={payload}: {err}"
            );
        }
        // The exact right size parses (n=1, m=0 → one offset pair, no
        // targets; all-zero offsets are valid for an empty graph).
        match from_binary(crafted(1, 0, 16)) {
            Ok(g) => assert_eq!(g, CsrGraph::empty(1)),
            Err(e) => panic!("exact-size payload must parse: {e}"),
        }
    }

    #[test]
    fn file_round_trip() -> Result<(), IoError> {
        let dir = std::env::temp_dir().join("simrank-io-test");
        let path = dir.join("g.bin");
        let g = shapes::grid(3, 3);
        save_binary(&g, &path)?;
        let back = load_binary(&path)?;
        assert_eq!(back, g);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn empty_graph_round_trips() -> Result<(), IoError> {
        let g = CsrGraph::empty(5);
        assert_eq!(from_binary(to_binary(&g))?, g);
        Ok(())
    }

    #[test]
    fn load_binary_missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("simrank-io-test-does-not-exist.bin");
        let err = load_binary(&path).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
        assert!(err.to_string().starts_with("io error:"), "{err}");
    }

    #[test]
    fn read_edge_list_missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("simrank-io-test-no-such.txt");
        let err = read_edge_list_file(&path).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
    }

    #[test]
    fn edge_list_propagates_reader_failures() {
        /// Reader whose first read fails, modelling a mid-stream IO fault.
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("injected fault"))
            }
        }
        let err = read_edge_list(FailingReader).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
        assert!(err.to_string().contains("injected fault"), "{err}");
    }
}
