//! The `SRGD` on-disk CSR layout and [`DiskGraph`], its query-path reader.
//!
//! Layout (all little-endian; see `docs/STORAGE.md` for the full story):
//!
//! ```text
//! superblock (page 0)
//!   0..4     magic        b"SRGD"
//!   4..8     version      u32 (currently 1)
//!   8..12    page_size    u32 (power of two in [256, 2^24])
//!   12..16   flags        u32 (0; unknown flags are rejected)
//!   16..24   n            u64
//!   24..32   m            u64
//!   32..128  4 × segment descriptor { offset u64, len u64, checksum u64 }
//!   128..136 header checksum   FNV-1a 64 of bytes 0..128
//!   136..page_size  zero padding
//! segments (each starting on a page boundary, zero-padded to the next):
//!   out_offsets  (n + 1) × u64
//!   out_targets  m × u32
//!   in_offsets   (n + 1) × u64
//!   in_sources   m × u32
//! ```
//!
//! [`DiskGraph::open`] validates the superblock and **always** streams both
//! offset segments once (checking `offsets[0] == 0`, monotonicity,
//! `offsets[n] == m`, and the segment checksum) — that pass is also where
//! neighbour lists spanning a page boundary are discovered and materialised
//! into a spill table, which is what lets [`GraphView::out_neighbors`]
//! return a single contiguous `&[NodeId]` from a paged segment. Element
//! segments are checksummed and bounds-checked at open when
//! [`DiskGraphOptions::verify`] is set (the default); with verification off
//! they are still bounds-checked page-by-page at fault time.
//!
//! [`GraphView::out_neighbors`]: crate::view::GraphView::out_neighbors

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};

use simrank_common::NodeId;

use super::adaptor::{Adaptor, FsAdaptor, MemAdaptor, MmapAdaptor};
use super::placement::{
    plan_placement, CounterStripe, PlacementReport, SegmentId, TierCounters, TierStats,
};
use super::Fnv64;
use crate::csr::CsrGraph;
use crate::io::IoError;
use crate::view::GraphView;

const MAGIC: &[u8; 4] = b"SRGD";
const VERSION: u32 = 1;
/// Bytes of the superblock that carry data (checksummed 128 + checksum 8).
const HEADER_BYTES: usize = 136;
/// Streaming buffer for open-time validation passes (multiple of 8).
const SCAN_CHUNK: usize = 64 * 1024;

/// Smallest allowed page size (must hold the whole superblock).
pub const MIN_PAGE_SIZE: u32 = 256;
/// Largest allowed page size (16 MiB — past this, paging is pointless).
pub const MAX_PAGE_SIZE: u32 = 1 << 24;
/// Default page size: 16 KiB balances fault amplification against page
/// table overhead for the degree distributions the generators produce.
pub const DEFAULT_PAGE_SIZE: u32 = 16 * 1024;

fn validate_page_size(page_size: u32) -> Result<(), IoError> {
    if !page_size.is_power_of_two() || !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(IoError::Format(format!(
            "page size {page_size} must be a power of two in [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
        )));
    }
    Ok(())
}

fn align_up(x: u64, page: u64) -> u64 {
    x.div_ceil(page) * page
}

// ---------------------------------------------------------------------------
// Superblock
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SegmentDesc {
    offset: u64,
    len: u64,
    checksum: u64,
}

#[derive(Debug, Clone)]
struct Superblock {
    page_size: u64,
    n: u64,
    m: u64,
    segs: [SegmentDesc; 4],
}

fn get_u32(h: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&h[at..at + 4]);
    u32::from_le_bytes(a)
}

fn get_u64(h: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&h[at..at + 8]);
    u64::from_le_bytes(a)
}

fn encode_superblock(
    page_size: u32,
    n: u64,
    m: u64,
    segs: &[SegmentDesc; 4],
) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..12].copy_from_slice(&page_size.to_le_bytes());
    h[12..16].copy_from_slice(&0u32.to_le_bytes());
    h[16..24].copy_from_slice(&n.to_le_bytes());
    h[24..32].copy_from_slice(&m.to_le_bytes());
    for (i, seg) in segs.iter().enumerate() {
        let at = 32 + i * 24;
        h[at..at + 8].copy_from_slice(&seg.offset.to_le_bytes());
        h[at + 8..at + 16].copy_from_slice(&seg.len.to_le_bytes());
        h[at + 16..at + 24].copy_from_slice(&seg.checksum.to_le_bytes());
    }
    let checksum = Fnv64::digest(&h[..128]);
    h[128..136].copy_from_slice(&checksum.to_le_bytes());
    h
}

fn parse_superblock(h: &[u8; HEADER_BYTES]) -> Result<Superblock, IoError> {
    let magic = &h[0..4];
    if magic != MAGIC {
        let mut swapped = *MAGIC;
        swapped.reverse();
        if magic == swapped {
            return Err(IoError::Format(
                "bad magic: bytes are SRGD reversed — file written on a foreign-endian \
                 machine? the SRGD format is little-endian only"
                    .into(),
            ));
        }
        return Err(IoError::Format(format!("bad magic {magic:?}")));
    }
    let version = get_u32(h, 4);
    if version != VERSION {
        return Err(IoError::Format(format!(
            "unsupported SRGD version {version} (this reader supports {VERSION})"
        )));
    }
    let stored = get_u64(h, 128);
    let computed = Fnv64::digest(&h[..128]);
    if stored != computed {
        return Err(IoError::Format(format!(
            "superblock checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }
    let page_size = get_u32(h, 8);
    validate_page_size(page_size)?;
    let flags = get_u32(h, 12);
    if flags != 0 {
        return Err(IoError::Format(format!(
            "unknown superblock flags {flags:#x} (refusing to guess their meaning)"
        )));
    }
    let n = get_u64(h, 16);
    const MAX_NODES: u64 = u32::MAX as u64 + 1; // node ids are u32
    if n > MAX_NODES {
        return Err(IoError::Format(format!(
            "node count {n} exceeds the u32 id space"
        )));
    }
    let m = get_u64(h, 24);
    let mut segs = [SegmentDesc {
        offset: 0,
        len: 0,
        checksum: 0,
    }; 4];
    for (i, seg) in segs.iter_mut().enumerate() {
        let at = 32 + i * 24;
        *seg = SegmentDesc {
            offset: get_u64(h, at),
            len: get_u64(h, at + 8),
            checksum: get_u64(h, at + 16),
        };
    }
    // Segment lengths are fully determined by (n, m); a descriptor that
    // disagrees is corruption, caught before any geometry math.
    let offsets_len = (n as u128 + 1) * 8;
    let elems_len = m as u128 * 4;
    for (i, seg) in segs.iter().enumerate() {
        let want = if i % 2 == 0 { offsets_len } else { elems_len };
        if seg.len as u128 != want {
            return Err(IoError::Format(format!(
                "segment {} length {} does not match n={n}, m={m} (expected {want})",
                SegmentId::ALL[i].name(),
                seg.len
            )));
        }
    }
    Ok(Superblock {
        page_size: page_size as u64,
        n,
        m,
        segs,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_zeros<W: Write>(w: &mut W, mut count: u64) -> Result<(), IoError> {
    let zeros = [0u8; 4096];
    while count > 0 {
        let take = count.min(zeros.len() as u64) as usize;
        w.write_all(&zeros[..take])?;
        count -= take as u64;
    }
    Ok(())
}

fn write_u64_words<W: Write>(w: &mut W, vals: &[usize]) -> Result<u64, IoError> {
    let mut fnv = Fnv64::new();
    for &v in vals {
        let b = (v as u64).to_le_bytes();
        fnv.update(&b);
        w.write_all(&b)?;
    }
    Ok(fnv.finish())
}

fn write_u32_words<W: Write>(w: &mut W, vals: &[NodeId]) -> Result<u64, IoError> {
    let mut fnv = Fnv64::new();
    for &v in vals {
        let b = v.to_le_bytes();
        fnv.update(&b);
        w.write_all(&b)?;
    }
    Ok(fnv.finish())
}

/// Writes `g` to `path` in the `SRGD` on-disk layout with the given page
/// size (see [`DEFAULT_PAGE_SIZE`]). Parent directories are created.
///
/// Segments are streamed with their checksums computed on the fly; the
/// superblock is written last (a crash mid-write leaves an all-zero
/// header page, which readers reject as bad magic — a torn file can never
/// validate).
pub fn write_disk_graph<P: AsRef<Path>>(
    g: &CsrGraph,
    path: P,
    page_size: u32,
) -> Result<(), IoError> {
    validate_page_size(page_size)?;
    let ps = page_size as u64;
    let n = g.num_nodes() as u64;
    let m = g.num_edges() as u64;
    let (out_offsets, out_targets) = g.raw_out();
    let (in_offsets, in_sources) = g.raw_in();

    let lens = [(n + 1) * 8, m * 4, (n + 1) * 8, m * 4];
    let mut segs = [SegmentDesc {
        offset: 0,
        len: 0,
        checksum: 0,
    }; 4];
    let mut cursor = ps; // page 0 is the superblock
    for (seg, &len) in segs.iter_mut().zip(&lens) {
        seg.offset = cursor;
        seg.len = len;
        cursor = align_up(cursor + len, ps);
    }

    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    write_zeros(&mut w, ps)?; // superblock placeholder
    for (i, seg) in segs.iter_mut().enumerate() {
        seg.checksum = match i {
            0 => write_u64_words(&mut w, out_offsets)?,
            1 => write_u32_words(&mut w, out_targets)?,
            2 => write_u64_words(&mut w, in_offsets)?,
            _ => write_u32_words(&mut w, in_sources)?,
        };
        write_zeros(
            &mut w,
            align_up(seg.offset + seg.len, ps) - (seg.offset + seg.len),
        )?;
    }
    w.seek(SeekFrom::Start(0))?;
    w.write_all(&encode_superblock(page_size, n, m, &segs))?;
    w.flush()?;
    Ok(())
}

/// Converts an existing `SRG1` binary snapshot (see [`crate::io`]) into the
/// storage-tiered `SRGD` layout — the migration seam for cached datasets.
pub fn convert_binary<P: AsRef<Path>, Q: AsRef<Path>>(
    src: P,
    dst: Q,
    page_size: u32,
) -> Result<(), IoError> {
    let g = crate::io::load_binary(src)?;
    write_disk_graph(&g, dst, page_size)
}

// ---------------------------------------------------------------------------
// Open-time validation scans
// ---------------------------------------------------------------------------

struct OffsetScan {
    /// Element-index ranges `(lo, hi)` of neighbour lists whose bytes cross
    /// a page boundary in the corresponding element segment.
    spans: Vec<(u64, u64)>,
    /// Decoded values, kept only when the segment is being pinned.
    values: Option<Vec<u64>>,
}

/// Streams one offset segment: checksum, structural validation
/// (`first == 0`, monotone, `last == m`), page-boundary span discovery for
/// the element segment it indexes, and optional pinning.
fn scan_offsets(
    adaptor: &dyn Adaptor,
    seg: &SegmentDesc,
    name: &str,
    m: u64,
    ps: u64,
    pin: bool,
) -> Result<OffsetScan, IoError> {
    let mut fnv = Fnv64::new();
    let mut values = if pin {
        Some(Vec::with_capacity((seg.len / 8) as usize))
    } else {
        None
    };
    let mut spans = Vec::new();
    // Structural problems are recorded but reported only after the
    // checksum verdict: corrupt bytes should be diagnosed as corruption,
    // not as whatever structural nonsense the corruption happens to spell.
    let mut structural: Option<String> = None;
    let mut prev: Option<u64> = None;
    let mut index = 0u64;
    let mut read = 0u64;
    let mut buf = vec![0u8; SCAN_CHUNK.min(seg.len as usize)];
    while read < seg.len {
        let take = (seg.len - read).min(SCAN_CHUNK as u64) as usize;
        let chunk = &mut buf[..take];
        adaptor.read_at(seg.offset + read, chunk)?;
        fnv.update(chunk);
        for word in chunk.chunks_exact(8) {
            let mut a = [0u8; 8];
            a.copy_from_slice(word);
            let v = u64::from_le_bytes(a);
            if structural.is_none() {
                match prev {
                    None => {
                        if v != 0 {
                            structural = Some(format!("{name}: first offset is {v}, expected 0"));
                        }
                    }
                    Some(p) => {
                        if v < p {
                            structural = Some(format!(
                                "{name}: offsets not monotone at index {index} ({p} then {v})"
                            ));
                        } else if v > p {
                            // Nonempty list: does its element byte range
                            // cross a page boundary?
                            let lo_byte = p * 4;
                            let hi_byte = v * 4 - 1;
                            if lo_byte / ps != hi_byte / ps {
                                spans.push((p, v));
                            }
                        }
                    }
                }
                if let Some(vals) = &mut values {
                    vals.push(v);
                }
            }
            prev = Some(v);
            index += 1;
        }
        read += take as u64;
    }
    let checksum = fnv.finish();
    if checksum != seg.checksum {
        return Err(IoError::Format(format!(
            "{name} checksum mismatch: stored {:#018x}, computed {checksum:#018x}",
            seg.checksum
        )));
    }
    if let Some(msg) = structural {
        return Err(IoError::Format(msg));
    }
    if prev != Some(m) {
        return Err(IoError::Format(format!(
            "{name}: final offset {prev:?} does not equal m = {m}"
        )));
    }
    Ok(OffsetScan { spans, values })
}

fn decode_u32_checked(
    bytes: &[u8],
    n: usize,
    name: &str,
    into: &mut Vec<NodeId>,
) -> Result<(), IoError> {
    for word in bytes.chunks_exact(4) {
        let mut a = [0u8; 4];
        a.copy_from_slice(word);
        let t = u32::from_le_bytes(a);
        if (t as usize) >= n {
            return Err(IoError::Format(format!(
                "{name}: node id {t} out of range (n = {n})"
            )));
        }
        into.push(t);
    }
    Ok(())
}

/// Streams one element segment verifying its checksum and id bounds,
/// optionally keeping the decoded values (pinning).
fn scan_elements(
    adaptor: &dyn Adaptor,
    seg: &SegmentDesc,
    name: &str,
    n: usize,
    pin: bool,
) -> Result<Option<Vec<NodeId>>, IoError> {
    let mut fnv = Fnv64::new();
    let mut values = if pin {
        Some(Vec::with_capacity((seg.len / 4) as usize))
    } else {
        None
    };
    let mut scratch = Vec::new();
    let mut read = 0u64;
    let mut buf = vec![0u8; SCAN_CHUNK.min(seg.len as usize)];
    while read < seg.len {
        let take = (seg.len - read).min(SCAN_CHUNK as u64) as usize;
        let chunk = &mut buf[..take];
        adaptor.read_at(seg.offset + read, chunk)?;
        fnv.update(chunk);
        let into = values.as_mut().unwrap_or(&mut scratch);
        decode_u32_checked(chunk, n, name, into)?;
        if values.is_none() {
            scratch.clear();
        }
        read += take as u64;
    }
    let checksum = fnv.finish();
    if checksum != seg.checksum {
        return Err(IoError::Format(format!(
            "{name} checksum mismatch: stored {:#018x}, computed {checksum:#018x}",
            seg.checksum
        )));
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// Segment readers
// ---------------------------------------------------------------------------

/// One offset array: fully pinned in RAM, or paged over the adaptor.
#[derive(Debug)]
enum OffsetSeg {
    Pinned(Box<[u64]>),
    Paged(PagedU64),
}

impl OffsetSeg {
    fn get(&self, i: usize, c: &CounterStripe) -> Result<u64, IoError> {
        match self {
            OffsetSeg::Pinned(data) => {
                TierCounters::bump(&c.pinned_reads);
                data.get(i)
                    .copied()
                    .ok_or_else(|| IoError::Format(format!("offset index {i} out of range")))
            }
            OffsetSeg::Paged(p) => p.get(i, c),
        }
    }
}

/// A paged `u64` array: fixed-size pages decoded on first touch into a
/// write-once ([`OnceLock`]) page table. No eviction — the budget bounds
/// what is *pinned*; faulted pages are the cache layer above the adaptor.
#[derive(Debug)]
struct PagedU64 {
    adaptor: Arc<dyn Adaptor>,
    file_offset: u64,
    len: u64,
    page_size: u64,
    pages: Vec<OnceLock<Box<[u64]>>>,
}

impl PagedU64 {
    fn page(&self, idx: usize, c: &CounterStripe) -> Result<&[u64], IoError> {
        let slot = self
            .pages
            .get(idx)
            .ok_or_else(|| IoError::Format(format!("offset page {idx} out of range")))?;
        let mut faulted = false;
        if slot.get().is_none() {
            let start = idx as u64 * self.page_size;
            let take = (self.len - start).min(self.page_size) as usize;
            let mut buf = vec![0u8; take];
            self.adaptor.read_at(self.file_offset + start, &mut buf)?;
            TierCounters::bump(&c.adaptor_reads);
            TierCounters::add(&c.adaptor_bytes, take as u64);
            let mut vals = Vec::with_capacity(take / 8);
            for word in buf.chunks_exact(8) {
                let mut a = [0u8; 8];
                a.copy_from_slice(word);
                vals.push(u64::from_le_bytes(a));
            }
            // First thread to decode wins; a racing thread decoded the
            // same immutable bytes, so the loser's copy is just dropped
            // and its read is served — and counted — as a hit on the
            // winner's page. Each call is thus exactly one fault or hit.
            faulted = slot.set(vals.into_boxed_slice()).is_ok();
        }
        TierCounters::bump(if faulted {
            &c.page_faults
        } else {
            &c.page_hits
        });
        match slot.get() {
            Some(p) => Ok(p),
            // Unreachable: the slot was just filled above.
            None => Err(IoError::Format("page slot empty after fill".into())),
        }
    }

    fn get(&self, i: usize, c: &CounterStripe) -> Result<u64, IoError> {
        let byte = i as u64 * 8;
        if byte + 8 > self.len {
            return Err(IoError::Format(format!("offset index {i} out of range")));
        }
        let page = self.page((byte / self.page_size) as usize, c)?;
        let within = ((byte % self.page_size) / 8) as usize;
        page.get(within)
            .copied()
            .ok_or_else(|| IoError::Format(format!("offset index {i} past decoded page end")))
    }
}

/// One element (node id) array: fully pinned, or paged with a spill table
/// for lists that cross page boundaries.
#[derive(Debug)]
enum ElemSeg {
    Pinned(Box<[NodeId]>),
    Paged(PagedU32),
}

impl ElemSeg {
    fn slice(&self, lo: u64, hi: u64, c: &CounterStripe) -> Result<&[NodeId], IoError> {
        match self {
            ElemSeg::Pinned(data) => {
                TierCounters::bump(&c.pinned_reads);
                data.get(lo as usize..hi as usize).ok_or_else(|| {
                    IoError::Format(format!("element range {lo}..{hi} out of range"))
                })
            }
            ElemSeg::Paged(p) => p.slice(lo, hi, c),
        }
    }
}

/// A paged `u32` array, plus the spill table of boundary-crossing lists
/// materialised at open (sorted by starting element index).
#[derive(Debug)]
struct PagedU32 {
    adaptor: Arc<dyn Adaptor>,
    file_offset: u64,
    len: u64,
    page_size: u64,
    n: usize,
    name: &'static str,
    pages: Vec<OnceLock<Box<[NodeId]>>>,
    spill: Box<[(u64, Box<[NodeId]>)]>,
}

impl PagedU32 {
    fn page(&self, idx: usize, c: &CounterStripe) -> Result<&[NodeId], IoError> {
        let slot = self
            .pages
            .get(idx)
            .ok_or_else(|| IoError::Format(format!("element page {idx} out of range")))?;
        let mut faulted = false;
        if slot.get().is_none() {
            let start = idx as u64 * self.page_size;
            let take = (self.len - start).min(self.page_size) as usize;
            let mut buf = vec![0u8; take];
            self.adaptor.read_at(self.file_offset + start, &mut buf)?;
            TierCounters::bump(&c.adaptor_reads);
            TierCounters::add(&c.adaptor_bytes, take as u64);
            let mut vals = Vec::with_capacity(take / 4);
            decode_u32_checked(&buf, self.n, self.name, &mut vals)?;
            // First thread to decode wins (immutable bytes; see PagedU64).
            faulted = slot.set(vals.into_boxed_slice()).is_ok();
        }
        TierCounters::bump(if faulted {
            &c.page_faults
        } else {
            &c.page_hits
        });
        match slot.get() {
            Some(p) => Ok(p),
            // Unreachable: the slot was just filled above.
            None => Err(IoError::Format("page slot empty after fill".into())),
        }
    }

    fn slice(&self, lo: u64, hi: u64, c: &CounterStripe) -> Result<&[NodeId], IoError> {
        if lo == hi {
            return Ok(&[]);
        }
        if lo > hi || hi * 4 > self.len {
            return Err(IoError::Format(format!(
                "{}: element range {lo}..{hi} out of range",
                self.name
            )));
        }
        let lo_byte = lo * 4;
        let hi_byte = hi * 4 - 1;
        let p0 = lo_byte / self.page_size;
        let p1 = hi_byte / self.page_size;
        if p0 == p1 {
            let page = self.page(p0 as usize, c)?;
            let start = ((lo_byte % self.page_size) / 4) as usize;
            let want = (hi - lo) as usize;
            page.get(start..start + want).ok_or_else(|| {
                IoError::Format(format!(
                    "{}: range {lo}..{hi} past decoded page end",
                    self.name
                ))
            })
        } else {
            TierCounters::bump(&c.spill_hits);
            match self.spill.binary_search_by_key(&lo, |e| e.0) {
                Ok(i) => Ok(&self.spill[i].1),
                Err(_) => Err(IoError::Format(format!(
                    "{}: spanning list at element {lo} missing from spill table",
                    self.name
                ))),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// DiskGraph
// ---------------------------------------------------------------------------

/// Options for [`DiskGraph::open`].
#[derive(Debug, Clone, Copy)]
pub struct DiskGraphOptions {
    /// RAM budget for pinning segments, in bytes. `0` leaves everything on
    /// the storage tier (the page cache and spill table still use memory
    /// proportional to the *touched* working set); `u64::MAX` pins the
    /// whole graph.
    pub budget_bytes: u64,
    /// Verify element-segment checksums and id bounds at open by streaming
    /// them once. Off, corruption in unpinned element pages is still
    /// caught at fault time by per-page id bounds checks, but a checksum
    /// mismatch goes undetected until (unless) the damaged page is
    /// touched. Offset segments are always fully verified.
    pub verify: bool,
}

impl Default for DiskGraphOptions {
    fn default() -> Self {
        Self {
            budget_bytes: 0,
            verify: true,
        }
    }
}

impl DiskGraphOptions {
    /// Fully disk-resident: nothing pinned, full verification.
    pub fn disk_resident() -> Self {
        Self::default()
    }

    /// Everything pinned in RAM (the disk file becomes a warm backing
    /// copy): the control configuration benchmarks compare tiers against.
    pub fn fully_pinned() -> Self {
        Self {
            budget_bytes: u64::MAX,
            verify: true,
        }
    }

    /// Pin the most beneficial segments that fit in `budget_bytes`.
    pub fn with_budget(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            verify: true,
        }
    }

    /// Disables the open-time element checksum pass (see
    /// [`verify`](Self::verify)).
    pub fn no_verify(mut self) -> Self {
        self.verify = false;
        self
    }
}

/// A CSR graph resident in an `SRGD` file, queryable through [`GraphView`]
/// without deserialising the file.
///
/// Neighbour resolution reads two offset words and one element range, each
/// served from (in order of preference) a pinned segment, an
/// already-faulted page, or the adaptor. All state mutated after open is
/// the write-once [`OnceLock`] page table and the tier counters, which
/// are atomics striped per reader thread (so concurrent readers never
/// contend on one counter cache line) and summed by
/// [`stats`](Self::stats). A `DiskGraph` is therefore `Send + Sync` and
/// shared freely across reader threads — queries against it are
/// bit-identical to the same queries against the [`CsrGraph`] it was
/// written from (pinned by `tests/prop_disk.rs`).
///
/// The infallible [`GraphView`] accessors panic on a storage fault (the
/// contract has no error channel); callers that want typed errors use
/// [`try_out_neighbors`](Self::try_out_neighbors) /
/// [`try_in_neighbors`](Self::try_in_neighbors).
#[derive(Debug)]
pub struct DiskGraph {
    adaptor: Arc<dyn Adaptor>,
    n: usize,
    m: usize,
    page_size: u64,
    out_offsets: OffsetSeg,
    out_targets: ElemSeg,
    in_offsets: OffsetSeg,
    in_sources: ElemSeg,
    // Boxed: the stripes are 2 KiB, kept out of `GraphBase`'s enum.
    counters: Box<TierCounters>,
    placement: PlacementReport,
}

impl DiskGraph {
    /// Opens an `SRGD` graph through `adaptor`, validating the superblock,
    /// both offset segments, and (with [`DiskGraphOptions::verify`]) both
    /// element segments, then applying the placement plan.
    pub fn open<A: Adaptor + 'static>(adaptor: A, opts: DiskGraphOptions) -> Result<Self, IoError> {
        Self::open_shared(Arc::new(adaptor), opts)
    }

    /// [`open`](Self::open) with a [`FsAdaptor`] over `path`.
    pub fn open_fs<P: AsRef<Path>>(path: P, opts: DiskGraphOptions) -> Result<Self, IoError> {
        Self::open(FsAdaptor::open(path)?, opts)
    }

    /// [`open`](Self::open) with a [`MmapAdaptor`] over `path`.
    pub fn open_mmap<P: AsRef<Path>>(path: P, opts: DiskGraphOptions) -> Result<Self, IoError> {
        Self::open(MmapAdaptor::open(path)?, opts)
    }

    /// [`open`](Self::open) with a [`MemAdaptor`] holding all of `path`.
    pub fn open_mem<P: AsRef<Path>>(path: P, opts: DiskGraphOptions) -> Result<Self, IoError> {
        Self::open(MemAdaptor::open(path)?, opts)
    }

    fn open_shared(adaptor: Arc<dyn Adaptor>, opts: DiskGraphOptions) -> Result<Self, IoError> {
        let file_len = adaptor.len();
        if file_len < HEADER_BYTES as u64 {
            return Err(IoError::Format(format!(
                "truncated superblock: file is {file_len} bytes, need at least {HEADER_BYTES}"
            )));
        }
        let mut header = [0u8; HEADER_BYTES];
        adaptor.read_at(0, &mut header)?;
        let sb = parse_superblock(&header)?;
        let ps = sb.page_size;

        // Geometry: segments page-aligned, in order, non-overlapping,
        // inside the file. u128 arithmetic — descriptors are untrusted.
        let mut prev_end = ps as u128;
        for (i, seg) in sb.segs.iter().enumerate() {
            let name = SegmentId::ALL[i].name();
            if seg.offset % ps != 0 {
                return Err(IoError::Format(format!(
                    "segment {name} offset {} is not aligned to page size {ps}",
                    seg.offset
                )));
            }
            if (seg.offset as u128) < prev_end {
                return Err(IoError::Format(format!(
                    "segment {name} at offset {} overlaps the bytes before it",
                    seg.offset
                )));
            }
            let end = seg.offset as u128 + seg.len as u128;
            if end > file_len as u128 {
                return Err(IoError::Format(format!(
                    "segment {name} overruns the file: ends at byte {end}, file is {file_len} bytes"
                )));
            }
            prev_end = end;
        }

        let n = sb.n as usize;
        let m = usize::try_from(sb.m)
            .map_err(|_| IoError::Format(format!("edge count {} exceeds usize", sb.m)))?;
        let seg_bytes = [
            sb.segs[0].len,
            sb.segs[1].len,
            sb.segs[2].len,
            sb.segs[3].len,
        ];
        let placement = plan_placement(seg_bytes, &adaptor.profile(), ps, opts.budget_bytes);

        // Offset segments: always streamed and validated in full.
        let out_scan = scan_offsets(
            &*adaptor,
            &sb.segs[0],
            SegmentId::OutOffsets.name(),
            sb.m,
            ps,
            placement.is_pinned(SegmentId::OutOffsets),
        )?;
        let in_scan = scan_offsets(
            &*adaptor,
            &sb.segs[2],
            SegmentId::InOffsets.name(),
            sb.m,
            ps,
            placement.is_pinned(SegmentId::InOffsets),
        )?;

        let out_targets = Self::build_elem_seg(
            &adaptor,
            &sb.segs[1],
            SegmentId::OutTargets,
            n,
            ps,
            placement.is_pinned(SegmentId::OutTargets),
            opts.verify,
            &out_scan.spans,
        )?;
        let in_sources = Self::build_elem_seg(
            &adaptor,
            &sb.segs[3],
            SegmentId::InSources,
            n,
            ps,
            placement.is_pinned(SegmentId::InSources),
            opts.verify,
            &in_scan.spans,
        )?;

        let out_offsets = Self::build_offset_seg(&adaptor, &sb.segs[0], ps, out_scan);
        let in_offsets = Self::build_offset_seg(&adaptor, &sb.segs[2], ps, in_scan);

        Ok(Self {
            adaptor,
            n,
            m,
            page_size: ps,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            counters: Box::default(),
            placement,
        })
    }

    fn build_offset_seg(
        adaptor: &Arc<dyn Adaptor>,
        seg: &SegmentDesc,
        ps: u64,
        scan: OffsetScan,
    ) -> OffsetSeg {
        match scan.values {
            Some(vals) => OffsetSeg::Pinned(vals.into_boxed_slice()),
            None => OffsetSeg::Paged(PagedU64 {
                adaptor: adaptor.clone(),
                file_offset: seg.offset,
                len: seg.len,
                page_size: ps,
                pages: (0..seg.len.div_ceil(ps)).map(|_| OnceLock::new()).collect(),
            }),
        }
    }

    #[allow(clippy::too_many_arguments)] // internal open-time plumbing
    fn build_elem_seg(
        adaptor: &Arc<dyn Adaptor>,
        seg: &SegmentDesc,
        id: SegmentId,
        n: usize,
        ps: u64,
        pin: bool,
        verify: bool,
        spans: &[(u64, u64)],
    ) -> Result<ElemSeg, IoError> {
        let name = id.name();
        if pin {
            let values = scan_elements(&**adaptor, seg, name, n, true)?;
            let data = values.unwrap_or_default().into_boxed_slice();
            return Ok(ElemSeg::Pinned(data));
        }
        if verify {
            scan_elements(&**adaptor, seg, name, n, false)?;
        }
        // Materialise boundary-crossing lists so the query path can always
        // hand out one contiguous slice. `spans` is produced in ascending
        // `lo` order by the offset scan, so the table is binary-searchable
        // as is. Spill ids are bounds-checked here even when `verify` is
        // off — they bypass the fault-time page checks.
        let mut spill = Vec::with_capacity(spans.len());
        for &(lo, hi) in spans {
            let take = ((hi - lo) * 4) as usize;
            let mut buf = vec![0u8; take];
            adaptor.read_at(seg.offset + lo * 4, &mut buf)?;
            let mut vals = Vec::with_capacity(take / 4);
            decode_u32_checked(&buf, n, name, &mut vals)?;
            spill.push((lo, vals.into_boxed_slice()));
        }
        Ok(ElemSeg::Paged(PagedU32 {
            adaptor: adaptor.clone(),
            file_offset: seg.offset,
            len: seg.len,
            page_size: ps,
            n,
            name,
            pages: (0..seg.len.div_ceil(ps)).map(|_| OnceLock::new()).collect(),
            spill: spill.into_boxed_slice(),
        }))
    }

    /// Out-neighbours of `v`, with storage faults surfaced as errors.
    pub fn try_out_neighbors(&self, v: NodeId) -> Result<&[NodeId], IoError> {
        let vi = v as usize;
        if vi >= self.n {
            return Err(IoError::Format(format!(
                "node {v} out of range (n = {})",
                self.n
            )));
        }
        let c = self.counters.local();
        let lo = self.out_offsets.get(vi, c)?;
        let hi = self.out_offsets.get(vi + 1, c)?;
        self.out_targets.slice(lo, hi, c)
    }

    /// In-neighbours of `v`, with storage faults surfaced as errors.
    pub fn try_in_neighbors(&self, v: NodeId) -> Result<&[NodeId], IoError> {
        let vi = v as usize;
        if vi >= self.n {
            return Err(IoError::Format(format!(
                "node {v} out of range (n = {})",
                self.n
            )));
        }
        let c = self.counters.local();
        let lo = self.in_offsets.get(vi, c)?;
        let hi = self.in_offsets.get(vi + 1, c)?;
        self.in_sources.slice(lo, hi, c)
    }

    /// The page size of the underlying file, in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Total size of the underlying file, in bytes (with page padding).
    pub fn file_bytes(&self) -> u64 {
        self.adaptor.len()
    }

    /// The storage tier name of the backing adaptor (`"mem"`, `"fs"`,
    /// `"mmap"`).
    pub fn tier(&self) -> &'static str {
        self.adaptor.tier()
    }

    /// The placement decision this graph was opened with.
    pub fn placement(&self) -> &PlacementReport {
        &self.placement
    }

    /// Point-in-time tier counters (query-path activity since open),
    /// summed over the per-thread stripes: exact once readers are
    /// quiescent, approximate while reads are in flight.
    pub fn stats(&self) -> TierStats {
        self.counters.snapshot()
    }

    #[cold]
    fn read_failure(&self, direction: &str, v: NodeId, e: IoError) -> ! {
        // The infallible GraphView contract meets a failed storage read:
        // there is nothing sound to return, so this is the one deliberate
        // abort point of the disk read path. Fallible twins (try_*) exist
        // for callers that want the IoError instead.
        // simcheck: allow(panic-in-library) — GraphView neighbour access
        // is infallible by contract; a storage fault underneath it has no
        // sound recovery, and try_out_neighbors/try_in_neighbors give
        // callers the typed-error path.
        panic!(
            "disk graph: failed to read {direction}-neighbours of node {v} via {} adaptor: {e}",
            self.adaptor.tier()
        )
    }
}

impl GraphView for DiskGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.try_out_neighbors(v)
            .unwrap_or_else(|e| self.read_failure("out", v, e))
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.try_in_neighbors(v)
            .unwrap_or_else(|e| self.read_failure("in", v, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("simrank-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// A graph big enough (vs a 256-byte page) to exercise paging and
    /// boundary-spanning lists: 64 u32s fill a page, and gnm degrees here
    /// regularly straddle boundaries.
    fn test_graph() -> CsrGraph {
        gen::gnm(300, 4_000, 42)
    }

    fn write_test_file(name: &str, g: &CsrGraph, page: u32) -> std::path::PathBuf {
        let path = temp_path(name);
        write_disk_graph(g, &path, page).unwrap();
        path
    }

    fn assert_matches_csr(dg: &DiskGraph, g: &CsrGraph) {
        assert_eq!(dg.num_nodes(), g.num_nodes());
        assert_eq!(dg.num_edges(), g.num_edges());
        for v in 0..g.num_nodes() as NodeId {
            assert_eq!(dg.out_neighbors(v), g.out_neighbors(v), "out {v}");
            assert_eq!(dg.in_neighbors(v), g.in_neighbors(v), "in {v}");
        }
    }

    #[test]
    fn round_trip_all_adaptors_and_budgets() {
        let g = test_graph();
        let path = write_test_file("roundtrip.srgd", &g, 256);
        for budget in [0, 3_000, u64::MAX] {
            let opts = DiskGraphOptions::with_budget(budget);
            assert_matches_csr(&DiskGraph::open_mem(&path, opts).unwrap(), &g);
            assert_matches_csr(&DiskGraph::open_fs(&path, opts).unwrap(), &g);
            assert_matches_csr(&DiskGraph::open_mmap(&path, opts).unwrap(), &g);
        }
    }

    #[test]
    fn no_verify_round_trips_too() {
        let g = test_graph();
        let path = write_test_file("noverify.srgd", &g, 256);
        let dg = DiskGraph::open_mem(&path, DiskGraphOptions::disk_resident().no_verify()).unwrap();
        assert_matches_csr(&dg, &g);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::empty(5);
        let path = write_test_file("empty.srgd", &g, 256);
        let dg = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        assert_matches_csr(&dg, &g);
        let dg = DiskGraph::open_mem(&path, DiskGraphOptions::fully_pinned()).unwrap();
        assert_matches_csr(&dg, &g);
    }

    #[test]
    fn convert_binary_is_the_srg1_seam() {
        let g = test_graph();
        let src = temp_path("seam.srg1");
        crate::io::save_binary(&g, &src).unwrap();
        let dst = temp_path("seam.srgd");
        convert_binary(&src, &dst, DEFAULT_PAGE_SIZE).unwrap();
        let dg = DiskGraph::open_mem(&dst, DiskGraphOptions::default()).unwrap();
        assert_matches_csr(&dg, &g);
    }

    #[test]
    fn placement_respects_budget_and_counters_tell_the_story() {
        let g = test_graph();
        let path = write_test_file("placement.srgd", &g, 256);

        // Zero budget: nothing pinned; queries fault pages.
        let cold = DiskGraph::open_fs(&path, DiskGraphOptions::disk_resident()).unwrap();
        assert_eq!(cold.placement().pinned_segments(), 0);
        assert_eq!(cold.stats(), TierStats::default(), "open counts nothing");
        let _ = cold.out_neighbors(7);
        let s = cold.stats();
        assert!(s.page_faults > 0, "{s:?}");
        assert_eq!(s.pinned_reads, 0, "{s:?}");

        // Unlimited budget: everything pinned; zero faults ever.
        let pinned = DiskGraph::open_fs(&path, DiskGraphOptions::fully_pinned()).unwrap();
        assert_eq!(pinned.placement().pinned_segments(), 4);
        for v in 0..pinned.num_nodes() as NodeId {
            let _ = pinned.out_neighbors(v);
            let _ = pinned.in_neighbors(v);
        }
        let s = pinned.stats();
        assert_eq!(s.page_faults, 0, "{s:?}");
        assert_eq!(s.adaptor_reads, 0, "{s:?}");
        assert!(s.pinned_reads > 0, "{s:?}");

        // Offsets-only budget: offsets pinned, elements fault.
        let offsets_budget = (g.num_nodes() as u64 + 1) * 8 * 2;
        let partial =
            DiskGraph::open_fs(&path, DiskGraphOptions::with_budget(offsets_budget)).unwrap();
        assert!(partial.placement().is_pinned(SegmentId::OutOffsets));
        assert!(partial.placement().is_pinned(SegmentId::InOffsets));
        assert!(!partial.placement().is_pinned(SegmentId::OutTargets));
        let _ = partial.out_neighbors(7);
        let s = partial.stats();
        assert!(s.pinned_reads >= 2, "offset reads were pinned: {s:?}");
    }

    #[test]
    fn warm_reads_stop_faulting() {
        let g = test_graph();
        let path = write_test_file("warm.srgd", &g, 256);
        let dg = DiskGraph::open_mem(&path, DiskGraphOptions::disk_resident()).unwrap();
        for v in 0..dg.num_nodes() as NodeId {
            let _ = dg.out_neighbors(v);
        }
        let cold = dg.stats();
        assert!(cold.page_faults > 0);
        for v in 0..dg.num_nodes() as NodeId {
            let _ = dg.out_neighbors(v);
        }
        let warm = dg.stats().delta_since(&cold);
        assert_eq!(warm.page_faults, 0, "second sweep faults nothing: {warm:?}");
        assert_eq!(warm.adaptor_reads, 0, "{warm:?}");
        assert!(warm.page_hits + warm.spill_hits > 0, "{warm:?}");
    }

    #[test]
    fn spanning_lists_are_served_from_the_spill_table() {
        // One node with 200 out-neighbours: its 800-byte list must cross
        // 256-byte page boundaries.
        let n = 300usize;
        let edges: Vec<(NodeId, NodeId)> = (0..200).map(|t| (0, t + 1)).collect();
        let g = CsrGraph::from_sorted_edges(n, &edges);
        let path = write_test_file("spill.srgd", &g, 256);
        let dg = DiskGraph::open_mem(&path, DiskGraphOptions::disk_resident()).unwrap();
        assert_eq!(dg.out_neighbors(0), g.out_neighbors(0));
        assert!(dg.stats().spill_hits > 0, "{:?}", dg.stats());
    }

    #[test]
    fn striped_counters_sum_exactly_across_threads() {
        use super::super::placement::STRIPES;
        use std::collections::BTreeSet;
        use std::sync::Barrier;

        let g = test_graph();
        let path = write_test_file("stripes.srgd", &g, 256);
        // Offsets pinned, elements paged: every counter but the adaptor
        // ones is exercised by one sweep.
        let opts = DiskGraphOptions::with_budget((g.num_nodes() as u64 + 1) * 8 * 2);
        let sweep = |dg: &DiskGraph| {
            for v in 0..dg.num_nodes() as NodeId {
                dg.try_out_neighbors(v).unwrap();
                dg.try_in_neighbors(v).unwrap();
            }
        };
        let one = DiskGraph::open_mem(&path, opts).unwrap();
        sweep(&one);
        let one = one.stats();
        assert!(one.pinned_reads > 0 && one.spill_hits > 0, "{one:?}");

        // The distinct element pages a sweep touches: those of every
        // non-empty list that fits in one 256-byte page.
        let pages_of = |list: &dyn Fn(NodeId) -> usize| {
            let mut touched = BTreeSet::new();
            let mut lo = 0u64;
            for v in 0..g.num_nodes() as NodeId {
                let hi = lo + list(v) as u64;
                if lo < hi && lo * 4 / 256 == (hi * 4 - 1) / 256 {
                    touched.insert(lo * 4 / 256);
                }
                lo = hi;
            }
            touched.len() as u64
        };
        let pages =
            pages_of(&|v| g.out_neighbors(v).len()) + pages_of(&|v| g.in_neighbors(v).len());
        assert_eq!(one.page_faults, pages, "{one:?}");

        // STRIPES + 1 threads: at least two share a stripe.
        let threads = STRIPES as u64 + 1;
        let dg = DiskGraph::open_mem(&path, opts).unwrap();
        let barrier = Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    sweep(&dg);
                });
            }
        });
        let all = dg.stats();
        assert_eq!(all.pinned_reads, threads * one.pinned_reads, "{all:?}");
        assert_eq!(
            all.page_hits + all.page_faults,
            threads * (one.page_hits + one.page_faults),
            "{all:?}"
        );
        assert_eq!(all.spill_hits, threads * one.spill_hits, "{all:?}");
        assert_eq!(all.page_faults, pages, "fills are deduplicated: {all:?}");
    }

    #[test]
    fn try_accessors_reject_out_of_range_nodes() {
        let g = test_graph();
        let path = write_test_file("range.srgd", &g, 256);
        let dg = DiskGraph::open_mem(&path, DiskGraphOptions::default()).unwrap();
        let err = dg.try_out_neighbors(g.num_nodes() as NodeId).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        let err = dg.try_in_neighbors(NodeId::MAX).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_bad_page_sizes_at_write_time() {
        let g = CsrGraph::empty(1);
        for bad in [0u32, 1, 128, 300, 1 << 25] {
            let err = write_disk_graph(&g, temp_path("bad-ps.srgd"), bad).unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "ps={bad}: {err}");
        }
    }

    // -- failure-path tests: every corruption is a typed IoError, no panic.

    fn valid_file_bytes(name: &str) -> Vec<u8> {
        let path = write_test_file(name, &test_graph(), 256);
        std::fs::read(path).unwrap()
    }

    fn open_bytes(bytes: Vec<u8>) -> Result<DiskGraph, IoError> {
        DiskGraph::open(MemAdaptor::new(bytes), DiskGraphOptions::default())
    }

    fn assert_format_err(r: Result<DiskGraph, IoError>, needle: &str) {
        match r {
            Ok(_) => panic!("corrupt file opened cleanly (wanted error about {needle:?})"),
            Err(IoError::Format(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            Err(e) => panic!("wanted Format error about {needle:?}, got {e}"),
        }
    }

    /// Recomputes the stored checksum of segment `i` and then the header
    /// checksum, so tests can corrupt payloads while keeping checksums
    /// consistent (to reach the structural validators behind them).
    fn refresh_checksums(bytes: &mut [u8], seg: usize) {
        let at = 32 + seg * 24;
        let off = get_u64(bytes, at) as usize;
        let len = get_u64(bytes, at + 8) as usize;
        let sum = Fnv64::digest(&bytes[off..off + len]);
        bytes[at + 16..at + 24].copy_from_slice(&sum.to_le_bytes());
        let header = Fnv64::digest(&bytes[..128]);
        bytes[128..136].copy_from_slice(&header.to_le_bytes());
    }

    #[test]
    fn truncated_superblock_is_rejected() {
        let bytes = valid_file_bytes("trunc.srgd");
        for cut in [0, 10, HEADER_BYTES - 1] {
            assert_format_err(open_bytes(bytes[..cut].to_vec()), "truncated superblock");
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = valid_file_bytes("magic.srgd");
        bytes[0] = b'X';
        assert_format_err(open_bytes(bytes), "bad magic");
    }

    #[test]
    fn wrong_endian_magic_names_endianness() {
        let mut bytes = valid_file_bytes("endian.srgd");
        bytes[0..4].copy_from_slice(b"DGRS"); // SRGD byte-reversed
        assert_format_err(open_bytes(bytes), "endian");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = valid_file_bytes("version.srgd");
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_format_err(open_bytes(bytes), "version 99");
    }

    #[test]
    fn header_corruption_fails_the_superblock_checksum() {
        let mut bytes = valid_file_bytes("header.srgd");
        bytes[16] ^= 0x01; // flip a bit of n
        assert_format_err(open_bytes(bytes), "superblock checksum");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut bytes = valid_file_bytes("flags.srgd");
        bytes[12] = 0x02;
        // Flags are inside the checksummed region; keep the header valid
        // so the flags check itself is what fires.
        let header = Fnv64::digest(&bytes[..128]);
        bytes[128..136].copy_from_slice(&header.to_le_bytes());
        assert_format_err(open_bytes(bytes), "flags");
    }

    #[test]
    fn segment_overrunning_file_is_rejected() {
        let bytes = valid_file_bytes("overrun.srgd");
        // Drop the file's tail: the last segment descriptor now points
        // past EOF. The header itself is intact.
        let cut = bytes.len() - 512;
        assert_format_err(open_bytes(bytes[..cut].to_vec()), "overruns the file");
    }

    #[test]
    fn offset_payload_corruption_fails_the_segment_checksum() {
        let mut bytes = valid_file_bytes("offsum.srgd");
        let seg0_off = get_u64(&bytes, 32) as usize;
        bytes[seg0_off + 8] ^= 0xff;
        assert_format_err(open_bytes(bytes), "out_offsets checksum mismatch");
    }

    #[test]
    fn nonmonotone_offsets_are_rejected() {
        let mut bytes = valid_file_bytes("monotone.srgd");
        let seg0_off = get_u64(&bytes, 32) as usize;
        let seg0_len = get_u64(&bytes, 40) as usize;
        // Make the last offset smaller than its predecessor, then repair
        // the checksums so the structural check is what fires.
        bytes[seg0_off + seg0_len - 8..seg0_off + seg0_len].copy_from_slice(&0u64.to_le_bytes());
        refresh_checksums(&mut bytes, 0);
        assert_format_err(open_bytes(bytes), "not monotone");
    }

    #[test]
    fn nonzero_first_offset_is_rejected() {
        let mut bytes = valid_file_bytes("first.srgd");
        let seg0_off = get_u64(&bytes, 32) as usize;
        bytes[seg0_off..seg0_off + 8].copy_from_slice(&1u64.to_le_bytes());
        refresh_checksums(&mut bytes, 0);
        assert_format_err(open_bytes(bytes), "first offset");
    }

    #[test]
    fn element_corruption_fails_the_segment_checksum() {
        let mut bytes = valid_file_bytes("elemsum.srgd");
        let seg1_off = get_u64(&bytes, 32 + 24) as usize;
        bytes[seg1_off] ^= 0xff;
        assert_format_err(open_bytes(bytes), "out_targets checksum mismatch");
    }

    #[test]
    fn out_of_range_target_is_rejected_at_open() {
        let mut bytes = valid_file_bytes("oob.srgd");
        let seg1_off = get_u64(&bytes, 32 + 24) as usize;
        bytes[seg1_off..seg1_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refresh_checksums(&mut bytes, 1);
        assert_format_err(open_bytes(bytes), "out of range");
    }

    #[test]
    fn out_of_range_target_is_caught_at_fault_time_without_verify() {
        let mut bytes = valid_file_bytes("oob-lazy.srgd");
        let seg1_off = get_u64(&bytes, 32 + 24) as usize;
        bytes[seg1_off..seg1_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refresh_checksums(&mut bytes, 1);
        let dg = DiskGraph::open(
            MemAdaptor::new(bytes),
            DiskGraphOptions::disk_resident().no_verify(),
        )
        .unwrap();
        // Find the node owning element 0 of out_targets (first non-empty
        // out-list) — its read must fail with a typed error, not a panic.
        let g = test_graph();
        let v = (0..g.num_nodes() as NodeId)
            .find(|&v| !g.out_neighbors(v).is_empty())
            .unwrap();
        let err = dg.try_out_neighbors(v).unwrap_err();
        assert!(matches!(err, IoError::Format(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("simrank-disk-no-such.srgd");
        let err = DiskGraph::open_fs(&path, DiskGraphOptions::default()).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
    }

    #[test]
    fn writer_is_deterministic() {
        let g = test_graph();
        let a = write_test_file("det-a.srgd", &g, 1024);
        let b = write_test_file("det-b.srgd", &g, 1024);
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    }
}
