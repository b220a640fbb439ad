//! Input generation: the graph file(s), from the workload's own graph seed,
//! and the update log and request keys, from the run's `--seed`. Same
//! `(workload, seed)` → same inputs, byte for byte.
//!
//! Graph files and the update log are written by a child process
//! (`perfbench --generate-into <dir> ...`), so the measuring process never
//! holds the generator's working set and its peak RSS reflects serving.

use crate::spec::{GraphSpec, KeyDist, StorageSpec, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simrank_common::seeds::SeedSequence;
use simrank_common::NodeId;
use simrank_eval::mixed::mixed_workload;
use simrank_eval::zipf::{ZipfDistribution, ZipfKeys};
use simrank_graph::storage::write_disk_graph;
use simrank_graph::{gen, io, CsrGraph, GraphUpdate};
use std::io::Write;
use std::path::{Path, PathBuf};

/// The generated files of one run.
#[derive(Debug, Clone)]
pub struct InputFiles {
    dir: PathBuf,
}

impl InputFiles {
    /// Files under `dir`.
    pub fn new(dir: &Path) -> Self {
        Self {
            dir: dir.to_path_buf(),
        }
    }

    /// The graph as an `SRG1` binary (served by RAM workloads; the
    /// reference copy for the disk workload).
    pub fn srg1(&self) -> PathBuf {
        self.dir.join("graph.srg1")
    }

    /// The graph as an `SRGD` file (disk workloads only).
    pub fn srgd(&self) -> PathBuf {
        self.dir.join("graph.srgd")
    }

    /// The update log, one `+ src dst` / `- src dst` line per update.
    pub fn updates(&self) -> PathBuf {
        self.dir.join("updates.txt")
    }
}

/// Builds the workload's graph from its seed.
pub fn build_graph(spec: &GraphSpec, seed: u64) -> CsrGraph {
    match *spec {
        GraphSpec::CopyingWeb {
            nodes,
            out_degree,
            copy_prob,
        } => gen::copying_web(nodes, out_degree, copy_prob, seed),
        GraphSpec::RmatHighSkew { scale, edges } => {
            gen::rmat(scale, edges, gen::RmatParams::high_skew(), seed)
        }
    }
}

/// Writes every input file of `w` for `seed` into `files`.
pub fn generate(w: &Workload, seed: u64, files: &InputFiles) -> Result<(), String> {
    let seeds = SeedSequence::new(seed);
    let g = build_graph(&w.graph, w.graph_seed);
    io::save_binary(&g, files.srg1()).map_err(|e| format!("write SRG1: {e}"))?;
    if let StorageSpec::Disk { page_bytes, .. } = w.storage {
        write_disk_graph(&g, files.srgd(), page_bytes).map_err(|e| format!("write SRGD: {e}"))?;
    }
    if let Some(ws) = w.writes {
        let log = mixed_workload(
            &g,
            ws.max_batches * ws.batch_edges,
            0,
            ws.remove_fraction,
            seeds.derive("updates"),
        );
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(files.updates()).map_err(|e| format!("create log: {e}"))?,
        );
        for u in &log.updates {
            let line = match *u {
                GraphUpdate::Insert(s, t) => format!("+ {s} {t}\n"),
                GraphUpdate::Remove(s, t) => format!("- {s} {t}\n"),
            };
            out.write_all(line.as_bytes())
                .map_err(|e| format!("write log: {e}"))?;
        }
        out.flush().map_err(|e| format!("write log: {e}"))?;
    }
    Ok(())
}

/// Reads the update log written by [`generate`].
pub fn read_updates(path: &Path) -> Result<Vec<GraphUpdate>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut parts = line.split(' ');
            let (op, s, t) = (parts.next(), parts.next(), parts.next());
            let parse = |x: Option<&str>| -> Result<NodeId, String> {
                x.and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad update line `{line}`"))
            };
            match op {
                Some("+") => Ok(GraphUpdate::Insert(parse(s)?, parse(t)?)),
                Some("-") => Ok(GraphUpdate::Remove(parse(s)?, parse(t)?)),
                _ => Err(format!("bad update line `{line}`")),
            }
        })
        .collect()
}

/// Keys are drawn in blocks of this many. Within a block the draws are
/// stratified — one from each `1/KEY_BLOCK` slice of the distribution —
/// and then shuffled, so every run queries nearly the same mix of cheap and
/// costly nodes while each key on its own is still uniform (or Zipf).
const KEY_BLOCK: usize = 1000;

/// `count` request keys over `n` nodes for the stream called `label`.
pub fn keys(dist: KeyDist, n: usize, seed: u64, label: &str, count: usize) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(SeedSequence::new(seed).derive(label));
    // Inverse CDF of the key distribution over ranks; node = rank for
    // uniform keys, the Zipf stream's scramble of the rank otherwise.
    let (cdf, zipf) = match dist {
        KeyDist::Uniform => (None, None),
        KeyDist::Zipf(exponent) => {
            let d = ZipfDistribution::new(n, exponent);
            let cdf: Vec<f64> = (0..n)
                .scan(0.0, |acc, r| {
                    *acc += d.probability(r);
                    Some(*acc)
                })
                .collect();
            (Some(cdf), Some(ZipfKeys::new(n, exponent, 0)))
        }
    };
    let key_at = |u: f64| -> NodeId {
        match (&cdf, &zipf) {
            (Some(cdf), Some(z)) => z.node_of_rank(cdf.partition_point(|&c| c < u).min(n - 1)),
            _ => ((u * n as f64) as usize).min(n - 1) as NodeId,
        }
    };
    let mut out = Vec::with_capacity(count + KEY_BLOCK);
    while out.len() < count {
        let mut block: Vec<NodeId> = (0..KEY_BLOCK)
            .map(|i| key_at((i as f64 + rng.gen::<f64>()) / KEY_BLOCK as f64))
            .collect();
        for i in (1..KEY_BLOCK).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend(block);
    }
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_seeded_stratified_and_in_range() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(1.2)] {
            let a = keys(dist, 5000, 3, "open", 2500);
            assert_eq!(a, keys(dist, 5000, 3, "open", 2500), "same seed, same keys");
            assert_ne!(a, keys(dist, 5000, 4, "open", 2500));
            assert_ne!(a, keys(dist, 5000, 3, "closed", 2500));
            assert!(a.iter().all(|&k| (k as usize) < 5000));
        }
        // Uniform: each block covers every tenth of the id range 100 times.
        let u = keys(KeyDist::Uniform, 5000, 1, "k", 1000);
        let mut deciles = [0; 10];
        for &k in &u {
            deciles[k as usize / 500] += 1;
        }
        assert_eq!(deciles, [100; 10]);
        // Zipf: the hottest node shows up about as often as its probability.
        let z = keys(KeyDist::Zipf(1.2), 5000, 1, "k", 10_000);
        let hot = ZipfKeys::new(5000, 1.2, 0).node_of_rank(0);
        let p = ZipfDistribution::new(5000, 1.2).probability(0);
        let seen = z.iter().filter(|&&k| k == hot).count() as f64 / 10_000.0;
        assert!((seen - p).abs() < 0.002, "{seen} vs {p}");
    }
}
