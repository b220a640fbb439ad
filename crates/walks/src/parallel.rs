//! Parallel pairwise Monte-Carlo sampling (std scoped threads).
//!
//! Ground-truth generation is the only embarrassingly parallel, multi-second
//! sampling workload in the repository, so it gets a parallel driver. Each
//! worker receives a seed derived from `(master seed, worker index)`; results
//! are the exact sum of the per-worker tallies, so the estimate is
//! reproducible for a fixed `(seed, threads)` pair and statistically
//! identical across thread counts.

use crate::engine::WalkParams;
use crate::pairwise::walks_meet;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simrank_common::seeds::SeedSequence;
use simrank_common::NodeId;
use simrank_graph::GraphView;

/// Monte-Carlo estimate of `s(u, v)` using `threads` workers.
pub fn pairwise_simrank_mc_parallel<G: GraphView + Sync>(
    g: &G,
    u: NodeId,
    v: NodeId,
    params: WalkParams,
    samples: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let threads = threads.max(1).min(samples);
    let mut seq = SeedSequence::new(seed);
    let worker_seeds: Vec<u64> = (0..threads).map(|_| seq.next_seed()).collect();
    let base = samples / threads;
    let extra = samples % threads;

    let total_meets: usize = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (i, &wseed) in worker_seeds.iter().enumerate() {
            let quota = base + usize::from(i < extra);
            let g = &g;
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(wseed);
                let mut meets = 0usize;
                for _ in 0..quota {
                    if walks_meet(g, u, v, params, &mut rng) {
                        meets += 1;
                    }
                }
                meets
            }));
        }
        handles
            .into_iter()
            // simcheck: allow(panic-in-library) — deliberate propagation:
            // a worker panic is a bug and the reduction has no partial
            // answer to salvage, so re-raise on the caller's thread.
            .map(|h| h.join().unwrap())
            .sum()
    });

    total_meets as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::pairwise_simrank_mc;
    use simrank_graph::gen::shapes;

    #[test]
    fn matches_serial_estimate_statistically() {
        let g = shapes::shared_parents();
        let p = WalkParams::new(0.6);
        let serial = pairwise_simrank_mc(&g, 0, 1, p, 100_000, 1);
        let par = pairwise_simrank_mc_parallel(&g, 0, 1, p, 100_000, 2, 4);
        assert!(
            (serial - par).abs() < 0.01,
            "serial {serial} parallel {par}"
        );
        assert!((par - 0.3).abs() < 0.01);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let g = shapes::jeh_widom();
        let p = WalkParams::default();
        let a = pairwise_simrank_mc_parallel(&g, 1, 2, p, 20_000, 9, 3);
        let b = pairwise_simrank_mc_parallel(&g, 1, 2, p, 20_000, 9, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_more_threads_than_samples() {
        let g = shapes::single_parent();
        let est = pairwise_simrank_mc_parallel(&g, 0, 1, WalkParams::default(), 3, 1, 64);
        assert!((0.0..=1.0).contains(&est));
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let g = shapes::single_parent();
        let est = pairwise_simrank_mc_parallel(&g, 0, 1, WalkParams::new(0.6), 50_000, 5, 1);
        assert!((est - 0.6).abs() < 0.02, "estimate {est}");
    }
}
