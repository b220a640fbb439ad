//! Batch single-source processing (paper §7 future work: "batch SimRank
//! processing").
//!
//! SimPush queries are independent and the engine holds no mutable state,
//! so a batch parallelises embarrassingly: each worker takes queries from a
//! shared counter and runs the standard pipeline. Per-query seeds are
//! derived from `(config seed, query node)`, so batch results are
//! *identical* to sequential [`SimPush::query`] calls — verified by the
//! tests — regardless of thread count or scheduling.

use crate::config::Config;
use crate::query::{QueryResult, SimPush};
use crate::workspace::QueryWorkspace;
use simrank_common::seeds::splitmix64;
use simrank_common::NodeId;
use simrank_graph::GraphView;
use std::sync::atomic::{AtomicUsize, Ordering};

impl SimPush {
    /// Configuration specialised for one query: the detection-walk seed is
    /// derived from the query node so that batch and sequential execution
    /// agree exactly.
    fn config_for(&self, u: NodeId) -> Config {
        let mut state = self.config().seed ^ ((u as u64) << 24);
        Config {
            seed: splitmix64(&mut state),
            ..self.config().clone()
        }
    }

    /// Answers one query with a per-query derived seed (the building block
    /// of [`query_batch`](Self::query_batch); also useful when callers want
    /// seed-stable results independent of query order).
    pub fn query_seeded<G: GraphView>(&self, g: &G, u: NodeId) -> QueryResult {
        SimPush::new(self.config_for(u)).query(g, u)
    }

    /// Answers one query on caller-managed scratch with a per-query derived
    /// seed — the warm building block the batch workers run; results are
    /// bit-identical to [`query_seeded`](Self::query_seeded).
    pub fn query_seeded_with<G: GraphView>(
        &self,
        g: &G,
        u: NodeId,
        ws: &mut QueryWorkspace,
    ) -> QueryResult {
        // Build a per-query engine for the derived seed; the engine itself
        // is trivially cheap (config + an empty internal workspace) and the
        // query runs on `ws`, so the worker's warm buffers are what's used.
        SimPush::new(self.config_for(u)).query_with(g, u, ws)
    }

    /// Answers many single-source queries using `threads` workers, each
    /// holding its own reused [`QueryWorkspace`] — steady-state batch
    /// throughput allocates nothing in the push stages.
    ///
    /// Results are returned in input order and are bit-identical to calling
    /// [`query_seeded`](Self::query_seeded) sequentially (workspace reuse
    /// does not perturb scores — see the `prop_workspace` suite).
    pub fn query_batch<G: GraphView + Sync>(
        &self,
        g: &G,
        queries: &[NodeId],
        threads: usize,
    ) -> Vec<QueryResult> {
        let threads = threads.max(1).min(queries.len().max(1));
        if threads == 1 {
            let mut ws = QueryWorkspace::new();
            return queries
                .iter()
                .map(|&u| self.query_seeded_with(g, u, &mut ws))
                .collect();
        }
        // Work-stealing via a shared counter; each worker returns its
        // (index, result) pairs and the scope merges them back into input
        // order.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<QueryResult>> = (0..queries.len()).map(|_| None).collect();
        let done: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let next = &next;
                let g = &g;
                handles.push(scope.spawn(move || {
                    // One workspace per worker thread, reused across every
                    // query this worker steals.
                    let mut ws = QueryWorkspace::new();
                    let mut mine = Vec::new();
                    loop {
                        // relaxed: the fetch_add's atomicity alone
                        // partitions indices; queries is immutable here.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            return mine;
                        }
                        mine.push((i, self.query_seeded_with(g, queries[i], &mut ws)));
                    }
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        for (i, result) in done {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_graph::gen;

    #[test]
    fn batch_matches_sequential_seeded_queries() {
        let g = gen::copying_web(3000, 5, 0.7, 3);
        let engine = SimPush::new(Config::new(0.02));
        let queries: Vec<NodeId> = vec![5, 100, 2500, 100, 7];
        let batch = engine.query_batch(&g, &queries, 4);
        assert_eq!(batch.len(), queries.len());
        for (i, &u) in queries.iter().enumerate() {
            let solo = engine.query_seeded(&g, u);
            assert_eq!(batch[i].query, u);
            assert_eq!(batch[i].scores, solo.scores, "query {u} (slot {i})");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = gen::gnm(800, 4000, 9);
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = (0..12).map(|i| i * 61).collect();
        let one = engine.query_batch(&g, &queries, 1);
        let many = engine.query_batch(&g, &queries, 8);
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.scores, b.scores);
        }
    }

    #[test]
    fn duplicate_queries_get_identical_answers() {
        let g = gen::gnm(300, 1500, 2);
        let engine = SimPush::new(Config::new(0.05));
        let batch = engine.query_batch(&g, &[7, 7, 7], 3);
        assert_eq!(batch[0].scores, batch[1].scores);
        assert_eq!(batch[1].scores, batch[2].scores);
    }

    #[test]
    fn empty_batch_is_fine() {
        let g = gen::gnm(50, 200, 1);
        let engine = SimPush::new(Config::new(0.05));
        assert!(engine.query_batch(&g, &[], 4).is_empty());
    }
}
