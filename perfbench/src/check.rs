//! The replay check: served answers against `SimPush::query_seeded` on the
//! graph of each answer's epoch, rebuilt from the base graph and the
//! recorded update log (epoch `e` is the base plus the first `e` batches).

use crate::serve::Answer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simpush::{QueryWorkspace, SimPush};
use simrank_graph::{CsrGraph, GraphUpdate, MutableGraph};

/// The graph of each epoch, rebuilt from the base graph and the update
/// log, for epochs asked for in non-decreasing order.
pub struct EpochGraphs<'a> {
    base: &'a CsrGraph,
    batches: std::slice::Chunks<'a, GraphUpdate>,
    replica: Option<MutableGraph>,
    graph: Option<CsrGraph>,
    epoch: u64,
}

impl<'a> EpochGraphs<'a> {
    /// Starts at epoch 0 (`base`); the log is cut into batches of
    /// `batch_edges`, one per epoch.
    pub fn new(base: &'a CsrGraph, updates: &'a [GraphUpdate], batch_edges: usize) -> Self {
        Self {
            base,
            batches: updates.chunks(batch_edges.max(1)),
            replica: None,
            graph: None,
            epoch: 0,
        }
    }

    /// The graph of `epoch`, or an error when the log ends before it or
    /// the epoch is earlier than the last one asked for.
    pub fn at(&mut self, epoch: u64) -> Result<&CsrGraph, String> {
        if epoch < self.epoch {
            return Err(format!(
                "epoch {epoch} asked for after epoch {}",
                self.epoch
            ));
        }
        if epoch == self.epoch {
            return Ok(self.graph.as_ref().unwrap_or(self.base));
        }
        let base = self.base;
        let r = self
            .replica
            .get_or_insert_with(|| MutableGraph::from_csr(base));
        while self.epoch < epoch {
            let batch = self
                .batches
                .next()
                .ok_or_else(|| format!("epoch {epoch} is past the update log"))?;
            for &u in batch {
                match u {
                    GraphUpdate::Insert(s, t) => r.insert_edge(s, t),
                    GraphUpdate::Remove(s, t) => r.remove_edge(s, t),
                };
            }
            self.epoch += 1;
        }
        Ok(self.graph.insert(r.snapshot()))
    }
}

/// What the check did.
#[derive(Debug, Default)]
pub struct Checked {
    /// Served answers compared with the reference.
    pub answers: usize,
    /// Distinct `(epoch, node)` reference queries that took.
    pub queries: usize,
    /// Checked answers whose serving epoch was known (see
    /// [`Answer::served_at`]).
    pub pinned: usize,
    /// Checked cache hits served at a later epoch than they were computed
    /// at.
    pub promoted: usize,
    /// Every answer that differs, described.
    pub mismatches: Vec<String>,
}

/// Recomputes every answer (`sample: None`), or every cache hit known to
/// be served at a later epoch than it was computed at plus a seeded sample
/// of `sample` of the other answers, on `threads` threads, and describes
/// every one that differs. Each answer is checked at
/// [`Answer::check_epoch`]; answers that share a node and epoch share one
/// reference query.
#[allow(clippy::too_many_arguments)]
pub fn check_answers(
    engine: &SimPush,
    base: &CsrGraph,
    updates: &[GraphUpdate],
    batch_edges: usize,
    answers: &[Answer],
    sample: Option<usize>,
    seed: u64,
    top_k: usize,
    threads: usize,
) -> Checked {
    let (mut picked, mut rest): (Vec<&Answer>, Vec<&Answer>) = answers
        .iter()
        .partition(|a| sample.is_none() || a.check_epoch() != a.epoch);
    let take = sample.unwrap_or(0).min(rest.len());
    // A seeded partial Fisher–Yates shuffle picks the sample.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4EC);
    for i in 0..take {
        let j = rng.gen_range(i..rest.len());
        rest.swap(i, j);
    }
    picked.extend(&rest[..take]);
    picked.sort_by_key(|a| (a.check_epoch(), a.node));
    let groups: Vec<&[&Answer]> = picked
        .chunk_by(|a, b| (a.check_epoch(), a.node) == (b.check_epoch(), b.node))
        .collect();
    let per_thread = groups.len().div_ceil(threads.max(1)).max(1);
    let mut mismatches = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .chunks(per_thread)
            .map(|part| {
                scope.spawn(move || {
                    let mut graphs = EpochGraphs::new(base, updates, batch_edges);
                    let mut ws = QueryWorkspace::new();
                    let mut bad = Vec::new();
                    for group in part.iter() {
                        let (epoch, node) = (group[0].check_epoch(), group[0].node);
                        let want = match graphs.at(epoch) {
                            Ok(g) => engine.query_seeded_with(g, node, &mut ws).top_k(top_k),
                            Err(e) => {
                                bad.push(format!("answer for node {node}: {e}"));
                                continue;
                            }
                        };
                        for a in group.iter().filter(|a| a.top != want) {
                            bad.push(format!(
                                "served answer for node {node} (epoch {}, served at {:?}) \
                                 differs from query_seeded at epoch {epoch}",
                                a.epoch, a.served_at
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        for h in handles {
            mismatches.extend(h.join().expect("check thread panicked"));
        }
    });
    Checked {
        answers: picked.len(),
        queries: groups.len(),
        pinned: picked.iter().filter(|a| a.served_at.is_some()).count(),
        promoted: picked.iter().filter(|a| a.check_epoch() != a.epoch).count(),
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpush::Config;
    use simrank_graph::{gen, GraphStore};

    #[test]
    fn epoch_answers_check_and_a_wrong_one_is_caught() {
        let base = gen::copying_web(300, 4, 0.7, 2);
        let store = GraphStore::new(base.clone());
        let engine = SimPush::new(Config::new(0.05));
        let log = simrank_eval::mixed::mixed_workload(&base, 40, 0, 0.5, 9).updates;
        let mut answers = Vec::new();
        for (e, batch) in log.chunks(10).enumerate() {
            let snap = store.snapshot();
            for node in [e as u32, 100 + e as u32, 100 + e as u32] {
                answers.push(Answer {
                    node,
                    epoch: snap.epoch(),
                    served_at: Some(snap.epoch()),
                    top: engine.query_seeded(&*snap, node).top_k(5),
                });
            }
            store.commit(batch);
        }
        for threads in [1, 3] {
            let all = check_answers(&engine, &base, &log, 10, &answers, None, 1, 5, threads);
            assert!(all.mismatches.is_empty(), "{:?}", all.mismatches);
            assert_eq!(
                (all.answers, all.queries),
                (12, 8),
                "duplicates share a query"
            );
        }
        let sample = check_answers(&engine, &base, &log, 10, &answers, Some(5), 1, 5, 2);
        assert_eq!(sample.answers, 5);
        // An answer served later than computed is always checked.
        let mut promoted = answers.clone();
        promoted[0].served_at = Some(1);
        let sample = check_answers(&engine, &base, &log, 10, &promoted, Some(0), 1, 5, 2);
        assert_eq!((sample.answers, sample.promoted), (1, 1));

        // A corrupted answer is caught.
        let mut bad = answers.clone();
        bad[5].top.reverse();
        bad[5].top[0].1 += 1.0;
        let found = check_answers(&engine, &base, &log, 10, &bad, None, 1, 5, 2);
        assert_eq!(found.mismatches.len(), 1, "{:?}", found.mismatches);

        // A cache hit reports the epoch its answer was computed at. Served
        // at a later epoch whose updates changed the answer, it is stale:
        // checked only at its computed epoch it would pass, checked at the
        // epoch it was served at it is caught.
        let last = store.snapshot();
        let at_base = |u| engine.query_seeded(&base, u).top_k(5);
        let at_last = |u| engine.query_seeded(&*last, u).top_k(5);
        let u = (0..300)
            .find(|&u| at_base(u) != at_last(u))
            .expect("the updates change some answer");
        let stale = Answer {
            node: u,
            epoch: 0,
            served_at: Some(last.epoch()),
            top: at_base(u),
        };
        let unproven = Answer {
            served_at: None,
            ..stale.clone()
        };
        let weak = check_answers(&engine, &base, &log, 10, &[unproven], None, 1, 5, 1);
        assert!(weak.mismatches.is_empty());
        let strong = check_answers(&engine, &base, &log, 10, &[stale], None, 1, 5, 1);
        assert_eq!(strong.mismatches.len(), 1);
    }
}
