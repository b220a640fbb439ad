//! [`ShardedStore`]: the node universe partitioned across K single-writer
//! [`GraphStore`] shards, queried through composite consistent-cut
//! snapshots.
//!
//! A single [`GraphStore`] serialises all updates behind one writer lock,
//! so update throughput tops out at one writer no matter how much hardware
//! serves the graph. `ShardedStore` removes that ceiling by partitioning
//! the **node universe** (not the edge set) across K shards with a
//! pluggable [`Partitioner`]: shard `k` owns every node `v` with
//! `shard_of(v) == k` and stores the full adjacency — out- *and*
//! in-neighbour lists — of its owned nodes. An edge `(s, t)` therefore
//! lives in shard `p(s)` (which serves `out_neighbors(s)`) and is
//! *mirrored* into shard `p(t)` when the edge crosses shards, so that
//! `in_neighbors(t)` is always answerable from `t`'s own shard. This is
//! the standard edge-replication vertex partitioning of distributed graph
//! stores; the replication factor is `1 + cross`, where `cross` is the
//! fraction of edges whose endpoints land in different shards — which is
//! exactly what a locality-aware [`RangePartitioner`] minimises.
//!
//! # Why sharding helps
//!
//! * **K independent writers.** Each shard is a single-writer
//!   [`GraphStore`]; K writer threads apply and publish concurrently with
//!   no shared lock ([`ShardedStore::commit_lockstep`] drives exactly this
//!   shape).
//! * **Smaller compaction domains.** A shard compaction rebuilds
//!   `O(n + m_k)` instead of `O(n + m)`; with a locality-friendly
//!   partitioner `m_k ≈ m / K`, so the amortised compaction cost per
//!   update drops by up to K× even before any parallelism — the effect
//!   the `sharded_serve` bench sweeps.
//!
//! # Consistent cuts
//!
//! A reader never assembles its own view from live shards — it acquires a
//! [`ShardedSnapshot`] that the store [`refresh`](ShardedStore::refresh)ed
//! at a **quiescent cut**: a point where every shard had published all
//! updates of the same global batch prefix (and, crucially, both sides of
//! every mirrored cross-shard edge). The snapshot is an `Arc`'d vector of
//! per-shard epoch [`GraphSnapshot`]s plus the partitioner; it implements
//! [`GraphView`] by routing node id → shard, so SimPush queries run
//! unchanged — and bit-identically to a single [`GraphStore`] or a fresh
//! CSR rebuild of the same logical graph (`tests/prop_sharded.rs` pins
//! this). The sequential [`commit`](ShardedStore::commit) refreshes
//! automatically; the concurrent
//! [`commit_lockstep`](ShardedStore::commit_lockstep) publishes per shard
//! and calls [`refresh`](ShardedStore::refresh) from exactly one writer at
//! a barrier between batches. The whole cut protocol lives in this module.

use crate::csr::CsrGraph;
use crate::store::{GraphSnapshot, GraphStore, GraphUpdate, PublishInfo};
use crate::view::GraphView;
use simrank_common::NodeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Maps node ids to shard indices. Implementations must be pure functions
/// of the node id (same id → same shard, forever): routing happens on
/// every neighbour-list access of a sharded query, so implementations
/// should also be branch-light and `#[inline]`.
pub trait Partitioner: Send + Sync {
    /// Number of shards this partitioner maps onto (≥ 1).
    fn num_shards(&self) -> usize;

    /// The shard owning node `v`; must be `< num_shards()`.
    fn shard_of(&self, v: NodeId) -> usize;
}

/// Fibonacci-hash partitioner: spreads node ids uniformly across shards
/// regardless of id locality. Best load balance, worst edge locality
/// (expected cross-shard edge fraction `(K-1)/K` on id-uncorrelated
/// graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    shards: usize,
}

impl HashPartitioner {
    /// A hash partitioner over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self { shards }
    }
}

impl Partitioner for HashPartitioner {
    #[inline]
    fn num_shards(&self) -> usize {
        self.shards
    }

    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        // Fibonacci hashing: multiply by ⌊2^64/φ⌋ and keep the high bits,
        // which are well mixed even for sequential ids.
        (((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.shards
    }
}

/// Contiguous-range partitioner: shard `k` owns ids
/// `[k·⌈n/K⌉, (k+1)·⌈n/K⌉)`. Chunks **nest** when `n` is divisible by
/// the shard counts involved: halving the shard count then exactly
/// merges neighbouring chunks, so an update stream that is shard-local
/// at `2K` shards stays local at `K` — which is what lets the
/// `sharded_serve` K-sweep run one workload across every shard count
/// (its `n` is divisible by 8). With a ragged `n` the coarser
/// boundaries shift and nesting is only approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePartitioner {
    chunk: usize,
    shards: usize,
}

impl RangePartitioner {
    /// A range partitioner splitting `num_nodes` ids into `shards`
    /// contiguous chunks of `⌈num_nodes/shards⌉`.
    ///
    /// # Panics
    /// Panics if `shards` or `num_nodes` is 0.
    pub fn new(num_nodes: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(num_nodes >= 1, "need a non-empty node universe");
        Self {
            chunk: num_nodes.div_ceil(shards),
            shards,
        }
    }
}

impl Partitioner for RangePartitioner {
    #[inline]
    fn num_shards(&self) -> usize {
        self.shards
    }

    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        // `min` guards ids ≥ num_nodes (stores assert id ranges
        // themselves, but the partitioner alone must never go out of
        // bounds).
        (v as usize / self.chunk).min(self.shards - 1)
    }
}

/// What one [`refresh_cut`](ShardedStore::refresh_cut) did — the sharded
/// analogue of [`PublishInfo`].
#[derive(Debug, Clone)]
pub struct CutInfo {
    /// The new consistent-cut number readers now acquire.
    pub cut: u64,
    /// Distinct endpoints of the effective updates this cut made visible
    /// (sorted ascending), aggregated across every shard publish since the
    /// previous refresh. Mirror-side applies touch the same endpoints as
    /// their owner-side twin, so aggregation dedups rather than
    /// double-reports. Empty when the cut only re-assembled already-clean
    /// shards (e.g. compaction-only publishes).
    pub touched: Vec<NodeId>,
}

/// An immutable consistent cut of a [`ShardedStore`]: one epoch
/// [`GraphSnapshot`] per shard plus the partitioner that routes between
/// them.
///
/// Implements [`GraphView`] — `out_neighbors(v)` and `in_neighbors(v)`
/// both come from `v`'s owning shard, which stores the full adjacency of
/// its nodes — so any [`GraphView`] algorithm runs on it unchanged and
/// answers are bit-identical to a fresh CSR rebuild of the cut's logical
/// graph.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<P: Partitioner> {
    shards: Vec<Arc<GraphSnapshot>>,
    partitioner: P,
    n: usize,
    m: usize,
    cut: u64,
}

impl<P: Partitioner> ShardedSnapshot<P> {
    /// The cut sequence number (0 = the initial base; +1 per
    /// [`refresh`](ShardedStore::refresh)).
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Number of shards in the composite.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard epoch snapshot backing shard `k`.
    pub fn shard(&self, k: usize) -> &Arc<GraphSnapshot> {
        &self.shards[k]
    }

    /// Per-shard epoch numbers at this cut (shards publish independently,
    /// so these generally differ from each other and from
    /// [`cut`](Self::cut)).
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// True if the directed edge `(src, dst)` exists at this cut.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.shards[self.partitioner.shard_of(src)].has_edge(src, dst)
    }

    /// Rebuilds the cut's logical graph as a standalone [`CsrGraph`] —
    /// what a query on this snapshot is bit-identical to querying.
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.m);
        for v in 0..self.n as NodeId {
            for &t in self.out_neighbors(v) {
                edges.push((v, t));
            }
        }
        CsrGraph::from_sorted_edges(self.n, &edges)
    }
}

impl<P: Partitioner> GraphView for ShardedSnapshot<P> {
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
        self.shards[self.partitioner.shard_of(v)].out_neighbors(v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.shards[self.partitioner.shard_of(v)].in_neighbors(v)
    }
}

/// K single-writer [`GraphStore`] shards behind one composite
/// consistent-cut snapshot.
///
/// ```
/// use simrank_graph::{gen, GraphUpdate, GraphView, HashPartitioner, ShardedStore};
///
/// let base = gen::gnm(100, 400, 1);
/// let store = ShardedStore::new(&base, HashPartitioner::new(4));
/// let before = store.snapshot(); // cut 0
/// store.commit(&[GraphUpdate::Insert(0, 99)]);
/// let after = store.snapshot();
/// assert_eq!(before.cut(), 0);
/// assert_eq!(after.cut(), 1);
/// assert_eq!(before.num_edges() + 1, after.num_edges());
/// assert!(after.has_edge(0, 99) && !before.has_edge(0, 99));
/// ```
///
/// Two usage modes:
///
/// * **Sequential** — [`commit`](Self::commit) applies a batch to every
///   incident shard, publishes them all and refreshes the composite:
///   semantics identical to a single [`GraphStore`] commit.
/// * **Concurrent** — [`commit_lockstep`](Self::commit_lockstep) runs K
///   scoped writer threads, each driving one shard through
///   [`apply_shard`](Self::apply_shard) /
///   [`publish_shard`](Self::publish_shard) on the per-shard sub-batches
///   from [`route_batch`](Self::route_batch), and exactly one of them
///   calls [`refresh`](Self::refresh) at a barrier between batches, while
///   no publish is in flight. Readers — typically a `simpush::Frontend`
///   over this store — call [`snapshot`](Self::snapshot) at any time and
///   always see the latest consistent cut, never a torn half-mirrored
///   state.
#[derive(Debug)]
pub struct ShardedStore<P: Partitioner + Clone> {
    partitioner: P,
    shards: Vec<GraphStore>,
    n: usize,
    /// Logical edge count (each cross-shard edge counted once). Only the
    /// owner-side (source shard) application of an update adjusts it, so
    /// mirrored applies never double-count.
    m: AtomicUsize,
    /// The current consistent cut; readers clone the `Arc` under a read
    /// lock, exactly like [`GraphStore::snapshot`].
    published: RwLock<Arc<ShardedSnapshot<P>>>,
    /// Lock-free mirror of the published cut number — the
    /// [`version_hint`](Self::version_hint) fast path.
    version: AtomicU64,
    /// Endpoints touched by shard publishes since the last refresh
    /// (unsorted, possibly repeated across mirrored applies); drained into
    /// [`CutInfo::touched`] by [`refresh_cut`](Self::refresh_cut).
    pending_touched: Mutex<Vec<NodeId>>,
}

impl<P: Partitioner + Clone> ShardedStore<P> {
    /// Creates a sharded store serving `base` as cut 0, with the
    /// [default](crate::store::DEFAULT_COMPACT_THRESHOLD) per-shard
    /// compaction threshold.
    ///
    /// # Panics
    /// Panics if the partitioner maps any node of `base` outside
    /// `0..num_shards()`.
    pub fn new(base: &CsrGraph, partitioner: P) -> Self {
        Self::with_compaction_threshold(base, partitioner, crate::store::DEFAULT_COMPACT_THRESHOLD)
    }

    /// Creates a sharded store whose shards each compact past `threshold`
    /// effective updates. The threshold is **per shard**: the composite
    /// tolerates up to `K × threshold` total churn between compactions
    /// while each individual rebuild stays `O(n + m_k)`.
    ///
    /// # Panics
    /// Panics if `threshold` is 0 (same contract as
    /// [`GraphStore::with_compaction_threshold`]) or the partitioner
    /// misroutes a node.
    pub fn with_compaction_threshold(base: &CsrGraph, partitioner: P, threshold: usize) -> Self {
        let n = base.num_nodes();
        let k = partitioner.num_shards();
        // Split the base: every edge goes to its source's owner shard,
        // plus a mirror into the target's owner when the edge crosses
        // shards. Iterating sources (then targets) ascending keeps every
        // per-shard edge list sorted, as `from_sorted_edges` requires.
        let mut shard_edges: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); k];
        for s in 0..n as NodeId {
            let ps = partitioner.shard_of(s);
            assert!(ps < k, "partitioner routed node {s} to shard {ps} ≥ {k}");
            for &t in base.out_neighbors(s) {
                shard_edges[ps].push((s, t));
                let pt = partitioner.shard_of(t);
                assert!(pt < k, "partitioner routed node {t} to shard {pt} ≥ {k}");
                if pt != ps {
                    shard_edges[pt].push((s, t));
                }
            }
        }
        let shards: Vec<GraphStore> = shard_edges
            .into_iter()
            .map(|edges| {
                GraphStore::with_compaction_threshold(
                    CsrGraph::from_sorted_edges(n, &edges),
                    threshold,
                )
            })
            .collect();
        let initial = Arc::new(ShardedSnapshot {
            shards: shards.iter().map(|s| s.snapshot()).collect(),
            partitioner: partitioner.clone(),
            n,
            m: base.num_edges(),
            cut: 0,
        });
        Self {
            partitioner,
            shards,
            n,
            m: AtomicUsize::new(base.num_edges()),
            published: RwLock::new(initial),
            version: AtomicU64::new(0),
            pending_touched: Mutex::new(Vec::new()),
        }
    }

    /// The partitioner routing nodes to shards.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Number of shards (== `partitioner().num_shards()`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Nodes in the shared universe (every shard spans all of them).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Logical edges currently applied (published or not; cross-shard
    /// edges counted once). Exact only at quiescence — with applies in
    /// flight on other threads it is a racy point-in-time read.
    pub fn num_edges(&self) -> usize {
        // relaxed: plain counter; exactness is guaranteed by the
        // fetch-level atomicity alone, and callers that need a stable
        // value already hold a barrier (join/commit), which orders it.
        self.m.load(Ordering::Relaxed)
    }

    /// Direct read access to shard `k`'s [`GraphStore`] (for inspection;
    /// mutate through [`apply_shard`](Self::apply_shard) so the logical
    /// edge count stays accurate).
    pub fn shard(&self, k: usize) -> &GraphStore {
        &self.shards[k]
    }

    /// Total compactions across all shards.
    pub fn compactions(&self) -> u64 {
        self.shards.iter().map(|s| s.compactions()).sum()
    }

    /// Total time spent compacting across all shards.
    pub fn compaction_time(&self) -> Duration {
        self.shards.iter().map(|s| s.compaction_time()).sum()
    }

    /// The current consistent cut, as an `Arc` the caller can hold
    /// indefinitely — refreshes never mutate a published snapshot.
    pub fn snapshot(&self) -> Arc<ShardedSnapshot<P>> {
        self.published
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Current cut number (the one [`snapshot`](Self::snapshot) returns).
    pub fn cut(&self) -> u64 {
        self.snapshot().cut
    }

    /// Lock-free hint of the current cut number — same contract as
    /// [`GraphStore::version_hint`]: a relaxed load that may briefly lag a
    /// concurrent refresh, advances by exactly 1 per
    /// [`refresh`](Self::refresh)/[`refresh_cut`](Self::refresh_cut), and
    /// never moves on shard applies or publishes alone.
    pub fn version_hint(&self) -> u64 {
        // relaxed: a hint may lag the published cut, as documented above
        // — staleness is bounded and benign, nothing orders on it.
        self.version.load(Ordering::Relaxed)
    }

    /// Splits a batch into per-shard sub-batches: update `(s, t)` goes to
    /// shard `p(s)` and — when the edge crosses shards — is mirrored to
    /// `p(t)`, preserving stream order within every sub-batch. Both copies
    /// of a cross-shard update must be applied (and published) before the
    /// next [`refresh`](Self::refresh) for the cut to be consistent.
    pub fn route_batch(&self, updates: &[GraphUpdate]) -> Vec<Vec<GraphUpdate>> {
        let mut routed: Vec<Vec<GraphUpdate>> = vec![Vec::new(); self.num_shards()];
        for &u in updates {
            let (s, t) = u.endpoints();
            let ps = self.partitioner.shard_of(s);
            let pt = self.partitioner.shard_of(t);
            routed[ps].push(u);
            if pt != ps {
                routed[pt].push(u);
            }
        }
        routed
    }

    /// Applies `updates` to shard `k`'s working overlay — the single-writer
    /// step of shard `k`'s writer thread, fed by that shard's sub-batch
    /// from [`route_batch`](Self::route_batch). Returns how many updates
    /// were **owner-effective**: effective *and* owned by shard `k`
    /// (`p(src) == k`), which is each update's logical effectiveness
    /// counted exactly once across shards. Mirror-side applies adjust the
    /// shard but never the logical edge count.
    ///
    /// # Panics
    /// Panics if any update names an out-of-range endpoint.
    pub fn apply_shard(&self, k: usize, updates: &[GraphUpdate]) -> usize {
        let shard = &self.shards[k];
        let mut owner_effective = 0;
        for &u in updates {
            let (s, t) = u.endpoints();
            let effective = match u {
                GraphUpdate::Insert(..) => shard.insert_edge(s, t),
                GraphUpdate::Remove(..) => shard.remove_edge(s, t),
            };
            if effective && self.partitioner.shard_of(s) == k {
                // relaxed: plain counter of effective updates; the RMW's
                // atomicity keeps it exact, and readers that need a
                // stable value synchronize elsewhere (see num_edges).
                match u {
                    GraphUpdate::Insert(..) => self.m.fetch_add(1, Ordering::Relaxed),
                    GraphUpdate::Remove(..) => self.m.fetch_sub(1, Ordering::Relaxed),
                };
                owner_effective += 1;
            }
        }
        owner_effective
    }

    /// Publishes shard `k`'s working overlay as its next epoch (compacting
    /// past the per-shard threshold). Invisible to readers of the
    /// composite until the next [`refresh`](Self::refresh). The publish's
    /// touched endpoints are accumulated for the next
    /// [`refresh_cut`](Self::refresh_cut)'s aggregated delta (and still
    /// reported in the returned [`PublishInfo`]).
    pub fn publish_shard(&self, k: usize) -> PublishInfo {
        let info = self.shards[k].publish();
        if !info.touched.is_empty() {
            self.pending_touched
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend_from_slice(&info.touched);
        }
        info
    }

    /// Assembles the current per-shard epochs into a new composite cut and
    /// makes it the snapshot readers acquire. Returns the new cut number.
    ///
    /// **Consistency contract:** call this only when every update applied
    /// so far has been published by *all* of its incident shards (e.g. a
    /// barrier between batches, or the sequential [`commit`](Self::commit)
    /// which upholds the contract itself). Refreshing mid-publish cannot
    /// corrupt anything — readers just see a cut where a cross-shard
    /// edge's two half-views disagree, which is no longer a single logical
    /// graph.
    pub fn refresh(&self) -> u64 {
        self.refresh_cut().cut
    }

    /// [`refresh`](Self::refresh) returning the full [`CutInfo`]: the new
    /// cut number plus the aggregated touched-endpoint delta of every
    /// shard publish folded into this cut — what delta-aware cache
    /// invalidation consumes. Same consistency contract as `refresh`.
    pub fn refresh_cut(&self) -> CutInfo {
        let shards: Vec<Arc<GraphSnapshot>> = self.shards.iter().map(|s| s.snapshot()).collect();
        // relaxed: the consistency contract above (all applies published
        // before a refresh) already synchronizes the counter's writers
        // with this read; atomicity alone keeps the value exact.
        let m = self.m.load(Ordering::Relaxed);
        let mut touched = std::mem::take(
            &mut *self
                .pending_touched
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        touched.sort_unstable();
        touched.dedup();
        let mut published = self.published.write().unwrap_or_else(|p| p.into_inner());
        let cut = published.cut + 1;
        *published = Arc::new(ShardedSnapshot {
            shards,
            partitioner: self.partitioner.clone(),
            n: self.n,
            m,
            cut,
        });
        // relaxed: hint stored after the swap, while still holding the
        // write lock, so hints advance in cut order; staleness is benign
        // (same rationale as GraphStore) and no memory publishes through
        // this store.
        self.version.store(cut, Ordering::Relaxed);
        drop(published);
        CutInfo { cut, touched }
    }

    /// Sequential whole-store commit: routes `updates` to their incident
    /// shards, applies and publishes every shard, then refreshes the
    /// composite — one new consistent cut per call, semantically identical
    /// to [`GraphStore::commit`] on an unsharded store. Returns the
    /// logically effective update count and the new cut's [`CutInfo`]
    /// (cut number plus aggregated touched endpoints).
    ///
    /// # Panics
    /// Panics if any update names an out-of-range endpoint.
    pub fn commit(&self, updates: &[GraphUpdate]) -> (usize, CutInfo) {
        let routed = self.route_batch(updates);
        let mut effective = 0;
        for (k, sub) in routed.iter().enumerate() {
            effective += self.apply_shard(k, sub);
            self.publish_shard(k);
        }
        (effective, self.refresh_cut())
    }

    /// Concurrent whole-stream commit: splits `updates` into global
    /// batches of `batch_size`, routes each into per-shard sub-batches,
    /// and runs K scoped shard writers in lockstep over them. Per batch,
    /// every writer applies and publishes its sub-batch, the writers meet
    /// at a barrier, exactly one of them [`refresh`](Self::refresh)es the
    /// composite, and a second barrier holds everyone out of the next
    /// batch until the refresh is done (a publish racing the refresh would
    /// tear the cut). Global batch `g` therefore becomes cut
    /// `cut_before + g + 1`, and readers calling [`snapshot`](Self::snapshot)
    /// meanwhile only ever see whole batch prefixes.
    ///
    /// Returns one [`ShardCommit`] per (shard, batch), grouped by shard
    /// and in batch order within each shard. Routing runs on the calling
    /// thread before the writers start, so a caller timing this call pays
    /// the routing cost an unsharded store would not.
    ///
    /// # Panics
    /// Panics if `batch_size` is 0 or any update names an out-of-range
    /// endpoint. Both are checked before any writer starts: a writer that
    /// panicked mid-stream would leave the others waiting at the barrier.
    pub fn commit_lockstep(&self, updates: &[GraphUpdate], batch_size: usize) -> Vec<ShardCommit> {
        assert!(batch_size >= 1, "update batches must be non-empty");
        for u in updates {
            let (s, t) = u.endpoints();
            assert!(
                (s as usize) < self.n && (t as usize) < self.n,
                "update ({s},{t}) out of range for {} nodes",
                self.n
            );
        }
        let batches: Vec<Vec<Vec<GraphUpdate>>> = updates
            .chunks(batch_size)
            .map(|b| self.route_batch(b))
            .collect();
        let barrier = Barrier::new(self.num_shards());
        let mut per_shard: Vec<Vec<ShardCommit>> = vec![Vec::new(); self.num_shards()];
        std::thread::scope(|scope| {
            for (shard, records) in per_shard.iter_mut().enumerate() {
                let (barrier, batches) = (&barrier, &batches);
                scope.spawn(move || {
                    for (batch, routed) in batches.iter().enumerate() {
                        let t = Instant::now();
                        let applied = self.apply_shard(shard, &routed[shard]);
                        let info = self.publish_shard(shard);
                        records.push(ShardCommit {
                            shard,
                            batch,
                            applied,
                            epoch: info.epoch,
                            compacted: info.compacted,
                            latency: t.elapsed(),
                        });
                        if barrier.wait().is_leader() {
                            self.refresh();
                        }
                        barrier.wait();
                    }
                });
            }
        });
        per_shard.into_iter().flatten().collect()
    }
}

/// One shard writer's commit of its sub-batch of a global batch in
/// [`ShardedStore::commit_lockstep`].
#[derive(Debug, Clone, Copy)]
pub struct ShardCommit {
    /// Which shard committed.
    pub shard: usize,
    /// Global batch index; batch `g` of a call produced that call's
    /// `g + 1`-th cut.
    pub batch: usize,
    /// Owner-effective updates in the sub-batch (see
    /// [`apply_shard`](ShardedStore::apply_shard)): each logical update
    /// counted once across shards, so the sum over a call is the stream's
    /// effective update count.
    pub applied: usize,
    /// Shard-local epoch the commit published.
    pub epoch: u64,
    /// Whether this shard's publish compacted its overlay.
    pub compacted: bool,
    /// The shard's apply + publish time (excludes barrier waits).
    pub latency: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder, MutableGraph};

    fn replay(base: &CsrGraph, updates: &[GraphUpdate]) -> CsrGraph {
        let mut replica = MutableGraph::from_csr(base);
        for &u in updates {
            let (s, t) = u.endpoints();
            match u {
                GraphUpdate::Insert(..) => replica.insert_edge(s, t),
                GraphUpdate::Remove(..) => replica.remove_edge(s, t),
            };
        }
        replica.snapshot()
    }

    #[test]
    fn hash_partitioner_covers_all_shards_and_is_stable() {
        let p = HashPartitioner::new(4);
        assert_eq!(p.num_shards(), 4);
        let mut seen = [false; 4];
        for v in 0..256 {
            let s = p.shard_of(v);
            assert!(s < 4);
            assert_eq!(s, p.shard_of(v), "routing must be pure");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 ids should hit all 4 shards");
    }

    #[test]
    fn range_partitioner_is_contiguous_and_nests() {
        let p = RangePartitioner::new(24, 4);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(5), 0);
        assert_eq!(p.shard_of(6), 1);
        assert_eq!(p.shard_of(23), 3);
        // Nesting: same-shard at 4 shards → same-shard at 2 shards.
        let coarse = RangePartitioner::new(24, 2);
        for a in 0..24u32 {
            for b in 0..24u32 {
                if p.shard_of(a) == p.shard_of(b) {
                    assert_eq!(coarse.shard_of(a), coarse.shard_of(b));
                }
            }
        }
        // Ragged split: 10 nodes over 3 shards → chunks of 4, last short.
        let ragged = RangePartitioner::new(10, 3);
        assert_eq!(ragged.shard_of(9), 2);
    }

    #[test]
    fn composite_view_equals_base_at_cut_zero() {
        let base = gen::gnm(60, 300, 5);
        for k in [1, 2, 4] {
            let store = ShardedStore::new(&base, HashPartitioner::new(k));
            let snap = store.snapshot();
            assert_eq!(snap.cut(), 0);
            assert_eq!(snap.num_shards(), k);
            assert_eq!(snap.num_nodes(), base.num_nodes());
            assert_eq!(snap.num_edges(), base.num_edges());
            for v in 0..60 {
                assert_eq!(snap.out_neighbors(v), base.out_neighbors(v), "out({v})");
                assert_eq!(snap.in_neighbors(v), base.in_neighbors(v), "in({v})");
            }
            assert_eq!(snap.to_csr(), base);
        }
    }

    #[test]
    fn commit_matches_mutable_replay_for_both_partitioners() {
        let base = gen::gnm(40, 160, 9);
        let updates = [
            GraphUpdate::Insert(0, 39),
            GraphUpdate::Insert(39, 0),
            GraphUpdate::Remove(0, 39),
            GraphUpdate::Insert(1, 38),
            GraphUpdate::Insert(0, 39), // re-insert after remove
        ];
        let want = replay(&base, &updates);
        let hashed = ShardedStore::new(&base, HashPartitioner::new(3));
        let (eff, cut) = hashed.commit(&updates);
        assert_eq!(eff, 5, "every update in the stream is effective");
        assert_eq!(cut.cut, 1);
        assert_eq!(
            cut.touched,
            vec![0, 1, 38, 39],
            "aggregated distinct endpoints, mirrors deduplicated"
        );
        assert_eq!(hashed.snapshot().to_csr(), want);
        assert_eq!(hashed.num_edges(), want.num_edges());

        let ranged = ShardedStore::new(&base, RangePartitioner::new(40, 4));
        ranged.commit(&updates);
        assert_eq!(ranged.snapshot().to_csr(), want);
        assert_eq!(ranged.num_edges(), want.num_edges());
    }

    #[test]
    fn noop_updates_do_not_change_the_logical_edge_count() {
        let base = GraphBuilder::new().with_edges([(0, 1), (2, 3)]).build();
        let store = ShardedStore::new(&base, HashPartitioner::new(2));
        let (eff, _) = store.commit(&[
            GraphUpdate::Insert(0, 1), // already present
            GraphUpdate::Remove(1, 2), // absent
        ]);
        assert_eq!(eff, 0);
        assert_eq!(store.num_edges(), 2);
        assert_eq!(store.snapshot().num_edges(), 2);
    }

    #[test]
    fn cross_shard_edges_are_mirrored_into_both_shards() {
        // Range split of 4 nodes over 2 shards: {0,1} and {2,3}.
        let base = GraphBuilder::new()
            .with_num_nodes(4)
            .with_edges([(0, 3)])
            .build();
        let p = RangePartitioner::new(4, 2);
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(3), 1);
        let store = ShardedStore::new(&base, p);
        // Each shard holds the full cross edge; the composite counts it once.
        assert_eq!(store.shard(0).snapshot().num_edges(), 1);
        assert_eq!(store.shard(1).snapshot().num_edges(), 1);
        assert_eq!(store.snapshot().num_edges(), 1);
        // Routed reads come from the owner of each endpoint.
        let snap = store.snapshot();
        assert_eq!(snap.out_neighbors(0), &[3]);
        assert_eq!(snap.in_neighbors(3), &[0]);
        // Removing it empties both shards and the logical count.
        store.commit(&[GraphUpdate::Remove(0, 3)]);
        assert_eq!(store.shard(0).snapshot().num_edges(), 0);
        assert_eq!(store.shard(1).snapshot().num_edges(), 0);
        assert_eq!(store.snapshot().num_edges(), 0);
    }

    #[test]
    fn route_batch_mirrors_cross_updates_and_preserves_order() {
        let base = GraphBuilder::new().with_num_nodes(4).build();
        let store = ShardedStore::new(&base, RangePartitioner::new(4, 2));
        let routed = store.route_batch(&[
            GraphUpdate::Insert(0, 1), // shard 0 only
            GraphUpdate::Insert(0, 3), // cross: shards 0 and 1
            GraphUpdate::Insert(2, 3), // shard 1 only
        ]);
        assert_eq!(
            routed[0],
            vec![GraphUpdate::Insert(0, 1), GraphUpdate::Insert(0, 3)]
        );
        assert_eq!(
            routed[1],
            vec![GraphUpdate::Insert(0, 3), GraphUpdate::Insert(2, 3)]
        );
    }

    #[test]
    fn snapshots_are_immutable_cuts() {
        let base = gen::gnm(30, 120, 2);
        let store = ShardedStore::new(&base, HashPartitioner::new(2));
        let before = store.snapshot();
        // Applied but unrefreshed updates are invisible…
        let routed = store.route_batch(&[GraphUpdate::Insert(0, 29)]);
        for (k, sub) in routed.iter().enumerate() {
            store.apply_shard(k, sub);
            store.publish_shard(k);
        }
        assert_eq!(store.snapshot().cut(), 0, "no refresh yet");
        assert_eq!(store.snapshot().num_edges(), base.num_edges());
        // …until refresh, and old cuts never change.
        let cut = store.refresh();
        assert_eq!(cut, 1);
        assert_eq!(before.num_edges(), base.num_edges());
        assert_eq!(store.snapshot().num_edges(), base.num_edges() + 1);
    }

    #[test]
    fn version_hint_advances_exactly_on_refresh() {
        let base = gen::gnm(30, 120, 4);
        let store = ShardedStore::new(&base, HashPartitioner::new(2));
        assert_eq!(store.version_hint(), 0);
        // Applies and per-shard publishes leave the hint untouched…
        let routed = store.route_batch(&[GraphUpdate::Insert(0, 29)]);
        for (k, sub) in routed.iter().enumerate() {
            store.apply_shard(k, sub);
            store.publish_shard(k);
        }
        assert_eq!(
            store.version_hint(),
            0,
            "publish alone must not move the hint"
        );
        // …and each refresh advances it by exactly one, in step with the cut.
        let info = store.refresh_cut();
        assert_eq!(info.cut, 1);
        assert_eq!(store.version_hint(), 1);
        assert_eq!(info.touched, vec![0, 29]);
        let empty = store.refresh_cut();
        assert_eq!(empty.cut, 2);
        assert_eq!(store.version_hint(), 2);
        assert!(empty.touched.is_empty(), "no publishes since the last cut");
    }

    #[test]
    fn per_shard_compaction_fires_independently() {
        let base = gen::gnm(24, 60, 3);
        // Threshold 2 per shard; a burst of same-shard inserts compacts
        // only the shard that absorbed them.
        let p = RangePartitioner::new(24, 2);
        let store = ShardedStore::with_compaction_threshold(&base, p, 2);
        let updates: Vec<GraphUpdate> = (0..4)
            .map(|i| GraphUpdate::Insert(i as NodeId, (i + 5) as NodeId))
            .collect(); // all endpoints < 12 → shard 0 only
        store.commit(&updates);
        assert!(store.shard(0).compactions() >= 1);
        assert_eq!(store.shard(1).compactions(), 0);
        assert_eq!(store.compactions(), store.shard(0).compactions());
    }

    #[test]
    fn single_shard_store_degenerates_to_graph_store_semantics() {
        let base = gen::gnm(50, 200, 7);
        let sharded = ShardedStore::new(&base, HashPartitioner::new(1));
        let single = GraphStore::new(base.clone());
        let updates: Vec<GraphUpdate> = (0..10)
            .map(|i| GraphUpdate::Insert((i * 3 % 50) as NodeId, ((i * 7 + 1) % 50) as NodeId))
            .collect();
        let (eff_sharded, _) = sharded.commit(&updates);
        let (eff_single, _) = single.commit(&updates);
        assert_eq!(eff_sharded, eff_single);
        assert_eq!(sharded.snapshot().to_csr(), single.snapshot().to_csr());
    }

    #[test]
    fn lockstep_commit_never_publishes_a_torn_cut() {
        const BATCH: usize = 8;
        let base = gen::gnm(90, 360, 12);
        // Insert/remove toggles over spread-out pairs: under a 3-way hash
        // split most of them cross shards and are mirrored.
        let updates: Vec<GraphUpdate> = (0..60)
            .map(|i| {
                let (s, t) = ((i * 7 % 90) as NodeId, ((i * 13 + 1) % 90) as NodeId);
                if i % 3 == 2 {
                    GraphUpdate::Remove(s, t)
                } else {
                    GraphUpdate::Insert(s, t)
                }
            })
            .collect();
        let p = HashPartitioner::new(3);
        let mirrored = updates
            .iter()
            .filter(|u| {
                let (s, t) = u.endpoints();
                p.shard_of(s) != p.shard_of(t)
            })
            .count();
        assert!(2 * mirrored > updates.len(), "most updates cross shards");
        let batches = updates.len().div_ceil(BATCH);
        // Cut c must be exactly the first c batches, mirrors and all.
        let prefixes: Vec<CsrGraph> = (0..=batches)
            .map(|c| replay(&base, &updates[..(c * BATCH).min(updates.len())]))
            .collect();
        let mut replica = MutableGraph::from_csr(&base);
        let effective = updates
            .iter()
            .filter(|u| {
                let (s, t) = u.endpoints();
                match u {
                    GraphUpdate::Insert(..) => replica.insert_edge(s, t),
                    GraphUpdate::Remove(..) => replica.remove_edge(s, t),
                }
            })
            .count();

        // A few rounds, since a torn cut only shows when the reader
        // happens to acquire it.
        for _ in 0..4 {
            let store = ShardedStore::with_compaction_threshold(&base, p, 6);
            let mut commits = Vec::new();
            std::thread::scope(|scope| {
                scope.spawn(|| commits = store.commit_lockstep(&updates, BATCH));
                // A concurrent reader checks every cut it happens to observe.
                loop {
                    let snap = store.snapshot();
                    let cut = snap.cut() as usize;
                    assert!(snap.to_csr() == prefixes[cut], "cut {cut} is torn");
                    if cut == batches {
                        break;
                    }
                }
            });

            assert_eq!(commits.len(), 3 * batches);
            for shard in 0..3 {
                let order: Vec<usize> = commits
                    .iter()
                    .filter(|c| c.shard == shard)
                    .map(|c| c.batch)
                    .collect();
                assert_eq!(order, (0..batches).collect::<Vec<_>>(), "shard {shard}");
            }
            assert_eq!(store.cut(), batches as u64);
            assert_eq!(commits.iter().map(|c| c.applied).sum::<usize>(), effective);
            assert!(
                store.snapshot().to_csr() == replica.snapshot(),
                "final graph"
            );
            assert!(store.compactions() >= 1, "threshold 6 must compact");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_update() {
        let base = GraphBuilder::new().with_num_nodes(4).build();
        ShardedStore::new(&base, HashPartitioner::new(2)).commit(&[GraphUpdate::Insert(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lockstep_rejects_out_of_range_update_before_writing() {
        let base = GraphBuilder::new().with_num_nodes(4).build();
        let store = ShardedStore::new(&base, HashPartitioner::new(2));
        store.commit_lockstep(&[GraphUpdate::Insert(0, 1), GraphUpdate::Insert(0, 9)], 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        HashPartitioner::new(0);
    }
}
