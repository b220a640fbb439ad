//! Async serving front-end: bounded admission queue, worker pool,
//! backpressure and per-query deadlines.
//!
//! The [`Frontend`] is the workspace's one serving path. Requests arrive
//! on their own clock, pile up when they outrun capacity, and become
//! worthless once they are too old; a *scripted* workload — a fixed query
//! list drained as fast as the workers can go, beside a writer thread
//! committing updates — is the same front-end driven by
//! [`run_closed_loop`](Frontend::run_closed_loop) with no deadline. The
//! model:
//!
//! * **Bounded queue** — submissions go through a fixed-capacity MPMC
//!   channel ([`crossbeam::channel`]). [`try_submit`](Frontend::try_submit)
//!   never blocks: a full queue is an immediate
//!   [`SubmitError::Overloaded`], the backpressure signal callers shed load
//!   with. [`submit_timeout`](Frontend::submit_timeout) waits a bounded
//!   time for a slot instead.
//! * **Worker pool** — N threads each hold one warm
//!   [`QueryWorkspace`] and, per request, acquire a *fresh* epoch /
//!   consistent-cut snapshot from the backing store (a read lock plus an
//!   `Arc` clone — see [`SnapshotSource`]), so every answer reflects the
//!   newest published graph at service time and remains replayable: the
//!   response records the epoch it was answered from, and re-running
//!   [`SimPush::query_seeded`] on that epoch's graph reproduces it bit for
//!   bit (`tests/integration_serve.rs`).
//! * **Deadlines** — a request whose deadline has passed by the time a
//!   worker dequeues it is **dropped, not answered**: the caller gets
//!   [`QueryOutcome::DeadlineMissed`] and the miss is counted in
//!   [`FrontendStats`]. Expired work is the first thing an overloaded
//!   service must stop paying for.
//!
//! Shutdown drains: [`shutdown`](Frontend::shutdown) (or dropping the
//! front-end) closes the queue, lets the workers finish every accepted
//! request — each ticket resolves exactly once, to an answer or a miss —
//! and joins them.
//!
//! # Construction: the options builder
//!
//! [`FrontendOptions`] is `#[non_exhaustive]`: outside this crate it is
//! built through the validating [`FrontendOptions::builder`], never by
//! struct literal. That is deliberate API design — new knobs (the control
//! plane added several) land as new builder methods without breaking a
//! single call site, and the builder rejects nonsense (`workers == 0`,
//! zero capacity, a zero deadline) at construction instead of at
//! `Frontend::start`.
//!
//! # Live tuning (the control plane)
//!
//! What *used to be* frozen at construction — deadline, admission limit,
//! cache staleness, worker count — is now runtime state: `Frontend::start`
//! publishes an initial [`ActiveTuning`]
//! through a [`TuningHandle`]
//! ([`Frontend::tuning_handle`]) and every submit/worker path reads the
//! *current* tuning per request. A
//! [`Controller`](crate::control::Controller) samples this front-end
//! through a [`FrontendObserver`] (counters plus per-interval
//! sojourn/latency histograms, [`FrontendObserver::sample`]) and swaps
//! tunings closed-loop; workers whose index is at or above the tuning's
//! `worker_target` park until retuned. Clients may also abandon queued
//! work with [`Ticket::cancel`] — observed at dequeue, counted in
//! [`FrontendStats::cancelled`].
//!
//! ```
//! use simpush::{Config, Frontend, FrontendOptions, QueryOutcome, SimPush};
//! use simrank_graph::{gen, GraphStore};
//! use std::sync::Arc;
//!
//! let store = Arc::new(GraphStore::new(gen::gnm(100, 400, 1)));
//! let engine = SimPush::new(Config::new(0.05));
//! let frontend = Frontend::start(&engine, store, FrontendOptions::default());
//! let ticket = frontend.try_submit(7).expect("queue has space");
//! match ticket.wait() {
//!     QueryOutcome::Answered(r) => {
//!         assert_eq!(r.node, 7);
//!         assert_eq!(r.epoch, 0); // nothing was published yet
//!     }
//!     other => unreachable!("no deadline set, workers healthy: {other:?}"),
//! }
//! frontend.shutdown();
//! ```

use crate::answer_cache::{AnswerCache, CacheKey, SupportTracer};
use crate::control::{
    ActiveTuning, HistogramSnapshot, IntervalHistogram, TuningHandle, TuningLimits,
};
use crate::query::SimPush;
use crate::workspace::QueryWorkspace;
use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use simrank_common::NodeId;
use simrank_graph::{
    GraphSnapshot, GraphStore, GraphView, Partitioner, ShardedSnapshot, ShardedStore,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker blocks in `recv` before re-checking the live
/// tuning (so a lowered `worker_target` can park workers that are sitting
/// idle, not just busy ones). Purely a responsiveness backstop: requests
/// and shutdown wake the channel immediately.
const IDLE_RECHECK: Duration = Duration::from_millis(25);

/// A store the front-end workers can acquire immutable graph snapshots
/// from, tagged with a replayable version number.
///
/// Implemented for [`GraphStore`] (the tag is the **epoch**) and
/// [`ShardedStore`] (the tag is the **consistent-cut** number), so one
/// front-end drives either backend. `acquire` must be cheap and
/// non-blocking with respect to writers — both implementations are a read
/// lock plus an `Arc` clone — because the workers call it once per
/// request to pick up the freshest published graph.
pub trait SnapshotSource: Send + Sync + 'static {
    /// The immutable snapshot type queries run against.
    type View: GraphView;

    /// Acquires the current snapshot and its version tag (epoch or cut).
    fn acquire(&self) -> (Arc<Self::View>, u64);

    /// Lock-free hint of the current version tag — a relaxed atomic load
    /// that may briefly lag a concurrent publish/refresh but never runs
    /// ahead of one. Workers use it to skip the read lock + `Arc` clone
    /// of [`acquire`](Self::acquire) when the version is unchanged since
    /// their last acquire, and to probe the answer cache before touching
    /// the store at all.
    fn version_hint(&self) -> u64;
}

impl SnapshotSource for GraphStore {
    type View = GraphSnapshot;

    fn acquire(&self) -> (Arc<GraphSnapshot>, u64) {
        let snap = self.snapshot();
        let epoch = snap.epoch();
        (snap, epoch)
    }

    fn version_hint(&self) -> u64 {
        GraphStore::version_hint(self)
    }
}

impl<P: Partitioner + Clone + Send + Sync + 'static> SnapshotSource for ShardedStore<P> {
    type View = ShardedSnapshot<P>;

    fn acquire(&self) -> (Arc<ShardedSnapshot<P>>, u64) {
        let snap = self.snapshot();
        let cut = snap.cut();
        (snap, cut)
    }

    fn version_hint(&self) -> u64 {
        ShardedStore::version_hint(self)
    }
}

/// Knobs for [`Frontend::start`], built through the validating
/// [`FrontendOptions::builder`].
///
/// `#[non_exhaustive]` so future knobs are additive: external call sites
/// construct via the builder (struct literals won't compile outside this
/// crate) and therefore keep compiling when a field lands. The fields
/// stay `pub` for *reading*.
///
/// The deadline, the admission limit, the cache staleness bound and the
/// worker count given here are only the **initial** live tuning — see
/// [`Frontend::tuning_handle`] for retuning them at runtime.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct FrontendOptions {
    /// Query worker threads (≥ 1), each holding one warm workspace.
    pub workers: usize,
    /// Admission-queue capacity (≥ 1): requests buffered beyond the ones
    /// being served. When full, [`Frontend::try_submit`] rejects with
    /// [`SubmitError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to every request submitted without an explicit
    /// one; `None` means requests never expire.
    pub default_deadline: Option<Duration>,
    /// How many top-scoring nodes each answer keeps.
    pub top_k: usize,
    /// Fault-injection knob: extra service delay a worker sleeps per
    /// request *after* the deadline check. Zero (the default) in any real
    /// deployment; tests use it to age the queue deterministically and the
    /// saturation bench to model slow backends.
    pub synthetic_service_delay: Duration,
    /// Shared hot-answer cache ([`AnswerCache`]). When set, workers probe
    /// it at the store's [version hint](SnapshotSource::version_hint)
    /// *before* acquiring a snapshot — a hit skips the snapshot and the
    /// query entirely — and insert after answering a miss, tracing the
    /// answer's support set so delta-aware invalidation can promote it
    /// across publishes. `None` (the default) disables caching.
    pub cache: Option<Arc<AnswerCache>>,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            default_deadline: None,
            top_k: 1,
            synthetic_service_delay: Duration::ZERO,
            cache: None,
        }
    }
}

impl FrontendOptions {
    /// Starts a builder seeded with the defaults (4 workers, capacity
    /// 1024, no deadline, `top_k = 1`, no delay, no cache).
    pub fn builder() -> FrontendOptionsBuilder {
        FrontendOptionsBuilder {
            opts: Self::default(),
        }
    }

    /// Validates an options value; shared by [`build`][b] and
    /// [`Frontend::start`] (which also guards in-crate literals).
    ///
    /// [b]: FrontendOptionsBuilder::build
    fn validate(&self) {
        assert!(self.workers >= 1, "need at least one worker thread");
        assert!(
            self.queue_capacity >= 1,
            "admission queue capacity must be ≥ 1"
        );
        assert!(self.top_k >= 1, "answers must keep at least one node");
        if let Some(d) = self.default_deadline {
            // Zero would expire every request at dequeue — backlog tests
            // that want that use a short-but-positive deadline instead.
            assert!(!d.is_zero(), "a default deadline must be positive");
        }
    }
}

/// Validating builder for [`FrontendOptions`] — the only way to construct
/// them outside this crate.
///
/// ```
/// use simpush::FrontendOptions;
/// use std::time::Duration;
///
/// let opts = FrontendOptions::builder()
///     .workers(2)
///     .queue_capacity(64)
///     .default_deadline(Some(Duration::from_millis(250)))
///     .top_k(3)
///     .build();
/// assert_eq!(opts.workers, 2);
/// ```
#[derive(Debug, Clone)]
pub struct FrontendOptionsBuilder {
    opts: FrontendOptions,
}

impl FrontendOptionsBuilder {
    /// Query worker threads (validated ≥ 1 at build).
    pub fn workers(mut self, workers: usize) -> Self {
        self.opts.workers = workers;
        self
    }

    /// Admission-queue capacity (validated ≥ 1 at build).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.opts.queue_capacity = capacity;
        self
    }

    /// Deadline applied to requests submitted without one; `None` never
    /// expires. Validated positive and above the synthetic delay.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.opts.default_deadline = deadline;
        self
    }

    /// How many top-scoring nodes each answer keeps (validated ≥ 1).
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.opts.top_k = top_k;
        self
    }

    /// Fault-injection service delay (tests and saturation benches).
    pub fn synthetic_service_delay(mut self, delay: Duration) -> Self {
        self.opts.synthetic_service_delay = delay;
        self
    }

    /// Attaches a shared hot-answer cache.
    pub fn cache(mut self, cache: Arc<AnswerCache>) -> Self {
        self.opts.cache = Some(cache);
        self
    }

    /// Validates and produces the options.
    ///
    /// # Panics
    /// Panics if `workers` or `queue_capacity` is 0, `top_k` is 0, or the
    /// deadline is zero.
    pub fn build(self) -> FrontendOptions {
        self.opts.validate();
        self.opts
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full — shed load or retry later. This is the
    /// backpressure signal; it costs one failed `try_send`, no allocation,
    /// no worker time.
    Overloaded,
    /// The front-end has shut down; no request can be accepted.
    ShutDown,
    /// The query node is out of range for the served graph. Checked
    /// before admission, so it touches no queue or counter.
    InvalidNode {
        /// The rejected node id.
        node: NodeId,
        /// The served graph's node count.
        num_nodes: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full (overloaded)"),
            SubmitError::ShutDown => write!(f, "front-end has shut down"),
            SubmitError::InvalidNode { node, num_nodes } => write!(
                f,
                "query node {node} out of range for graph with {num_nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A successfully served request.
#[derive(Debug, Clone)]
pub struct FrontendResponse {
    /// The query node.
    pub node: NodeId,
    /// Epoch (single store) or consistent cut (sharded store) the answer
    /// was computed on — the replay handle: rebuilding this version's
    /// graph and re-running [`SimPush::query_seeded`] reproduces `top`
    /// bit for bit.
    pub epoch: u64,
    /// Time the request spent queued before a worker dequeued it.
    pub queue_wait: Duration,
    /// Time the worker spent answering (snapshot acquisition + query).
    pub service: Duration,
    /// Top-`k` similar nodes (per [`FrontendOptions::top_k`]).
    pub top: Vec<(NodeId, f64)>,
}

/// Terminal state of an accepted request: exactly one of these per ticket.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The request was served; the response carries the replayable answer.
    Answered(FrontendResponse),
    /// The request's deadline had already passed when a worker dequeued
    /// it; it was dropped without being answered (and never will be).
    DeadlineMissed {
        /// The query node that expired.
        node: NodeId,
        /// How long the request sat in the queue before being dropped.
        queue_wait: Duration,
    },
    /// The request was cancelled via [`Ticket::cancel`] before a worker
    /// reached it; it was dropped at dequeue without being answered (and
    /// never will be), and counted in [`FrontendStats::cancelled`].
    Cancelled {
        /// The query node that was cancelled.
        node: NodeId,
    },
    /// The worker serving this request died (panicked) before producing
    /// an answer. The request was not answered and never will be; the
    /// panic itself surfaces from [`Frontend::shutdown`]'s join. Exists
    /// so [`Ticket::wait`] can never hang on a worker failure.
    Failed {
        /// The query node whose service failed.
        node: NodeId,
    },
}

/// One-shot completion slot a worker fills exactly once.
#[derive(Debug)]
struct Slot {
    outcome: Mutex<Option<QueryOutcome>>,
    done: Condvar,
    /// Set by [`Ticket::cancel`]; workers observe it at dequeue. Purely
    /// advisory — a request already in service still answers.
    cancelled: AtomicBool,
}

impl Slot {
    fn fill(&self, outcome: QueryOutcome) {
        let filled = self.fill_if_empty(outcome);
        assert!(
            filled,
            "frontend bug: a request resolved twice (answered after a miss, or vice versa)"
        );
    }

    /// Fills the slot unless it already resolved; returns whether this
    /// call was the one that resolved it. The tolerant path exists for
    /// the [`Request`] drop guard, which runs after a normal resolve too.
    fn fill_if_empty(&self, outcome: QueryOutcome) -> bool {
        let mut guard = self.outcome.lock().unwrap_or_else(|p| p.into_inner());
        if guard.is_some() {
            return false;
        }
        *guard = Some(outcome);
        drop(guard);
        self.done.notify_all();
        true
    }
}

/// Handle to one accepted request; resolves to exactly one
/// [`QueryOutcome`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request resolves (answered, deadline-missed, or
    /// failed).
    ///
    /// Never hangs: shutdown drains the queue so every accepted request
    /// resolves before the workers exit, and a request abandoned by a
    /// panicking worker resolves to [`QueryOutcome::Failed`] via the
    /// request's drop guard.
    pub fn wait(self) -> QueryOutcome {
        let mut guard = self.slot.outcome.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            // Clone rather than take: a resolved slot stays resolved, so
            // the request's drop guard can never mistake a consumed slot
            // for an unresolved one.
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self
                .slot
                .done
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// True once the request has resolved ([`wait`](Self::wait) would
    /// return immediately).
    pub fn is_done(&self) -> bool {
        self.slot
            .outcome
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }

    /// Flags the request as abandoned so the front-end sheds it instead
    /// of serving it: a worker that dequeues a cancelled request drops it
    /// immediately, resolving the ticket to [`QueryOutcome::Cancelled`]
    /// and counting it in [`FrontendStats::cancelled`].
    ///
    /// Best-effort by design — cancellation is *observed at dequeue*, so
    /// a request already being served still resolves to its answer. Safe
    /// to call at any time, including after the request resolved (no-op)
    /// and more than once. The caller still owns the ticket and may
    /// [`wait`](Self::wait) to learn which way the race went.
    pub fn cancel(&self) {
        // relaxed: advisory shed flag — the worker's dequeue-time load
        // either sees it (sheds) or doesn't (serves); no other memory is
        // published through it.
        self.slot.cancelled.store(true, Ordering::Relaxed);
    }
}

struct Request {
    node: NodeId,
    submitted_at: Instant,
    deadline: Option<Instant>,
    slot: Arc<Slot>,
}

impl Drop for Request {
    /// The no-hang backstop: if this request is dropped without having
    /// been resolved — a worker panicked between dequeue and fill, or the
    /// request never reached the queue — the ticket resolves to
    /// [`QueryOutcome::Failed`] instead of leaving a waiter blocked
    /// forever. After a normal resolve this is a no-op.
    fn drop(&mut self) {
        self.slot
            .fill_if_empty(QueryOutcome::Failed { node: self.node });
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    answered: AtomicU64,
    deadline_misses: AtomicU64,
    cancelled: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    parked_workers: AtomicUsize,
    /// Per-interval queue-wait histogram, recorded at every dequeue and
    /// drained each controller tick.
    interval_sojourn: IntervalHistogram,
    /// Per-interval end-to-end (wait + service) histogram, recorded at
    /// every answer.
    interval_latency: IntervalHistogram,
}

fn snapshot_stats(counters: &Counters) -> FrontendStats {
    // relaxed: monotone stat counters + advisory gauges; a snapshot
    // is inherently racy, no other memory depends on these values.
    let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let gauge = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    FrontendStats {
        accepted: count(&counters.accepted),
        rejected: count(&counters.rejected),
        answered: count(&counters.answered),
        deadline_misses: count(&counters.deadline_misses),
        cancelled: count(&counters.cancelled),
        cache_hits: count(&counters.cache_hits),
        cache_misses: count(&counters.cache_misses),
        queue_depth: gauge(&counters.queue_depth),
        max_queue_depth: gauge(&counters.max_queue_depth),
        parked_workers: gauge(&counters.parked_workers),
    }
}

/// Read-only telemetry handle onto a front-end, cheap to clone and safe
/// to hold past the front-end's shutdown (it shares the counters by
/// `Arc`). This is what the [`Controller`](crate::control::Controller)
/// samples.
#[derive(Debug, Clone)]
pub struct FrontendObserver {
    counters: Arc<Counters>,
}

impl FrontendObserver {
    /// A point-in-time counter snapshot (same as [`Frontend::stats`]).
    pub fn stats(&self) -> FrontendStats {
        snapshot_stats(&self.counters)
    }

    /// Snapshots the counters **and drains** the per-interval
    /// sojourn/latency histograms — the controller's per-tick read.
    ///
    /// Draining consumes the interval: two concurrent samplers would
    /// split the samples between them, so run one controller (or
    /// timeline collector) per front-end.
    pub fn sample(&self) -> IntervalSample {
        IntervalSample {
            stats: snapshot_stats(&self.counters),
            sojourn: self.counters.interval_sojourn.drain(),
            latency: self.counters.interval_latency.drain(),
        }
    }
}

/// One [`FrontendObserver::sample`]: counters plus the drained interval
/// histograms.
#[derive(Debug, Clone)]
pub struct IntervalSample {
    /// Counter snapshot at drain time.
    pub stats: FrontendStats,
    /// Queue-wait distribution of the interval (everything dequeued).
    pub sojourn: HistogramSnapshot,
    /// End-to-end latency distribution of the interval (answers only).
    pub latency: HistogramSnapshot,
}

/// A point-in-time view of the front-end's admission/service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendStats {
    /// Requests accepted into the queue (each resolves exactly once).
    pub accepted: u64,
    /// Submissions rejected with [`SubmitError::Overloaded`].
    pub rejected: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub deadline_misses: u64,
    /// Requests dropped at dequeue because their ticket was
    /// [cancelled](Ticket::cancel) while they queued.
    pub cancelled: u64,
    /// Requests answered straight from the [`AnswerCache`] (no snapshot
    /// acquired, no query run). Always 0 without a configured cache.
    pub cache_hits: u64,
    /// Requests that probed the cache and had to compute. Always 0
    /// without a configured cache; `answered = cache_hits + cache_misses`
    /// when one is set.
    pub cache_misses: u64,
    /// Requests currently queued (racy gauge).
    pub queue_depth: usize,
    /// High-water mark of the queue depth since start. Measured at
    /// submission time, and a worker's dequeue decrements the gauge just
    /// after the queue slot actually frees — so under saturation this
    /// reads ≈ the configured capacity, and may exceed it by up to the
    /// number of concurrently in-flight submitters (it is a gauge of
    /// admission pressure, not an exact buffer-occupancy bound).
    pub max_queue_depth: usize,
    /// Workers currently parked by the live tuning's `worker_target`
    /// (racy gauge; exact only at quiescence).
    pub parked_workers: usize,
}

impl FrontendStats {
    /// `cache_hits / (cache_hits + cache_misses)`; 0 when no cache was
    /// configured (or nothing was served yet).
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }
}

/// The serving front-end: admission queue + worker pool over a
/// [`SnapshotSource`]. See the [module docs](self) for the full model.
pub struct Frontend {
    tx: Option<channel::Sender<Request>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    tuning: Arc<TuningHandle>,
    num_nodes: usize,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("workers", &self.workers.len())
            .field("tuning", &*self.tuning.load())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Frontend {
    /// Starts `opts.workers` query threads over `source` and returns the
    /// handle submissions go through.
    ///
    /// The engine's configuration is copied into every worker; per-request
    /// seeds are derived exactly like [`SimPush::query_seeded`], so
    /// front-end answers are bit-identical to direct seeded queries on the
    /// same snapshot, whatever worker served them.
    ///
    /// # Panics
    /// Panics if `opts.workers` or `opts.queue_capacity` is 0.
    pub fn start<S: SnapshotSource>(
        engine: &SimPush,
        source: Arc<S>,
        opts: FrontendOptions,
    ) -> Self {
        opts.validate();
        let (tx, rx) = channel::bounded::<Request>(opts.queue_capacity);
        let counters = Arc::new(Counters::default());
        let num_nodes = source.acquire().0.num_nodes();
        // The construction-time knobs become the *initial* live tuning:
        // no quota (the channel capacity is the only admission limit, the
        // historical behaviour), every worker serving.
        let tuning = Arc::new(TuningHandle::new(
            ActiveTuning {
                deadline: opts.default_deadline,
                admission_quota: None,
                max_stale_epochs: opts
                    .cache
                    .as_deref()
                    .map_or(0, AnswerCache::max_stale_epochs),
                worker_target: opts.workers,
            },
            TuningLimits {
                max_workers: opts.workers,
                queue_capacity: opts.queue_capacity,
            },
            opts.cache.clone(),
        ));
        let mut workers = Vec::with_capacity(opts.workers);
        for index in 0..opts.workers {
            let ctx = WorkerContext {
                rx: rx.clone(),
                engine: engine.clone(),
                counters: counters.clone(),
                tuning: tuning.clone(),
                top_k: opts.top_k,
                synthetic_delay: opts.synthetic_service_delay,
                cache: opts.cache.clone(),
                index,
            };
            let source = source.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&*source, ctx);
            }));
        }
        Self {
            tx: Some(tx),
            workers,
            counters,
            tuning,
            num_nodes,
        }
    }

    /// The live-tuning publication point shared with the workers: swap an
    /// [`ActiveTuning`] through it (directly or via a
    /// [`Controller`](crate::control::Controller)) and the next request
    /// sees the new deadline/quota/staleness/worker-target.
    pub fn tuning_handle(&self) -> Arc<TuningHandle> {
        self.tuning.clone()
    }

    /// A read-only telemetry handle (counters + interval histograms) that
    /// outlives the front-end — what a controller samples.
    pub fn observer(&self) -> FrontendObserver {
        FrontendObserver {
            counters: self.counters.clone(),
        }
    }

    fn admit(&self, node: NodeId, deadline: Option<Duration>) -> Result<Request, SubmitError> {
        if node as usize >= self.num_nodes {
            return Err(SubmitError::InvalidNode {
                node,
                num_nodes: self.num_nodes,
            });
        }
        let submitted_at = Instant::now();
        Ok(Request {
            node,
            submitted_at,
            deadline: deadline
                .or(self.tuning.load().deadline)
                .map(|d| submitted_at + d),
            slot: Arc::new(Slot {
                outcome: Mutex::new(None),
                done: Condvar::new(),
                cancelled: AtomicBool::new(false),
            }),
        })
    }

    /// The depth gauge must rise *before* the request becomes visible to
    /// a worker (whose dequeue decrements it) — incrementing after a
    /// successful send would race a fast worker into underflow. A failed
    /// send takes the increment back. Returns the depth at increment time
    /// so the high-water mark can be recorded on *accepted* sends only
    /// (a rejected probe must not inflate it).
    fn gauge_up(&self) -> usize {
        // relaxed: advisory gauge — admission is enforced by the bounded
        // channel itself, nothing synchronizes on this value.
        self.counters.queue_depth.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn on_accept(&self, slot: &Arc<Slot>, depth: usize) -> Ticket {
        // relaxed: monotone stat counter, read only by advisory stats
        // snapshots.
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // relaxed: monotone high-water mark, advisory reads only.
        self.counters
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        Ticket { slot: slot.clone() }
    }

    /// The live admission quota check, applied by every submit path after
    /// its gauge increment: when the tuning carries `Some(quota)` and the
    /// depth at increment time exceeds it, the submission is shed
    /// *before* touching the channel — even the blocking submit, because
    /// a controller-imposed quota exists precisely to stop cooperative
    /// clients from queueing into an overloaded service.
    fn over_quota(&self, depth: usize) -> bool {
        self.tuning
            .load()
            .admission_quota
            .is_some_and(|quota| depth > quota)
    }

    fn on_reject(&self) -> SubmitError {
        // relaxed: advisory gauge rollback + monotone stat counter; no
        // other memory depends on either value.
        self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        SubmitError::Overloaded
    }

    /// Submits a query without blocking, applying the default deadline.
    ///
    /// A full queue returns [`SubmitError::Overloaded`] immediately — the
    /// caller sheds the request (and typically counts it rejected) instead
    /// of queueing unbounded work. An out-of-range `node` returns
    /// [`SubmitError::InvalidNode`].
    pub fn try_submit(&self, node: NodeId) -> Result<Ticket, SubmitError> {
        self.try_submit_with_deadline(node, None)
    }

    /// [`try_submit`](Self::try_submit) with a per-request deadline
    /// override (`None` falls back to
    /// [`default_deadline`](FrontendOptions::default_deadline)).
    pub fn try_submit_with_deadline(
        &self,
        node: NodeId,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        let request = self.admit(node, deadline)?;
        let slot = request.slot.clone();
        let tx = self.tx.as_ref().expect("sender lives until shutdown");
        let depth = self.gauge_up();
        if self.over_quota(depth) {
            return Err(self.on_reject());
        }
        match tx.try_send(request) {
            Ok(()) => Ok(self.on_accept(&slot, depth)),
            Err(TrySendError::Full(_)) => Err(self.on_reject()),
            Err(TrySendError::Disconnected(_)) => {
                // relaxed: advisory gauge rollback (see gauge_up).
                self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::ShutDown)
            }
        }
    }

    /// Submits a query, blocking up to `timeout` for queue space — the
    /// cooperative client that would rather wait briefly than be rejected.
    /// Timing out still counts as a rejection in [`FrontendStats`]; an
    /// out-of-range `node` returns [`SubmitError::InvalidNode`].
    pub fn submit_timeout(&self, node: NodeId, timeout: Duration) -> Result<Ticket, SubmitError> {
        let request = self.admit(node, None)?;
        let slot = request.slot.clone();
        let tx = self.tx.as_ref().expect("sender lives until shutdown");
        let depth = self.gauge_up();
        if self.over_quota(depth) {
            return Err(self.on_reject());
        }
        match tx.send_timeout(request, timeout) {
            Ok(()) => Ok(self.on_accept(&slot, depth)),
            Err(channel::SendTimeoutError::Timeout(_)) => Err(self.on_reject()),
            Err(channel::SendTimeoutError::Disconnected(_)) => {
                // relaxed: advisory gauge rollback (see gauge_up).
                self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::ShutDown)
            }
        }
    }

    /// Requests currently queued (racy gauge; exact only at quiescence).
    pub fn queue_depth(&self) -> usize {
        // relaxed: racy advisory gauge, exactly as documented above.
        self.counters.queue_depth.load(Ordering::Relaxed)
    }

    /// Drives `keys` through the front-end **closed-loop**: `clients`
    /// threads each submit one request, wait for its outcome, then submit
    /// the next — the batch/bulk-client shape (and the capacity
    /// calibration the scenario matrix scales its offered loads from),
    /// as opposed to the open-loop arrival schedules of
    /// `simrank_eval::mixed::open_loop_arrivals`.
    ///
    /// Client `c` serves keys `c, c + clients, c + 2·clients, …`, so the
    /// returned vector lines up with `keys` index for index: each entry is
    /// the request's [`QueryOutcome`], or the [`SubmitError`] if admission
    /// failed within `submit_timeout` (a closed loop self-throttles, so
    /// with `clients ≤ queue capacity` and a generous timeout that arm is
    /// unreachable in practice — but a hung writer or a shut-down
    /// front-end still surfaces as data instead of a panic). An
    /// out-of-range key resolves to [`SubmitError::InvalidNode`].
    ///
    /// # Panics
    /// Panics if `clients` is 0.
    pub fn run_closed_loop(
        &self,
        keys: &[NodeId],
        clients: usize,
        submit_timeout: Duration,
    ) -> Vec<Result<QueryOutcome, SubmitError>> {
        assert!(clients >= 1, "need at least one closed-loop client");
        let mut slots: Vec<Option<Result<QueryOutcome, SubmitError>>> = Vec::new();
        slots.resize_with(keys.len(), || None);
        std::thread::scope(|scope| {
            let mut rest = slots.as_mut_slice();
            let mut offset = 0usize;
            // Hand each client a strided view by repeatedly splitting off
            // the smallest remaining index — disjoint &mut slots without
            // any locking.
            let mut client_slots: Vec<Vec<(usize, &mut Option<_>)>> =
                (0..clients).map(|_| Vec::new()).collect();
            while !rest.is_empty() {
                let (head, tail) = rest.split_at_mut(1);
                client_slots[offset % clients].push((offset, &mut head[0]));
                rest = tail;
                offset += 1;
            }
            for mine in client_slots {
                scope.spawn(move || {
                    for (i, slot) in mine {
                        *slot = Some(match self.submit_timeout(keys[i], submit_timeout) {
                            Ok(ticket) => Ok(ticket.wait()),
                            Err(e) => Err(e),
                        });
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every key was assigned to a client"))
            .collect()
    }

    /// A snapshot of the admission/service counters.
    pub fn stats(&self) -> FrontendStats {
        snapshot_stats(&self.counters)
    }

    /// Stops accepting requests, drains the queue (every accepted request
    /// resolves — answered or deadline-missed), joins the workers and
    /// returns the final stats.
    pub fn shutdown(mut self) -> FrontendStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        // Dropping the only sender disconnects the channel; workers drain
        // what is buffered, then their `recv` errors out and they exit.
        drop(self.tx.take());
        // Release parked workers (they exit without serving; the active
        // ones drain — worker 0 is always active, the tuning clamp keeps
        // `worker_target ≥ 1`).
        self.tuning.shutdown();
        let mut worker_panicked = false;
        for handle in self.workers.drain(..) {
            worker_panicked |= handle.join().is_err();
        }
        // Surface a worker panic — but never from inside an unwind (a
        // panic-in-drop while already panicking aborts the process, and
        // the original panic is the interesting one anyway). Any request
        // the dead worker abandoned has already resolved to
        // `QueryOutcome::Failed` via its drop guard.
        if worker_panicked && !std::thread::panicking() {
            panic!("frontend worker panicked");
        }
    }
}

impl Drop for Frontend {
    /// Same contract as [`shutdown`](Self::shutdown): drain, then join.
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Everything one worker thread owns, bundled so spawning stays readable.
struct WorkerContext {
    rx: channel::Receiver<Request>,
    engine: SimPush,
    counters: Arc<Counters>,
    tuning: Arc<TuningHandle>,
    top_k: usize,
    synthetic_delay: Duration,
    cache: Option<Arc<AnswerCache>>,
    /// This worker's index: it serves while `index < worker_target` and
    /// parks otherwise.
    index: usize,
}

fn worker_loop<S: SnapshotSource + ?Sized>(source: &S, ctx: WorkerContext) {
    let counters = &*ctx.counters;
    let mut ws = QueryWorkspace::new();
    let fingerprint = ctx.engine.config().fingerprint();
    // Fast-path reacquire state: the snapshot served last, tagged with
    // its version. While the store's lock-free version hint matches, the
    // worker reuses it instead of paying the read lock + `Arc` clone.
    let mut held: Option<(Arc<S::View>, u64)> = None;
    // Live-tuning read state, same idiom: reload the Arc only when the
    // handle's version moved.
    let mut tuning_version = ctx.tuning.version();
    let mut tuning = ctx.tuning.load();
    loop {
        if ctx.tuning.version() != tuning_version {
            tuning_version = ctx.tuning.version();
            tuning = ctx.tuning.load();
        }
        // Park protocol: a worker retuned out of the pool steps aside
        // (gauged for the observer) until a swap brings it back or the
        // front-end shuts down.
        if ctx.index >= tuning.worker_target {
            // relaxed: advisory gauge, read only by stats snapshots.
            counters.parked_workers.fetch_add(1, Ordering::Relaxed);
            let keep_serving = ctx.tuning.park_worker(ctx.index);
            // relaxed: advisory gauge, as above.
            counters.parked_workers.fetch_sub(1, Ordering::Relaxed);
            if !keep_serving {
                return;
            }
            continue;
        }
        // A bounded wait instead of a bare `recv` so an *idle* worker
        // still notices a lowered worker target; messages and disconnect
        // wake it immediately, so drain behaviour is unchanged.
        let request = match ctx.rx.recv_timeout(IDLE_RECHECK) {
            Ok(request) => request,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // relaxed: advisory gauge decrement (see gauge_up).
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let dequeued_at = Instant::now();
        let queue_wait = dequeued_at.duration_since(request.submitted_at);
        // Sojourn telemetry covers *everything* dequeued — answered,
        // expired or cancelled — because queue aging is exactly what the
        // controller needs to see.
        counters.interval_sojourn.record(queue_wait);
        // relaxed: advisory shed flag, see Ticket::cancel.
        if request.slot.cancelled.load(Ordering::Relaxed) {
            // relaxed: monotone stat counter, advisory reads only.
            counters.cancelled.fetch_add(1, Ordering::Relaxed);
            request
                .slot
                .fill(QueryOutcome::Cancelled { node: request.node });
            continue;
        }
        if let Some(deadline) = request.deadline {
            if dequeued_at > deadline {
                // relaxed: monotone stat counter, advisory reads only.
                counters.deadline_misses.fetch_add(1, Ordering::Relaxed);
                request.slot.fill(QueryOutcome::DeadlineMissed {
                    node: request.node,
                    queue_wait,
                });
                continue;
            }
        }
        if !ctx.synthetic_delay.is_zero() {
            std::thread::sleep(ctx.synthetic_delay);
        }
        let service_start = Instant::now();
        let hint = source.version_hint();
        let key = CacheKey {
            node: request.node,
            top_k: ctx.top_k,
            fingerprint,
        };
        if let Some(cache) = ctx.cache.as_deref() {
            if let Some(hit) = cache.lookup(&key, hint) {
                // Served without touching the store: no snapshot, no
                // query. The response's epoch is the one the answer was
                // *computed* at, preserving the replay contract.
                // relaxed: monotone stat counters, advisory reads only.
                counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                counters.answered.fetch_add(1, Ordering::Relaxed);
                let service = service_start.elapsed();
                counters.interval_latency.record(queue_wait + service);
                request.slot.fill(QueryOutcome::Answered(FrontendResponse {
                    node: request.node,
                    epoch: hit.computed_epoch,
                    queue_wait,
                    service,
                    top: hit.top,
                }));
                continue;
            }
            // relaxed: monotone stat counter, advisory reads only.
            counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        if !matches!(&held, Some((_, version)) if *version == hint) {
            held = Some(source.acquire());
        }
        let (snap, epoch) = held.as_ref().map(|(s, v)| (s, *v)).expect("just acquired");
        let (top, support) = if ctx.cache.is_some() {
            let tracer = SupportTracer::new(&**snap);
            let result = ctx.engine.query_seeded_with(&tracer, request.node, &mut ws);
            (result.top_k(ctx.top_k), Some(tracer.take_support()))
        } else {
            (
                ctx.engine
                    .query_seeded_with(&**snap, request.node, &mut ws)
                    .top_k(ctx.top_k),
                None,
            )
        };
        let service = service_start.elapsed();
        if let (Some(cache), Some(support)) = (ctx.cache.as_deref(), support) {
            cache.insert(key, epoch, support, top.clone());
        }
        // relaxed: monotone stat counter, advisory reads only.
        counters.answered.fetch_add(1, Ordering::Relaxed);
        counters.interval_latency.record(queue_wait + service);
        request.slot.fill(QueryOutcome::Answered(FrontendResponse {
            node: request.node,
            epoch,
            queue_wait,
            service,
            top,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use simrank_graph::{gen, GraphUpdate, HashPartitioner};

    fn options(workers: usize, cap: usize) -> FrontendOptionsBuilder {
        FrontendOptions::builder()
            .workers(workers)
            .queue_capacity(cap)
    }

    #[test]
    fn answers_match_direct_seeded_queries_on_a_quiescent_store() {
        let store = Arc::new(GraphStore::new(gen::gnm(150, 700, 5)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store.clone(), options(3, 64).top_k(3).build());
        let queries: Vec<NodeId> = (0..20).map(|i| (i * 17) % 150).collect();
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|&u| frontend.try_submit(u).expect("queue has space"))
            .collect();
        let snap = store.snapshot();
        for (ticket, &u) in tickets.into_iter().zip(&queries) {
            match ticket.wait() {
                QueryOutcome::Answered(r) => {
                    assert_eq!(r.node, u);
                    assert_eq!(r.epoch, 0);
                    let solo = engine.query_seeded(&*snap, u);
                    assert_eq!(r.top, solo.top_k(3), "u={u}");
                }
                other => panic!("no deadline set, expected an answer: {other:?}"),
            }
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.accepted, 20);
        assert_eq!(stats.answered, 20);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.deadline_misses, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn serving_from_a_disk_backed_store_is_bit_identical_to_ram() {
        // The storage tier slots in underneath SnapshotSource without any
        // core change: a GraphStore opened over a DiskGraph serves the
        // same answers as one over the in-RAM CSR it was written from.
        use simrank_graph::storage::{write_disk_graph, DiskGraph, DiskGraphOptions};
        let g = gen::gnm(150, 900, 9);
        let path = std::env::temp_dir().join("simpush-frontend-disk-test.srgd");
        write_disk_graph(&g, &path, 1024).expect("write SRGD");
        let disk = DiskGraph::open_mem(&path, DiskGraphOptions::default()).expect("open SRGD");
        let engine = SimPush::new(Config::new(0.05));
        let queries: Vec<NodeId> = (0..12).map(|i| (i * 13) % 150).collect();
        // No writer: every answer is on epoch 0, so the two runs are
        // deterministic and directly comparable.
        let serve = |store: GraphStore| {
            let frontend =
                Frontend::start(&engine, Arc::new(store), options(2, 2).top_k(5).build());
            frontend
                .run_closed_loop(&queries, 2, Duration::from_secs(30))
                .into_iter()
                .map(|outcome| match outcome {
                    Ok(QueryOutcome::Answered(r)) => r,
                    other => panic!("expected an answer: {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        let on_disk = serve(GraphStore::open_disk(disk));
        let on_ram = serve(GraphStore::new(g));
        assert_eq!(on_disk.len(), queries.len());
        for ((d, r), &u) in on_disk.iter().zip(&on_ram).zip(&queries) {
            assert_eq!((d.node, r.node), (u, u));
            assert_eq!(d.top, r.top, "node {u}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_source_reports_cuts_and_matches_direct_queries() {
        let base = gen::gnm(120, 500, 9);
        let store = Arc::new(ShardedStore::new(&base, HashPartitioner::new(3)));
        store.commit(&[GraphUpdate::Insert(0, 119), GraphUpdate::Insert(1, 118)]);
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store.clone(), options(2, 16).build());
        let ticket = frontend.try_submit(42).unwrap();
        match ticket.wait() {
            QueryOutcome::Answered(r) => {
                assert_eq!(r.epoch, 1, "one commit ⇒ cut 1");
                let solo = engine.query_seeded(&*store.snapshot(), 42);
                assert_eq!(r.top, solo.top_k(1));
            }
            other => panic!("no deadline set, expected an answer: {other:?}"),
        }
        frontend.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_overloaded_and_counts_it() {
        // One worker stuck on a long synthetic delay; capacity 2. The
        // first request occupies the worker, two more fill the queue, the
        // fourth must bounce.
        let store = Arc::new(GraphStore::new(gen::gnm(50, 200, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 2)
                .synthetic_service_delay(Duration::from_millis(100))
                .build(),
        );
        let mut tickets = vec![frontend.try_submit(0).unwrap()];
        // Wait until the worker has dequeued the first request, so queue
        // occupancy is deterministic.
        let t = Instant::now();
        while frontend.queue_depth() > 0 {
            assert!(t.elapsed() < Duration::from_secs(5), "worker never started");
            std::thread::yield_now();
        }
        tickets.push(frontend.try_submit(1).unwrap());
        tickets.push(frontend.try_submit(2).unwrap());
        assert!(matches!(
            frontend.try_submit(3),
            Err(SubmitError::Overloaded)
        ));
        let stats = frontend.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.max_queue_depth, 2);
        for ticket in tickets {
            assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
        }
        frontend.shutdown();
    }

    #[test]
    fn rejects_out_of_range_nodes_at_submission() {
        let store = Arc::new(GraphStore::new(gen::gnm(50, 200, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(1, 4).build());
        let before = frontend.stats();
        let invalid = SubmitError::InvalidNode {
            node: 50,
            num_nodes: 50,
        };
        assert_eq!(frontend.try_submit(50).map(|_| ()), Err(invalid));
        assert_eq!(
            frontend
                .try_submit_with_deadline(50, Some(Duration::from_secs(1)))
                .map(|_| ()),
            Err(invalid)
        );
        assert_eq!(
            frontend
                .submit_timeout(50, Duration::from_secs(1))
                .map(|_| ()),
            Err(invalid)
        );
        let closed = frontend.run_closed_loop(&[NodeId::MAX], 1, Duration::from_secs(1));
        assert!(matches!(
            closed[..],
            [Err(SubmitError::InvalidNode {
                node: NodeId::MAX,
                num_nodes: 50
            })]
        ));
        assert_eq!(frontend.stats(), before);
        assert_eq!(
            invalid.to_string(),
            "query node 50 out of range for graph with 50 nodes"
        );
        frontend.shutdown();
    }

    #[test]
    fn delayed_worker_turns_queued_requests_into_deadline_misses() {
        // The deterministic deadline scenario: a single worker is held for
        // 60 ms per request (synthetic delay), every request carries a
        // 15 ms deadline. The first request is dequeued immediately (wait
        // ≈ 0 < 15 ms) and answered; the two behind it age ≥ 60 ms in the
        // queue, so both are dropped at dequeue — recorded as misses,
        // never answered, each ticket resolving exactly once (Slot::fill
        // panics the worker on a double resolve, which shutdown's join
        // would surface).
        let store = Arc::new(GraphStore::new(gen::gnm(60, 240, 2)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 8)
                .default_deadline(Some(Duration::from_millis(15)))
                .synthetic_service_delay(Duration::from_millis(60))
                .build(),
        );
        let first = frontend.try_submit(1).unwrap();
        let t = Instant::now();
        while frontend.queue_depth() > 0 {
            assert!(t.elapsed() < Duration::from_secs(5), "worker never started");
            std::thread::yield_now();
        }
        let second = frontend.try_submit(2).unwrap();
        let third = frontend.try_submit(3).unwrap();

        assert!(matches!(first.wait(), QueryOutcome::Answered(_)));
        for (ticket, node) in [(second, 2), (third, 3)] {
            match ticket.wait() {
                QueryOutcome::DeadlineMissed {
                    node: missed,
                    queue_wait,
                } => {
                    assert_eq!(missed, node);
                    assert!(
                        queue_wait >= Duration::from_millis(15),
                        "missed before its deadline: {queue_wait:?}"
                    );
                }
                other => panic!("request {node} should have expired, got {other:?}"),
            }
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.deadline_misses, 2);
        assert_eq!(stats.accepted, 3);
    }

    #[test]
    fn worker_panic_resolves_the_ticket_as_failed_and_surfaces_at_shutdown() {
        // A source whose snapshot acquisition panics after the probe call
        // Frontend::start makes — so the single worker dies mid-request.
        // The no-hang contract: the ticket must still resolve (Failed),
        // and the panic must surface from shutdown's join rather than
        // hanging or aborting.
        struct ExplodingSource {
            inner: GraphStore,
            calls: AtomicU64,
        }
        impl SnapshotSource for ExplodingSource {
            type View = GraphSnapshot;
            fn acquire(&self) -> (Arc<GraphSnapshot>, u64) {
                if self.calls.fetch_add(1, Ordering::Relaxed) > 0 {
                    panic!("injected snapshot failure");
                }
                self.inner.acquire()
            }
            fn version_hint(&self) -> u64 {
                // Never matches a held snapshot, so every request
                // reacquires (and the second acquire explodes).
                u64::MAX
            }
        }
        let source = Arc::new(ExplodingSource {
            inner: GraphStore::new(gen::gnm(30, 120, 1)),
            calls: AtomicU64::new(0),
        });
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, source, options(1, 4).build());
        let ticket = frontend.try_submit(5).unwrap();
        match ticket.wait() {
            QueryOutcome::Failed { node } => assert_eq!(node, 5),
            other => panic!("expected Failed, got {other:?}"),
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            frontend.shutdown();
        }));
        assert!(caught.is_err(), "shutdown must surface the worker panic");
    }

    #[test]
    fn cached_repeat_queries_hit_and_stay_bit_identical() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        let store = Arc::new(GraphStore::new(gen::gnm(100, 400, 5)));
        let engine = SimPush::new(Config::new(0.05));
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions::default()));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            options(1, 16).top_k(3).cache(cache.clone()).build(),
        );
        let first = match frontend.try_submit(7).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("expected an answer: {other:?}"),
        };
        let second = match frontend.try_submit(7).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("expected an answer: {other:?}"),
        };
        assert_eq!(first.top, second.top, "cache hit replays the answer");
        assert_eq!(second.epoch, 0, "hit advertises the computed epoch");
        let solo = engine.query_seeded(&*store.snapshot(), 7);
        assert_eq!(first.top, solo.top_k(3), "cached path is bit-identical");
        let stats = frontend.shutdown();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.cache_hit_rate(), 0.5);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn publish_notification_invalidates_touched_answers_and_promotes_the_rest() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        // Two far-apart stars so their query support sets are disjoint.
        let mut edges = Vec::new();
        for leaf in 1..=6u32 {
            edges.push((leaf, 0)); // star into node 0
            edges.push((100 + leaf, 100)); // star into node 100
        }
        let base = simrank_graph::GraphBuilder::new()
            .with_num_nodes(200)
            .with_edges(edges)
            .build();
        let store = Arc::new(GraphStore::new(base));
        let engine = SimPush::new(Config::new(0.05));
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions::default()));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            options(1, 16).top_k(3).cache(cache.clone()).build(),
        );
        // Warm both keys at epoch 0.
        let warm0 = match frontend.try_submit(0).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            frontend.try_submit(100).unwrap().wait(),
            QueryOutcome::Answered(_)
        ));
        // An update inside node 0's neighbourhood; node 100's star is
        // untouched.
        let (_, info) = store.commit(&[GraphUpdate::Insert(7, 0)]);
        cache.on_publish(info.epoch, &info.touched);
        let re0 = match frontend.try_submit(0).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(re0.epoch, 1, "touched key recomputed at the new epoch");
        let solo = engine.query_seeded(&*store.snapshot(), 0);
        assert_eq!(re0.top, solo.top_k(3));
        let re100 = match frontend.try_submit(100).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            re100.epoch, 0,
            "untouched key still serves its promoted epoch-0 answer"
        );
        let stats = frontend.shutdown();
        assert_eq!(stats.cache_hits, 1, "only the untouched key hit");
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(warm0.epoch, 0);
    }

    #[test]
    fn staleness_bound_keeps_serving_during_churn() {
        use crate::answer_cache::{AnswerCache, AnswerCacheOptions};
        let store = Arc::new(GraphStore::new(gen::gnm(80, 320, 6)));
        let engine = SimPush::new(Config::new(0.05));
        let cache = Arc::new(AnswerCache::new(AnswerCacheOptions {
            max_stale_epochs: 8,
            ..AnswerCacheOptions::default()
        }));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            options(1, 16).cache(cache.clone()).build(),
        );
        assert!(matches!(
            frontend.try_submit(3).unwrap().wait(),
            QueryOutcome::Answered(_)
        ));
        // Churn likely touching the whole neighbourhood; within the
        // staleness bound the cached answer keeps serving.
        let (_, info) = store.commit(&[GraphUpdate::Insert(3, 50), GraphUpdate::Insert(50, 3)]);
        cache.on_publish(info.epoch, &info.touched);
        let stale = match frontend.try_submit(3).unwrap().wait() {
            QueryOutcome::Answered(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(stale.epoch, 0, "stale hit replays the epoch-0 answer");
        let stats = frontend.shutdown();
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let store = Arc::new(GraphStore::new(gen::gnm(80, 320, 4)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(2, 64).build());
        let tickets: Vec<Ticket> = (0..30u32)
            .map(|i| frontend.try_submit(i % 80).unwrap())
            .collect();
        // Shut down immediately — most requests are still queued; all of
        // them must still resolve.
        let stats = frontend.shutdown();
        assert_eq!(stats.accepted, 30);
        assert_eq!(stats.answered + stats.deadline_misses, 30);
        assert_eq!(stats.queue_depth, 0);
        for ticket in tickets {
            assert!(ticket.is_done(), "shutdown left a ticket unresolved");
            assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
        }
    }

    #[test]
    fn submit_timeout_waits_for_a_slot() {
        let store = Arc::new(GraphStore::new(gen::gnm(40, 160, 3)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 1)
                .synthetic_service_delay(Duration::from_millis(20))
                .build(),
        );
        // Saturate: one in service, one queued.
        let a = frontend.try_submit(0).unwrap();
        let t = Instant::now();
        while frontend.queue_depth() > 0 {
            assert!(t.elapsed() < Duration::from_secs(5), "worker never started");
            std::thread::yield_now();
        }
        let b = frontend.try_submit(1).unwrap();
        assert!(matches!(
            frontend.try_submit(2),
            Err(SubmitError::Overloaded)
        ));
        // A blocking submit outlasts the ~20 ms the worker needs to free a
        // slot.
        let c = frontend.submit_timeout(3, Duration::from_secs(5)).unwrap();
        for ticket in [a, b, c] {
            assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
        }
        frontend.shutdown();
    }

    #[test]
    fn closed_loop_outcomes_line_up_with_keys_and_match_direct_queries() {
        let store = Arc::new(GraphStore::new(gen::gnm(90, 400, 6)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store.clone(), options(2, 8).build());
        let keys: Vec<NodeId> = (0..25).map(|i| (i * 13) % 90).collect();
        let outcomes = frontend.run_closed_loop(&keys, 3, Duration::from_secs(30));
        assert_eq!(outcomes.len(), keys.len());
        let snap = store.snapshot();
        for (outcome, &u) in outcomes.iter().zip(&keys) {
            match outcome {
                Ok(QueryOutcome::Answered(r)) => {
                    assert_eq!(r.node, u, "outcome order drifted from key order");
                    let solo = engine.query_seeded(&*snap, u);
                    assert_eq!(r.top, solo.top_k(1), "u={u}");
                }
                other => panic!("quiescent store, no deadline: {other:?}"),
            }
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.accepted, 25);
        assert_eq!(stats.answered, 25);
        assert_eq!(stats.rejected, 0, "a closed loop never overruns the queue");
    }

    #[test]
    fn closed_loop_with_more_clients_than_keys_still_covers_everything() {
        let store = Arc::new(GraphStore::new(gen::gnm(20, 80, 2)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(2, 16).build());
        let outcomes = frontend.run_closed_loop(&[3, 7], 8, Duration::from_secs(30));
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Ok(QueryOutcome::Answered(_)))));
        assert!(frontend
            .run_closed_loop(&[], 4, Duration::from_secs(1))
            .is_empty());
        frontend.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one closed-loop client")]
    fn closed_loop_rejects_zero_clients() {
        let store = Arc::new(GraphStore::new(gen::gnm(10, 30, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(1, 4).build());
        frontend.run_closed_loop(&[1], 0, Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let store = Arc::new(GraphStore::new(gen::gnm(10, 30, 1)));
        let engine = SimPush::new(Config::new(0.05));
        Frontend::start(&engine, store, options(0, 4).build());
    }

    #[test]
    #[should_panic(expected = "queue capacity must be")]
    fn builder_rejects_zero_capacity() {
        let _ = options(1, 0).build();
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn builder_rejects_zero_deadline() {
        let _ = options(1, 4).default_deadline(Some(Duration::ZERO)).build();
    }

    /// Parks the single worker on a long synthetic delay and returns once
    /// the queue gauge shows the first request was dequeued, so queue
    /// occupancy is deterministic for what the test submits next.
    fn occupy_worker(frontend: &Frontend) -> Ticket {
        let ticket = frontend.try_submit(0).unwrap();
        let t = Instant::now();
        while frontend.queue_depth() > 0 {
            assert!(t.elapsed() < Duration::from_secs(5), "worker never started");
            std::thread::yield_now();
        }
        ticket
    }

    #[test]
    fn cancelled_ticket_is_shed_at_dequeue_and_counted() {
        let store = Arc::new(GraphStore::new(gen::gnm(40, 160, 3)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 8)
                .synthetic_service_delay(Duration::from_millis(40))
                .build(),
        );
        let first = occupy_worker(&frontend);
        let doomed = frontend.try_submit(1).unwrap();
        doomed.cancel();
        assert!(!doomed.is_done(), "cancellation resolves at dequeue");
        match doomed.wait() {
            QueryOutcome::Cancelled { node } => assert_eq!(node, 1),
            other => panic!("cancelled while queued, got {other:?}"),
        }
        assert!(matches!(first.wait(), QueryOutcome::Answered(_)));
        let stats = frontend.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.deadline_misses, 0);
    }

    #[test]
    fn cancel_after_resolution_is_a_no_op() {
        let store = Arc::new(GraphStore::new(gen::gnm(40, 160, 3)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(1, 4).build());
        let ticket = frontend.try_submit(2).unwrap();
        let t = Instant::now();
        while !ticket.is_done() {
            assert!(t.elapsed() < Duration::from_secs(5), "never answered");
            std::thread::yield_now();
        }
        ticket.cancel(); // lost the race: the answer stands
        assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
        let stats = frontend.shutdown();
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn admission_quota_sheds_submissions_the_channel_would_accept() {
        let store = Arc::new(GraphStore::new(gen::gnm(50, 200, 1)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 16)
                .synthetic_service_delay(Duration::from_millis(60))
                .build(),
        );
        let tuning = frontend.tuning_handle();
        tuning.swap(ActiveTuning {
            admission_quota: Some(1),
            ..(*tuning.load()).clone()
        });
        let first = occupy_worker(&frontend);
        // Depth 1 is within quota; depth 2 exceeds it even though the
        // 16-slot channel has plenty of room.
        let second = frontend.try_submit(1).unwrap();
        assert!(matches!(
            frontend.try_submit(2),
            Err(SubmitError::Overloaded)
        ));
        // The blocking submit is shed too — a quota exists to stop
        // cooperative clients from queueing into an overloaded service.
        assert!(matches!(
            frontend.submit_timeout(3, Duration::from_secs(5)),
            Err(SubmitError::Overloaded)
        ));
        for t in [first, second] {
            assert!(matches!(t.wait(), QueryOutcome::Answered(_)));
        }
        let stats = frontend.shutdown();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.accepted, 2);
    }

    #[test]
    fn worker_target_parks_and_unparks_the_pool() {
        let store = Arc::new(GraphStore::new(gen::gnm(60, 240, 2)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store.clone(), options(4, 32).build());
        let tuning = frontend.tuning_handle();
        let wait_for_parked = |want: usize| {
            let t = Instant::now();
            while frontend.stats().parked_workers != want {
                assert!(
                    t.elapsed() < Duration::from_secs(5),
                    "parked gauge never reached {want}: {:?}",
                    frontend.stats()
                );
                std::thread::yield_now();
            }
        };
        tuning.swap(ActiveTuning {
            worker_target: 1,
            ..(*tuning.load()).clone()
        });
        wait_for_parked(3);
        // A single-worker pool still answers.
        assert!(matches!(
            frontend.try_submit(5).unwrap().wait(),
            QueryOutcome::Answered(_)
        ));
        tuning.swap(ActiveTuning {
            worker_target: 4,
            ..(*tuning.load()).clone()
        });
        wait_for_parked(0);
        let outcomes = frontend.run_closed_loop(
            &(0..20).collect::<Vec<NodeId>>(),
            4,
            Duration::from_secs(30),
        );
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Ok(QueryOutcome::Answered(_)))));
        let stats = frontend.shutdown();
        assert_eq!(stats.answered, 21);
        assert_eq!(stats.parked_workers, 0, "shutdown released the pool");
    }

    #[test]
    fn live_deadline_retune_applies_to_subsequent_submissions() {
        // Same shape as delayed_worker_turns_queued_requests_into_
        // deadline_misses, but the deadline arrives via a runtime swap
        // instead of construction-time options.
        let store = Arc::new(GraphStore::new(gen::gnm(60, 240, 2)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(
            &engine,
            store,
            options(1, 8)
                .synthetic_service_delay(Duration::from_millis(60))
                .build(),
        );
        let tuning = frontend.tuning_handle();
        let first = occupy_worker(&frontend);
        tuning.swap(ActiveTuning {
            deadline: Some(Duration::from_millis(15)),
            ..(*tuning.load()).clone()
        });
        // Queued behind a 60 ms service with a 15 ms deadline: expires.
        let second = frontend.try_submit(2).unwrap();
        assert!(matches!(first.wait(), QueryOutcome::Answered(_)));
        assert!(matches!(
            second.wait(),
            QueryOutcome::DeadlineMissed { node: 2, .. }
        ));
        let stats = frontend.shutdown();
        assert_eq!(stats.deadline_misses, 1);
    }

    #[test]
    fn observer_sample_drains_the_interval_histograms() {
        let store = Arc::new(GraphStore::new(gen::gnm(80, 320, 4)));
        let engine = SimPush::new(Config::new(0.05));
        let frontend = Frontend::start(&engine, store, options(2, 32).build());
        let observer = frontend.observer();
        let outcomes = frontend.run_closed_loop(
            &(0..12).collect::<Vec<NodeId>>(),
            2,
            Duration::from_secs(30),
        );
        assert_eq!(outcomes.len(), 12);
        let sample = observer.sample();
        assert_eq!(sample.stats.answered, 12);
        assert_eq!(sample.sojourn.count, 12, "every dequeue records sojourn");
        assert_eq!(sample.latency.count, 12, "every answer records latency");
        assert!(sample.latency.percentile(99).is_some());
        assert!(
            sample.latency.percentile(50) >= sample.sojourn.percentile(0),
            "latency includes service on top of sojourn"
        );
        // The drain consumed the interval.
        let empty = observer.sample();
        assert!(empty.sojourn.is_empty() && empty.latency.is_empty());
        // The observer outlives the front-end.
        let final_stats = frontend.shutdown();
        assert_eq!(observer.stats(), final_stats);
    }
}
