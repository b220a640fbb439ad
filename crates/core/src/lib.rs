//! **SimPush** — realtime, index-free single-source SimRank.
//!
//! Reproduction of *"Realtime Index-Free Single Source SimRank Processing on
//! Web-Scale Graphs"* (Shi, Jin, Yang, Xiao, Yang — PVLDB 2020).
//!
//! Given a directed graph `G`, a query node `u`, an absolute error budget
//! `ε` and a failure probability `δ`, a query returns `s̃(u, v)` for every
//! `v` with `s(u,v) − ε ≤ s̃(u,v) ≤ s(u,v)` (one-sided underestimate), with
//! probability `≥ 1 − δ`, **without any preprocessing or index**.
//!
//! # Quick start
//!
//! ```
//! use simpush::{Config, SimPush};
//! use simrank_graph::gen::shapes;
//!
//! let g = shapes::jeh_widom();
//! let engine = SimPush::new(Config::new(0.01));
//! let result = engine.query(&g, 1); // single-source query from ProfA
//! for (node, score) in result.top_k(3) {
//!     println!("node {node}: s̃ = {score:.4}");
//! }
//! ```
//!
//! # Pipeline (paper §3–4)
//!
//! 1. [`source_push`](source_push::source_push) — samples √c-walks to detect
//!    the max useful level `L`, then pushes hitting probabilities
//!    `h^(ℓ)(u,·)` level by level along in-edges, recording the *source
//!    graph* `Gu` and the *attention nodes* (`h ≥ ε_h`).
//! 2. [`hitting`] + [`gamma`] — computes hitting probabilities between
//!    attention nodes *inside* `Gu` and from them the last-meeting
//!    corrections `γ^(ℓ)(w)` via the first-meeting recursion, with no
//!    random walks.
//! 3. [`reverse_push`](reverse_push::reverse_push) — seeds residues
//!    `r^(ℓ)(w) = h^(ℓ)(u,w)·γ^(ℓ)(w)` and pushes them along out-edges down
//!    to level 0, producing `s̃(u, ·)` in one pass for all attention nodes
//!    simultaneously.
//!
//! Each stage is timed; [`QueryStats`] exposes the breakdown used to
//! reproduce the paper's Table 3 and its in-text structural claims (average
//! `L`, attention-node counts).
//!
//! # Workspace reuse (serving)
//!
//! Every stage borrows its buffers from a reusable [`QueryWorkspace`]
//! instead of allocating per query: [`SimPush::query`] manages a
//! lazily-grown engine-internal workspace, serving loops hold one per
//! thread and call [`SimPush::query_with`], and
//! [`SimPush::query_batch`](crate::SimPush::query_batch) gives each worker
//! its own. Steady-state warm queries perform zero heap allocations in the
//! push stages, and warm results are bit-identical to cold ones — see the
//! [`workspace`] module docs for why.
//!
//! # Serving (dynamic graphs)
//!
//! The [`Frontend`] is the one serving path: a bounded admission queue
//! with non-blocking backpressure ([`Frontend::try_submit`] returns
//! [`SubmitError::Overloaded`] when full), a worker pool answering on
//! per-request fresh snapshots of any [`SnapshotSource`] — a
//! [`GraphStore`](simrank_graph::GraphStore) epoch or a
//! [`ShardedStore`](simrank_graph::ShardedStore) consistent cut — and
//! per-query deadlines whose expirations are dropped at dequeue and
//! counted; see the [`frontend`] module docs. The paper's "frequent
//! updates" scenario is a front-end beside a writer thread: the writer
//! commits edge-update batches (or drives every shard at once through
//! [`ShardedStore::commit_lockstep`](simrank_graph::ShardedStore::commit_lockstep))
//! while [`Frontend::run_closed_loop`] drains a query list, and every
//! answer replays bit for bit on the epoch or cut it records.
//! `FrontendOptions` are built through a validating builder
//! ([`FrontendOptions::builder`]); the struct is `#[non_exhaustive]`, so
//! new serving knobs land without breaking call sites.
//!
//! # Elastic control plane
//!
//! The [`control`] module makes the serving knobs *live*: an
//! [`ActiveTuning`] (deadline, admission quota, cache staleness, worker
//! target) is atomically swappable through a [`TuningHandle`] and read
//! per-request by the front-end, and a closed-loop [`Controller`] samples
//! per-interval sojourn/latency histograms to actuate it CoDel-style —
//! the `elastic_serve` bench shows the controlled ramp holding its p99
//! SLO where the static configuration collapses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer_cache;
pub mod batch;
pub mod config;
pub mod control;
pub mod frontend;
pub mod gamma;
pub mod hitting;
pub mod query;
pub mod reverse_push;
pub mod source_graph;
pub mod source_push;
pub mod workspace;

pub use answer_cache::{
    AnswerCache, AnswerCacheOptions, CacheHit, CacheKey, CacheStats, SupportTracer,
};
pub use config::{Config, LevelDetection, McBudget};
pub use control::{
    step, ActiveTuning, ControlLog, ControlReason, ControlRecord, ControlState, Controller,
    ControllerOptions, HistogramSnapshot, IntervalHistogram, TickObservation, TuningHandle,
    TuningLimits,
};
pub use frontend::{
    Frontend, FrontendObserver, FrontendOptions, FrontendOptionsBuilder, FrontendResponse,
    FrontendStats, IntervalSample, QueryOutcome, SnapshotSource, SubmitError, Ticket,
};
pub use query::{QueryResult, QueryStats, SimPush};
pub use source_graph::SourceGraph;
pub use workspace::QueryWorkspace;
