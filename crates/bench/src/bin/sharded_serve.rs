//! `sharded_serve` — machine-readable sharded-serving benchmark snapshot.
//!
//! Sweeps the shard count K ∈ {1, 2, 4, 8} of a
//! [`ShardedStore`] over **one** fixed mixed
//! update/query workload and writes the timings as JSON
//! (`BENCH_sharded_serve.json`), so the horizontal-scaling trajectory of
//! the serving layer stays comparable across PRs. The headline series is
//! `sweep[*].updates_per_sec`: effective update throughput should rise
//! monotonically with K while `avg_query_ns` stays flat.
//!
//! Methodology notes (see `docs/REPRODUCING.md` for the long version):
//!
//! * The workload is generated **once** against an 8-shard
//!   [`RangePartitioner`] with a small
//!   cross-shard fraction. Range chunks nest, so the same stream stays
//!   shard-local at K = 4, 2, 1 — every sweep point commits the identical
//!   update sequence and the identical query set.
//! * Update throughput divides logically effective updates by the
//!   update-side wall (start → last shard writer finished its final
//!   consistent cut), measured while reader threads run concurrently —
//!   the serving regime, not an isolated writer microbench.
//! * Sharding pays off through two mechanisms: K writer threads commit in
//!   parallel (on multi-core hosts), and per-shard compaction domains
//!   shrink — a shard rebuild is `O(n + m_k)` instead of `O(n + m)` — so
//!   the sweep shows gains even on a single core.
//! * Every run serves the queries through a [`Frontend`] with
//!   [`READER_THREADS`] workers, driven closed-loop, while one scoped
//!   writer thread commits the stream beside it. For a sharded store that
//!   writer is [`ShardedStore::commit_lockstep`], which runs the K shard
//!   writers and the barrier cut protocol. Query latency is each answer's
//!   service time (snapshot acquire + query); any query left unanswered
//!   exits non-zero.
//! * `baseline_unsharded` runs a plain `GraphStore` writer on the same
//!   workload: K = 1 sharding should cost ≈ nothing over it (the routing
//!   tax), which keeps the sweep honest.
//! * `cross_traffic_tax` re-runs K = 4 with a
//!   [`HashPartitioner`], under which the
//!   same stream is mostly cross-shard and every cross update is mirrored
//!   into two shards — the replication tax a bad partitioner pays.
//!
//! ```text
//! cargo run --release -p simrank_bench --bin sharded_serve [--smoke] [OUT.json]
//! ```
//!
//! `--smoke` shrinks everything to CI scale (tiny graph, same K sweep) so
//! the sharded serving path and this emitter cannot silently rot.

use simpush::{Config, Frontend, FrontendOptions, QueryOutcome, SimPush, SnapshotSource};
use simrank_common::stats::LatencySummary;
use simrank_eval::mixed::{sharded_workload, MixedWorkload};
use simrank_graph::{
    gen, CsrGraph, GraphStore, GraphView, HashPartitioner, Partitioner, RangePartitioner,
    ShardCommit, ShardedStore,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    nodes: usize,
    out_deg: usize,
    updates: usize,
    queries: usize,
    updates_per_batch: usize,
    compact_threshold: usize,
}

const FULL: Scale = Scale {
    nodes: 24_000,
    out_deg: 16,
    updates: 16_384,
    queries: 24,
    updates_per_batch: 64,
    compact_threshold: 192,
};

/// CI scale: everything tiny, but thresholds low enough that per-shard
/// compaction fires at every K, so the whole path (routing → mirrored
/// applies → per-shard publish → barrier cut → concurrent composite
/// queries → JSON) is exercised.
const SMOKE: Scale = Scale {
    nodes: 400,
    out_deg: 4,
    updates: 96,
    queries: 8,
    updates_per_batch: 16,
    compact_threshold: 8,
};

const SWEEP_KS: [usize; 4] = [1, 2, 4, 8];
const WORKLOAD_SHARDS: usize = 8;
const COPY_PROB: f64 = 0.75;
/// Fraction of base-graph edges crossing cluster (= finest shard)
/// boundaries — the id-locality of a URL-ordered web crawl.
const GRAPH_CROSS_FRACTION: f64 = 0.02;
const GRAPH_SEED: u64 = 7;
const WORKLOAD_SEED: u64 = 42;
const REMOVE_FRACTION: f64 = 0.25;
const CROSS_FRACTION: f64 = 0.05;
const EPSILON: f64 = 0.02;
const READER_THREADS: usize = 2;

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

/// One served run: the query service-time distribution and the wall
/// clock from the first query to the last answer (writer included).
struct Served {
    queries: LatencySummary,
    wall: Duration,
}

impl Served {
    fn queries_per_sec(&self) -> f64 {
        self.queries.count() as f64 / self.wall.as_secs_f64()
    }
}

/// Answers `queries` through a [`Frontend`] over `store` while `write`
/// commits the update stream on a scoped thread beside it. Exits non-zero
/// unless every query is answered.
fn serve_beside<S: SnapshotSource>(
    engine: &SimPush,
    store: &Arc<S>,
    queries: &[u32],
    write: impl FnOnce() + Send,
) -> Served {
    let frontend = Frontend::start(
        engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(READER_THREADS)
            .queue_capacity(READER_THREADS)
            .default_deadline(None)
            .build(),
    );
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        scope.spawn(write);
        frontend.run_closed_loop(queries, READER_THREADS, Duration::from_secs(60))
    });
    let wall = start.elapsed();
    frontend.shutdown();
    let service = outcomes.into_iter().map(|outcome| match outcome {
        Ok(QueryOutcome::Answered(r)) => r.service,
        other => {
            eprintln!("[sharded_serve] query not answered: {other:?}");
            std::process::exit(1);
        }
    });
    Served {
        queries: LatencySummary::from_samples(service),
        wall,
    }
}

/// One run of the K shard writers in lockstep beside the front-end.
struct Lockstep {
    served: Served,
    commits: Vec<ShardCommit>,
    /// Time the lockstep commit took, routing included.
    update_wall: Duration,
    cuts: u64,
    compactions: u64,
    compaction_time: Duration,
}

impl Lockstep {
    /// Serves `workload` on `store`, committing the stream through
    /// [`ShardedStore::commit_lockstep`]; exits non-zero if the final cut
    /// is not the sequential replay.
    fn run<P: Partitioner + Clone + Send + Sync + 'static>(
        engine: &SimPush,
        store: ShardedStore<P>,
        workload: &MixedWorkload,
        batch: usize,
        expected_final: &CsrGraph,
    ) -> Self {
        let store = Arc::new(store);
        let mut commits = Vec::new();
        let mut update_wall = Duration::ZERO;
        let served = serve_beside(engine, &store, &workload.queries, || {
            let t = Instant::now();
            commits = store.commit_lockstep(&workload.updates, batch);
            update_wall = t.elapsed();
        });
        assert_eq!(
            &store.snapshot().to_csr(),
            expected_final,
            "K={} sharded store diverged from sequential replay",
            store.num_shards()
        );
        Self {
            served,
            commits,
            update_wall,
            cuts: store.cut(),
            compactions: store.compactions(),
            compaction_time: store.compaction_time(),
        }
    }

    fn effective_updates(&self) -> usize {
        self.commits.iter().map(|c| c.applied).sum()
    }

    fn updates_per_sec(&self) -> f64 {
        self.effective_updates() as f64 / self.update_wall.as_secs_f64()
    }
}

fn sweep_entry(json: &mut String, k: usize, run: &Lockstep, last: bool) {
    let queries = &run.served.queries;
    writeln!(json, "    {{").unwrap();
    writeln!(json, "      \"k\": {k},").unwrap();
    writeln!(
        json,
        "      \"effective_updates\": {},",
        run.effective_updates()
    )
    .unwrap();
    writeln!(json, "      \"update_wall_ns\": {},", ns(run.update_wall)).unwrap();
    writeln!(
        json,
        "      \"updates_per_sec\": {:.1},",
        run.updates_per_sec()
    )
    .unwrap();
    writeln!(json, "      \"avg_query_ns\": {},", ns(queries.mean())).unwrap();
    writeln!(
        json,
        "      \"p95_query_ns\": {},",
        ns(queries.p95().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "      \"p99_query_ns\": {},",
        ns(queries.p99().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "      \"queries_per_sec\": {:.1},",
        run.served.queries_per_sec()
    )
    .unwrap();
    writeln!(json, "      \"cuts\": {},", run.cuts).unwrap();
    writeln!(json, "      \"compactions\": {},", run.compactions).unwrap();
    writeln!(
        json,
        "      \"compaction_total_ns\": {},",
        ns(run.compaction_time)
    )
    .unwrap();
    let avg_commit = LatencySummary::from_samples(run.commits.iter().map(|c| c.latency)).mean();
    writeln!(json, "      \"avg_shard_commit_ns\": {},", ns(avg_commit)).unwrap();
    writeln!(json, "      \"wall_ns\": {}", ns(run.served.wall)).unwrap();
    writeln!(json, "    }}{}", if last { "" } else { "," }).unwrap();
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_sharded_serve.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let scale = if smoke { SMOKE } else { FULL };

    // Clustered base: id-local like a URL-ordered crawl, with cluster
    // boundaries aligned to the finest range shards — so shard subgraphs
    // actually shrink with K, which is what makes per-shard compaction
    // domains pay off.
    let base = gen::clustered_copying_web(
        scale.nodes,
        WORKLOAD_SHARDS,
        scale.out_deg,
        COPY_PROB,
        GRAPH_CROSS_FRACTION,
        GRAPH_SEED,
    );
    // One workload for every sweep point: generated against the finest
    // partitioner; range chunks nest, so locality survives at smaller K.
    let finest = RangePartitioner::new(scale.nodes, WORKLOAD_SHARDS);
    let workload = sharded_workload(
        &base,
        &finest,
        scale.updates,
        scale.queries,
        REMOVE_FRACTION,
        CROSS_FRACTION,
        WORKLOAD_SEED,
    );
    let engine = SimPush::new(Config::new(EPSILON));
    let expected_final = workload.final_graph(&base);
    eprintln!(
        "[sharded_serve] graph n={} m={}, {} updates, {} queries{}",
        base.num_nodes(),
        base.num_edges(),
        workload.updates.len(),
        workload.queries.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // Reference: the unsharded single-writer GraphStore path.
    let single = Arc::new(GraphStore::with_compaction_threshold(
        base.clone(),
        scale.compact_threshold,
    ));
    let mut unsharded_update_time = Duration::ZERO;
    let mut unsharded_effective = 0usize;
    let unsharded = serve_beside(&engine, &single, &workload.queries, || {
        for chunk in workload.updates.chunks(scale.updates_per_batch) {
            let t = Instant::now();
            unsharded_effective += single.commit(chunk).0;
            unsharded_update_time += t.elapsed();
        }
    });
    assert_eq!(
        single.snapshot().to_csr(),
        expected_final,
        "unsharded store diverged from sequential replay"
    );

    // The K sweep, one identical workload per point.
    let mut sweep: Vec<(usize, Lockstep)> = Vec::new();
    for k in SWEEP_KS {
        let store = ShardedStore::with_compaction_threshold(
            &base,
            RangePartitioner::new(scale.nodes, k),
            scale.compact_threshold,
        );
        let run = Lockstep::run(
            &engine,
            store,
            &workload,
            scale.updates_per_batch,
            &expected_final,
        );
        eprintln!(
            "[sharded_serve] K={k}: {:.0} updates/s, avg query {:?}, {} compactions",
            run.updates_per_sec(),
            run.served.queries.mean(),
            run.compactions
        );
        sweep.push((k, run));
    }

    // The anti-pattern: a locality-blind hash partitioner turns the same
    // stream mostly cross-shard, paying the mirror-replication tax.
    let hash_k = 4;
    let hash_store = ShardedStore::with_compaction_threshold(
        &base,
        HashPartitioner::new(hash_k),
        scale.compact_threshold,
    );
    let hashed = Lockstep::run(
        &engine,
        hash_store,
        &workload,
        scale.updates_per_batch,
        &expected_final,
    );
    let hash_p = HashPartitioner::new(hash_k);
    let cross_updates = workload
        .updates
        .iter()
        .filter(|u| {
            let (s, t) = u.endpoints();
            hash_p.shard_of(s) != hash_p.shard_of(t)
        })
        .count();

    let mut json = String::new();
    // Hand-rolled JSON: the workspace intentionally has no serde. The
    // check_bench_json binary validates this output's schema in CI.
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"sharded_serve\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(
        json,
        "  \"graph\": {{ \"family\": \"clustered_copying_web\", \"nodes\": {}, \"clusters\": {WORKLOAD_SHARDS}, \"out_degree\": {}, \"copy_prob\": {COPY_PROB}, \"cross_fraction\": {GRAPH_CROSS_FRACTION}, \"seed\": {GRAPH_SEED} }},",
        scale.nodes, scale.out_deg
    )
    .unwrap();
    writeln!(
        json,
        "  \"workload\": {{ \"updates\": {}, \"queries\": {}, \"remove_fraction\": {REMOVE_FRACTION}, \"cross_fraction\": {CROSS_FRACTION}, \"partitioner\": \"range\", \"generated_at_shards\": {WORKLOAD_SHARDS}, \"seed\": {WORKLOAD_SEED} }},",
        workload.updates.len(),
        workload.queries.len()
    )
    .unwrap();
    writeln!(json, "  \"epsilon\": {EPSILON},").unwrap();
    writeln!(
        json,
        "  \"compaction_threshold_per_shard\": {},",
        scale.compact_threshold
    )
    .unwrap();
    writeln!(
        json,
        "  \"updates_per_batch\": {},",
        scale.updates_per_batch
    )
    .unwrap();
    writeln!(json, "  \"reader_threads\": {READER_THREADS},").unwrap();
    writeln!(json, "  \"baseline_unsharded\": {{").unwrap();
    writeln!(json, "    \"effective_updates\": {unsharded_effective},").unwrap();
    writeln!(
        json,
        "    \"update_time_ns\": {},",
        ns(unsharded_update_time)
    )
    .unwrap();
    writeln!(
        json,
        "    \"updates_per_sec\": {:.1},",
        if unsharded_update_time.is_zero() {
            0.0
        } else {
            unsharded_effective as f64 / unsharded_update_time.as_secs_f64()
        }
    )
    .unwrap();
    writeln!(
        json,
        "    \"avg_query_ns\": {},",
        ns(unsharded.queries.mean())
    )
    .unwrap();
    writeln!(
        json,
        "    \"p95_query_ns\": {},",
        ns(unsharded.queries.p95().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "    \"p99_query_ns\": {},",
        ns(unsharded.queries.p99().unwrap_or_default())
    )
    .unwrap();
    writeln!(json, "    \"compactions\": {},", single.compactions()).unwrap();
    writeln!(json, "    \"wall_ns\": {}", ns(unsharded.wall)).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"sweep\": [").unwrap();
    let count = sweep.len();
    for (i, (k, run)) in sweep.iter().enumerate() {
        sweep_entry(&mut json, *k, run, i + 1 == count);
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"cross_traffic_tax\": {{").unwrap();
    writeln!(json, "    \"k\": {hash_k},").unwrap();
    writeln!(json, "    \"partitioner\": \"hash\",").unwrap();
    writeln!(json, "    \"cross_updates\": {cross_updates},").unwrap();
    writeln!(
        json,
        "    \"updates_per_sec\": {:.1},",
        hashed.updates_per_sec()
    )
    .unwrap();
    writeln!(
        json,
        "    \"avg_query_ns\": {},",
        ns(hashed.served.queries.mean())
    )
    .unwrap();
    writeln!(json, "    \"compactions\": {}", hashed.compactions).unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
