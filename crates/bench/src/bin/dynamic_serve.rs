//! `dynamic_serve` — machine-readable dynamic serving benchmark snapshot.
//!
//! Drives the same deterministic mixed update/query workload through three
//! serving regimes and writes the timings as JSON
//! (`BENCH_dynamic_serve.json`), so the dynamic-path perf trajectory stays
//! comparable across PRs:
//!
//! 1. **store_batched** — the intended regime: a [`GraphStore`] writer
//!    thread commits updates in batches while a 4-worker [`Frontend`]
//!    answers the queries closed-loop on epoch snapshots.
//! 2. **store_publish_per_update** — same store, but one publish per
//!    update: what snapshot-per-update costs when the snapshot is still a
//!    cheap overlay clone.
//! 3. **csr_rebuild_per_update** — the index-style strawman: a full CSR
//!    rebuild after every update, queries on the final rebuild.
//!
//! ```text
//! cargo run --release -p simrank_bench --bin dynamic_serve [--smoke] [OUT.json]
//! ```
//!
//! `--smoke` shrinks everything to CI scale (tiny graph, one round) so the
//! serving path and this emitter cannot silently rot.

use simpush::{Config, Frontend, FrontendOptions, QueryOutcome, QueryWorkspace, SimPush};
use simrank_common::stats::LatencySummary;
use simrank_eval::mixed::{mixed_workload, MixedWorkload};
use simrank_graph::{gen, CsrGraph, GraphStore, GraphUpdate, GraphView, MutableGraph};
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
    nodes: 20_000,
    out_deg: 8,
    updates: 2_048,
    queries: 64,
    updates_per_batch: 64,
    compact_threshold: 512,
};

/// CI scale: everything tiny, but the threshold still low enough that
/// compaction fires, so the whole path (overlay → publish → compaction →
/// concurrent queries → JSON) is exercised.
const SMOKE: Scale = Scale {
    nodes: 500,
    out_deg: 4,
    updates: 64,
    queries: 12,
    updates_per_batch: 8,
    compact_threshold: 16,
};

const COPY_PROB: f64 = 0.75;
const GRAPH_SEED: u64 = 7;
const WORKLOAD_SEED: u64 = 42;
const REMOVE_FRACTION: f64 = 0.3;
const EPSILON: f64 = 0.02;
const READER_THREADS: usize = 4;

fn ns(d: Duration) -> u128 {
    d.as_nanos()
}

/// Serves `workload` on a fresh store and writes its JSON section: a
/// scoped writer thread commits the updates in batches of `batch` while a
/// [`Frontend`] with [`READER_THREADS`] workers drains the queries
/// closed-loop. Query latency is each answer's service time (snapshot
/// acquire + query). Exits non-zero unless every query is answered and
/// the store converges to the sequential replay.
fn serve_section(
    json: &mut String,
    name: &str,
    engine: &SimPush,
    base: &CsrGraph,
    workload: &MixedWorkload,
    batch: usize,
    compact_threshold: usize,
) {
    let store = Arc::new(GraphStore::with_compaction_threshold(
        base.clone(),
        compact_threshold,
    ));
    let frontend = Frontend::start(
        engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(READER_THREADS)
            .queue_capacity(READER_THREADS)
            .default_deadline(None)
            .build(),
    );
    let mut commits: Vec<(usize, Duration)> = Vec::new();
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        scope.spawn(|| {
            for chunk in workload.updates.chunks(batch) {
                let t = Instant::now();
                let (applied, _) = store.commit(chunk);
                commits.push((applied, t.elapsed()));
            }
        });
        frontend.run_closed_loop(&workload.queries, READER_THREADS, Duration::from_secs(60))
    });
    let wall = start.elapsed();
    frontend.shutdown();
    let service: Vec<Duration> = outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok(QueryOutcome::Answered(r)) => r.service,
            other => {
                eprintln!("[dynamic_serve] {name}: query not answered: {other:?}");
                std::process::exit(1);
            }
        })
        .collect();
    assert_eq!(
        store.snapshot().to_csr(),
        workload.final_graph(base),
        "{name}: store diverged from sequential replay"
    );
    let queries = LatencySummary::from_samples(service.iter().copied());
    let effective_updates: usize = commits.iter().map(|&(applied, _)| applied).sum();
    let avg_update = LatencySummary::from_samples(commits.iter().map(|&(_, t)| t)).mean();
    writeln!(json, "  \"{name}\": {{").unwrap();
    writeln!(json, "    \"updates_per_batch\": {batch},").unwrap();
    writeln!(json, "    \"effective_updates\": {effective_updates},").unwrap();
    writeln!(json, "    \"avg_update_batch_ns\": {},", ns(avg_update)).unwrap();
    writeln!(json, "    \"avg_query_ns\": {},", ns(queries.mean())).unwrap();
    writeln!(
        json,
        "    \"p95_query_ns\": {},",
        ns(queries.p95().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "    \"p99_query_ns\": {},",
        ns(queries.p99().unwrap_or_default())
    )
    .unwrap();
    writeln!(
        json,
        "    \"queries_per_sec\": {:.1},",
        service.len() as f64 / wall.as_secs_f64()
    )
    .unwrap();
    writeln!(json, "    \"epochs_published\": {},", store.epoch()).unwrap();
    writeln!(json, "    \"compactions\": {},", store.compactions()).unwrap();
    writeln!(
        json,
        "    \"compaction_total_ns\": {},",
        ns(store.compaction_time())
    )
    .unwrap();
    writeln!(json, "    \"wall_ns\": {}", ns(wall)).unwrap();
    writeln!(json, "  }},").unwrap();
}

/// The index-style baseline: apply each update to a [`MutableGraph`] and
/// pay a full CSR rebuild per update, then answer the queries warm on the
/// final rebuild. Returns (avg rebuild ns, avg query ns).
fn csr_rebuild_per_update(
    base: &CsrGraph,
    engine: &SimPush,
    updates: &[GraphUpdate],
    queries: &[u32],
) -> (u128, u128) {
    let mut live = MutableGraph::from_csr(base);
    let mut rebuild_total = Duration::ZERO;
    let mut last = base.clone();
    for &u in updates {
        match u {
            GraphUpdate::Insert(s, t) => live.insert_edge(s, t),
            GraphUpdate::Remove(s, t) => live.remove_edge(s, t),
        };
        let t = Instant::now();
        last = live.snapshot();
        rebuild_total += t.elapsed();
    }
    let mut ws = QueryWorkspace::new();
    let t = Instant::now();
    for &q in queries {
        std::hint::black_box(engine.query_seeded_with(&last, q, &mut ws));
    }
    let query_total = t.elapsed();
    (
        rebuild_total.as_nanos() / updates.len().max(1) as u128,
        query_total.as_nanos() / queries.len().max(1) as u128,
    )
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_dynamic_serve.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let scale = if smoke { SMOKE } else { FULL };

    let base = gen::copying_web(scale.nodes, scale.out_deg, COPY_PROB, GRAPH_SEED);
    let workload = mixed_workload(
        &base,
        scale.updates,
        scale.queries,
        REMOVE_FRACTION,
        WORKLOAD_SEED,
    );
    let engine = SimPush::new(Config::new(EPSILON));
    eprintln!(
        "[dynamic_serve] graph n={} m={}, {} updates, {} queries{}",
        base.num_nodes(),
        base.num_edges(),
        workload.updates.len(),
        workload.queries.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut json = String::new();
    // Hand-rolled JSON: the workspace intentionally has no serde.
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"dynamic_serve\",").unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(
        json,
        "  \"graph\": {{ \"family\": \"copying_web\", \"nodes\": {}, \"out_degree\": {}, \"copy_prob\": {COPY_PROB}, \"seed\": {GRAPH_SEED} }},",
        scale.nodes, scale.out_deg
    )
    .unwrap();
    writeln!(
        json,
        "  \"workload\": {{ \"updates\": {}, \"queries\": {}, \"remove_fraction\": {REMOVE_FRACTION}, \"seed\": {WORKLOAD_SEED}, \"reader_threads\": {READER_THREADS} }},",
        workload.updates.len(),
        workload.queries.len()
    )
    .unwrap();
    writeln!(json, "  \"epsilon\": {EPSILON},").unwrap();
    writeln!(
        json,
        "  \"compaction_threshold\": {},",
        scale.compact_threshold
    )
    .unwrap();
    // Regime 1: batched commits beside the front-end.
    serve_section(
        &mut json,
        "store_batched",
        &engine,
        &base,
        &workload,
        scale.updates_per_batch,
        scale.compact_threshold,
    );
    // Regime 2: one publish per update (overlay snapshot per update).
    serve_section(
        &mut json,
        "store_publish_per_update",
        &engine,
        &base,
        &workload,
        1,
        scale.compact_threshold,
    );
    // Regime 3: the full-rebuild strawman.
    let (rebuild_ns, rebuild_query_ns) =
        csr_rebuild_per_update(&base, &engine, &workload.updates, &workload.queries);
    writeln!(json, "  \"csr_rebuild_per_update\": {{").unwrap();
    writeln!(json, "    \"avg_rebuild_ns\": {rebuild_ns},").unwrap();
    writeln!(json, "    \"avg_query_ns\": {rebuild_query_ns}").unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
