//! Concurrent update/query serving — the paper's "frequent updates"
//! scenario as a running system.
//!
//! A [`GraphStore`] serves a social graph: one writer thread commits edge
//! update batches and publishes immutable epoch snapshots, while a
//! four-worker [`Frontend`] answers single-source SimRank queries on
//! whatever epoch is current — no rebuild step, no locking beyond an `Arc`
//! swap. At the end we show the determinism contract: re-querying the
//! final epoch on a full CSR rebuild reproduces the served answer bit for
//! bit.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```

use simpush::{Config, Frontend, FrontendOptions, QueryOutcome, SimPush};
use simrank_common::stats::LatencySummary;
use simrank_suite::eval::mixed::mixed_workload;
use simrank_suite::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const UPDATES_PER_BATCH: usize = 32;

fn main() {
    let base = simrank_suite::graph::gen::rmat(
        13,
        60_000,
        simrank_suite::graph::gen::RmatParams::social(),
        5,
    );
    println!(
        "social graph: {} nodes, {} edges",
        base.num_nodes(),
        base.num_edges()
    );

    let workload = mixed_workload(&base, 1_024, 48, 0.3, 42);
    let store = Arc::new(GraphStore::with_compaction_threshold(base.clone(), 256));
    let engine = SimPush::new(Config::new(0.02));
    let frontend = Frontend::start(
        &engine,
        store.clone(),
        FrontendOptions::builder()
            .workers(WORKERS)
            .queue_capacity(WORKERS)
            .default_deadline(None)
            .top_k(3)
            .build(),
    );

    println!(
        "serving {} queries ({WORKERS} workers) against {} updates (batches of {UPDATES_PER_BATCH})…\n",
        workload.queries.len(),
        workload.updates.len(),
    );
    let mut commit_times = Vec::new();
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        // The writer: one publish per batch, beside the front-end.
        scope.spawn(|| {
            for batch in workload.updates.chunks(UPDATES_PER_BATCH) {
                let t = Instant::now();
                store.commit(batch);
                commit_times.push(t.elapsed());
            }
        });
        frontend.run_closed_loop(&workload.queries, WORKERS, Duration::from_secs(60))
    });
    let wall = start.elapsed();
    frontend.shutdown();
    let answers: Vec<_> = outcomes
        .into_iter()
        .map(|outcome| match outcome {
            Ok(QueryOutcome::Answered(r)) => r,
            other => panic!("query not answered: {other:?}"),
        })
        .collect();
    let latency = LatencySummary::from_samples(answers.iter().map(|r| r.service));

    println!("--- serving run ---");
    println!(
        "wall time            : {:>10.2?}  ({:.0} queries/s)",
        wall,
        answers.len() as f64 / wall.as_secs_f64()
    );
    println!(
        "query latency        : {:>10.2?} avg, {:.2?} p95",
        latency.mean(),
        latency.p95().unwrap_or_default()
    );
    println!(
        "update batch latency : {:>10.2?} avg (apply + publish)",
        LatencySummary::from_samples(commit_times).mean()
    );
    println!(
        "epochs published     : {:>10}  ({} compactions, {:.2?} compacting)",
        store.epoch(),
        store.compactions(),
        store.compaction_time()
    );
    let epochs: std::collections::BTreeSet<u64> = answers.iter().map(|r| r.epoch).collect();
    println!(
        "epochs observed      : {:>10} distinct ({:?}…)",
        epochs.len(),
        epochs.iter().take(6).collect::<Vec<_>>()
    );
    if let Some(r) = answers.iter().find(|r| !r.top.is_empty()) {
        println!(
            "sample answer        : query {} @ epoch {} → top {:?}",
            r.node, r.epoch, r.top
        );
    }

    // The determinism contract: a snapshot answer equals the answer on a
    // full CSR rebuild of the same epoch.
    let snap = store.snapshot();
    let rebuilt = snap.to_csr();
    let u = workload.queries[0];
    let on_snapshot = engine.query_seeded(&*snap, u);
    let on_rebuild = engine.query_seeded(&rebuilt, u);
    assert_eq!(on_snapshot.scores, on_rebuild.scores);
    println!(
        "\nfinal epoch {}: query {u} on overlay snapshot == on CSR rebuild, bit for bit ✓",
        snap.epoch()
    );
}
