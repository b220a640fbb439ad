//! `perfbench`: the repository's serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload web_tiered --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed`, serves them through
//! `GraphStore`/`DiskGraph` → `Frontend` → `SimPush` for `--seconds`,
//! checks the answers (every one, or a seeded sample where `spec.json`
//! says so) against `SimPush::query_seeded` on the graph of the epoch each
//! was served at, and prints the end-to-end metrics
//! (`--trace 0`) or, after a traced single-thread replay, the per-layer
//! metrics (`--trace 1`). The last line of standard output is the result
//! object; see `README.md` in this directory.

mod check;
mod inputs;
mod replay;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use crate::inputs::InputFiles;
use crate::replay::Replay;
use crate::report::{json_str, result_line, Metrics};
use crate::spec::{Declared, Spec, Workload};
use simpush::{Config, SimPush};
use simrank_graph::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    generate_into: Option<PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        generate_into: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--generate-into" => out.generate_into = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if out.generate_into.is_none() && (out.seconds.is_nan() || out.seconds <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// Scratch files of one run, removed when it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn work_root() -> PathBuf {
    spec::package_dir().join(".work")
}

/// Output of a command, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(spec::package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance of a result, as a JSON object.
fn provenance(args: &Args, run_index: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only ask git inside this repository's own checkout: above an
    // exported copy it would report some enclosing repository's commit.
    let git_rev = if spec::package_dir().join("../.git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"profile\": \"{profile}\", \
         \"workload\": {}, \"seed\": {}, \"run_index\": {run_index}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&git_rev),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    )
}

/// Runs this binary as a child process that writes the inputs into `dir`.
fn generate_in_child(args: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let status = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--generate-into")
        .arg(dir)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

/// What one run produced.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
    detail: Vec<(&'static str, String)>,
}

/// Diagnostics printed beside the result, as JSON fields: what ran, the
/// whole-phase latency tail against the workload's p99 limit, the median
/// parts of latency, and the per-window rates and hypervisor steal that
/// the windowed metrics were taken from.
fn detail(
    w: &Workload,
    serving: &spec::Serving,
    served: &serve::Served,
    checked: &check::Checked,
    check_s: f64,
) -> Vec<(&'static str, String)> {
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let lat = served.latency_phase();
    let pct =
        |p: f64| stats::percentile(&lat.latency_ms, p).map_or("null".into(), |v| v.to_string());
    let med = |v: &[f64]| stats::median(v).map_or("null".into(), |v| v.to_string());
    let win = serving.window_s;
    let p99_ok = match (w.open, stats::percentile(&lat.latency_ms, 99.0)) {
        (Some(o), Some(p99)) => (p99 <= o.p99_limit_ms).to_string(),
        _ => "null".into(),
    };
    vec![
        ("closed_answered", served.closed.answered.to_string()),
        (
            "closed_seconds",
            served.closed.elapsed.as_secs_f64().to_string(),
        ),
        (
            "open_answered",
            served.open.as_ref().map_or(0, |p| p.answered).to_string(),
        ),
        ("commits", served.commit_ms.len().to_string()),
        ("checked", checked.answers.to_string()),
        ("check_queries", checked.queries.to_string()),
        ("check_pinned", checked.pinned.to_string()),
        ("check_promoted", checked.promoted.to_string()),
        ("check_s", check_s.to_string()),
        ("cache_hit_rate", served.stats.cache_hit_rate().to_string()),
        ("latency_p90_ms", pct(90.0)),
        ("latency_p95_ms", pct(95.0)),
        ("latency_p99_ms", pct(99.0)),
        (
            "p99_limit_ms",
            w.open.map_or("null".into(), |o| o.p99_limit_ms.to_string()),
        ),
        ("p99_within_limit", p99_ok),
        ("late_p50_ms", med(&lat.late_ms)),
        ("queue_wait_p50_ms", med(&lat.queue_wait_ms)),
        ("service_p50_ms", med(&lat.service_ms)),
        (
            "closed_window_rates",
            list(&served.closed.window_rates(win)),
        ),
        (
            "closed_window_steal_s",
            list(
                &served
                    .closed
                    .steal
                    .per_window(win, served.closed.windows(win)),
            ),
        ),
        (
            "latency_window_steal_s",
            list(&lat.steal.per_window(win, lat.windows(win))),
        ),
    ]
}

fn run(args: &Args, spec: &Spec, w: &Workload, dir: &Path) -> Result<Outcome, String> {
    let files = InputFiles::new(dir);
    generate_in_child(args, dir)?;
    let engine = SimPush::new(Config::new(w.epsilon));
    let n = w.graph.nodes();
    let open_seconds = args.seconds * (1.0 - w.closed_share);
    let open_count = w
        .open
        .map_or(0, |o| (o.rate_qps * open_seconds).round() as usize);
    let closed_keys = inputs::keys(w.keys, n, args.seed, "keys.closed", 1 << 18);
    let open_keys = inputs::keys(w.keys, n, args.seed, "keys.open", open_count);
    let updates = match w.writes {
        Some(_) => inputs::read_updates(&files.updates())?,
        None => Vec::new(),
    };

    let served = serve::run(
        w,
        &spec.serving,
        &engine,
        &files,
        &closed_keys,
        &open_keys,
        &updates,
        args.seconds,
    )?;
    let base = io::load_binary(files.srg1()).map_err(|e| format!("load reference: {e}"))?;
    let phases = std::iter::once(&served.closed).chain(served.open.as_ref());
    let answers: Vec<_> = phases
        .clone()
        .flat_map(|p| p.answers.iter().cloned())
        .collect();
    let attempted: usize = phases.clone().map(|p| p.attempted).sum();
    let answered: usize = phases.map(|p| p.answered).sum();
    let batch_edges = w.writes.map_or(1, |ws| ws.batch_edges);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = std::time::Instant::now();
    let checked = check::check_answers(
        &engine,
        &base,
        &updates,
        batch_edges,
        &answers,
        w.check_sample,
        args.seed,
        spec.serving.top_k,
        threads,
    );
    let check_s = t.elapsed().as_secs_f64();
    let mut detail = detail(w, &spec.serving, &served, &checked, check_s);
    let mut mismatches = checked.mismatches;
    let e2e = report::end_to_end(&served, &spec.serving)?;
    let mut failed = attempted - answered;
    let mut attempted_total = attempted;
    let metrics = if args.trace {
        // The replay uses the open-loop schedule when there is one, else a
        // prefix of the closed-loop key stream; both are fixed by the seed.
        let stream = if open_keys.is_empty() {
            &closed_keys
        } else {
            &open_keys
        };
        let keys = stream
            .get(..w.trace_requests)
            .ok_or_else(|| format!("{}: trace_requests exceeds the requests of one run", w.name))?;
        let spans = work_root()
            .join("traces")
            .join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
        let traced = Replay {
            w,
            serving: &spec.serving,
            engine: &engine,
            files: &files,
            base: &base,
            keys,
            updates: &updates,
        }
        .run(&spans)?;
        attempted_total += traced.requests;
        mismatches.extend(traced.mismatches);
        detail.push(("spans", json_str(&spans.display().to_string())));
        let mut m = report::serving_layers(&served)?;
        m.extend(traced.metrics);
        m
    } else {
        e2e
    };
    failed += mismatches.len();
    Ok(Outcome {
        metrics,
        attempted: attempted_total,
        failed,
        mismatches,
        detail,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let spec = Spec::load()?;
    let w = spec.workload(&args.workload)?;
    if let Some(dir) = &args.generate_into {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        inputs::generate(w, args.seed, &InputFiles::new(dir))?;
        return Ok(ExitCode::SUCCESS);
    }
    let declared = Declared::load()?;
    spec.check_layers(&declared)?;

    let log = work_root().join("runs.jsonl");
    // The run index is the number of results logged before this one.
    let run_index = std::fs::read_to_string(&log).map_or(0, |t| t.lines().count() as u64);
    let prov = provenance(&args, run_index);
    let dir = WorkDir(work_root().join(format!("run-{}", std::process::id())));
    let outcome = run(&args, &spec, w, &dir.0)?;
    drop(dir);

    let declared_metrics = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    outcome.metrics.check_against(declared_metrics)?;
    let correct = outcome.mismatches.is_empty();
    for m in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("# {name:<32} {value:>14.6} {unit}");
    }
    let line = result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics);
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let record = format!(
        "{{\"provenance\": {prov}, \"detail\": {{{}}}, \"result\": {line}}}",
        detail.join(", ")
    );
    println!("{record}");
    std::fs::create_dir_all(work_root()).map_err(|e| format!("create work dir: {e}"))?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| writeln!(f, "{record}"))
        .map_err(|e| format!("append {}: {e}", log.display()))?;
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests_support {
    //! A tiny end-to-end replay for the tests.

    use super::*;
    use crate::spec::{CacheSpec, GraphSpec, KeyDist, StorageSpec, WriteSpec};

    /// A small churn workload with a cache, like `churn_zipf`.
    pub fn tiny_churn() -> Workload {
        Workload {
            name: "tiny_churn".into(),
            graph: GraphSpec::CopyingWeb {
                nodes: 600,
                out_degree: 5,
                copy_prob: 0.7,
            },
            graph_seed: 1,
            storage: StorageSpec::Ram,
            epsilon: 0.05,
            keys: KeyDist::Zipf(1.2),
            cache: Some(CacheSpec {
                capacity: 32,
                max_stale_epochs: 0,
            }),
            writes: Some(WriteSpec {
                batch_edges: 8,
                compaction_threshold: 64,
                queries_per_batch: 5,
                remove_fraction: 0.5,
                max_batches: 40,
            }),
            warmup_requests: 0,
            closed_share: 0.5,
            open: None,
            check_sample: Some(10),
            trace_requests: 120,
        }
    }

    /// A small disk workload, like `web_tiered`.
    pub fn tiny_disk() -> Workload {
        Workload {
            name: "tiny_disk".into(),
            graph: GraphSpec::CopyingWeb {
                nodes: 3000,
                out_degree: 6,
                copy_prob: 0.75,
            },
            graph_seed: 1,
            storage: StorageSpec::Disk {
                page_bytes: 4096,
                pin_budget_bytes: 16 * 1024,
            },
            epsilon: 0.05,
            keys: KeyDist::Uniform,
            cache: None,
            writes: None,
            warmup_requests: 0,
            closed_share: 1.0,
            open: None,
            check_sample: Some(10),
            trace_requests: 40,
        }
    }

    /// Runs the traced replay of `w` for `seed` in a scratch directory.
    pub fn replay(w: &Workload, seed: u64) -> replay::Traced {
        let dir = WorkDir(work_root().join(format!(
            "test-{}-{seed}-{:?}",
            w.name,
            std::thread::current().id()
        )));
        let files = InputFiles::new(&dir.0);
        std::fs::create_dir_all(&dir.0).unwrap();
        inputs::generate(w, seed, &files).unwrap();
        let serving = spec::Serving {
            workers: 2,
            queue_capacity: 64,
            top_k: 5,
            setup_repeats: 1,
            window_s: 1.0,
        };
        let engine = SimPush::new(Config::new(w.epsilon));
        let keys = inputs::keys(w.keys, w.graph.nodes(), seed, "keys", w.trace_requests);
        let updates = match w.writes {
            Some(_) => inputs::read_updates(&files.updates()).unwrap(),
            None => Vec::new(),
        };
        let base = io::load_binary(files.srg1()).unwrap();
        Replay {
            w,
            serving: &serving,
            engine: &engine,
            files: &files,
            base: &base,
            keys: &keys,
            updates: &updates,
        }
        .run(&dir.0.join("spans.jsonl"))
        .unwrap()
    }

    /// The replay's metrics on a tiny churn workload.
    pub fn tiny_replay_metrics() -> Metrics {
        replay(&tiny_churn(), 3).metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(m: &Metrics, name: &str) -> f64 {
        m.0.iter().find(|(n, _, _)| n == name).unwrap().1
    }

    #[test]
    fn replay_answers_match_and_counts_repeat_exactly() {
        for w in [tests_support::tiny_churn(), tests_support::tiny_disk()] {
            let a = tests_support::replay(&w, 7);
            let b = tests_support::replay(&w, 7);
            assert!(a.mismatches.is_empty(), "{}: {:?}", w.name, a.mismatches);
            for ((name, va, unit), (_, vb, _)) in a.metrics.0.iter().zip(&b.metrics.0) {
                if unit.starts_with("count") || unit.starts_with("bytes") || unit == "edges" {
                    assert_eq!(va, vb, "{}: {name} must repeat exactly", w.name);
                }
            }
            // Stage times plus the unattributed rest add up to the total.
            let m = &a.metrics;
            let parts = value(m, "walks.sampling_ms")
                + value(m, "source_push.push_ms")
                + value(m, "hitting.ms")
                + value(m, "gamma.ms")
                + value(m, "reverse_push.ms")
                + value(m, "query.unattributed_ms");
            assert!((parts - value(m, "query.total_ms")).abs() < 1e-9);
        }
        let churn = tests_support::replay(&tests_support::tiny_churn(), 7).metrics;
        assert!(value(&churn, "store.compactions") > 0.0);
        assert!(value(&churn, "answer_cache.hit_rate") > 0.0);
        let disk = tests_support::replay(&tests_support::tiny_disk(), 7).metrics;
        assert!(value(&disk, "storage.page_faults") > 0.0);
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = parse_args(argv(
            "--workload churn_zipf --seed 4 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn_zipf", 4, 2.5, true)
        );
        assert!(parse_args(argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(argv("--workload x --bogus 1")).is_err());
    }
}
