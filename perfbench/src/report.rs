//! Metric assembly and output: the end-to-end metrics of the serving run,
//! the per-layer metrics of the serving run and the traced replay, the
//! check against the names `BENCHMARK.json` declares, and the JSON lines.

use crate::serve::Served;
use crate::spec::{MetricDecl, Serving};
use crate::stats::{median, percentile, quiet_percentile};

/// Named metric values with units, in print order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// Appends all of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Checks that the metrics are exactly `declared` (same names, same
    /// units, each once) and that every value is a finite number.
    pub fn check_against(&self, declared: &[MetricDecl]) -> Result<(), String> {
        let mut got: Vec<(&str, &str)> = self
            .0
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
            .collect();
        let mut want: Vec<(&str, &str)> = declared
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!(
                "printed metrics {got:?} differ from those BENCHMARK.json declares {want:?}"
            ));
        }
        match self.0.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((name, v, _)) => Err(format!("metric {name} is not finite: {v}")),
            None => Ok(()),
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn tail(samples: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    percentile(samples, pct).ok_or_else(|| {
        format!(
            "{what}: {} samples are too few for p{pct} with 10 beyond it; \
             lengthen the phase or raise its rate in spec.json",
            samples.len()
        )
    })
}

fn mid(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).ok_or_else(|| format!("{what}: no samples"))
}

/// The end-to-end metrics of a serving run.
pub fn end_to_end(s: &Served, serving: &Serving) -> Result<Metrics, String> {
    // Latency comes from the open-loop phase; a closed-loop-only workload
    // reports its closed-loop round trips.
    let lat = s.latency_phase();
    let w = serving.window_s;
    // Latency reacts to steal far more than throughput does (a request
    // stalls for as long as its vCPU is taken), so it keeps only the
    // windows up to the quietest quarter's steal.
    let quiet = lat.steal.quiet(w, lat.windows(w), 25.0);
    let latency = |pct: f64| {
        quiet_percentile(&lat.sent_s, &lat.latency_ms, w, &quiet, pct).ok_or_else(|| {
            format!(
                "the quiet windows keep too few of the {} latency samples for p{pct} \
                 with 10 beyond it; lengthen the phase or raise its rate in spec.json",
                lat.latency_ms.len()
            )
        })
    };
    let throughput = s
        .closed
        .throughput(serving.window_s)
        .ok_or("the closed-loop phase is shorter than one throughput window")?;
    let mut m = Metrics::default();
    m.push("setup_s", mid(&s.setup_s, "setup")?, "s");
    m.push("throughput_qps", throughput, "q/s");
    m.push("latency_p50_ms", latency(50.0)?, "ms");
    m.push("latency_p90_ms", latency(90.0)?, "ms");
    m.push("peak_rss_mb", s.peak_rss_mb, "MB");
    Ok(m)
}

/// The per-layer metrics the serving run itself gives: the frontend's
/// response fields and counters, the generator's lateness, graph open
/// time and commit latency.
pub fn serving_layers(s: &Served) -> Result<Metrics, String> {
    let phase = s.latency_phase();
    let mut m = Metrics::default();
    m.push(
        "frontend.queue_wait_p50_ms",
        mid(&phase.queue_wait_ms, "queue wait")?,
        "ms",
    );
    m.push(
        "frontend.queue_wait_p99_ms",
        tail(&phase.queue_wait_ms, 99.0, "queue wait")?,
        "ms",
    );
    m.push(
        "frontend.service_p50_ms",
        mid(&phase.service_ms, "service")?,
        "ms",
    );
    m.push(
        "frontend.service_p99_ms",
        tail(&phase.service_ms, 99.0, "service")?,
        "ms",
    );
    m.push("frontend.rejected", s.stats.rejected as f64, "count");
    m.push(
        "frontend.max_queue_depth",
        s.stats.max_queue_depth as f64,
        "count",
    );
    let late = match &s.open {
        Some(p) => tail(&p.late_ms, 99.0, "generator lateness")?,
        None => 0.0,
    };
    m.push("loadgen.late_p99_ms", late, "ms");
    m.push("storage.open_ms", mid(&s.open_ms, "open")?, "ms");
    let (commit_p50, commit_p90) = if s.commit_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            mid(&s.commit_ms, "commit")?,
            tail(&s.commit_ms, 90.0, "commit")?,
        )
    };
    m.push("store.commit_p50_ms", commit_p50, "ms");
    m.push("store.commit_p90_ms", commit_p90, "ms");
    Ok(m)
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Phase, Served};
    use crate::spec::{Declared, Spec};
    use simpush::FrontendStats;
    use std::time::Duration;

    /// `n` requests spread evenly over a 20 s phase.
    fn phase(n: usize) -> Phase {
        let v: Vec<f64> = (1..=n).map(|x| x as f64 / 10.0).collect();
        let at: Vec<f64> = (0..n).map(|i| i as f64 * 20.0 / n as f64).collect();
        Phase {
            attempted: n,
            answered: n,
            latency_ms: v.clone(),
            sent_s: at.clone(),
            queue_wait_ms: v.clone(),
            service_ms: v.clone(),
            late_ms: v.clone(),
            done_s: at,
            elapsed: Duration::from_secs(20),
            answers: Vec::new(),
            steal: Default::default(),
        }
    }

    /// Counters of a frontend that served nothing.
    fn idle_stats() -> FrontendStats {
        let store = std::sync::Arc::new(simrank_graph::GraphStore::new(simrank_graph::gen::gnm(
            10, 20, 1,
        )));
        let engine = simpush::SimPush::new(simpush::Config::new(0.1));
        simpush::Frontend::start(&engine, store, simpush::FrontendOptions::default()).shutdown()
    }

    fn served() -> Served {
        Served {
            setup_s: vec![0.02, 0.03, 0.025],
            open_ms: vec![1.0, 2.0],
            closed: phase(1200),
            open: Some(phase(1200)),
            commit_ms: (1..=200).map(f64::from).collect(),
            stats: idle_stats(),
            peak_rss_mb: 40.0,
        }
    }

    #[test]
    fn printed_names_equal_the_declared_ones() {
        let spec = Spec::load().unwrap();
        let declared = Declared::load().unwrap();
        let s = served();
        end_to_end(&s, &spec.serving)
            .unwrap()
            .check_against(&declared.end_to_end)
            .unwrap();
        // The per-layer set is the serving run's part plus the replay's; the
        // replay's names are fixed in `Replay::metrics`, so check the union
        // by name here against a replay run on a tiny workload.
        let replay = crate::tests_support::tiny_replay_metrics();
        let mut layers = serving_layers(&s).unwrap();
        layers.extend(replay);
        layers.check_against(&declared.per_layer).unwrap();
    }

    #[test]
    fn a_short_phase_is_an_error_not_a_noisy_tail() {
        let mut s = served();
        // 90 samples: too few for a p90 with 10 beyond.
        s.open = Some(phase(90));
        let spec = Spec::load().unwrap();
        let err = end_to_end(&s, &spec.serving).unwrap_err();
        assert!(err.contains("too few"), "{err}");
        let err = serving_layers(&s).unwrap_err();
        assert!(err.contains("too few"), "{err}");
    }

    #[test]
    fn result_line_is_valid_json() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        let line = result_line(true, 10, 0, &m);
        let j = simrank_bench::json::parse(&line).unwrap();
        assert_eq!(
            j.path("metrics.setup_s.value").and_then(|v| v.as_f64()),
            Some(0.5)
        );
        assert_eq!(j.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
