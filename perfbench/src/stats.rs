//! Percentiles and small summaries over measured samples.
//!
//! Every percentile the benchmark prints is nearest-rank on the sorted
//! sample (rank `⌈p/100 · n⌉`, never interpolated), and a tail percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it —
//! a p99 over 200 samples would be the second-largest sample, which is
//! noise, not a tail.

use std::time::Duration;

/// How many samples must lie strictly above a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), or `None` when the
/// sample is empty or fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank. `f64::INFINITY` is a valid sample: it stands for a request that
/// was refused or failed, which counts as over any latency limit.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} out of range"
    );
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND && pct > 50.0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The nearest-rank median; the [`MIN_BEYOND`] guard does not apply to it.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// CPU time the hypervisor has taken from this machine's vCPUs since boot
/// (the `steal` column of `/proc/stat`, in `USER_HZ` = 1/100 s ticks), in
/// seconds; `None` where it cannot be read.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Steal readings taken while a phase runs, so each measurement window can
/// be judged by how much CPU the hypervisor took during it.
#[derive(Debug, Clone, Default)]
pub struct StealMarks {
    /// `(seconds since the phase started, steal_s())` pairs, in time order.
    marks: Vec<(f64, f64)>,
    next_s: f64,
}

impl StealMarks {
    /// Readings are taken at most this often.
    const EVERY_S: f64 = 0.25;

    /// Takes a reading if `t_s` (seconds since the phase started) has
    /// passed the next reading time.
    pub fn tick(&mut self, t_s: f64) {
        if t_s >= self.next_s {
            if let Some(steal) = steal_s() {
                self.marks.push((t_s, steal));
            }
            self.next_s = t_s + Self::EVERY_S;
        }
    }

    fn at(&self, t_s: f64) -> f64 {
        let i = self.marks.partition_point(|&(t, _)| t <= t_s);
        self.marks[i.saturating_sub(1)].1
    }

    /// Steal seconds in each of `n` windows of `window_s` seconds.
    pub fn per_window(&self, window_s: f64, n: usize) -> Vec<f64> {
        if self.marks.len() < 2 {
            return vec![0.0; n];
        }
        (0..n)
            .map(|i| self.at((i + 1) as f64 * window_s) - self.at(i as f64 * window_s))
            .collect()
    }

    /// Which of `n` windows are quiet: those the hypervisor took no more
    /// CPU from than from the window at the `pct` percentile (by steal),
    /// plus a slack of 2.5% of the window's CPU time, so a run with little
    /// steal keeps every window. Every window is quiet when no readings
    /// exist.
    pub fn quiet(&self, window_s: f64, n: usize, pct: f64) -> Vec<bool> {
        let steal = self.per_window(window_s, n);
        let cpus = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
        let limit = percentile(&steal, pct).unwrap_or(0.0) + 0.025 * window_s * cpus;
        steal.iter().map(|&s| s <= limit).collect()
    }
}

/// The nearest-rank `pct` percentile of the samples whose time `at_s`
/// falls in a quiet window of `window_s` seconds (see
/// [`StealMarks::quiet`]); samples past the last window are left out.
/// `None` when the kept samples are too few for the [`MIN_BEYOND`] guard.
pub fn quiet_percentile(
    at_s: &[f64],
    values: &[f64],
    window_s: f64,
    quiet: &[bool],
    pct: f64,
) -> Option<f64> {
    let kept: Vec<f64> = at_s
        .iter()
        .zip(values)
        .filter(|(&t, _)| quiet.get((t.max(0.0) / window_s) as usize) == Some(&true))
        .map(|(_, &v)| v)
        .collect();
    percentile(&kept, pct)
}

/// Arithmetic mean, `0` for an empty sample (used for per-query counts,
/// where "no queries" means "no work").
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 99.0), Some(990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 above → reported.
        assert!(percentile(&ramp(1000), 99.0).is_some());
        // 999 samples: rank 990 leaves 9 above → withheld.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p90 over 100 samples leaves 10 above.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // The median is never withheld once there is a sample.
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quiet_percentile_leaves_out_stolen_windows() {
        // Five 1 s windows of 200 samples; window 3 is stalled (10× slower).
        let mut at = Vec::new();
        let mut v = Vec::new();
        for w in 0..5 {
            for i in 0..200 {
                at.push(w as f64 + i as f64 / 200.0);
                v.push(if w == 3 { 10.0 } else { 1.0 } * (1.0 + i as f64 / 200.0));
            }
        }
        // With every window quiet it is the plain percentile, which lands
        // in the stalled window.
        let all = [true; 5];
        assert_eq!(
            quiet_percentile(&at, &v, 1.0, &all, 90.0),
            percentile(&v, 90.0)
        );
        assert!(percentile(&v, 90.0).unwrap() > 10.0);
        // Leaving the stalled window out.
        let quiet = [true, true, true, false, true];
        let p90 = quiet_percentile(&at, &v, 1.0, &quiet, 90.0).unwrap();
        assert_eq!(p90, 1.0 + 179.0 / 200.0);
        // Too few samples kept for a p90 with 10 beyond.
        let one = [false, true, false, false, false];
        assert!(quiet_percentile(&at, &v[..], 1.0, &one, 90.0).is_some());
        assert_eq!(quiet_percentile(&at[..50], &v[..50], 1.0, &all, 90.0), None);
    }

    #[test]
    fn steal_marks_judge_windows() {
        let mut m = StealMarks::default();
        // Steal grows by 0.5 s during the third 1 s window only (more than
        // the slack of 2.5% of the window's CPU time on up to 8 CPUs).
        for (t, s) in [
            (0.0, 10.0),
            (1.0, 10.0),
            (2.0, 10.0),
            (3.0, 10.5),
            (4.0, 10.5),
            (5.0, 10.5),
        ] {
            m.marks.push((t, s));
        }
        assert_eq!(m.per_window(1.0, 5), vec![0.0, 0.0, 0.5, 0.0, 0.0]);
        assert_eq!(m.quiet(1.0, 5, 50.0), vec![true, true, false, true, true]);
        assert_eq!(m.quiet(1.0, 5, 25.0), vec![true, true, false, true, true]);
        // Without readings every window counts.
        assert_eq!(StealMarks::default().quiet(1.0, 3, 50.0), vec![true; 3]);
        // tick() takes a reading where /proc/stat exists, at most every 0.25 s.
        let mut live = StealMarks::default();
        live.tick(0.0);
        live.tick(0.1);
        assert!(live.marks.len() <= 1);
    }

    #[test]
    fn refused_requests_count_as_over_the_limit() {
        let mut s = ramp(1000);
        for v in s.iter_mut().skip(985) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&s, 99.0), Some(f64::INFINITY));
        assert_eq!(percentile(&s, 50.0), Some(500.0));
    }
}
