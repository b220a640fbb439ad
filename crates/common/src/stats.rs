//! Small latency-statistics helpers shared by the serving layers and the
//! bench emitters.
//!
//! Every percentile reported anywhere in the workspace — `p95`/`p99` in
//! the serving bench snapshots, the front-end's offered-load sweep, the
//! scenario matrix — goes through [`duration_percentile`], so all of them agree on
//! one definition: **nearest-rank on the sorted sample**, index
//! `⌊(len − 1) · p / 100⌋`. That definition never interpolates (the
//! returned value is always an observed sample) and pins ties
//! deterministically: equal samples sort stably by value, so the reported
//! percentile of `[1, 2, 2, 2, 9]` is an actual `2`, not a synthetic
//! average.
//!
//! An **empty** sample set has no percentile — it returns `None`, never a
//! fabricated zero. Per-scenario latency slices can legitimately be empty
//! (a scenario rejected or expired 100 % of its traffic), and a silent
//! `0 ns` tail latency would read as "infinitely fast" exactly when the
//! service was at its worst. Callers that want a sentinel value for
//! display must choose it explicitly.

use std::time::Duration;

/// A latency distribution summarised once from a sample set.
///
/// The scenario reports, the serving bench emitters and the per-interval
/// serving timelines all expose the same five statistics — mean, p50,
/// p95, p99, max — and before this type each of them re-sorted the raw
/// samples per accessor call. A
/// `LatencySummary` sorts **once** at construction and answers every
/// accessor from the precomputed fields.
///
/// Percentiles follow [`duration_percentile`] exactly (nearest-rank,
/// `None` on empty); [`LatencySummary::mean`] returns `Duration::ZERO` on
/// an empty sample set because the mean is used additively in displays
/// where a zero reads as "no traffic", unlike a tail percentile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    count: usize,
    total: Duration,
    min: Option<Duration>,
    max: Option<Duration>,
    p50: Option<Duration>,
    p95: Option<Duration>,
    p99: Option<Duration>,
}

impl LatencySummary {
    /// Builds the summary from a sample set; sorts once, O(n log n).
    pub fn from_samples(samples: impl IntoIterator<Item = Duration>) -> Self {
        let mut sorted: Vec<Duration> = samples.into_iter().collect();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return Self::default();
        }
        let rank = |pct: usize| sorted[(sorted.len() - 1) * pct / 100];
        Self {
            count: sorted.len(),
            total: sorted.iter().sum(),
            min: Some(sorted[0]),
            max: Some(sorted[sorted.len() - 1]),
            p50: Some(rank(50)),
            p95: Some(rank(95)),
            p99: Some(rank(99)),
        }
    }

    /// Number of samples the summary was built from.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sum of all samples (`Duration::ZERO` on empty).
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Arithmetic mean; `Duration::ZERO` on an empty sample set.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }

    /// Smallest sample; `None` on empty.
    pub fn min(&self) -> Option<Duration> {
        self.min
    }

    /// Largest sample; `None` on empty.
    pub fn max(&self) -> Option<Duration> {
        self.max
    }

    /// Nearest-rank median; `None` on empty.
    pub fn p50(&self) -> Option<Duration> {
        self.p50
    }

    /// Nearest-rank 95th percentile; `None` on empty.
    pub fn p95(&self) -> Option<Duration> {
        self.p95
    }

    /// Nearest-rank 99th percentile; `None` on empty.
    pub fn p99(&self) -> Option<Duration> {
        self.p99
    }
}

/// One fixed-width slice of a serving timeline.
///
/// Produced by [`bucket_timeline`]; the scenario reports expose a
/// `Vec<TimelineInterval>` so bench emitters and the elastic controller's
/// offline analysis can see *when* a run degraded, not just its aggregate
/// tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineInterval {
    /// Zero-based interval index.
    pub index: usize,
    /// Offset of the interval's start from the run's start.
    pub start: Duration,
    /// Latency distribution of the events that completed in the interval.
    pub latency: LatencySummary,
}

/// Buckets `(completion offset, latency)` events into fixed-width
/// [`TimelineInterval`]s.
///
/// The timeline is dense: it spans interval 0 through the interval of the
/// latest event, and intervals in which nothing completed carry an empty
/// [`LatencySummary`] (percentiles `None`) rather than being skipped, so a
/// stall is visible as a gap instead of silently compressing the x-axis.
/// Returns an empty vec when there are no events.
///
/// # Panics
/// Panics if `interval` is zero.
pub fn bucket_timeline(
    events: impl IntoIterator<Item = (Duration, Duration)>,
    interval: Duration,
) -> Vec<TimelineInterval> {
    assert!(!interval.is_zero(), "timeline interval must be positive");
    let mut buckets: Vec<Vec<Duration>> = Vec::new();
    for (offset, latency) in events {
        let idx = (offset.as_nanos() / interval.as_nanos()) as usize;
        if idx >= buckets.len() {
            buckets.resize_with(idx + 1, Vec::new);
        }
        buckets[idx].push(latency);
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(index, samples)| TimelineInterval {
            index,
            start: interval * index as u32,
            latency: LatencySummary::from_samples(samples),
        })
        .collect()
}

/// Nearest-rank percentile of a set of durations; `pct` is in `[0, 100]`.
///
/// Returns `None` on an empty sample set — an empty slice has no
/// percentile, and defaulting to zero would report a service that
/// answered nothing as one with a perfect tail. `pct = 0` is the minimum
/// and `pct = 100` the maximum.
///
/// # Panics
/// Panics if `pct > 100`.
pub fn duration_percentile(
    samples: impl IntoIterator<Item = Duration>,
    pct: u8,
) -> Option<Duration> {
    assert!(pct <= 100, "percentile must be in [0, 100], got {pct}");
    let mut sorted: Vec<Duration> = samples.into_iter().collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_unstable();
    Some(sorted[(sorted.len() - 1) * pct as usize / 100])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        // The regression pin for the scenario matrix: a 100%-rejected
        // slice must surface as "no samples", not as a 0 ns tail.
        for pct in [0, 50, 95, 99, 100] {
            assert_eq!(duration_percentile([], pct), None);
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for pct in [0, 50, 95, 99, 100] {
            assert_eq!(duration_percentile([ms(7)], pct), Some(ms(7)));
        }
    }

    #[test]
    fn nearest_rank_indexing_is_exact() {
        // 10 samples: index (10-1)*p/100 → p95 picks index 8, p99 index 8,
        // p100 index 9, p50 index 4.
        let samples: Vec<Duration> = (1..=10).map(ms).collect();
        assert_eq!(
            duration_percentile(samples.iter().copied(), 50),
            Some(ms(5))
        );
        assert_eq!(
            duration_percentile(samples.iter().copied(), 95),
            Some(ms(9))
        );
        assert_eq!(
            duration_percentile(samples.iter().copied(), 99),
            Some(ms(9))
        );
        assert_eq!(
            duration_percentile(samples.iter().copied(), 100),
            Some(ms(10))
        );
        assert_eq!(duration_percentile(samples, 0), Some(ms(1)));
    }

    #[test]
    fn ties_pin_to_an_observed_sample() {
        // A run of equal values straddling the percentile index must come
        // back as exactly that value — never interpolated, independent of
        // input order.
        let a = [ms(9), ms(2), ms(2), ms(1), ms(2)];
        let b = [ms(2), ms(2), ms(9), ms(2), ms(1)];
        assert_eq!(duration_percentile(a, 50), Some(ms(2)));
        assert_eq!(duration_percentile(b, 50), Some(ms(2)));
        // All-equal input: every percentile is that value.
        let flat = [ms(4); 17];
        for pct in [0, 50, 95, 99, 100] {
            assert_eq!(duration_percentile(flat, pct), Some(ms(4)));
        }
    }

    #[test]
    fn percentiles_are_monotone_in_pct() {
        let samples: Vec<Duration> = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5].map(ms).to_vec();
        let mut last = Duration::ZERO;
        for pct in 0..=100 {
            let v = duration_percentile(samples.iter().copied(), pct).unwrap();
            assert!(v >= last, "p{pct} = {v:?} < previous {last:?}");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be")]
    fn rejects_out_of_range_pct() {
        duration_percentile([ms(1)], 101);
    }

    #[test]
    fn summary_agrees_with_duration_percentile() {
        let samples: Vec<Duration> = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5].map(ms).to_vec();
        let s = LatencySummary::from_samples(samples.iter().copied());
        assert_eq!(s.count(), samples.len());
        for (pct, got) in [(50, s.p50()), (95, s.p95()), (99, s.p99())] {
            assert_eq!(got, duration_percentile(samples.iter().copied(), pct));
        }
        assert_eq!(s.min(), samples.iter().copied().min());
        assert_eq!(s.max(), samples.iter().copied().max());
        assert_eq!(s.total(), samples.iter().copied().sum());
        let mean = samples.iter().copied().sum::<Duration>() / samples.len() as u32;
        assert_eq!(s.mean(), mean);
    }

    #[test]
    fn empty_summary_has_no_percentiles_and_zero_mean() {
        let s = LatencySummary::from_samples([]);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p95(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn timeline_is_dense_and_buckets_by_completion_offset() {
        // Events at 0.1s, 0.9s, 2.5s with a 1s interval: three intervals,
        // the middle one (1s..2s) empty but present.
        let events = [(ms(100), ms(5)), (ms(900), ms(7)), (ms(2500), ms(40))];
        let tl = bucket_timeline(events, Duration::from_secs(1));
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].start, Duration::ZERO);
        assert_eq!(tl[0].latency.count(), 2);
        // Nearest-rank on 2 samples: index (2-1)*99/100 = 0.
        assert_eq!(tl[0].latency.p99(), Some(ms(5)));
        assert_eq!(tl[0].latency.max(), Some(ms(7)));
        assert_eq!(tl[1].start, Duration::from_secs(1));
        assert_eq!(tl[1].latency, LatencySummary::default());
        assert_eq!(tl[2].index, 2);
        assert_eq!(tl[2].latency.p50(), Some(ms(40)));
    }

    #[test]
    fn timeline_of_no_events_is_empty() {
        assert!(bucket_timeline([], Duration::from_secs(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn timeline_rejects_zero_interval() {
        bucket_timeline([(ms(1), ms(1))], Duration::ZERO);
    }

    #[test]
    fn single_sample_summary_is_that_sample_everywhere() {
        let s = LatencySummary::from_samples([ms(7)]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), ms(7));
        for v in [s.min(), s.max(), s.p50(), s.p95(), s.p99()] {
            assert_eq!(v, Some(ms(7)));
        }
    }
}
