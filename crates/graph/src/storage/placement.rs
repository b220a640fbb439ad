//! Cost-model-driven segment placement and tier observability counters.
//!
//! An `SRGD` file holds four segments (out/in offsets and elements). Under
//! a RAM byte budget, [`plan_placement`] decides which of them to pin
//! fully in memory at open and which to leave on the storage tier behind
//! the page cache. The decision is a greedy knapsack over *benefit per
//! byte*: how many modelled nanoseconds of tier access cost one pinned
//! byte avoids, weighted by how often the query path touches that segment
//! (offset words are read on **every** neighbour resolution; element pages
//! only when a list lands on them). Greedy is within one segment of
//! optimal here because there are only four items and the offset segments
//! are both small and high-benefit — in practice they always pin first,
//! which is exactly the intuitive layout (index in RAM, data on disk).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use super::adaptor::AffineStorageProfile;

/// The four segments of an `SRGD` file, in on-disk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentId {
    /// CSR out-offset array, `(n + 1) × u64`.
    OutOffsets,
    /// CSR out-target array, `m × u32`.
    OutTargets,
    /// CSR in-offset array, `(n + 1) × u64`.
    InOffsets,
    /// CSR in-source array, `m × u32`.
    InSources,
}

impl SegmentId {
    /// All segments in on-disk order.
    pub const ALL: [SegmentId; 4] = [
        SegmentId::OutOffsets,
        SegmentId::OutTargets,
        SegmentId::InOffsets,
        SegmentId::InSources,
    ];

    /// Stable lower-case name used in stats, logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            SegmentId::OutOffsets => "out_offsets",
            SegmentId::OutTargets => "out_targets",
            SegmentId::InOffsets => "in_offsets",
            SegmentId::InSources => "in_sources",
        }
    }

    /// Relative access frequency of this segment per neighbour-list
    /// resolution. Resolving one list reads two offset words *always*,
    /// and element bytes only for the list actually requested, so offset
    /// bytes are far hotter per byte than element bytes.
    fn access_weight(self) -> f64 {
        match self {
            SegmentId::OutOffsets | SegmentId::InOffsets => 8.0,
            SegmentId::OutTargets | SegmentId::InSources => 1.0,
        }
    }
}

/// What [`plan_placement`] decided for one segment.
#[derive(Debug, Clone)]
pub struct SegmentPlacement {
    /// Which segment.
    pub segment: SegmentId,
    /// Exact segment payload size in bytes (excluding page padding).
    pub bytes: u64,
    /// True if the segment is decoded fully into RAM at open.
    pub pinned: bool,
    /// Modelled nanoseconds of tier cost avoided per pinned byte — the
    /// greedy ranking key.
    pub benefit_per_byte: f64,
}

/// The placement decision for a whole file under one budget.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// The RAM budget the plan was computed against, in bytes.
    pub budget_bytes: u64,
    /// Total bytes of segments chosen for pinning (≤ `budget_bytes`).
    pub pinned_bytes: u64,
    /// Per-segment decisions, in on-disk segment order.
    pub entries: Vec<SegmentPlacement>,
}

impl PlacementReport {
    /// True if `segment` was chosen for pinning.
    pub fn is_pinned(&self, segment: SegmentId) -> bool {
        self.entries
            .iter()
            .any(|e| e.segment == segment && e.pinned)
    }

    /// How many of the four segments are pinned.
    pub fn pinned_segments(&self) -> usize {
        self.entries.iter().filter(|e| e.pinned).count()
    }
}

/// Decides which segments to pin in RAM.
///
/// `seg_bytes` are the exact payload sizes in [`SegmentId::ALL`] order,
/// `tier` is the cost profile of the adaptor the unpinned remainder will
/// be read through, and `page_bytes` is the file's page size (the unit
/// reads arrive in). Benefit per byte for a segment is
///
/// ```text
/// weight(segment) × (per_byte_cost(tier, page) − per_byte_cost(RAM, page))
/// ```
///
/// clamped at zero (pinning never looks *worse* than the tier it
/// replaces). Segments are pinned greedily in descending benefit order
/// while they fit in `budget_bytes`; ties break in on-disk order so the
/// plan is deterministic.
pub fn plan_placement(
    seg_bytes: [u64; 4],
    tier: &AffineStorageProfile,
    page_bytes: u64,
    budget_bytes: u64,
) -> PlacementReport {
    let tier_cost = tier.per_byte_cost_ns(page_bytes);
    let ram_cost = AffineStorageProfile::RAM.per_byte_cost_ns(page_bytes);
    let saved = (tier_cost - ram_cost).max(0.0);

    let mut entries: Vec<SegmentPlacement> = SegmentId::ALL
        .iter()
        .zip(seg_bytes)
        .map(|(&segment, bytes)| SegmentPlacement {
            segment,
            bytes,
            pinned: false,
            benefit_per_byte: segment.access_weight() * saved,
        })
        .collect();

    // Rank by benefit, greedily pin while under budget. Sorting an index
    // permutation keeps `entries` itself in on-disk order for reporting.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        entries[b]
            .benefit_per_byte
            .total_cmp(&entries[a].benefit_per_byte)
            .then(entries[a].segment.cmp(&entries[b].segment))
    });
    let mut pinned_bytes = 0u64;
    for i in order {
        let e = &mut entries[i];
        if pinned_bytes.saturating_add(e.bytes) <= budget_bytes {
            e.pinned = true;
            pinned_bytes += e.bytes;
        }
    }

    PlacementReport {
        budget_bytes,
        pinned_bytes,
        entries,
    }
}

/// How many counter stripes a [`TierCounters`] holds. Threads past this
/// many share stripes round-robin, which costs throughput (the shared
/// line bounces again) but never correctness.
pub(crate) const STRIPES: usize = 16;

/// One stripe of tier counters, aligned to 128 bytes so no two stripes
/// share a cache line — or the adjacent line some CPUs prefetch in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CounterStripe {
    pub(crate) pinned_reads: AtomicU64,
    pub(crate) page_hits: AtomicU64,
    pub(crate) page_faults: AtomicU64,
    pub(crate) spill_hits: AtomicU64,
    pub(crate) adaptor_reads: AtomicU64,
    pub(crate) adaptor_bytes: AtomicU64,
}

/// The atomic counters behind a [`DiskGraph`](super::DiskGraph)'s read
/// path, striped per thread: each reader thread bumps only its own
/// [`CounterStripe`] (picked once per thread by a round-robin ticket), so
/// concurrent readers do not pass one cache line back and forth, and
/// [`snapshot`](Self::snapshot) sums the stripes.
///
/// All increments and loads are relaxed: these are advisory observability
/// counters — nothing synchronises on them. Every increment lands in
/// exactly one stripe, so a snapshot is exact once readers are quiescent;
/// one taken during concurrent reads is allowed to be approximate.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    stripes: [CounterStripe; STRIPES],
}

/// The calling thread's stripe index, fixed at its first call.
fn stripe_index() -> usize {
    static NEXT_TICKET: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // relaxed: the ticket only spreads threads over stripes — any
        // value is correct, and no other memory depends on it.
        static STRIPE: usize = NEXT_TICKET.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl TierCounters {
    /// The calling thread's stripe.
    #[inline]
    pub(crate) fn local(&self) -> &CounterStripe {
        &self.stripes[stripe_index()]
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        // relaxed: advisory observability counter — no ordering, nothing
        // reads it to synchronise (see the struct docs).
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        // relaxed: advisory observability counter — as in `bump`.
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Sums the stripes.
    pub(crate) fn snapshot(&self) -> TierStats {
        // relaxed: the loads need not be mutually consistent; stats
        // sampled mid-read are documented as approximate.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sum =
            |f: fn(&CounterStripe) -> &AtomicU64| self.stripes.iter().map(|s| load(f(s))).sum();
        TierStats {
            pinned_reads: sum(|s| &s.pinned_reads),
            page_hits: sum(|s| &s.page_hits),
            page_faults: sum(|s| &s.page_faults),
            spill_hits: sum(|s| &s.spill_hits),
            adaptor_reads: sum(|s| &s.adaptor_reads),
            adaptor_bytes: sum(|s| &s.adaptor_bytes),
        }
    }
}

/// A point-in-time snapshot of a disk graph's tier counters.
///
/// Counts cover query-path activity only — the open-time validation and
/// pinning streams are not included, so a freshly opened graph reads all
/// zeros and `cold − warm` deltas measure exactly the page-cache effect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Reads answered from a pinned (RAM-resident) segment.
    pub pinned_reads: u64,
    /// Reads answered from an already-faulted cached page — including a
    /// read whose own fill lost the race to another thread's.
    pub page_hits: u64,
    /// Pages decoded from the adaptor on first touch.
    pub page_faults: u64,
    /// Neighbour lists answered from the spill table (lists spanning a
    /// page boundary, materialised at open).
    pub spill_hits: u64,
    /// `read_at` calls issued to the adaptor to fill pages (a lost fill
    /// race still counts its read).
    pub adaptor_reads: u64,
    /// Bytes requested from the adaptor by those reads.
    pub adaptor_bytes: u64,
}

impl TierStats {
    /// Counter-wise difference `self − earlier` (saturating), for
    /// before/after measurements around a query batch.
    pub fn delta_since(&self, earlier: &TierStats) -> TierStats {
        TierStats {
            pinned_reads: self.pinned_reads.saturating_sub(earlier.pinned_reads),
            page_hits: self.page_hits.saturating_sub(earlier.page_hits),
            page_faults: self.page_faults.saturating_sub(earlier.page_faults),
            spill_hits: self.spill_hits.saturating_sub(earlier.spill_hits),
            adaptor_reads: self.adaptor_reads.saturating_sub(earlier.adaptor_reads),
            adaptor_bytes: self.adaptor_bytes.saturating_sub(earlier.adaptor_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 16_384;

    #[test]
    fn zero_budget_pins_nothing() {
        let plan = plan_placement(
            [800, 40_000, 800, 40_000],
            &AffineStorageProfile::BUFFERED_FS,
            PAGE,
            0,
        );
        assert_eq!(plan.pinned_segments(), 0);
        assert_eq!(plan.pinned_bytes, 0);
    }

    #[test]
    fn unlimited_budget_pins_everything() {
        let plan = plan_placement(
            [800, 40_000, 800, 40_000],
            &AffineStorageProfile::BUFFERED_FS,
            PAGE,
            u64::MAX,
        );
        assert_eq!(plan.pinned_segments(), 4);
        assert_eq!(plan.pinned_bytes, 81_600);
    }

    #[test]
    fn tight_budget_prefers_offset_segments() {
        // Budget fits both offset arrays but neither element array: the
        // higher access weight must win even though elements are "bigger
        // savings" in absolute terms.
        let plan = plan_placement(
            [800, 40_000, 800, 40_000],
            &AffineStorageProfile::BUFFERED_FS,
            PAGE,
            2_000,
        );
        assert!(plan.is_pinned(SegmentId::OutOffsets));
        assert!(plan.is_pinned(SegmentId::InOffsets));
        assert!(!plan.is_pinned(SegmentId::OutTargets));
        assert!(!plan.is_pinned(SegmentId::InSources));
        assert_eq!(plan.pinned_bytes, 1_600);
    }

    #[test]
    fn budget_spills_over_to_element_segments_in_disk_order() {
        let plan = plan_placement(
            [800, 40_000, 800, 40_000],
            &AffineStorageProfile::MMAP,
            PAGE,
            45_000,
        );
        assert!(plan.is_pinned(SegmentId::OutOffsets));
        assert!(plan.is_pinned(SegmentId::InOffsets));
        assert!(
            plan.is_pinned(SegmentId::OutTargets),
            "tie between element segments breaks in on-disk order"
        );
        assert!(!plan.is_pinned(SegmentId::InSources));
    }

    #[test]
    fn ram_tier_has_zero_benefit_but_still_pins_under_budget() {
        // Pinning from a MemAdaptor saves nothing in the model (both sides
        // are RAM) but is harmless; with budget it still pins.
        let plan = plan_placement([8, 8, 8, 8], &AffineStorageProfile::RAM, PAGE, u64::MAX);
        assert_eq!(plan.pinned_segments(), 4);
        for e in &plan.entries {
            assert_eq!(e.benefit_per_byte, 0.0, "{:?}", e.segment);
        }
    }

    #[test]
    fn report_entries_stay_in_disk_order() {
        let plan = plan_placement(
            [1, 2, 3, 4],
            &AffineStorageProfile::BUFFERED_FS,
            PAGE,
            u64::MAX,
        );
        let order: Vec<SegmentId> = plan.entries.iter().map(|e| e.segment).collect();
        assert_eq!(order, SegmentId::ALL);
    }

    #[test]
    fn tier_stats_delta() {
        let a = TierStats {
            pinned_reads: 10,
            page_hits: 5,
            page_faults: 2,
            spill_hits: 1,
            adaptor_reads: 2,
            adaptor_bytes: 8192,
        };
        let b = TierStats {
            pinned_reads: 15,
            page_hits: 9,
            page_faults: 2,
            spill_hits: 1,
            adaptor_reads: 2,
            adaptor_bytes: 8192,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.pinned_reads, 5);
        assert_eq!(d.page_hits, 4);
        assert_eq!(d.page_faults, 0);
        assert_eq!(TierStats::default().delta_since(&b).page_hits, 0);
    }

    #[test]
    fn counters_snapshot_round_trips() {
        let c = TierCounters::default();
        TierCounters::bump(&c.local().page_faults);
        TierCounters::bump(&c.local().page_faults);
        TierCounters::add(&c.local().adaptor_bytes, 4096);
        // Another thread's bump lands in its own stripe; the sum sees it.
        std::thread::scope(|scope| {
            scope.spawn(|| TierCounters::bump(&c.local().page_faults));
        });
        let s = c.snapshot();
        assert_eq!(s.page_faults, 3);
        assert_eq!(s.adaptor_bytes, 4096);
        assert_eq!(s.pinned_reads, 0);
    }
}
