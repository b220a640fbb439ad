//! The traced run: one thread replays a workload's generated requests and
//! writes through each layer's public functions, in the order a `Frontend`
//! worker and the writer make the calls — acquire the snapshot, look up
//! the cache, run the stages, take `top_k`, insert into the cache; commit,
//! publish and notify the cache every `queries_per_batch` requests.
//!
//! The replay makes four passes over the same requests, each on a freshly
//! opened store and cache so every pass starts from the same state:
//!
//! 1. **count** (untimed spans): the stages read the graph through a
//!    [`CountingView`]; gives the per-query work counts. For a disk
//!    workload it runs every query once more on a `DiskGraph` of its own,
//!    whose `TierStats` the store would not expose.
//! 2. **off**: the program's own `query_seeded_with`, no spans. Its time
//!    is `query.total_ms`, the stage times come from the `QueryStats` it
//!    returns, and the `top_k` call after it is timed alone. After each
//!    query, `LevelVisits::sample_into` is timed alone with the query's
//!    derived seed, so the walks and the stage they belong to are timed
//!    side by side.
//! 3. **on**: the queries one public stage function at a time
//!    ([`query_in_stages`]) with every call in a span; these spans are what
//!    the span file holds. Each query also runs once more on the same path
//!    without spans, timed whole, right before or right after the traced
//!    run (alternating), inside a `query.spans_off` span; the two give the
//!    tracing overhead on one code path at one moment.
//! 4. **reference**: `query_seeded_with` on the graph of the request's
//!    epoch, rebuilt from the update log; every answer of passes 1–3 must
//!    equal it. For a disk workload the same query is also timed on the
//!    (now warm) own `DiskGraph`, which gives the storage overhead.

use crate::check::EpochGraphs;
use crate::inputs::InputFiles;
use crate::report::Metrics;
use crate::serve::{new_cache, open_store};
use crate::spec::{Serving, StorageSpec, Workload};
use crate::stats::{mean, median, ms};
use crate::trace::{derived_config, query_in_stages, CountingView, Stage, Tracer};
use simpush::{AnswerCache, CacheKey, QueryWorkspace, SimPush, SupportTracer};
use simrank_common::NodeId;
use simrank_graph::{
    CsrGraph, DiskGraph, DiskGraphOptions, GraphStore, GraphUpdate, GraphView, TierStats,
};
use simrank_walks::{LevelVisits, WalkParams};
use std::path::Path;
use std::time::Instant;

type Top = Vec<(NodeId, f64)>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Count,
    Off,
    On,
}

/// Per-query work counts summed over the queries a pass ran.
#[derive(Debug, Default)]
struct Counts {
    queries: usize,
    num_walks: usize,
    level: usize,
    gu_entries: usize,
    attention: usize,
    hitting_edges: u64,
    reverse_edges: u64,
}

/// What one pass produced, and the scratch its queries run on.
#[derive(Default)]
struct Pass {
    ws: QueryWorkspace,
    visits: LevelVisits,
    walk_buf: Vec<NodeId>,
    answers: Vec<Top>,
    epochs: Vec<u64>,
    query_ms: Vec<f64>,
    /// Per-query `QueryStats` times of the off pass, ms: stage 1 (walks
    /// plus push), hitting, gamma, reverse push.
    stage_ms: [Vec<f64>; 4],
    topk_ms: Vec<f64>,
    walks_ms: Vec<f64>,
    /// The on pass's queries without spans: time, and the requests whose
    /// answer differed from the traced run's.
    spans_off_ms: Vec<f64>,
    spans_off_differs: Vec<u64>,
    churn: Vec<f64>,
    compaction_ms: Vec<f64>,
    compactions: u64,
    counts: Counts,
    cache: Option<simpush::CacheStats>,
    tracer: Tracer,
}

/// The reference pass.
#[derive(Debug, Default)]
struct Reference {
    tops: Vec<Top>,
    csr_ms: Vec<f64>,
    disk_tops: Vec<Top>,
    disk_ms: Vec<f64>,
}

/// Shared inputs of all passes.
pub struct Replay<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// Serving knobs (`top_k`).
    pub serving: &'a Serving,
    /// The engine.
    pub engine: &'a SimPush,
    /// Generated files.
    pub files: &'a InputFiles,
    /// The epoch-0 graph.
    pub base: &'a CsrGraph,
    /// The replayed request keys.
    pub keys: &'a [NodeId],
    /// The update log.
    pub updates: &'a [GraphUpdate],
}

/// Result of the traced run.
pub struct Traced {
    /// Requests replayed per pass.
    pub requests: usize,
    /// Replay answers that differ from the reference, described.
    pub mismatches: Vec<String>,
    /// The per-layer metrics the replay measures.
    pub metrics: Metrics,
}

impl Replay<'_> {
    fn own_disk(&self) -> Result<Option<DiskGraph>, String> {
        match self.w.storage {
            StorageSpec::Disk {
                pin_budget_bytes, ..
            } => DiskGraph::open_mmap(
                self.files.srgd(),
                DiskGraphOptions::with_budget(pin_budget_bytes),
            )
            .map(Some)
            .map_err(|e| format!("open SRGD: {e}")),
            StorageSpec::Ram => Ok(None),
        }
    }

    /// Runs the four passes and derives the per-layer metrics; the spans
    /// of the traced pass are written to `spans_path`.
    pub fn run(&self, spans_path: &Path) -> Result<Traced, String> {
        let disk = self.own_disk()?;
        let count = self.pass(Mode::Count, disk.as_ref())?;
        let tier = disk.as_ref().map(DiskGraph::stats);
        let off = self.pass(Mode::Off, None)?;
        let on = self.pass(Mode::On, None)?;
        let reference = self.reference(&count.epochs, disk.as_ref())?;
        on.tracer.write_jsonl(spans_path)?;

        let mut mismatches = Vec::new();
        for (name, pass) in [("count", &count), ("off", &off), ("on", &on)] {
            for (i, (got, want)) in pass.answers.iter().zip(&reference.tops).enumerate() {
                if got != want {
                    mismatches.push(format!(
                        "{name} pass, request {i} (node {}, epoch {}): answer differs from the reference",
                        self.keys[i], pass.epochs[i]
                    ));
                }
            }
        }
        for i in &on.spans_off_differs {
            mismatches.push(format!(
                "on pass, request {i}: the answer without spans differs from the traced one"
            ));
        }
        for (i, (got, want)) in reference.disk_tops.iter().zip(&reference.tops).enumerate() {
            if got != want {
                mismatches.push(format!(
                    "request {i}: DiskGraph answer differs from CsrGraph"
                ));
            }
        }

        let metrics = self.metrics(&count, &off, &on, tier, &reference);
        Ok(Traced {
            requests: self.keys.len(),
            mismatches,
            metrics,
        })
    }

    fn pass(&self, mode: Mode, own_disk: Option<&DiskGraph>) -> Result<Pass, String> {
        let (store, _) = open_store(self.w, self.files)?;
        let cache = new_cache(self.w);
        let cfg = self.engine.config();
        let top_k = self.serving.top_k;
        let fingerprint = cfg.fingerprint();
        let mut batches = self
            .w
            .writes
            .map(|ws| (self.updates.chunks(ws.batch_edges), ws.queries_per_batch));
        let mut out = Pass::default();
        let mut disk_ws = QueryWorkspace::new();
        for (i, &u) in self.keys.iter().enumerate() {
            let req = i as u64;
            let t = &mut out.tracer;
            let on = mode == Mode::On;
            if on {
                t.begin("request", req);
            }
            let snap = traced(on, t, "store.acquire", req, || store.snapshot());
            out.churn.push(snap.churn() as f64);
            let epoch = snap.epoch();
            let key = CacheKey {
                node: u,
                top_k,
                fingerprint,
            };
            let hit = cache
                .as_deref()
                .and_then(|c| traced(on, t, "answer_cache.lookup", req, || c.lookup(&key, epoch)));
            let top = match hit {
                Some(hit) => hit.top,
                None => {
                    let cfg_u = derived_config(cfg, u);
                    let (top, support) = match &cache {
                        Some(_) => {
                            let tracer = SupportTracer::new(&*snap);
                            let top = self.query(mode, &tracer, u, &cfg_u, &mut out, req);
                            (top, Some(tracer.take_support()))
                        }
                        None => (self.query(mode, &*snap, u, &cfg_u, &mut out, req), None),
                    };
                    if let Some(disk) = own_disk {
                        self.engine.query_seeded_with(disk, u, &mut disk_ws);
                    }
                    if let (Some(c), Some(support)) = (cache.as_deref(), support) {
                        let t = &mut out.tracer;
                        traced(on, t, "answer_cache.insert", req, || {
                            c.insert(key, epoch, support, top.clone())
                        });
                    }
                    top
                }
            };
            if on {
                out.tracer.end();
            }
            out.answers.push(top);
            out.epochs.push(epoch);
            if let Some((chunks, every)) = batches.as_mut() {
                if (i + 1).is_multiple_of(*every) {
                    let batch = chunks.next().ok_or("update log ran out in the replay")?;
                    self.commit(on, &mut out, req, &store, cache.as_deref(), batch);
                }
            }
        }
        out.compactions = store.compactions();
        out.cache = cache.map(|c| c.stats());
        Ok(out)
    }

    fn commit(
        &self,
        on: bool,
        out: &mut Pass,
        req: u64,
        store: &GraphStore,
        cache: Option<&AnswerCache>,
        batch: &[GraphUpdate],
    ) {
        let t = &mut out.tracer;
        if on {
            t.begin("store.commit", req);
        }
        traced(on, t, "store.apply", req, || store.apply(batch));
        let info = traced(on, t, "store.publish", req, || store.publish());
        if let Some(c) = cache {
            traced(on, t, "answer_cache.on_publish", req, || {
                c.on_publish(info.epoch, &info.touched)
            });
        }
        if on {
            t.end();
        }
        if info.compacted {
            out.compaction_ms.push(ms(info.compaction_time));
        }
    }

    /// Runs one query in `mode` and returns its top-k.
    fn query<G: GraphView>(
        &self,
        mode: Mode,
        g: &G,
        u: NodeId,
        cfg_u: &simpush::Config,
        out: &mut Pass,
        req: u64,
    ) -> Top {
        let k = self.serving.top_k;
        match mode {
            Mode::Off => {
                let t = Instant::now();
                let r = self.engine.query_seeded_with(g, u, &mut out.ws);
                out.query_ms.push(ms(t.elapsed()));
                let st = &r.stats;
                let stages = [
                    st.time_stage1(),
                    st.time_hitting,
                    st.time_gamma,
                    st.time_reverse_push,
                ];
                for (v, d) in out.stage_ms.iter_mut().zip(stages) {
                    v.push(ms(d));
                }
                let t = Instant::now();
                let top = r.top_k(k);
                out.topk_ms.push(ms(t.elapsed()));
                let t = Instant::now();
                out.visits.sample_into(
                    g,
                    u,
                    WalkParams::new(cfg_u.c),
                    cfg_u.num_detection_walks(),
                    cfg_u.l_star(),
                    cfg_u.seed,
                    &mut out.walk_buf,
                );
                out.walks_ms.push(ms(t.elapsed()));
                top
            }
            Mode::Count => {
                let view = CountingView::new(g);
                let mut edges = [0u64; 4];
                let (r, shape) = query_in_stages(&view, u, cfg_u, &mut out.ws, |stage, begin| {
                    let read = view.take();
                    if !begin {
                        edges[stage as usize] = read;
                    }
                });
                let c = &mut out.counts;
                c.queries += 1;
                c.num_walks += shape.num_walks;
                c.level += shape.level;
                c.gu_entries += shape.gu_entries;
                c.attention += shape.attention;
                c.hitting_edges += edges[Stage::Hitting as usize];
                c.reverse_edges += edges[Stage::ReversePush as usize];
                r.top_k(k)
            }
            Mode::On => {
                // The same query without spans, first on even requests and
                // second on odd ones, so neither side always runs warm.
                let spans_off = |out: &mut Pass| {
                    out.tracer.begin("query.spans_off", req);
                    let t = Instant::now();
                    let (r, _) = query_in_stages(g, u, cfg_u, &mut out.ws, |_, _| {});
                    let top = r.top_k(k);
                    out.spans_off_ms.push(ms(t.elapsed()));
                    out.tracer.end();
                    top
                };
                let first = req.is_multiple_of(2).then(|| spans_off(out));
                let Pass { tracer: t, ws, .. } = &mut *out;
                t.begin("query", req);
                let (r, _) = query_in_stages(g, u, cfg_u, ws, |stage, begin| {
                    if begin {
                        t.begin(stage.name(), req);
                    } else {
                        t.end();
                    }
                });
                let top = t.span("query.topk", req, || r.top_k(k));
                t.end();
                if first.unwrap_or_else(|| spans_off(out)) != top {
                    out.spans_off_differs.push(req);
                }
                top
            }
        }
    }

    /// Reference answers on the graph of each request's epoch, with the
    /// per-query time on that graph; for a disk workload also the answers
    /// and times of the same queries on the replay's own `DiskGraph`.
    fn reference(&self, epochs: &[u64], disk: Option<&DiskGraph>) -> Result<Reference, String> {
        let k = self.serving.top_k;
        let batch_edges = self.w.writes.map_or(1, |ws| ws.batch_edges);
        let mut graphs = EpochGraphs::new(self.base, self.updates, batch_edges);
        let mut ws = QueryWorkspace::new();
        let mut out = Reference::default();
        for (&u, &epoch) in self.keys.iter().zip(epochs) {
            let graph = graphs.at(epoch)?;
            let t = Instant::now();
            out.tops
                .push(self.engine.query_seeded_with(graph, u, &mut ws).top_k(k));
            out.csr_ms.push(ms(t.elapsed()));
            if let Some(d) = disk {
                let t = Instant::now();
                let r = self.engine.query_seeded_with(d, u, &mut ws);
                out.disk_ms.push(ms(t.elapsed()));
                out.disk_tops.push(r.top_k(k));
            }
        }
        Ok(out)
    }

    fn metrics(
        &self,
        count: &Pass,
        off: &Pass,
        on: &Pass,
        tier: Option<TierStats>,
        reference: &Reference,
    ) -> Metrics {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let span = |name: &str| med(&on.tracer.durations_ms(name));
        let c = &count.counts;
        let per_query = |x: f64| {
            if c.queries == 0 {
                0.0
            } else {
                x / c.queries as f64
            }
        };
        let requests = self.keys.len() as f64;

        // Stage times as the program's own query reports them; stage 1 is
        // split into the walks timed alone and the rest (the push), per
        // query, so both halves come from the same moment.
        let walks = med(&off.walks_ms);
        let push: Vec<f64> = off.stage_ms[0]
            .iter()
            .zip(&off.walks_ms)
            .map(|(stage1, walks)| stage1 - walks)
            .collect();
        let push = med(&push);
        let [_, hitting, gamma, reverse] = off.stage_ms.each_ref().map(|v| med(v));
        let stages = [walks, push, hitting, gamma, reverse];
        let total = med(&off.query_ms);
        // Tracing overhead: the stage path with spans against without.
        let staged_on = span("query");
        let staged_off = med(&on.spans_off_ms);
        let cache = on.cache.unwrap_or_default();
        let lookups = (cache.hits + cache.misses) as f64;
        let tier = tier.unwrap_or_default();
        let tier_q = |x: u64| per_query(x as f64);

        let mut m = Metrics::default();
        m.push(
            "storage.page_faults",
            tier_q(tier.page_faults),
            "count/query",
        );
        m.push("storage.page_hits", tier_q(tier.page_hits), "count/query");
        m.push(
            "storage.pinned_reads",
            tier_q(tier.pinned_reads),
            "count/query",
        );
        m.push("storage.spill_hits", tier_q(tier.spill_hits), "count/query");
        m.push(
            "storage.adaptor_bytes",
            tier_q(tier.adaptor_bytes),
            "bytes/query",
        );
        m.push(
            "storage.overhead_ms",
            if reference.disk_ms.is_empty() {
                0.0
            } else {
                med(&reference.disk_ms) - med(&reference.csr_ms)
            },
            "ms",
        );
        m.push("walks.sampling_ms", walks, "ms");
        m.push(
            "walks.num_walks",
            per_query(c.num_walks as f64),
            "count/query",
        );
        m.push("source_push.push_ms", push, "ms");
        m.push(
            "source_push.gu_entries",
            per_query(c.gu_entries as f64),
            "count/query",
        );
        m.push(
            "source_push.level",
            per_query(c.level as f64),
            "count/query",
        );
        m.push("hitting.ms", hitting, "ms");
        m.push(
            "hitting.attention_nodes",
            per_query(c.attention as f64),
            "count/query",
        );
        m.push(
            "hitting.edges_scanned",
            per_query(c.hitting_edges as f64),
            "count/query",
        );
        m.push("gamma.ms", gamma, "ms");
        m.push("reverse_push.ms", reverse, "ms");
        m.push(
            "reverse_push.edges_scanned",
            per_query(c.reverse_edges as f64),
            "count/query",
        );
        m.push("query.total_ms", total, "ms");
        m.push(
            "query.unattributed_ms",
            total - stages.iter().sum::<f64>(),
            "ms",
        );
        m.push("query.topk_ms", med(&off.topk_ms), "ms");
        m.push("store.acquire_us", 1e3 * span("store.acquire"), "us");
        m.push("store.apply_ms", span("store.apply"), "ms");
        m.push("store.publish_ms", span("store.publish"), "ms");
        m.push("store.compactions", on.compactions as f64, "count");
        m.push("store.compaction_ms", med(&on.compaction_ms), "ms");
        m.push("store.churn_mean", mean(&on.churn), "edges");
        m.push(
            "answer_cache.hit_rate",
            if lookups > 0.0 {
                cache.hits as f64 / lookups
            } else {
                0.0
            },
            "frac",
        );
        m.push(
            "answer_cache.invalidations",
            cache.invalidations as f64 / requests,
            "count/query",
        );
        m.push(
            "answer_cache.evictions",
            cache.evictions as f64 / requests,
            "count/query",
        );
        m.push(
            "answer_cache.lookup_us",
            1e3 * span("answer_cache.lookup"),
            "us",
        );
        m.push(
            "answer_cache.insert_us",
            1e3 * span("answer_cache.insert"),
            "us",
        );
        m.push(
            "trace.overhead_frac",
            if staged_off > 0.0 {
                staged_on / staged_off - 1.0
            } else {
                0.0
            },
            "frac",
        );
        m
    }
}

/// Runs `f`, inside a span when `on`.
fn traced<T>(on: bool, t: &mut Tracer, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if on {
        t.span(name, req, f)
    } else {
        f()
    }
}
