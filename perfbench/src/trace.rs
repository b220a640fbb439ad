//! Spans, a counting `GraphView`, and the SimPush pipeline driven stage
//! by stage through the engine's public stage functions, so each stage
//! can get its own span.
//!
//! Spans are recorded here, in the benchmark's own code, around calls into
//! each layer; the program itself is not instrumented.

use simpush::gamma::compute_gammas_with;
use simpush::hitting::attention_hitting_with;
use simpush::reverse_push::reverse_push_with;
use simpush::source_push::source_push_with;
use simpush::{Config, QueryResult, QueryStats, QueryWorkspace};
use simrank_common::seeds::splitmix64;
use simrank_common::NodeId;
use simrank_graph::GraphView;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it and the
/// request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`store.acquire`, `hitting`, …).
    pub name: &'static str,
    /// Request (or commit) id shared by all spans of one request.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread. Spans nest: `begin` opens a
/// child of the innermost open span, `end` closes the innermost one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// All recorded spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span, in ns: its duration minus the part of its
    /// interval that its children cover (children of one span may not
    /// overlap on one thread, but the union is taken regardless).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| s.ns() - covered_ns(&mut kids, s.start_ns, s.end_ns))
            .collect()
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"request\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A `GraphView` that counts the neighbour entries read through it. It
/// returns the wrapped view's slices untouched, so answers do not change;
/// it is only used in an untimed pass, so it never inflates a span.
#[derive(Debug)]
pub struct CountingView<'g, G: GraphView> {
    inner: &'g G,
    edges: Cell<u64>,
}

impl<'g, G: GraphView> CountingView<'g, G> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: &'g G) -> Self {
        Self {
            inner,
            edges: Cell::new(0),
        }
    }

    /// Neighbour entries read since the last call; resets the count.
    pub fn take(&self) -> u64 {
        self.edges.replace(0)
    }
}

impl<G: GraphView> GraphView for CountingView<'_, G> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.inner.out_neighbors(v);
        self.edges.set(self.edges.get() + s.len() as u64);
        s
    }

    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.inner.in_neighbors(v);
        self.edges.set(self.edges.get() + s.len() as u64);
        s
    }
}

/// The engine configuration `SimPush::query_seeded` derives for query
/// node `u` (the detection-walk seed mixed with the node id). The replay
/// checks its answers against `query_seeded`, so a drift here fails the
/// run instead of going unnoticed.
pub fn derived_config(cfg: &Config, u: NodeId) -> Config {
    let mut state = cfg.seed ^ ((u as u64) << 24);
    Config {
        seed: splitmix64(&mut state),
        ..cfg.clone()
    }
}

/// The four SimPush stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: detection walks plus the level-wise push from `u`.
    SourcePush,
    /// Stage 2a: hitting probabilities inside `Gu`.
    Hitting,
    /// Stage 2b: the `γ` recursion.
    Gamma,
    /// Stage 3: reverse push plus the dense score copy.
    ReversePush,
}

impl Stage {
    /// Span name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SourcePush => "source_push",
            Stage::Hitting => "hitting",
            Stage::Gamma => "gamma",
            Stage::ReversePush => "reverse_push",
        }
    }
}

/// Shape of one query's source graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// Detection walks sampled.
    pub num_walks: usize,
    /// Final level `L` of `Gu`.
    pub level: usize,
    /// `(level, node)` entries of `Gu`.
    pub gu_entries: usize,
    /// Attention nodes.
    pub attention: usize,
}

/// Runs one query the way `SimPush::query_with` does, one public stage
/// function at a time, calling `mark(stage, true)` before and
/// `mark(stage, false)` after each stage. `cfg` must already be the
/// query's derived configuration (see [`derived_config`]).
pub fn query_in_stages<G: GraphView>(
    g: &G,
    u: NodeId,
    cfg: &Config,
    ws: &mut QueryWorkspace,
    mut mark: impl FnMut(Stage, bool),
) -> (QueryResult, Shape) {
    mark(Stage::SourcePush, true);
    let sp = source_push_with(g, u, cfg, &mut ws.source);
    mark(Stage::SourcePush, false);
    let gu = sp.gu;
    let shape = Shape {
        num_walks: sp.num_walks,
        level: gu.max_level(),
        gu_entries: gu.total_entries(),
        attention: gu.num_attention(),
    };

    mark(Stage::Hitting, true);
    ws.att.build_into(&gu);
    attention_hitting_with(g, &gu, &ws.att, cfg.sqrt_c(), &mut ws.hitting);
    mark(Stage::Hitting, false);

    mark(Stage::Gamma, true);
    compute_gammas_with(&ws.att, ws.hitting.att_hit(), gu.max_level(), &mut ws.gamma);
    mark(Stage::Gamma, false);

    mark(Stage::ReversePush, true);
    reverse_push_with(g, &gu, &ws.att, ws.gamma.gammas(), cfg, &mut ws.reverse);
    let mut scores: Vec<f64> = (0..g.num_nodes())
        .map(|v| ws.reverse.scores().get(v))
        .collect();
    scores[u as usize] = 1.0;
    mark(Stage::ReversePush, false);

    ws.recycle(gu);
    let result = QueryResult {
        query: u,
        scores,
        stats: QueryStats::default(),
    };
    (result, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpush::SimPush;
    use simrank_graph::gen;

    #[test]
    fn counting_view_returns_the_same_slices_and_answers() {
        let g = gen::copying_web(400, 5, 0.7, 11);
        let view = CountingView::new(&g);
        let mut expected = 0;
        for v in 0..400 {
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v));
            expected += g.in_degree(v) + g.out_degree(v);
        }
        assert_eq!(view.take(), expected as u64);
        assert_eq!(view.take(), 0, "take resets the count");

        let engine = SimPush::new(Config::new(0.05));
        for u in [0, 17, 399] {
            let plain = engine.query_seeded(&g, u);
            let wrapped = engine.query_seeded(&view, u);
            assert_eq!(plain.scores, wrapped.scores, "u={u}");
        }
        assert!(view.take() > 0);
    }

    #[test]
    fn stage_by_stage_equals_query_seeded_bit_for_bit() {
        let g = gen::rmat(9, 4000, gen::RmatParams::high_skew(), 5);
        let engine = SimPush::new(Config::new(0.05));
        let mut ws = QueryWorkspace::new();
        for u in [1, 64, 300] {
            let mut marks = Vec::new();
            let cfg = derived_config(engine.config(), u);
            let (staged, shape) =
                query_in_stages(&g, u, &cfg, &mut ws, |s, begin| marks.push((s, begin)));
            let direct = engine.query_seeded(&g, u);
            assert_eq!(staged.scores, direct.scores, "u={u}");
            assert_eq!(staged.top_k(10), direct.top_k(10));
            assert_eq!(shape.num_walks, direct.stats.num_walks);
            assert_eq!(shape.gu_entries, direct.stats.gu_total_entries);
            assert_eq!(marks.len(), 8);
            assert_eq!(marks[0], (Stage::SourcePush, true));
            assert_eq!(marks[7], (Stage::ReversePush, false));
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let mut t = Tracer::new();
        t.begin("request", 0);
        t.span("a", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.begin("b", 0);
        t.span("c", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        t.end();
        let spans = t.spans();
        let selfs = t.self_ns();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        // request = a + b + its own gaps; b = c + its own gap.
        assert_eq!(selfs[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert_eq!(selfs[2], spans[2].ns() - spans[3].ns());
        assert_eq!(
            selfs[3],
            spans[3].ns(),
            "a leaf's self time is its duration"
        );
        let mut overlapping = vec![(5, 9), (0, 3), (2, 6)];
        assert_eq!(covered_ns(&mut overlapping, 1, 8), 7);
    }
}
