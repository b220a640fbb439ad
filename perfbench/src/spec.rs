//! The benchmark's declared data: metric names and units from
//! `BENCHMARK.json`, and every fixed size, rate and limit of the workloads
//! from `perfbench/spec.json`. Nothing here is calibrated at run time.

use simrank_bench::json::{self, Json};
use std::path::{Path, PathBuf};

/// Directory of this package (`perfbench/`), fixed at build time so the
/// benchmark finds its data whatever the working directory.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn count(j: &Json, key: &str) -> Result<usize, String> {
    let v = num(j, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("field `{key}` must be a whole number, got {v}"));
    }
    Ok(v as usize)
}

fn text<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn list<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(j, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

/// One declared metric: its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics printed with `--trace 0`.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics printed with `--trace 1`.
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// Reads `BENCHMARK.json` at the repository root.
    pub fn load() -> Result<Self, String> {
        let root = read_json(&package_dir().join("../BENCHMARK.json"))?;
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(&root, key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text(m, "name")?.to_string(),
                        unit: text(m, "unit")?.to_string(),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The graph a workload serves.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// `gen::copying_web(nodes, out_degree, copy_prob, seed)`.
    CopyingWeb {
        /// Node count.
        nodes: usize,
        /// Out-links per page.
        out_degree: usize,
        /// Probability of copying a link.
        copy_prob: f64,
    },
    /// `gen::rmat(scale, edges, RmatParams::high_skew(), seed)`.
    RmatHighSkew {
        /// `log2` of the node count.
        scale: u32,
        /// Distinct edges.
        edges: usize,
    },
}

impl GraphSpec {
    /// Node count of the generated graph.
    pub fn nodes(&self) -> usize {
        match *self {
            GraphSpec::CopyingWeb { nodes, .. } => nodes,
            GraphSpec::RmatHighSkew { scale, .. } => 1 << scale,
        }
    }
}

/// Where the served graph lives.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageSpec {
    /// An `SRGD` file opened with `DiskGraph::open_mmap` under a pin
    /// budget and served by `GraphStore::open_disk`.
    Disk {
        /// Page size the file is written with.
        page_bytes: u32,
        /// RAM budget for pinned segments.
        pin_budget_bytes: u64,
    },
    /// An `SRG1` file loaded into a RAM `GraphStore`.
    Ram,
}

/// Distribution of query keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over all nodes.
    Uniform,
    /// `ZipfKeys` with this exponent.
    Zipf(f64),
}

/// The answer cache in front of the workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Entry capacity.
    pub capacity: usize,
    /// Staleness bound (`0`: exact answers only).
    pub max_stale_epochs: u64,
}

/// The write stream beside the reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteSpec {
    /// Edge updates per committed batch.
    pub batch_edges: usize,
    /// Churn at which a publish compacts the store.
    pub compaction_threshold: usize,
    /// The generator commits one batch after this many requests.
    pub queries_per_batch: usize,
    /// Share of removals in the generated update stream.
    pub remove_fraction: f64,
    /// Batches generated up front; running out is an error.
    pub max_batches: usize,
}

/// The open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSpec {
    /// Fixed offered rate, requests per second.
    pub rate_qps: f64,
    /// The p99 latency limit this workload is judged against.
    pub p99_limit_ms: f64,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The graph.
    pub graph: GraphSpec,
    /// Seed of the graph generator. The graph is part of the workload, so
    /// it does not vary with `--seed`; the keys and updates do.
    pub graph_seed: u64,
    /// Where it is served from.
    pub storage: StorageSpec,
    /// SimPush error budget.
    pub epsilon: f64,
    /// Key distribution.
    pub keys: KeyDist,
    /// Answer cache, if any.
    pub cache: Option<CacheSpec>,
    /// Write stream, if any.
    pub writes: Option<WriteSpec>,
    /// Unmeasured closed-loop requests sent before the phases, so caches
    /// fill and workspaces grow first.
    pub warmup_requests: usize,
    /// Share of `--seconds` given to the closed-loop phase; the rest goes
    /// to the open-loop phase.
    pub closed_share: f64,
    /// Open-loop phase; `None` when the workload is closed-loop only.
    pub open: Option<OpenSpec>,
    /// How many served answers the replay check recomputes, picked by the
    /// seed; `None` (`null` in `spec.json`): every answer.
    pub check_sample: Option<usize>,
    /// How many requests the traced replay runs.
    pub trace_requests: usize,
}

/// Serving knobs shared by every workload (static tuning).
#[derive(Debug, Clone, PartialEq)]
pub struct Serving {
    /// `Frontend` workers.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Answers keep this many nodes.
    pub top_k: usize,
    /// Set-up is repeated this many times; the median is reported.
    pub setup_repeats: usize,
    /// Length of the windows that throughput is counted in and that are
    /// judged quiet or not by hypervisor steal.
    pub window_s: f64,
}

/// One row of the layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Module name.
    pub layer: String,
    /// Per-layer metrics of this module.
    pub metrics: Vec<String>,
    /// End-to-end metrics this layer should move, with the workloads
    /// they should move on.
    pub moves: Vec<(String, Vec<String>)>,
    /// Workloads on which this layer should leave every metric flat.
    pub flat_on: Vec<String>,
}

/// Everything `perfbench/spec.json` holds.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Shared serving knobs.
    pub serving: Serving,
    /// The workloads, in declaration order.
    pub workloads: Vec<Workload>,
    /// The layer table.
    pub layers: Vec<Layer>,
}

impl Spec {
    /// Reads `perfbench/spec.json`.
    pub fn load() -> Result<Self, String> {
        Self::parse(&read_json(&package_dir().join("spec.json"))?)
    }

    fn parse(root: &Json) -> Result<Self, String> {
        let s = field(root, "serving")?;
        let serving = Serving {
            workers: count(s, "workers")?,
            queue_capacity: count(s, "queue_capacity")?,
            top_k: count(s, "top_k")?,
            setup_repeats: count(s, "setup_repeats")?.max(1),
            window_s: num(s, "window_s")?,
        };
        let workloads = list(root, "workloads")?
            .iter()
            .map(|w| parse_workload(w).map_err(|e| format!("workload: {e}")))
            .collect::<Result<_, _>>()?;
        let names = |j: &Json, key: &str| -> Result<Vec<String>, String> {
            list(j, key)?
                .iter()
                .map(|m| m.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("`{key}` must list strings"))
        };
        let layers = list(root, "layers")?
            .iter()
            .map(|l| {
                Ok(Layer {
                    layer: text(l, "layer")?.to_string(),
                    metrics: names(l, "metrics")?,
                    moves: list(l, "moves")?
                        .iter()
                        .map(|m| Ok((text(m, "metric")?.to_string(), names(m, "on")?)))
                        .collect::<Result<_, String>>()?,
                    flat_on: names(l, "flat_on")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            serving,
            workloads,
            layers,
        })
    }

    /// Checks that every workload `declared` is defined here, that the
    /// layer table lists exactly the per-layer metrics `declared`, each
    /// once, and that what each layer should move names declared
    /// end-to-end metrics and workloads defined here.
    pub fn check_layers(&self, declared: &Declared) -> Result<(), String> {
        if let Some(w) = declared
            .workloads
            .iter()
            .find(|w| self.workload(w).is_err())
        {
            return Err(format!(
                "BENCHMARK.json's workload `{w}` is not in spec.json"
            ));
        }
        for l in &self.layers {
            for (metric, _) in &l.moves {
                if !declared.end_to_end.iter().any(|m| &m.name == metric) {
                    return Err(format!(
                        "layer {}: `{metric}` is not an end-to-end metric",
                        l.layer
                    ));
                }
            }
            let mut on = l.moves.iter().flat_map(|(_, on)| on).chain(&l.flat_on);
            if let Some(w) = on.find(|w| self.workload(w).is_err()) {
                return Err(format!("layer {}: `{w}` is not a workload", l.layer));
            }
        }
        let mut in_table: Vec<&str> = self
            .layers
            .iter()
            .flat_map(|l| l.metrics.iter().map(String::as_str))
            .collect();
        let mut per_layer: Vec<&str> = declared.per_layer.iter().map(|m| m.name.as_str()).collect();
        in_table.sort_unstable();
        per_layer.sort_unstable();
        if in_table == per_layer {
            Ok(())
        } else {
            Err(format!(
                "spec.json's layer table {in_table:?} differs from BENCHMARK.json's per_layer {per_layer:?}"
            ))
        }
    }

    /// The workload called `name`.
    pub fn workload(&self, name: &str) -> Result<&Workload, String> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

fn parse_workload(w: &Json) -> Result<Workload, String> {
    let name = text(w, "name")?.to_string();
    let g = field(w, "graph")?;
    let graph = match text(g, "family")? {
        "copying_web" => GraphSpec::CopyingWeb {
            nodes: count(g, "nodes")?,
            out_degree: count(g, "out_degree")?,
            copy_prob: num(g, "copy_prob")?,
        },
        "rmat_high_skew" => GraphSpec::RmatHighSkew {
            scale: count(g, "scale")? as u32,
            edges: count(g, "edges")?,
        },
        other => return Err(format!("unknown graph family `{other}`")),
    };
    let st = field(w, "storage")?;
    let storage = match text(st, "format")? {
        "srgd" => StorageSpec::Disk {
            page_bytes: count(st, "page_bytes")? as u32,
            pin_budget_bytes: count(st, "pin_budget_bytes")? as u64,
        },
        "srg1" => StorageSpec::Ram,
        other => return Err(format!("unknown storage format `{other}`")),
    };
    let k = field(w, "keys")?;
    let keys = match text(k, "dist")? {
        "uniform" => KeyDist::Uniform,
        "zipf" => KeyDist::Zipf(num(k, "exponent")?),
        other => return Err(format!("unknown key distribution `{other}`")),
    };
    let cache = match w.get("cache") {
        None | Some(Json::Null) => None,
        Some(c) => Some(CacheSpec {
            capacity: count(c, "capacity")?,
            max_stale_epochs: count(c, "max_stale_epochs")? as u64,
        }),
    };
    let writes = match w.get("writes") {
        None | Some(Json::Null) => None,
        Some(c) => Some(WriteSpec {
            batch_edges: count(c, "batch_edges")?,
            compaction_threshold: count(c, "compaction_threshold")?,
            queries_per_batch: count(c, "queries_per_batch")?.max(1),
            remove_fraction: num(c, "remove_fraction")?,
            max_batches: count(c, "max_batches")?,
        }),
    };
    let closed = field(w, "closed_loop")?;
    let open = match w.get("open_loop") {
        None | Some(Json::Null) => None,
        Some(o) => Some(OpenSpec {
            rate_qps: num(o, "rate_qps")?,
            p99_limit_ms: num(o, "p99_limit_ms")?,
        }),
    };
    let closed_share = num(closed, "share_of_run")?;
    if !(0.0..=1.0).contains(&closed_share) || (open.is_none() && closed_share != 1.0) {
        return Err(format!("{name}: bad closed-loop share {closed_share}"));
    }
    Ok(Workload {
        name,
        graph,
        graph_seed: count(g, "seed")? as u64,
        storage,
        epsilon: num(w, "epsilon")?,
        keys,
        cache,
        writes,
        warmup_requests: count(w, "warmup_requests")?,
        closed_share,
        open,
        check_sample: match field(w, "check_sample")? {
            Json::Null => None,
            _ => Some(count(w, "check_sample")?),
        },
        trace_requests: count(w, "trace_requests")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defines_the_declared_workloads_and_layers() {
        let spec = Spec::load().expect("spec.json parses");
        let declared = Declared::load().expect("BENCHMARK.json parses");
        // Every declared workload is defined; every per-layer metric sits
        // in exactly one row of the layer table.
        spec.check_layers(&declared).unwrap();
        let mut bad = declared.clone();
        bad.workloads.push("no_such_workload".into());
        assert!(spec.check_layers(&bad).is_err());
        // What a layer should move names declared metrics and workloads.
        let mut bad = spec.clone();
        bad.layers[0].moves.push(("latency_p99_ms".into(), vec![]));
        assert!(bad.check_layers(&declared).is_err());
        let mut bad = spec.clone();
        bad.layers[0].flat_on.push("no_such_workload".into());
        assert!(bad.check_layers(&declared).is_err());
    }
}
