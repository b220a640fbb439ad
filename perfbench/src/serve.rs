//! The measured serving run: set-up, a closed-loop phase and an open-loop
//! phase through the public path `GraphStore`/`DiskGraph` → `Frontend` →
//! `SimPush`, with static tuning (no controller, no deadline).

use crate::inputs::InputFiles;
use crate::spec::{Serving, StorageSpec, Workload};
use crate::stats::{ms, StealMarks};
use simpush::{
    AnswerCache, AnswerCacheOptions, Frontend, FrontendOptions, FrontendResponse, FrontendStats,
    QueryOutcome, SimPush, Ticket,
};
use simrank_common::NodeId;
use simrank_graph::{io, DiskGraph, DiskGraphOptions, GraphStore, GraphUpdate};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long a closed-loop client waits for queue space before counting
/// the request as refused.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A started serving stack.
pub struct Server {
    /// The store the workers read.
    pub store: Arc<GraphStore>,
    /// The answer cache, if the workload has one.
    pub cache: Option<Arc<AnswerCache>>,
    /// The admission frontend.
    pub frontend: Frontend,
}

/// Opens (disk) or loads (RAM) the generated graph file into a store.
/// Returns the store and the time of the open/load call alone.
pub fn open_store(w: &Workload, files: &InputFiles) -> Result<(GraphStore, Duration), String> {
    let t = Instant::now();
    Ok(match w.storage {
        StorageSpec::Disk {
            pin_budget_bytes, ..
        } => {
            let disk = DiskGraph::open_mmap(
                files.srgd(),
                DiskGraphOptions::with_budget(pin_budget_bytes),
            )
            .map_err(|e| format!("open SRGD: {e}"))?;
            let open = t.elapsed();
            (GraphStore::open_disk(disk), open)
        }
        StorageSpec::Ram => {
            let g = io::load_binary(files.srg1()).map_err(|e| format!("load SRG1: {e}"))?;
            let open = t.elapsed();
            // Compaction only ever runs on a store that takes writes.
            let store = match w.writes {
                Some(ws) => GraphStore::with_compaction_threshold(g, ws.compaction_threshold),
                None => GraphStore::new(g),
            };
            (store, open)
        }
    })
}

/// The workload's answer cache, if it has one.
pub fn new_cache(w: &Workload) -> Option<Arc<AnswerCache>> {
    w.cache.map(|c| {
        Arc::new(AnswerCache::new(AnswerCacheOptions {
            capacity: c.capacity,
            max_stale_epochs: c.max_stale_epochs,
            ..AnswerCacheOptions::default()
        }))
    })
}

/// Opens the generated graph file and starts a frontend over it. Returns
/// the server, the whole set-up time and the time of the open/load alone.
pub fn setup(
    w: &Workload,
    serving: &Serving,
    engine: &SimPush,
    files: &InputFiles,
) -> Result<(Server, Duration, Duration), String> {
    let t0 = Instant::now();
    let (store, open) = open_store(w, files)?;
    let store = Arc::new(store);
    let cache = new_cache(w);
    let mut opts = FrontendOptions::builder()
        .workers(serving.workers)
        .queue_capacity(serving.queue_capacity)
        .top_k(serving.top_k);
    if let Some(c) = &cache {
        opts = opts.cache(c.clone());
    }
    let frontend = Frontend::start(engine, store.clone(), opts.build());
    Ok((
        Server {
            store,
            cache,
            frontend,
        },
        t0.elapsed(),
        open,
    ))
}

/// Commits the generated update batches in order, each followed by the
/// cache's `on_publish`, and times every commit. After `k` commits the
/// store is at epoch `k`.
pub struct Writer<'a> {
    store: &'a GraphStore,
    cache: Option<&'a AnswerCache>,
    batches: std::slice::Chunks<'a, GraphUpdate>,
    /// Milliseconds from `commit` to the end of `on_publish`, per batch.
    pub commit_ms: Vec<f64>,
}

impl<'a> Writer<'a> {
    /// A writer over `updates`, cut into batches of `batch_edges`.
    pub fn new(
        store: &'a GraphStore,
        cache: Option<&'a AnswerCache>,
        updates: &'a [GraphUpdate],
        batch_edges: usize,
    ) -> Self {
        Self {
            store,
            cache,
            batches: updates.chunks(batch_edges),
            commit_ms: Vec::new(),
        }
    }

    /// Commits the next batch.
    pub fn commit(&mut self) -> Result<(), String> {
        let batch = self
            .batches
            .next()
            .ok_or("the generated update log ran out; raise writes.max_batches")?;
        let t = Instant::now();
        let (_, info) = self.store.commit(batch);
        if let Some(cache) = self.cache {
            cache.on_publish(info.epoch, &info.touched);
        }
        self.commit_ms.push(ms(t.elapsed()));
        Ok(())
    }
}

/// One answered request, as the replay check needs it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Query node.
    pub node: NodeId,
    /// Epoch the frontend reports: the snapshot's for a computed answer,
    /// the one the entry was computed at for a cache hit.
    pub epoch: u64,
    /// The epoch the request was provably served at: set when the store's
    /// epoch read before the request was sent equals the one read after
    /// its answer was seen, so no publish fell in between.
    pub served_at: Option<u64>,
    /// The served top-k.
    pub top: Vec<(NodeId, f64)>,
}

impl Answer {
    /// The epoch the answer must match: where it was served when that is
    /// known, which also catches a cache hit gone stale since it was
    /// computed; else the epoch the frontend reports.
    pub fn check_epoch(&self) -> u64 {
        self.served_at.unwrap_or(self.epoch)
    }
}

/// The store's epoch when a request is sent: the lock-free hint the
/// workers read, which never runs ahead of a publish. A worker serving the
/// request sees at least this epoch.
fn epoch_before(store: &GraphStore) -> u64 {
    store.version_hint()
}

/// The epoch a request was served at, if no publish fell between
/// `before` (see [`epoch_before`]) and now, read after its answer was seen:
/// the published epoch, which no worker's snapshot runs ahead of.
fn served_at(store: &GraphStore, before: u64) -> Option<u64> {
    (store.epoch() == before).then_some(before)
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Requests the phase tried to send.
    pub attempted: usize,
    /// Requests answered.
    pub answered: usize,
    /// Per-request latency in ms; `INFINITY` for a refused or failed one.
    pub latency_ms: Vec<f64>,
    /// When each request of `latency_ms` was due (open loop) or sent
    /// (closed loop), s since the phase started.
    pub sent_s: Vec<f64>,
    /// Queue wait per answered request, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Service time per answered request, ms.
    pub service_ms: Vec<f64>,
    /// How late the generator sent each request (open loop only), ms.
    pub late_ms: Vec<f64>,
    /// When each answered request finished, s since the phase started
    /// (closed loop only).
    pub done_s: Vec<f64>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// The answers, for the replay check.
    pub answers: Vec<Answer>,
    /// Hypervisor steal readings taken during the phase.
    pub steal: StealMarks,
}

impl Phase {
    /// Records an answered request, sent at `sent_s`, with its latency.
    fn answered(
        &mut self,
        sent_s: f64,
        r: FrontendResponse,
        latency: Duration,
        served_at: Option<u64>,
    ) {
        self.answered += 1;
        self.sent_s.push(sent_s);
        self.latency_ms.push(ms(latency));
        self.queue_wait_ms.push(ms(r.queue_wait));
        self.service_ms.push(ms(r.service));
        self.answers.push(Answer {
            node: r.node,
            epoch: r.epoch,
            served_at,
            top: r.top,
        });
    }

    /// Records a request that was refused or not answered: it counts as
    /// over any latency limit.
    fn unanswered(&mut self, sent_s: f64) {
        self.sent_s.push(sent_s);
        self.latency_ms.push(f64::INFINITY);
    }

    /// Whole windows of `window_s` seconds the phase lasted.
    pub fn windows(&self, window_s: f64) -> usize {
        (self.elapsed.as_secs_f64() / window_s).floor() as usize
    }

    /// Answered requests per whole window of `window_s` seconds, in time
    /// order.
    pub fn window_rates(&self, window_s: f64) -> Vec<f64> {
        let mut counts = vec![0usize; self.windows(window_s)];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut((t / window_s) as usize) {
                *c += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / window_s).collect()
    }

    /// Answered requests per second over the phase's quiet windows (see
    /// [`StealMarks::quiet`]) of `window_s` seconds. `None` if the phase is
    /// shorter than one window.
    pub fn throughput(&self, window_s: f64) -> Option<f64> {
        let rates = self.window_rates(window_s);
        let quiet = self.steal.quiet(window_s, rates.len(), 50.0);
        let kept: Vec<f64> = rates
            .iter()
            .zip(&quiet)
            .filter(|(_, &q)| q)
            .map(|(&r, _)| r)
            .collect();
        (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

/// Open-loop latency of one request: how late the generator sent it after
/// its due time, plus the frontend's queue wait and service. Timing from
/// the due time (not the send) is what makes a stall visible in the
/// requests that were due while it lasted.
pub fn open_loop_latency(
    due: Instant,
    sent: Instant,
    queue_wait: Duration,
    service: Duration,
) -> Duration {
    sent.saturating_duration_since(due) + queue_wait + service
}

/// Closed loop: `clients` threads each send a request, wait for it, and
/// send the next, until `duration` has passed. Client `c` takes keys
/// `c, c + clients, …` (wrapping). When `writer` is given, the calling
/// thread commits one batch per `every` completed requests.
pub fn closed_loop(
    frontend: &Frontend,
    store: &GraphStore,
    keys: &[NodeId],
    clients: usize,
    duration: Duration,
    writer: Option<(&mut Writer<'_>, usize)>,
) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + duration;
    let done = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<()>();
    let every = writer.as_ref().map_or(usize::MAX, |w| w.1);
    let mut phases = Vec::new();
    let mut write_result = Ok(());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tx = tx.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut i = c;
                    while Instant::now() < deadline {
                        if c == 0 {
                            phase.steal.tick(start.elapsed().as_secs_f64());
                        }
                        let key = keys[i % keys.len()];
                        i += clients;
                        phase.attempted += 1;
                        let before = epoch_before(store);
                        let t = Instant::now();
                        let sent_s = t.duration_since(start).as_secs_f64();
                        match frontend.submit_timeout(key, SUBMIT_TIMEOUT) {
                            // Closed-loop latency is the client's own
                            // round trip.
                            Ok(ticket) => match ticket.wait() {
                                QueryOutcome::Answered(r) => {
                                    let latency = t.elapsed();
                                    let at = served_at(store, before);
                                    phase.answered(sent_s, r, latency, at);
                                    phase.done_s.push(start.elapsed().as_secs_f64());
                                }
                                _ => phase.unanswered(sent_s),
                            },
                            Err(_) => phase.unanswered(sent_s),
                        }
                        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if n.is_multiple_of(every) {
                            // The writer may already have stopped on an
                            // error; a lost wake-up is harmless then.
                            let _ = tx.send(());
                        }
                    }
                    phase
                })
            })
            .collect();
        drop(tx);
        if let Some((w, _)) = writer {
            for () in rx.iter() {
                if let Err(e) = w.commit() {
                    write_result = Err(e);
                    break;
                }
            }
        }
        for h in handles {
            phases.push(h.join().expect("closed-loop client panicked"));
        }
    });
    write_result?;
    let mut all = Phase {
        elapsed: start.elapsed(),
        ..Phase::default()
    };
    // Client 0 took the steal readings.
    all.steal = std::mem::take(&mut phases[0].steal);
    for p in phases {
        all.attempted += p.attempted;
        all.answered += p.answered;
        all.latency_ms.extend(p.latency_ms);
        all.sent_s.extend(p.sent_s);
        all.queue_wait_ms.extend(p.queue_wait_ms);
        all.service_ms.extend(p.service_ms);
        all.done_s.extend(p.done_s);
        all.answers.extend(p.answers);
    }
    Ok(all)
}

/// Open loop: one generator thread sends `keys[i]` at `start + i / rate`
/// whether or not earlier requests are done, never blocking on the queue
/// (a full queue refuses the request). After every `every`-th request it
/// calls `between` — the writer's commit in a churn workload — on the same
/// thread, so a slow commit delays the requests due behind it.
///
/// Before each `between`, the requests answered so far are known to have
/// been served before it, at the epoch they were sent at when no other
/// publish fell in between; a request still open then is not.
pub fn open_loop(
    frontend: &Frontend,
    store: &GraphStore,
    keys: &[NodeId],
    rate_qps: f64,
    every: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let start = Instant::now() + Duration::from_millis(1);
    let mut phase = Phase::default();
    let mut pending = Vec::with_capacity(keys.len());
    // Pending requests from this index on are not yet known to be done.
    let mut open_from = 0;
    for (i, &key) in keys.iter().enumerate() {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        phase
            .steal
            .tick(sent.saturating_duration_since(start).as_secs_f64());
        phase.attempted += 1;
        phase.late_ms.push(ms(sent.saturating_duration_since(due)));
        let before = epoch_before(store);
        pending.push((due, sent, frontend.try_submit(key).ok(), before, None));
        if (i + 1).is_multiple_of(every) {
            for (.., ticket, before, at) in &mut pending[open_from..] {
                if ticket.as_ref().is_some_and(Ticket::is_done) {
                    *at = served_at(store, *before);
                }
            }
            open_from = pending.len();
            between()?;
        }
    }
    // The generator is the phase's only writer, so the requests sent after
    // the last `between` meet no publish.
    for (.., before, at) in &mut pending[open_from..] {
        *at = served_at(store, *before);
    }
    for (due, sent, ticket, _, at) in pending {
        let due_s = due.duration_since(start).as_secs_f64();
        match ticket.map(Ticket::wait) {
            Some(QueryOutcome::Answered(r)) => {
                let latency = open_loop_latency(due, sent, r.queue_wait, r.service);
                phase.answered(due_s, r, latency, at);
            }
            _ => phase.unanswered(due_s),
        }
    }
    phase.elapsed = start.elapsed();
    Ok(phase)
}

/// Everything the serving run measured.
pub struct Served {
    /// Whole set-up time of each repetition, s.
    pub setup_s: Vec<f64>,
    /// Graph open/load time of each repetition, ms.
    pub open_ms: Vec<f64>,
    /// The closed-loop phase.
    pub closed: Phase,
    /// The open-loop phase, if the workload has one.
    pub open: Option<Phase>,
    /// Commit latencies of both phases, ms.
    pub commit_ms: Vec<f64>,
    /// Frontend counters at shutdown.
    pub stats: FrontendStats,
    /// `VmHWM` after the open-loop phase (after the closed loop where
    /// there is none), MB.
    pub peak_rss_mb: f64,
}

impl Served {
    /// The phase latency is taken from: the open loop where there is one,
    /// else the closed loop.
    pub fn latency_phase(&self) -> &Phase {
        self.open.as_ref().unwrap_or(&self.closed)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sets up `serving.setup_repeats` times (keeping the last stack), warms
/// it up, then runs the open-loop phase (if any) and the closed-loop phase
/// over `seconds` in all.
#[allow(clippy::too_many_arguments)]
pub fn run(
    w: &Workload,
    serving: &Serving,
    engine: &SimPush,
    files: &InputFiles,
    closed_keys: &[NodeId],
    open_keys: &[NodeId],
    updates: &[GraphUpdate],
    seconds: f64,
) -> Result<Served, String> {
    let mut setup_s = Vec::new();
    let mut open_ms = Vec::new();
    let mut server = None;
    for _ in 0..serving.setup_repeats {
        // Shut the previous stack down before timing the next one.
        drop(server.take());
        let (s, total, open) = setup(w, serving, engine, files)?;
        setup_s.push(total.as_secs_f64());
        open_ms.push(ms(open));
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let mut writer = w.writes.map(|ws| {
        Writer::new(
            &server.store,
            server.cache.as_deref(),
            updates,
            ws.batch_edges,
        )
    });
    let every = w.writes.map_or(usize::MAX, |ws| ws.queries_per_batch);
    // Warm-up: no writes, nothing recorded; the open-loop phase then starts
    // at epoch 0 with the same commit schedule on every run.
    let warmup = &closed_keys[closed_keys.len() - w.warmup_requests..];
    for chunk in warmup.chunks(serving.workers) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|&k| server.frontend.submit_timeout(k, SUBMIT_TIMEOUT))
            .collect();
        for t in tickets.into_iter().flatten() {
            t.wait();
        }
    }
    let open = match w.open {
        Some(o) => Some(open_loop(
            &server.frontend,
            &server.store,
            open_keys,
            o.rate_qps,
            every,
            &mut || writer.as_mut().map_or(Ok(()), Writer::commit),
        )?),
        None => None,
    };
    // The open loop's work is fixed by the seed, while the closed loop's
    // grows with throughput, and on a disk workload every page it touches
    // stays resident: taken after it, memory would follow speed.
    let open_rss = open.as_ref().map(|_| peak_rss_mb()).transpose()?;
    let closed = closed_loop(
        &server.frontend,
        &server.store,
        &closed_keys[..closed_keys.len() - w.warmup_requests],
        serving.workers,
        Duration::from_secs_f64(seconds * w.closed_share),
        writer.as_mut().map(|wr| (wr, every)),
    )?;
    let peak_rss_mb = match open_rss {
        Some(rss) => rss,
        None => peak_rss_mb()?,
    };
    let commit_ms = writer.map(|wr| wr.commit_ms).unwrap_or_default();
    let stats = server.frontend.shutdown();
    Ok(Served {
        setup_s,
        open_ms,
        closed,
        open,
        commit_ms,
        stats,
        peak_rss_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpush::Config;
    use simrank_graph::gen;

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(7);
        let lat = open_loop_latency(
            due,
            sent,
            Duration::from_millis(2),
            Duration::from_millis(3),
        );
        assert_eq!(lat, Duration::from_millis(12));
        // Sending early (never happens, but must not underflow) adds nothing.
        assert_eq!(
            open_loop_latency(sent, due, Duration::ZERO, Duration::from_millis(1)),
            Duration::from_millis(1)
        );
    }

    fn stack(delay: Duration) -> (Frontend, Arc<GraphStore>) {
        let store = Arc::new(GraphStore::new(gen::gnm(60, 240, 3)));
        let opts = FrontendOptions::builder()
            .workers(1)
            .queue_capacity(256)
            .synthetic_service_delay(delay)
            .build();
        let frontend = Frontend::start(&SimPush::new(Config::new(0.1)), store.clone(), opts);
        (frontend, store)
    }

    #[test]
    fn a_stalled_generator_shows_in_the_requests_due_behind_it() {
        let (frontend, store) = stack(Duration::ZERO);
        let keys: Vec<NodeId> = (0..40).collect();
        let mut calls = 0;
        // One 60 ms stall after request 10; requests are due every 2 ms.
        let phase = open_loop(&frontend, &store, &keys, 500.0, 10, &mut || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(phase.answered, 40);
        // Requests 10..40 were due during the stall: each was sent late,
        // and the lateness is part of its latency.
        assert!(phase.late_ms[10] >= 50.0, "late {:?}", &phase.late_ms[..12]);
        assert!(phase.latency_ms[10] >= phase.late_ms[10]);
        assert!(phase.late_ms[..10].iter().all(|&l| l < 50.0));
        frontend.shutdown();
    }

    #[test]
    fn a_stalled_worker_shows_in_later_requests() {
        // One worker taking 10 ms per request, requests due every 2 ms:
        // the queue grows, so each request waits for all before it.
        let (frontend, store) = stack(Duration::from_millis(10));
        let keys: Vec<NodeId> = (0..20).collect();
        let phase = open_loop(&frontend, &store, &keys, 500.0, usize::MAX, &mut || Ok(())).unwrap();
        assert_eq!(phase.answered, 20);
        let (first, last) = (phase.latency_ms[0], phase.latency_ms[19]);
        assert!(last > first + 100.0, "first {first} ms, last {last} ms");
        assert!(phase.queue_wait_ms[19] > 100.0);
        frontend.shutdown();
    }

    /// Commits one new edge per call.
    fn committer(store: &GraphStore) -> impl FnMut() -> Result<(), String> + '_ {
        let mut next = 0;
        move || {
            next += 1;
            store.commit(&[GraphUpdate::Insert(next, 59 - next)]);
            Ok(())
        }
    }

    #[test]
    fn a_request_is_pinned_to_an_epoch_only_when_no_publish_can_fall_in_its_service() {
        // Requests due every 20 ms, answered in microseconds, a commit
        // after every 4th: the first three of each block are done long
        // before the commit that ends it, so each was served at the epoch
        // it was sent at.
        let (frontend, store) = stack(Duration::ZERO);
        let keys: Vec<NodeId> = (0..12).collect();
        let phase = open_loop(&frontend, &store, &keys, 50.0, 4, &mut committer(&store)).unwrap();
        assert_eq!(store.epoch(), 3);
        for (i, a) in phase.answers.iter().enumerate() {
            if i % 4 < 3 {
                assert_eq!(a.served_at, Some(i as u64 / 4), "request {i}");
                assert_eq!(a.epoch, i as u64 / 4, "request {i}");
            }
        }
        frontend.shutdown();

        // A worker taking 30 ms per request, a commit after every 3rd
        // request due 1 ms apart: none of the first six is done when its
        // block's commit starts, so none is pinned to an epoch and each is
        // checked at the epoch its response reports. The two sent after
        // the last commit meet no publish.
        let (frontend, store) = stack(Duration::from_millis(30));
        let keys: Vec<NodeId> = (0..8).collect();
        let phase = open_loop(&frontend, &store, &keys, 1000.0, 3, &mut committer(&store)).unwrap();
        let pinned: Vec<_> = phase.answers.iter().map(|a| a.served_at).collect();
        assert_eq!(
            pinned,
            [None, None, None, None, None, None, Some(2), Some(2)]
        );
        assert!(phase.answers.iter().all(|a| a.check_epoch() == a.epoch));
        frontend.shutdown();
    }
}
