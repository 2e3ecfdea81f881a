//! The serving core: admission, scheduling, batching, execution.
//!
//! A [`Server`] owns an admission-controlled priority queue and a small
//! pool of scheduler workers. Clients — one per connection, created with
//! [`Server::client`] — submit raw JSONL request lines and receive JSONL
//! response lines over a channel; the `--stdio` and unix-socket fronts
//! ([`crate::run_stdio`], [`crate::run_socket`]) pump lines through this
//! type, and the integration tests drive it in-process.
//!
//! Scheduling: jobs run in `(priority desc, arrival asc)` order. When
//! the head of the queue is an `eval_pu` job the worker drains the run
//! of consecutive `eval_pu` jobs behind it (up to [`EVAL_BATCH_MAX`])
//! and evaluates them in order on its own thread, straight from the cost
//! model ([`pucost::evaluate`], [`pucost::best_dataflow`]).
//! `segment`/`codesign` jobs run singly on a `DsePool` sized by
//! [`ServeConfig::threads`], with deadlines and cancellation propagated
//! through [`RunCtl`]; codesign state is checkpointed server-side so a
//! restarted server resumes mid-flight searches bit-identically.

use crate::json::{obj, Json};
use crate::proto::{
    self, done_line, error_line, partial_line, progress_line, DataflowSel, Envelope, Request,
};
use crate::queue::{Admission, AdmitError, Queued};
use autoseg::codesign::{self, CodesignBudgets, CodesignRun, DesignPoint, Method};
use autoseg::{AutoSeg, RunCtl, RunStatus, StopReason};
use faultsim::rng::{fnv1a, FNV_OFFSET, FNV_PRIME};
use obs::HdrHist;
use pucost::{Dataflow, EnergyModel, LayerDesc, PuConfig, PuEval};
use spa_arch::HwBudget;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
// The serving layer owns per-request wall-clock deadlines and queue-wait
// metrics; wall time here shapes *when* work stops (typed Partial), never
// what any completed generation computed.
use std::time::{Duration, Instant};

/// Largest `eval_pu` run drained into one batch.
pub const EVAL_BATCH_MAX: usize = 32;

/// Default admission cap (`SERVE_MAX_INFLIGHT`).
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// Server configuration; [`ServeConfig::from_env`] reads the documented
/// environment knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// DSE pool threads of `segment` and `codesign` searches (0 =
    /// `DSE_THREADS`/auto).
    pub threads: usize,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Admission cap: queued + running jobs (`SERVE_MAX_INFLIGHT`).
    pub max_inflight: usize,
    /// Directory for server-side codesign checkpoints
    /// (`SERVE_CACHE_DIR`); `None` disables them.
    pub cache_dir: Option<PathBuf>,
    /// Codesign checkpoint cadence in generations.
    pub checkpoint_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            workers: 2,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            cache_dir: None,
            checkpoint_every: 1,
        }
    }
}

impl ServeConfig {
    /// Applies `SERVE_CACHE_DIR` and `SERVE_MAX_INFLIGHT` (unset, empty
    /// or unparsable values leave the defaults).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(dir) = std::env::var("SERVE_CACHE_DIR") {
            if !dir.is_empty() {
                cfg.cache_dir = Some(PathBuf::from(dir));
            }
        }
        if let Ok(v) = std::env::var("SERVE_MAX_INFLIGHT") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    cfg.max_inflight = n;
                }
            }
        }
        cfg
    }
}

/// One admitted unit of asynchronous work.
struct Job {
    conn: u64,
    id: u64,
    /// Server-minted trace id: echoed on every response line, set as the
    /// thread-local [`obs::current_trace`] while the job executes, and
    /// captured by flight-recorder notes and Chrome trace spans.
    trace: u64,
    request: Request,
    respond: Sender<String>,
    cancel: Arc<AtomicBool>,
    admitted_at: Instant,
    deadline: Option<Instant>,
}

/// Service counters surfaced by `status`.
#[derive(Debug, Default)]
struct Metrics {
    received: AtomicU64,
    completed: AtomicU64,
    partials: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    wait_ms_total: AtomicU64,
    /// Jobs answered `partial:"deadline"` — admitted work that blew its
    /// wall-clock budget (counted in `partials` too).
    deadline_misses: AtomicU64,
}

/// Request-grained latency telemetry, **always on** (independent of
/// `OBS_LEVEL`): the `metrics` verb must answer from a cold-configured
/// server, and tail-latency regressions should not depend on having
/// remembered to enable tracing. Two maps of fixed-precision quantile
/// histograms ([`HdrHist`], p50/p90/p99/p999 within ~3.1%):
///
/// * **stages** — where a request's wall time went (`parse_us`,
///   `queue_wait_us`, `batch_form_us`, `eval_us`, `search_us`,
///   `respond_us`);
/// * **verbs** — end-to-end latency per request kind (admission to
///   terminal response for queued work; submit to response for inline
///   verbs).
///
/// Values are microseconds. Each record is one short uncontended mutex
/// acquisition; when `OBS_LEVEL` is on the value is mirrored into the
/// `obs` collector ([`obs::record`]) so end-of-run reports show the
/// same quantiles. Timing here shapes only telemetry output, never any
/// search result (the `obs_equiv` invariant).
struct Telemetry {
    started: Instant,
    stages: Mutex<BTreeMap<&'static str, HdrHist>>,
    verbs: Mutex<BTreeMap<&'static str, HdrHist>>,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            started: Instant::now(),
            stages: Mutex::new(BTreeMap::new()),
            verbs: Mutex::new(BTreeMap::new()),
        }
    }

    fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn stage(&self, name: &'static str, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        lock(&self.stages).entry(name).or_default().record(us);
        obs::record(name, us);
    }

    fn verb(&self, name: &'static str, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        lock(&self.verbs).entry(name).or_default().record(us);
        obs::record(name, us);
    }
}

/// The telemetry key for a request's verb histogram.
fn verb_name(r: &Request) -> &'static str {
    match r {
        Request::EvalPu { .. } => "eval_pu",
        Request::Segment { .. } => "segment",
        Request::Codesign { .. } => "codesign",
        Request::Status => "status",
        Request::Metrics { .. } => "metrics",
        Request::Cancel { .. } => "cancel",
        Request::Shutdown => "shutdown",
    }
}

struct Inner {
    cfg: ServeConfig,
    queue: Mutex<Admission<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    /// Trace-id mint: one id per submitted request line, process-unique.
    trace_seq: AtomicU64,
    cancels: Mutex<BTreeMap<(u64, u64), Arc<AtomicBool>>>,
    m: Metrics,
    tel: Telemetry,
}

/// The long-running evaluation/DSE service.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// One client connection's request side. Its response lines arrive on
/// the channel [`Server::client`] returns with it.
pub struct Client {
    inner: Arc<Inner>,
    conn: u64,
    tx: Sender<String>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Server {
    /// Builds the server and starts the scheduler workers.
    pub fn start(cfg: ServeConfig) -> Self {
        // A panicking worker should leave a readable tail of what every
        // thread was doing: chain the flight-recorder dump in front of
        // the default hook. Idempotent across restarts in one process.
        obs::flight::install_panic_hook();
        if let Some(dir) = &cfg.cache_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        let inner = Arc::new(Inner {
            queue: Mutex::new(Admission::new(cfg.max_inflight)),
            cfg,
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            cancels: Mutex::new(BTreeMap::new()),
            m: Metrics::default(),
            tel: Telemetry::new(),
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    // Workers enter a per-job TraceGuard inside
                    // worker_loop/execute_*; the spawn itself predates any
                    // request. lint: allow(untraced-spawn)
                    .spawn(move || worker_loop(&inner))
                    .unwrap_or_else(|e| {
                        // Thread spawn failure at startup is fatal-by
                        // -construction for a server; surface it loudly.
                        panic!("cannot spawn serve worker: {e}") // lint: allow(panic-path)
                    })
            })
            .collect();
        Server { inner, workers }
    }

    /// Opens a new logical connection: the request handle and the
    /// channel its response lines arrive on. The channel closes once the
    /// handle is dropped and every request it admitted has answered.
    pub fn client(&self) -> (Client, Receiver<String>) {
        let conn = self.inner.conn_seq.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = std::sync::mpsc::channel();
        let client = Client {
            inner: Arc::clone(&self.inner),
            conn,
            tx,
        };
        (client, rx)
    }

    /// Initiates graceful shutdown: stops admitting work, answers every
    /// queued-but-unstarted job with a typed `partial` (`cancelled`),
    /// raises every in-flight search's cancel flag (they stop at the
    /// next generation boundary and checkpoint), and wakes the workers.
    pub fn shutdown(&self) {
        shutdown_inner(&self.inner);
    }

    /// `true` once shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the workers to drain. Call after [`Server::shutdown`].
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn shutdown_inner(inner: &Arc<Inner>) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    obs::add("serve.shutdowns", 1);
    let drained = {
        let mut q = lock(&inner.queue);
        q.close();
        q.drain()
    };
    for Queued { job, .. } in drained {
        inner.m.partials.fetch_add(1, Ordering::Relaxed);
        let _ = job
            .respond
            .send(partial_line(job.id, "cancelled", 0, 0, None, job.trace));
        lock(&inner.cancels).remove(&(job.conn, job.id));
    }
    for flag in lock(&inner.cancels).values() {
        flag.store(true, Ordering::SeqCst);
    }
    inner.cv.notify_all();
}

impl Client {
    /// Submits one raw request line. Every outcome — including parse
    /// errors — comes back as a response line on the client's channel.
    ///
    /// A trace id is minted here, before parsing: even a rejected line
    /// has an id linking its error response to the flight-recorder and
    /// Chrome-trace events its handling produced.
    pub fn submit(&self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let trace = self.inner.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let _t = obs::TraceGuard::enter(trace);
        self.inner.m.received.fetch_add(1, Ordering::Relaxed);
        obs::add("serve.requests", 1);
        let env = match proto::parse_request(line) {
            Ok(env) => env,
            Err(e) => {
                self.inner.m.errors.fetch_add(1, Ordering::Relaxed);
                obs::flight::note("serve.reject", trace, 0);
                self.inner.tel.stage("parse_us", t0.elapsed());
                let _ = self.tx.send(error_line(e.id, e.code, &e.message, trace));
                return;
            }
        };
        self.inner.tel.stage("parse_us", t0.elapsed());
        obs::flight::note("serve.request", trace, env.id);
        match env.request {
            Request::Status => {
                let _ = self
                    .tx
                    .send(done_line(env.id, status_json(&self.inner), trace));
                self.inner.m.completed.fetch_add(1, Ordering::Relaxed);
                self.inner.tel.verb("status", t0.elapsed());
            }
            Request::Metrics { flight } => {
                let _ = self
                    .tx
                    .send(done_line(env.id, metrics_json(&self.inner, flight), trace));
                self.inner.m.completed.fetch_add(1, Ordering::Relaxed);
                self.inner.tel.verb("metrics", t0.elapsed());
            }
            Request::Cancel { target } => {
                let found = lock(&self.inner.cancels)
                    .get(&(self.conn, target))
                    .map(|flag| flag.store(true, Ordering::SeqCst))
                    .is_some();
                let _ = self.tx.send(done_line(
                    env.id,
                    obj(vec![("cancelled", Json::from(found))]),
                    trace,
                ));
                self.inner.m.completed.fetch_add(1, Ordering::Relaxed);
                self.inner.tel.verb("cancel", t0.elapsed());
            }
            Request::Shutdown => {
                shutdown_inner(&self.inner);
                let _ = self.tx.send(done_line(
                    env.id,
                    obj(vec![("stopping", Json::from(true))]),
                    trace,
                ));
                self.inner.m.completed.fetch_add(1, Ordering::Relaxed);
                self.inner.tel.verb("shutdown", t0.elapsed());
            }
            _ => self.enqueue(env, trace),
        }
    }

    fn enqueue(&self, env: Envelope, trace: u64) {
        let Envelope {
            id,
            priority,
            deadline_ms,
            request,
        } = env;
        let cancel = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        let job = Job {
            conn: self.conn,
            id,
            trace,
            request,
            respond: self.tx.clone(),
            cancel: Arc::clone(&cancel),
            admitted_at: now,
            deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        };
        // The cancel entry must exist before the job becomes visible to
        // workers: an eval can pop, run and respond in microseconds,
        // and the worker's post-response removal has to
        // find the entry — inserting it after the push would leave a
        // stale entry behind, and a later `cancel` of the finished id
        // would answer `cancelled: true`. The same ordering covers a
        // concurrent shutdown drain.
        lock(&self.inner.cancels).insert((self.conn, id), cancel);
        let admitted = lock(&self.inner.queue).push(priority, job);
        match admitted {
            Ok(_) => self.inner.cv.notify_one(),
            Err(e) => {
                self.inner.m.errors.fetch_add(1, Ordering::Relaxed);
                obs::add("serve.rejected", 1);
                let code = match e {
                    AdmitError::Overloaded => "overloaded",
                    AdmitError::ShuttingDown => "shutting-down",
                };
                let _ = self
                    .tx
                    .send(error_line(Some(id), code, &e.to_string(), trace));
                lock(&self.inner.cancels).remove(&(self.conn, id));
            }
        }
    }
}

impl crate::Session for Client {
    fn submit_line(&self, line: &str) -> bool {
        self.submit(line);
        !self.inner.shutdown.load(Ordering::SeqCst)
    }
}

fn status_json(inner: &Inner) -> Json {
    let (depth, running, max_inflight, closed, high_water) = {
        let q = lock(&inner.queue);
        (
            q.depth(),
            q.running(),
            q.max_inflight(),
            q.is_closed(),
            q.high_water(),
        )
    };
    obj(vec![
        ("protocol", Json::from(proto::PROTOCOL_VERSION)),
        ("uptime_ms", Json::from(inner.tel.uptime_ms())),
        (
            "queue",
            obj(vec![
                ("depth", Json::from(depth)),
                ("running", Json::from(running)),
                ("max_inflight", Json::from(max_inflight)),
                ("closed", Json::from(closed)),
                ("high_water", Json::from(high_water)),
            ]),
        ),
        (
            "counters",
            obj(vec![
                ("received", Json::from(inner.m.received.load(Ordering::Relaxed))),
                ("completed", Json::from(inner.m.completed.load(Ordering::Relaxed))),
                ("partials", Json::from(inner.m.partials.load(Ordering::Relaxed))),
                ("errors", Json::from(inner.m.errors.load(Ordering::Relaxed))),
                ("batches", Json::from(inner.m.batches.load(Ordering::Relaxed))),
                (
                    "batched_jobs",
                    Json::from(inner.m.batched_jobs.load(Ordering::Relaxed)),
                ),
                (
                    "wait_ms_total",
                    Json::from(inner.m.wait_ms_total.load(Ordering::Relaxed)),
                ),
                (
                    "deadline_misses",
                    Json::from(inner.m.deadline_misses.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ])
}

/// One histogram's quantile row for the `metrics` verb (microseconds).
fn hdr_json(h: &HdrHist) -> Json {
    obj(vec![
        ("count", Json::from(h.count())),
        ("max", Json::from(h.max())),
        ("p50", Json::from(h.p50())),
        ("p90", Json::from(h.p90())),
        ("p99", Json::from(h.p99())),
        ("p999", Json::from(h.p999())),
    ])
}

fn hdr_map_json(map: &Mutex<BTreeMap<&'static str, HdrHist>>) -> Json {
    Json::Obj(
        lock(map)
            .iter()
            .map(|(k, h)| ((*k).to_string(), hdr_json(h)))
            .collect(),
    )
}

/// The `metrics` verb: request-grained telemetry, answered inline like
/// `status`. Deterministically rendered (sorted keys at every level);
/// with `flight`, embeds a live flight-recorder dump.
fn metrics_json(inner: &Inner, flight: bool) -> Json {
    let mut fields = vec![
        ("protocol", Json::from(proto::PROTOCOL_VERSION)),
        ("uptime_ms", Json::from(inner.tel.uptime_ms())),
        ("stages", hdr_map_json(&inner.tel.stages)),
        ("verbs", hdr_map_json(&inner.tel.verbs)),
        (
            "recorder",
            obj(vec![
                ("enabled", Json::from(obs::flight::flight_enabled())),
                ("sink_errors", Json::from(obs::sink_errors())),
            ]),
        ),
    ];
    if flight {
        fields.push(("flight", obs::flight::drain().to_json()));
    }
    obj(fields)
}

/// Scheduler worker: pop → (batch) execute → respond, until shutdown
/// has drained the queue.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (batch, formed) = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(first) = q.pop() {
                    let t0 = Instant::now();
                    let batch = collect_batch(&mut q, first);
                    break (batch, t0.elapsed());
                }
                if q.is_closed() {
                    return;
                }
                q = inner
                    .cv
                    .wait(q)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        inner.tel.stage("batch_form_us", formed);
        let n = batch.len();
        execute_batch(inner, batch);
        let mut q = lock(&inner.queue);
        for _ in 0..n {
            q.finish();
        }
        drop(q);
        inner.cv.notify_all();
    }
}

/// Starting from `first`, drains the run of batch-compatible `eval_pu`
/// jobs at the head of the queue. Non-eval jobs run alone.
fn collect_batch(q: &mut Admission<Job>, first: Queued<Job>) -> Vec<Job> {
    let mut batch = vec![first.job];
    if matches!(batch[0].request, Request::EvalPu { .. }) {
        while batch.len() < EVAL_BATCH_MAX {
            match q.pop_if(|j| matches!(j.job.request, Request::EvalPu { .. })) {
                Some(next) => batch.push(next.job),
                None => break,
            }
        }
    }
    batch
}

fn record_wait(inner: &Inner, job: &Job) {
    let waited = job.admitted_at.elapsed();
    let ms = u64::try_from(waited.as_millis()).unwrap_or(u64::MAX);
    inner.m.wait_ms_total.fetch_add(ms, Ordering::Relaxed);
    inner.tel.stage("queue_wait_us", waited);
    obs::record("serve.wait_ms", ms);
}

/// `Some(remaining)` when a deadline exists and has not yet expired.
fn remaining(job: &Job) -> Option<Result<Duration, ()>> {
    let d = job.deadline?;
    let now = Instant::now();
    if now >= d {
        Some(Err(()))
    } else {
        Some(Ok(d - now))
    }
}

fn execute_batch(inner: &Arc<Inner>, batch: Vec<Job>) {
    let _span = obs::span!("serve.batch", jobs = batch.len());
    if batch.len() > 1 {
        inner.m.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .m
            .batched_jobs
            .fetch_add(pucost::util::u64_of(batch.len()), Ordering::Relaxed);
        obs::record("serve.batch_size", pucost::util::u64_of(batch.len()));
    }
    // Partition: jobs still eligible to run vs. already cancelled/expired
    // (answered typed without any work).
    let mut evals: Vec<(Job, LayerDesc, PuConfig, DataflowSel)> = Vec::new();
    for job in batch {
        record_wait(inner, &job);
        if job.cancel.load(Ordering::SeqCst) {
            inner.m.partials.fetch_add(1, Ordering::Relaxed);
            let _ = job
                .respond
                .send(partial_line(job.id, "cancelled", 0, 0, None, job.trace));
            lock(&inner.cancels).remove(&(job.conn, job.id));
            continue;
        }
        if matches!(remaining(&job), Some(Err(()))) {
            inner.m.partials.fetch_add(1, Ordering::Relaxed);
            inner.m.deadline_misses.fetch_add(1, Ordering::Relaxed);
            let _ = job
                .respond
                .send(partial_line(job.id, "deadline", 0, 0, None, job.trace));
            lock(&inner.cancels).remove(&(job.conn, job.id));
            continue;
        }
        if let Request::EvalPu {
            layer,
            pu,
            dataflow,
        } = job.request
        {
            evals.push((job, layer, pu, dataflow));
        } else {
            run_search_job(inner, job);
        }
    }
    let Some((first, ..)) = evals.first() else {
        return;
    };
    // The batch shares one trace context: the first job's id.
    let _t = obs::TraceGuard::enter(first.trace);
    obs::flight::note(
        "serve.batch",
        first.trace,
        pucost::util::u64_of(evals.len()),
    );
    let em = EnergyModel::tsmc28();
    let eval_t0 = Instant::now();
    let results: Vec<(Dataflow, PuEval)> = evals
        .iter()
        .map(|(_, layer, pu, sel)| match sel {
            DataflowSel::Fixed(df) => (*df, pucost::evaluate(layer, pu, *df, &em)),
            DataflowSel::Best => pucost::best_dataflow(layer, pu, &em),
        })
        .collect();
    inner.tel.stage("eval_us", eval_t0.elapsed());
    let respond_t0 = Instant::now();
    for ((job, ..), (df, eval)) in evals.into_iter().zip(results) {
        // Telemetry first: a client that reads `done` and at once asks
        // for `metrics` must find its own request counted.
        inner.m.completed.fetch_add(1, Ordering::Relaxed);
        inner.tel.verb("eval_pu", job.admitted_at.elapsed());
        let _ = job
            .respond
            .send(done_line(job.id, eval_json(df, &eval), job.trace));
        lock(&inner.cancels).remove(&(job.conn, job.id));
    }
    inner.tel.stage("respond_us", respond_t0.elapsed());
}

fn eval_json(df: Dataflow, e: &PuEval) -> Json {
    let label = match df {
        Dataflow::WeightStationary => "WS",
        Dataflow::OutputStationary => "OS",
    };
    obj(vec![
        ("dataflow", Json::from(label)),
        ("cycles", Json::from(e.cycles)),
        ("seconds", Json::from(e.seconds)),
        ("macs", Json::from(e.macs)),
        ("utilization", Json::from(e.utilization)),
        ("buffers_ok", Json::from(e.buffers_ok)),
        ("energy_pj", Json::from(e.energy.total_pj())),
    ])
}

fn stop_reason_label(r: StopReason) -> &'static str {
    match r {
        StopReason::Deadline => "deadline",
        StopReason::GenBudget => "generation budget",
        StopReason::Cancelled => "cancelled",
    }
}

/// Executes one `segment` or `codesign` job (deadline + cancellation via
/// [`RunCtl`]) and sends its response(s).
fn run_search_job(inner: &Arc<Inner>, job: Job) {
    let _t = obs::TraceGuard::enter(job.trace);
    let mut ctl = RunCtl::none().cancel_flag(Arc::clone(&job.cancel));
    match remaining(&job) {
        Some(Ok(left)) => ctl = ctl.deadline(left),
        // Expired between execute_batch's check and here: answer the
        // typed deadline partial instead of running unbounded.
        Some(Err(())) => {
            inner.m.partials.fetch_add(1, Ordering::Relaxed);
            inner.m.deadline_misses.fetch_add(1, Ordering::Relaxed);
            let _ = job
                .respond
                .send(partial_line(job.id, "deadline", 0, 0, None, job.trace));
            lock(&inner.cancels).remove(&(job.conn, job.id));
            return;
        }
        None => {}
    }
    let _ = job.respond.send(progress_line(job.id, "running", job.trace));
    let search_t0 = Instant::now();
    let outcome = match &job.request {
        Request::Segment { model, budget } => run_segment(inner, model, budget, &ctl),
        Request::Codesign {
            model,
            budget,
            method,
            hw_iters,
            seg_iters,
            seed,
        } => run_codesign(inner, model, budget, method, *hw_iters, *seg_iters, *seed, ctl),
        // Eval/status/cancel/shutdown never reach this function.
        _ => Err(("bad-request", "not a search request".to_string())),
    };
    inner.tel.stage("search_us", search_t0.elapsed());
    let respond_t0 = Instant::now();
    // Telemetry before the send, as in `execute_batch`.
    let line = match outcome {
        Ok((RunStatus::Complete, result)) => {
            inner.m.completed.fetch_add(1, Ordering::Relaxed);
            done_line(job.id, result, job.trace)
        }
        Ok((RunStatus::Partial(p), result)) => {
            if matches!(p.reason, StopReason::Deadline) {
                inner.m.deadline_misses.fetch_add(1, Ordering::Relaxed);
            }
            inner.m.partials.fetch_add(1, Ordering::Relaxed);
            partial_line(
                job.id,
                stop_reason_label(p.reason),
                p.completed_gens,
                p.planned_gens,
                Some(result),
                job.trace,
            )
        }
        Err((code, message)) => {
            inner.m.errors.fetch_add(1, Ordering::Relaxed);
            error_line(Some(job.id), code, &message, job.trace)
        }
    };
    inner.tel.verb(verb_name(&job.request), job.admitted_at.elapsed());
    let _ = job.respond.send(line);
    inner.tel.stage("respond_us", respond_t0.elapsed());
    lock(&inner.cancels).remove(&(job.conn, job.id));
}

type SearchResult = Result<(RunStatus, Json), (&'static str, String)>;

fn run_segment(inner: &Arc<Inner>, model: &str, budget: &str, ctl: &RunCtl) -> SearchResult {
    let graph = nnmodel::zoo::by_name(model)
        .ok_or_else(|| ("unknown-model", format!("no zoo model named {model:?}")))?;
    let budget = HwBudget::by_name(budget)
        .ok_or_else(|| ("unknown-budget", format!("no budget preset named {budget:?}")))?;
    let engine = AutoSeg::new(budget).threads(inner.cfg.threads);
    let anytime = engine
        .run_ctl(&graph, ctl)
        .map_err(|e| ("search-failed", e.to_string()))?;
    let result = match &anytime.outcome {
        None => obj(vec![("feasible", Json::from(false))]),
        Some(o) => {
            let r = &o.report;
            let mut h = fnv1a(&r.cycles.to_le_bytes());
            h ^= fnv1a(&r.seconds.to_bits().to_le_bytes());
            h ^= fnv1a(&r.dram_bytes.to_le_bytes());
            obj(vec![
                ("feasible", Json::from(true)),
                ("explored", Json::from(o.explored)),
                ("segments", Json::from(r.per_segment.len())),
                ("seconds", Json::from(r.seconds)),
                ("cycles", Json::from(r.cycles)),
                ("dram_bytes", Json::from(r.dram_bytes)),
                ("utilization", Json::from(r.utilization)),
                ("energy_pj", Json::from(r.energy.total_pj())),
                ("digest", Json::from(format!("{h:016x}"))),
            ])
        }
    };
    Ok((anytime.status, result))
}

#[allow(clippy::too_many_arguments)]
fn run_codesign(
    inner: &Arc<Inner>,
    model: &str,
    budget: &str,
    method: &str,
    hw_iters: usize,
    seg_iters: usize,
    seed: u64,
    mut ctl: RunCtl,
) -> SearchResult {
    let graph = nnmodel::zoo::by_name(model)
        .ok_or_else(|| ("unknown-model", format!("no zoo model named {model:?}")))?;
    let hw = HwBudget::by_name(budget)
        .ok_or_else(|| ("unknown-budget", format!("no budget preset named {budget:?}")))?;
    let method = Method::parse(method)
        .ok_or_else(|| ("unknown-method", format!("no codesign method named {method:?}")))?;
    let budgets = CodesignBudgets {
        hw_iters,
        seg_iters,
        seed,
        threads: inner.cfg.threads,
    };
    // Server-side checkpointing: in-flight searches survive restarts.
    // The checkpoint file is keyed by the full request identity, so a
    // restarted server resumes exactly the search the client asked for
    // (run_codesign re-validates the recorded config).
    let ckpt = inner.cfg.cache_dir.as_ref().map(|dir| {
        dir.join(format!(
            "codesign-{}-{}-{}-{hw_iters}-{seg_iters}-{seed}.ckpt",
            graph.name(),
            hw.name,
            method.label()
        ))
    });
    if let Some(path) = &ckpt {
        ctl = ctl.checkpoint(path, inner.cfg.checkpoint_every);
        if path.exists() {
            ctl = ctl.resume(path);
        }
    }
    let run: CodesignRun = codesign::run_codesign(&graph, &hw, &budgets, method, &ctl)
        .map_err(|e| ("search-failed", e.to_string()))?;
    if run.status.is_complete() {
        if let Some(path) = &ckpt {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok((run.status, codesign_json(&run.points)))
}

fn codesign_json(points: &[DesignPoint]) -> Json {
    let mut best_lat = f64::INFINITY;
    let mut best_energy = f64::INFINITY;
    let mut h = FNV_OFFSET;
    for p in points {
        best_lat = best_lat.min(p.latency_s);
        best_energy = best_energy.min(p.energy_pj);
        h ^= fnv1a(&p.latency_s.to_bits().to_le_bytes());
        h = h.wrapping_mul(FNV_PRIME);
        h ^= fnv1a(&p.energy_pj.to_bits().to_le_bytes());
        h = h.wrapping_mul(FNV_PRIME);
        h ^= fnv1a(p.method.as_bytes());
        h ^= fnv1a(&pucost::util::u64_of(p.shape.0).to_le_bytes());
        h ^= fnv1a(&pucost::util::u64_of(p.shape.1).to_le_bytes());
    }
    obj(vec![
        ("points", Json::from(points.len())),
        (
            "best_latency_s",
            if best_lat.is_finite() {
                Json::from(best_lat)
            } else {
                Json::Null
            },
        ),
        (
            "best_energy_pj",
            if best_energy.is_finite() {
                Json::from(best_energy)
            } else {
                Json::Null
            },
        ),
        ("digest", Json::from(format!("{h:016x}"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_line(id: u64, k: usize, extra: &str) -> String {
        format!(
            "{{\"v\":1,\"id\":{id},\"req\":\"eval_pu\",\"dataflow\":\"best\",\
             \"layer\":{{\"in_c\":{},\"in_h\":14,\"in_w\":14,\"out_c\":{},\"out_h\":14,\"out_w\":14,\
             \"kernel\":3,\"stride\":1,\"groups\":1,\"is_fc\":false}},\
             \"pu\":{{\"rows\":16,\"cols\":16}}{extra}}}",
            8 * k,
            16 * k
        )
    }

    fn recv_for(answers: &Receiver<String>, id: u64, kinds: &[&str]) -> Json {
        for _ in 0..200 {
            if let Ok(line) = answers.recv_timeout(Duration::from_secs(5)) {
                let v = crate::json::parse(&line).expect("response is json");
                if v.get("id").and_then(Json::as_u64) == Some(id)
                    && v.get("kind")
                        .and_then(Json::as_str)
                        .is_some_and(|k| kinds.contains(&k))
                {
                    return v;
                }
            } else {
                break;
            }
        }
        panic!("no response for id {id} of kinds {kinds:?}");
    }

    #[test]
    fn eval_requests_complete_and_hit_cache() {
        let server = Server::start(ServeConfig {
            workers: 1,
            threads: 1,
            ..ServeConfig::default()
        });
        let (client, answers) = server.client();
        client.submit(&eval_line(1, 1, ""));
        let done = recv_for(&answers, 1, &["done"]);
        let cycles = done.get("result").and_then(|r| r.get("cycles")).and_then(Json::as_u64);
        assert!(cycles.is_some_and(|c| c > 0));
        // Same request again: same bits.
        client.submit(&eval_line(2, 1, ""));
        let again = recv_for(&answers, 2, &["done"]);
        assert_eq!(done.get("result"), again.get("result"));
        server.shutdown();
        server.join();
    }

    #[test]
    fn malformed_and_unknown_requests_get_typed_errors() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (client, answers) = server.client();
        client.submit("this is not json");
        let e = answers.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert!(e.contains("\"kind\":\"error\"") && e.contains("bad-json"), "{e}");
        client.submit(r#"{"v":1,"id":9,"req":"segment","model":"no_such_model","budget":"eyeriss"}"#);
        let v = recv_for(&answers, 9, &["error"]);
        assert_eq!(v.get("code").and_then(Json::as_str), Some("unknown-model"));
        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_answers_queued_jobs_and_rejects_new_ones() {
        // Zero workers would hang; use one worker but occupy it is racy —
        // instead close before submitting the async job.
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let (client, answers) = server.client();
        server.shutdown();
        client.submit(&eval_line(5, 1, ""));
        let v = recv_for(&answers, 5, &["error"]);
        assert_eq!(v.get("code").and_then(Json::as_str), Some("shutting-down"));
        server.join();
    }

    #[test]
    fn expired_deadline_yields_typed_partial() {
        let server = Server::start(ServeConfig {
            workers: 1,
            threads: 1,
            ..ServeConfig::default()
        });
        let (client, answers) = server.client();
        // deadline_ms 0: expired by the time the worker sees it.
        client.submit(&eval_line(4, 2, ",\"deadline_ms\":0"));
        let v = recv_for(&answers, 4, &["partial"]);
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("deadline"));
        server.shutdown();
        server.join();
    }
}
