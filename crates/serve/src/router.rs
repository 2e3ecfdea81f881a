//! The `spa-fleet` router: consistent-hash request fan-out over N
//! `spa-serve` shards speaking the JSONL v1 protocol.
//!
//! One [`ShardLink`] per shard is shared by every client session. A
//! link owns the upstream unix-socket connection, a reader thread, and
//! a pending table keyed by router-minted upstream ids; sessions rewrite
//! the client's `id` to an upstream id before forwarding and the reader
//! rewrites it back (adding a `"shard":N` field) when responses arrive.
//!
//! Failure handling is built on the idempotence of the work verbs:
//! every routable request is a deterministic function of its fields, so
//! re-sending after a shard crash recomputes (or resumes — codesigns
//! checkpoint server-side under a key derived from the same fields) the
//! identical result. The rules:
//!
//! * A dropped connection marks every pending request unsent; the
//!   reader re-sends the full pending table on reconnect.
//! * A `partial` with reason `cancelled` that the *client* did not
//!   cancel is a shard-shutdown artifact, not a terminal: the request
//!   stays pending and is re-sent to the restarted shard.
//! * Shard-origin `overloaded` / `shutting-down` errors are treated the
//!   same way — the router retries instead of surfacing them.
//! * Everything else is forwarded verbatim (id rewritten) exactly once.
//!
//! Admission is a fleet-global [`ShedPolicy`]: beyond the soft cap only
//! priority > 0 work is forwarded, beyond the hard cap nothing is, and
//! shed requests get a typed `overloaded` error — backpressure, never a
//! hang. Router-local verbs (`status`, `metrics`, `flush`, `shutdown`)
//! are answered inline; `cancel` is forwarded to the shard that owns
//! the target.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::json::{obj, parse, Json};
use crate::proto::{self, done_line, error_line, partial_line, Request, PROTOCOL_VERSION};
use crate::queue::{ShedDecision, ShedPolicy};
use crate::ring::{route_key, Ring};

/// How long a reader sleeps between reconnect attempts to a down shard.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Poisoned-lock recovery, same policy as `server.rs`: the guarded
/// state is counters and tables that stay coherent under panic.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard socket paths, index = shard id on the ring.
    pub sockets: Vec<PathBuf>,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Soft shed watermark (`FLEET_MAX_INFLIGHT`); hard cap is 2×.
    pub soft_cap: usize,
}

/// Liveness and restart info for one shard process, maintained by the
/// fleet supervisor and reported in the router's `status` response.
#[derive(Debug, Clone, Default)]
pub struct ProcInfo {
    /// Current child pid (0 while down).
    pub pid: u64,
    /// How many times the supervisor respawned this shard.
    pub restarts: u64,
}

#[derive(Default)]
struct Counters {
    received: AtomicU64,
    forwarded: AtomicU64,
    retried: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    shed_soft: AtomicU64,
    shed_hard: AtomicU64,
    reconnects: AtomicU64,
}

/// Per-session state shared between the session handle and the shard
/// readers that resolve its requests (every pending request holds it).
struct SessionShared {
    tx: Sender<String>,
    /// Live client id → (shard, upstream id) for cancel routing.
    routes: Mutex<BTreeMap<u64, (usize, u64)>>,
}

/// One forwarded-and-unresolved request.
struct Pending {
    /// The rewritten wire line (upstream id), ready to (re-)send.
    line: String,
    /// Whether the line is on the wire for the current connection.
    sent: bool,
    /// The client asked to cancel this — `partial:"cancelled"` is then a
    /// real terminal, not a restart artifact.
    client_cancelled: bool,
    /// The client-chosen id to restore on responses.
    orig_id: u64,
    session: Arc<SessionShared>,
}

struct LinkState {
    /// Writer half of the upstream connection (None while down).
    stream: Option<UnixStream>,
    pending: BTreeMap<u64, Pending>,
}

struct ShardLink {
    idx: usize,
    sock: PathBuf,
    state: Mutex<LinkState>,
    up: AtomicBool,
}

/// The fleet router. Create with [`Router::start`], mint per-client
/// [`FleetSession`]s with [`Router::session`].
pub struct Router {
    ring: Ring,
    links: Vec<Arc<ShardLink>>,
    shed: ShedPolicy,
    inflight: AtomicUsize,
    shutting_down: AtomicBool,
    stop: Arc<AtomicBool>,
    upstream_seq: AtomicU64,
    trace_seq: AtomicU64,
    c: Counters,
    started: Instant,
    procs: Mutex<Vec<ProcInfo>>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Starts the router: one reader thread per shard, connecting (and
    /// reconnecting, forever, with backoff) to the shard sockets.
    pub fn start(cfg: RouterConfig) -> Arc<Router> {
        let shards = cfg.sockets.len().max(1);
        let links: Vec<Arc<ShardLink>> = cfg
            .sockets
            .iter()
            .enumerate()
            .map(|(idx, sock)| {
                Arc::new(ShardLink {
                    idx,
                    sock: sock.clone(),
                    state: Mutex::new(LinkState {
                        stream: None,
                        pending: BTreeMap::new(),
                    }),
                    up: AtomicBool::new(false),
                })
            })
            .collect();
        let router = Arc::new(Router {
            ring: Ring::new(shards, cfg.vnodes),
            links,
            shed: ShedPolicy::new(cfg.soft_cap),
            inflight: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            stop: Arc::new(AtomicBool::new(false)),
            upstream_seq: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            c: Counters::default(),
            started: Instant::now(),
            procs: Mutex::new(vec![ProcInfo::default(); shards]),
            readers: Mutex::new(Vec::new()),
        });
        let mut readers = Vec::new();
        for link in &router.links {
            let link = Arc::clone(link);
            let r = Arc::clone(&router);
            // Supervisory thread, not request-scoped: responses from
            // every request interleave on one upstream connection, so
            // there is no single trace to adopt; forwarded lines carry
            // the shard-minted trace instead.
            // lint: allow(untraced-spawn)
            let h = std::thread::Builder::new()
                .name(format!("fleet-link-{}", link.idx))
                .spawn(move || reader_loop(&r, &link))
                .ok();
            if let Some(h) = h {
                readers.push(h);
            }
        }
        *lock(&router.readers) = readers;
        router
    }

    /// True once [`Router::shutdown`] ran.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.links.len()
    }

    /// Whether the link to shard `i` currently holds a live connection.
    pub fn shard_up(&self, i: usize) -> bool {
        self.links.get(i).is_some_and(|l| l.up.load(Ordering::SeqCst))
    }

    /// Requests accepted and not yet resolved, fleet-wide.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Updates the supervisor-owned process info reported by `status`.
    pub fn set_proc_info(&self, i: usize, info: ProcInfo) {
        let mut procs = lock(&self.procs);
        if let Some(slot) = procs.get_mut(i) {
            *slot = info;
        }
    }

    /// Mints a session: the handle a client connection submits through,
    /// and the channel its response lines arrive on. The channel closes
    /// once the handle is dropped and every forwarded request resolved.
    pub fn session(self: &Arc<Router>) -> (FleetSession, Receiver<String>) {
        let (tx, rx) = channel();
        let session = FleetSession {
            router: Arc::clone(self),
            shared: Arc::new(SessionShared {
                tx,
                routes: Mutex::new(BTreeMap::new()),
            }),
        };
        (session, rx)
    }

    /// Re-sends any pending line that is not on the wire (after a write
    /// error, an injected forward fault, or a retryable shard answer).
    /// Called periodically by the fleet supervisor's probe loop.
    pub fn housekeep(&self) {
        for link in &self.links {
            if link.up.load(Ordering::SeqCst) {
                let mut st = lock(&link.state);
                send_unsent(&mut st, &self.c);
            }
        }
    }

    /// Graceful fleet shutdown: drain every pending request as a typed
    /// `partial` (reason `cancelled`), then ask each shard to shut down
    /// (which checkpoints in-flight searches and flushes caches).
    pub fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for link in &self.links {
            let drained: Vec<Pending> = {
                let mut st = lock(&link.state);
                let table = std::mem::take(&mut st.pending);
                table.into_values().collect()
            };
            for p in drained {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
                lock(&p.session.routes).remove(&p.orig_id);
                let _ = p
                    .session
                    .tx
                    .send(partial_line(p.orig_id, "cancelled", 0, 0, None, 0));
            }
            let uid = self.upstream_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let line = format!("{{\"v\":1,\"id\":{uid},\"req\":\"shutdown\"}}");
            let mut st = lock(&link.state);
            write_line(&mut st, &line);
        }
    }

    /// Stops the reader threads and waits for them. Call after
    /// [`Router::shutdown`] once the shard processes have exited.
    pub fn join(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for link in &self.links {
            // Wake the blocked reader. It stores its stream and checks
            // `stop` under this lock, so it is found here or stops itself.
            let stream = {
                let mut st = lock(&link.state);
                st.stream.take()
            };
            if let Some(stream) = stream {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let handles = {
            let mut held = lock(&self.readers);
            std::mem::take(&mut *held)
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Fire-and-forget broadcast of a `flush` line to every shard (no
    /// pending entry: the shard's answer is dropped by the reader).
    pub fn broadcast_flush(&self) -> usize {
        let mut sent = 0;
        for link in &self.links {
            let uid = self.upstream_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let line = format!("{{\"v\":1,\"id\":{uid},\"req\":\"flush\"}}");
            let mut st = lock(&link.state);
            if write_line(&mut st, &line) {
                sent += 1;
            }
        }
        sent
    }

    /// The fleet `status` payload.
    fn status_json(&self) -> Json {
        let procs = lock(&self.procs).clone();
        let shards: Vec<Json> = self
            .links
            .iter()
            .map(|link| {
                let st = lock(&link.state);
                let info = procs.get(link.idx).cloned().unwrap_or_default();
                obj(vec![
                    ("idx", Json::from(link.idx)),
                    ("up", Json::from(link.up.load(Ordering::SeqCst))),
                    ("pending", Json::from(st.pending.len())),
                    ("pid", Json::from(info.pid)),
                    ("restarts", Json::from(info.restarts)),
                ])
            })
            .collect();
        obj(vec![
            ("protocol", Json::from(PROTOCOL_VERSION)),
            ("fleet", Json::from(true)),
            (
                "uptime_ms",
                Json::from(pucost::util::trunc_u64(
                    self.started.elapsed().as_secs_f64() * 1e3,
                )),
            ),
            ("inflight", Json::from(self.inflight())),
            (
                "ring",
                obj(vec![
                    ("shards", Json::from(self.ring.shards())),
                    ("vnodes", Json::from(self.ring.vnodes())),
                ]),
            ),
            (
                "shed",
                obj(vec![
                    ("soft", Json::from(self.shed.soft)),
                    ("hard", Json::from(self.shed.hard)),
                    ("soft_shed", Json::from(self.c.shed_soft.load(Ordering::Relaxed))),
                    ("hard_shed", Json::from(self.c.shed_hard.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "counters",
                obj(vec![
                    ("received", Json::from(self.c.received.load(Ordering::Relaxed))),
                    ("forwarded", Json::from(self.c.forwarded.load(Ordering::Relaxed))),
                    ("retried", Json::from(self.c.retried.load(Ordering::Relaxed))),
                    ("completed", Json::from(self.c.completed.load(Ordering::Relaxed))),
                    ("errors", Json::from(self.c.errors.load(Ordering::Relaxed))),
                    (
                        "reconnects",
                        Json::from(self.c.reconnects.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("shards", Json::Arr(shards)),
        ])
    }
}

/// Writes one line to the link's current stream; on failure the stream
/// is dropped (the reader will reconnect and re-send pending lines).
/// Uses `writeln!` — a short formatted write on an OS-buffered unix
/// socket — so no flagged blocking call runs while the lock is held.
fn write_line(st: &mut LinkState, line: &str) -> bool {
    let Some(stream) = st.stream.as_mut() else {
        return false;
    };
    if writeln!(stream, "{line}").is_err() {
        st.stream = None;
        for p in st.pending.values_mut() {
            p.sent = false;
        }
        return false;
    }
    true
}

/// Sends every pending line not currently on the wire.
fn send_unsent(st: &mut LinkState, c: &Counters) {
    let unsent: Vec<u64> = st
        .pending
        .iter()
        .filter(|(_, p)| !p.sent)
        .map(|(uid, _)| *uid)
        .collect();
    for uid in unsent {
        let Some(p) = st.pending.get(&uid) else { continue };
        let line = p.line.clone();
        if write_line(st, &line) {
            if let Some(p) = st.pending.get_mut(&uid) {
                p.sent = true;
            }
            c.forwarded.fetch_add(1, Ordering::Relaxed);
            obs::add("fleet.forwarded", 1);
        } else {
            break;
        }
    }
}

/// Per-shard reader: connect, replay the pending table, pump response
/// lines (blocking until [`Router::join`] shuts the stream), and on any
/// disconnect mark everything unsent and retry.
fn reader_loop(router: &Router, link: &ShardLink) {
    while !router.stop.load(Ordering::SeqCst) {
        let stream = match UnixStream::connect(&link.sock) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(RECONNECT_BACKOFF);
                continue;
            }
        };
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        {
            let mut st = lock(&link.state);
            if router.stop.load(Ordering::SeqCst) {
                return;
            }
            st.stream = Some(writer);
            for p in st.pending.values_mut() {
                p.sent = false;
            }
            send_unsent(&mut st, &router.c);
        }
        link.up.store(true, Ordering::SeqCst);
        router.c.reconnects.fetch_add(1, Ordering::Relaxed);
        obs::add("fleet.reconnect", 1);
        let mut reader = BufReader::new(stream);
        let mut buf = String::new();
        while matches!(reader.read_line(&mut buf), Ok(n) if n > 0) {
            handle_shard_line(router, link, buf.trim());
            buf.clear();
        }
        link.up.store(false, Ordering::SeqCst);
        let mut st = lock(&link.state);
        st.stream = None;
        for p in st.pending.values_mut() {
            p.sent = false;
        }
    }
}

/// Routes one response line from a shard back to the owning session.
fn handle_shard_line(router: &Router, link: &ShardLink, line: &str) {
    if line.is_empty() {
        return;
    }
    let Ok(v) = parse(line) else {
        // A shard never emits malformed JSON; drop rather than guess.
        return;
    };
    let Some(uid) = v.get("id").and_then(Json::as_u64) else {
        return;
    };
    let kind = v.get("kind").and_then(Json::as_str).unwrap_or("");
    let terminal = matches!(kind, "done" | "partial" | "error");
    enum Action {
        Drop,
        Forward { out: String, session: Arc<SessionShared>, orig_id: u64, terminal: bool },
    }
    let action = {
        let mut st = lock(&link.state);
        let Some(p) = st.pending.get_mut(&uid) else {
            // No pending entry: a fire-and-forget broadcast answer.
            return;
        };
        let reason = v.get("reason").and_then(Json::as_str).unwrap_or("");
        let code = v.get("code").and_then(Json::as_str).unwrap_or("");
        let restart_artifact =
            kind == "partial" && reason == "cancelled" && !p.client_cancelled;
        let retryable_error = kind == "error" && matches!(code, "shutting-down" | "overloaded");
        if terminal && (restart_artifact || retryable_error) {
            // Not a real answer: the shard is going away (graceful
            // drain) or pushing back. Keep the request pending; the
            // restarted shard recomputes or resumes it.
            p.sent = false;
            router.c.retried.fetch_add(1, Ordering::Relaxed);
            obs::add("fleet.retried", 1);
            Action::Drop
        } else {
            let out = rewrite_response(&v, p.orig_id, link.idx);
            let session = Arc::clone(&p.session);
            let orig_id = p.orig_id;
            if terminal {
                st.pending.remove(&uid);
            }
            Action::Forward {
                out,
                session,
                orig_id,
                terminal,
            }
        }
    };
    if let Action::Forward {
        out,
        session,
        orig_id,
        terminal,
    } = action
    {
        if terminal {
            lock(&session.routes).remove(&orig_id);
            router.inflight.fetch_sub(1, Ordering::SeqCst);
            if kind == "error" {
                router.c.errors.fetch_add(1, Ordering::Relaxed);
            } else {
                router.c.completed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = session.tx.send(out);
    }
}

/// Rewrites a shard response for the client: restores the original id
/// and tags the answering shard.
fn rewrite_response(v: &Json, orig_id: u64, shard: usize) -> String {
    let mut m = v.as_obj().cloned().unwrap_or_default();
    m.insert("id".to_string(), Json::from(orig_id));
    m.insert("shard".to_string(), Json::from(shard));
    Json::Obj(m).render()
}

/// One client connection's handle onto the router, mirroring
/// [`crate::Client`]: submit raw lines, receive raw response lines on the
/// channel minted with it.
pub struct FleetSession {
    router: Arc<Router>,
    shared: Arc<SessionShared>,
}

impl FleetSession {
    /// Submits one raw request line; every outcome comes back as a
    /// response line (typed errors included).
    pub fn submit(&self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        self.router.c.received.fetch_add(1, Ordering::Relaxed);
        obs::add("fleet.requests", 1);
        let trace = self.router.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let env = match proto::parse_request(line) {
            Ok(env) => env,
            Err(e) => {
                self.router.c.errors.fetch_add(1, Ordering::Relaxed);
                let _ = self
                    .shared
                    .tx
                    .send(error_line(e.id, e.code, &e.message, trace));
                return;
            }
        };
        if self.router.is_shutting_down() {
            self.router.c.errors.fetch_add(1, Ordering::Relaxed);
            let _ = self.shared.tx.send(error_line(
                Some(env.id),
                "shutting-down",
                "fleet is shutting down",
                trace,
            ));
            return;
        }
        match env.request {
            Request::Status => {
                let _ = self
                    .shared
                    .tx
                    .send(done_line(env.id, self.router.status_json(), trace));
                self.router.c.completed.fetch_add(1, Ordering::Relaxed);
            }
            Request::Metrics { .. } => {
                // Router-level metrics; shard telemetry is one `metrics`
                // rpc away on the shard's own socket.
                let _ = self
                    .shared
                    .tx
                    .send(done_line(env.id, self.router.status_json(), trace));
                self.router.c.completed.fetch_add(1, Ordering::Relaxed);
            }
            Request::Flush => {
                let sent = self.router.broadcast_flush();
                let _ = self.shared.tx.send(done_line(
                    env.id,
                    obj(vec![("requested", Json::from(sent))]),
                    trace,
                ));
                self.router.c.completed.fetch_add(1, Ordering::Relaxed);
            }
            Request::Shutdown => {
                self.router.shutdown();
                let _ = self.shared.tx.send(done_line(
                    env.id,
                    obj(vec![("stopping", Json::from(true))]),
                    trace,
                ));
                self.router.c.completed.fetch_add(1, Ordering::Relaxed);
            }
            Request::Cancel { target } => self.forward_cancel(env.id, target, trace),
            ref work => {
                let Some(key) = route_key(work) else {
                    // Unreachable: all remaining verbs are routable.
                    let _ = self.shared.tx.send(error_line(
                        Some(env.id),
                        "bad-request",
                        "verb is not routable",
                        trace,
                    ));
                    return;
                };
                match self
                    .router
                    .shed
                    .decide(env.priority, self.router.inflight())
                {
                    ShedDecision::Admit => {}
                    verdict => {
                        let (counter, name): (&AtomicU64, &str) = match verdict {
                            ShedDecision::ShedSoft => (&self.router.c.shed_soft, "soft"),
                            _ => (&self.router.c.shed_hard, "hard"),
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        self.router.c.errors.fetch_add(1, Ordering::Relaxed);
                        obs::add("fleet.shed", 1);
                        let _ = self.shared.tx.send(error_line(
                            Some(env.id),
                            "overloaded",
                            &format!("fleet over {name} capacity; retry later"),
                            trace,
                        ));
                        return;
                    }
                }
                let shard = self.router.ring.assign(&key);
                self.forward(env.id, shard, line, trace);
            }
        }
    }

    /// Forwards `cancel` to the shard running the target request.
    fn forward_cancel(&self, id: u64, target: u64, trace: u64) {
        let route = {
            let held = lock(&self.shared.routes);
            held.get(&target).copied()
        };
        let Some((shard, target_uid)) = route else {
            // Unknown or already resolved: answer like the shards do.
            let _ = self.shared.tx.send(done_line(
                id,
                obj(vec![("cancelled", Json::from(false))]),
                trace,
            ));
            self.router.c.completed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if let Some(link) = self.router.links.get(shard) {
            let mut st = lock(&link.state);
            if let Some(p) = st.pending.get_mut(&target_uid) {
                p.client_cancelled = true;
            }
        }
        let line =
            format!("{{\"v\":1,\"id\":{id},\"req\":\"cancel\",\"target\":{target_uid}}}");
        self.forward(id, shard, &line, trace);
    }

    /// Rewrites the id and hands the line to the shard link. When the
    /// link is down (or a `fleet.forward` fault is armed) the line
    /// stays pending unsent; reconnect or housekeeping delivers it.
    fn forward(&self, orig_id: u64, shard: usize, line: &str, trace: u64) {
        let Some(link) = self.router.links.get(shard) else {
            return;
        };
        let uid = self.router.upstream_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let out = rewrite_id(line, uid);
        lock(&self.shared.routes).insert(orig_id, (shard, uid));
        self.router.inflight.fetch_add(1, Ordering::SeqCst);
        let drop_send = faultsim::armed() && faultsim::hit("fleet.forward");
        let mut st = lock(&link.state);
        // Under the link lock: `Router::shutdown` raises its flag before it
        // drains this table, so a request is drained there or answered
        // here the same way, and the session's channel still closes.
        if self.router.is_shutting_down() {
            drop(st);
            lock(&self.shared.routes).remove(&orig_id);
            self.router.inflight.fetch_sub(1, Ordering::SeqCst);
            let line = partial_line(orig_id, "cancelled", 0, 0, None, trace);
            let _ = self.shared.tx.send(line);
            return;
        }
        st.pending.insert(
            uid,
            Pending {
                line: out.clone(),
                sent: false,
                client_cancelled: false,
                orig_id,
                session: Arc::clone(&self.shared),
            },
        );
        if !drop_send && write_line(&mut st, &out) {
            if let Some(p) = st.pending.get_mut(&uid) {
                p.sent = true;
            }
            self.router.c.forwarded.fetch_add(1, Ordering::Relaxed);
            obs::add("fleet.forwarded", 1);
        }
    }
}

impl crate::Session for FleetSession {
    fn submit_line(&self, line: &str) -> bool {
        self.submit(line);
        !self.router.is_shutting_down()
    }
}

/// Replaces the `id` field of a request line (already validated JSON).
fn rewrite_id(line: &str, new_id: u64) -> String {
    match parse(line) {
        Ok(Json::Obj(mut m)) => {
            m.insert("id".to_string(), Json::from(new_id));
            Json::Obj(m).render()
        }
        // Unreachable: callers only pass parsed-valid object lines.
        _ => line.to_string(),
    }
}
