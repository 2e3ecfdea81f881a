//! `spa-serve`: a long-running, multi-client evaluation/DSE service.
//!
//! The crates below this one answer *one* question per process run:
//! evaluate a PU, segment a model, run a co-design sweep. This crate
//! turns them into a **service**: a persistent process that many clients
//! query concurrently over a versioned JSONL protocol, through one
//! admission-controlled priority queue. Every request evaluates the cost
//! model directly; searches checkpoint server-side, so a restarted
//! server resumes them.
//!
//! Layering:
//!
//! * [`json`] — the workspace's JSON value, re-exported from [`obs::json`]
//!   (std-only; sorted keys).
//! * [`proto`] — the versioned request/response line protocol.
//! * [`queue`] — admission control + priority scheduling (+ the fleet
//!   [`queue::ShedPolicy`]).
//! * [`diskcache`] — a disk snapshot of the PU-cost memo; the server
//!   does not use it.
//! * [`server`] — the serving core: workers, batching, deadlines,
//!   cancellation, graceful shutdown with checkpointed searches.
//! * [`ring`] — the deterministic consistent-hash ring for the fleet.
//! * [`router`] — fan-out of client sessions across shard sockets with
//!   retry/failover of idempotent work and typed load shedding.
//! * [`fleet`] — shard process supervision: spawn, health probes, hot
//!   restart; the `spa-fleet` binary.
//! * [`testkit`] — condition-polling helpers for the socket suites.
//!
//! The `spa-serve` binary (`main.rs`) fronts a [`server::Server`] with a
//! unix-domain socket (`SERVE_SOCKET`) or, with `--stdio`, a single
//! stdin/stdout session — the mode `verify.sh` drives. Every front, the
//! fleet's included, is one blocking connection pump (DESIGN.md §9).
//!
//! Environment knobs: `SERVE_SOCKET` (socket path), `SERVE_CACHE_DIR`
//! (server-side codesign checkpoints), `SERVE_MAX_INFLIGHT` (admission
//! cap). `DSE_THREADS`, `OBS_LEVEL` and `FAULT_PLAN` apply as everywhere
//! else.

pub mod diskcache;
pub mod fleet;
pub mod proto;
pub mod queue;
pub mod ring;
pub mod router;
pub mod server;
pub mod testkit;

pub use obs::json;
pub use diskcache::DiskCache;
pub use fleet::{run_fleet_socket, Fleet, FleetConfig};
pub use json::Json;
pub use proto::{Envelope, ProtoError, Request, PROTOCOL_VERSION};
pub use queue::{Admission, AdmitError, ShedDecision, ShedPolicy};
pub use ring::Ring;
pub use router::{FleetSession, Router, RouterConfig};
pub use server::{Client, ServeConfig, Server};

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Raised by the SIGTERM/SIGINT handler of [`install_signal_handlers`];
/// the binaries pass it to [`run_socket`] and [`run_fleet_socket`] as
/// `stop`.
pub static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Installs a minimal async-signal-safe SIGTERM/SIGINT handler that
/// raises [`TERMINATE`]. std links libc on every supported unix target,
/// so declaring `signal` directly keeps the crate dependency-free; the
/// handler body is a single atomic store, which is async-signal-safe.
pub fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as *const () as usize;
    // SAFETY: `signal` is libc's, and `on_term` only stores an atomic.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// One connection's request side: a [`Client`] of a [`Server`], or a
/// [`FleetSession`] of a fleet [`Router`].
pub(crate) trait Session: Send + 'static {
    /// Submits one raw request line, whose answers arrive on the channel
    /// minted with the session; false once the service is shutting down.
    fn submit_line(&self, line: &str) -> bool;
}

/// Runs one stdio session against a fresh server: each input line is a
/// request, each output line a response, written the moment it is
/// ready. At input EOF every admitted request still answers; after a
/// `shutdown` request the rest of the input is left unread. Either way
/// the server then shuts down and checkpoints in-flight searches before
/// this returns.
///
/// This is the `--stdio` mode of the binary, factored here so tests can
/// drive it with in-memory readers/writers.
///
/// # Errors
///
/// Output-write failures, or a panic while submitting; input errors end
/// the session like EOF.
pub fn run_stdio(
    input: impl BufRead + Send + 'static,
    output: impl Write,
    cfg: ServeConfig,
) -> std::io::Result<()> {
    let server = Server::start(cfg);
    let (client, answers) = server.client();
    let served = pump(client, answers, input, output, || {});
    server.shutdown();
    server.join();
    served
}

/// Hosts a fresh server on a unix-domain socket at `path`, one JSONL
/// session per connection, until `stop` is raised or a `shutdown`
/// request lands. On exit the server drains gracefully and checkpoints
/// in-flight searches.
///
/// This is the `--socket` mode of the binary (which passes
/// [`TERMINATE`] as `stop`), factored here so the `bench_serve` harness
/// can host a real socket in-process and stop it between bench phases.
///
/// # Errors
///
/// Bind failures; an accept error ends the loop but still shuts down
/// cleanly.
pub fn run_socket(path: &Path, cfg: ServeConfig, stop: &AtomicBool) -> std::io::Result<()> {
    // Bind before the server starts: an early client waits in the
    // backlog instead of retrying.
    let listener = bind(path)?;
    let server = Server::start(cfg);
    serve_socket(
        listener,
        path,
        stop,
        || (!server.is_shutting_down()).then(|| server.client()),
        || server.shutdown(),
    );
    server.join();
    Ok(())
}

/// Binds a listener at `path`, replacing a stale socket file.
fn bind(path: &Path) -> std::io::Result<UnixListener> {
    let _ = std::fs::remove_file(path);
    UnixListener::bind(path)
}

/// The one accept loop, behind [`run_socket`] and [`run_fleet_socket`].
///
/// It blocks in `accept` and [`pump`]s each connection on a thread of
/// its own until `stop` is raised or `open` finds the front shutting
/// down. A connection to `path` wakes the blocked `accept` in both
/// cases: the stop watcher makes it for `stop`, and the reader that
/// submitted a `shutdown` request makes it for the verb. Then the loop
/// runs `shutdown`, wakes every blocked reader by shutting its stream's
/// read half, and waits until every connection wrote its last answer.
pub(crate) fn serve_socket<S: Session>(
    listener: UnixListener,
    path: &Path,
    stop: &AtomicBool,
    open: impl Fn() -> Option<(S, Receiver<String>)>,
    shutdown: impl FnOnce(),
) {
    let mut conns: Vec<(UnixStream, JoinHandle<()>)> = Vec::new();
    let (accepting, watch) = channel::<()>();
    std::thread::scope(|s| {
        // The one timed wait: a signal handler can only store an atomic,
        // so this watcher turns `stop` into a wake-up. No request runs on
        // it, and it exits with the loop. lint: allow(untraced-spawn)
        s.spawn(move || {
            let poll = Duration::from_millis(25);
            while let Err(RecvTimeoutError::Timeout) = watch.recv_timeout(poll) {
                if stop.load(Ordering::SeqCst) {
                    return wake(path);
                }
            }
        });
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    eprintln!("accept on {} failed: {e}", path.display());
                    break;
                }
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Some((session, answers)) = open() else {
                break;
            };
            conns.retain(|(_, thread)| !thread.is_finished());
            let (Ok(input), Ok(handle)) = (stream.try_clone(), stream.try_clone()) else {
                continue;
            };
            let path = path.to_path_buf();
            // Connection threads shuttle lines; each request enters its
            // own trace in `submit`. lint: allow(untraced-spawn)
            let spawned = std::thread::Builder::new().spawn(move || {
                let input = BufReader::new(input);
                let _ = pump(session, answers, input, &stream, move || wake(&path));
                // EOF for the peer, though the accept loop holds a handle.
                let _ = stream.shutdown(Shutdown::Both);
            });
            if let Ok(thread) = spawned {
                conns.push((handle, thread));
            }
        }
        drop(accepting);
    });
    drop(listener);
    let _ = std::fs::remove_file(path);
    shutdown();
    for (stream, _) in &conns {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
}

/// Wakes an accept loop blocked on `path` with a connection it drops.
fn wake(path: &Path) {
    let _ = UnixStream::connect(path);
}

/// Serves one session until its answer channel closes. A reader thread
/// submits each line of `input`; the calling thread writes each answer
/// to `output` the moment it arrives. The reader drops the session at
/// EOF, or right after a line that leaves the service shutting down
/// (calling `on_shutdown`), so the channel closes exactly when the
/// request side is gone and every admitted request has answered.
///
/// # Errors
///
/// Output-write failures (the reader then runs on until EOF), or a
/// panic of the reader.
fn pump<S: Session>(
    session: S,
    answers: Receiver<String>,
    input: impl BufRead + Send + 'static,
    output: impl Write,
    on_shutdown: impl FnOnce() + Send + 'static,
) -> std::io::Result<()> {
    // The reader forwards raw lines; each request enters its own trace
    // in `submit`. lint: allow(untraced-spawn)
    let reader = std::thread::Builder::new().spawn(move || {
        for line in input.lines() {
            let Ok(line) = line else { break };
            if !session.submit_line(&line) {
                on_shutdown();
                break;
            }
        }
    })?;
    let mut out = BufWriter::new(output);
    for answer in answers {
        writeln!(out, "{answer}")?;
        out.flush()?;
    }
    // The channel closed, so the reader has dropped the session.
    reader
        .join()
        .map_err(|_| std::io::Error::other("request reader panicked"))
}
