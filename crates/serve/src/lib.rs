//! `spa-serve`: a long-running, multi-client evaluation/DSE service.
//!
//! The crates below this one answer *one* question per process run:
//! evaluate a PU, segment a model, run a co-design sweep. This crate
//! turns them into a **service**: a persistent process that many clients
//! query concurrently over a versioned JSONL protocol, sharing one warm
//! [`pucost::EvalCache`] (optionally persisted to disk across restarts),
//! one [`autoseg::dse::DsePool`], and one admission-controlled priority
//! queue.
//!
//! Layering:
//!
//! * [`json`] — the workspace's JSON value, re-exported from [`obs::json`]
//!   (std-only; sorted keys).
//! * [`proto`] — the versioned request/response line protocol.
//! * [`queue`] — admission control + priority scheduling (+ the fleet
//!   [`queue::ShedPolicy`]).
//! * [`diskcache`] — the persistent warm tier of the eval cache.
//! * [`server`] — the serving core: workers, batching, deadlines,
//!   cancellation, graceful shutdown with checkpointed searches.
//! * [`ring`] — the deterministic consistent-hash ring for the fleet.
//! * [`router`] — fan-out of client sessions across shard sockets with
//!   retry/failover of idempotent work and typed load shedding.
//! * [`fleet`] — shard process supervision: spawn, health probes, hot
//!   restart, warm-cache snapshot exchange; the `spa-fleet` binary.
//! * [`testkit`] — condition-polling helpers for the socket suites.
//!
//! The `spa-serve` binary (`main.rs`) fronts a [`server::Server`] with a
//! unix-domain socket (`SERVE_SOCKET`) or, with `--stdio`, a single
//! stdin/stdout session — the mode `verify.sh` drives.
//!
//! Environment knobs: `SERVE_SOCKET` (socket path), `SERVE_CACHE_DIR`
//! (persistent cache + server-side checkpoints), `SERVE_MAX_INFLIGHT`
//! (admission cap). `DSE_THREADS`, `OBS_LEVEL` and `FAULT_PLAN` apply as
//! everywhere else.
//!
//! Known limitation, documented rather than hidden: `segment` requests
//! run through [`autoseg::AutoSeg`], which builds its own internal eval
//! cache per run — they do not share the server's warm cache (and so
//! never contribute warm hits). `eval_pu` and `codesign` do.

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

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Runs one blocking stdio session against a fresh server: each input
/// line is a request, each output line a response. Returns when the
/// input reaches EOF or a `shutdown` request lands; either way the
/// server drains, checkpoints in-flight searches and flushes the
/// persistent cache before this returns.
///
/// Input is consumed on a dedicated reader thread so responses are
/// forwarded (and flushed) while waiting for the next request line — an
/// interactive client may write one request and wait for its response
/// before writing more. If the session ends by `shutdown` request while
/// the input is still open, the reader thread stays parked on its
/// blocking read until the input closes (for the binary: process exit).
///
/// This is the `--stdio` mode of the binary, factored here so tests can
/// drive it with in-memory readers/writers.
///
/// # Errors
///
/// `std::io::Error` only for output-write failures; input errors end the
/// session like EOF.
pub fn run_stdio(
    input: impl BufRead + Send + 'static,
    mut output: impl Write,
    cfg: ServeConfig,
) -> std::io::Result<()> {
    let server = Server::start(cfg);
    let client = server.client();
    let (line_tx, line_rx) = std::sync::mpsc::channel::<String>();
    // Reader thread forwards raw lines only; each request gets its own
    // TraceGuard inside the worker's execute path.
    // lint: allow(untraced-spawn)
    std::thread::spawn(move || {
        for line in input.lines() {
            let Ok(line) = line else { break };
            if line_tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut eof = false;
    while !eof && !server.is_shutting_down() {
        match line_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(line) => client.submit(&line),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => eof = true,
        }
        let mut wrote = false;
        for resp in client.drain_ready() {
            writeln!(output, "{resp}")?;
            wrote = true;
        }
        if wrote {
            output.flush()?;
        }
    }
    if !server.is_shutting_down() {
        server.shutdown();
    }
    for resp in client.drain_ready() {
        writeln!(output, "{resp}")?;
    }
    // Wait for in-flight jobs to answer (done or typed partial — they
    // observe their raised cancel flags at the next generation
    // boundary), then drain the tail.
    server.join();
    for resp in client.drain_ready() {
        writeln!(output, "{resp}")?;
    }
    output.flush()?;
    Ok(())
}

/// Hosts a fresh server on a unix-domain socket at `path`, accepting
/// many concurrent clients (one JSONL session each) until `stop` is
/// raised or a `shutdown` request lands. The accept loop is nonblocking
/// so both are observed within ~25 ms. On exit the server drains
/// gracefully, checkpoints in-flight searches and flushes the persistent
/// cache.
///
/// This is the `--socket` mode of the binary (which passes its
/// SIGTERM/SIGINT flag as `stop`), factored here so the `bench_serve`
/// harness can host a real socket in-process and stop it between bench
/// phases.
///
/// # Errors
///
/// Bind/configure failures of the listener; accept errors other than
/// `WouldBlock` end the loop but still shut down cleanly.
pub fn run_socket(path: &Path, cfg: ServeConfig, stop: &AtomicBool) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path); // stale socket from a previous run
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let server = Arc::new(Server::start(cfg));
    let mut pumps = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) || server.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let server = Arc::clone(&server);
                // Connection pumps shuttle bytes; traces are per request
                // (TraceGuard in the worker). lint: allow(untraced-spawn)
                pumps.push(std::thread::spawn(move || pump_connection(&server, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("spa-serve: accept failed: {e}");
                break;
            }
        }
    }
    server.shutdown();
    let _ = std::fs::remove_file(path);
    for p in pumps {
        let _ = p.join();
    }
    match Arc::try_unwrap(server) {
        Ok(s) => s.join(),
        Err(_) => eprintln!("spa-serve: connection pump leaked a server handle"),
    }
    Ok(())
}

/// One connection, one thread: interleave reading request lines (with a
/// short read timeout so responses keep flowing while the peer is idle)
/// with pumping response lines back. The session ends once the peer
/// stops sending (EOF) and every admitted job has resolved — responses
/// are enqueued before a job resolves, so the final drain sees them all.
fn pump_connection(server: &Server, stream: UnixStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let client = server.client();
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(e) => {
            eprintln!("spa-serve: cannot clone stream: {e}");
            return;
        }
    };
    let mut out = stream;
    let mut acc = String::new();
    let mut eof = false;
    loop {
        if !eof {
            // A timeout mid-line leaves the partial line in `acc`; the
            // next round appends the rest.
            match reader.read_line(&mut acc) {
                Ok(0) => eof = true,
                Ok(_) => {
                    client.submit(acc.trim_end());
                    acc.clear();
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => eof = true,
            }
        } else if client.outstanding() > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut io_ok = true;
        for resp in client.drain_ready() {
            io_ok &= writeln!(out, "{resp}").is_ok();
        }
        if !io_ok {
            break; // peer hung up; jobs resolve server-side regardless
        }
        let drained = client.outstanding() == 0;
        if (eof || server.is_shutting_down()) && drained {
            for resp in client.drain_ready() {
                let _ = writeln!(out, "{resp}");
            }
            break;
        }
    }
}
