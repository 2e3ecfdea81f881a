//! The `spa-fleet` supervisor: shard processes, health probes and hot
//! restart.
//!
//! A [`Fleet`] owns N `spa-serve` child processes (one unix socket and
//! one checkpoint directory each), a [`Router`] fanning requests across
//! them, and one maintenance thread, the **probe** loop
//! (`FLEET_PROBE_MS`): it reaps dead shard children and respawns them in
//! place (hot restart — the router's pending table re-sends in-flight
//! work to the new process, which resumes codesigns from their
//! server-side checkpoints), and runs router housekeeping (re-sending
//! lines an injected fault or write error left off the wire).
//!
//! Shard processes run [`FleetConfig::server_bin`] when set, else the
//! binary [`resolve_server_bin`] finds: `SPA_SERVE_BIN`, or a `spa-serve`
//! next to the current executable.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::router::{ProcInfo, Router, RouterConfig};

/// Signal numbers used for shard kills (Linux).
const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Same poisoned-lock recovery policy as the rest of the crate.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fleet construction parameters (env-derived in the binary).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of `spa-serve` shard processes (`FLEET_SHARDS`).
    pub shards: usize,
    /// Root directory for shard sockets and checkpoint dirs (`FLEET_DIR`).
    pub dir: PathBuf,
    /// Router soft shed watermark (`FLEET_MAX_INFLIGHT`); hard is 2×.
    pub soft_cap: usize,
    /// Virtual nodes per shard on the ring (`FLEET_VNODES`).
    pub vnodes: usize,
    /// Probe/housekeeping period in ms (`FLEET_PROBE_MS`).
    pub probe_ms: u64,
    /// Explicit shard binary path; `None` falls back to
    /// [`resolve_server_bin`].
    pub server_bin: Option<PathBuf>,
    /// Extra env vars for shard processes (fault plans in chaos tests).
    pub extra_env: Vec<(String, String)>,
    /// `SERVE_MAX_INFLIGHT` handed to each shard. Generous by default:
    /// the router owns admission; shards should rarely push back.
    pub shard_max_inflight: usize,
}

impl FleetConfig {
    /// Defaults for a fleet rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> FleetConfig {
        FleetConfig {
            shards: 3,
            dir: dir.into(),
            soft_cap: 64,
            vnodes: crate::ring::DEFAULT_VNODES,
            probe_ms: 100,
            server_bin: None,
            extra_env: Vec::new(),
            shard_max_inflight: 1024,
        }
    }

    /// Reads the `FLEET_*` env knobs over the defaults.
    pub fn from_env(dir: impl Into<PathBuf>) -> FleetConfig {
        let mut cfg = FleetConfig::new(dir);
        let parse = |name: &str, default: u64| -> u64 {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        cfg.shards = pucost::util::usize_of(parse("FLEET_SHARDS", 3)).max(1);
        cfg.soft_cap = pucost::util::usize_of(parse("FLEET_MAX_INFLIGHT", 64)).max(1);
        cfg.vnodes = pucost::util::usize_of(parse(
            "FLEET_VNODES",
            crate::ring::DEFAULT_VNODES as u64,
        ))
        .max(1);
        cfg.probe_ms = parse("FLEET_PROBE_MS", 100).max(10);
        cfg
    }
}

/// Finds the `spa-serve` binary: `SPA_SERVE_BIN`, then a `spa-serve`
/// next to the current executable (as cargo lays out `target/<profile>/`).
pub fn resolve_server_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("SPA_SERVE_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let p = std::env::current_exe().ok()?.parent()?.join("spa-serve");
    p.is_file().then_some(p)
}

struct ShardProc {
    child: Mutex<Option<Child>>,
    restarts: std::sync::atomic::AtomicU64,
}

/// A running fleet: shard children + router + the probe thread.
pub struct Fleet {
    cfg: FleetConfig,
    bin: PathBuf,
    router: Arc<Router>,
    procs: Vec<Arc<ShardProc>>,
    /// Raised by [`Fleet::shutdown`]; the probe loop waits out its
    /// period on `stop_cv`, so it wakes at once.
    stop: Mutex<bool>,
    stop_cv: Condvar,
    probe: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Fleet {
    /// Spawns the shard processes and starts the router and the probe
    /// thread. Shards may still be binding their sockets on return;
    /// the router reconnects until they are up.
    ///
    /// # Errors
    ///
    /// Directory creation failures, or no `spa-serve` binary found.
    pub fn start(cfg: FleetConfig) -> std::io::Result<Arc<Fleet>> {
        let bin = match cfg.server_bin.clone().or_else(resolve_server_bin) {
            Some(b) => b,
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "no spa-serve binary (set SPA_SERVE_BIN)",
                ))
            }
        };
        std::fs::create_dir_all(&cfg.dir)?;
        let sockets: Vec<PathBuf> = (0..cfg.shards).map(|i| shard_socket(&cfg.dir, i)).collect();
        for i in 0..cfg.shards {
            std::fs::create_dir_all(shard_cache_dir(&cfg.dir, i))?;
        }
        let router = Router::start(RouterConfig {
            sockets,
            vnodes: cfg.vnodes,
            soft_cap: cfg.soft_cap,
        });
        let procs: Vec<Arc<ShardProc>> = (0..cfg.shards)
            .map(|_| {
                Arc::new(ShardProc {
                    child: Mutex::new(None),
                    restarts: std::sync::atomic::AtomicU64::new(0),
                })
            })
            .collect();
        let fleet = Arc::new(Fleet {
            cfg,
            bin,
            router,
            procs,
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            probe: Mutex::new(None),
        });
        for i in 0..fleet.cfg.shards {
            fleet.spawn_shard(i)?;
        }
        let f = Arc::clone(&fleet);
        // Supervisory maintenance thread; no single request trace to
        // adopt. lint: allow(untraced-spawn)
        let probe = std::thread::Builder::new()
            .name("fleet-probe".into())
            .spawn(move || f.probe_loop())
            .ok();
        *lock(&fleet.probe) = probe;
        Ok(fleet)
    }

    /// The router handle (mint sessions from it).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The socket path shard `i` listens on.
    pub fn shard_socket(&self, i: usize) -> PathBuf {
        shard_socket(&self.cfg.dir, i)
    }

    /// The directory shard `i` keeps its codesign checkpoints in.
    pub fn shard_cache_dir(&self, i: usize) -> PathBuf {
        shard_cache_dir(&self.cfg.dir, i)
    }

    /// Current pid of shard `i`, if it is running.
    pub fn shard_pid(&self, i: usize) -> Option<u32> {
        let p = self.procs.get(i)?;
        lock(&p.child).as_ref().map(Child::id)
    }

    /// Sends SIGTERM (graceful) or SIGKILL to shard `i`. The probe loop
    /// respawns it; returns false if the shard is not running.
    pub fn kill_shard(&self, i: usize, graceful: bool) -> bool {
        let Some(pid) = self.shard_pid(i) else {
            return false;
        };
        let sig = if graceful { SIGTERM } else { SIGKILL };
        // Signalling our own supervised child by its live pid.
        unsafe { kill(pid as i32, sig) == 0 }
    }

    fn spawn_shard(&self, i: usize) -> std::io::Result<()> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--socket")
            .arg(self.shard_socket(i))
            .env("SERVE_CACHE_DIR", self.shard_cache_dir(i))
            .env("SERVE_MAX_INFLIGHT", self.cfg.shard_max_inflight.to_string());
        for (k, v) in &self.cfg.extra_env {
            cmd.env(k, v);
        }
        let child = cmd.spawn()?;
        let pid = u64::from(child.id());
        let sp = &self.procs[i];
        *lock(&sp.child) = Some(child);
        self.router.set_proc_info(
            i,
            ProcInfo {
                pid,
                restarts: sp.restarts.load(Ordering::SeqCst),
            },
        );
        Ok(())
    }

    /// Waits up to `period` for [`Fleet::shutdown`]; true once it began.
    fn stopping(&self, period: Duration) -> bool {
        let stop = lock(&self.stop);
        let (stop, _) = self
            .stop_cv
            .wait_timeout_while(stop, period, |stop| !*stop)
            .unwrap_or_else(|e| e.into_inner());
        *stop
    }

    /// Reaps and respawns dead shards; re-sends unsent pending lines.
    fn probe_loop(&self) {
        let period = Duration::from_millis(self.cfg.probe_ms);
        loop {
            for i in 0..self.procs.len() {
                let dead = {
                    let mut child = lock(&self.procs[i].child);
                    match child.as_mut() {
                        None => false,
                        Some(c) => match c.try_wait() {
                            Ok(Some(_status)) => {
                                *child = None;
                                true
                            }
                            Ok(None) => false,
                            Err(_) => false,
                        },
                    }
                };
                if dead && !self.stopping(Duration::ZERO) {
                    self.procs[i].restarts.fetch_add(1, Ordering::SeqCst);
                    obs::add("fleet.restart", 1);
                    if self.spawn_shard(i).is_err() {
                        eprintln!("spa-fleet: failed to respawn shard {i}");
                    }
                }
            }
            self.router.housekeep();
            if self.stopping(period) {
                return;
            }
        }
    }

    /// Graceful fleet shutdown: drain the router (typed partials for
    /// anything still pending), ask shards to shut down, wait for the
    /// children (killing stragglers), and stop the probe thread.
    pub fn shutdown(&self) {
        // Stop the probe thread first so nothing respawns or re-sends
        // while the fleet tears down.
        *lock(&self.stop) = true;
        self.stop_cv.notify_all();
        let probe = {
            let mut held = lock(&self.probe);
            held.take()
        };
        if let Some(h) = probe {
            let _ = h.join();
        }
        self.router.shutdown();
        // Give every shard a graceful window, then escalate.
        for i in 0..self.procs.len() {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let gone = {
                    let mut child = lock(&self.procs[i].child);
                    match child.as_mut() {
                        None => true,
                        Some(c) => match c.try_wait() {
                            Ok(Some(_)) => {
                                *child = None;
                                true
                            }
                            _ => false,
                        },
                    }
                };
                if gone {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    let mut child = lock(&self.procs[i].child);
                    if let Some(c) = child.as_mut() {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    *child = None;
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        self.router.join();
    }
}

fn shard_socket(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}.sock"))
}

fn shard_cache_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}"))
}

/// Hosts a fleet on a unix socket, serving each connection's
/// [`crate::FleetSession`] as [`crate::run_socket`] serves a client.
/// Returns when `stop` is raised or a `shutdown` request lands; the
/// fleet is shut down gracefully (drain, shard shutdown, reap) first.
///
/// # Errors
///
/// Bind failures of the listener.
pub fn run_fleet_socket(
    path: &Path,
    fleet: &Arc<Fleet>,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let listener = crate::bind(path)?;
    let router = fleet.router();
    crate::serve_socket(
        listener,
        path,
        stop,
        || (!router.is_shutting_down()).then(|| router.session()),
        || fleet.shutdown(),
    );
    Ok(())
}
