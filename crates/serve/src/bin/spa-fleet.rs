//! `spa-fleet` — the sharded serving front end.
//!
//! Spawns `FLEET_SHARDS` `spa-serve` worker processes (one unix socket
//! and one checkpoint directory each), consistent-hashes work requests
//! across them, and fronts the whole fleet on one unix socket speaking
//! the same JSONL v1 protocol as a single `spa-serve`. Shard crashes
//! are absorbed: the supervisor respawns dead shards, the router
//! re-sends their in-flight work, and interrupted codesigns resume from
//! their server-side checkpoints bit-identically.
//!
//! ```text
//! spa-fleet --socket PATH --dir DIR [--shards N]
//! ```
//!
//! Environment: `FLEET_SOCKET`, `FLEET_DIR`, `FLEET_SHARDS`,
//! `FLEET_MAX_INFLIGHT` (soft shed watermark; hard is 2×),
//! `FLEET_VNODES`, `FLEET_PROBE_MS`, `SPA_SERVE_BIN` (shard binary
//! override). Shards inherit the process env plus their own
//! `SERVE_CACHE_DIR` / `SERVE_MAX_INFLIGHT`.

use serve::{run_fleet_socket, Fleet, FleetConfig};
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: spa-fleet --socket PATH --dir DIR [--shards N]\n\
         (FLEET_SOCKET / FLEET_DIR / FLEET_SHARDS are equivalent)\n\
         env: FLEET_MAX_INFLIGHT, FLEET_VNODES, FLEET_PROBE_MS, SPA_SERVE_BIN"
    );
    std::process::exit(2);
}

fn main() {
    if let Err(e) = faultsim::arm_from_env() {
        eprintln!("FAULT_PLAN: {e}");
        std::process::exit(2);
    }
    let mut socket: Option<PathBuf> = std::env::var("FLEET_SOCKET")
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from);
    let mut dir: Option<PathBuf> = std::env::var("FLEET_DIR")
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from);
    let mut shards: Option<usize> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match (args[i].as_str(), args.get(i + 1)) {
            ("--socket", Some(v)) => {
                socket = Some(PathBuf::from(v));
                i += 2;
            }
            ("--dir", Some(v)) => {
                dir = Some(PathBuf::from(v));
                i += 2;
            }
            ("--shards", Some(v)) => {
                shards = v.parse().ok();
                i += 2;
            }
            _ => usage(),
        }
    }
    let (Some(socket), Some(dir)) = (socket, dir) else {
        usage()
    };
    let mut cfg = FleetConfig::from_env(&dir);
    if let Some(n) = shards {
        cfg.shards = n.max(1);
    }
    serve::install_signal_handlers();
    let fleet = match Fleet::start(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("spa-fleet: start failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "spa-fleet: {} shards under {}, listening on {}",
        fleet.router().shards(),
        dir.display(),
        socket.display()
    );
    if let Err(e) = run_fleet_socket(Path::new(&socket), &fleet, &serve::TERMINATE) {
        eprintln!("spa-fleet: socket front failed: {e}");
        std::process::exit(1);
    }
    eprintln!("spa-fleet: stopped");
    obs::finish();
}
