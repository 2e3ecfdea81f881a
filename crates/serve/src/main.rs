//! `spa-serve` — the evaluation/DSE service binary.
//!
//! Two front ends over the same [`serve::Server`] core:
//!
//! * `spa-serve --stdio` — one session over stdin/stdout (JSONL request
//!   per input line, JSONL responses on output). The mode the offline
//!   harness and `scripts/verify.sh` drive.
//! * `spa-serve --socket PATH` (or `SERVE_SOCKET=PATH spa-serve`) — a
//!   unix-domain socket accepting many concurrent clients, each a JSONL
//!   session. SIGTERM (or a `shutdown` request) shuts down gracefully:
//!   in-flight searches stop at the next generation boundary and
//!   checkpoint into `SERVE_CACHE_DIR`, and a restarted server resumes
//!   interrupted codesigns bit-identically.
//!
//! Both front ends and the SIGTERM handler live in the library
//! ([`serve::run_stdio`], [`serve::run_socket`],
//! [`serve::install_signal_handlers`]) so tests and the `bench_serve`
//! harness drive them in-process; this binary adds argument parsing.
//!
//! Environment: `SERVE_SOCKET`, `SERVE_CACHE_DIR`, `SERVE_MAX_INFLIGHT`,
//! plus the usual `DSE_THREADS` / `OBS_LEVEL` / `OBS_FLIGHT` /
//! `OBS_TRACE_OUT` / `FAULT_PLAN`.

use serve::ServeConfig;
use std::io::BufReader;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: spa-serve --stdio | spa-serve --socket PATH\n\
         (SERVE_SOCKET=PATH is equivalent to --socket PATH)\n\
         env: SERVE_CACHE_DIR, SERVE_MAX_INFLIGHT, DSE_THREADS, OBS_LEVEL, FAULT_PLAN"
    );
    std::process::exit(2);
}

fn serve_socket(path: &Path, cfg: ServeConfig) {
    serve::install_signal_handlers();
    eprintln!("spa-serve: listening on {}", path.display());
    if let Err(e) = serve::run_socket(path, cfg, &serve::TERMINATE) {
        eprintln!("spa-serve: socket session failed: {e}");
        std::process::exit(1);
    }
    eprintln!("spa-serve: stopped");
}

fn main() {
    if let Err(e) = faultsim::arm_from_env() {
        eprintln!("FAULT_PLAN: {e}");
        std::process::exit(2);
    }
    let cfg = ServeConfig::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode: Vec<&str> = args.iter().map(String::as_str).collect();
    match mode.as_slice() {
        ["--stdio"] => {
            // StdinLock is not Send (run_stdio reads on its own thread);
            // wrap the handle instead.
            let stdin = BufReader::new(std::io::stdin());
            let stdout = std::io::stdout();
            if let Err(e) = serve::run_stdio(stdin, stdout.lock(), cfg) {
                eprintln!("spa-serve: stdio session failed: {e}");
                std::process::exit(1);
            }
        }
        ["--socket", path] => serve_socket(Path::new(path), cfg),
        [] => match std::env::var("SERVE_SOCKET") {
            Ok(path) if !path.is_empty() => serve_socket(Path::new(&path), cfg),
            _ => usage(),
        },
        _ => usage(),
    }
    obs::finish();
}
