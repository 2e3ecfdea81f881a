//! End-to-end latency/throughput benchmark of the `spa-serve` service
//! over its unix-domain socket, exercising the request-grained telemetry
//! stack: N concurrent clients pipeline `eval_pu` requests through three
//! phases —
//!
//! * **cold** — a fresh server;
//! * **warm** — the same server, the same request set;
//! * **restart** — the server shut down and rehosted, the same request
//!   set again.
//!
//! The server evaluates the cost model for every request, so no phase
//! differs from another by cache state; the phases differ only by how
//! long the server has run.
//!
//! Per-request latency is measured client-side (submit to terminal
//! response) into [`obs::HdrHist`] quantile histograms; the server-side
//! decomposition of an `eval_pu` (parse, eval, respond) is pulled over
//! the wire with the `metrics` verb. A final interleaved
//! A/B pass measures the overhead of the always-on telemetry by
//! toggling the flight recorder (`obs::flight::configure`) around
//! identical warm workloads — the host runs in-process, so the toggle
//! reaches the serving threads.
//!
//! A fourth stage benchmarks the **fleet**: an in-process [`serve::Fleet`]
//! of `BENCH_SERVE_FLEET` shard processes (default 3) driven through the
//! router — cold/warm/restart phases with per-shard terminal counts (from
//! the `shard` response tag), a SIGKILL and respawn of the busiest shard
//! between warm and restart, and an overload burst past the router's
//! admission watermark for the shed rate. Skipped (with a `fleet:null`
//! report field) only when no `spa-serve` binary is resolvable.
//!
//! Writes `results/BENCH_serve.json`. Knobs: `BENCH_SERVE_CLIENTS`
//! (default 4), `BENCH_SERVE_REQS` (requests per client per phase,
//! default 32), `BENCH_SERVE_FLEET` (shards, default 3); `--clients N` /
//! `--reqs N` / `--fleet N` override the environment.
//!
//! ```text
//! cargo run --release -p experiments --bin bench_serve -- [--clients 4] [--reqs 32] [--fleet 3]
//! ```

use experiments::{flag_parse, write_text};
use obs::HdrHist;
use serve::json::{obj, parse, Json};
use serve::ServeConfig;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// How long a client waits for the full response set of one phase.
const PHASE_TIMEOUT: Duration = Duration::from_secs(120);

fn env_parse(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// One deterministic `eval_pu` request line. `key` selects the layer
/// shape (48 distinct shapes).
fn eval_line(id: u64, key: usize) -> String {
    let k = key % 48;
    format!(
        "{{\"v\":1,\"id\":{id},\"req\":\"eval_pu\",\"dataflow\":\"best\",\
         \"layer\":{{\"in_c\":{},\"in_h\":14,\"in_w\":14,\"out_c\":{},\"out_h\":14,\"out_w\":14,\
         \"kernel\":3,\"stride\":1,\"groups\":1,\"is_fc\":false}},\
         \"pu\":{{\"rows\":16,\"cols\":16}}}}",
        8 + 8 * k,
        16 + 16 * k
    )
}

/// Hosts `serve::run_socket` on its own thread. The server is stopped by
/// sending a `shutdown` request; the returned handle joins once the
/// socket loop has drained.
fn host(sock: PathBuf) -> std::thread::JoinHandle<()> {
    // Host thread only boots the server; trace ids are minted per request
    // inside serve's execute path. lint: allow(untraced-spawn)
    std::thread::spawn(move || {
        // Stopped via the protocol, never via this flag.
        static NEVER: AtomicBool = AtomicBool::new(false);
        if let Err(e) = serve::run_socket(&sock, ServeConfig::from_env(), &NEVER) {
            eprintln!("bench_serve: host failed: {e}");
            std::process::exit(1);
        }
    })
}

fn connect(sock: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(sock) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e; // server still binding
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("bench_serve: cannot connect {}: {e}", sock.display()),
        }
    }
}

/// `true` for a line that terminates a request (`done`/`partial`/`error`).
fn is_terminal(v: &Json) -> bool {
    v.get("kind")
        .and_then(Json::as_str)
        .is_some_and(|k| matches!(k, "done" | "partial" | "error"))
}

/// Sends one request and returns its terminal response value.
fn rpc(sock: &Path, line: &str) -> Json {
    let stream = connect(sock);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut out = stream.try_clone().expect("clone stream");
    writeln!(out, "{line}").expect("send request");
    let mut reader = BufReader::new(stream);
    let deadline = Instant::now() + PHASE_TIMEOUT;
    let mut acc = String::new();
    while Instant::now() < deadline {
        match reader.read_line(&mut acc) {
            Ok(0) => break,
            Ok(_) => {
                let full = std::mem::take(&mut acc);
                if let Ok(v) = parse(full.trim()) {
                    if is_terminal(&v) {
                        return v;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("bench_serve: read failed: {e}"),
        }
    }
    panic!("bench_serve: no terminal response for {line}")
}

/// One phase: `clients` concurrent connections, each pipelining `reqs`
/// requests keyed `key_of(global_index)`, measuring submit→terminal
/// latency per request. Returns wall time, the merged latency histogram,
/// and how many responses carried a server-minted trace id.
fn drive(
    sock: &Path,
    clients: usize,
    reqs: usize,
    key_of: impl Fn(usize) -> usize + Copy + Send + Sync,
) -> (Duration, HdrHist, u64) {
    let t0 = Instant::now();
    let mut merged = HdrHist::new();
    let mut traced = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                // Load-generating clients: attribution happens server-side
                // per request, the client thread has no trace of its own.
                // lint: allow(untraced-spawn)
                scope.spawn(move || {
                    let stream = connect(sock);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                    let mut out = stream.try_clone().expect("clone stream");
                    let mut sent = Vec::with_capacity(reqs);
                    for i in 0..reqs {
                        let id = pucost::util::u64_of(i) + 1;
                        sent.push(Instant::now());
                        writeln!(out, "{}", eval_line(id, key_of(c * reqs + i)))
                            .expect("send request");
                    }
                    let mut hist = HdrHist::new();
                    let mut traced = 0u64;
                    let mut done = 0usize;
                    let mut reader = BufReader::new(stream);
                    let mut acc = String::new();
                    let deadline = Instant::now() + PHASE_TIMEOUT;
                    while done < reqs && Instant::now() < deadline {
                        match reader.read_line(&mut acc) {
                            Ok(0) => break,
                            Ok(_) => {
                                let full = std::mem::take(&mut acc);
                                let v = parse(full.trim()).expect("response is json");
                                if !is_terminal(&v) {
                                    continue;
                                }
                                let id =
                                    v.get("id").and_then(Json::as_u64).expect("terminal has id");
                                let i = usize::try_from(id - 1).expect("id fits");
                                let us = u64::try_from(sent[i].elapsed().as_micros())
                                    .unwrap_or(u64::MAX);
                                hist.record(us);
                                if v.get("trace").and_then(Json::as_u64).is_some() {
                                    traced += 1;
                                }
                                done += 1;
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock
                                        | std::io::ErrorKind::TimedOut
                                ) => {}
                            Err(e) => panic!("bench_serve: read failed: {e}"),
                        }
                    }
                    assert_eq!(done, reqs, "client {c}: phase timed out");
                    (hist, traced)
                })
            })
            .collect();
        for h in handles {
            let (hist, t) = h.join().expect("client thread");
            merged.merge(&hist);
            traced += t;
        }
    });
    (t0.elapsed(), merged, traced)
}

/// One fleet phase: `sessions` router sessions each resolving `reqs`
/// requests sequentially (submit, wait for the terminal), so the
/// router's admission watermark is never crossed by the probe load
/// itself. Returns wall time, the merged latency histogram, and the
/// per-shard terminal counts read off the `shard` response tags.
fn drive_fleet(
    router: &std::sync::Arc<serve::Router>,
    sessions: usize,
    reqs: usize,
    key_of: impl Fn(usize) -> usize + Copy + Send + Sync,
) -> (Duration, HdrHist, Vec<u64>) {
    let t0 = Instant::now();
    let mut merged = HdrHist::new();
    let mut per_shard = vec![0u64; router.shards()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|c| {
                let router = std::sync::Arc::clone(router);
                // Load-generating clients; traces are shard-minted.
                // lint: allow(untraced-spawn)
                scope.spawn(move || {
                    let (session, answers) = router.session();
                    let mut hist = HdrHist::new();
                    let mut shards = vec![0u64; router.shards()];
                    for i in 0..reqs {
                        let id = pucost::util::u64_of(i) + 1;
                        let sent = Instant::now();
                        session.submit(&eval_line(id, key_of(c * reqs + i)));
                        let deadline = Instant::now() + PHASE_TIMEOUT;
                        loop {
                            assert!(
                                Instant::now() < deadline,
                                "bench_serve: fleet request {id} timed out"
                            );
                            let Ok(line) = answers.recv_timeout(Duration::from_millis(50))
                            else {
                                continue;
                            };
                            let v = parse(&line).expect("fleet response is json");
                            if !is_terminal(&v) {
                                continue;
                            }
                            assert_eq!(
                                v.get("kind").and_then(Json::as_str),
                                Some("done"),
                                "fleet probe failed: {line}"
                            );
                            let us = u64::try_from(sent.elapsed().as_micros())
                                .unwrap_or(u64::MAX);
                            hist.record(us);
                            if let Some(s) = v.get("shard").and_then(Json::as_u64) {
                                let s = usize::try_from(s).expect("small");
                                if s < shards.len() {
                                    shards[s] += 1;
                                }
                            }
                            break;
                        }
                    }
                    (hist, shards)
                })
            })
            .collect();
        for h in handles {
            let (hist, shards) = h.join().expect("fleet client thread");
            merged.merge(&hist);
            for (acc, n) in per_shard.iter_mut().zip(shards) {
                *acc += n;
            }
        }
    });
    (t0.elapsed(), merged, per_shard)
}

/// Fleet phase report: the single-server fields plus per-shard counts
/// and throughput split.
fn fleet_phase_json(name: &str, dur: Duration, h: &HdrHist, per_shard: &[u64]) -> (String, Json) {
    let (key, mut base) = phase_json(name, dur, h);
    let secs = dur.as_secs_f64().max(1e-9);
    let counts: Vec<Json> = per_shard.iter().map(|&n| Json::from(n)).collect();
    let rps: Vec<Json> = per_shard
        .iter()
        // Phase counts are tiny; f64 is exact. lint: allow(nondet-time)
        .map(|&n| Json::from(n as f64 / secs))
        .collect();
    if let Json::Obj(m) = &mut base {
        m.insert("per_shard_requests".to_string(), Json::Arr(counts));
        m.insert("per_shard_rps".to_string(), Json::Arr(rps));
    }
    (key, base)
}

/// The fleet benchmark: cold/warm phases, SIGKILL and respawn of the
/// hottest shard, a restart phase, and an overload burst for the shed
/// rate.
fn fleet_bench(shards: usize, sessions: usize, reqs: usize) -> Json {
    use serve::fleet::{Fleet, FleetConfig};
    let dir = std::env::temp_dir().join(format!("bench_serve_fleet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FleetConfig::new(&dir);
    cfg.shards = shards;
    cfg.probe_ms = 25;
    cfg.soft_cap = 8; // sequential probes stay under; the burst does not
    let fleet = match Fleet::start(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_serve: fleet skipped ({e})");
            return Json::Null;
        }
    };
    let router = fleet.router();
    let key_of = |g: usize| g % 48;
    let (cold_d, cold_h, cold_s) = drive_fleet(router, sessions, reqs, key_of);
    println!("   fleet cold:    {:>8.3} s, p99 {} us", cold_d.as_secs_f64(), cold_h.p99());
    let (warm_d, warm_h, warm_s) = drive_fleet(router, sessions, reqs, key_of);
    println!("   fleet warm:    {:>8.3} s, p99 {} us", warm_d.as_secs_f64(), warm_h.p99());

    // Hot restart: SIGKILL the shard that answered the most probes, and
    // let the probe loop respawn it.
    let victim = cold_s
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n)
        .map_or(0, |(i, _)| i);
    let old_pid = fleet.shard_pid(victim);
    fleet.kill_shard(victim, false);
    let respawned = serve::testkit::wait_until(|| {
        fleet.shard_pid(victim).is_some_and(|p| Some(p) != old_pid)
            && fleet.router().shard_up(victim)
    });
    assert!(respawned, "bench_serve: shard {victim} not respawned");
    let (restart_d, restart_h, restart_s) = drive_fleet(router, sessions, reqs, key_of);
    println!(
        "   fleet restart: {:>8.3} s, p99 {} us",
        restart_d.as_secs_f64(),
        restart_h.p99()
    );
    // Overload: one session pipelines far past the hard watermark; the
    // router must answer every line, shedding the excess typed.
    let burst = 64usize;
    let (session, answers) = router.session();
    for i in 0..burst {
        let id = pucost::util::u64_of(i) + 1;
        session.submit(&eval_line(id, key_of(i)));
    }
    let mut shed = 0u64;
    let mut served = 0u64;
    let deadline = Instant::now() + PHASE_TIMEOUT;
    while (shed + served) < pucost::util::u64_of(burst) {
        assert!(Instant::now() < deadline, "bench_serve: overload burst timed out");
        let Ok(line) = answers.recv_timeout(Duration::from_millis(50)) else {
            continue;
        };
        let v = parse(&line).expect("burst response is json");
        if !is_terminal(&v) {
            continue;
        }
        match v.get("kind").and_then(Json::as_str) {
            Some("error") => {
                assert_eq!(
                    v.get("code").and_then(Json::as_str),
                    Some("overloaded"),
                    "untyped burst error: {line}"
                );
                shed += 1;
            }
            _ => served += 1,
        }
    }
    let shed_rate = shed as f64 / burst as f64; // burst is tiny; exact
    println!("   fleet overload: shed {shed}/{burst} ({shed_rate:.3})");

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    obj(vec![
        ("shards", Json::from(shards)),
        ("sessions", Json::from(sessions)),
        ("requests_per_session", Json::from(reqs)),
        (
            "phases",
            Json::Obj(
                [
                    fleet_phase_json("cold", cold_d, &cold_h, &cold_s),
                    fleet_phase_json("warm", warm_d, &warm_h, &warm_s),
                    fleet_phase_json("restart", restart_d, &restart_h, &restart_s),
                ]
                .into_iter()
                .collect(),
            ),
        ),
        ("restart", obj(vec![("victim", Json::from(victim))])),
        (
            "overload",
            obj(vec![
                ("burst", Json::from(burst)),
                ("shed", Json::from(shed)),
                ("served", Json::from(served)),
                ("shed_rate", Json::from(shed_rate)),
            ]),
        ),
    ])
}

fn phase_json(name: &str, dur: Duration, h: &HdrHist) -> (String, Json) {
    let secs = dur.as_secs_f64().max(1e-9);
    // h.count() requests per phase; count is small, f64 is exact.
    let rps = h.count() as f64 / secs; // lint: allow(nondet-time) — reporting only
    (
        name.to_string(),
        obj(vec![
            ("requests", Json::from(h.count())),
            ("seconds", Json::from(secs)),
            ("throughput_rps", Json::from(rps)),
            ("p50_us", Json::from(h.p50())),
            ("p90_us", Json::from(h.p90())),
            ("p99_us", Json::from(h.p99())),
            ("p999_us", Json::from(h.p999())),
            ("max_us", Json::from(h.max())),
        ]),
    )
}

fn main() {
    if let Err(e) = faultsim::arm_from_env() {
        eprintln!("FAULT_PLAN: {e}");
        std::process::exit(2);
    }
    let clients = flag_parse("clients", env_parse("BENCH_SERVE_CLIENTS", 4));
    let reqs = flag_parse("reqs", env_parse("BENCH_SERVE_REQS", 32));
    let fleet_shards = flag_parse("fleet", env_parse("BENCH_SERVE_FLEET", 3));
    let tmp = std::env::temp_dir().join(format!("bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let sock = tmp.join("serve.sock");

    println!("== serve benchmark: {clients} clients x {reqs} requests per phase ==");
    let handle = host(sock.clone());
    // Distinct keys across the whole cold fan-in would need 24+ shapes;
    // reuse within the phase is realistic (concurrent clients probing
    // overlapping candidates) and the warm phase repeats it exactly.
    let (cold_d, cold_h, cold_traced) = drive(&sock, clients, reqs, |g| g);
    println!("   cold:    {:>8.3} s, p99 {} us", cold_d.as_secs_f64(), cold_h.p99());
    let (warm_d, warm_h, warm_traced) = drive(&sock, clients, reqs, |g| g);
    println!("   warm:    {:>8.3} s, p99 {} us", warm_d.as_secs_f64(), warm_h.p99());

    // Telemetry overhead, interleaved best-of-3: the same warm workload
    // with the flight recorder off vs on. Best-of defends the ratio
    // against co-tenant noise — a slow round measures the box, not the
    // recorder.
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..3 {
        obs::flight::configure(0);
        let (d, _, _) = drive(&sock, clients, reqs, |g| g);
        best_off = best_off.min(d.as_secs_f64());
        obs::flight::configure(256);
        let (d, _, _) = drive(&sock, clients, reqs, |g| g);
        best_on = best_on.min(d.as_secs_f64());
    }
    let overhead = best_on / best_off.max(1e-9);
    println!("   telemetry overhead: {overhead:.4}x (off {best_off:.3} s, on {best_on:.3} s)");

    // Server-side decomposition and status before shutdown.
    let metrics = rpc(&sock, "{\"v\":1,\"id\":9001,\"req\":\"metrics\",\"flight\":true}");
    let mresult = metrics.get("result").cloned().unwrap_or(Json::Null);
    let _ = rpc(&sock, "{\"v\":1,\"id\":9002,\"req\":\"shutdown\"}");
    handle.join().expect("host thread");

    // Restart: a new server on the same socket path.
    let handle = host(sock.clone());
    let (restart_d, restart_h, restart_traced) = drive(&sock, clients, reqs, |g| g);
    println!(
        "   restart: {:>8.3} s, p99 {} us",
        restart_d.as_secs_f64(),
        restart_h.p99()
    );
    let status = rpc(&sock, "{\"v\":1,\"id\":9003,\"req\":\"status\"}");
    let sresult = status.get("result").cloned().unwrap_or(Json::Null);
    let _ = rpc(&sock, "{\"v\":1,\"id\":9004,\"req\":\"shutdown\"}");
    handle.join().expect("host thread");
    let _ = std::fs::remove_dir_all(&tmp);

    // The sharded fleet: router + N shard processes + chaos restart.
    println!("== fleet benchmark: {fleet_shards} shards x {clients} sessions x {reqs} requests ==");
    let fleet_block = fleet_bench(fleet_shards, clients, reqs);

    // Every response must carry the server-minted trace id.
    let total = pucost::util::u64_of(clients * reqs);
    assert_eq!(cold_traced, total, "cold responses missing trace ids");
    assert_eq!(warm_traced, total, "warm responses missing trace ids");
    assert_eq!(restart_traced, total, "restart responses missing trace ids");

    // The stages every `eval_pu` passes through on the server.
    let eval_stages = Json::Obj(
        ["parse_us", "eval_us", "respond_us"]
            .into_iter()
            .map(|k| {
                let row = mresult.get("stages").and_then(|s| s.get(k));
                (k.to_string(), row.cloned().unwrap_or(Json::Null))
            })
            .collect(),
    );
    let phases = Json::Obj(
        [
            phase_json("cold", cold_d, &cold_h),
            phase_json("warm", warm_d, &warm_h),
            phase_json("restart", restart_d, &restart_h),
        ]
        .into_iter()
        .collect(),
    );
    let report = obj(vec![
        ("clients", Json::from(clients)),
        ("requests_per_client", Json::from(reqs)),
        ("phases", phases),
        ("eval_stages_us", eval_stages),
        ("overhead", obj(vec![
            ("baseline_s", Json::from(best_off)),
            ("telemetry_s", Json::from(best_on)),
            ("ratio", Json::from(overhead)),
        ])),
        ("server_metrics", mresult),
        ("server_status", sresult),
        ("fleet", fleet_block),
    ]);
    write_text("BENCH_serve.json", &format!("{}\n", report.render()));
    obs::finish();
}
