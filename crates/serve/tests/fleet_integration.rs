//! Chaos-grade integration suite for the `spa-fleet` sharded service.
//!
//! Every test here runs a real fleet: N `spa-serve` child processes
//! (the binary cargo builds for this test), a router consistent-hashing
//! work across them, and the probe loop. The invariants under fire:
//!
//! * **Zero lost accepted requests** — every submitted line gets
//!   exactly one terminal response (`done` | typed `partial` | typed
//!   `error`), through SIGKILL and SIGTERM of individual shards, torn
//!   checkpoint writes, and dropped forwards.
//! * **Bit-identical failover** — a codesign whose owning shard dies
//!   mid-search finishes on the restarted shard with the same result
//!   digest as an uninterrupted run.
//! * **Typed overload** — past the router's hard watermark, requests
//!   shed with `error code:"overloaded"`, never hang or drop.
//!
//! All waits go through `serve::testkit` (`SERVE_TEST_TIMEOUT_MS`).

use serve::fleet::{Fleet, FleetConfig};
use serve::json::Json;
use serve::ring::{route_key, Ring};
use serve::router::FleetSession;
use serve::testkit::{test_timeout, wait_until};
use serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fleet-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

fn fleet_cfg(dir: &std::path::Path) -> FleetConfig {
    let mut cfg = FleetConfig::new(dir);
    cfg.shards = 3;
    cfg.probe_ms = 25;
    cfg.soft_cap = 4096;
    cfg.server_bin = Some(PathBuf::from(env!("CARGO_BIN_EXE_spa-serve")));
    cfg
}

fn eval_line(id: u64, k: usize) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"req\":\"eval_pu\",\"dataflow\":\"best\",\
         \"layer\":{{\"in_c\":{},\"in_h\":14,\"in_w\":14,\"out_c\":{},\"out_h\":14,\"out_w\":14,\
         \"kernel\":3,\"stride\":1,\"groups\":1,\"is_fc\":false}},\
         \"pu\":{{\"rows\":16,\"cols\":16}}}}",
        8 * (k % 7 + 1),
        16 * (k % 5 + 1)
    )
}

fn codesign_line(id: u64, hw_iters: usize, seg_iters: usize) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"req\":\"codesign\",\"model\":\"alexnet\",\
         \"budget\":\"eyeriss\",\"method\":\"mip-baye\",\
         \"hw_iters\":{hw_iters},\"seg_iters\":{seg_iters},\"seed\":3}}"
    )
}

/// Collects one terminal response per id (progress lines are skipped),
/// panicking with the missing set if the testkit budget elapses. Every
/// terminal must be typed: `done`, `partial` with a reason, or `error`
/// with a non-empty code.
fn collect_terminals(answers: &Receiver<String>, ids: &[u64]) -> BTreeMap<u64, Json> {
    let budget = test_timeout();
    let deadline = std::time::Instant::now() + budget;
    let mut out = BTreeMap::new();
    while out.len() < ids.len() {
        assert!(
            std::time::Instant::now() < deadline,
            "lost requests: no terminal for {:?} within {budget:?}",
            ids.iter().filter(|i| !out.contains_key(*i)).collect::<Vec<_>>()
        );
        let Ok(line) = answers.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        let v = serve::json::parse(&line).expect("response line is JSON");
        let id = v.get("id").and_then(Json::as_u64).expect("response id");
        match v.get("kind").and_then(Json::as_str) {
            Some("progress") => continue,
            Some("partial") => {
                assert!(
                    v.get("reason").and_then(Json::as_str).is_some(),
                    "untyped partial: {line}"
                );
                out.insert(id, v);
            }
            Some("error") => {
                let code = v.get("code").and_then(Json::as_str).expect("error code");
                assert!(!code.is_empty(), "untyped error: {line}");
                out.insert(id, v);
            }
            Some("done") => {
                out.insert(id, v);
            }
            other => panic!("unexpected response kind {other:?}: {line}"),
        }
    }
    out
}

/// The headline chaos run: 256 pipelined client sessions across 16 OS
/// threads drive two waves of evals into a 3-shard fleet while the main
/// thread SIGKILLs one shard and SIGTERMs another. Every request must
/// resolve to a typed terminal — the router re-sends work the dead
/// shards accepted but never answered.
#[test]
fn chaos_256_clients_survive_shard_kills_with_zero_lost_requests() {
    const THREADS: u64 = 16;
    const SESSIONS_PER_THREAD: u64 = 16;
    const REQS_PER_WAVE: u64 = 2;
    let dir = tmpdir("chaos");
    let fleet = Fleet::start(fleet_cfg(&dir)).expect("fleet starts");
    let killed_pid = {
        let mut pid = None;
        wait_until(|| {
            pid = fleet.shard_pid(1);
            pid.is_some() && fleet.router().shard_up(1)
        });
        pid.expect("shard 1 running")
    };

    let router = fleet.router();
    let answered: Vec<(u64, String)> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let router = std::sync::Arc::clone(router);
            handles.push(s.spawn(move || {
                let sessions: Vec<(FleetSession, Receiver<String>)> =
                    (0..SESSIONS_PER_THREAD).map(|_| router.session()).collect();
                let mut out = Vec::new();
                for wave in 0..2u64 {
                    // Pipeline the whole wave across all sessions first,
                    // then collect — so kills land on in-flight work.
                    for (si, (session, _)) in sessions.iter().enumerate() {
                        for i in 0..REQS_PER_WAVE {
                            let id = wave * 1000 + 100 + i;
                            let shape = (t as usize) + si + (wave as usize) + (i as usize);
                            session.submit(&eval_line(id, shape % 8));
                        }
                    }
                    for (_, answers) in &sessions {
                        let ids: Vec<u64> =
                            (0..REQS_PER_WAVE).map(|i| wave * 1000 + 100 + i).collect();
                        for (id, v) in collect_terminals(answers, &ids) {
                            let kind = v
                                .get("kind")
                                .and_then(Json::as_str)
                                .expect("kind")
                                .to_string();
                            out.push((id, kind));
                        }
                    }
                }
                out
            }));
        }
        // Chaos from the main thread while the waves are in flight.
        std::thread::sleep(Duration::from_millis(30));
        fleet.kill_shard(1, false); // SIGKILL: no drain, no checkpoint
        assert!(
            wait_until(|| fleet.shard_pid(1).is_some_and(|p| p != killed_pid)),
            "shard 1 was not respawned"
        );
        std::thread::sleep(Duration::from_millis(30));
        fleet.kill_shard(2, true); // SIGTERM: graceful drain path
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let expected = THREADS * SESSIONS_PER_THREAD * 2 * REQS_PER_WAVE;
    assert_eq!(
        answered.len() as u64,
        expected,
        "every request answered exactly once"
    );
    // With the soft cap far above the offered load nothing sheds, and
    // evals are idempotent recomputes — so chaos or not, every single
    // answer is a successful `done`.
    for (id, kind) in &answered {
        assert_eq!(kind, "done", "request {id} answered {kind}");
    }
    assert!(
        wait_until(|| fleet.shard_pid(2).is_some() && fleet.router().shard_up(2)),
        "shard 2 respawned after SIGTERM"
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the shard that owns an in-flight codesign and require the
/// restarted shard to finish it with a digest bit-identical to an
/// uninterrupted single-server run of the same request.
#[test]
fn codesign_failover_resumes_bit_identical_after_owner_shard_dies() {
    // Reference digest from an uninterrupted in-process server — the
    // shard binary runs the identical engine, so digests must agree
    // across the process boundary too.
    let ref_dir = tmpdir("failover-ref");
    let reference = {
        let server = Server::start(ServeConfig {
            workers: 1,
            threads: 1,
            cache_dir: Some(ref_dir.clone()),
            ..ServeConfig::default()
        });
        let (client, answers) = server.client();
        client.submit(&codesign_line(1, 40, 48));
        let digest = loop {
            let line = answers.recv_timeout(test_timeout()).expect("reference result");
            let v = serve::json::parse(&line).expect("json");
            match v.get("kind").and_then(Json::as_str) {
                Some("progress") => continue,
                Some("done") => {
                    break v
                        .get("result")
                        .and_then(|r| r.get("digest"))
                        .and_then(Json::as_str)
                        .expect("digest")
                        .to_string()
                }
                other => panic!("unexpected reference terminal {other:?}: {line}"),
            }
        };
        server.shutdown();
        server.join();
        digest
    };

    let dir = tmpdir("failover");
    let cfg = fleet_cfg(&dir);
    let owner = {
        let env = serve::proto::parse_request(&codesign_line(1, 40, 48)).expect("parses");
        let key = route_key(&env.request).expect("codesign routes");
        Ring::new(cfg.shards, cfg.vnodes).assign(&key)
    };
    let fleet = Fleet::start(cfg).expect("fleet starts");
    assert!(
        wait_until(|| fleet.router().shard_up(owner)),
        "owner shard {owner} up"
    );
    let owner_pid = fleet.shard_pid(owner).expect("owner running");
    let (session, answers) = fleet.router().session();
    session.submit(&codesign_line(1, 40, 48));
    // Wait for the search to be demonstrably in flight on the owner (its
    // first progress event), then pull the plug. If the search is so
    // fast the terminal beats the progress event, the equality check
    // below still pins the digest.
    let line = answers.recv_timeout(test_timeout()).expect("pickup or terminal");
    let v = serve::json::parse(&line).expect("json");
    let terminal = match v.get("kind").and_then(Json::as_str) {
        Some("progress") => {
            assert_eq!(
                v.get("shard").and_then(Json::as_u64),
                Some(owner as u64),
                "progress from the ring-assigned owner: {line}"
            );
            None
        }
        Some(_) => Some(v),
        None => panic!("response without kind: {line}"),
    };
    if terminal.is_none() {
        // SIGTERM: the shard checkpoints the running search, answers a
        // restart-artifact partial the router retries, and dies; the
        // respawned process resumes from the checkpoint.
        assert!(fleet.kill_shard(owner, true), "kill owner shard {owner}");
        assert!(
            wait_until(|| fleet.shard_pid(owner).is_some_and(|p| p != owner_pid)),
            "owner shard respawned"
        );
    }
    let v = terminal
        .unwrap_or_else(|| collect_terminals(&answers, &[1]).remove(&1).expect("terminal"));
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("done"),
        "failover resolves the codesign: {v:?}"
    );
    let digest = v
        .get("result")
        .and_then(|r| r.get("digest"))
        .and_then(Json::as_str)
        .expect("digest");
    assert_eq!(
        digest, reference,
        "resumed codesign must be bit-identical to the uninterrupted run"
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Shard-side torn checkpoint writes plus a router-side dropped forward:
/// everything still resolves typed, and the dropped forward is re-sent
/// by housekeeping.
#[test]
fn injected_faults_resolve_typed_with_no_lost_requests() {
    let dir = tmpdir("faults");
    let mut cfg = fleet_cfg(&dir);
    // Every shard tears its first checkpoint write; that must degrade
    // typed, never panic the shard or hang the router.
    cfg.extra_env = vec![("FAULT_PLAN".to_string(), "ckpt.torn@1".to_string())];
    let fleet = Fleet::start(cfg).expect("fleet starts");
    // Router-side plan: drop the 2nd forward on the floor (the line is
    // accepted but never hits the wire); the probe loop's housekeeping
    // must re-send it. `exclusive` serialises faultsim state against
    // other tests in this process.
    let guard = faultsim::exclusive();
    faultsim::arm("fleet.forward@2").expect("plan parses");
    let (session, answers) = fleet.router().session();
    let ids: Vec<u64> = (1..=8).collect();
    for &id in &ids {
        session.submit(&eval_line(id, id as usize));
    }
    session.submit(&codesign_line(9, 2, 4));
    let mut all = ids.clone();
    all.push(9);
    let resps = collect_terminals(&answers, &all);
    for (id, v) in &resps {
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some("done"),
            "request {id} under injected faults: {v:?}"
        );
    }
    assert!(
        faultsim::injected().iter().any(|f| f.contains("fleet.forward")),
        "the router-side fault actually fired: {:?}",
        faultsim::injected()
    );
    faultsim::disarm();
    drop(guard);
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Past the hard admission watermark the router sheds with a typed
/// `overloaded` error immediately — and recovers: once the burst
/// drains, new work is admitted again.
#[test]
fn overload_sheds_typed_and_recovers() {
    let dir = tmpdir("shed");
    let mut cfg = fleet_cfg(&dir);
    cfg.soft_cap = 1; // hard watermark = 2
    let fleet = Fleet::start(cfg).expect("fleet starts");
    let (session, answers) = fleet.router().session();
    let ids: Vec<u64> = (1..=32).collect();
    for &id in &ids {
        session.submit(&eval_line(id, id as usize));
    }
    let resps = collect_terminals(&answers, &ids);
    let shed = resps
        .values()
        .filter(|v| {
            v.get("kind").and_then(Json::as_str) == Some("error")
                && v.get("code").and_then(Json::as_str) == Some("overloaded")
        })
        .count();
    let done = resps
        .values()
        .filter(|v| v.get("kind").and_then(Json::as_str) == Some("done"))
        .count();
    assert_eq!(shed + done, ids.len(), "typed shed or done, nothing else");
    assert!(
        shed >= 1,
        "a 32-deep pipelined burst over watermark 2 must shed: {done} done"
    );
    assert!(done >= 1, "admitted work still completes under overload");
    // Recovery: the burst has drained, so a fresh request is admitted.
    assert!(wait_until(|| fleet.router().inflight() == 0));
    session.submit(&eval_line(100, 1));
    let v = collect_terminals(&answers, &[100]).remove(&100).expect("terminal");
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("done"),
        "admission recovers after the burst: {v:?}"
    );
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The probe loop waits out its period on the fleet's stop signal, so a
/// shutdown does not wait for a period to end.
#[test]
fn shutdown_wakes_the_maintenance_loops() {
    let dir = tmpdir("stop");
    let mut cfg = fleet_cfg(&dir);
    cfg.probe_ms = 60_000;
    let fleet = Fleet::start(cfg).expect("fleet starts");
    assert!(
        wait_until(|| (0..3).all(|i| fleet.router().shard_up(i))),
        "every shard up"
    );
    let t0 = Instant::now();
    fleet.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "fleet shutdown took {:?}",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
