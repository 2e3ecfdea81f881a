//! End-to-end service tests driving the in-process [`serve::Server`]
//! exactly as the socket/stdio front ends do: raw JSONL request lines
//! in, raw JSONL response lines out.
//!
//! Pinned here:
//!
//! * **Concurrency**: 8 concurrent scripted clients, every request
//!   answered with a terminal response (`done`, typed `partial`, or
//!   typed `error`) — no lost requests, no panics.
//! * **Resume equivalence**: a server stopped mid-`codesign` (the
//!   SIGTERM path: [`serve::Server::shutdown`]) checkpoints the search;
//!   a restarted server resumes it to a result digest **bit-identical**
//!   to an uninterrupted run of the same request.
//! * **Deadlines**: a mid-request `deadline_ms` produces a typed
//!   `partial` with `reason:"deadline"`, never a hang or a panic.
//! * **Cancel entries**: a finished request leaves none behind (entries
//!   are registered before a job is worker-visible), so a later
//!   `cancel` of its id answers `cancelled: false`.
//! * **Fronts**: a `--stdio` session answers while its input is idle and
//!   answers everything admitted before EOF; over a socket, each answer
//!   is written the moment it is ready (closed-loop round trips, 4,000
//!   requests pipelined before any read), and a `shutdown` request wakes
//!   idle connections so the server returns; a malformed `FAULT_PLAN`
//!   stops both binaries at start-up.

use serve::json::Json;
use serve::testkit::{test_timeout, wait_until};
use serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("serve-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

fn eval_line(id: u64, k: usize, extra: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"req\":\"eval_pu\",\"dataflow\":\"best\",\
         \"layer\":{{\"in_c\":{},\"in_h\":14,\"in_w\":14,\"out_c\":{},\"out_h\":14,\"out_w\":14,\
         \"kernel\":3,\"stride\":1,\"groups\":1,\"is_fc\":false}},\
         \"pu\":{{\"rows\":16,\"cols\":16}}{extra}}}",
        8 * (k % 7 + 1),
        16 * (k % 5 + 1)
    )
}

/// `mip-baye` runs one generation per hardware candidate (plus the seed
/// generations), so `hw_iters` controls how many cancellation/deadline
/// boundaries the search crosses — unlike `mip-heuristic`, whose whole
/// search is a single generation.
fn codesign_line(id: u64, method: &str, hw_iters: usize, seg_iters: usize, extra: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"req\":\"codesign\",\"model\":\"alexnet\",\
         \"budget\":\"eyeriss\",\"method\":\"{method}\",\
         \"hw_iters\":{hw_iters},\"seg_iters\":{seg_iters},\"seed\":3{extra}}}"
    )
}

/// Reads response lines until every id in `ids` has a terminal response
/// (`done` | `partial` | `error`); `progress` events are skipped. The
/// channel interleaves responses of concurrently outstanding requests,
/// so waiting for several ids must collect, not filter.
fn collect_terminals(
    answers: &Receiver<String>,
    ids: &[u64],
) -> std::collections::BTreeMap<u64, Json> {
    // One SERVE_TEST_TIMEOUT_MS budget covers the whole collection, with
    // short receive ticks — no per-line hardcoded deadline to flake on.
    let deadline = std::time::Instant::now() + test_timeout();
    let mut out = std::collections::BTreeMap::new();
    while out.len() < ids.len() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out; missing terminal responses for {ids:?} (have {:?})",
            out.keys().collect::<Vec<_>>()
        );
        let Ok(line) = answers.recv_timeout(Duration::from_millis(100)) else {
            continue;
        };
        let v = serve::json::parse(&line).expect("response line is JSON");
        let id = v.get("id").and_then(Json::as_u64).expect("response id");
        match v.get("kind").and_then(Json::as_str) {
            Some("progress") => continue,
            Some(_) if ids.contains(&id) => {
                out.insert(id, v);
            }
            Some(_) => panic!("terminal response for unexpected id {id}: {line}"),
            None => panic!("response without kind: {line}"),
        }
    }
    out
}

/// Waits for the terminal response to `id` — only safe when `id` is the
/// sole outstanding request on this client.
fn terminal_for(answers: &Receiver<String>, id: u64) -> Json {
    collect_terminals(answers, &[id]).remove(&id).expect("collected")
}

fn status_of(client: &serve::Client, answers: &Receiver<String>, id: u64) -> Json {
    client.submit(&format!("{{\"v\":1,\"id\":{id},\"req\":\"status\"}}"));
    let v = terminal_for(answers, id);
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"));
    v.get("result").expect("status result").clone()
}

#[test]
fn eight_concurrent_clients_every_request_answered() {
    let server = Server::start(ServeConfig {
        workers: 2,
        threads: 2,
        ..ServeConfig::default()
    });
    let answered: Vec<(u64, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0u64..8)
            .map(|c| {
                let (client, answers) = server.client();
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0u64..3 {
                        let id = 100 * c + i;
                        // A mix of plain, prioritized and deadlined work.
                        let extra = match i {
                            0 => String::new(),
                            1 => format!(",\"priority\":{}", c % 3),
                            _ => ",\"deadline_ms\":30000".to_string(),
                        };
                        client.submit(&eval_line(id, usize::try_from(c + i).expect("small"), &extra));
                    }
                    let ids: Vec<u64> = (0u64..3).map(|i| 100 * c + i).collect();
                    for (id, v) in collect_terminals(&answers, &ids) {
                        let kind = v
                            .get("kind")
                            .and_then(Json::as_str)
                            .expect("kind")
                            .to_string();
                        out.push((id, kind));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(answered.len(), 24, "every request got a terminal response");
    for (id, kind) in &answered {
        assert!(
            kind == "done" || kind == "partial",
            "request {id} answered {kind}"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn interrupted_codesign_resumes_bit_identical_after_restart() {
    // Uninterrupted reference run.
    let ref_dir = tmpdir("codesign-ref");
    let reference = {
        let server = Server::start(ServeConfig {
            workers: 1,
            threads: 1,
            cache_dir: Some(ref_dir.clone()),
            ..ServeConfig::default()
        });
        let (client, answers) = server.client();
        client.submit(&codesign_line(1, "mip-baye", 40, 48, ""));
        let v = terminal_for(&answers, 1);
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"), "{v:?}");
        let digest = v
            .get("result")
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_str)
            .expect("digest")
            .to_string();
        server.shutdown();
        server.join();
        digest
    };

    // Same request, stopped mid-flight by shutdown (the SIGTERM path),
    // then resumed by a restarted server against the same cache dir.
    let dir = tmpdir("codesign-cut");
    let cfg = || ServeConfig {
        workers: 1,
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let first = {
        let server = Server::start(cfg());
        let (client, answers) = server.client();
        client.submit(&codesign_line(1, "mip-baye", 40, 48, ""));
        // Wait for the worker to pick the search up (its `progress`
        // event), then pull the plug mid-flight.
        let line = answers
            .recv_timeout(test_timeout())
            .expect("response while waiting for pickup");
        let v = serve::json::parse(&line).expect("json");
        let terminal = match v.get("kind").and_then(Json::as_str) {
            Some("progress") => None,
            // The whole search finished before we saw the pickup.
            Some(_) => Some(v),
            None => panic!("response without kind: {line}"),
        };
        server.shutdown();
        let v = terminal.unwrap_or_else(|| terminal_for(&answers, 1));
        server.join();
        v
    };
    let digest = match first.get("kind").and_then(Json::as_str) {
        // The shutdown landed mid-search: a typed partial, and the
        // checkpoint is on disk. Resume must finish the exact search.
        Some("partial") => {
            assert_eq!(
                first.get("reason").and_then(Json::as_str),
                Some("cancelled"),
                "{first:?}"
            );
            let server = Server::start(cfg());
            let (client, answers) = server.client();
            client.submit(&codesign_line(2, "mip-baye", 40, 48, ""));
            let v = terminal_for(&answers, 2);
            assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"), "{v:?}");
            let d = v
                .get("result")
                .and_then(|r| r.get("digest"))
                .and_then(Json::as_str)
                .expect("digest")
                .to_string();
            server.shutdown();
            server.join();
            d
        }
        // The search beat the shutdown; its digest still pins equality.
        Some("done") => first
            .get("result")
            .and_then(|r| r.get("digest"))
            .and_then(Json::as_str)
            .expect("digest")
            .to_string(),
        other => panic!("unexpected terminal kind {other:?}: {first:?}"),
    };
    assert_eq!(
        digest, reference,
        "resumed codesign must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn mid_request_deadline_yields_typed_partial() {
    let server = Server::start(ServeConfig {
        workers: 1,
        threads: 1,
        ..ServeConfig::default()
    });
    let (client, answers) = server.client();
    // A deliberately over-budget search under a tight deadline: the
    // worker starts it (the deadline has not expired at pickup) and the
    // search stops cooperatively at a generation boundary.
    client.submit(&codesign_line(1, "mip-baye", 4000, 48, ",\"deadline_ms\":50"));
    let v = terminal_for(&answers, 1);
    match v.get("kind").and_then(Json::as_str) {
        Some("partial") => {
            assert_eq!(v.get("reason").and_then(Json::as_str), Some("deadline"), "{v:?}");
            let planned = v.get("planned_gens").and_then(Json::as_u64).expect("planned");
            let completed = v.get("completed_gens").and_then(Json::as_u64).expect("completed");
            assert!(completed < planned, "stopped early: {completed}/{planned}");
        }
        // A fast machine may finish 4000 generations inside 50ms; that
        // is a legal outcome, not a failure — the contract is "answered
        // by deadline, typed, no hang".
        Some("done") => {}
        other => panic!("unexpected terminal kind {other:?}: {v:?}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn finished_evals_leave_no_cancel_entry() {
    // The cancel entry must be registered before the job becomes
    // visible to a worker. An eval completes in microseconds;
    // if the worker's post-response cleanup ran before the submitter's
    // insert, the stale entry would outlive its request, and a `cancel`
    // of the finished id would answer `cancelled: true`.
    let server = Server::start(ServeConfig {
        workers: 2,
        threads: 1,
        ..ServeConfig::default()
    });
    let (client, answers) = server.client();
    // Hammer the one shape: every run races the submitting thread.
    for id in 0..=200u64 {
        client.submit(&eval_line(id, 1, ""));
        let v = terminal_for(&answers, id);
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"), "{v:?}");
    }
    // Cleanup runs after the response is sent, so poll briefly: a stale
    // entry would answer `true` for ever.
    for id in 0..=200u64 {
        let cancel_id = 1000 + id;
        let mut last = Json::Null;
        let gone = wait_until(|| {
            client.submit(&format!(
                "{{\"v\":1,\"id\":{cancel_id},\"req\":\"cancel\",\"target\":{id}}}"
            ));
            last = terminal_for(&answers, cancel_id);
            last.get("result")
                .and_then(|r| r.get("cancelled"))
                .and_then(Json::as_bool)
                == Some(false)
        });
        assert!(gone, "eval {id} left a stale cancel entry: {last:?}");
    }
    server.shutdown();
    server.join();
}

/// Blocking line source for [`serve::run_stdio`]: `read` parks on the
/// channel until the test feeds more bytes, like a terminal would.
struct ChannelReader {
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl std::io::Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(b) => {
                    self.buf = b;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // sender dropped: EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedOut {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("out lock").extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn stdio_session_answers_before_the_next_input_line() {
    // Regression: an interactive client writes one request and waits
    // for its response before writing the next line. run_stdio used to
    // forward responses only after the next submitted line, so this
    // pattern deadlocked against its blocking input read.
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let reader = std::io::BufReader::new(ChannelReader {
        rx,
        buf: Vec::new(),
        pos: 0,
    });
    let out = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let session = {
        let out = SharedOut(std::sync::Arc::clone(&out));
        std::thread::spawn(move || {
            serve::run_stdio(
                reader,
                out,
                ServeConfig {
                    workers: 1,
                    threads: 1,
                    ..ServeConfig::default()
                },
            )
        })
    };
    tx.send(b"{\"v\":1,\"id\":1,\"req\":\"status\"}\n".to_vec())
        .expect("feed request");
    assert!(
        wait_until(|| {
            out.lock()
                .expect("out lock")
                .split(|&b| b == b'\n')
                .any(|l| !l.is_empty())
        }),
        "no response arrived while the input was idle"
    );
    tx.send(b"{\"v\":1,\"id\":2,\"req\":\"shutdown\"}\n".to_vec())
        .expect("feed shutdown");
    drop(tx);
    session
        .join()
        .expect("stdio session thread")
        .expect("stdio session io");
    let text = String::from_utf8(out.lock().expect("out lock").clone()).expect("utf8");
    let ids: Vec<u64> = text
        .lines()
        .map(|l| {
            serve::json::parse(l)
                .expect("response line is JSON")
                .get("id")
                .and_then(Json::as_u64)
                .expect("response id")
        })
        .collect();
    assert!(
        ids.contains(&1) && ids.contains(&2),
        "both requests answered: {text}"
    );
}

#[test]
fn metrics_verb_reports_telemetry_with_stable_rendering() {
    let server = Server::start(ServeConfig {
        workers: 1,
        threads: 1,
        ..ServeConfig::default()
    });
    let (client, answers) = server.client();
    // One eval populates the stage and verb histograms, and its terminal
    // response must echo a server-minted trace id.
    client.submit(&eval_line(1, 1, ""));
    let done = terminal_for(&answers, 1);
    assert_eq!(done.get("kind").and_then(Json::as_str), Some("done"));
    assert!(
        done.get("trace").and_then(Json::as_u64).is_some_and(|t| t > 0),
        "eval response carries a trace id: {done:?}"
    );
    // Raw line, not the parsed value: the wire rendering itself must be
    // canonical (sorted keys at every level), i.e. re-rendering the
    // parsed tree reproduces the line byte for byte.
    client.submit(r#"{"v":1,"id":2,"req":"metrics","flight":true}"#);
    let line = loop {
        let l = answers.recv_timeout(test_timeout()).expect("metrics reply");
        let v = serve::json::parse(&l).expect("json");
        if v.get("id").and_then(Json::as_u64) == Some(2) {
            break l;
        }
    };
    let v = serve::json::parse(&line).expect("metrics line is JSON");
    assert_eq!(v.render(), line, "metrics rendering is canonical/sorted");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"));
    let result = v.get("result").expect("metrics result");
    assert!(
        result.get("uptime_ms").and_then(Json::as_u64).is_some(),
        "{result:?}"
    );
    // Every submitted line records a parse stage; the eval recorded its
    // end-to-end verb latency.
    let parse_count = result
        .get("stages")
        .and_then(|s| s.get("parse_us"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .expect("stages.parse_us.count");
    assert!(parse_count >= 2, "{result:?}");
    let eval_count = result
        .get("verbs")
        .and_then(|s| s.get("eval_pu"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .expect("verbs.eval_pu.count");
    assert!(eval_count >= 1, "{result:?}");
    for q in ["p50", "p90", "p99", "p999"] {
        assert!(
            result
                .get("verbs")
                .and_then(|s| s.get("eval_pu"))
                .and_then(|h| h.get(q))
                .and_then(Json::as_u64)
                .is_some(),
            "verbs.eval_pu.{q} present: {result:?}"
        );
    }
    assert!(result.get("flight").is_some(), "flight dump embedded: {result:?}");
    assert!(result.get("recorder").is_some(), "{result:?}");
    // The extended status surface rides along: uptime, queue high-water
    // mark, deadline-miss counter.
    let st = status_of(&client, &answers, 3);
    assert!(st.get("uptime_ms").and_then(Json::as_u64).is_some(), "{st:?}");
    let hw = st
        .get("queue")
        .and_then(|q| q.get("high_water"))
        .and_then(Json::as_u64)
        .expect("queue.high_water");
    assert!(hw >= 1, "one job was queued: {st:?}");
    assert!(
        st.get("counters")
            .and_then(|c| c.get("deadline_misses"))
            .and_then(Json::as_u64)
            .is_some(),
        "{st:?}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn cancel_interrupts_a_queued_request() {
    // One worker, occupied by a long search; the second request is still
    // queued when the cancel lands, so it answers `partial:cancelled`
    // without running.
    let server = Server::start(ServeConfig {
        workers: 1,
        threads: 1,
        ..ServeConfig::default()
    });
    let (client, answers) = server.client();
    client.submit(&codesign_line(1, "mip-heuristic", 6, 600, ",\"deadline_ms\":2000"));
    client.submit(&eval_line(2, 1, ""));
    client.submit(r#"{"v":1,"id":3,"req":"cancel","target":2}"#);
    let mut resps = collect_terminals(&answers, &[1, 2, 3]);
    let cancel_resp = resps.remove(&3).expect("cancel response");
    assert_eq!(cancel_resp.get("kind").and_then(Json::as_str), Some("done"));
    let v = resps.remove(&2).expect("eval response");
    match v.get("kind").and_then(Json::as_str) {
        Some("partial") => {
            assert_eq!(v.get("reason").and_then(Json::as_str), Some("cancelled"), "{v:?}");
        }
        // Lost the race: the eval ran before the cancel landed. Legal —
        // the cancel then reports found or not depending on exactly when
        // it interleaved with the response, so only the kind is pinned.
        Some("done") => {}
        other => panic!("unexpected terminal kind {other:?}: {v:?}"),
    }
    let first = resps.remove(&1).expect("codesign response");
    assert!(
        matches!(
            first.get("kind").and_then(Json::as_str),
            Some("done") | Some("partial")
        ),
        "{first:?}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn stdio_answers_every_admitted_request_before_eof_ends_the_session() {
    // EOF ends a stdio session the way it ends a socket session: every
    // admitted request answers first, instead of a shutdown at EOF
    // answering queued work `partial: cancelled`.
    let input = std::io::Cursor::new(format!("{}\n", eval_line(1, 1, "")).into_bytes());
    let mut out = Vec::new();
    serve::run_stdio(
        input,
        &mut out,
        ServeConfig {
            workers: 1,
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("stdio session io");
    let text = String::from_utf8(out).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one answer: {text}");
    let v = serve::json::parse(lines[0]).expect("response line is JSON");
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(1), "{v:?}");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"), "{v:?}");
}

/// A [`serve::run_socket`] server on its own thread.
struct Hosted {
    sock: PathBuf,
    /// Receives `run_socket`'s result when it returns.
    stopped: Receiver<std::io::Result<()>>,
}

fn host(name: &str, cfg: ServeConfig) -> Hosted {
    let sock = tmpdir(name).join("serve.sock");
    let (tx, stopped) = std::sync::mpsc::channel();
    let path = sock.clone();
    std::thread::spawn(move || {
        // Stopped by `shutdown` requests, never by this flag.
        static NEVER: AtomicBool = AtomicBool::new(false);
        let _ = tx.send(serve::run_socket(&path, cfg, &NEVER));
    });
    Hosted { sock, stopped }
}

/// Connects to a hosted server (retrying while it binds). Reads and
/// writes fail after the test budget instead of hanging.
fn connect(sock: &Path) -> (BufReader<UnixStream>, UnixStream) {
    let mut stream = None;
    assert!(
        wait_until(|| {
            stream = UnixStream::connect(sock).ok();
            stream.is_some()
        }),
        "server never listened on {}",
        sock.display()
    );
    let stream = stream.expect("connected");
    stream
        .set_read_timeout(Some(test_timeout()))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(test_timeout()))
        .expect("write timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// Reads one response line as JSON.
fn read_json(reader: &mut BufReader<UnixStream>) -> Json {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .expect("answer within the test budget");
    assert!(n > 0, "server hung up");
    serve::json::parse(line.trim()).expect("response line is JSON")
}

/// Shuts a hosted server down over one of its connections and waits for
/// `run_socket` to return.
fn shut_down(hosted: &Hosted, reader: &mut BufReader<UnixStream>, writer: &mut UnixStream) {
    writeln!(writer, "{{\"v\":1,\"id\":999999,\"req\":\"shutdown\"}}").expect("send shutdown");
    let v = read_json(reader);
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(999_999), "{v:?}");
    hosted
        .stopped
        .recv_timeout(test_timeout())
        .expect("run_socket returned after shutdown")
        .expect("run_socket io");
}

#[test]
fn socket_answers_4000_requests_written_before_any_read() {
    // A pump that wrote answers only between its reads would block on
    // its write once the answers filled the socket buffer, while this
    // client blocks on its own: a deadlock.
    const N: u64 = 4000;
    let hosted = host(
        "pipelined",
        ServeConfig {
            workers: 2,
            threads: 1,
            max_inflight: 8192,
            ..ServeConfig::default()
        },
    );
    let (mut reader, mut writer) = connect(&hosted.sock);
    let t0 = Instant::now();
    let mut batch = String::new();
    for id in 0..N {
        batch.push_str(&eval_line(id, usize::try_from(id).expect("small"), ""));
        batch.push('\n');
    }
    writer
        .write_all(batch.as_bytes())
        .expect("every request written before any read");
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..N {
        let v = read_json(&mut reader);
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"), "{v:?}");
        seen.insert(v.get("id").and_then(Json::as_u64).expect("response id"));
    }
    assert_eq!(seen.len() as u64, N, "every request answered once");
    assert!(
        t0.elapsed() < test_timeout(),
        "4000 answers took {:?}",
        t0.elapsed()
    );
    shut_down(&hosted, &mut reader, &mut writer);
}

#[test]
fn socket_closed_loop_round_trips_wait_for_no_tick() {
    // A pump that wrote answers only after its next read returned would
    // make a client that waits for each answer wait out the read timeout
    // on every request.
    let hosted = host(
        "closed",
        ServeConfig {
            workers: 2,
            threads: 1,
            ..ServeConfig::default()
        },
    );
    let (mut reader, mut writer) = connect(&hosted.sock);
    let mut round_trips = Vec::new();
    for id in 0..40u64 {
        let t0 = Instant::now();
        writeln!(writer, "{}", eval_line(id, 1, "")).expect("send");
        let v = read_json(&mut reader);
        round_trips.push(t0.elapsed());
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("done"), "{v:?}");
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median closed-loop round trip {median:?}"
    );
    shut_down(&hosted, &mut reader, &mut writer);
}

#[test]
fn socket_shutdown_wakes_an_idle_connection() {
    // Readers block on their connections. A `shutdown` request has to
    // wake the idle one, or run_socket would wait for it for ever.
    let hosted = host(
        "idle",
        ServeConfig {
            workers: 1,
            threads: 1,
            ..ServeConfig::default()
        },
    );
    let (mut idle_reader, mut idle_writer) = connect(&hosted.sock);
    // One round trip, so the idle connection is served before it idles.
    writeln!(idle_writer, "{{\"v\":1,\"id\":1,\"req\":\"status\"}}").expect("send status");
    assert_eq!(
        read_json(&mut idle_reader)
            .get("kind")
            .and_then(Json::as_str),
        Some("done")
    );
    let (mut reader, mut writer) = connect(&hosted.sock);
    shut_down(&hosted, &mut reader, &mut writer);
    // The server closed the idle connection on its way out.
    let mut line = String::new();
    assert_eq!(
        idle_reader
            .read_line(&mut line)
            .expect("read after shutdown"),
        0,
        "idle connection sees EOF, got {line:?}"
    );
}

#[test]
fn malformed_fault_plan_stops_both_binaries() {
    // A typo in a chaos test's plan must not run with no fault armed.
    let runs: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_spa-serve"), &["--stdio"]),
        (env!("CARGO_BIN_EXE_spa-fleet"), &[]),
    ];
    for (bin, args) in runs {
        let out = std::process::Command::new(bin)
            .args(args)
            .env("FAULT_PLAN", "cache.poison#x#")
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn binary");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{bin} ran with a malformed plan: {err}"
        );
        assert!(
            err.contains("FAULT_PLAN"),
            "{bin} stderr names the plan: {err}"
        );
    }
}
