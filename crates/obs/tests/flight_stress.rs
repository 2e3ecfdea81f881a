//! Multi-thread stress of the sharded `obs` collector and the flight
//! recorder: concurrent writers must lose nothing, tear nothing, and
//! drain into one deterministic total order once they have joined.
//!
//! These tests share the process-global collector and recorder, so they
//! serialize on one guard mutex (the suite may run with multiple test
//! threads).

use std::sync::{Mutex, MutexGuard, OnceLock};

fn guard() -> MutexGuard<'static, ()> {
    static G: OnceLock<Mutex<()>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const THREADS: u64 = 8;
const EVENTS: u64 = 500;

#[test]
fn sharded_counters_and_hdr_survive_contention() {
    let _g = guard();
    obs::set_level(obs::Level::Summary);
    obs::reset();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..EVENTS {
                    obs::add("stress.counter", 1);
                    obs::record("stress.lat", t * EVENTS + i);
                }
            });
        }
    });
    let report = obs::snapshot();
    assert_eq!(report.counter("stress.counter"), Some(THREADS * EVENTS));
    let hdr = report.hist("stress.lat").expect("histogram row");
    assert_eq!(hdr.count, THREADS * EVENTS, "no lost hdr samples");
    // The merged quantiles must match a serially built reference — the
    // per-shard histograms merge bucket-wise without fidelity loss.
    let mut reference = obs::HdrHist::new();
    for v in 0..THREADS * EVENTS {
        reference.record(v);
    }
    assert_eq!(hdr.p50, reference.p50());
    assert_eq!(hdr.p99, reference.p99());
    assert_eq!(hdr.p999, reference.p999());
    obs::reset();
    obs::set_level(obs::Level::Off);
}

#[test]
fn flight_recorder_loses_and_tears_nothing() {
    let _g = guard();
    // Capacity above the per-thread event count: nothing may wrap.
    obs::flight::configure(1024);
    obs::flight::reset();
    // A ring is per live thread: an exited writer's ring is reused by the
    // next writer to start. Every writer holds its own ring (its first
    // note) before any writer may exit, so the eight run concurrently.
    let started = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let started = &started;
            scope.spawn(move || {
                // Each writer runs under its own trace id; a torn slot
                // would mix one writer's payload with another's trace.
                let _trace = obs::TraceGuard::enter(t + 1);
                for i in 0..EVENTS {
                    obs::flight::note("stress.flight", t, i);
                    if i == 0 {
                        started.wait();
                    }
                }
            });
        }
    });
    let dump = obs::flight::drain();
    assert_eq!(dump.dropped, 0, "capacity was sized to hold everything");
    let events: Vec<_> = dump.events.iter().filter(|e| e.name == "stress.flight").collect();
    assert_eq!(events.len() as u64, THREADS * EVENTS, "no lost events");
    // Untorn: every event's payload words and trace id belong to the
    // same writer, and each writer's events appear in program order.
    let mut next_b = [0u64; THREADS as usize];
    let mut last_seq = 0u64;
    for e in &events {
        assert!(e.a < THREADS, "payload a is a writer id");
        assert_eq!(e.trace, e.a + 1, "trace and payload from one writer");
        let t = usize::try_from(e.a).expect("fits");
        assert_eq!(e.b, next_b[t], "writer {t} events in program order");
        next_b[t] += 1;
        assert!(e.seq > last_seq, "global sequence strictly increases");
        last_seq = e.seq;
    }
    // Deterministic post-join drain: a second drain sees the exact same
    // events in the exact same order, and the JSON form is byte-stable.
    let again = obs::flight::drain();
    assert_eq!(dump.events, again.events, "drain is repeatable");
    assert_eq!(dump.to_json(), again.to_json(), "dump JSON is byte-stable");
    obs::flight::reset();
}

#[test]
fn flight_reset_clears_and_sequence_keeps_ordering() {
    let _g = guard();
    obs::flight::configure(64);
    obs::flight::reset();
    obs::flight::note("stress.pre", 1, 1);
    let before = obs::flight::drain();
    assert!(before.events.iter().any(|e| e.name == "stress.pre"));
    let max_seq = before.events.iter().map(|e| e.seq).max().unwrap_or(0);
    obs::flight::reset();
    let cleared = obs::flight::drain();
    assert!(cleared.events.is_empty(), "reset clears every ring");
    obs::flight::note("stress.post", 2, 2);
    let after = obs::flight::drain();
    let post = after.events.iter().find(|e| e.name == "stress.post").expect("post event");
    assert!(post.seq > max_seq, "sequence advances across resets");
    obs::flight::reset();
}
