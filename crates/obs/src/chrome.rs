//! Chrome trace-event export: every span close becomes one complete
//! (`"ph":"X"`) event in the JSON-array format that `chrome://tracing`
//! and Perfetto load directly, so a slow codesign can be decomposed
//! visually instead of from aggregate tables.
//!
//! Enabled by pointing `OBS_TRACE_OUT` at a file (requires
//! `OBS_LEVEL>=summary` — spans are not timed at `off`). Events buffer
//! in memory (bounded; overflow is counted, newest events dropped) and
//! the file is written by [`crate::finish`] or [`flush`]. Timestamps
//! are microseconds since the collector epoch; `tid` is a small
//! per-thread ordinal assigned at first use.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Cap on buffered events (~100 bytes each → a few MiB worst case).
const MAX_EVENTS: usize = 262_144;

struct State {
    path: PathBuf,
    events: Vec<String>,
    overflow: u64,
}

/// `ACTIVE` encoding: 0 = uninit (read env), 1 = off, 2 = on.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn state() -> &'static Mutex<Option<State>> {
    static S: OnceLock<Mutex<Option<State>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

/// `true` when a trace output file is configured (one relaxed load
/// after initialization).
pub(crate) fn active() -> bool {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let path = std::env::var("OBS_TRACE_OUT")
                .ok()
                .filter(|p| !p.trim().is_empty())
                .map(PathBuf::from);
            set_trace_out(path.as_deref());
            ACTIVE.load(Ordering::Relaxed) == 2
        }
    }
}

/// Points the Chrome trace export at `path` (`None` disables).
/// Overrides `OBS_TRACE_OUT`; buffered events are discarded.
pub fn set_trace_out(path: Option<&Path>) {
    let mut g = state().lock().unwrap_or_else(|e| e.into_inner());
    match path {
        Some(p) => {
            *g = Some(State {
                path: p.to_path_buf(),
                events: Vec::new(),
                overflow: 0,
            });
            ACTIVE.store(2, Ordering::Relaxed);
        }
        None => {
            *g = None;
            ACTIVE.store(1, Ordering::Relaxed);
        }
    }
}

/// Small stable ordinal for the calling thread.
fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Buffers one complete ("X") event for a closed span.
pub(crate) fn span_event(name: &str, ts_ns: u64, dur_ns: u64, trace: u64) {
    let mut g = state().lock().unwrap_or_else(|e| e.into_inner());
    let Some(st) = g.as_mut() else { return };
    if st.events.len() >= MAX_EVENTS {
        st.overflow += 1;
        return;
    }
    let mut e = String::with_capacity(96);
    let _ = write!(
        e,
        "{{\"ph\":\"X\",\"name\":{},\"cat\":\"span\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}",
        crate::json::quote(name),
        ts_ns as f64 / 1e3,
        dur_ns as f64 / 1e3,
        std::process::id(),
        tid(),
    );
    if trace != 0 {
        let _ = write!(e, ",\"args\":{{\"trace\":{trace}}}");
    }
    e.push('}');
    st.events.push(e);
}

/// Writes the buffered events as one JSON array to the configured file
/// (atomically replacing it) and clears the buffer. Returns the number
/// of events written; 0 when disabled or empty. Called by
/// [`crate::finish`]; long-running servers can call it periodically —
/// each flush rewrites the file with the events since the previous one.
pub fn flush() -> usize {
    let (path, events, overflow) = {
        let mut g = state().lock().unwrap_or_else(|e| e.into_inner());
        let Some(st) = g.as_mut() else { return 0 };
        if st.events.is_empty() {
            return 0;
        }
        (
            st.path.clone(),
            std::mem::take(&mut st.events),
            std::mem::replace(&mut st.overflow, 0),
        )
    };
    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 8);
    out.push_str("[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    if overflow > 0 {
        eprintln!("obs: chrome trace buffer overflowed, {overflow} events dropped");
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if std::fs::write(&path, out).is_err() {
        crate::sink::record_error();
        return 0;
    }
    events.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chrome export state is process-global; tests serialize.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_export_buffers_nothing() {
        let _g = serial();
        set_trace_out(None);
        span_event("quiet", 0, 10, 0);
        assert_eq!(flush(), 0);
    }

    #[test]
    fn events_flush_as_a_json_array() {
        let _g = serial();
        let dir = std::env::temp_dir().join(format!("obs_chrome_{}", std::process::id()));
        let path = dir.join("trace.json");
        set_trace_out(Some(&path));
        span_event("alpha", 1_000, 2_500, 7);
        span_event("beta", 4_000, 1_000, 0);
        assert_eq!(flush(), 2);
        let text = std::fs::read_to_string(&path).expect("trace file");
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"alpha\""));
        assert!(text.contains("\"ts\":1.000"));
        assert!(text.contains("\"dur\":2.500"));
        assert!(text.contains("\"args\":{\"trace\":7}"));
        assert!(!text.contains("alpha,")); // events are comma-separated lines
        assert_eq!(flush(), 0, "buffer drained");
        set_trace_out(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
