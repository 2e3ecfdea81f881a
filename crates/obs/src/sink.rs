//! JSONL sink: one line per event/span/summary record, written to the
//! file named by `OBS_OUT` (parent directories are created), to an
//! in-memory buffer (tests), or dropped when neither is configured.
//! Sink failures disable the sink silently — instrumentation must never
//! take a run down.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Times the sink degraded to [`Target::Drop`] after a write failure
/// (real or injected via the `obs.sink` fault point).
static SINK_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Number of sink write failures observed so far in this process. The
/// sink degrades to dropping lines on the first failure; the count stays
/// as the record that telemetry was lost.
pub fn sink_errors() -> u64 {
    SINK_ERRORS.load(Ordering::Relaxed)
}

/// Counts a telemetry-output failure from another module (flight-dump
/// or Chrome-trace write paths) in the same degradation counter.
pub(crate) fn record_error() {
    SINK_ERRORS.fetch_add(1, Ordering::Relaxed);
}

enum Target {
    /// No sink configured (or the configured one failed): drop lines.
    Drop,
    File(BufWriter<File>),
    Memory(Vec<String>),
}

/// `None` until first use, then lazily resolved from `OBS_OUT`.
static SINK: OnceLock<Mutex<Option<Target>>> = OnceLock::new();

fn sink() -> &'static Mutex<Option<Target>> {
    SINK.get_or_init(|| Mutex::new(None))
}

fn open_path(path: &Path) -> Target {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match File::create(path) {
        Ok(f) => Target::File(BufWriter::new(f)),
        Err(_) => Target::Drop,
    }
}

fn from_env() -> Target {
    match std::env::var("OBS_OUT") {
        Ok(p) if !p.trim().is_empty() => open_path(Path::new(&p)),
        _ => Target::Drop,
    }
}

/// Points the sink at `path`, truncating it. Overrides `OBS_OUT`.
pub fn set_sink_path(path: &Path) {
    let mut g = sink().lock().unwrap_or_else(|e| e.into_inner());
    *g = Some(open_path(path));
}

/// Switches the sink to an in-memory buffer readable with
/// [`take_memory_lines`]. Intended for tests.
pub fn set_sink_memory() {
    let mut g = sink().lock().unwrap_or_else(|e| e.into_inner());
    *g = Some(Target::Memory(Vec::new()));
}

/// Drains and returns the in-memory sink's lines (empty unless
/// [`set_sink_memory`] is active).
pub fn take_memory_lines() -> Vec<String> {
    let mut g = sink().lock().unwrap_or_else(|e| e.into_inner());
    match g.as_mut() {
        Some(Target::Memory(lines)) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

thread_local! {
    /// Re-entrancy guard: the `obs.sink` fault point fires while the
    /// sink lock is held, and the faultsim injection hook may itself
    /// try to write (the flight recorder's first-fault dump). A
    /// re-entrant write on the same thread is dropped instead of
    /// deadlocking.
    static IN_WRITE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Appends one JSONL line (the newline is added here).
pub(crate) fn write_line(line: &str) {
    if IN_WRITE.with(|f| f.replace(true)) {
        return;
    }
    write_line_inner(line);
    IN_WRITE.with(|f| f.set(false));
}

fn write_line_inner(line: &str) {
    let mut g = sink().lock().unwrap_or_else(|e| e.into_inner());
    let target = g.get_or_insert_with(from_env);
    // `obs.sink` fault point: a scripted write failure behaves exactly
    // like a real one — the sink degrades to Drop and the error counter
    // records the loss. Instrumentation must never take a run down.
    if !matches!(target, Target::Drop) && faultsim::hit("obs.sink") {
        *target = Target::Drop;
        SINK_ERRORS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    match target {
        Target::Drop => {}
        Target::File(w) => {
            if writeln!(w, "{line}").is_err() {
                *target = Target::Drop;
                SINK_ERRORS.fetch_add(1, Ordering::Relaxed);
            }
        }
        Target::Memory(lines) => lines.push(line.to_string()),
    }
}

/// Flushes a file-backed sink (no-op otherwise).
pub(crate) fn flush() {
    let mut g = sink().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(Target::File(w)) = g.as_mut() {
        // The sink mutex exists to serialize writer access; flushing the
        // file under it *is* the protocol, and flush() is only called at
        // epoch boundaries, never on the request path.
        let _ = w.flush(); // lint: allow(blocking-while-locked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; tests that repoint it must not
    /// interleave (and the fault test must own the armed plan).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn file_sink_writes_lines() {
        let _g = serial();
        let dir = std::env::temp_dir().join("obs_sink_test");
        let path = dir.join("nested").join("out.jsonl");
        set_sink_path(&path);
        write_line("{\"t\":\"event\"}");
        flush();
        let text = std::fs::read_to_string(&path).expect("sink file");
        assert_eq!(text, "{\"t\":\"event\"}\n");
        // Leave the sink in memory mode so other tests are unaffected.
        set_sink_memory();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_sink_drains() {
        let _g = serial();
        set_sink_memory();
        write_line("one");
        write_line("two");
        assert_eq!(take_memory_lines(), vec!["one", "two"]);
        assert!(take_memory_lines().is_empty());
    }

    #[test]
    fn injected_sink_fault_degrades_to_drop_and_counts() {
        let _g = serial();
        set_sink_memory();
        let _ = take_memory_lines();
        let before = sink_errors();
        faultsim::arm("obs.sink@1").expect("plan parses");
        write_line("lost");
        write_line("also dropped: sink already degraded");
        faultsim::disarm();
        assert_eq!(sink_errors(), before + 1, "exactly one failure counted");
        assert!(take_memory_lines().is_empty(), "no line survived the fault");
        // Re-pointing the sink recovers it.
        set_sink_memory();
        write_line("back");
        assert_eq!(take_memory_lines(), vec!["back"]);
    }
}
