//! Structured observability for the AutoSeg DSE and SPA simulators:
//! hierarchical timing spans, counters, histograms, a JSONL event sink
//! and an end-of-run summary report — std-only, no external dependencies.
//!
//! Two pieces of shared infrastructure live here too, because every
//! crate that needs them already depends on `obs`: [`json`], the
//! workspace's one JSON value, parser and writer, and [`pool`], the one
//! worker pool (whose spans, trace propagation and fault point are obs
//! and faultsim hooks).
//!
//! # Model
//!
//! * **Spans** ([`span!`]) time a scope with a monotonic clock. Spans
//!   nest per thread; closing a span charges its duration to the
//!   enclosing span's *child time*, so every span knows both its total
//!   and its *self* time (total minus children).
//! * **Counters** ([`add`]) and **histograms** ([`record`]) aggregate
//!   named integers: cache hits, simplex pivots, branch-and-bound nodes,
//!   per-candidate latencies.
//! * **Events** ([`event`]) are one-line JSONL records (search progress,
//!   incumbent trajectories, best-so-far curves) written to the sink.
//! * The **report** ([`snapshot`] / [`finish`]) merges everything into a
//!   sorted table: per-span total/self time, the top-N hot spans, every
//!   counter and histogram.
//!
//! All state lives in a sharded, lock-cheap global collector; each thread
//! is pinned to one shard, so concurrent emitters rarely contend. Totals
//! are exact: the snapshot merges all shards under their locks.
//!
//! # Level gating
//!
//! The `OBS_LEVEL` environment variable (or [`set_level`]) selects:
//!
//! * `off` (default) — every API is a no-op costing one relaxed atomic
//!   load; no clocks are read.
//! * `summary` — spans/counters/histograms aggregate in memory; [`event`]
//!   lines go to the sink; [`finish`] renders the summary.
//! * `trace` — additionally, every span close is written to the sink.
//!
//! The sink target is the `OBS_OUT` environment variable (e.g.
//! `OBS_OUT=results/obs/run.jsonl`); without it, events are dropped and
//! only the in-memory aggregation remains.
//!
//! # Determinism
//!
//! Instrumentation reads clocks but never feeds timing back into the
//! instrumented code: enabling tracing cannot change a search result
//! (pinned by the `obs_equiv` integration tests in `autoseg`).
//!
//! # Example
//!
//! ```
//! obs::set_level(obs::Level::Summary);
//! obs::reset();
//! {
//!     let _outer = obs::span!("search");
//!     let _inner = obs::span!("evaluate", candidate = 7);
//!     obs::add("candidates", 1);
//!     obs::record("latency_ns", 1250);
//! }
//! let report = obs::snapshot();
//! assert_eq!(report.counter("candidates"), Some(1));
//! assert!(report.span("search").is_some());
//! obs::set_level(obs::Level::Off);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod flight;
mod hdr;
pub mod json;
pub mod pool;
mod report;
mod sink;

pub use chrome::set_trace_out;
pub use flight::{FlightDump, FlightEvent};
pub use hdr::{HdrHist, MAX_RELATIVE_ERROR};
pub use report::{HistRow, Report, SpanRow};
pub use sink::{set_sink_memory, set_sink_path, sink_errors, take_memory_lines};

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Instrumentation level (the `OBS_LEVEL` environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Everything disabled; every API call is a cheap no-op.
    Off,
    /// Aggregate spans/counters/histograms; emit [`event`] lines.
    Summary,
    /// `Summary` plus one sink line per span close.
    Trace,
}

impl Level {
    /// Parses an `OBS_LEVEL` value. Unknown strings mean `Off`.
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" | "on" | "1" => Level::Summary,
            "trace" | "full" | "2" => Level::Trace,
            _ => Level::Off,
        }
    }
}

/// `LEVEL` encoding: 0/1/2 = Off/Summary/Trace, `UNINIT` = read env first.
const UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn level_from(v: u8) -> Level {
    match v {
        1 => Level::Summary,
        2 => Level::Trace,
        _ => Level::Off,
    }
}

/// The current instrumentation level (first call reads `OBS_LEVEL`).
pub fn level() -> Level {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != UNINIT {
        return level_from(v);
    }
    let init = std::env::var("OBS_LEVEL").map_or(Level::Off, |s| Level::parse(&s));
    // A concurrent set_level may race this store; last write wins, and
    // both writes are valid levels — never UNINIT again.
    LEVEL.store(init as u8, Ordering::Relaxed);
    init
}

/// Overrides the instrumentation level (tests, binaries with CLI flags).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// `true` if any instrumentation is active.
#[inline]
pub fn enabled() -> bool {
    level() > Level::Off
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// Per-span aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct Shard {
    spans: HashMap<&'static str, SpanStat>,
    counters: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, HdrHist>,
}

struct Collector {
    shards: Vec<Mutex<Shard>>,
    /// Wall-clock origin for event timestamps (restarted by [`reset`]).
    epoch: Mutex<Instant>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Enough shards that typical worker-pool widths rarely collide.
const SHARDS: usize = 16;

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        epoch: Mutex::new(Instant::now()),
    })
}

/// Nanoseconds since the collector epoch (used for event timestamps).
fn since_epoch_ns() -> u64 {
    let epoch = *collector().epoch.lock().unwrap_or_else(|e| e.into_inner());
    epoch.elapsed().as_nanos() as u64
}

fn my_shard() -> MutexGuard<'static, Shard> {
    // Each thread is pinned round-robin to one shard: no cross-thread
    // contention until more than `SHARDS` threads emit concurrently.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    let idx = IDX.with(|i| *i);
    collector().shards[idx]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Adds `delta` to counter `name`.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    *my_shard().counters.entry(name).or_insert(0) += delta;
}

/// Records one `value` into histogram `name` ([`HdrHist`]: p50/p90/p99/
/// p999 within ~3%). Shard-local; the snapshot merges shards
/// bucket-wise, which preserves quantiles exactly.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    my_shard().hists.entry(name).or_default().record(value);
}

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

thread_local! {
    /// The request trace id active on this thread (0 = none). Always-on
    /// like the flight recorder: attribution must not depend on
    /// `OBS_LEVEL`.
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
}

/// Sets this thread's current trace id (0 clears it). Serving layers
/// mint an id per request and set it around request execution; worker
/// pools re-set it inside spawned workers ([`current_trace`] is
/// thread-local and does not cross thread spawns by itself).
pub fn set_trace(id: u64) {
    TRACE_ID.with(|t| t.set(id));
}

/// This thread's current trace id (0 when none). Flight-recorder notes
/// and Chrome span events capture it automatically.
pub fn current_trace() -> u64 {
    TRACE_ID.with(|t| t.get())
}

/// RAII trace-id scope: sets `id` and restores the previous id on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev: u64,
}

impl TraceGuard {
    /// Enters a trace scope for `id`.
    pub fn enter(id: u64) -> TraceGuard {
        let prev = current_trace();
        set_trace(id);
        TraceGuard { prev }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        set_trace(self.prev);
    }
}

/// Drops all aggregated data and restarts the epoch. The level and sink
/// are untouched. Intended for tests and multi-phase binaries.
pub fn reset() {
    for s in &collector().shards {
        let mut s = s.lock().unwrap_or_else(|e| e.into_inner());
        s.spans.clear();
        s.counters.clear();
        s.hists.clear();
    }
    *collector().epoch.lock().unwrap_or_else(|e| e.into_inner()) = Instant::now();
}

/// Merged snapshot of every shard, sorted hottest-span first.
pub fn snapshot() -> Report {
    let mut spans: HashMap<&'static str, SpanStat> = HashMap::new();
    let mut counters: HashMap<&'static str, u64> = HashMap::new();
    let mut hists: HashMap<&'static str, HdrHist> = HashMap::new();
    for shard in &collector().shards {
        let s = shard.lock().unwrap_or_else(|e| e.into_inner());
        for (k, v) in &s.spans {
            let e = spans.entry(k).or_default();
            e.count += v.count;
            e.total_ns += v.total_ns;
            e.self_ns += v.self_ns;
        }
        for (k, v) in &s.counters {
            *counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &s.hists {
            hists.entry(k).or_default().merge(v);
        }
    }
    Report::build(spans, counters, hists, since_epoch_ns())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// RAII timing scope: created by [`span!`], recorded on drop.
///
/// When instrumentation is off the guard is inert — no clock is read.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a named local"]
pub struct SpanGuard {
    armed: bool,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`span!`] macro.
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { armed: false };
        }
        STACK.with(|s| {
            s.borrow_mut().push(ActiveSpan {
                name,
                start: Instant::now(),
                child_ns: 0,
            })
        });
        SpanGuard { armed: true }
    }

    /// Opens a span with lazily-built attributes, written to the sink at
    /// `trace` level on close. The closure runs only when tracing.
    pub fn enter_with(name: &'static str, attrs: impl FnOnce() -> String) -> SpanGuard {
        if level() < Level::Trace {
            return SpanGuard::enter(name);
        }
        let guard = SpanGuard::enter(name);
        if guard.armed {
            let attrs = attrs();
            if !attrs.is_empty() {
                TRACE_ATTRS.with(|a| a.borrow_mut().push((name, attrs)));
            }
        }
        guard
    }
}

thread_local! {
    /// Pending attribute strings for open trace-level spans (name-keyed,
    /// popped at close; spans of equal name close LIFO per thread).
    static TRACE_ATTRS: RefCell<Vec<(&'static str, String)>> =
        const { RefCell::new(Vec::new()) };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some(span) = STACK.with(|s| s.borrow_mut().pop()) else {
            return; // reset() or an unbalanced stack; drop silently
        };
        let dur_ns = span.start.elapsed().as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(span.child_ns);
        let depth = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            stack.len()
        });
        {
            let mut shard = my_shard();
            let e = shard.spans.entry(span.name).or_default();
            e.count += 1;
            e.total_ns += dur_ns;
            e.self_ns += self_ns;
        }
        if chrome::active() {
            chrome::span_event(
                span.name,
                since_epoch_ns().saturating_sub(dur_ns),
                dur_ns,
                current_trace(),
            );
        }
        if level() >= Level::Trace {
            let attrs = TRACE_ATTRS.with(|a| {
                let mut v = a.borrow_mut();
                match v.iter().rposition(|(n, _)| *n == span.name) {
                    Some(i) => v.remove(i).1,
                    None => String::new(),
                }
            });
            let mut line = format!(
                "{{\"t\":\"span\",\"name\":{},\"ts_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"depth\":{}",
                json::quote(span.name),
                since_epoch_ns().saturating_sub(dur_ns),
                dur_ns,
                self_ns,
                depth,
            );
            if !attrs.is_empty() {
                line.push_str(&format!(",\"attrs\":{}", json::quote(attrs.trim_end())));
            }
            line.push('}');
            sink::write_line(&line);
        }
    }
}

/// Opens a named timing span bound to the enclosing scope.
///
/// ```
/// # obs::set_level(obs::Level::Off);
/// let _span = obs::span!("allocate");
/// let _span2 = obs::span!("evaluate", model = "alexnet", shape = 3);
/// ```
///
/// Attribute expressions are evaluated only at `trace` level.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter_with($name, || {
            let mut s = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    let _ = write!(s, concat!(stringify!($key), "={} "), $value);
                }
            )+
            s
        })
    };
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A JSON-serializable event field value.
#[derive(Debug, Clone)]
pub enum V {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float (non-finite values serialize as `null`).
    F(f64),
    /// String.
    S(String),
    /// Boolean.
    B(bool),
}

impl From<u64> for V {
    fn from(v: u64) -> V {
        V::U(v)
    }
}
impl From<usize> for V {
    fn from(v: usize) -> V {
        V::U(v as u64)
    }
}
impl From<u32> for V {
    fn from(v: u32) -> V {
        V::U(v as u64)
    }
}
impl From<i64> for V {
    fn from(v: i64) -> V {
        V::I(v)
    }
}
impl From<f64> for V {
    fn from(v: f64) -> V {
        V::F(v)
    }
}
impl From<&str> for V {
    fn from(v: &str) -> V {
        V::S(v.to_string())
    }
}
impl From<String> for V {
    fn from(v: String) -> V {
        V::S(v)
    }
}
impl From<bool> for V {
    fn from(v: bool) -> V {
        V::B(v)
    }
}

impl V {
    fn to_json(&self) -> String {
        match self {
            V::U(v) => v.to_string(),
            V::I(v) => v.to_string(),
            V::F(v) if v.is_finite() => format!("{v}"),
            V::F(_) => "null".to_string(),
            V::S(s) => json::quote(s),
            V::B(b) => b.to_string(),
        }
    }
}

/// Writes one structured progress event to the sink (level >= `summary`).
///
/// ```
/// # obs::set_level(obs::Level::Off);
/// obs::event("mip.incumbent", &[("objective", 41.5.into()), ("node", 12u64.into())]);
/// ```
pub fn event(name: &'static str, fields: &[(&str, V)]) {
    if level() < Level::Summary {
        return;
    }
    let mut line = format!(
        "{{\"t\":\"event\",\"name\":{},\"ts_ns\":{}",
        json::quote(name),
        since_epoch_ns()
    );
    for (k, v) in fields {
        line.push_str(&format!(",{}:{}", json::quote(k), v.to_json()));
    }
    line.push('}');
    sink::write_line(&line);
}

/// Takes the end-of-run snapshot and, when enabled, renders it to stderr
/// and appends it as a final `{"t":"summary",...}` line to the sink.
///
/// Returns `None` when instrumentation is off.
pub fn finish() -> Option<Report> {
    if !enabled() {
        return None;
    }
    let report = snapshot();
    sink::write_line(&format!(
        "{{\"t\":\"summary\",\"report\":{}}}",
        report.to_json().render()
    ));
    sink::flush();
    chrome::flush();
    eprintln!("{}", report.render(10));
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Global-state tests must not interleave.
    static TEST_GUARD: StdMutex<()> = StdMutex::new(());

    fn with_level<R>(l: Level, f: impl FnOnce() -> R) -> R {
        let _g = TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let prev = level();
        set_level(l);
        reset();
        let r = f();
        set_level(prev);
        r
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("summary"), Level::Summary);
        assert_eq!(Level::parse(" TRACE "), Level::Trace);
        assert_eq!(Level::parse("bogus"), Level::Off);
        assert_eq!(Level::parse(""), Level::Off);
        assert!(Level::Trace > Level::Summary && Level::Summary > Level::Off);
    }

    #[test]
    fn disabled_apis_are_inert() {
        with_level(Level::Off, || {
            let _s = span!("never");
            add("never", 3);
            record("never", 9);
            event("never", &[("x", 1u64.into())]);
            let r = snapshot();
            assert!(r.spans.is_empty());
            assert!(r.counters.is_empty());
            assert!(finish().is_none());
        });
    }

    #[test]
    fn spans_aggregate_and_nest() {
        with_level(Level::Summary, || {
            {
                let _a = span!("outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _b = span!("inner");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            let r = snapshot();
            let outer = r.span("outer").expect("outer recorded");
            let inner = r.span("inner").expect("inner recorded");
            assert_eq!(outer.count, 1);
            assert_eq!(inner.count, 1);
            assert!(outer.total_ns >= inner.total_ns);
            // Outer self time excludes the inner span (1 ms slack for
            // clock granularity).
            assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
            assert_eq!(inner.self_ns, inner.total_ns);
        });
    }

    #[test]
    fn counters_and_histograms_are_exact_across_threads() {
        with_level(Level::Summary, || {
            const THREADS: u64 = 8;
            const PER: u64 = 1000;
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    scope.spawn(move || {
                        for i in 0..PER {
                            add("n", 1);
                            record("h", t * PER + i);
                            let _s = span!("worker");
                        }
                    });
                }
            });
            let r = snapshot();
            assert_eq!(r.counter("n"), Some(THREADS * PER));
            let h = r.hist("h").expect("histogram recorded");
            assert_eq!(h.count, THREADS * PER);
            let n = THREADS * PER;
            assert_eq!(h.sum, n * (n - 1) / 2);
            assert_eq!(h.min, 0);
            assert_eq!(h.max, n - 1);
            assert_eq!(r.span("worker").unwrap().count, THREADS * PER);
        });
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        with_level(Level::Summary, || {
            for v in 1..=1000u64 {
                record("h", v);
            }
            record("zero", 0);
            let r = snapshot();
            let h = r.hist("h").expect("histogram recorded");
            // Bucket upper bounds: never below the true quantile, at
            // most 1/32 above it, and never past the largest value.
            assert!(h.p50 >= 500 && h.p50 <= 500 + 500 / 32, "p50 {}", h.p50);
            assert!(h.p99 >= 990 && h.p99 <= h.max);
            assert_eq!((h.min, h.max), (1, 1000));
            let z = r.hist("zero").expect("zero recorded");
            assert_eq!((z.min, z.p50, z.p999, z.max), (0, 0, 0, 0));
        });
    }

    #[test]
    fn reset_clears_everything() {
        with_level(Level::Summary, || {
            add("x", 5);
            record("y", 1);
            {
                let _s = span!("z");
            }
            assert!(!snapshot().is_empty());
            reset();
            let r = snapshot();
            assert!(r.is_empty());
            assert_eq!(r.counter("x"), None);
        });
    }

    #[test]
    fn trace_level_writes_span_lines() {
        with_level(Level::Trace, || {
            set_sink_memory();
            {
                let _s = span!("traced", item = 3);
            }
            event("progress", &[("done", 1u64.into()), ("label", "a\"b".into())]);
            let lines = take_memory_lines();
            assert!(lines.iter().any(|l| l.contains("\"t\":\"span\"")
                && l.contains("\"name\":\"traced\"")
                && l.contains("item=3")));
            assert!(lines
                .iter()
                .any(|l| l.contains("\"t\":\"event\"") && l.contains("a\\\"b")));
        });
    }

    #[test]
    fn summary_level_skips_span_lines_but_keeps_events() {
        with_level(Level::Summary, || {
            set_sink_memory();
            {
                let _s = span!("quiet");
            }
            event("loud", &[]);
            let lines = take_memory_lines();
            assert!(!lines.iter().any(|l| l.contains("\"t\":\"span\"")));
            assert!(lines.iter().any(|l| l.contains("\"name\":\"loud\"")));
        });
    }

    #[test]
    fn finish_emits_summary_line_and_report() {
        with_level(Level::Summary, || {
            set_sink_memory();
            add("done", 2);
            let r = finish().expect("enabled");
            assert_eq!(r.counter("done"), Some(2));
            let lines = take_memory_lines();
            assert!(lines.iter().any(|l| l.contains("\"t\":\"summary\"")));
            let rendered = r.render(5);
            assert!(rendered.contains("done"));
        });
    }

    #[test]
    fn value_json_forms() {
        assert_eq!(V::from(3u64).to_json(), "3");
        assert_eq!(V::from(-4i64).to_json(), "-4");
        assert_eq!(V::from(true).to_json(), "true");
        assert_eq!(V::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(V::F(f64::NAN).to_json(), "null");
        assert_eq!(V::from(1.5f64).to_json(), "1.5");
    }
}
