//! Always-on flight recorder: the last N events per thread in lock-free
//! ring buffers, dumped as sorted-key JSON on panic, on the first
//! injected `FAULT_PLAN` fault, or on demand (the serve `metrics` verb).
//!
//! Unlike the level-gated spans/counters, the recorder runs even at
//! `OBS_LEVEL=off`: when a process dies the question is "what were the
//! last things every thread did", and that answer must not depend on
//! having remembered to enable tracing. The cost budget is accordingly
//! strict — a [`note`] is a few relaxed atomic stores into a
//! thread-owned slot (no locks after a thread's first note), and memory
//! is bounded at `threads x capacity x 40 bytes`, counting only threads
//! alive at once: an exited thread's ring goes on a free list, and the
//! next new thread to note takes it over.
//!
//! # Protocol
//!
//! Each thread owns one ring; only that thread writes it, so slots need
//! a seqlock only against concurrent *readers* (a live dump):
//!
//! * writer: claim the next slot, `seq := 0` (release), store payload,
//!   `seq := global++` (release);
//! * reader: load `seq` (acquire) — 0 means empty/in-flight — read the
//!   payload, re-load `seq`; a mismatch means the writer lapped us and
//!   the slot is skipped rather than surfaced torn.
//!
//! Sequence numbers come from one global counter, so a post-join drain
//! has a deterministic total order regardless of which thread's ring a
//! record sits in.
//!
//! # Knobs
//!
//! `OBS_FLIGHT` sets the per-thread capacity (default 256); `0` or
//! `off` disables the recorder entirely ([`note`] becomes one relaxed
//! load). [`configure`] overrides in-process (benches, tests).

use crate::json::{obj, Json};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// One recorded event, as returned by [`drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global sequence number (total order across all threads).
    pub seq: u64,
    /// Event name as passed to [`note`].
    pub name: &'static str,
    /// Trace id active on the noting thread ([`crate::current_trace`]).
    pub trace: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Result of draining every ring: globally-ordered events plus how many
/// older events had already been overwritten.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Valid events, sorted by ascending `seq`.
    pub events: Vec<FlightEvent>,
    /// Events lost to ring wrap-around (per-ring `writes - capacity`).
    pub dropped: u64,
}

impl FlightDump {
    /// JSON form. Its rendering sorts keys at every level, so two dumps of
    /// the same state are byte-identical. Payload words above 2^53 (the
    /// fault hook's `u64::MAX` marker) are rounded to the nearest `f64`.
    pub fn to_json(&self) -> Json {
        let events = self.events.iter().map(|e| {
            obj(vec![
                ("a", Json::from(e.a)),
                ("b", Json::from(e.b)),
                ("name", Json::from(e.name)),
                ("seq", Json::from(e.seq)),
                ("trace", Json::from(e.trace)),
            ])
        });
        obj(vec![
            ("dropped", Json::from(self.dropped)),
            ("events", Json::Arr(events.collect())),
        ])
    }
}

struct Slot {
    seq: AtomicU64,
    name_id: AtomicU64,
    trace: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            name_id: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

struct Ring {
    slots: Vec<Slot>,
    /// Monotonic count of writes into this ring (wraps → drops).
    writes: AtomicU64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            writes: AtomicU64::new(0),
        }
    }

    /// Single-writer append (only the owning thread calls this).
    fn write(&self, name_id: u32, trace: u64, a: u64, b: u64) {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        slot.seq.store(0, Ordering::Release);
        slot.name_id.store(name_id as u64, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Seqlock read; `None` for empty or torn (mid-overwrite) slots.
    fn read(&self, i: usize) -> Option<FlightEvent> {
        let slot = &self.slots[i];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 {
            return None;
        }
        let name_id = slot.name_id.load(Ordering::Relaxed);
        let trace = slot.trace.load(Ordering::Relaxed);
        let a = slot.a.load(Ordering::Relaxed);
        let b = slot.b.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 != s2 {
            return None;
        }
        Some(FlightEvent {
            seq: s1,
            name: name_for(name_id as u32),
            trace,
            a,
            b,
        })
    }
}

/// Global event sequence; 0 is reserved for "empty slot".
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-thread capacity; `CAP_UNINIT` means "read `OBS_FLIGHT` first".
const CAP_UNINIT: usize = usize::MAX;
/// Upper bound on per-thread capacity (keeps a typo from eating RAM).
const CAP_MAX: usize = 65_536;
static CAP: AtomicUsize = AtomicUsize::new(CAP_UNINIT);

/// Per-thread ring capacity (first call reads `OBS_FLIGHT`; 0 = off).
pub fn capacity() -> usize {
    let c = CAP.load(Ordering::Relaxed);
    if c != CAP_UNINIT {
        return c;
    }
    let c = match std::env::var("OBS_FLIGHT") {
        Ok(s) => {
            let s = s.trim().to_ascii_lowercase();
            if s == "off" || s == "false" {
                0
            } else {
                s.parse::<usize>().unwrap_or(256).min(CAP_MAX)
            }
        }
        Err(_) => 256,
    };
    CAP.store(c, Ordering::Relaxed);
    if c > 0 {
        faultsim::set_hit_hook(fault_hook);
    }
    c
}

/// Overrides the per-thread capacity in-process (0 disables). Threads
/// that already allocated a ring keep its size but honour `0` (their
/// [`note`]s become no-ops while disabled).
pub fn configure(cap: usize) {
    CAP.store(cap.min(CAP_MAX), Ordering::Relaxed);
    if cap > 0 {
        faultsim::set_hit_hook(fault_hook);
    }
}

/// `true` when the recorder is capturing.
pub fn flight_enabled() -> bool {
    capacity() > 0
}

/// Every ring ever registered (rings outlive their threads so a
/// post-join drain still sees their final events).
fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static R: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Rings of exited threads, oldest first. They stay registered, so a
/// drain still sees their events until a new owner overwrites them.
fn free_rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static F: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    F.get_or_init(|| Mutex::new(Vec::new()))
}

/// A ring for a thread's first note: the oldest free ring of capacity
/// `cap`, else a new registered one. Matching the capacity keeps
/// [`configure`] in effect for new threads.
fn claim_ring(cap: usize) -> Arc<Ring> {
    let reused = {
        let mut free = free_rings().lock().unwrap_or_else(|e| e.into_inner());
        let found = free.iter().position(|r| r.slots.len() == cap);
        found.map(|i| free.remove(i))
    };
    reused.unwrap_or_else(|| {
        let new = Arc::new(Ring::new(cap));
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&new));
        new
    })
}

/// A thread's ring, handed to the free list when the thread exits.
struct OwnedRing(Option<Arc<Ring>>);

impl Drop for OwnedRing {
    fn drop(&mut self) {
        if let Some(ring) = self.0.take() {
            free_rings()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(ring);
        }
    }
}

/// Interned event names: a `u32` id fits a slot word and the hot path
/// resolves it from a thread-local cache without taking the table lock.
fn names() -> &'static Mutex<Vec<&'static str>> {
    static N: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    N.get_or_init(|| Mutex::new(Vec::new()))
}

fn intern_slow(name: &'static str) -> u32 {
    let mut table = names().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = table.iter().position(|n| *n == name) {
        return i as u32;
    }
    table.push(name);
    (table.len() - 1) as u32
}

/// Content-based intern for names only known at runtime (the fault
/// hook). New names leak one small allocation each — the set of fault
/// point names in a process is tiny and fixed.
fn intern_dyn(name: &str) -> u32 {
    let mut table = names().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(i) = table.iter().position(|n| *n == name) {
        return i as u32;
    }
    table.push(Box::leak(name.to_string().into_boxed_str()));
    (table.len() - 1) as u32
}

fn name_for(id: u32) -> &'static str {
    let table = names().lock().unwrap_or_else(|e| e.into_inner());
    table.get(id as usize).copied().unwrap_or("?")
}

thread_local! {
    /// (name pointer, interned id) pairs — tiny, linear scan.
    static NAME_CACHE: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    /// This thread's ring (claimed on first note, freed on exit).
    static RING: RefCell<OwnedRing> = const { RefCell::new(OwnedRing(None)) };
    /// Re-entrancy guard for the fault hook (a dump can itself hit
    /// fault points like `obs.sink`).
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

fn intern(name: &'static str) -> u32 {
    let key = name.as_ptr() as usize;
    NAME_CACHE
        .try_with(|c| {
            let mut cache = c.borrow_mut();
            if let Some(&(_, id)) = cache.iter().find(|(k, _)| *k == key) {
                return id;
            }
            let id = intern_slow(name);
            cache.push((key, id));
            id
        })
        .unwrap_or_else(|_| intern_slow(name))
}

/// Records one event into this thread's ring. A few atomic stores when
/// enabled; one relaxed load when `OBS_FLIGHT=0`. The current trace id
/// ([`crate::current_trace`]) is captured automatically.
#[inline]
pub fn note(name: &'static str, a: u64, b: u64) {
    let cap = capacity();
    if cap == 0 {
        return;
    }
    write_event(intern(name), a, b, cap);
}

/// Like [`note`] for a name only known at runtime (interned by content;
/// cold path — the fault hook).
fn note_dyn(name: &str, a: u64, b: u64) {
    let cap = capacity();
    if cap == 0 {
        return;
    }
    write_event(intern_dyn(name), a, b, cap);
}

fn write_event(id: u32, a: u64, b: u64, cap: usize) {
    let trace = crate::current_trace();
    // `try_with`: a note from another thread-local's destructor, after
    // this thread's ring went back to the free list, is dropped.
    let _ = RING.try_with(|r| {
        let mut owned = r.borrow_mut();
        let ring = owned.0.get_or_insert_with(|| claim_ring(cap));
        ring.write(id, trace, a, b);
    });
}

/// Rings allocated so far: one per thread alive at once, not one per
/// thread ever started, since exited threads' rings are reused.
pub fn ring_count() -> usize {
    registry().lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Collects every ring's valid events, sorted by global sequence (a
/// deterministic total order once writer threads have joined), plus the
/// overwrite count.
pub fn drain() -> FlightDump {
    let rings: Vec<Arc<Ring>> = registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut dump = FlightDump::default();
    for ring in &rings {
        let writes = ring.writes.load(Ordering::Acquire);
        dump.dropped += writes.saturating_sub(ring.slots.len() as u64);
        for i in 0..ring.slots.len() {
            if let Some(e) = ring.read(i) {
                dump.events.push(e);
            }
        }
    }
    dump.events.sort_by_key(|e| e.seq);
    dump
}

/// Clears every registered ring (slots and write counts). The global
/// sequence keeps advancing — drains stay ordered across resets.
pub fn reset() {
    let rings = registry().lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        for slot in &ring.slots {
            slot.seq.store(0, Ordering::Release);
        }
        ring.writes.store(0, Ordering::Release);
    }
}

/// Writes `dump` to the JSONL sink as one `{"t":"flight",...}` line.
///
/// The `trace.dump` fault point models a torn/failed dump: it degrades
/// typed — the sink error counter increments, `false` comes back, and
/// nothing panics.
fn sink_dump(dump: &FlightDump) -> bool {
    if faultsim::hit("trace.dump") {
        crate::sink::record_error();
        return false;
    }
    crate::sink::write_line(&format!(
        "{{\"t\":\"flight\",\"flight\":{}}}",
        dump.to_json().render()
    ));
    true
}

/// Drains the recorder and writes it to the sink; `false` when the dump
/// failed (including an injected `trace.dump` fault).
pub fn dump_to_sink() -> bool {
    sink_dump(&drain())
}

/// Installs a chained panic hook that dumps the recorder to stderr and
/// the sink before the previous hook runs. Idempotent.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if flight_enabled() {
                let dump = drain();
                eprintln!(
                    "flight recorder ({} events, {} dropped): {}",
                    dump.events.len(),
                    dump.dropped,
                    dump.to_json().render()
                );
                let _ = sink_dump(&dump);
            }
            prev(info);
        }));
    });
}

/// First-injection dump latch: a `FAULT_PLAN` run dumps the recorder
/// once, at the first injected fault, then keeps noting later ones.
static FAULT_DUMPED: AtomicBool = AtomicBool::new(false);

/// Called by `faultsim` whenever a scripted fault actually fires. Notes
/// the fault into the ring; the first one also dumps to the sink.
fn fault_hook(name: &str) {
    if name == "trace.dump" {
        return; // the dump path's own fault point; never recurse
    }
    let entered = IN_HOOK.with(|f| f.replace(true));
    if entered {
        return;
    }
    note_dyn(name, u64::MAX, 0);
    // `obs.sink` fires from inside the sink lock — noting it is safe,
    // but dumping *to the sink* from there is not (and the sink is
    // degrading anyway). Other faults trigger one dump per process.
    if name != "obs.sink" && !FAULT_DUMPED.swap(true, Ordering::Relaxed) {
        let _ = dump_to_sink();
    }
    IN_HOOK.with(|f| f.set(false));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder state is process-global; these tests serialize.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn notes_drain_in_global_order() {
        let _g = serial();
        configure(64);
        reset();
        note("alpha", 1, 2);
        note("beta", 3, 4);
        note("alpha", 5, 6);
        let d = drain();
        let mine: Vec<_> = d
            .events
            .iter()
            .filter(|e| e.name == "alpha" || e.name == "beta")
            .collect();
        assert_eq!(mine.len(), 3);
        assert!(mine.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(mine[0].name, "alpha");
        assert_eq!(mine[1].name, "beta");
        assert_eq!((mine[2].a, mine[2].b), (5, 6));
        assert_eq!(d.dropped, 0);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = serial();
        configure(64);
        reset();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100u64 {
                    note("wrap", i, i * 2);
                }
            });
        });
        let d = drain();
        let wraps: Vec<_> = d.events.iter().filter(|e| e.name == "wrap").collect();
        assert_eq!(wraps.len(), 64, "ring keeps exactly the last cap events");
        assert_eq!(wraps.last().unwrap().a, 99, "newest survives");
        assert!(wraps.first().unwrap().a >= 36, "oldest overwritten");
        assert_eq!(d.dropped, 36);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = serial();
        configure(0);
        reset();
        note("ghost", 1, 1);
        assert!(drain().events.iter().all(|e| e.name != "ghost"));
        configure(64);
    }

    #[test]
    fn dump_json_is_sorted_key_and_stable() {
        let _g = serial();
        configure(64);
        reset();
        note("json", 7, 8);
        let d = drain();
        let j1 = d.to_json().render();
        let j2 = d.to_json().render();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"dropped\":"));
        assert!(j1.contains("\"a\":7,\"b\":8,\"name\":\"json\""));
        let a = j1.find("\"a\":7").unwrap();
        let s = j1.find("\"seq\":").unwrap();
        assert!(a < s, "keys are alphabetical within an event");
    }
}
