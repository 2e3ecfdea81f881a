//! The workspace's one worker pool.
//!
//! The co-design searches of Section VI-G sweep hundreds of hardware
//! candidates times thousands of segmentation candidates, and the MILP
//! engine fans each wave of branch-and-bound node relaxations out the
//! same way; every task is independent of its siblings. [`DsePool`] is
//! a scoped-thread worker pool (`std::thread::scope`, std-only) whose
//! [`DsePool::par_map`] evaluates a task vector concurrently while
//! preserving input order. Work derives only from the task's *index*
//! (never from which worker picked it up), so the result is
//! bit-identical to the serial path for any thread count.
//!
//! The pool lives in `obs` because everything it does besides running
//! tasks is telemetry and fault injection: `dse.par_map` spans,
//! per-candidate timing, trace-id re-propagation into workers, and the
//! `dse.worker` fault point with its recovery pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Parses a thread-count override (the `DSE_THREADS` convention): a
/// positive integer; anything else means "no override".
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker count used when none is configured: the `DSE_THREADS`
/// environment variable if set to a positive integer, otherwise all
/// available cores (1 if even that is unknown).
pub fn default_threads() -> usize {
    parse_threads(std::env::var("DSE_THREADS").ok().as_deref()).unwrap_or_else(|| {
        thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A fixed-width scoped-thread worker pool for candidate evaluation.
///
/// The pool is a value, not a resource: threads are spawned per
/// [`DsePool::par_map`] call inside a `std::thread::scope`, so borrowed
/// candidate data needs no `'static` bound and panics propagate to the
/// caller.
///
/// # Determinism
///
/// `par_map(items, f)` calls `f(index, &items[index])` exactly once per
/// item and returns results in item order. Workers race only over *which*
/// index they pick up next; `f` never observes a worker identity. Any
/// function that is deterministic per index therefore yields output
/// bit-identical to `items.iter().enumerate().map(..)` — the property the
/// `threads = 1` equivalence tests pin down.
///
/// # Example
///
/// ```
/// use obs::pool::DsePool;
///
/// let squares = DsePool::new(4).par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePool {
    threads: usize,
}

impl DsePool {
    /// A pool running `threads` workers (minimum 1; 1 = fully serial, no
    /// threads are spawned).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`] (`DSE_THREADS` or all cores).
    pub fn from_env() -> Self {
        Self::new(default_threads())
    }

    /// The serial pool: `par_map` degenerates to an in-place `map`.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool, returning results in item order.
    ///
    /// See the type-level documentation for the determinism contract.
    ///
    /// # Panics
    ///
    /// If `f` panics for any item the panic is propagated to the caller
    /// when the scope joins.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let _span = crate::span!("dse.par_map", items = items.len(), threads = self.threads);
        if self.threads <= 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    // `dse.worker` fault point, serial flavor: the dying
                    // worker *is* the recovery path, so injection and
                    // recovery coincide — the result is still computed.
                    if faultsim::armed() && faultsim::hit_at("dse.worker", i as u64) {
                        record_fault("fault.injected");
                        record_fault("fault.recovered");
                    }
                    // obs-gated timing, telemetry only; lint: allow(nondet-time)
                    let t0 = crate::enabled().then(std::time::Instant::now);
                    let r = f(i, t);
                    if let Some(t0) = t0 {
                        crate::record("dse.candidate_ns", t0.elapsed().as_nanos() as u64);
                        crate::add("dse.candidates", 1);
                    }
                    r
                })
                .collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        // The trace id is thread-local and does not cross spawns: re-set
        // the caller's id in every worker so flight notes and Chrome
        // spans emitted inside candidate evaluation stay attributed to
        // the request that fanned out.
        let trace = crate::current_trace();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    crate::set_trace(trace);
                    let mut claimed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // `dse.worker` fault point: a scripted worker death
                        // abandons the claimed slot and ends this worker.
                        // Surviving workers keep draining the queue; the
                        // post-join pass below re-evaluates the hole.
                        if faultsim::armed() && faultsim::hit_at("dse.worker", i as u64) {
                            record_fault("fault.injected");
                            break;
                        }
                        claimed += 1;
                        // obs-gated timing, telemetry only; lint: allow(nondet-time)
                        let t0 = crate::enabled().then(std::time::Instant::now);
                        let result = f(i, &items[i]);
                        if let Some(t0) = t0 {
                            crate::record("dse.candidate_ns", t0.elapsed().as_nanos() as u64);
                            crate::add("dse.candidates", 1);
                        }
                        // Poison recovery: each slot is written exactly
                        // once, so a panic in another worker's `f` cannot
                        // leave this slot half-written.
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                    }
                    // Per-worker utilization: how evenly the queue drained.
                    crate::record("dse.worker_items", claimed);
                });
            }
        });
        // Recovery pass: any slot a dead worker abandoned (the
        // `dse.worker` fault — or, defensively, any future bug with the
        // same signature) is re-evaluated inline. `f` depends only on
        // the index, so the late evaluation is bit-identical to the one
        // the lost worker would have produced.
        slots
            .into_iter()
            .enumerate()
            .map(
                |(i, slot)| match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                    Some(r) => r,
                    None => {
                        record_fault("fault.recovered");
                        f(i, &items[i])
                    }
                },
            )
            .collect()
    }
}

/// Bumps the given fault counter and emits the matching `obs` event for
/// the `dse.worker` fault point (injection and recovery share the shape).
fn record_fault(what: &'static str) {
    crate::add(what, 1);
    crate::event(what, &[("point", "dse.worker".into())]);
}

impl Default for DsePool {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("auto")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
        assert!(default_threads() >= 1);
    }
}
