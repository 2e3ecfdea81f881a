//! Parallel design-space-exploration substrate.
//!
//! The co-design searches of Section VI-G sweep hundreds of hardware
//! candidates times thousands of segmentation candidates; every candidate
//! evaluation (segment → allocate → simulate) is independent of its
//! siblings. The sweeps fan out on:
//!
//! * [`DsePool`] — the workspace's scoped-thread worker pool
//!   ([`obs::pool`]), whose [`DsePool::par_map`] preserves input order
//!   and is bit-identical to the serial path for any thread count;
//! * [`split_seed`] — deterministic per-candidate RNG seed derivation
//!   ([`faultsim::rng::split_seed`]), so stochastic candidates stay
//!   reproducible when their evaluation order changes;
//! * [`checkpoint`] and [`control`] — the anytime execution layer
//!   (deadlines, cancellation, resumable checkpoints), with `sweep`, the
//!   one generation loop the engine sweep (checkpoint kind `engine`) and
//!   the co-design methods (kind `codesign`) run on.
//!
//! The workers of the engine sweep and of the co-design searches
//! evaluate the cost model directly; nothing is memoized across
//! candidates.

pub mod checkpoint;
pub mod control;
pub(crate) mod sweep;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use control::{Partial, RunCtl, RunStatus, StopReason};
pub use faultsim::rng::split_seed;
pub use obs::pool::{default_threads, DsePool};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = DsePool::new(threads).par_map(&items, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_passes_the_item_index() {
        let items = ["a", "b", "c", "d"];
        let got = DsePool::new(2).par_map(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn par_map_calls_each_item_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..40).collect();
        let got = DsePool::new(4).par_map(&items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 40);
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = DsePool::new(8).par_map(&[], |_, x: &u32| *x);
        assert!(none.is_empty());
        assert_eq!(DsePool::new(8).par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn pool_clamps_to_at_least_one_worker() {
        assert_eq!(DsePool::new(0).threads(), 1);
        assert_eq!(DsePool::serial().threads(), 1);
    }

    #[test]
    fn default_threads_honors_env_override() {
        // Serialized against itself only: the other tests never depend on
        // a specific DSE_THREADS value.
        std::env::set_var("DSE_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("DSE_THREADS", "not-a-number");
        assert!(default_threads() >= 1, "garbage falls back to cores");
        std::env::set_var("DSE_THREADS", "0");
        assert!(default_threads() >= 1, "zero is not a valid override");
        std::env::remove_var("DSE_THREADS");
        assert!(default_threads() >= 1);
    }

    #[test]
    fn split_seed_is_deterministic_and_spreads() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        let seeds: HashSet<u64> = (0..1000).map(|i| split_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed collisions within one base");
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn injected_worker_death_recovers_bit_identically() {
        let _x = faultsim::exclusive();
        let items: Vec<u64> = (0..33).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 7 + 1).collect();
        // Kill the workers that claim candidates 5 and 20 (parallel), and
        // exercise the coinciding inject/recover on the serial path too.
        for threads in [1, 4] {
            faultsim::arm("dse.worker#5,dse.worker#20").expect("plan parses");
            let got = DsePool::new(threads).par_map(&items, |_, &x| x * 7 + 1);
            assert_eq!(got, expect, "threads = {threads}");
            // Both scripted deaths must appear in the log. Containment,
            // not equality: `exclusive()` serializes *armers*, but other
            // tests' searches running concurrently in this process also
            // cross the armed fault point (and recover transparently),
            // appending their own entries.
            let fired = faultsim::injected();
            for want in ["dse.worker#5", "dse.worker#20"] {
                assert!(
                    fired.iter().any(|f| f == want),
                    "threads = {threads}: {want} missing from {fired:?}"
                );
            }
            faultsim::disarm();
        }
        // Even every worker dying (fault on every index) cannot lose
        // results: the post-join pass re-evaluates all abandoned slots.
        faultsim::arm("dse.worker@*").expect("plan parses");
        let got = DsePool::new(3).par_map(&items, |_, &x| x * 7 + 1);
        faultsim::disarm();
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_supports_borrowed_context() {
        // The scoped pool must accept closures borrowing stack data.
        let context: Vec<u64> = (0..16).map(|i| i * 10).collect();
        let items: Vec<usize> = (0..16).collect();
        let got = DsePool::new(4).par_map(&items, |_, &i| context[i] + 1);
        assert_eq!(got[15], 151);
    }
}
