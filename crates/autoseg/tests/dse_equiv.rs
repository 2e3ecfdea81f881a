//! Determinism contract of the parallel DSE executor: every co-design
//! method, and the AutoSeg engine sweep, must produce *bit-identical*
//! results for any worker count. `threads = 1` is the serial reference
//! path (no threads are spawned), so these tests pin parallel == serial.

use autoseg::codesign::{run_codesign, run_codesign_with, CodesignBudgets, DesignPoint, Method};
use autoseg::dse::DsePool;
use autoseg::{AutoSeg, RunCtl};
use nnmodel::zoo;
use pucost::EvalCache;
use spa_arch::HwBudget;

fn budgets() -> CodesignBudgets {
    CodesignBudgets {
        hw_iters: 32,
        seg_iters: 48,
        seed: 9,
        threads: 1,
    }
}

/// Runs all six methods on one pool, each with a fresh cache.
fn run_all(pool: &DsePool) -> Vec<(&'static str, Vec<DesignPoint>)> {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = budgets();
    let run = |method| {
        run_codesign_with(
            &model,
            &budget,
            &b,
            method,
            pool,
            &EvalCache::default(),
            &RunCtl::none(),
        )
        .unwrap()
        .points
    };
    vec![
        ("mip-heuristic", run(Method::MipHeuristic)),
        ("mip-random", run(Method::MipRandom)),
        ("mip-baye", run(Method::MipBaye)),
        ("baye-heuristic", run(Method::BayeHeuristic)),
        ("baye-baye", run(Method::BayeBaye)),
        ("mip-anneal", run(Method::MipAnneal)),
    ]
}

#[test]
fn parallel_codesign_matches_serial_reference() {
    let serial = run_all(&DsePool::new(1));
    for (name, pts) in &serial {
        assert!(!pts.is_empty(), "{name} produced no points");
    }
    for threads in [2, 4] {
        let parallel = run_all(&DsePool::new(threads));
        for ((name, s), (_, p)) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "{name} diverged at {threads} threads");
        }
    }
}

#[test]
fn public_entry_points_honor_the_threads_field() {
    // The plain (non-`_with`) entry points build their pool from
    // `budgets.threads`; the point clouds must not depend on its value.
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let serial = run_codesign(
        &model,
        &budget,
        &budgets(),
        Method::MipRandom,
        &RunCtl::none(),
    )
    .unwrap()
    .points;
    let parallel = run_codesign(
        &model,
        &budget,
        &CodesignBudgets {
            threads: 4,
            ..budgets()
        },
        Method::MipRandom,
        &RunCtl::none(),
    )
    .unwrap()
    .points;
    assert_eq!(serial, parallel);
}

#[test]
fn shared_cache_reuse_does_not_change_points() {
    // Re-running a search on an already-warm cache must return the same
    // points while serving (almost) everything from memo.
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let pool = DsePool::new(2);
    let cache = EvalCache::default();
    let heuristic = || {
        run_codesign_with(
            &model,
            &budget,
            &budgets(),
            Method::MipHeuristic,
            &pool,
            &cache,
            &RunCtl::none(),
        )
        .unwrap()
        .points
    };
    let cold = heuristic();
    let (cold_hits, cold_misses) = (cache.hits(), cache.misses());
    let warm = heuristic();
    assert_eq!(cold, warm);
    assert_eq!(
        cache.misses(),
        cold_misses,
        "warm rerun should add no new cache entries"
    );
    assert!(cache.hits() > cold_hits);
    assert!(
        cache.hit_rate() > 0.5,
        "hit rate {:.3} after warm rerun",
        cache.hit_rate()
    );
}

#[test]
fn engine_sweep_is_thread_count_invariant() {
    let budget = HwBudget::nvdla_small();
    let serial = AutoSeg::new(budget.clone())
        .max_pus(3)
        .max_segments(4)
        .threads(1)
        .run(&zoo::squeezenet1_0())
        .unwrap();
    for threads in [2, 4] {
        let parallel = AutoSeg::new(budget.clone())
            .max_pus(3)
            .max_segments(4)
            .threads(threads)
            .run(&zoo::squeezenet1_0())
            .unwrap();
        assert_eq!(serial.explored, parallel.explored, "{threads} threads");
        assert_eq!(serial.design, parallel.design, "{threads} threads");
        assert_eq!(serial.report.cycles, parallel.report.cycles);
        assert_eq!(serial.report.seconds, parallel.report.seconds);
        assert_eq!(
            serial.report.energy.total_pj(),
            parallel.report.energy.total_pj()
        );
    }
}
