//! Determinism contract of the parallel DSE executor: every co-design
//! method, and the AutoSeg engine sweep, must produce *bit-identical*
//! results for any worker count. `threads = 1` is the serial reference
//! path (no threads are spawned), so these tests pin parallel == serial.

use autoseg::allocate::allocate_with;
use autoseg::codesign::{run_codesign, CodesignBudgets, DesignPoint, Method};
use autoseg::segment::{ChainDpSegmenter, Segmenter};
use autoseg::{AutoSeg, DesignGoal, RunCtl};
use nnmodel::{zoo, Workload};
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

/// Runs all six methods on a pool of `threads` workers.
fn run_all(threads: usize) -> Vec<(&'static str, Vec<DesignPoint>)> {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = CodesignBudgets {
        threads,
        ..budgets()
    };
    let run = |method| {
        run_codesign(&model, &budget, &b, method, &RunCtl::none())
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
    let serial = run_all(1);
    for (name, pts) in &serial {
        assert!(!pts.is_empty(), "{name} produced no points");
    }
    for threads in [2, 4] {
        let parallel = run_all(threads);
        for ((name, s), (_, p)) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "{name} diverged at {threads} threads");
        }
    }
}

#[test]
fn public_entry_points_honor_the_threads_field() {
    // `run_codesign` builds its pool from `budgets.threads`; the point
    // clouds must not depend on its value.
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

/// Replays one design's engine sweep at 1 thread into one cache — every
/// `(N, S)` shape of squeezenet1_0 on Eyeriss through the chain-DP
/// segmenter and the memoized `allocate_with` and `simulate_spa_with`
/// (the engine itself runs the plain, cache-free `allocate` and
/// `simulate_spa` on the same shapes) — and pins the cache's counters
/// and contents (hits, misses, entries, the fullest shard and a hash of
/// the export), so the probes the allocator and the simulator make, and
/// the keys they store, cannot drift.
#[test]
fn one_design_sweep_pins_cache_contents() {
    let w = Workload::from_graph(&zoo::squeezenet1_0());
    let budget = HwBudget::eyeriss();
    let cache = EvalCache::default();
    let l = w.len();
    for n in 2..=8usize.min(l).min(budget.pes) {
        for s in 1..=12usize.min(l / n) {
            let Ok(schedule) = ChainDpSegmenter::new().segment(&w, n, s) else {
                continue;
            };
            let Ok(design) = allocate_with(&w, &schedule, &budget, DesignGoal::Latency, &cache)
            else {
                continue;
            };
            if design.fits(&budget) && design.segment_routings(&w).is_ok() {
                spa_sim::simulate_spa_with(&w, &design, &cache);
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries, stats.max_shard),
        (251_700, 2_588, 2_588, 182)
    );
    let export = faultsim::rng::fnv1a(cache.export_lines().join("\n").as_bytes());
    assert_eq!(export, 0xa327_b824_7804_d32b, "cache contents drifted");
}
