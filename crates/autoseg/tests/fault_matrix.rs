//! The fault-injection matrix: every scripted fault point either
//! recovers transparently (bit-identical results, `fault.recovered`
//! recorded) or surfaces as a typed error / typed partial — never a
//! panic, never a silently wrong result.
//!
//! Fault points exercised end to end:
//!
//! * `dse.worker`  — a pool worker dies mid-sweep; abandoned candidates
//!   are re-evaluated inline after the join.
//! * `ckpt.torn`   — a checkpoint write is cut short mid-file; the torn
//!   file is detected at load as a typed `Corrupt`, and a clean re-run
//!   heals it.
//! * `obs.sink`    — the telemetry sink fails to write; it degrades to
//!   dropping lines (counted) and the search is undisturbed.
//! * `trace.dump`  — a flight-recorder dump is torn mid-write; it
//!   degrades typed (`false` + `sink_errors` counted), never a panic,
//!   and the recorder keeps capturing.
//! * `mip.node`    — a branch-and-bound worker dies mid-wave inside the
//!   MILP engine; the lost node re-evaluates inline in fixed task order,
//!   so the incumbent stays bit-identical at any thread count.
//!
//! Fault plans and the `obs` level are process-global, so every test
//! holds [`faultsim::exclusive`] for its whole body.

use autoseg::codesign::{run_codesign, CodesignBudgets, CodesignRun, Method};
use autoseg::{AutoSegError, CheckpointError, RunCtl, RunStatus, StopReason};
use nnmodel::zoo;
use spa_arch::HwBudget;
use std::time::Duration;

fn budgets(threads: usize) -> CodesignBudgets {
    CodesignBudgets {
        hw_iters: 24,
        seg_iters: 32,
        seed: 5,
        threads,
    }
}

fn run(method: Method, threads: usize, ctl: &RunCtl) -> Result<CodesignRun, AutoSegError> {
    run_codesign(
        &zoo::alexnet_conv(),
        &HwBudget::nvdla_small(),
        &budgets(threads),
        method,
        ctl,
    )
}

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("spa_fault_matrix");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.ckpt"))
}

#[test]
fn worker_death_at_every_index_recovers_bit_identically() {
    let _x = faultsim::exclusive();
    obs::set_sink_memory();
    obs::set_level(obs::Level::Summary);
    obs::reset();
    let clean = run(Method::MipBaye, 4, &RunCtl::none()).unwrap();
    faultsim::arm("dse.worker@*").expect("plan parses");
    let faulted = run(Method::MipBaye, 4, &RunCtl::none()).unwrap();
    let injected = faultsim::injected_count();
    faultsim::disarm();
    assert!(faulted.status.is_complete());
    assert_eq!(
        faulted.points, clean.points,
        "worker deaths changed the point cloud"
    );
    assert!(injected > 0, "the fault plan never fired");
    let report = obs::snapshot();
    assert!(report.counter("fault.injected").unwrap_or(0) > 0);
    assert!(report.counter("fault.recovered").unwrap_or(0) > 0);
    obs::set_level(obs::Level::Off);
}

/// A 10-item knapsack whose LP relaxation is fractional at the root, so
/// the engine must branch through several waves of node tasks — enough
/// arrivals for both an index-scripted and an always-on `mip.node` plan.
fn branching_milp() -> mip::Problem {
    let mut p = mip::Problem::new(mip::Sense::Maximize);
    let values = [9.0, 7.0, 8.0, 3.0, 5.0, 11.0, 4.0, 6.0, 10.0, 2.0];
    let weights = [5.0, 4.0, 5.0, 2.0, 3.0, 7.0, 3.0, 4.0, 6.0, 1.0];
    let mut obj = mip::LinExpr::new();
    let mut load = mip::LinExpr::new();
    for (i, (&v, &w)) in values.iter().zip(&weights).enumerate() {
        let x = p.add_binary(format!("x{i}"));
        obj.add_term(x, v);
        load.add_term(x, w);
    }
    p.set_objective(obj);
    p.add_constraint(load, mip::Cmp::Le, 17.0);
    p
}

#[test]
fn mip_node_death_mid_branch_and_bound_recovers_bit_identically() {
    let _x = faultsim::exclusive();
    obs::set_sink_memory();
    obs::set_level(obs::Level::Summary);
    obs::reset();
    let p = branching_milp();
    // Presolve off so the engine genuinely branches instead of fixing.
    let solver = mip::Solver::new().presolve(false);
    for threads in [1usize, 4] {
        let pool = autoseg::dse::DsePool::new(threads);
        let clean = solver.solve_with_pool(&p, &pool).expect("valid problem");
        assert_eq!(clean.status, mip::SolveStatus::Optimal);
        assert!(clean.nodes > 3, "instance too easy to exercise waves");
        for plan in ["mip.node#2", "mip.node@*"] {
            faultsim::arm(plan).expect("plan parses");
            let faulted = solver.solve_with_pool(&p, &pool).expect("valid problem");
            let injected = faultsim::injected_count();
            faultsim::disarm();
            assert!(
                injected >= 1,
                "plan {plan} never fired at {threads} threads"
            );
            assert_eq!(faulted.status, clean.status, "plan {plan}, {threads} threads");
            assert_eq!(
                faulted.objective.to_bits(),
                clean.objective.to_bits(),
                "plan {plan}, {threads} threads: objective drifted"
            );
            assert_eq!(
                faulted.values(),
                clean.values(),
                "plan {plan}, {threads} threads: incumbent drifted"
            );
            assert_eq!(
                faulted.nodes, clean.nodes,
                "plan {plan}, {threads} threads: node count drifted"
            );
        }
    }
    let report = obs::snapshot();
    assert!(report.counter("fault.injected").unwrap_or(0) > 0);
    assert!(
        report.counter("fault.recovered").unwrap_or(0)
            >= report.counter("fault.injected").unwrap_or(0),
        "every injected node death must be recovered"
    );
    obs::set_level(obs::Level::Off);
}

#[test]
fn torn_checkpoint_write_yields_typed_error_not_panic() {
    let _x = faultsim::exclusive();
    obs::set_sink_memory();
    obs::set_level(obs::Level::Summary);
    obs::reset();
    let ckpt = ckpt_path("torn");
    let full = run(Method::MipBaye, 2, &RunCtl::none()).unwrap();

    // Every checkpoint write in this run is torn mid-file.
    faultsim::arm("ckpt.torn@*").expect("plan parses");
    let cut = run(
        Method::MipBaye,
        2,
        &RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1),
    )
    .unwrap();
    let injected = faultsim::injected_count();
    faultsim::disarm();
    assert!(!cut.status.is_complete());
    assert!(injected >= 1, "no torn write was injected");
    assert!(
        obs::snapshot().counter("fault.injected").unwrap_or(0) >= 1,
        "injections must be observable"
    );

    // The torn file is detected at load — a typed Corrupt, not garbage
    // results and not a panic.
    let err = run(Method::MipBaye, 2, &RunCtl::none().resume(&ckpt)).unwrap_err();
    assert!(
        matches!(
            &err,
            AutoSegError::Checkpoint(CheckpointError::Corrupt { .. })
        ),
        "got {err}"
    );

    // A clean re-run overwrites the torn file and resume works again.
    let cut = run(
        Method::MipBaye,
        2,
        &RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1),
    )
    .unwrap();
    assert!(!cut.status.is_complete());
    let resumed = run(Method::MipBaye, 2, &RunCtl::none().resume(&ckpt)).unwrap();
    assert!(resumed.status.is_complete());
    assert_eq!(resumed.points, full.points, "healed resume == uninterrupted");
    let _ = std::fs::remove_file(&ckpt);
    obs::set_level(obs::Level::Off);
}

#[test]
fn sink_failure_never_disturbs_the_search() {
    let _x = faultsim::exclusive();
    obs::set_sink_memory();
    obs::set_level(obs::Level::Summary);
    obs::reset();
    // MipBaye emits `codesign.generation` events, so the faulted run is
    // guaranteed to exercise the sink.
    let clean = run(Method::MipBaye, 2, &RunCtl::none()).unwrap();
    let _ = obs::take_memory_lines();
    let before = obs::sink_errors();
    faultsim::arm("obs.sink@1").expect("plan parses");
    let faulted = run(Method::MipBaye, 2, &RunCtl::none()).unwrap();
    faultsim::disarm();
    assert_eq!(
        faulted.points, clean.points,
        "a dead telemetry sink changed results"
    );
    assert!(
        obs::sink_errors() > before,
        "the sink failure must be counted"
    );
    obs::set_level(obs::Level::Off);
}

#[test]
fn torn_flight_dump_degrades_typed_not_panic() {
    let _x = faultsim::exclusive();
    obs::set_sink_memory();
    obs::flight::configure(64);
    obs::flight::reset();
    obs::flight::note("fault.matrix", 1, 2);
    // Clean dump first: succeeds and lands in the sink.
    let _ = obs::take_memory_lines();
    assert!(obs::flight::dump_to_sink(), "clean dump succeeds");
    assert!(
        obs::take_memory_lines().iter().any(|l| l.contains("\"t\":\"flight\"")),
        "clean dump reaches the sink"
    );
    // Torn dump: the first dump attempt fails typed — `false` comes
    // back, the shared sink-error counter increments, nothing panics.
    let before = obs::sink_errors();
    faultsim::arm("trace.dump@1").expect("plan parses");
    assert!(!obs::flight::dump_to_sink(), "torn dump reports failure");
    faultsim::disarm();
    assert!(
        obs::sink_errors() > before,
        "the torn dump must be counted as a sink error"
    );
    // The recorder itself is unharmed: events still drain.
    let dump = obs::flight::drain();
    assert!(
        dump.events.iter().any(|e| e.name == "fault.matrix"),
        "recorder survives a torn dump"
    );
    obs::flight::reset();
    obs::flight::configure(0);
}

#[test]
fn deadline_stop_is_a_typed_partial_never_a_panic() {
    let _x = faultsim::exclusive();
    // An already-expired deadline: cooperative stop before any work.
    let cut = run(
        Method::MipBaye,
        2,
        &RunCtl::none().deadline(Duration::ZERO),
    )
    .unwrap();
    match cut.status {
        RunStatus::Partial(p) => {
            assert_eq!(p.completed_gens, 0);
            assert_eq!(p.reason, StopReason::Deadline);
            assert!(p.planned_gens > 0);
        }
        RunStatus::Complete => panic!("an expired deadline cannot complete"),
    }
    assert!(cut.points.is_empty());
    // A generous deadline changes nothing.
    let clean = run(Method::MipBaye, 2, &RunCtl::none()).unwrap();
    let relaxed = run(
        Method::MipBaye,
        2,
        &RunCtl::none().deadline(Duration::from_secs(3600)),
    )
    .unwrap();
    assert!(relaxed.status.is_complete());
    assert_eq!(relaxed.points, clean.points);
}
