//! Determinism contract of the instrumentation: enabling `obs` tracing
//! must not change a single bit of any search result. Instrumentation
//! reads clocks but never feeds timing back into search decisions, so the
//! point clouds and engine outcomes with `OBS_LEVEL=trace` must equal the
//! `off` reference exactly.
//!
//! This lives in its own integration-test file (= its own process):
//! `obs::set_level` is process-global, so these tests must not share a
//! process with tests assuming the default `off` level.

use autoseg::codesign::{run_codesign, CodesignBudgets, DesignPoint, Method};
use autoseg::{AutoSeg, RunCtl};
use nnmodel::zoo;
use spa_arch::HwBudget;

/// The obs level and sink are process-global: tests serialize on this.
static OBS_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn budgets() -> CodesignBudgets {
    CodesignBudgets {
        hw_iters: 24,
        seg_iters: 32,
        seed: 5,
        threads: 2,
    }
}

/// The bench_dse workload: three methods on a 2-thread pool.
fn three_methods() -> Vec<DesignPoint> {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = budgets();
    let run = |method| {
        run_codesign(&model, &budget, &b, method, &RunCtl::none())
            .unwrap()
            .points
    };
    let mut pts = run(Method::MipHeuristic);
    pts.extend(run(Method::MipBaye));
    pts.extend(run(Method::BayeBaye));
    pts
}

#[test]
fn tracing_on_vs_off_is_bit_identical() {
    let _g = OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    // Events go to an in-memory sink so the test leaves no files behind.
    obs::set_sink_memory();

    obs::set_level(obs::Level::Off);
    obs::reset();
    let _ = obs::take_memory_lines();
    let off = three_methods();
    assert!(!off.is_empty());
    assert!(
        obs::snapshot().is_empty(),
        "level off must record nothing"
    );

    for level in [obs::Level::Summary, obs::Level::Trace] {
        obs::set_level(level);
        obs::reset();
        let _ = obs::take_memory_lines();
        let on = three_methods();
        assert_eq!(off, on, "tracing at {level:?} changed search results");

        let report = obs::snapshot();
        assert!(!report.is_empty(), "instrumentation recorded at {level:?}");
        assert!(report.counter("dse.candidates").unwrap_or(0) > 0);
        // The "mip-*" methods segment with the exact chain DP, not the
        // MILP solver, so mip.* counters stay 0 here; the pipeline
        // simulator behind every latency probe does fire.
        assert!(report.counter("spa.pipeline.segments").unwrap_or(0) > 0);
        assert!(report.span("codesign.run").is_some());
        let lines = obs::take_memory_lines();
        assert!(
            lines.iter().any(|l| l.contains("codesign.generation")),
            "convergence events missing at {level:?}"
        );
        if level == obs::Level::Trace {
            assert!(
                lines.iter().any(|l| l.contains("\"t\":\"span\"")),
                "trace level must write span lines"
            );
        }
    }
    obs::set_level(obs::Level::Off);
}

#[test]
fn trace_ids_and_flight_recorder_are_bit_invisible() {
    let _g = OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_sink_memory();
    obs::set_level(obs::Level::Off);
    obs::reset();

    // Reference: recorder off, no trace id set.
    obs::flight::configure(0);
    obs::set_trace(0);
    let off = three_methods();
    assert!(!off.is_empty());

    // Recorder on, under an active request trace id (the serving-layer
    // configuration): the search result must not move a bit, and the
    // recorder must have captured attributed events from the pool
    // workers (trace ids propagate across the DsePool fan-out).
    obs::flight::configure(4096);
    obs::flight::reset();
    {
        let _t = obs::TraceGuard::enter(77);
        let on = three_methods();
        assert_eq!(off, on, "flight recorder + trace ids changed search results");
    }
    let dump = obs::flight::drain();
    let candidates: Vec<_> = dump
        .events
        .iter()
        .filter(|e| e.name == "codesign.candidate")
        .collect();
    assert!(!candidates.is_empty(), "co-design candidates were noted");
    // The 2-thread pool evaluates every generation of two or more
    // candidates on spawned workers, whose trace id starts at 0.
    assert!(
        candidates.iter().all(|e| e.trace == 77),
        "pool workers inherit the caller's trace id"
    );
    assert_eq!(obs::current_trace(), 0, "TraceGuard restored the idle state");
    obs::flight::reset();
    obs::flight::configure(0);
    obs::set_level(obs::Level::Off);
}

#[test]
fn engine_sweep_unchanged_by_tracing() {
    let _g = OBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_sink_memory();
    obs::set_level(obs::Level::Off);
    let budget = HwBudget::nvdla_small();
    let run = || {
        AutoSeg::new(budget.clone())
            .max_pus(3)
            .max_segments(4)
            .threads(2)
            .run(&zoo::squeezenet1_0())
            .unwrap()
    };
    let off = run();

    obs::set_level(obs::Level::Trace);
    obs::reset();
    let on = run();
    assert_eq!(off.design, on.design);
    assert_eq!(off.explored, on.explored);
    assert_eq!(off.report.cycles, on.report.cycles);
    assert_eq!(off.report.seconds, on.report.seconds);

    let report = obs::snapshot();
    assert!(report.span("autoseg.engine").is_some());
    assert_eq!(
        report.counter("engine.shapes_feasible"),
        Some(on.explored as u64)
    );
    obs::set_level(obs::Level::Off);
}
