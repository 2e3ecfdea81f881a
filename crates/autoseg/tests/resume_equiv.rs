//! The anytime contract, end to end: killing a search at an arbitrary
//! generation and resuming it from its checkpoint produces **bit-identical**
//! results to the uninterrupted run — for every co-design method, any
//! thread count, and the engine sweep. This is the acceptance criterion
//! of the checkpoint/resume subsystem; if any piece of optimizer state
//! (RNG stream position, TPE history, best-so-far points) were lost or
//! reordered across the save/replay boundary, the resumed trajectory
//! would diverge and these comparisons would fail.

use autoseg::codesign::{run_codesign, CodesignBudgets, Method};
use autoseg::{AutoSeg, AutoSegError, Checkpoint, CheckpointError, RunCtl, RunStatus, StopReason};
use bayesopt::Transcript;
use nnmodel::zoo;
use spa_arch::HwBudget;
use std::path::{Path, PathBuf};

fn budgets(threads: usize) -> CodesignBudgets {
    CodesignBudgets {
        hw_iters: 32,
        seg_iters: 48,
        seed: 9,
        threads,
    }
}

/// A scratch checkpoint path unique to one (test, combination) pair, so
/// concurrently running tests never collide on disk.
fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("spa_resume_equiv");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.ckpt"))
}

/// Kill a method's search after `kill` generations (checkpointing every
/// generation), resume, and demand the final point cloud equal `expect`.
fn kill_resume(
    method: Method,
    threads: usize,
    kill: u64,
    expect: &autoseg::codesign::CodesignRun,
) {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = budgets(threads);
    let ckpt = ckpt_path(&format!("{}_t{threads}_k{kill}", method.label()));
    let cut = run_codesign(
        &model,
        &budget,
        &b,
        method,
        &RunCtl::none().stop_after_gens(kill).checkpoint(&ckpt, 1),
    )
    .unwrap();
    match cut.status {
        RunStatus::Partial(p) => {
            assert_eq!(p.completed_gens, kill, "{method} t={threads} k={kill}");
            assert_eq!(p.reason, StopReason::GenBudget);
            // The partial's points must be a prefix of the full run's.
            assert_eq!(
                cut.points[..],
                expect.points[..cut.points.len()],
                "{method} t={threads} k={kill}: partial is not a prefix"
            );
        }
        RunStatus::Complete => panic!("{method}: kill at {kill} gens finished the whole search"),
    }
    let resumed = run_codesign(&model, &budget, &b, method, &RunCtl::none().resume(&ckpt)).unwrap();
    assert!(resumed.status.is_complete());
    assert_eq!(
        resumed.points, expect.points,
        "{method} t={threads} k={kill}: kill+resume != uninterrupted"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn optimizer_methods_survive_any_kill_point_at_any_thread_count() {
    // The two methods with the most optimizer state to lose: TPE history
    // plus RNG stream (MipBaye), and the nested bi-loop whose inner
    // searches are seeded from global candidate indices (BayeBaye).
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    for method in [Method::MipBaye, Method::BayeBaye] {
        let reference = run_codesign(&model, &budget, &budgets(1), method, &RunCtl::none()).unwrap();
        assert!(reference.status.is_complete());
        assert!(!reference.points.is_empty());
        for threads in [1, 2, 4] {
            // Thread-count invariance of the uninterrupted run…
            let full =
                run_codesign(&model, &budget, &budgets(threads), method, &RunCtl::none()).unwrap();
            assert_eq!(full.points, reference.points, "{method} t={threads}");
            // …and of every kill/resume split point.
            for kill in [1, 2, 3] {
                kill_resume(method, threads, kill, &reference);
            }
        }
    }
}

#[test]
fn every_method_survives_kill_and_resume() {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    for method in Method::ALL {
        let reference = run_codesign(&model, &budget, &budgets(2), method, &RunCtl::none()).unwrap();
        kill_resume(method, 2, 1, &reference);
    }
}

#[test]
fn engine_sweep_survives_kill_and_resume() {
    let budget = HwBudget::nvdla_small();
    for threads in [1, 4] {
        let eng = AutoSeg::new(budget.clone())
            .max_pus(4)
            .max_segments(6)
            .threads(threads);
        let full = eng.run(&zoo::squeezenet1_0()).unwrap();
        let ckpt = ckpt_path(&format!("engine_t{threads}"));
        let cut = eng
            .run_ctl(
                &zoo::squeezenet1_0(),
                &RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1),
            )
            .unwrap();
        assert!(!cut.status.is_complete());
        let resumed = eng
            .run_ctl(&zoo::squeezenet1_0(), &RunCtl::none().resume(&ckpt))
            .unwrap();
        assert!(resumed.status.is_complete());
        let out = resumed.outcome.expect("feasible");
        assert_eq!(out.design, full.design, "t={threads}");
        assert_eq!(out.explored, full.explored);
        assert_eq!(out.report.cycles, full.report.cycles);
        assert_eq!(
            out.report.seconds.to_bits(),
            full.report.seconds.to_bits(),
            "t={threads}"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn resuming_a_finished_run_is_a_complete_noop() {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = budgets(2);
    let ckpt = ckpt_path("finished");
    let full = run_codesign(
        &model,
        &budget,
        &b,
        Method::MipBaye,
        &RunCtl::none().checkpoint(&ckpt, 1),
    )
    .unwrap();
    assert!(full.status.is_complete());
    let resumed =
        run_codesign(&model, &budget, &b, Method::MipBaye, &RunCtl::none().resume(&ckpt)).unwrap();
    assert!(resumed.status.is_complete());
    assert_eq!(resumed.points, full.points);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_under_a_different_config_is_a_typed_mismatch() {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = budgets(2);
    let ckpt = ckpt_path("mismatch");
    let _ = run_codesign(
        &model,
        &budget,
        &b,
        Method::MipBaye,
        &RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1),
    )
    .unwrap();
    // Wrong method.
    let err = run_codesign(&model, &budget, &b, Method::MipAnneal, &RunCtl::none().resume(&ckpt))
        .unwrap_err();
    assert!(
        matches!(
            &err,
            AutoSegError::Checkpoint(CheckpointError::Mismatch { key, .. }) if key == "kind" || key == "method"
        ),
        "got {err}"
    );
    // Wrong iteration budget.
    let other = CodesignBudgets {
        hw_iters: 64,
        ..b
    };
    let err = run_codesign(&model, &budget, &other, Method::MipBaye, &RunCtl::none().resume(&ckpt))
        .unwrap_err();
    assert!(
        matches!(
            &err,
            AutoSegError::Checkpoint(CheckpointError::Mismatch { key, .. }) if key == "hw_iters"
        ),
        "got {err}"
    );
    // Missing file is a typed I/O error, not a panic.
    let err = run_codesign(
        &model,
        &budget,
        &b,
        Method::MipBaye,
        &RunCtl::none().resume(std::env::temp_dir().join("spa_resume_equiv/definitely_absent.ckpt")),
    )
    .unwrap_err();
    assert!(
        matches!(&err, AutoSegError::Checkpoint(CheckpointError::Io { .. })),
        "got {err}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

/// `ckpt` with `edit` applied to its body (everything before the `end`
/// footer) and the checksum recomputed, so only the resume checks — not
/// the torn-write detection — can reject it.
fn rewrite_body(ckpt: &Path, edit: impl Fn(&str) -> String) {
    let text = std::fs::read_to_string(ckpt).unwrap();
    let (body, _) = text.rsplit_once("end ").expect("footer");
    let body = edit(body);
    let sum = faultsim::rng::fnv1a(body.as_bytes());
    std::fs::write(ckpt, format!("{body}end {sum:016x}\n")).unwrap();
}

#[test]
fn engine_resume_rejects_shapes_that_are_not_whole_generations() {
    // Killed after 3 generations, the checkpoint records 24 shapes. A
    // shorter section would make the resumed sweep append later results
    // after it, on the wrong shapes.
    let eng = AutoSeg::new(HwBudget::nvdla_small()).threads(2);
    let model = zoo::mobilenet_v1();
    let written = ckpt_path("engine_cut_shapes");
    let cut = eng
        .run_ctl(
            &model,
            &RunCtl::none().stop_after_gens(3).checkpoint(&written, 1),
        )
        .unwrap();
    assert!(!cut.status.is_complete());
    let text = std::fs::read_to_string(&written).unwrap();
    assert!(
        text.contains("\nsec shapes 24\n"),
        "3 generations of 8 shapes"
    );
    for keep in [1, 3, 7, 9, 12, 16, 20, 23] {
        let ckpt = ckpt_path(&format!("engine_cut_shapes_{keep}"));
        std::fs::write(&ckpt, &text).unwrap();
        rewrite_body(&ckpt, |body| {
            let (head, rest) = body.split_once("sec shapes 24\n").expect("shapes section");
            let lines: Vec<&str> = rest.split_inclusive('\n').collect();
            format!(
                "{head}sec shapes {keep}\n{}{}",
                lines[..keep].concat(),
                lines[24..].concat()
            )
        });
        let err = eng
            .run_ctl(&model, &RunCtl::none().resume(&ckpt))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                AutoSegError::Checkpoint(CheckpointError::Corrupt { .. })
            ),
            "{keep} shapes: got {err}"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
    let _ = std::fs::remove_file(&written);
}

/// Budgets under which an optimizer-backed search runs 12 generations
/// (11 of 8 evaluations, then 4), so kills land deep inside it.
fn long_search() -> CodesignBudgets {
    CodesignBudgets {
        hw_iters: 92,
        ..budgets(2)
    }
}

#[test]
fn optimizer_searches_of_many_generations_resume_mid_search() {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let b = long_search();
    for method in [
        Method::MipRandom,
        Method::MipBaye,
        Method::MipAnneal,
        Method::BayeBaye,
    ] {
        let done = ckpt_path(&format!("mid_search_{}", method.label()));
        let ctl = RunCtl::none().checkpoint(&done, 1);
        let reference = run_codesign(&model, &budget, &b, method, &ctl).unwrap();
        // One optimizer spends exactly the hardware budget.
        let lines = Checkpoint::load(&done).unwrap().section("transcript").to_vec();
        let t = Transcript::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!((t.gens(), t.evals()), (12, b.hw_iters), "{method}");
        for kill in [1, 3] {
            let ckpt = ckpt_path(&format!("mid_search_{}_k{kill}", method.label()));
            let cut = run_codesign(
                &model,
                &budget,
                &b,
                method,
                &RunCtl::none().stop_after_gens(kill).checkpoint(&ckpt, 1),
            )
            .unwrap();
            assert!(!cut.status.is_complete(), "{method} k={kill}");
            let resumed =
                run_codesign(&model, &budget, &b, method, &RunCtl::none().resume(&ckpt)).unwrap();
            assert!(resumed.status.is_complete());
            assert_eq!(resumed.points, reference.points, "{method} k={kill}");
            let _ = std::fs::remove_file(&ckpt);
        }
        let _ = std::fs::remove_file(&done);
    }
}

#[test]
fn codesign_resume_rejects_gens_done_that_disagrees_with_the_state() {
    let model = zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    // (method, budgets, generations before the kill, forged gens_done
    // values). The chunked methods plan 2 generations here. The
    // optimizer-backed ones plan 12, and their transcript must agree
    // with gens_done.
    let cases: [(Method, CodesignBudgets, u64, &[u64]); 6] = [
        (Method::MipHeuristic, budgets(2), 1, &[999]),
        (Method::BayeHeuristic, budgets(2), 1, &[999]),
        (Method::MipRandom, long_search(), 3, &[2, 4, 999]),
        (Method::MipBaye, long_search(), 3, &[0, 2, 4, 999]),
        (Method::MipAnneal, long_search(), 3, &[2, 4, 999]),
        (Method::BayeBaye, long_search(), 3, &[2, 4, 999]),
    ];
    for (method, b, kill, forged) in cases {
        let written = ckpt_path(&format!("forged_{}", method.label()));
        let cut = run_codesign(
            &model,
            &budget,
            &b,
            method,
            &RunCtl::none().stop_after_gens(kill).checkpoint(&written, 1),
        )
        .unwrap();
        assert!(!cut.status.is_complete(), "{method}");
        for &gens in forged {
            let ckpt = ckpt_path(&format!("forged_{}_{gens}", method.label()));
            let mut ck = Checkpoint::load(&written).unwrap();
            ck.set_meta("gens_done", &gens.to_string());
            ck.save(&ckpt).unwrap();
            let err = run_codesign(&model, &budget, &b, method, &RunCtl::none().resume(&ckpt))
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    AutoSegError::Checkpoint(CheckpointError::Corrupt { .. })
                ),
                "{method} gens_done {gens}: got {err}"
            );
            let _ = std::fs::remove_file(&ckpt);
        }
        let _ = std::fs::remove_file(&written);
    }
}

/// The header, the `meta` keys in order and the section names of a
/// checkpoint file.
fn layout(ckpt: &Path) -> (String, Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(ckpt).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default().to_string();
    let (mut meta, mut sections) = (Vec::new(), Vec::new());
    let mut skip = 0usize;
    for line in lines {
        if skip > 0 {
            skip -= 1;
        } else if let Some(rest) = line.strip_prefix("meta ") {
            meta.push(rest.split(' ').next().unwrap_or_default().to_string());
        } else if let Some(rest) = line.strip_prefix("sec ") {
            let (name, count) = rest.split_once(' ').expect("sec line");
            sections.push(name.to_string());
            skip = count.parse().expect("section count");
        }
    }
    (header, meta, sections)
}

#[test]
fn checkpoint_layout_is_pinned() {
    // Checkpoints already on disk (`spa-gen --resume`, spa-serve's cache
    // directory) stay resumable only while this layout holds.
    let engine = ckpt_path("layout_engine");
    AutoSeg::new(HwBudget::nvdla_small())
        .threads(2)
        .run_ctl(
            &zoo::mobilenet_v1(),
            &RunCtl::none().stop_after_gens(1).checkpoint(&engine, 1),
        )
        .unwrap();
    let (header, meta, sections) = layout(&engine);
    assert_eq!(header, "spa-ckpt 1 engine");
    assert_eq!(
        meta,
        [
            "model",
            "budget",
            "goal",
            "max_pus",
            "max_segments",
            "segmenter",
            "energy_model",
            "gens_done",
            "planned_gens"
        ]
    );
    assert_eq!(sections, ["shapes"]);

    let codesign = ckpt_path("layout_codesign");
    run_codesign(
        &zoo::alexnet_conv(),
        &HwBudget::nvdla_small(),
        &budgets(2),
        Method::MipBaye,
        &RunCtl::none().stop_after_gens(1).checkpoint(&codesign, 1),
    )
    .unwrap();
    let (header, meta, sections) = layout(&codesign);
    assert_eq!(header, "spa-ckpt 1 codesign");
    assert_eq!(
        meta,
        [
            "method",
            "model",
            "budget",
            "seed",
            "hw_iters",
            "seg_iters",
            "energy_model",
            "gens_done",
            "planned_gens"
        ]
    );
    assert_eq!(sections, ["points", "transcript"]);
    let _ = std::fs::remove_file(&engine);
    let _ = std::fs::remove_file(&codesign);
}

#[test]
fn codesign_resume_rejects_per_shape_unit_sections() {
    // The older layout: one transcript per (N, S) shape in `unit.N`
    // sections, then a `cache` section.
    let (model, budget, b) = (zoo::alexnet_conv(), HwBudget::nvdla_small(), budgets(2));
    let ckpt = ckpt_path("unit_sections");
    let stop = RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1);
    run_codesign(&model, &budget, &b, Method::MipBaye, &stop).unwrap();
    rewrite_body(&ckpt, |body| {
        format!("{}sec cache 0\n", body.replace("sec transcript ", "sec unit.0 "))
    });
    let resume = RunCtl::none().resume(&ckpt);
    let err = run_codesign(&model, &budget, &b, Method::MipBaye, &resume).unwrap_err();
    assert!(
        matches!(
            &err,
            AutoSegError::Checkpoint(CheckpointError::Corrupt { path, .. }) if path == "unit.0"
        ),
        "got {err}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn engine_resume_ignores_a_stray_cache_section() {
    // Older checkpoints end in the eval cache's `cache` section. Nothing
    // parses it (the malformed line shows that): evaluation is
    // deterministic, so the resumed sweep recomputes what it held.
    let eng = AutoSeg::new(HwBudget::nvdla_small()).max_pus(4).max_segments(6).threads(2);
    let model = zoo::squeezenet1_0();
    let full = eng.run(&model).unwrap();
    let ckpt = ckpt_path("stray_cache");
    eng.run_ctl(&model, &RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1))
        .unwrap();
    rewrite_body(&ckpt, |body| format!("{body}sec cache 1\nck not-an-entry\n"));
    let resumed = eng.run_ctl(&model, &RunCtl::none().resume(&ckpt)).unwrap();
    assert!(resumed.status.is_complete());
    let out = resumed.outcome.expect("feasible");
    assert_eq!((&out.design, out.explored), (&full.design, full.explored));
    assert_eq!(out.report.seconds.to_bits(), full.report.seconds.to_bits());
    let _ = std::fs::remove_file(&ckpt);
}
