//! Pins Algorithm 1 and the engine sweep to recorded designs.
//!
//! Every case digests what it produced — the design's `Debug` text and
//! the simulated cycles, seconds and energy bits — with FNV-1a and
//! compares the digest with the value recorded in the tables below. A
//! change to allocation (PE quotas, geometry, buffers, dataflows, the
//! scale-up, rebalance or scale-down steps) or to the engine's shape
//! sweep that moves any bit of a design fails here with the case's name.
//!
//! The memoized entry point must agree with the plain one:
//! `allocate_with` returns the same designs as `allocate`, whatever the
//! cache already holds.
//!
//! On an intended change, the failure message lists every case with its
//! new digest, ready to paste over the table.

use autoseg::allocate::{allocate, allocate_with, manual_design};
use autoseg::segment::{ChainDpSegmenter, Segmenter};
use autoseg::{AutoSeg, DesignGoal};
use nnmodel::{zoo, Graph, Workload};
use pucost::EvalCache;
use spa_arch::{HwBudget, SpaDesign};
use std::fmt::Write as _;

/// Models under test; `mobilenet_v1` is the depthwise one.
const MODELS: [&str; 3] = ["squeezenet1_0", "mobilenet_v1", "alexnet_conv"];
/// Presets under test: three ASICs of Table II (EdgeTPU leaves the
/// throughput goal room to batch) and one FPGA of Table III.
const PRESETS: [&str; 4] = ["eyeriss", "nvdla-small", "edge-tpu", "zu3eg"];
/// Chain-DP shapes `(N, S)` every allocation case runs over.
const SHAPES: [(usize, usize); 3] = [(2, 1), (3, 2), (4, 2)];

/// `allocate` per (model, preset, goal), over all of [`SHAPES`].
const ALLOCATE: &[(&str, u64)] = &[
    ("squeezenet1_0@eyeriss:Latency", 0x86bada038e92f444),
    ("squeezenet1_0@eyeriss:Throughput", 0x86bada038e92f444),
    ("squeezenet1_0@nvdla-small:Latency", 0x0f0c3431bd28ee8f),
    ("squeezenet1_0@nvdla-small:Throughput", 0x0f0c3431bd28ee8f),
    ("squeezenet1_0@edge-tpu:Latency", 0x071ef05828c0bc97),
    ("squeezenet1_0@edge-tpu:Throughput", 0x0ad260157eac49d4),
    ("squeezenet1_0@zu3eg:Latency", 0x03bf11d2a19e2798),
    ("squeezenet1_0@zu3eg:Throughput", 0x03bf11d2a19e2798),
    ("mobilenet_v1@eyeriss:Latency", 0xc67f546409d7f2ab),
    ("mobilenet_v1@eyeriss:Throughput", 0xc67f546409d7f2ab),
    ("mobilenet_v1@nvdla-small:Latency", 0x75595ed6301ddece),
    ("mobilenet_v1@nvdla-small:Throughput", 0x75595ed6301ddece),
    ("mobilenet_v1@edge-tpu:Latency", 0x867783abe750fea8),
    ("mobilenet_v1@edge-tpu:Throughput", 0xd025818fc99f4dd2),
    ("mobilenet_v1@zu3eg:Latency", 0x01bdb417e49dcc5f),
    ("mobilenet_v1@zu3eg:Throughput", 0x01bdb417e49dcc5f),
    ("alexnet_conv@eyeriss:Latency", 0xf53941ad170c0468),
    ("alexnet_conv@eyeriss:Throughput", 0xf53941ad170c0468),
    ("alexnet_conv@nvdla-small:Latency", 0x3275978cc547ad41),
    ("alexnet_conv@nvdla-small:Throughput", 0x3275978cc547ad41),
    ("alexnet_conv@edge-tpu:Latency", 0x875316091bce2ed9),
    ("alexnet_conv@edge-tpu:Throughput", 0x0a1cdf481f9fccc5),
    ("alexnet_conv@zu3eg:Latency", 0xb7072ce10c0446ec),
    ("alexnet_conv@zu3eg:Throughput", 0xb7072ce10c0446ec),
];

/// `manual_design` per (model, preset), over all of [`SHAPES`] and two
/// buffer multipliers.
const MANUAL: &[(&str, u64)] = &[
    ("squeezenet1_0@eyeriss", 0xd543922e59d55577),
    ("squeezenet1_0@nvdla-small", 0x2ae15fe1083df17b),
    ("squeezenet1_0@edge-tpu", 0x0fe42af5fd117ad1),
    ("squeezenet1_0@zu3eg", 0x716729dcadd11edf),
    ("mobilenet_v1@eyeriss", 0xfcfb458cfaede3ab),
    ("mobilenet_v1@nvdla-small", 0xfbaa4f5ff422dced),
    ("mobilenet_v1@edge-tpu", 0xd109f21f6a0132ff),
    ("mobilenet_v1@zu3eg", 0xceb0da4bf472d29f),
    ("alexnet_conv@eyeriss", 0x1e78d1644506e909),
    ("alexnet_conv@nvdla-small", 0x8976084d3d9a8c2d),
    ("alexnet_conv@edge-tpu", 0x74321dece86bc207),
    ("alexnet_conv@zu3eg", 0xbfa37f37882946cf),
];

/// `AutoSeg::run` with its default sweep, per (model, preset, goal).
const ENGINE: &[(&str, u64)] = &[
    ("alexnet_conv@eyeriss:Latency", 0x09f724a6a6ff12a6),
    ("alexnet_conv@eyeriss:Throughput", 0x09f724a6a6ff12a6),
    ("squeezenet1_0@edge-tpu:Latency", 0xc4abefd3cb4bd491),
    ("squeezenet1_0@edge-tpu:Throughput", 0x94b4c2997dd68252),
    ("mobilenet_v1@zu3eg:Latency", 0xb9bc3f3a517f0785),
    ("mobilenet_v1@zu3eg:Throughput", 0xb9bc3f3a517f0785),
];

/// The engine cases: small enough for a debug build.
const ENGINE_CASES: [(&str, &str); 3] = [
    ("alexnet_conv", "eyeriss"),
    ("squeezenet1_0", "edge-tpu"),
    ("mobilenet_v1", "zu3eg"),
];

fn budget(name: &str) -> HwBudget {
    HwBudget::by_name(name).expect("preset")
}

fn graph(name: &str) -> Graph {
    zoo::by_name(name).expect("zoo model")
}

/// Appends one design and its simulation to a digest's text.
fn record(text: &mut String, w: &Workload, d: &SpaDesign) {
    let r = spa_sim::simulate_spa(w, d);
    let _ = writeln!(
        text,
        "{d:?} {} {:016x} {:016x}",
        r.cycles,
        r.seconds.to_bits(),
        r.energy.total_pj().to_bits()
    );
}

fn digest(text: &str) -> u64 {
    faultsim::rng::fnv1a(text.as_bytes())
}

/// Compares `got` with `want` case by case. Returns nothing when they
/// agree, otherwise the whole table of new values.
fn check(table: &str, want: &[(&str, u64)], got: &[(String, u64)]) -> String {
    let same = want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|((wl, wd), (gl, gd))| wl == gl && wd == gd);
    if same {
        return String::new();
    }
    let mut msg = format!("{table} drifted; the recorded table would now read:\n");
    for (label, d) in got {
        let mark = if want.iter().any(|(wl, wd)| wl == label && wd == d) {
            ""
        } else {
            "  // changed"
        };
        let _ = writeln!(msg, "    (\"{label}\", 0x{d:016x}),{mark}");
    }
    msg
}

#[test]
fn allocate_and_manual_design_match_recorded_digests() {
    let shared = EvalCache::default();
    let mut allocs = Vec::new();
    let mut manuals = Vec::new();
    for (mi, model) in MODELS.iter().enumerate() {
        let w = Workload::from_graph(&graph(model));
        let schedules: Vec<_> = SHAPES
            .iter()
            .map(|&(n, s)| ChainDpSegmenter::new().segment(&w, n, s).expect("chain DP"))
            .collect();
        for preset in PRESETS {
            let b = budget(preset);
            for goal in [DesignGoal::Latency, DesignGoal::Throughput] {
                let mut text = String::new();
                for sched in &schedules {
                    let d = allocate(&w, sched, &b, goal).expect("allocate");
                    let memo = allocate_with(&w, sched, &b, goal, &shared).expect("allocate_with");
                    assert_eq!(d, memo, "allocate_with {model}@{preset} {goal:?}");
                    record(&mut text, &w, &d);
                }
                allocs.push((format!("{model}@{preset}:{goal:?}"), digest(&text)));
            }
            let mut text = String::new();
            for sched in &schedules {
                let pes: Vec<usize> = (0..sched.n_pus)
                    .map(|i| 1usize << (2 + (i + mi) % 5))
                    .collect();
                for mult in [1, 2] {
                    let d = manual_design(&w, sched, &b, &pes, mult);
                    record(&mut text, &w, &d);
                }
            }
            manuals.push((format!("{model}@{preset}"), digest(&text)));
        }
    }
    let drift = check("ALLOCATE", ALLOCATE, &allocs) + &check("MANUAL", MANUAL, &manuals);
    assert!(drift.is_empty(), "{drift}");
}

#[test]
fn engine_designs_match_recorded_digests() {
    let mut got = Vec::new();
    for (model, preset) in ENGINE_CASES {
        for goal in [DesignGoal::Latency, DesignGoal::Throughput] {
            let out = AutoSeg::new(budget(preset))
                .design_goal(goal)
                .threads(2)
                .run(&graph(model))
                .expect("feasible design");
            let mut text = format!("explored {}\n", out.explored);
            record(&mut text, &out.workload, &out.design);
            got.push((format!("{model}@{preset}:{goal:?}"), digest(&text)));
        }
    }
    let drift = check("ENGINE", ENGINE, &got);
    assert!(drift.is_empty(), "{drift}");
}
