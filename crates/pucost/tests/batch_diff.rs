//! Differential suite: the compiled kernel ([`CompiledEval`]) and the
//! cache's batch entry ([`EvalCache::evaluate_probes`]) against the
//! scalar reference, over seeded random layers (dense / grouped /
//! depthwise / FC), random PU shapes (power-of-two and not), and sweep
//! sizes from 1 through 257.
//!
//! Everything here asserts *bit* identity: neither path may change a
//! result, a dataflow pick, a cache counter, or the cache's contents.

use faultsim::rng::SplitMix64;
use pucost::{
    best_dataflow, evaluate, pick_dataflow, CompiledEval, Dataflow, EnergyModel, EvalCache,
    LayerDesc, PuConfig,
};

/// Draw helpers for the sweeps.
trait Draw {
    /// Uniform draw in `[lo, hi]`.
    fn range(&mut self, lo: usize, hi: usize) -> usize;
    fn pick<T: Copy>(&mut self, options: &[T]) -> T;
}

impl Draw for SplitMix64 {
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }
}

/// A random layer cycling through the evaluator's edge cases: dense
/// conv, grouped conv, depthwise, and FC-as-1x1.
fn random_layer(rng: &mut SplitMix64) -> LayerDesc {
    let kernel = rng.pick(&[1usize, 3, 5]);
    let stride = rng.range(1, 2);
    let side = rng.pick(&[1usize, 7, 14, 28, 56]);
    match rng.range(0, 3) {
        0 => {
            // Depthwise: one channel per group.
            let ch = rng.range(1, 96);
            LayerDesc {
                in_c: ch,
                in_h: side,
                in_w: side,
                out_c: ch,
                out_h: side,
                out_w: side,
                kernel,
                stride,
                groups: ch,
                is_fc: false,
            }
        }
        1 => {
            // Grouped conv (group count need not divide the channels —
            // the evaluator clamps).
            LayerDesc {
                in_c: rng.range(1, 128),
                in_h: side,
                in_w: side,
                out_c: rng.range(1, 128),
                out_h: side,
                out_w: side,
                kernel,
                stride,
                groups: rng.pick(&[2usize, 3, 4, 8]),
                is_fc: false,
            }
        }
        2 => LayerDesc {
            // FC as 1x1 conv on a 1x1 extent.
            in_c: rng.range(16, 4096),
            in_h: 1,
            in_w: 1,
            out_c: rng.range(10, 1000),
            out_h: 1,
            out_w: 1,
            kernel: 1,
            stride: 1,
            groups: 1,
            is_fc: true,
        },
        _ => LayerDesc {
            in_c: rng.range(1, 256),
            in_h: side,
            in_w: side,
            out_c: rng.range(1, 256),
            out_h: side,
            out_w: side,
            kernel,
            stride,
            groups: 1,
            is_fc: false,
        },
    }
}

/// A random PU: power-of-two and awkward shapes, buffer sizes from
/// starved (forcing `buffers_ok == false`) to ample, a few clock bins.
fn random_pu(rng: &mut SplitMix64) -> PuConfig {
    let rows = rng.pick(&[1usize, 2, 3, 4, 7, 8, 16, 17, 32, 64]);
    let cols = rng.pick(&[1usize, 2, 4, 5, 8, 16, 31, 32, 64]);
    let act = 1u64 << rng.range(4, 18);
    let wgt = 1u64 << rng.range(4, 18);
    let freq = rng.pick(&[100.0f64, 250.0, 400.0, 933.5]);
    PuConfig::new(rows, cols).with_buffers(act, wgt).with_freq_mhz(freq)
}

fn random_batch(rng: &mut SplitMix64, n: usize) -> Vec<PuConfig> {
    (0..n).map(|_| random_pu(rng)).collect()
}

const DATAFLOWS: [Dataflow; 2] = [Dataflow::WeightStationary, Dataflow::OutputStationary];

/// `layer` against every PU in `pus` under `df`, in order.
fn sweep(layer: &LayerDesc, pus: &[PuConfig], df: Dataflow) -> Vec<(LayerDesc, PuConfig, Dataflow)> {
    pus.iter().map(|pu| (*layer, *pu, df)).collect()
}

/// Sweep sizes: 1, shard-count multiples, powers of two and their
/// neighbours, 257.
const SIZES: [usize; 12] = [1, 2, 3, 7, 15, 16, 17, 64, 96, 128, 256, 257];

#[test]
fn kernel_batch_matches_scalar_across_sizes() {
    let em = EnergyModel::tsmc28();
    let mut rng = SplitMix64::new(0xdeadbeef);
    for &n in &SIZES {
        let layer = random_layer(&mut rng);
        let compiled = CompiledEval::new(&layer, &em);
        for (i, pu) in random_batch(&mut rng, n).iter().enumerate() {
            for df in DATAFLOWS {
                assert_eq!(
                    compiled.evaluate(pu, df),
                    evaluate(&layer, pu, df, &em),
                    "size {n} item {i} {df:?}"
                );
            }
        }
    }
}

#[test]
fn kernel_fused_best_matches_scalar_pick_across_sizes() {
    let em = EnergyModel::tsmc28();
    let mut rng = SplitMix64::new(0x5eed);
    for &n in &SIZES {
        let layer = random_layer(&mut rng);
        let compiled = CompiledEval::new(&layer, &em);
        for (i, pu) in random_batch(&mut rng, n).iter().enumerate() {
            assert_eq!(compiled.best(pu), best_dataflow(&layer, pu, &em), "size {n} item {i}");
        }
    }
}

#[test]
fn kernel_batch_matches_scalar_every_size_1_to_64() {
    // Dense sweep over the small sizes.
    let em = EnergyModel::tsmc28();
    let mut rng = SplitMix64::new(42);
    let layer = random_layer(&mut rng);
    let compiled = CompiledEval::new(&layer, &em);
    for n in 1..=64usize {
        for (i, pu) in random_batch(&mut rng, n).iter().enumerate() {
            assert_eq!(compiled.best(pu).1, best_dataflow(&layer, pu, &em).1, "size {n} item {i}");
        }
    }
}

#[test]
fn cache_batch_matches_scalar_cache_and_counters() {
    let mut rng = SplitMix64::new(7);
    for &n in &SIZES {
        let layer = random_layer(&mut rng);
        let pus = random_batch(&mut rng, n);
        // WS then OS per candidate, as a best-dataflow pick probes them.
        let probes: Vec<_> =
            pus.iter().flat_map(|pu| DATAFLOWS.map(|df| (layer, *pu, df))).collect();
        let scalar = EvalCache::default();
        let batched = EvalCache::default();
        let got = batched.evaluate_probes(&probes);
        for (i, (pair, pu)) in got.chunks_exact(2).zip(&pus).enumerate() {
            let picked = pick_dataflow(pair[0], pair[1]);
            assert_eq!(picked, scalar.best_dataflow(&layer, pu), "size {n} item {i}");
        }
        // Same totals as the scalar sequence (duplicate PUs in the batch
        // miss once then hit, exactly like repeated scalar calls).
        assert_eq!(batched.hits(), scalar.hits(), "size {n}");
        assert_eq!(batched.misses(), scalar.misses(), "size {n}");
        // Same cache contents: every key lands in the shard the scalar
        // path would probe.
        assert_eq!(batched.export_lines(), scalar.export_lines(), "size {n}");
        // A second identical probe is all hits and computes nothing new.
        let misses_before = batched.misses();
        assert_eq!(batched.evaluate_probes(&probes), got, "size {n} second pass");
        assert_eq!(batched.misses(), misses_before, "size {n} second pass missed");
    }
}

#[test]
fn cache_batch_serves_preseeded_and_warm_entries() {
    let mut rng = SplitMix64::new(11);
    let layer = random_layer(&mut rng);
    let pus = random_batch(&mut rng, 64);
    let probes = sweep(&layer, &pus, Dataflow::WeightStationary);
    // Pre-seed half the keys through the scalar entry; the batch probe
    // must hit them (same shard assignment, same key identity).
    let cache = EvalCache::default();
    for pu in &pus[..32] {
        cache.evaluate(&layer, pu, Dataflow::WeightStationary);
    }
    let seeded_misses = cache.misses();
    let out = cache.evaluate_probes(&probes);
    assert_eq!(cache.hits(), 32);
    assert_eq!(cache.misses(), seeded_misses + 32);
    for (i, pu) in pus.iter().enumerate() {
        assert_eq!(
            out[i],
            evaluate(&layer, pu, Dataflow::WeightStationary, cache.energy_model()),
            "item {i}"
        );
    }
    // Warm tier: snapshot round-trip, then a batch probe over imported
    // entries counts warm hits.
    let warm = EvalCache::default();
    for line in cache.export_lines() {
        warm.import_line(&line).expect("snapshot line round-trips");
    }
    assert_eq!(warm.evaluate_probes(&probes), out);
    assert_eq!(warm.hits(), 64);
    assert_eq!(warm.warm_hits(), 64);
    assert_eq!(warm.misses(), 0);
}

#[test]
fn cache_batch_duplicates_hit_like_scalar_repeats() {
    let mut rng = SplitMix64::new(23);
    let layer = random_layer(&mut rng);
    let pu = random_pu(&mut rng);
    let other = random_pu(&mut rng);
    // Batch = [pu, pu, other, pu]: the scalar sequence misses twice
    // (pu, other) and hits twice (the repeated pu probes).
    let pus = [pu, pu, other, pu];
    let cache = EvalCache::default();
    let out = cache.evaluate_probes(&sweep(&layer, &pus, Dataflow::OutputStationary));
    let scalar = EvalCache::default();
    let want: Vec<_> =
        pus.iter().map(|p| scalar.evaluate(&layer, p, Dataflow::OutputStationary)).collect();
    assert_eq!(out, want);
    assert_eq!(cache.hits(), scalar.hits());
    assert_eq!(cache.misses(), scalar.misses());
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 2);
    assert_eq!(cache.warm_hits(), 0);
}

#[test]
fn cache_layer_and_mixed_probes_match_scalar() {
    let mut rng = SplitMix64::new(99);
    // Many layers against one PU (the segment-scoring shape).
    let layers: Vec<LayerDesc> = (0..48).map(|_| random_layer(&mut rng)).collect();
    let pu = random_pu(&mut rng);
    let probes: Vec<_> = layers.iter().map(|l| (*l, pu, Dataflow::WeightStationary)).collect();
    let cache = EvalCache::default();
    let scalar = EvalCache::default();
    let got = cache.evaluate_probes(&probes);
    for (i, l) in layers.iter().enumerate() {
        assert_eq!(got[i], scalar.evaluate(l, &pu, Dataflow::WeightStationary), "layer {i}");
    }
    assert_eq!(cache.misses(), scalar.misses());
    assert_eq!(cache.hits(), scalar.hits());
    // Heterogeneous (layer, PU, dataflow) triples with alternating
    // layers and interleaved duplicates.
    let mut probes = Vec::new();
    for i in 0..32 {
        let l = layers[i % 5];
        let p = random_pu(&mut rng);
        let df = DATAFLOWS[i % 2];
        probes.push((l, p, df));
        if i % 7 == 0 {
            probes.push((l, p, df));
        }
    }
    let cache = EvalCache::default();
    let scalar = EvalCache::default();
    let got = cache.evaluate_probes(&probes);
    for (i, (l, p, df)) in probes.iter().enumerate() {
        assert_eq!(got[i], scalar.evaluate(l, p, *df), "probe {i}");
    }
    assert_eq!(cache.misses(), scalar.misses());
    assert_eq!(cache.hits(), scalar.hits());
    assert_eq!(cache.warm_hits(), scalar.warm_hits());
    assert_eq!(cache.export_lines(), scalar.export_lines());
}
