//! Fault injection into the eval cache: a shard whose lock is poisoned
//! mid-insert keeps serving correct results.
//!
//! The `cache.poison` plan is process-global, so these tests run in their
//! own test binary, where no other cache test crosses the fault point
//! while a plan is armed, and hold `faultsim::exclusive()` against each
//! other.

use pucost::{evaluate, Dataflow, EnergyModel, EvalCache, LayerDesc, PuConfig};

fn conv() -> LayerDesc {
    LayerDesc {
        in_c: 64,
        in_h: 28,
        in_w: 28,
        out_c: 128,
        out_h: 28,
        out_w: 28,
        kernel: 3,
        stride: 1,
        groups: 1,
        is_fc: false,
    }
}

#[test]
fn injected_shard_poison_is_recovered() {
    let _gate = faultsim::exclusive();
    faultsim::arm("cache.poison@1").expect("plan parses");
    let em = EnergyModel::tsmc28();
    let cache = EvalCache::with_shards(em, 1); // one shard: the poisoned one
    let pu = PuConfig::new(16, 16);
    let a = cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
    assert_eq!(faultsim::injected(), vec!["cache.poison@1"]);
    faultsim::disarm();
    // The poisoned shard still serves correct results, and the entry
    // inserted through the poisoned lock is served as a hit.
    assert_eq!(a, evaluate(&conv(), &pu, Dataflow::WeightStationary, &em));
    let again = cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
    assert_eq!(again, a);
    assert_eq!(cache.hits(), 1);
    // Fresh keys keep inserting fine through the recovered lock.
    cache.evaluate(&conv(), &pu, Dataflow::OutputStationary);
    assert_eq!(cache.len(), 2);
}

#[test]
fn injected_poison_in_batch_insert_is_recovered() {
    let _gate = faultsim::exclusive();
    faultsim::arm("cache.poison@1").expect("plan parses");
    let em = EnergyModel::tsmc28();
    let cache = EvalCache::with_shards(em, 1);
    let pus = vec![PuConfig::new(16, 16), PuConfig::new(8, 8)];
    let probes: Vec<_> =
        pus.iter().map(|pu| (conv(), *pu, Dataflow::WeightStationary)).collect();
    let out = cache.evaluate_probes(&probes);
    assert_eq!(faultsim::injected(), vec!["cache.poison@1"]);
    faultsim::disarm();
    for (i, pu) in pus.iter().enumerate() {
        assert_eq!(out[i], evaluate(&conv(), pu, Dataflow::WeightStationary, &em));
    }
    // Entries inserted through the poisoned (recovered) lock serve
    // as hits afterwards.
    assert_eq!(cache.len(), 2);
    let again = cache.evaluate_probes(&probes);
    assert_eq!(again, out);
    assert_eq!(cache.misses(), 2);
}
