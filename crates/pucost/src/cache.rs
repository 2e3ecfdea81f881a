//! A sharded, thread-safe memoization cache fronting [`evaluate`] and
//! [`best_dataflow`].
//!
//! The AutoSeg search loops (Algorithm 1's dataflow probes, the Section
//! VI-G co-design sweeps) evaluate the same `(layer, PU, dataflow)`
//! triples thousands of times: every scale-up trial re-scores every
//! segment, every search candidate re-probes both dataflows per item.
//! [`evaluate`] is a pure function of its inputs plus the energy model, so
//! those repeats can be served from a cache without changing a single bit
//! of the result.
//!
//! The cache is sharded (`Vec<Mutex<HashMap<..>>>`) so concurrent DSE
//! workers rarely contend on the same lock: the key hash picks the shard,
//! and each shard is an independent map guarded by its own mutex.
//!
//! One cache is tied to one [`EnergyModel`] (the model is part of the
//! evaluation's identity); callers that switch energy models use separate
//! caches.

use crate::batch::{PuBatch, PuEvalBatch};
use crate::compile::CompiledEval;
use crate::energy::EnergyModel;
use crate::eval::{evaluate, pick_dataflow, PuEval};
use crate::layer::LayerDesc;
use crate::pu::{Dataflow, PuConfig};
use crate::util::u64_of;
// Shard maps are lookup-only (never iterated), so hash order cannot leak
// into any output; lint: allow(nondet-iter)
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Canonical hashable identity of one `(layer, PU, dataflow)` evaluation.
///
/// [`PuConfig`] carries an `f64` clock and therefore cannot implement
/// `Eq`/`Hash` directly; the key stores the frequency's IEEE-754 bits,
/// which is exact for the cache's purpose (two configs evaluate
/// identically iff every field, including the clock, is bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    layer: LayerDesc,
    rows: usize,
    cols: usize,
    act_buf_bytes: u64,
    wgt_buf_bytes: u64,
    freq_bits: u64,
    dataflow: Dataflow,
}

impl EvalKey {
    /// Builds the key for `(layer, pu, df)`.
    pub fn new(layer: &LayerDesc, pu: &PuConfig, df: Dataflow) -> Self {
        Self {
            layer: *layer,
            rows: pu.rows,
            cols: pu.cols,
            act_buf_bytes: pu.act_buf_bytes,
            wgt_buf_bytes: pu.wgt_buf_bytes,
            freq_bits: pu.freq_mhz.to_bits(),
            dataflow: df,
        }
    }
}

/// Default shard count: enough that 8–16 workers rarely collide, small
/// enough that an idle cache costs nothing noticeable.
const DEFAULT_SHARDS: usize = 16;

/// One stored evaluation plus its provenance tier: `warm` entries were
/// imported (disk snapshot / checkpoint), everything else was computed by
/// this cache instance ("hot"). The tier never changes the served value —
/// it only routes the hit into the matching counter.
#[derive(Debug, Clone, Copy)]
struct Entry {
    eval: PuEval,
    warm: bool,
}

/// Sharded concurrent memo cache for PU cost evaluations.
///
/// Cheap to share by reference across scoped worker threads; all methods
/// take `&self`.
///
/// # Example
///
/// ```
/// use pucost::{Dataflow, EnergyModel, EvalCache, LayerDesc, PuConfig, evaluate};
///
/// let cache = EvalCache::new(EnergyModel::tsmc28());
/// let layer = LayerDesc {
///     in_c: 64, in_h: 28, in_w: 28, out_c: 128, out_h: 28, out_w: 28,
///     kernel: 3, stride: 1, groups: 1, is_fc: false,
/// };
/// let pu = PuConfig::new(16, 16);
/// let direct = evaluate(&layer, &pu, Dataflow::WeightStationary, &EnergyModel::tsmc28());
/// let cached = cache.evaluate(&layer, &pu, Dataflow::WeightStationary);
/// assert_eq!(direct, cached);                 // bit-identical
/// let again = cache.evaluate(&layer, &pu, Dataflow::WeightStationary);
/// assert_eq!(cached, again);
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug)]
pub struct EvalCache {
    em: EnergyModel,
    shards: Vec<Mutex<HashMap<EvalKey, Entry>>>, // lookup-only; lint: allow(nondet-iter)
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    batched_probes: AtomicU64,
    batch_misses: AtomicU64,
    batch_shard_locks: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new(EnergyModel::default())
    }
}

impl EvalCache {
    /// A cache bound to `em` with the default shard count.
    pub fn new(em: EnergyModel) -> Self {
        Self::with_shards(em, DEFAULT_SHARDS)
    }

    /// A cache bound to `em` with an explicit shard count (minimum 1).
    pub fn with_shards(em: EnergyModel, shards: usize) -> Self {
        Self {
            em,
            // lookup-only; lint: allow(nondet-iter)
            shards: (0..shards.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            batched_probes: AtomicU64::new(0),
            batch_misses: AtomicU64::new(0),
            batch_shard_locks: AtomicU64::new(0),
        }
    }

    /// The energy model every cached evaluation was produced under.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.em
    }

    fn shard_index(&self, key: &EvalKey) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        crate::util::usize_of(h.finish()) % self.shards.len()
    }

    // lookup-only; lint: allow(nondet-iter)
    fn shard_of(&self, key: &EvalKey) -> &Mutex<HashMap<EvalKey, Entry>> {
        &self.shards[self.shard_index(key)]
    }

    /// Memoized [`evaluate`]: identical results, repeated calls served
    /// from the shard map.
    ///
    /// Shard locks recover from poisoning: the map holds plain values
    /// whose invariants cannot be half-written, so a panicking worker
    /// elsewhere in the pool must not cascade through the cache.
    pub fn evaluate(&self, layer: &LayerDesc, pu: &PuConfig, df: Dataflow) -> PuEval {
        let key = EvalKey::new(layer, pu, df);
        let shard = self.shard_of(&key);
        if let Some(hit) = shard.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::add("pucost.cache.hits", 1);
            if hit.warm {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                obs::add("pucost.cache.warm_hits", 1);
            }
            return hit.eval;
        }
        // Compute outside the lock so a slow evaluation never blocks the
        // shard's other keys.
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::add("pucost.cache.misses", 1);
        let eval = evaluate(layer, pu, df, &self.em);
        // `cache.poison` fault point: poison this shard's mutex as a
        // crashed worker would, then proceed — the insert below must
        // recover, proving a panic elsewhere in the pool cannot take the
        // cache (or the search) down with it.
        if faultsim::armed() && faultsim::hit("cache.poison") {
            obs::add("fault.injected", 1);
            obs::event("fault.injected", &[("point", "cache.poison".into())]);
            poison_mutex(shard);
        }
        shard
            .lock()
            .unwrap_or_else(|e| {
                obs::add("fault.recovered", 1);
                obs::event("fault.recovered", &[("point", "cache.poison".into())]);
                e.into_inner()
            })
            .insert(key, Entry { eval, warm: false });
        eval
    }

    /// Memoized [`best_dataflow`]: probes both dataflows through the cache
    /// and applies the same latency-first, energy-tie-break selection.
    pub fn best_dataflow(&self, layer: &LayerDesc, pu: &PuConfig) -> (Dataflow, PuEval) {
        let ws = self.evaluate(layer, pu, Dataflow::WeightStationary);
        let os = self.evaluate(layer, pu, Dataflow::OutputStationary);
        pick_dataflow(ws, os)
    }

    /// Batched probe core: resolves every key in `keys`, touching each
    /// shard's lock at most twice (one hit-probe pass, one miss-insert
    /// pass) instead of once or twice *per key* like the scalar path.
    ///
    /// Misses are computed outside all locks through a [`CompiledEval`]
    /// that is recompiled only when the layer changes (callers order keys
    /// layer-major, so a batch over one layer compiles once). Results,
    /// counters and the `cache.poison` fault point behave exactly like an
    /// equivalent sequence of scalar [`EvalCache::evaluate`] calls:
    /// duplicate keys within a batch count one miss then hits, values are
    /// bit-identical, and the injected-poison recovery leaves every entry
    /// served.
    fn probe_batch(&self, keys: &[EvalKey]) -> Vec<PuEval> {
        let n = keys.len();
        if n == 0 {
            return Vec::new();
        }
        self.batched_probes.fetch_add(u64_of(n), Ordering::Relaxed);
        let n_shards = self.shards.len();
        let mut out: Vec<Option<PuEval>> = vec![None; n];
        // Pass 0 — shard assignment by prefix-cloned hashing. The derived
        // `Hash` for `EvalKey` feeds one sequential hasher field by field
        // (layer first), so hashing the layer once into a base hasher and
        // cloning it per key before hashing the remaining fields yields
        // the exact same `finish()` — and therefore the same shard — as
        // the scalar `shard_index`, while paying the (large) layer hash
        // once per layer run instead of once per key.
        let mut shard_idx: Vec<usize> = Vec::with_capacity(n);
        let mut counts: Vec<usize> = vec![0; n_shards];
        let mut prefix: Option<(LayerDesc, std::collections::hash_map::DefaultHasher)> = None;
        for key in keys {
            let mut h = match &prefix {
                Some((layer, base)) if *layer == key.layer => base.clone(),
                _ => {
                    let mut base = std::collections::hash_map::DefaultHasher::new();
                    key.layer.hash(&mut base);
                    let h = base.clone();
                    prefix = Some((key.layer, base));
                    h
                }
            };
            key.rows.hash(&mut h);
            key.cols.hash(&mut h);
            key.act_buf_bytes.hash(&mut h);
            key.wgt_buf_bytes.hash(&mut h);
            key.freq_bits.hash(&mut h);
            key.dataflow.hash(&mut h);
            let si = crate::util::usize_of(h.finish()) % n_shards;
            shard_idx.push(si);
            counts[si] += 1;
        }
        // Flat counting-sort bucketing: `order` lists key indices grouped
        // by shard (batch order within a shard), replacing per-shard Vecs.
        let mut starts: Vec<usize> = Vec::with_capacity(n_shards);
        let mut acc = 0usize;
        for &c in &counts {
            starts.push(acc);
            acc += c;
        }
        let mut cursor = starts.clone();
        let mut order: Vec<usize> = vec![0; n];
        for (i, &si) in shard_idx.iter().enumerate() {
            order[cursor[si]] = i;
            cursor[si] += 1;
        }
        // Pass 1 — probe: one lock per populated shard. In-batch duplicate
        // keys that miss are resolved by a linear scan of the shard's
        // pending misses (batches are small per shard, and key equality is
        // far cheaper than the two extra hashes a dedupe map would cost);
        // duplicates of present entries simply hit the map like the first
        // occurrence did.
        let mut locks = 0u64;
        let mut hit_count = 0u64;
        let mut warm_count = 0u64;
        // Miss key indices grouped by shard (shard-major, batch order
        // within a shard), with per-shard counts for the insert pass.
        let mut miss_by_shard: Vec<usize> = Vec::new();
        let mut miss_counts: Vec<usize> = vec![0; n_shards];
        // (duplicate, first-miss) index pairs, resolved after pass 2.
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for si in 0..n_shards {
            let bucket = &order[starts[si]..starts[si] + counts[si]];
            if bucket.is_empty() {
                continue;
            }
            let guard = self.shards[si].lock().unwrap_or_else(|e| e.into_inner());
            locks += 1;
            let pending_from = miss_by_shard.len();
            for &i in bucket {
                if let Some(hit) = guard.get(&keys[i]) {
                    hit_count += 1;
                    if hit.warm {
                        warm_count += 1;
                    }
                    out[i] = Some(hit.eval);
                } else if let Some(&j) =
                    miss_by_shard[pending_from..].iter().find(|&&j| keys[j] == keys[i])
                {
                    // Duplicate of an earlier in-batch miss: the scalar
                    // sequence would hit the (cold) entry the first
                    // occurrence inserted.
                    dups.push((i, j));
                    hit_count += 1;
                } else {
                    miss_by_shard.push(i);
                    miss_counts[si] += 1;
                }
            }
        }
        // Pass 2 — compute all misses outside any lock, in batch order so
        // one layer's candidates share one compiled program.
        let mut miss_idx = miss_by_shard.clone();
        miss_idx.sort_unstable();
        let mut compiled: Option<CompiledEval> = None;
        for &i in &miss_idx {
            let key = &keys[i];
            if compiled.as_ref().is_none_or(|c| *c.layer() != key.layer) {
                compiled = Some(CompiledEval::new(&key.layer, &self.em));
            }
            let program = compiled.as_ref().expect("compiled above");
            out[i] = Some(program.eval_parts(
                key.rows,
                key.cols,
                key.act_buf_bytes,
                key.wgt_buf_bytes,
                f64::from_bits(key.freq_bits),
                key.dataflow,
            ));
        }
        // `cache.poison` fault point: the scalar path checks once per
        // miss, so the batch path draws the same number of faults in the
        // same (batch) order and poisons each struck shard before its
        // insert pass below, which must recover.
        let mut poisoned: Vec<bool> = vec![false; n_shards];
        if faultsim::armed() {
            for &i in &miss_idx {
                if faultsim::hit("cache.poison") {
                    obs::add("fault.injected", 1);
                    obs::event("fault.injected", &[("point", "cache.poison".into())]);
                    poisoned[shard_idx[i]] = true;
                }
            }
        }
        // Pass 3 — insert: one lock per shard that had misses, walking the
        // shard-major miss list by per-shard counts.
        let mut off = 0usize;
        for (si, &cnt) in miss_counts.iter().enumerate() {
            let bucket = &miss_by_shard[off..off + cnt];
            off += cnt;
            if bucket.is_empty() {
                continue;
            }
            if poisoned[si] {
                poison_mutex(&self.shards[si]);
            }
            let mut guard = self.shards[si].lock().unwrap_or_else(|e| {
                obs::add("fault.recovered", 1);
                obs::event("fault.recovered", &[("point", "cache.poison".into())]);
                e.into_inner()
            });
            locks += 1;
            for &i in bucket {
                let eval = out[i].expect("miss computed in pass 2");
                guard.insert(keys[i], Entry { eval, warm: false });
            }
        }
        // In-batch duplicates of misses resolve against their first
        // occurrence; they were counted as (cold) hits in pass 1.
        for &(i, j) in &dups {
            out[i] = out[j];
        }
        let miss_count = u64_of(miss_idx.len());
        self.hits.fetch_add(hit_count, Ordering::Relaxed);
        self.warm_hits.fetch_add(warm_count, Ordering::Relaxed);
        self.misses.fetch_add(miss_count, Ordering::Relaxed);
        self.batch_misses.fetch_add(miss_count, Ordering::Relaxed);
        self.batch_shard_locks.fetch_add(locks, Ordering::Relaxed);
        if hit_count > 0 {
            obs::add("pucost.cache.hits", hit_count);
        }
        if warm_count > 0 {
            obs::add("pucost.cache.warm_hits", warm_count);
        }
        if miss_count > 0 {
            obs::add("pucost.cache.misses", miss_count);
        }
        obs::add("pucost.cache.batched_probes", u64_of(n));
        obs::flight::note("cache.batch_probe", u64_of(n), miss_count);
        out.into_iter().map(|e| e.expect("all keys resolved")).collect()
    }

    /// Memoized [`crate::evaluate_batch`]: evaluates `layer` against
    /// every candidate in `pus` under `df`, serving hits and inserting
    /// misses with one lock acquisition per shard. Results (and the
    /// resulting cache contents) are bit-identical to calling
    /// [`EvalCache::evaluate`] per candidate.
    pub fn evaluate_batch(&self, layer: &LayerDesc, pus: &PuBatch, df: Dataflow) -> PuEvalBatch {
        let keys: Vec<EvalKey> =
            (0..pus.len()).map(|i| EvalKey::new(layer, &pus.pu(i), df)).collect();
        PuEvalBatch::from(self.probe_batch(&keys))
    }

    /// Memoized [`crate::best_dataflow_batch`]: probes WS and OS for
    /// every candidate in one fused sweep (both entries are cached, as
    /// the scalar [`EvalCache::best_dataflow`] would) and applies the
    /// shared latency-first, energy-tie-break selection per candidate.
    pub fn best_dataflow_batch(&self, layer: &LayerDesc, pus: &PuBatch) -> PuEvalBatch {
        let mut keys = Vec::with_capacity(pus.len() * 2);
        for i in 0..pus.len() {
            let pu = pus.pu(i);
            keys.push(EvalKey::new(layer, &pu, Dataflow::WeightStationary));
            keys.push(EvalKey::new(layer, &pu, Dataflow::OutputStationary));
        }
        let evals = self.probe_batch(&keys);
        let picked: Vec<PuEval> = evals
            .chunks_exact(2)
            .map(|pair| pick_dataflow(pair[0], pair[1]).1)
            .collect();
        PuEvalBatch::from(picked)
    }

    /// Batched probe of many layers against one PU under one dataflow —
    /// the segment-scoring shape (`eval_pu_segment` sums one PU over a
    /// segment's items). Same results and cache contents as a scalar
    /// [`EvalCache::evaluate`] loop.
    pub fn evaluate_layers(
        &self,
        layers: &[LayerDesc],
        pu: &PuConfig,
        df: Dataflow,
    ) -> Vec<PuEval> {
        let keys: Vec<EvalKey> = layers.iter().map(|l| EvalKey::new(l, pu, df)).collect();
        self.probe_batch(&keys)
    }

    /// Batched probe of an arbitrary `(layer, PU, dataflow)` list — the
    /// heterogeneous shape the serving scheduler collects. Group probes
    /// by layer where possible: each layer change recompiles the miss
    /// kernel.
    pub fn evaluate_probes(&self, probes: &[(LayerDesc, PuConfig, Dataflow)]) -> Vec<PuEval> {
        let keys: Vec<EvalKey> =
            probes.iter().map(|(l, pu, df)| EvalKey::new(l, pu, *df)).collect();
        self.probe_batch(&keys)
    }

    /// Number of lookups served from the cache (both tiers).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Hits served from entries imported via [`EvalCache::import_line`]
    /// (the persistent "warm" tier — a disk snapshot or a checkpoint).
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Hits served from entries this cache instance computed itself (the
    /// in-memory "hot" tier): `hits - warm_hits`.
    pub fn hot_hits(&self) -> u64 {
        self.hits().saturating_sub(self.warm_hits())
    }

    /// Number of lookups that had to evaluate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that arrived through the batch API (each batched key
    /// counts once; also included in `hits`/`misses`).
    pub fn batched_probes(&self) -> u64 {
        self.batched_probes.load(Ordering::Relaxed)
    }

    /// Batch-path lookups that had to evaluate (subset of `misses`).
    pub fn batch_misses(&self) -> u64 {
        self.batch_misses.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions taken by the batch path. The scalar path
    /// pays one lock per probe plus one per insert; comparing this
    /// against `batched_probes` shows the amortization (a whole batch
    /// costs at most `2 * shards` acquisitions).
    pub fn batch_shard_locks(&self) -> u64 {
        self.batch_shard_locks.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 for an unused cache.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            crate::util::f64_of(h) / crate::util::f64_of(h + m)
        }
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the hit/miss counters.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.warm_hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.batched_probes.store(0, Ordering::Relaxed);
        self.batch_misses.store(0, Ordering::Relaxed);
        self.batch_shard_locks.store(0, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of the cache's counters and occupancy,
    /// cheap enough to take at the end of every search.
    pub fn stats(&self) -> CacheStats {
        let per_shard: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .collect();
        let entries = per_shard.iter().sum();
        let max_shard = per_shard.iter().copied().max().unwrap_or(0);
        CacheStats {
            hits: self.hits(),
            warm_hits: self.warm_hits(),
            hot_hits: self.hot_hits(),
            misses: self.misses(),
            hit_rate: self.hit_rate(),
            entries,
            shards: per_shard.len(),
            max_shard,
            batched_probes: self.batched_probes(),
            batch_misses: self.batch_misses(),
            batch_shard_locks: self.batch_shard_locks(),
        }
    }

    /// FNV-1a fingerprint of the bound [`EnergyModel`]'s exact bits.
    ///
    /// Checkpoints store this next to exported cache entries so a resume
    /// under a different energy model is rejected instead of silently
    /// mixing evaluations from two models.
    pub fn model_fingerprint(&self) -> u64 {
        let bytes: Vec<u8> = [
            self.em.mac_pj,
            self.em.sram_pj_per_byte,
            self.em.psum_pj_per_byte,
            self.em.dram_pj_per_byte,
        ]
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
        faultsim::rng::fnv1a(&bytes)
    }

    /// Serializes every cached entry to one text line each, sorted (the
    /// shard maps hash-order their entries; sorting makes the export a
    /// deterministic function of the cache *contents*). Floats are IEEE
    /// bits in hex, so [`EvalCache::import_line`] round-trips bit-exactly.
    pub fn export_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            let g = s.lock().unwrap_or_else(|e| e.into_inner());
            for (k, v) in g.iter() {
                out.push(entry_line(k, &v.eval));
            }
        }
        out.sort_unstable();
        out
    }

    /// Restores one [`EvalCache::export_lines`] line into the cache
    /// (hit/miss counters are untouched — a restored entry is neither).
    /// Imported entries belong to the warm tier: later lookups that land
    /// on them count under [`EvalCache::warm_hits`].
    pub fn import_line(&self, line: &str) -> Result<(), SnapshotError> {
        let (key, eval) = parse_entry_line(line)?;
        let shard = self.shard_of(&key);
        shard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, Entry { eval, warm: true });
        Ok(())
    }
}

/// A malformed [`EvalCache::export_lines`] line fed to
/// [`EvalCache::import_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// The offending line.
    pub line: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad cache snapshot line {:?}", self.line)
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes one cache entry: `ck` + 16 key fields + 13 eval fields.
fn entry_line(k: &EvalKey, v: &PuEval) -> String {
    let l = &k.layer;
    let e = &v.energy;
    format!(
        "ck {} {} {} {} {} {} {} {} {} {} {} {} {} {} {:016x} {} {} {} {:016x} {} {:016x} {} {} {} {:016x} {:016x} {:016x} {:016x} {}",
        l.in_c,
        l.in_h,
        l.in_w,
        l.out_c,
        l.out_h,
        l.out_w,
        l.kernel,
        l.stride,
        l.groups,
        u8::from(l.is_fc),
        k.rows,
        k.cols,
        k.act_buf_bytes,
        k.wgt_buf_bytes,
        k.freq_bits,
        k.dataflow,
        v.dataflow,
        v.cycles,
        v.seconds.to_bits(),
        v.macs,
        v.utilization.to_bits(),
        v.act_buf_bytes,
        v.wgt_buf_bytes,
        v.psum_bytes,
        e.mac_pj.to_bits(),
        e.act_buf_pj.to_bits(),
        e.wgt_buf_pj.to_bits(),
        e.psum_pj.to_bits(),
        u8::from(v.buffers_ok),
    )
}

fn parse_entry_line(line: &str) -> Result<(EvalKey, PuEval), SnapshotError> {
    let bad = || SnapshotError {
        line: line.to_string(),
    };
    let toks: Vec<&str> = line.split_ascii_whitespace().collect();
    if toks.len() != 30 || toks[0] != "ck" {
        return Err(bad());
    }
    let int = |i: usize| -> Result<usize, SnapshotError> {
        toks[i].parse::<usize>().map_err(|_| bad())
    };
    let int64 = |i: usize| -> Result<u64, SnapshotError> {
        toks[i].parse::<u64>().map_err(|_| bad())
    };
    let bits = |i: usize| -> Result<u64, SnapshotError> {
        u64::from_str_radix(toks[i], 16).map_err(|_| bad())
    };
    let flag = |i: usize| -> Result<bool, SnapshotError> {
        match toks[i] {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad()),
        }
    };
    let df = |i: usize| -> Result<Dataflow, SnapshotError> {
        match toks[i] {
            "WS" => Ok(Dataflow::WeightStationary),
            "OS" => Ok(Dataflow::OutputStationary),
            _ => Err(bad()),
        }
    };
    let layer = LayerDesc {
        in_c: int(1)?,
        in_h: int(2)?,
        in_w: int(3)?,
        out_c: int(4)?,
        out_h: int(5)?,
        out_w: int(6)?,
        kernel: int(7)?,
        stride: int(8)?,
        groups: int(9)?,
        is_fc: flag(10)?,
    };
    let key = EvalKey {
        layer,
        rows: int(11)?,
        cols: int(12)?,
        act_buf_bytes: int64(13)?,
        wgt_buf_bytes: int64(14)?,
        freq_bits: bits(15)?,
        dataflow: df(16)?,
    };
    let eval = PuEval {
        dataflow: df(17)?,
        cycles: int64(18)?,
        seconds: f64::from_bits(bits(19)?),
        macs: int64(20)?,
        utilization: f64::from_bits(bits(21)?),
        act_buf_bytes: int64(22)?,
        wgt_buf_bytes: int64(23)?,
        psum_bytes: int64(24)?,
        energy: crate::energy::EnergyBreakdown {
            mac_pj: f64::from_bits(bits(25)?),
            act_buf_pj: f64::from_bits(bits(26)?),
            wgt_buf_pj: f64::from_bits(bits(27)?),
            psum_pj: f64::from_bits(bits(28)?),
        },
        buffers_ok: flag(29)?,
    };
    Ok((key, eval))
}

/// Poisons `mutex` exactly as a panicking thread holding its guard would,
/// keeping the panic contained (and the default hook silenced) so the
/// only observable effect is the poison flag the recovery path must
/// handle.
// lint: allow(nondet-iter) — type mention in the signature only; the shard map is never iterated here.
fn poison_mutex(mutex: &Mutex<HashMap<EvalKey, Entry>>) {
    struct QuietPayload;
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = mutex.lock().unwrap_or_else(|e| e.into_inner());
        std::panic::panic_any(QuietPayload);
    }));
    std::panic::set_hook(prev);
}

/// Snapshot of an [`EvalCache`]'s counters, taken by [`EvalCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Lookups served from the cache (warm + hot).
    pub hits: u64,
    /// Hits served from imported (persistent-tier) entries.
    pub warm_hits: u64,
    /// Hits served from entries computed by this cache instance.
    pub hot_hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 for an unused cache.
    pub hit_rate: f64,
    /// Distinct evaluations stored across all shards.
    pub entries: usize,
    /// Shard count.
    pub shards: usize,
    /// Occupancy of the fullest shard (balance indicator).
    pub max_shard: usize,
    /// Lookups that arrived through the batch API.
    pub batched_probes: u64,
    /// Batch-path lookups that had to evaluate.
    pub batch_misses: u64,
    /// Shard-lock acquisitions taken by the batch path (at most two per
    /// populated shard per batch — the amortization the batch API buys).
    pub batch_shard_locks: u64,
}

impl CacheStats {
    /// Publishes the snapshot as obs counters plus one summary event.
    pub fn publish(&self, label: &'static str) {
        if !obs::enabled() {
            return;
        }
        obs::event(
            label,
            &[
                ("hits", self.hits.into()),
                ("warm_hits", self.warm_hits.into()),
                ("misses", self.misses.into()),
                ("hit_rate", self.hit_rate.into()),
                ("entries", self.entries.into()),
                ("max_shard", self.max_shard.into()),
                ("batched_probes", self.batched_probes.into()),
                ("batch_misses", self.batch_misses.into()),
                ("batch_shard_locks", self.batch_shard_locks.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::best_dataflow;

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
    fn cached_matches_direct() {
        let em = EnergyModel::tsmc28();
        let cache = EvalCache::new(em);
        let pu = PuConfig::new(8, 16).with_buffers(4096, 4096);
        for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            assert_eq!(cache.evaluate(&conv(), &pu, df), evaluate(&conv(), &pu, df, &em));
        }
        assert_eq!(cache.best_dataflow(&conv(), &pu), best_dataflow(&conv(), &pu, &em));
    }

    #[test]
    fn hits_and_misses_counted() {
        let cache = EvalCache::new(EnergyModel::tsmc28());
        let pu = PuConfig::new(16, 16);
        assert_eq!(cache.hit_rate(), 0.0);
        cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // A different PU or dataflow is a different key.
        cache.evaluate(&conv(), &pu, Dataflow::OutputStationary);
        cache.evaluate(&conv(), &PuConfig::new(8, 8), Dataflow::WeightStationary);
        assert_eq!(cache.len(), 3);
        assert!(cache.hit_rate() > 0.0 && cache.hit_rate() < 1.0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn stats_snapshot_matches_counters() {
        let cache = EvalCache::with_shards(EnergyModel::tsmc28(), 4);
        let s0 = cache.stats();
        assert_eq!((s0.hits, s0.misses, s0.entries), (0, 0, 0));
        assert_eq!(s0.hit_rate, 0.0);
        assert_eq!(s0.shards, 4);
        let pu = PuConfig::new(16, 16);
        cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
        cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
        cache.evaluate(&conv(), &pu, Dataflow::OutputStationary);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (cache.hits(), cache.misses()));
        assert_eq!(s.entries, cache.len());
        assert!(s.max_shard >= 1 && s.max_shard <= s.entries);
        assert!((s.hit_rate - cache.hit_rate()).abs() < 1e-12);
    }

    #[test]
    fn frequency_and_buffers_distinguish_keys() {
        let cache = EvalCache::new(EnergyModel::tsmc28());
        let a = PuConfig::new(16, 16).with_freq_mhz(800.0);
        let b = PuConfig::new(16, 16).with_freq_mhz(400.0);
        let ea = cache.evaluate(&conv(), &a, Dataflow::WeightStationary);
        let eb = cache.evaluate(&conv(), &b, Dataflow::WeightStationary);
        assert_eq!(cache.misses(), 2, "distinct clocks must not collide");
        assert_eq!(ea.cycles, eb.cycles);
        assert!(ea.seconds < eb.seconds);
        let c = PuConfig::new(16, 16).with_buffers(1, 1);
        let ec = cache.evaluate(&conv(), &c, Dataflow::WeightStationary);
        assert_eq!(cache.misses(), 3);
        assert!(!ec.buffers_ok);
    }

    #[test]
    fn snapshot_lines_round_trip_bit_exactly() {
        let em = EnergyModel::tsmc28();
        let cache = EvalCache::with_shards(em, 4);
        let pus = [
            PuConfig::new(16, 16),
            PuConfig::new(8, 8).with_buffers(4096, 4096),
            PuConfig::new(16, 16).with_freq_mhz(400.0),
        ];
        for pu in &pus {
            for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                cache.evaluate(&conv(), pu, df);
            }
        }
        let lines = cache.export_lines();
        assert_eq!(lines.len(), cache.len());
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "export is sorted (deterministic)");

        let restored = EvalCache::with_shards(em, 2);
        for l in &lines {
            restored.import_line(l).expect("line parses");
        }
        assert_eq!(restored.len(), cache.len());
        assert_eq!((restored.hits(), restored.misses()), (0, 0));
        // Every restored entry is served as a hit, bit-identical.
        for pu in &pus {
            for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                assert_eq!(
                    restored.evaluate(&conv(), pu, df),
                    evaluate(&conv(), pu, df, &em)
                );
            }
        }
        assert_eq!(restored.misses(), 0, "restored entries hit, never re-evaluate");
        assert_eq!(restored.export_lines(), lines, "round trip is stable");
    }

    #[test]
    fn import_rejects_malformed_lines() {
        let cache = EvalCache::new(EnergyModel::tsmc28());
        for bad in [
            "",
            "ck 1 2 3",
            "nonsense",
            "ck a 28 28 128 28 28 3 1 1 0 16 16 0 0 0 WS WS 1 0 1 0 1 1 1 0 0 0 0 1",
            "ck 64 28 28 128 28 28 3 1 1 0 16 16 0 0 0 XX WS 1 0 1 0 1 1 1 0 0 0 0 1",
        ] {
            let e = cache.import_line(bad).expect_err(bad);
            assert_eq!(e.line, bad);
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn warm_and_hot_hits_are_tiered() {
        let em = EnergyModel::tsmc28();
        let source = EvalCache::new(em);
        let pu = PuConfig::new(16, 16);
        source.evaluate(&conv(), &pu, Dataflow::WeightStationary);

        let cache = EvalCache::new(em);
        for l in source.export_lines() {
            cache.import_line(&l).expect("line parses");
        }
        // Imported entry → warm hit.
        cache.evaluate(&conv(), &pu, Dataflow::WeightStationary);
        assert_eq!((cache.hits(), cache.warm_hits(), cache.hot_hits()), (1, 1, 0));
        // Freshly computed entry → hot hit.
        cache.evaluate(&conv(), &pu, Dataflow::OutputStationary);
        cache.evaluate(&conv(), &pu, Dataflow::OutputStationary);
        assert_eq!((cache.hits(), cache.warm_hits(), cache.hot_hits()), (2, 1, 1));
        let s = cache.stats();
        assert_eq!((s.warm_hits, s.hot_hits), (1, 1));
        assert_eq!(s.hits, s.warm_hits + s.hot_hits);
        cache.clear();
        assert_eq!(cache.warm_hits(), 0);
    }

    #[test]
    fn model_fingerprint_distinguishes_models() {
        let a = EvalCache::new(EnergyModel::tsmc28());
        let b = EvalCache::new(EnergyModel::tsmc28());
        assert_eq!(a.model_fingerprint(), b.model_fingerprint());
        let mut other = EnergyModel::tsmc28();
        other.mac_pj *= 2.0;
        let c = EvalCache::new(other);
        assert_ne!(a.model_fingerprint(), c.model_fingerprint());
    }

    #[test]
    fn batch_matches_scalar_and_amortizes_locks() {
        let em = EnergyModel::tsmc28();
        let scalar = EvalCache::new(em);
        let batched = EvalCache::new(em);
        let pus: Vec<PuConfig> = [(4, 4), (8, 16), (16, 16), (16, 32), (32, 32)]
            .iter()
            .map(|&(r, c)| PuConfig::new(r, c).with_buffers(4096, 4096))
            .collect();
        let batch = crate::batch::PuBatch::from_pus(&pus);
        for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
            let out = batched.evaluate_batch(&conv(), &batch, df);
            for (i, pu) in pus.iter().enumerate() {
                assert_eq!(out.evals()[i], scalar.evaluate(&conv(), pu, df));
            }
        }
        assert_eq!(batched.len(), scalar.len());
        assert_eq!(batched.misses(), scalar.misses());
        assert_eq!(batched.batched_probes(), 2 * pus.len() as u64);
        assert_eq!(batched.batch_misses(), batched.misses());
        // Two passes over at most `shards` locks per batch, never one
        // lock per probe.
        assert!(batched.batch_shard_locks() <= 2 * 2 * DEFAULT_SHARDS as u64);
        // A second identical batch is all hits: only probe locks.
        let before = batched.batch_shard_locks();
        let again = batched.evaluate_batch(&conv(), &batch, Dataflow::WeightStationary);
        assert_eq!(again.evals()[3], scalar.evaluate(&conv(), &pus[3], Dataflow::WeightStationary));
        assert_eq!(batched.batch_misses(), batched.misses(), "no new misses");
        assert!(batched.batch_shard_locks() - before <= DEFAULT_SHARDS as u64);
    }

    #[test]
    fn best_dataflow_batch_matches_scalar_pick_and_entries() {
        let em = EnergyModel::tsmc28();
        let scalar = EvalCache::new(em);
        let batched = EvalCache::new(em);
        let pus: Vec<PuConfig> =
            [(4, 4), (16, 16), (32, 8)].iter().map(|&(r, c)| PuConfig::new(r, c)).collect();
        let batch = crate::batch::PuBatch::from_pus(&pus);
        let out = batched.best_dataflow_batch(&conv(), &batch);
        for (i, pu) in pus.iter().enumerate() {
            let (df, eval) = scalar.best_dataflow(&conv(), pu);
            assert_eq!(out.evals()[i], eval);
            assert_eq!(out.evals()[i].dataflow, df);
        }
        // Both dataflow entries are cached, exactly like the scalar path.
        assert_eq!(batched.len(), scalar.len());
        assert_eq!(batched.export_lines(), scalar.export_lines());
    }

    #[test]
    fn batch_duplicates_count_like_sequential_probes() {
        let cache = EvalCache::new(EnergyModel::tsmc28());
        let pu = PuConfig::new(16, 16);
        let layers = vec![conv(), conv(), conv()];
        let out = cache.evaluate_layers(&layers, &pu, Dataflow::WeightStationary);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        // First occurrence misses, the two duplicates hit — the same
        // counts a scalar loop over the three probes would record.
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn batch_serves_warm_tier_and_mixed_probes() {
        let em = EnergyModel::tsmc28();
        let source = EvalCache::new(em);
        let pu = PuConfig::new(16, 16);
        source.evaluate(&conv(), &pu, Dataflow::WeightStationary);

        let cache = EvalCache::new(em);
        for l in source.export_lines() {
            cache.import_line(&l).expect("line parses");
        }
        let other = LayerDesc { in_c: 32, ..conv() };
        let probes = vec![
            (conv(), pu, Dataflow::WeightStationary), // warm hit
            (other, pu, Dataflow::WeightStationary),  // miss
            (conv(), pu, Dataflow::OutputStationary), // miss
        ];
        let out = cache.evaluate_probes(&probes);
        assert_eq!(out[0], evaluate(&conv(), &pu, Dataflow::WeightStationary, &em));
        assert_eq!(out[1], evaluate(&other, &pu, Dataflow::WeightStationary, &em));
        assert_eq!(out[2], evaluate(&conv(), &pu, Dataflow::OutputStationary, &em));
        assert_eq!((cache.hits(), cache.warm_hits(), cache.misses()), (1, 1, 2));
        let s = cache.stats();
        assert_eq!((s.batched_probes, s.batch_misses), (3, 2));
        assert!(s.batch_shard_locks >= 2);
    }

    #[test]
    fn empty_batch_touches_nothing() {
        let cache = EvalCache::new(EnergyModel::tsmc28());
        let out = cache.evaluate_batch(&conv(), &crate::batch::PuBatch::new(), Dataflow::WeightStationary);
        assert!(out.is_empty());
        assert_eq!(cache.batched_probes(), 0);
        assert_eq!(cache.batch_shard_locks(), 0);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let em = EnergyModel::tsmc28();
        let cache = EvalCache::with_shards(em, 4);
        let layers: Vec<LayerDesc> = (1..=8)
            .map(|k| LayerDesc {
                in_c: 8 * k,
                out_c: 16 * k,
                ..conv()
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for l in &layers {
                        for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                            let got = cache.evaluate(l, &PuConfig::new(16, 16), df);
                            assert_eq!(got, evaluate(l, &PuConfig::new(16, 16), df, &em));
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), layers.len() * 2);
        assert_eq!(cache.hits() + cache.misses(), (layers.len() * 2 * 4) as u64);
    }
}
