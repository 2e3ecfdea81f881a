//! A disk snapshot of the PU-cost cache.
//!
//! A [`DiskCache`] snapshots an in-memory [`pucost::EvalCache`] to disk
//! in the checkpoint format (kind `evalcache`) and restores it into
//! another cache. `spa-serve` evaluates the cost model directly and
//! loads no snapshot; the type stays while the repo benchmark still
//! writes one. Three invariants:
//!
//! * **Versioned**: the snapshot records the bound energy model's
//!   fingerprint ([`pucost::EvalCache::model_fingerprint`]); a snapshot
//!   taken under a different model is rejected typed, never mixed in.
//! * **Atomic**: writes go through [`autoseg::Checkpoint::save`]
//!   (tmp + rename, checksummed), so a crash mid-save leaves the
//!   previous snapshot intact — and the `ckpt.torn` fault point lets
//!   tests rehearse exactly that.
//! * **Bounded**: at most `cap` entries are kept. Recency is tracked at
//!   *save granularity* (the cache itself has no per-lookup clock):
//!   entries newly computed since the previous snapshot are considered
//!   most recent and go to the front of the stored order; when the cap
//!   is exceeded, the back — the entries persisted longest ago — is
//!   dropped. This is LRU at snapshot resolution, documented rather
//!   than silent.

use autoseg::{Checkpoint, CheckpointError};
use pucost::EvalCache;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Checkpoint kind tag for cache snapshots.
const KIND: &str = "evalcache";

/// Default entry cap (a full codesign smoke run stays well under this).
pub const DEFAULT_CAP: usize = 65_536;

/// A disk-backed snapshot manager for one [`EvalCache`].
#[derive(Debug)]
pub struct DiskCache {
    path: PathBuf,
    cap: usize,
    /// Stored entry lines, most-recently-persisted first. Mirrors what is
    /// on disk; rewritten by [`DiskCache::save`].
    order: Vec<String>,
    /// Set view of `order` for O(log n) membership checks.
    known: BTreeSet<String>,
    saves: u64,
    loaded: usize,
}

impl DiskCache {
    /// A manager persisting to `path` with an entry cap (clamped ≥ 1).
    pub fn new(path: impl Into<PathBuf>, cap: usize) -> Self {
        Self {
            path: path.into(),
            cap: cap.max(1),
            order: Vec::new(),
            known: BTreeSet::new(),
            saves: 0,
            loaded: 0,
        }
    }

    /// The snapshot path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Entries imported by the last [`DiskCache::load`].
    pub fn loaded_entries(&self) -> usize {
        self.loaded
    }

    /// Snapshots written by this manager.
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Loads the snapshot (if any) into `cache` as warm-tier entries.
    /// Returns the number imported: 0 when no snapshot exists yet.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] for a torn/corrupt snapshot or a fingerprint
    /// mismatch (snapshot taken under a different energy model). Callers
    /// treat both as "start cold" but surface the reason.
    pub fn load(&mut self, cache: &EvalCache) -> Result<usize, CheckpointError> {
        if !self.path.exists() {
            return Ok(0);
        }
        let ck = Checkpoint::load(&self.path)?;
        ck.require(
            KIND,
            &[("em", &format!("{:016x}", cache.model_fingerprint()))],
        )?;
        let mut imported = 0usize;
        self.order.clear();
        self.known.clear();
        for line in ck.section("cache") {
            cache.import_line(line).map_err(|e| CheckpointError::Corrupt {
                path: self.path.display().to_string(),
                reason: e.to_string(),
            })?;
            self.order.push(line.clone());
            self.known.insert(line.clone());
            imported += 1;
        }
        self.loaded = imported;
        obs::add("serve.diskcache.loaded", pucost::util::u64_of(imported));
        Ok(imported)
    }

    /// Snapshots `cache` to disk: new entries (not in the previous
    /// snapshot) are prepended in sorted order, the previous order is
    /// kept behind them, and everything past `cap` entries is dropped.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the atomic write fails.
    pub fn save(&mut self, cache: &EvalCache) -> Result<(), CheckpointError> {
        let current = cache.export_lines();
        let fresh: Vec<String> = current
            .iter()
            .filter(|l| !self.known.contains(*l))
            .cloned()
            .collect(); // already sorted: export_lines sorts
        let mut next: Vec<String> = Vec::with_capacity(fresh.len() + self.order.len());
        next.extend(fresh);
        next.extend(self.order.iter().cloned());
        next.truncate(self.cap);
        let mut ck = Checkpoint::new(KIND);
        ck.set_meta("em", &format!("{:016x}", cache.model_fingerprint()));
        ck.set_meta("cap", &self.cap.to_string());
        ck.push_section("cache", next.clone());
        ck.save(&self.path)?;
        self.known = next.iter().cloned().collect();
        self.order = next;
        self.saves += 1;
        obs::add("serve.diskcache.saves", 1);
        obs::record("serve.diskcache.entries", pucost::util::u64_of(self.order.len()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pucost::{Dataflow, EnergyModel, LayerDesc, PuConfig};

    fn layer(k: usize) -> LayerDesc {
        LayerDesc {
            in_c: 8 * k,
            in_h: 14,
            in_w: 14,
            out_c: 16 * k,
            out_h: 14,
            out_w: 14,
            kernel: 3,
            stride: 1,
            groups: 1,
            is_fc: false,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("serve-diskcache-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn snapshot_round_trip_warms_a_fresh_cache() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let em = EnergyModel::tsmc28();
        let cache = EvalCache::new(em);
        for k in 1..=3 {
            cache.evaluate(&layer(k), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        }
        let mut disk = DiskCache::new(&path, 1024);
        assert_eq!(disk.load(&cache).expect("no snapshot yet"), 0);
        disk.save(&cache).expect("save");
        assert_eq!(disk.saves(), 1);

        let fresh = EvalCache::new(em);
        let mut disk2 = DiskCache::new(&path, 1024);
        assert_eq!(disk2.load(&fresh).expect("load"), 3);
        assert_eq!(disk2.loaded_entries(), 3);
        // Warm tier: every repeat is a warm hit, zero misses.
        for k in 1..=3 {
            fresh.evaluate(&layer(k), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        }
        assert_eq!((fresh.warm_hits(), fresh.misses()), (3, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_typed_not_mixed() {
        let path = tmp("fingerprint");
        let _ = std::fs::remove_file(&path);
        let cache = EvalCache::new(EnergyModel::tsmc28());
        cache.evaluate(&layer(1), &PuConfig::new(8, 8), Dataflow::OutputStationary);
        let mut disk = DiskCache::new(&path, 16);
        disk.save(&cache).expect("save");

        let mut other_model = EnergyModel::tsmc28();
        other_model.mac_pj *= 2.0;
        let other = EvalCache::new(other_model);
        let mut disk2 = DiskCache::new(&path, 16);
        let err = disk2.load(&other).expect_err("must reject");
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");
        assert!(other.is_empty(), "nothing imported on mismatch");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cap_drops_oldest_generation_first() {
        let path = tmp("cap");
        let _ = std::fs::remove_file(&path);
        let em = EnergyModel::tsmc28();
        let cache = EvalCache::new(em);
        cache.evaluate(&layer(1), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        cache.evaluate(&layer(2), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        let mut disk = DiskCache::new(&path, 3);
        disk.save(&cache).expect("save 1");
        // Two newer entries arrive; cap 3 keeps both plus one survivor
        // of the first generation (fresh entries rank newest).
        cache.evaluate(&layer(3), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        cache.evaluate(&layer(4), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        disk.save(&cache).expect("save 2");

        let fresh = EvalCache::new(em);
        let mut disk2 = DiskCache::new(&path, 3);
        assert_eq!(disk2.load(&fresh).expect("load"), 3, "cap enforced");
        // The two fresh entries of generation 2 must have survived.
        fresh.evaluate(&layer(3), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        fresh.evaluate(&layer(4), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        assert_eq!(fresh.misses(), 0, "newest generation retained");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_leaves_previous_snapshot_intact() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let _guard = faultsim::exclusive();
        let em = EnergyModel::tsmc28();
        let cache = EvalCache::new(em);
        cache.evaluate(&layer(1), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        let mut disk = DiskCache::new(&path, 16);
        disk.save(&cache).expect("clean save");

        cache.evaluate(&layer(2), &PuConfig::new(16, 16), Dataflow::WeightStationary);
        faultsim::arm("ckpt.torn@1").expect("plan parses");
        // The torn write produces a half-written file at `path` (the
        // fault point bypasses the tmp+rename dance on purpose).
        let _ = disk.save(&cache);
        faultsim::disarm();
        let fresh = EvalCache::new(em);
        let mut disk2 = DiskCache::new(&path, 16);
        match disk2.load(&fresh) {
            // Torn file detected: typed corruption, nothing imported.
            Err(CheckpointError::Corrupt { .. }) => assert!(fresh.is_empty()),
            Err(e) => panic!("unexpected error: {e:?}"),
            // Or the tear landed after the footer: full snapshot loads.
            Ok(n) => assert!(n >= 1),
        }
        let _ = std::fs::remove_file(&path);
    }
}
