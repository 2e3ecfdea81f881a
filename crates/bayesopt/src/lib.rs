//! Discrete black-box optimization used by the co-design baselines of
//! Section VI-G ("MIP-Random", "MIP-Baye", "Baye-Heuristic", "Baye-Baye").
//!
//! Two seeded, deterministic optimizers over integer-indexed search spaces:
//!
//! * [`RandomSearch`] — uniform sampling;
//! * [`Tpe`] — a tree-structured Parzen estimator: past observations are
//!   split into a good quantile and the rest, candidates are drawn from a
//!   smoothed per-dimension model of the good set and ranked by the
//!   likelihood ratio `P(x | good) / P(x | bad)`.
//!
//! # Example
//!
//! ```
//! use bayesopt::{minimize, SearchSpace, Tpe};
//!
//! // Minimize (x - 7)^2 + (y - 3)^2 over a 32 x 32 grid.
//! let space = SearchSpace::new(vec![32, 32]);
//! let f = |p: &[usize]| {
//!     let (x, y) = (p[0] as f64, p[1] as f64);
//!     (x - 7.0).powi(2) + (y - 3.0).powi(2)
//! };
//! let mut tpe = Tpe::new(space, 42);
//! let (best, value) = minimize(&mut tpe, f, 200);
//! // The optimum is (7, 3); seed 42 stops one step short of it in 200
//! // evaluations. Both values are pinned: the search is deterministic.
//! assert_eq!(best, vec![7, 2]);
//! assert_eq!(value, 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use faultsim::rng::SplitMix64;

/// A discrete search space: dimension `d` takes values `0..cardinality[d]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    cardinality: Vec<usize>,
}

impl SearchSpace {
    /// Creates a space from per-dimension cardinalities.
    ///
    /// # Panics
    ///
    /// Panics if any dimension has zero values.
    pub fn new(cardinality: Vec<usize>) -> Self {
        assert!(
            !cardinality.is_empty() && cardinality.iter().all(|&c| c > 0),
            "every dimension needs at least one value"
        );
        Self { cardinality }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.cardinality.len()
    }

    /// Cardinality of dimension `d`.
    pub fn card(&self, d: usize) -> usize {
        self.cardinality[d]
    }

    /// Total number of points (saturating).
    pub fn size(&self) -> usize {
        self.cardinality
            .iter()
            .fold(1usize, |a, &c| a.saturating_mul(c))
    }

    fn sample(&self, rng: &mut SplitMix64) -> Vec<usize> {
        self.cardinality.iter().map(|&c| rng.below(c)).collect()
    }
}

/// A sequential optimizer: propose a point, observe its value.
pub trait Optimizer {
    /// The space being searched.
    fn space(&self) -> &SearchSpace;
    /// Proposes the next point to evaluate.
    fn suggest(&mut self) -> Vec<usize>;
    /// Records an evaluation (`f64::INFINITY` marks infeasible points).
    fn observe(&mut self, point: Vec<usize>, value: f64);

    /// Proposes `k` points at once for batched (e.g. parallel) evaluation.
    ///
    /// The default draws `k` consecutive suggestions without intermediate
    /// observations — the model state is frozen for the generation, so the
    /// batch is deterministic and independent of how its members are later
    /// evaluated (serially or across worker threads).
    fn suggest_batch(&mut self, k: usize) -> Vec<Vec<usize>> {
        (0..k).map(|_| self.suggest()).collect()
    }

    /// Records a batch of evaluations, in order. Pairs with
    /// [`Optimizer::suggest_batch`]: one ask/tell round per generation.
    fn observe_batch(&mut self, batch: Vec<(Vec<usize>, f64)>) {
        for (point, value) in batch {
            self.observe(point, value);
        }
    }
}

/// Runs `iters` evaluations of `f` under `opt` and returns the best
/// `(point, value)` found.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn minimize<F>(opt: &mut dyn Optimizer, mut f: F, iters: usize) -> (Vec<usize>, f64)
where
    F: FnMut(&[usize]) -> f64,
{
    assert!(iters > 0, "need at least one iteration");
    let _span = obs::span!("bayesopt.minimize", iters = iters);
    let mut best: Option<(Vec<usize>, f64)> = None;
    for i in 0..iters {
        let p = opt.suggest();
        let v = f(&p);
        if best.as_ref().is_none_or(|(_, bv)| v < *bv) {
            best = Some((p.clone(), v));
            obs::event(
                "bayesopt.best",
                &[("iter", i.into()), ("value", v.into())],
            );
        }
        opt.observe(p, v);
    }
    obs::add("bayesopt.evals", iters as u64);
    best.expect("at least one iteration ran")
}

/// Uniform random search.
#[derive(Debug)]
pub struct RandomSearch {
    space: SearchSpace,
    rng: SplitMix64,
}

impl RandomSearch {
    /// Creates a seeded random searcher.
    pub fn new(space: SearchSpace, seed: u64) -> Self {
        Self {
            space,
            rng: SplitMix64::new(seed),
        }
    }
}

impl Optimizer for RandomSearch {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn suggest(&mut self) -> Vec<usize> {
        self.space.sample(&mut self.rng)
    }

    fn observe(&mut self, _point: Vec<usize>, _value: f64) {}
}

/// Tree-structured Parzen estimator over discrete dimensions.
#[derive(Debug)]
pub struct Tpe {
    space: SearchSpace,
    rng: SplitMix64,
    history: Vec<(Vec<usize>, f64)>,
    /// Fraction of history treated as "good".
    gamma: f64,
    /// Random candidates scored per suggestion.
    n_candidates: usize,
    /// Pure-random warmup length.
    n_startup: usize,
}

impl Tpe {
    /// Creates a seeded TPE optimizer with standard settings (gamma 0.25,
    /// 24 candidates per step, 10 random warmup steps).
    pub fn new(space: SearchSpace, seed: u64) -> Self {
        Self {
            space,
            rng: SplitMix64::new(seed),
            history: Vec::new(),
            gamma: 0.25,
            n_candidates: 24,
            n_startup: 10,
        }
    }

    /// Per-dimension smoothed categorical distribution of a set of points.
    fn model(&self, points: &[&Vec<usize>]) -> Vec<Vec<f64>> {
        (0..self.space.dims())
            .map(|d| {
                let c = self.space.card(d);
                let mut w = vec![1.0f64; c]; // Laplace smoothing
                for p in points {
                    w[p[d]] += 1.0;
                }
                let total: f64 = w.iter().sum();
                w.into_iter().map(|x| x / total).collect()
            })
            .collect()
    }

    fn sample_from(&mut self, model: &[Vec<f64>]) -> Vec<usize> {
        model
            .iter()
            .map(|probs| {
                let mut r = self.rng.next_f64();
                for (i, &p) in probs.iter().enumerate() {
                    r -= p;
                    if r <= 0.0 {
                        return i;
                    }
                }
                probs.len() - 1
            })
            .collect()
    }

    fn likelihood(model: &[Vec<f64>], p: &[usize]) -> f64 {
        model
            .iter()
            .zip(p)
            .map(|(probs, &x)| probs[x].ln())
            .sum::<f64>()
    }
}

impl Optimizer for Tpe {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn suggest(&mut self) -> Vec<usize> {
        let finite: Vec<&(Vec<usize>, f64)> =
            self.history.iter().filter(|(_, v)| v.is_finite()).collect();
        if self.history.len() < self.n_startup || finite.len() < 4 {
            return self.space.sample(&mut self.rng);
        }
        let mut sorted: Vec<&(Vec<usize>, f64)> = finite;
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let n_good = ((sorted.len() as f64 * self.gamma).ceil() as usize).max(2);
        let good: Vec<&Vec<usize>> = sorted[..n_good].iter().map(|(p, _)| p).collect();
        let bad: Vec<&Vec<usize>> = sorted[n_good..].iter().map(|(p, _)| p).collect();
        let good_model = self.model(&good);
        let bad_model = self.model(&bad);

        let mut best: Option<(Vec<usize>, f64)> = None;
        for _ in 0..self.n_candidates {
            let cand = self.sample_from(&good_model);
            let score =
                Self::likelihood(&good_model, &cand) - Self::likelihood(&bad_model, &cand);
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((cand, score));
            }
        }
        best.expect("candidates sampled").0
    }

    fn observe(&mut self, point: Vec<usize>, value: f64) {
        self.history.push((point, value));
    }
}

/// Simulated annealing over the discrete space: a single walker perturbs
/// one dimension at a time and accepts worsening moves with a
/// geometrically cooling probability. A classic local-search baseline to
/// contrast with TPE's model-based sampling.
#[derive(Debug)]
pub struct SimulatedAnnealing {
    space: SearchSpace,
    rng: SplitMix64,
    current: Option<(Vec<usize>, f64)>,
    proposal: Option<Vec<usize>>,
    temperature: f64,
    cooling: f64,
}

impl SimulatedAnnealing {
    /// A seeded annealer with initial temperature 1.0 and cooling factor
    /// 0.98 per observation.
    pub fn new(space: SearchSpace, seed: u64) -> Self {
        Self {
            space,
            rng: SplitMix64::new(seed),
            current: None,
            proposal: None,
            temperature: 1.0,
            cooling: 0.98,
        }
    }

    fn neighbor(&mut self, p: &[usize]) -> Vec<usize> {
        let mut q = p.to_vec();
        let d = self.rng.below(self.space.dims());
        let c = self.space.card(d);
        if c > 1 {
            // Step +-1 (wrapping) or jump uniformly, half the time each.
            q[d] = if self.rng.chance(0.5) {
                let step: isize = if self.rng.chance(0.5) { 1 } else { -1 };
                ((q[d] as isize + step).rem_euclid(c as isize)) as usize
            } else {
                self.rng.below(c)
            };
        }
        q
    }
}

impl Optimizer for SimulatedAnnealing {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn suggest(&mut self) -> Vec<usize> {
        let p = match &self.current {
            None => self.space.sample(&mut self.rng),
            Some((cur, _)) => {
                let cur = cur.clone();
                self.neighbor(&cur)
            }
        };
        self.proposal = Some(p.clone());
        p
    }

    fn observe(&mut self, point: Vec<usize>, value: f64) {
        self.proposal = None;
        let accept = match &self.current {
            None => true,
            Some((_, cur_v)) => {
                if value <= *cur_v {
                    true
                } else if !value.is_finite() {
                    false
                } else {
                    let delta = (value - cur_v) / cur_v.abs().max(1e-12);
                    let prob = (-delta / self.temperature.max(1e-9)).exp();
                    self.rng.chance(prob.clamp(0.0, 1.0))
                }
            }
        };
        if accept {
            self.current = Some((point, value));
        }
        self.temperature *= self.cooling;
    }
}

// ---------------------------------------------------------------------------
// Transcripts: serializable optimizer state via deterministic replay
// ---------------------------------------------------------------------------

/// Why a [`Transcript`] could not be applied to an optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranscriptError {
    /// During replay the optimizer proposed a different batch than the
    /// transcript recorded — the seed, space, or optimizer kind differs
    /// from the recording run.
    Diverged {
        /// 0-based generation where the first mismatch appeared.
        gen: usize,
    },
    /// A serialized transcript line did not parse.
    Parse {
        /// The offending line.
        line: String,
    },
}

impl std::fmt::Display for TranscriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranscriptError::Diverged { gen } => write!(
                f,
                "transcript replay diverged at generation {gen}: the optimizer \
                 (seed/space/kind) does not match the recording run"
            ),
            TranscriptError::Parse { line } => {
                write!(f, "bad transcript line {line:?}")
            }
        }
    }
}

impl std::error::Error for TranscriptError {}

/// A recorded ask/tell history: the exact `(point, value)` batches an
/// optimizer was fed, one entry per generation.
///
/// Checkpoints do not store optimizer state (PRNG position, history,
/// annealing walker) at all, so no optimizer needs a serialized form.
/// They store the transcript, and [`Transcript::replay`] rebuilds the
/// optimizer by re-running the recorded ask/tell rounds against a fresh
/// instance with the same seed: `suggest_batch` deterministically re-draws
/// the recorded suggestions (advancing the RNG to the same stream
/// position) and `observe_batch` re-feeds the recorded values. Replay
/// *verifies* each re-asked batch against the recording and reports
/// [`TranscriptError::Diverged`] on any mismatch, so a checkpoint from a
/// different seed or search space cannot silently resume the wrong run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transcript {
    gens: Vec<Vec<(Vec<usize>, f64)>>,
}

impl Transcript {
    /// Appends one completed generation (the batch as observed).
    pub fn push_gen(&mut self, gen: Vec<(Vec<usize>, f64)>) {
        self.gens.push(gen);
    }

    /// Number of recorded generations.
    pub fn gens(&self) -> usize {
        self.gens.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.gens.is_empty()
    }

    /// Total recorded evaluations across all generations.
    pub fn evals(&self) -> usize {
        self.gens.iter().map(Vec::len).sum()
    }

    /// Re-runs the recorded generations against `opt` (a fresh optimizer
    /// constructed exactly as the recording run constructed its own),
    /// restoring its RNG stream position and observation history.
    pub fn replay(&self, opt: &mut dyn Optimizer) -> Result<(), TranscriptError> {
        for (g, gen) in self.gens.iter().enumerate() {
            let asked = opt.suggest_batch(gen.len());
            let recorded: Vec<&Vec<usize>> = gen.iter().map(|(p, _)| p).collect();
            if asked.iter().collect::<Vec<_>>() != recorded {
                return Err(TranscriptError::Diverged { gen: g });
            }
            opt.observe_batch(gen.clone());
        }
        Ok(())
    }

    /// Serializes to checkpoint lines: `gen <k>` opens a generation of
    /// `k` observations, each `ob <f64-bits-hex> <i0> <i1> ...`. Values
    /// round-trip bit-exactly (IEEE bits, not decimal).
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.gens.len() + self.evals());
        for gen in &self.gens {
            out.push(format!("gen {}", gen.len()));
            for (p, v) in gen {
                let mut line = format!("ob {:016x}", v.to_bits());
                for x in p {
                    line.push(' ');
                    line.push_str(&x.to_string());
                }
                out.push(line);
            }
        }
        out
    }

    /// Parses lines produced by [`Transcript::to_lines`].
    pub fn from_lines<'a, I: IntoIterator<Item = &'a str>>(
        lines: I,
    ) -> Result<Self, TranscriptError> {
        let bad = |line: &str| TranscriptError::Parse {
            line: line.to_string(),
        };
        let mut gens: Vec<Vec<(Vec<usize>, f64)>> = Vec::new();
        let mut remaining = 0usize;
        for line in lines {
            let mut parts = line.split_ascii_whitespace();
            match parts.next() {
                Some("gen") => {
                    if remaining != 0 {
                        return Err(bad(line));
                    }
                    let k: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad(line))?;
                    remaining = k;
                    gens.push(Vec::with_capacity(k));
                }
                Some("ob") => {
                    if remaining == 0 {
                        return Err(bad(line));
                    }
                    let bits = parts
                        .next()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .ok_or_else(|| bad(line))?;
                    let mut point = Vec::new();
                    for tok in parts {
                        point.push(tok.parse::<usize>().map_err(|_| bad(line))?);
                    }
                    if point.is_empty() {
                        return Err(bad(line));
                    }
                    let gen = gens.last_mut().expect("remaining > 0 implies an open gen");
                    gen.push((point, f64::from_bits(bits)));
                    remaining -= 1;
                }
                _ => return Err(bad(line)),
            }
        }
        if remaining != 0 {
            return Err(TranscriptError::Parse {
                line: "<truncated: open generation>".to_string(),
            });
        }
        Ok(Self { gens })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad(p: &[usize]) -> f64 {
        let (x, y) = (p[0] as f64, p[1] as f64);
        (x - 20.0).powi(2) + (y - 5.0).powi(2)
    }

    #[test]
    fn random_search_finds_good_points() {
        let mut rs = RandomSearch::new(SearchSpace::new(vec![64, 64]), 7);
        let (_, v) = minimize(&mut rs, quad, 500);
        assert!(v < 50.0, "random best {v}");
    }

    #[test]
    fn tpe_finds_the_optimum_on_smooth_problems() {
        let mut tpe = Tpe::new(SearchSpace::new(vec![64, 64]), 7);
        let (p, v) = minimize(&mut tpe, quad, 400);
        assert!(v <= 2.0, "tpe best {v} at {p:?}");
    }

    #[test]
    fn tpe_beats_random_on_average() {
        // Averaged over seeds on a needle-ish function.
        let f = |p: &[usize]| {
            let x = p[0] as f64;
            let y = p[1] as f64;
            (x - 51.0).abs() + (y - 13.0).abs() + if p[0] == 51 && p[1] == 13 { -5.0 } else { 0.0 }
        };
        let mut tpe_total = 0.0;
        let mut rnd_total = 0.0;
        for seed in 0..8 {
            let space = SearchSpace::new(vec![96, 96]);
            let mut tpe = Tpe::new(space.clone(), seed);
            tpe_total += minimize(&mut tpe, f, 150).1;
            let mut rnd = RandomSearch::new(space, seed);
            rnd_total += minimize(&mut rnd, f, 150).1;
        }
        assert!(
            tpe_total < rnd_total,
            "tpe {tpe_total} vs random {rnd_total}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut tpe = Tpe::new(SearchSpace::new(vec![32, 32, 32]), seed);
            minimize(&mut tpe, |p| p.iter().sum::<usize>() as f64, 60)
        };
        assert_eq!(run(3), run(3));
        let a = run(3);
        let b = run(4);
        // Different seeds explore differently (same optimum may be found,
        // but the full trajectory differs; compare suggestion streams).
        let mut t1 = Tpe::new(SearchSpace::new(vec![32, 32, 32]), 3);
        let mut t2 = Tpe::new(SearchSpace::new(vec![32, 32, 32]), 4);
        assert_ne!(t1.suggest(), t2.suggest());
        let _ = (a, b);
    }

    #[test]
    fn annealing_converges_on_smooth_problems() {
        let mut sa = SimulatedAnnealing::new(SearchSpace::new(vec![64, 64]), 7);
        let (p, v) = minimize(&mut sa, quad, 600);
        assert!(v <= 10.0, "sa best {v} at {p:?}");
    }

    #[test]
    fn annealing_is_deterministic_and_beats_pure_walk_start() {
        let run = |seed| {
            let mut sa = SimulatedAnnealing::new(SearchSpace::new(vec![48, 48]), seed);
            minimize(&mut sa, quad, 200)
        };
        assert_eq!(run(5), run(5));
        // It must at least improve over its first (random) sample.
        let mut sa = SimulatedAnnealing::new(SearchSpace::new(vec![48, 48]), 5);
        let first = quad(&sa.suggest());
        let (_, best) = minimize(&mut sa, quad, 200);
        assert!(best <= first);
    }

    #[test]
    fn annealing_rejects_infinite_moves() {
        let f = |p: &[usize]| {
            if p[0] > 10 {
                f64::INFINITY
            } else {
                p[0] as f64
            }
        };
        let mut sa = SimulatedAnnealing::new(SearchSpace::new(vec![64]), 9);
        let (p, v) = minimize(&mut sa, f, 300);
        assert!(v.is_finite());
        assert!(p[0] <= 10);
    }

    #[test]
    fn handles_infeasible_points() {
        // Half the space is infeasible; the optimizer must still converge.
        let f = |p: &[usize]| {
            if p[0] % 2 == 1 {
                f64::INFINITY
            } else {
                (p[0] as f64 - 30.0).abs()
            }
        };
        let mut tpe = Tpe::new(SearchSpace::new(vec![64]), 11);
        let (p, v) = minimize(&mut tpe, f, 200);
        assert!(v.is_finite());
        assert_eq!(p[0] % 2, 0);
        assert!(v <= 4.0, "best {v}");
    }

    #[test]
    fn batched_ask_tell_is_deterministic() {
        // A fresh optimizer asked for one batch of k proposes exactly the
        // k points a clone would propose one at a time (no observations in
        // between either way).
        for seed in [1u64, 9, 23] {
            let space = SearchSpace::new(vec![32, 32]);
            let mut a = Tpe::new(space.clone(), seed);
            let mut b = Tpe::new(space.clone(), seed);
            let batch = a.suggest_batch(6);
            let singles: Vec<Vec<usize>> = (0..6).map(|_| b.suggest()).collect();
            assert_eq!(batch, singles);
            let mut ra = RandomSearch::new(space.clone(), seed);
            let mut rb = RandomSearch::new(space, seed);
            assert_eq!(ra.suggest_batch(4), rb.suggest_batch(4));
        }
    }

    #[test]
    fn batched_generations_still_optimize() {
        // Generation-batched TPE (ask k, tell k) converges on the smooth
        // quadratic just like the sequential loop.
        let mut tpe = Tpe::new(SearchSpace::new(vec![64, 64]), 7);
        let mut best = f64::INFINITY;
        for _ in 0..50 {
            let batch = tpe.suggest_batch(8);
            let scored: Vec<(Vec<usize>, f64)> =
                batch.into_iter().map(|p| { let v = quad(&p); (p, v) }).collect();
            for (_, v) in &scored {
                best = best.min(*v);
            }
            tpe.observe_batch(scored);
        }
        assert!(best <= 2.0, "batched tpe best {best}");
    }

    #[test]
    fn observe_batch_feeds_annealer_in_order() {
        let run_batched = |seed| {
            let mut sa = SimulatedAnnealing::new(SearchSpace::new(vec![48, 48]), seed);
            let mut best = f64::INFINITY;
            for _ in 0..40 {
                let batch = sa.suggest_batch(5);
                let scored: Vec<(Vec<usize>, f64)> =
                    batch.into_iter().map(|p| { let v = quad(&p); (p, v) }).collect();
                for (_, v) in &scored {
                    best = best.min(*v);
                }
                sa.observe_batch(scored);
            }
            best
        };
        assert_eq!(run_batched(5), run_batched(5));
        assert!(run_batched(5) < 200.0);
    }

    #[test]
    fn single_value_dimensions() {
        let mut rs = RandomSearch::new(SearchSpace::new(vec![1, 1, 5]), 0);
        let (p, _) = minimize(&mut rs, |p| p[2] as f64, 20);
        assert_eq!(&p[..2], &[0, 0]);
        assert_eq!(p[2], 0);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn rejects_empty_dimension() {
        SearchSpace::new(vec![4, 0]);
    }

    #[test]
    fn space_size_saturates() {
        let s = SearchSpace::new(vec![usize::MAX, 2]);
        assert_eq!(s.size(), usize::MAX);
    }

    /// Runs `gens` generation-batched rounds, recording a transcript.
    fn run_recorded(opt: &mut dyn Optimizer, gens: usize, k: usize) -> Transcript {
        let mut tr = Transcript::default();
        for _ in 0..gens {
            let batch = opt.suggest_batch(k);
            let scored: Vec<(Vec<usize>, f64)> = batch
                .into_iter()
                .map(|p| {
                    let v = quad(&p);
                    (p, v)
                })
                .collect();
            opt.observe_batch(scored.clone());
            tr.push_gen(scored);
        }
        tr
    }

    #[test]
    fn replay_restores_the_exact_suggestion_stream() {
        for seed in [1u64, 7, 42] {
            let space = SearchSpace::new(vec![48, 48]);
            // Uninterrupted: 9 generations straight through.
            let mut full = Tpe::new(space.clone(), seed);
            let tr_full = run_recorded(&mut full, 9, 6);
            // Interrupted after 5 generations, resumed via replay.
            let mut first = Tpe::new(space.clone(), seed);
            let tr_first = run_recorded(&mut first, 5, 6);
            let mut resumed = Tpe::new(space.clone(), seed);
            tr_first.replay(&mut resumed).expect("replay matches");
            let tr_rest = run_recorded(&mut resumed, 4, 6);
            // The resumed run's generations 5..9 are bit-identical to the
            // uninterrupted run's.
            let mut joined = tr_first.clone();
            for g in 0..tr_rest.gens() {
                joined.push_gen(tr_rest.gens[g].clone());
            }
            assert_eq!(joined, tr_full, "seed {seed}");
        }
    }

    #[test]
    fn replay_works_for_every_optimizer_kind() {
        let space = SearchSpace::new(vec![32, 32]);
        let fresh: [(&str, Box<dyn Fn() -> Box<dyn Optimizer>>); 3] = [
            ("random", {
                let s = space.clone();
                Box::new(move || Box::new(RandomSearch::new(s.clone(), 3)))
            }),
            ("tpe", {
                let s = space.clone();
                Box::new(move || Box::new(Tpe::new(s.clone(), 3)))
            }),
            ("anneal", {
                let s = space.clone();
                Box::new(move || Box::new(SimulatedAnnealing::new(s.clone(), 3)))
            }),
        ];
        for (name, mk) in &fresh {
            let mut a = mk();
            let tr = run_recorded(a.as_mut(), 6, 4);
            let mut b = mk();
            tr.replay(b.as_mut()).expect(name);
            // Both must now propose the same next batch.
            assert_eq!(a.suggest_batch(4), b.suggest_batch(4), "{name}");
        }
    }

    #[test]
    fn replay_detects_wrong_seed() {
        let space = SearchSpace::new(vec![32, 32]);
        let mut a = Tpe::new(space.clone(), 1);
        let tr = run_recorded(&mut a, 3, 5);
        let mut wrong = Tpe::new(space, 2);
        assert_eq!(tr.replay(&mut wrong), Err(TranscriptError::Diverged { gen: 0 }));
    }

    #[test]
    fn transcript_lines_round_trip_bit_exactly() {
        let mut tr = Transcript::default();
        tr.push_gen(vec![
            (vec![1, 2, 3], 0.1 + 0.2), // not exactly representable
            (vec![0, 0, 31], f64::INFINITY),
        ]);
        tr.push_gen(vec![(vec![7], -0.0)]);
        let lines = tr.to_lines();
        let owned: Vec<&str> = lines.iter().map(String::as_str).collect();
        let back = Transcript::from_lines(owned).expect("parses");
        assert_eq!(back, tr);
        assert_eq!(back.evals(), 3);
        assert_eq!(
            back.gens[0][1].1,
            f64::INFINITY,
            "infeasible markers survive"
        );
        assert!(back.gens[1][0].1.to_bits() == (-0.0f64).to_bits());
    }

    #[test]
    fn transcript_parse_errors_are_typed() {
        for bad in [
            vec!["ob 0 1"],            // observation outside a generation
            vec!["gen 1", "gen 1"],    // generation opened while one is short
            vec!["gen 1", "ob zz 1"],  // bad value bits
            vec!["gen 1", "ob 0"],     // empty point
            vec!["gen 1"],             // truncated
            vec!["bogus"],             // unknown tag
        ] {
            assert!(
                matches!(
                    Transcript::from_lines(bad.clone()),
                    Err(TranscriptError::Parse { .. })
                ),
                "{bad:?}"
            );
        }
        assert_eq!(Transcript::from_lines([]), Ok(Transcript::default()));
    }
}
