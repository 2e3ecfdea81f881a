//! The workspace's one pseudo-random generator, its one hash, and a
//! seeded property-case runner built on them.
//!
//! [`SplitMix64`] (Steele, Lea and Flood, OOPSLA 2014) is a 64-bit counter
//! advanced by the golden-ratio increment and finished with a 64-bit
//! avalanche mixer. Every seeded search (the `bayesopt` optimizers, the
//! random segmentation baseline) and every seeded test draws from it, so a
//! seed names the same stream in every build. The committed goldens were
//! produced with this exact stream; the unit tests below pin the first
//! draws of each method and must never be re-blessed.
//!
//! [`fnv1a`] is the 64-bit FNV-1a hash and [`mix64`] the SplitMix64
//! finalizer. Both are stable across processes, platforms and runs (the
//! property a per-process seeded `SipHash` deliberately lacks), so
//! persisted values — checkpoint footers, energy-model fingerprints,
//! consistent-hash ring points, codesign digests — are built from them.
//!
//! [`check`] runs a property over seeded random cases, counts only the
//! cases the property accepts, and names the seed and case index of a
//! failing case.

use std::panic::{self, AssertUnwindSafe};

/// The 64-bit FNV-1a offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The golden-ratio increment of the SplitMix64 counter.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// The SplitMix64 finalizer: a bijective 64-bit avalanche mixer. Every
/// input bit affects every output bit, so near-identical inputs (the
/// FNV-1a hashes of `key-41` and `key-42`) land far apart.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a per-candidate RNG seed from a base seed and a candidate
/// index. Seeds for distinct indices are decorrelated, and the mapping
/// depends only on `(base, index)` — never on evaluation order — keeping
/// parallel sweeps bit-reproducible.
pub fn split_seed(base: u64, index: u64) -> u64 {
    mix64(
        base.wrapping_add(GAMMA)
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    )
}

/// SplitMix64: seedable, deterministic, 2^64 period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed` (any value, zero too).
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        mix64(self.0)
    }

    /// A draw in `0..n`, as `next_u64() % n`. The modulo bias is below
    /// `n / 2^64`, invisible at the bounds used here.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits over `2^53`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability about `p`: the draw over `u64::MAX`,
    /// compared `< p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// A uniformly shuffled `0..n` (Fisher-Yates from the top: position
    /// `i` swaps with `below(i + 1)` for `i = n-1` down to 1).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Most cases a property may reject before [`check`] gives up on its
/// generator.
const MAX_REJECTS: usize = 1024;

/// Runs `prop` until it has accepted `cases` cases.
///
/// Case `k` draws from its own stream, seeded by the `k`-th output of
/// `SplitMix64::new(seed)`. `prop` returns `false` to reject a case whose
/// inputs miss its precondition (the analogue of a failed
/// `prop_assume!`); rejected cases are not counted. A panic inside `prop`
/// fails the property, after the seed, case index and case stream seed
/// are printed so the case can be replayed alone.
///
/// # Panics
///
/// Panics when `prop` panics, or when it rejects more than 1024 cases.
pub fn check(seed: u64, cases: usize, mut prop: impl FnMut(&mut SplitMix64) -> bool) {
    let mut streams = SplitMix64::new(seed);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    let mut case = 0usize;
    while accepted < cases {
        let stream = streams.next_u64();
        let run = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut SplitMix64::new(stream))));
        match run {
            Ok(true) => accepted += 1,
            Ok(false) => {
                rejected += 1;
                assert!(
                    rejected <= MAX_REJECTS,
                    "seed {seed:#x}: {rejected} cases rejected for {accepted} accepted"
                );
            }
            Err(payload) => {
                eprintln!(
                    "property failed at seed {seed:#x}, case {case} \
                     (replay: SplitMix64::new({stream:#x}))"
                );
                panic::resume_unwind(payload);
            }
        }
        case += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned values below are the stream every committed golden was
    // produced with, taken at seeds 0 and 42. A change here changes
    // results; do not re-bless.
    const SEEDS: [u64; 2] = [0, 42];

    /// Checks that `f`, drawn `K` times from a fresh generator per seed,
    /// yields `want[i]` at `SEEDS[i]`.
    fn pinned<T, const K: usize>(want: [[T; K]; 2], mut f: impl FnMut(&mut SplitMix64) -> T)
    where
        T: PartialEq + std::fmt::Debug,
    {
        for (seed, want) in SEEDS.into_iter().zip(want) {
            let mut rng = SplitMix64::new(seed);
            let got: Vec<T> = (0..K).map(|_| f(&mut rng)).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn next_u64_stream_is_pinned() {
        pinned(
            [
                [
                    0xe220a8397b1dcdaf,
                    0x6e789e6aa1b965f4,
                    0x06c45d188009454f,
                    0xf88bb8a8724c81ec,
                ],
                [
                    0xbdd732262feb6e95,
                    0x28efe333b266f103,
                    0x47526757130f9f52,
                    0x581ce1ff0e4ae394,
                ],
            ],
            SplitMix64::next_u64,
        );
    }

    #[test]
    fn below_is_the_raw_draw_mod_n() {
        pinned([[5, 0, 9, 4, 7, 0], [3, 1, 8, 4, 0, 2]], |r| r.below(10));
        pinned(
            [[535, 700, 679, 444, 747, 90], [413, 291, 858, 764, 250, 62]],
            |r| r.below(1000),
        );
    }

    #[test]
    fn next_f64_is_the_top_53_bits() {
        pinned(
            [
                [
                    0x3fec4415072f63b9,
                    0x3fdb9e279aa86e58,
                    0x3f9b117462002500,
                    0x3fef1177150e4990,
                ],
                [
                    0x3fe7bae644c5fd6d,
                    0x3fc477f199d93378,
                    0x3fd1d499d5c4c3e6,
                    0x3fd607387fc392b8,
                ],
            ],
            |r| r.next_f64().to_bits(),
        );
    }

    #[test]
    fn chance_compares_the_draw_over_u64_max() {
        let (t, f) = (true, false);
        pinned([[f, t, t, f, t, t, t, f], [f, t, t, t, t, f, t, f]], |r| {
            r.chance(0.5)
        });
        pinned([[f, f, t, f, t, f, t, f], [f, t, f, f, t, f, t, f]], |r| {
            r.chance(0.25)
        });
    }

    #[test]
    fn permutation_is_a_pinned_fisher_yates_shuffle() {
        let mut rng = SplitMix64::new(7);
        for n in 0..20 {
            let mut p = rng.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
        assert_eq!(SplitMix64::new(0).permutation(8), [2, 5, 0, 3, 4, 6, 1, 7]);
        assert_eq!(SplitMix64::new(42).permutation(8), [3, 1, 6, 2, 4, 0, 7, 5]);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn split_seed_values_are_pinned() {
        // Seeds of the committed codesign goldens; do not re-bless.
        assert_eq!(split_seed(7, 0), 0x63cb_e1e4_5932_0dd7);
        assert_eq!(split_seed(7, 3), 0xbeeb_cdfd_ae18_dfaf);
        assert_eq!(split_seed(42, 1), 0xf9be_c387_5b67_5235);
        assert_eq!(split_seed(42, 1000), 0x21bf_b843_330a_908a);
        // Index 0 is the first draw of the base seed's stream.
        assert_eq!(split_seed(42, 0), SplitMix64::new(42).next_u64());
    }

    #[test]
    fn check_counts_only_accepted_cases() {
        let (mut calls, mut accepted) = (0, 0);
        check(3, 10, |rng| {
            calls += 1;
            let keep = rng.below(2) == 0;
            accepted += usize::from(keep);
            keep
        });
        assert_eq!(accepted, 10);
        assert!(calls > 10, "about half the cases are rejected");
    }

    #[test]
    fn check_gives_each_case_its_own_replayable_stream() {
        let mut seen = Vec::new();
        check(9, 3, |rng| {
            seen.push(rng.next_u64());
            true
        });
        let mut streams = SplitMix64::new(9);
        let replayed: Vec<u64> = (0..3)
            .map(|_| SplitMix64::new(streams.next_u64()).next_u64())
            .collect();
        assert_eq!(seen, replayed);
    }

    #[test]
    #[should_panic(expected = "case 2 fails")]
    fn check_propagates_a_failing_case() {
        let mut case = 0;
        check(5, 10, |_| {
            assert!(case < 2, "case {case} fails");
            case += 1;
            true
        });
    }

    #[test]
    #[should_panic(expected = "rejected")]
    fn check_gives_up_on_a_generator_that_never_fits() {
        check(1, 1, |_| false);
    }
}
