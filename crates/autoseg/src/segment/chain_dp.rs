//! Exact dynamic-programming segmentation over the contiguous-segment
//! subspace.
//!
//! On chain-like DAGs the data-dependency constraint (Eq. 3) forces
//! segments to be prefix-closed, i.e. contiguous intervals in topological
//! order. This engine solves the paper's objective exactly over that
//! subspace:
//!
//! 1. an `O(S * L^2)` max-min dynamic program picks the `S - 1` cut points
//!    maximizing the minimum segment CTC ratio (Eq. 5). A range's CTC
//!    depends only on the workload, so each call first fills a table of
//!    the exact DRAM bytes of every contiguous range in one
//!    `O(L^2 + L * E)` pass (`E` producer edges, see `RangeTraffic`), and
//!    every DP cell reads its CTC from it; and
//! 2. within each segment, a linear-partition DP splits the items into `N`
//!    balanced contiguous blocks which are then bound to PUs *by load
//!    rank* — the heaviest block of every segment lands on the same PU, so
//!    operation distributions align across segments (minimizing the SOD of
//!    Eq. 11) while the binding need not follow pipeline order (the
//!    Segment-3 freedom of Figure 6).
//!
//! Unlike the MILP engine this scales to ResNet-152-depth models in
//! milliseconds, at the cost of restricting segments to topological
//! intervals (which the paper's own figures — evenly divided segments —
//! also assume).

use super::{balanced_blocks, Segmenter};
use crate::error::AutoSegError;
use nnmodel::Workload;
use spa_arch::{Assignment, Segment, SegmentSchedule};

/// The default production segmenter (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainDpSegmenter;

impl ChainDpSegmenter {
    /// Creates the segmenter.
    pub fn new() -> Self {
        Self
    }
}

/// Exact pipelined DRAM bytes of every contiguous item range `[i, j)`,
/// built in one `O(L^2 + L * E)` pass over `L` items and `E` producer edges.
///
/// For each start `i` the range grows one item `m` at a time: `m` adds its
/// weights, external input, reads from producers before `i` and its output;
/// every item of the range whose last consumer is `m` then stops writing
/// its output to DRAM. An item with no consumer (a network output) always
/// writes. This is [`Workload::pipelined_access`] of `i..j`, to the byte.
struct RangeTraffic {
    l: usize,
    /// `bytes[i * l + j - 1]` holds `[i, j)`; entries with `j <= i` are
    /// unused.
    bytes: Vec<u64>,
}

impl RangeTraffic {
    fn new(w: &Workload) -> Self {
        let (l, items) = (w.len(), w.items());
        // last_use[c]: the items whose last consumer is `c`.
        let mut last_use = vec![Vec::new(); l];
        for m in 0..l {
            if let Some(&c) = w.consumers(m).last() {
                last_use[c].push(m);
            }
        }
        let mut bytes = vec![0; l * l];
        for i in 0..l {
            let mut acc = 0u64;
            for (m, it) in items.iter().enumerate().skip(i) {
                acc += it.w_bytes + it.extern_in_bytes + it.out_bytes;
                acc += it
                    .preds
                    .iter()
                    .filter(|&&(p, _)| p < i)
                    .map(|&(_, b)| b)
                    .sum::<u64>();
                // Each such item entered the range earlier (producers
                // precede their consumers), so this never underflows.
                acc -= last_use[m]
                    .iter()
                    .filter(|&&p| p >= i)
                    .map(|&p| items[p].out_bytes)
                    .sum::<u64>();
                bytes[i * l + m] = acc;
            }
        }
        Self { l, bytes }
    }

    /// DRAM bytes of `[i, j)` under pipelined execution (`i < j`).
    fn get(&self, i: usize, j: usize) -> u64 {
        self.bytes[i * self.l + j - 1]
    }
}

impl Segmenter for ChainDpSegmenter {
    fn segment(
        &self,
        workload: &Workload,
        n_pus: usize,
        n_segments: usize,
    ) -> Result<SegmentSchedule, AutoSegError> {
        let l = workload.len();
        if n_pus == 0 || n_segments == 0 || n_pus * n_segments > l {
            return Err(AutoSegError::SegmentationInfeasible {
                n_pus,
                n_segments,
                items: l,
            });
        }

        // Every range's traffic once; each DP cell reads its CTC from it.
        let traffic = RangeTraffic::new(workload);
        let ops: Vec<u64> = workload.items().iter().map(|it| it.ops).collect();
        let prefix_ops: Vec<u64> = {
            let mut p = vec![0u64];
            for &o in &ops {
                p.push(p.last().unwrap() + o);
            }
            p
        };
        let ctc = |i: usize, j: usize| -> f64 {
            (prefix_ops[j] - prefix_ops[i]) as f64 / traffic.get(i, j).max(1) as f64
        };

        // Max-min DP over cut points. dp[s][j]: first j items in s segments.
        let (s_max, n) = (n_segments, n_pus);
        let neg = f64::NEG_INFINITY;
        let mut dp = vec![vec![neg; l + 1]; s_max + 1];
        let mut back = vec![vec![0usize; l + 1]; s_max + 1];
        dp[0][0] = f64::INFINITY;
        for s in 1..=s_max {
            // Segment s must leave room: j in [s*n, l - (s_max - s)*n].
            for j in (s * n)..=(l - (s_max - s) * n) {
                for i in ((s - 1) * n)..=(j - n) {
                    if dp[s - 1][i] == neg {
                        continue;
                    }
                    let cand = dp[s - 1][i].min(ctc(i, j));
                    // Tie-break toward balanced segment ops.
                    let better = cand > dp[s][j] + 1e-12
                        || (cand > dp[s][j] - 1e-12 && {
                            let target = prefix_ops[l] as f64 / s_max as f64;
                            let new_dev =
                                ((prefix_ops[j] - prefix_ops[i]) as f64 - target).abs();
                            let old_i = back[s][j];
                            let old_dev =
                                ((prefix_ops[j] - prefix_ops[old_i]) as f64 - target).abs();
                            new_dev < old_dev
                        });
                    if better {
                        dp[s][j] = cand;
                        back[s][j] = i;
                    }
                }
            }
        }
        debug_assert!(dp[s_max][l] > neg, "DP always feasible when n*s <= l");

        // Reconstruct cuts.
        let mut cuts = vec![l];
        let mut j = l;
        for s in (1..=s_max).rev() {
            j = back[s][j];
            cuts.push(j);
        }
        cuts.reverse();

        // Per-segment balanced blocks, bound to PUs by load rank.
        let mut segments = Vec::with_capacity(s_max);
        for w2 in cuts.windows(2) {
            let (lo, hi) = (w2[0], w2[1]);
            let bounds = balanced_blocks(&ops, lo, hi - lo, n);
            // Rank blocks by ops, heaviest first.
            let mut blocks: Vec<(usize, u64)> = bounds
                .windows(2)
                .enumerate()
                .map(|(k, b)| (k, prefix_ops[b[1]] - prefix_ops[b[0]]))
                .collect();
            blocks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut pu_of_block = vec![0usize; n];
            for (rank, &(block, _)) in blocks.iter().enumerate() {
                pu_of_block[block] = rank;
            }
            let mut assignments = Vec::with_capacity(hi - lo);
            for (k, b) in bounds.windows(2).enumerate() {
                for item in b[0]..b[1] {
                    assignments.push(Assignment {
                        item,
                        pu: pu_of_block[k],
                    });
                }
            }
            segments.push(Segment { assignments });
        }

        SegmentSchedule::new(segments, n, workload).map_err(AutoSegError::from)
    }

    fn name(&self) -> &'static str {
        "chain-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::super::{metrics, testutil::chain};
    use super::*;
    use nnmodel::{analysis, zoo, Workload};

    #[test]
    fn produces_valid_schedules_for_all_zoo_models() {
        let seg = ChainDpSegmenter::new();
        for g in zoo::evaluation_models() {
            let w = Workload::from_graph(&g);
            for (n, s) in [(2, 2), (4, 2), (3, 4)] {
                if n * s > w.len() {
                    continue;
                }
                let sched = seg.segment(&w, n, s).unwrap();
                assert_eq!(sched.len(), s, "{}", g.name());
                sched.validate(&w).unwrap();
            }
        }
    }

    #[test]
    fn beats_even_segmentation_on_min_ctc() {
        let seg = ChainDpSegmenter::new();
        let w = Workload::from_graph(&zoo::squeezenet1_0());
        let s = 4;
        let sched = seg.segment(&w, 2, s).unwrap();
        let m = metrics(&w, &sched);
        // Even split into the same number of segments.
        let even = analysis::even_segments(&w, w.len().div_ceil(s));
        let even_min = analysis::min_segment_ctc(&w, &even);
        assert!(
            m.min_ctc >= even_min - 1e-9,
            "dp {} vs even {}",
            m.min_ctc,
            even_min
        );
    }

    #[test]
    fn rank_binding_aligns_distributions() {
        // The heaviest block lands on PU 0 in every segment.
        let seg = ChainDpSegmenter::new();
        let w = chain(12);
        let sched = seg.segment(&w, 3, 3).unwrap();
        for s in 0..sched.len() {
            let ops = sched.pu_ops(&w, s);
            assert!(
                ops[0] >= ops[1] && ops[1] >= ops[2],
                "segment {s} ops {ops:?} not rank-ordered"
            );
        }
    }

    #[test]
    fn rejects_impossible_shapes() {
        let seg = ChainDpSegmenter::new();
        let w = chain(6);
        assert!(matches!(
            seg.segment(&w, 4, 2),
            Err(AutoSegError::SegmentationInfeasible { .. })
        ));
        assert!(matches!(
            seg.segment(&w, 0, 2),
            Err(AutoSegError::SegmentationInfeasible { .. })
        ));
    }

    #[test]
    fn single_segment_single_pu_is_identity() {
        let seg = ChainDpSegmenter::new();
        let w = chain(5);
        let sched = seg.segment(&w, 1, 1).unwrap();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.segments[0].assignments.len(), 5);
        assert!(sched.segments[0].assignments.iter().all(|a| a.pu == 0));
    }

    #[test]
    fn more_segments_never_raise_min_ctc() {
        // Finer segmentation can only reduce (or keep) the min CTC.
        let seg = ChainDpSegmenter::new();
        let w = Workload::from_graph(&zoo::mobilenet_v1());
        let m2 = metrics(&w, &seg.segment(&w, 2, 2).unwrap());
        let m6 = metrics(&w, &seg.segment(&w, 2, 6).unwrap());
        assert!(m6.min_ctc <= m2.min_ctc + 1e-9);
    }

    #[test]
    fn range_traffic_equals_pipelined_access() {
        for g in zoo::evaluation_models() {
            let w = Workload::from_graph(&g);
            let traffic = RangeTraffic::new(&w);
            for i in 0..w.len() {
                for j in i + 1..=w.len() {
                    let members: Vec<usize> = (i..j).collect();
                    assert_eq!(
                        traffic.get(i, j),
                        w.pipelined_access(&members),
                        "{} [{i}, {j})",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn schedules_match_pinned_digest() {
        // Every schedule of N <= 8 PUs and S <= 12 segments over the
        // evaluation models, hashed: any change to a range's CTC, a cut,
        // a tie-break or a binding moves the digest.
        let seg = ChainDpSegmenter::new();
        let mut text = String::new();
        let mut shapes = 0;
        for g in zoo::evaluation_models() {
            let w = Workload::from_graph(&g);
            for n in 1..=8 {
                for s in (1..=12).take_while(|&s| n * s <= w.len()) {
                    text.push_str(&format!("{:?}\n", seg.segment(&w, n, s).unwrap()));
                    shapes += 1;
                }
            }
        }
        assert_eq!(shapes, 551);
        assert_eq!(faultsim::rng::fnv1a(text.as_bytes()), 0x4954_9e47_3d05_4b8f);
    }

    #[test]
    fn resnet152_segments_quickly() {
        let seg = ChainDpSegmenter::new();
        let w = Workload::from_graph(&zoo::resnet152());
        let t0 = std::time::Instant::now();
        let sched = seg.segment(&w, 4, 8).unwrap();
        assert!(t0.elapsed().as_secs() < 10, "took {:?}", t0.elapsed());
        sched.validate(&w).unwrap();
        assert_eq!(sched.len(), 8);
    }
}
