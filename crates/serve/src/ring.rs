//! Deterministic consistent-hash ring for the `spa-fleet` router.
//!
//! Shard assignment must agree across processes and across runs — a
//! codesign resubmitted after a shard crash has to land on the shard
//! that owns its checkpoint file — so the ring hashes with FNV-1a
//! rather than anything seeded per-process. Each shard contributes
//! `vnodes` virtual points; a key is owned by the first point at or
//! after its hash (wrapping). Adding or removing one shard therefore
//! only moves the keys whose successor point changed: ~1/N of the
//! keyspace, verified by `serve/tests/ring_prop.rs`.

use crate::proto::{DataflowSel, Request};

/// Default virtual nodes per shard (`FLEET_VNODES`). More points mean
/// tighter balance at the cost of a larger (still tiny) sorted table.
pub const DEFAULT_VNODES: usize = 64;

pub use faultsim::rng::fnv1a;

/// The position of an arbitrary byte string on the ring: FNV-1a, then
/// the SplitMix64 finalizer. Raw FNV clusters the near-identical strings
/// the ring hashes (`shard-0/vnode-1` vs `shard-0/vnode-2`, `key-41-x`
/// vs `key-42-x`), skewing shard loads up to ~2.8x ideal; the avalanche
/// step brings the spread under ~1.2x (measured over 10k keys, 2-8
/// shards).
pub fn ring_hash(bytes: &[u8]) -> u64 {
    faultsim::rng::mix64(fnv1a(bytes))
}

/// A consistent-hash ring over `shards` shards.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted `(point_hash, shard)` table.
    points: Vec<(u64, usize)>,
    shards: usize,
    vnodes: usize,
}

impl Ring {
    /// Builds a ring; `shards` and `vnodes` are clamped to at least 1.
    pub fn new(shards: usize, vnodes: usize) -> Ring {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for s in 0..shards {
            for v in 0..vnodes {
                points.push((ring_hash(format!("shard-{s}/vnode-{v}").as_bytes()), s));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            shards,
            vnodes,
        }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The shard that owns `key`: the first ring point at or after the
    /// key's hash, wrapping past the top of the hash space.
    pub fn assign(&self, key: &str) -> usize {
        let h = ring_hash(key.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

/// The routing key for a request, or `None` for verbs the router
/// answers itself (status/metrics/flush/shutdown) or routes by target
/// (cancel). The key is a canonical function of every field that feeds
/// the result, so identical work — including a codesign resubmitted
/// after a shard crash — always lands on the same shard and finds its
/// warm cache entries and checkpoint file there.
pub fn route_key(request: &Request) -> Option<String> {
    match request {
        Request::EvalPu {
            layer,
            pu,
            dataflow,
        } => {
            let df = match dataflow {
                DataflowSel::Fixed(d) => format!("{d:?}"),
                DataflowSel::Best => "best".to_string(),
            };
            Some(format!(
                "eval:{}.{}.{}.{}.{}.{}.k{}.s{}.g{}.fc{}:{}x{}.a{}.w{}.f{}:{df}",
                layer.in_c,
                layer.in_h,
                layer.in_w,
                layer.out_c,
                layer.out_h,
                layer.out_w,
                layer.kernel,
                layer.stride,
                layer.groups,
                u8::from(layer.is_fc),
                pu.rows,
                pu.cols,
                pu.act_buf_bytes,
                pu.wgt_buf_bytes,
                pu.freq_mhz.to_bits(),
            ))
        }
        Request::Segment { model, budget } => Some(format!("segment:{model}:{budget}")),
        Request::Codesign {
            model,
            budget,
            method,
            hw_iters,
            seg_iters,
            seed,
        } => Some(format!(
            "codesign:{model}:{budget}:{method}:{hw_iters}:{seg_iters}:{seed}"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors: shard placement must agree
        // across processes, so the ring's hash is pinned, not seeded.
        assert_eq!(fnv1a(b""), faultsim::rng::FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(ring_hash(b"a"), faultsim::rng::mix64(0xaf63_dc4c_8601_ec8c));
    }

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let ring = Ring::new(3, DEFAULT_VNODES);
        for i in 0..1000 {
            let key = format!("key-{i}");
            let s = ring.assign(&key);
            assert!(s < 3);
            assert_eq!(s, ring.assign(&key), "stable per key");
            assert_eq!(
                s,
                Ring::new(3, DEFAULT_VNODES).assign(&key),
                "stable across ring rebuilds"
            );
        }
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = Ring::new(1, 8);
        for i in 0..100 {
            assert_eq!(ring.assign(&format!("k{i}")), 0);
        }
    }

    #[test]
    fn route_keys_separate_verbs_and_fields() {
        use crate::proto::parse_request;
        let eval = |freq: &str| {
            format!(
                "{{\"v\":1,\"id\":1,\"req\":\"eval_pu\",\"layer\":{{\"in_c\":3,\"in_h\":8,\"in_w\":8,\"out_c\":8,\"out_h\":8,\"out_w\":8,\"kernel\":3,\"stride\":1,\"groups\":1,\"is_fc\":false}},\"pu\":{{\"rows\":8,\"cols\":8,\"freq_mhz\":{freq}}},\"dataflow\":\"WS\"}}"
            )
        };
        let k1 = route_key(&parse_request(&eval("800")).expect("parses").request)
            .expect("routable");
        let k2 = route_key(&parse_request(&eval("900")).expect("parses").request)
            .expect("routable");
        assert_ne!(k1, k2, "freq feeds the key");
        let status = parse_request("{\"v\":1,\"id\":9,\"req\":\"status\"}").expect("parses");
        assert_eq!(route_key(&status.request), None, "status is router-local");
    }
}
