//! Recursive-matrix (RMAT) graph generator.
//!
//! RMAT graphs are the standard stand-in for skewed real-world networks:
//! the `(a, b, c, d)` quadrant probabilities control the degree skew. We
//! use them as laptop-scale analogues of the paper's social and web graphs
//! (Orkut, Twitter, Friendster, ClueWeb, Hyperlink2012); see
//! [`crate::datasets`].

use crate::builder::GraphBuilder;
use crate::stripes::{stripe_bounds, windows_mut};
use crate::CsrGraph;
use crate::NodeId;
use ampc_dht::pool::par_map;
use ampc_knobs::ampc_threads;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// RMAT quadrant probabilities. Must sum to (approximately) 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability (controls hub formation).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
}

impl RmatParams {
    /// Classic Graph500-style parameters: strong skew, social-network-like.
    pub const SOCIAL: RmatParams = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
        d: 0.05,
    };

    /// Extremely skewed parameters producing web-graph-like inputs with a
    /// few massive hubs and many small components (our ClueWeb/Hyperlink
    /// analogue).
    pub const WEB: RmatParams = RmatParams {
        a: 0.65,
        b: 0.17,
        c: 0.13,
        d: 0.05,
    };

    /// Nearly uniform (degenerate Erdős–Rényi-like) parameters.
    pub const UNIFORM: RmatParams = RmatParams {
        a: 0.25,
        b: 0.25,
        c: 0.25,
        d: 0.25,
    };

    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!(
            (s - 1.0).abs() < 1e-6,
            "RMAT parameters must sum to 1 (got {s})"
        );
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "RMAT parameters must be non-negative"
        );
    }
}

/// Generates an undirected RMAT graph with `2^log_n` vertices and
/// (up to) `m` edges; self-loops and duplicates are removed, so the final
/// edge count is slightly below `m`, mirroring how real RMAT inputs are
/// produced and then symmetrized (§5.2 of the paper symmetrizes its
/// directed inputs the same way).
///
/// Sampling is striped over `ampc_threads()` contiguous ranges of edge
/// indices, each starting at its first edge's offset in the one seeded
/// stream, so the graph is the same for every thread count (DESIGN.md
/// §1). A level computes its quadrant draw first and the four noise
/// draws only when the `QuadrantTable` cannot decide it alone.
pub fn rmat(log_n: u32, m: usize, params: RmatParams, seed: u64) -> CsrGraph {
    rmat_with_threads(log_n, m, params, seed, ampc_threads())
}

/// [`rmat`] over `threads` stripes: the same graph for every value.
fn rmat_with_threads(
    log_n: u32,
    m: usize,
    params: RmatParams,
    seed: u64,
    threads: usize,
) -> CsrGraph {
    params.validate();
    assert!(log_n <= 31, "log_n must fit in u32 node ids");
    let draws_per_edge = DRAWS_PER_LEVEL * log_n as u64;
    let table = QuadrantTable::new(&params);
    let mut edges = vec![(0, 0, 0); m];
    let stripes = stripe_bounds(m, threads);
    let wins = windows_mut(&mut edges, stripes.iter().map(|r| r.len()));
    par_map(
        stripes.into_iter().zip(wins).collect(),
        threads,
        |(r, win)| {
            let mut level = (r.start as u64).wrapping_mul(draws_per_edge);
            for slot in win {
                let (mut u, mut v): (NodeId, NodeId) = (0, 0);
                for _ in 0..log_n {
                    let pick = stream_at(seed, level.wrapping_add(4)).next_u64();
                    let q = table.certain(pick).unwrap_or_else(|| {
                        let mut rng = stream_at(seed, level);
                        let mut noise = || rng.next_u64();
                        level_quadrant(&params, [noise(), noise(), noise(), noise(), pick])
                    });
                    u = u << 1 | q >> 1;
                    v = v << 1 | q & 1;
                    level = level.wrapping_add(DRAWS_PER_LEVEL);
                }
                *slot = (u, v, 0);
            }
        },
    );
    GraphBuilder::from_edges(1 << log_n, edges).build_with_threads(threads)
}

/// Draws per level in the stream layout: four noise factors, then the
/// quadrant pick. This fixes where each level starts in the one seeded
/// stream (level `l` of edge `i` at draw `5·(i·log n + l)`), not how
/// many draws are computed: most levels compute only the pick.
const DRAWS_PER_LEVEL: u64 = 5;

/// The vendored `SmallRng` (SplitMix64) as it stands after `draws`
/// draws from `SmallRng::seed_from_u64(seed)`: every draw adds the
/// same constant γ to the state, so the state after `k` draws is
/// `seed + k·γ` (wrapping) and any draw of the stream can be computed
/// without the ones before it.
fn stream_at(seed: u64, draws: u64) -> SmallRng {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    SmallRng::seed_from_u64(seed.wrapping_add(draws.wrapping_mul(GAMMA)))
}

/// One level's quadrant from its five draws, the four noise factors
/// then the pick. Per-level multiplicative noise in `[0.95, 1.05]`
/// ("smoothing") is the standard fix that avoids exactly repeating
/// degree patterns. The quadrant is the number of cumulative weights
/// the pick `r` reaches, `q ∈ 0..4`, whose high bit extends `u` and
/// low bit `v`.
fn level_quadrant(p: &RmatParams, draws: [u64; 5]) -> NodeId {
    let mut rng = Replay(draws.into_iter());
    let na = p.a * rng.gen_range(0.95..1.05);
    let nb = p.b * rng.gen_range(0.95..1.05);
    let nc = p.c * rng.gen_range(0.95..1.05);
    let nd = p.d * rng.gen_range(0.95..1.05);
    let total = na + nb + nc + nd;
    let r: f64 = rng.gen_range(0.0..total);
    (r >= na) as NodeId + (r >= na + nb) as NodeId + (r >= na + nb + nc) as NodeId
}

/// Hands out recorded draws, so [`level_quadrant`] maps them to floats
/// exactly as the generator itself does.
struct Replay(std::array::IntoIter<u64, 5>);

impl Rng for Replay {
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("a level takes five draws")
    }
}

/// Bits of the quadrant pick that index a [`QuadrantTable`].
const BUCKET_BITS: u32 = 10;

/// How far a [`QuadrantTable`] widens each noise band on both sides:
/// ≥ 10⁶ times the few-ulp rounding of [`level_quadrant`]'s float path,
/// so a bucket clear of a widened band is clear of every ratio that
/// path can compute.
const BAND_MARGIN: f64 = 1e-9;

/// [`QuadrantTable`] entry for a bucket the noise can move.
const UNSURE: u8 = u8::MAX;

/// The quadrant of every level whose pick alone decides it, by the
/// pick's top [`BUCKET_BITS`] bits. The pick's unit value `x` lies in
/// its bucket `[b, b + 1) / 1024`, and it passes boundary `k` iff
/// `x ≥ C_k / total` for the noisy cumulative weight `C_k`. Over all
/// noise that ratio stays in a band (see [`noise_band`]); a bucket
/// wholly above or below every band, widened by [`BAND_MARGIN`], has a
/// quadrant no noise changes, and any other bucket is [`UNSURE`].
struct QuadrantTable([u8; 1 << BUCKET_BITS]);

impl QuadrantTable {
    fn new(p: &RmatParams) -> Self {
        let weights = [p.a, p.b, p.c, p.d];
        let bands: [(f64, f64); 3] = std::array::from_fn(|k| noise_band(&weights, k + 1));
        let width = 1.0 / (1u32 << BUCKET_BITS) as f64;
        QuadrantTable(std::array::from_fn(|b| {
            let (lo, hi) = (b as f64 * width, (b + 1) as f64 * width);
            let mut q = 0;
            for &(band_lo, band_hi) in &bands {
                if lo > band_hi + BAND_MARGIN {
                    q += 1;
                } else if hi >= band_lo - BAND_MARGIN {
                    return UNSURE;
                }
            }
            q
        }))
    }

    /// The quadrant of a level whose quadrant draw is `pick`, or `None`
    /// when its noise draws could still move it.
    fn certain(&self, pick: u64) -> Option<NodeId> {
        let q = self.0[(pick >> (64 - BUCKET_BITS)) as usize];
        (q != UNSURE).then_some(q as NodeId)
    }
}

/// The range `[lo, hi]` of `C_k / total` over every noise factor in
/// `[0.95, 1.05]`: the ratio grows with the first `k` weights and
/// shrinks with the rest, so it is lowest with those at 0.95 and the
/// rest at 1.05, and highest the other way round.
fn noise_band(weights: &[f64; 4], k: usize) -> (f64, f64) {
    let below: f64 = weights[..k].iter().sum();
    let above: f64 = weights[k..].iter().sum();
    (
        0.95 * below / (0.95 * below + 1.05 * above),
        1.05 * below / (1.05 * below + 0.95 * above),
    )
}

/// The sequential generator striped sampling replaced, kept as the
/// oracle it is tested against: one generator drawn in edge order, the
/// quadrant picked by an `if / else` chain, and the global-sort build.
#[cfg(test)]
fn rmat_oracle(log_n: u32, m: usize, params: RmatParams, seed: u64) -> CsrGraph {
    params.validate();
    let n = 1usize << log_n;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let mut u: NodeId = 0;
        let mut v: NodeId = 0;
        for _ in 0..log_n {
            u <<= 1;
            v <<= 1;
            let na = params.a * rng.gen_range(0.95..1.05);
            let nb = params.b * rng.gen_range(0.95..1.05);
            let nc = params.c * rng.gen_range(0.95..1.05);
            let nd = params.d * rng.gen_range(0.95..1.05);
            let total = na + nb + nc + nd;
            let r: f64 = rng.gen_range(0.0..total);
            if r < na {
                // top-left: no bits set
            } else if r < na + nb {
                v |= 1;
            } else if r < na + nb + nc {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        builder.push_edge(u, v, 0);
    }
    builder.finish_oracle().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stream_at_equals_seeding_then_drawing() {
        for seed in [0, 1, 0xDEAD_BEEF, u64::MAX - 3, u64::MAX] {
            let mut drawn = SmallRng::seed_from_u64(seed);
            for k in 0..300u64 {
                let mut at = stream_at(seed, k);
                let mut ahead = drawn.clone();
                assert_eq!(at.next_u64(), ahead.next_u64(), "seed {seed}, k {k}");
                drawn.next_u64();
            }
        }
        // An offset whose product with γ wraps many times over: stepping
        // one more draw from there lands where the next offset starts.
        let k = u64::MAX / 3;
        let mut at = stream_at(7, k);
        at.next_u64();
        assert_eq!(at.next_u64(), stream_at(7, k + 1).next_u64());
    }

    /// Bucket `b`'s lower edge as a quadrant pick, and one either side
    /// (for `b = 0`, one below is the top of the last bucket).
    fn edge_picks(b: u64) -> [u64; 3] {
        let edge = b << (64 - BUCKET_BITS);
        [edge.wrapping_sub(1), edge, edge + 1]
    }

    /// Within this of a band, a bucket must be unsure: far above the
    /// float path's rounding, far below [`BAND_MARGIN`].
    const TOUCH: f64 = 1e-11;

    /// Checks `p`'s table against the full computation: every certain
    /// entry equals [`level_quadrant`] at each bucket edge and ±1, under
    /// every all-extreme noise (each draw `0` or `u64::MAX`) and under
    /// `noise`; and every bucket that comes within [`TOUCH`] of a band
    /// is unsure. The bands here come from the 16 extreme factor
    /// choices, not from [`noise_band`].
    fn check_table(p: RmatParams, noise: &[[u64; 4]]) {
        let table = QuadrantTable::new(&p);
        let extremes = (0..16u32)
            .map(|bits| std::array::from_fn(|i| if bits >> i & 1 == 1 { u64::MAX } else { 0 }));
        let noise: Vec<[u64; 4]> = extremes.chain(noise.iter().copied()).collect();
        for b in 0..1u64 << BUCKET_BITS {
            for pick in edge_picks(b) {
                let Some(q) = table.certain(pick) else {
                    continue;
                };
                for n in &noise {
                    let full = level_quadrant(&p, [n[0], n[1], n[2], n[3], pick]);
                    prop_assert_eq!(q, full, "{:?}: pick {:#x}, noise {:?}", p, pick, n);
                }
            }
        }

        let weights = [p.a, p.b, p.c, p.d];
        let bands: Vec<(f64, f64)> = (1..4)
            .map(|k| {
                let ratios = (0..16u32).map(|bits| {
                    let noisy: Vec<f64> = (0..4)
                        .map(|i| weights[i] * if bits >> i & 1 == 1 { 1.05 } else { 0.95 })
                        .collect();
                    noisy[..k].iter().sum::<f64>() / noisy.iter().sum::<f64>()
                });
                ratios.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(x), hi.max(x))
                })
            })
            .collect();
        let buckets = (1u32 << BUCKET_BITS) as f64;
        for b in 0..1u64 << BUCKET_BITS {
            let (lo, hi) = (b as f64 / buckets - TOUCH, (b + 1) as f64 / buckets + TOUCH);
            if bands
                .iter()
                .any(|&(band_lo, band_hi)| lo <= band_hi && band_lo <= hi)
            {
                prop_assert!(
                    table.certain(b << (64 - BUCKET_BITS)).is_none(),
                    "{:?}: bucket {} reaches a band {:?} but is certain",
                    p,
                    b,
                    bands
                );
            }
        }
    }

    fn params(w: [f64; 4]) -> RmatParams {
        let s: f64 = w.iter().sum();
        RmatParams {
            a: w[0] / s,
            b: w[1] / s,
            c: w[2] / s,
            d: w[3] / s,
        }
    }

    #[test]
    fn quadrant_table_agrees_on_the_named_and_degenerate_params() {
        let mut rng = SmallRng::seed_from_u64(11);
        let noise: Vec<[u64; 4]> = (0..4).map(|_| [(); 4].map(|()| rng.next_u64())).collect();
        let named = [RmatParams::SOCIAL, RmatParams::WEB, RmatParams::UNIFORM];
        let degenerate = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.5, 0.3, 0.2, 0.0],
            [0.0, 0.5, 0.5, 0.0],
        ];
        for p in named.into_iter().chain(degenerate.map(params)) {
            p.validate();
            check_table(p, &noise);
        }
    }

    /// Params with one band edge just clear of bucket edge `j / 1024`,
    /// by less than [`TOUCH`]: boundary `k`'s cumulative weight `S` is
    /// solved so that its band's `hi` (`high`) sits below the edge, or
    /// its `lo` above it; the other weights split the rest by `split`.
    fn near_edge_params(j: u32, k: usize, high: bool, gap: f64, split: [f64; 2]) -> RmatParams {
        let x = j as f64 / (1u32 << BUCKET_BITS) as f64 + if high { -gap } else { gap };
        let (f, g) = if high { (1.05, 0.95) } else { (0.95, 1.05) };
        // f·S / (f·S + g·(1 − S)) = x
        let s = g * x / (f * (1.0 - x) + g * x);
        let (a, b, c, d) = match k {
            1 => {
                let b = (1.0 - s) * split[0];
                let c = (1.0 - s - b) * split[1];
                (s, b, c, 1.0 - s - b - c)
            }
            2 => {
                let a = s * split[0];
                let c = (1.0 - s) * split[1];
                (a, s - a, c, 1.0 - s - c)
            }
            _ => {
                let a = s * split[0];
                let b = (s - a) * split[1];
                (a, b, s - a - b, 1.0 - s)
            }
        };
        RmatParams { a, b, c, d }
    }

    /// A quadrant table draw: any `u64` but the extremes, which
    /// [`check_table`] adds itself.
    const DRAW: std::ops::Range<u64> = 1..u64::MAX;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn quadrant_table_agrees_with_the_full_computation(
            w in (0u32..65, 0u32..65, 0u32..65, 0u32..65),
            (j, k, high, gap) in (1u32..1 << BUCKET_BITS, 1usize..4, 0u32..2, 1u32..1000),
            split in (0u32..1000, 0u32..1000),
            noise in proptest::collection::vec((DRAW, DRAW, DRAW, DRAW), 4..5),
        ) {
            let noise: Vec<[u64; 4]> = noise.into_iter().map(|(a, b, c, d)| [a, b, c, d]).collect();
            if w != (0, 0, 0, 0) {
                check_table(params([w.0, w.1, w.2, w.3].map(f64::from)), &noise);
            }
            let gap = TOUCH * f64::from(gap) / 1000.0;
            let split = [split.0, split.1].map(|x| f64::from(x) / 1000.0);
            let p = near_edge_params(j, k, high == 1, gap, split);
            p.validate();
            check_table(p, &noise);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn striped_rmat_equals_the_sequential_oracle(
            log_n in 1u32..13,
            m in 0usize..20_000,
            family in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let params = [RmatParams::SOCIAL, RmatParams::WEB, RmatParams::UNIFORM][family];
            let oracle = rmat_oracle(log_n, m, params, seed);
            for threads in [1, 2, 3, 8] {
                let g = rmat_with_threads(log_n, m, params, seed, threads);
                prop_assert_eq!(&g, &oracle, "{} threads", threads);
            }
        }
    }

    #[test]
    fn generates_requested_scale() {
        let g = rmat(10, 5_000, RmatParams::SOCIAL, 1);
        assert_eq!(g.num_nodes(), 1024);
        // Dedup removes some edges but most survive.
        assert!(g.num_edges() > 3_000, "got {}", g.num_edges());
        assert!(g.num_edges() <= 5_000);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat(8, 1000, RmatParams::SOCIAL, 7);
        let b = rmat(8, 1000, RmatParams::SOCIAL, 7);
        assert_eq!(a, b);
        let c = rmat(8, 1000, RmatParams::SOCIAL, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn social_params_are_skewed() {
        let g = rmat(12, 40_000, RmatParams::SOCIAL, 3);
        let max_deg = g.max_degree();
        let avg_deg = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_deg as f64 > 8.0 * avg_deg,
            "expected skew: max {max_deg} vs avg {avg_deg}"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_params() {
        rmat(
            4,
            10,
            RmatParams {
                a: 0.9,
                b: 0.9,
                c: 0.0,
                d: 0.0,
            },
            0,
        );
    }
}
