//! Recursive-matrix (RMAT) graph generator.
//!
//! RMAT graphs are the standard stand-in for skewed real-world networks:
//! the `(a, b, c, d)` quadrant probabilities control the degree skew. We
//! use them as laptop-scale analogues of the paper's social and web graphs
//! (Orkut, Twitter, Friendster, ClueWeb, Hyperlink2012); see
//! [`crate::datasets`].

use crate::builder::GraphBuilder;
use crate::stripes::stripe_bounds;
use crate::CsrGraph;
use crate::NodeId;
use ampc_knobs::ampc_threads;
use ampc_runtime::pool::run_tasks;
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
/// indices, each starting its generator at its first edge's offset in
/// the one seeded stream, so the graph is the same for every thread
/// count (DESIGN.md §1).
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
    let mut edges = vec![(0, 0, 0); m];
    {
        let mut rest = edges.as_mut_slice();
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for r in stripe_bounds(m, threads) {
            let (win, tail) = rest.split_at_mut(r.len());
            rest = tail;
            tasks.push(Box::new(move || {
                let mut rng = stream_at(seed, (r.start as u64).wrapping_mul(draws_per_edge));
                for slot in win {
                    let (u, v) = sample_edge(log_n, &params, &mut rng);
                    *slot = (u, v, 0);
                }
            }));
        }
        run_tasks(tasks, threads);
    }
    GraphBuilder::from_edges(1 << log_n, edges).build_with_threads(threads)
}

/// Generator draws per level of [`sample_edge`]: four noise factors and
/// the quadrant pick, one `next_u64` each.
const DRAWS_PER_LEVEL: u64 = 5;

/// The vendored `SmallRng` (SplitMix64) as it stands after `draws`
/// draws from `SmallRng::seed_from_u64(seed)`: every draw adds the
/// same constant γ to the state, so the state after `k` draws is
/// `seed + k·γ` (wrapping) and any stripe of the stream can start
/// anywhere.
fn stream_at(seed: u64, draws: u64) -> SmallRng {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    SmallRng::seed_from_u64(seed.wrapping_add(draws.wrapping_mul(GAMMA)))
}

/// One edge: `log_n` levels, each choosing a quadrant with probability
/// proportional to its noisy weight. Per-level multiplicative noise in
/// `[0.95, 1.05]` ("smoothing") is the standard fix that avoids exactly
/// repeating degree patterns. The quadrant is the number of cumulative
/// weights `r` reaches, `q ∈ 0..4`, whose high bit extends `u` and low
/// bit `v`; no branch to mispredict.
fn sample_edge(log_n: u32, p: &RmatParams, rng: &mut SmallRng) -> (NodeId, NodeId) {
    let mut u: NodeId = 0;
    let mut v: NodeId = 0;
    for _ in 0..log_n {
        let na = p.a * rng.gen_range(0.95..1.05);
        let nb = p.b * rng.gen_range(0.95..1.05);
        let nc = p.c * rng.gen_range(0.95..1.05);
        let nd = p.d * rng.gen_range(0.95..1.05);
        let total = na + nb + nc + nd;
        let r: f64 = rng.gen_range(0.0..total);
        let q = (r >= na) as NodeId + (r >= na + nb) as NodeId + (r >= na + nb + nc) as NodeId;
        u = u << 1 | q >> 1;
        v = v << 1 | q & 1;
    }
    (u, v)
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
