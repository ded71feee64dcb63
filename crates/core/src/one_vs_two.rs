//! The 1-vs-2-cycle problem in O(1) AMPC rounds (§5.6).
//!
//! *"The O(1) round AMPC algorithm for this problem is based on sampling
//! vertices with probability O(n^{-ε/2}) and searching outward from each
//! vertex until another sampled vertex is hit. Then, the graph is
//! contracted to a graph on the sampled vertices … Our implementation
//! performs a single round of the search procedure, sampling vertices
//! with probability 1/1024, and solves the subsequent contracted graph
//! on a single machine."*
//!
//! Implementation notes: every vertex of the input must have degree 2
//! (the instance is a disjoint union of cycles). Each sampled vertex
//! walks in both directions until the next sample; walk lengths let the
//! driver check coverage exactly (each cycle edge in a sampled component
//! is traversed exactly twice), so components that received no sample —
//! possible at small scale — are detected and counted rather than
//! silently missed.

use ampc_dht::hasher::mix64;
use ampc_dht::store::{Dht, GenerationWriter};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::Job;
use ampc_trees::UnionFind;

/// The answer to a 1-vs-2-cycle instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleAnswer {
    /// The graph is a single cycle.
    One,
    /// The graph consists of two (or more) cycles.
    Two,
}

impl CycleAnswer {
    /// The answer for an instance with `num_cycles` cycles.
    pub fn of(num_cycles: usize) -> Self {
        if num_cycles == 1 {
            CycleAnswer::One
        } else {
            CycleAnswer::Two
        }
    }
}

const SAMPLE_SALT: u64 = 0x1b52_c1c1;

/// The kernel body (registry row `one-vs-two`): answers the instance
/// inside a caller-provided [`Job`] at inverse sampling rate `sample_inv`
/// (the paper's: 1024), returning the answer and the cycle count found.
///
/// ```
/// use ampc_core::one_vs_two::{ampc_one_vs_two_in_job, CycleAnswer};
/// use ampc_runtime::{driver::drive, AmpcConfig};
///
/// let two = ampc_graph::gen::two_cycles(500, 9);
/// let out = drive(&AmpcConfig::for_tests(), |job| ampc_one_vs_two_in_job(job, &two, 1024));
/// assert_eq!(out.output.0, CycleAnswer::Two);
/// assert_eq!(out.report.num_shuffles(), 1);
/// ```
pub fn ampc_one_vs_two_in_job(
    job: &mut Job,
    g: &CsrGraph,
    sample_inv: u64,
) -> (CycleAnswer, usize) {
    let cfg = *job.config();
    let n = g.num_nodes();
    assert!(n >= 3, "cycle instances need >= 3 vertices");
    assert!(
        (0..n as NodeId).all(|v| g.degree(v) == 2),
        "1-vs-2-cycle input must be 2-regular"
    );

    // Sampling: hash-based, rate 1/sample_inv but at least a handful of
    // samples so tiny test instances stay covered w.h.p.
    let rate_inv = sample_inv.min((n as u64 / 8).max(1));
    let cutoff = u64::MAX / rate_inv;
    let is_sampled = |v: NodeId| mix64(cfg.seed ^ SAMPLE_SALT ^ v as u64) <= cutoff;
    let mut samples: Vec<NodeId> = Vec::new();
    crate::prim::pack_range(n, |v| is_sampled(v as NodeId), &mut samples);

    // ------------------------------------------------ WriteGraph shuffle
    // (§5.6: "a single shuffle used to write the graph to the key-value
    // store".) Host-side only vertex ids move; the simulated shuffle
    // redistributes the full adjacency record (id + length-prefixed
    // neighbor list), so the metered loads are those of the record.
    let vertices: Vec<NodeId> = g.nodes().collect();
    let buckets = job.shuffle_by_key_measured(
        "WriteGraph",
        vertices,
        |&v| v as u64,
        |&v| 12 + 4 * g.degree(v) as u64,
    );
    let mut dht: Dht<Vec<NodeId>> = Dht::new();
    let writer = GenerationWriter::new();
    job.kv_round_chunked(
        "KV-Write",
        dht.current(),
        Some(&writer),
        &buckets,
        |ctx, items: &[NodeId]| {
            // Independent writes share one round trip (§5.3). Each
            // adjacency list is materialized exactly once, owned by its
            // put — no intermediate record vector, no clone.
            ctx.handle
                .put_many(items.iter().map(|&v| (v as u64, g.neighbors(v).to_vec())));
            Vec::<()>::new()
        },
    );
    dht.push(writer.seal());

    // ----------------------------------------------------------- Search
    // Each sample walks both ways to the next sample; a walk returns
    // (endpoint sample, steps taken). A machine's walks advance in
    // **lockstep**: every adaptive step issues one batched lookup for
    // all still-active walk frontiers (§5.3), so the charged round-trip
    // depth is the longest segment, not the total step count.
    let walks: Vec<(NodeId, NodeId, u64)> = job.kv_round(
        "Search",
        dht.current(),
        None,
        samples.clone(),
        |ctx, items| {
            struct Walk {
                origin: NodeId,
                prev: NodeId,
                cur: NodeId,
                steps: u64,
            }
            // Lockstep buffers, reused across hops *and rounds* (the
            // keys batch lives in the machine's scratch arena): one
            // batched lookup per adaptive step through the zero-copy
            // visitor form — adjacency is served by reference in a
            // single pass, no `Option<&V>` staging buffer, no per-hop
            // allocation. The survivor list double-buffers with
            // `active` instead of reallocating.
            let mut walks: Vec<Walk> = Vec::with_capacity(items.len() * 2);
            // The sample-origin fetches are independent: one batch.
            ctx.scratch.keys.clear();
            ctx.scratch.keys.extend(items.iter().map(|&s| s as u64));
            {
                let walks = &mut walks;
                ctx.handle.get_many_with(&ctx.scratch.keys, |j, nbrs| {
                    let nbrs = nbrs.expect("2-regular");
                    let s = items[j];
                    for &start in nbrs.iter().take(2) {
                        walks.push(Walk {
                            origin: s,
                            prev: s,
                            cur: start,
                            steps: 1,
                        });
                    }
                });
            }
            let mut active: Vec<usize> = (0..walks.len())
                .filter(|&i| !is_sampled(walks[i].cur))
                .collect();
            let mut next_active: Vec<usize> = Vec::with_capacity(active.len());
            while !active.is_empty() {
                ctx.scratch.keys.clear();
                ctx.scratch
                    .keys
                    .extend(active.iter().map(|&i| walks[i].cur as u64));
                ctx.add_ops(active.len() as u64);
                next_active.clear();
                {
                    let walks = &mut walks;
                    let next_active = &mut next_active;
                    let active = &active;
                    ctx.handle.get_many_with(&ctx.scratch.keys, |j, cn| {
                        let cn = cn.expect("2-regular");
                        let i = active[j];
                        let w = &mut walks[i];
                        let next = if cn[0] == w.prev { cn[1] } else { cn[0] };
                        w.prev = w.cur;
                        w.cur = next;
                        w.steps += 1;
                        debug_assert!(w.steps <= n as u64 + 1, "walk failed to terminate");
                        if !is_sampled(w.cur) {
                            next_active.push(i);
                        }
                    });
                }
                std::mem::swap(&mut active, &mut next_active);
            }
            walks
                .into_iter()
                .map(|w| (w.origin, w.cur, w.steps))
                .collect()
        },
    );

    // --------------------------------------------------- SolveContracted
    let (num_cycles, _covered) = job.local("SolveContracted", walks.len() as u64 * 4 + 8, || {
        // Union samples along discovered segments; each edge of a covered
        // cycle is walked exactly twice (once per direction).
        let mut idx = ampc_dht::hasher::FxHashMap::default();
        for (i, &s) in samples.iter().enumerate() {
            idx.insert(s, i as NodeId);
        }
        let mut uf = UnionFind::new(samples.len());
        let mut steps_total = 0u64;
        for &(a, b, steps) in &walks {
            uf.union(idx[&a], idx[&b]);
            steps_total += steps;
        }
        let covered = (steps_total / 2) as usize; // edges == vertices per cycle
        let uncovered = n - covered;
        // Uncovered vertices belong to sample-free cycles; each such
        // cycle has >= 3 vertices, count conservatively as >= 1 cycle.
        let extra = usize::from(uncovered > 0);
        (uf.num_components() + extra, covered)
    });

    (CycleAnswer::of(num_cycles), num_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    fn run(g: &CsrGraph, c: &AmpcConfig, sample_inv: u64) -> Driven<(CycleAnswer, usize)> {
        drive(c, |job| ampc_one_vs_two_in_job(job, g, sample_inv))
    }

    #[test]
    fn distinguishes_one_from_two() {
        for seed in 0..6 {
            let one = gen::single_cycle(4000, seed);
            let two = gen::two_cycles(2000, seed);
            let c = cfg().with_seed(seed + 7);
            assert_eq!(
                run(&one, &c, 1024).output.0,
                CycleAnswer::One,
                "seed {seed}"
            );
            assert_eq!(
                run(&two, &c, 1024).output.0,
                CycleAnswer::Two,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn counts_cycles_exactly_when_all_sampled_covered() {
        let g = gen::two_cycles(500, 3);
        assert_eq!(run(&g, &cfg(), 16).output.1, 2);
    }

    #[test]
    fn single_shuffle_total() {
        let g = gen::single_cycle(1000, 1);
        assert_eq!(run(&g, &cfg(), 1024).report.num_shuffles(), 1);
    }

    #[test]
    fn tiny_cycles_work() {
        let g = gen::single_cycle(5, 2);
        assert_eq!(run(&g, &cfg(), 1024).output.0, CycleAnswer::One);
        let g = gen::two_cycles(3, 2);
        assert_eq!(run(&g, &cfg(), 1024).output.0, CycleAnswer::Two);
    }

    #[test]
    #[should_panic(expected = "2-regular")]
    fn rejects_non_cycle_inputs() {
        run(&gen::path(10), &cfg(), 1024);
    }
}
