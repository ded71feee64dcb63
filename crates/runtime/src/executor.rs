//! Parallel execution of machine bodies.
//!
//! A round's machines are the parts of one [`par_map`] on the
//! process-wide pool that the process creates once and reuses across
//! all rounds of all jobs. Every machine, inline (`AMPC_THREADS=1` or a
//! single machine) or pooled, runs through the exact same per-machine
//! entry point that fault injection replays ([`run_one_machine`]), so
//! replays are byte-identical whether the original round ran inline or
//! on the pool. Each machine gets a
//! metered [`MachineHandle`] onto the DHT plus a local operation
//! counter; the round's outcome carries per-machine statistics so the
//! cost model can charge the *bottleneck* machine.

use ampc_dht::fault::DropPlan;
use ampc_dht::handle::MachineHandle;
use ampc_dht::measured::Measured;
use ampc_dht::metrics::CommStats;
use ampc_dht::pool::par_map;
use ampc_dht::store::{Generation, GenerationWriter};
use ampc_dht::wire::Wire;

/// Per-round execution parameters a machine body runs under, bundled so
/// the replay entry point ([`run_one_machine`]) provably receives the
/// exact parameters of the original round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundSpec {
    /// Per-machine query budget (`O(S)` in the model; `u64::MAX` means
    /// unenforced).
    pub budget: u64,
    /// Chaos DHT fault mode for every machine's handle (retry counters
    /// only — see [`DropPlan`]).
    pub drops: Option<DropPlan>,
}

impl RoundSpec {
    /// No budget and no chaos.
    pub fn unbudgeted() -> Self {
        RoundSpec {
            budget: u64::MAX,
            drops: None,
        }
    }
}

impl Default for RoundSpec {
    fn default() -> Self {
        RoundSpec::unbudgeted()
    }
}

/// One machine's reusable buffer arena. Kernels route their per-hop
/// allocations (batched lookup keys, fixed-size results, frontiers,
/// index permutations) through these vectors instead of allocating
/// fresh ones every adaptive step; the arena persists across rounds and
/// epochs of a [`crate::job::Job`], so steady-state hot loops allocate
/// nothing.
///
/// Contents are **unspecified garbage** at body entry — whatever the
/// previous round left behind. Bodies must `clear()` (or overwrite via
/// `*_into` calls, which clear internally) before reading; in exchange,
/// capacity is retained. Determinism is unaffected: a replayed machine
/// may see different leftover capacity but never reads stale *values*.
#[derive(Debug, Default)]
pub struct ScratchBuffers {
    /// Batched lookup keys.
    pub keys: Vec<u64>,
    /// Fixed-size (`u64`) lookup results: labels, successors, parents.
    pub vals: Vec<u64>,
    /// General `u64` workspace (frontiers, second key batches).
    pub aux: Vec<u64>,
    /// Index workspace (pack/partition survivor lists).
    pub idx: Vec<u32>,
}

/// The per-machine scratch arenas of a job, indexed by machine id.
/// Owned by the [`crate::job::Job`] and lent to every round, so buffer
/// capacity survives across rounds and epochs.
#[derive(Debug, Default)]
pub struct RoundScratch {
    per_machine: Vec<ScratchBuffers>,
}

impl RoundScratch {
    /// An empty arena set; machines are added lazily on first use.
    pub fn new() -> Self {
        RoundScratch::default()
    }

    /// The arenas for `p` machines, growing the set if needed.
    fn for_machines(&mut self, p: usize) -> &mut [ScratchBuffers] {
        if self.per_machine.len() < p {
            self.per_machine.resize_with(p, ScratchBuffers::default);
        }
        &mut self.per_machine[..p]
    }

    /// The arena of machine `i` (for fault replay).
    pub fn machine(&mut self, i: usize) -> &mut ScratchBuffers {
        &mut self.for_machines(i + 1)[i]
    }
}

/// Everything a machine body can touch during a round.
pub struct MachineCtx<'a, V> {
    /// This machine's index in `0..P`.
    pub machine_id: usize,
    /// Metered DHT access.
    pub handle: MachineHandle<'a, V>,
    /// This machine's reusable buffer arena (see [`ScratchBuffers`]).
    pub scratch: &'a mut ScratchBuffers,
    ops: u64,
}

impl<'a, V: Measured + Clone + Default + PartialEq + Send + Wire> MachineCtx<'a, V> {
    /// Records `n` units of local computation (charged by the cost
    /// model at `compute_ns_per_op` each).
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Local operations recorded so far.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// Per-machine outcome of one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineRoundStats {
    /// The machine's DHT communication.
    pub comm: CommStats,
    /// The machine's local operation count.
    pub ops: u64,
}

/// Outcome of a parallel round.
pub struct RoundOutcome<R> {
    /// Outputs of all machines concatenated in machine order (so the
    /// result is deterministic regardless of thread scheduling).
    pub outputs: Vec<R>,
    /// Per-machine statistics, indexed by machine id.
    pub per_machine: Vec<MachineRoundStats>,
    /// How many of `outputs` each machine emitted, indexed by machine
    /// id — bodies need not emit one output per input item, so replay
    /// splices a victim's outputs by these recorded lengths.
    pub output_lens: Vec<usize>,
}

impl<R> RoundOutcome<R> {
    /// Assembles the final outcome from per-machine results in machine
    /// order (identical for every thread count).
    fn collect(results: Vec<(Vec<R>, MachineRoundStats)>) -> Self {
        let mut outputs = Vec::new();
        let mut per_machine = Vec::with_capacity(results.len());
        let mut output_lens = Vec::with_capacity(results.len());
        for (out, stats) in results {
            output_lens.push(out.len());
            outputs.extend(out);
            per_machine.push(stats);
        }
        RoundOutcome {
            outputs,
            per_machine,
            output_lens,
        }
    }
}

/// Runs `body` once per machine over the given per-machine `chunks`.
/// Reads go to the sealed generation `read`; writes (if `write` is
/// provided) go into the next generation under construction.
///
/// `spec` carries the per-round execution parameters (query budget,
/// chaos drops); `threads` bounds how many machines execute at once —
/// the machines are the parts of one [`par_map`], so with one machine
/// or one thread the round runs inline on the caller thread; `scratch`
/// lends each machine its persistent buffer arena. Outputs,
/// per-machine statistics and the sealed result of `write` are
/// identical for every `threads` value — it is a wall-clock knob, never
/// a semantic one.
pub fn run_machines<V, T, R, F>(
    read: &Generation<V>,
    write: Option<&GenerationWriter<V>>,
    chunks: &[Vec<T>],
    spec: RoundSpec,
    threads: usize,
    scratch: &mut RoundScratch,
    body: F,
) -> RoundOutcome<R>
where
    V: Measured + Clone + Default + PartialEq + Sync + Send + Wire,
    T: Sync,
    R: Send,
    F: Fn(&mut MachineCtx<'_, V>, &[T]) -> Vec<R> + Sync,
{
    let machines = chunks.iter().zip(scratch.for_machines(chunks.len()));
    let results = par_map(
        machines.enumerate().collect(),
        threads,
        |(id, (chunk, arena))| run_one_machine(id, read, write, chunk, spec, arena, &body),
    );
    RoundOutcome::collect(results)
}

/// Runs a single machine's share of a round. This is both the body of
/// every machine [`run_machines`] runs and the replay path used by
/// fault injection —
/// replaying against the same sealed generation necessarily reproduces
/// the same result, whether the original round ran inline or pooled.
pub fn run_one_machine<V, T, R, F>(
    machine_id: usize,
    read: &Generation<V>,
    write: Option<&GenerationWriter<V>>,
    chunk: &[T],
    spec: RoundSpec,
    scratch: &mut ScratchBuffers,
    body: &F,
) -> (Vec<R>, MachineRoundStats)
where
    V: Measured + Clone + Default + PartialEq + Send + Wire,
    F: Fn(&mut MachineCtx<'_, V>, &[T]) -> Vec<R>,
{
    let mut ctx = MachineCtx {
        machine_id,
        handle: MachineHandle::new(read, write)
            .with_budget(spec.budget)
            .with_machine(machine_id as u32)
            .with_chaos_drops(spec.drops),
        scratch,
        ops: 0,
    };
    let out = body(&mut ctx, chunk);
    let stats = MachineRoundStats {
        comm: *ctx.handle.stats(),
        ops: ctx.ops,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use ampc_dht::store::StoreKind;

    /// Thread counts a round must behave identically under: inline
    /// and pooled.
    const THREADS: [usize; 2] = [1, 4];

    #[test]
    fn outputs_in_machine_order() {
        let read: Generation<u64> = Generation::from_iter((0..100u64).map(|k| (k, k * 10)));
        let chunks = partition::chunk((0..100u64).collect(), 4);
        let mut scratch = RoundScratch::new();
        for threads in THREADS {
            let outcome = run_machines(
                &read,
                None,
                &chunks,
                RoundSpec::unbudgeted(),
                threads,
                &mut scratch,
                |ctx, items| {
                    items
                        .iter()
                        .map(|&k| *ctx.handle.get(k).unwrap())
                        .collect::<Vec<_>>()
                },
            );
            let expect: Vec<u64> = (0..100u64).map(|k| k * 10).collect();
            assert_eq!(outcome.outputs, expect, "{threads} threads");
        }
    }

    #[test]
    fn per_machine_stats_collected() {
        let read: Generation<u64> = Generation::from_iter((0..40u64).map(|k| (k, k)));
        let chunks = partition::chunk((0..40u64).collect(), 4);
        let mut scratch = RoundScratch::new();
        for threads in THREADS {
            let outcome = run_machines(
                &read,
                None,
                &chunks,
                RoundSpec::unbudgeted(),
                threads,
                &mut scratch,
                |ctx, items| {
                    for &k in items {
                        ctx.handle.get(k);
                        ctx.add_ops(3);
                    }
                    Vec::<()>::new()
                },
            );
            assert_eq!(outcome.per_machine.len(), 4);
            for m in &outcome.per_machine {
                assert_eq!(m.comm.queries, 10, "{threads} threads");
                assert_eq!(m.ops, 30, "{threads} threads");
            }
        }
    }

    #[test]
    fn writes_visible_after_seal_under_every_policy() {
        for threads in THREADS {
            let read: Generation<u64> = Generation::empty();
            let writer = GenerationWriter::new();
            let chunks = partition::chunk((0..20u64).collect(), 3);
            let mut scratch = RoundScratch::new();
            run_machines(
                &read,
                Some(&writer),
                &chunks,
                RoundSpec::unbudgeted(),
                threads,
                &mut scratch,
                |ctx, items| {
                    for &k in items {
                        ctx.handle.put(k, k + 1);
                    }
                    Vec::<()>::new()
                },
            );
            let sealed = writer.seal();
            assert_eq!(sealed.len(), 20, "{threads} threads");
            assert_eq!(sealed.get(7), Some(&8), "{threads} threads");
        }
    }

    /// The pool and the inline path must seal byte-identical
    /// generations from racing duplicate writers.
    #[test]
    fn pool_and_inline_seal_identical_generations() {
        let run = |threads: usize| {
            let read: Generation<u64> = Generation::empty();
            let writer = GenerationWriter::new();
            // Every machine writes the shared keys with equal values
            // (the StatusWrite pattern) plus private keys.
            let chunks: Vec<Vec<u64>> = (0..8u64).map(|m| vec![m]).collect();
            let mut scratch = RoundScratch::new();
            run_machines(
                &read,
                Some(&writer),
                &chunks,
                RoundSpec::unbudgeted(),
                threads,
                &mut scratch,
                |ctx, items| {
                    for &m in items {
                        for i in 0..50u64 {
                            ctx.handle.put(m * 100 + i, i * 3);
                            ctx.handle.put(10_000 + i, i);
                        }
                    }
                    Vec::<()>::new()
                },
            );
            writer.seal_on(StoreKind::Flat, 1)
        };
        let pooled = run(4);
        let inline = run(1);
        assert_eq!(pooled.layout_fingerprint(), inline.layout_fingerprint());
        let pairs = |g: &Generation<u64>| g.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>();
        assert_eq!(pairs(&pooled), pairs(&inline));
    }

    #[test]
    fn replay_reproduces_outputs() {
        let read: Generation<u64> = Generation::from_iter((0..30u64).map(|k| (k, k * k)));
        let chunk: Vec<u64> = (5..15).collect();
        let body = |ctx: &mut MachineCtx<'_, u64>, items: &[u64]| {
            items
                .iter()
                .map(|&k| *ctx.handle.get(k).unwrap())
                .collect::<Vec<_>>()
        };
        let mut scratch = RoundScratch::new();
        let spec = RoundSpec::unbudgeted();
        let (a, sa) = run_one_machine(0, &read, None, &chunk, spec, scratch.machine(0), &body);
        let (b, sb) = run_one_machine(0, &read, None, &chunk, spec, scratch.machine(0), &body);
        assert_eq!(a, b);
        assert_eq!(sa.comm, sb.comm);
    }

    /// The `O(S)` budget is enforced at the handle: an Algorithm-1-style
    /// search that keeps exploring is truncated exactly at the budget.
    #[test]
    fn enforced_budget_truncates_machine_searches() {
        let read: Generation<u64> = Generation::from_iter((0..1000u64).map(|k| (k, k + 1)));
        let chunks = partition::chunk(vec![0u64, 500], 2);
        let budget = 5u64;
        let mut scratch = RoundScratch::new();
        for threads in THREADS {
            let outcome = run_machines(
                &read,
                None,
                &chunks,
                RoundSpec {
                    budget,
                    ..RoundSpec::unbudgeted()
                },
                threads,
                &mut scratch,
                |ctx, items| {
                    items
                        .iter()
                        .map(|&start| {
                            let mut cur = start;
                            loop {
                                match ctx.handle.try_get(cur) {
                                    Ok(Some(&next)) => cur = next,
                                    Ok(None) | Err(_) => break cur,
                                }
                            }
                        })
                        .collect::<Vec<u64>>()
                },
            );
            // Each machine ran one chain and was cut off after `budget` hops.
            assert_eq!(
                outcome.outputs,
                vec![budget, 500 + budget],
                "{threads} threads"
            );
            for m in &outcome.per_machine {
                assert_eq!(m.comm.queries, budget, "{threads} threads");
            }
        }
    }

    #[test]
    fn machine_panic_propagates_from_the_pool() {
        let read: Generation<u64> = Generation::from_iter((0..8u64).map(|k| (k, k)));
        let chunks = partition::chunk((0..8u64).collect(), 4);
        let mut scratch = RoundScratch::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_machines(
                &read,
                None,
                &chunks,
                RoundSpec::unbudgeted(),
                4,
                &mut scratch,
                |ctx, items| {
                    if ctx.machine_id == 2 {
                        panic!("injected machine failure");
                    }
                    items.to_vec()
                },
            )
        }));
        assert!(result.is_err());
    }
}
