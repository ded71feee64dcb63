//! Job orchestration: stages, cost charging, fault replay.

use crate::chaos::{ChaosSpec, FaultSchedule};
use crate::config::AmpcConfig;
use crate::executor::{self, MachineCtx, MachineRoundStats, RoundScratch, RoundSpec};
use crate::partition;
use crate::report::{JobReport, StageKind, StageReport};
use ampc_dht::measured::Measured;
use ampc_dht::metrics::CommStats;
use ampc_dht::store::{Generation, GenerationWriter};
use ampc_dht::wire::Wire;
use std::time::Instant;

/// An executing job: the sequence of stages an algorithm runs, with
/// cost accounting and (optional) fault injection.
pub struct Job {
    cfg: AmpcConfig,
    report: JobReport,
    chaos: Option<FaultSchedule>,
    stage_index: usize,
    /// True between an [`Self::epoch`] mark and the next KV round: that
    /// round is the epoch's first, where `ekill=` chaos events fire.
    epoch_kv_pending: bool,
    /// Per-machine buffer arenas, lent to every round so kernel hot
    /// loops reuse capacity across rounds and epochs (DESIGN.md §11).
    scratch: RoundScratch,
}

/// Starts a stage's wall clock.
#[expect(
    clippy::disallowed_methods,
    reason = "stage wall time is a reported measurement only, never algorithm input; \
              no pin compares a wall-clock field"
)]
fn stage_clock() -> Instant {
    Instant::now()
}

impl Job {
    /// Starts a job under the given configuration (inheriting its
    /// chaos schedule, if any).
    pub fn new(cfg: AmpcConfig) -> Self {
        let p = cfg.num_machines;
        let chaos = cfg.chaos.map(FaultSchedule::new);
        Job {
            cfg,
            report: JobReport::new(p),
            chaos,
            stage_index: 0,
            epoch_kv_pending: false,
            scratch: RoundScratch::new(),
        }
    }

    /// Arms a chaos schedule (see [`crate::chaos`]).
    pub fn with_chaos(mut self, spec: ChaosSpec) -> Self {
        self.chaos = Some(FaultSchedule::new(spec));
        self
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &AmpcConfig {
        &self.cfg
    }

    /// The report so far.
    #[inline]
    pub fn report(&self) -> &JobReport {
        &self.report
    }

    /// Finishes the job, yielding the report.
    pub fn into_report(self) -> JobReport {
        self.report
    }

    fn next_stage_index(&mut self) -> usize {
        let i = self.stage_index;
        self.stage_index += 1;
        i
    }

    /// Marks an epoch boundary: all stages appended until the next mark
    /// belong to this epoch. The batch-dynamic kernels call this once
    /// per update batch (one sealed DHT generation per epoch), so the
    /// report can attribute rounds and communication per batch.
    pub fn epoch(&mut self, name: &str) {
        self.report.epochs.push(crate::report::EpochMark {
            name: name.to_string(),
            first_stage: self.report.stages.len(),
        });
        self.epoch_kv_pending = true;
    }

    /// Meters a shuffle stage with explicit byte loads: `total_bytes`
    /// across all machines, of which the most loaded machine handles
    /// `max_machine_bytes`. Simulated time = round overhead + the
    /// bottleneck machine's transfer time. No host work happens here, so
    /// the stage's wall time is 0.
    pub fn shuffle_metered(&mut self, name: &str, total_bytes: u64, max_machine_bytes: u64) {
        self.push_shuffle(name, total_bytes, max_machine_bytes, 0);
    }

    fn push_shuffle(&mut self, name: &str, total_bytes: u64, max_machine_bytes: u64, wall_ns: u64) {
        let _ = self.next_stage_index();
        let sim =
            self.cfg.cost.round_overhead_ns + self.cfg.cost.shuffle_time_ns(max_machine_bytes);
        self.report.push(StageReport {
            name: name.to_string(),
            kind: StageKind::Shuffle,
            comm: CommStats::default(),
            shuffle_bytes: total_bytes,
            shuffle_bytes_max_machine: max_machine_bytes,
            gen_bytes: 0,
            ops: 0,
            sim_ns: sim,
            wall_ns,
            replays: 0,
        });
    }

    /// Meters a shuffle whose records spread evenly over machines.
    pub fn shuffle_balanced(&mut self, name: &str, total_bytes: u64) {
        let per = total_bytes / self.cfg.num_machines as u64;
        self.shuffle_metered(name, total_bytes, per);
    }

    /// Performs (and meters) a real shuffle: partitions `items` by
    /// `key`, returning per-machine buckets. Byte loads are measured per
    /// machine, so key skew (many records hashing to one machine — the
    /// paper's ClueWeb join pathology) surfaces in the simulated time.
    pub fn shuffle_by_key<T: Measured>(
        &mut self,
        name: &str,
        items: Vec<T>,
        key: impl Fn(&T) -> u64,
    ) -> Vec<Vec<T>> {
        self.shuffle_by_key_measured(name, items, key, |t| t.size_bytes() as u64)
    }

    /// Like [`Self::shuffle_by_key`] but with caller-supplied per-record
    /// byte measurement. The zero-copy kernel restructures (DESIGN.md
    /// §11) shuffle a light host-side record (e.g. just a vertex id)
    /// while the *simulated* shuffle still moves the full record the
    /// algorithm logically redistributes; `record_bytes` must describe
    /// that simulated record, so restructuring a kernel's host
    /// representation never changes its reported shuffle loads.
    pub fn shuffle_by_key_measured<T>(
        &mut self,
        name: &str,
        items: Vec<T>,
        key: impl Fn(&T) -> u64,
        record_bytes: impl Fn(&T) -> u64,
    ) -> Vec<Vec<T>> {
        let wall = stage_clock();
        let buckets = partition::by_key(items, self.cfg.num_machines, self.shuffle_salt(), key);
        let per_bytes: Vec<u64> = buckets
            .iter()
            .map(|b| b.iter().map(&record_bytes).sum())
            .collect();
        self.push_shuffle_loads(name, &per_bytes, wall);
        buckets
    }

    /// Meters a keyed shuffle from per-machine byte loads the caller sums
    /// itself — the placement, loads and stage
    /// [`Self::shuffle_by_key_measured`] would report — without moving
    /// anything: for a kernel whose host side needs the loads but not the
    /// buckets (the Prim round's Contract, DESIGN.md §11). `loads` gets
    /// the placement (key → machine at this stage; `Sync`, so striped
    /// passes can share it) and returns every machine's load. Running it
    /// is the stage's host work and is timed into its `wall_ns`.
    ///
    /// # Panics
    /// If `loads` returns other than one load per machine.
    pub fn shuffle_by_key_metered(
        &mut self,
        name: &str,
        loads: impl FnOnce(&(dyn Fn(u64) -> usize + Sync)) -> Vec<u64>,
    ) {
        let wall = stage_clock();
        let (p, salt) = (self.cfg.num_machines, self.shuffle_salt());
        let per_bytes = loads(&|key| partition::machine_of(key, p, salt));
        assert_eq!(per_bytes.len(), p, "one load per machine");
        self.push_shuffle_loads(name, &per_bytes, wall);
    }

    /// Placement salt of a keyed shuffle at the current stage index.
    fn shuffle_salt(&self) -> u64 {
        self.cfg.seed ^ (self.stage_index as u64).wrapping_mul(0x9E37)
    }

    /// Pushes a keyed shuffle's stage from its per-machine byte loads.
    fn push_shuffle_loads(&mut self, name: &str, per_bytes: &[u64], wall: Instant) {
        let total: u64 = per_bytes.iter().sum();
        let max = per_bytes.iter().copied().max().unwrap_or(0);
        self.push_shuffle(name, total, max, wall.elapsed().as_nanos() as u64);
    }

    /// Runs a parallel KV round: `items` are chunked contiguously over
    /// machines and `body` runs once per machine with a metered handle.
    /// Returns all outputs in machine order.
    pub fn kv_round<V, T, R, F>(
        &mut self,
        name: &str,
        read: &Generation<V>,
        write: Option<&GenerationWriter<V>>,
        items: Vec<T>,
        body: F,
    ) -> Vec<R>
    where
        V: Measured + Clone + PartialEq + Sync + Send + Wire,
        T: Sync + Send,
        R: Send,
        F: Fn(&mut MachineCtx<'_, V>, &[T]) -> Vec<R> + Sync,
    {
        self.kv_round_budgeted(name, read, write, items, u64::MAX, body)
    }

    /// Like [`Self::kv_round`] but with an *enforced* per-machine query
    /// budget (the model's `O(S)`): the handle debug-panics on plain
    /// `get` past the budget and signals `BudgetExhausted` through
    /// `try_get`, so truncated query processes can make the budget a
    /// real stopping condition rather than an advisory counter.
    pub fn kv_round_budgeted<V, T, R, F>(
        &mut self,
        name: &str,
        read: &Generation<V>,
        write: Option<&GenerationWriter<V>>,
        items: Vec<T>,
        budget: u64,
        body: F,
    ) -> Vec<R>
    where
        V: Measured + Clone + PartialEq + Sync + Send + Wire,
        T: Sync + Send,
        R: Send,
        F: Fn(&mut MachineCtx<'_, V>, &[T]) -> Vec<R> + Sync,
    {
        let chunks = partition::chunk(items, self.cfg.num_machines);
        self.kv_round_chunked_budgeted(name, read, write, &chunks, budget, body)
    }

    /// Like [`Self::kv_round`] but with caller-controlled placement
    /// (e.g. buckets from [`Self::shuffle_by_key`]).
    pub fn kv_round_chunked<V, T, R, F>(
        &mut self,
        name: &str,
        read: &Generation<V>,
        write: Option<&GenerationWriter<V>>,
        chunks: &[Vec<T>],
        body: F,
    ) -> Vec<R>
    where
        V: Measured + Clone + PartialEq + Sync + Send + Wire,
        T: Sync,
        R: Send,
        F: Fn(&mut MachineCtx<'_, V>, &[T]) -> Vec<R> + Sync,
    {
        self.kv_round_chunked_budgeted(name, read, write, chunks, u64::MAX, body)
    }

    /// The fully-general KV round: caller-controlled placement and an
    /// enforced per-machine query budget.
    pub fn kv_round_chunked_budgeted<V, T, R, F>(
        &mut self,
        name: &str,
        read: &Generation<V>,
        write: Option<&GenerationWriter<V>>,
        chunks: &[Vec<T>],
        budget: u64,
        body: F,
    ) -> Vec<R>
    where
        V: Measured + Clone + PartialEq + Sync + Send + Wire,
        T: Sync,
        R: Send,
        F: Fn(&mut MachineCtx<'_, V>, &[T]) -> Vec<R> + Sync,
    {
        let stage = self.next_stage_index();
        let threads = self.cfg.threads;
        let spec = RoundSpec {
            budget,
            drops: self.chaos.and_then(|c| c.drop_plan(stage)),
        };
        // Epoch bookkeeping: the first KV round after an epoch mark is
        // where epoch kills fire; the flag is consumed either way.
        let epoch_first_kv = if self.epoch_kv_pending {
            Some(self.report.epochs.len().saturating_sub(1))
        } else {
            None
        };
        self.epoch_kv_pending = false;
        // Shard-process lifecycle, round edge: a socket shard server
        // that died mid-job is respawned (and the surviving generations
        // it lost will fail loudly rather than silently read stale
        // data). No-op under the in-memory substrates (DESIGN.md §12).
        ampc_dht::socket::ensure_if_active();
        let wall = stage_clock();
        // Lend the job's persistent arenas to the round (taken out of
        // `self` so replay below can borrow both `self` and the arenas).
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut outcome =
            executor::run_machines(read, write, chunks, spec, threads, &mut scratch, &body);

        // Fault injection: each victim's first attempt is thrown away
        // and its chunk replayed against the same sealed input, in
        // ascending machine order (deterministic replay order; repeats
        // allowed — a machine killed twice is replayed twice). Victims
        // are the chaos schedule's explicit and seeded kills.
        let victims: Vec<(usize, f64)> = self.chaos.map_or_else(Vec::new, |c| {
            c.victims(stage, epoch_first_kv, chunks.len())
                .into_iter()
                .map(|m| (m, c.progress(stage, m)))
                .collect()
        });
        let mut extra_sim = 0u64;
        let stage_replays = victims.len() as u64;
        for &(victim, progress) in &victims {
            let wasted =
                (self.machine_time_ns(&outcome.per_machine[victim]) as f64 * progress) as u64;
            let (replayed, stats) = executor::run_one_machine(
                victim,
                read,
                write,
                &chunks[victim],
                spec,
                scratch.machine(victim),
                &body,
            );
            // Splice the replayed outputs over the victim's originals,
            // located by the per-machine lengths the round recorded.
            // Replay is deterministic, so the splice preserves length
            // and the offsets stay valid across victims.
            let start: usize = outcome.output_lens[..victim].iter().sum();
            let len = outcome.output_lens[victim];
            debug_assert_eq!(replayed.len(), len, "replay changed the output count");
            outcome.outputs.splice(start..start + len, replayed);
            extra_sim += wasted + self.machine_time_ns(&stats);
            self.report.replays += 1;
        }
        self.scratch = scratch;

        let comm = CommStats::merged(outcome.per_machine.iter().map(|m| &m.comm));
        let ops: u64 = outcome.per_machine.iter().map(|m| m.ops).sum();
        let bottleneck = outcome
            .per_machine
            .iter()
            .map(|m| self.machine_time_ns(m))
            .max()
            .unwrap_or(0);
        self.report.push(StageReport {
            name: name.to_string(),
            kind: StageKind::KvRound,
            comm,
            shuffle_bytes: 0,
            shuffle_bytes_max_machine: 0,
            // Cached at seal time, so recording it per round is O(1).
            gen_bytes: read.size_bytes() as u64,
            ops,
            sim_ns: self.cfg.cost.stage_overhead_ns + bottleneck + extra_sim,
            wall_ns: wall.elapsed().as_nanos() as u64,
            replays: stage_replays,
        });
        outcome.outputs
    }

    /// Runs a parallel map stage that touches no DHT (the "no shuffle"
    /// steps of the MPC baselines, e.g. local-minima detection): items
    /// are chunked over machines and only compute is charged.
    pub fn map_round<T, R, F>(&mut self, name: &str, items: Vec<T>, body: F) -> Vec<R>
    where
        T: Sync + Send,
        R: Send,
        F: Fn(&mut MachineCtx<'_, u32>, &[T]) -> Vec<R> + Sync,
    {
        let empty: Generation<u32> = Generation::empty();
        self.kv_round(name, &empty, None, items, body)
    }

    /// A machine's simulated time this round: compute plus KV traffic,
    /// with lookup latency charged per *round trip*
    /// ([`CommStats::round_trips`]: one per batch, one per single-key
    /// op) and bandwidth per byte — so a chain of dependent batches
    /// costs its depth, not its key volume.
    fn machine_time_ns(&self, m: &MachineRoundStats) -> u64 {
        self.cfg.cost.compute_time_ns(m.ops)
            + self
                .cfg
                .cost
                .kv_time_ns(m.comm.round_trips(), m.comm.kv_bytes())
            + self
                .cfg
                .cost
                .retry_time_ns(m.comm.retries, m.comm.backoff_units)
    }

    /// Runs a single-machine in-memory step, charging `ops` local
    /// operations (the "switch to in-memory algorithm" step used by both
    /// the AMPC and MPC implementations once the problem is small).
    pub fn local<R>(&mut self, name: &str, ops: u64, f: impl FnOnce() -> R) -> R {
        self.local_counted(name, || (f(), ops))
    }

    /// [`Job::local`] for a step that learns its cost as it runs: `f`
    /// returns its output and the `ops` to charge.
    pub fn local_counted<R>(&mut self, name: &str, f: impl FnOnce() -> (R, u64)) -> R {
        let _ = self.next_stage_index();
        let wall = stage_clock();
        let (out, ops) = f();
        self.report.push(StageReport {
            name: name.to_string(),
            kind: StageKind::Local,
            comm: CommStats::default(),
            shuffle_bytes: 0,
            shuffle_bytes_max_machine: 0,
            gen_bytes: 0,
            ops,
            sim_ns: self.cfg.cost.stage_overhead_ns + self.cfg.cost.compute_time_ns(ops),
            wall_ns: wall.elapsed().as_nanos() as u64,
            replays: 0,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_job() -> Job {
        Job::new(AmpcConfig::for_tests())
    }

    #[test]
    fn shuffle_stage_recorded() {
        let mut job = test_job();
        job.shuffle_balanced("build", 1_000_000);
        let r = job.into_report();
        assert_eq!(r.num_shuffles(), 1);
        assert_eq!(r.shuffle_bytes(), 1_000_000);
        assert!(r.sim_ns() >= r.stages[0].sim_ns);
    }

    #[test]
    fn shuffle_by_key_meters_skew() {
        let mut job = test_job();
        // All records share one key: one machine takes everything.
        let items: Vec<(u64, u64)> = (0..100).map(|_| (7u64, 0u64)).collect();
        let buckets = job.shuffle_by_key("skewed", items, |t| t.0);
        let r = job.report();
        assert_eq!(
            r.stages[0].shuffle_bytes_max_machine,
            r.stages[0].shuffle_bytes
        );
        assert_eq!(buckets.iter().filter(|b| !b.is_empty()).count(), 1);
    }

    #[test]
    fn real_shuffle_reports_wall_time_metered_shuffle_does_not() {
        let mut job = test_job();
        let items: Vec<(u64, u64)> = (0..100_000).map(|i| (i, i)).collect();
        job.shuffle_by_key("partitioned", items, |t| t.0);
        job.shuffle_balanced("metered", 1_000_000);
        let r = job.report();
        assert!(
            r.stages[0].wall_ns > 0,
            "partitioning 100k records took time"
        );
        assert_eq!(r.stages[1].wall_ns, 0, "no host work to time");
    }

    /// Metering without moving reports what the real shuffle reports, at
    /// any stage index (the placement salt depends on it).
    #[test]
    fn metered_keyed_shuffle_matches_the_real_one() {
        // Skewed keys, uneven record sizes.
        let records: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i * i % 997, 8 + i % 40)).collect();
        for stages_before in [0, 1, 7] {
            let (mut real, mut metered) = (test_job(), test_job());
            for job in [&mut real, &mut metered] {
                for _ in 0..stages_before {
                    job.shuffle_balanced("earlier", 64);
                }
            }
            real.shuffle_by_key_measured("s", records.clone(), |r| r.0, |r| r.1);
            let p = metered.config().num_machines;
            metered.shuffle_by_key_metered("s", |machine_of| {
                let mut loads = vec![0; p];
                for &(key, bytes) in &records {
                    loads[machine_of(key)] += bytes;
                }
                loads
            });
            let loads = |job: &Job| {
                let s = job.report().stages.last().expect("a stage").clone();
                (
                    s.name,
                    s.shuffle_bytes,
                    s.shuffle_bytes_max_machine,
                    s.sim_ns,
                )
            };
            assert_eq!(
                loads(&real),
                loads(&metered),
                "after {stages_before} stages"
            );
            assert!(
                loads(&real).2 < loads(&real).1,
                "more than one machine loaded"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one load per machine")]
    fn metered_keyed_shuffle_wants_every_machines_load() {
        test_job().shuffle_by_key_metered("s", |_| vec![8]);
    }

    #[test]
    fn kv_round_merges_stats() {
        let mut job = test_job();
        let read: Generation<u64> = Generation::from_iter((0..16u64).map(|k| (k, k)));
        let out: Vec<u64> =
            job.kv_round("read", &read, None, (0..16u64).collect(), |ctx, items| {
                items.iter().map(|&k| *ctx.handle.get(k).unwrap()).collect()
            });
        assert_eq!(out.len(), 16);
        let r = job.report();
        assert_eq!(r.stages[0].comm.queries, 16);
        assert_eq!(r.num_kv_rounds(), 1);
    }

    #[test]
    fn local_stage_charges_compute() {
        let mut job = test_job();
        let v = job.local("kruskal", 1_000_000, || 42);
        assert_eq!(v, 42);
        let r = job.report();
        assert_eq!(r.stages[0].kind, StageKind::Local);
        assert!(r.stages[0].sim_ns >= 1_000_000 * job.config().cost.compute_ns_per_op);
    }

    #[test]
    fn fault_replay_produces_same_outputs() {
        let read: Generation<u64> = Generation::from_iter((0..64u64).map(|k| (k, k * 7)));
        let run = |kill: Option<ChaosSpec>| -> (Vec<u64>, u64) {
            let mut job = Job::new(AmpcConfig::for_tests());
            if let Some(k) = kill {
                job = job.with_chaos(k);
            }
            let out = job.kv_round("r", &read, None, (0..64u64).collect(), |ctx, items| {
                items
                    .iter()
                    .map(|&k| *ctx.handle.get(k).unwrap())
                    .collect::<Vec<_>>()
            });
            let replays = job.report().replays;
            (out, replays)
        };
        let (clean, r0) = run(None);
        let (faulted, r1) = run(Some(ChaosSpec::new(1).with_kill(0, 2)));
        assert_eq!(clean, faulted);
        assert_eq!(r0, 0);
        assert_eq!(r1, 1);
    }

    /// Bodies need not emit one output per input: the splice goes by
    /// the lengths the round recorded, at machine 0 and past it.
    #[test]
    fn replay_splices_variable_arity_outputs() {
        let read: Generation<u64> = Generation::from_iter((0..40u64).map(|k| (k, k * 7)));
        let run = |kill: Option<(u32, u32)>| -> Vec<u64> {
            let mut job = Job::new(AmpcConfig::for_tests());
            if let Some((stage, machine)) = kill {
                job = job.with_chaos(ChaosSpec::new(1).with_kill(stage, machine));
            }
            // Two outputs per multiple of three, none otherwise: the
            // four machines emit 8, 6, 6 and 8 outputs.
            job.kv_round("r", &read, None, (0..40u64).collect(), |ctx, items| {
                let mut out = Vec::new();
                for &k in items.iter().filter(|&&k| k % 3 == 0) {
                    let v = *ctx.handle.get(k).unwrap();
                    out.extend([v, v + 1]);
                }
                out
            })
        };
        let clean = run(None);
        assert_eq!(clean.len(), 28);
        for machine in 0..4 {
            assert_eq!(run(Some((0, machine))), clean, "kill at machine {machine}");
        }
    }

    #[test]
    fn fault_charges_extra_time() {
        let read: Generation<u64> = Generation::from_iter((0..64u64).map(|k| (k, k)));
        let body = |ctx: &mut MachineCtx<'_, u64>, items: &[u64]| {
            items
                .iter()
                .map(|&k| *ctx.handle.get(k).unwrap())
                .collect::<Vec<u64>>()
        };
        let mut clean = Job::new(AmpcConfig::for_tests());
        clean.kv_round("r", &read, None, (0..64u64).collect(), body);
        let mut faulty =
            Job::new(AmpcConfig::for_tests()).with_chaos(ChaosSpec::new(1).with_kill(0, 1));
        faulty.kv_round("r", &read, None, (0..64u64).collect(), body);
        assert!(faulty.report().sim_ns() > clean.report().sim_ns());
    }

    #[test]
    fn budgeted_round_enforces_truncation() {
        let read: Generation<u64> = Generation::from_iter((0..64u64).map(|k| (k, k + 1)));
        let mut job = test_job();
        let out: Vec<u64> =
            job.kv_round_budgeted("truncated", &read, None, vec![0u64; 4], 3, |ctx, items| {
                items
                    .iter()
                    .map(|&start| {
                        let mut cur = start;
                        while let Ok(Some(&next)) = ctx.handle.try_get(cur) {
                            cur = next;
                        }
                        cur
                    })
                    .collect()
            });
        // 4 machines × 1 item each, each cut off after 3 hops.
        assert_eq!(out, vec![3, 3, 3, 3]);
        assert_eq!(job.report().stages[0].comm.queries, 4 * 3);
    }
}
