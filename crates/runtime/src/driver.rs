//! The workload driver: the orchestration every kernel used to
//! hand-roll.
//!
//! Before this module existed, all six kernel families (and every MPC
//! baseline) duplicated the same scaffolding: build a [`Job`] from an
//! [`AmpcConfig`] (which arms the chaos schedule), run the algorithm body,
//! call [`Job::into_report`], and — for the truncated query processes —
//! maintain a round counter, a per-search budget with its `n^ε`
//! escalation rule, the `O(S)` handle budget derived from it, and the
//! `"IsInX-r{round}"` stage-naming convention. The driver owns those
//! concerns now:
//!
//! * [`drive`] — run a job body under a configuration and finalize it
//!   into a [`Driven`] record (output + report + wall-clock).
//! * [`AdaptiveRounds`] — the round/budget bookkeeping of the truncated
//!   multi-round query processes (§4.2 / \[19\]): round cap, budget
//!   escalation, stage tags, handle budgets.
//! * [`RunSummary`] — report finalization into the flat,
//!   machine-readable record the `ampc` workload CLI and the harness
//!   emit as JSON (hand-rolled writer: the workspace vendors no JSON
//!   serializer).

use crate::config::AmpcConfig;
use crate::job::Job;
use crate::report::{JobReport, StageKind};
use std::time::Instant;

/// The finalized record of one driven run.
#[derive(Clone, Debug)]
pub struct Driven<R> {
    /// Whatever the job body produced.
    pub output: R,
    /// The job's execution report.
    pub report: JobReport,
    /// Wall-clock time of the whole body, in nanoseconds.
    pub wall_ns: u64,
}

/// Runs `body` inside a fresh [`Job`] under `cfg` (chaos schedule and all)
/// and finalizes the report — the entry point the registry and the
/// `ampc` CLI use so that every algorithm shares one code path from
/// configuration to report.
pub fn drive<R>(cfg: &AmpcConfig, body: impl FnOnce(&mut Job) -> R) -> Driven<R> {
    // Shard-process lifecycle, job-start edge: on the socket store,
    // every shard server must be alive before the first seal
    // (DESIGN.md §12).
    crate::job::ping_fleet(cfg);
    #[expect(
        clippy::disallowed_methods,
        reason = "wall_ns is a reported measurement only: it never feeds algorithm \
                  state, and no pin compares a wall-clock field"
    )]
    let start = Instant::now();
    let mut job = Job::new(*cfg);
    let output = body(&mut job);
    Driven {
        output,
        report: job.into_report(),
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// The enforced per-machine handle budget backing a round of truncated
/// searches: room for every per-search budget over the whole pending
/// set, so legitimate runs never trip the handle while it still
/// backstops the `O(S)` contract (saturating at `u64::MAX` for the
/// untruncated configuration).
pub fn round_handle_budget(per_search_budget: u64, pending: usize) -> u64 {
    per_search_budget
        .saturating_mul(pending.max(1) as u64)
        .max(per_search_budget)
}

/// Round/budget bookkeeping for the truncated multi-round query
/// processes (MIS Figure 1 / the §4.2 vertex process): each round runs
/// the pending searches under a per-search budget; unresolved searches
/// go to the next round with the budget multiplied by `n^ε` (\[19\]),
/// and a round cap turns non-convergence into a loud failure instead of
/// a hang.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveRounds {
    round: usize,
    budget: u64,
    cap: usize,
}

impl AdaptiveRounds {
    /// Rounds after which [`Self::begin`] panics — no workspace kernel
    /// legitimately needs more (the practical configuration resolves in
    /// one).
    pub const DEFAULT_CAP: usize = 64;

    /// Starts the loop with the given per-search budget (`u64::MAX`
    /// for the untruncated single-round configuration).
    pub fn new(initial_budget: u64) -> Self {
        AdaptiveRounds {
            round: 0,
            budget: initial_budget,
            cap: Self::DEFAULT_CAP,
        }
    }

    /// Begins the next round, returning its per-search budget.
    ///
    /// # Panics
    /// Panics (with `what` in the message) once the round cap is
    /// exceeded — the query process failed to converge.
    pub fn begin(&mut self, what: &str) -> u64 {
        self.round += 1;
        assert!(self.round <= self.cap, "{what} failed to converge");
        self.budget
    }

    /// 1-based index of the round begun most recently.
    pub fn round(&self) -> usize {
        self.round
    }

    /// The current per-search budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The stage name for the current round: `base` for round 1,
    /// `"{base}-r{round}"` afterwards (the convention the figure
    /// harnesses match stage names against).
    pub fn stage_name(&self, base: &str) -> String {
        if self.round <= 1 {
            base.to_string()
        } else {
            format!("{base}-r{}", self.round)
        }
    }

    /// The enforced per-machine handle budget for this round given the
    /// pending search count (see [`round_handle_budget`]).
    pub fn handle_budget(&self, pending: usize) -> u64 {
        round_handle_budget(self.budget, pending)
    }

    /// Escalates the per-search budget for the next round by `factor`
    /// (the `n^ε` rule; factors below 2 are clamped so the loop always
    /// makes progress).
    pub fn escalate(&mut self, factor: u64) {
        self.budget = self.budget.saturating_mul(factor.max(2));
    }
}

/// Flat, machine-readable summary of one run — what the `ampc` CLI
/// emits per run and what the registry equivalence suite diffs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Machine count the job ran with.
    pub num_machines: usize,
    /// Epoch boundaries marked by the job (batch-dynamic kernels mark
    /// one per update batch; 0 for one-shot kernels).
    pub epochs: usize,
    /// Shuffle stages (the paper's costly rounds, Table 3).
    pub shuffles: usize,
    /// KV rounds.
    pub kv_rounds: usize,
    /// Single-machine in-memory stages.
    pub local_stages: usize,
    /// Total KV queries.
    pub queries: u64,
    /// Charged KV round trips (one per accounted batch, §5.3).
    pub round_trips: u64,
    /// KV bytes moved (read + written).
    pub kv_bytes: u64,
    /// Lookups answered locally by per-machine caches.
    pub cache_hits: u64,
    /// Bytes moved by shuffles.
    pub shuffle_bytes: u64,
    /// Largest sealed generation any KV round read.
    pub peak_generation_bytes: u64,
    /// Total simulated time, ns.
    pub sim_ns: u64,
    /// Wall-clock of the simulation, ns.
    pub wall_ns: u64,
    /// Machines killed and replayed by fault injection.
    pub replays: u64,
    /// DHT batch attempts dropped and re-sent by chaos injection
    /// (summed over stages; zero outside chaos runs).
    pub retries: u64,
    /// Accounted batches that suffered at least one chaos drop.
    pub wasted_batches: u64,
    /// Per-stage `(name, kind, sim_ns, replays)` in execution order.
    pub stages: Vec<(String, &'static str, u64, u64)>,
}

/// Stage kind as the lowercase token the JSON schema uses.
fn kind_token(kind: StageKind) -> &'static str {
    match kind {
        StageKind::Shuffle => "shuffle",
        StageKind::KvRound => "kv",
        StageKind::Local => "local",
    }
}

impl RunSummary {
    /// Builds the summary from a finished report plus the measured
    /// wall-clock.
    pub fn from_report(report: &JobReport, wall_ns: u64) -> Self {
        let kv = report.kv_comm();
        RunSummary {
            num_machines: report.num_machines,
            epochs: report.num_epochs(),
            shuffles: report.num_shuffles(),
            kv_rounds: report.num_kv_rounds(),
            local_stages: report
                .stages
                .iter()
                .filter(|s| s.kind == StageKind::Local)
                .count(),
            queries: kv.queries,
            round_trips: kv.round_trips(),
            kv_bytes: kv.kv_bytes(),
            cache_hits: kv.cache_hits,
            shuffle_bytes: report.shuffle_bytes(),
            peak_generation_bytes: report.peak_generation_bytes(),
            sim_ns: report.sim_ns(),
            wall_ns,
            replays: report.replays,
            retries: kv.retries,
            wasted_batches: kv.wasted_batches,
            stages: report
                .stages
                .iter()
                .map(|s| (s.name.clone(), kind_token(s.kind), s.sim_ns, s.replays))
                .collect(),
        }
    }

    /// Renders the summary as a JSON object, each line prefixed by
    /// `indent` spaces (the `"report"` value of the CLI's run record).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(name, kind, sim, replays)| {
                format!(
                    "{pad}    {{\"name\": {}, \"kind\": \"{kind}\", \"sim_ns\": {sim}, \
                     \"replays\": {replays}}}",
                    json_string(name)
                )
            })
            .collect();
        format!(
            "{pad}{{\n\
             {pad}  \"num_machines\": {},\n\
             {pad}  \"epochs\": {},\n\
             {pad}  \"shuffles\": {},\n\
             {pad}  \"kv_rounds\": {},\n\
             {pad}  \"local_stages\": {},\n\
             {pad}  \"queries\": {},\n\
             {pad}  \"round_trips\": {},\n\
             {pad}  \"kv_bytes\": {},\n\
             {pad}  \"cache_hits\": {},\n\
             {pad}  \"shuffle_bytes\": {},\n\
             {pad}  \"peak_generation_bytes\": {},\n\
             {pad}  \"sim_ns\": {},\n\
             {pad}  \"wall_ns\": {},\n\
             {pad}  \"replays\": {},\n\
             {pad}  \"retries\": {},\n\
             {pad}  \"wasted_batches\": {},\n\
             {pad}  \"stages\": [\n{}\n{pad}  ]\n\
             {pad}}}",
            self.num_machines,
            self.epochs,
            self.shuffles,
            self.kv_rounds,
            self.local_stages,
            self.queries,
            self.round_trips,
            self.kv_bytes,
            self.cache_hits,
            self.shuffle_bytes,
            self.peak_generation_bytes,
            self.sim_ns,
            self.wall_ns,
            self.replays,
            self.retries,
            self.wasted_batches,
            stages.join(",\n"),
        )
    }
}

/// Renders `s` as a JSON string literal (quotes included), escaping
/// the characters RFC 8259 requires.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_dht::store::Generation;

    #[test]
    fn drive_finalizes_report() {
        let cfg = AmpcConfig::for_tests();
        let read: Generation<u64> = Generation::from_iter((0..8u64).map(|k| (k, k)));
        let driven = drive(&cfg, |job| {
            job.shuffle_balanced("S", 100);
            job.kv_round("R", &read, None, (0..8u64).collect(), |ctx, items| {
                items
                    .iter()
                    .map(|&k| *ctx.handle.get(k).unwrap())
                    .collect::<Vec<u64>>()
            })
        });
        assert_eq!(driven.output, (0..8).collect::<Vec<u64>>());
        assert_eq!(driven.report.num_shuffles(), 1);
        assert_eq!(driven.report.num_kv_rounds(), 1);
    }

    #[test]
    fn drive_matches_handrolled_job() {
        let cfg = AmpcConfig::for_tests();
        let direct = {
            let mut job = Job::new(cfg);
            job.shuffle_balanced("S", 4_096);
            job.into_report()
        };
        let driven = drive(&cfg, |job| job.shuffle_balanced("S", 4_096));
        assert_eq!(direct.stages.len(), driven.report.stages.len());
        assert_eq!(direct.sim_ns(), driven.report.sim_ns());
    }

    #[test]
    fn adaptive_rounds_bookkeeping() {
        let mut r = AdaptiveRounds::new(10);
        assert_eq!(r.begin("X"), 10);
        assert_eq!(r.stage_name("IsInX"), "IsInX");
        r.escalate(4);
        assert_eq!(r.begin("X"), 40);
        assert_eq!(r.stage_name("IsInX"), "IsInX-r2");
        assert_eq!(r.handle_budget(3), 120);
        // Escalation factors below 2 are clamped.
        r.escalate(1);
        assert_eq!(r.budget(), 80);
    }

    #[test]
    #[should_panic(expected = "Proc failed to converge")]
    fn adaptive_rounds_cap_trips() {
        let mut r = AdaptiveRounds::new(1);
        for _ in 0..=AdaptiveRounds::DEFAULT_CAP {
            r.begin("Proc");
        }
    }

    #[test]
    fn round_handle_budget_saturates() {
        assert_eq!(round_handle_budget(u64::MAX, 100), u64::MAX);
        assert_eq!(round_handle_budget(5, 0), 5);
        assert_eq!(round_handle_budget(5, 7), 35);
    }

    #[test]
    fn summary_counts_and_json_shape() {
        let cfg = AmpcConfig::for_tests();
        let driven = drive(&cfg, |job| {
            job.shuffle_balanced("Build", 1_000);
            job.local("Finish", 10, || ());
        });
        let s = RunSummary::from_report(&driven.report, driven.wall_ns);
        assert_eq!(s.shuffles, 1);
        assert_eq!(s.local_stages, 1);
        assert_eq!(s.stages.len(), 2);
        let json = s.to_json(2);
        assert!(json.contains("\"shuffles\": 1"));
        assert!(json.contains("\"kind\": \"local\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
