//! Per-stage and per-job execution reports.
//!
//! Everything the paper's evaluation plots is a function of these
//! records: shuffle counts (Table 3), bytes shuffled and KV-store bytes
//! (Figures 3 & 9), running-time breakdowns by stage (Figures 5–7),
//! and scaling over machines (Figure 8).

use ampc_dht::cost::format_ns;
use ampc_dht::metrics::CommStats;
use serde::{Deserialize, Serialize};

/// The kind of a stage, determining how it is charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageKind {
    /// A dataflow shuffle: data regrouped by key and persisted to
    /// durable storage. The "costly rounds" counted in Table 3.
    Shuffle,
    /// An AMPC round: machines process their partition while querying
    /// the key-value store.
    KvRound,
    /// Local computation that touches neither the DHT nor a shuffle:
    /// a single-machine in-memory step (the "switch to in-memory"
    /// finish used by both model's implementations), or a map over all
    /// machines (`Job::map_round`, the MPC baselines' no-shuffle steps).
    Local,
}

/// Metrics of one executed stage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name (e.g. `"DirectGraph"`, `"IsInMIS"`, `"Contract"`).
    pub name: String,
    /// How the stage was charged.
    pub kind: StageKind,
    /// Merged KV-store communication of all machines.
    pub comm: CommStats,
    /// Total bytes moved by the shuffle (0 for non-shuffle stages).
    pub shuffle_bytes: u64,
    /// Bytes handled by the most loaded machine in the shuffle —
    /// captures the join skew the paper observes on ClueWeb (§5.3).
    pub shuffle_bytes_max_machine: u64,
    /// Serialized size of the sealed generation this stage read (KV
    /// rounds only; 0 elsewhere). Read from the size cached at seal
    /// time, so recording it is O(1) per round.
    pub gen_bytes: u64,
    /// Local computation operations (summed over machines).
    pub ops: u64,
    /// Simulated time of the stage (deterministic; the bottleneck
    /// machine's cost plus fixed overheads).
    pub sim_ns: u64,
    /// Wall-clock time the simulation itself took (informational).
    pub wall_ns: u64,
    /// Machines killed and replayed during this stage by fault
    /// injection (see [`crate::chaos`]). Zero outside fault runs; a
    /// machine killed twice in one stage counts twice.
    #[serde(default)]
    pub replays: u64,
}

/// An epoch boundary: a named position in the stage sequence. The
/// batch-dynamic kernels mark one epoch per update batch (each epoch
/// seals exactly one DHT generation), so reports can attribute rounds
/// and communication to batches.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochMark {
    /// Epoch name (e.g. `"DynEpoch-b3"`).
    pub name: String,
    /// Index (into [`JobReport::stages`]) of the epoch's first stage.
    pub first_stage: usize,
}

/// The full record of a job execution.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct JobReport {
    /// Stages in execution order.
    pub stages: Vec<StageReport>,
    /// Epoch boundaries, in execution order (empty for one-shot jobs).
    pub epochs: Vec<EpochMark>,
    /// Machine count the job ran with.
    pub num_machines: usize,
    /// Times a machine was killed and replayed by fault injection.
    pub replays: u64,
}

impl JobReport {
    /// New empty report for a `p`-machine job.
    pub fn new(p: usize) -> Self {
        JobReport {
            stages: Vec::new(),
            epochs: Vec::new(),
            num_machines: p,
            replays: 0,
        }
    }

    /// Number of epoch boundaries marked (0 for one-shot jobs).
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// The stage range `[first, end)` belonging to epoch `i`.
    pub fn epoch_stage_range(&self, i: usize) -> std::ops::Range<usize> {
        let first = self.epochs[i].first_stage;
        let end = self
            .epochs
            .get(i + 1)
            .map_or(self.stages.len(), |m| m.first_stage);
        first..end
    }

    /// Number of shuffles — the paper's primary round-cost metric
    /// (Table 3: *"A shuffle … is the only way a Flume-C++ worker can
    /// exchange big amounts of data"*).
    pub fn num_shuffles(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.kind == StageKind::Shuffle)
            .count()
    }

    /// Number of KV rounds (AMPC rounds that touch the hash table).
    pub fn num_kv_rounds(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.kind == StageKind::KvRound)
            .count()
    }

    /// Total simulated running time.
    pub fn sim_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.sim_ns).sum()
    }

    /// Total wall-clock time of the simulation.
    pub fn wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }

    /// Total bytes moved by shuffles (Figure 3's `*-Shuffle` bars).
    pub fn shuffle_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.shuffle_bytes).sum()
    }

    /// Merged KV communication (Figure 3's `AMPC-KV-Communication` bar,
    /// Figure 9's y-axis).
    pub fn kv_comm(&self) -> CommStats {
        CommStats::merged(self.stages.iter().map(|s| &s.comm))
    }

    /// Size of the largest sealed generation any KV round read — the
    /// job's peak DHT storage footprint (pinned by `crates/bench/tests/records.rs`).
    /// O(stages): each stage's figure was cached at seal time.
    pub fn peak_generation_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.gen_bytes).max().unwrap_or(0)
    }

    /// Charged KV round trips across all stages, one per accounted
    /// batch (§5.3). This is what lookup latency is billed on.
    pub fn kv_round_trips(&self) -> u64 {
        self.kv_comm().round_trips()
    }

    /// Simulated time attributed to each stage, as `(name, sim_ns)` in
    /// execution order — the running-time breakdowns of Figures 5–7.
    pub fn breakdown(&self) -> Vec<(String, u64)> {
        self.stages
            .iter()
            .map(|s| (s.name.clone(), s.sim_ns))
            .collect()
    }

    /// Appends a stage.
    pub fn push(&mut self, stage: StageReport) {
        self.stages.push(stage);
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "job on {} machines: {} stages ({} shuffles), sim time {}",
            self.num_machines,
            self.stages.len(),
            self.num_shuffles(),
            format_ns(self.sim_ns()),
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  [{:?}] {:<16} sim {:>9}  kv q={:<9} rt={:<7} kvB={:<11} shufB={:<11}",
                s.kind,
                s.name,
                format_ns(s.sim_ns),
                s.comm.queries,
                s.comm.round_trips(),
                s.comm.kv_bytes(),
                s.shuffle_bytes,
            );
        }
        let kv = self.kv_comm();
        let _ = writeln!(
            out,
            "  totals: kv bytes {} (hit rate {:.0}%), round trips {} of {} ops, \
             shuffle bytes {}, replays {}",
            kv.kv_bytes(),
            kv.cache_hit_rate() * 100.0,
            kv.round_trips(),
            kv.network_ops(),
            self.shuffle_bytes(),
            self.replays,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, kind: StageKind, sim: u64) -> StageReport {
        StageReport {
            name: name.into(),
            kind,
            comm: CommStats::default(),
            shuffle_bytes: if kind == StageKind::Shuffle { 100 } else { 0 },
            shuffle_bytes_max_machine: 0,
            gen_bytes: if kind == StageKind::KvRound { 40 } else { 0 },
            ops: 0,
            sim_ns: sim,
            wall_ns: 1,
            replays: 0,
        }
    }

    #[test]
    fn counts_and_totals() {
        let mut r = JobReport::new(4);
        r.push(stage("a", StageKind::Shuffle, 10));
        r.push(stage("b", StageKind::KvRound, 20));
        r.push(stage("c", StageKind::Shuffle, 30));
        assert_eq!(r.num_shuffles(), 2);
        assert_eq!(r.num_kv_rounds(), 1);
        assert_eq!(r.sim_ns(), 60);
        assert_eq!(r.shuffle_bytes(), 200);
        assert_eq!(r.breakdown()[1], ("b".into(), 20));
        assert_eq!(r.peak_generation_bytes(), 40);
    }

    #[test]
    fn summary_mentions_stage_names() {
        let mut r = JobReport::new(2);
        r.push(stage("IsInMIS", StageKind::KvRound, 5));
        assert!(r.summary().contains("IsInMIS"));
    }
}
