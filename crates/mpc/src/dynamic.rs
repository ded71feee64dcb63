//! Recompute-from-scratch baseline for batch-dynamic connectivity.
//!
//! The honest MPC answer to an update batch is to rebuild the graph and
//! rerun static connectivity — there is no adaptive store to maintain
//! state in between. This module does exactly that: after every batch
//! it materializes the current edge set and runs
//! [`crate::mpc_connected_components`] (CC-LocalContraction) on it,
//! paying the full O(n + m) shuffle pipeline per batch. Both the static
//! baseline and the maintained AMPC kernel emit canonical min-vertex-id
//! labels, so the per-epoch labellings are **byte-identical** by
//! construction — which is what the cross-model equivalence tests and
//! `records::dyn_cc_mpc_recompute_matches_the_maintained_digest`
//! pin, and what makes the wall-clock gap between the two a pure measure
//! of maintenance vs recomputation.

use ampc_graph::dynamic::{EdgeSet, UpdateBatch};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::{AmpcConfig, Job, JobReport};

/// Result of a recompute-from-scratch dynamic connectivity run.
#[derive(Clone, Debug)]
pub struct RecomputeCcOutcome {
    /// `labels[0]` labels the initial graph; `labels[i + 1]` labels the
    /// graph after batch `i` (canonical min-id labels throughout).
    pub labels: Vec<Vec<NodeId>>,
    /// Execution record (one epoch per entry of `labels`).
    pub report: JobReport,
}

/// Runs the baseline standalone (see [`mpc_recompute_cc_in_job`]).
pub fn mpc_recompute_cc(
    g: &CsrGraph,
    batches: &[UpdateBatch],
    cfg: &AmpcConfig,
) -> RecomputeCcOutcome {
    let mut job = Job::new(*cfg);
    let labels = mpc_recompute_cc_in_job(&mut job, g, batches);
    RecomputeCcOutcome {
        labels,
        report: job.into_report(),
    }
}

/// The in-job baseline body: applies each batch to the reference
/// [`EdgeSet`] state machine, rebuilds the graph, and reruns the static
/// MPC connectivity pipeline from scratch — one epoch per batch.
// ampc-lint: budget(batched-requests = 0)
pub fn mpc_recompute_cc_in_job(
    job: &mut Job,
    g: &CsrGraph,
    batches: &[UpdateBatch],
) -> Vec<Vec<NodeId>> {
    let cfg = *job.config();
    let mut out = Vec::with_capacity(batches.len() + 1);
    let mut state = EdgeSet::from_graph(g);

    job.epoch("RecomputeInit");
    let first = crate::mpc_connected_components(g, &cfg);
    job.absorb(first.report);
    out.push(first.label);

    for (bi, batch) in batches.iter().enumerate() {
        let b = bi + 1;
        job.epoch(&format!("RecomputeEpoch-b{b}"));
        let snapshot = job.local(
            &format!("RebuildGraph-b{b}"),
            ((batch.len() + state.len() + state.num_nodes()) as u64 + 1) * 8,
            || {
                state.apply(batch);
                state.snapshot()
            },
        );
        let run = crate::mpc_connected_components(&snapshot, &cfg);
        job.absorb(run.report);
        out.push(run.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::dynamic::validate_dynamic_labels;
    use ampc_graph::dynamic::{generate_batches, BatchMix};
    use ampc_graph::gen;

    fn cfg() -> AmpcConfig {
        let mut c = AmpcConfig::for_tests();
        c.in_memory_threshold = 100; // keep the baseline distributed
        c
    }

    #[test]
    fn recompute_labels_match_oracle_every_batch() {
        let g = gen::erdos_renyi(100, 140, 6);
        let batches = generate_batches(&g, 4, 25, BatchMix::Churn, 6);
        let out = mpc_recompute_cc(&g, &batches, &cfg());
        validate_dynamic_labels(&g, &batches, &out.labels).unwrap();
        assert_eq!(out.report.num_epochs(), 5);
    }

    #[test]
    fn recompute_matches_maintained_byte_for_byte() {
        for seed in [1u64, 13] {
            let g = gen::erdos_renyi(90, 130, seed);
            let batches = generate_batches(&g, 5, 30, BatchMix::Churn, seed);
            let base = mpc_recompute_cc(&g, &batches, &cfg());
            let maintained = ampc_core::dynamic::ampc_dynamic_cc(&g, &batches, &cfg());
            assert_eq!(base.labels, maintained.labels, "seed {seed}");
        }
    }

    #[test]
    fn recompute_pays_shuffles_every_batch() {
        let g = gen::erdos_renyi(120, 200, 2);
        let batches = generate_batches(&g, 3, 10, BatchMix::Churn, 2);
        let out = mpc_recompute_cc(&g, &batches, &cfg());
        let maintained = ampc_core::dynamic::ampc_dynamic_cc(&g, &batches, &cfg());
        // The separation the subsystem exists to show: recomputation
        // shuffles per batch; maintenance shuffles only at setup.
        assert!(out.report.num_shuffles() >= 4 * maintained.report.num_shuffles());
    }
}
