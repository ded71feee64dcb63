//! Recompute-from-scratch baseline for batch-dynamic connectivity.
//!
//! The honest MPC answer to an update batch is to rebuild the graph and
//! rerun static connectivity — there is no adaptive store to maintain
//! state in between. This module does exactly that: after every batch
//! it materializes the current edge set and runs
//! [`crate::mpc_connected_components_in_job`] (CC-LocalContraction) on it,
//! paying the full O(n + m) shuffle pipeline per batch. Both the static
//! baseline and the maintained AMPC kernel emit canonical min-vertex-id
//! labels, so the per-epoch labellings are **byte-identical** by
//! construction — which is what `tests/dynamic.rs` and the `mpc` mode
//! of the `records` row `dyn-cc/ok-mid` pin, and what makes the
//! wall-clock gap between the two a pure measure of maintenance vs
//! recomputation.

use ampc_graph::dynamic::{EdgeSet, UpdateBatch};
use ampc_graph::{CsrGraph, NodeId};
use ampc_runtime::Job;

/// The recompute baseline body (registry row `dyn-cc`, model `mpc`):
/// applies each batch to the reference [`EdgeSet`] state machine,
/// rebuilds the graph, and reruns the static MPC connectivity body from
/// scratch in the same job — one epoch per batch.
// ampc-lint: budget(batched-requests = 0)
pub fn mpc_recompute_cc_in_job(
    job: &mut Job,
    g: &CsrGraph,
    batches: &[UpdateBatch],
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::with_capacity(batches.len() + 1);
    let mut state = EdgeSet::from_graph(g);

    job.epoch("RecomputeInit");
    out.push(crate::mpc_connected_components_in_job(job, g));

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
        out.push(crate::mpc_connected_components_in_job(job, &snapshot));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_core::dynamic::{ampc_dynamic_cc_in_job, validate_dynamic_labels};
    use ampc_graph::dynamic::{generate_batches, BatchMix};
    use ampc_graph::gen;
    use ampc_runtime::driver::{drive, Driven};
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        let mut c = AmpcConfig::for_tests();
        c.in_memory_threshold = 100; // keep the baseline distributed
        c
    }

    fn recompute(g: &CsrGraph, batches: &[UpdateBatch]) -> Driven<Vec<Vec<NodeId>>> {
        drive(&cfg(), |job| mpc_recompute_cc_in_job(job, g, batches))
    }

    fn maintained(g: &CsrGraph, batches: &[UpdateBatch]) -> Driven<Vec<Vec<NodeId>>> {
        drive(&cfg(), |job| ampc_dynamic_cc_in_job(job, g, batches))
    }

    #[test]
    fn recompute_labels_match_oracle_every_batch() {
        let g = gen::erdos_renyi(100, 140, 6);
        let batches = generate_batches(&g, 4, 25, BatchMix::Churn, 6);
        let out = recompute(&g, &batches);
        validate_dynamic_labels(&g, &batches, &out.output).unwrap();
        assert_eq!(out.report.num_epochs(), 5);
    }

    #[test]
    fn recompute_matches_maintained_byte_for_byte() {
        for seed in [1u64, 13] {
            let g = gen::erdos_renyi(90, 130, seed);
            let batches = generate_batches(&g, 5, 30, BatchMix::Churn, seed);
            let (base, kept) = (recompute(&g, &batches), maintained(&g, &batches));
            assert_eq!(base.output, kept.output, "seed {seed}");
        }
    }

    #[test]
    fn recompute_pays_shuffles_every_batch() {
        let g = gen::erdos_renyi(120, 200, 2);
        let batches = generate_batches(&g, 3, 10, BatchMix::Churn, 2);
        let out = recompute(&g, &batches);
        let maintained = maintained(&g, &batches);
        // The separation the subsystem exists to show: recomputation
        // shuffles per batch; maintenance shuffles only at setup.
        assert!(out.report.num_shuffles() >= 4 * maintained.report.num_shuffles());
    }
}
