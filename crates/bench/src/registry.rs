//! The algorithm registry: every kernel the workspace runs, one row per
//! `family[/variant]` × model, addressable by name.
//!
//! A row is plain data — family, model, the input it takes, a one-line
//! summary and a `fn` that calls the kernel's one `*_in_job` body — and
//! [`RegistryEntry::run`] drives it with `ampc_runtime::driver::drive`.
//! That is the only way to run a kernel: the `ampc` CLI, the
//! experiments, the examples, the integration tests and the repo
//! benchmark all resolve rows here, so every run yields the same
//! [`Driven`] record (DESIGN.md §7). Besides the seven families under
//! both models, the theory variants the paper's Table 1 lists next to
//! the production kernels are rows too, AMPC only.

use ampc_core::algorithm::{
    validate_family, validate_walks_shape, AlgoInput, AlgoOutput, InputKind, Model,
};
use ampc_core::connectivity::{self, forest_cc::forest_cc_in_job};
use ampc_core::dynamic::{ampc_dynamic_cc_in_job, validate_dynamic_labels};
use ampc_core::msf::in_memory::kruskal;
use ampc_core::one_vs_two::{ampc_one_vs_two_in_job, CycleAnswer};
use ampc_core::{matching, mis, msf, walks};
use ampc_graph::dynamic::{generate_batches, BatchMix, UpdateBatch, DEFAULT_SCHEDULE_SEED};
use ampc_graph::{CsrGraph, WeightedCsrGraph};
use ampc_runtime::driver::{drive, Driven};
use ampc_runtime::{AmpcConfig, Job};

/// Tunables for the parameterized families (walks, 1-vs-2-cycle,
/// batch-dynamic connectivity); ignored by the others.
#[derive(Clone, Copy, Debug)]
pub struct AlgoParams {
    /// Walkers started per vertex (walks).
    pub walkers_per_node: usize,
    /// Hops per walk (walks).
    pub steps: usize,
    /// Inverse sampling rate (1-vs-2-cycle; paper: 1024).
    pub sample_inv: u64,
    /// Update batches in the dynamic schedule (dyn-cc).
    pub dyn_batches: usize,
    /// Updates per batch (dyn-cc).
    pub dyn_ops: usize,
    /// Insert/delete composition of the schedule (dyn-cc).
    pub dyn_mix: BatchMix,
    /// Schedule seed (dyn-cc; decoupled from the algorithm seed).
    pub dyn_seed: u64,
}

impl Default for AlgoParams {
    fn default() -> Self {
        AlgoParams {
            walkers_per_node: 1,
            steps: 8,
            sample_inv: 1024,
            dyn_batches: 4,
            dyn_ops: 64,
            dyn_mix: BatchMix::Churn,
            dyn_seed: DEFAULT_SCHEDULE_SEED,
        }
    }
}

impl AlgoParams {
    /// The dyn-cc update schedule these parameters describe over `g`:
    /// both dyn-cc rows and their validation regenerate the same batches.
    fn schedule(&self, g: &CsrGraph) -> Vec<UpdateBatch> {
        generate_batches(
            g,
            self.dyn_batches,
            self.dyn_ops,
            self.dyn_mix,
            self.dyn_seed,
        )
    }
}

/// One registry row.
pub struct RegistryEntry {
    /// The row's name: a canonical family (`"mis"`, `"mm"`, `"msf"`,
    /// `"cc"`, `"one-vs-two"`, `"walks"`, `"dyn-cc"`), or
    /// `family/variant` for a theory variant (`"mm/loglog"`).
    pub family: &'static str,
    /// Which model backend the row runs.
    pub model: Model,
    /// The input the row takes.
    pub input: InputKind,
    /// One-line description for `ampc list`.
    pub summary: &'static str,
    /// Calls the kernel's body; [`RegistryEntry::run`] checks the input
    /// first.
    pub run: fn(&mut Job, &AlgoInput<'_>, &AlgoParams) -> AlgoOutput,
}

impl RegistryEntry {
    /// Checks the input, then drives the row: the one way to run a
    /// kernel.
    pub fn run(
        &self,
        input: &AlgoInput<'_>,
        cfg: &AmpcConfig,
        params: &AlgoParams,
    ) -> Result<Driven<AlgoOutput>, String> {
        input.satisfies(self.input)?;
        Ok(drive(cfg, |job| (self.run)(job, input, params)))
    }

    /// Validates an output of [`Self::run`]: the shared family validator,
    /// plus the walk shape and the dyn-cc epoch replay that `params` fix.
    pub fn validate(
        &self,
        input: &AlgoInput<'_>,
        output: &AlgoOutput,
        params: &AlgoParams,
    ) -> Result<(), String> {
        match output {
            AlgoOutput::Walks(_) => {
                validate_walks_shape(input, output, params.walkers_per_node, params.steps)?
            }
            // Replaying every epoch subsumes the family check of epoch 0.
            AlgoOutput::DynamicComponents(labels) => {
                let g = input.structure();
                return validate_dynamic_labels(g, &params.schedule(g), labels);
            }
            _ => {}
        }
        validate_family(self.family, input, output)
    }
}

/// The weighted graph of a row whose input kind is `Weighted`.
fn weighted<'g>(input: &AlgoInput<'g>) -> &'g WeightedCsrGraph {
    input
        .weighted()
        .expect("RegistryEntry::run checked the input kind")
}

/// Every row: each family under both models, each AMPC theory variant of
/// Table 1 after its family.
pub const ENTRIES: [RegistryEntry; 19] = [
    RegistryEntry {
        family: "mis",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "maximal independent set, 1 shuffle + recursive query process (Fig. 1)",
        run: |job, input, _| AlgoOutput::Mis(mis::ampc_mis_in_job(job, input.structure(), false)),
    },
    RegistryEntry {
        family: "mis",
        model: Model::Mpc,
        input: InputKind::Unweighted,
        summary: "rootset MIS, 2 shuffles per phase (Fig. 2)",
        run: |job, input, _| AlgoOutput::Mis(ampc_mpc::mpc_mis_in_job(job, input.structure())),
    },
    RegistryEntry {
        family: "mis/truncated",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "MIS by the n^eps-truncated multi-round query process of [19]",
        run: |job, input, _| AlgoOutput::Mis(mis::ampc_mis_in_job(job, input.structure(), true)),
    },
    RegistryEntry {
        family: "mm",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "maximal matching via the vertex query process (§4.2, §5.4)",
        run: |job, input, _| {
            AlgoOutput::Matching(matching::ampc_matching_in_job(
                job,
                input.structure(),
                false,
            ))
        },
    },
    RegistryEntry {
        family: "mm",
        model: Model::Mpc,
        input: InputKind::Unweighted,
        summary: "rootset maximal matching (§5.4 baseline)",
        run: |job, input, _| {
            AlgoOutput::Matching(ampc_mpc::mpc_matching_in_job(job, input.structure()))
        },
    },
    RegistryEntry {
        family: "mm/truncated",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "maximal matching by the n^eps-truncated vertex process (Lemma 4.7)",
        run: |job, input, _| {
            AlgoOutput::Matching(matching::ampc_matching_in_job(job, input.structure(), true))
        },
    },
    RegistryEntry {
        family: "mm/loglog",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "O(log log n)-round maximal matching by edge sampling (Algorithm 4)",
        run: |job, input, _| {
            AlgoOutput::Matching(matching::ampc_matching_loglog_in_job(
                job,
                input.structure(),
            ))
        },
    },
    RegistryEntry {
        family: "msf",
        model: Model::Ampc,
        input: InputKind::Weighted,
        summary: "minimum spanning forest, the §5.5 production pipeline",
        run: |job, input, _| AlgoOutput::Forest(msf::ampc_msf_in_job(job, weighted(input))),
    },
    RegistryEntry {
        family: "msf",
        model: Model::Mpc,
        input: InputKind::Weighted,
        summary: "Boruvka MSF with red/blue contraction (§5.5 baseline)",
        run: |job, input, _| AlgoOutput::Forest(ampc_mpc::mpc_msf_in_job(job, weighted(input))),
    },
    RegistryEntry {
        family: "msf/algorithm2",
        model: Model::Ampc,
        input: InputKind::Weighted,
        summary: "MSF that ternarizes sparse graphs first (Algorithm 2)",
        run: |job, input, _| {
            AlgoOutput::Forest(msf::ampc_msf_algorithm2_in_job(job, weighted(input)))
        },
    },
    RegistryEntry {
        family: "cc",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "connected components = random-weight MSF + forest connectivity (Thm. 1)",
        run: |job, input, _| {
            AlgoOutput::Components(connectivity::ampc_connected_components_in_job(
                job,
                input.structure(),
            ))
        },
    },
    RegistryEntry {
        family: "cc",
        model: Model::Mpc,
        input: InputKind::Unweighted,
        summary: "CC-LocalContraction (§5.6 baseline)",
        run: |job, input, _| {
            AlgoOutput::Components(ampc_mpc::mpc_connected_components_in_job(
                job,
                input.structure(),
            ))
        },
    },
    RegistryEntry {
        family: "cc/forest",
        model: Model::Ampc,
        input: InputKind::Weighted,
        summary: "forest connectivity (Prop. 3.2) on the input's Kruskal forest",
        run: |job, input, _| {
            // The forest is built host-side, outside the job: only forest
            // connectivity is metered.
            let forest: Vec<_> = kruskal(weighted(input))
                .iter()
                .map(|e| (e.u, e.v))
                .collect();
            AlgoOutput::Components(forest_cc_in_job(job, input.num_nodes(), &forest))
        },
    },
    RegistryEntry {
        family: "one-vs-two",
        model: Model::Ampc,
        input: InputKind::CycleUnion,
        summary: "1-vs-2-cycle by sampled bidirectional search (§5.6)",
        run: |job, input, p| {
            let (answer, num_cycles) = ampc_one_vs_two_in_job(job, input.structure(), p.sample_inv);
            AlgoOutput::Cycles { answer, num_cycles }
        },
    },
    RegistryEntry {
        family: "one-vs-two",
        model: Model::Mpc,
        input: InputKind::CycleUnion,
        summary: "1-vs-2-cycle answered by CC-LocalContraction",
        run: |job, input, _| {
            let label = ampc_mpc::mpc_connected_components_in_job(job, input.structure());
            // Canonical labels name each cycle by its smallest vertex.
            let num_cycles = label
                .iter()
                .enumerate()
                .filter(|&(v, &l)| l as usize == v)
                .count();
            AlgoOutput::Cycles {
                answer: CycleAnswer::of(num_cycles),
                num_cycles,
            }
        },
    },
    RegistryEntry {
        family: "walks",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "random walks: one KV round of adaptive depth = walk length (§5.7)",
        run: |job, input, p| {
            let g = input.structure();
            AlgoOutput::Walks(walks::ampc_random_walks_in_job(
                job,
                g,
                p.walkers_per_node,
                p.steps,
            ))
        },
    },
    RegistryEntry {
        family: "walks",
        model: Model::Mpc,
        input: InputKind::Unweighted,
        summary: "random walks: one shuffle per hop (the §5.7 separation baseline)",
        run: |job, input, p| {
            let g = input.structure();
            AlgoOutput::Walks(ampc_mpc::mpc_random_walks_in_job(
                job,
                g,
                p.walkers_per_node,
                p.steps,
            ))
        },
    },
    RegistryEntry {
        family: "dyn-cc",
        model: Model::Ampc,
        input: InputKind::Unweighted,
        summary: "batch-dynamic connectivity: labels maintained, one DHT epoch per batch",
        run: |job, input, p| {
            let g = input.structure();
            AlgoOutput::DynamicComponents(ampc_dynamic_cc_in_job(job, g, &p.schedule(g)))
        },
    },
    RegistryEntry {
        family: "dyn-cc",
        model: Model::Mpc,
        input: InputKind::Unweighted,
        summary: "batch-dynamic connectivity: full recompute from scratch per batch",
        run: |job, input, p| {
            let g = input.structure();
            let batches = p.schedule(g);
            AlgoOutput::DynamicComponents(ampc_mpc::mpc_recompute_cc_in_job(job, g, &batches))
        },
    },
];

/// The canonical family names, in registry order.
pub const FAMILIES: [&str; 7] = ["mis", "mm", "msf", "cc", "one-vs-two", "walks", "dyn-cc"];

/// Resolves a user-supplied row name, `family[/variant]` with aliases on
/// the family part, to its canonical form.
pub fn canonical_family(name: &str) -> Option<&'static str> {
    let name = name.to_ascii_lowercase();
    let (family, variant) = match name.split_once('/') {
        Some((family, variant)) => (family, Some(variant)),
        None => (name.as_str(), None),
    };
    let family = match family {
        "mis" => "mis",
        "mm" | "matching" | "maximal-matching" => "mm",
        "msf" | "mst" => "msf",
        "cc" | "connectivity" | "components" => "cc",
        "one-vs-two" | "1v2" | "1-vs-2" | "cycle" | "one-vs-two-cycle" => "one-vs-two",
        "walks" | "walk" | "random-walks" => "walks",
        "dyn-cc" | "dyncc" | "dynamic-cc" | "dynamic-connectivity" => "dyn-cc",
        _ => return None,
    };
    let Some(variant) = variant else {
        return Some(family);
    };
    ENTRIES
        .iter()
        .map(|e| e.family)
        .find(|row| row.split_once('/') == Some((family, variant)))
}

/// Looks up the registry row for `(family, model)`, aliases accepted.
pub fn lookup(family: &str, model: Model) -> Option<&'static RegistryEntry> {
    let family = canonical_family(family)?;
    ENTRIES
        .iter()
        .find(|e| e.family == family && e.model == model)
}

/// Convenience: resolve and run in one step with default parameters.
pub fn run_family(
    family: &str,
    model: Model,
    input: &AlgoInput<'_>,
    cfg: &AmpcConfig,
) -> Result<Driven<AlgoOutput>, String> {
    run_family_with(family, model, input, cfg, &AlgoParams::default())
}

/// [`run_family`] with explicit parameters.
pub fn run_family_with(
    family: &str,
    model: Model,
    input: &AlgoInput<'_>,
    cfg: &AmpcConfig,
    params: &AlgoParams,
) -> Result<Driven<AlgoOutput>, String> {
    let entry = lookup(family, model).ok_or_else(|| {
        format!(
            "no registered algorithm {family:?} for model {}",
            model.token()
        )
    })?;
    entry.run(input, cfg, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::gen;

    #[test]
    fn registry_is_complete() {
        for family in FAMILIES {
            for model in [Model::Ampc, Model::Mpc] {
                assert!(
                    lookup(family, model).is_some(),
                    "missing {family}/{}",
                    model.token()
                );
            }
        }
        // Each family under both models, plus the five AMPC variants.
        assert_eq!(ENTRIES.len(), FAMILIES.len() * 2 + 5);
        for e in &ENTRIES {
            let family = e.family.split('/').next().unwrap_or_default();
            assert!(FAMILIES.contains(&family), "{}", e.family);
            let found = lookup(e.family, e.model).map(|f| f.family);
            assert_eq!(found, Some(e.family), "{}/{}", e.family, e.model.token());
        }
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(canonical_family("Matching"), Some("mm"));
        assert_eq!(canonical_family("1v2"), Some("one-vs-two"));
        assert_eq!(canonical_family("components"), Some("cc"));
        assert_eq!(canonical_family("dynamic-cc"), Some("dyn-cc"));
        assert_eq!(canonical_family("nope"), None);
        assert_eq!(canonical_family("Matching/LogLog"), Some("mm/loglog"));
        assert_eq!(canonical_family("components/forest"), Some("cc/forest"));
        assert_eq!(canonical_family("mis/loglog"), None);
        assert!(lookup("mm/loglog", Model::Mpc).is_none());
    }

    #[test]
    fn dynamic_rows_run_and_agree() {
        let g = gen::erdos_renyi(60, 90, 3);
        let input = AlgoInput::Unweighted(&g);
        let cfg = AmpcConfig::for_tests();
        let params = AlgoParams {
            dyn_batches: 3,
            dyn_ops: 20,
            ..Default::default()
        };
        let a = run_family_with("dyn-cc", Model::Ampc, &input, &cfg, &params).unwrap();
        let b = run_family_with("dyn-cc", Model::Mpc, &input, &cfg, &params).unwrap();
        assert_eq!(a.output, b.output, "maintained == recompute per epoch");
        assert_eq!(a.output.size(), 4, "initial + 3 batches");
        assert_eq!(a.report.num_epochs(), 4);
        lookup("dyn-cc", Model::Ampc)
            .unwrap()
            .validate(&input, &a.output, &params)
            .unwrap();
    }

    #[test]
    fn run_family_checks_input_kind() {
        let g = gen::erdos_renyi(30, 60, 1);
        let input = AlgoInput::Unweighted(&g);
        let cfg = AmpcConfig::for_tests();
        // MSF and forest connectivity need a weighted graph.
        assert!(run_family("msf", Model::Ampc, &input, &cfg).is_err());
        assert!(run_family("cc/forest", Model::Ampc, &input, &cfg).is_err());
        // A non-2-regular graph is rejected by one-vs-two.
        assert!(run_family("one-vs-two", Model::Ampc, &input, &cfg).is_err());
        // MIS runs fine.
        let out = run_family("mis", Model::Ampc, &input, &cfg).unwrap();
        assert!(matches!(out.output, AlgoOutput::Mis(_)));
    }
}
