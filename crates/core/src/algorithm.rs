//! The [`AmpcAlgorithm`] trait: one interface over every kernel family.
//!
//! The paper evaluates a fixed menu of algorithms (Table 3) on a fixed
//! harness; this trait is what lets the workspace compose *any*
//! registered algorithm with *any* graph source and *any* runtime
//! configuration instead. An implementation names itself, declares what
//! input it consumes ([`InputKind`]), runs inside a caller-provided
//! [`Job`] (the driver owns config resolution, fault wiring and report
//! finalization — see `ampc_runtime::driver`), and can validate its own
//! output against the input.
//!
//! The AMPC implementations of all six kernel families live here as
//! thin adapters over the in-job kernel entry points
//! (`ampc_mis_in_job` & co.); the MPC baselines implement the same
//! trait from the `ampc-mpc` crate, which is how the figure harnesses
//! and the `ampc` CLI treat the two models uniformly.

use crate::one_vs_two::CycleAnswer;
use crate::{connectivity, matching, mis, msf, one_vs_two, validate, walks};
use ampc_dht::hasher::mix64;
use ampc_graph::dynamic::{generate_batches, BatchMix};
use ampc_graph::{CsrGraph, NodeId, WeightedCsrGraph, WeightedEdge, NO_NODE};
use ampc_runtime::Job;

/// Which model backend an implementation simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Adaptive MPC: machines query the DHT inside a round.
    Ampc,
    /// Classic MPC: all communication rides on shuffles.
    Mpc,
}

impl Model {
    /// Lowercase token (`"ampc"` / `"mpc"`) used by the CLI and JSON
    /// reports.
    pub fn token(&self) -> &'static str {
        match self {
            Model::Ampc => "ampc",
            Model::Mpc => "mpc",
        }
    }
}

/// What input a kernel family consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputKind {
    /// Any unweighted graph.
    Unweighted,
    /// A weighted graph (MSF).
    Weighted,
    /// A 2-regular unweighted graph — a disjoint union of cycles
    /// (the 1-vs-2-cycle problem).
    CycleUnion,
}

/// A borrowed input graph.
#[derive(Clone, Copy, Debug)]
pub enum AlgoInput<'g> {
    /// An unweighted graph.
    Unweighted(&'g CsrGraph),
    /// A weighted graph.
    Weighted(&'g WeightedCsrGraph),
}

impl<'g> AlgoInput<'g> {
    /// Vertex count.
    pub fn num_nodes(&self) -> usize {
        match self {
            AlgoInput::Unweighted(g) => g.num_nodes(),
            AlgoInput::Weighted(g) => g.num_nodes(),
        }
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        match self {
            AlgoInput::Unweighted(g) => g.num_edges(),
            AlgoInput::Weighted(g) => g.num_edges(),
        }
    }

    /// The unweighted structure (a weighted input's structure graph
    /// satisfies unweighted-input algorithms).
    pub fn structure(&self) -> &'g CsrGraph {
        match self {
            AlgoInput::Unweighted(g) => g,
            AlgoInput::Weighted(g) => g.structure(),
        }
    }

    /// The weighted graph, if this input carries weights.
    pub fn weighted(&self) -> Option<&'g WeightedCsrGraph> {
        match self {
            AlgoInput::Unweighted(_) => None,
            AlgoInput::Weighted(g) => Some(g),
        }
    }

    /// Whether this input satisfies `kind`.
    pub fn satisfies(&self, kind: InputKind) -> Result<(), String> {
        match kind {
            InputKind::Unweighted => Ok(()),
            InputKind::Weighted => {
                if self.weighted().is_some() {
                    Ok(())
                } else {
                    Err("algorithm requires a weighted graph".into())
                }
            }
            InputKind::CycleUnion => {
                let g = self.structure();
                if g.num_nodes() < 3 {
                    return Err("cycle instances need >= 3 vertices".into());
                }
                match g.nodes().find(|&v| g.degree(v) != 2) {
                    None => Ok(()),
                    Some(v) => Err(format!(
                        "1-vs-2-cycle input must be 2-regular (vertex {v} has degree {})",
                        g.degree(v)
                    )),
                }
            }
        }
    }
}

/// Unified kernel output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgoOutput {
    /// MIS membership per vertex.
    Mis(Vec<bool>),
    /// Matching partner per vertex (`NO_NODE` = unmatched).
    Matching(Vec<NodeId>),
    /// MSF edges (canonical order).
    Forest(Vec<WeightedEdge>),
    /// Component label per vertex.
    Components(Vec<NodeId>),
    /// 1-vs-2-cycle answer plus the cycle count found.
    Cycles {
        /// One cycle or more than one.
        answer: CycleAnswer,
        /// Number of cycles found (≥ 1).
        num_cycles: usize,
    },
    /// Random walks: one vertex sequence per walker.
    Walks(Vec<Vec<NodeId>>),
    /// Batch-dynamic connectivity: component labels per epoch
    /// (`[0]` = initial graph, `[i + 1]` = after update batch `i`).
    DynamicComponents(Vec<Vec<NodeId>>),
}

/// Order-sensitive digest fold (one fold for every harness entry point,
/// so pinned and recorded digests stay comparable).
fn fold(digest: u64, x: u64) -> u64 {
    mix64(digest ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Digest of a `u64` sequence, order-sensitively.
pub fn digest_u64s(items: impl IntoIterator<Item = u64>) -> u64 {
    items.into_iter().fold(0x5EED, fold)
}

impl AlgoOutput {
    /// A short token naming the output kind (JSON `"kind"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            AlgoOutput::Mis(_) => "mis",
            AlgoOutput::Matching(_) => "matching",
            AlgoOutput::Forest(_) => "forest",
            AlgoOutput::Components(_) => "components",
            AlgoOutput::Cycles { .. } => "cycles",
            AlgoOutput::Walks(_) => "walks",
            AlgoOutput::DynamicComponents(_) => "dynamic-components",
        }
    }

    /// The output's cardinality: set/matching/forest size, number of
    /// components, number of cycles, or number of walks.
    pub fn size(&self) -> usize {
        match self {
            AlgoOutput::Mis(v) => v.iter().filter(|&&b| b).count(),
            AlgoOutput::Matching(p) => p.iter().filter(|&&x| x != NO_NODE).count() / 2,
            AlgoOutput::Forest(e) => e.len(),
            AlgoOutput::Components(l) => {
                let mut seen: Vec<NodeId> = l.clone();
                seen.sort_unstable();
                seen.dedup();
                seen.len()
            }
            AlgoOutput::Cycles { num_cycles, .. } => *num_cycles,
            AlgoOutput::Walks(w) => w.len(),
            AlgoOutput::DynamicComponents(epochs) => epochs.len(),
        }
    }

    /// Order-sensitive digest of the full output: what `ampc run` records,
    /// the repo benchmark compares across repetitions, and
    /// `tests/kernel_records.rs` pins.
    pub fn digest(&self) -> u64 {
        match self {
            AlgoOutput::Mis(v) => digest_u64s(v.iter().map(|&b| b as u64)),
            AlgoOutput::Matching(p) => digest_u64s(p.iter().map(|&x| x as u64)),
            AlgoOutput::Forest(e) => {
                digest_u64s(e.iter().flat_map(|e| [e.u as u64, e.v as u64, e.w]))
            }
            AlgoOutput::Components(l) => digest_u64s(l.iter().map(|&x| x as u64)),
            AlgoOutput::Cycles { num_cycles, .. } => digest_u64s([*num_cycles as u64]),
            AlgoOutput::Walks(w) => digest_u64s(
                w.iter()
                    .flat_map(|walk| walk.iter().map(|&v| v as u64 + 1).chain([0])),
            ),
            // Epoch-separated fold: two runs agree iff the labels of
            // *every* epoch agree — equality of digests certifies
            // per-batch byte-identical labels.
            AlgoOutput::DynamicComponents(epochs) => digest_u64s(
                epochs
                    .iter()
                    .flat_map(|l| l.iter().map(|&v| v as u64 + 1).chain([0])),
            ),
        }
    }
}

/// One algorithm implementation, runnable by the driver against any
/// satisfying input.
pub trait AmpcAlgorithm: Sync {
    /// The kernel family name (`"mis"`, `"mm"`, `"msf"`, `"cc"`,
    /// `"one-vs-two"`, `"walks"`).
    fn name(&self) -> &'static str;

    /// Which model backend this implementation simulates.
    fn model(&self) -> Model;

    /// What input the implementation requires.
    fn input_kind(&self) -> InputKind;

    /// Runs the algorithm inside `job`. The caller (normally
    /// `ampc_runtime::driver::drive`) owns the job's lifecycle; `run`
    /// only appends stages. Implementations may assume
    /// `input.satisfies(self.input_kind())` holds — the driver-facing
    /// callers check it first.
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput;

    /// Checks `output` against `input`, returning a human-readable
    /// reason on failure.
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String>;
}

/// Shared validators, so the AMPC and MPC implementations of one family
/// agree on what "correct" means.
fn validate_family(family: &str, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
    let g = input.structure();
    match output {
        AlgoOutput::Mis(in_mis) => {
            if in_mis.len() != g.num_nodes() {
                return Err(format!("{family}: output length != vertex count"));
            }
            if !validate::is_maximal_independent_set(g, in_mis) {
                return Err(format!("{family}: not a maximal independent set"));
            }
            Ok(())
        }
        AlgoOutput::Matching(partner) => {
            if partner.len() != g.num_nodes() {
                return Err(format!("{family}: output length != vertex count"));
            }
            for v in 0..partner.len() {
                let p = partner[v];
                if p != NO_NODE && partner[p as usize] != v as NodeId {
                    return Err(format!("{family}: asymmetric matching at vertex {v}"));
                }
            }
            let pairs = matching::pairs_from_partners(partner);
            if !validate::is_maximal_matching(g, &pairs) {
                return Err(format!("{family}: not a maximal matching"));
            }
            Ok(())
        }
        AlgoOutput::Forest(edges) => {
            let w = input
                .weighted()
                .ok_or_else(|| format!("{family}: forest output needs a weighted input"))?;
            if !validate::is_min_spanning_forest(w, edges) {
                return Err(format!("{family}: not a minimum spanning forest"));
            }
            Ok(())
        }
        AlgoOutput::Components(label) => {
            if !validate::is_correct_components(g, label) {
                return Err(format!("{family}: component labels are wrong"));
            }
            Ok(())
        }
        AlgoOutput::Cycles { answer, .. } => {
            let truth = ampc_graph::stats::connected_components(g).num_components;
            let expect = if truth == 1 {
                CycleAnswer::One
            } else {
                CycleAnswer::Two
            };
            if *answer != expect {
                return Err(format!(
                    "{family}: answered {answer:?} but the instance has {truth} cycle(s)"
                ));
            }
            Ok(())
        }
        AlgoOutput::Walks(walk_list) => {
            for (i, walk) in walk_list.iter().enumerate() {
                if walk.is_empty() {
                    return Err(format!("{family}: walk {i} is empty"));
                }
                for pair in walk.windows(2) {
                    let stay_put = pair[0] == pair[1] && g.degree(pair[0]) == 0;
                    if !stay_put && !g.has_edge(pair[0], pair[1]) {
                        return Err(format!(
                            "{family}: walk {i} took a non-edge {} -> {}",
                            pair[0], pair[1]
                        ));
                    }
                }
            }
            Ok(())
        }
        AlgoOutput::DynamicComponents(epochs) => {
            // The family validator sees the input but not the update
            // schedule: it checks the shape and the initial epoch. The
            // trait impls (which know the schedule) replay every batch
            // through `crate::dynamic::validate_dynamic_labels`.
            if epochs.is_empty() {
                return Err(format!("{family}: no label epochs"));
            }
            if let Some(bad) = epochs.iter().position(|l| l.len() != g.num_nodes()) {
                return Err(format!("{family}: epoch {bad} has wrong label length"));
            }
            let oracle = ampc_graph::stats::connected_components(g).label;
            if epochs[0] != oracle {
                return Err(format!(
                    "{family}: initial labels differ from the canonical oracle"
                ));
            }
            Ok(())
        }
    }
}

// --------------------------------------------------------------------
// AMPC implementations: thin adapters over the in-job kernel entry
// points.
// --------------------------------------------------------------------

/// AMPC MIS (Figure 1; Proposition 4.2). Caching follows the job
/// configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct AmpcMis;

impl AmpcAlgorithm for AmpcMis {
    fn name(&self) -> &'static str {
        "mis"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::Unweighted
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        let opts = mis::MisOptions {
            caching: job.config().caching,
            ..Default::default()
        };
        AlgoOutput::Mis(mis::ampc_mis_in_job(job, input.structure(), opts))
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        validate_family(self.name(), input, output)
    }
}

/// AMPC maximal matching (§4.2, §5.4). Caching follows the job
/// configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct AmpcMatching;

impl AmpcAlgorithm for AmpcMatching {
    fn name(&self) -> &'static str {
        "mm"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::Unweighted
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        let opts = matching::MatchingOptions {
            caching: job.config().caching,
            ..Default::default()
        };
        AlgoOutput::Matching(matching::ampc_matching_in_job(job, input.structure(), opts))
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        validate_family(self.name(), input, output)
    }
}

/// AMPC MSF — the §5.5 production pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct AmpcMsf;

impl AmpcAlgorithm for AmpcMsf {
    fn name(&self) -> &'static str {
        "msf"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::Weighted
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        let w = input.weighted().expect("driver checked input kind");
        AlgoOutput::Forest(msf::ampc_msf_in_job(job, w))
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        validate_family(self.name(), input, output)
    }
}

/// AMPC connected components (Theorem 1: random-weight MSF + forest
/// connectivity).
#[derive(Clone, Copy, Debug, Default)]
pub struct AmpcConnectivity;

impl AmpcAlgorithm for AmpcConnectivity {
    fn name(&self) -> &'static str {
        "cc"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::Unweighted
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        AlgoOutput::Components(connectivity::ampc_connected_components_in_job(
            job,
            input.structure(),
        ))
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        validate_family(self.name(), input, output)
    }
}

/// AMPC 1-vs-2-cycle (§5.6) at a configurable inverse sampling rate.
#[derive(Clone, Copy, Debug)]
pub struct AmpcOneVsTwo {
    /// Inverse sampling rate (paper: 1024).
    pub sample_inv: u64,
}

impl Default for AmpcOneVsTwo {
    fn default() -> Self {
        AmpcOneVsTwo { sample_inv: 1024 }
    }
}

impl AmpcAlgorithm for AmpcOneVsTwo {
    fn name(&self) -> &'static str {
        "one-vs-two"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::CycleUnion
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        let (answer, num_cycles) =
            one_vs_two::ampc_one_vs_two_in_job(job, input.structure(), self.sample_inv);
        AlgoOutput::Cycles { answer, num_cycles }
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        validate_family(self.name(), input, output)
    }
}

/// AMPC random walks (§5.7): `walkers_per_node × n` walks of `steps`
/// hops, all inside one KV round.
#[derive(Clone, Copy, Debug)]
pub struct AmpcWalks {
    /// Walkers started per vertex.
    pub walkers_per_node: usize,
    /// Hops per walk.
    pub steps: usize,
}

impl Default for AmpcWalks {
    fn default() -> Self {
        AmpcWalks {
            walkers_per_node: 1,
            steps: 8,
        }
    }
}

impl AmpcAlgorithm for AmpcWalks {
    fn name(&self) -> &'static str {
        "walks"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::Unweighted
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        AlgoOutput::Walks(walks::ampc_random_walks_in_job(
            job,
            input.structure(),
            self.walkers_per_node,
            self.steps,
        ))
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        validate_walks_shape(input, output, self.walkers_per_node, self.steps)?;
        validate_family(self.name(), input, output)
    }
}

/// AMPC batch-dynamic connectivity: component labels *maintained*
/// across a seeded schedule of edge-update batches (one DHT-generation
/// epoch per batch; see [`crate::dynamic`]). The update schedule is
/// regenerated deterministically from the input graph and these
/// parameters, so the AMPC (maintained) and MPC (recompute) backends
/// consume identical batches by construction.
#[derive(Clone, Copy, Debug)]
pub struct AmpcDynamicCc {
    /// Number of update batches.
    pub batches: usize,
    /// Updates per batch.
    pub ops: usize,
    /// Insert/delete composition of the schedule.
    pub mix: BatchMix,
    /// Schedule seed (decoupled from the algorithm seed).
    pub schedule_seed: u64,
}

impl Default for AmpcDynamicCc {
    fn default() -> Self {
        AmpcDynamicCc {
            batches: 4,
            ops: 64,
            mix: BatchMix::Churn,
            schedule_seed: ampc_graph::dynamic::DEFAULT_SCHEDULE_SEED,
        }
    }
}

impl AmpcAlgorithm for AmpcDynamicCc {
    fn name(&self) -> &'static str {
        "dyn-cc"
    }
    fn model(&self) -> Model {
        Model::Ampc
    }
    fn input_kind(&self) -> InputKind {
        InputKind::Unweighted
    }
    fn run(&self, job: &mut Job, input: &AlgoInput<'_>) -> AlgoOutput {
        let g = input.structure();
        let batches = generate_batches(g, self.batches, self.ops, self.mix, self.schedule_seed);
        AlgoOutput::DynamicComponents(crate::dynamic::ampc_dynamic_cc_in_job(job, g, &batches))
    }
    fn validate(&self, input: &AlgoInput<'_>, output: &AlgoOutput) -> Result<(), String> {
        // `validate_dynamic_output` subsumes the family validator's
        // shape + epoch-0 checks (it replays every epoch against the
        // oracle), so the generic pass is not repeated here.
        validate_dynamic_output(
            input,
            output,
            self.batches,
            self.ops,
            self.mix,
            self.schedule_seed,
        )
    }
}

/// Full per-epoch validation for a dynamic-connectivity output:
/// regenerates the schedule from the parameters and pins every epoch's
/// labels to the oracle. Shared by the AMPC and MPC trait impls so both
/// models validate under the same rule.
pub fn validate_dynamic_output(
    input: &AlgoInput<'_>,
    output: &AlgoOutput,
    batches: usize,
    ops: usize,
    mix: BatchMix,
    schedule_seed: u64,
) -> Result<(), String> {
    let AlgoOutput::DynamicComponents(labels) = output else {
        return Err("dyn-cc: wrong output kind".into());
    };
    let g = input.structure();
    let schedule = generate_batches(g, batches, ops, mix, schedule_seed);
    crate::dynamic::validate_dynamic_labels(g, &schedule, labels)
}

/// Walk-shape check shared by both walks backends (AMPC and the MPC
/// shuffle-per-hop baseline): `walkers_per_node × n` walks, each of
/// length `steps + 1`. Kept in one place so the two models always
/// validate under the same rule.
pub fn validate_walks_shape(
    input: &AlgoInput<'_>,
    output: &AlgoOutput,
    walkers_per_node: usize,
    steps: usize,
) -> Result<(), String> {
    let AlgoOutput::Walks(w) = output else {
        return Err("walks: wrong output kind".into());
    };
    let expected = walkers_per_node * input.num_nodes();
    if w.len() != expected {
        return Err(format!("walks: {} walks, expected {expected}", w.len()));
    }
    if let Some(bad) = w.iter().position(|walk| walk.len() != steps + 1) {
        return Err(format!("walks: walk {bad} has wrong length"));
    }
    Ok(())
}

/// Validates output for an arbitrary implementation of a known family —
/// exposed for the MPC-side impls so both models share one notion of
/// correctness.
pub fn validate_output(
    family: &str,
    input: &AlgoInput<'_>,
    output: &AlgoOutput,
) -> Result<(), String> {
    validate_family(family, input, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::gen;
    use ampc_runtime::driver::drive;
    use ampc_runtime::AmpcConfig;

    fn cfg() -> AmpcConfig {
        AmpcConfig::for_tests()
    }

    #[test]
    fn trait_run_matches_direct_mis() {
        let g = gen::erdos_renyi(120, 360, 3);
        let c = cfg();
        let direct = mis::ampc_mis(&g, &c);
        let alg = AmpcMis;
        let input = AlgoInput::Unweighted(&g);
        let driven = drive(&c, |job| alg.run(job, &input));
        assert_eq!(driven.output, AlgoOutput::Mis(direct.in_mis));
        assert_eq!(driven.report.num_shuffles(), direct.report.num_shuffles());
        assert_eq!(driven.report.sim_ns(), direct.report.sim_ns());
        alg.validate(&input, &driven.output).unwrap();
    }

    #[test]
    fn input_kind_checks() {
        let g = gen::erdos_renyi(30, 60, 1);
        let input = AlgoInput::Unweighted(&g);
        assert!(input.satisfies(InputKind::Unweighted).is_ok());
        assert!(input.satisfies(InputKind::Weighted).is_err());
        assert!(input.satisfies(InputKind::CycleUnion).is_err());

        let cyc = gen::single_cycle(50, 2);
        assert!(AlgoInput::Unweighted(&cyc)
            .satisfies(InputKind::CycleUnion)
            .is_ok());

        let w = gen::degree_weights(&g);
        let wi = AlgoInput::Weighted(&w);
        assert!(wi.satisfies(InputKind::Weighted).is_ok());
        assert!(wi.satisfies(InputKind::Unweighted).is_ok());
    }

    #[test]
    fn output_sizes_and_digests() {
        let mis_out = AlgoOutput::Mis(vec![true, false, true]);
        assert_eq!(mis_out.size(), 2);
        assert_eq!(mis_out.kind(), "mis");
        let m = AlgoOutput::Matching(vec![1, 0, NO_NODE]);
        assert_eq!(m.size(), 1);
        let c = AlgoOutput::Components(vec![0, 0, 2]);
        assert_eq!(c.size(), 2);
        // Digests are order-sensitive and distinguish unequal outputs.
        let a = AlgoOutput::Mis(vec![true, false]);
        let b = AlgoOutput::Mis(vec![false, true]);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn validate_rejects_wrong_components() {
        let g = gen::path(4);
        let input = AlgoInput::Unweighted(&g);
        let bad = AlgoOutput::Components(vec![0, 0, 1, 1]);
        assert!(validate_output("cc", &input, &bad).is_err());
    }

    #[test]
    fn walks_validation_checks_shape() {
        let g = gen::erdos_renyi(20, 60, 5);
        let alg = AmpcWalks {
            walkers_per_node: 1,
            steps: 3,
        };
        let input = AlgoInput::Unweighted(&g);
        let driven = drive(&cfg(), |job| alg.run(job, &input));
        alg.validate(&input, &driven.output).unwrap();
        let AlgoOutput::Walks(mut w) = driven.output else {
            unreachable!()
        };
        w[0].pop();
        assert!(alg.validate(&input, &AlgoOutput::Walks(w)).is_err());
    }
}
