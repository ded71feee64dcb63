//! The kernel-neutral vocabulary every registry row speaks: which model
//! a row simulates ([`Model`]), what input it consumes ([`InputKind`],
//! [`AlgoInput`]), what it returns ([`AlgoOutput`]) and the validators
//! both models share ([`validate_family`], [`validate_walks_shape`]).
//!
//! A kernel exports exactly one body, `*_in_job(job, …)`, which appends
//! stages to a caller-provided [`ampc_runtime::Job`]. The registry in
//! `ampc-bench` wraps each body in a row of plain data — family, model,
//! input kind and a `fn` that calls the body — and runs it through
//! `ampc_runtime::driver::drive`: the one path from a request to a
//! finished run record.

use crate::one_vs_two::CycleAnswer;
use crate::{matching, validate};
use ampc_dht::hasher::mix64;
use ampc_graph::{CsrGraph, NodeId, WeightedCsrGraph, WeightedEdge, NO_NODE};

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
    /// `crates/bench/tests/records.rs` pins.
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

/// The shared validator, so the AMPC and MPC rows of one family agree on
/// what "correct" means. `family` names the row in error messages.
pub fn validate_family(
    family: &str,
    input: &AlgoInput<'_>,
    output: &AlgoOutput,
) -> Result<(), String> {
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
            let expect = CycleAnswer::of(truth);
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
            // registry (which knows the schedule) replays every batch
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

/// Walk-shape check shared by both walks rows (AMPC and the MPC
/// shuffle-per-hop baseline): `walkers_per_node × n` walks, each of
/// length `steps + 1`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walks::ampc_random_walks_in_job;
    use ampc_graph::gen;
    use ampc_runtime::driver::drive;
    use ampc_runtime::AmpcConfig;

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

        let w = gen::degree_weights(g);
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
        assert!(validate_family("cc", &input, &bad).is_err());
    }

    #[test]
    fn walks_validation_checks_shape() {
        let g = gen::erdos_renyi(20, 60, 5);
        let input = AlgoInput::Unweighted(&g);
        let cfg = AmpcConfig::for_tests();
        let walks = drive(&cfg, |job| ampc_random_walks_in_job(job, &g, 1, 3)).output;
        let mut out = AlgoOutput::Walks(walks);
        validate_walks_shape(&input, &out, 1, 3).unwrap();
        validate_family("walks", &input, &out).unwrap();
        if let AlgoOutput::Walks(w) = &mut out {
            w[0].pop();
        }
        assert!(validate_walks_shape(&input, &out, 1, 3).is_err());
    }
}
