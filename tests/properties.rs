//! Property-based tests (proptest) over randomly generated graphs.
//!
//! Each property exercises an invariant the paper's correctness
//! arguments rest on, on arbitrary inputs rather than fixed seeds.

use ampc_bench::registry::{run_family, run_family_with, AlgoParams};
use ampc_core::algorithm::{AlgoInput, AlgoOutput, Model};
use ampc_core::matching::{greedy_matching, pairs_from_partners};
use ampc_core::mis::greedy_mis;
use ampc_core::msf::in_memory::kruskal;
use ampc_core::validate;
use ampc_graph::ops::{line_graph, ternarize};
use ampc_graph::stats::connected_components;
use ampc_graph::{gen, GraphBuilder, NodeId};
use ampc_runtime::AmpcConfig;
use proptest::prelude::*;

fn cfg(seed: u64) -> AmpcConfig {
    AmpcConfig {
        num_machines: 4,
        in_memory_threshold: 64,
        seed,
        ..AmpcConfig::default()
    }
}

/// Strategy: an arbitrary undirected graph as (n, edge pairs).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m);
        (Just(n), edges)
    })
}

/// `family`'s AMPC row on `input`.
fn output(family: &str, input: AlgoInput<'_>, c: &AmpcConfig) -> AlgoOutput {
    run_family(family, Model::Ampc, &input, c)
        .expect("a registered row on an input it accepts")
        .output
}

fn build(n: usize, pairs: &[(u32, u32)]) -> ampc_graph::CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in pairs {
        b.push_edge(u, v, 0);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mis_is_maximal_and_matches_oracle((n, pairs) in arb_graph(120, 400), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let c = cfg(seed);
        let AlgoOutput::Mis(in_mis) = output("mis", AlgoInput::Unweighted(&g), &c) else {
            unreachable!("the mis row returns a set")
        };
        prop_assert!(validate::is_maximal_independent_set(&g, &in_mis));
        prop_assert_eq!(in_mis, greedy_mis(&g, seed));
    }

    #[test]
    fn matching_is_maximal_and_matches_oracle((n, pairs) in arb_graph(100, 300), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let c = cfg(seed);
        let AlgoOutput::Matching(partner) = output("mm", AlgoInput::Unweighted(&g), &c) else {
            unreachable!("the mm row returns partners")
        };
        prop_assert!(validate::is_maximal_matching(&g, &pairs_from_partners(&partner)));
        prop_assert_eq!(partner, greedy_matching(&g, seed));
    }

    #[test]
    fn msf_weight_equals_kruskal((n, pairs) in arb_graph(80, 250), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let w = gen::random_weights(g, 1_000, seed);
        let c = cfg(seed);
        let forest = output("msf", AlgoInput::Weighted(&w), &c);
        prop_assert_eq!(forest, AlgoOutput::Forest(kruskal(&w)));
    }

    #[test]
    fn algorithm2_equals_kruskal((n, pairs) in arb_graph(70, 200), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let w = gen::random_weights(g, 500, seed);
        let forest = output("msf/algorithm2", AlgoInput::Weighted(&w), &cfg(seed));
        prop_assert_eq!(forest, AlgoOutput::Forest(kruskal(&w)));
    }

    #[test]
    fn ternarize_bounds_degree_and_preserves_msf_weight((n, pairs) in arb_graph(60, 200), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let w = gen::random_weights(g, 900, seed);
        let t = ternarize(&w);
        prop_assert!(t.graph.structure().max_degree() <= 3);
        // MSF weight of the ternarized graph (dummies excluded, weights
        // unshifted) equals the original MSF weight.
        let tern_msf = kruskal(&t.graph);
        let tern_weight: u128 = tern_msf
            .iter()
            .filter(|e| !ampc_graph::ops::Ternarized::is_dummy_weight(e.w))
            .map(|e| ampc_graph::ops::Ternarized::original_weight(e.w) as u128)
            .sum();
        let orig_weight: u128 = kruskal(&w).iter().map(|e| e.w as u128).sum();
        prop_assert_eq!(tern_weight, orig_weight);
    }

    #[test]
    fn connectivity_matches_bfs((n, pairs) in arb_graph(100, 160), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let out = output("cc", AlgoInput::Unweighted(&g), &cfg(seed));
        let AlgoOutput::Components(label) = out else {
            unreachable!("the cc row returns labels")
        };
        prop_assert!(validate::is_correct_components(&g, &label));
    }

    #[test]
    fn line_graph_mis_is_a_maximal_matching((n, pairs) in arb_graph(40, 80), seed in 0u64..1000) {
        // The §4 reduction: an MIS of the line graph is a maximal
        // matching of the base graph.
        let g = build(n, &pairs);
        let lg = line_graph(&g);
        let mis = greedy_mis(&lg.graph, seed);
        let matching: Vec<(NodeId, NodeId)> = mis
            .iter()
            .enumerate()
            .filter(|&(_, &take)| take)
            .map(|(i, _)| {
                let e = lg.edges[i];
                (e.u.min(e.v), e.u.max(e.v))
            })
            .collect();
        prop_assert!(validate::is_maximal_matching(&g, &matching));
    }

    #[test]
    fn contraction_preserves_component_count((n, pairs) in arb_graph(80, 200), seed in 0u64..1000) {
        let g = build(n, &pairs);
        // Contract by an arbitrary forest of the graph: component count
        // must be preserved (drop_isolated=false keeps all classes).
        let w = gen::random_weights(g.clone(), 100, seed);
        let forest = kruskal(&w);
        let mut uf = ampc_trees::UnionFind::new(n);
        for e in &forest {
            uf.union(e.u, e.v);
        }
        let labels = uf.labels();
        let contracted = ampc_graph::ops::contract(&g, &labels, false);
        let cc_before = connected_components(&g).num_components;
        let cc_after = connected_components(&contracted.graph).num_components;
        prop_assert_eq!(cc_before, cc_after);
    }

    #[test]
    fn msf_with_constant_weights_still_unique((n, pairs) in arb_graph(60, 150), seed in 0u64..1000) {
        // All-equal weights: the workspace's tie-breaking by canonical
        // endpoints must still make every implementation agree exactly.
        let g = build(n, &pairs);
        let w = gen::random_weights(g, 1, seed); // every weight = 1
        let c = cfg(seed);
        let k = AlgoOutput::Forest(kruskal(&w));
        for family in ["msf", "msf/algorithm2"] {
            prop_assert_eq!(output(family, AlgoInput::Weighted(&w), &c), k.clone(), "{}", family);
        }
    }

    #[test]
    fn random_walks_stay_on_edges((n, pairs) in arb_graph(50, 120), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let p = AlgoParams { steps: 5, ..Default::default() };
        let input = AlgoInput::Unweighted(&g);
        let out = run_family_with("walks", Model::Ampc, &input, &cfg(seed), &p).expect("registered");
        let AlgoOutput::Walks(walks) = out.output else {
            unreachable!("the walks row returns walks")
        };
        for walk in &walks {
            for w in walk.windows(2) {
                prop_assert!(w[0] == w[1] || g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn mis_and_mm_relate((n, pairs) in arb_graph(80, 200), seed in 0u64..1000) {
        // Size sanity relating the two objects: a maximal matching has at
        // most n/2 edges; an MIS and the matched-vertex set both cover
        // every edge of the graph.
        let g = build(n, &pairs);
        let c = cfg(seed);
        let AlgoOutput::Mis(mis) = output("mis", AlgoInput::Unweighted(&g), &c) else {
            unreachable!("the mis row returns a set")
        };
        let mm = output("mm", AlgoInput::Unweighted(&g), &c);
        prop_assert!(mm.size() * 2 <= g.num_nodes());
        // A maximal independent set is a dominating set.
        for v in g.nodes() {
            let dominated = mis[v as usize]
                || g.neighbors(v).iter().any(|&u| mis[u as usize]);
            prop_assert!(dominated, "MIS maximality implies domination of {v}");
        }
    }

    #[test]
    fn vertex_cover_covers_and_is_within_2x((n, pairs) in arb_graph(60, 150), seed in 0u64..1000) {
        let g = build(n, &pairs);
        let c = cfg(seed);
        let cover = ampc_core::matching::approx::approx_vertex_cover(&g, &c);
        let mut in_cover = vec![false; g.num_nodes()];
        for &v in &cover {
            in_cover[v as usize] = true;
        }
        for e in g.edges() {
            prop_assert!(in_cover[e.u as usize] || in_cover[e.v as usize]);
        }
        // |cover| = 2|M| and any vertex cover is >= |M|, so the cover is
        // within 2x of optimal; sanity-check against the matching size.
        let m = pairs_from_partners(&greedy_matching(&g, seed)).len();
        prop_assert_eq!(cover.len(), 2 * m);
    }
}

// ------------------------------------------------------------------
// Graph-source grammar properties: parse → describe → parse is the
// identity, on arbitrary static sources and arbitrary `dyn:` specs.
// ------------------------------------------------------------------

use ampc_graph::datasets::Dataset;
use ampc_graph::dynamic::{generate_batches, BatchMix, DynamicSource};
use ampc_graph::gen::RmatParams;
use ampc_graph::GraphSource;

/// Strategy: an arbitrary parseable [`GraphSource`] value.
fn arb_source() -> impl Strategy<Value = GraphSource> {
    (0usize..12, 1usize..500, 1usize..5000, 0usize..6).prop_map(|(kind, a, b, c)| match kind {
        0 => GraphSource::Dataset(
            [
                Dataset::Orkut,
                Dataset::Twitter,
                Dataset::Friendster,
                Dataset::ClueWeb,
                Dataset::Hyperlink,
            ][c % 5],
        ),
        1 => GraphSource::Dataset(Dataset::TwoCycles(a)),
        2 => GraphSource::Rmat {
            log_n: (a % 20) as u32 + 1,
            m: b,
            params: if c % 2 == 0 {
                RmatParams::SOCIAL
            } else {
                RmatParams::WEB
            },
        },
        3 => GraphSource::ErdosRenyi { n: a + 1, m: b },
        4 => GraphSource::ChungLu {
            n: a + 1,
            m: b,
            gamma: c as f64 / 2.0 + 2.5,
        },
        5 => GraphSource::Cycle(a + 3),
        6 => GraphSource::CyclePair(a + 3),
        7 => GraphSource::Path(a),
        8 => GraphSource::Star(a),
        9 => GraphSource::Complete(a % 64 + 1),
        10 => GraphSource::Grid(a % 50 + 1, b % 50 + 1),
        _ => GraphSource::Tree(a),
    })
}

/// Strategy: an arbitrary parseable `dyn:` spec over any static base.
fn arb_dynamic_source() -> impl Strategy<Value = DynamicSource> {
    (
        arb_source(),
        1usize..12,
        (1usize..300, 0usize..3, 0u64..u64::MAX),
    )
        .prop_map(|(base, batches, (ops, mix, seed))| DynamicSource {
            base,
            batches,
            ops,
            mix: [BatchMix::Churn, BatchMix::InsertOnly, BatchMix::DeleteOnly][mix],
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn graph_source_round_trips(src in arb_source()) {
        let text = src.describe();
        let reparsed = GraphSource::parse(&text)
            .unwrap_or_else(|e| panic!("{text:?} does not reparse: {e}"));
        prop_assert_eq!(reparsed, src, "{}", text);
    }

    #[test]
    fn dynamic_source_round_trips(src in arb_dynamic_source()) {
        let text = src.describe();
        let reparsed = DynamicSource::parse(&text)
            .unwrap_or_else(|e| panic!("{text:?} does not reparse: {e}"));
        prop_assert_eq!(reparsed, src, "{}", text);
    }

    #[test]
    fn dynamic_schedules_replay_deterministically(
        (n, pairs) in arb_graph(80, 160),
        batches in 1usize..5,
        ops in 1usize..40,
        seed in 0u64..1000,
    ) {
        let g = build(n, &pairs);
        let a = generate_batches(&g, batches, ops, BatchMix::Churn, seed);
        prop_assert_eq!(&a, &generate_batches(&g, batches, ops, BatchMix::Churn, seed));
        // Every generated op is effective when replayed in order.
        let mut state = ampc_graph::dynamic::EdgeSet::from_graph(&g);
        for batch in &a {
            for up in batch {
                let flipped = match up.kind {
                    ampc_graph::dynamic::UpdateKind::Insert => state.insert(up.u, up.v),
                    ampc_graph::dynamic::UpdateKind::Delete => state.remove(up.u, up.v),
                };
                prop_assert!(flipped, "{:?} was a no-op", up);
            }
        }
    }

    #[test]
    fn dynamic_maintained_equals_recompute(
        (n, pairs) in arb_graph(60, 120),
        seed in 0u64..500,
    ) {
        let g = build(n, &pairs);
        let p = AlgoParams {
            dyn_batches: 3,
            dyn_ops: 20,
            dyn_mix: BatchMix::Churn,
            dyn_seed: seed,
            ..Default::default()
        };
        let [a, m] = [Model::Ampc, Model::Mpc].map(|model| {
            run_family_with("dyn-cc", model, &AlgoInput::Unweighted(&g), &cfg(seed), &p)
                .expect("registered")
                .output
        });
        prop_assert_eq!(a, m, "maintained vs recompute, seed {}", seed);
    }
}
