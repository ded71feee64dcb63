//! Single-linkage hierarchical clustering via the AMPC MSF.
//!
//! §1.1 of the paper: *"one can use this algorithm together with a
//! simple sorting step, and our connectivity algorithm to find any
//! desired level of a single-linkage hierarchical clustering."* That is
//! precisely this example: build a similarity graph over synthetic
//! points, compute its MSF with the constant-round pipeline, cut the
//! `k - 1` heaviest forest edges, and label the resulting clusters with
//! the forest-connectivity algorithm.
//!
//! ```sh
//! cargo run --release --example clustering
//! ```

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_graph::{GraphBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Synthetic 2-D points in `clusters` Gaussian-ish blobs.
fn make_points(n: usize, clusters: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<(f64, f64)> = (0..clusters)
        .map(|_| (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
        .collect();
    (0..n)
        .map(|i| {
            let (cx, cy) = centers[i % clusters];
            (
                cx + rng.gen_range(-20.0..20.0),
                cy + rng.gen_range(-20.0..20.0),
            )
        })
        .collect()
}

fn main() {
    let k = 5usize;
    let n = 3_000usize;
    let points = make_points(n, k, 11);

    // Similarity graph: connect each point to a window of neighbors
    // (a cheap stand-in for a kNN graph), weight = scaled distance.
    let mut b = GraphBuilder::with_capacity(n, n * 8);
    for i in 0..n {
        for d in 1..=8 {
            let j = (i + d * 37) % n; // scatter across blobs
            let (xi, yi) = points[i];
            let (xj, yj) = points[j];
            let dist = ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt();
            b.push_edge(i as NodeId, j as NodeId, (dist * 100.0) as u64);
        }
    }
    let graph = b.build_weighted();
    println!(
        "similarity graph: {} points, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    let cfg = AmpcConfig::default();

    // 1) Constant-round MSF.
    let forest = run_family("msf", Model::Ampc, &AlgoInput::Weighted(&graph), &cfg)
        .expect("a weighted input");
    let AlgoOutput::Forest(mut edges) = forest.output else {
        unreachable!("the msf row returns a forest")
    };
    println!(
        "MSF: {} edges in {} shuffles (sim {})",
        edges.len(),
        forest.report.num_shuffles(),
        ampc_dht::cost::format_ns(forest.report.sim_ns()),
    );

    // 2) The "simple sorting step": cut the k-1 heaviest forest edges.
    edges.sort_unstable_by_key(|e| e.w);
    edges.truncate(edges.len().saturating_sub(k - 1));

    // 3) Forest connectivity labels the clusters: the `cc/forest` row on
    //    the kept edges, which are their own minimum spanning forest.
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for e in &edges {
        b.push_edge(e.u, e.v, e.w);
    }
    let kept = b.build_weighted();
    let clusters = run_family("cc/forest", Model::Ampc, &AlgoInput::Weighted(&kept), &cfg)
        .expect("a weighted input");
    let AlgoOutput::Components(label) = clusters.output else {
        unreachable!("the cc/forest row returns labels")
    };
    // Labels are vertex ids, so cluster sizes count into a dense table.
    let mut sizes = vec![0usize; n];
    for &l in &label {
        sizes[l as usize] += 1;
    }
    sizes.retain(|&s| s > 0);
    sizes.sort_unstable_by_key(|&s| std::cmp::Reverse(s));
    println!("single-linkage cut at k = {k}: cluster sizes {sizes:?}");

    // Sanity: the top-k clusters should hold the vast majority of points.
    let covered: usize = sizes.iter().take(k).sum();
    println!(
        "top-{k} clusters cover {covered}/{n} points ({:.1}%)",
        100.0 * covered as f64 / n as f64
    );
}
