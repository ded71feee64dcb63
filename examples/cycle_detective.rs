//! The 1-vs-2-cycle showdown (§5.6): the problem that separates AMPC
//! from MPC. Generates both instances at several sizes, answers them
//! with the O(1)-round AMPC sampler and with the MPC local-contraction
//! baseline, and prints the round/time gap.
//!
//! ```sh
//! cargo run --release --example cycle_detective
//! ```

use ampc::prelude::*;
use ampc_bench::registry::run_family;
use ampc_core::one_vs_two::CycleAnswer;
use ampc_dht::cost::format_ns;
use ampc_graph::gen::CyclePair;

fn main() {
    let cfg = AmpcConfig::default();
    println!(
        "{:>9} {:>6} | {:>22} | {:>22} | {:>8}",
        "k", "truth", "AMPC (shuffles, time)", "MPC (shuffles, time)", "speedup"
    );

    for &k in &[100_000usize, 500_000, 2_000_000] {
        for variant in [CyclePair::One, CyclePair::Two] {
            let g = variant.generate(k, 99 + k as u64);
            let truth = match variant {
                CyclePair::One => CycleAnswer::One,
                CyclePair::Two => CycleAnswer::Two,
            };

            // Both models through their registry rows; each must be right.
            let [a, m] = [Model::Ampc, Model::Mpc].map(|model| {
                let run = run_family("one-vs-two", model, &AlgoInput::Unweighted(&g), &cfg)
                    .expect("a 2-regular input");
                let AlgoOutput::Cycles { answer, .. } = run.output else {
                    unreachable!("the one-vs-two rows return a cycle answer")
                };
                assert_eq!(
                    answer,
                    truth,
                    "{} wrong on k={k} {variant:?}",
                    model.token()
                );
                run.report
            });

            let speedup = m.sim_ns() as f64 / a.sim_ns() as f64;
            println!(
                "{:>9} {:>6} | {:>9} {:>12} | {:>9} {:>12} | {:>7.2}x",
                k,
                format!("{truth:?}"),
                a.num_shuffles(),
                format_ns(a.sim_ns()),
                m.num_shuffles(),
                format_ns(m.sim_ns()),
                speedup,
            );
        }
    }

    println!("\nAs in the paper, the AMPC sampler answers with a single shuffle");
    println!("while the MPC baseline pays 3 shuffles per halving iteration.");
}
