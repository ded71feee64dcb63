//! Runtime configuration.
//!
//! Environment knobs: every `AMPC_*` variable the workspace reads is
//! registered in the [`knobs`] registry re-exported here — `knobs::all()`
//! enumerates them with accepted values and defaults. The root
//! `clippy.toml` keeps raw `std::env::var` calls out of the rest of the
//! tree.

use crate::chaos::ChaosSpec;
use ampc_dht::cost::CostConfig;
use ampc_dht::store::StoreKind;

pub use ampc_knobs as knobs;

/// Configuration of a simulated AMPC/MPC execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AmpcConfig {
    /// Optional chaos schedule: explicit or seeded machine kills
    /// (preempt mid-stage, replay) and DHT batch drops with
    /// retry/backoff (see [`crate::chaos`]). `None` — the default
    /// unless the `AMPC_CHAOS` knob is set — disables injection.
    pub chaos: Option<ChaosSpec>,
    /// Number of machines `P`.
    pub num_machines: usize,
    /// The model's space exponent: each machine has `S = Θ(n^epsilon)`
    /// space (in items, i.e. graph words). The paper notes that in
    /// practice ε ≥ 1/2 (§2 footnote); our default is 0.75.
    pub epsilon: f64,
    /// Cost-model constants.
    pub cost: CostConfig,
    /// Whether the per-machine caching optimization (§5.3) is enabled.
    pub caching: bool,
    /// Concurrency of the simulation itself: how many machine bodies
    /// may execute at once. `1` (the forced value under
    /// `AMPC_THREADS=1`) runs every machine inline on the caller
    /// thread; higher values run them on the process-wide pool
    /// ([`ampc_dht::pool::par_map`]). Purely a
    /// wall-clock knob: outputs, round counts and `CommStats` are
    /// identical for every value. It is also the worker count of the
    /// job's seals. Defaults to `AMPC_THREADS`, falling back to the
    /// machine's available parallelism.
    pub threads: usize,
    /// Seed for all algorithm randomness (vertex/edge priorities,
    /// sampling). Two runs with equal seeds produce identical outputs.
    pub seed: u64,
    /// The store this job's generations seal on (DESIGN.md §12).
    /// Defaults to the `AMPC_STORE` knob ([`StoreKind::from_env`]).
    /// The job records it, with [`Self::threads`], on every writer it
    /// writes into, so the writer's `seal()` seals on this store at the
    /// job's thread count, whatever other jobs run beside it. Like the
    /// layout itself, purely an execution-strategy setting: outputs,
    /// round counts and `CommStats` are identical for every value.
    pub store: StoreKind,
    /// The "switch to in-memory" threshold used by the paper's MPC
    /// implementations: once a (sub)problem has at most this many edges
    /// it is solved on a single machine (§5.4: `s = 5 × 10⁷`, scaled
    /// down here with the datasets).
    pub in_memory_threshold: usize,
}

/// Default chaos schedule: the `AMPC_CHAOS` environment knob, parsed by
/// [`ChaosSpec::parse`] (a `chaos:` spec string or a bare seed). Unset,
/// empty, or malformed values disable chaos — the env default must
/// never panic library consumers; the CLI's `--chaos` flag is the loud
/// path for typos.
fn chaos_default() -> Option<ChaosSpec> {
    knobs::ampc_chaos().and_then(|v| ChaosSpec::parse(&v).ok())
}

impl Default for AmpcConfig {
    fn default() -> Self {
        AmpcConfig {
            chaos: chaos_default(),
            num_machines: 10,
            epsilon: 0.75,
            cost: CostConfig::default(),
            caching: true,
            threads: ampc_knobs::ampc_threads(),
            store: StoreKind::from_env(),
            seed: 0xA3C5,
            // Paper uses 5e7 on billion-edge graphs (~1/1000 of the
            // largest input); our bench analogues are ~1000x smaller.
            in_memory_threshold: 50_000,
        }
    }
}

impl AmpcConfig {
    /// A quick small configuration for tests.
    pub fn for_tests() -> Self {
        AmpcConfig {
            num_machines: 4,
            in_memory_threshold: 500,
            ..Default::default()
        }
    }

    /// Sets the machine count.
    pub fn with_machines(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one machine");
        self.num_machines = p;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables/disables the caching optimization.
    pub fn with_caching(mut self, caching: bool) -> Self {
        self.caching = caching;
        self
    }

    /// Sets the simulation's execution concurrency (see
    /// [`Self::threads`]; `1` means fully inline).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one executor thread");
        self.threads = threads;
        self
    }

    /// Sets the store this configuration's jobs seal on (see
    /// [`Self::store`]).
    pub fn with_store(mut self, kind: StoreKind) -> Self {
        self.store = kind;
        self
    }

    /// Arms a chaos schedule for jobs run under this configuration
    /// (see [`crate::chaos`]).
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The per-machine space `S = n^epsilon` (at least 16), in items.
    pub fn space_per_machine(&self, n: usize) -> u64 {
        ((n.max(2) as f64).powf(self.epsilon).ceil() as u64).max(16)
    }

    /// The per-search truncation budget `n^epsilon` used by the truncated
    /// query processes (§4.2, Algorithm 1's stopping condition (1) uses
    /// `n^{epsilon/2}` — see [`Self::prim_budget`]).
    pub fn search_budget(&self, n: usize) -> u64 {
        self.space_per_machine(n)
    }

    /// Algorithm 1's exploration budget `n^{epsilon/2}` per Prim search.
    pub fn prim_budget(&self, n: usize) -> u64 {
        ((n.max(2) as f64).powf(self.epsilon / 2.0).ceil() as u64).max(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_grows_with_epsilon() {
        let a = AmpcConfig {
            epsilon: 0.5,
            ..Default::default()
        };
        let b = AmpcConfig {
            epsilon: 0.9,
            ..Default::default()
        };
        assert!(a.space_per_machine(1_000_000) < b.space_per_machine(1_000_000));
    }

    #[test]
    fn prim_budget_is_sqrt_of_search_budget() {
        let cfg = AmpcConfig::default();
        let n = 1_000_000;
        let s = cfg.search_budget(n) as f64;
        let p = cfg.prim_budget(n) as f64;
        assert!((p * p / s - 1.0).abs() < 0.1, "p^2 = {} vs s = {s}", p * p);
    }

    #[test]
    fn builders_chain() {
        let cfg = AmpcConfig::default()
            .with_machines(3)
            .with_seed(9)
            .with_caching(false);
        assert_eq!(cfg.num_machines, 3);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.caching);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        AmpcConfig::default().with_machines(0);
    }

    #[test]
    fn minimum_space_floor() {
        let cfg = AmpcConfig::default();
        assert!(cfg.space_per_machine(2) >= 16);
        assert!(cfg.prim_budget(2) >= 4);
    }
}
