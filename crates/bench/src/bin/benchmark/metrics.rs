//! The metric names, units and directions — the single list that the
//! worker emits, `BENCHMARK.json` declares and `compare` judges by.

/// How `compare` judges a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// A timing or size: may worsen by at most [`BOUND`] of the base.
    Bounded,
    /// A pure function of (seed, kernel): any movement is a semantic
    /// change, never noise.
    Exact,
    /// Reported for reading only.
    Info,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression rule.
    pub rule: Rule,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    rule: Rule,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        rule,
    }
}

/// The one regression bound: the share of the base by which an
/// end-to-end metric may worsen. `BENCHMARK.json` declares it (`bound`)
/// and `compare` applies it; there is no second, tighter rule. It is the
/// widest the contract allows because the sandbox cannot resolve less:
/// ten runs on ten seeds spread by 2-10 % of their median in a quiet hour
/// and by up to 25 % when the host is busy.
pub const BOUND: f64 = 0.25;
const _: () = assert!(BOUND > 0.0 && BOUND <= 0.25);

/// What a user of the system sees, measured with tracing off. Every one
/// is non-zero on every workload.
pub const END_TO_END: [MetricDef; 4] = [
    def("wall_s", "s", "lower", Rule::Bounded),
    def("work_per_s", "units/s", "higher", Rule::Bounded),
    def("setup_s", "s", "lower", Rule::Bounded),
    def("peak_rss_mib", "MiB", "lower", Rule::Bounded),
];

const INFO: Rule = Rule::Info;
const EXACT: Rule = Rule::Exact;

/// Single-layer metrics, from the traced run. Layers are the crates; the
/// prefix names the layer. A metric that does not apply to a workload
/// (a graph probe on a chase workload, the wire on a flat one) reads 0.
pub const PER_LAYER: [MetricDef; 63] = [
    // The paper's own axes (§6 cost model, Table 3, Fig. 3/9): exact.
    def("model.sim_s", "sim_s", "lower", EXACT),
    def("model.shuffles", "count", "lower", EXACT),
    def("model.kv_rounds", "count", "lower", EXACT),
    // core: the kernel as the registry runs it.
    def("core.kernel_s", "s", "lower", INFO),
    def("core.stage_kv_s", "s", "lower", INFO),
    def("core.stage_local_s", "s", "lower", INFO),
    def("core.unattributed_s", "s", "lower", INFO),
    def("core.unattributed_share", "ratio", "lower", INFO),
    def("core.top_stage_share", "ratio", "lower", INFO),
    def("core.ops", "count", "lower", EXACT),
    def("core.prim_filter_ns_per_elem", "ns", "lower", INFO),
    def("core.prim_sort_ns_per_elem", "ns", "lower", INFO),
    // dht: accounting, then the store timed from outside.
    def("dht.queries", "count", "lower", EXACT),
    def("dht.round_trips", "count", "lower", EXACT),
    def("dht.kv_bytes", "bytes", "lower", EXACT),
    def("dht.cache_hits", "count", "higher", EXACT),
    def("dht.cache_hit_ratio", "ratio", "higher", EXACT),
    def("dht.peak_generation_bytes", "bytes", "lower", EXACT),
    def("dht.retries", "count", "lower", EXACT),
    def("dht.put_ns_per_key", "ns", "lower", INFO),
    def("dht.seal_ns_per_key", "ns", "lower", INFO),
    def("dht.seal_ns_per_byte", "ns", "lower", INFO),
    def("dht.get_ns_per_key", "ns", "lower", INFO),
    def("dht.drop_s", "s", "lower", INFO),
    // wire: dht::socket + dht::wire.
    def("wire.requests", "count", "lower", INFO),
    def("wire.bytes", "bytes", "lower", INFO),
    def("wire.reconnects", "count", "lower", INFO),
    def("wire.spawns", "count", "lower", INFO),
    def("wire.spawn_fleet_s", "s", "lower", INFO),
    def("wire.seal_offload_s", "s", "lower", INFO),
    def("wire.read_extra_s", "s", "lower", INFO),
    def("wire.drop_s", "s", "lower", INFO),
    def("wire.ns_per_byte", "ns", "lower", INFO),
    def("wire.ns_per_request", "ns", "lower", INFO),
    def("wire.gap_x", "ratio", "higher", INFO),
    def("wire.codec_encode_ns_per_byte", "ns", "lower", INFO),
    def("wire.codec_decode_ns_per_byte", "ns", "lower", INFO),
    // runtime: job, executor, pool.
    def("runtime.stages", "count", "lower", EXACT),
    def("runtime.epochs", "count", "lower", EXACT),
    def("runtime.replays", "count", "lower", EXACT),
    def("runtime.round_overhead_us", "us", "lower", INFO),
    def("runtime.round_overhead_p100_us", "us", "lower", INFO),
    def("runtime.shuffle_ns_per_record", "ns", "lower", INFO),
    def("runtime.par_speedup_t2", "ratio", "higher", INFO),
    // trees.
    def("trees.find_roots_ns_per_node", "ns", "lower", INFO),
    def("trees.union_find_ns_per_edge", "ns", "lower", INFO),
    // graph.
    def("graph.gen_s", "s", "lower", INFO),
    def("graph.gen_medges_per_s", "Medges/s", "higher", INFO),
    def("graph.nodes", "count", "lower", EXACT),
    def("graph.edges", "count", "lower", EXACT),
    def("graph.max_degree", "count", "lower", EXACT),
    def("graph.dyn_schedule_s", "s", "lower", INFO),
    // mpc: the same family under Model::Mpc, once.
    def("mpc.wall_s", "s", "lower", INFO),
    def("mpc.sim_s", "sim_s", "lower", EXACT),
    def("mpc.shuffles", "count", "lower", EXACT),
    def("mpc.sim_speedup", "ratio", "higher", EXACT),
    // bench: the measurement itself.
    def("bench.traced_wall_s", "s", "lower", INFO),
    def("bench.untraced_wall_s", "s", "lower", INFO),
    def("bench.trace_overhead_pct", "%", "lower", INFO),
    def("bench.wall_iqr_pct", "%", "lower", INFO),
    def("bench.rep_cover_pct", "%", "higher", INFO),
    def("bench.reps", "count", "higher", INFO),
    def("bench.probe_s", "s", "lower", INFO),
];

/// Looks a metric up in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Measured values for one declared table, in the table's order; a value
/// never set reads 0.
#[derive(Clone, Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    /// All of `defs`, at 0.
    pub fn zeroed(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics if `name` is not in the table — a misspelt metric must not
    /// silently vanish from the output.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values[i] = value;
    }

    /// The value of a declared metric (0 if never set or not declared).
    pub fn get(&self, name: &str) -> f64 {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .map_or(0.0, |i| self.values[i])
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/%".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                well_formed(d.name, 64) && !d.name.contains(['/', '%']),
                "{}",
                d.name
            );
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(d.unit, 16), "{}: unit {}", d.name, d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(END_TO_END.iter().all(|d| d.rule == Rule::Bounded));
        assert!(PER_LAYER.iter().all(|d| d.rule != Rule::Bounded));
    }

    #[test]
    fn metrics_default_to_zero_and_keep_table_order() {
        let mut m = Metrics::zeroed(&END_TO_END);
        m.set("wall_s", 0.25);
        assert_eq!(m.get("wall_s"), 0.25);
        assert_eq!(m.get("setup_s"), 0.0);
        let names: Vec<&str> = m.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names[0], "wall_s");
        assert_eq!(names.len(), END_TO_END.len());
        assert!(lookup("wire.gap_x").is_some() && lookup("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::zeroed(&END_TO_END).set("wal_s", 1.0);
    }
}
