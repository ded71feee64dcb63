//! The record of one workload run as JSON — what a worker hands its
//! runner, what `result.json` holds per workload — and `compare`, which
//! judges two result files by the bounds the metric table fixes.

use crate::jsonw::{self, Obj};
use crate::metrics::{self, Rule};
use crate::stats::{iqr_share, median, quartiles};
use crate::worker::Outcome;
use ampc_bench::json::{parse_json, Json};

/// One workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// No repetition failed and nothing was measured wrongly.
    pub correct: bool,
    /// Repetitions started.
    pub attempted: u64,
    /// Repetitions failed.
    pub failed: u64,
    /// Why, one line each.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Wall time of each timed repetition, seconds.
    pub samples: Vec<f64>,
    /// Everything that must repeat exactly, as `key → number text`
    /// (numbers stay text: the digest is a full-width `u64`).
    pub counts: Vec<(String, String)>,
}

impl Record {
    /// The record of a finished run.
    pub fn of(outcome: &Outcome) -> Record {
        let counts = outcome.counts.map_or_else(Vec::new, |c| {
            [
                ("digest", c.digest),
                ("sim_ns", c.sim_ns),
                ("shuffles", c.shuffles as u64),
                ("kv_rounds", c.kv_rounds as u64),
                ("stages", c.stages as u64),
                ("epochs", c.epochs as u64),
                ("replays", c.replays),
                ("ops", c.ops),
                ("peak_generation_bytes", c.peak_generation_bytes),
                ("queries", c.comm.queries),
                ("writes", c.comm.writes),
                ("batches", c.comm.batches),
                ("bytes_read", c.comm.bytes_read),
                ("bytes_written", c.comm.bytes_written),
                ("cache_hits", c.comm.cache_hits),
                ("retries", c.comm.retries),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
        });
        Record {
            workload: outcome.workload.name.to_string(),
            correct: outcome.correct(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            errors: outcome.errors.clone(),
            metrics: outcome
                .metrics
                .iter()
                .map(|(d, v)| (d.name.to_string(), v, d.unit.to_string()))
                .collect(),
            samples: outcome.samples.clone(),
            counts,
        }
    }

    /// A run that could not be made at all.
    pub fn refused(workload: &str, why: String) -> Record {
        Record {
            workload: workload.to_string(),
            correct: false,
            attempted: 1,
            failed: 1,
            errors: vec![why],
            metrics: Vec::new(),
            samples: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The value of a metric, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Sets (or adds) a metric.
    pub fn set_metric(&mut self, name: &str, value: f64, unit: &str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self
                .metrics
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// Marks the run as wrong.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.failed = self.failed.max(1);
        self.errors.push(why);
    }

    fn metrics_json(&self) -> String {
        let mut o = Obj::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Obj::new();
            m.num("value", *value).str("unit", unit);
            o.raw(name, &m.finish());
        }
        o.finish()
    }

    /// The last line of a contract run: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn strict_line(&self) -> String {
        let mut o = Obj::new();
        o.bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", &self.metrics_json());
        o.finish()
    }

    /// The full record, on one line.
    pub fn to_json(&self) -> String {
        let mut counts = Obj::new();
        for (k, v) in &self.counts {
            counts.raw(k, v);
        }
        let (q1, q3) = quartiles(&self.samples);
        let mut o = Obj::new();
        o.str("workload", &self.workload)
            .bool("correct", self.correct)
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .num(
                "failed_share",
                self.failed as f64 / self.attempted.max(1) as f64,
            )
            .raw(
                "errors",
                &jsonw::array(self.errors.iter().map(|e| jsonw::string(e))),
            )
            .raw("metrics", &self.metrics_json())
            .num("n", self.samples.len() as f64)
            .num("wall_median_s", median(&self.samples))
            .num("wall_q1_s", q1)
            .num("wall_q3_s", q3)
            .raw(
                "samples",
                &jsonw::array(self.samples.iter().map(|&s| jsonw::number(s))),
            )
            .raw("counts", &counts.finish());
        o.finish()
    }

    /// Reads a record back.
    pub fn from_json(v: &Json) -> Result<Record, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("record: no {k:?}"));
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("record: metrics is not an object".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("record: metric {name:?} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counts = match v.get("counts") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, n)| match n {
                    Json::Num(text) => Some((k.clone(), text.clone())),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        let list = |k: &str| v.get(k).and_then(Json::as_arr).unwrap_or(&[]);
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("record: workload is not a string")?
                .to_string(),
            correct: field("correct")? == &Json::Bool(true),
            attempted: field("attempted")?.as_u64().ok_or("record: attempted")?,
            failed: field("failed")?.as_u64().ok_or("record: failed")?,
            errors: list("errors")
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            metrics,
            samples: list("samples").iter().filter_map(Json::as_f64).collect(),
            counts,
        })
    }
}

/// A whole `run` or `trace`: one record per workload plus where and how
/// it was measured.
pub fn result_json(
    kind: &str,
    seed: u64,
    seconds: u64,
    nproc: usize,
    records: &[Record],
) -> String {
    let mut o = Obj::new();
    o.str("benchmark", "ampc")
        .str("kind", kind)
        .num("seed", seed as f64)
        .num("seconds", seconds as f64)
        .num("nproc", nproc as f64)
        .num("threads", crate::THREADS as f64)
        .raw(
            "workloads",
            &format!(
                "[\n  {}\n]",
                records
                    .iter()
                    .map(Record::to_json)
                    .collect::<Vec<_>>()
                    .join(",\n  ")
            ),
        );
    format!("{}\n", o.finish())
}

/// Reads the records of a result file.
pub fn parse_result(text: &str) -> Result<Vec<Record>, String> {
    let v = parse_json(text)?;
    v.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("result: no workloads array")?
        .iter()
        .map(Record::from_json)
        .collect()
}

/// Verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// An exact metric moved: a semantic change.
    Changed,
    /// The base reports it and the change does not.
    Missing,
    /// On either side the repetitions' inter-quartile range is wider
    /// than the bound, so the two sides cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn token(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Changed => "CHANGED",
            Verdict::Missing => "MISSING",
            Verdict::Unresolved => "unresolved",
        }
    }

    /// Whether the row makes `compare` exit non-zero.
    pub fn is_bad(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Changed | Verdict::Missing
        )
    }
}

/// One row of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Base value.
    pub a: f64,
    /// Changed value (0 when missing).
    pub b: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// Judges `b` (the change) against `a` (the base): one row per workload
/// and judged metric of the base. "No regression" means: the change's
/// value is not worse than the base's by more than [`metrics::BOUND`] of
/// the base (`wall_s` is the fastest timed repetition of a run), exact
/// metrics and counts are identical, nothing failed, and nothing the base
/// reports is missing. Metrics reported for reading only get no row.
pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a {
        let mut row = |metric: &str, va: f64, vb: f64, verdict: Verdict| {
            rows.push(Row {
                workload: ra.workload.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                verdict,
            });
        };
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            row("(workload)", 0.0, 0.0, Verdict::Missing);
            continue;
        };
        let spread = iqr_share(&ra.samples).max(iqr_share(&rb.samples));
        // Every run of the change beats every run of the base.
        let disjoint_better = match (
            rb.samples.iter().copied().reduce(f64::max),
            ra.samples.iter().copied().reduce(f64::min),
        ) {
            (Some(worst_b), Some(best_a)) => worst_b < best_a,
            _ => false,
        };
        let failed_share = |r: &Record| r.failed as f64 / r.attempted.max(1) as f64;
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        let failed_verdict = if fb > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
        row("failed_share", fa, fb, failed_verdict);
        for (name, va, _) in &ra.metrics {
            let Some(vb) = rb.metric(name) else {
                row(name, *va, 0.0, Verdict::Missing);
                continue;
            };
            let verdict = match metrics::lookup(name).map(|d| (d.rule, d.better)) {
                None | Some((Rule::Info, _)) => continue,
                Some((Rule::Exact, _)) if *va == vb => Verdict::Unchanged,
                Some((Rule::Exact, _)) => Verdict::Changed,
                Some((Rule::Bounded, better)) => {
                    let worse_by = if better == "lower" { vb - va } else { va - vb };
                    let slack = metrics::BOUND * va.abs();
                    let timing = matches!(name.as_str(), "wall_s" | "work_per_s");
                    if timing && spread > metrics::BOUND && !disjoint_better {
                        Verdict::Unresolved
                    } else if worse_by > slack {
                        Verdict::Regressed
                    } else if -worse_by > slack {
                        Verdict::Improved
                    } else {
                        Verdict::Unchanged
                    }
                }
            };
            row(name, *va, vb, verdict);
        }
        for (k, ca) in &ra.counts {
            let cb = rb.counts.iter().find(|(kb, _)| kb == k).map(|(_, v)| v);
            if cb != Some(ca) {
                let num = |s: Option<&String>| s.and_then(|s| s.parse().ok()).unwrap_or(0.0);
                let verdict = if cb.is_some() {
                    Verdict::Changed
                } else {
                    Verdict::Missing
                };
                row(&format!("counts.{k}"), num(Some(ca)), num(cb), verdict);
            }
        }
    }
    rows
}

/// The comparison as text.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<32} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "base", "change", "delta"
    );
    for r in rows {
        let delta = if r.a != 0.0 && r.verdict != Verdict::Missing {
            format!("{:+.1}%", (r.b - r.a) / r.a.abs() * 100.0)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<14} {:<32} {:>16.6} {:>16.6} {:>9}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            delta,
            r.verdict.token()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(wall: &[f64], kv_bytes: f64) -> Record {
        let med = crate::stats::fastest(wall);
        Record {
            workload: "mis-tw".into(),
            correct: true,
            attempted: wall.len() as u64 + 1,
            failed: 0,
            errors: vec!["a \"quoted\" reason".into()],
            metrics: vec![
                ("wall_s".into(), med, "s".into()),
                ("work_per_s".into(), 100.0 / med, "units/s".into()),
                ("setup_s".into(), 1.0, "s".into()),
                ("dht.kv_bytes".into(), kv_bytes, "bytes".into()),
                ("core.kernel_s".into(), med, "s".into()),
            ],
            samples: wall.to_vec(),
            counts: vec![("digest".into(), u64::MAX.to_string())],
        }
    }

    fn cmp(base: &Record, change: &Record) -> Vec<Row> {
        compare(std::slice::from_ref(base), std::slice::from_ref(change))
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn records_survive_a_round_trip_and_the_strict_line_has_four_keys() {
        let r = record(&[1.0, 1.01, 0.99], 4096.0);
        let text = result_json("run", 20, 8, 2, std::slice::from_ref(&r));
        assert_eq!(parse_result(&text).unwrap(), vec![r.clone()]);
        let Json::Obj(fields) = parse_json(&r.strict_line()).unwrap() else {
            panic!("strict line is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(parse_result("{}").is_err());
    }

    #[test]
    fn compare_applies_the_bound_exactness_and_spread() {
        let base = record(&[1.00, 1.01, 0.99, 1.00], 4096.0);
        let same = cmp(&base, &record(&[1.20, 1.21, 1.19, 1.20], 4096.0));
        assert_eq!(verdict(&same, "wall_s"), Verdict::Unchanged);
        assert_eq!(verdict(&same, "dht.kv_bytes"), Verdict::Unchanged);
        assert_eq!(verdict(&same, "failed_share"), Verdict::Unchanged);
        assert!(
            same.iter().all(|r| r.metric != "core.kernel_s"),
            "metrics for reading only get no row"
        );

        let slow = cmp(&base, &record(&[1.30, 1.31, 1.29, 1.30], 4097.0));
        assert_eq!(verdict(&slow, "wall_s"), Verdict::Regressed);
        assert_eq!(verdict(&slow, "work_per_s"), Verdict::Unchanged);
        assert_eq!(verdict(&slow, "dht.kv_bytes"), Verdict::Changed);
        let slower = cmp(&base, &record(&[1.40, 1.41, 1.39, 1.40], 4096.0));
        assert_eq!(verdict(&slower, "work_per_s"), Verdict::Regressed);

        let fast = cmp(&base, &record(&[0.70, 0.71, 0.69, 0.70], 4096.0));
        assert_eq!(verdict(&fast, "wall_s"), Verdict::Improved);

        // The repetitions' inter-quartile range is wider than the bound:
        // not "unchanged" …
        let noisy = cmp(&base, &record(&[0.8, 1.4, 1.3, 0.9], 4096.0));
        assert_eq!(verdict(&noisy, "wall_s"), Verdict::Unresolved);
        // … unless every run of the change beats every run of the base.
        let clear = cmp(&base, &record(&[0.3, 0.6, 0.5, 0.35], 4096.0));
        assert_eq!(verdict(&clear, "wall_s"), Verdict::Improved);

        let mut broken = base.clone();
        broken.fail("digest differs".into());
        broken.counts[0].1 = "7".into();
        let rows = cmp(&base, &broken);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "counts.digest"), Verdict::Changed);
        assert!(render_rows(&rows).contains("REGRESSED"));
    }

    #[test]
    fn compare_reports_what_the_change_no_longer_reports() {
        let base = record(&[1.00, 1.01, 0.99, 1.00], 4096.0);
        let mut partial = base.clone();
        partial
            .metrics
            .retain(|m| m.0 != "setup_s" && m.0 != "core.kernel_s");
        partial.counts.clear();
        let rows = cmp(&base, &partial);
        assert_eq!(verdict(&rows, "setup_s"), Verdict::Missing);
        assert_eq!(verdict(&rows, "core.kernel_s"), Verdict::Missing);
        assert_eq!(verdict(&rows, "counts.digest"), Verdict::Missing);
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Unchanged);

        let rows = compare(std::slice::from_ref(&base), &[]);
        assert_eq!(verdict(&rows, "(workload)"), Verdict::Missing);
        assert!(rows.iter().all(|r| r.verdict.is_bad()));
        assert!(render_rows(&rows).contains("MISSING"));
    }
}
