//! `bench compare BASE NEW`: per-workload, per-metric verdicts between
//! two run-sets.
//!
//! A run-set is the JSONL file `bench --json OUT` appends to, one line
//! per workload run. Runs are paired by their order within a workload,
//! so record the two sides alternately (base, new, new, base, …) with
//! the same seeds. Verdicts follow the repository's measurement rules,
//! with each end-to-end metric's bound read from `BENCHMARK.json`:
//!
//! * **regressed** — the new median is worse than the base median by more
//!   than the bound;
//! * **unresolved** — otherwise, when the run-to-run spread (interquartile
//!   distance over median, on either side) is wider than the bound and
//!   the new runs do not all read better than all base runs;
//! * **improved** — the new side wins at least nine of ten pairs (ties
//!   count for neither) and the medians differ by more than the base
//!   side's interquartile distance;
//! * **unchanged** — otherwise.
//!
//! Per-layer metrics carry no bound and are listed with their deltas
//! only.

use crate::json::{self, Value};
use crate::report::Better;
use crate::timing::Band;
use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecMetric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which way is better.
    pub better: Better,
    /// Regression bound as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric declarations of `BENCHMARK.json`, end-to-end first.
pub fn load_spec(text: &str) -> Result<Vec<SpecMetric>, String> {
    let doc = json::parse(text)?;
    let mut out = Vec::new();
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        for m in list {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a {key} entry has no {f}"))
            };
            let better = match field("better")?.as_str() {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("unknown direction {other:?}")),
            };
            let bound = if bounded {
                Some(
                    m.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or(format!("{} has no bound", field("name")?))?,
                )
            } else {
                None
            };
            out.push(SpecMetric {
                name: field("name")?,
                unit: field("unit")?,
                better,
                bound,
            });
        }
    }
    Ok(out)
}

/// One recorded workload run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Did its checks pass?
    pub correct: bool,
    /// Operations it counted as failed.
    pub failed: f64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Runs of one run-set, per workload, in file order.
pub type RunSet = BTreeMap<String, Vec<Run>>;

/// Parses a run-set file (blank lines ignored).
pub fn load_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = json::parse(line).map_err(|e| bad(&e))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        let mut run = Run {
            correct: result
                .get("correct")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            failed: result.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
            metrics: BTreeMap::new(),
        };
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no metrics"))?
        {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                run.metrics.insert(name.clone(), value);
            }
        }
        set.entry(workload.to_string()).or_default().push(run);
    }
    Ok(set)
}

/// A comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
    /// Within the bound.
    Unchanged,
    /// Better by the nine-of-ten and spread rule.
    Improved,
    /// A per-layer metric: no bound, no verdict.
    Info,
}

impl Verdict {
    /// Printed form.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Info => "-",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// The metric's declaration.
    pub metric: SpecMetric,
    /// Base side band.
    pub base: Band,
    /// New side band.
    pub new: Band,
    /// Relative change of the median, positive when worse.
    pub worse_by: f64,
    /// Pairs the new side won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn is_better(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// Compares every declared metric on every workload both sides ran.
pub fn compare(spec: &[SpecMetric], base: &RunSet, new: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, base_runs) in base {
        let Some(new_runs) = new.get(workload) else {
            continue;
        };
        for metric in spec {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&metric.name).copied())
                    .collect()
            };
            let (b, n) = (values(base_runs), values(new_runs));
            let (Some(bb), Some(nb)) = (Band::of(&b), Band::of(&n)) else {
                continue;
            };
            let sign = match metric.better {
                Better::Higher => -1.0,
                Better::Lower => 1.0,
            };
            let worse_by = if bb.median != 0.0 {
                sign * (nb.median - bb.median) / bb.median.abs()
            } else {
                0.0
            };
            let pairs = b.len().min(n.len());
            let wins = (0..pairs)
                .filter(|&i| is_better(metric.better, n[i], b[i]))
                .count();
            let verdict = match metric.bound {
                None => Verdict::Info,
                Some(bound) => {
                    let spread = bb.relative_iqr().max(nb.relative_iqr());
                    let all_better = n
                        .iter()
                        .all(|&x| b.iter().all(|&y| is_better(metric.better, x, y)));
                    if worse_by > bound {
                        Verdict::Regressed
                    } else if spread > bound && !all_better {
                        Verdict::Unresolved
                    } else if worse_by < 0.0
                        && pairs > 0
                        && wins * 10 >= pairs * 9
                        && (nb.median - bb.median).abs() > bb.q3 - bb.q1
                    {
                        Verdict::Improved
                    } else {
                        Verdict::Unchanged
                    }
                }
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: bb,
                new: nb,
                worse_by,
                wins,
                pairs,
                verdict,
            });
        }
    }
    rows
}

/// Runs whose checks failed, and failed operations, per side.
fn health(set: &RunSet, workload: &str) -> (usize, f64) {
    set.get(workload).map_or((0, 0.0), |runs| {
        (
            runs.iter().filter(|r| !r.correct).count(),
            runs.iter().map(|r| r.failed).sum(),
        )
    })
}

/// The comparison as a text table.
pub fn render(rows: &[Row], base: &RunSet, new: &RunSet) -> String {
    let mut out = String::new();
    let mut workload = "";
    for r in rows {
        if r.workload != workload {
            workload = &r.workload;
            let (bi, bf) = health(base, workload);
            let (ni, nf) = health(new, workload);
            out.push_str(&format!(
                "\n{workload}  (incorrect runs {bi} -> {ni}, failed ops {bf} -> {nf})\n"
            ));
            out.push_str(&format!(
                "  {:<34} {:>10} {:>30} {:>30} {:>7} {:>7} {:>7} {:>6}  {}\n",
                "metric",
                "unit",
                "base median [q1, q3]",
                "new median [q1, q3]",
                "spread",
                "bound",
                "worse",
                "wins",
                "verdict"
            ));
        }
        let band = |b: &Band| format!("{:.4} [{:.4}, {:.4}]", b.median, b.q1, b.q3);
        let spread = r.base.relative_iqr().max(r.new.relative_iqr());
        out.push_str(&format!(
            "  {:<34} {:>10} {:>30} {:>30} {:>6.1}% {:>7} {:>6.1}% {:>3}/{:<2}  {}\n",
            r.metric.name,
            r.metric.unit,
            band(&r.base),
            band(&r.new),
            spread * 100.0,
            r.metric
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.worse_by * 100.0,
            r.wins,
            r.pairs,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<SpecMetric> {
        let doc = r#"{"end_to_end": [
            {"name": "pairs_per_s", "unit": "pairs/s", "better": "higher", "bound": 0.1},
            {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
          "per_layer": [{"name": "core.stprob.bridge_us", "unit": "us", "better": "lower"}]}"#;
        load_spec(doc).unwrap()
    }

    /// Ten runs around `rate` pairs/s and `ms` ms with ±1% jitter.
    fn runs(rate: f64, ms: f64, phase: usize) -> RunSet {
        let mut set = RunSet::new();
        for i in 0..10 {
            let jitter = 1.0 + 0.01 * (((i + phase) * 7 % 5) as f64 - 2.0) / 2.0;
            let mut run = Run {
                correct: true,
                ..Run::default()
            };
            run.metrics.insert("pairs_per_s".into(), rate * jitter);
            run.metrics.insert("latency_p50_ms".into(), ms * jitter);
            run.metrics
                .insert("core.stprob.bridge_us".into(), 5.0 * jitter);
            set.entry("w".into()).or_default().push(run);
        }
        set
    }

    fn verdict(rows: &[Row], name: &str) -> Verdict {
        rows.iter().find(|r| r.metric.name == name).unwrap().verdict
    }

    #[test]
    fn flags_a_two_fold_slowdown() {
        let rows = compare(&spec(), &runs(100.0, 10.0, 0), &runs(50.0, 20.0, 3));
        assert_eq!(verdict(&rows, "pairs_per_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "latency_p50_ms"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "core.stprob.bridge_us"), Verdict::Info);
    }

    #[test]
    fn stays_quiet_on_a_rerun() {
        let rows = compare(&spec(), &runs(100.0, 10.0, 0), &runs(100.0, 10.0, 3));
        assert_eq!(verdict(&rows, "pairs_per_s"), Verdict::Unchanged);
        assert_eq!(verdict(&rows, "latency_p50_ms"), Verdict::Unchanged);
    }

    #[test]
    fn calls_a_consistent_two_fold_speedup_improved() {
        let rows = compare(&spec(), &runs(100.0, 10.0, 0), &runs(200.0, 5.0, 3));
        assert_eq!(verdict(&rows, "pairs_per_s"), Verdict::Improved);
        assert_eq!(verdict(&rows, "latency_p50_ms"), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let mut noisy = runs(100.0, 10.0, 0);
        for (i, r) in noisy.get_mut("w").unwrap().iter_mut().enumerate() {
            let f = if i % 2 == 0 { 0.7 } else { 1.3 };
            *r.metrics.get_mut("pairs_per_s").unwrap() *= f;
        }
        let rows = compare(&spec(), &runs(100.0, 10.0, 0), &noisy);
        assert_eq!(verdict(&rows, "pairs_per_s"), Verdict::Unresolved);
        // Noise does not hide a slowdown beyond the bound.
        for r in noisy.get_mut("w").unwrap() {
            *r.metrics.get_mut("pairs_per_s").unwrap() /= 2.0;
        }
        let rows = compare(&spec(), &runs(100.0, 10.0, 0), &noisy);
        assert_eq!(verdict(&rows, "pairs_per_s"), Verdict::Regressed);
    }

    #[test]
    fn reads_run_lines() {
        let text = concat!(
            r#"{"workload": "w", "seed": 1, "traced": false, "result": {"correct": true, "attempted": 4, "failed": 1, "metrics": {"pairs_per_s": {"value": 12.5, "unit": "pairs/s"}}}}"#,
            "\n\n",
            r#"{"workload": "w", "seed": 2, "traced": false, "result": {"correct": false, "attempted": 4, "failed": 0, "metrics": {}}}"#,
        );
        let set = load_runs(text).unwrap();
        let w = &set["w"];
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].metrics["pairs_per_s"], 12.5);
        assert_eq!(health(&set, "w"), (1, 1.0));
        assert!(load_runs("{\"result\": {}}").is_err());
    }
}
