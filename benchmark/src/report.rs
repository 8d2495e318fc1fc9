//! The metric catalogue and the result a run prints.
//!
//! `BENCHMARK.json` at the repository root mirrors [`END_TO_END`] and
//! [`PER_LAYER`] (names and units) and adds each end-to-end metric's
//! regression bound; the smoke test keeps the two in step.

use sts_obs::json::{write_json_f64, write_json_str};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates).
    Higher,
    /// Smaller is better (times, memory).
    Lower,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of each workload sees, measured with tracing off. Every
/// workload reports every one of these; `BENCHMARK.md` gives the
/// per-workload meaning of each.
pub const END_TO_END: &[MetricDef] = &[
    def("pairs_per_s", "pairs/s", Higher),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p99_ms", "ms", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Single-layer metrics, printed by the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("stats.kde.build_us", "us", Lower),
    def("core.noise.obs_dists_us", "us", Lower),
    def("core.sts.prepare_share", "fraction", Lower),
    def("core.stprob.bridge_us", "us", Lower),
    def("core.stprob.bridge_cells", "cells", Lower),
    def("core.stprob.observed_us", "us", Lower),
    def("core.stprob.share", "fraction", Lower),
    def("core.stpcache.evals_per_pair", "evals/pair", Lower),
    def("core.stpcache.hit_ratio", "fraction", Higher),
    def("core.colocation.dot_ns", "ns", Lower),
    def("core.colocation.share", "fraction", Lower),
    def("runtime.pool.busy_share", "fraction", Higher),
    def("runtime.pool.chunks", "count", Lower),
    def("runtime.store.write_ms", "ms", Lower),
    def("runtime.store.bytes_per_cell", "B/cell", Lower),
    def("runtime.tile.spilled", "count", Lower),
    def("core.shard.workers_spawned", "count", Lower),
    def("core.shard.tiles_leased", "count", Lower),
    def("core.shard.leases_expired", "count", Lower),
    def("core.shard.local_fallback", "count", Lower),
    def("eval.match_precision", "fraction", Higher),
    def("serve.client.ingest_ack_p50_ms", "ms", Lower),
    def("serve.client.ingest_ack_p99_ms", "ms", Lower),
    def("serve.client.topk_p90_ms", "ms", Lower),
    def("serve.client.sustained_ingest_rps", "1/s", Higher),
    def("serve.client.recovery_s", "s", Lower),
    def("serve.state.apply_us", "us", Lower),
    def("serve.state.coloc_cold_ms", "ms", Lower),
    def("serve.state.coloc_warm_ms", "ms", Lower),
    def("serve.state.topk_ms", "ms", Lower),
    def("serve.wal.commit_ms_p50", "ms", Lower),
    def("serve.wal.commit_ms_p99", "ms", Lower),
    def("serve.wal.bytes_per_record", "B/record", Lower),
    def("serve.wal.records_per_commit", "records", Higher),
    def("serve.wal.replay_ms", "ms", Lower),
    def("serve.snapshot.write_ms", "ms", Lower),
    def("serve.server.shed_busy", "count", Lower),
    def("serve.server.queue_depth_max", "count", Lower),
    def("serve.server.refresh_deferred", "count", Lower),
    def("serve.server.queries_deadline", "count", Lower),
    def("isolate.protocol.hello_rtt_us", "us", Lower),
    def("bench.gen_lag_ms_p99", "ms", Lower),
    def("bench.trace_coverage", "fraction", Higher),
    def("bench.trace_overhead_pct", "%", Lower),
];

/// Looks a metric up in either catalogue.
pub fn find_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named measurements a workload produced, in production order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name` (which must be catalogued).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find_def(name).is_some(), "metric {name} is not catalogued");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Adds every entry of `other`, replacing equal names.
    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// The outcome of one workload run: the line the benchmark prints last.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Did every correctness check pass?
    pub correct: bool,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Everything measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Why a check failed, when one did.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The printed metric set: every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one. A missing
    /// end-to-end metric is a bug in the workload (panics); a missing
    /// per-layer metric is a layer the workload does not exercise (0).
    pub fn printed(&self, traced: bool) -> Vec<(&'static MetricDef, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|d| (d, self.metrics.get(d.name).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|d| {
                    let v = self.metrics.get(d.name);
                    (
                        d,
                        v.unwrap_or_else(|| panic!("workload did not measure {}", d.name)),
                    )
                })
                .collect()
        }
    }

    /// The result as one JSON object: `correct`, `attempted`, `failed`
    /// and `metrics` (name → `{value, unit}`).
    pub fn to_json(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (d, v)) in self.printed(traced).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_str(&mut out, d.name);
            out.push_str(": {\"value\": ");
            write_json_f64(&mut out, v);
            out.push_str(", \"unit\": ");
            write_json_str(&mut out, d.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// A human-readable table of the printed metrics.
    pub fn table(&self, workload: &str, traced: bool) -> String {
        let mut out = format!(
            "{workload}: correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        );
        for problem in &self.problems {
            out.push_str(&format!("  CHECK FAILED: {problem}\n"));
        }
        for (d, v) in self.printed(traced) {
            out.push_str(&format!("  {:<36} {:>14.4} {}\n", d.name, v, d.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
    }

    #[test]
    fn json_line_carries_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        for d in END_TO_END {
            metrics.set(d.name, 1.5);
        }
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
            problems: Vec::new(),
        };
        let line = r.to_json(false);
        assert!(sts_obs::json::is_valid_json(&line), "{line}");
        let v = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("pairs_per_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("pairs/s"));
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        // The traced form prints every per-layer metric, unmeasured ones as 0.
        let traced = crate::json::parse(&r.to_json(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
