//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric: `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Untraced metrics every workload reports (`--trace 0`).
pub const END_TO_END: &[MetricDef] =
    &[("tokens_per_s", "1/s", "higher"), ("op_p50_us", "us", "lower"), ("setup_s", "s", "lower")];

/// Traced per-layer metrics (`--trace 1`). A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("trainer.step_ms.p50", "ms", "lower"),
    ("trainer.step_ms.p95", "ms", "lower"),
    ("trainer.step_ms.mean", "ms", "lower"),
    ("trainer.step_self_ms.p50", "ms", "lower"),
    ("trainer.final_loss", "loss", "lower"),
    ("collectives.allgather_tokens.ms_per_step", "ms", "lower"),
    ("collectives.allgather_tokens.calls_per_step", "count", "lower"),
    ("collectives.alltoall_dense.ms_per_step", "ms", "lower"),
    ("collectives.alltoall_dense.calls_per_step", "count", "lower"),
    ("collectives.alltoallv_sparse.ms_per_step", "ms", "lower"),
    ("collectives.alltoallv_sparse.calls_per_step", "count", "lower"),
    ("collectives.ring_allreduce.ms_per_step", "ms", "lower"),
    ("collectives.ring_allreduce.calls_per_step", "count", "lower"),
    ("collectives.allgather_dense.ms_per_step", "ms", "lower"),
    ("collectives.allgather_dense.calls_per_step", "count", "lower"),
    ("collectives.peer_wait_ms_per_step", "ms", "lower"),
    ("collectives.share", "ratio", "lower"),
    ("scheduler.queue_wait_ms_per_step", "ms", "lower"),
    ("scheduler.exec_ms_per_step", "ms", "lower"),
    ("scheduler.bytes_per_step", "bytes", "lower"),
    ("scheduler.chunks_per_step", "count", "lower"),
    ("ps.lookup.self_us.p50", "us", "lower"),
    ("ps.push.self_us.p50", "us", "lower"),
    ("ps.cache.hit_rate", "ratio", "higher"),
    ("ps.cache.hits", "count", "higher"),
    ("ps.cache.misses", "count", "lower"),
    ("ps.lookup.fetch_ratio", "ratio", "lower"),
    ("collectives.alltoallv_tokens.us_per_call", "us", "lower"),
    ("collectives.alltoall_dense.us_per_call", "us", "lower"),
    ("collectives.alltoallv_sparse.us_per_call", "us", "lower"),
    ("transport.bytes_sent_per_call", "bytes", "lower"),
    ("transport.msgs_sent_per_call", "count", "lower"),
    ("transport.copy_elimination_ratio", "ratio", "higher"),
    ("transport.recv_retries", "count", "lower"),
    ("serve.ops_per_s", "1/s", "higher"),
    ("serve.lookup_p50_us", "us", "lower"),
    ("serve.lookup_p99_us", "us", "lower"),
    ("serve.push_p50_us", "us", "lower"),
    ("serve.push_p99_us", "us", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("layers.coverage", "ratio", "higher"),
    ("ref.allgather_tokens_per_s", "1/s", "higher"),
    ("ref.embrace_over_allgather", "ratio", "higher"),
    ("ref.world1_tokens_per_s", "1/s", "higher"),
    ("ref.scaling_efficiency", "ratio", "higher"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one message each; empty means correct.
    pub check_failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the JSON result.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Record a named output check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.lines.push(format!("check ok: {what}")),
            Err(e) => self.check_failures.push(format!("{what}: {e}")),
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of the selected set. An end-to-end metric must
    /// have been measured and be positive; an unexercised layer reads 0.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, (name, unit, _)) in defs.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() || (!trace && value <= 0.0) {
                return Err(format!("metric {name} has unusable value {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(body, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("write to String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// The layer-sum rule: exclusive per-layer times must account for the
/// end-to-end time within 5%.
pub fn within_5pct(coverage: f64) -> Result<(), String> {
    if (coverage - 1.0).abs() <= 0.05 {
        Ok(())
    } else {
        Err(format!("layers account for {coverage:.4} of the end-to-end time"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embrace_obs::json;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_name_is_plain_and_carries_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} on {name}");
            assert!(["higher", "lower"].contains(better), "{name}: better = {better}");
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = json::parse(&doc).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = v
                .get(key)
                .and_then(json::Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::as_str).expect("string field");
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            assert_eq!(listed, defs.to_vec(), "{key} differs from the catalogue");
        }
    }

    #[test]
    fn result_line_refuses_missing_or_zero_end_to_end_metrics() {
        let mut o = Outcome { attempted: 1, ..Outcome::default() };
        o.set("tokens_per_s", 1.5);
        o.set("op_p50_us", 2.0);
        assert!(o.to_json(false).is_err(), "setup_s missing");
        o.set("setup_s", 0.0);
        assert!(o.to_json(false).is_err(), "setup_s zero");
        o.set("setup_s", 0.25);
        let line = o.to_json(false).expect("complete");
        let v = json::parse(&line).expect("valid json");
        assert_eq!(v.get("correct").map(|c| matches!(c, json::Value::Bool(true))), Some(true));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(m.as_obj().map(<[_]>::len), Some(END_TO_END.len()));
        let traced = json::parse(&o.to_json(true).expect("per-layer")).expect("valid json");
        let layers = traced.get("metrics").and_then(json::Value::as_obj).expect("metrics");
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
