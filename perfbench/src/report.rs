//! The metric catalogue and the one-line JSON result of a run.

use std::collections::BTreeMap;

/// End-to-end metrics of a timed run, `(name, unit)`. Every workload
/// reports each of them; `README.md` says what each one measures on
/// each workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// Per-layer metrics of a traced run, `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("lp.solve_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.refactorizations", "count"),
    ("lp.ftran", "count"),
    ("lp.btran", "count"),
    ("lp.eta_updates", "count"),
    ("lp.warm_share", "share"),
    ("core.phase1_ms", "ms"),
    ("core.lp_build_ms", "ms"),
    ("core.rounding_ms", "ms"),
    ("core.list_ms", "ms"),
    ("core.ratio_vs_lb_mean", "ratio"),
    ("engine.canon_us", "us"),
    ("engine.cache_lookup_us", "us"),
    ("engine.cache_hit_rate", "share"),
    ("engine.replan_ms", "ms"),
    ("engine.lp_reuse_rate", "share"),
    ("model.parse_instance_us", "us"),
    ("model.parse_request_us", "us"),
    ("model.write_response_us", "us"),
    ("serve.dispatch_us.mutate", "us"),
    ("serve.dispatch_us.replan", "us"),
    ("serve.dispatch_us.solve", "us"),
    ("serve.transport_us", "us"),
    ("serve.wal_append_us", "us"),
    ("serve.wal_appends", "count"),
    ("serve.queue_depth_max", "count"),
    ("obs.trace_overhead", "share"),
];

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` for metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Records 0 for metrics the workload does not measure: its requests
    /// never reach the layer, or the layer runs only inside a call the
    /// benchmark times as a whole.
    pub fn not_measured(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: solves or requests, checked ones included.
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// `(name, unit, value)` of every metric of the run's table.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Assembles the result of a timed (`trace == false`) or traced run.
    /// Fails when a metric of the table was not measured, a value is not
    /// in the table, or a value is not finite.
    pub fn new(
        attempted: u64,
        failed: u64,
        trace: bool,
        values: Values,
    ) -> Result<Outcome, String> {
        let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if let Some(extra) = values
            .0
            .keys()
            .find(|k| !table.iter().any(|(n, _)| n == *k))
        {
            return Err(format!(
                "metric {extra} does not belong to this kind of run"
            ));
        }
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = *values
                .0
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((name, unit, value));
        }
        Ok(Outcome {
            attempted,
            failed,
            metrics,
        })
    }

    /// Whether operations ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {"<name>": {"value": …, "unit": "…"}, …}}`, values in
    /// shortest round-trip form with every digit kept.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtsp_bench::json::{self, Value};

    fn all_end_to_end(value: f64) -> Values {
        let mut v = Values::default();
        for (name, _) in END_TO_END {
            v.set(name, value);
        }
        v
    }

    #[test]
    fn result_line_is_json_with_every_metric_and_unit() {
        let out = Outcome::new(3, 0, false, all_end_to_end(1.0e-7)).unwrap();
        let parsed = json::parse(&out.json_line()).unwrap();
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Value::as_i64), Some(3));
        let metrics = parsed.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.0e-7));
    }

    #[test]
    fn missing_foreign_and_non_finite_metrics_are_refused() {
        assert!(Outcome::new(1, 0, false, Values::default()).is_err());
        let mut v = all_end_to_end(1.0);
        v.set("lp.pivots", 2.0);
        assert!(Outcome::new(1, 0, false, v).is_err());
        assert!(Outcome::new(1, 0, false, all_end_to_end(f64::NAN)).is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let out = Outcome::new(10, 1, false, all_end_to_end(1.0)).unwrap();
        assert!(!out.correct());
        assert!(out
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }
}
