//! Metric catalogs and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metric sets `BENCHMARK.json`
//! declares (a test keeps the two in step). A run with tracing off
//! reports every end-to-end metric; a traced run reports every
//! per-layer metric, with 0 for a layer the workload never calls.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric key.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off. A *step* is one plan
/// pass (`plan`) or one virtual minute (`serve-*`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("step_mean_ms", "ms"),
    m("step_p99_ms", "ms"),
    m("peak_rss_mib", "MiB"),
    m("plan_cost", "USD"),
    m("hit_ratio", "ratio"),
    m("served_ratio", "ratio"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("sizing.split_s", "s"),
    m("sizing.catalog_s", "s"),
    m("sizing.model_evals", "count"),
    m("sizing.us_per_eval", "us"),
    m("plan.min_n", "count"),
    m("model.p_hit_ms.exponential", "ms"),
    m("model.p_hit_ms.gamma", "ms"),
    m("model.p_hit_ms.weibull", "ms"),
    m("model.p_hit_ms.lognormal", "ms"),
    m("model.p_hit_ms.empirical", "ms"),
    m("sim.audit_s", "s"),
    m("sim.viewers", "count"),
    m("sim.resumes", "count"),
    m("sim.resumes_per_s", "1/s"),
    m("server.tick_ms_p50", "ms"),
    m("server.tick_ms_p99", "ms"),
    m("server.open_us", "us"),
    m("server.vcr_us", "us"),
    m("server.segments", "count"),
    m("server.buffer_share", "ratio"),
    m("server.verify_failures", "count"),
    m("server.restart_failures", "count"),
    m("server.dedicated_peak", "count"),
    m("runtime.resumes", "count"),
    m("runtime.hit_ratio.ff", "ratio"),
    m("runtime.hit_ratio.rw", "ratio"),
    m("runtime.hit_ratio.pau", "ratio"),
    m("runtime.vcr_denied", "count"),
    m("runtime.denied_transient", "count"),
    m("runtime.denied_permanent", "count"),
    m("runtime.acquisition_attempts", "count"),
    m("runtime.degraded_entries", "count"),
    m("runtime.rewait_minutes", "min"),
    m("runtime.stall_minutes", "min"),
    m("federation.tick_ms_p50", "ms"),
    m("federation.tick_ms_p99", "ms"),
    m("federation.open_us", "us"),
    m("federation.vcr_us", "us"),
    m("federation.audit_us", "us"),
    m("federation.admissions_routed", "count"),
    m("federation.admissions_rerouted", "count"),
    m("federation.admissions_denied", "count"),
    m("federation.displaced_total", "count"),
    m("federation.readmit_ratio", "ratio"),
    m("federation.readmit_base", "count"),
    m("federation.rewait_ticks", "count"),
    m("workload.gen_s", "s"),
    m("workload.arrivals", "count"),
    m("workload.vcr_requests", "count"),
    m("trace.overhead", "ratio"),
];

/// What one benchmark invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued to the program in one repetition.
    pub attempted: u64,
    /// Of those, operations that returned an error no correct run gives.
    pub failed: u64,
    /// Correctness failures; any makes the run incorrect.
    pub failures: Vec<String>,
    /// Values of the declared metrics (by name).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own figures, printed by name before the result
    /// line: `(name, value, unit)`.
    pub figures: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Record a printed figure.
    pub fn figure(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.figures.push((name.into(), value, unit));
    }

    /// Whether every check passed and every reported value is finite.
    pub fn correct(&self, defs: &[MetricDef]) -> bool {
        self.failures.is_empty()
            && defs
                .iter()
                .all(|d| self.metrics.get(d.name).is_none_or(|v| v.is_finite()))
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric in `defs` (0 for one never set).
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
                // JSON has no NaN or infinity; `correct` is false then.
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(defs),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        o.metrics.insert("setup_s", 0.25);
        let line = o.json(&END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"step_mean_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        o.metrics.insert("step_mean_ms", f64::NAN);
        assert!(!o.correct(&END_TO_END[..2]));
        o.metrics.insert("step_mean_ms", 3.0);
        assert!(o.correct(&END_TO_END[..2]));
        o.failures.push("x".into());
        assert!(!o.correct(&END_TO_END[..2]));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
