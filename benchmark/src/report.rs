//! The metric catalogue and the run's output: a [`RunReport`] with every
//! metric, check and the simulated-output digest, followed by the
//! one-line result object that ends the output.

use fefet_telemetry::json::{escape, fmt_f64, validate};
use fefet_telemetry::RunReport;

use crate::stats::Digest;

/// End-to-end metrics `(name, unit)`: every untraced run reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` reported by every traced run; a
/// layer a workload does not exercise reports 0. The `paper.<bin>_s`
/// entries follow from [`crate::paper::BINS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serving.self_s_per_op", "s"),
    ("serving.calibrate_s", "s"),
    ("serving.coalesced", "count"),
    ("serving.row_ops", "count"),
    ("serving.escalations", "count"),
    ("serving.fast_path_frac", "1"),
    ("array.read_row_s", "s"),
    ("array.write_row_s", "s"),
    ("array.self_s_per_op", "s"),
    ("array.netlist_build_s", "s"),
    ("transient.self_s_per_op", "s"),
    ("transient.steps_per_op", "steps/op"),
    ("transient.rejected_per_op", "steps/op"),
    ("transient.step_p50_s", "s"),
    ("engine.newton_s_per_op", "s"),
    ("engine.solves_per_op", "solves/op"),
    ("engine.iters_per_solve", "iters/solve"),
    ("engine.factors_per_op", "factors/op"),
    ("engine.bbd_factor_frac", "1"),
    ("engine.jacobian_reuse_frac", "1"),
    ("engine.bypass_hit_frac", "1"),
    ("engine.symbolic_analyses", "count"),
    ("engine.analysis_cache_hits", "count"),
    ("engine.solve_p50_s", "s"),
    ("engine.solve_p99_s", "s"),
    ("engine.failed_solves", "count"),
    ("parallel.busy_frac", "1"),
    ("parallel.tasks", "count"),
    ("parallel.steals", "count"),
    ("yield_engine.trial_p50_s", "s"),
    ("yield_engine.trial_p99_s", "s"),
    ("yield_engine.self_s_per_trial", "s"),
    ("yield_engine.newton_iters_per_trial", "iters/trial"),
    ("trace.overhead_frac", "1"),
    ("trace.dropped", "count"),
];

fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Every per-layer metric name with its unit, paper bins included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(crate::paper::BINS.iter().map(|b| (paper_metric(b), "s")));
    all
}

/// The per-layer metric name of one paper artifact bin.
pub fn paper_metric(bin: &str) -> String {
    format!("paper.{bin}_s")
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the unit of `ops_per_s`).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Contract metrics by name.
    pub metrics: Vec<(String, f64)>,
    /// Further measurements printed in the report only, with units.
    pub details: Vec<(String, &'static str, f64)>,
    /// Output checks: description and verdict.
    pub checks: Vec<(String, bool)>,
    /// Digest of the simulated results.
    pub digest: Digest,
    /// The run's median slowdown against the reference host
    /// ([`crate::host::HostSpeed::factor`]), printed with the report.
    pub host_factor: Option<f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn detail(&mut self, name: &str, unit: &'static str, value: f64) {
        self.details.push((name.to_string(), unit, value));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Converts every time (unit `s`) among the metrics and details to
    /// reference-host seconds by dividing it by `host_factor`, for
    /// figures that are sums over a pass rather than samples.
    pub fn scale_times(&mut self, host_factor: f64) {
        for (name, v) in &mut self.metrics {
            if unit_of(name) == Some("s") {
                *v /= host_factor;
            }
        }
        for (_, unit, v) in &mut self.details {
            if *unit == "s" {
                *v /= host_factor;
            }
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Run identity printed with the report.
#[derive(Debug)]
pub struct RunMeta<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Hardware threads available when the run started.
    pub available_parallelism: usize,
}

fn metric_json(value: f64, unit: &str) -> String {
    format!(
        "{{\"value\":{},\"unit\":\"{}\"}}",
        fmt_f64(value),
        escape(unit)
    )
}

fn object(entries: impl Iterator<Item = (String, String)>) -> String {
    let body: Vec<String> = entries
        .map(|(k, v)| format!("\"{}\":{}", escape(&k), v))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The metrics of the result line, in catalogue order.
///
/// # Errors
///
/// An end-to-end metric the workload did not measure, or a measured
/// metric missing from the catalogue.
fn result_metrics(
    outcome: &Outcome,
    trace: bool,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    let catalogue = if trace { per_layer() } else { end_to_end() };
    for (name, _) in &outcome.metrics {
        if !catalogue.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the catalogue"));
        }
    }
    catalogue
        .into_iter()
        .map(|(name, unit)| {
            match outcome.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => Ok((name, unit, v)),
                // Layers a workload does not exercise report zero work.
                None if trace => Ok((name, unit, 0.0)),
                None => Err(format!("end-to-end metric {name} was not measured")),
            }
        })
        .collect()
}

/// Renders the full report and the final result line.
///
/// # Errors
///
/// As for [`result_metrics`], a run that never probed the host, or a
/// report that is not valid JSON.
pub fn render(meta: &RunMeta<'_>, outcome: &Outcome) -> Result<(String, String), String> {
    let f = outcome
        .host_factor
        .ok_or("the run did not probe the host speed")?;
    let as_object = |entries: &[(String, &'static str, f64)]| {
        object(
            entries
                .iter()
                .map(|(n, u, v)| (n.clone(), metric_json(*v, u))),
        )
    };
    let metrics = as_object(&result_metrics(outcome, meta.trace)?);
    let mut r = RunReport::new("benchmark");
    r.meta("workload", meta.workload);
    r.meta("seed", &meta.seed.to_string());
    r.meta("seconds", &meta.seconds.to_string());
    r.meta("trace", &u8::from(meta.trace).to_string());
    r.meta(
        "available_parallelism",
        &meta.available_parallelism.to_string(),
    );
    r.meta("host_factor", &fmt_f64(f));
    r.meta("digest", &outcome.digest.hex());
    r.section("metrics", metrics.clone());
    r.section("details", as_object(&outcome.details));
    r.section(
        "checks",
        object(
            outcome
                .checks
                .iter()
                .map(|(what, ok)| (what.clone(), ok.to_string())),
        ),
    );
    let report = r.to_json();
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
    );
    validate(&report).map_err(|e| format!("report is not valid JSON: {e}"))?;
    validate(&line).map_err(|e| format!("result line is not valid JSON: {e}"))?;
    Ok((report, line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric names");
        for (_, u) in END_TO_END
            .iter()
            .copied()
            .chain(per_layer().iter().map(|(_, u)| ("", *u)))
        {
            assert!(valid_unit(u), "bad unit {u}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let body = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        validate(&body).expect("BENCHMARK.json is valid JSON");
        let mut expected: Vec<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        expected.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &expected {
            assert!(
                body.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json does not list {name}"
            );
        }
        assert_eq!(
            body.matches("\"name\":").count(),
            expected.len(),
            "BENCHMARK.json lists names the benchmark does not emit"
        );
        for (name, unit) in END_TO_END {
            assert!(
                body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "unit of {name}"
            );
        }
    }

    fn meta(trace: bool) -> RunMeta<'static> {
        RunMeta {
            workload: "serve_fast",
            seed: 7,
            seconds: 1,
            trace,
            available_parallelism: 2,
        }
    }

    fn sample(trace: bool) -> Outcome {
        let mut o = Outcome {
            attempted: 3,
            host_factor: Some(1.0),
            ..Outcome::default()
        };
        if trace {
            o.metric("engine.solves_per_op", 12.5);
            o.metric(&paper_metric("fig2"), 0.25);
        } else {
            for (n, _) in END_TO_END {
                o.metric(n, 1.5e-3);
            }
        }
        o.detail("latency_p99_s", "s", 2e-3);
        o.check("reads return the last written word", true);
        o.digest.u64(42);
        o
    }

    #[test]
    fn emitted_reports_are_valid_json() {
        for trace in [false, true] {
            let meta = meta(trace);
            let (report, line) = render(&meta, &sample(trace)).expect("render");
            assert!(validate(&report).is_ok(), "{report}");
            assert!(validate(&line).is_ok(), "{line}");
            assert!(!line.contains('\n'));
            assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
            let n = if trace {
                per_layer().len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(line.matches("\"unit\"").count(), n, "{line}");
        }
    }

    #[test]
    fn missing_or_unknown_metrics_are_refused() {
        let meta = meta(false);
        let mut o = sample(false);
        o.metrics.pop();
        assert!(render(&meta, &o).is_err());
        let mut o = sample(false);
        o.metric("no_such_metric", 1.0);
        assert!(render(&meta, &o).is_err());
    }

    #[test]
    fn only_times_scale_to_the_reference_host() {
        let mut o = sample(true);
        o.metric("engine.failed_solves", 4.0);
        o.scale_times(2.0);
        let value = |name: &str| o.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
        assert_eq!(value("engine.solves_per_op"), Some(12.5));
        assert_eq!(value("paper.fig2_s"), Some(0.125));
        assert_eq!(value("engine.failed_solves"), Some(4.0));
        assert_eq!(o.details[0].2, 1e-3);
        o.host_factor = None;
        let meta = meta(true);
        assert!(render(&meta, &o).is_err(), "unprobed runs are refused");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = sample(false);
        assert!(o.correct());
        o.check("digest matches", false);
        assert!(!o.correct());
        let meta = meta(false);
        let (_, line) = render(&meta, &o).expect("render");
        assert!(line.starts_with("{\"correct\":false"));
    }
}
