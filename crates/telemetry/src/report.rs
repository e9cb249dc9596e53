//! Structured diagnostics: the per-failure [`ConvergenceReport`] and
//! the per-run [`RunReport`] JSON artifact.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

use crate::json::{escape, fmt_f64};

/// Structured diagnostics for a Newton solve that exhausted its
/// iteration budget — carried by the solver's typed error instead of a
/// bare string, so callers (and gmin stepping) can see *where* and
/// *how badly* the solve diverged.
///
/// Built only on the failure path; the allocation-free warm-solve
/// invariant covers successful solves.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Newton iterations performed before giving up.
    pub iterations: usize,
    /// MNA unknown index (0-based row) with the worst KCL residual.
    pub worst_node: usize,
    /// Human-readable name of that node (empty when the unknown is a
    /// branch current or the name is not known to the caller).
    pub worst_node_name: String,
    /// Worst |KCL residual| in amperes at the last iteration.
    pub worst_residual: f64,
    /// Damping factor applied on the last iteration (1.0 = full step).
    pub last_damping: f64,
    /// Node-voltage step bound (V) in force at the last iteration: the
    /// configured bound, or less if clamp-cycle escapes halved it.
    pub max_v_step: f64,
    /// The gmin in effect for the failing solve.
    pub gmin: f64,
    /// The gmin values attempted by gmin stepping before this failure
    /// (empty when the plain solve failed without stepping).
    pub gmin_trajectory: Vec<f64>,
}

impl ConvergenceReport {
    /// Serializes the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str(&format!("{{\"iterations\":{}", self.iterations));
        s.push_str(&format!(",\"worst_node\":{}", self.worst_node));
        s.push_str(&format!(
            ",\"worst_node_name\":\"{}\"",
            escape(&self.worst_node_name)
        ));
        s.push_str(&format!(
            ",\"worst_residual_a\":{}",
            fmt_f64(self.worst_residual)
        ));
        s.push_str(&format!(",\"last_damping\":{}", fmt_f64(self.last_damping)));
        s.push_str(&format!(",\"max_v_step\":{}", fmt_f64(self.max_v_step)));
        s.push_str(&format!(",\"gmin\":{}", fmt_f64(self.gmin)));
        s.push_str(",\"gmin_trajectory\":[");
        for (i, g) in self.gmin_trajectory.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&fmt_f64(*g));
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "newton exhausted {} iterations (worst KCL residual {:.3e} A at unknown #{}",
            self.iterations, self.worst_residual, self.worst_node
        )?;
        if !self.worst_node_name.is_empty() {
            write!(f, " \"{}\"", self.worst_node_name)?;
        }
        write!(
            f,
            ", last damping {:.3}, step bound {:.3e} V, gmin {:.1e}",
            self.last_damping, self.max_v_step, self.gmin
        )?;
        if !self.gmin_trajectory.is_empty() {
            write!(f, ", after {} gmin steps", self.gmin_trajectory.len())?;
        }
        write!(f, ")")
    }
}

/// A hand-serialized JSON run report, the committed-artifact
/// counterpart of tinybench's `BENCH_solvers.json`: a suite name, flat
/// string metadata, and named sections whose values are pre-rendered
/// JSON (telemetry snapshots, convergence reports, …).
#[derive(Debug, Default)]
pub struct RunReport {
    suite: String,
    meta: Vec<(String, String)>,
    sections: Vec<(String, String)>,
}

impl RunReport {
    pub fn new(suite: &str) -> Self {
        Self {
            suite: suite.to_string(),
            meta: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Attaches a flat string metadata entry (host, git rev, …).
    pub fn meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Attaches a named section whose value is an already-serialized
    /// JSON fragment (object, array, or scalar).
    pub fn section(&mut self, name: &str, json_value: String) {
        self.sections.push((name.to_string(), json_value));
    }

    /// Serializes the whole report. Sections land one per line so the
    /// committed artifact diffs readably.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!("{{\n  \"suite\": \"{}\",\n", escape(&self.suite)));
        s.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
        }
        s.push_str("},\n  \"sections\": {\n");
        for (i, (name, value)) in self.sections.iter().enumerate() {
            s.push_str(&format!("    \"{}\": {}", escape(name), value));
            if i + 1 < self.sections.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Writes the report to `path`, validating the serialized JSON
    /// first — a malformed report is an error, not a committed
    /// artifact.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let body = self.to_json();
        if let Err(e) = crate::json::validate(&body) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("run report serialized to malformed JSON: {e}"),
            ));
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample_report() -> ConvergenceReport {
        ConvergenceReport {
            iterations: 100,
            worst_node: 5,
            worst_node_name: "bl0".to_string(),
            worst_residual: 1.25e-3,
            last_damping: 0.25,
            max_v_step: 0.125,
            gmin: 1e-12,
            gmin_trajectory: vec![1e-3, 1e-4],
        }
    }

    #[test]
    fn convergence_report_json_is_well_formed() {
        let j = sample_report().to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"worst_node\":5"));
        assert!(j.contains("\"worst_node_name\":\"bl0\""));
        assert!(j.contains("\"max_v_step\":1.25e-1"), "{j}");
        assert!(j.contains("\"gmin_trajectory\":[1e-3,1e-4]"));
    }

    #[test]
    fn convergence_report_display_names_the_culprit() {
        let msg = sample_report().to_string();
        assert!(msg.contains("100 iterations"), "{msg}");
        assert!(msg.contains("unknown #5"), "{msg}");
        assert!(msg.contains("\"bl0\""), "{msg}");
        assert!(msg.contains("2 gmin steps"), "{msg}");
    }

    #[test]
    fn run_report_serializes_and_validates() {
        let mut r = RunReport::new("telemetry_report");
        r.meta("rows", "16");
        r.meta("quote \"test\"", "line\nbreak");
        r.section("solver", "{\"solves\":3}".to_string());
        r.section("steps", "[1,2,3]".to_string());
        let j = r.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"suite\": \"telemetry_report\""));
        assert!(j.contains("\"solver\": {\"solves\":3}"));
    }

    #[test]
    fn empty_run_report_is_still_valid_json() {
        let j = RunReport::new("empty").to_json();
        assert!(validate(&j).is_ok(), "{j}");
    }

    #[test]
    fn write_json_rejects_malformed_sections() {
        let mut r = RunReport::new("bad");
        r.section("broken", "{not json".to_string());
        let err = r.write_json(Path::new("/nonexistent-dir/x.json"));
        assert!(err.is_err());
        let msg = format!("{}", err.unwrap_err());
        assert!(msg.contains("malformed"), "{msg}");
    }
}
