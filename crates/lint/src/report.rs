//! Machine-readable findings report (`--json`).
//!
//! The report carries every finding with a `baselined` flag, per-rule
//! totals, and the baseline summary, so CI can archive the full picture
//! even when the gate passes with grandfathered debt.

use std::fmt::Write as _;

use fefet_telemetry::json::escape;

use crate::baseline::{Baseline, BaselineStatus};
use crate::{Finding, Rule};

pub(crate) const ALL_RULES: &[Rule] = &[
    Rule::Panic,
    Rule::UnboundedLoop,
    Rule::FloatEq,
    Rule::SolverResult,
    Rule::Print,
    Rule::HotAlloc,
    Rule::AtomicOrdering,
    Rule::UnitHygiene,
    Rule::Directive,
];

/// Renders the JSON report. `baselined` findings come from the ratchet;
/// in strict (file-argument) mode there is no baseline and every
/// finding is fresh.
pub fn render_json(
    files_checked: usize,
    status: &BaselineStatus,
    baseline: Option<&Baseline>,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"tool\": \"fefet-lint\",");
    let _ = writeln!(out, "  \"version\": 2,");
    let _ = writeln!(out, "  \"files_checked\": {files_checked},");

    out.push_str("  \"findings\": [");
    let all: Vec<(&Finding, bool)> = status
        .fresh
        .iter()
        .map(|f| (f, false))
        .chain(status.baselined.iter().map(|f| (f, true)))
        .collect();
    let mut sorted = all;
    sorted.sort_by(|(a, _), (b, _)| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    for (i, (f, baselined)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"baselined\": {}, \"message\": \"{}\"}}",
            escape(&f.file),
            f.line,
            escape(f.rule.name()),
            baselined,
            escape(&f.message)
        );
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"counts\": {");
    let mut first = true;
    for rule in ALL_RULES {
        let n = sorted.iter().filter(|(f, _)| f.rule == *rule).count();
        if n == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{}\": {n}", escape(rule.name()));
    }
    let _ = writeln!(
        out,
        "}},\n  \"totals\": {{\"findings\": {}, \"fresh\": {}, \"baselined\": {}, \"stale_baseline_buckets\": {}}},",
        sorted.len(),
        status.fresh.len(),
        status.baselined.len(),
        status.stale.len()
    );

    match baseline {
        Some(b) => {
            let _ = writeln!(
                out,
                "  \"baseline\": {{\"entries\": {}, \"total\": {}}}",
                b.entries.len(),
                b.total()
            );
        }
        None => {
            let _ = writeln!(out, "  \"baseline\": null");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselineEntry;
    use fefet_telemetry::json::{parse, Json};

    #[test]
    fn report_is_parseable_json_with_flags() {
        let status = BaselineStatus {
            baselined: vec![Finding {
                file: "a.rs".to_string(),
                line: 3,
                rule: Rule::UnitHygiene,
                message: "needs \"units\"".to_string(),
            }],
            fresh: vec![Finding {
                file: "a.rs".to_string(),
                line: 1,
                rule: Rule::HotAlloc,
                message: "vec![...]".to_string(),
            }],
            stale: Vec::new(),
        };
        let base = Baseline {
            entries: vec![BaselineEntry {
                file: "a.rs".to_string(),
                rule: Rule::UnitHygiene,
                count: 1,
            }],
        };
        let text = render_json(42, &status, Some(&base));
        let v = parse(&text).expect("valid json");
        let findings = v.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 2);
        // Sorted by (file, line): the fresh hot-alloc finding first.
        let first = &findings[0];
        assert_eq!(first.get("rule").and_then(Json::as_str), Some("hot-alloc"));
        assert_eq!(first.get("baselined"), Some(&Json::Bool(false)));
        assert_eq!(
            findings[1].get("message").and_then(Json::as_str),
            Some("needs \"units\"")
        );
    }

    #[test]
    fn empty_report_is_valid() {
        let status = BaselineStatus::default();
        let text = render_json(0, &status, None);
        assert!(parse(&text).is_ok());
    }
}
