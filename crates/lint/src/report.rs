//! Machine-readable findings report (`--json`).
//!
//! The report carries every finding and per-rule totals, so CI can
//! archive the full picture next to the gate's verdict.

use std::fmt::Write as _;

use fefet_telemetry::json::escape;

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

/// Renders the JSON report of `findings` over `files_checked` files.
/// `totals.fresh` counts the findings that fail the gate: all of them,
/// since nothing is grandfathered.
pub fn render_json(files_checked: usize, findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"tool\": \"fefet-lint\",");
    let _ = writeln!(out, "  \"version\": 3,");
    let _ = writeln!(out, "  \"files_checked\": {files_checked},");

    out.push_str("  \"findings\": [");
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    for (i, f) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&f.file),
            f.line,
            escape(f.rule.name()),
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
        let n = sorted.iter().filter(|f| f.rule == *rule).count();
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
        "}},\n  \"totals\": {{\"findings\": {0}, \"fresh\": {0}}}",
        sorted.len()
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fefet_telemetry::json::{parse, Json};

    #[test]
    fn report_is_parseable_json_with_flags() {
        let findings = [
            Finding {
                file: "a.rs".to_string(),
                line: 3,
                rule: Rule::UnitHygiene,
                message: "needs \"units\"".to_string(),
            },
            Finding {
                file: "a.rs".to_string(),
                line: 1,
                rule: Rule::HotAlloc,
                message: "vec![...]".to_string(),
            },
        ];
        let text = render_json(42, &findings);
        let v = parse(&text).expect("valid json");
        let findings = v.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 2);
        // Sorted by (file, line): the hot-alloc finding first.
        let first = &findings[0];
        assert_eq!(first.get("rule").and_then(Json::as_str), Some("hot-alloc"));
        assert_eq!(
            findings[1].get("message").and_then(Json::as_str),
            Some("needs \"units\"")
        );
        let totals = v.get("totals").unwrap();
        assert_eq!(totals.get("findings").and_then(Json::as_f64), Some(2.0));
        assert_eq!(totals.get("fresh").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn empty_report_is_valid() {
        let text = render_json(0, &[]);
        assert!(parse(&text).is_ok());
    }
}
