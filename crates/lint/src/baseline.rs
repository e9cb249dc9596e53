//! The ratchet baseline: `LINT_BASELINE.json` at the workspace root
//! records grandfathered findings as `(file, rule, count)` buckets.
//!
//! Semantics are a one-way ratchet:
//!
//! - a finding beyond its bucket's count is **fresh** and fails the
//!   gate (new debt is rejected);
//! - a bucket whose count exceeds the current findings is **stale** and
//!   *also* fails the gate (paid-down debt must be struck from the
//!   baseline via `--update-baseline`, so the ceiling only moves down);
//! - `directive` findings (malformed or stale escape hatches) are never
//!   baselineable.
//!
//! The file is read and written with `fefet_telemetry::json`, the
//! workspace's one JSON codec (std-only, no dependencies of its own).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use fefet_telemetry::json::{escape, parse, Json};

use crate::{Finding, Rule};

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "LINT_BASELINE.json";

/// One grandfathered bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Root-relative, `/`-separated file label.
    pub file: String,
    pub rule: Rule,
    pub count: usize,
}

/// The committed ratchet state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

/// A bucket whose baseline and current counts disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketDiff {
    pub file: String,
    pub rule: Rule,
    pub baseline: usize,
    pub current: usize,
}

impl Baseline {
    /// Loads the baseline at `path`; `Ok(None)` when the file does not
    /// exist (an absent baseline means "no grandfathered findings").
    pub fn load(path: &Path) -> io::Result<Option<Baseline>> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Baseline::parse(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))
    }

    pub fn parse(text: &str) -> Result<Baseline, String> {
        let value = parse(text)?;
        let entries = value
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing `entries` array")?;
        let mut out = Vec::new();
        for e in entries {
            let file = e
                .get("file")
                .and_then(Json::as_str)
                .ok_or("entry missing `file`")?
                .to_string();
            let rule_name = e
                .get("rule")
                .and_then(Json::as_str)
                .ok_or("entry missing `rule`")?;
            let rule =
                Rule::parse(rule_name).ok_or_else(|| format!("unknown rule `{rule_name}`"))?;
            if rule == Rule::Directive {
                return Err("`directive` findings cannot be baselined".to_string());
            }
            // A count is a non-negative integer: it must survive the
            // round trip through `u32` bit for bit (`as` saturates).
            let count = e
                .get("count")
                .and_then(Json::as_f64)
                .and_then(|n| {
                    let c = n as u32;
                    (f64::from(c).to_bits() == n.to_bits()).then_some(c as usize)
                })
                .ok_or("entry `count` must be a non-negative integer")?;
            out.push(BaselineEntry { file, rule, count });
        }
        Ok(Baseline { entries: out })
    }

    /// Builds a baseline from current findings (skipping `directive`
    /// findings, which must always be fixed).
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut buckets: BTreeMap<(String, &'static str), (Rule, usize)> = BTreeMap::new();
        for f in findings {
            if f.rule == Rule::Directive {
                continue;
            }
            buckets
                .entry((f.file.clone(), f.rule.name()))
                .and_modify(|(_, c)| *c += 1)
                .or_insert((f.rule, 1));
        }
        Baseline {
            entries: buckets
                .into_iter()
                .map(|((file, _), (rule, count))| BaselineEntry { file, rule, count })
                .collect(),
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": \"{}\", \"rule\": \"{}\", \"count\": {}}}",
                escape(&e.file),
                escape(e.rule.name()),
                e.count
            );
        }
        if !self.entries.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("]\n}\n");
        out
    }

    pub fn total(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    fn count_for(&self, file: &str, rule: Rule) -> usize {
        self.entries
            .iter()
            .filter(|e| e.file == file && e.rule == rule)
            .map(|e| e.count)
            .sum()
    }
}

/// Result of applying a baseline to a set of findings.
#[derive(Debug, Default)]
pub struct BaselineStatus {
    /// Findings covered by the baseline (grandfathered).
    pub baselined: Vec<Finding>,
    /// Findings beyond the baseline: these fail the gate.
    pub fresh: Vec<Finding>,
    /// Baseline buckets above the current count: the baseline must be
    /// ratcheted down.
    pub stale: Vec<BucketDiff>,
}

/// Applies `baseline` to `findings`: within each `(file, rule)` bucket
/// (findings ordered by line) the first `count` findings are
/// grandfathered, the rest are fresh. `directive` findings are always
/// fresh.
pub fn apply(findings: &[Finding], baseline: &Baseline) -> BaselineStatus {
    let mut status = BaselineStatus::default();
    let mut budget: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
    let mut seen: BTreeMap<(String, &'static str), (Rule, usize)> = BTreeMap::new();
    for f in findings {
        if f.rule == Rule::Directive {
            status.fresh.push(f.clone());
            continue;
        }
        let key = (f.file.clone(), f.rule.name());
        seen.entry(key.clone())
            .and_modify(|(_, c)| *c += 1)
            .or_insert((f.rule, 1));
        let left = budget
            .entry(key.clone())
            .or_insert_with(|| baseline.count_for(&f.file, f.rule));
        if *left > 0 {
            *left -= 1;
            status.baselined.push(f.clone());
        } else {
            status.fresh.push(f.clone());
        }
    }
    for e in &baseline.entries {
        let current = seen
            .get(&(e.file.clone(), e.rule.name()))
            .map(|(_, c)| *c)
            .unwrap_or(0);
        if current < e.count {
            status.stale.push(BucketDiff {
                file: e.file.clone(),
                rule: e.rule,
                baseline: e.count,
                current,
            });
        }
    }
    status
}

/// Ratchet comparison between two baselines: buckets in `current` that
/// exceed their count in `older` (including brand-new buckets).
pub fn growth(current: &Baseline, older: &Baseline) -> Vec<BucketDiff> {
    current
        .entries
        .iter()
        .filter_map(|e| {
            let old = older.count_for(&e.file, e.rule);
            (e.count > old).then(|| BucketDiff {
                file: e.file.clone(),
                rule: e.rule,
                baseline: old,
                current: e.count,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, rule: Rule) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: String::new(),
        }
    }

    #[test]
    fn roundtrip() {
        let b = Baseline {
            entries: vec![
                BaselineEntry {
                    file: "crates/nvp/src/lib.rs".to_string(),
                    rule: Rule::UnitHygiene,
                    count: 3,
                },
                BaselineEntry {
                    file: "crates/ckt/src/dc.rs".to_string(),
                    rule: Rule::HotAlloc,
                    count: 1,
                },
            ],
        };
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.total(), 4);
    }

    #[test]
    fn empty_baseline_roundtrip() {
        let b = Baseline::default();
        assert_eq!(Baseline::parse(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn apply_splits_fresh_and_baselined_and_flags_stale() {
        let base = Baseline {
            entries: vec![
                BaselineEntry {
                    file: "a.rs".to_string(),
                    rule: Rule::UnitHygiene,
                    count: 2,
                },
                BaselineEntry {
                    file: "gone.rs".to_string(),
                    rule: Rule::Panic,
                    count: 1,
                },
            ],
        };
        let findings = vec![
            finding("a.rs", 1, Rule::UnitHygiene),
            finding("a.rs", 5, Rule::UnitHygiene),
            finding("a.rs", 9, Rule::UnitHygiene), // beyond budget
            finding("b.rs", 2, Rule::FloatEq),     // no bucket at all
            finding("a.rs", 3, Rule::Directive),   // never baselineable
        ];
        let status = apply(&findings, &base);
        assert_eq!(status.baselined.len(), 2);
        assert_eq!(status.fresh.len(), 3);
        assert_eq!(status.stale.len(), 1);
        assert_eq!(status.stale[0].file, "gone.rs");
        assert_eq!(status.stale[0].current, 0);
    }

    #[test]
    fn growth_detects_new_and_grown_buckets() {
        let old = Baseline {
            entries: vec![BaselineEntry {
                file: "a.rs".to_string(),
                rule: Rule::UnitHygiene,
                count: 2,
            }],
        };
        let shrunk = Baseline {
            entries: vec![BaselineEntry {
                file: "a.rs".to_string(),
                rule: Rule::UnitHygiene,
                count: 1,
            }],
        };
        assert!(growth(&shrunk, &old).is_empty());
        let grown = Baseline {
            entries: vec![
                BaselineEntry {
                    file: "a.rs".to_string(),
                    rule: Rule::UnitHygiene,
                    count: 3,
                },
                BaselineEntry {
                    file: "new.rs".to_string(),
                    rule: Rule::HotAlloc,
                    count: 1,
                },
            ],
        };
        let g = growth(&grown, &old);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn directive_findings_are_rejected_in_baselines() {
        let text =
            r#"{"version": 1, "entries": [{"file": "x.rs", "rule": "directive", "count": 1}]}"#;
        assert!(Baseline::parse(text).is_err());
    }

    #[test]
    fn counts_must_be_non_negative_integers() {
        let with_count = |count: &str| {
            format!(r#"{{"entries": [{{"file": "x.rs", "rule": "panic", "count": {count}}}]}}"#)
        };
        for bad in ["-1", "1.5", "2e-1", "4294967296", "\"3\"", "null"] {
            assert!(Baseline::parse(&with_count(bad)).is_err(), "accepted {bad}");
        }
        for (ok, n) in [("0", 0), ("3", 3), ("2e1", 20), ("4.0", 4)] {
            let b = Baseline::parse(&with_count(ok)).expect(ok);
            assert_eq!(b.entries[0].count, n, "{ok}");
        }
    }
}
