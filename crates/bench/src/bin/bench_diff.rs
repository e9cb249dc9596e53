//! `bench-diff` — the bench regression gate.
//!
//! Compares two tinybench `BENCH_*.json` baselines (committed vs.
//! freshly regenerated) and exits nonzero when any shared workload got
//! slower than the noise threshold allows:
//!
//! ```text
//! bench-diff BENCH_solvers.json BENCH_solvers.new.json [--threshold 0.30] [--report-only]
//! ```
//!
//! The comparison uses each sample's `min_s` — the fastest batch is the
//! least noisy point estimate a 5-batch harness produces — and a
//! *relative* threshold (default 30%: tinybench exists to catch
//! order-of-magnitude regressions, and shared-runner CI jitter easily
//! reaches tens of percent). Smoke-mode baselines (`"mode": "smoke"`)
//! are one-shot builds with no statistical weight, so the gate skips
//! them with a note instead of failing. `--report-only` prints the same
//! table but always exits 0 — for single-core containers where pool
//! workloads aren't representative.
//!
//! Each row also prints the baseline's and the candidate's spread,
//! `median_s/min_s − 1`, and marks an entry `noisy` when either spread
//! is above the threshold: its own batches scatter more than the gate
//! allows, so its verdict says little either way. The mark does not
//! change the gate.
//!
//! Exit codes: 0 no regression (or skipped/report-only), 1 regression,
//! 2 usage or parse error.

use fefet_bench::fmt_time;
use fefet_telemetry::json::{parse, Json};
use std::process::ExitCode;

struct Entry {
    name: String,
    min_s: f64,
    /// The median batch (s), where the baseline records one.
    median_s: Option<f64>,
}

impl Entry {
    /// `median_s/min_s − 1`, the spread of the entry's own batches.
    fn spread(&self) -> Option<f64> {
        self.median_s.map(|m| m / self.min_s.max(1e-12) - 1.0)
    }
}

/// One table row comparing baseline `b` with candidate `c` at the
/// relative `threshold`, and whether it is a regression.
fn row(b: &Entry, c: &Entry, threshold: f64) -> (String, bool) {
    let delta = c.min_s / b.min_s.max(1e-12) - 1.0;
    let regression = delta > threshold;
    let verdict = if regression {
        "REGRESSION"
    } else if delta < -threshold {
        "improved"
    } else {
        "ok"
    };
    let spread = |e: &Entry| match e.spread() {
        Some(s) => format!("{:+.0}%", s * 100.0),
        None => "?".to_string(),
    };
    let noisy = [b, c]
        .iter()
        .any(|e| e.spread().is_some_and(|s| s > threshold));
    let line = format!(
        "  {:<44} {:>12} -> {:>12}  {:>+7.1}%  spread {:>5} / {:<5} {}{}",
        b.name,
        fmt_time(b.min_s),
        fmt_time(c.min_s),
        delta * 100.0,
        spread(b),
        spread(c),
        verdict,
        if noisy { " (noisy)" } else { "" }
    );
    (line, regression)
}

/// Extracts `(suite, mode, samples)` from a parsed baseline, validating
/// the shape this tool depends on.
fn load(path: &str) -> Result<(String, String, Vec<Entry>), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = parse(&src).map_err(|e| format!("{path}: {e}"))?;
    let suite = v
        .get("suite")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let mode = v
        .get("mode")
        .and_then(Json::as_str)
        .unwrap_or("full")
        .to_string();
    let samples = v
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"samples\" array"))?;
    let mut out = Vec::with_capacity(samples.len());
    for s in samples {
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: sample without \"name\""))?;
        let min_s = s
            .get("min_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: sample {name:?} without numeric \"min_s\""))?;
        out.push(Entry {
            name: name.to_string(),
            min_s,
            median_s: s.get("median_s").and_then(Json::as_f64),
        });
    }
    Ok((suite, mode, out))
}

fn run() -> Result<ExitCode, String> {
    let mut threshold = 0.30_f64;
    let mut report_only = false;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => {
                let v = args.next().ok_or("--threshold needs a value")?;
                threshold = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("bad threshold {v:?}"))?;
            }
            "--report-only" => report_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench-diff <baseline.json> <candidate.json> \
                     [--threshold FRAC] [--report-only]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => paths.push(other.to_string()),
        }
    }
    let [base_path, cand_path] = paths.as_slice() else {
        return Err("expected exactly two baseline files (see --help)".to_string());
    };

    let (suite_b, mode_b, base) = load(base_path)?;
    let (suite_c, mode_c, cand) = load(cand_path)?;
    if suite_b != suite_c {
        println!("note: comparing different suites ({suite_b:?} vs {suite_c:?})");
    }
    if mode_b == "smoke" || mode_c == "smoke" {
        println!(
            "bench-diff: skipping {suite_b}: smoke-mode baseline has no \
             statistical weight (base={mode_b}, candidate={mode_c})"
        );
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "bench-diff: suite {suite_b}, {} baseline vs {} candidate entries, \
         threshold {:.0}%",
        base.len(),
        cand.len(),
        threshold * 100.0
    );
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for b in &base {
        let Some(c) = cand.iter().find(|c| c.name == b.name) else {
            println!("  missing in candidate: {}", b.name);
            continue;
        };
        compared += 1;
        let (line, regression) = row(b, c, threshold);
        regressions += usize::from(regression);
        println!("{line}");
    }
    for c in &cand {
        if !base.iter().any(|b| b.name == c.name) {
            println!("  new in candidate: {}", c.name);
        }
    }

    if regressions > 0 {
        println!(
            "bench-diff: {regressions}/{compared} workloads regressed beyond \
             {:.0}%{}",
            threshold * 100.0,
            if report_only {
                " (report-only: not failing)"
            } else {
                ""
            }
        );
        if !report_only {
            return Ok(ExitCode::FAILURE);
        }
    } else {
        println!("bench-diff: no regression across {compared} shared workloads");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench-diff: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(min_s: f64, median_s: Option<f64>) -> Entry {
        Entry {
            name: "w".to_string(),
            min_s,
            median_s,
        }
    }

    /// The spread columns and the noisy mark ride along; the verdict is
    /// the min-against-threshold gate either way.
    #[test]
    fn rows_report_spread_and_mark_noisy_entries() {
        let (line, regression) = row(&entry(1.0, Some(1.1)), &entry(1.2, Some(1.26)), 0.3);
        assert!(!regression);
        assert!(line.contains("spread  +10% / +5%"), "{line}");
        assert!(line.ends_with("ok"), "{line}");
        let (line, regression) = row(&entry(1.0, Some(1.5)), &entry(1.4, None), 0.3);
        assert!(regression);
        assert!(line.contains("/ ?"), "{line}");
        assert!(line.ends_with("REGRESSION (noisy)"), "{line}");
        let (line, _) = row(&entry(1.0, None), &entry(0.5, Some(0.7)), 0.3);
        assert!(line.ends_with("improved (noisy)"), "{line}");
    }
}
