//! Monte Carlo yield study artifact: runs the yield engine over a 4×4
//! FEFET array with per-cell process variation and writes the
//! aggregated read-margin distribution, write shmoo surface, disturb
//! statistics, and worst-corner report as `BENCH_yield.json` at the
//! repository root.
//!
//! CI runs this example at the committed depth and fails the build if
//! the artifact is malformed JSON or the run's own invariants do not
//! hold (trial accounting, distribution counts, yield fractions in
//! range, no solver failures). The artifact is deterministic (a pooled
//! run equals a serial one bit for bit), so CI then requires the
//! regenerated file to equal the committed one byte for byte.
//!
//! Run with `cargo run --release --example yield_study`. Set
//! `YIELD_TRIALS` to override the Monte Carlo depth (the default 256
//! trials leave the committed artifact at the repository root). Set
//! `YIELD_TRACE=1` to also record a Chrome trace-event profile of the
//! run (per-trial spans plus solver and pool events, one lane per
//! worker) and dump it as `TRACE_yield.json` — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use fefet::mem::cell::FefetCell;
use fefet::mem::yield_engine::{YieldEngine, YieldSpec};
use fefet::telemetry::{json, Instrumentation};

fn trials_from_env(default_n: usize) -> usize {
    match std::env::var("YIELD_TRIALS") {
        Ok(v) => v.parse().unwrap_or(default_n),
        Err(_) => default_n,
    }
}

fn run() -> Result<(), String> {
    let instr = Instrumentation::enabled();
    let tracing = std::env::var_os("YIELD_TRACE").is_some_and(|v| !v.is_empty());
    let recorder = if tracing {
        Some(
            instr
                .get()
                .ok_or("instrumentation handle is off")?
                .attach_trace(64 * 1024),
        )
    } else {
        None
    };
    let spec = YieldSpec {
        rows: 4,
        cols: 4,
        n_trials: trials_from_env(256),
        seed: 0x5eed_f00d,
        threads: 0, // one worker per hardware thread; results stay seed-deterministic
        ..YieldSpec::default()
    };
    let n_trials = spec.n_trials;
    let engine = YieldEngine::new(FefetCell::default(), spec.clone(), instr.clone())
        .map_err(|e| format!("engine construction: {e}"))?;
    println!(
        "yield study: {}x{} array, {} read-slice unknowns per trial solve, {} trials",
        spec.rows,
        spec.cols,
        engine.n_unknowns(),
        n_trials
    );

    let yld = engine.run();

    // Self-checks: the artifact is only worth committing if the run's
    // own accounting holds together.
    let clean = n_trials - yld.solver_failures;
    let checks: &[(&str, bool)] = &[
        ("trial count", yld.n_trials == n_trials),
        ("no solver failures", yld.solver_failures == 0),
        (
            "margin samples == clean trials",
            yld.margin.n == clean as u64,
        ),
        ("read yield in [0,1]", (0.0..=1.0).contains(&yld.read_yield)),
        (
            "write yield in [0,1]",
            (0.0..=1.0).contains(&yld.write_yield),
        ),
        (
            "disturb yield in [0,1]",
            (0.0..=1.0).contains(&yld.disturb_yield),
        ),
        ("nominal margin finite", yld.nominal_margin.is_finite()),
        (
            "shmoo grid sized",
            yld.shmoo_pass_counts.len() == yld.shmoo_nv * yld.shmoo_nt,
        ),
        (
            "worst corner present when any trial is clean",
            clean == 0 || yld.worst.is_some(),
        ),
    ];
    for (what, ok) in checks {
        if !ok {
            return Err(format!("yield check failed: {what}"));
        }
    }
    if let Some(tel) = instr.get() {
        let analyses = tel.solver.sparse_symbolic_analyses.get();
        if analyses != 1 {
            return Err(format!(
                "expected one shared symbolic analysis across all trials, saw {analyses}"
            ));
        }
        println!(
            "cross-trial reuse: {} symbolic analysis, {} cache hits over {} trials",
            analyses,
            tel.solver.analysis_cache_hits.get(),
            n_trials
        );
    }
    println!(
        "read yield {:.3}, write yield {:.3}, disturb yield {:.3} ({} solver failures)",
        yld.read_yield, yld.write_yield, yld.disturb_yield, yld.solver_failures
    );
    println!(
        "read margin: mean {:.1}, std {:.1}, min {:.1} (nominal {:.1})",
        yld.margin.mean, yld.margin.std, yld.margin.min, yld.nominal_margin
    );
    if let Some(w) = &yld.worst {
        println!(
            "worst corner: trial {}, col {}, margin {:.1}, vt0 {:.4} V, t_fe {:.2} nm",
            w.trial,
            w.col,
            w.margin_ratio,
            w.vt0_v,
            w.t_fe_m * 1e9
        );
    }

    let report = yld.to_run_report(&spec);
    let body = report.to_json();
    json::validate(&body).map_err(|e| format!("artifact is malformed JSON: {e}"))?;

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_yield.json");
    report
        .write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    if let Some(recorder) = recorder {
        let chrome = recorder.to_chrome_json();
        json::validate(&chrome).map_err(|e| format!("Chrome trace is malformed JSON: {e}"))?;
        let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("TRACE_yield.json");
        recorder
            .write_chrome_json(&trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        println!(
            "wrote {} ({} events, {} lanes, {} dropped)",
            trace_path.display(),
            recorder.events_recorded(),
            recorder.lanes_claimed(),
            recorder.dropped()
        );
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("yield_study: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
