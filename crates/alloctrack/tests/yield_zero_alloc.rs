//! Pins the zero-allocation warm trial loop of the Monte Carlo yield
//! engine: after the first trial on a fresh [`TrialScratch`] builds the
//! workspace state (sparse pattern, shared symbolic analysis, factor
//! storage), every further trial — device draws, in-place circuit
//! re-parameterization, warm-started Newton point solves, shmoo and
//! disturb integration, margin extraction — must perform exactly zero
//! heap allocations.
//!
//! This file holds a single `#[test]` on purpose: the allocation
//! counter is process-global, so a concurrently running sibling test
//! would inflate the counts.
//!
//! [`TrialScratch`]: fefet_mem::yield_engine::TrialScratch

use fefet_alloctrack::count_allocations;
use fefet_mem::cell::FefetCell;
use fefet_mem::yield_engine::{YieldEngine, YieldSpec};
use fefet_telemetry::Instrumentation;

#[test]
fn warm_yield_trials_allocate_nothing() {
    let spec = YieldSpec {
        rows: 2,
        cols: 2,
        n_trials: 8,
        threads: 1,
        batch: 8,
        shmoo_nv: 2,
        shmoo_nt: 2,
        ..YieldSpec::default()
    };
    let engine =
        YieldEngine::new(FefetCell::default(), spec, Instrumentation::off()).expect("engine");
    let mut scratch = engine.make_scratch();
    // Cold trial: stands the workspace up; must allocate.
    let (cold, first) = count_allocations(|| engine.run_trial(&mut scratch, 0));
    assert!(first.solver_ok, "cold trial must converge");
    assert!(cold > 0, "first trial should build workspace state");
    // Warm trials: the whole per-trial pipeline, zero allocations.
    for trial in 1..8 {
        let (warm, out) = count_allocations(|| engine.run_trial(&mut scratch, trial));
        assert!(out.solver_ok, "trial {trial} must converge");
        assert!(out.warm_iters >= 1);
        assert_eq!(
            warm, 0,
            "warm yield trial {trial} performed {warm} heap allocations"
        );
    }
}
