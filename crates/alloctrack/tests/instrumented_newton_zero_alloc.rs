//! Companion to `newton_zero_alloc.rs`: the same warm-solve invariant
//! with telemetry **enabled**. Recording is relaxed-atomic counter and
//! histogram updates only, so turning instrumentation on must not cost
//! the hot path a single heap allocation either — the span registry
//! allocates at registration time, and `ConvergenceReport` only on the
//! failure path, neither of which a converging warm solve touches.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_ckt::elements::Integration;
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverOptions};
use fefet_telemetry::Instrumentation;

mod common;

#[test]
fn instrumented_warm_newton_solves_allocate_nothing() {
    let instr = Instrumentation::enabled();
    let opts = SolverOptions {
        instr: instr.clone(),
        ..SolverOptions::default()
    };
    for (name, c) in common::systems() {
        let asm = Assembly::new(&c);
        let n = asm.n_unknowns();
        for dc in [true, false] {
            let mut ws = NewtonWorkspace::new(n);
            let (h, t) = if dc { (0.0, 0.0) } else { (1e-9, 1e-9) };
            let (mut x, states) = common::cold_start(&c, &asm);
            // Cold solve: builds the sparse state; must allocate.
            let (cold, r) = count_allocations(|| {
                asm.solve_point_with(
                    &c,
                    t,
                    h,
                    Integration::BackwardEuler,
                    dc,
                    &opts,
                    &mut x,
                    &states,
                    &mut ws,
                )
            });
            r.unwrap();
            assert!(
                cold > 0,
                "{name} dc={dc}: cold solve should build the sparse state"
            );
            for trial in 0..3 {
                for v in x.iter_mut() {
                    *v += 0.013;
                }
                let (warm, r) = count_allocations(|| {
                    asm.solve_point_with(
                        &c,
                        t,
                        h,
                        Integration::BackwardEuler,
                        dc,
                        &opts,
                        &mut x,
                        &states,
                        &mut ws,
                    )
                });
                let iters = r.unwrap();
                assert!(iters >= 1);
                assert_eq!(
                    warm, 0,
                    "{name} dc={dc} trial {trial}: instrumented warm solve \
                     performed {warm} heap allocations"
                );
            }
        }
    }
    // And the recording actually happened: one converged solve per
    // (system, mode) pair per trial plus the cold solves.
    let tel = instr.get().expect("enabled");
    assert_eq!(tel.solver.solves.get(), 16, "4 combos x (1 cold + 3 warm)");
    assert!(tel.solver.newton_iterations.count() == 16);
    assert!(tel.solver.back_substitutions.get() > 0);
}
