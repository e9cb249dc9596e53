//! Pins the zero-allocation Newton hot-path invariant with a counting
//! global allocator: after the first (cold) solve builds the sparse
//! state inside `NewtonWorkspace`, every further solve — of an array-
//! sized ladder or a single FEFET cell, DC or transient stamping — must
//! perform exactly zero heap allocations, across stamping, numeric
//! (re)factorization, triangular solves, damping, and convergence
//! checks.
//!
//! This file holds a single `#[test]` on purpose: the allocation
//! counter is process-global, so a concurrently running sibling test
//! would inflate the counts.

use fefet_alloctrack::count_allocations;
use fefet_ckt::elements::Integration;
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverOptions};

mod common;

#[test]
fn warm_newton_solves_allocate_nothing() {
    let opts = SolverOptions::default();
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
            // Warm solves: perturb the iterate so Newton has to take
            // several genuine iterations, and demand zero allocations.
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
                    "{name} dc={dc} trial {trial}: warm solve performed {warm} heap allocations"
                );
            }
        }
    }
}
