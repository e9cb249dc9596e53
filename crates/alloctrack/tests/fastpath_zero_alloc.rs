//! Zero-allocation invariant for the transient fast paths: warm solves
//! with modified-Newton Jacobian reuse, device bypass, and telemetry all
//! ON must not touch the heap — the bypass bank is `Cell` slots sized at
//! the cold solve, a fast iteration is a residual-only stamp plus
//! permuted triangular solves against stored factors, and demotion back
//! to exact Newton — or the refresh a solve after a demoted or long one
//! takes on its first iteration — refactors entirely inside the
//! workspace.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{ElemState, Integration};
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_ckt::models::MosParams;
use fefet_ckt::waveform::Waveform;
use fefet_telemetry::Instrumentation;

/// Same nonlinear RC/MOSFET ladder as the other alloctrack tests:
/// > 100 unknowns so the sparse backend sees real fill-in.
fn ladder() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
    let mut prev = vdd;
    for i in 0..60 {
        let n = c.node(&format!("n{i}"));
        c.resistor(&format!("R{i}"), prev, n, 1e3);
        c.capacitor(&format!("C{i}"), n, Circuit::GND, 1e-15);
        if i % 10 == 5 {
            c.mosfet(
                &format!("M{i}"),
                n,
                prev,
                Circuit::GND,
                MosParams::nmos_45nm(),
            );
        }
        prev = n;
    }
    c
}

#[test]
fn fastpath_warm_transient_solves_allocate_nothing() {
    let c = ladder();
    let asm = Assembly::new(&c);
    let n = asm.n_unknowns();
    let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
    let instr = Instrumentation::enabled();

    for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
        let opts = SolverOptions {
            backend,
            jacobian_reuse: true,
            bypass: true,
            instr: instr.clone(),
            ..SolverOptions::default()
        };
        let mut ws = NewtonWorkspace::new(n);
        let mut x = vec![0.0; n];
        // Cold transient solve: builds backend state, factors, and the
        // bypass bank; must allocate.
        let (cold, r) = count_allocations(|| {
            asm.solve_point_with(
                &c,
                1e-9,
                1e-9,
                Integration::BackwardEuler,
                false,
                &opts,
                &mut x,
                &states,
                &mut ws,
            )
        });
        r.unwrap();
        assert!(cold > 0, "{backend:?}: cold solve should build state");

        // Phase 1 — resolves from the converged point: the stored
        // factorization and the cached operating points both hit, so
        // these ride the fast path end to end.
        for trial in 0..3 {
            let (warm, r) = count_allocations(|| {
                asm.solve_point_with(
                    &c,
                    1e-9,
                    1e-9,
                    Integration::BackwardEuler,
                    false,
                    &opts,
                    &mut x,
                    &states,
                    &mut ws,
                )
            });
            r.unwrap();
            assert_eq!(
                warm, 0,
                "{backend:?} trial {trial}: fast-path warm solve performed \
                 {warm} heap allocations"
            );
        }

        // Phase 2 — perturbed warm solves: bypass misses re-evaluate the
        // devices in place, and demotion to exact Newton refactors inside
        // the workspace. Still zero allocations.
        for trial in 0..3 {
            for v in x.iter_mut() {
                *v += 0.013;
            }
            let (warm, r) = count_allocations(|| {
                asm.solve_point_with(
                    &c,
                    1e-9,
                    1e-9,
                    Integration::BackwardEuler,
                    false,
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
                "{backend:?} perturbed trial {trial}: warm solve performed \
                 {warm} heap allocations"
            );
        }

        // Phase 3 — refresh: each perturbed solve leaves the fast path
        // or runs long, so the resolve from its converged point refactors
        // on its first iteration (one factorization where a reuse would
        // have taken none) and converges there. Still zero allocations.
        let tel = instr.get().expect("enabled");
        let factors = || tel.solver.sparse_refactors.get() + tel.solver.dense_factors.get();
        for trial in 0..2 {
            for v in x.iter_mut() {
                *v -= 0.021;
            }
            let solve = |x: &mut [f64], ws: &mut NewtonWorkspace| {
                asm.solve_point_with(
                    &c,
                    1e-9,
                    1e-9,
                    Integration::BackwardEuler,
                    false,
                    &opts,
                    x,
                    &states,
                    ws,
                )
            };
            solve(&mut x, &mut ws).unwrap();
            let before = factors();
            let (warm, r) = count_allocations(|| solve(&mut x, &mut ws));
            assert_eq!(r.unwrap(), 1, "{backend:?} refresh trial {trial}");
            assert_eq!(
                factors() - before,
                1,
                "{backend:?} refresh trial {trial}: the resolve rode stale factors"
            );
            assert_eq!(
                warm, 0,
                "{backend:?} refresh trial {trial}: refreshing solve performed \
                 {warm} heap allocations"
            );
        }
    }

    // The fast paths actually fired while staying allocation-free.
    let tel = instr.get().expect("enabled");
    assert_eq!(
        tel.solver.solves.get(),
        22,
        "2 backends x (1 cold + 10 warm)"
    );
    assert!(
        tel.solver.jacobian_reuses.get() > 0,
        "warm solves should ride stored factors"
    );
    assert!(
        tel.solver.bypass_hits.get() > 0,
        "resolves from the converged point should hit the bypass cache"
    );
    assert!(
        tel.solver.bypass_misses.get() > 0,
        "perturbed solves should miss the bypass cache"
    );
}
