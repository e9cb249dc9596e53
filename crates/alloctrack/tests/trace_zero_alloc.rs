//! Companion to `instrumented_newton_zero_alloc.rs`: the same warm-solve
//! invariant with **full profiling** on — a `TraceRecorder` attached and
//! latency histograms live. The record path is a thread-local lane-cache
//! lookup plus four relaxed atomic stores into a preallocated ring, and
//! histogram recording is a handful of relaxed atomic updates, so a warm
//! converging solve must still not touch the heap. Lane claim (ring
//! allocation, label formatting) happens on the cold solve only.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_ckt::elements::Integration;
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverOptions};
use fefet_telemetry::Instrumentation;

mod common;

#[test]
fn profiled_warm_newton_solves_allocate_nothing() {
    let instr = Instrumentation::enabled();
    let tr = instr
        .get()
        .expect("enabled")
        .attach_trace(fefet_telemetry::trace::DEFAULT_EVENTS_PER_LANE);
    let opts = SolverOptions {
        instr: instr.clone(),
        ..SolverOptions::default()
    };
    for (name, c) in common::systems() {
        let asm = Assembly::new(&c);
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let (mut x, states) = common::cold_start(&c, &asm);
        // Cold solve: builds the sparse state and, on the first system,
        // claims this thread's trace lane; both may (and do) allocate.
        let (cold, r) = count_allocations(|| {
            asm.solve_point_with(
                &c,
                0.0,
                0.0,
                Integration::BackwardEuler,
                true,
                &opts,
                &mut x,
                &states,
                &mut ws,
            )
        });
        r.unwrap();
        assert!(cold > 0, "{name}: cold solve builds the sparse state");
        for trial in 0..3 {
            for v in x.iter_mut() {
                *v += 0.013;
            }
            let (warm, r) = count_allocations(|| {
                asm.solve_point_with(
                    &c,
                    0.0,
                    0.0,
                    Integration::BackwardEuler,
                    true,
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
                "{name} trial {trial}: profiled warm solve \
                 performed {warm} heap allocations"
            );
        }
    }
    // The profiling actually happened: every solve emitted a Newton
    // complete event and a latency sample, with nothing dropped.
    let tel = instr.get().expect("enabled");
    assert_eq!(tel.solver.solves.get(), 8, "2 systems x (1 cold + 3 warm)");
    assert_eq!(tel.latency.solve_ns.count(), 8);
    assert!(tel.latency.solve_ns.p50() <= tel.latency.solve_ns.p99());
    assert!(
        tr.events_recorded() >= 8,
        "newton events plus factor instants"
    );
    assert_eq!(tr.dropped(), 0);
    assert_eq!(tr.lanes_claimed(), 1, "single test thread, single lane");
}
