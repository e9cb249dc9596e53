//! Cold/warm point-solve timing of the sparse vs BBD backends on real
//! array read circuits, through the engine's public API. Diagnostic
//! tool for placing the Auto-promotion crossover, not a committed
//! bench. Usage: `bbd_profile [rows] [skip-sparse]`.

use fefet_ckt::elements::{ElemState, Integration};
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverBackend, SolverOptions};
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap())
        .unwrap_or(32);
    let skip_sparse = std::env::args().nth(2).is_some();
    let a = FefetArray::new(rows, rows, FefetCell::default());
    let (ckt, plan) = a.read_circuit_with_plan(0, 3e-9).expect("read circuit");
    let plan = Arc::new(plan);
    let asm = Assembly::new(&ckt);
    let states: Vec<ElemState> = ckt.elements().iter().map(|_| ElemState::None).collect();
    let n = asm.n_unknowns();
    println!("{rows}x{rows}: n = {n}");
    let t_bias = 0.5e-9;

    let exact = SolverOptions {
        jacobian_reuse: false,
        bypass: false,
        ..SolverOptions::default()
    };
    let backends: Vec<(&str, SolverOptions)> = vec![
        (
            "bbd",
            SolverOptions {
                backend: SolverBackend::Bbd,
                block_plan: Some(plan),
                ..exact.clone()
            },
        ),
        (
            "sparse",
            SolverOptions {
                backend: SolverBackend::Sparse,
                ..exact
            },
        ),
    ];

    for (name, opts) in &backends {
        if *name == "sparse" && skip_sparse {
            continue;
        }
        // Cold: fresh workspace, solve from zeros (records the pattern,
        // analyzes, factors, iterates to convergence).
        let mut ws = NewtonWorkspace::new(n);
        let mut x = vec![0.0; n];
        let t0 = Instant::now();
        asm.solve_point_with(
            &ckt,
            t_bias,
            0.0,
            Integration::BackwardEuler,
            true,
            opts,
            &mut x,
            &states,
            &mut ws,
        )
        .expect("cold solve");
        let cold = t0.elapsed();
        let x_star = x.clone();
        // Warm exact: stamp + full refactor + solve per call.
        let reps = if n > 50_000 { 5 } else { 20 };
        let t0 = Instant::now();
        for _ in 0..reps {
            x.copy_from_slice(&x_star);
            asm.solve_point_with(
                &ckt,
                t_bias,
                0.0,
                Integration::BackwardEuler,
                true,
                opts,
                &mut x,
                &states,
                &mut ws,
            )
            .expect("warm solve");
        }
        let warm = t0.elapsed() / reps;
        // Warm fast-path (jacobian reuse on): mostly stamp + solve.
        let fast = SolverOptions {
            jacobian_reuse: true,
            bypass: false,
            ..opts.clone()
        };
        let t0 = Instant::now();
        for _ in 0..reps {
            x.copy_from_slice(&x_star);
            asm.solve_point_with(
                &ckt,
                t_bias,
                0.0,
                Integration::BackwardEuler,
                true,
                &fast,
                &mut x,
                &states,
                &mut ws,
            )
            .expect("fast solve");
        }
        let fastt = t0.elapsed() / reps;
        println!(
            "  {name:7} cold {cold:>12.3?}  warm-exact {warm:>10.3?}  warm-reuse {fastt:>10.3?}"
        );
    }
}
