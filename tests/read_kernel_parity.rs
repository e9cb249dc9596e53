//! Parity of the quasi-static read kernel (`FefetArray::sense_row`)
//! against the transient read it stands in for (`FefetArray::read_row`).
//!
//! The kernel holds the read-plateau bias and takes 8 backward-Euler
//! point solves over the exposure the transient's sample point sees. The
//! transient's sampled current is still drifting at the sample time, so
//! the kernel integrates the same exposure with its own step error
//! rather than matching to solver tolerance. Each point here reads three
//! rows both ways from the same stored state and checks:
//!
//! - the digitized bits are identical and the kernel returns no error;
//! - no point solve had to split, the sign of a stall;
//! - the currents agree within the window's band: 5e-5 relative from
//!   3 ns up, and at most twice the error measured at shorter windows,
//!   where the kernel's coarser steps and the transient's select edge
//!   (which the kernel replaces with a step) dominate;
//! - a kernel read spends at most 100 Newton iterations.
//!
//! The arrays are 8×8 and the 32×32 of served escalations, each with a
//! write history (freshly written cells still relax off their stable
//! states) and with every stored polarization perturbed by up to
//! ±0.02 C/m².

use fefet::mem::array::FefetArray;
use fefet::mem::cell::FefetCell;
use fefet::numerics::rng::Rng;
use fefet::telemetry::Instrumentation;

/// Read windows (s) and the largest relative current error the kernel
/// may show against `read_row` at each: 5e-5 from 3 ns up, and at most
/// twice the worst error measured over both sizes and both histories
/// below that (0.27 at 150 ps, 5.0e-3 at 0.8 ns, 3.2e-4 at 1.2 ns; from
/// 3 ns up it is 2.1e-5).
const WINDOWS: [(f64, f64); 5] = [
    (0.15e-9, 0.5),
    (0.8e-9, 1e-2),
    (1.2e-9, 6e-4),
    (3e-9, 5e-5),
    (10e-9, 5e-5),
];

/// Newton iterations one kernel read may spend, summed over its point
/// solves (converged or not).
const MAX_ITERS_PER_READ: f64 = 100.0;

/// An n×n array with a seeded random pattern, then either three seeded
/// row writes (`perturbed = false`) or a uniform perturbation of up to
/// ±0.02 C/m² on every stored polarization.
fn array(n: usize, seed: u64, perturbed: bool) -> FefetArray {
    let mut a = FefetArray::new(n, n, FefetCell::default());
    let (p_lo, p_hi) = a.cell.memory_states();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n {
        for j in 0..n {
            let p = if rng.uniform() > 0.5 { p_hi } else { p_lo };
            a.set_polarization(i, j, p);
        }
    }
    if perturbed {
        for i in 0..n {
            for j in 0..n {
                let p = a.polarization(i, j) + rng.uniform_in(-0.02, 0.02);
                a.set_polarization(i, j, p);
            }
        }
    } else {
        for _ in 0..3 {
            let row = rng.below(n as u64) as usize;
            let data: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
            a.write_row(row, &data, 1e-9).expect("history write");
        }
    }
    a.instr = Instrumentation::enabled();
    a
}

fn kernel_matches_transient(n: usize, seed: u64, perturbed: bool) {
    let a = array(n, seed, perturbed);
    let tel = a.instr.get().expect("telemetry");
    // Newton iterations so far, converged solves or not.
    let spent = || tel.solver.newton_iterations.sum() + tel.solver.failed_iterations.get() as f64;
    for (t_read, band) in WINDOWS {
        for row in [0, n / 2, n - 1] {
            let what = format!(
                "{n}x{n} seed {seed}{} row {row} at {:.2} ns",
                if perturbed { " (perturbed)" } else { "" },
                t_read * 1e9
            );
            let reference = a.read_row(row, t_read).expect("transient read");
            let iters0 = spent();
            let splits0 = tel.steps.rejected_newton.get();
            let sensed = a
                .sense_row(row, t_read)
                .unwrap_or_else(|e| panic!("{what}: kernel error {e}"));
            let iters = spent() - iters0;
            assert_eq!(sensed.bits, reference.bits, "{what}: bits");
            assert_eq!(
                tel.steps.rejected_newton.get(),
                splits0,
                "{what}: a point solve failed and split"
            );
            assert!(
                iters <= MAX_ITERS_PER_READ,
                "{what}: {iters} Newton iterations"
            );
            for (j, (k, t)) in sensed.currents.iter().zip(&reference.currents).enumerate() {
                let rel = (k - t).abs() / k.abs().max(t.abs()).max(1e-30);
                assert!(
                    rel <= band,
                    "{what}: column {j} kernel {k:e} A vs transient {t:e} A (rel {rel:.2e} > {band:e})"
                );
            }
        }
    }
}

#[test]
fn kernel_matches_transient_8x8_written() {
    kernel_matches_transient(8, 1, false);
}

#[test]
fn kernel_matches_transient_8x8_perturbed() {
    kernel_matches_transient(8, 2, true);
}

#[test]
fn kernel_matches_transient_32x32_written() {
    kernel_matches_transient(32, 1, false);
}

#[test]
fn kernel_matches_transient_32x32_perturbed() {
    kernel_matches_transient(32, 2, true);
}
