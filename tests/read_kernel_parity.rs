//! Parity of the quasi-static read kernel (`FefetArray::sense_row`)
//! against the transient read it stands in for (`FefetArray::read_row`).
//!
//! The kernel holds the read-plateau bias and takes 12 point solves
//! (a backward-Euler step, then second-order BDF steps) over the
//! exposure the transient's sample point sees. The transient's sampled
//! current is still drifting at the sample time, so the kernel
//! integrates the same exposure with its own step error rather than
//! matching to solver tolerance. Each point here reads three rows both
//! ways from the same stored state and checks:
//!
//! - the digitized bits are identical and the kernel returns no error;
//! - no Newton solve failed, the sign of a stall;
//! - the currents agree within the window's band: 5e-5 relative from
//!   1.5 ns up, and looser at shorter windows, where the kernel's
//!   coarser steps and the transient's select edge (which the kernel
//!   replaces with a step) dominate;
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
/// may show against `read_row` at each: 5e-5 from 1.5 ns up, and below
/// that at most twice the worst error an earlier kernel measured over
/// both sizes and both histories (0.27 at 150 ps, 5.0e-3 at 0.8 ns,
/// 3.2e-4 at 1.2 ns). The second-order kernel measures 0.24, 2.0e-3
/// and 1.9e-4 there, 3.7e-5 at 1.5 and 2 ns and 1.8e-5 from 3 ns up.
const WINDOWS: [(f64, f64); 7] = [
    (0.15e-9, 0.5),
    (0.8e-9, 1e-2),
    (1.2e-9, 6e-4),
    (1.5e-9, 5e-5),
    (2e-9, 5e-5),
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
            let failures0 = tel.solver.failures.get();
            let sensed = a
                .sense_row(row, t_read)
                .unwrap_or_else(|e| panic!("{what}: kernel error {e}"));
            let iters = spent() - iters0;
            assert_eq!(sensed.bits, reference.bits, "{what}: bits");
            assert_eq!(
                tel.solver.failures.get(),
                failures0,
                "{what}: a Newton solve failed"
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

/// Sensing near the read windows where the films' backward-Euler steps
/// once sat at their singular width (h ≈ ρ/|dE/dP|, 70–200 ps): on
/// seeded 16×16 and 32×32 arrays, eight rows sensed at each window make
/// no failed Newton solve and read back the stored bits.
#[test]
fn sense_near_the_former_singular_widths_never_fails() {
    for n in [16, 32] {
        let mut a = FefetArray::new(n, n, FefetCell::default());
        let (p_lo, p_hi) = a.cell.memory_states();
        let mut rng = Rng::seed_from_u64(7);
        for i in 0..n {
            for j in 0..n {
                a.set_polarization(i, j, if rng.bool() { p_hi } else { p_lo });
            }
        }
        a.instr = Instrumentation::enabled();
        let tel = a.instr.get().expect("telemetry");
        for t_read in [0.9e-9, 1.0e-9, 1.2e-9, 1.5e-9] {
            for row in 0..8 {
                let what = format!("{n}x{n} row {row} at {:.1} ns", t_read * 1e9);
                let sensed = a
                    .sense_row(row, t_read)
                    .unwrap_or_else(|e| panic!("{what}: kernel error {e}"));
                let stored: Vec<bool> = (0..n).map(|j| a.bit(row, j)).collect();
                assert_eq!(sensed.bits, stored, "{what}: bits");
            }
        }
        assert_eq!(
            tel.solver.failures.get(),
            0,
            "{n}x{n}: a Newton solve failed"
        );
    }
}
