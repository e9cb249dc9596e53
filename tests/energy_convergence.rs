//! Discretization error of the per-op energies. Cells step with the
//! trapezoidal rule at 20 ps, and the energy meter integrates each step
//! by the rule of the integrator that took it, so op energies converge
//! at second order. Each test runs one op at 20, 10, 5, 2.5 and 1.25 ps
//! and checks three things:
//!
//! - the error shrinks at least twofold per halving from 20 ps down;
//! - from 5 ps down it shrinks at least threefold per halving: the
//!   second-order rate, which the coarser steps have not reached yet;
//! - the 20 ps energy lies within a stated band of the Richardson limit
//!   extrapolated from the two finest steps.
//!
//! The backward-Euler counterpart, with an analytic reference, is the
//! `energy_meter_converges_at_the_integrator_order` unit test of the
//! transient engine.

use fefet::mem::cell::FefetCell;
use fefet::mem::feram::FeramCell;

/// Steps (s), coarsest first; the first is the cell default.
const DTS: [f64; 5] = [20e-12, 10e-12, 5e-12, 2.5e-12, 1.25e-12];

/// Richardson limit of a second-order sequence from its two finest
/// values.
fn limit(v: &[f64]) -> f64 {
    let n = v.len();
    v[n - 1] + (v[n - 1] - v[n - 2]) / 3.0
}

/// Checks the convergence of `energies` (one per [`DTS`] entry) and that
/// the 20 ps energy's relative error lies in `band`.
fn check(op: &str, energies: &[f64], band: (f64, f64)) {
    let lim = limit(energies);
    let errs: Vec<f64> = energies.iter().map(|e| (e - lim) / lim).collect();
    for (k, w) in errs[..3].windows(2).enumerate() {
        let ratio = w[0] / w[1];
        assert!(
            ratio >= 2.0,
            "{op}: error shrank only {ratio:.2}x from {} to {} ps (errors {errs:?})",
            DTS[k] * 1e12,
            DTS[k + 1] * 1e12
        );
    }
    let diffs: Vec<f64> = energies.windows(2).map(|w| w[0] - w[1]).collect();
    for (k, w) in diffs[2..].windows(2).enumerate() {
        let ratio = w[0] / w[1];
        assert!(
            ratio >= 3.0,
            "{op}: not second order below 5 ps: successive differences \
             shrink {ratio:.2}x at {} ps (energies {energies:?})",
            DTS[k + 3] * 1e12
        );
    }
    assert!(
        (band.0..=band.1).contains(&errs[0]),
        "{op}: 20 ps energy {:.4e} J is {:+.2}% off the limit {lim:.4e} J, \
         outside [{:+.1}%, {:+.1}%]",
        energies[0],
        errs[0] * 100.0,
        band.0 * 100.0,
        band.1 * 100.0
    );
}

fn fefet_cell(dt: f64) -> FefetCell {
    FefetCell {
        dt,
        ..FefetCell::default()
    }
}

fn feram_cell(dt: f64) -> FeramCell {
    FeramCell {
        dt,
        ..FeramCell::default()
    }
}

#[test]
fn fefet_write_energy_converges() {
    // 1 ns write '1' from the stored '0'; measured −6.5% at 20 ps.
    let (energies, p_final): (Vec<f64>, Vec<f64>) = DTS
        .iter()
        .map(|&dt| {
            let c = fefet_cell(dt);
            let w = c
                .write(true, c.checked_memory_states().unwrap().0, 1e-9)
                .expect("write");
            (w.energy, w.p_final)
        })
        .unzip();
    check("FEFET write", &energies, (-0.08, -0.05));
    // Measured 0.2054 against a 0.2058 C/m² limit.
    let p_lim = limit(&p_final);
    assert!(
        (p_final[0] - p_lim).abs() < 1e-3,
        "final P {:.5} at 20 ps vs limit {p_lim:.5} C/m²",
        p_final[0]
    );
}

#[test]
fn fefet_read_energy_converges() {
    // 3 ns read of the stored '1'; measured −0.5% at 20 ps.
    let energies: Vec<f64> = DTS
        .iter()
        .map(|&dt| {
            let c = fefet_cell(dt);
            c.read(c.checked_memory_states().unwrap().1, 3e-9)
                .expect("read")
                .energy
        })
        .collect();
    check("FEFET read", &energies, (-0.01, 0.0));
}

#[test]
fn feram_write_energy_converges() {
    // 1 ns write '1' from the stored '0'; measured −7.4% at 20 ps.
    let energies: Vec<f64> = DTS
        .iter()
        .map(|&dt| {
            let c = feram_cell(dt);
            c.write(true, c.checked_memory_states().unwrap().0, 1e-9)
                .expect("write")
                .energy
        })
        .collect();
    check("FERAM write", &energies, (-0.09, -0.06));
}

#[test]
fn feram_read_energy_converges() {
    // 3 ns destructive read of the stored '1'; measured −4.7% at 20 ps.
    let energies: Vec<f64> = DTS
        .iter()
        .map(|&dt| {
            let c = feram_cell(dt);
            c.read(c.checked_memory_states().unwrap().1, 3e-9)
                .expect("read")
                .energy
        })
        .collect();
    check("FERAM read", &energies, (-0.06, -0.035));
}
