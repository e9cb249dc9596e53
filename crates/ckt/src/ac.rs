//! AC (small-signal, frequency-domain) analysis.
//!
//! The circuit is linearized around a bias point and solved in the
//! phasor domain over a list of frequencies. Nonlinear elements
//! contribute their small-signal conductances at the bias point; dynamic
//! elements contribute `jωC` / `jωL` terms. The ferroelectric capacitor
//! keeps its polarization unknown: its row `v = (dV/dP + jω·T_FE·ρ)·P`,
//! carrying the current `jω·A·P`, is its series viscosity resistance
//! plus the (possibly **negative**) small-signal capacitance
//! `C_FE = A / (T_FE · dE/dP)` at its stored polarization — making the
//! Salahuddin-Datta voltage amplification of the negative-capacitance
//! region directly observable (see the `nc_voltage_amplification`
//! test).
//!
//! The sweep stamps the frequency-independent part of the MNA system
//! (conductances, small-signal transconductances, source incidence
//! rows, gmin) exactly once into a base matrix, and collects the
//! frequency-dependent contributions as a flat list of dynamic terms.
//! Each frequency point then restores the base stamp with
//! [`CMatrix::copy_from`], replays the dynamic terms at the new `ω`,
//! and solves in place — no per-point re-stamping and no per-point
//! allocation beyond the recorded solution row.

use crate::circuit::Circuit;
use crate::dc::{dc_operating_point, DcOptions, DcSolution};
use crate::elements::{Element, Node};
use crate::engine::Assembly;
use crate::models::MosPolarity;
use crate::{CktError, Result};
use fefet_numerics::complex::{CMatrix, Complex};
use std::collections::HashMap;

/// Options for [`ac_analysis`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AcOptions {
    /// Options for the underlying DC operating-point solve.
    pub dc: DcOptions,
}

/// Result of an AC sweep: node-voltage phasors per frequency.
#[derive(Debug, Clone)]
pub struct AcSweep {
    freqs: Vec<f64>,
    index: HashMap<String, usize>,
    /// `data[f_idx][unknown_idx]`
    data: Vec<Vec<Complex>>,
    /// The bias point the circuit was linearized at.
    pub op: DcSolution,
}

impl AcSweep {
    /// The swept frequencies (Hz).
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Phasor of `v(<node>)` at frequency index `k`.
    pub fn phasor(&self, name: &str, k: usize) -> Option<Complex> {
        let i = *self.index.get(name)?;
        self.data.get(k).map(|row| row[i])
    }

    /// Magnitude response of a node over the sweep.
    pub fn magnitude(&self, name: &str) -> Option<Vec<f64>> {
        let i = *self.index.get(name)?;
        Some(self.data.iter().map(|row| row[i].abs()).collect())
    }

    /// Phase response (radians) of a node over the sweep.
    pub fn phase(&self, name: &str) -> Option<Vec<f64>> {
        let i = *self.index.get(name)?;
        Some(self.data.iter().map(|row| row[i].arg()).collect())
    }
}

/// Runs an AC analysis: the named voltage source becomes the unit-
/// amplitude phasor input; every other independent source is zeroed
/// (V sources short, I sources open).
///
/// # Errors
///
/// [`CktError::UnknownSignal`] if `ac_source` is not a voltage source;
/// DC or linear-solve failures propagate.
pub fn ac_analysis(
    ckt: &Circuit,
    ac_source: &str,
    freqs: &[f64],
    opts: AcOptions,
) -> Result<AcSweep> {
    match ckt.find_element(ac_source) {
        Some(Element::VSource { .. }) => {}
        _ => {
            return Err(CktError::UnknownSignal(format!(
                "AC source {ac_source} must be a voltage source"
            )))
        }
    }
    let op = dc_operating_point(ckt, opts.dc.clone())?;
    let asm = Assembly::new(ckt);
    let n = asm.n_unknowns();
    let nv = ckt.n_nodes() - 1;

    let v_of = |node: &Node| -> f64 { op.v(*node) };

    let mut index = HashMap::new();
    for k in 1..ckt.n_nodes() {
        index.insert(format!("v({})", ckt.node_name(Node(k))), k - 1);
    }

    // One static stamp pass: everything that does not depend on
    // frequency goes into `base`/`rhs`; the jω terms are collected for
    // replay at each point.
    let mut base = CMatrix::zeros(n);
    let mut rhs = vec![Complex::ZERO; n];
    let mut dyn_terms: Vec<DynTerm> = Vec::new();
    // gmin for conditioning, as in the real-valued engine.
    for k in 0..nv {
        base.add(k, k, Complex::real(opts.dc.solver.gmin.max(1e-12)));
    }
    for (i, (name, e)) in ckt.elements().iter().enumerate() {
        stamp_static(
            &mut base,
            &mut rhs,
            &mut dyn_terms,
            e,
            asm.branch0[i],
            nv,
            &v_of,
            name == ac_source,
        );
    }
    if let Some(tel) = opts.dc.solver.instr.get() {
        tel.solver.ac_stamp_passes.inc();
    }

    let mut work = CMatrix::zeros(n);
    let mut data = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let w = 2.0 * std::f64::consts::PI * f;
        work.copy_from(&base)?;
        for term in &dyn_terms {
            term.apply(&mut work, w);
        }
        let mut x = rhs.clone();
        work.solve_in_place(&mut x)?;
        data.push(x);
        if let Some(tel) = opts.dc.solver.instr.get() {
            tel.solver.ac_points.inc();
        }
    }
    Ok(AcSweep {
        freqs: freqs.to_vec(),
        index,
        data,
        op,
    })
}

/// A frequency-dependent stamp, replayed per sweep point on top of the
/// restored static base matrix.
#[derive(Debug, Clone, Copy)]
enum DynTerm {
    /// Two-terminal admittance `jωC` (capacitors, MOSFET gate cap).
    Cap {
        ia: Option<usize>,
        ib: Option<usize>,
        farads: f64,
    },
    /// Ferroelectric capacitor with polarization unknown `br`: current
    /// `jω·area·P` out of `a` into `b`, and `−jω·tau·P` (`tau = T_FE·ρ`)
    /// in its branch row.
    FeCap {
        ia: Option<usize>,
        ib: Option<usize>,
        br: usize,
        area: f64,
        tau: f64,
    },
    /// Inductor branch equation term `-jωL` at `(br, br)`.
    Ind { br: usize, henries: f64 },
}

impl DynTerm {
    fn apply(&self, m: &mut CMatrix, w: f64) {
        match *self {
            DynTerm::Cap { ia, ib, farads } => {
                admittance(m, ia, ib, Complex::imag(w * farads));
            }
            DynTerm::FeCap {
                ia,
                ib,
                br,
                area,
                tau,
            } => {
                if let Some(i) = ia {
                    m.add(i, br, Complex::imag(w * area));
                }
                if let Some(j) = ib {
                    m.add(j, br, Complex::imag(-w * area));
                }
                m.add(br, br, Complex::imag(-w * tau));
            }
            DynTerm::Ind { br, henries } => {
                m.add(br, br, Complex::imag(-w * henries));
            }
        }
    }
}

fn admittance(m: &mut CMatrix, ia: Option<usize>, ib: Option<usize>, y: Complex) {
    if let Some(i) = ia {
        m.add(i, i, y);
    }
    if let Some(j) = ib {
        m.add(j, j, y);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        m.add(i, j, -y);
        m.add(j, i, -y);
    }
}

#[allow(clippy::too_many_arguments)]
fn stamp_static<F>(
    m: &mut CMatrix,
    rhs: &mut [Complex],
    dyn_terms: &mut Vec<DynTerm>,
    e: &Element,
    branch0: usize,
    nv: usize,
    v_of: &F,
    is_ac_source: bool,
) where
    F: Fn(&Node) -> f64,
{
    let idx = |node: &Node| -> Option<usize> {
        if node.index() == 0 {
            None
        } else {
            Some(node.index() - 1)
        }
    };
    match e {
        Element::Resistor { a, b, ohms } => {
            admittance(m, idx(a), idx(b), Complex::real(1.0 / ohms))
        }
        Element::Capacitor { a, b, farads } => {
            dyn_terms.push(DynTerm::Cap {
                ia: idx(a),
                ib: idx(b),
                farads: *farads,
            });
        }
        Element::Switch {
            a,
            b,
            ctrl,
            r_on,
            r_off,
            ..
        } => {
            let r = if ctrl.eval(0.0) > 0.5 { *r_on } else { *r_off };
            admittance(m, idx(a), idx(b), Complex::real(1.0 / r));
        }
        Element::Diode {
            a,
            b,
            i_sat,
            n_ideality,
        } => {
            let vt = n_ideality * 0.02585;
            let x = ((v_of(a) - v_of(b)) / vt).min(40.0);
            let g = i_sat * x.exp() / vt;
            admittance(m, idx(a), idx(b), Complex::real(g));
        }
        Element::FeCap { a, b, params, p0 } => {
            // v_a − v_b − (dV/dP + jω·T_FE·ρ)·P = 0 at P = p0: the
            // impedance T_FE·ρ/A + dV/dP/(jωA) seen through I = jωA·P.
            let br = nv + branch0;
            if let Some(i) = idx(a) {
                m.add(br, i, Complex::ONE);
            }
            if let Some(j) = idx(b) {
                m.add(br, j, -Complex::ONE);
            }
            m.add(br, br, Complex::real(-params.dv_dp(*p0)));
            dyn_terms.push(DynTerm::FeCap {
                ia: idx(a),
                ib: idx(b),
                br,
                area: params.area,
                tau: params.thickness * params.lk.rho,
            });
        }
        Element::Mosfet { d, g, s, card } => {
            let params = card.params();
            let (vd, vg, vs) = (v_of(d), v_of(g), v_of(s));
            let (gm, gds, sign) = match params.polarity {
                MosPolarity::Nmos => {
                    let (_, gm, gds) = params.ids(vg - vs, vd - vs);
                    (gm, gds, 1.0)
                }
                MosPolarity::Pmos => {
                    let (_, gm, gds) = params.ids(vs - vg, vs - vd);
                    (gm, gds, 1.0)
                }
            };
            let _ = sign;
            // Channel: i(d->s) = gm·v_gs + gds·v_ds (same structure for
            // both polarities after normalization).
            let stamp4 = |m: &mut CMatrix, row: Option<usize>, col: Option<usize>, v: f64| {
                if let (Some(r), Some(c)) = (row, col) {
                    m.add(r, c, Complex::real(v));
                }
            };
            let (di, dgi, dsi) = (idx(d), idx(g), idx(s));
            stamp4(m, di, di, gds);
            stamp4(m, di, dgi, gm);
            stamp4(m, di, dsi, -(gm + gds));
            stamp4(m, dsi, di, -gds);
            stamp4(m, dsi, dgi, -gm);
            stamp4(m, dsi, dsi, gm + gds);
            // Gate capacitance at the bias point.
            let vgs = match params.polarity {
                MosPolarity::Nmos => vg - vs,
                MosPolarity::Pmos => vs - vg,
            };
            dyn_terms.push(DynTerm::Cap {
                ia: idx(g),
                ib: idx(s),
                farads: params.c_gate(vgs),
            });
        }
        Element::Vccs { p, n, cp, cn, gm } => {
            let add = |m: &mut CMatrix, r: Option<usize>, c: Option<usize>, v: f64| {
                if let (Some(r), Some(c)) = (r, c) {
                    m.add(r, c, Complex::real(v));
                }
            };
            add(m, idx(p), idx(cp), *gm);
            add(m, idx(p), idx(cn), -gm);
            add(m, idx(n), idx(cp), -gm);
            add(m, idx(n), idx(cn), *gm);
        }
        Element::VSource { a, b, .. } => {
            let br = nv + branch0;
            if let Some(i) = idx(a) {
                m.add(i, br, Complex::ONE);
                m.add(br, i, Complex::ONE);
            }
            if let Some(j) = idx(b) {
                m.add(j, br, -Complex::ONE);
                m.add(br, j, -Complex::ONE);
            }
            rhs[br] = if is_ac_source {
                Complex::ONE
            } else {
                Complex::ZERO
            };
        }
        Element::Vcvs { p, n, cp, cn, gain } => {
            let br = nv + branch0;
            if let Some(i) = idx(p) {
                m.add(i, br, Complex::ONE);
                m.add(br, i, Complex::ONE);
            }
            if let Some(j) = idx(n) {
                m.add(j, br, -Complex::ONE);
                m.add(br, j, -Complex::ONE);
            }
            if let Some(i) = idx(cp) {
                m.add(br, i, Complex::real(-gain));
            }
            if let Some(j) = idx(cn) {
                m.add(br, j, Complex::real(*gain));
            }
        }
        Element::Inductor { a, b, henries } => {
            let br = nv + branch0;
            if let Some(i) = idx(a) {
                m.add(i, br, Complex::ONE);
                m.add(br, i, Complex::ONE);
            }
            if let Some(j) = idx(b) {
                m.add(j, br, -Complex::ONE);
                m.add(br, j, -Complex::ONE);
            }
            // v - jωL i = 0: the -jωL term replays per frequency.
            dyn_terms.push(DynTerm::Ind {
                br,
                henries: *henries,
            });
        }
        Element::ISource { .. } => {
            // AC-zeroed (open). AC current sources are not yet supported.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::FeCapParams;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_bode() {
        // R = 1k, C = 1nF: f_c = 159.15 kHz.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let sweep = ac_analysis(
            &c,
            "V1",
            &[fc / 100.0, fc, fc * 100.0],
            AcOptions::default(),
        )
        .unwrap();
        let mag = sweep.magnitude("v(out)").unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband {}", mag[0]);
        assert!(
            (mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "-3dB point {}",
            mag[1]
        );
        assert!(mag[2] < 0.02, "stopband {}", mag[2]);
        let ph = sweep.phase("v(out)").unwrap();
        assert!(
            (ph[1] + std::f64::consts::FRAC_PI_4).abs() < 1e-3,
            "-45 deg at fc, got {}",
            ph[1]
        );
    }

    #[test]
    fn rlc_series_resonance() {
        // L = 1µH, C = 1nF: f0 = 5.033 MHz; at resonance the full input
        // appears across R.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        let out = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        c.inductor("L1", vin, mid, 1e-6);
        c.capacitor("C1", mid, out, 1e-9);
        c.resistor("R1", out, Circuit::GND, 10.0);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let sweep =
            ac_analysis(&c, "V1", &[f0 / 10.0, f0, f0 * 10.0], AcOptions::default()).unwrap();
        let mag = sweep.magnitude("v(out)").unwrap();
        assert!((mag[1] - 1.0).abs() < 1e-3, "resonance {}", mag[1]);
        assert!(mag[0] < 0.1 && mag[2] < 0.1, "off-resonance {mag:?}");
    }

    #[test]
    fn mosfet_common_source_gain() {
        // Small-signal gain ≈ gm·(RD || ro) inverted.
        use crate::models::MosParams;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        c.vsource("VG", g, Circuit::GND, Waveform::dc(0.70));
        c.resistor("RD", vdd, d, 20e3);
        c.mosfet("M1", d, g, Circuit::GND, MosParams::nmos_45nm());
        let sweep = ac_analysis(&c, "VG", &[1e3], AcOptions::default()).unwrap();
        let gain = sweep.magnitude("v(d)").unwrap()[0];
        assert!(gain > 1.2, "CS stage should amplify, |A| = {gain}");
        // Inverting stage: phase near 180 degrees.
        let ph = sweep.phase("v(d)").unwrap()[0].abs();
        assert!(
            (ph - std::f64::consts::PI).abs() < 0.2,
            "phase {ph} should be ~pi"
        );
    }

    #[test]
    fn nc_voltage_amplification() {
        // Salahuddin-Datta: a negative capacitance in series with a
        // positive one amplifies the voltage across the positive cap:
        // |v_mid / v_in| = |C_FE| / (|C_FE| - C_pos) > 1 when matched.
        let fe = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let c_fe = fe.capacitance_density(0.0) * fe.area; // negative, F
        assert!(c_fe < 0.0);
        let c_pos = 0.5 * c_fe.abs(); // below |C_FE|: stable series stack
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        c.fecap("F1", vin, mid, fe, 0.0);
        c.capacitor("Cp", mid, Circuit::GND, c_pos);
        // Mid frequency: capacitive impedances far below 1/gmin but far
        // above the viscosity resistance.
        let sweep = ac_analysis(&c, "V1", &[1e6], AcOptions::default()).unwrap();
        let gain = sweep.magnitude("v(mid)").unwrap()[0];
        let expect = c_fe.abs() / (c_fe.abs() - c_pos);
        assert!(
            (gain - expect).abs() < 0.05 * expect,
            "NC step-up {gain:.3} vs expected {expect:.3}"
        );
        assert!(gain > 1.0, "must amplify: {gain}");
    }

    /// The film's polarization row carries the same small-signal
    /// impedance as the series form `T_FE·ρ/A + (dV/dP)/(jωA)`: a film
    /// into a resistor divides the source as that impedance does, in the
    /// NC region and on a stable branch, across frequency, within 1e-9
    /// relative: where the film's impedance dwarfs the load the two
    /// forms round differently (8.9e-11 at 1 MHz). The analytic divider
    /// includes the 1e-12 S gmin at the middle node.
    #[test]
    fn fecap_row_matches_the_series_impedance() {
        let fe = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let pr = fe.lk.remnant_polarization().unwrap();
        let r_load = 1e3;
        for p0 in [0.0, 0.2, pr] {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let mid = c.node("mid");
            c.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
            c.fecap("F1", vin, mid, fe, p0);
            c.resistor("RL", mid, Circuit::GND, r_load);
            let freqs = [1e6, 1e9, 1e11, 1e13];
            let sweep = ac_analysis(&c, "V1", &freqs, AcOptions::default()).unwrap();
            for (k, &f) in freqs.iter().enumerate() {
                let w = 2.0 * std::f64::consts::PI * f;
                let z_fe = Complex::real(fe.series_resistance())
                    + Complex::real(fe.dv_dp(p0) / fe.area) / Complex::imag(w);
                let y_load = Complex::real(1.0 / r_load + 1e-12);
                let expect = (Complex::ONE + z_fe * y_load).recip();
                let got = sweep.phasor("v(mid)", k).unwrap();
                assert!(
                    (got - expect).abs() <= 1e-9 * expect.abs(),
                    "P = {p0}, {f:e} Hz: row {got} vs series {expect}"
                );
            }
        }
    }

    #[test]
    fn swept_points_match_single_point_runs() {
        // The shared-base-stamp sweep must be numerically identical to
        // running every frequency as its own one-point analysis, on a
        // circuit exercising every dynamic term (C, FeCap, L, MOSFET).
        use crate::models::MosParams;
        use fefet_telemetry::Instrumentation;
        let fe = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        let out = c.node("out");
        let d = c.node("d");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(0.7));
        c.inductor("L1", vin, mid, 1e-6);
        c.resistor("R1", mid, out, 1e3);
        c.capacitor("C1", out, Circuit::GND, 1e-9);
        c.fecap("F1", mid, out, fe, 0.0);
        c.resistor("RD", vin, d, 20e3);
        c.mosfet("M1", d, mid, Circuit::GND, MosParams::nmos_45nm());
        c.diode("D1", out, Circuit::GND, 1e-14, 1.0);

        let freqs = [1e3, 1e5, 1e6, 1e8];
        let mut opts = AcOptions::default();
        opts.dc.solver.instr = Instrumentation::enabled();
        let sweep = ac_analysis(&c, "V1", &freqs, opts.clone()).unwrap();
        let tel = opts.dc.solver.instr.get().unwrap();
        assert_eq!(tel.solver.ac_stamp_passes.get(), 1, "one stamp pass");
        assert_eq!(tel.solver.ac_points.get(), freqs.len() as u64);

        for (k, &f) in freqs.iter().enumerate() {
            let single = ac_analysis(&c, "V1", &[f], AcOptions::default()).unwrap();
            for node in ["v(mid)", "v(out)", "v(d)"] {
                let a = sweep.phasor(node, k).unwrap();
                let b = single.phasor(node, 0).unwrap();
                assert!(
                    (a - b).abs() < 1e-12,
                    "{node} at {f} Hz: sweep {a} vs single {b}"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 1e3);
        assert!(ac_analysis(&c, "R1", &[1e3], AcOptions::default()).is_err());
    }
}
