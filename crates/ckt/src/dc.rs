//! DC operating-point analysis.
//!
//! Capacitors and ferroelectric capacitors are open circuits in DC (an
//! FE capacitor's polarization unknown stays at its stored value); the
//! solve uses Newton with gmin stepping as a convergence aid for strongly
//! nonlinear (MOSFET/diode) circuits.

use crate::circuit::Circuit;
use crate::elements::{ElemState, Integration, Node};
use crate::engine::{Assembly, NewtonWorkspace, SolverOptions};
use crate::{CktError, Result};

/// Options for [`dc_operating_point`].
///
/// Not `Copy` (the solver options carry an instrumentation handle);
/// clone where a copy used to happen.
#[derive(Debug, Clone, PartialEq)]
pub struct DcOptions {
    /// Newton solver settings (the `gmin` field is the *final* gmin).
    pub solver: SolverOptions,
    /// Starting gmin (S) for gmin stepping when the direct solve fails.
    pub gmin_start: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions {
            solver: SolverOptions::default(),
            gmin_start: 1e-3,
        }
    }
}

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    x: Vec<f64>,
    n_nodes: usize,
    branch_names: Vec<(String, usize)>,
}

impl DcSolution {
    /// Node voltage at `node`.
    pub fn v(&self, node: Node) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch unknown by element name: the current of a voltage source,
    /// VCVS or inductor (positive into the element's positive terminal),
    /// or an FE capacitor's polarization (C/m²).
    pub fn branch_current(&self, name: &str) -> Option<f64> {
        self.branch_names
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| self.x[self.n_nodes - 1 + b])
    }

    /// The raw unknown vector (node voltages then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }
}

/// Computes the DC operating point of `ckt`.
///
/// # Errors
///
/// [`CktError::Convergence`] or [`CktError::NewtonExhausted`] (with a
/// structured report including the gmin trajectory) if Newton fails
/// even with gmin stepping.
///
/// # Example
///
/// ```
/// use fefet_ckt::circuit::Circuit;
/// use fefet_ckt::dc::{dc_operating_point, DcOptions};
/// use fefet_ckt::waveform::Waveform;
///
/// # fn main() -> Result<(), fefet_ckt::CktError> {
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// let b = c.node("b");
/// c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
/// c.resistor("R1", a, b, 2e3);
/// c.resistor("R2", b, Circuit::GND, 1e3);
/// let op = dc_operating_point(&c, DcOptions::default())?;
/// assert!((op.v(b) - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
// fefet-lint: allow-item(hot-alloc) -- analysis driver: assembly, state vector and workspace are built once per operating point
pub fn dc_operating_point(ckt: &Circuit, opts: DcOptions) -> Result<DcSolution> {
    let asm = Assembly::new(ckt);
    let states: Vec<ElemState> = ckt.elements().iter().map(|_| ElemState::None).collect();
    let mut ws = NewtonWorkspace::new(asm.n_unknowns());
    let mut x = vec![0.0; asm.n_unknowns()];

    let direct = asm.solve_point_with(
        ckt,
        0.0,
        0.0,
        Integration::BackwardEuler,
        true,
        &opts.solver,
        &mut x,
        &states,
        &mut ws,
    );
    let x = match direct {
        Ok(_) => x,
        // A non-finite iterate means the netlist feeds NaN/Inf into the
        // solve; gmin stepping cannot repair that, so surface it as-is.
        Err(e @ CktError::NonFinite { .. }) => return Err(e),
        Err(_) => gmin_stepping(ckt, &asm, &opts, &states, &mut ws)?,
    };
    if x.iter().any(|v| !v.is_finite()) {
        return Err(CktError::NonFinite {
            context: "dc operating-point solution",
            step: 0.0,
        });
    }

    let mut branch_names = Vec::new();
    for (i, (name, e)) in ckt.elements().iter().enumerate() {
        if e.n_branches() > 0 {
            branch_names.push((name.clone(), asm.branch0[i]));
        }
    }
    Ok(DcSolution {
        x,
        n_nodes: ckt.n_nodes(),
        branch_names,
    })
}

// fefet-lint: allow-item(hot-alloc) -- continuation fallback for hard operating points: robustness, not throughput; clones the iterate to allow retry after a failed step
fn gmin_stepping(
    ckt: &Circuit,
    asm: &Assembly,
    opts: &DcOptions,
    states: &[ElemState],
    ws: &mut NewtonWorkspace,
) -> Result<Vec<f64>> {
    let mut x = vec![0.0; asm.n_unknowns()];
    // Continuation buffer: a failed pass leaves `x` at the last converged
    // decade rather than the failed pass's partial iterate.
    let mut x_try = vec![0.0; asm.n_unknowns()];
    let mut gmin = opts.gmin_start;
    let target = opts.solver.gmin;
    // The gmin values attempted so far, attached to convergence
    // diagnostics when a pass fails.
    let mut trajectory: Vec<f64> = Vec::new();
    // One decade per pass from gmin_start down to the target, so the
    // pass count is bounded up front; the cap only bites on degenerate
    // option values (target 1e-12 from 1e-3 is ten passes).
    const MAX_PASSES: usize = 64;
    for _ in 0..MAX_PASSES {
        let solver = SolverOptions {
            gmin,
            ..opts.solver.clone()
        };
        trajectory.push(gmin);
        if let Some(tel) = opts.solver.instr.get() {
            tel.solver.gmin_retries.inc();
        }
        x_try.copy_from_slice(&x);
        asm.solve_point_with(
            ckt,
            0.0,
            0.0,
            Integration::BackwardEuler,
            true,
            &solver,
            &mut x_try,
            states,
            ws,
        )
        .map_err(|e| match e {
            CktError::NonFinite { .. } => e,
            // Keep the structured report, annotated with how far the
            // gmin continuation got before this pass diverged.
            CktError::NewtonExhausted { time, mut report } => {
                report.gmin_trajectory = trajectory.clone();
                CktError::NewtonExhausted { time, report }
            }
            other => CktError::Convergence {
                time: 0.0,
                detail: format!("gmin stepping failed at gmin={gmin:.1e}: {other}"),
            },
        })?;
        x.copy_from_slice(&x_try);
        if gmin <= target {
            return Ok(x);
        }
        gmin = (gmin * 0.1).max(target);
    }
    Err(CktError::Convergence {
        time: 0.0,
        detail: format!(
            "gmin stepping did not reach gmin={target:.1e} within {MAX_PASSES} decades"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::MosParams;
    use crate::waveform::Waveform;

    #[test]
    fn nan_source_is_a_typed_nonfinite_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(f64::NAN));
        c.resistor("R1", a, Circuit::GND, 1e3);
        let res = dc_operating_point(&c, DcOptions::default());
        assert!(
            matches!(res, Err(CktError::NonFinite { .. })),
            "expected NonFinite, got {res:?}"
        );
    }

    #[test]
    fn divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        c.resistor("R1", a, b, 2e3);
        c.resistor("R2", b, Circuit::GND, 1e3);
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!((op.v(a) - 3.0).abs() < 1e-6);
        assert!((op.v(b) - 1.0).abs() < 1e-6);
        let i = op.branch_current("V1").unwrap();
        assert!((i + 1e-3).abs() < 1e-8);
        assert!(op.branch_current("R1").is_none());
    }

    #[test]
    fn floating_node_pinned_by_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("floating");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GND, 1e3);
        c.capacitor("C1", a, f, 1e-12); // f floats in DC
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!(op.v(f).abs() < 1e-6);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        // VDD -- RD -- drain; gate driven at 0.6V: transistor pulls drain
        // below VDD.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        c.vsource("VG", g, Circuit::GND, Waveform::dc(0.6));
        c.resistor("RD", vdd, d, 50e3);
        c.mosfet("M1", d, g, Circuit::GND, MosParams::nmos_45nm());
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!(
            op.v(d) < 0.95,
            "drain should be pulled down, got {}",
            op.v(d)
        );
        assert!(op.v(d) > 0.0);
    }

    #[test]
    fn diode_clamp() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        c.resistor("R1", a, b, 1e3);
        c.diode("D1", b, Circuit::GND, 1e-14, 1.0);
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        // Diode clamps near 0.6-0.8V.
        assert!((0.5..0.9).contains(&op.v(b)), "v(b) = {}", op.v(b));
    }

    /// DC fast-path parity: the solver knobs (modified Newton; device
    /// bypass is inert in DC by design) must not move a strongly
    /// nonlinear operating point beyond solver tolerance.
    #[test]
    fn diode_clamp_parity_with_fast_paths_toggled() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        c.resistor("R1", a, b, 1e3);
        c.diode("D1", b, Circuit::GND, 1e-14, 1.0);

        let solve = |reuse: bool, bypass: bool| {
            let opts = DcOptions {
                solver: SolverOptions {
                    jacobian_reuse: reuse,
                    bypass,
                    ..SolverOptions::default()
                },
                ..DcOptions::default()
            };
            dc_operating_point(&c, opts).unwrap()
        };

        let exact = solve(false, false);
        for (reuse, bypass) in [(true, false), (false, true), (true, true)] {
            let fast = solve(reuse, bypass);
            for (i, (e, f)) in exact.unknowns().iter().zip(fast.unknowns()).enumerate() {
                let scale = e.abs().max(1.0);
                assert!(
                    (f - e).abs() <= 1e-6 * scale,
                    "reuse={reuse} bypass={bypass} unknown {i}: {f} vs {e}"
                );
            }
        }
    }

    #[test]
    fn starved_newton_reports_structured_convergence_diagnostics() {
        use fefet_telemetry::Instrumentation;
        // A diode clamp needs ~10 Newton iterations from a zero guess;
        // two are not enough, with or without gmin stepping, so the
        // solve must fail with a populated ConvergenceReport rather
        // than the old opaque "newton exhausted" string.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        c.resistor("R1", a, b, 1e3);
        c.diode("D1", b, Circuit::GND, 1e-14, 1.0);
        let instr = Instrumentation::enabled();
        let opts = DcOptions {
            solver: SolverOptions {
                max_newton: 2,
                instr: instr.clone(),
                ..SolverOptions::default()
            },
            ..DcOptions::default()
        };
        let err = dc_operating_point(&c, opts).unwrap_err();
        match err {
            CktError::NewtonExhausted { time, report } => {
                assert!((time - 0.0).abs() < f64::EPSILON);
                assert_eq!(report.iterations, 2);
                assert!(
                    report.worst_residual > 0.0,
                    "report should carry the failing residual: {report:?}"
                );
                assert!(
                    !report.worst_node_name.is_empty(),
                    "worst node should be named: {report:?}"
                );
                assert!(
                    !report.gmin_trajectory.is_empty(),
                    "gmin stepping ran, so its trajectory must be attached: {report:?}"
                );
                assert!((report.gmin_trajectory[0] - 1e-3).abs() < 1e-15);
            }
            other => panic!("expected NewtonExhausted, got {other:?}"),
        }
        let tel = instr.get().unwrap();
        assert!(tel.solver.failures.get() >= 2, "direct + gmin pass failed");
        assert!(tel.solver.gmin_retries.get() >= 1);
    }

    #[test]
    fn exhausted_solves_count_their_iterations() {
        use fefet_telemetry::Instrumentation;
        // The starved diode clamp again: every solve that exhausts its
        // two iterations adds both to `failed_iterations`, while the
        // converged-solve counters stay as they were.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        c.resistor("R1", a, b, 1e3);
        c.diode("D1", b, Circuit::GND, 1e-14, 1.0);
        let instr = Instrumentation::enabled();
        let opts = DcOptions {
            solver: SolverOptions {
                max_newton: 2,
                instr: instr.clone(),
                ..SolverOptions::default()
            },
            ..DcOptions::default()
        };
        assert!(dc_operating_point(&c, opts).is_err());
        let tel = instr.get().unwrap();
        let failures = tel.solver.failures.get();
        assert!(failures >= 2, "direct + gmin pass failed");
        assert_eq!(tel.solver.failed_iterations.get(), 2 * failures);
        assert_eq!(
            tel.solver.newton_iterations.count(),
            tel.solver.solves.get(),
            "only converged solves enter the iteration histogram"
        );
        let json = tel.solver.counters_json();
        assert!(
            json.contains(&format!("\"failed_iterations\":{}", 2 * failures)),
            "{json}"
        );
    }

    #[test]
    fn vccs_gain() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let o = c.node("o");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(0.5));
        c.resistor("Rin", a, Circuit::GND, 1e6);
        // i = gm*v(a) pushed from gnd into o... current from o to gnd
        // through source means o is pulled down; use (gnd, o) to push up.
        c.vccs("G1", Circuit::GND, o, a, Circuit::GND, 1e-3);
        c.resistor("RL", o, Circuit::GND, 1e3);
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        // i = 1e-3 * 0.5 = 0.5 mA into o through RL: v(o) = 0.5V.
        assert!((op.v(o) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn vcvs_gain() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let o = c.node("o");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(0.25));
        c.vcvs("E1", o, Circuit::GND, a, Circuit::GND, 4.0);
        c.resistor("RL", o, Circuit::GND, 1e3);
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        assert!((op.v(o) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fecap_open_in_dc() {
        use crate::models::FeCapParams;
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("f");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, f, 1e3);
        c.fecap("F1", f, Circuit::GND, FeCapParams::new(2.25e-9, 1e-15), 0.3);
        let op = dc_operating_point(&c, DcOptions::default()).unwrap();
        // No DC current through the FE cap: no drop across R1.
        assert!((op.v(f) - 1.0).abs() < 1e-3);
    }
}
