//! Current-based sensing circuits (§5, Fig 8).
//!
//! The read chain consists of a clamping driver that pins the sense line
//! to virtual ground, a pre-charge driver that rapidly lifts the sensing
//! node to `V_PRE`, and a current sense amplifier whose input node then
//! integrates the difference between the cell current and a reference:
//! a stored '1' keeps charging `V_SENSE` upward, a stored '0' lets it
//! collapse (Fig 8b).
//!
//! Equation (2) of the paper decomposes the read time as
//! `t_read = max(t_pre, t_dec) + t_sa + t_buffer`; with the paper's
//! component estimates (0.5/0.5/1.5/0.5 ns) this gives 3.0 ns.

use crate::cell::{CellSim, FefetCell, T_EDGE, T_START};
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{Integration, Node};
use fefet_ckt::models::MosParams;
use fefet_ckt::probe::{Crossing, VoltagesAt, WindowMax, WindowMin};
use fefet_ckt::trace::Edge;
use fefet_ckt::transient::Step;
use fefet_ckt::waveform::Waveform;
use fefet_ckt::Result;
use std::ops::ControlFlow;

/// Equation (2) read-time decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadTiming {
    /// Pre-charge time (s).
    pub t_pre: f64,
    /// Address-decoder time (s) — overlapped with pre-charge.
    pub t_dec: f64,
    /// Sense-amplifier decision time (s).
    pub t_sa: f64,
    /// Output-buffer time (s).
    pub t_buffer: f64,
}

impl Default for ReadTiming {
    /// The paper's component estimates (§5).
    fn default() -> Self {
        ReadTiming {
            t_pre: 0.5e-9,
            t_dec: 0.5e-9,
            t_sa: 1.5e-9,
            t_buffer: 0.5e-9,
        }
    }
}

impl ReadTiming {
    /// Total read time per eq. (2): `max(t_pre, t_dec) + t_sa + t_buffer`
    /// (pre-charge and decode overlapped). With the paper's component
    /// values this is 2.5 ns.
    pub fn total(&self) -> f64 {
        self.t_pre.max(self.t_dec) + self.t_sa + self.t_buffer
    }

    /// Non-overlapped sum `t_pre + t_dec + t_sa + t_buffer`. The paper
    /// quotes "a total read time of 3.0 ns" for its component estimates,
    /// which matches this sum rather than eq. (2)'s overlapped form.
    pub fn total_sequential(&self) -> f64 {
        self.t_pre + self.t_dec + self.t_sa + self.t_buffer
    }
}

/// The sensing chain of Fig 8(a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseChain {
    /// Read supply applied to the cell drain when read is enabled (V).
    /// The paper quotes 3.0 ns reads at V_DD = 0.68 V.
    pub v_dd: f64,
    /// Pre-charge target for the sensing node (V).
    pub v_pre: f64,
    /// Sensing-node capacitance (F) — "large parasitic capacitance at the
    /// charging node due to large-size transistors (M1 and M2)".
    pub c_sense: f64,
    /// Reference pull-down current the cell current is compared against
    /// (A); between the '0' and '1' cell currents.
    pub i_ref: f64,
    /// Clamp-driver effective resistance pinning the sense line (Ω).
    pub r_clamp: f64,
    /// Current-mirror ratio from the clamp branch into the sensing node
    /// (< 1: the sensing node integrates a scaled-down replica).
    pub mirror_gain: f64,
    /// Pre-charge window (s).
    pub t_precharge: f64,
    /// Sense-amp decision threshold on V_SENSE (V).
    pub v_threshold: f64,
    /// Simulation step (s).
    pub dt: f64,
}

impl Default for SenseChain {
    fn default() -> Self {
        SenseChain {
            v_dd: 0.68,
            v_pre: 0.40,
            c_sense: 20e-15,
            i_ref: 1.0e-6,
            r_clamp: 50.0,
            mirror_gain: 0.05,
            t_precharge: 0.5e-9,
            v_threshold: 0.43,
            dt: 10e-12,
        }
    }
}

/// Outcome of a sensed read: the measurements its run keeps.
/// [`SenseChain::read_bit_observed`] hands the run's points to an
/// observer as well (a `fefet_ckt::probe::Recorder` for the Fig 8
/// waveforms).
#[derive(Debug, Clone)]
pub struct SenseResult {
    /// The digitized bit.
    pub bit: bool,
    /// `V_SENSE` at the end of the evaluation window (V).
    pub v_sense_end: f64,
    /// Worst-case sense-line excursion from virtual ground (V).
    pub v_bl_excursion: f64,
    /// Time after read-enable at which `V_SENSE` crossed the decision
    /// threshold upward (s); `None` for a '0'.
    pub t_decision: Option<f64>,
    /// Polarization of the cell's FE film at the end of the run (C/m²).
    pub p_after: f64,
    /// Total driver energy (J).
    pub energy: f64,
}

/// The usable window of reference currents for the current sense
/// amplifier: any `i_ref` strictly inside `(i_lo, i_hi)` separates the
/// two states at the given margin factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceWindow {
    /// Smallest usable reference (A): the '0' current times the margin.
    pub i_lo: f64,
    /// Largest usable reference (A): the '1' mirrored current divided by
    /// the margin.
    pub i_hi: f64,
}

impl ReferenceWindow {
    /// True if the window is non-empty.
    pub fn is_open(&self) -> bool {
        self.i_hi > self.i_lo
    }

    /// Geometric-mean reference — the natural design center.
    pub fn center(&self) -> f64 {
        (self.i_lo * self.i_hi).sqrt()
    }

    /// Window width in decades.
    pub fn decades(&self) -> f64 {
        (self.i_hi / self.i_lo).log10()
    }
}

impl SenseChain {
    /// Computes the reference-current design window from the two cell
    /// state currents `i_state0` and `i_state1` (A), requiring a
    /// dimensionless `margin` (>1) separation on each side.
    ///
    /// # Panics
    ///
    /// Panics if `margin <= 1`.
    pub fn reference_window(&self, i_state0: f64, i_state1: f64, margin: f64) -> ReferenceWindow {
        assert!(margin > 1.0, "reference margin must exceed 1");
        ReferenceWindow {
            i_lo: i_state0.abs() * self.mirror_gain * margin,
            i_hi: i_state1.abs() * self.mirror_gain / margin,
        }
    }
}

/// A sensed read's simulation with the positions of what the read
/// measures.
pub(crate) struct SenseOp {
    pub(crate) sim: CellSim,
    /// Position of the cell's FE capacitor `Ffe`.
    pub(crate) fe: usize,
    /// The sensing node `V_SENSE`.
    pub(crate) vsense: Node,
    /// The sense-amplifier output.
    pub(crate) vsa: Node,
    /// The sense line.
    pub(crate) sl: Node,
}

impl SenseChain {
    /// The simulation of a read of `cell` storing polarization `p0`
    /// (C/m²) over the evaluation window `t_eval` (s).
    pub(crate) fn read_op(&self, cell: &FefetCell, p0: f64, t_eval: f64) -> SenseOp {
        let mut c = Circuit::new();
        let rs = c.node("rs");
        let sl = c.node("sl");
        let g = c.node("g");
        let gi = c.node("gi");
        let vsense = c.node("vsense");
        let vpre = c.node("vpre");
        let vsa = c.node("vsa");
        let vdd_sa = c.node("vdd_sa");

        // Read-enable: V_DD applied to the cell drain (read select).
        let w_en = Waveform::pulse(0.0, self.v_dd, T_START, T_EDGE, T_EDGE, t_eval);
        c.vsource("Vrs", rs, Circuit::GND, w_en);
        c.capacitor("Crs", rs, Circuit::GND, cell.c_read_select);

        // The cell read path: FEFET with gate stack held at stored state;
        // the write path is biased per Table 1 (gate at 0) — modeled by
        // grounding the external gate through the on access transistor.
        let w_ws = Waveform::pulse(0.0, cell.bias.v_dd, T_START, T_EDGE, T_EDGE, t_eval);
        let ws = c.node("ws");
        let bl = c.node("bl");
        c.vsource("Vws", ws, Circuit::GND, w_ws);
        c.vsource("Vbl", bl, Circuit::GND, Waveform::dc(0.0));
        c.mosfet("Macc", bl, ws, g, cell.access);
        let fe = c.elements().len();
        c.fecap("Ffe", g, gi, cell.fefet.fe, p0);
        c.mosfet("Mfet", rs, gi, sl, cell.fefet.mos);
        c.capacitor("Csl", sl, Circuit::GND, cell.c_sense_line);

        // Clamping driver: virtual ground with small effective resistance.
        c.resistor("Rclamp", sl, Circuit::GND, self.r_clamp);
        // Current mirror into the sensing node: a scaled replica of the
        // clamp-branch current, i = mirror_gain · v(sl)/r_clamp.
        c.vccs(
            "Gmirror",
            vsense,
            Circuit::GND,
            Circuit::GND,
            sl,
            self.mirror_gain / self.r_clamp,
        );
        c.capacitor("Csense", vsense, Circuit::GND, self.c_sense);
        // Reference pull-down.
        c.isource(
            "Iref",
            vsense,
            Circuit::GND,
            Waveform::pulse(0.0, self.i_ref, T_START, T_EDGE, T_EDGE, t_eval),
        );
        // Pre-charge driver: V_PRE through a switch for t_precharge.
        c.vsource("Vpre", vpre, Circuit::GND, Waveform::dc(self.v_pre));
        c.switch(
            "Spre",
            vpre,
            vsense,
            Waveform::pulse(0.0, 1.0, T_START, 0.0, 0.0, self.t_precharge),
            200.0,
            1e12,
        );
        // Sense amplifier: resistor-loaded NMOS inverter on V_SENSE.
        c.vsource("Vddsa", vdd_sa, Circuit::GND, Waveform::dc(self.v_dd));
        c.resistor("Rsa", vdd_sa, vsa, 200e3);
        c.capacitor("Csa", vsa, Circuit::GND, 1e-15);
        c.mosfet(
            "Msa",
            vsa,
            vsense,
            Circuit::GND,
            MosParams::nmos_45nm().with_vt(0.35),
        );

        let node_ics = vec![
            (gi, cell.fefet.v_mos_of(p0)),
            (g, cell.fefet.v_gate_static(p0)),
            (vsa, self.v_dd),
        ];
        SenseOp {
            sim: CellSim::new(
                c,
                T_START + t_eval + 0.3e-9,
                self.dt,
                Integration::BackwardEuler,
                node_ics,
            ),
            fe,
            vsense,
            vsa,
            sl,
        }
    }

    /// The decision probe: the first upward crossing of the threshold by
    /// `V_SENSE` once the pre-charge window has closed.
    fn decision(&self) -> Crossing {
        Crossing::new(self.v_threshold, Edge::Rising, T_START + self.t_precharge)
    }

    /// Reads one FEFET cell storing polarization `p0` (C/m²) through the
    /// full chain; `t_eval` is the evaluation window (s) after
    /// read-enable.
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence failures.
    pub fn read_bit(&self, cell: &FefetCell, p0: f64, t_eval: f64) -> Result<SenseResult> {
        self.read_bit_observed(cell, p0, t_eval, |_| {})
    }

    /// [`SenseChain::read_bit`] of a cell storing `p0` (C/m²) over the
    /// evaluation window `t_eval` (s), also handing every accepted point
    /// of the run to `observe`.
    ///
    /// # Errors
    ///
    /// As for [`SenseChain::read_bit`].
    pub fn read_bit_observed(
        &self,
        cell: &FefetCell,
        p0: f64,
        t_eval: f64,
        mut observe: impl FnMut(&Step<'_>),
    ) -> Result<SenseResult> {
        let op = self.read_op(cell, p0, t_eval);
        let t_end = op.sim.t_end;
        let t_sample = T_START + t_eval - 2.0 * T_EDGE;
        let mut at_end = VoltagesAt::new(t_sample, vec![op.vsense, op.vsa]);
        let mut sl_max = WindowMax::new(T_START, t_end, vec![op.sl]);
        let mut sl_min = WindowMin::new(T_START, t_end, vec![op.sl]);
        let mut decision = self.decision();
        let run = op.sim.run(|s| {
            at_end.observe(s);
            sl_max.observe(s);
            sl_min.observe(s);
            decision.observe(s.t, s.v(op.vsense));
            observe(s);
            ControlFlow::Continue(())
        })?;

        let (v_sense_end, v_sa_end) = at_end.values().map_or((0.0, self.v_dd), |v| (v[0], v[1]));
        // The SA inverter output is low for a '1' (V_SENSE high).
        let bit = v_sa_end < 0.5 * self.v_dd;
        let extreme = |v: Option<&[f64]>| v.map_or(0.0, |v| v[0]).abs();
        let v_bl_excursion = extreme(sl_max.values()).max(extreme(sl_min.values()));
        Ok(SenseResult {
            bit,
            v_sense_end,
            v_bl_excursion,
            t_decision: decision.time().map(|t| t - T_START),
            p_after: run.polarization(op.fe),
            energy: run.total_source_energy(),
        })
    }

    /// The decision time alone of a read of `cell` storing `p0` (C/m²)
    /// over the evaluation window `t_eval` (s): bit for bit
    /// [`SenseChain::read_bit`]'s `t_decision`, from a run that ends at
    /// the threshold crossing instead of running out the window. `None`
    /// (after the whole window) if `V_SENSE` never crosses.
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence failures.
    pub fn decision_time(&self, cell: &FefetCell, p0: f64, t_eval: f64) -> Result<Option<f64>> {
        let op = self.read_op(cell, p0, t_eval);
        let mut decision = self.decision();
        op.sim.run(|s| {
            decision.observe(s.t, s.v(op.vsense));
            match decision.time() {
                Some(_) => ControlFlow::Break(()),
                None => ControlFlow::Continue(()),
            }
        })?;
        Ok(decision.time().map(|t| t - T_START))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::parity::{full, same, same_opt};

    #[test]
    fn eq2_read_time_components() {
        let t = ReadTiming::default();
        // eq. (2) with overlapped decode/pre-charge.
        assert!((t.total() - 2.5e-9).abs() < 1e-15);
        // The paper's quoted 3.0 ns total (non-overlapped sum).
        assert!((t.total_sequential() - 3.0e-9).abs() < 1e-15);
    }

    #[test]
    fn eq2_overlapped_decode() {
        // Decoder slower than pre-charge: it dominates the first term.
        let t = ReadTiming {
            t_dec: 0.9e-9,
            ..ReadTiming::default()
        };
        assert!((t.total() - (0.9e-9 + 1.5e-9 + 0.5e-9)).abs() < 1e-18);
    }

    #[test]
    fn sense_distinguishes_the_two_states() {
        let cell = FefetCell::default();
        let chain = SenseChain::default();
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
        let r1 = chain.read_bit(&cell, p_hi, 2.5e-9).unwrap();
        let r0 = chain.read_bit(&cell, p_lo, 2.5e-9).unwrap();
        assert!(
            r1.bit,
            "stored 1 must read as 1 (v_sense={})",
            r1.v_sense_end
        );
        assert!(
            !r0.bit,
            "stored 0 must read as 0 (v_sense={})",
            r0.v_sense_end
        );
    }

    #[test]
    fn fig8b_vsense_diverges_after_precharge() {
        let cell = FefetCell::default();
        let chain = SenseChain::default();
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
        let r1 = chain.read_bit(&cell, p_hi, 2.5e-9).unwrap();
        let r0 = chain.read_bit(&cell, p_lo, 2.5e-9).unwrap();
        // '1': V_SENSE keeps rising past V_PRE; '0': collapses below it.
        assert!(r1.v_sense_end > chain.v_pre + 0.04, "v1={}", r1.v_sense_end);
        assert!(r0.v_sense_end < chain.v_pre - 0.04, "v0={}", r0.v_sense_end);
        // Decision time for the '1' is within the eq. (2) budget.
        let t = r1.t_decision.expect("'1' must cross the threshold");
        assert!(t < 3.0e-9, "decision at {:.2} ns", t * 1e9);
    }

    #[test]
    fn clamp_keeps_sense_line_near_virtual_ground() {
        let cell = FefetCell::default();
        let chain = SenseChain::default();
        let (_, p_hi) = cell.checked_memory_states().unwrap();
        let r = chain.read_bit(&cell, p_hi, 2.5e-9).unwrap();
        assert!(
            r.v_bl_excursion < 0.06,
            "sense line moved {:.3} V off virtual ground",
            r.v_bl_excursion
        );
    }

    #[test]
    fn precharge_ablation_slows_decision() {
        // §5: "If a fast precharge circuit is not used, the large
        // parasitic capacitance ... will result in large charging time."
        let cell = FefetCell::default();
        let chain = SenseChain::default();
        let slow = SenseChain {
            t_precharge: 0.0,
            ..chain
        };
        let (_, p_hi) = cell.checked_memory_states().unwrap();
        let fast_t = chain.decision_time(&cell, p_hi, 25e-9).unwrap().unwrap();
        let slow_t = slow.decision_time(&cell, p_hi, 25e-9).unwrap().unwrap();
        assert!(
            slow_t > fast_t,
            "precharge should accelerate: {slow_t:.3e} vs {fast_t:.3e}"
        );
    }

    #[test]
    fn reference_window_spans_decades() {
        // With a 10^6 state ratio even a 10x margin on both sides leaves
        // a four-decade reference window — the paper's "enormous
        // distinguishability at the cell level".
        let cell = FefetCell::default();
        let chain = SenseChain::default();
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
        let i0 = cell.fefet.drain_current(p_lo, chain.v_dd);
        let i1 = cell.fefet.drain_current(p_hi, chain.v_dd);
        let w = chain.reference_window(i0, i1, 10.0);
        assert!(w.is_open());
        assert!(w.decades() > 3.0, "window {:.2} decades", w.decades());
        // Center is inside.
        assert!(w.center() > w.i_lo && w.center() < w.i_hi);
        // The default i_ref sits inside the *feasible* window (a modest
        // static margin; the practical choice also needs enough current
        // to slew the sensing node, which pushes it toward the high end).
        let feasible = chain.reference_window(i0, i1, 1.3);
        assert!(
            chain.i_ref > feasible.i_lo && chain.i_ref < feasible.i_hi,
            "i_ref {} outside [{:.3e}, {:.3e}]",
            chain.i_ref,
            feasible.i_lo,
            feasible.i_hi
        );
    }

    #[test]
    fn reference_window_closes_for_poor_devices() {
        let chain = SenseChain::default();
        // A 3x state ratio with a 2x margin each side: closed.
        let w = chain.reference_window(1e-6, 3e-6, 2.0);
        assert!(!w.is_open());
    }

    #[test]
    #[should_panic(expected = "margin must exceed 1")]
    fn bad_margin_panics() {
        SenseChain::default().reference_window(1e-9, 1e-3, 1.0);
    }

    #[test]
    fn read_does_not_disturb_stored_state() {
        let cell = FefetCell::default();
        let chain = SenseChain::default();
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
        for p in [p_lo, p_hi] {
            let p_after = chain.read_bit(&cell, p, 2.5e-9).unwrap().p_after;
            // Tolerance covers the small select-line feedthrough kick; the
            // state itself must be untouched (well separation is ≈0.4).
            assert!((p_after - p).abs() < 0.02, "disturb {} -> {}", p, p_after);
        }
    }

    #[test]
    fn sense_reads_equal_the_full_trace_lookups() {
        let cell = FefetCell::default();
        let (lo, hi) = cell.checked_memory_states().unwrap();
        let chain = SenseChain::default();
        let t_eval = 2.5e-9;
        for p0 in [hi, lo] {
            let what = format!("sensed read of {p0:.3}");
            let r = chain.read_bit(&cell, p0, t_eval).unwrap();
            let op = chain.read_op(&cell, p0, t_eval);
            let tr = full(&op.sim);
            let t_end = op.sim.t_end;
            let t_sample = T_START + t_eval - 2.0 * T_EDGE;
            let v_sa_end = tr.value_at("v(vsa)", t_sample).unwrap();
            same(
                &format!("{what} v_sense_end"),
                r.v_sense_end,
                tr.value_at("v(vsense)", t_sample).unwrap(),
            );
            assert_eq!(r.bit, v_sa_end < 0.5 * chain.v_dd, "{what}");
            let excursion = tr
                .window_max("v(sl)", T_START, t_end)
                .unwrap()
                .abs()
                .max(tr.window_min("v(sl)", T_START, t_end).unwrap().abs());
            same(&format!("{what} excursion"), r.v_bl_excursion, excursion);
            let t_decision = tr
                .cross_time(
                    "v(vsense)",
                    chain.v_threshold,
                    Edge::Rising,
                    T_START + chain.t_precharge,
                )
                .map(|t| t - T_START);
            same_opt(&format!("{what} t_decision"), r.t_decision, t_decision);
            same(
                &format!("{what} p_after"),
                r.p_after,
                tr.last("p(Ffe)").unwrap(),
            );
            same(
                &format!("{what} energy"),
                r.energy,
                tr.total_source_energy(),
            );
        }
    }

    /// The decision-time read, which stops at the threshold crossing, gives
    /// the full read's `t_decision` for both stored states, with and
    /// without pre-charge, over the ablation's 25 ns window.
    #[test]
    fn decision_time_read_equals_the_full_read() {
        let cell = FefetCell::default();
        let (lo, hi) = cell.checked_memory_states().unwrap();
        let chain = SenseChain::default();
        let slow = SenseChain {
            t_precharge: 0.0,
            ..chain
        };
        for (label, c) in [("pre-charged", chain), ("no pre-charge", slow)] {
            for p0 in [hi, lo] {
                let full = c.read_bit(&cell, p0, 25e-9).unwrap().t_decision;
                let early = c.decision_time(&cell, p0, 25e-9).unwrap();
                same_opt(&format!("{label}, stored {p0:.3}"), early, full);
                assert_eq!(full.is_some(), p0 > 0.0, "{label}, stored {p0:.3}");
            }
        }
    }
}
