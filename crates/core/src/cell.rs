//! The proposed 2-transistor FEFET bit-cell at circuit level (Fig 5).
//!
//! Write path: bit line → access NMOS (gated by the boosted write select)
//! → FEFET gate. Read path: read select (doubling as read supply) →
//! FEFET channel → sense line. The two paths share no device, which is
//! what makes the read disturb-free (§6.2.1).

use crate::bias::BiasSpec;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::Integration;
use fefet_ckt::models::MosParams;
use fefet_ckt::trace::{Edge, Trace};
use fefet_ckt::transient::{transient, TransientOptions};
use fefet_ckt::waveform::Waveform;
use fefet_ckt::Result;
use fefet_device::Fefet;

/// Edge time used for all control-line ramps (s).
const T_EDGE: f64 = 50e-12;

/// Delay before any line moves (s) — shows the quiescent hold level in
/// the Fig 6 waveforms.
const T_START: f64 = 0.2e-9;

/// A single 2T FEFET cell with its line parasitics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FefetCell {
    /// The storage FEFET.
    pub fefet: Fefet,
    /// The write access transistor.
    pub access: MosParams,
    /// Array bias levels.
    pub bias: BiasSpec,
    /// Bit-line capacitance seen by this cell (F).
    pub c_bit_line: f64,
    /// Write-select line capacitance (F).
    pub c_write_select: f64,
    /// Read-select line capacitance (F).
    pub c_read_select: f64,
    /// Sense-line capacitance (F).
    pub c_sense_line: f64,
    /// Line-driver output resistance (Ω) — makes CV² driver losses real.
    pub r_driver: f64,
    /// Simulation step (s) of the trapezoidal transient; 20 ps by default.
    pub dt: f64,
}

impl Default for FefetCell {
    /// Paper-default cell: the §3 FEFET, a 65 nm pass-gate access NMOS,
    /// Table 2 biases, and line capacitances for a 256-row column and a
    /// 64-column row at the Fig 11 pitch (0.2 fF/µm metal).
    fn default() -> Self {
        let metal_per_m = 0.2e-15 / 1e-6;
        let pitch_x = 20.0 * crate::layout::LAMBDA_45NM;
        let pitch_y = 9.6 * crate::layout::LAMBDA_45NM;
        let col_len = 256.0 * pitch_y; // bit/sense lines run down columns
        let row_len = 64.0 * pitch_x; // select lines run across rows
        FefetCell {
            fefet: fefet_device::paper_fefet(),
            access: MosParams::nmos_45nm(),
            bias: BiasSpec::default(),
            c_bit_line: metal_per_m * col_len,
            c_write_select: metal_per_m * row_len,
            c_read_select: metal_per_m * row_len,
            c_sense_line: metal_per_m * col_len,
            r_driver: 1e3,
            dt: 20e-12,
        }
    }
}

/// Outcome of a cell write transient.
#[derive(Debug, Clone)]
pub struct WriteResult {
    /// Full recorded waveforms (Fig 6): `v(bl)`, `v(ws)`, `v(g)`,
    /// `p(Ffe)`, source currents.
    pub trace: Trace,
    /// Polarization at the end of the run (C/m²).
    pub p_final: f64,
    /// Time from write-pulse onset until the polarization crossed 60% of
    /// the destination state (s), interpolated between samples; `None`
    /// if it never crossed (a failed write, or one from a state already
    /// past the level).
    pub switch_time: Option<f64>,
    /// Total energy delivered by all drivers during the run (J).
    pub energy: f64,
}

impl WriteResult {
    /// Per-driver energy breakdown `(source name, joules)` — how the write
    /// cost splits between the bit line, the boosted select and the read
    /// path (paper §6.2.2 accounts for the select/boost overheads
    /// explicitly).
    pub fn energy_breakdown(&self) -> &[(String, f64)] {
        self.trace.energies()
    }
}

/// Outcome of a cell read transient.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// Full recorded waveforms.
    pub trace: Trace,
    /// FEFET drain current sampled at the read window's end (A).
    pub i_read: f64,
    /// Polarization drift caused by the read (C/m²) — must be ≈0 for the
    /// disturb-free claim.
    pub disturb: f64,
    /// Total energy delivered by the drivers during the read (J).
    pub energy: f64,
}

impl FefetCell {
    /// Target stable states of this cell's FEFET at zero bias, as
    /// `(p_low, p_high)` = (logic '0', logic '1').
    ///
    /// # Panics
    ///
    /// Panics if the FEFET is not nonvolatile (no two states).
    pub fn memory_states(&self) -> (f64, f64) {
        let states = self.fefet.stable_states_at_zero();
        let lo = states.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = states.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            lo < -0.05 && hi > 0.05,
            "cell device is not nonvolatile: states {states:?}"
        );
        (lo, hi)
    }

    /// Builds the cell netlist with the given line waveforms and stored
    /// polarization, returning the circuit and the consistent internal
    /// node initial conditions.
    fn build(
        &self,
        p0: f64,
        w_bl: Waveform,
        w_ws: Waveform,
        w_rs: Waveform,
    ) -> (Circuit, Vec<(fefet_ckt::elements::Node, f64)>) {
        let mut c = Circuit::new();
        let bl = c.node("bl");
        let ws = c.node("ws");
        let rs = c.node("rs");
        let sl = c.node("sl");
        let g = c.node("g");
        let gi = c.node("gi");
        // Each line is driven through the driver's output resistance so
        // the CV² losses of swinging the metal lines are dissipated (and
        // therefore metered) rather than returned to an ideal source.
        let bld = c.node("bl_drv");
        let wsd = c.node("ws_drv");
        let rsd = c.node("rs_drv");
        c.vsource("Vbl", bld, Circuit::GND, w_bl);
        c.resistor("Rbl", bld, bl, self.r_driver);
        c.vsource("Vws", wsd, Circuit::GND, w_ws);
        c.resistor("Rws", wsd, ws, self.r_driver);
        c.vsource("Vrs", rsd, Circuit::GND, w_rs);
        c.resistor("Rrs", rsd, rs, self.r_driver);
        // Sense line held at virtual ground by the clamp driver (§5).
        c.vsource("Vsl", sl, Circuit::GND, Waveform::dc(0.0));
        c.capacitor("Cbl", bl, Circuit::GND, self.c_bit_line);
        c.capacitor("Cws", ws, Circuit::GND, self.c_write_select);
        c.capacitor("Crs", rs, Circuit::GND, self.c_read_select);
        c.capacitor("Csl", sl, Circuit::GND, self.c_sense_line);
        c.mosfet("Macc", bl, ws, g, self.access);
        c.fecap("Ffe", g, gi, self.fefet.fe, p0);
        c.mosfet("Mfet", rs, gi, sl, self.fefet.mos);
        // Consistent hold-state ICs: the retained stack floats with the
        // internal node at the NC step-up voltage and the external gate at
        // v_gate_static(p0) (0 for a true zero-bias stable state).
        let ics = vec![
            (gi, self.fefet.v_mos_of(p0)),
            (g, self.fefet.v_gate_static(p0)),
        ];
        (c, ics)
    }

    fn run(
        &self,
        ckt: &Circuit,
        ics: Vec<(fefet_ckt::elements::Node, f64)>,
        t_end: f64,
    ) -> Result<Trace> {
        transient(
            ckt,
            t_end,
            TransientOptions {
                dt: self.dt,
                method: Integration::Trapezoidal,
                node_ics: ics,
                ..TransientOptions::default()
            },
        )
    }

    /// Writes logic `data` into a cell currently storing polarization
    /// `p_from`, using a write pulse of width `t_pulse` (Fig 6 left).
    ///
    /// The write-select line is boosted for the accessed row and held a
    /// little past the bit-line pulse so the FEFET gate is restored to
    /// 0 V before isolation.
    ///
    /// `p_from` is the initial polarization (C/m²) and `t_pulse` the
    /// bit-line pulse width (s).
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence failures.
    pub fn write(&self, data: bool, p_from: f64, t_pulse: f64) -> Result<WriteResult> {
        let b = &self.bias;
        let v_bl = if data { b.v_write } else { -b.v_write };
        // Gate-restore tail: bl back at 0 with the select still on, long
        // enough for the polarization to relax to its zero-bias state
        // before the storage gate is isolated.
        let t_restore = 1.5e-9;
        let w_ws = Waveform::pulse(0.0, b.v_boost, T_START, T_EDGE, T_EDGE, t_pulse + t_restore);
        let w_bl = Waveform::pulse(0.0, v_bl, T_START, T_EDGE, T_EDGE, t_pulse);
        let (ckt, ics) = self.build(p_from, w_bl, w_ws, Waveform::dc(0.0));
        let t_end = T_START + t_pulse + t_restore + 0.5e-9;
        let trace = self.run(&ckt, ics, t_end)?;

        let p_final = trace.last("p(Ffe)").unwrap_or(p_from);
        let (p_lo, p_hi) = self.memory_states();
        // A write has committed once the polarization crosses 60% of the
        // destination state: from there the cell relaxes into the correct
        // well even if released immediately. The crossing is interpolated
        // between samples, so the time does not snap to the step grid.
        let (commit, edge) = if data {
            (0.6 * p_hi, Edge::Rising)
        } else {
            (0.6 * p_lo, Edge::Falling)
        };
        let switch_time = trace
            .checked_cross_time("p(Ffe)", commit, edge, 0.0)?
            .map(|t| (t - T_START).max(0.0));
        let energy = trace.total_source_energy();
        Ok(WriteResult {
            trace,
            p_final,
            switch_time,
            energy,
        })
    }

    /// Reads a cell storing polarization `p0` (Fig 6 right): write select
    /// at V_DD with the bit line grounded (FEFET gate pinned to 0 V),
    /// read select pulsed to V_read, sense line clamped at virtual
    /// ground.
    ///
    /// `p0` is the stored polarization (C/m²) and `t_read` the read
    /// window (s).
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence failures.
    pub fn read(&self, p0: f64, t_read: f64) -> Result<ReadResult> {
        let b = &self.bias;
        let w_ws = Waveform::pulse(0.0, b.v_dd, T_START, T_EDGE, T_EDGE, t_read);
        let w_rs = Waveform::pulse(0.0, b.v_read, T_START, T_EDGE, T_EDGE, t_read);
        let (ckt, ics) = self.build(p0, Waveform::dc(0.0), w_ws, w_rs);
        let t_end = T_START + t_read + 0.5e-9;
        let trace = self.run(&ckt, ics, t_end)?;
        // Sample the FEFET current near the end of the read window.
        let t_sample = T_START + t_read - 2.0 * T_EDGE;
        let i_read = trace.value_at("i(Mfet)", t_sample).unwrap_or(0.0);
        let p_after = trace.last("p(Ffe)").unwrap_or(p0);
        let energy = trace.total_source_energy();
        Ok(ReadResult {
            trace,
            i_read,
            disturb: (p_after - p0).abs(),
            energy,
        })
    }

    /// The full Fig 6 demonstration sequence on one cell:
    /// write '1' → read → write '0' → read, returning
    /// `(write1, read1, write0, read0)`.
    ///
    /// `t_pulse` is the write pulse width (s) and `t_read` the read
    /// window (s).
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence failures.
    pub fn fig6_sequence(
        &self,
        t_pulse: f64,
        t_read: f64,
    ) -> Result<(WriteResult, ReadResult, WriteResult, ReadResult)> {
        let (p_lo, _p_hi) = self.memory_states();
        let w1 = self.write(true, p_lo, t_pulse)?;
        let r1 = self.read(w1.p_final, t_read)?;
        let w0 = self.write(false, w1.p_final, t_pulse)?;
        let r0 = self.read(w0.p_final, t_read)?;
        Ok((w1, r1, w0, r0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> FefetCell {
        FefetCell::default()
    }

    /// A cell written '1' from '0' with the write bias held, in 100 ps
    /// backward-Euler steps: every step converges, including those
    /// that carry the film through its negative-capacitance region,
    /// and the cell ends past the write-commit point.
    #[test]
    fn write_in_100ps_steps_through_the_nc_region_converges() {
        use fefet_ckt::elements::ElemState;
        use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverOptions};
        const H: f64 = 100e-12;
        let cell = cell();
        let (p_lo, p_hi) = cell.memory_states();
        let b = &cell.bias;
        let (ckt, ics) = cell.build(
            p_lo,
            Waveform::dc(b.v_write),
            Waveform::dc(b.v_boost),
            Waveform::dc(0.0),
        );
        let asm = Assembly::new(&ckt);
        let mut x = vec![0.0; asm.n_unknowns()];
        for (node, v) in ics {
            x[node.index() - 1] = v;
        }
        let mut states: Vec<ElemState> = ckt
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x))
            .collect();
        asm.seed_polarization(&ckt, &states, 0.0, &mut x);
        let fe = ckt.element_position("Ffe").unwrap();
        let lk = cell.fefet.fe.lk;
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let mut nc_steps = 0;
        for k in 0..20 {
            let t = (k + 1) as f64 * H;
            asm.relax_at_bias(
                &ckt,
                t,
                H,
                1,
                &SolverOptions::default(),
                &mut x,
                &mut states,
                &mut ws,
            )
            .unwrap_or_else(|e| panic!("step {k}: {e}"));
            if let ElemState::Fe { p, .. } = states[fe] {
                nc_steps += usize::from(lk.de_dp(p) < 0.0);
            }
        }
        assert!(nc_steps > 0, "no step ended in the NC region");
        match states[fe] {
            ElemState::Fe { p, .. } => assert!(p > 0.6 * p_hi, "P = {p} after 2 ns"),
            other => panic!("wrong state {other:?}"),
        }
    }

    #[test]
    fn memory_states_are_bipolar() {
        let (lo, hi) = cell().memory_states();
        assert!(lo < -0.1);
        assert!(hi > 0.15);
    }

    #[test]
    fn write_one_switches_polarization() {
        let c = cell();
        let (p_lo, p_hi) = c.memory_states();
        let w = c.write(true, p_lo, 2e-9).unwrap();
        assert!(
            (w.p_final - p_hi).abs() < 0.03,
            "P ended at {} (target {})",
            w.p_final,
            p_hi
        );
        let t = w.switch_time.expect("write must complete");
        assert!(t < 1.5e-9, "switch time {t:.3e}");
        assert!(w.energy > 0.0);
    }

    #[test]
    fn write_zero_switches_polarization() {
        let c = cell();
        let (p_lo, p_hi) = c.memory_states();
        let w = c.write(false, p_hi, 2e-9).unwrap();
        assert!(
            (w.p_final - p_lo).abs() < 0.03,
            "P ended at {} (target {})",
            w.p_final,
            p_lo
        );
    }

    #[test]
    fn write_at_paper_pulse_width_succeeds() {
        // Table 3: 0.55 ns write at 0.68 V bit line. A 0.7 ns pulse leaves
        // margin for the access-transistor RC.
        let c = cell();
        let (p_lo, p_hi) = c.memory_states();
        let w = c.write(true, p_lo, 0.7e-9).unwrap();
        assert!((w.p_final - p_hi).abs() < 0.05, "p_final {}", w.p_final);
    }

    #[test]
    fn read_is_disturb_free_for_both_states() {
        let c = cell();
        let (p_lo, p_hi) = c.memory_states();
        for p in [p_lo, p_hi] {
            let r = c.read(p, 3e-9).unwrap();
            // The read current itself leaves P untouched; the residual
            // drift is select-line feedthrough at the end of the window,
            // far below the ≈0.4 C/m² state separation.
            assert!(
                r.disturb < 0.02,
                "read disturbed P by {} from {}",
                r.disturb,
                p
            );
        }
    }

    #[test]
    fn repeated_reads_do_not_ratchet_the_state() {
        // Feedthrough must not accumulate read over read.
        let c = cell();
        let (p_lo, _) = c.memory_states();
        let r1 = c.read(p_lo, 3e-9).unwrap();
        let p1 = r1.trace.last("p(Ffe)").unwrap();
        let r2 = c.read(p1, 3e-9).unwrap();
        let p2 = r2.trace.last("p(Ffe)").unwrap();
        assert!(
            (p2 - p1).abs() < 0.6 * (p1 - p_lo).abs().max(1e-4),
            "reads ratchet the state: {p_lo} -> {p1} -> {p2}"
        );
    }

    #[test]
    fn read_distinguishability_exceeds_1e5() {
        let c = cell();
        let (p_lo, p_hi) = c.memory_states();
        let i1 = c.read(p_hi, 3e-9).unwrap().i_read;
        let i0 = c.read(p_lo, 3e-9).unwrap().i_read;
        assert!(i1 > 0.0);
        let ratio = i1 / i0.max(1e-30);
        assert!(ratio > 1e5, "cell-level ratio {ratio:.2e}");
    }

    #[test]
    fn read_energy_much_smaller_than_write_energy() {
        // Table 3: 0.28 pJ read vs 4.82 pJ write for the FEFET block.
        let c = cell();
        let (p_lo, _) = c.memory_states();
        let w = c.write(true, p_lo, 0.7e-9).unwrap();
        let r = c.read(p_lo, 3e-9).unwrap();
        assert!(
            r.energy < 0.5 * w.energy,
            "read {:.3e} J vs write {:.3e} J",
            r.energy,
            w.energy
        );
    }

    #[test]
    fn write_energy_breakdown_sums_to_total() {
        let c = cell();
        let (p_lo, _) = c.memory_states();
        let w = c.write(true, p_lo, 1.0e-9).unwrap();
        let parts: f64 = w.energy_breakdown().iter().map(|(_, e)| e).sum();
        assert!((parts - w.energy).abs() < 1e-18 * parts.abs().max(1.0));
        // The bit line and the boosted select are the dominant payers.
        let by_name = |n: &str| {
            w.energy_breakdown()
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, e)| *e)
                .unwrap_or(0.0)
        };
        assert!(by_name("Vbl") > 0.0);
        assert!(by_name("Vws") > 0.0);
        assert!(by_name("Vrs").abs() < 1e-16, "read path idle during write");
    }

    #[test]
    fn fig6_sequence_round_trips() {
        let c = cell();
        let (w1, r1, w0, r0) = c.fig6_sequence(1.0e-9, 3e-9).unwrap();
        assert!(w1.p_final > 0.15);
        assert!(w0.p_final < -0.1);
        assert!(
            r1.i_read / r0.i_read.max(1e-30) > 1e5,
            "read currents {:.3e} / {:.3e}",
            r1.i_read,
            r0.i_read
        );
    }

    #[test]
    fn retention_between_operations() {
        // After the write pulse ends (all lines back to 0), the trace tail
        // must show the polarization holding its state.
        let c = cell();
        let (p_lo, p_hi) = c.memory_states();
        let w = c.write(true, p_lo, 1e-9).unwrap();
        let p_sig = w.trace.try_signal("p(Ffe)").unwrap();
        let n = p_sig.len();
        // Last 10% of samples: stable at the high state.
        for p in &p_sig[n - n / 10..] {
            assert!((p - p_hi).abs() < 0.03, "tail drifted: {p}");
        }
    }
}
