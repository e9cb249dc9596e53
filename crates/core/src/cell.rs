//! The proposed 2-transistor FEFET bit-cell at circuit level (Fig 5).
//!
//! Write path: bit line → access NMOS (gated by the boosted write select)
//! → FEFET gate. Read path: read select (doubling as read supply) →
//! FEFET channel → sense line. The two paths share no device, which is
//! what makes the read disturb-free (§6.2.1).

use crate::bias::BiasSpec;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{Integration, Node};
use fefet_ckt::models::MosParams;
use fefet_ckt::probe::{Crossing, CurrentsAt};
use fefet_ckt::trace::Edge;
use fefet_ckt::transient::{transient_with, Step, TransientOptions, TransientRun};
use fefet_ckt::waveform::Waveform;
use fefet_ckt::{CktError, Result};
use fefet_device::Fefet;
use std::ops::ControlFlow;

/// Edge time used for all control-line ramps of the cell-level ops
/// (FEFET cell, FERAM cell, sense chain) (s).
pub(crate) const T_EDGE: f64 = 50e-12;

/// Delay before any line of a cell-level op moves (s) — shows the
/// quiescent hold level in the Fig 6 waveforms.
pub(crate) const T_START: f64 = 0.2e-9;

/// One cell-level op's simulation — its netlist, end time and transient
/// options — shared by the FEFET cell, the FERAM cell and the sense
/// chain. An op runs it with probes that keep only what the op reads;
/// the op-parity tests run the same simulation through
/// `fefet_ckt::transient::transient` and read the full trace.
#[derive(Debug, Clone)]
pub(crate) struct CellSim {
    pub(crate) circuit: Circuit,
    pub(crate) t_end: f64,
    pub(crate) opts: TransientOptions,
}

/// Step ceiling of a cell-level op, as a multiple of its step floor:
/// between waveform corners its transient grows the step wherever the
/// circuit is quiescent (see `fefet_ckt::transient::TransientOptions`).
const CELL_STEP_CEILING: f64 = 10.0;

impl CellSim {
    /// A cell-level op's simulation of `circuit` to `t_end` (s) with
    /// step floor `dt` (s), integrator `method` and initial node
    /// voltages `node_ics`; the step ceiling is [`CELL_STEP_CEILING`]
    /// floors.
    pub(crate) fn new(
        circuit: Circuit,
        t_end: f64,
        dt: f64,
        method: Integration,
        node_ics: Vec<(Node, f64)>,
    ) -> Self {
        CellSim {
            circuit,
            t_end,
            opts: TransientOptions {
                dt,
                dt_max: CELL_STEP_CEILING * dt.max(0.0),
                method,
                node_ics,
                ..TransientOptions::default()
            },
        }
    }

    /// Runs the simulation, handing every accepted point to `observe`,
    /// which may end the run.
    pub(crate) fn run(
        &self,
        observe: impl FnMut(&Step<'_>) -> ControlFlow<()>,
    ) -> Result<TransientRun> {
        transient_with(&self.circuit, self.t_end, self.opts.clone(), observe)
    }
}

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

/// Outcome of a cell write transient. The run keeps only these
/// measurements; [`FefetCell::write_observed`] hands its points to an
/// observer as well (a `fefet_ckt::probe::Recorder` for the Fig 6
/// waveforms).
#[derive(Debug, Clone)]
pub struct WriteResult {
    /// Polarization at the end of the run (C/m²).
    pub p_final: f64,
    /// Time from write-pulse onset until the polarization crossed 60% of
    /// the destination state (s), interpolated between samples; `None`
    /// if it never crossed (a failed write, or one from a state already
    /// past the level).
    pub switch_time: Option<f64>,
    /// Total energy delivered by all drivers during the run (J).
    pub energy: f64,
    breakdown: Vec<(String, f64)>,
}

impl WriteResult {
    /// Per-driver energy breakdown `(source name, joules)` — how the write
    /// cost splits between the bit line, the boosted select and the read
    /// path (paper §6.2.2 accounts for the select/boost overheads
    /// explicitly).
    pub fn energy_breakdown(&self) -> &[(String, f64)] {
        &self.breakdown
    }
}

/// Outcome of a cell read transient. The run keeps only these
/// measurements; [`FefetCell::read_observed`] hands its points to an
/// observer as well.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// FEFET drain current sampled at the read window's end (A).
    pub i_read: f64,
    /// Polarization at the end of the run (C/m²).
    pub p_after: f64,
    /// Polarization drift caused by the read (C/m²) — must be ≈0 for the
    /// disturb-free claim.
    pub disturb: f64,
    /// Total energy delivered by the drivers during the read (J).
    pub energy: f64,
}

/// A cell op's simulation with the positions of what the op reads.
pub(crate) struct CellOp {
    pub(crate) sim: CellSim,
    /// Position of the FE capacitor `Ffe`.
    pub(crate) fe: usize,
    /// Position of the read FEFET's channel `Mfet`.
    pub(crate) mfet: usize,
}

impl FefetCell {
    /// Target stable states of this cell's FEFET at zero bias, as
    /// `(p_low, p_high)` = (logic '0', logic '1'): the writes and every
    /// sweep over them check this before they simulate anything.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if the FEFET cannot store data: its
    /// zero-bias stable states do not include one below −0.05 C/m² and
    /// one above +0.05 C/m² (a volatile device, e.g. too thin a film).
    pub fn checked_memory_states(&self) -> Result<(f64, f64)> {
        let states = self.fefet.stable_states_at_zero();
        let lo = states.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = states.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if lo < -0.05 && hi > 0.05 {
            Ok((lo, hi))
        } else {
            Err(CktError::Netlist(format!(
                "cell device is not nonvolatile: states {states:?}"
            )))
        }
    }

    /// Builds the cell netlist with the given line waveforms and stored
    /// polarization `p0` (C/m²), with consistent internal-node initial
    /// conditions, to run to `t_end` (s).
    fn build(&self, p0: f64, w_bl: Waveform, w_ws: Waveform, w_rs: Waveform, t_end: f64) -> CellOp {
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
        let fe = c.elements().len();
        c.fecap("Ffe", g, gi, self.fefet.fe, p0);
        let mfet = c.elements().len();
        c.mosfet("Mfet", rs, gi, sl, self.fefet.mos);
        // Consistent hold-state ICs: the retained stack floats with the
        // internal node at the NC step-up voltage and the external gate at
        // v_gate_static(p0) (0 for a true zero-bias stable state).
        let node_ics: Vec<(Node, f64)> = vec![
            (gi, self.fefet.v_mos_of(p0)),
            (g, self.fefet.v_gate_static(p0)),
        ];
        CellOp {
            sim: CellSim::new(c, t_end, self.dt, Integration::Trapezoidal, node_ics),
            fe,
            mfet,
        }
    }

    /// The simulation of [`FefetCell::write`].
    pub(crate) fn write_op(&self, data: bool, p_from: f64, t_pulse: f64) -> CellOp {
        let b = &self.bias;
        let v_bl = if data { b.v_write } else { -b.v_write };
        // Gate-restore tail: bl back at 0 with the select still on, long
        // enough for the polarization to relax to its zero-bias state
        // before the storage gate is isolated.
        let t_restore = 1.5e-9;
        let w_ws = Waveform::pulse(0.0, b.v_boost, T_START, T_EDGE, T_EDGE, t_pulse + t_restore);
        let w_bl = Waveform::pulse(0.0, v_bl, T_START, T_EDGE, T_EDGE, t_pulse);
        let t_end = T_START + t_pulse + t_restore + 0.5e-9;
        self.build(p_from, w_bl, w_ws, Waveform::dc(0.0), t_end)
    }

    /// The polarization level (C/m²) and edge at which a write of `data`
    /// into a cell with memory states `(p_lo, p_hi)` has committed.
    pub(crate) fn write_commit((p_lo, p_hi): (f64, f64), data: bool) -> (f64, Edge) {
        // A write has committed once the polarization crosses 60% of the
        // destination state: from there the cell relaxes into the correct
        // well even if released immediately.
        if data {
            (0.6 * p_hi, Edge::Rising)
        } else {
            (0.6 * p_lo, Edge::Falling)
        }
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
    /// As for [`FefetCell::checked_memory_states`], before anything is
    /// simulated; simulator convergence failures.
    pub fn write(&self, data: bool, p_from: f64, t_pulse: f64) -> Result<WriteResult> {
        self.write_observed(data, p_from, t_pulse, |_| {})
    }

    /// [`FefetCell::write`] of `data` from `p_from` (C/m²) with a pulse
    /// of width `t_pulse` (s), also handing every accepted point of the
    /// run to `observe`.
    ///
    /// # Errors
    ///
    /// As for [`FefetCell::write`].
    pub fn write_observed(
        &self,
        data: bool,
        p_from: f64,
        t_pulse: f64,
        mut observe: impl FnMut(&Step<'_>),
    ) -> Result<WriteResult> {
        let (commit, edge) = Self::write_commit(self.checked_memory_states()?, data);
        let op = self.write_op(data, p_from, t_pulse);
        // The crossing is interpolated between samples, so the time does
        // not snap to the step grid.
        let mut cross = Crossing::new(commit, edge, 0.0);
        let run = op.sim.run(|s| {
            cross.observe(s.t, s.polarization(op.fe));
            observe(s);
            ControlFlow::Continue(())
        })?;
        let switch_time = cross.checked("p(Ffe)")?.map(|t| (t - T_START).max(0.0));
        Ok(WriteResult {
            p_final: run.polarization(op.fe),
            switch_time,
            energy: run.total_source_energy(),
            breakdown: run
                .source_energies(&op.sim.circuit)
                .map(|(name, e)| (name.to_string(), e))
                .collect(),
        })
    }

    /// The simulation of [`FefetCell::read`] and the time (s) at which
    /// it samples the read current.
    pub(crate) fn read_op(&self, p0: f64, t_read: f64) -> (CellOp, f64) {
        let b = &self.bias;
        let w_ws = Waveform::pulse(0.0, b.v_dd, T_START, T_EDGE, T_EDGE, t_read);
        let w_rs = Waveform::pulse(0.0, b.v_read, T_START, T_EDGE, T_EDGE, t_read);
        let t_end = T_START + t_read + 0.5e-9;
        // Sample the FEFET current near the end of the read window.
        let t_sample = T_START + t_read - 2.0 * T_EDGE;
        (
            self.build(p0, Waveform::dc(0.0), w_ws, w_rs, t_end),
            t_sample,
        )
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
        self.read_observed(p0, t_read, |_| {})
    }

    /// [`FefetCell::read`] of stored polarization `p0` (C/m²) over the
    /// read window `t_read` (s), also handing every accepted point of
    /// the run to `observe`.
    ///
    /// # Errors
    ///
    /// As for [`FefetCell::read`].
    pub fn read_observed(
        &self,
        p0: f64,
        t_read: f64,
        mut observe: impl FnMut(&Step<'_>),
    ) -> Result<ReadResult> {
        let (op, t_sample) = self.read_op(p0, t_read);
        let mut probe = CurrentsAt::new(t_sample, vec![op.mfet]);
        let run = op.sim.run(|s| {
            probe.observe(s);
            observe(s);
            ControlFlow::Continue(())
        })?;
        let p_after = run.polarization(op.fe);
        Ok(ReadResult {
            i_read: probe.values().map_or(0.0, |v| v[0]),
            p_after,
            disturb: (p_after - p0).abs(),
            energy: run.total_source_energy(),
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
    /// As for [`FefetCell::write`].
    pub fn fig6_sequence(
        &self,
        t_pulse: f64,
        t_read: f64,
    ) -> Result<(WriteResult, ReadResult, WriteResult, ReadResult)> {
        self.fig6_sequence_observed(t_pulse, t_read, |_, _| {})
    }

    /// [`FefetCell::fig6_sequence`] with pulse width `t_pulse` (s) and
    /// read window `t_read` (s), also handing every accepted point of
    /// each op's run to `observe` with the op's index in the sequence:
    /// 0 = write '1', 1 = its read, 2 = write '0', 3 = its read.
    ///
    /// # Errors
    ///
    /// As for [`FefetCell::write`].
    pub fn fig6_sequence_observed(
        &self,
        t_pulse: f64,
        t_read: f64,
        mut observe: impl FnMut(usize, &Step<'_>),
    ) -> Result<(WriteResult, ReadResult, WriteResult, ReadResult)> {
        let (p_lo, _p_hi) = self.checked_memory_states()?;
        let w1 = self.write_observed(true, p_lo, t_pulse, |s| observe(0, s))?;
        let r1 = self.read_observed(w1.p_final, t_read, |s| observe(1, s))?;
        let w0 = self.write_observed(false, w1.p_final, t_pulse, |s| observe(2, s))?;
        let r0 = self.read_observed(w0.p_final, t_read, |s| observe(3, s))?;
        Ok((w1, r1, w0, r0))
    }
}

/// Helpers of the op-parity tests: each cell-level op's measurements,
/// kept through probes, must equal bit for bit what `transient()` on the
/// same op circuit followed by the matching `Trace` lookups gives.
#[cfg(test)]
pub(crate) mod parity {
    use super::CellSim;
    use fefet_ckt::trace::Trace;
    use fefet_ckt::transient::transient;

    /// The full trace of an op's simulation.
    pub(crate) fn full(sim: &CellSim) -> Trace {
        transient(&sim.circuit, sim.t_end, sim.opts.clone()).unwrap()
    }

    /// Asserts a probed measurement equals its trace lookup bit for bit.
    pub(crate) fn same(what: &str, probed: f64, traced: f64) {
        assert_eq!(
            probed.to_bits(),
            traced.to_bits(),
            "{what}: probed {probed:e} vs trace {traced:e}"
        );
    }

    /// [`same`] for measurements that may be absent.
    pub(crate) fn same_opt(what: &str, probed: Option<f64>, traced: Option<f64>) {
        assert_eq!(
            probed.map(f64::to_bits),
            traced.map(f64::to_bits),
            "{what}: probed {probed:?} vs trace {traced:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::parity::{full, same, same_opt};
    use super::*;
    use fefet_ckt::probe::Recorder;

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
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
        let b = &cell.bias;
        let op = cell.build(
            p_lo,
            Waveform::dc(b.v_write),
            Waveform::dc(b.v_boost),
            Waveform::dc(0.0),
            20.0 * H,
        );
        let ckt = op.sim.circuit;
        let asm = Assembly::new(&ckt);
        let mut x = vec![0.0; asm.n_unknowns()];
        for (node, v) in op.sim.opts.node_ics {
            x[node.index() - 1] = v;
        }
        let mut states: Vec<ElemState> = ckt
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x))
            .collect();
        asm.seed_polarization(&ckt, &states, 0.0, &mut x);
        let fe = op.fe;
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

    /// A FEFET too thin to hold two states is refused with a typed
    /// error by the write and by every sweep over writes, before any of
    /// them simulates.
    #[test]
    fn volatile_fefet_is_a_typed_error_not_a_panic() {
        use crate::compare::{fefet_write_sweep, iso_comparison};
        use crate::feram::FeramCell;
        use crate::shmoo::write_shmoo;
        let mut c = cell();
        c.fefet = c.fefet.with_thickness(1.5e-9);
        let refused =
            |r: Result<()>| matches!(r, Err(CktError::Netlist(m)) if m.contains("not nonvolatile"));
        assert!(refused(c.checked_memory_states().map(drop)));
        assert!(refused(c.write(true, 0.0, 1e-9).map(drop)));
        assert!(refused(c.fig6_sequence(1e-9, 3e-9).map(drop)));
        assert!(refused(fefet_write_sweep(&c, &[0.68]).map(drop)));
        assert!(refused(write_shmoo(&c, &[0.68], &[1e-9], 0.06).map(drop)));
        assert!(refused(
            iso_comparison(&c, &FeramCell::default(), 0.55e-9, 32).map(drop)
        ));
        // A read needs no memory states: it simulates as before.
        assert!(c.read(0.0, 1e-9).is_ok());
    }

    #[test]
    fn memory_states_are_bipolar() {
        let (lo, hi) = cell().checked_memory_states().unwrap();
        assert!(lo < -0.1);
        assert!(hi > 0.15);
    }

    #[test]
    fn write_one_switches_polarization() {
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
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
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
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
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let w = c.write(true, p_lo, 0.7e-9).unwrap();
        assert!((w.p_final - p_hi).abs() < 0.05, "p_final {}", w.p_final);
    }

    #[test]
    fn read_is_disturb_free_for_both_states() {
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
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
        let (p_lo, _) = c.checked_memory_states().unwrap();
        let p1 = c.read(p_lo, 3e-9).unwrap().p_after;
        let p2 = c.read(p1, 3e-9).unwrap().p_after;
        assert!(
            (p2 - p1).abs() < 0.6 * (p1 - p_lo).abs().max(1e-4),
            "reads ratchet the state: {p_lo} -> {p1} -> {p2}"
        );
    }

    #[test]
    fn read_distinguishability_exceeds_1e5() {
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
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
        let (p_lo, _) = c.checked_memory_states().unwrap();
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
        let (p_lo, _) = c.checked_memory_states().unwrap();
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
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let mut rec = Recorder::new();
        let w = c
            .write_observed(true, p_lo, 1e-9, |s| rec.observe(s))
            .unwrap();
        let trace = rec.into_trace();
        let p_sig = trace.try_signal("p(Ffe)").unwrap();
        assert_eq!(p_sig.last().unwrap().to_bits(), w.p_final.to_bits());
        let n = p_sig.len();
        // Last 10% of samples: stable at the high state.
        for p in &p_sig[n - n / 10..] {
            assert!((p - p_hi).abs() < 0.03, "tail drifted: {p}");
        }
    }

    #[test]
    fn fefet_cell_ops_equal_the_full_trace_lookups() {
        let cell = FefetCell::default();
        let (lo, hi) = cell.checked_memory_states().unwrap();
        for (data, from, pulse) in [
            (true, lo, 1e-9),
            (false, hi, 1e-9),
            (true, lo, 0.2e-9),
            (false, lo, 1e-9),
        ] {
            let what = format!("write {data} from {from:.3} for {pulse:e} s");
            let w = cell.write(data, from, pulse).unwrap();
            let tr = full(&cell.write_op(data, from, pulse).sim);
            let (commit, edge) = FefetCell::write_commit((lo, hi), data);
            let switch_time = tr
                .checked_cross_time("p(Ffe)", commit, edge, 0.0)
                .unwrap()
                .map(|t| (t - T_START).max(0.0));
            same_opt(&format!("{what} switch_time"), w.switch_time, switch_time);
            same(
                &format!("{what} p_final"),
                w.p_final,
                tr.last("p(Ffe)").unwrap(),
            );
            same(
                &format!("{what} energy"),
                w.energy,
                tr.total_source_energy(),
            );
            assert_eq!(w.energy_breakdown().len(), tr.energies().len());
            for ((n, e), (tn, te)) in w.energy_breakdown().iter().zip(tr.energies()) {
                assert_eq!(n, tn);
                same(&format!("{what} energy of {n}"), *e, *te);
            }
        }
        for (p0, t_read) in [(hi, 3e-9), (lo, 3e-9), (hi, 1.5e-9)] {
            let what = format!("read of {p0:.3} over {t_read:e} s");
            let r = cell.read(p0, t_read).unwrap();
            let (op, t_sample) = cell.read_op(p0, t_read);
            let tr = full(&op.sim);
            let p_after = tr.last("p(Ffe)").unwrap();
            same(
                &format!("{what} i_read"),
                r.i_read,
                tr.value_at("i(Mfet)", t_sample).unwrap(),
            );
            same(&format!("{what} p_after"), r.p_after, p_after);
            same(&format!("{what} disturb"), r.disturb, (p_after - p0).abs());
            same(
                &format!("{what} energy"),
                r.energy,
                tr.total_source_energy(),
            );
        }
    }
}
