//! The 1T-1C FERAM baseline (§6.1, Fig 9): one access transistor plus a
//! ferroelectric capacitor between the cell node and the plate line.
//!
//! - Write '1': bit line at +V_write, plate line grounded.
//! - Write '0': bit line grounded, plate line at +V_write.
//! - Read: pulse the plate line with the bit line floating; a stored '1'
//!   switches (releasing ≈2·P_r·A of charge onto the bit line), a stored
//!   '0' does not — the read is **destructive** and requires write-back,
//!   which is why the paper's FERAM read energy (15.5 pJ) is as large as
//!   its write energy.

use crate::cell::{CellSim, T_EDGE, T_START};
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{Integration, Node};
use fefet_ckt::models::{FeCapParams, MosParams};
use fefet_ckt::probe::{Crossing, WindowMax};
use fefet_ckt::trace::Edge;
use fefet_ckt::waveform::Waveform;
use fefet_ckt::{CktError, Result};
use std::ops::ControlFlow;

/// A 1T-1C FERAM cell with line parasitics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeramCell {
    /// The ferroelectric storage capacitor (1 nm film by default).
    pub cap: FeCapParams,
    /// The access transistor.
    pub access: MosParams,
    /// Write voltage magnitude on bit/plate line (V). Paper: 1.64 V for a
    /// 550 ps write.
    pub v_write: f64,
    /// Boosted word-line level (V) so the NMOS passes the full V_write.
    pub v_wordline: f64,
    /// Bit-line capacitance (F).
    pub c_bit_line: f64,
    /// Plate-line capacitance (F).
    pub c_plate_line: f64,
    /// Line-driver output resistance (Ω).
    pub r_driver: f64,
    /// Simulation step (s) of the trapezoidal transient; 20 ps by default.
    pub dt: f64,
}

impl Default for FeramCell {
    /// Paper-default FERAM: 1 nm film, 65×65 nm plate, 1.64 V write,
    /// 256-row lines at the Fig 11 FERAM pitch plus the sense-amplifier
    /// input loading. Voltage sensing *requires* a bit line much larger
    /// than the cell's switched charge, or the released charge lifts the
    /// bit line high enough to stall the polarization reversal mid-read.
    fn default() -> Self {
        let metal_per_m = 0.2e-15 / 1e-6;
        let pitch_y = 8.0 * crate::layout::LAMBDA_45NM;
        let col_len = 256.0 * pitch_y;
        let c_sa_input = 20e-15;
        FeramCell {
            cap: fefet_device::params::paper_feram_cap(),
            access: MosParams::nmos_45nm(),
            v_write: 1.64,
            v_wordline: 2.3,
            c_bit_line: metal_per_m * col_len + c_sa_input,
            c_plate_line: metal_per_m * col_len,
            r_driver: 1e3,
            dt: 20e-12,
        }
    }
}

/// Outcome of a FERAM write: the measurements its run keeps.
#[derive(Debug, Clone)]
pub struct FeramWriteResult {
    /// Final polarization (C/m²).
    pub p_final: f64,
    /// Time from pulse onset until the polarization entered the
    /// ±0.05 C/m² band around the destination state (s), interpolated
    /// between samples; `None` if it never entered (a failed write, or
    /// one from a state already inside the band).
    pub switch_time: Option<f64>,
    /// Driver energy (J).
    pub energy: f64,
}

/// Outcome of a FERAM (destructive) read: the measurements its run
/// keeps.
#[derive(Debug, Clone)]
pub struct FeramReadResult {
    /// Peak bit-line voltage developed during the plate pulse (V).
    pub v_bl_swing: f64,
    /// Polarization after the read (C/m²) — flipped for a stored '1'.
    pub p_after: f64,
    /// Whether the read destroyed the stored value.
    pub destructive: bool,
    /// Driver energy of the read phase alone (J).
    pub energy: f64,
}

/// A FERAM op's simulation with the positions of what the op reads.
pub(crate) struct FeramOp {
    pub(crate) sim: CellSim,
    /// Position of the FE capacitor `Fcap`.
    pub(crate) fcap: usize,
    /// The bit line.
    pub(crate) bl: Node,
}

impl FeramCell {
    /// The two remnant storage states `(p_low, p_high)`: the writes and
    /// the sweeps over them check this before they simulate anything.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if the film is paraelectric (no remnant
    /// polarization to store data in).
    pub fn checked_memory_states(&self) -> Result<(f64, f64)> {
        let pr = self.cap.lk.remnant_polarization().ok_or_else(|| {
            CktError::Netlist("FERAM film must be ferroelectric: no remnant polarization".into())
        })?;
        Ok((-pr, pr))
    }

    /// Builds the cell netlist for stored polarization `p0` (C/m²), run
    /// to `t_end` (s).
    fn build(
        &self,
        p0: f64,
        w_bl: Option<Waveform>,
        w_wl: Waveform,
        w_pl: Waveform,
        bl_release: Option<Waveform>,
        t_end: f64,
    ) -> FeramOp {
        let mut c = Circuit::new();
        let bl = c.node("bl");
        let wl = c.node("wl");
        let pl = c.node("pl");
        let n = c.node("n");
        if let Some(w) = w_bl {
            let bld = c.node("bl_drv");
            c.vsource("Vbl", bld, Circuit::GND, w);
            c.resistor("Rbl", bld, bl, self.r_driver);
        }
        if let Some(ctrl) = bl_release {
            // Grounding switch for the pre-charge phase of a read.
            c.switch("Sbl", bl, Circuit::GND, ctrl, 100.0, 1e12);
        }
        let wld = c.node("wl_drv");
        c.vsource("Vwl", wld, Circuit::GND, w_wl);
        c.resistor("Rwl", wld, wl, self.r_driver);
        let pld = c.node("pl_drv");
        c.vsource("Vpl", pld, Circuit::GND, w_pl);
        c.resistor("Rpl", pld, pl, self.r_driver);
        c.capacitor("Cbl", bl, Circuit::GND, self.c_bit_line);
        c.capacitor("Cpl", pl, Circuit::GND, self.c_plate_line);
        c.mosfet("Macc", bl, wl, n, self.access);
        let fcap = c.elements().len();
        c.fecap("Fcap", n, pl, self.cap, p0);
        FeramOp {
            sim: CellSim::new(c, t_end, self.dt, Integration::Trapezoidal, Vec::new()),
            fcap,
            bl,
        }
    }

    /// The simulation of [`FeramCell::write`].
    pub(crate) fn write_op(&self, data: bool, p_from: f64, t_pulse: f64) -> FeramOp {
        // The word line stays on past the data pulse so the cell node
        // returns to ground and the polarization settles at its remnant
        // value before the access transistor isolates the capacitor.
        let t_restore = 0.5e-9;
        let wl = Waveform::pulse(
            0.0,
            self.v_wordline,
            T_START,
            T_EDGE,
            T_EDGE,
            t_pulse + t_restore,
        );
        let (bl, pl) = if data {
            (
                Waveform::pulse(0.0, self.v_write, T_START, T_EDGE, T_EDGE, t_pulse),
                Waveform::dc(0.0),
            )
        } else {
            (
                Waveform::dc(0.0),
                Waveform::pulse(0.0, self.v_write, T_START, T_EDGE, T_EDGE, t_pulse),
            )
        };
        let t_end = T_START + t_pulse + t_restore + 0.4e-9;
        self.build(p_from, Some(bl), wl, pl, None, t_end)
    }

    /// The polarization level (C/m²) and edge at which a write of `data`
    /// into a cell with memory states `(p_lo, p_hi)` has switched: the
    /// edge of the ±0.05 C/m² band around the target state.
    pub(crate) fn write_band((p_lo, p_hi): (f64, f64), data: bool) -> (f64, Edge) {
        if data {
            (p_hi - 0.05, Edge::Rising)
        } else {
            (p_lo + 0.05, Edge::Falling)
        }
    }

    /// Writes logic `data` starting from stored polarization `p_from`
    /// (C/m²) with a pulse of width `t_pulse` (s).
    ///
    /// # Errors
    ///
    /// As for [`FeramCell::checked_memory_states`], before anything is
    /// simulated; simulator convergence failures.
    pub fn write(&self, data: bool, p_from: f64, t_pulse: f64) -> Result<FeramWriteResult> {
        let (band_edge, edge) = Self::write_band(self.checked_memory_states()?, data);
        let op = self.write_op(data, p_from, t_pulse);
        // Switched once the polarization enters the band, interpolated
        // between samples.
        let mut cross = Crossing::new(band_edge, edge, 0.0);
        let run = op.sim.run(|s| {
            cross.observe(s.t, s.polarization(op.fcap));
            ControlFlow::Continue(())
        })?;
        let switch_time = cross.checked("p(Fcap)")?.map(|t| (t - T_START).max(0.0));
        Ok(FeramWriteResult {
            p_final: run.polarization(op.fcap),
            switch_time,
            energy: run.total_source_energy(),
        })
    }

    /// The simulation of [`FeramCell::read`].
    pub(crate) fn read_op(&self, p0: f64, t_dev: f64) -> FeramOp {
        // Switch closed (grounding bl) until just before the plate pulse.
        let release = Waveform::pwl(vec![
            (0.0, 1.0),
            (T_START - 60e-12, 1.0),
            (T_START - 50e-12, 0.0),
        ]);
        let wl = Waveform::pulse(0.0, self.v_wordline, T_START, T_EDGE, T_EDGE, t_dev);
        let pl = Waveform::pulse(0.0, self.v_write, T_START, T_EDGE, T_EDGE, t_dev);
        let t_end = T_START + t_dev + 0.4e-9;
        self.build(p0, None, wl, pl, Some(release), t_end)
    }

    /// Destructive read of stored polarization `p0` (C/m²): the bit line
    /// is grounded through a switch, then released; the plate line pulses
    /// to `v_write` for the develop window `t_dev` (s). The developed
    /// bit-line swing distinguishes the states.
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence failures.
    pub fn read(&self, p0: f64, t_dev: f64) -> Result<FeramReadResult> {
        let op = self.read_op(p0, t_dev);
        let mut swing = WindowMax::new(T_START, T_START + t_dev, vec![op.bl]);
        let run = op.sim.run(|s| {
            swing.observe(s);
            ControlFlow::Continue(())
        })?;
        let p_after = run.polarization(op.fcap);
        Ok(FeramReadResult {
            v_bl_swing: swing.values().map_or(0.0, |v| v[0]),
            p_after,
            destructive: (p_after - p0).abs() > 0.2,
            energy: run.total_source_energy(),
        })
    }

    /// Full read cycle on stored polarization `p0` (C/m²) including the
    /// write-back a destructive read requires — develop window `t_dev`
    /// (s), write-back pulse `t_pulse` (s): returns
    /// `(read, restored_p, total_energy)`.
    ///
    /// # Errors
    ///
    /// As for [`FeramCell::write`].
    pub fn read_with_writeback(
        &self,
        p0: f64,
        t_dev: f64,
        t_pulse: f64,
    ) -> Result<(FeramReadResult, f64, f64)> {
        let (p_lo, p_hi) = self.checked_memory_states()?;
        let was_one = (p0 - p_hi).abs() < (p0 - p_lo).abs();
        let read = self.read(p0, t_dev)?;
        let mut total = read.energy;
        let mut p = read.p_after;
        if was_one {
            // The plate pulse drove the cell toward '0'; restore the '1'.
            let wb = self.write(true, p, t_pulse)?;
            total += wb.energy;
            p = wb.p_final;
        }
        Ok((read, p, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::parity::{full, same, same_opt};

    fn cell() -> FeramCell {
        FeramCell::default()
    }

    /// A paraelectric film is refused with a typed error by the write,
    /// the read cycle and the sweeps over writes, before any of them
    /// simulates.
    #[test]
    fn paraelectric_film_is_a_typed_error_not_a_panic() {
        use crate::compare::{feram_write_sweep, iso_comparison};
        use crate::FefetCell;
        let mut c = cell();
        c.cap.lk.alpha = c.cap.lk.alpha.abs();
        c.cap.lk.beta = c.cap.lk.beta.abs();
        let refused =
            |r: Result<()>| matches!(r, Err(CktError::Netlist(m)) if m.contains("ferroelectric"));
        assert!(refused(c.checked_memory_states().map(drop)));
        assert!(refused(c.write(true, 0.0, 0.55e-9).map(drop)));
        assert!(refused(c.read_with_writeback(0.0, 1e-9, 1e-9).map(drop)));
        assert!(refused(feram_write_sweep(&c, &[1.64]).map(drop)));
        assert!(refused(
            iso_comparison(&FefetCell::default(), &c, 0.55e-9, 32).map(drop)
        ));
    }

    #[test]
    fn memory_states_are_remnant_polarization() {
        let (lo, hi) = cell().checked_memory_states().unwrap();
        assert!((hi - 0.4637).abs() < 0.01);
        assert!((lo + hi).abs() < 1e-12);
    }

    #[test]
    fn write_one_and_zero() {
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let w1 = c.write(true, p_lo, 1.5e-9).unwrap();
        assert!(
            (w1.p_final - p_hi).abs() < 0.05,
            "write 1 ended at {}",
            w1.p_final
        );
        let w0 = c.write(false, p_hi, 1.5e-9).unwrap();
        assert!(
            (w0.p_final - p_lo).abs() < 0.05,
            "write 0 ended at {}",
            w0.p_final
        );
    }

    #[test]
    fn write_at_1v64_completes_near_550ps() {
        let c = cell();
        let (p_lo, _) = c.checked_memory_states().unwrap();
        let w = c.write(true, p_lo, 1.2e-9).unwrap();
        let t = w.switch_time.expect("1.64V write must complete");
        assert!(
            (0.3e-9..0.9e-9).contains(&t),
            "switch time {:.3} ns should be near 0.55 ns",
            t * 1e9
        );
    }

    #[test]
    fn write_fails_at_low_voltage() {
        // Fig 10a: below ~1.5 V (at the operating pulse width) the FERAM
        // write fails. Statically below the 1.24 V coercive voltage it
        // cannot switch at all.
        let mut c = cell();
        c.v_write = 1.0;
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let w = c.write(true, p_lo, 1.5e-9).unwrap();
        assert!(
            (w.p_final - p_hi).abs() > 0.3,
            "1.0 V must not switch, got {}",
            w.p_final
        );
    }

    #[test]
    fn read_is_destructive_for_one_only() {
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let r1 = c.read(p_hi, 2e-9).unwrap();
        assert!(r1.destructive, "stored '1' must flip: {}", r1.p_after);
        let r0 = c.read(p_lo, 2e-9).unwrap();
        assert!(!r0.destructive, "stored '0' must survive: {}", r0.p_after);
    }

    #[test]
    fn read_margin_between_states() {
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let v1 = c.read(p_hi, 2e-9).unwrap().v_bl_swing;
        let v0 = c.read(p_lo, 2e-9).unwrap().v_bl_swing;
        assert!(
            v1 - v0 > 0.05,
            "voltage sense margin too small: v1={v1:.3}, v0={v0:.3}"
        );
    }

    #[test]
    fn writeback_restores_the_one() {
        let c = cell();
        let (_, p_hi) = c.checked_memory_states().unwrap();
        let (read, restored, total) = c.read_with_writeback(p_hi, 2e-9, 1.5e-9).unwrap();
        assert!(read.destructive);
        assert!((restored - p_hi).abs() < 0.05, "restored to {restored}");
        assert!(total > read.energy, "write-back energy must be counted");
    }

    #[test]
    fn read_energy_comparable_to_write_energy() {
        // Table 3: FERAM read 15.5 pJ ≈ write 15.0 pJ (destructive read +
        // write-back). Compare at cell level: the '1'-read with write-back
        // costs at least as much as a write.
        let c = cell();
        let (p_lo, p_hi) = c.checked_memory_states().unwrap();
        let w = c.write(true, p_lo, 1.5e-9).unwrap();
        let (_, _, read_total) = c.read_with_writeback(p_hi, 2e-9, 1.5e-9).unwrap();
        assert!(
            read_total > 0.6 * w.energy,
            "read-with-writeback {:.3e} vs write {:.3e}",
            read_total,
            w.energy
        );
    }

    #[test]
    fn feram_cell_ops_equal_the_full_trace_lookups() {
        let cell = FeramCell::default();
        let (lo, hi) = cell.checked_memory_states().unwrap();
        for (data, from) in [(true, lo), (false, hi), (true, hi)] {
            let what = format!("write {data} from {from:.3}");
            let w = cell.write(data, from, 0.55e-9).unwrap();
            let tr = full(&cell.write_op(data, from, 0.55e-9).sim);
            let (band_edge, edge) = FeramCell::write_band((lo, hi), data);
            let switch_time = tr
                .checked_cross_time("p(Fcap)", band_edge, edge, 0.0)
                .unwrap()
                .map(|t| (t - T_START).max(0.0));
            same_opt(&format!("{what} switch_time"), w.switch_time, switch_time);
            same(
                &format!("{what} p_final"),
                w.p_final,
                tr.last("p(Fcap)").unwrap(),
            );
            same(
                &format!("{what} energy"),
                w.energy,
                tr.total_source_energy(),
            );
        }
        for p0 in [hi, lo] {
            let what = format!("read of {p0:.3}");
            let t_dev = 1e-9;
            let r = cell.read(p0, t_dev).unwrap();
            let tr = full(&cell.read_op(p0, t_dev).sim);
            let p_after = tr.last("p(Fcap)").unwrap();
            same(
                &format!("{what} v_bl_swing"),
                r.v_bl_swing,
                tr.window_max("v(bl)", T_START, T_START + t_dev).unwrap(),
            );
            same(&format!("{what} p_after"), r.p_after, p_after);
            assert_eq!(r.destructive, (p_after - p0).abs() > 0.2, "{what}");
            same(
                &format!("{what} energy"),
                r.energy,
                tr.total_source_energy(),
            );
        }
    }
}
