//! The 1T-1C FERAM array — the baseline's array-level behavior, for a
//! like-for-like comparison with [`crate::array::FefetArray`].
//!
//! FERAM arrays share bit lines down columns and word/plate lines across
//! rows. Two classic weaknesses the paper holds against FERAM appear
//! naturally here:
//!
//! - **destructive reads**: reading a row flips its '1' cells and forces
//!   a write-back cycle;
//! - **plate-line disturb**: unaccessed cells on a pulsed plate row see a
//!   partial depolarizing field through their (off) access transistors,
//!   so repeated neighbors' operations nibble at stored polarization —
//!   in contrast to the FEFET array's fully isolated write path.
//!
//! Row ops solve a **row slice** through the same partition as the FEFET
//! array (`crate::slice`): the accessed row on its own word/plate
//! lines, one lumped word/plate-line pair for the `rows − 1` others
//! (driver `R/(rows−1)`, plate capacitance `C·(rows−1)`), and per column
//! the unaccessed cells cut in two at their widest polarization gap,
//! each part one cell with access width and FE area scaled by its size
//! and starting at its members' mean polarization. Ten probe cells on
//! column 0 sample how an unaccessed cell's polarization change depends
//! on where it starts, so members off their class's mean (rows freshly
//! written or read, still relaxing) move by their own amount. Unlike the
//! FEFET array's, an unaccessed FERAM cell's change also depends on its
//! own bit line: word lines idle at 0 V, '1' columns hold V_write
//! through a write's plate phase, and a read's floating bit lines swing
//! with the accessed cells' charge. Column 0 does not show that for the
//! other columns; `tests/feram_slice_parity.rs` bounds what it costs.
//! The `*_full` row ops keep the full-array netlist as the reference
//! the slice is tested against.

use crate::array::{check_window, ArrayOp, FastPathToggles, MnaDims};
use crate::cell::{T_EDGE, T_START};
use crate::feram::FeramCell;
use crate::slice::{self, Groups, Stored, Unaccessed};
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::Node;
use fefet_ckt::models::MosParams;
use fefet_ckt::plan::AnalysisCache;
use fefet_ckt::probe::WindowMax;
use fefet_ckt::transient::{Step, TransientRun};
use fefet_ckt::waveform::Waveform;
use fefet_ckt::{CktError, Result};
use fefet_telemetry::Instrumentation;

/// An m×n array of 1T-1C FERAM cells with explicit stored polarization.
/// Every simulation it runs solves on the pattern-cached sparse LU.
#[derive(Debug, Clone)]
pub struct FeramArray {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Cell template. Change its biases or step, not its film: the
    /// array keeps the memory states it found at construction.
    pub cell: FeramCell,
    /// Telemetry sink for every simulation this array runs, as for
    /// [`crate::array::FefetArray::instr`]: row ops record
    /// `array.write_row` / `array.read_row` spans, op counts and the
    /// engine's solver statistics. Off by default.
    pub instr: Instrumentation,
    /// Shared symbolic-analysis cache: one analysis per matrix pattern
    /// for this array's lifetime, shared (by `Arc`) into every clone.
    cache: AnalysisCache,
    /// The cell's memory states, found at construction.
    memory_states: (f64, f64),
    state: Vec<f64>,
}

/// A FERAM array netlist plus the positions its row ops address it by,
/// so nothing after construction formats or hashes a name.
#[derive(Debug)]
struct Netlist {
    circuit: Circuit,
    /// Its cells, the stored cells each stands for and their FE
    /// capacitors' element positions.
    groups: Groups,
    /// Bit-line node per column.
    bl: Vec<Node>,
}

impl FeramArray {
    /// Creates a `rows × cols` array of `cell` with every cell at logic
    /// '0' (−P_r).
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] for an array without a row or a column, and
    /// as for [`FeramCell::checked_memory_states`] for a paraelectric
    /// film.
    pub fn new(rows: usize, cols: usize, mut cell: FeramCell) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CktError::Netlist("array: need at least 1x1".into()));
        }
        let metal_per_m = 0.2e-15 / 1e-6;
        let pitch_y = 8.0 * crate::layout::LAMBDA_45NM;
        let pitch_x = 10.0 * crate::layout::LAMBDA_45NM;
        cell.c_bit_line = metal_per_m * rows as f64 * pitch_y + 20e-15;
        cell.c_plate_line = metal_per_m * cols as f64 * pitch_x;
        let memory_states = cell.checked_memory_states()?;
        Ok(FeramArray {
            rows,
            cols,
            cell,
            instr: Instrumentation::off(),
            cache: AnalysisCache::new(),
            memory_states,
            state: vec![memory_states.0; rows * cols],
        })
    }

    /// The memory states `(p_low, p_high)` (C/m²) of this array's cell,
    /// found at construction.
    pub fn memory_states(&self) -> (f64, f64) {
        self.memory_states
    }

    /// Stored polarization of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn polarization(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "cell index out of range"
        );
        self.state[row * self.cols + col]
    }

    /// Overwrites the stored polarization `p` (C/m²) of cell
    /// `(row, col)` without running a circuit — the hook the serving layer
    /// uses to keep the array's state in sync with fast-path writes and
    /// to restore destructively-read rows after an escalated read.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_polarization(&mut self, row: usize, col: usize, p: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "cell index out of range"
        );
        self.state[row * self.cols + col] = p;
    }

    /// Stored polarizations (C/m²) of `row`'s cells, by column, for
    /// callers that overwrite a whole row at once.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub(crate) fn row_state_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.state[row * self.cols..(row + 1) * self.cols]
    }

    /// Logic value of cell `(row, col)`.
    pub fn bit(&self, row: usize, col: usize) -> bool {
        let (p_lo, p_hi) = self.memory_states;
        let p = self.polarization(row, col);
        (p - p_hi).abs() < (p - p_lo).abs()
    }

    /// MNA problem size of this array's full read-phase circuit (every
    /// cell on its own lines), for like-for-like solver comparisons
    /// against [`crate::array::FefetArray::mna_dims`]. Row ops solve
    /// the much smaller row slice instead; see
    /// [`FeramArray::row_op_dims`].
    pub fn mna_dims(&self) -> MnaDims {
        self.dims(Unaccessed::Cells)
    }

    /// MNA problem size of the row slice every [`FeramArray::read_row`]
    /// solves (writes add a driver per bit line), whatever the stored
    /// data.
    pub fn row_op_dims(&self) -> MnaDims {
        self.dims(Unaccessed::Classes)
    }

    fn dims(&self, unaccessed: Unaccessed) -> MnaDims {
        let idle = (Waveform::dc(0.0), Waveform::dc(0.0));
        let bl_waves: Vec<Option<Waveform>> = vec![None; self.cols];
        crate::array::dims(&self.build(0, unaccessed, &idle, &idle, &bl_waves).circuit)
    }

    /// Builds the netlist of an op on `row` — `accessed` / `others` are
    /// the (word line, plate line) waveforms of the accessed and the
    /// unaccessed rows, `bl_waves` the bit-line drive per column (`None`
    /// leaves it floating) — representing the unaccessed cells as
    /// `unaccessed` says, and recording the positions the row ops
    /// address later. A lumped cell starts at its members' mean
    /// polarization.
    fn build(
        &self,
        row: usize,
        unaccessed: Unaccessed,
        accessed: &(Waveform, Waveform),
        others: &(Waveform, Waveform),
        bl_waves: &[Option<Waveform>],
    ) -> Netlist {
        let (lines, accessed_line) = slice::row_lines(self.rows, row, unaccessed);
        let mut c = Circuit::new();
        let mut wl_nodes = Vec::new();
        let mut pl_nodes = Vec::new();
        let mut bl_nodes = Vec::new();
        for (l, (i, m)) in lines.iter().enumerate() {
            let (wwl, wpl) = if l == accessed_line { accessed } else { others };
            // `m` identical lines in parallel: one line with m-fold
            // capacitance behind an m-fold stronger driver.
            let m = *m as f64;
            let wl = c.node(&format!("wl{i}"));
            let pl = c.node(&format!("pl{i}"));
            let wld = c.node(&format!("wl{i}_drv"));
            let pld = c.node(&format!("pl{i}_drv"));
            c.vsource(&format!("Vwl{i}"), wld, Circuit::GND, wwl.clone());
            c.resistor(&format!("Rwl{i}"), wld, wl, self.cell.r_driver / m);
            c.vsource(&format!("Vpl{i}"), pld, Circuit::GND, wpl.clone());
            c.resistor(&format!("Rpl{i}"), pld, pl, self.cell.r_driver / m);
            c.capacitor(
                &format!("Cpl{i}"),
                pl,
                Circuit::GND,
                self.cell.c_plate_line * m,
            );
            wl_nodes.push(wl);
            pl_nodes.push(pl);
        }
        for (j, wbl) in bl_waves.iter().enumerate() {
            let bl = c.node(&format!("bl{j}"));
            // Floating bit lines (reads) have no driver node or source.
            if let Some(w) = wbl {
                let bld = c.node(&format!("bl{j}_drv"));
                c.vsource(&format!("Vbl{j}"), bld, Circuit::GND, w.clone());
                c.resistor(&format!("Rbl{j}"), bld, bl, self.cell.r_driver);
            }
            c.capacitor(&format!("Cbl{j}"), bl, Circuit::GND, self.cell.c_bit_line);
            bl_nodes.push(bl);
        }
        let stored = Stored {
            rows: self.rows,
            cols: self.cols,
            state: &self.state,
            memory_states: self.memory_states,
        };
        let (cells, members) = slice::cell_groups(stored, row, unaccessed, |idx| {
            slice::mean_polarization(&self.state, idx)
        });
        let mut fcap = Vec::with_capacity(cells.len());
        for cell in &cells {
            // `m` identical cells in parallel: access width and FE area
            // scale by `m`.
            let m = cell.scale;
            let access = MosParams {
                w: self.cell.access.w * m,
                ..self.cell.access
            };
            let mut cap = self.cell.cap;
            cap.area *= m;
            let label = &cell.label;
            let n = c.node(&format!("n{label}"));
            c.mosfet(
                &format!("Macc{label}"),
                bl_nodes[cell.col],
                wl_nodes[cell.line],
                n,
                access,
            );
            fcap.push(c.elements().len());
            c.fecap(
                &format!("Fcap{label}"),
                n,
                pl_nodes[cell.line],
                cap,
                cell.p0,
            );
            if cell.lumped() {
                c.set_node_multiplicity(n, m);
            }
        }
        Netlist {
            circuit: c,
            groups: Groups {
                cells,
                members,
                accessed_line,
                fe: fcap,
            },
            bl: bl_nodes,
        }
    }

    fn run(
        &self,
        circuit: &Circuit,
        t_end: f64,
        observe: impl FnMut(&Step<'_>),
    ) -> Result<TransientRun> {
        let fastpaths = FastPathToggles::default();
        slice::run(
            circuit,
            t_end,
            self.cell.dt,
            Vec::new(),
            fastpaths.predict,
            slice::solver_options(fastpaths, &self.instr, &self.cache),
            observe,
        )
    }

    /// Writes `data` into `row` with pulse width `t_pulse` (s): word line
    /// boosted, bit lines driven to V_write for '1' columns, plate line
    /// pulsed for the '0' columns' polarity (two-phase write: bit-line
    /// phase then plate phase). The op solves the row slice: the
    /// accessed cells take their own final polarization, every
    /// unaccessed cell moves by its lumped cell's change.
    ///
    /// # Errors
    ///
    /// Dimension, `t_pulse` or convergence errors as in the FEFET array.
    pub fn write_row(&mut self, row: usize, data: &[bool], t_pulse: f64) -> Result<ArrayOp> {
        self.write_row_with(row, data, t_pulse, Unaccessed::Classes)
    }

    /// [`FeramArray::write_row`] of `data` into `row` with pulse width
    /// `t_pulse` (s), solved over the full-array netlist, every cell on
    /// its own lines and committing its own final polarization: the
    /// reference the row slice is checked against.
    ///
    /// # Errors
    ///
    /// As for [`FeramArray::write_row`].
    pub fn write_row_full(&mut self, row: usize, data: &[bool], t_pulse: f64) -> Result<ArrayOp> {
        self.write_row_with(row, data, t_pulse, Unaccessed::Cells)
    }

    fn write_row_with(
        &mut self,
        row: usize,
        data: &[bool],
        t_pulse: f64,
        unaccessed: Unaccessed,
    ) -> Result<ArrayOp> {
        if data.len() != self.cols {
            return Err(CktError::Netlist(format!(
                "write_row: got {} bits for {} columns",
                data.len(),
                self.cols
            )));
        }
        if row >= self.rows {
            return Err(CktError::Netlist(format!(
                "write_row: row {row} out of range"
            )));
        }
        check_window("write_row: t_pulse", t_pulse, 0.0)?;
        let v = self.cell.v_write;
        let t_restore = 0.5e-9;
        // Phase A (0..t_pulse): plate at 0, bit lines high where data=1.
        // Phase B (t_pulse..2t_pulse): plate pulses high, bit lines low —
        // writes the '0' columns.
        let accessed = (
            Waveform::pulse(
                0.0,
                self.cell.v_wordline,
                T_START,
                T_EDGE,
                T_EDGE,
                2.0 * t_pulse + t_restore,
            ),
            Waveform::pulse(0.0, v, T_START + t_pulse, T_EDGE, T_EDGE, t_pulse),
        );
        // '1' columns hold their bit lines high through the plate phase so
        // the plate pulse sees zero volts across them (otherwise phase B
        // would erase the ones just written).
        let bl_waves: Vec<Option<Waveform>> = data
            .iter()
            .map(|&bit| {
                Some(if bit {
                    Waveform::pulse(0.0, v, T_START, T_EDGE, T_EDGE, 2.0 * t_pulse)
                } else {
                    Waveform::dc(0.0)
                })
            })
            .collect();
        let idle = (Waveform::dc(0.0), Waveform::dc(0.0));
        let net = self.build(row, unaccessed, &accessed, &idle, &bl_waves);
        let t_end = T_START + 2.0 * t_pulse + t_restore + 0.4e-9;
        let _span = self.instr.span("array.write_row");
        let run = self.run(&net.circuit, t_end, |_| {})?;
        let max_disturb = net.groups.max_disturb(&run, &self.state, true);
        net.groups.commit(&run, &mut self.state);
        if let Some(tel) = self.instr.get() {
            tel.array.row_writes.inc();
        }
        Ok(ArrayOp {
            steps: run.steps,
            energy: run.total_source_energy(),
            max_disturb,
        })
    }

    /// Destructively reads `row` with develop window `t_dev` (s): bit
    /// lines released, plate pulsed; the developed bit-line voltages are
    /// the sensed values. The stored state is updated (the '1's flip) —
    /// callers must write back. The op solves the row slice, as
    /// [`FeramArray::write_row`] does.
    ///
    /// Returns `(op, bit-line swings per column)`.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `row` is out of range or `t_dev` is not
    /// finite and positive; convergence errors.
    pub fn read_row(&mut self, row: usize, t_dev: f64) -> Result<(ArrayOp, Vec<f64>)> {
        self.read_row_with(row, t_dev, Unaccessed::Classes)
    }

    /// [`FeramArray::read_row`] of `row` with develop window `t_dev`
    /// (s), solved over the full-array netlist: the reference the row
    /// slice is checked against.
    ///
    /// # Errors
    ///
    /// As for [`FeramArray::read_row`].
    pub fn read_row_full(&mut self, row: usize, t_dev: f64) -> Result<(ArrayOp, Vec<f64>)> {
        self.read_row_with(row, t_dev, Unaccessed::Cells)
    }

    fn read_row_with(
        &mut self,
        row: usize,
        t_dev: f64,
        unaccessed: Unaccessed,
    ) -> Result<(ArrayOp, Vec<f64>)> {
        if row >= self.rows {
            return Err(CktError::Netlist(format!(
                "read_row: row {row} out of range"
            )));
        }
        check_window("read_row: t_dev", t_dev, 0.0)?;
        let accessed = (
            Waveform::pulse(0.0, self.cell.v_wordline, T_START, T_EDGE, T_EDGE, t_dev),
            Waveform::pulse(0.0, self.cell.v_write, T_START, T_EDGE, T_EDGE, t_dev),
        );
        let idle = (Waveform::dc(0.0), Waveform::dc(0.0));
        // Floating bit lines (no drivers).
        let bl_waves: Vec<Option<Waveform>> = vec![None; self.cols];
        let net = self.build(row, unaccessed, &accessed, &idle, &bl_waves);
        let t_end = T_START + t_dev + 0.4e-9;
        let _span = self.instr.span("array.read_row");
        let mut probe = WindowMax::new(T_START, T_START + t_dev, net.bl);
        let run = self.run(&net.circuit, t_end, |s| probe.observe(s))?;
        let swings = match probe.values() {
            Some(v) => v.to_vec(),
            None => vec![0.0; self.cols],
        };
        let max_disturb = net.groups.max_disturb(&run, &self.state, true);
        net.groups.commit(&run, &mut self.state);
        if let Some(tel) = self.instr.get() {
            tel.array.row_reads.inc();
        }
        Ok((
            ArrayOp {
                steps: run.steps,
                energy: run.total_source_energy(),
                max_disturb,
            },
            swings,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FeramArray {
        FeramArray::new(2, 2, FeramCell::default()).unwrap()
    }

    /// An array of a paraelectric film, or one without a row or a
    /// column, is refused with a typed error at construction.
    #[test]
    fn array_of_a_paraelectric_film_is_a_typed_error_not_a_panic() {
        let mut cell = FeramCell::default();
        cell.cap.lk.alpha = cell.cap.lk.alpha.abs();
        cell.cap.lk.beta = cell.cap.lk.beta.abs();
        let r = FeramArray::new(2, 2, cell);
        assert!(matches!(r, Err(CktError::Netlist(m)) if m.contains("ferroelectric")));
        for (rows, cols) in [(0, 2), (2, 0)] {
            let r = FeramArray::new(rows, cols, FeramCell::default());
            assert!(matches!(r, Err(CktError::Netlist(m)) if m.contains("1x1")));
        }
        let a = small();
        assert_eq!(a.memory_states(), a.cell.checked_memory_states().unwrap());
    }

    #[test]
    fn write_row_sets_pattern() {
        let mut a = small();
        a.write_row(0, &[true, false], 1.2e-9).unwrap();
        assert!(a.bit(0, 0));
        assert!(!a.bit(0, 1));
        // Row 1 untouched (still '0').
        assert!(!a.bit(1, 0) && !a.bit(1, 1));
    }

    #[test]
    fn read_develops_margin_and_destroys_ones() {
        let mut a = small();
        a.write_row(0, &[true, false], 1.2e-9).unwrap();
        let (op, swings) = a.read_row(0, 2e-9).unwrap();
        assert!(
            swings[0] - swings[1] > 0.05,
            "margin: {} vs {}",
            swings[0],
            swings[1]
        );
        // Destructive: the '1' flipped.
        assert!(!a.bit(0, 0), "stored '1' must be destroyed by the read");
        assert!(op.energy > 0.0);
    }

    /// Work pin of one seeded 16×16 destructive read over a 2 ns
    /// window: accepted steps, Newton solves, iterations and
    /// factorizations. Growing the step on the read's flat stretches
    /// took it from 131 steps, 401 iterations and 73 factorizations on
    /// the fixed 20 ps schedule. Device evaluations (bypass misses) and
    /// replays (hits) follow: holding the bypass to its replay's error
    /// bound took them from 10,699 and 6,875.
    #[test]
    fn seeded_16x16_read_newton_work_is_pinned() {
        let mut rng = fefet_numerics::rng::Rng::seed_from_u64(0x1616);
        let mut a = FeramArray::new(16, 16, FeramCell::default()).unwrap();
        let (p_lo, p_hi) = a.memory_states();
        for i in 0..16 {
            for j in 0..16 {
                a.set_polarization(i, j, if rng.uniform() > 0.5 { p_hi } else { p_lo });
            }
        }
        a.instr = Instrumentation::enabled();
        let (op, _) = a.read_row(2, 2e-9).unwrap();
        let solver = &a.instr.get().unwrap().solver;
        let iters = solver.back_substitutions.get() + solver.failed_iterations.get();
        assert_eq!(
            (
                op.steps,
                solver.solves.get(),
                iters,
                solver.sparse_refactors.get()
            ),
            (79, 79, 298, 79)
        );
        assert_eq!(
            (solver.bypass_misses.get(), solver.bypass_hits.get()),
            (5_395, 12_179)
        );
    }

    #[test]
    fn feram_array_suffers_more_disturb_than_fefet_array() {
        // Plate-line architecture: neighbors of the accessed row see
        // partial fields. Compare worst-case unaccessed |dP| for one
        // write against the FEFET array's.
        let mut fa = small();
        fa.write_row(1, &[true, true], 1.2e-9).unwrap();
        let feram_op = fa.write_row(0, &[false, true], 1.2e-9).unwrap();

        let mut xa = crate::array::FefetArray::new(2, 2, crate::cell::FefetCell::default());
        xa.write_row(1, &[true, true], 1.0e-9).unwrap();
        let fefet_op = xa.write_row(0, &[false, true], 1.0e-9).unwrap();

        assert!(
            feram_op.max_disturb > fefet_op.max_disturb,
            "FERAM disturb {:.2e} should exceed FEFET {:.2e}",
            feram_op.max_disturb,
            fefet_op.max_disturb
        );
    }

    #[test]
    fn validates_inputs() {
        let mut a = small();
        assert!(a.write_row(0, &[true], 1e-9).is_err());
        assert!(a.write_row(7, &[true, true], 1e-9).is_err());
        assert!(a.read_row(7, 1e-9).is_err());
    }

    fn assert_netlist_err<T: std::fmt::Debug>(r: Result<T>, what: &str) {
        match r {
            Err(CktError::Netlist(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a netlist error naming {what}, got {other:?}"),
        }
    }

    #[test]
    fn write_rejects_a_non_finite_or_non_positive_pulse() {
        let mut a = small();
        for t in [f64::NAN, f64::INFINITY, 0.0, -1e-9] {
            assert_netlist_err(a.write_row(0, &[true, false], t), "t_pulse");
        }
        assert!(!a.bit(0, 0), "a rejected write must not commit");
    }

    #[test]
    fn read_rejects_a_non_finite_or_non_positive_develop_window() {
        let mut a = small();
        a.write_row(0, &[true, false], 1.2e-9).unwrap();
        for t in [f64::NAN, f64::INFINITY, 0.0, -1e-9] {
            assert_netlist_err(a.read_row(0, t), "t_dev");
        }
        assert!(a.bit(0, 0), "a rejected read must not destroy the row");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn polarization_bounds() {
        small().polarization(3, 0);
    }

    #[test]
    fn mna_dims_reflect_the_read_circuit() {
        let d = small().mna_dims();
        assert!(d.n_nodes > 0 && d.n_unknowns > d.n_nodes);
        let big = FeramArray::new(4, 4, FeramCell::default())
            .unwrap()
            .mna_dims();
        assert!(big.n_unknowns > d.n_unknowns);
    }
}
