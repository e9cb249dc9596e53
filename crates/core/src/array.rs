//! The m×n FEFET memory array (Fig 7): shared write-select / read-select
//! lines along rows, shared bit / sense lines along columns, Table 1
//! biasing, and the §4 isolation guarantees:
//!
//! - unaccessed rows see −V_DD on their write select, keeping their
//!   access transistors off for either bit-line polarity;
//! - the virtual-ground sense line prevents sneak/reverse currents in
//!   unaccessed cells during reads.
//!
//! Row ops solve a **row slice**, not the whole array. The accessed
//! row keeps its own lines and cells; all unaccessed rows share one
//! lumped row-line pair (driver `R/(rows−1)`, line capacitance
//! `C·(rows−1)`, the unaccessed Table 1 waveform); and each column's
//! unaccessed cells become one cell per stored-bit class with every
//! element scaled by the class size `m` (access and read-FET width,
//! FE area). Every device current and charge is linear in width or
//! area, so `m` identical cells in parallel are exactly one `m`-scaled
//! cell. Members that sit at different polarizations (freshly written
//! cells still relax) are handled by where a lumped cell starts and by
//! small probe cells (see `FefetArray::cell_groups`).
//! [`FefetArray::read_circuit`] and the `*_full` row ops keep the
//! full-array netlist as the reference the slice is tested against.

use crate::bias::Operation;
use crate::cell::{FefetCell, T_EDGE, T_START};
use crate::slice::{self, CellGroup, Groups, Stored, Unaccessed};
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{ElemState, EvalCtx, Integration, Node};
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverOptions};
use fefet_ckt::models::MosParams;
use fefet_ckt::plan::AnalysisCache;
use fefet_ckt::probe::CurrentsAt;
use fefet_ckt::transient::{Step, TransientRun};
use fefet_ckt::waveform::Waveform;
use fefet_ckt::{CktError, Result};
use fefet_telemetry::Instrumentation;

/// Point solves a [`FefetArray::sense_row`] takes. At windows of
/// 0.8–2 ns the stored states are still relaxing when the transient
/// read samples, and the kernel's current error is its integration
/// error: second-order steps hold it at 1.9e-4 at 1.2 ns (backward
/// Euler needs 24 steps for 3.2e-4 and leaves 2.1e-3 at 8).
const SENSE_STEPS: usize = 12;

/// Shortest read window [`FefetArray::read_row`] accepts (s). Cell
/// currents are sampled `2·T_EDGE` before the window closes; below
/// `3·T_EDGE` that point would sit on or before the top of the
/// read-select rising edge and every bit would sense as 0.
pub const MIN_T_READ_S: f64 = 3.0 * T_EDGE;

/// Rejects a stimulus window `t_s` (s) that is not finite, not positive,
/// or shorter than `min_s`, naming it `what` in the typed error.
pub(crate) fn check_window(what: &str, t_s: f64, min_s: f64) -> Result<()> {
    if t_s.is_finite() && t_s > 0.0 && t_s >= min_s {
        Ok(())
    } else if min_s > 0.0 {
        Err(CktError::Netlist(format!(
            "{what} must be finite and >= {min_s:e} s, got {t_s:e} s"
        )))
    } else {
        Err(CktError::Netlist(format!(
            "{what} must be finite and > 0 s, got {t_s:e} s"
        )))
    }
}

/// Sense-amp current threshold separating ON from OFF bits (A).
///
/// [`FefetArray::read_row`] digitizes column currents against this
/// value; the serving layer's macro fast path reuses it so guard-band
/// margin checks agree with what an escalated circuit read would do.
pub const I_SENSE_THRESHOLD_A: f64 = 1e-7;

/// Per-array switches for the transient fast paths (modified-Newton
/// Jacobian reuse, device bypass, step prediction). All default **on**;
/// turning one off forces the corresponding exact path, which the parity
/// tests use to bound the fast paths' error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastPathToggles {
    /// Reuse factored Jacobians while each Newton iteration cuts the
    /// residual at least 4x; refactor at the start of a step whose
    /// previous step left them or took more than three iterations.
    /// Off, no factors cross a step, though a step's converging
    /// iteration may still ride the previous iteration's factors
    /// ([`SolverOptions::jacobian_reuse`]).
    pub jacobian_reuse: bool,
    /// Skip model evaluation for MOSFETs and diodes at an unchanged
    /// operating point.
    pub bypass: bool,
    /// Start each timestep's Newton from an extrapolated node vector
    /// and each FE polarization advanced at its last rate.
    pub predict: bool,
}

impl Default for FastPathToggles {
    fn default() -> Self {
        FastPathToggles {
            jacobian_reuse: true,
            bypass: true,
            predict: true,
        }
    }
}

impl FastPathToggles {
    /// Every fast path disabled: fresh factors at every step's first
    /// iteration, every device evaluated at every stamp, no step
    /// prediction. The exact reference the parity tests bound the fast
    /// paths against. Within a step, an iteration after an update below
    /// 1e5·`tol_v` still confirms convergence on the previous
    /// iteration's factors, which moves a solution by far less than
    /// `tol_v`.
    pub fn exact() -> Self {
        FastPathToggles {
            jacobian_reuse: false,
            bypass: false,
            predict: false,
        }
    }
}

/// An m×n array of 2T FEFET cells with explicit stored polarization.
/// Every simulation it runs solves on the pattern-cached sparse LU.
#[derive(Debug, Clone)]
pub struct FefetArray {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Cell/bias template (line capacitances are recomputed from the
    /// array dimensions). Change its bias or step, not its FEFET: the
    /// array keeps the memory states it found at construction.
    pub cell: FefetCell,
    /// Transient fast-path switches for every simulation this array
    /// runs; defaults to all on.
    pub fastpaths: FastPathToggles,
    /// Telemetry sink for every simulation this array runs. Off by
    /// default; set to [`Instrumentation::enabled`] (or a shared
    /// handle) to aggregate Newton/step/array statistics — the handle
    /// is shared by every participant of [`FefetArray::read_rows`], so
    /// one sink collects a whole parallel sweep.
    pub instr: Instrumentation,
    /// Shared symbolic-analysis cache: one analysis per matrix pattern
    /// for this array's lifetime, shared (by `Arc`) into every clone
    /// and by every participant of [`FefetArray::read_rows`] and
    /// [`FefetArray::write_disturb_map`].
    cache: AnalysisCache,
    /// The cell's memory states, found at construction.
    memory_states: (f64, f64),
    state: Vec<f64>,
}

/// MNA problem size of an array-level circuit, as reported by
/// [`FefetArray::mna_dims`] / [`FefetArray::row_op_dims`] /
/// [`crate::feram_array::FeramArray::mna_dims`] — lets benches record
/// how big the system a solver faced actually was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MnaDims {
    /// Non-ground node count (voltage unknowns).
    pub n_nodes: usize,
    /// Total unknowns: node voltages plus source branch currents.
    pub n_unknowns: usize,
}

/// An array netlist plus the positions its row ops address it by, so
/// nothing after construction formats or hashes a name.
#[derive(Debug)]
struct Netlist {
    circuit: Circuit,
    /// Initial voltages of every cell's FE gate and internal node.
    ics: Vec<(Node, f64)>,
    /// Its cells, the stored cells each stands for and their FE
    /// capacitors' element positions.
    groups: Groups,
    /// Element position of each cell's read FET, in `groups.cells` order.
    mfet: Vec<usize>,
}

/// The read row slice ([`Unaccessed::Classes`]) under the read-plateau
/// bias, ready for point solves: what [`FefetArray::sense_row`] and the
/// yield engine's trials solve.
#[derive(Debug)]
pub(crate) struct ReadSlice {
    /// The row slice under Table 1 read biasing.
    pub(crate) circuit: Circuit,
    /// Its element and branch bookkeeping.
    pub(crate) asm: Assembly,
    /// The hold solution: every cell's FE gate and internal node at the
    /// static stack solution of its starting polarization, every FE
    /// capacitor's polarization unknown at that polarization, every
    /// other unknown at 0 V / 0 A.
    pub(crate) x_hold: Vec<f64>,
    /// Element position of each accessed-row cell's read FET, by column.
    pub(crate) mfet: Vec<usize>,
    /// Element position of each accessed-row cell's FE capacitor, by
    /// column.
    pub(crate) ffe: Vec<usize>,
}

impl ReadSlice {
    /// Every element's state at iterate `x`: each FE capacitor at its
    /// starting polarization.
    pub(crate) fn states_at(&self, x: &[f64]) -> Vec<ElemState> {
        self.circuit
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(x))
            .collect()
    }

    /// Read-FET current (A) of the accessed-row cell in column `j` at
    /// iterate `x`, with the devices of `ckt`: this slice's circuit or a
    /// copy re-parameterized in place. Allocation-free.
    pub(crate) fn read_current(&self, ckt: &Circuit, x: &[f64], j: usize) -> f64 {
        let m = self.mfet[j];
        // A MOSFET's current depends on its terminal voltages alone.
        let ctx = EvalCtx {
            t: 0.0,
            h: 0.0,
            method: Integration::BackwardEuler,
            dc: false,
            x,
            state: ElemState::None,
        };
        let (_, e) = &ckt.elements()[m];
        e.current(self.asm.branch0[m], &ctx, self.asm.n_nodes)
            .unwrap_or(0.0)
    }
}

/// Result of a row op of either array ([`FefetArray`] or
/// [`crate::feram_array::FeramArray`]).
#[derive(Debug, Clone)]
pub struct ArrayOp {
    /// Accepted transient time steps.
    pub steps: usize,
    /// Total driver energy (J).
    pub energy: f64,
    /// Largest polarization drift |ΔP| of any **unaccessed** cell (C/m²).
    pub max_disturb: f64,
}

/// Result of an array read.
#[derive(Debug, Clone)]
pub struct ArrayRead {
    /// The array-op record.
    pub op: ArrayOp,
    /// Sensed cell currents per column of the accessed row (A).
    pub currents: Vec<f64>,
    /// Digitized data (current above `i_threshold`).
    pub bits: Vec<bool>,
    /// Largest current through any unaccessed cell during the read (A) —
    /// the sneak-path check. Row-slice reads ([`FefetArray::read_row`])
    /// report the largest per-member average of a lumped cell, which can
    /// sit below its worst member's current; full-array reads report
    /// every cell's own.
    pub max_sneak: f64,
}

/// Result of a quasi-static row sense ([`FefetArray::sense_row`]).
#[derive(Debug, Clone)]
pub struct RowSense {
    /// Sensed cell currents per column of the accessed row (A).
    pub currents: Vec<f64>,
    /// Digitized data (current above [`I_SENSE_THRESHOLD_A`]).
    pub bits: Vec<bool>,
}

impl FefetArray {
    /// Creates a `rows × cols` array of `cell` with every cell at logic
    /// '0' (the low-polarization state).
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] for an array without a row or a column, and
    /// as for [`FefetCell::checked_memory_states`] for a FEFET that
    /// cannot store data.
    pub fn try_new(rows: usize, cols: usize, mut cell: FefetCell) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CktError::Netlist("array: need at least 1x1".into()));
        }
        // Scale the line parasitics to this array's physical extent.
        let metal_per_m = 0.2e-15 / 1e-6;
        let pitch_x = 20.0 * crate::layout::LAMBDA_45NM;
        let pitch_y = 9.6 * crate::layout::LAMBDA_45NM;
        cell.c_bit_line = metal_per_m * rows as f64 * pitch_y;
        cell.c_sense_line = metal_per_m * rows as f64 * pitch_y;
        cell.c_write_select = metal_per_m * cols as f64 * pitch_x;
        cell.c_read_select = metal_per_m * cols as f64 * pitch_x;
        let memory_states = cell.checked_memory_states()?;
        Ok(FefetArray {
            rows,
            cols,
            cell,
            fastpaths: FastPathToggles::default(),
            instr: Instrumentation::off(),
            cache: AnalysisCache::new(),
            memory_states,
            state: vec![memory_states.0; rows * cols],
        })
    }

    /// [`FefetArray::try_new`] for a `rows × cols` array of a `cell`
    /// known to store data.
    ///
    /// # Panics
    ///
    /// Where [`FefetArray::try_new`] returns an error.
    pub fn new(rows: usize, cols: usize, cell: FefetCell) -> Self {
        match Self::try_new(rows, cols, cell) {
            Ok(array) => array,
            // fefet-lint: allow(panic) -- documented panicking form of try_new, kept while the benchmark harness constructs arrays infallibly
            Err(e) => panic!("{e}"),
        }
    }

    /// The memory states `(p_low, p_high)` (C/m²) of this array's cell,
    /// found at construction.
    pub fn memory_states(&self) -> (f64, f64) {
        self.memory_states
    }

    /// MNA problem size of this array's full read-phase circuit
    /// ([`FefetArray::read_circuit`]: every cell on its own lines). Row
    /// ops solve the much smaller row slice instead; see
    /// [`FefetArray::row_op_dims`].
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] on an empty array (cannot happen for arrays
    /// from [`FefetArray::new`]).
    pub fn mna_dims(&self) -> Result<MnaDims> {
        Ok(dims(&self.read_circuit(0, 1e-9)?))
    }

    /// MNA problem size of the row slice every
    /// [`FefetArray::read_row`] / [`FefetArray::write_row`] solves
    /// (reads and writes share one topology, whatever the stored data).
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::mna_dims`].
    pub fn row_op_dims(&self) -> Result<MnaDims> {
        Ok(dims(
            &self.read_netlist(0, 1e-9, Unaccessed::Classes)?.circuit,
        ))
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

    /// Logic value of cell `(row, col)` (nearest memory state).
    pub fn bit(&self, row: usize, col: usize) -> bool {
        let (p_lo, p_hi) = self.memory_states;
        let p = self.polarization(row, col);
        (p - p_hi).abs() < (p - p_lo).abs()
    }

    /// Directly sets a stored polarization `p` (C/m²) — test fixture /
    /// initialization.
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

    /// The cells a netlist for an op on `row` contains, and the
    /// stored-state indices each stands for: the shared partition
    /// ([`slice::cell_groups`]). Its probes sit on column 0, which
    /// stands for every column: a read holds every bit line at 0 V, and
    /// in a write the unaccessed access transistors are deep off
    /// (select at −V_DD), their leakage linear in the bit-line voltage,
    /// so how a member's change depends on its polarization does not
    /// depend on its column.
    ///
    /// A lumped cell of a write starts at its members' mean
    /// polarization, which keeps the select-line charge (and so the
    /// write energy) right. A lumped cell of a read starts where `m`
    /// cells leak as much bit-line current through their off access
    /// transistors, all lines at 0 V, as the members together: the
    /// accessed cell's gate follows the bit line, and the leakage is
    /// exponential in each member's floating-gate voltage, so a mean
    /// would under-count the few members that sit off their stable state.
    fn cell_groups(
        &self,
        row: usize,
        unaccessed: Unaccessed,
        read: bool,
    ) -> (Vec<CellGroup>, Vec<usize>) {
        let stored = Stored {
            rows: self.rows,
            cols: self.cols,
            state: &self.state,
            memory_states: self.memory_states,
        };
        slice::cell_groups(stored, row, unaccessed, |idx| {
            if read {
                slice::matched(&self.state, idx, |p| {
                    let v = self.cell.fefet.v_gate_static(p);
                    self.cell.access.ids(-v, -v).0
                })
            } else {
                slice::mean_polarization(&self.state, idx)
            }
        })
    }

    /// Builds the netlist of an op on `row` under the given stimuli —
    /// `accessed` / `others` are the (read select, write select)
    /// waveforms of the accessed and the unaccessed rows, `col_waves`
    /// the (bit line, sense line) waveforms per column — representing
    /// the unaccessed cells as `unaccessed` says (`read` picks where
    /// lumped cells start, see [`FefetArray::cell_groups`]). It records
    /// as it goes every position the row ops address later.
    fn build(
        &self,
        row: usize,
        unaccessed: Unaccessed,
        read: bool,
        accessed: &(Waveform, Waveform),
        others: &(Waveform, Waveform),
        col_waves: &[(Waveform, Waveform)],
    ) -> Netlist {
        // Row lines as (name suffix, rows they stand for).
        let (lines, accessed_line) = slice::row_lines(self.rows, row, unaccessed);
        let mut c = Circuit::new();
        let mut rs_nodes = Vec::new();
        let mut ws_nodes = Vec::new();
        let mut bl_nodes = Vec::new();
        let mut sl_nodes = Vec::new();
        for (l, (i, m)) in lines.iter().enumerate() {
            let (w_rs, w_ws) = if l == accessed_line { accessed } else { others };
            // `m` identical lines in parallel: one line with m-fold
            // capacitance behind an m-fold stronger driver.
            let m = *m as f64;
            let rs = c.node(&format!("rs{i}"));
            let ws = c.node(&format!("ws{i}"));
            let rsd = c.node(&format!("rs{i}_drv"));
            let wsd = c.node(&format!("ws{i}_drv"));
            c.vsource(&format!("Vrs{i}"), rsd, Circuit::GND, w_rs.clone());
            c.resistor(&format!("Rrs{i}"), rsd, rs, self.cell.r_driver / m);
            c.vsource(&format!("Vws{i}"), wsd, Circuit::GND, w_ws.clone());
            c.resistor(&format!("Rws{i}"), wsd, ws, self.cell.r_driver / m);
            c.capacitor(
                &format!("Crs{i}"),
                rs,
                Circuit::GND,
                self.cell.c_read_select * m,
            );
            c.capacitor(
                &format!("Cws{i}"),
                ws,
                Circuit::GND,
                self.cell.c_write_select * m,
            );
            rs_nodes.push(rs);
            ws_nodes.push(ws);
        }
        for (j, (w_bl, w_sl)) in col_waves.iter().enumerate() {
            let bl = c.node(&format!("bl{j}"));
            let sl = c.node(&format!("sl{j}"));
            let bld = c.node(&format!("bl{j}_drv"));
            c.vsource(&format!("Vbl{j}"), bld, Circuit::GND, w_bl.clone());
            c.resistor(&format!("Rbl{j}"), bld, bl, self.cell.r_driver);
            // Sense lines are clamped at virtual ground directly.
            c.vsource(&format!("Vsl{j}"), sl, Circuit::GND, w_sl.clone());
            c.capacitor(&format!("Cbl{j}"), bl, Circuit::GND, self.cell.c_bit_line);
            c.capacitor(&format!("Csl{j}"), sl, Circuit::GND, self.cell.c_sense_line);
            bl_nodes.push(bl);
            sl_nodes.push(sl);
        }
        let (cells, members) = self.cell_groups(row, unaccessed, read);
        let mut mfet = Vec::with_capacity(cells.len());
        let mut ffe = Vec::with_capacity(cells.len());
        let mut ics = Vec::with_capacity(2 * cells.len());
        for cell in &cells {
            let (label, j, p0) = (&cell.label, cell.col, cell.p0);
            // `m` identical cells in parallel: every device current and
            // charge is linear in its width or area.
            let m = cell.scale;
            let access = MosParams {
                w: self.cell.access.w * m,
                ..self.cell.access
            };
            let mut fe = self.cell.fefet.fe;
            fe.area *= m;
            let mos = MosParams {
                w: self.cell.fefet.mos.w * m,
                ..self.cell.fefet.mos
            };
            let g = c.node(&format!("g{label}"));
            let gi = c.node(&format!("gi{label}"));
            c.mosfet(
                &format!("Macc{label}"),
                bl_nodes[j],
                ws_nodes[cell.line],
                g,
                access,
            );
            ffe.push(c.elements().len());
            c.fecap(&format!("Ffe{label}"), g, gi, fe, p0);
            mfet.push(c.elements().len());
            c.mosfet(
                &format!("Mfet{label}"),
                rs_nodes[cell.line],
                gi,
                sl_nodes[j],
                mos,
            );
            if cell.lumped() {
                c.set_node_multiplicity(g, m);
                c.set_node_multiplicity(gi, m);
            }
            ics.push((gi, self.cell.fefet.v_mos_of(p0)));
            ics.push((g, self.cell.fefet.v_gate_static(p0)));
        }
        Netlist {
            circuit: c,
            ics,
            groups: Groups {
                cells,
                members,
                accessed_line,
                fe: ffe,
            },
            mfet,
        }
    }

    /// Runs the transient of `net` to `t_end` (s), handing its initial
    /// conditions to the engine.
    fn run(
        &self,
        net: &mut Netlist,
        t_end: f64,
        observe: impl FnMut(&Step<'_>),
    ) -> Result<TransientRun> {
        slice::run(
            &net.circuit,
            t_end,
            self.cell.dt,
            std::mem::take(&mut net.ics),
            self.fastpaths.predict,
            self.solver_options(),
            observe,
        )
    }

    /// Newton settings for every simulation this array runs: its
    /// fast-path switches, telemetry and analysis cache.
    fn solver_options(&self) -> SolverOptions {
        slice::solver_options(self.fastpaths, &self.instr, &self.cache)
    }

    /// Writes `data` into `row` (Table 1 write biasing) with a pulse of
    /// width `t_pulse` (s), updating the stored state from the
    /// simulation of the row slice: the accessed cells take their final
    /// polarization, every unaccessed cell moves by its lumped class
    /// cell's change.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `data.len() != cols`, `row` is out of
    /// range, or `t_pulse` is not finite and positive; a simulator
    /// convergence failure.
    pub fn write_row(&mut self, row: usize, data: &[bool], t_pulse: f64) -> Result<ArrayOp> {
        self.write_row_with(row, data, t_pulse, Unaccessed::Classes)
    }

    /// [`FefetArray::write_row`] of `data` into `row` with a pulse of
    /// width `t_pulse` (s), solved over the full-array netlist, every
    /// cell on its own lines, committing every cell's own final
    /// polarization: the reference the row slice is checked against,
    /// about `rows` times slower.
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::write_row`].
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
        let (op, run, net) = self.write_row_trial(row, data, t_pulse, unaccessed)?;
        net.groups.commit(&run, &mut self.state);
        Ok(op)
    }

    /// The simulation core of [`FefetArray::write_row`], without the
    /// state commit: runs the write transient against the stored state
    /// and reports the result (plus the run and netlist the commit
    /// reads), leaving the array untouched. This is what lets
    /// [`FefetArray::write_disturb_map`] run per-row trials against one
    /// shared array instead of deep-cloning it per worker.
    fn write_row_trial(
        &self,
        row: usize,
        data: &[bool],
        t_pulse: f64,
        unaccessed: Unaccessed,
    ) -> Result<(ArrayOp, TransientRun, Netlist)> {
        let (mut net, t_end) = self.write_netlist(row, data, t_pulse, unaccessed)?;
        let _span = self.instr.span("array.write_row");
        let run = self.run(&mut net, t_end, |_| {})?;
        let max_disturb = net.groups.max_disturb(&run, &self.state, true);
        if let Some(tel) = self.instr.get() {
            tel.array.row_writes.inc();
            tel.array.disturb_max.update_max(max_disturb);
        }
        let op = ArrayOp {
            steps: run.steps,
            energy: run.total_source_energy(),
            max_disturb,
        };
        Ok((op, run, net))
    }

    /// Builds the write netlist of `row` for `data` under Table 1 write
    /// biasing with a pulse of width `t_pulse` (s), and the end time (s)
    /// of its run.
    fn write_netlist(
        &self,
        row: usize,
        data: &[bool],
        t_pulse: f64,
        unaccessed: Unaccessed,
    ) -> Result<(Netlist, f64)> {
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
        let b = &self.cell.bias;
        let t_restore = 0.3e-9;
        let op = Operation::Write { data: true };
        let accessed = Waveform::pulse(
            0.0,
            b.row_bias(op, true).write_select,
            T_START,
            T_EDGE,
            T_EDGE,
            t_pulse + t_restore,
        );
        // Negative select for the whole write window.
        let others = Waveform::pulse(
            0.0,
            b.row_bias(op, false).write_select,
            T_START - 0.1e-9,
            T_EDGE,
            T_EDGE,
            t_pulse + t_restore + 0.2e-9,
        );
        let mut col_waves = Vec::new();
        for &bit in data {
            let v_bl = if bit { b.v_write } else { -b.v_write };
            col_waves.push((
                Waveform::pulse(0.0, v_bl, T_START, T_EDGE, T_EDGE, t_pulse),
                Waveform::dc(0.0),
            ));
        }
        let net = self.build(
            row,
            unaccessed,
            false,
            &(Waveform::dc(0.0), accessed),
            &(Waveform::dc(0.0), others),
            &col_waves,
        );
        Ok((net, T_START + t_pulse + t_restore + 0.5e-9))
    }

    /// Builds the full-array read-phase circuit for `row` without
    /// running it: the Table 1 read biasing applied to this array's
    /// stored state over a window `t_read` (s), every cell on its own
    /// lines. The benches use it to exercise the Newton kernel at array
    /// size, and tests as the reference the row slice is checked
    /// against.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] if `row` is out of range or `t_read` is
    /// not finite and at least [`MIN_T_READ_S`].
    pub fn read_circuit(&self, row: usize, t_read: f64) -> Result<Circuit> {
        Ok(self.read_netlist(row, t_read, Unaccessed::Cells)?.circuit)
    }

    /// Builds the read row slice of `row` over a window `t_read` (s)
    /// with its hold solution and the accessed row's element positions.
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::read_circuit`].
    pub(crate) fn read_slice(&self, row: usize, t_read: f64) -> Result<ReadSlice> {
        let net = self.read_netlist(row, t_read, Unaccessed::Classes)?;
        let asm = Assembly::new(&net.circuit);
        let mut x_hold = vec![0.0; asm.n_unknowns()];
        for (node, v) in &net.ics {
            x_hold[node.index() - 1] = *v;
        }
        let accessed = |pos: &[usize]| -> Vec<usize> {
            net.groups
                .cells
                .iter()
                .zip(pos)
                .filter(|(cell, _)| cell.line == net.groups.accessed_line)
                .map(|(_, &e)| e)
                .collect()
        };
        let (mfet, ffe) = (accessed(&net.mfet), accessed(&net.groups.fe));
        let mut slice = ReadSlice {
            circuit: net.circuit,
            asm,
            x_hold,
            mfet,
            ffe,
        };
        let states = slice.states_at(&slice.x_hold);
        slice
            .asm
            .seed_polarization(&slice.circuit, &states, 0.0, &mut slice.x_hold);
        Ok(slice)
    }

    fn read_netlist(&self, row: usize, t_read: f64, unaccessed: Unaccessed) -> Result<Netlist> {
        if row >= self.rows {
            return Err(CktError::Netlist(format!(
                "read_row: row {row} out of range"
            )));
        }
        check_window("read_row: t_read", t_read, MIN_T_READ_S)?;
        let b = &self.cell.bias;
        let waves = |accessed: bool| {
            let bias = b.row_bias(Operation::Read, accessed);
            (
                Waveform::pulse(0.0, bias.read_select, T_START, T_EDGE, T_EDGE, t_read),
                Waveform::pulse(0.0, bias.write_select, T_START, T_EDGE, T_EDGE, t_read),
            )
        };
        let col_waves = vec![(Waveform::dc(0.0), Waveform::dc(0.0)); self.cols];
        Ok(self.build(
            row,
            unaccessed,
            true,
            &waves(true),
            &waves(false),
            &col_waves,
        ))
    }

    /// Reads `row` (Table 1 read biasing) over a window `t_read` (s),
    /// reporting per-column cell currents and the sneak-current
    /// maximum. The cell currents are sampled at
    /// `T_START + t_read − 2·T_EDGE`, inside the flat top of the
    /// read-select pulse. The op solves the row slice; a lumped class
    /// cell's sneak current counts per member (divided by `m`).
    ///
    /// Reads are non-destructive (that is the paper's point), so this
    /// takes `&self` and never touches the stored state — which is what
    /// lets [`FefetArray::read_rows`] fan independent row reads out over
    /// threads.
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::read_circuit`], plus convergence errors.
    pub fn read_row(&self, row: usize, t_read: f64) -> Result<ArrayRead> {
        self.read_row_with(row, t_read, Unaccessed::Classes)
    }

    /// [`FefetArray::read_row`] of `row` over a window `t_read` (s),
    /// solved over the full-array netlist
    /// ([`FefetArray::read_circuit`]): the reference the row slice is
    /// checked against, about `rows` times slower.
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::read_row`].
    pub fn read_row_full(&self, row: usize, t_read: f64) -> Result<ArrayRead> {
        self.read_row_with(row, t_read, Unaccessed::Cells)
    }

    fn read_row_with(&self, row: usize, t_read: f64, unaccessed: Unaccessed) -> Result<ArrayRead> {
        let mut net = self.read_netlist(row, t_read, unaccessed)?;
        let t_end = T_START + t_read + 0.4e-9;
        let _span = self.instr.span("array.read_row");
        let t_sample = T_START + t_read - 2.0 * T_EDGE;
        let mut probe = CurrentsAt::new(t_sample, std::mem::take(&mut net.mfet));
        let run = self.run(&mut net, t_end, |s| probe.observe(s))?;
        let sampled = probe.values().ok_or_else(|| {
            CktError::Netlist("read_row: the run ended before the sample time".into())
        })?;

        let mut currents = Vec::with_capacity(self.cols);
        let mut max_sneak: f64 = 0.0;
        for (cell, i_cell) in net.groups.cells.iter().zip(sampled) {
            if cell.line == net.groups.accessed_line {
                currents.push(*i_cell);
            } else if !cell.is_probe() {
                max_sneak = max_sneak.max(i_cell.abs() / cell.scale);
            }
        }
        let max_disturb = net.groups.max_disturb(&run, &self.state, false); // read must disturb nobody
        let bits = self.digitize(&currents);
        if let Some(tel) = self.instr.get() {
            tel.array.sneak_current_max.update_max(max_sneak);
            tel.array.disturb_max.update_max(max_disturb);
        }
        Ok(ArrayRead {
            op: ArrayOp {
                steps: run.steps,
                energy: run.total_source_energy(),
                max_disturb,
            },
            currents,
            bits,
            max_sneak,
        })
    }

    /// Senses `row` as [`FefetArray::read_row`] does over a window
    /// `t_read` (s), with point solves instead of a transient: the read
    /// kernel the serving layer's escalated reads use.
    ///
    /// A FEFET read switches nothing, so sensing asks only for the
    /// read-FET currents at the Table 1 read bias. The kernel builds the
    /// same row slice as `read_row` and starts from the hold solution:
    /// every FE capacitor at its stored polarization, its gate nodes at
    /// the static stack solution. It holds the read-plateau bias and
    /// takes 12 equal point solves that together span
    /// `t_read − 2.5·T_EDGE`: the bias exposure `read_row`'s sample
    /// point sees, counted from the middle of the select edge: a
    /// backward-Euler step, then second-order BDF steps, each a
    /// backward-Euler solve of two thirds the width from
    /// [`ElemState::bdf2_base`]. The accessed row's read-FET currents at
    /// the end digitize against [`I_SENSE_THRESHOLD_A`].
    ///
    /// The work is fixed by the array size, whatever `t_read`. A point
    /// solve has no energy meter and the kernel tracks no disturb or
    /// sneak current; reads that need those take `read_row`.
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::read_row`].
    pub fn sense_row(&self, row: usize, t_read: f64) -> Result<RowSense> {
        let slice = self.read_slice(row, t_read)?;
        let _span = self.instr.span("array.read_row");
        let _transient = self.instr.span("ckt.transient");
        let (ckt, asm) = (&slice.circuit, &slice.asm);
        let mut states = slice.states_at(&slice.x_hold);
        let (mut prev, mut base) = (states.clone(), states.clone());
        let mut x = slice.x_hold.clone();
        let t_hold = T_START + t_read - 2.0 * T_EDGE;
        let h = (t_read - 2.5 * T_EDGE) / SENSE_STEPS as f64;
        let opts = self.solver_options();
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        for k in 0..SENSE_STEPS {
            let h_be = if k == 0 { h } else { 2.0 * h / 3.0 };
            for (b, (s, p)) in base.iter_mut().zip(states.iter().zip(&prev)) {
                *b = if k == 0 { *s } else { s.bdf2_base(*p) };
            }
            asm.solve_point_with(
                ckt,
                t_hold,
                h_be,
                Integration::BackwardEuler,
                false,
                &opts,
                &mut x,
                &base,
                &mut ws,
            )?;
            asm.advance_states(ckt, t_hold, h_be, &x, &mut base);
            prev.copy_from_slice(&states);
            states.copy_from_slice(&base);
        }
        let currents: Vec<f64> = (0..self.cols)
            .map(|j| slice.read_current(ckt, &x, j))
            .collect();
        let bits = self.digitize(&currents);
        Ok(RowSense { currents, bits })
    }

    /// Digitizes the accessed row's cell `currents` (A) against
    /// [`I_SENSE_THRESHOLD_A`], counting the read and its margin into
    /// the array's telemetry.
    fn digitize(&self, currents: &[f64]) -> Vec<bool> {
        let bits: Vec<bool> = currents.iter().map(|i| *i > I_SENSE_THRESHOLD_A).collect();
        if let Some(tel) = self.instr.get() {
            tel.array.row_reads.inc();
            // Read margin: smallest ON-bit current over largest OFF-bit
            // current for this row; only meaningful when both states
            // appear, and the worst case across rows is kept.
            let mut i_on_min = f64::INFINITY;
            let mut i_off_max: f64 = 0.0;
            for (i, &bit) in currents.iter().zip(&bits) {
                if bit {
                    i_on_min = i_on_min.min(*i);
                } else {
                    i_off_max = i_off_max.max(i.abs());
                }
            }
            if i_on_min.is_finite() && i_off_max > 0.0 {
                tel.array.read_margin_worst.update_min(i_on_min / i_off_max);
            }
        }
        bits
    }

    /// Reads several rows, fanning the independent row transients out
    /// over scoped threads that borrow the array
    /// ([`fefet_ckt::parallel::pool_map`]; `threads = 0` means one per
    /// available hardware thread). Results are returned in the order of
    /// `rows` and are bit-identical to calling [`FefetArray::read_row`]
    /// serially — each read is a deterministic simulation of the same
    /// stored state, and the fan-out preserves ordering. The array's
    /// telemetry handle is shared by every participant, so one sink
    /// collects the whole sweep.
    ///
    /// # Errors
    ///
    /// The first row-range or convergence error, in `rows` order.
    /// `t_read` is the read window (s).
    pub fn read_rows(&self, rows: &[usize], t_read: f64, threads: usize) -> Result<Vec<ArrayRead>> {
        fefet_ckt::parallel::pool_map(
            rows.to_vec(),
            threads,
            &self.instr,
            || (),
            |_, row| self.read_row(row, t_read),
        )
        .into_iter()
        .collect()
    }

    /// Reads every row of the array ([`FefetArray::read_rows`] over
    /// `0..rows`) with read window `t_read` (s).
    ///
    /// # Errors
    ///
    /// As for [`FefetArray::read_rows`].
    pub fn read_all_rows(&self, t_read: f64, threads: usize) -> Result<Vec<ArrayRead>> {
        let rows: Vec<usize> = (0..self.rows).collect();
        self.read_rows(&rows, t_read, threads)
    }

    /// Write-disturb sweep: for each row in turn, runs the write
    /// transient against the stored state and records the worst
    /// unaccessed-cell polarization drift, without ever committing. The
    /// array itself is never modified, so the per-row trials are
    /// independent and fan out over scoped threads (`threads = 0` = one
    /// per available hardware thread) that borrow **one** shared array
    /// — no clone.
    ///
    /// Returns the per-row `max_disturb` values (C/m²), indexed by the
    /// accessed row.
    ///
    /// # Errors
    ///
    /// Dimension or convergence errors, as for [`FefetArray::write_row`].
    pub fn write_disturb_map(
        &self,
        data: &[bool],
        t_pulse: f64,
        threads: usize,
    ) -> Result<Vec<f64>> {
        if data.len() != self.cols {
            return Err(CktError::Netlist(format!(
                "write_disturb_map: got {} bits for {} columns",
                data.len(),
                self.cols
            )));
        }
        let rows: Vec<usize> = (0..self.rows).collect();
        fefet_ckt::parallel::pool_map(
            rows,
            threads,
            &self.instr,
            || (),
            |_, row| {
                self.write_row_trial(row, data, t_pulse, Unaccessed::Classes)
                    .map(|(op, _, _)| op.max_disturb)
            },
        )
        .into_iter()
        .collect()
    }
}

/// MNA problem size of `c`.
pub(crate) fn dims(c: &Circuit) -> MnaDims {
    let asm = Assembly::new(c);
    MnaDims {
        n_nodes: asm.n_nodes - 1,
        n_unknowns: asm.n_unknowns(),
    }
}

/// A sparse pattern as the numerics crate's refactorization test reads
/// it from `crates/numerics/tests/data`: the order, then each row's
/// columns on a line. That test checks the refactorization bit for bit
/// against its scatter/gather reference on two committed patterns,
/// which tests here pin to the live netlists.
#[cfg(test)]
pub(crate) fn pattern_text(p: &fefet_numerics::sparse::CsrPattern) -> String {
    let mut out = format!("{}\n", p.n());
    for r in 0..p.n() {
        let cols = &p.col_idx()[p.row_ptr()[r]..p.row_ptr()[r + 1]];
        let line: Vec<String> = cols.iter().map(usize::to_string).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every trapezoidal step of a 4×4 row-slice write, taken from each
    /// point the write's run accepts, lands within `tol_v` on every
    /// node, and within 1e-9 C/m² on every FE polarization, of the same
    /// step solved with `tol_v = 1e-13`.
    #[test]
    fn accepted_row_slice_steps_lie_within_tol_v_of_a_tight_solve() {
        use crate::cell::accuracy::{point, tight_step_gaps};
        let a = FefetArray::new(4, 4, FefetCell::default());
        let (mut net, t_end) = a
            .write_netlist(1, &[true, false, true, false], 1e-9, Unaccessed::Classes)
            .unwrap();
        let mut points = Vec::new();
        a.run(&mut net, t_end, |s| points.push(point(s))).unwrap();
        let opts = a.solver_options();
        let (gap_v, gap_p) = tight_step_gaps(&net.circuit, &points, a.cell.dt, &opts);
        assert!(gap_v < opts.tol_v, "nodes off by {gap_v:e} V");
        assert!(gap_p < 1e-9, "P off by {gap_p:e} C/m^2");
    }

    /// An array of a FEFET too thin to hold two states, or one without
    /// a row or a column, is refused with a typed error at construction;
    /// so is a yield engine over such a cell.
    #[test]
    fn array_of_a_volatile_fefet_is_a_typed_error_not_a_panic() {
        use crate::yield_engine::{YieldEngine, YieldSpec};
        let mut cell = FefetCell::default();
        cell.fefet = cell.fefet.with_thickness(1.5e-9);
        let volatile =
            |r: Result<()>| matches!(r, Err(CktError::Netlist(m)) if m.contains("not nonvolatile"));
        assert!(volatile(FefetArray::try_new(2, 2, cell).map(drop)));
        assert!(volatile(
            YieldEngine::new(cell, YieldSpec::default(), Instrumentation::off()).map(drop)
        ));
        for (rows, cols) in [(0, 2), (2, 0)] {
            let r = FefetArray::try_new(rows, cols, FefetCell::default());
            assert!(matches!(r, Err(CktError::Netlist(m)) if m.contains("1x1")));
        }
        let a = FefetArray::try_new(2, 2, FefetCell::default()).unwrap();
        assert_eq!(a.memory_states(), a.cell.checked_memory_states().unwrap());
    }

    /// The 32×32 row-op slice's pattern (writes and reads share it) is
    /// the one the numerics crate's refactorization test reads from its
    /// committed file.
    #[test]
    fn refactor_fixture_is_the_live_32x32_row_slice_pattern() {
        let a = FefetArray::new(32, 32, FefetCell::default());
        let net = a.read_netlist(0, 1e-9, Unaccessed::Classes).unwrap();
        let asm = Assembly::new(&net.circuit);
        let mut x = vec![0.0; asm.n_unknowns()];
        let states: Vec<ElemState> = net
            .circuit
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x))
            .collect();
        asm.seed_polarization(&net.circuit, &states, 0.0, &mut x);
        let opts = SolverOptions::default();
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        asm.solve_point_with(
            &net.circuit,
            0.0,
            1e-12,
            Integration::BackwardEuler,
            false,
            &opts,
            &mut x,
            &states,
            &mut ws,
        )
        .unwrap();
        assert_eq!(asm.n_unknowns(), a.row_op_dims().unwrap().n_unknowns);
        let live = ws.sparse_pattern(false).expect("transient pattern");
        assert!(
            pattern_text(live) == include_str!("../../numerics/tests/data/row_slice_32x32.txt"),
            "the row slice's pattern changed: rewrite the fixture with `pattern_text`"
        );
    }

    fn small_array() -> FefetArray {
        // The paper's Fig 7 demonstration array.
        FefetArray::new(2, 3, FefetCell::default())
    }

    #[test]
    fn fig7_write_and_read_back_a_row() {
        let mut a = small_array();
        let data = [true, false, true];
        let w = a.write_row(0, &data, 1.0e-9).unwrap();
        assert!(w.energy > 0.0);
        for (j, &bit) in data.iter().enumerate() {
            assert_eq!(a.bit(0, j), bit, "column {j}");
        }
        let r = a.read_row(0, 3e-9).unwrap();
        assert_eq!(r.bits, vec![true, false, true]);
        // Distinguishability at the array level.
        let i_on = r.currents[0];
        let i_off = r.currents[1].max(1e-30);
        assert!(i_on / i_off > 1e4, "array ratio {:.2e}", i_on / i_off);
    }

    #[test]
    fn unaccessed_rows_undisturbed_by_write() {
        let mut a = small_array();
        // Park row 1 in a known pattern first.
        a.write_row(1, &[true, true, false], 1.0e-9).unwrap();
        let before: Vec<f64> = (0..3).map(|j| a.polarization(1, j)).collect();
        // Hammer row 0 with both polarities.
        let w1 = a.write_row(0, &[true, true, true], 1.0e-9).unwrap();
        let w0 = a.write_row(0, &[false, false, false], 1.0e-9).unwrap();
        assert!(
            w1.max_disturb < 0.01 && w0.max_disturb < 0.01,
            "unaccessed rows disturbed: {} / {}",
            w1.max_disturb,
            w0.max_disturb
        );
        for (j, b) in before.iter().enumerate() {
            assert!((a.polarization(1, j) - b).abs() < 0.02);
        }
    }

    #[test]
    fn read_disturbs_nothing_and_no_sneak_paths() {
        let mut a = small_array();
        a.write_row(0, &[true, false, true], 1.0e-9).unwrap();
        a.write_row(1, &[false, true, false], 1.0e-9).unwrap();
        let r = a.read_row(0, 3e-9).unwrap();
        assert!(
            r.op.max_disturb < 0.02,
            "read disturbed cells by {}",
            r.op.max_disturb
        );
        // §4.2: virtual-ground sense lines avert reverse currents in the
        // unaccessed cells.
        assert!(
            r.max_sneak < 1e-8,
            "sneak current {:.3e} A in unaccessed cells",
            r.max_sneak
        );
    }

    #[test]
    fn both_rows_retain_independent_data() {
        let mut a = small_array();
        a.write_row(0, &[true, true, false], 1.0e-9).unwrap();
        a.write_row(1, &[false, true, true], 1.0e-9).unwrap();
        let r0 = a.read_row(0, 3e-9).unwrap();
        let r1 = a.read_row(1, 3e-9).unwrap();
        assert_eq!(r0.bits, vec![true, true, false]);
        assert_eq!(r1.bits, vec![false, true, true]);
    }

    #[test]
    fn write_row_validates_inputs() {
        let mut a = small_array();
        assert!(a.write_row(0, &[true], 1e-9).is_err());
        assert!(a.write_row(9, &[true, true, true], 1e-9).is_err());
        assert!(a.read_row(9, 1e-9).is_err());
    }

    fn assert_netlist_err<T: std::fmt::Debug>(r: Result<T>, what: &str) {
        match r {
            Err(CktError::Netlist(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a netlist error naming {what}, got {other:?}"),
        }
    }

    /// Below 3·T_EDGE the sample point sits on the read-select rising
    /// edge, where every bit used to sense as 0 without complaint.
    #[test]
    fn read_rejects_a_window_too_short_to_sense() {
        let mut a = small_array();
        a.write_row(0, &[true, true, true], 1.0e-9).unwrap();
        assert_netlist_err(a.read_row(0, 0.1e-9), "t_read");
        assert_netlist_err(a.read_circuit(0, 0.1e-9), "t_read");
        let r = a.read_row(0, MIN_T_READ_S).unwrap();
        assert_eq!(r.bits, vec![true, true, true]);
    }

    #[test]
    fn read_rejects_a_non_finite_window() {
        let a = small_array();
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_netlist_err(a.read_row(0, t), "t_read");
            assert_netlist_err(a.read_circuit(0, t), "t_read");
        }
    }

    #[test]
    fn write_rejects_a_non_finite_or_non_positive_pulse() {
        let mut a = small_array();
        for t in [f64::NAN, f64::INFINITY, 0.0, -1e-9] {
            assert_netlist_err(a.write_row(0, &[true, false, true], t), "t_pulse");
            assert_netlist_err(a.write_disturb_map(&[true, false, true], t, 1), "t_pulse");
        }
        assert!(!a.bit(0, 0), "a rejected write must not commit");
    }

    #[test]
    fn line_capacitance_scales_with_array_size() {
        let small = FefetArray::new(2, 2, FefetCell::default());
        let big = FefetArray::new(8, 2, FefetCell::default());
        assert!(big.cell.c_bit_line > 3.0 * small.cell.c_bit_line);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn polarization_out_of_range_panics() {
        let a = small_array();
        a.polarization(5, 0);
    }

    #[test]
    fn mna_dims_grow_with_the_array() {
        let small = small_array().mna_dims().unwrap();
        assert!(small.n_nodes > 0 && small.n_unknowns > small.n_nodes);
        let big = FefetArray::new(4, 4, FefetCell::default())
            .mna_dims()
            .unwrap();
        assert!(big.n_unknowns > small.n_unknowns);
        let eight = FefetArray::new(8, 8, FefetCell::default());
        assert!(eight.row_op_dims().unwrap().n_unknowns < eight.mna_dims().unwrap().n_unknowns);
    }

    /// The slice topology depends on the array size only: once one op
    /// has analyzed its pattern, reads and writes of any data — columns
    /// storing a single bit, mixed columns, freshly written rows — add
    /// no symbolic analysis.
    #[test]
    fn varied_data_adds_no_symbolic_analysis_once_warm() {
        let mut a = FefetArray::new(6, 4, FefetCell::default());
        a.cell.dt = 40e-12;
        a.instr = Instrumentation::enabled();
        let (p_lo, p_hi) = a.memory_states();
        for i in 0..6 {
            // Column 0 all '1', column 1 all '0', the rest mixed.
            for (j, bit) in [true, false, i % 2 == 0, i % 3 == 0]
                .into_iter()
                .enumerate()
            {
                a.set_polarization(i, j, if bit { p_hi } else { p_lo });
            }
        }
        a.read_row(0, 0.3e-9).unwrap();
        let instr = a.instr.clone();
        let tel = instr.get().unwrap();
        let warm = tel.solver.sparse_symbolic_analyses.get();
        assert_eq!(warm, 1);
        for (row, data) in [
            (1, [true, true, true, true]),
            (4, [false, false, false, false]),
            (2, [true, false, false, true]),
        ] {
            a.write_row(row, &data, 1.0e-9).unwrap();
            let r = a.read_row(row, 0.3e-9).unwrap();
            assert_eq!(r.bits, data);
            a.read_row((row + 3) % 6, 0.3e-9).unwrap();
        }
        assert_eq!(tel.solver.sparse_symbolic_analyses.get(), warm);
    }

    /// Deterministic work pin for the modified-Newton refresh policy:
    /// every seeded 16×16 write, the cold first one included, takes its
    /// pinned steps within stated Newton-iteration, factorization and
    /// stamp-pass ceilings, read from telemetry. The writes take 99–102
    /// steps (104 on the fixed 20 ps schedule), 350–368 iterations,
    /// 83–86 factorizations and 357–375 stamp passes each; a halving
    /// contraction rule without refreshes takes about 582 iterations.
    /// Device evaluations (bypass misses) and replays (hits) are pinned
    /// exactly: holding the bypass to its replay's error bound took the
    /// evaluations from 21,621, 21,395, 20,868 and 21,832 to the pinned
    /// counts, with the same stamps in total.
    #[test]
    fn seeded_16x16_writes_stay_within_newton_work_ceilings() {
        const MAX_ITERS_PER_WRITE: f64 = 450.0;
        const MAX_FACTORS_PER_WRITE: u64 = 110;
        const MAX_STAMP_PASSES_PER_WRITE: u64 = 460;
        let mut rng = fefet_numerics::rng::Rng::seed_from_u64(0x16_16);
        let mut a = FefetArray::new(16, 16, FefetCell::default());
        let (p_lo, p_hi) = a.memory_states();
        for i in 0..16 {
            for j in 0..16 {
                a.set_polarization(i, j, if rng.uniform() > 0.5 { p_hi } else { p_lo });
            }
        }
        a.instr = Instrumentation::enabled();
        let instr = a.instr.clone();
        let tel = instr.get().unwrap();
        let factors = || tel.solver.sparse_refactors.get();
        let evals = || (tel.solver.bypass_misses.get(), tel.solver.bypass_hits.get());
        for (w, (steps, misses, hits)) in [
            (102, 9881, 32807),
            (102, 10300, 32620),
            (99, 10057, 31355),
            (102, 9656, 33844),
        ]
        .into_iter()
        .enumerate()
        {
            let row = (w * 5 + 3) % 16;
            let data: Vec<bool> = (0..16).map(|_| rng.uniform() > 0.5).collect();
            let (i0, f0, s0, e0) = (
                tel.solver.newton_iterations.sum(),
                factors(),
                tel.solver.stamp_passes.get(),
                evals(),
            );
            let op = a.write_row(row, &data, 1.0e-9).unwrap();
            let iters = tel.solver.newton_iterations.sum() - i0;
            let f = factors() - f0;
            let passes = tel.solver.stamp_passes.get() - s0;
            let e = evals();
            assert_eq!(op.steps, steps, "write {w}");
            assert_eq!(
                (e.0 - e0.0, e.1 - e0.1),
                (misses, hits),
                "write {w} device evaluations"
            );
            assert!(
                iters <= MAX_ITERS_PER_WRITE,
                "write {w}: {iters} Newton iterations"
            );
            assert!(f <= MAX_FACTORS_PER_WRITE, "write {w}: {f} factorizations");
            assert!(
                passes <= MAX_STAMP_PASSES_PER_WRITE,
                "write {w}: {passes} stamp passes"
            );
        }
        assert_eq!(tel.solver.failures.get(), 0);
    }

    /// Work pin of one seeded 4×4 row read over a 3 ns window: accepted
    /// steps, Newton solves, iterations and factorizations. Growing the
    /// step on the read plateau took it from 181 steps, 414 iterations
    /// and 36 factorizations on the fixed 20 ps schedule; a step change
    /// refactors, so factorizations rose while iterations halved. Device
    /// evaluations (bypass misses) and replays (hits) follow: holding the
    /// bypass to its replay's error bound took them from 4,368 and 4,564.
    #[test]
    fn seeded_4x4_read_newton_work_is_pinned() {
        let mut rng = fefet_numerics::rng::Rng::seed_from_u64(0x44);
        let mut a = FefetArray::new(4, 4, FefetCell::default());
        let (p_lo, p_hi) = a.memory_states();
        for i in 0..4 {
            for j in 0..4 {
                a.set_polarization(i, j, if rng.uniform() > 0.5 { p_hi } else { p_lo });
            }
        }
        a.instr = Instrumentation::enabled();
        let r = a.read_row(1, 3e-9).unwrap();
        assert_eq!(r.bits, [true, false, true, false]);
        let solver = &a.instr.get().unwrap().solver;
        let iters = solver.back_substitutions.get() + solver.failed_iterations.get();
        assert_eq!(
            (
                r.op.steps,
                solver.solves.get(),
                iters,
                solver.sparse_refactors.get()
            ),
            (71, 71, 199, 51)
        );
        assert_eq!(
            (solver.bypass_misses.get(), solver.bypass_hits.get()),
            (1_680, 7_252)
        );
    }

    /// Ten 100 ps backward-Euler steps of a seeded 16×16 read slice at
    /// the read bias all converge. Both stored states sit in the films'
    /// negative-capacitance region, and 100 ps lies between their
    /// viscous times `ρ/|dE/dP|`, the widths at which a film solved for
    /// its polarization at a fixed terminal voltage turns singular.
    #[test]
    fn nc_region_100ps_steps_converge_on_a_16x16_slice() {
        const H: f64 = 100e-12;
        let mut rng = fefet_numerics::rng::Rng::seed_from_u64(7);
        let mut a = FefetArray::new(16, 16, FefetCell::default());
        let (p_lo, p_hi) = a.memory_states();
        let lk = a.cell.fefet.fe.lk;
        let tau = |p: f64| lk.rho / lk.de_dp(p).abs();
        assert!(lk.de_dp(p_lo) < 0.0 && lk.de_dp(p_hi) < 0.0);
        assert!(
            tau(p_lo).min(tau(p_hi)) < H && H < tau(p_lo).max(tau(p_hi)),
            "viscous times {:e} and {:e} s",
            tau(p_lo),
            tau(p_hi)
        );
        for i in 0..16 {
            for j in 0..16 {
                a.set_polarization(i, j, if rng.bool() { p_hi } else { p_lo });
            }
        }
        a.instr = Instrumentation::enabled();
        let slice = a.read_slice(0, 1.2e-9).unwrap();
        let mut x = slice.x_hold.clone();
        let mut states = slice.states_at(&x);
        let mut ws = NewtonWorkspace::new(slice.asm.n_unknowns());
        let iters = slice
            .asm
            .relax_at_bias(
                &slice.circuit,
                T_START + 1.0e-9,
                H,
                10,
                &a.solver_options(),
                &mut x,
                &mut states,
                &mut ws,
            )
            .unwrap();
        let tel = a.instr.get().unwrap();
        assert_eq!(tel.solver.failures.get(), 0);
        assert!(iters <= 60, "{iters} Newton iterations for 10 steps");
    }

    /// One enabled handle must collect a whole write + parallel read
    /// sweep: op counters, Newton/step statistics from the engine, the
    /// read margin, and the per-op spans.
    #[test]
    fn instrumented_sweep_aggregates_into_one_sink() {
        let mut a = small_array();
        a.instr = Instrumentation::enabled();
        a.write_row(0, &[true, false, true], 1.0e-9).unwrap();
        let reads = a.read_all_rows(3e-9, 2).unwrap();
        assert_eq!(reads.len(), 2);
        let tel = a.instr.get().unwrap();
        assert_eq!(tel.array.row_writes.get(), 1);
        assert_eq!(tel.array.row_reads.get(), 2);
        assert!(tel.solver.solves.get() > 0);
        assert!(tel.solver.newton_iterations.count() > 0);
        assert!(tel.steps.accepted.get() > 0);
        assert!(tel.steps.dt_seconds.count() > 0);
        let margin = tel.array.read_margin_worst.get();
        assert!(margin.is_finite() && margin > 1.0, "margin {margin}");
        let spans = tel.spans.snapshot();
        assert!(
            spans
                .iter()
                .any(|(n, c, _)| n == "array.read_row" && *c == 2),
            "spans: {spans:?}"
        );
    }

    /// Pooled sweep workers share the array's analysis cache: the number
    /// of symbolic analyses is set by the number of distinct matrix
    /// patterns, not by the worker or row count.
    #[test]
    fn pooled_sweep_shares_one_symbolic_analysis_per_pattern() {
        let mut a = small_array();
        a.instr = Instrumentation::enabled();
        // Warm the cache with one serial read: every pattern analyzed.
        a.read_row(0, 3e-9).unwrap();
        let tel = a.instr.get().unwrap();
        let analyses_one_op = tel.solver.sparse_symbolic_analyses.get();
        assert!(analyses_one_op >= 1);
        // A parallel sweep must add zero analyses — only cache hits.
        a.read_all_rows(3e-9, 2).unwrap();
        assert_eq!(
            tel.solver.sparse_symbolic_analyses.get(),
            analyses_one_op,
            "pooled workers re-analyzed a cached pattern"
        );
        assert!(tel.solver.analysis_cache_hits.get() >= 2);
        // Same story for the no-commit write-disturb trials.
        a.write_disturb_map(&[true, false, true], 1.0e-9, 2)
            .unwrap();
        assert_eq!(tel.solver.sparse_symbolic_analyses.get(), analyses_one_op);
    }
}
