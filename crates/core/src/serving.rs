//! Memory-macro serving layer: a batched, multi-fidelity op scheduler
//! with a macro-model fast path.
//!
//! The paper's end product is a memory *macro* serving read/write
//! traffic, not a lone bit-cell — and the behavior application studies
//! care about (disturb accumulation, marginal cells, energy per op)
//! only shows up under sustained op streams. Simulating every op at
//! circuit level is ~10⁴× too slow for that, so [`MemoryService`]
//! serves ops on a fidelity ladder:
//!
//! 1. **Macro fast path** (the common case): answers come from the
//!    per-config [`MacroTable`] energy/latency cache plus cheap
//!    per-row state tracking — the stored word, nominal polarization
//!    pokes, and a disturb-stress accumulator fed by the per-write
//!    cycle-to-cycle variation draws of
//!    [`fefet_device::variability::sample_write_cycle`]. Zero circuit
//!    solves, zero heap allocations once warm.
//! 2. **Circuit escalation** (the marginal case): an op escalates to a
//!    circuit solve of its row when its sense margin sits inside a
//!    configurable guard band, its row's disturb accumulator passed the
//!    threshold, a column has never been calibrated in the state being
//!    read (first touch), or escalation is forced outright. Writes and
//!    persists run the write transient (`write_row`); FERAM reads run
//!    their destructive read transient (`read_row`); FEFET reads, which
//!    switch nothing, sense with the quasi-static read kernel
//!    ([`FefetArray::sense_row`]). Escalated reads refresh the bank's
//!    per-column calibration cache, so repeat traffic returns to the
//!    fast path.
//!
//! Ops are batched into **deterministic windows**: the op stream is cut
//! into fixed-size chunks by global op index, and within a window all
//! ops to the same `(bank, row)` coalesce into one row-level operation
//! per op class — writes coalesce last-write-wins and commit first,
//! then reads observe the post-write word, then persists refresh it.
//! Banks are independent, and every bank processes its own sub-stream
//! in global-index order with its own seeded RNG, so a pooled run
//! ([`ServeSpec::threads`] > 1 via `pool_map_mut`) is **bit-identical**
//! to the serial one.

use crate::array::{FefetArray, I_SENSE_THRESHOLD_A, MIN_T_READ_S};
use crate::cell::FefetCell;
use crate::compare::MemoryKind;
use crate::feram::FeramCell;
use crate::feram_array::FeramArray;
use crate::macro_model::{MacroConfig, MacroTable};
use fefet_ckt::parallel::{default_threads, effective_threads, pool_map_mut};
use fefet_ckt::CktError;
use fefet_device::variability::{sample_write_cycle, VariationSpec};
use fefet_numerics::rng::Rng;
use fefet_telemetry::json::fmt_f64;
use fefet_telemetry::report::RunReport;
use fefet_telemetry::{Instrumentation, Telemetry};
use std::fmt;
use std::time::Instant;

/// Bit-line swing threshold separating a FERAM '1' from a '0' (V).
/// Measured '1' development swings sit near 0.23 V and '0' swings near
/// 0.04 V on the paper's cell, so 0.1 V splits them with margin on both
/// sides; calibration margins are measured in decades against it, the
/// same way FEFET margins are measured against
/// [`I_SENSE_THRESHOLD_A`].
pub const FERAM_SWING_THRESHOLD_V: f64 = 0.1;

/// Signal floor (A or V) used when a measured OFF-state signal is zero,
/// so margin decades stay finite.
const SIGNAL_FLOOR: f64 = 1e-30;

// ---------------------------------------------------------------------
// Op stream types
// ---------------------------------------------------------------------

/// One memory operation addressed to a bank row. A row is at most 64
/// columns wide, so its data is one `u64` word (bit `j` ↔ column `j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Read the row's word.
    Read {
        /// Target bank id (index of [`MemoryService::add_bank`] order).
        bank: u32,
        /// Target row.
        row: u32,
    },
    /// Write `word` to the row.
    Write {
        /// Target bank id.
        bank: u32,
        /// Target row.
        row: u32,
        /// Data word; bits past the bank's column count must be zero.
        word: u64,
    },
    /// Refresh the row in place (re-commit its current word), clearing
    /// its disturb-stress accumulator — the "make durable" op NVP-style
    /// checkpointing issues.
    Persist {
        /// Target bank id.
        bank: u32,
        /// Target row.
        row: u32,
    },
}

impl MemOp {
    /// The addressed bank.
    pub fn bank(self) -> u32 {
        match self {
            MemOp::Read { bank, .. } | MemOp::Write { bank, .. } | MemOp::Persist { bank, .. } => {
                bank
            }
        }
    }

    /// The addressed row.
    pub fn row(self) -> u32 {
        match self {
            MemOp::Read { row, .. } | MemOp::Write { row, .. } | MemOp::Persist { row, .. } => row,
        }
    }

    /// The op's class.
    pub fn class(self) -> OpClass {
        match self {
            MemOp::Read { .. } => OpClass::Read,
            MemOp::Write { .. } => OpClass::Write,
            MemOp::Persist { .. } => OpClass::Persist,
        }
    }
}

/// Op classification, mirroring [`MemOp`] without the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A read op.
    Read,
    /// A write op.
    Write,
    /// A persist (refresh-in-place) op.
    Persist,
}

impl OpClass {
    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Persist => "persist",
        }
    }
}

/// Why a row-level operation left the macro fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationCause {
    /// A column had no calibration sample for the state being read.
    FirstTouch,
    /// A calibrated sense margin sat inside the guard band.
    GuardBand,
    /// The row's disturb-stress accumulator passed the threshold.
    DisturbThreshold,
    /// [`ServeSpec::force_escalate`] was set.
    Forced,
}

impl EscalationCause {
    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EscalationCause::FirstTouch => "first_touch",
            EscalationCause::GuardBand => "guard_band",
            EscalationCause::DisturbThreshold => "disturb_threshold",
            EscalationCause::Forced => "forced",
        }
    }
}

/// The fidelity a row-level operation was served at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Macro-model tables + tracked state; no circuit solve.
    Macro,
    /// Full circuit transient through the array solvers.
    Circuit(EscalationCause),
}

/// Per-op outcome, aligned with the input stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpResult {
    /// The row's word: the value read (reads), the value committed
    /// (writes — after last-write-wins coalescing), or the value
    /// refreshed (persists).
    pub word: u64,
    /// The op's class.
    pub class: OpClass,
    /// Fidelity of the row-level operation that served this op.
    pub fidelity: Fidelity,
    /// Energy attributed to this op (J). The first op of each class in
    /// a coalesced row group carries the row activation's full energy;
    /// coalesced followers carry zero. Escalated writes, persists and
    /// FERAM reads report the energy their transient metered; escalated
    /// FEFET reads sense with point solves, which meter none, and report
    /// the bank's [`MacroTable::read_energy_per_word`], as the fast path
    /// does.
    pub energy_j: f64,
    /// Modeled service latency (s): the macro read or write time of the
    /// row-level operation that served this op.
    pub latency_s: f64,
}

impl Default for OpResult {
    fn default() -> Self {
        OpResult {
            word: 0,
            class: OpClass::Read,
            fidelity: Fidelity::Macro,
            energy_j: 0.0,
            latency_s: 0.0,
        }
    }
}

// ---------------------------------------------------------------------
// Configuration and errors
// ---------------------------------------------------------------------

/// Serving-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Batch-window size in ops. The op stream is cut into windows of
    /// this many consecutive ops (by global stream index); same-row ops
    /// within a window coalesce into one row-level operation per class.
    pub window: usize,
    /// Sense-margin guard band in decades (dimensionless): a calibrated
    /// column whose margin against the digitization threshold is at or
    /// below this escalates its row's reads to circuit fidelity.
    pub guard_band_decades: f64,
    /// Disturb-stress escalation threshold (dimensionless accumulator
    /// units): reads/persists of a row whose accumulator reached this
    /// escalate, and the escalated op resets the accumulator.
    pub disturb_threshold: f64,
    /// Stress added to every *other* row of a bank per row write
    /// (dimensionless), scaled by the per-write cycle draw's
    /// `stress_weight` when cycle-to-cycle variation is enabled.
    pub disturb_per_write: f64,
    /// Process/cycle variation knobs; only the cycle-to-cycle fields
    /// (`c2c_pr_sigma_rel`, `c2c_ec_sigma_rel`) act on the serving
    /// stress accumulator.
    pub variation: VariationSpec,
    /// RNG seed; each bank derives its own stream from it, so results
    /// do not depend on thread count.
    pub seed: u64,
    /// Worker threads for pooled serving: 0 = all hardware threads,
    /// 1 = serial (the zero-allocation path). Banks are the unit of
    /// parallelism.
    pub threads: usize,
    /// Serve every row-level operation at circuit fidelity — the
    /// baseline side of the fast-path benchmark.
    pub force_escalate: bool,
    /// Read develop/sense window of an escalated read (s). A FEFET read
    /// senses with [`FefetArray::sense_row`]: point solves that span the
    /// window's bias exposure at a cost that does not grow with it, and
    /// whose energy comes from the macro table (see
    /// [`OpResult::energy_j`]). A FERAM read develops its bit lines over
    /// this window in `read_row`.
    pub t_read_s: f64,
    /// Write pulse width passed to the circuit `write_row` on
    /// escalation (s).
    pub t_write_s: f64,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            window: 64,
            guard_band_decades: 0.25,
            disturb_threshold: 1.0,
            disturb_per_write: 1e-4,
            variation: VariationSpec::default(),
            seed: 0x5e12_5e2d,
            threads: 1,
            force_escalate: false,
            t_read_s: 3e-9,
            t_write_s: 1.0e-9,
        }
    }
}

/// Serving-layer error: configuration misuse, or a circuit-level
/// failure inside an escalated operation.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid spec, bank layout, or op addressing.
    Config(String),
    /// An escalated circuit op failed to converge or build.
    Circuit(CktError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serving config: {msg}"),
            ServeError::Circuit(e) => write!(f, "escalated circuit op: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CktError> for ServeError {
    fn from(e: CktError) -> Self {
        ServeError::Circuit(e)
    }
}

fn validate_spec(spec: &ServeSpec) -> Result<(), ServeError> {
    let checks: &[(&str, bool)] = &[
        ("window must be >= 1", spec.window >= 1),
        (
            "guard_band_decades must be finite and >= 0",
            spec.guard_band_decades.is_finite() && spec.guard_band_decades >= 0.0,
        ),
        (
            "disturb_threshold must be finite and > 0",
            spec.disturb_threshold.is_finite() && spec.disturb_threshold > 0.0,
        ),
        (
            "disturb_per_write must be finite and >= 0",
            spec.disturb_per_write.is_finite() && spec.disturb_per_write >= 0.0,
        ),
        // One window serves both bank kinds, so it must clear the FEFET
        // read's sensing bound (a FERAM develop window only needs > 0).
        (
            "t_read_s must be finite and >= MIN_T_READ_S (150 ps)",
            spec.t_read_s.is_finite() && spec.t_read_s >= MIN_T_READ_S,
        ),
        (
            "t_write_s must be finite and > 0",
            spec.t_write_s.is_finite() && spec.t_write_s > 0.0,
        ),
    ];
    for (what, ok) in checks {
        if !ok {
            return Err(ServeError::Config((*what).to_string()));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Banks and the per-bank calibration cache
// ---------------------------------------------------------------------

/// The per-bank, per-column, per-state calibration cache. Escalated
/// reads deposit measured sense signals (FEFET column currents, FERAM
/// bit-line swings) here; the fast path's guard-band check consumes the
/// derived margin decades. Bank-wide minimum-margin floors over the
/// learned columns let a fully comfortable bank answer the guard-band
/// question in O(1) instead of per column.
#[derive(Debug, Clone)]
struct Calibration {
    /// Measured ON-state signal per column (A for FEFET, V for FERAM).
    sig_on: Vec<f64>,
    /// Measured OFF-state signal per column.
    sig_off: Vec<f64>,
    /// `log10(sig_on / threshold)` per column.
    on_margin_dec: Vec<f64>,
    /// `log10(threshold / sig_off)` per column.
    off_margin_dec: Vec<f64>,
    /// Bitmask of columns with an ON-state sample.
    learned_on: u64,
    /// Bitmask of columns with an OFF-state sample.
    learned_off: u64,
    /// Minimum ON margin over learned columns (+inf when none).
    min_on_margin_dec: f64,
    /// Minimum OFF margin over learned columns (+inf when none).
    min_off_margin_dec: f64,
}

impl Calibration {
    // fefet-lint: allow-item(hot-alloc) -- one-time per-bank construction
    fn new(cols: usize) -> Self {
        Calibration {
            sig_on: vec![0.0; cols],
            sig_off: vec![0.0; cols],
            on_margin_dec: vec![0.0; cols],
            off_margin_dec: vec![0.0; cols],
            learned_on: 0,
            learned_off: 0,
            min_on_margin_dec: f64::INFINITY,
            min_off_margin_dec: f64::INFINITY,
        }
    }

    /// Deposits one row's measured signals, keyed by the measured bits,
    /// and recomputes the bank floors.
    fn refresh(&mut self, signals: &[f64], word: u64, threshold: f64) {
        for (col, &sig) in signals.iter().enumerate() {
            let bit = 1u64 << col;
            if word & bit != 0 {
                self.sig_on[col] = sig;
                self.on_margin_dec[col] = (sig.max(SIGNAL_FLOOR) / threshold).log10();
                self.learned_on |= bit;
            } else {
                self.sig_off[col] = sig;
                self.off_margin_dec[col] = (threshold / sig.max(SIGNAL_FLOOR)).log10();
                self.learned_off |= bit;
            }
        }
        self.min_on_margin_dec = f64::INFINITY;
        self.min_off_margin_dec = f64::INFINITY;
        for col in 0..signals.len() {
            let bit = 1u64 << col;
            if self.learned_on & bit != 0 {
                self.min_on_margin_dec = self.min_on_margin_dec.min(self.on_margin_dec[col]);
            }
            if self.learned_off & bit != 0 {
                self.min_off_margin_dec = self.min_off_margin_dec.min(self.off_margin_dec[col]);
            }
        }
    }
}

/// The circuit-level half of a bank: either array flavor behind one
/// dispatch point.
#[derive(Debug, Clone)]
enum BankArray {
    /// 2T FEFET array (nondestructive current read).
    Fefet(FefetArray),
    /// 1T-1C FERAM array (destructive charge read + restore).
    Feram(FeramArray),
}

/// One served memory bank: an array plus its macro config, derived
/// energy/latency table, tracked per-row words, disturb-stress
/// accumulators, calibration cache, and seeded RNG stream.
#[derive(Debug, Clone)]
pub struct Bank {
    config: MacroConfig,
    table: MacroTable,
    array: BankArray,
    /// Tracked word per row — the macro-fidelity ground truth, kept in
    /// sync with the array's stored polarization.
    words: Vec<u64>,
    /// Disturb-stress accumulator per row (dimensionless).
    stress: Vec<f64>,
    calib: Calibration,
    /// Per-bank RNG stream, re-seeded by [`MemoryService::add_bank`]
    /// from the serve seed and the bank id.
    rng: Rng,
    /// Nominal logic-'0' polarization (C/m²).
    p_lo: f64,
    /// Nominal logic-'1' polarization (C/m²).
    p_hi: f64,
    /// Digitization threshold for this technology (A or V).
    sense_threshold: f64,
    /// Scratch bit buffer for escalated row writes.
    data_scratch: Vec<bool>,
    /// Valid column bits: `(1 << cols) - 1`.
    col_mask: u64,
    /// Escalated reads that refreshed the calibration cache.
    calibration_refreshes: u64,
}

impl Bank {
    /// Builds a FEFET bank from a macro config and a cell template.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the config's kind is not FEFET, the
    /// organization exceeds 64 columns (a row must fit one `u64`), or
    /// the cell's FEFET is not nonvolatile (no two stable zero-bias
    /// states).
    pub fn fefet(config: MacroConfig, cell: FefetCell) -> Result<Self, ServeError> {
        if config.kind != MemoryKind::Fefet {
            return Err(ServeError::Config("config kind is not FEFET".to_string()));
        }
        Self::check_dims(&config)?;
        let array = FefetArray::try_new(config.rows, config.cols, cell)
            .map_err(|e| ServeError::Config(e.to_string()))?;
        let (p_lo, p_hi) = array.memory_states();
        Ok(Self::build(
            config,
            BankArray::Fefet(array),
            p_lo,
            p_hi,
            I_SENSE_THRESHOLD_A,
        ))
    }

    /// Builds a FERAM bank from a macro config and a cell template.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the config's kind is not FERAM, the
    /// organization exceeds 64 columns, or the cell's film is not
    /// ferroelectric (no remnant states).
    pub fn feram(config: MacroConfig, cell: FeramCell) -> Result<Self, ServeError> {
        if config.kind != MemoryKind::Feram {
            return Err(ServeError::Config("config kind is not FERAM".to_string()));
        }
        Self::check_dims(&config)?;
        let array = FeramArray::new(config.rows, config.cols, cell)
            .map_err(|e| ServeError::Config(e.to_string()))?;
        let (p_lo, p_hi) = array.memory_states();
        Ok(Self::build(
            config,
            BankArray::Feram(array),
            p_lo,
            p_hi,
            FERAM_SWING_THRESHOLD_V,
        ))
    }

    // fefet-lint: allow-item(hot-alloc) -- construction-time validation; formats only on reject
    fn check_dims(config: &MacroConfig) -> Result<(), ServeError> {
        if config.rows < 1 || config.cols < 1 {
            return Err(ServeError::Config(
                "bank needs at least 1 row and 1 column".to_string(),
            ));
        }
        if config.cols > 64 {
            return Err(ServeError::Config(format!(
                "bank has {} columns; a served row must fit one u64 word (max 64)",
                config.cols
            )));
        }
        Ok(())
    }

    // fefet-lint: allow-item(hot-alloc) -- one-time bank construction
    fn build(
        config: MacroConfig,
        array: BankArray,
        p_lo: f64,
        p_hi: f64,
        sense_threshold: f64,
    ) -> Self {
        let col_mask = if config.cols == 64 {
            u64::MAX
        } else {
            (1u64 << config.cols) - 1
        };
        Bank {
            table: config.table(),
            array,
            words: vec![0; config.rows],
            stress: vec![0.0; config.rows],
            calib: Calibration::new(config.cols),
            rng: Rng::seed_from_u64(0),
            p_lo,
            p_hi,
            sense_threshold,
            data_scratch: vec![false; config.cols],
            col_mask,
            calibration_refreshes: 0,
            config,
        }
    }

    /// Rows in the bank.
    pub fn rows(&self) -> usize {
        self.config.rows
    }

    /// Columns in the bank.
    pub fn cols(&self) -> usize {
        self.config.cols
    }

    /// The bank's technology.
    pub fn kind(&self) -> MemoryKind {
        self.config.kind
    }

    /// The bank's macro config.
    pub fn config(&self) -> &MacroConfig {
        &self.config
    }

    /// The cached per-word energy/latency table.
    pub fn table(&self) -> &MacroTable {
        &self.table
    }

    /// The tracked word of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn word(&self, row: usize) -> u64 {
        assert!(row < self.config.rows, "row out of range");
        self.words[row]
    }

    /// The disturb-stress accumulator of `row` (dimensionless).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn stress(&self, row: usize) -> f64 {
        assert!(row < self.config.rows, "row out of range");
        self.stress[row]
    }

    /// The calibrated sense margin of `col` in `state` (decades,
    /// dimensionless), or `None` if that (column, state) pair has never
    /// been measured by an escalated read.
    pub fn calibrated_margin_decades(&self, col: usize, state: bool) -> Option<f64> {
        if col >= self.config.cols {
            return None;
        }
        let bit = 1u64 << col;
        if state && self.calib.learned_on & bit != 0 {
            Some(self.calib.on_margin_dec[col])
        } else if !state && self.calib.learned_off & bit != 0 {
            Some(self.calib.off_margin_dec[col])
        } else {
            None
        }
    }

    /// The calibrated raw signal of `col` in `state` (A for FEFET, V
    /// for FERAM), or `None` if never measured.
    pub fn calibrated_signal(&self, col: usize, state: bool) -> Option<f64> {
        if col >= self.config.cols {
            return None;
        }
        let bit = 1u64 << col;
        if state && self.calib.learned_on & bit != 0 {
            Some(self.calib.sig_on[col])
        } else if !state && self.calib.learned_off & bit != 0 {
            Some(self.calib.sig_off[col])
        } else {
            None
        }
    }

    /// Escalated reads that refreshed this bank's calibration cache.
    pub fn calibration_refreshes(&self) -> u64 {
        self.calibration_refreshes
    }

    /// The underlying FEFET array, when this bank is FEFET — the
    /// escalation-correctness tests compare escalated serving reads
    /// against direct `sense_row` calls on a clone of this.
    pub fn as_fefet(&self) -> Option<&FefetArray> {
        match &self.array {
            BankArray::Fefet(a) => Some(a),
            BankArray::Feram(_) => None,
        }
    }

    /// The underlying FERAM array, when this bank is FERAM.
    pub fn as_feram(&self) -> Option<&FeramArray> {
        match &self.array {
            BankArray::Feram(a) => Some(a),
            BankArray::Fefet(_) => None,
        }
    }

    /// Decides whether a read of `row` must leave the fast path, in
    /// cause-priority order: forced, disturb accumulator, then the
    /// calibration cache (first touch before guard band). The two-tier
    /// guard-band check answers from the bank-wide margin floors when
    /// they clear the band and only walks per-column margins otherwise.
    fn read_escalation_cause(&self, row: usize, spec: &ServeSpec) -> Option<EscalationCause> {
        if spec.force_escalate {
            return Some(EscalationCause::Forced);
        }
        if self.stress[row] >= spec.disturb_threshold {
            return Some(EscalationCause::DisturbThreshold);
        }
        let w = self.words[row] & self.col_mask;
        if w & !self.calib.learned_on != 0 || !w & self.col_mask & !self.calib.learned_off != 0 {
            return Some(EscalationCause::FirstTouch);
        }
        let guard = spec.guard_band_decades;
        if self.calib.min_on_margin_dec > guard && self.calib.min_off_margin_dec > guard {
            return None;
        }
        for col in 0..self.config.cols {
            let margin = if w & (1u64 << col) != 0 {
                self.calib.on_margin_dec[col]
            } else {
                self.calib.off_margin_dec[col]
            };
            if margin <= guard {
                return Some(EscalationCause::GuardBand);
            }
        }
        None
    }

    /// Decides whether a write-class row op (write or persist) must
    /// escalate. Writes overwrite the row outright, so neither the
    /// calibration cache nor guard band applies; persists additionally
    /// escalate when the accumulated disturb makes the stored state
    /// suspect, because a macro refresh of a suspect word would persist
    /// a possibly-wrong value.
    fn write_escalation_cause(
        &self,
        row: usize,
        is_persist: bool,
        spec: &ServeSpec,
    ) -> Option<EscalationCause> {
        if spec.force_escalate {
            return Some(EscalationCause::Forced);
        }
        if is_persist && self.stress[row] >= spec.disturb_threshold {
            return Some(EscalationCause::DisturbThreshold);
        }
        None
    }

    /// Applies one row write's disturb stress: the written row resets,
    /// every other row accumulates `disturb_per_write` scaled by the
    /// per-write cycle draw's stress weight.
    fn apply_write_stress(&mut self, row: usize, spec: &ServeSpec) {
        let cycle = sample_write_cycle(&spec.variation, &mut self.rng);
        let bump = spec.disturb_per_write * cycle.stress_weight();
        for s in self.stress.iter_mut() {
            *s += bump;
        }
        self.stress[row] = 0.0;
    }

    /// Macro-fidelity row write: update the tracked word and poke every
    /// cell's stored polarization to its nominal state, keeping the
    /// circuit ground truth consistent with the fast path.
    fn macro_commit(&mut self, row: usize, word: u64) {
        let (p_lo, p_hi) = (self.p_lo, self.p_hi);
        let cells = match &mut self.array {
            BankArray::Fefet(a) => a.row_state_mut(row),
            BankArray::Feram(a) => a.row_state_mut(row),
        };
        for (col, p) in cells.iter_mut().enumerate() {
            *p = if word & (1u64 << col) != 0 {
                p_hi
            } else {
                p_lo
            };
        }
        self.words[row] = word;
    }

    /// Circuit-fidelity row write of `word`; returns measured driver
    /// energy (J).
    fn circuit_write(&mut self, row: usize, word: u64, t_pulse_s: f64) -> Result<f64, ServeError> {
        for (col, slot) in self.data_scratch.iter_mut().enumerate() {
            *slot = word & (1u64 << col) != 0;
        }
        let energy = match &mut self.array {
            BankArray::Fefet(a) => a.write_row(row, &self.data_scratch, t_pulse_s)?.energy,
            BankArray::Feram(a) => a.write_row(row, &self.data_scratch, t_pulse_s)?.energy,
        };
        self.words[row] = word;
        Ok(energy)
    }

    /// Serves one row-level write (the coalesced word of a window
    /// group). Returns the fidelity and attributed energy (J).
    fn serve_write(
        &mut self,
        row: usize,
        word: u64,
        burst_len: usize,
        spec: &ServeSpec,
    ) -> Result<(Fidelity, f64), ServeError> {
        let out = match self.write_escalation_cause(row, false, spec) {
            None => {
                self.macro_commit(row, word);
                (Fidelity::Macro, self.table.write_energy_per_word(burst_len))
            }
            Some(cause) => {
                let energy = self.circuit_write(row, word, spec.t_write_s)?;
                (Fidelity::Circuit(cause), energy)
            }
        };
        self.apply_write_stress(row, spec);
        Ok(out)
    }

    /// Serves one row-level persist: re-commits the tracked word.
    fn serve_persist(
        &mut self,
        row: usize,
        burst_len: usize,
        spec: &ServeSpec,
    ) -> Result<(Fidelity, f64), ServeError> {
        let word = self.words[row];
        let out = match self.write_escalation_cause(row, true, spec) {
            None => {
                self.macro_commit(row, word);
                (Fidelity::Macro, self.table.write_energy_per_word(burst_len))
            }
            Some(cause) => {
                let energy = self.circuit_write(row, word, spec.t_write_s)?;
                (Fidelity::Circuit(cause), energy)
            }
        };
        self.apply_write_stress(row, spec);
        Ok(out)
    }

    /// Serves one row-level read. Returns the word, fidelity, energy
    /// (J), and the number of tracked-word bits the escalated
    /// measurement corrected (0 on the fast path).
    fn serve_read(
        &mut self,
        row: usize,
        spec: &ServeSpec,
    ) -> Result<(u64, Fidelity, f64, u64), ServeError> {
        let Some(cause) = self.read_escalation_cause(row, spec) else {
            let word = self.words[row];
            return Ok((word, Fidelity::Macro, self.table.read_energy_per_word(), 0));
        };
        let tracked = self.words[row];
        let (measured, energy) = match &mut self.array {
            BankArray::Fefet(a) => {
                // A FEFET read switches nothing: sense at the read bias
                // with point solves. They meter no energy, so the read
                // reports the bank's calibrated per-word read energy.
                let rd = a.sense_row(row, spec.t_read_s)?;
                let mut word = 0u64;
                for (col, &bit) in rd.bits.iter().enumerate() {
                    if bit {
                        word |= 1u64 << col;
                    }
                }
                self.calib.refresh(&rd.currents, word, self.sense_threshold);
                (word, self.table.read_energy_per_word())
            }
            BankArray::Feram(a) => {
                // Destructive read: digitize the development swings,
                // then restore the measured word (the physical
                // write-back the FERAM scheme always pays — its energy
                // is already inside the config's read energy model, so
                // the circuit read energy stands alone here).
                let (op, swings) = a.read_row(row, spec.t_read_s)?;
                let mut word = 0u64;
                for (col, &swing) in swings.iter().enumerate() {
                    if swing > FERAM_SWING_THRESHOLD_V {
                        word |= 1u64 << col;
                    }
                }
                self.calib.refresh(&swings, word, self.sense_threshold);
                (word, op.energy)
            }
        };
        let corrections = u64::from((measured ^ tracked).count_ones());
        if let BankArray::Feram(_) = self.array {
            // Restore after the destructive read (also refreshes the
            // tracked word).
            self.macro_commit(row, measured);
        } else {
            self.words[row] = measured;
        }
        self.stress[row] = 0.0;
        self.calibration_refreshes += 1;
        Ok((measured, Fidelity::Circuit(cause), energy, corrections))
    }
}

// ---------------------------------------------------------------------
// Serve summary
// ---------------------------------------------------------------------

/// Aggregated accounting of one [`MemoryService::serve`] call. Built
/// per bank and folded in ascending bank order, so it is bit-identical
/// between serial and pooled runs of the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeSummary {
    /// Ops accepted.
    pub ops: u64,
    /// Read ops.
    pub reads: u64,
    /// Write ops.
    pub writes: u64,
    /// Persist ops.
    pub persists: u64,
    /// Ops that coalesced into an earlier same-row op of their class
    /// within a window.
    pub coalesced: u64,
    /// Bank-window executions (each window of the stream counts once
    /// per bank with ops in it).
    pub windows: u64,
    /// Row-level operations performed (post-coalescing).
    pub row_ops: u64,
    /// Row-level operations answered at macro fidelity.
    pub fast_path: u64,
    /// Row-level operations escalated to the circuit solver.
    pub escalations: u64,
    /// Escalations by cause: uncalibrated column.
    pub esc_first_touch: u64,
    /// Escalations by cause: margin inside the guard band.
    pub esc_guard_band: u64,
    /// Escalations by cause: disturb accumulator past threshold.
    pub esc_disturb: u64,
    /// Escalations by cause: forced by the spec.
    pub esc_forced: u64,
    /// Tracked-word bits corrected by escalated reads.
    pub word_corrections: u64,
    /// Escalated reads that refreshed a calibration cache.
    pub calibration_refreshes: u64,
    /// Total attributed energy (J).
    pub energy_j: f64,
    /// Total modeled service time across row ops (s).
    pub modeled_time_s: f64,
}

impl ServeSummary {
    /// Folds `other` into `self` (used bank-by-bank, in bank order).
    pub fn merge(&mut self, other: &ServeSummary) {
        self.ops += other.ops;
        self.reads += other.reads;
        self.writes += other.writes;
        self.persists += other.persists;
        self.coalesced += other.coalesced;
        self.windows += other.windows;
        self.row_ops += other.row_ops;
        self.fast_path += other.fast_path;
        self.escalations += other.escalations;
        self.esc_first_touch += other.esc_first_touch;
        self.esc_guard_band += other.esc_guard_band;
        self.esc_disturb += other.esc_disturb;
        self.esc_forced += other.esc_forced;
        self.word_corrections += other.word_corrections;
        self.calibration_refreshes += other.calibration_refreshes;
        self.energy_j += other.energy_j;
        self.modeled_time_s += other.modeled_time_s;
    }

    /// Escalated fraction of row-level operations, in `[0, 1]` (0 when
    /// no row ops ran).
    pub fn escalation_rate(&self) -> f64 {
        if self.row_ops == 0 {
            0.0
        } else {
            self.escalations as f64 / self.row_ops as f64
        }
    }

    /// Checks the summary's internal invariants; `Err` names the first
    /// violated one.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    // fefet-lint: allow-item(hot-alloc) -- post-run self-check; formats only on violation
    pub fn validate(&self) -> Result<(), String> {
        let causes =
            self.esc_first_touch + self.esc_guard_band + self.esc_disturb + self.esc_forced;
        let checks: &[(&str, bool)] = &[
            (
                "ops == reads + writes + persists",
                self.ops == self.reads + self.writes + self.persists,
            ),
            (
                "ops == row_ops + coalesced",
                self.ops == self.row_ops + self.coalesced,
            ),
            (
                "row_ops == fast_path + escalations",
                self.row_ops == self.fast_path + self.escalations,
            ),
            (
                "escalation causes sum to escalations",
                causes == self.escalations,
            ),
            (
                "calibration refreshes bounded by escalations",
                self.calibration_refreshes <= self.escalations,
            ),
            (
                "energy finite and non-negative",
                self.energy_j.is_finite() && self.energy_j >= 0.0,
            ),
            (
                "modeled time finite and non-negative",
                self.modeled_time_s.is_finite() && self.modeled_time_s >= 0.0,
            ),
            ("escalation rate in [0,1]", {
                let r = self.escalation_rate();
                (0.0..=1.0).contains(&r)
            }),
        ];
        for (what, ok) in checks {
            if !ok {
                return Err(format!("serving invariant violated: {what}"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Window scheduler
// ---------------------------------------------------------------------

/// Sentinel for "no op of this class in the group yet".
const NO_OP: u32 = u32::MAX;

/// One coalesced (bank, row) group within a batch window: the pending
/// write word, per-class op counts, the stream index of each class's
/// first op (which carries the energy attribution), and the executed
/// outcomes the scatter pass reads back.
#[derive(Debug, Clone, Copy)]
struct RowGroup {
    row: u32,
    pending_word: u64,
    has_write: bool,
    write_count: u32,
    read_count: u32,
    persist_count: u32,
    first_write: u32,
    first_read: u32,
    first_persist: u32,
    w_fid: Fidelity,
    w_energy_j: f64,
    r_word: u64,
    r_fid: Fidelity,
    r_energy_j: f64,
    p_fid: Fidelity,
    p_energy_j: f64,
}

impl RowGroup {
    fn fresh(row: u32) -> Self {
        RowGroup {
            row,
            pending_word: 0,
            has_write: false,
            write_count: 0,
            read_count: 0,
            persist_count: 0,
            first_write: NO_OP,
            first_read: NO_OP,
            first_persist: NO_OP,
            w_fid: Fidelity::Macro,
            w_energy_j: 0.0,
            r_word: 0,
            r_fid: Fidelity::Macro,
            r_energy_j: 0.0,
            p_fid: Fidelity::Macro,
            p_energy_j: 0.0,
        }
    }
}

/// Reusable per-bank scheduling scratch: the group list and the
/// generation-stamped row→group map that makes per-window grouping
/// O(ops) with no clearing and no allocation once warm.
#[derive(Debug)]
struct BankScratch {
    groups: Vec<RowGroup>,
    row_slot: Vec<u32>,
    row_gen: Vec<u32>,
    gen: u32,
}

impl BankScratch {
    // fefet-lint: allow-item(hot-alloc) -- one-time per-bank scratch construction
    fn for_rows(rows: usize) -> Self {
        BankScratch {
            groups: Vec::new(),
            row_slot: vec![0; rows],
            row_gen: vec![0; rows],
            gen: 0,
        }
    }

    /// Starts a new window: bumps the generation stamp (clearing the
    /// row map implicitly) and empties the group list in place.
    fn begin_window(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap: a stale stamp could alias; reset the map.
            for g in self.row_gen.iter_mut() {
                *g = 0;
            }
            self.gen = 0;
        }
        self.gen += 1;
        self.groups.clear();
    }
}

/// Records per-op telemetry counters for one executed row-op phase.
fn record_phase(tel: &Telemetry, class: OpClass, op_count: u32, fidelity: Fidelity, t0: Instant) {
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let hist = match class {
        OpClass::Read => &tel.serving.read_ns,
        OpClass::Write => &tel.serving.write_ns,
        OpClass::Persist => &tel.serving.persist_ns,
    };
    for _ in 0..op_count {
        hist.record_ns(ns);
    }
    tel.serving.row_ops.inc();
    match fidelity {
        Fidelity::Macro => tel.serving.fast_path.inc(),
        Fidelity::Circuit(cause) => {
            tel.serving.escalations.inc();
            match cause {
                EscalationCause::FirstTouch => tel.serving.esc_first_touch.inc(),
                EscalationCause::GuardBand => tel.serving.esc_guard_band.inc(),
                EscalationCause::DisturbThreshold => tel.serving.esc_disturb.inc(),
                EscalationCause::Forced => tel.serving.esc_forced.inc(),
            }
        }
    }
}

/// Folds one executed row-op phase into the per-bank summary.
fn tally_phase(summary: &mut ServeSummary, fidelity: Fidelity, energy_j: f64, time_s: f64) {
    summary.row_ops += 1;
    summary.energy_j += energy_j;
    summary.modeled_time_s += time_s;
    match fidelity {
        Fidelity::Macro => summary.fast_path += 1,
        Fidelity::Circuit(cause) => {
            summary.escalations += 1;
            match cause {
                EscalationCause::FirstTouch => summary.esc_first_touch += 1,
                EscalationCause::GuardBand => summary.esc_guard_band += 1,
                EscalationCause::DisturbThreshold => summary.esc_disturb += 1,
                EscalationCause::Forced => summary.esc_forced += 1,
            }
        }
    }
}

/// Executes one bank's slice of one batch window: group, execute in
/// first-touch order (write phase, then read, then persist within each
/// group), then scatter per-op results through `sink` in stream order.
fn run_window<F: FnMut(u32, OpResult)>(
    bank: &mut Bank,
    chunk: &[(u32, MemOp)],
    spec: &ServeSpec,
    instr: &Instrumentation,
    scratch: &mut BankScratch,
    sink: &mut F,
    summary: &mut ServeSummary,
) -> Result<(), ServeError> {
    scratch.begin_window();
    let gen = scratch.gen;
    for &(gi, op) in chunk {
        let row = op.row() as usize;
        let slot = if scratch.row_gen[row] == gen {
            scratch.row_slot[row] as usize
        } else {
            scratch.row_gen[row] = gen;
            scratch.row_slot[row] = scratch.groups.len() as u32;
            scratch.groups.push(RowGroup::fresh(op.row()));
            scratch.groups.len() - 1
        };
        let g = &mut scratch.groups[slot];
        match op {
            MemOp::Write { word, .. } => {
                g.pending_word = word;
                g.has_write = true;
                g.write_count += 1;
                if g.first_write == NO_OP {
                    g.first_write = gi;
                }
            }
            MemOp::Read { .. } => {
                g.read_count += 1;
                if g.first_read == NO_OP {
                    g.first_read = gi;
                }
            }
            MemOp::Persist { .. } => {
                g.persist_count += 1;
                if g.first_persist == NO_OP {
                    g.first_persist = gi;
                }
            }
        }
    }

    // Write-class row activations in this bank-window share one burst:
    // the isolation setup cost amortizes across them.
    let mut burst_len = 0usize;
    for g in scratch.groups.iter() {
        if g.has_write {
            burst_len += 1;
        }
        if g.persist_count > 0 {
            burst_len += 1;
        }
    }
    let burst_len = burst_len.max(1);

    let tel = instr.get();
    for idx in 0..scratch.groups.len() {
        let g = &scratch.groups[idx];
        let row = g.row as usize;
        let (has_write, pending, reads, persists) =
            (g.has_write, g.pending_word, g.read_count, g.persist_count);
        let write_count = g.write_count;
        if has_write {
            let t0 = tel.map(|_| Instant::now());
            let (fid, energy) = bank.serve_write(row, pending, burst_len, spec)?;
            if let (Some(tel), Some(t0)) = (tel, t0) {
                record_phase(tel, OpClass::Write, write_count, fid, t0);
            }
            tally_phase(summary, fid, energy, bank.table.write_time_s);
            let g = &mut scratch.groups[idx];
            g.w_fid = fid;
            g.w_energy_j = energy;
        }
        if reads > 0 {
            let t0 = tel.map(|_| Instant::now());
            let (word, fid, energy, corrections) = bank.serve_read(row, spec)?;
            if let (Some(tel), Some(t0)) = (tel, t0) {
                record_phase(tel, OpClass::Read, reads, fid, t0);
                tel.serving.word_corrections.add(corrections);
            }
            summary.word_corrections += corrections;
            if let Fidelity::Circuit(_) = fid {
                summary.calibration_refreshes += 1;
                if let Some(tel) = tel {
                    tel.serving.calibration_refreshes.inc();
                }
            }
            tally_phase(summary, fid, energy, bank.table.read_time_s);
            let g = &mut scratch.groups[idx];
            g.r_word = word;
            g.r_fid = fid;
            g.r_energy_j = energy;
        }
        if persists > 0 {
            let t0 = tel.map(|_| Instant::now());
            let (fid, energy) = bank.serve_persist(row, burst_len, spec)?;
            if let (Some(tel), Some(t0)) = (tel, t0) {
                record_phase(tel, OpClass::Persist, persists, fid, t0);
            }
            tally_phase(summary, fid, energy, bank.table.write_time_s);
            let g = &mut scratch.groups[idx];
            g.p_fid = fid;
            g.p_energy_j = energy;
        }
    }

    // Scatter per-op results in stream order.
    for &(gi, op) in chunk {
        let row = op.row() as usize;
        let g = &scratch.groups[scratch.row_slot[row] as usize];
        let res = match op {
            MemOp::Write { .. } => OpResult {
                word: g.pending_word,
                class: OpClass::Write,
                fidelity: g.w_fid,
                energy_j: if gi == g.first_write {
                    g.w_energy_j
                } else {
                    0.0
                },
                latency_s: bank.table.write_time_s,
            },
            MemOp::Read { .. } => OpResult {
                word: g.r_word,
                class: OpClass::Read,
                fidelity: g.r_fid,
                energy_j: if gi == g.first_read {
                    g.r_energy_j
                } else {
                    0.0
                },
                latency_s: bank.table.read_time_s,
            },
            MemOp::Persist { .. } => OpResult {
                word: bank.words[row],
                class: OpClass::Persist,
                fidelity: g.p_fid,
                energy_j: if gi == g.first_persist {
                    g.p_energy_j
                } else {
                    0.0
                },
                latency_s: bank.table.write_time_s,
            },
        };
        sink(gi, res);
    }

    summary.windows += 1;
    Ok(())
}

/// Processes one bank's full sub-stream: cuts it at the global window
/// boundaries (`global index / window`) and runs each bank-window.
/// Identical between the serial and pooled paths by construction.
fn process_bank_ops<F: FnMut(u32, OpResult)>(
    bank: &mut Bank,
    ops: &[(u32, MemOp)],
    spec: &ServeSpec,
    instr: &Instrumentation,
    scratch: &mut BankScratch,
    sink: &mut F,
) -> Result<ServeSummary, ServeError> {
    let mut summary = ServeSummary::default();
    let window = spec.window.max(1);
    let mut i = 0usize;
    while i < ops.len() {
        let wid = ops[i].0 as usize / window;
        let mut j = i + 1;
        while j < ops.len() && ops[j].0 as usize / window == wid {
            j += 1;
        }
        run_window(bank, &ops[i..j], spec, instr, scratch, sink, &mut summary)?;
        i = j;
    }
    for &(_, op) in ops {
        summary.ops += 1;
        match op.class() {
            OpClass::Read => summary.reads += 1,
            OpClass::Write => summary.writes += 1,
            OpClass::Persist => summary.persists += 1,
        }
    }
    summary.coalesced = summary.ops - summary.row_ops;
    if let Some(tel) = instr.get() {
        tel.serving.ops.add(summary.ops);
        tel.serving.reads.add(summary.reads);
        tel.serving.writes.add(summary.writes);
        tel.serving.persists.add(summary.persists);
        tel.serving.coalesced.add(summary.coalesced);
        tel.serving.windows.add(summary.windows);
    }
    Ok(summary)
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// Mixes a bank id into the serve seed so every bank gets its own
/// decorrelated, thread-count-independent RNG stream (splitmix64-style
/// finalizer).
fn bank_seed(seed: u64, bank_id: u32) -> u64 {
    let mut z = seed ^ (u64::from(bank_id) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The memory-macro serving layer: owns a set of [`Bank`]s and serves
/// [`MemOp`] streams against them with deterministic batching and
/// multi-fidelity dispatch. See the module docs for the architecture.
#[derive(Debug)]
pub struct MemoryService {
    spec: ServeSpec,
    instr: Instrumentation,
    /// `Option` so the pooled path can move banks out to workers and
    /// restore them afterwards; always `Some` between serve calls.
    banks: Vec<Option<Bank>>,
    /// Per-bank scheduling scratch (serial path; pooled workers build
    /// their own).
    scratch: Vec<BankScratch>,
    /// Per-bank op partitions, reused across serve calls.
    bank_ops: Vec<Vec<(u32, MemOp)>>,
}

impl MemoryService {
    /// Creates a service with no banks.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the spec is out of range (zero
    /// window, non-finite thresholds, non-positive pulse times).
    // fefet-lint: allow-item(hot-alloc) -- one-time service construction
    pub fn new(spec: ServeSpec, instr: Instrumentation) -> Result<Self, ServeError> {
        validate_spec(&spec)?;
        Ok(MemoryService {
            spec,
            instr,
            banks: Vec::new(),
            scratch: Vec::new(),
            bank_ops: Vec::new(),
        })
    }

    /// Adds a bank and returns its id (the `bank` field ops address).
    /// The bank's RNG is re-seeded from the serve seed and this id, and
    /// its array is wired to the service's instrumentation.
    // fefet-lint: allow-item(hot-alloc) -- per-bank registration, not on the serving loop
    pub fn add_bank(&mut self, mut bank: Bank) -> u32 {
        let id = self.banks.len() as u32;
        bank.rng = Rng::seed_from_u64(bank_seed(self.spec.seed, id));
        match &mut bank.array {
            BankArray::Fefet(a) => a.instr = self.instr.clone(),
            BankArray::Feram(a) => a.instr = self.instr.clone(),
        }
        self.scratch.push(BankScratch::for_rows(bank.rows()));
        self.bank_ops.push(Vec::new());
        self.banks.push(Some(bank));
        id
    }

    /// The service's spec.
    pub fn spec(&self) -> &ServeSpec {
        &self.spec
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Borrows bank `id`, if present.
    pub fn bank(&self, id: u32) -> Option<&Bank> {
        self.banks.get(id as usize).and_then(|b| b.as_ref())
    }

    /// Calibrates bank `id`'s cache for every (column, state) pair by
    /// writing an alternating pattern and its complement to row 0 and
    /// escalating a read of each (the reads are first-touch escalations
    /// by construction). Costs exactly two circuit reads; afterwards a
    /// clean bank serves reads entirely on the fast path. Row 0 is left
    /// holding the complement pattern; its word tracking stays
    /// consistent.
    ///
    /// # Errors
    ///
    /// Unknown bank id, or a circuit error from the calibration reads.
    // fefet-lint: allow-item(hot-alloc) -- cold calibration path; two circuit reads dwarf its allocations
    pub fn calibrate_bank(&mut self, id: u32) -> Result<(), ServeError> {
        let spec = self.spec.clone();
        let bank = self
            .banks
            .get_mut(id as usize)
            .and_then(|b| b.as_mut())
            .ok_or_else(|| ServeError::Config(format!("unknown bank id {id}")))?;
        let pattern = 0xaaaa_aaaa_aaaa_aaaa_u64 & bank.col_mask;
        let complement = !pattern & bank.col_mask;
        let mut calib_spec = spec;
        calib_spec.force_escalate = false;
        for word in [pattern, complement] {
            bank.macro_commit(0, word);
            bank.apply_write_stress(0, &calib_spec);
            let (measured, fid, _, _) = bank.serve_read(0, &calib_spec)?;
            if let Fidelity::Macro = fid {
                // Already calibrated with comfortable margins; nothing
                // to refresh for this pattern.
                continue;
            }
            if measured != word {
                return Err(ServeError::Config(format!(
                    "calibration read of bank {id} measured {measured:#x}, wrote {word:#x}: \
                     the cell cannot serve at macro fidelity"
                )));
            }
        }
        Ok(())
    }

    /// Serves an op stream. Per-op outcomes land in `out` (cleared and
    /// filled to `ops.len()`, stream-aligned); the returned summary
    /// aggregates the run. With `spec.threads <= 1` (or one hardware
    /// thread) the loop runs serially in place and performs **zero heap
    /// allocations once warm** — `fefet-alloctrack` pins this. With
    /// more threads, banks fan out over the persistent pool via
    /// `pool_map_mut`; results and summary are bit-identical to the
    /// serial run.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] on out-of-range bank/row addressing or
    /// write words wider than the bank — detected up front, before any
    /// state changes. [`ServeError::Circuit`] when an escalated
    /// operation fails mid-stream; `out` then holds partial results and
    /// bank state reflects the ops executed before the failure.
    pub fn serve(
        &mut self,
        ops: &[MemOp],
        out: &mut Vec<OpResult>,
    ) -> Result<ServeSummary, ServeError> {
        self.check_ops(ops)?;
        out.clear();
        out.resize(ops.len(), OpResult::default());
        for list in self.bank_ops.iter_mut() {
            list.clear();
        }
        for (i, &op) in ops.iter().enumerate() {
            self.bank_ops[op.bank() as usize].push((i as u32, op));
        }

        // An explicit serial request skips the hardware probe:
        // `available_parallelism` reads procfs and allocates, which
        // would break the warm loop's zero-allocation guarantee.
        let threads = if self.spec.threads == 1 {
            1
        } else {
            effective_threads(self.spec.threads, default_threads())
        };
        if threads <= 1 {
            self.serve_serial(out)
        } else {
            self.serve_pooled(threads, out)
        }
    }

    /// Rejects malformed ops up front, before any state changes, so a
    /// serve either starts executing a fully addressable stream or
    /// leaves the service untouched.
    // fefet-lint: allow-item(hot-alloc) -- pre-serve validation; formats only on reject
    fn check_ops(&self, ops: &[MemOp]) -> Result<(), ServeError> {
        for (i, &op) in ops.iter().enumerate() {
            let b = op.bank() as usize;
            let bank = self
                .banks
                .get(b)
                .and_then(|x| x.as_ref())
                .ok_or_else(|| ServeError::Config(format!("op {i}: unknown bank {b}")))?;
            if op.row() as usize >= bank.rows() {
                return Err(ServeError::Config(format!(
                    "op {i}: row {} out of range for bank {b} ({} rows)",
                    op.row(),
                    bank.rows()
                )));
            }
            if let MemOp::Write { word, .. } = op {
                if word & !bank.col_mask != 0 {
                    return Err(ServeError::Config(format!(
                        "op {i}: write word {word:#x} has bits past column {}",
                        bank.cols()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The serial path: banks in ascending id order, in place, writing
    /// straight into `out`. Allocation-free once every scratch buffer
    /// has grown to the stream's working set.
    fn serve_serial(&mut self, out: &mut [OpResult]) -> Result<ServeSummary, ServeError> {
        let mut total = ServeSummary::default();
        for b in 0..self.banks.len() {
            if self.bank_ops[b].is_empty() {
                continue;
            }
            let Some(bank) = self.banks[b].as_mut() else {
                continue;
            };
            let ops = &self.bank_ops[b];
            let mut sink = |gi: u32, res: OpResult| {
                out[gi as usize] = res;
            };
            let summary = process_bank_ops(
                bank,
                ops,
                &self.spec,
                &self.instr,
                &mut self.scratch[b],
                &mut sink,
            )?;
            total.merge(&summary);
        }
        Ok(total)
    }

    /// The pooled path: banks (with their op slices) move onto the
    /// persistent worker pool, process independently, and fold back in
    /// ascending bank order — bit-identical to [`Self::serve_serial`].
    // fefet-lint: allow-item(hot-alloc) -- pooled fan-out setup allocates per call; the zero-allocation guarantee is the serial path
    fn serve_pooled(
        &mut self,
        threads: usize,
        out: &mut [OpResult],
    ) -> Result<ServeSummary, ServeError> {
        type WorkerOut = Result<(ServeSummary, Vec<(u32, OpResult)>), ServeError>;
        let mut items: Vec<(usize, Bank, Vec<(u32, MemOp)>)> = Vec::new();
        for b in 0..self.banks.len() {
            if self.bank_ops[b].is_empty() {
                continue;
            }
            let Some(bank) = self.banks[b].take() else {
                continue;
            };
            items.push((b, bank, std::mem::take(&mut self.bank_ops[b])));
        }
        let spec = self.spec.clone();
        let instr = self.instr.clone();
        let worker_instr = instr.clone();
        let done = pool_map_mut(
            items,
            threads,
            &instr,
            move |(b, bank, ops): &mut (usize, Bank, Vec<(u32, MemOp)>)| -> WorkerOut {
                let _ = b;
                let mut scratch = BankScratch::for_rows(bank.rows());
                let mut results: Vec<(u32, OpResult)> = Vec::with_capacity(ops.len());
                let mut sink = |gi: u32, res: OpResult| {
                    results.push((gi, res));
                };
                let summary =
                    process_bank_ops(bank, ops, &spec, &worker_instr, &mut scratch, &mut sink)?;
                Ok((summary, results))
            },
        );
        // Restore every bank (and its op-list buffer) before touching
        // any result, so an op error cannot strand a bank outside the
        // service.
        let mut total = ServeSummary::default();
        let mut first_err: Option<ServeError> = None;
        for ((b, bank, ops), res) in done {
            self.banks[b] = Some(bank);
            self.bank_ops[b] = ops;
            match res {
                Ok((summary, results)) => {
                    total.merge(&summary);
                    for (gi, r) in results {
                        out[gi as usize] = r;
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Renders a serve summary as a self-validating [`RunReport`]
    /// (suite `serving`): traffic, fidelity, energy, per-op-class
    /// latency quantiles (from the telemetry histograms when
    /// instrumentation is on), and per-bank calibration state.
    // fefet-lint: allow-item(hot-alloc) -- report rendering, not on the serving loop
    pub fn report(&self, summary: &ServeSummary) -> RunReport {
        let mut r = RunReport::new("serving");
        r.meta("banks", &self.banks.len().to_string());
        r.meta("window", &self.spec.window.to_string());
        r.meta("seed", &self.spec.seed.to_string());
        r.meta("threads", &self.spec.threads.to_string());
        r.meta("force_escalate", &self.spec.force_escalate.to_string());
        r.section(
            "traffic",
            format!(
                "{{\"ops\":{},\"reads\":{},\"writes\":{},\"persists\":{},\
                 \"coalesced\":{},\"windows\":{},\"row_ops\":{}}}",
                summary.ops,
                summary.reads,
                summary.writes,
                summary.persists,
                summary.coalesced,
                summary.windows,
                summary.row_ops
            ),
        );
        r.section(
            "fidelity",
            format!(
                "{{\"fast_path\":{},\"escalations\":{},\"escalation_rate\":{},\
                 \"causes\":{{\"first_touch\":{},\"guard_band\":{},\
                 \"disturb_threshold\":{},\"forced\":{}}},\
                 \"word_corrections\":{},\"calibration_refreshes\":{}}}",
                summary.fast_path,
                summary.escalations,
                fmt_f64(summary.escalation_rate()),
                summary.esc_first_touch,
                summary.esc_guard_band,
                summary.esc_disturb,
                summary.esc_forced,
                summary.word_corrections,
                summary.calibration_refreshes
            ),
        );
        r.section(
            "energy",
            format!(
                "{{\"total_j\":{},\"modeled_time_s\":{}}}",
                fmt_f64(summary.energy_j),
                fmt_f64(summary.modeled_time_s)
            ),
        );
        let latency = match self.instr.get() {
            Some(tel) => format!(
                "{{\"read_ns\":{},\"write_ns\":{},\"persist_ns\":{}}}",
                tel.serving.read_ns.to_json(),
                tel.serving.write_ns.to_json(),
                tel.serving.persist_ns.to_json()
            ),
            None => "null".to_string(),
        };
        r.section("latency", latency);
        let mut banks = String::with_capacity(128);
        banks.push('[');
        for (i, bank) in self.banks.iter().enumerate() {
            if i > 0 {
                banks.push(',');
            }
            match bank {
                Some(bank) => {
                    let max_stress = bank.stress.iter().cloned().fold(0.0f64, f64::max);
                    banks.push_str(&format!(
                        "{{\"kind\":\"{:?}\",\"rows\":{},\"cols\":{},\
                         \"calibrated_on\":{},\"calibrated_off\":{},\
                         \"min_on_margin_dec\":{},\"min_off_margin_dec\":{},\
                         \"max_stress\":{},\"calibration_refreshes\":{}}}",
                        bank.kind(),
                        bank.rows(),
                        bank.cols(),
                        bank.calib.learned_on.count_ones(),
                        bank.calib.learned_off.count_ones(),
                        if bank.calib.min_on_margin_dec.is_finite() {
                            fmt_f64(bank.calib.min_on_margin_dec)
                        } else {
                            "null".to_string()
                        },
                        if bank.calib.min_off_margin_dec.is_finite() {
                            fmt_f64(bank.calib.min_off_margin_dec)
                        } else {
                            "null".to_string()
                        },
                        fmt_f64(max_stress),
                        bank.calibration_refreshes
                    ));
                }
                None => banks.push_str("null"),
            }
        }
        banks.push(']');
        r.section("banks", banks);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fefet_bank(rows: usize, cols: usize) -> Bank {
        Bank::fefet(MacroConfig::fefet(rows, cols), FefetCell::default()).expect("fefet bank")
    }

    fn feram_bank(rows: usize, cols: usize) -> Bank {
        Bank::feram(MacroConfig::feram(rows, cols), FeramCell::default()).expect("feram bank")
    }

    fn service_with_fefet_bank(
        rows: usize,
        cols: usize,
        spec: ServeSpec,
        instr: Instrumentation,
    ) -> MemoryService {
        let mut svc = MemoryService::new(spec, instr).expect("service");
        svc.add_bank(fefet_bank(rows, cols));
        svc
    }

    fn assert_spec_rejected(spec: ServeSpec, what: &str) {
        match MemoryService::new(spec, Instrumentation::off()) {
            Err(ServeError::Config(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("spec should have been rejected for {what}: {other:?}"),
        }
    }

    #[test]
    fn spec_rejects_a_read_window_too_short_to_sense() {
        let spec = ServeSpec {
            t_read_s: 0.1e-9,
            ..ServeSpec::default()
        };
        assert_spec_rejected(spec, "t_read_s");
        let shortest = ServeSpec {
            t_read_s: MIN_T_READ_S,
            ..ServeSpec::default()
        };
        assert!(MemoryService::new(shortest, Instrumentation::off()).is_ok());
    }

    #[test]
    fn spec_rejects_a_non_finite_read_window() {
        for t in [f64::NAN, f64::INFINITY] {
            let spec = ServeSpec {
                t_read_s: t,
                ..ServeSpec::default()
            };
            assert_spec_rejected(spec, "t_read_s");
        }
    }

    #[test]
    fn spec_rejects_a_non_finite_write_pulse() {
        for t in [f64::NAN, f64::INFINITY] {
            let spec = ServeSpec {
                t_write_s: t,
                ..ServeSpec::default()
            };
            assert_spec_rejected(spec, "t_write_s");
        }
    }

    #[test]
    fn spec_validation_rejects_bad_configs() {
        let cases: Vec<ServeSpec> = vec![
            ServeSpec {
                window: 0,
                ..ServeSpec::default()
            },
            ServeSpec {
                guard_band_decades: f64::NAN,
                ..ServeSpec::default()
            },
            ServeSpec {
                disturb_threshold: 0.0,
                ..ServeSpec::default()
            },
            ServeSpec {
                disturb_per_write: -1.0,
                ..ServeSpec::default()
            },
            ServeSpec {
                t_read_s: 0.0,
                ..ServeSpec::default()
            },
            ServeSpec {
                t_write_s: -1e-9,
                ..ServeSpec::default()
            },
        ];
        for spec in cases {
            assert!(
                MemoryService::new(spec.clone(), Instrumentation::off()).is_err(),
                "spec should have been rejected: {spec:?}"
            );
        }
        assert!(MemoryService::new(ServeSpec::default(), Instrumentation::off()).is_ok());
    }

    #[test]
    fn bank_construction_validates_kind_and_dims() {
        assert!(Bank::fefet(MacroConfig::feram(4, 4), FefetCell::default()).is_err());
        assert!(Bank::feram(MacroConfig::fefet(4, 4), FeramCell::default()).is_err());
        assert!(Bank::fefet(MacroConfig::fefet(4, 65), FefetCell::default()).is_err());
        assert!(Bank::fefet(MacroConfig::fefet(0, 4), FefetCell::default()).is_err());
        let bank = fefet_bank(4, 4);
        assert_eq!(bank.rows(), 4);
        assert_eq!(bank.cols(), 4);
        assert_eq!(bank.kind(), MemoryKind::Fefet);
        assert!(bank.as_fefet().is_some());
        assert!(bank.as_feram().is_none());
    }

    #[test]
    fn serve_rejects_bad_addressing() {
        let mut svc = service_with_fefet_bank(2, 4, ServeSpec::default(), Instrumentation::off());
        let mut out = Vec::new();
        assert!(matches!(
            svc.serve(&[MemOp::Read { bank: 1, row: 0 }], &mut out),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            svc.serve(&[MemOp::Read { bank: 0, row: 2 }], &mut out),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            svc.serve(
                &[MemOp::Write {
                    bank: 0,
                    row: 0,
                    word: 0x10
                }],
                &mut out
            ),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn same_row_ops_coalesce_with_last_write_wins() {
        let mut svc = service_with_fefet_bank(
            4,
            4,
            ServeSpec {
                window: 16,
                ..ServeSpec::default()
            },
            Instrumentation::off(),
        );
        svc.calibrate_bank(0).expect("calibrate");
        let ops = [
            MemOp::Write {
                bank: 0,
                row: 1,
                word: 0x3,
            },
            MemOp::Write {
                bank: 0,
                row: 1,
                word: 0xc,
            },
            MemOp::Read { bank: 0, row: 1 },
            MemOp::Read { bank: 0, row: 1 },
        ];
        let mut out = Vec::new();
        let summary = svc.serve(&ops, &mut out).expect("serve");
        // One window, one row: one write activation + one read activation.
        assert_eq!(summary.ops, 4);
        assert_eq!(summary.row_ops, 2);
        assert_eq!(summary.coalesced, 2);
        assert_eq!(summary.windows, 1);
        // Last write wins; the read-after-write observes it.
        assert_eq!(out[0].word, 0xc);
        assert_eq!(out[1].word, 0xc);
        assert_eq!(out[2].word, 0xc);
        assert_eq!(out[3].word, 0xc);
        // Energy attribution: the first op of each class carries it.
        assert!(out[0].energy_j > 0.0);
        assert_eq!(out[1].energy_j, 0.0);
        assert!(out[2].energy_j > 0.0);
        assert_eq!(out[3].energy_j, 0.0);
        summary.validate().expect("summary invariants");
    }

    #[test]
    fn window_boundaries_split_same_row_traffic() {
        let mut svc = service_with_fefet_bank(
            4,
            4,
            ServeSpec {
                window: 2,
                ..ServeSpec::default()
            },
            Instrumentation::off(),
        );
        svc.calibrate_bank(0).expect("calibrate");
        // Four reads of one row across two global windows: two row
        // activations, not one.
        let ops = [
            MemOp::Read { bank: 0, row: 0 },
            MemOp::Read { bank: 0, row: 0 },
            MemOp::Read { bank: 0, row: 0 },
            MemOp::Read { bank: 0, row: 0 },
        ];
        let mut out = Vec::new();
        let summary = svc.serve(&ops, &mut out).expect("serve");
        assert_eq!(summary.windows, 2);
        assert_eq!(summary.row_ops, 2);
        assert_eq!(summary.coalesced, 2);
        summary.validate().expect("summary invariants");
    }

    #[test]
    fn first_touch_read_escalates_then_fast_path() {
        let mut svc = service_with_fefet_bank(2, 4, ServeSpec::default(), Instrumentation::off());
        let mut out = Vec::new();
        let ops = [
            MemOp::Write {
                bank: 0,
                row: 0,
                word: 0x5,
            },
            MemOp::Read { bank: 0, row: 0 },
        ];
        let s1 = svc.serve(&ops, &mut out).expect("first serve");
        assert_eq!(out[0].fidelity, Fidelity::Macro, "writes stay macro");
        assert_eq!(
            out[1].fidelity,
            Fidelity::Circuit(EscalationCause::FirstTouch),
            "uncalibrated read must escalate"
        );
        assert_eq!(out[1].word, 0x5, "escalated read recovers the written word");
        assert_eq!(s1.esc_first_touch, 1);
        assert_eq!(s1.calibration_refreshes, 1);

        // The same word again: every (column, state) pair is now
        // calibrated with generous FEFET margins, so the read is served
        // from the tracked word with no circuit solve.
        let s2 = svc
            .serve(&[MemOp::Read { bank: 0, row: 0 }], &mut out)
            .expect("second serve");
        assert_eq!(out[0].fidelity, Fidelity::Macro);
        assert_eq!(out[0].word, 0x5);
        assert_eq!(s2.escalations, 0);
        assert_eq!(s2.fast_path, 1);
    }

    #[test]
    fn calibrated_bank_serves_mixed_traffic_without_escalation() {
        let mut svc = service_with_fefet_bank(4, 4, ServeSpec::default(), Instrumentation::off());
        svc.calibrate_bank(0).expect("calibrate");
        let bank = svc.bank(0).expect("bank");
        for col in 0..4 {
            for state in [false, true] {
                let margin = bank
                    .calibrated_margin_decades(col, state)
                    .expect("calibrated");
                assert!(
                    margin > svc.spec().guard_band_decades,
                    "col {col} state {state}: margin {margin} inside guard band"
                );
            }
        }
        let mut ops = Vec::new();
        for i in 0..60u32 {
            let row = i % 4;
            ops.push(match i % 3 {
                0 => MemOp::Write {
                    bank: 0,
                    row,
                    word: u64::from(i) % 16,
                },
                1 => MemOp::Read { bank: 0, row },
                _ => MemOp::Persist { bank: 0, row },
            });
        }
        let mut out = Vec::new();
        let summary = svc.serve(&ops, &mut out).expect("serve");
        assert_eq!(
            summary.escalations, 0,
            "calibrated bank under default spec must stay on the fast path"
        );
        assert_eq!(summary.fast_path, summary.row_ops);
        summary.validate().expect("summary invariants");
    }

    #[test]
    fn escalated_read_matches_direct_read_row() {
        // A guard band wider than the FEFET margins forces every read
        // through the circuit path even after calibration; the served
        // word and refreshed signals must agree with a direct sense_row
        // on an identical array, and the read reports the macro table's
        // read energy.
        let spec = ServeSpec {
            guard_band_decades: 1e6,
            ..ServeSpec::default()
        };
        let mut svc = service_with_fefet_bank(2, 4, spec.clone(), Instrumentation::off());
        let word = 0x9u64;
        let mut out = Vec::new();
        svc.serve(
            &[MemOp::Write {
                bank: 0,
                row: 0,
                word,
            }],
            &mut out,
        )
        .expect("write");
        let reference = svc.bank(0).and_then(Bank::as_fefet).expect("array").clone();
        let direct = reference.sense_row(0, spec.t_read_s).expect("direct read");
        svc.serve(&[MemOp::Read { bank: 0, row: 0 }], &mut out)
            .expect("read");
        let mut direct_word = 0u64;
        for (col, &bit) in direct.bits.iter().enumerate() {
            if bit {
                direct_word |= 1u64 << col;
            }
        }
        assert!(matches!(out[0].fidelity, Fidelity::Circuit(_)));
        assert_eq!(
            out[0].word, direct_word,
            "escalated serving read must digitize identically to sense_row"
        );
        assert_eq!(out[0].word, word);
        let bank = svc.bank(0).expect("bank");
        assert_eq!(
            out[0].energy_j.to_bits(),
            bank.table().read_energy_per_word().to_bits(),
            "an escalated FEFET read reports the macro table's read energy"
        );
        for col in 0..4 {
            let state = word & (1u64 << col) != 0;
            let sig = bank.calibrated_signal(col, state).expect("refreshed");
            let expected = direct.currents[col];
            assert!(
                (sig - expected).abs() <= 1e-12 * expected.abs().max(1.0),
                "col {col}: cached signal {sig} != measured current {expected}"
            );
        }
    }

    #[test]
    fn disturb_threshold_escalates_and_resets_stress() {
        let spec = ServeSpec {
            disturb_threshold: 0.5,
            disturb_per_write: 0.2,
            ..ServeSpec::default()
        };
        let mut svc = service_with_fefet_bank(2, 4, spec, Instrumentation::off());
        svc.calibrate_bank(0).expect("calibrate");
        let mut out = Vec::new();
        // Three writes to row 0 push row 1's accumulator to 0.6 ≥ 0.5.
        // window=64 would coalesce them, so spread across windows via a
        // window-1 spec? No: same row in one window coalesces to ONE
        // row write. Issue them as separate serve calls instead.
        for _ in 0..3 {
            svc.serve(
                &[MemOp::Write {
                    bank: 0,
                    row: 0,
                    word: 0x5,
                }],
                &mut out,
            )
            .expect("write");
        }
        let stressed = svc.bank(0).expect("bank").stress(1);
        assert!(
            stressed >= 0.5,
            "row 1 should have accumulated disturb stress, got {stressed}"
        );
        let summary = svc
            .serve(&[MemOp::Read { bank: 0, row: 1 }], &mut out)
            .expect("read");
        assert_eq!(
            out[0].fidelity,
            Fidelity::Circuit(EscalationCause::DisturbThreshold)
        );
        assert_eq!(summary.esc_disturb, 1);
        assert_eq!(
            svc.bank(0).expect("bank").stress(1),
            0.0,
            "escalated read must reset the row's accumulator"
        );
    }

    #[test]
    fn persist_refreshes_tracked_word_and_escalates_when_suspect() {
        let spec = ServeSpec {
            disturb_threshold: 0.5,
            disturb_per_write: 0.3,
            ..ServeSpec::default()
        };
        let mut svc = service_with_fefet_bank(2, 4, spec, Instrumentation::off());
        svc.calibrate_bank(0).expect("calibrate");
        let mut out = Vec::new();
        svc.serve(
            &[MemOp::Write {
                bank: 0,
                row: 1,
                word: 0xa,
            }],
            &mut out,
        )
        .expect("write");
        // Fresh row: persist below threshold stays macro and reports
        // the tracked word.
        let s = svc
            .serve(&[MemOp::Persist { bank: 0, row: 1 }], &mut out)
            .expect("persist");
        assert_eq!(out[0].class, OpClass::Persist);
        assert_eq!(out[0].word, 0xa);
        assert_eq!(out[0].fidelity, Fidelity::Macro);
        assert_eq!(s.persists, 1);
        // Stress row 1 past the threshold via writes to row 0; the next
        // persist must verify at circuit fidelity.
        for _ in 0..2 {
            svc.serve(
                &[MemOp::Write {
                    bank: 0,
                    row: 0,
                    word: 0x5,
                }],
                &mut out,
            )
            .expect("write");
        }
        svc.serve(&[MemOp::Persist { bank: 0, row: 1 }], &mut out)
            .expect("suspect persist");
        assert_eq!(
            out[0].fidelity,
            Fidelity::Circuit(EscalationCause::DisturbThreshold)
        );
        assert_eq!(
            out[0].word, 0xa,
            "escalated persist rewrites the tracked word"
        );
        assert_eq!(
            svc.bank(0).expect("bank").stress(1),
            0.0,
            "persist resets the written row's accumulator"
        );
    }

    #[test]
    fn force_escalate_routes_everything_through_the_circuit() {
        let spec = ServeSpec {
            force_escalate: true,
            ..ServeSpec::default()
        };
        let mut svc = service_with_fefet_bank(2, 4, spec, Instrumentation::off());
        let mut out = Vec::new();
        let ops = [
            MemOp::Write {
                bank: 0,
                row: 0,
                word: 0x3,
            },
            MemOp::Read { bank: 0, row: 0 },
            MemOp::Persist { bank: 0, row: 0 },
        ];
        let summary = svc.serve(&ops, &mut out).expect("serve");
        assert_eq!(summary.escalations, summary.row_ops);
        assert_eq!(summary.esc_forced, summary.escalations);
        assert_eq!(summary.fast_path, 0);
        for r in &out {
            assert_eq!(r.fidelity, Fidelity::Circuit(EscalationCause::Forced));
            assert_eq!(r.word, 0x3);
        }
    }

    fn mixed_stream(banks: u32, rows: u32, n: u32) -> Vec<MemOp> {
        // Deterministic pseudo-random mixed traffic (no RNG dependency).
        let mut ops = Vec::with_capacity(n as usize);
        let mut x = 0x1234_5678_u64;
        for _ in 0..n {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let bank = ((x >> 33) % u64::from(banks)) as u32;
            let row = ((x >> 45) % u64::from(rows)) as u32;
            let word = (x >> 13) & 0xf;
            ops.push(match (x >> 61) % 3 {
                0 => MemOp::Write { bank, row, word },
                1 => MemOp::Read { bank, row },
                _ => MemOp::Persist { bank, row },
            });
        }
        ops
    }

    #[test]
    fn serial_and_pooled_serving_are_bit_identical() {
        let build = |threads: usize| {
            let spec = ServeSpec {
                threads,
                window: 8,
                variation: VariationSpec {
                    c2c_pr_sigma_rel: 0.03,
                    c2c_ec_sigma_rel: 0.05,
                    ..VariationSpec::default()
                },
                ..ServeSpec::default()
            };
            let mut svc = MemoryService::new(spec, Instrumentation::off()).expect("service");
            svc.add_bank(fefet_bank(4, 4));
            svc.add_bank(fefet_bank(4, 4));
            svc.calibrate_bank(0).expect("calibrate 0");
            svc.calibrate_bank(1).expect("calibrate 1");
            svc
        };
        let ops = mixed_stream(2, 4, 96);
        let mut serial_out = Vec::new();
        let serial_summary = build(1).serve(&ops, &mut serial_out).expect("serial");
        let mut pooled_out = Vec::new();
        let pooled_summary = build(4).serve(&ops, &mut pooled_out).expect("pooled");
        assert_eq!(
            serial_out, pooled_out,
            "per-op results must be bit-identical"
        );
        assert_eq!(
            serial_summary, pooled_summary,
            "summaries must be bit-identical"
        );
        serial_summary.validate().expect("summary invariants");
        assert!(serial_summary.ops == 96);
    }

    #[test]
    fn serving_is_seed_deterministic_with_c2c_variation() {
        let run = |seed: u64| {
            let spec = ServeSpec {
                seed,
                variation: VariationSpec {
                    c2c_pr_sigma_rel: 0.05,
                    c2c_ec_sigma_rel: 0.08,
                    ..VariationSpec::default()
                },
                ..ServeSpec::default()
            };
            let mut svc = MemoryService::new(spec, Instrumentation::off()).expect("service");
            svc.add_bank(fefet_bank(4, 4));
            svc.calibrate_bank(0).expect("calibrate");
            let ops = mixed_stream(1, 4, 64);
            let mut out = Vec::new();
            let summary = svc.serve(&ops, &mut out).expect("serve");
            let stress: Vec<f64> = (0..4)
                .map(|r| svc.bank(0).expect("bank").stress(r))
                .collect();
            (out, summary, stress)
        };
        let (o1, s1, st1) = run(42);
        let (o2, s2, st2) = run(42);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert_eq!(st1, st2, "stress accumulators must replay bitwise");
        let (_, _, st3) = run(43);
        assert!(
            st1 != st3,
            "a different seed should draw different c2c stress weights"
        );
    }

    #[test]
    fn feram_bank_destructive_read_restores_state() {
        let mut svc =
            MemoryService::new(ServeSpec::default(), Instrumentation::off()).expect("service");
        svc.add_bank(feram_bank(2, 4));
        let mut out = Vec::new();
        let word = 0x6u64;
        svc.serve(
            &[MemOp::Write {
                bank: 0,
                row: 0,
                word,
            }],
            &mut out,
        )
        .expect("write");
        // First read escalates (first touch) and is destructive at the
        // circuit level; the serving layer restores the measured word.
        svc.serve(&[MemOp::Read { bank: 0, row: 0 }], &mut out)
            .expect("read 1");
        assert!(matches!(out[0].fidelity, Fidelity::Circuit(_)));
        assert_eq!(out[0].word, word);
        // Second read: FERAM margins (~0.36 decades) clear the default
        // guard band, so it serves fast — and still sees the word the
        // destructive read restored.
        let s = svc
            .serve(&[MemOp::Read { bank: 0, row: 0 }], &mut out)
            .expect("read 2");
        assert_eq!(out[0].fidelity, Fidelity::Macro);
        assert_eq!(out[0].word, word);
        assert_eq!(s.escalations, 0);
    }

    /// A FERAM bank's escalations are as observable as a FEFET bank's:
    /// `add_bank` wires the service's telemetry into the FERAM array, so
    /// an escalated read records its `array.read_row` span and the
    /// engine's solves.
    #[test]
    fn traced_feram_escalation_records_its_read_span_and_solves() {
        let instr = Instrumentation::enabled();
        let spec = ServeSpec {
            force_escalate: true,
            ..ServeSpec::default()
        };
        let mut svc = MemoryService::new(spec, instr.clone()).expect("service");
        svc.add_bank(feram_bank(4, 4));
        let tel = instr.get().expect("telemetry");
        let mut out = Vec::new();
        svc.serve(&[MemOp::Read { bank: 0, row: 1 }], &mut out)
            .expect("read");
        assert_eq!(out[0].fidelity, Fidelity::Circuit(EscalationCause::Forced));
        let spans = tel.spans.snapshot();
        let reads = spans
            .iter()
            .find(|(n, _, _)| n == "array.read_row")
            .map(|&(_, count, _)| count);
        assert_eq!(reads, Some(1), "spans: {spans:?}");
        assert!(tel.solver.solves.get() > 0);
        assert_eq!(tel.solver.failures.get(), 0);
        assert_eq!(tel.array.row_reads.get(), 1);
    }

    #[test]
    fn report_self_validates_with_instrumentation() {
        let instr = Instrumentation::enabled();
        let mut svc = service_with_fefet_bank(4, 4, ServeSpec::default(), instr.clone());
        svc.calibrate_bank(0).expect("calibrate");
        let ops = mixed_stream(1, 4, 48);
        let mut out = Vec::new();
        let summary = svc.serve(&ops, &mut out).expect("serve");
        summary.validate().expect("summary invariants");
        let report = svc.report(&summary);
        let json = report.to_json();
        fefet_telemetry::json::validate(&json).expect("report JSON must parse");
        for needle in [
            "\"suite\": \"serving\"",
            "\"traffic\"",
            "\"fidelity\"",
            "\"escalation_rate\"",
            "\"latency\"",
            "\"read_ns\"",
            "\"banks\"",
            "\"calibrated_on\"",
        ] {
            assert!(json.contains(needle), "report missing {needle}: {json}");
        }
        let tel = instr.get().expect("telemetry");
        assert_eq!(tel.serving.ops.get(), summary.ops);
        assert_eq!(tel.serving.row_ops.get(), summary.row_ops);
        assert!(
            tel.serving.read_ns.count() > 0,
            "read latency histogram must have samples"
        );
    }

    #[test]
    fn summary_validate_catches_broken_invariants() {
        let mut s = ServeSummary::default();
        s.ops = 3;
        s.reads = 1;
        s.writes = 1;
        s.persists = 1;
        s.row_ops = 2;
        s.coalesced = 1;
        s.fast_path = 1;
        s.escalations = 1;
        s.esc_forced = 1;
        s.validate().expect("consistent summary");
        s.esc_forced = 0;
        assert!(s.validate().is_err(), "cause sum mismatch must fail");
    }
}
