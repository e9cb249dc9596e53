//! Full NVM-macro model: array organization, periphery area, and
//! block-level access energy/time (the level at which the paper's
//! Table 3 word energies live).
//!
//! The cell-level circuit simulations in [`crate::cell`] capture a single
//! bit faithfully; a macro access additionally swings every row's control
//! lines — in particular the paper's negative select on *all* unaccessed
//! rows ("negative select-line voltage as well as select-line boost ...
//! contributes to increase in the write power, which is considered") —
//! and pays decoder/sense periphery. This model composes those costs
//! analytically from the layout pitches and Table 2 metal capacitance.

use crate::bias::BiasSpec;
use crate::compare::{MemoryKind, NvmParams};
use crate::layout::{fefet_cell, feram_cell, CellLayout, LAMBDA_45NM};
use crate::sense::ReadTiming;

/// Metal capacitance per meter (Table 2: 0.2 fF/µm).
const METAL_CAP_PER_M: f64 = 0.2e-15 / 1e-6;

/// Organization of an NVM macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroConfig {
    /// Memory technology.
    pub kind: MemoryKind,
    /// Rows in the array.
    pub rows: usize,
    /// Columns (= bits accessed per word; one sense amp per column).
    pub cols: usize,
    /// Array bias levels.
    pub bias: BiasSpec,
    /// Per-bit switched polarization charge (C) — `2·P_r·A` for the
    /// storage element.
    pub q_switch: f64,
    /// Cell write time at the operating voltage (s).
    pub t_write: f64,
    /// Mean read current of a '1' cell (A).
    pub i_read_on: f64,
    /// Read-path timing.
    pub timing: ReadTiming,
}

impl MacroConfig {
    /// The paper's FEFET macro at the given organization.
    pub fn fefet(rows: usize, cols: usize) -> Self {
        let fe = fefet_device::paper_fefet().fe;
        // Switched charge between the two zero-bias states (≈0.4 C/m²).
        let dq = 0.396 * fe.area;
        MacroConfig {
            kind: MemoryKind::Fefet,
            rows,
            cols,
            bias: BiasSpec::default(),
            q_switch: dq,
            t_write: 0.55e-9,
            i_read_on: 30e-6,
            timing: ReadTiming::default(),
        }
    }

    /// The FERAM baseline macro.
    pub fn feram(rows: usize, cols: usize) -> Self {
        let cap = fefet_device::params::paper_feram_cap();
        let pr = cap.lk.remnant_polarization().unwrap_or(0.46);
        MacroConfig {
            kind: MemoryKind::Feram,
            rows,
            cols,
            bias: BiasSpec {
                v_write: 1.64,
                v_boost: 2.3,
                ..BiasSpec::default()
            },
            q_switch: 2.0 * pr * cap.area,
            t_write: 0.55e-9,
            i_read_on: 0.0, // FERAM reads by charge, not current
            timing: ReadTiming::default(),
        }
    }

    fn cell_layout(&self) -> CellLayout {
        match self.kind {
            MemoryKind::Fefet => fefet_cell(),
            MemoryKind::Feram => feram_cell(),
        }
    }

    /// Row-line capacitance (select lines run across `cols` cells).
    pub fn c_row_line(&self) -> f64 {
        let pitch_x = self.cell_layout().pitch_x * LAMBDA_45NM;
        METAL_CAP_PER_M * self.cols as f64 * pitch_x
    }

    /// Column-line capacitance (bit/sense lines run down `rows` cells).
    pub fn c_col_line(&self) -> f64 {
        let pitch_y = self.cell_layout().pitch_y * LAMBDA_45NM;
        METAL_CAP_PER_M * self.rows as f64 * pitch_y
    }

    /// Array (cell-matrix) area (m²).
    pub fn array_area(&self) -> f64 {
        self.cell_layout().area_m2(LAMBDA_45NM) * (self.rows * self.cols) as f64
    }

    /// Periphery area estimate: decoders plus one sense amplifier per
    /// column. Periphery is built from logic transistors, so it is sized
    /// in technology-cell units (the FERAM footprint) for *both* kinds —
    /// it does not inflate with the memory cell.
    pub fn periphery_area(&self) -> f64 {
        let unit = feram_cell().area_m2(LAMBDA_45NM);
        // Row decoder ≈ 4 unit-equivalents per row; column sense/driver
        // stack ≈ 24 per column (current SAs are big — "large-size
        // transistors (M1 and M2) for less variation").
        unit * (4.0 * self.rows as f64 + 24.0 * self.cols as f64)
    }

    /// Total macro area (m²).
    pub fn total_area(&self) -> f64 {
        self.array_area() + self.periphery_area()
    }

    /// Computes the per-word energy/latency table of this organization
    /// — the one place the macro's word energies are derived — so
    /// op-rate consumers (the serving fast path) pay the
    /// layout/pitch/capacitance chain **once per config** instead of on
    /// every word.
    ///
    /// A word write swings the bit lines on every column, switches the
    /// polarization of every cell of the row, boosts the accessed select
    /// and, in the FEFET scheme, swings the negative select on every
    /// unaccessed row. That isolation charge is kept apart from the
    /// burst-independent rest because it amortizes over a burst (see
    /// [`MacroTable::write_energy_per_word`]).
    pub fn table(&self) -> MacroTable {
        let b = &self.bias;
        let e_bitlines = self.cols as f64 * self.c_col_line() * b.v_write * b.v_write;
        let e_cells = self.cols as f64 * self.q_switch * b.v_write;
        let e_boost = self.c_row_line() * b.v_boost * b.v_boost;
        let e_isolation = match self.kind {
            // Every unaccessed row's select swings to -V_DD and back,
            // once per burst.
            MemoryKind::Fefet => {
                (self.rows.saturating_sub(1)) as f64
                    * self.c_row_line()
                    * b.v_ws_unaccessed
                    * b.v_ws_unaccessed
            }
            // FERAM needs no negative isolation (plate-line scheme).
            MemoryKind::Feram => 0.0,
        };
        let write_energy_base_j = e_bitlines + e_cells + e_boost;
        let read_energy_j = match self.kind {
            MemoryKind::Fefet => {
                // Read-select swing + current sensing while the cell must
                // conduct (pre-charge + SA decision; the output buffer
                // stage draws no cell current), ≈half the bits being '1',
                // + SA bias per column.
                let t_conduct = self.timing.t_pre.max(self.timing.t_dec) + self.timing.t_sa;
                let e_line = self.c_row_line() * b.v_read * b.v_read;
                let e_cells = 0.5 * self.cols as f64 * self.i_read_on * b.v_read * t_conduct;
                let e_sa = self.cols as f64 * 2e-15; // 2 fJ per CSA decision
                e_line + e_cells + e_sa
            }
            MemoryKind::Feram => {
                // Destructive read: plate pulse on the row, charge
                // development on every bit line, then a write-back —
                // essentially a write (which has no isolation term)
                // plus the development swings.
                let e_dev = self.cols as f64 * self.c_col_line() * b.v_write * b.v_write
                    + self.c_row_line() * b.v_write * b.v_write
                    + 0.5 * self.cols as f64 * self.q_switch * b.v_write;
                e_dev + write_energy_base_j
            }
        };
        MacroTable {
            kind: self.kind,
            bit_line_voltage_v: b.v_write,
            write_energy_base_j,
            write_energy_isolation_j: e_isolation,
            read_energy_j,
            write_time_s: self.t_write,
            read_time_s: self.timing.total(),
        }
    }
}

/// The derived per-word energy/latency table of one [`MacroConfig`],
/// computed once by [`MacroConfig::table`]. Everything here is a plain
/// `f64` lookup or one multiply-add — no layout, pitch or capacitance
/// chains — which is what keeps the serving fast path allocation- and
/// recomputation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroTable {
    /// Memory technology the table was derived for.
    pub kind: MemoryKind,
    /// Bit-line write level (V).
    pub bit_line_voltage_v: f64,
    /// Burst-independent word write energy (J): bit-line swings, cell
    /// switching, and the boosted accessed select.
    pub write_energy_base_j: f64,
    /// Full unaccessed-row isolation charge per burst (J); a burst of
    /// `n` word writes pays `1/n` of it per word. Zero for FERAM.
    pub write_energy_isolation_j: f64,
    /// Word read energy (J).
    pub read_energy_j: f64,
    /// Cell write time at the operating voltage (s).
    pub write_time_s: f64,
    /// Eq. (2) read latency `max(t_pre, t_dec) + t_sa + t_buffer` (s).
    pub read_time_s: f64,
}

impl MacroTable {
    /// Energy to write one word (J) in a burst of `burst_len`
    /// consecutive word writes.
    ///
    /// The bursts share one isolation setup: the unaccessed selects are
    /// driven to −V_DD once at the start of a burst and released at its
    /// end, so their CV² cost amortizes. Use `burst_len = 1` for a
    /// random single-word access and a large value for NVP backups,
    /// which stream the whole block.
    ///
    /// # Panics
    ///
    /// Panics if `burst_len == 0`.
    pub fn write_energy_per_word(&self, burst_len: usize) -> f64 {
        assert!(burst_len > 0, "burst_len must be at least 1");
        self.write_energy_base_j + self.write_energy_isolation_j / burst_len as f64
    }

    /// Energy to read one word (J).
    pub fn read_energy_per_word(&self) -> f64 {
        self.read_energy_j
    }

    /// The macro summarized as Table 3-style word parameters, for NVP
    /// backup bursts of `burst_len` consecutive word writes.
    ///
    /// # Panics
    ///
    /// Panics if `burst_len == 0`.
    pub fn nvm_params(&self, burst_len: usize) -> NvmParams {
        NvmParams {
            kind: self.kind,
            bit_line_voltage: self.bit_line_voltage_v,
            write_time: self.write_time_s,
            write_energy: self.write_energy_per_word(burst_len),
            read_energy: self.read_energy_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_scale_with_organization() {
        let small = MacroConfig::fefet(64, 32);
        let tall = MacroConfig::fefet(256, 32);
        assert!((tall.array_area() / small.array_area() - 4.0).abs() < 1e-9);
        assert!(tall.total_area() > small.total_area());
        assert!(tall.c_col_line() > small.c_col_line());
        assert_eq!(tall.c_row_line(), small.c_row_line());
    }

    #[test]
    fn macro_area_ratio_tracks_cell_ratio() {
        // With identical organization, the FEFET macro's array is ≈2.4×
        // the FERAM's; shared-size periphery dilutes the total ratio.
        let f = MacroConfig::fefet(256, 32);
        let r = MacroConfig::feram(256, 32);
        let array_ratio = f.array_area() / r.array_area();
        assert!(
            (array_ratio - 2.4).abs() < 0.1,
            "array ratio {array_ratio:.2}"
        );
        let total_ratio = f.total_area() / r.total_area();
        assert!(
            total_ratio > 1.5 && total_ratio < 2.4,
            "total ratio {total_ratio:.2}"
        );
    }

    #[test]
    fn table3_scale_word_energies_for_backup_bursts() {
        // NVP backups stream the block: the isolation setup amortizes and
        // the paper's strong write-energy advantage appears.
        let f = MacroConfig::fefet(64, 64).table().nvm_params(16);
        let r = MacroConfig::feram(64, 64).table().nvm_params(16);
        assert!(
            (0.05e-12..20e-12).contains(&f.write_energy),
            "FEFET write/word {:.3e}",
            f.write_energy
        );
        assert!(
            (0.2e-12..60e-12).contains(&r.write_energy),
            "FERAM write/word {:.3e}",
            r.write_energy
        );
        let reduction = 1.0 - f.write_energy / r.write_energy;
        assert!(
            reduction > 0.55,
            "burst write-energy reduction {:.2} (paper: 0.68)",
            reduction
        );
        // Orderings of Table 3: the FEFET read is far cheaper than the
        // destructive FERAM read, and the FERAM read costs about a write.
        // (Our FEFET read-vs-own-write ratio deviates from the paper —
        // the calibrated ON state conducts ~30 µA through the sensing
        // window; see EXPERIMENTS.md.)
        assert!(f.read_energy < 0.8 * r.read_energy);
        assert!(r.read_energy > 0.8 * r.write_energy, "destructive read");
    }

    #[test]
    fn random_access_pays_the_isolation_overhead() {
        // §6.2.2: the negative select and boost "contribute to increase
        // in the write power" — for single random writes the overhead is
        // large; the paper's accounting still favors the FEFET.
        let f = MacroConfig::fefet(64, 64).table();
        let r = MacroConfig::feram(64, 64).table();
        let e_random = f.write_energy_per_word(1);
        let e_burst = f.write_energy_per_word(64);
        assert!(e_random > 2.0 * e_burst, "{e_random:.3e} vs {e_burst:.3e}");
        // Even at random access the FEFET stays ahead of FERAM.
        assert!(e_random < r.write_energy_per_word(1));
    }

    #[test]
    fn isolation_swing_grows_with_rows() {
        // The -V_DD swing on unaccessed rows grows linearly with rows —
        // the §6.2.2 overhead the paper says it accounts for.
        let short = MacroConfig::fefet(32, 32).table();
        let tall = MacroConfig::fefet(512, 32).table();
        assert!(tall.write_energy_per_word(1) > 3.0 * short.write_energy_per_word(1));
    }

    #[test]
    fn feram_table_has_no_isolation_term() {
        let table = MacroConfig::feram(64, 64).table();
        assert_eq!(table.write_energy_isolation_j, 0.0);
        // Burst length is then irrelevant.
        assert_eq!(
            table.write_energy_per_word(1).to_bits(),
            table.write_energy_per_word(64).to_bits()
        );
    }

    #[test]
    fn nvm_params_consistent_with_kind() {
        let f = MacroConfig::fefet(128, 32).table().nvm_params(8);
        assert_eq!(f.kind, MemoryKind::Fefet);
        assert_eq!(f.bit_line_voltage, 0.68);
        let r = MacroConfig::feram(128, 32).table().nvm_params(8);
        assert_eq!(r.kind, MemoryKind::Feram);
        assert_eq!(r.bit_line_voltage, 1.64);
    }
}
