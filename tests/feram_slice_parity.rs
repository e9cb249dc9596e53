//! Parity of the FERAM row slice against the full-array netlist.
//!
//! `FeramArray::read_row`/`write_row` solve a row slice: the accessed
//! row, one lumped word/plate-line pair for the unaccessed rows, per
//! column the unaccessed cells cut in two at their widest polarization
//! gap, each part one m-scaled cell, and ten probe cells on column 0.
//! `read_row_full`/`write_row_full` solve the same op over every cell,
//! from the same netlist builder. Each op here runs both ways from the
//! same stored state, on seeded 8×8 and 16×16 arrays after histories of
//! 6 and 24 writes (so lumped members sit off their nominal
//! polarization), then destructive reads of rows 0, n/2 and n−1 with no
//! write-back, so each later read starts from rows an earlier read left
//! over-polarized. Bits and accepted steps must be equal, swings,
//! energies and committed polarizations must agree within the bands
//! below, and disturb within 2×. Each band is about three times the worst
//! value measured over the four cases; the measured value sits next to it.

use fefet::mem::array::ArrayOp;
use fefet::mem::feram::FeramCell;
use fefet::mem::feram_array::FeramArray;
use fefet::mem::serving::FERAM_SWING_THRESHOLD_V;
use fefet::numerics::rng::Rng;
use fefet::telemetry::Instrumentation;

/// Developed bit-line swing (V); measured 0.94 mV, against swings of
/// about 0.23 V ('1') and 0.04 V ('0') and a 0.1 V threshold.
const SWING_BAND_V: f64 = 3e-3;
/// Write energy, relative; measured 7.3e-6.
const WRITE_ENERGY_BAND: f64 = 3e-5;
/// Read energy, relative; measured 2.4e-4.
const READ_ENERGY_BAND: f64 = 1e-3;
/// Committed polarization after a write (C/m²); measured 1.8e-6,
/// against about 6e-4 of disturb per write.
const WRITE_P_BAND: f64 = 1e-5;
/// Committed polarization after a read (C/m²); measured 3.3e-4, on
/// cells an earlier read left about 2e-2 beyond their remnant state that
/// relax by up to 8e-3 during the next read. Such a cell's relaxation
/// depends on its own bit line's swing, which the column-0 probes do
/// not see.
const READ_P_BAND: f64 = 1e-3;
/// Largest ratio between the two paths' disturb maxima; measured 1.006.
const DISTURB_RATIO: f64 = 2.0;

/// An n×n FERAM array with a seeded random pattern installed as stored
/// polarizations.
fn seeded(n: usize, seed: u64) -> (FeramArray, Rng) {
    let mut a = FeramArray::new(n, n, FeramCell::default()).unwrap();
    let (p_lo, p_hi) = a.memory_states();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..n {
        for j in 0..n {
            let p = if rng.uniform() > 0.5 { p_hi } else { p_lo };
            a.set_polarization(i, j, p);
        }
    }
    (a, rng)
}

fn assert_ops_agree(what: &str, full: &ArrayOp, slice: &ArrayOp, energy_band: f64) {
    assert_eq!(full.steps, slice.steps, "{what}: accepted steps");
    assert!(
        (full.energy - slice.energy).abs() <= energy_band * full.energy.abs(),
        "{what}: energy full {:e} J vs slice {:e} J",
        full.energy,
        slice.energy
    );
    assert!(
        slice.max_disturb <= DISTURB_RATIO * full.max_disturb
            && full.max_disturb <= DISTURB_RATIO * slice.max_disturb,
        "{what}: disturb full {:e} vs slice {:e}",
        full.max_disturb,
        slice.max_disturb
    );
}

fn assert_states_close(what: &str, full: &FeramArray, slice: &FeramArray, band: f64) {
    for i in 0..full.rows {
        for j in 0..full.cols {
            let (pf, ps) = (full.polarization(i, j), slice.polarization(i, j));
            assert!(
                (pf - ps).abs() <= band,
                "{what}: cell ({i},{j}) P full {pf} vs slice {ps}"
            );
        }
    }
}

fn sensed(swings: &[f64]) -> Vec<bool> {
    swings
        .iter()
        .map(|&v| v > FERAM_SWING_THRESHOLD_V)
        .collect()
}

/// `writes` seeded writes, each solved both ways from the same stored
/// state, then destructive reads of three rows, again both ways. The
/// history runs on the slice; the slice array's telemetry must show no
/// failed Newton solve and no rejected step.
fn slice_matches_full(n: usize, seed: u64, writes: usize) {
    let (mut slice, mut rng) = seeded(n, seed);
    slice.instr = Instrumentation::enabled();
    for k in 0..writes {
        let row = (rng.next_u64() % n as u64) as usize;
        let data: Vec<bool> = (0..n).map(|_| rng.uniform() > 0.5).collect();
        let what = format!("{n}x{n} write {k} (row {row})");
        let mut full = slice.clone();
        full.instr = Instrumentation::off();
        let wf = full.write_row_full(row, &data, 1.2e-9).expect("full write");
        let ws = slice.write_row(row, &data, 1.2e-9).expect("slice write");
        assert_ops_agree(&what, &wf, &ws, WRITE_ENERGY_BAND);
        for (j, &bit) in data.iter().enumerate() {
            assert_eq!(slice.bit(row, j), bit, "{what}: column {j} written");
        }
        assert_states_close(&what, &full, &slice, WRITE_P_BAND);
    }
    for row in [0, n / 2, n - 1] {
        let what = format!("{n}x{n} read row {row}");
        let stored: Vec<bool> = (0..n).map(|j| slice.bit(row, j)).collect();
        let mut full = slice.clone();
        full.instr = Instrumentation::off();
        let (rf, sf) = full.read_row_full(row, 2e-9).expect("full read");
        let (rs, ss) = slice.read_row(row, 2e-9).expect("slice read");
        assert_ops_agree(&what, &rf, &rs, READ_ENERGY_BAND);
        for (j, (f, s)) in sf.iter().zip(&ss).enumerate() {
            assert!(
                (f - s).abs() <= SWING_BAND_V,
                "{what}: column {j} swing full {f} V vs slice {s} V"
            );
        }
        assert_eq!(sensed(&sf), sensed(&ss), "{what}: bits");
        assert_eq!(sensed(&ss), stored, "{what}: senses the stored row");
        assert_states_close(&what, &full, &slice, READ_P_BAND);
    }
    let tel = slice.instr.get().expect("telemetry");
    assert_eq!(tel.solver.failures.get(), 0, "failed solves");
    assert_eq!(tel.steps.rejected_newton.get(), 0, "rejected steps");
}

#[test]
fn feram_slice_matches_full_array_on_seeded_8x8() {
    slice_matches_full(8, 0xfe_8a8, 6);
}

#[test]
fn feram_slice_matches_full_array_on_8x8_after_24_writes() {
    slice_matches_full(8, 0xfe_0824, 24);
}

#[test]
fn feram_slice_matches_full_array_on_seeded_16x16() {
    slice_matches_full(16, 0xfe_1616, 6);
}

/// A long write history: most rows rewritten, many of them more than
/// once.
#[test]
fn feram_slice_matches_full_array_after_24_writes() {
    slice_matches_full(16, 0xfe_1624, 24);
}

/// The slice's size does not grow with the rows it lumps: a 16×16 row
/// op solves 144 unknowns against the full array's 624.
#[test]
fn feram_row_slice_is_smaller_than_the_full_array() {
    let a = FeramArray::new(16, 16, FeramCell::default()).unwrap();
    assert_eq!(a.mna_dims().n_unknowns, 624);
    assert_eq!(a.row_op_dims().n_unknowns, 144);
    let tall = FeramArray::new(64, 16, FeramCell::default()).unwrap();
    assert_eq!(tall.row_op_dims(), a.row_op_dims());
}
