//! Parity of the FEFET row slice against the full-array netlist.
//!
//! `read_row`/`write_row` solve a row slice: the accessed row, one
//! lumped row-line pair for the unaccessed rows, and per column one
//! m-scaled cell per stored-bit class. `read_row_full`/`write_row_full`
//! solve the same op over every cell, from the same netlist builder.
//! Each op here runs both ways from the same stored state, and the two
//! must tell the same physical story: equal bits,
//! currents within solver tolerance, energies within 1e-5 relative,
//! committed polarizations within 1e-5 C/m², write disturb within
//! 2× and below 1e-4 C/m², and sneak currents at the solver's noise
//! floor under Table 1 bias. The arrays run from 8×8 up to the 32×32 of
//! served escalations, with write histories of 6 and 24 ops. A 4×4 run
//! with the unaccessed write select grounded (the §4.1 ablation) must
//! flip the parked row in both.

use fefet::mem::array::{ArrayOp, ArrayRead, FastPathToggles, FefetArray};
use fefet::mem::cell::FefetCell;
use fefet::numerics::rng::Rng;
use fefet::telemetry::Instrumentation;

/// An n×n array with a seeded random pattern installed as stored
/// polarizations, at the 40 ps step of the other seeded array fixtures.
fn seeded(n: usize, seed: u64) -> (FefetArray, Rng) {
    let mut a = FefetArray::new(n, n, FefetCell::default());
    a.cell.dt = 40e-12;
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

fn assert_current_close(what: &str, full: f64, slice: f64) {
    assert!(
        (full - slice).abs() <= 1e-6 * full.abs().max(slice.abs()) + 1e-12,
        "{what}: full {full:e} A vs slice {slice:e} A"
    );
}

/// Largest sneak current either path may report (A). With every line
/// of an unaccessed row at 0 V and the sense lines at virtual ground,
/// an unaccessed read FET has no drain–source voltage, and both paths
/// measure ~1e-30 A of numerical residue. Two residues do not agree to
/// any relative bound, but a mis-biased unaccessed line would drive
/// leakage many decades above this floor.
const SNEAK_FLOOR_A: f64 = 1e-24;

fn assert_no_sneak(what: &str, full: f64, slice: f64) {
    for (path, i) in [("full", full), ("slice", slice)] {
        assert!(
            i.abs() < SNEAK_FLOOR_A,
            "{what}: {path} sneak current {i:e} A"
        );
    }
}

fn assert_energy_close(what: &str, full: f64, slice: f64) {
    assert!(
        (full - slice).abs() <= 1e-5 * full.abs(),
        "{what}: full {full:e} J vs slice {slice:e} J"
    );
}

fn assert_states_close(what: &str, full: &FefetArray, slice: &FefetArray) {
    for i in 0..full.rows {
        for j in 0..full.cols {
            let (pf, ps) = (full.polarization(i, j), slice.polarization(i, j));
            assert!(
                (pf - ps).abs() < 1e-5,
                "{what}: cell ({i},{j}) P full {pf} vs slice {ps}"
            );
        }
    }
}

fn assert_writes_agree(what: &str, full: &ArrayOp, slice: &ArrayOp) {
    assert_eq!(full.steps, slice.steps, "{what}: accepted steps");
    assert_energy_close(what, full.energy, slice.energy);
    // Table 1 isolation: the unaccessed cells barely move, on either path.
    for d in [full.max_disturb, slice.max_disturb] {
        assert!(d < 1e-4, "{what}: write disturb {d:e} C/m^2");
    }
    assert!(
        slice.max_disturb <= 2.0 * full.max_disturb && full.max_disturb <= 2.0 * slice.max_disturb,
        "{what}: disturb full {:e} vs slice {:e}",
        full.max_disturb,
        slice.max_disturb
    );
}

fn assert_reads_agree(what: &str, full: &ArrayRead, slice: &ArrayRead) {
    assert_eq!(full.bits, slice.bits, "{what}: bits");
    assert_eq!(full.op.steps, slice.op.steps, "{what}: accepted steps");
    for (j, (f, s)) in full.currents.iter().zip(&slice.currents).enumerate() {
        assert_current_close(&format!("{what}: column {j}"), *f, *s);
    }
    assert_no_sneak(what, full.max_sneak, slice.max_sneak);
    assert_energy_close(what, full.op.energy, slice.op.energy);
    assert!(
        slice.op.max_disturb <= 2.0 * full.op.max_disturb
            && full.op.max_disturb <= 2.0 * slice.op.max_disturb,
        "{what}: read disturb full {:e} vs slice {:e}",
        full.op.max_disturb,
        slice.op.max_disturb
    );
}

/// `writes` seeded writes (both polarities, repeated rows), each solved
/// both ways from the same stored state, then reads of three rows of
/// the written array, again both ways. The history runs on the slice, so
/// the later ops start from freshly written cells that still sit off
/// their stable states.
fn slice_matches_full(n: usize, seed: u64, writes: usize) {
    let (mut slice, mut rng) = seeded(n, seed);
    for k in 0..writes {
        let row = (rng.next_u64() % n as u64) as usize;
        let data: Vec<bool> = (0..n).map(|_| rng.uniform() > 0.5).collect();
        let what = format!("{n}x{n} write {k} (row {row})");
        let mut full = slice.clone();
        let wf = full.write_row_full(row, &data, 1.0e-9).expect("full write");
        let ws = slice.write_row(row, &data, 1.0e-9).expect("slice write");
        assert_writes_agree(&what, &wf, &ws);
        for (j, &bit) in data.iter().enumerate() {
            assert_eq!(slice.bit(row, j), bit, "{what}: column {j} written");
        }
        assert_states_close(&what, &full, &slice);
    }
    for row in [0, n / 2, n - 1] {
        let what = format!("{n}x{n} read row {row}");
        let rf = slice.read_row_full(row, 0.3e-9).expect("full read");
        let rs = slice.read_row(row, 0.3e-9).expect("slice read");
        assert_reads_agree(&what, &rf, &rs);
        let stored: Vec<bool> = (0..n).map(|j| slice.bit(row, j)).collect();
        assert_eq!(rs.bits, stored, "{what}: senses the stored row");
    }
}

#[test]
fn slice_matches_full_array_on_seeded_8x8() {
    slice_matches_full(8, 0x5_1ce8, 6);
}

#[test]
fn slice_matches_full_array_on_seeded_16x16() {
    slice_matches_full(16, 0x5_1c16, 6);
}

/// The size of a served escalation.
#[test]
fn slice_matches_full_array_on_seeded_32x32() {
    slice_matches_full(32, 0x5_1c32, 6);
}

/// A long write history: most rows rewritten, many of them more than
/// once, so most unaccessed cells start off their stable states.
#[test]
fn slice_matches_full_array_after_24_writes() {
    slice_matches_full(16, 0x5_1c24, 24);
}

/// §4.1 ablation on both paths: with the unaccessed write select at 0 V
/// instead of −V_DD, writing zeros into row 0 forward-biases the access
/// devices of the unaccessed rows and overwrites the ones parked in
/// row 1.
#[test]
fn grounded_select_flips_the_parked_row_on_both_paths() {
    let mut cell = FefetCell::default();
    cell.bias = cell.bias.with_grounded_unaccessed_select();
    let mut full = FefetArray::new(4, 4, cell);
    full.cell.dt = 40e-12;
    let mut slice = full.clone();
    let ones = [true; 4];
    let zeros = [false; 4];
    full.write_row_full(1, &ones, 1.0e-9).expect("full park");
    slice.write_row(1, &ones, 1.0e-9).expect("slice park");
    let wf = full.write_row_full(0, &zeros, 1.0e-9).expect("full write");
    let ws = slice.write_row(0, &zeros, 1.0e-9).expect("slice write");
    for (what, a, op) in [("full", &full, &wf), ("slice", &slice, &ws)] {
        assert!(op.max_disturb > 0.1, "{what}: disturb {:e}", op.max_disturb);
        for j in 0..4 {
            assert!(!a.bit(1, j), "{what}: row 1 column {j} kept its '1'");
        }
    }
}

/// The seeded 8×8 read fixture of `fastpath_parity.rs`, read on the
/// slice with every fast path off, with Jacobian reuse alone and with
/// all on: no Newton solve may fail and force a step rejection. (The
/// lumped cells' KCL residual is judged per represented cell; judged
/// whole, it sat above the acceptance floor and rejected steps.)
#[test]
fn slice_reads_and_writes_reject_no_newton_step() {
    let (mut base, _) = seeded(8, 0x8a_8a);
    // `seeded` draws the same stream as the fastpath fixture.
    let reuse_only = FastPathToggles {
        jacobian_reuse: true,
        ..FastPathToggles::exact()
    };
    for (name, toggles) in [
        ("exact", FastPathToggles::exact()),
        ("reuse-only", reuse_only),
        ("all-on", FastPathToggles::default()),
    ] {
        base.fastpaths = toggles;
        base.instr = Instrumentation::enabled();
        let mut a = base.clone();
        a.read_rows(&[0, 5], 0.3e-9, 1).expect("reads");
        a.write_row(
            3,
            &[true, false, true, true, false, false, true, false],
            1.0e-9,
        )
        .expect("write");
        let tel = a.instr.get().expect("telemetry");
        assert!(tel.steps.accepted.get() > 0);
        assert_eq!(tel.steps.rejected_newton.get(), 0, "{name}: rejected steps");
        assert_eq!(tel.solver.failures.get(), 0, "{name}: failed solves");
    }
}
