//! Bit-identity pins for the array row ops: seeded 8×8 FEFET and 8×8
//! FERAM arrays driven through a fixed write/read sequence, with every
//! reported quantity compared by `to_bits` against captured constants —
//! sensed currents and bits, disturb maxima, FERAM swings, energies,
//! committed polarizations and accepted-step counts. The FEFET reads'
//! sneak maxima are rounding noise far below the solver's current
//! tolerance, so they are bounded instead of pinned. Both
//! arrays step with the trapezoidal rule at the explicit `dt` set below,
//! and the energies come from the step-matched meter. The constants of
//! both arrays come from the row-slice row ops, whose agreement with the
//! full-array netlist `array_slice_parity.rs` (FEFET) and
//! `feram_slice_parity.rs` (FERAM) check within stated tolerances. The
//! FEFET pins follow the cell's memory states, which the static root in
//! `V_MOS` moved by rounding (the low state by 1.1e-16 C/m²): the FEFET
//! currents, disturbs and energies by at most 4.8e-14 relative, with
//! every sensed bit and step count kept.

use fefet::ckt::engine::SolverOptions;
use fefet::mem::array::FefetArray;
use fefet::mem::cell::FefetCell;
use fefet::mem::feram::FeramCell;
use fefet::mem::feram_array::FeramArray;
use fefet::numerics::rng::Rng;

/// FNV-1a over the bit patterns of `vals`: one constant pins a whole
/// polarization map.
fn digest(vals: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn bits_of(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A read's largest unaccessed-cell current (A) is rounding noise: it
/// must stay six orders below the Newton current tolerance.
fn assert_sneak_is_noise(max_sneak: f64) {
    let bound = 1e-6 * SolverOptions::default().tol_i;
    assert!(
        (0.0..=bound).contains(&max_sneak),
        "max sneak {max_sneak:e} A above {bound:e} A"
    );
}

fn fefet_polarizations(a: &FefetArray) -> u64 {
    digest((0..a.rows * a.cols).map(|k| a.polarization(k / a.cols, k % a.cols)))
}

fn feram_polarizations(a: &FeramArray) -> u64 {
    digest((0..a.rows * a.cols).map(|k| a.polarization(k / a.cols, k % a.cols)))
}

/// One seeded stream sets both arrays' stored patterns and write data.
fn seeded_arrays() -> (FefetArray, Vec<bool>, FeramArray, Vec<bool>) {
    let mut rng = Rng::seed_from_u64(0x0b17_1de7);
    let mut fefet = FefetArray::new(8, 8, FefetCell::default());
    fefet.cell.dt = 40e-12;
    let (p_lo, p_hi) = fefet.memory_states();
    for i in 0..8 {
        for j in 0..8 {
            let p = if rng.uniform() > 0.5 { p_hi } else { p_lo };
            fefet.set_polarization(i, j, p);
        }
    }
    let fefet_data: Vec<bool> = (0..8).map(|_| rng.uniform() > 0.5).collect();
    let mut feram = FeramArray::new(8, 8, FeramCell::default()).unwrap();
    feram.cell.dt = 20e-12;
    let (q_lo, q_hi) = feram.memory_states();
    for i in 0..8 {
        for j in 0..8 {
            let p = if rng.uniform() > 0.5 { q_hi } else { q_lo };
            feram.set_polarization(i, j, p);
        }
    }
    let feram_data: Vec<bool> = (0..8).map(|_| rng.uniform() > 0.5).collect();
    (fefet, fefet_data, feram, feram_data)
}

#[test]
fn fefet_write_then_reads_are_bit_identical() {
    let (mut a, data, _, _) = seeded_arrays();
    assert_eq!(data, [false, false, false, false, true, true, true, true]);

    let w = a.write_row(3, &data, 1.0e-9).expect("write");
    assert_eq!(w.energy.to_bits(), 0x3ceb_a4ad_1eff_b8c1);
    assert_eq!(w.max_disturb.to_bits(), 0x3ef2_26b6_be03_6000);
    assert_eq!(w.steps, 57);
    assert_eq!(fefet_polarizations(&a), 0x9b17_c7d6_acfa_b819);

    let r3 = a.read_row(3, 0.3e-9).expect("read row 3");
    assert_eq!(
        bits_of(&r3.currents),
        [
            0x3db5_ba2d_4254_7f15,
            0x3db5_ba2d_4254_7f15,
            0x3db5_ba2d_4254_7f15,
            0x3db5_ba2d_4254_7f15,
            0x3ef9_34e8_014c_be7b,
            0x3ef9_34e8_010d_e882,
            0x3ef9_34e8_010d_e882,
            0x3ef9_34e8_014c_be7b,
        ]
    );
    assert_eq!(r3.bits, data);
    assert_sneak_is_noise(r3.max_sneak);
    assert_eq!(r3.op.max_disturb.to_bits(), 0x3f74_acd2_4838_4740);
    assert_eq!(r3.op.energy.to_bits(), 0x3d0a_f8b9_ed4d_f821);
    assert_eq!(r3.op.steps, 25);

    let r6 = a.read_row(6, 0.3e-9).expect("read row 6");
    assert_eq!(
        bits_of(&r6.currents),
        [
            0x3efd_c3f1_b7a4_a384,
            0x3efd_c3f2_3d00_831a,
            0x3db0_69f6_6f30_499a,
            0x3efd_c3f2_3d00_831a,
            0x3efd_c674_7d90_9af2,
            0x3efd_c674_7d98_f954,
            0x3efd_c674_7d98_f954,
            0x3db0_69f6_6f30_499a,
        ]
    );
    assert_eq!(r6.bits, [true, true, false, true, true, true, true, false]);
    assert_sneak_is_noise(r6.max_sneak);
    assert_eq!(r6.op.max_disturb.to_bits(), 0x3f94_412e_349f_b320);
    assert_eq!(r6.op.energy.to_bits(), 0x3d19_6ff6_6734_5614);
    assert_eq!(r6.op.steps, 25);
    // Reads never commit.
    assert_eq!(fefet_polarizations(&a), 0x9b17_c7d6_acfa_b819);
}

#[test]
fn feram_write_then_destructive_read_are_bit_identical() {
    let (_, _, mut a, data) = seeded_arrays();
    assert_eq!(data, [true, true, false, true, true, true, false, false]);

    let w = a.write_row(2, &data, 1.2e-9).expect("write");
    assert_eq!(w.energy.to_bits(), 0x3d46_1ad5_a4f6_39d7);
    assert_eq!(w.max_disturb.to_bits(), 0x3f0e_6f58_2b79_6000);
    assert_eq!(w.steps, 178);
    assert_eq!(feram_polarizations(&a), 0xd7fc_472d_7265_351a);

    let (op, swings) = a.read_row(2, 2e-9).expect("read");
    assert_eq!(
        bits_of(&swings),
        [
            0x3fcd_4b64_8a2d_2ccb,
            0x3fcd_4b64_8a1a_d59a,
            0x3fa4_6d79_a72a_3b37,
            0x3fcd_4b64_8a17_dcd9,
            0x3fcd_4b64_8a19_d7ff,
            0x3fcd_4b64_8a33_36c4,
            0x3fa4_6d79_a644_0bf4,
            0x3fa4_6d79_a644_0c42,
        ]
    );
    assert_eq!(op.energy.to_bits(), 0x3d23_e12b_3ffd_ded0);
    assert_eq!(op.max_disturb.to_bits(), 0x3ec3_e8f2_a732_0000);
    assert_eq!(op.steps, 131);
    // The destructive read commits the flipped cells.
    assert_eq!(feram_polarizations(&a), 0xa2cb_298c_ff34_2a89);
}
