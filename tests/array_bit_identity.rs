//! Bit-identity pins for the array row ops: seeded 8×8 FEFET and 8×8
//! FERAM arrays driven through a fixed write/read sequence, with every
//! reported quantity compared by `to_bits` against captured constants —
//! sensed currents and bits, disturb maxima, FERAM swings, energies,
//! committed polarizations and accepted-step counts. The FEFET reads'
//! sneak maxima are rounding noise far below the solver's current
//! tolerance, so they are bounded instead of pinned. Both
//! arrays step with the trapezoidal rule from the explicit step floor
//! `dt` set below, growing on quiescent stretches up to ten floors, and
//! the energies come from the step-matched meter. The constants of
//! both arrays come from the row-slice row ops, whose agreement with the
//! full-array netlist `array_slice_parity.rs` (FEFET) and
//! `feram_slice_parity.rs` (FERAM) check within stated tolerances.
//! Growing the row ops' steps moved the FEFET read pins by at most
//! 3.9e-8 relative and the FERAM pins by at most 3.5e-7 (the swings),
//! with every sensed bit kept and the FEFET write unchanged bit for bit.

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
    assert_eq!(w.energy.to_bits(), 0x3ceb_a4ad_1efe_2d4b);
    assert_eq!(w.max_disturb.to_bits(), 0x3ef2_26b6_f8a8_0000);
    assert_eq!(w.steps, 57);
    assert_eq!(fefet_polarizations(&a), 0x3292_9cb8_4fae_d492);

    let r3 = a.read_row(3, 0.3e-9).expect("read row 3");
    assert_eq!(
        bits_of(&r3.currents),
        [
            0x3db5_ba2d_4610_95ba,
            0x3db5_ba2d_4610_95ba,
            0x3db5_ba2d_4610_95ba,
            0x3db5_ba2d_4610_95ba,
            0x3ef9_34e7_f3af_f151,
            0x3ef9_34e7_f371_1ae2,
            0x3ef9_34e7_f371_1ae2,
            0x3ef9_34e7_f3af_f151,
        ]
    );
    assert_eq!(r3.bits, data);
    assert_sneak_is_noise(r3.max_sneak);
    assert_eq!(r3.op.max_disturb.to_bits(), 0x3f74_acd2_52b1_8ee0);
    assert_eq!(r3.op.energy.to_bits(), 0x3d0a_f8b9_dc62_8b69);
    assert_eq!(r3.op.steps, 24);

    let r6 = a.read_row(6, 0.3e-9).expect("read row 6");
    assert_eq!(
        bits_of(&r6.currents),
        [
            0x3efd_c3f1_b767_9867,
            0x3efd_c3f2_3cc3_79f3,
            0x3db0_69f6_6f48_5252,
            0x3efd_c3f2_3cc3_79f3,
            0x3efd_c674_7d57_e102,
            0x3efd_c674_7d60_3f67,
            0x3efd_c674_7d60_3f67,
            0x3db0_69f6_6f48_5252,
        ]
    );
    assert_eq!(r6.bits, [true, true, false, true, true, true, true, false]);
    assert_sneak_is_noise(r6.max_sneak);
    assert_eq!(r6.op.max_disturb.to_bits(), 0x3f94_412e_3463_6118);
    assert_eq!(r6.op.energy.to_bits(), 0x3d19_6ff6_66fd_c4a8);
    assert_eq!(r6.op.steps, 24);
    // Reads never commit.
    assert_eq!(fefet_polarizations(&a), 0x3292_9cb8_4fae_d492);
}

#[test]
fn feram_write_then_destructive_read_are_bit_identical() {
    let (_, _, mut a, data) = seeded_arrays();
    assert_eq!(data, [true, true, false, true, true, true, false, false]);

    let w = a.write_row(2, &data, 1.2e-9).expect("write");
    assert_eq!(w.energy.to_bits(), 0x3d46_1ad5_abcb_d108);
    assert_eq!(w.max_disturb.to_bits(), 0x3f0e_6f58_2baa_2000);
    assert_eq!(w.steps, 149);
    assert_eq!(feram_polarizations(&a), 0x3d35_d47c_f637_5e55);

    let (op, swings) = a.read_row(2, 2e-9).expect("read");
    assert_eq!(
        bits_of(&swings),
        [
            0x3fcd_4b65_345e_e754,
            0x3fcd_4b65_344c_87cc,
            0x3fa4_6d7a_166f_ae80,
            0x3fcd_4b65_3449_8d49,
            0x3fcd_4b65_344b_89a0,
            0x3fcd_4b65_3464_f667,
            0x3fa4_6d7a_1588_f379,
            0x3fa4_6d7a_1588_f3d0,
        ]
    );
    assert_eq!(op.energy.to_bits(), 0x3d23_e12b_388e_1f63);
    assert_eq!(op.max_disturb.to_bits(), 0x3ec3_e8f2_9b89_d1f5);
    assert_eq!(op.steps, 84);
    // The destructive read commits the flipped cells.
    assert_eq!(feram_polarizations(&a), 0x6e08_4251_2859_45ac);
}
