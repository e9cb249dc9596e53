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
//! Holding device bypass to its replay's error bound, and keeping the
//! gate-charge inverse's last Newton step, moved the FEFET pins by at
//! most 6.3e-9 relative (the write's disturb maximum; the currents by
//! 7.1e-12) and the FERAM pins by at most 1.6e-6 (the read's disturb
//! maximum, 3.8e-12 C/m²; the swings by 5.9e-11), with every step count
//! and sensed bit kept.

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
    assert_eq!(w.energy.to_bits(), 0x3ceb_a4ad_1efe_1c50);
    assert_eq!(w.max_disturb.to_bits(), 0x3ef2_26b6_f6c0_0000);
    assert_eq!(w.steps, 57);
    assert_eq!(fefet_polarizations(&a), 0x961d_eafe_d7e9_9c37);

    let r3 = a.read_row(3, 0.3e-9).expect("read row 3");
    assert_eq!(
        bits_of(&r3.currents),
        [
            0x3db5_ba2d_4610_c87e,
            0x3db5_ba2d_4610_c87e,
            0x3db5_ba2d_4610_c87e,
            0x3db5_ba2d_4610_c87e,
            0x3ef9_34e7_f3af_2bf1,
            0x3ef9_34e7_f370_5543,
            0x3ef9_34e7_f370_5543,
            0x3ef9_34e7_f3af_2bf1,
        ]
    );
    assert_eq!(r3.bits, data);
    assert_sneak_is_noise(r3.max_sneak);
    assert_eq!(r3.op.max_disturb.to_bits(), 0x3f74_acd2_52b7_3ae0);
    assert_eq!(r3.op.energy.to_bits(), 0x3d0a_f8b9_dc5f_0e5c);
    assert_eq!(r3.op.steps, 24);

    let r6 = a.read_row(6, 0.3e-9).expect("read row 6");
    assert_eq!(
        bits_of(&r6.currents),
        [
            0x3efd_c3f1_b767_649f,
            0x3efd_c3f2_3cc3_61ce,
            0x3db0_69f6_6f48_360c,
            0x3efd_c3f2_3cc3_61ce,
            0x3efd_c674_7d57_ac07,
            0x3efd_c674_7d60_0a84,
            0x3efd_c674_7d60_0a84,
            0x3db0_69f6_6f48_360c,
        ]
    );
    assert_eq!(r6.bits, [true, true, false, true, true, true, true, false]);
    assert_sneak_is_noise(r6.max_sneak);
    assert_eq!(r6.op.max_disturb.to_bits(), 0x3f94_412e_3462_6ab0);
    assert_eq!(r6.op.energy.to_bits(), 0x3d19_6ff6_66fe_22fe);
    assert_eq!(r6.op.steps, 24);
    // Reads never commit.
    assert_eq!(fefet_polarizations(&a), 0x961d_eafe_d7e9_9c37);
}

#[test]
fn feram_write_then_destructive_read_are_bit_identical() {
    let (_, _, mut a, data) = seeded_arrays();
    assert_eq!(data, [true, true, false, true, true, true, false, false]);

    let w = a.write_row(2, &data, 1.2e-9).expect("write");
    assert_eq!(w.energy.to_bits(), 0x3d46_1ad5_abcb_c172);
    assert_eq!(w.max_disturb.to_bits(), 0x3f0e_6f57_f9ac_8000);
    assert_eq!(w.steps, 149);
    assert_eq!(feram_polarizations(&a), 0x8b6d_7627_29ca_1180);

    let (op, swings) = a.read_row(2, 2e-9).expect("read");
    assert_eq!(
        bits_of(&swings),
        [
            0x3fcd_4b65_345c_eabb,
            0x3fcd_4b65_344a_8b28,
            0x3fa4_6d7a_166a_8447,
            0x3fcd_4b65_3447_90a8,
            0x3fcd_4b65_3449_8cef,
            0x3fcd_4b65_3462_f9be,
            0x3fa4_6d7a_1583_c957,
            0x3fa4_6d7a_1583_c9b3,
        ]
    );
    assert_eq!(op.energy.to_bits(), 0x3d23_e12b_388e_2407);
    assert_eq!(op.max_disturb.to_bits(), 0x3ec3_e8f4_abae_0000);
    assert_eq!(op.steps, 84);
    // The destructive read commits the flipped cells.
    assert_eq!(feram_polarizations(&a), 0xc55e_88e7_4b6f_cf3d);
}
