//! Bit-identity pins for the array row ops: seeded 8×8 FEFET and 8×8
//! FERAM arrays driven through a fixed write/read sequence, with every
//! reported quantity compared by `to_bits` against captured constants —
//! sensed currents and bits, sneak and disturb maxima, FERAM swings,
//! energies, committed polarizations and accepted-step counts. The
//! FERAM constants come from the full-trace implementation (every signal
//! recorded at every step, then looked up by name). The FEFET constants
//! come from the row-slice row ops, whose agreement with the full-array
//! netlist `array_slice_parity.rs` checks within stated tolerances.

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
    let (p_lo, p_hi) = fefet.cell.memory_states();
    for i in 0..8 {
        for j in 0..8 {
            let p = if rng.uniform() > 0.5 { p_hi } else { p_lo };
            fefet.set_polarization(i, j, p);
        }
    }
    let fefet_data: Vec<bool> = (0..8).map(|_| rng.uniform() > 0.5).collect();
    let mut feram = FeramArray::new(8, 8, FeramCell::default());
    feram.cell.dt = 20e-12;
    let (q_lo, q_hi) = feram.cell.memory_states();
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
    assert_eq!(w.energy.to_bits(), 0x3d0e_b190_a532_e133);
    assert_eq!(w.max_disturb.to_bits(), 0x3ef1_bfce_65ff_6000);
    assert_eq!(w.steps, 57);
    assert_eq!(fefet_polarizations(&a), 0x3f99_347a_3db8_0a20);

    let r3 = a.read_row(3, 0.3e-9).expect("read row 3");
    assert_eq!(
        bits_of(&r3.currents),
        [
            0x3db6_58e9_54bd_3eb6,
            0x3db6_58e9_54bd_3eb6,
            0x3db6_58e9_54bd_3eb6,
            0x3db6_58e9_54bd_3eb6,
            0x3ef6_ee4e_0c6e_e7a8,
            0x3ef6_ee4e_0c26_17bd,
            0x3ef6_ee4e_0c26_17bd,
            0x3ef6_ee4e_0c6e_e7a8,
        ]
    );
    assert_eq!(r3.bits, data);
    assert_eq!(r3.max_sneak.to_bits(), 0x39c6_7b8b_2842_e703);
    assert_eq!(r3.op.max_disturb.to_bits(), 0x3f74_fe63_e568_cfa0);
    assert_eq!(r3.op.energy.to_bits(), 0x3d0d_7848_8e9d_ed9f);
    assert_eq!(r3.op.steps, 25);

    let r6 = a.read_row(6, 0.3e-9).expect("read row 6");
    assert_eq!(
        bits_of(&r6.currents),
        [
            0x3efd_cd46_55b9_652a,
            0x3efd_cd46_f0f8_256d,
            0x3db0_6582_d47f_1c35,
            0x3efd_cd46_f0f8_256d,
            0x3efd_d038_769a_22af,
            0x3efd_d038_76a4_c158,
            0x3efd_d038_76a4_c158,
            0x3db0_6582_d47f_1c35,
        ]
    );
    assert_eq!(r6.bits, [true, true, false, true, true, true, true, false]);
    assert_eq!(r6.max_sneak.to_bits(), 0x39b2_4949_4c64_d9e7);
    assert_eq!(r6.op.max_disturb.to_bits(), 0x3f96_8735_c469_7a38);
    assert_eq!(r6.op.energy.to_bits(), 0x3d1c_915d_35cc_1271);
    assert_eq!(r6.op.steps, 25);
    // Reads never commit.
    assert_eq!(fefet_polarizations(&a), 0x3f99_347a_3db8_0a20);
}

#[test]
fn feram_write_then_destructive_read_are_bit_identical() {
    let (_, _, mut a, data) = seeded_arrays();
    assert_eq!(data, [true, true, false, true, true, true, false, false]);

    let w = a.write_row(2, &data, 1.2e-9).expect("write");
    assert_eq!(w.energy.to_bits(), 0x3d4e_f6a7_a797_021a);
    assert_eq!(w.max_disturb.to_bits(), 0x3f0e_7115_c404_c000);
    assert_eq!(w.steps, 178);
    assert_eq!(feram_polarizations(&a), 0x9885_d90e_1e74_95df);

    let (op, swings) = a.read_row(2, 2e-9).expect("read");
    assert_eq!(
        bits_of(&swings),
        [
            0x3fcd_16cb_6e26_3f9f,
            0x3fcd_16cb_6e0f_8cce,
            0x3fa3_9f89_f2f8_1f36,
            0x3fcd_16cb_6e0c_65b4,
            0x3fcd_16cb_6e0e_7df5,
            0x3fcd_16cb_6e29_6e73,
            0x3fa3_9f89_f202_1c60,
            0x3fa3_9f89_f202_1cc1,
        ]
    );
    assert_eq!(op.energy.to_bits(), 0x3d25_fc9c_7ee3_9d16);
    assert_eq!(op.max_disturb.to_bits(), 0x3ec3_fe16_1cc0_0000);
    assert_eq!(op.steps, 131);
    // The destructive read commits the flipped cells.
    assert_eq!(feram_polarizations(&a), 0xc3ef_e8af_e682_8b38);
}
