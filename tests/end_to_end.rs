//! Cross-crate integration: the full device → cell → array → sensing
//! pipeline, exercising every layer the paper's evaluation touches.

use fefet::device::paper_fefet;
use fefet::mem::array::FefetArray;
use fefet::mem::cell::FefetCell;
use fefet::mem::sense::SenseChain;

#[test]
fn device_states_feed_cell_and_array_consistently() {
    // The device layer's zero-bias states are exactly the states the cell
    // layer reports.
    let dev = paper_fefet();
    let states = dev.stable_states_at_zero();
    let cell = FefetCell::default();
    let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
    assert!(states.iter().any(|p| (p - p_lo).abs() < 1e-9));
    assert!(states.iter().any(|p| (p - p_hi).abs() < 1e-9));
}

#[test]
fn full_pipeline_write_sense_roundtrip() {
    // Write a pattern through the array, then read one cell through the
    // full analog sensing chain.
    let mut array = FefetArray::new(2, 3, FefetCell::default());
    array
        .write_row(0, &[true, false, true], 1.0e-9)
        .expect("row write");
    let chain = SenseChain::default();
    let cell = array.cell;

    let bit1 = chain
        .read_bit(&cell, array.polarization(0, 0), 2.5e-9)
        .expect("sense");
    let bit0 = chain
        .read_bit(&cell, array.polarization(0, 1), 2.5e-9)
        .expect("sense");
    assert!(bit1.bit, "column 0 stored '1'");
    assert!(!bit0.bit, "column 1 stored '0'");
}

#[test]
fn hold_state_is_truly_quiescent() {
    // After a write, with all lines at 0, a long hold must not move the
    // polarization (zero standby claim): simulate a cell read far in the
    // future by reusing the stored state directly.
    let cell = FefetCell::default();
    let (p_lo, _) = cell.checked_memory_states().unwrap();
    let w = cell.write(true, p_lo, 1.0e-9).expect("write");
    // Device-level hold for 1 µs.
    let hold = cell
        .fefet
        .transient(|_| 0.0, w.p_final, 1e-6, 4000)
        .expect("hold");
    let drift = (hold.last().unwrap().p - w.p_final).abs();
    assert!(drift < 0.02, "hold drift {drift}");
}

#[test]
fn write_read_write_read_alternating_patterns() {
    let mut array = FefetArray::new(2, 2, FefetCell::default());
    for round in 0..3 {
        let a = round % 2 == 0;
        array.write_row(0, &[a, !a], 1.0e-9).expect("write 0");
        array.write_row(1, &[!a, a], 1.0e-9).expect("write 1");
        let r0 = array.read_row(0, 3e-9).expect("read 0");
        let r1 = array.read_row(1, 3e-9).expect("read 1");
        assert_eq!(r0.bits, vec![a, !a], "round {round}");
        assert_eq!(r1.bits, vec![!a, a], "round {round}");
    }
}
