//! Determinism of the threaded array sweeps: fanning row operations out
//! over worker threads must change nothing — not the digitized bits, not
//! a single mantissa bit of the sense currents. Each row transient is a
//! deterministic function of the (shared, immutable) array state, and
//! the chunked fan-out stitches results back in row order, so serial and
//! parallel sweeps are required to agree exactly.

use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_numerics::rng::Rng;

/// An 8×8 array with a seeded random bit pattern, installed directly as
/// stored polarizations (writing 8 rows through full transients would
/// dominate the test budget without adding coverage). The timestep is
/// coarsened to 40 ps: determinism does not depend on integration
/// accuracy, and the 20 ps default would take twice the steps (the
/// stored-state node ICs park every FE cap near its switching region,
/// where Newton iterates hard on every step).
fn seeded_8x8() -> (FefetArray, Vec<Vec<bool>>) {
    let mut a = FefetArray::new(8, 8, FefetCell::default());
    a.cell.dt = 40e-12;
    let (p_lo, p_hi) = a.cell.memory_states();
    let mut rng = Rng::seed_from_u64(0x8a_8a);
    let mut pattern = Vec::new();
    for i in 0..8 {
        let mut row = Vec::new();
        for j in 0..8 {
            let bit = rng.uniform() > 0.5;
            a.set_polarization(i, j, if bit { p_hi } else { p_lo });
            row.push(bit);
        }
        pattern.push(row);
    }
    (a, pattern)
}

#[test]
fn serial_and_parallel_read_rows_are_bit_identical_on_seeded_8x8() {
    let (a, pattern) = seeded_8x8();
    // The shortest window that still digitizes correctly (the sense
    // sample lands 150 ps after the word-select edge settles); three
    // rows keep the runtime bounded while still spanning multiple
    // worker chunks at 4 threads.
    let t_read = 0.3e-9;
    let rows = [0usize, 3, 7];

    let serial = a.read_rows(&rows, t_read, 1).expect("serial sweep");
    let parallel = a.read_rows(&rows, t_read, 4).expect("parallel sweep");

    assert_eq!(serial.len(), rows.len());
    assert_eq!(parallel.len(), rows.len());
    for (k, &row) in rows.iter().enumerate() {
        // The read digitizes the stored pattern correctly...
        assert_eq!(serial[k].bits, pattern[row], "serial bits, row {row}");
        // ...and the parallel sweep agrees bit for bit: same booleans,
        // same f64 bit patterns for every sense current.
        assert_eq!(parallel[k].bits, serial[k].bits, "bits, row {row}");
        assert_eq!(serial[k].currents.len(), parallel[k].currents.len());
        for (j, (s, p)) in serial[k]
            .currents
            .iter()
            .zip(&parallel[k].currents)
            .enumerate()
        {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "current row {row} col {j}: serial {s:?} vs parallel {p:?}"
            );
        }
        assert_eq!(
            serial[k].max_sneak.to_bits(),
            parallel[k].max_sneak.to_bits(),
            "sneak, row {row}"
        );
    }
}

#[test]
fn write_disturb_map_matches_serial_write_row_and_leaves_array_untouched() {
    let a = FefetArray::new(2, 3, FefetCell::default());
    let before: Vec<f64> = (0..2)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| a.polarization(i, j))
        .collect();
    let data = [true, false, true];

    let map = a.write_disturb_map(&data, 1.0e-9, 2).expect("disturb map");
    assert_eq!(map.len(), 2);

    // Reference: the same writes applied serially to fresh clones.
    for (row, &disturb) in map.iter().enumerate() {
        let mut trial = a.clone();
        let op = trial.write_row(row, &data, 1.0e-9).expect("serial write");
        assert_eq!(
            disturb.to_bits(),
            op.max_disturb.to_bits(),
            "disturb, row {row}"
        );
    }

    // The sweep ran on clones: the original array is untouched.
    let after: Vec<f64> = (0..2)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| a.polarization(i, j))
        .collect();
    for (k, (b, f)) in before.iter().zip(&after).enumerate() {
        assert_eq!(b.to_bits(), f.to_bits(), "cell {k} changed");
    }
    assert!(map.iter().all(|d| d.is_finite()));
}
