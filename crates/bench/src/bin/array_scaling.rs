//! Array-scaling study: row-op simulation cost and electrical behavior
//! of the FEFET array as it grows, plus the FERAM baseline array's
//! disturb behavior (the §4 isolation claim, side by side).

use fefet_bench::{fmt_current, fmt_energy, fmt_sneak, section};
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::feram_array::FeramArray;
use std::time::Instant;

fn main() {
    section("FEFET array: write+read per size (unknowns of the row slice each op solves)");
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "size", "unknowns", "write E", "disturb", "I_on/I_off", "wall time"
    );
    for n in [2usize, 3, 4] {
        let t0 = Instant::now();
        let mut a = FefetArray::new(n, n, FefetCell::default());
        let pattern: Vec<bool> = (0..n).map(|j| j % 2 == 0).collect();
        let w = a.write_row(0, &pattern, 1.0e-9).expect("write");
        let r = a.read_row(0, 3e-9).expect("read");
        let i_on = r.currents.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let i_off = r
            .currents
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-30);
        let unknowns = a.row_op_dims().expect("row-op dims").n_unknowns;
        println!(
            "{:>5}x{} {:>10} {:>12} {:>12.2e} {:>12.2e} {:>8.2}s",
            n,
            n,
            unknowns,
            fmt_energy(w.energy),
            w.max_disturb,
            i_on / i_off,
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(r.bits, pattern, "pattern must read back at {n}x{n}");
    }

    section("FERAM baseline array: plate-line disturb per write");
    for n in [2usize, 3, 4] {
        let mut a =
            FeramArray::new(n, n, FeramCell::default()).expect("array of a ferroelectric cell");
        let ones = vec![true; n];
        a.write_row(n - 1, &ones, 1.2e-9).expect("park");
        let zeros = vec![false; n];
        let op = a.write_row(0, &zeros, 1.2e-9).expect("write");
        println!(
            "{n}x{n}: unaccessed-row disturb {:.2e} C/m^2, energy {}",
            op.max_disturb,
            fmt_energy(op.energy)
        );
    }
    println!("(the FEFET array's negative-select isolation keeps its disturb");
    println!(" orders of magnitude below the FERAM's plate-line coupling)");

    section("Read currents at 4x4 (worst line loading in this study)");
    let mut a = FefetArray::new(4, 4, FefetCell::default());
    let pattern = [true, false, true, false];
    a.write_row(3, &pattern, 1.0e-9).expect("write");
    let r = a.read_row(3, 3e-9).expect("read");
    for (j, i) in r.currents.iter().enumerate() {
        println!("col {j}: {}", fmt_current(*i));
    }
    println!("max sneak current: {}", fmt_sneak(r.max_sneak));
}
