//! Table 1: the array bias conditions, validated by operating the 2×3
//! array of Fig 7 — every write leaves unaccessed rows undisturbed, every
//! read is disturb-free and sneak-current-free.

use fefet_bench::{fmt_current, fmt_energy, fmt_sneak, section};
use fefet_mem::array::FefetArray;
use fefet_mem::bias::{BiasSpec, Operation};
use fefet_mem::cell::FefetCell;

fn main() {
    section("Table 1: bias conditions (V)");
    let b = BiasSpec::default();
    println!(
        "{:<22} {:>11} {:>12} {:>9} {:>10}",
        "row / operation", "read select", "write select", "bit line", "sense line"
    );
    let rows = [
        ("accessed, write '1'", Operation::Write { data: true }, true),
        (
            "accessed, write '0'",
            Operation::Write { data: false },
            true,
        ),
        ("unaccessed, write", Operation::Write { data: true }, false),
        ("accessed, read", Operation::Read, true),
        ("unaccessed, read", Operation::Read, false),
        ("all, hold", Operation::Hold, true),
    ];
    for (label, op, accessed) in rows {
        let lb = b.row_bias(op, accessed);
        println!(
            "{:<22} {:>11.2} {:>12.2} {:>9.2} {:>10.2}",
            label, lb.read_select, lb.write_select, lb.bit_line, lb.sense_line
        );
    }
    println!(
        "unaccessed-row isolation margin: {:.2} V (V_GS of off access devices stays <= 0)",
        b.unaccessed_isolation_margin()
    );

    section("Fig 7: operating the 2x3 array under Table 1 biasing");
    let mut a = FefetArray::new(2, 3, FefetCell::default());
    let w0 = a
        .write_row(0, &[true, false, true], 1.0e-9)
        .expect("write row 0");
    let w1 = a
        .write_row(1, &[false, true, false], 1.0e-9)
        .expect("write row 1");
    println!(
        "write row0 [1,0,1]: energy {}, worst unaccessed-cell disturb {:.2e} C/m^2",
        fmt_energy(w0.energy),
        w0.max_disturb
    );
    println!(
        "write row1 [0,1,0]: energy {}, worst unaccessed-cell disturb {:.2e} C/m^2",
        fmt_energy(w1.energy),
        w1.max_disturb
    );
    for row in 0..2 {
        let r = a.read_row(row, 3e-9).expect("read row");
        let currents: Vec<String> = r.currents.iter().map(|i| fmt_current(*i)).collect();
        println!(
            "read row{row}: bits {:?}, currents {:?}, max sneak {} | disturb {:.2e}",
            r.bits,
            currents,
            fmt_sneak(r.max_sneak),
            r.op.max_disturb
        );
    }
    println!("hold: all lines at 0 V — zero standby bias, states retained by the FE wells");
}
