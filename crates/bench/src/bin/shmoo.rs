//! Write shmoo: the (voltage × pulse-width) pass/fail map around the
//! paper's Fig 10 operating points, for both memories.

use fefet_bench::section;
use fefet_mem::cell::FefetCell;
use fefet_mem::compare::feram_write_sweep;
use fefet_mem::feram::FeramCell;
use fefet_mem::shmoo::write_shmoo;

fn main() {
    section("FEFET write shmoo ('#' = both polarities pass)");
    let cell = FefetCell::default();
    let volts: Vec<f64> = (0..=8).map(|i| 0.20 + 0.10 * i as f64).collect();
    let widths: Vec<f64> = (0..=7).map(|i| (0.2 + 0.4 * i as f64) * 1e-9).collect();
    let s = write_shmoo(&cell, &volts, &widths, 0.06).expect("shmoo");
    print!("{}", s.render());
    println!(
        "at 550 ps-class pulses the lowest passing voltage is {} (paper: fails below ~0.5 V)",
        s.min_passing_voltage(1)
            .map(|v| format!("{v:.2} V"))
            .unwrap_or_else(|| "none".into())
    );

    section("FERAM write boundary (time to switch vs voltage)");
    let sweep =
        feram_write_sweep(&FeramCell::default(), &[1.2, 1.4, 1.6, 1.8, 2.0]).expect("FERAM sweep");
    println!("{:>8} {:>12}", "V (V)", "switch time");
    for p in &sweep {
        let t = match p.write_time {
            Some(t) => format!("{:.0} ps", t * 1e12),
            None => "FAIL".to_string(),
        };
        println!("{:>8.2} {t:>12}", p.voltage);
    }
}
