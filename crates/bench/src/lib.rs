//! Benchmark harness for the DAC'16 FEFET NVM reproduction.
//!
//! One binary per table/figure of the paper's evaluation — each prints
//! the same rows/series the paper reports, regenerated from this
//! repository's models:
//!
//! | Binary      | Paper artifact |
//! |-------------|----------------|
//! | `fig2`      | Fig 2: 2.25 nm hysteresis + retention transients |
//! | `fig3`      | Fig 3: 1.90 nm positive-only hysteresis, no retention |
//! | `fig4`      | Fig 4: load-line intersections; FEFET vs FE-cap loops |
//! | `fig6`      | Fig 6: 2T cell write/read transient waveforms |
//! | `fig8`      | Fig 8: sensing waveforms + eq. (2) read timing |
//! | `fig10`     | Fig 10: write time & energy vs voltage, both memories |
//! | `fig11`     | Fig 11: 2×2 layouts and the 2.4× area ratio |
//! | `fig13`     | Fig 13: NVP forward progress, FEFET vs FERAM |
//! | `table1`    | Table 1 bias scheme validated on the 2×3 array |
//! | `table2`    | Table 2 simulation parameters |
//! | `table3`    | Table 3 iso-write-time comparison (paper + simulated) |
//! | `retention` | §6.2.4 retention ordering and width matching |
//!
//! Std-only performance benches live under `benches/`; they run on the
//! [`tinybench`] harness (the offline build cannot fetch `criterion`).

pub mod tinybench;

use fefet_ckt::engine::SolverOptions;
use fefet_ckt::trace::Trace;

/// Prints a labelled section header.
pub fn section(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats seconds with an engineering suffix.
pub fn fmt_time(t: f64) -> String {
    if t == f64::INFINITY {
        return "inf".to_string();
    }
    let a = t.abs();
    if a >= 1.0 {
        format!("{t:.3} s")
    } else if a >= 1e-3 {
        format!("{:.3} ms", t * 1e3)
    } else if a >= 1e-6 {
        format!("{:.3} us", t * 1e6)
    } else if a >= 1e-9 {
        format!("{:.3} ns", t * 1e9)
    } else {
        format!("{:.3} ps", t * 1e12)
    }
}

/// Formats joules with an engineering suffix.
pub fn fmt_energy(e: f64) -> String {
    let a = e.abs();
    if a >= 1e-9 {
        format!("{:.3} nJ", e * 1e9)
    } else if a >= 1e-12 {
        format!("{:.3} pJ", e * 1e12)
    } else if a >= 1e-15 {
        format!("{:.3} fJ", e * 1e15)
    } else {
        format!("{:.3e} J", e)
    }
}

/// Formats amperes with an engineering suffix.
pub fn fmt_current(i: f64) -> String {
    let a = i.abs();
    if a >= 1e-3 {
        format!("{:.3} mA", i * 1e3)
    } else if a >= 1e-6 {
        format!("{:.3} uA", i * 1e6)
    } else if a >= 1e-9 {
        format!("{:.3} nA", i * 1e9)
    } else if a >= 1e-12 {
        format!("{:.3} pA", i * 1e12)
    } else {
        format!("{:.3e} A", i)
    }
}

/// Formats a sneak current (A): one below the Newton solver's KCL
/// tolerance ([`SolverOptions::tol_i`]) is rounding noise of the solve,
/// so it prints as that bound rather than as a number.
pub fn fmt_sneak(i: f64) -> String {
    let tol_i = SolverOptions::default().tol_i;
    if i.abs() < tol_i {
        format!("< {}", fmt_current(tol_i))
    } else {
        fmt_current(i)
    }
}

/// `v` at 4 decimals, with a value that rounds to zero printed as
/// `0.0000` whatever its sign.
fn fixed4(v: f64) -> String {
    let s = format!("{v:.4}");
    match s.strip_prefix('-') {
        Some(zero) if zero == "0.0000" => zero.to_string(),
        _ => s,
    }
}

/// Prints `signals` of `trace` as a table at 13 fixed times from 0 to
/// the last sample, interpolated, so that tables from different step
/// grids line up row for row. Currents (`i(...)`) are printed in
/// microamps.
pub fn print_wave(trace: &Trace, signals: &[&str]) {
    print!("{:>9}", "t (ns)");
    for s in signals {
        if s.starts_with("i(") {
            print!(" {:>10}", format!("{s} uA"));
        } else {
            print!(" {:>10}", s);
        }
    }
    println!();
    let t_end = trace.time().last().copied().unwrap_or(0.0);
    for k in 0..=12 {
        let t = t_end * k as f64 / 12.0;
        print!("{:>9.3}", t * 1e9);
        for s in signals {
            let mut v = trace.value_at(s, t).unwrap_or(f64::NAN);
            if s.starts_with("i(") {
                v *= 1e6;
            }
            print!(" {:>10}", fixed4(v));
        }
        println!();
    }
}

/// Downsamples a series to at most `n` evenly spaced points for printing.
pub fn downsample<T: Copy>(xs: &[T], n: usize) -> Vec<T> {
    if xs.len() <= n || n == 0 {
        return xs.to_vec();
    }
    let step = (xs.len() - 1) as f64 / (n - 1) as f64;
    (0..n)
        .map(|i| xs[(i as f64 * step).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(0.55e-9), "550.000 ps");
        assert_eq!(fmt_time(1.5e-9), "1.500 ns");
        assert_eq!(fmt_time(3e-6), "3.000 us");
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(1.5e-3), "1.500 ms");
        assert_eq!(fmt_time(5e-13), "0.500 ps");
    }

    #[test]
    fn energy_formatting() {
        assert_eq!(fmt_energy(4.82e-12), "4.820 pJ");
        assert_eq!(fmt_energy(1.5e-9), "1.500 nJ");
        assert_eq!(fmt_energy(7.7e-15), "7.700 fJ");
    }

    #[test]
    fn current_formatting() {
        assert_eq!(fmt_current(30e-6), "30.000 uA");
        assert_eq!(fmt_current(5e-11), "50.000 pA");
    }

    #[test]
    fn sneak_currents_below_tol_i_print_as_the_bound() {
        assert_eq!(fmt_sneak(6.731e-36), "< 1.000 pA");
        assert_eq!(fmt_sneak(-2e-13), "< 1.000 pA");
        assert_eq!(fmt_sneak(2.5e-12), "2.500 pA");
    }

    #[test]
    fn wave_values_that_round_to_zero_print_unsigned() {
        assert_eq!(fixed4(-0.0), "0.0000");
        assert_eq!(fixed4(-4e-5), "0.0000");
        assert_eq!(fixed4(-6e-5), "-0.0001");
        assert_eq!(fixed4(0.2965), "0.2965");
    }

    #[test]
    fn downsample_limits_length() {
        let xs: Vec<usize> = (0..1000).collect();
        let d = downsample(&xs, 11);
        assert_eq!(d.len(), 11);
        assert_eq!(d[0], 0);
        assert_eq!(*d.last().unwrap(), 999);
        // Short inputs pass through.
        assert_eq!(downsample(&xs[..5], 11).len(), 5);
    }
}
