//! Write shmoo characterization: the pass/fail map over (write voltage,
//! pulse width) that memory designers use to place the operating point.
//!
//! Fig 10(a) of the paper is one cut through this surface (time at which
//! each voltage first passes); the full shmoo also exposes the pulse-width
//! margin at the chosen 0.68 V / 550 ps operating point.

use crate::cell::FefetCell;
use fefet_ckt::Result;

/// Outcome of one shmoo cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmooPoint {
    /// Both data polarities wrote and retained.
    Pass,
    /// Writing '1' failed.
    FailOne,
    /// Writing '0' failed.
    FailZero,
    /// Both polarities failed.
    FailBoth,
}

impl ShmooPoint {
    /// Single-character map symbol (`#` pass, `1`/`0` one-sided fail,
    /// `.` total fail).
    pub fn symbol(&self) -> char {
        match self {
            ShmooPoint::Pass => '#',
            ShmooPoint::FailOne => '0', // only '0' still writes
            ShmooPoint::FailZero => '1',
            ShmooPoint::FailBoth => '.',
        }
    }

    /// True if both polarities pass.
    pub fn passes(&self) -> bool {
        *self == ShmooPoint::Pass
    }
}

/// A complete shmoo map.
#[derive(Debug, Clone, PartialEq)]
pub struct Shmoo {
    /// Swept write voltages (V), ascending.
    pub voltages: Vec<f64>,
    /// Swept pulse widths (s), ascending.
    pub widths: Vec<f64>,
    /// `grid[v_idx][w_idx]`.
    pub grid: Vec<Vec<ShmooPoint>>,
}

impl Shmoo {
    /// The lowest passing voltage at a given pulse width, if any.
    pub fn min_passing_voltage(&self, width_idx: usize) -> Option<f64> {
        self.voltages
            .iter()
            .enumerate()
            .find(|(vi, _)| self.grid[*vi][width_idx].passes())
            .map(|(_, v)| *v)
    }

    /// The shortest passing pulse at a given voltage, if any.
    pub fn min_passing_width(&self, volt_idx: usize) -> Option<f64> {
        self.widths
            .iter()
            .enumerate()
            .find(|(wi, _)| self.grid[volt_idx][*wi].passes())
            .map(|(_, w)| *w)
    }

    /// Renders the classic ASCII shmoo (voltage rows, width columns).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:>8} | pulse width ->", "V_write");
        for (vi, v) in self.voltages.iter().enumerate().rev() {
            let row: String = self.grid[vi].iter().map(|p| p.symbol()).collect();
            let _ = writeln!(out, "{v:>7.2}V | {row}");
        }
        let _ = writeln!(
            out,
            "{:>8} | {:.0} ps .. {:.0} ps",
            "",
            self.widths.first().unwrap_or(&0.0) * 1e12,
            self.widths.last().unwrap_or(&0.0) * 1e12
        );
        out
    }
}

/// Runs the shmoo: for every (voltage, width) the cell is written in both
/// polarities from the opposite state; a point passes if the final
/// polarization lands within `tol` (C/m²) of the commanded state.
///
/// # Errors
///
/// Propagates simulator convergence failures.
pub fn write_shmoo(cell: &FefetCell, voltages: &[f64], widths: &[f64], tol: f64) -> Result<Shmoo> {
    let (p_lo, p_hi) = cell.memory_states();
    let mut grid = Vec::with_capacity(voltages.len());
    for &v in voltages {
        let mut c = *cell;
        c.bias.v_write = v;
        c.bias.v_boost = v + 0.72;
        let mut row = Vec::with_capacity(widths.len());
        for &w in widths {
            let one = c.write(true, p_lo, w)?;
            let zero = c.write(false, p_hi, w)?;
            let ok1 = (one.p_final - p_hi).abs() < tol;
            let ok0 = (zero.p_final - p_lo).abs() < tol;
            row.push(match (ok1, ok0) {
                (true, true) => ShmooPoint::Pass,
                (false, true) => ShmooPoint::FailOne,
                (true, false) => ShmooPoint::FailZero,
                (false, false) => ShmooPoint::FailBoth,
            });
        }
        grid.push(row);
    }
    Ok(Shmoo {
        voltages: voltages.to_vec(),
        widths: widths.to_vec(),
        grid,
    })
}

/// [`write_shmoo`] with the voltage rows fanned out over the persistent
/// worker pool (`threads = 0` = one per available hardware thread). Each
/// row is an independent pair-of-writes sweep over the widths; rows are
/// reassembled in voltage order, so the map is identical to the serial
/// one.
///
/// # Errors
///
/// Propagates simulator convergence failures (first failing row in
/// voltage order). `tol` is the pass tolerance on the final
/// polarization (C/m²).
pub fn write_shmoo_parallel(
    cell: &FefetCell,
    voltages: &[f64],
    widths: &[f64],
    tol: f64,
    threads: usize,
) -> Result<Shmoo> {
    let (p_lo, p_hi) = cell.memory_states();
    let cell = *cell;
    let widths_own = widths.to_vec();
    let rows: Vec<Vec<ShmooPoint>> = fefet_ckt::parallel::pool_map(
        voltages.to_vec(),
        threads,
        &fefet_telemetry::Instrumentation::off(),
        move |&v| -> Result<Vec<ShmooPoint>> {
            let mut c = cell;
            c.bias.v_write = v;
            c.bias.v_boost = v + 0.72;
            let mut row = Vec::with_capacity(widths_own.len());
            for &w in &widths_own {
                let one = c.write(true, p_lo, w)?;
                let zero = c.write(false, p_hi, w)?;
                let ok1 = (one.p_final - p_hi).abs() < tol;
                let ok0 = (zero.p_final - p_lo).abs() < tol;
                row.push(match (ok1, ok0) {
                    (true, true) => ShmooPoint::Pass,
                    (false, true) => ShmooPoint::FailOne,
                    (true, false) => ShmooPoint::FailZero,
                    (false, false) => ShmooPoint::FailBoth,
                });
            }
            Ok(row)
        },
    )
    .into_iter()
    .collect::<Result<_>>()?;
    Ok(Shmoo {
        voltages: voltages.to_vec(),
        widths: widths.to_vec(),
        grid: rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shmoo() -> Shmoo {
        let cell = FefetCell::default();
        write_shmoo(
            &cell,
            &[0.2, 0.45, 0.68, 0.9],
            &[0.2e-9, 0.6e-9, 2.0e-9],
            0.06,
        )
        .unwrap()
    }

    #[test]
    fn operating_point_passes_and_corners_fail() {
        let s = small_shmoo();
        // 0.68 V with a generous pulse: pass.
        assert!(
            s.grid[2][2].passes(),
            "0.68 V / 2 ns must pass:\n{}",
            s.render()
        );
        assert!(s.grid[3][2].passes(), "0.9 V / 2 ns must pass");
        // 0.2 V never writes.
        assert!(!s.grid[0][2].passes(), "0.2 V must fail:\n{}", s.render());
        // 0.68 V at 200 ps: too short.
        assert!(!s.grid[2][0].passes(), "200 ps must be too short");
    }

    #[test]
    fn boundaries_are_monotone() {
        // Higher voltage never needs a longer pulse.
        let s = small_shmoo();
        let mut prev = f64::INFINITY;
        for vi in 0..s.voltages.len() {
            if let Some(w) = s.min_passing_width(vi) {
                assert!(w <= prev + 1e-18, "shmoo boundary not monotone");
                prev = w;
            }
        }
        // And the longest pulse column has the lowest passing voltage.
        let v_long = s.min_passing_voltage(2);
        assert!(v_long.is_some());
        assert!(v_long.unwrap() <= 0.68);
    }

    #[test]
    fn render_contains_grid() {
        let s = small_shmoo();
        let txt = s.render();
        assert!(txt.contains("0.68V"));
        assert!(txt.contains('#'));
        assert!(txt.contains("ps"));
    }

    #[test]
    fn parallel_shmoo_matches_serial() {
        let cell = FefetCell::default();
        let voltages = [0.2, 0.68, 0.9];
        let widths = [0.6e-9, 2.0e-9];
        let serial = write_shmoo(&cell, &voltages, &widths, 0.06).unwrap();
        for threads in [1, 4] {
            let par = write_shmoo_parallel(&cell, &voltages, &widths, 0.06, threads).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn symbols_cover_all_cases() {
        assert_eq!(ShmooPoint::Pass.symbol(), '#');
        assert_eq!(ShmooPoint::FailBoth.symbol(), '.');
        assert_eq!(ShmooPoint::FailOne.symbol(), '0');
        assert_eq!(ShmooPoint::FailZero.symbol(), '1');
        assert!(ShmooPoint::Pass.passes());
        assert!(!ShmooPoint::FailOne.passes());
    }
}
