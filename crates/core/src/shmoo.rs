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

    /// The point whose '1' write passed iff `one` and whose '0' write
    /// passed iff `zero`.
    fn from_polarities(one: bool, zero: bool) -> Self {
        match (one, zero) {
            (true, true) => ShmooPoint::Pass,
            (false, true) => ShmooPoint::FailOne,
            (true, false) => ShmooPoint::FailZero,
            (false, false) => ShmooPoint::FailBoth,
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

/// Walks the boundary of an `nv × nt` shmoo whose pass map is monotone:
/// a passing point's higher amplitudes (`iv`) and longer widths (`it`)
/// pass too. The walk visits the widths in ascending order and starts
/// above the top amplitude; in each width it steps down one amplitude
/// while the next point passes, and the first failing point ends the
/// width. It then reports `boundary(it, lowest)`: at width `it` exactly
/// the amplitudes `lowest..nv` pass (`lowest == nv`: none). The next
/// width starts from the boundary this one reached. Each call to `pass`
/// either lowers the boundary or ends a width, so it runs at most
/// `nv + nt` times instead of `nv·nt`.
///
/// This is the one boundary walk of the workspace: the cell-level
/// [`write_shmoo`] runs it once per write polarity, and the yield
/// engine's per-trial stress runs it through its bitmask form
/// (`shmoo_walk_mask`).
///
/// # Errors
///
/// Returns the first error `pass` returns; the walk stops there.
pub fn shmoo_walk<E>(
    nv: usize,
    nt: usize,
    mut pass: impl FnMut(usize, usize) -> std::result::Result<bool, E>,
    mut boundary: impl FnMut(usize, usize),
) -> std::result::Result<(), E> {
    // Lowest amplitude known to pass at the current width; `nv` = none.
    let mut lowest = nv;
    for it in 0..nt {
        while lowest > 0 && pass(lowest - 1, it)? {
            lowest -= 1;
        }
        boundary(it, lowest);
    }
    Ok(())
}

/// [`shmoo_walk`] over an infallible `pass`, as a bitmask: bit
/// `iv·nt + it` is set where the point passes. The grid must fit the
/// mask (`nv·nt ≤ 64`). Allocation-free.
pub(crate) fn shmoo_walk_mask(
    nv: usize,
    nt: usize,
    mut pass: impl FnMut(usize, usize) -> bool,
) -> u64 {
    debug_assert!(nv * nt <= 64, "a {nv}x{nt} shmoo does not fit a u64 mask");
    let mut mask = 0u64;
    let walked = shmoo_walk(
        nv,
        nt,
        |iv, it| Ok::<_, std::convert::Infallible>(pass(iv, it)),
        |it, lowest| {
            for iv in lowest..nv {
                mask |= 1u64 << (iv * nt + it);
            }
        },
    );
    let Ok(()) = walked;
    mask
}

/// Runs the shmoo: at every (voltage, width) the cell is written in
/// both polarities from the opposite state; a polarity passes if the
/// final polarization lands within `tol` (C/m²) of the commanded state.
///
/// The map is found by [`shmoo_walk`], once per polarity (write '1'
/// from `p_lo`, write '0' from `p_hi`), so it costs at most
/// `2·(nv + nt)` writes instead of `2·nv·nt` (30 instead of 144 on the
/// `shmoo` bin's 9×8 grid). That is exact only if each polarity's pass
/// map is monotone: a write that lands at some voltage and width also
/// lands at every higher voltage and every longer width. Nothing proves
/// this for the cell's circuit transient; the tests compare the walk
/// with the full grid on the bin's grid, on a 21×15 grid and on cells
/// with thinner and thicker ferroelectrics, a finer time step and a
/// heavier bit line, and pin the write count.
///
/// # Errors
///
/// As for [`FefetCell::checked_memory_states`], before any write: a
/// cell that cannot store data; simulator convergence failures of the
/// writes the walk runs.
pub fn write_shmoo(cell: &FefetCell, voltages: &[f64], widths: &[f64], tol: f64) -> Result<Shmoo> {
    walk_shmoo(
        voltages,
        widths,
        polarity_writes(cell, voltages, widths, tol)?,
    )
}

/// Whether a write of polarity `one` ('1' from `p_lo`, else '0' from
/// `p_hi`) at `voltages[iv]` and `widths[it]` lands within `tol` (C/m²)
/// of the commanded state; an error, before any write, for a cell that
/// cannot store data.
fn polarity_writes<'a>(
    cell: &'a FefetCell,
    voltages: &'a [f64],
    widths: &'a [f64],
    tol: f64,
) -> Result<impl Fn(bool, usize, usize) -> Result<bool> + 'a> {
    let (p_lo, p_hi) = cell.checked_memory_states()?;
    Ok(move |one, iv, it| {
        let mut c = *cell;
        c.bias.v_write = voltages[iv];
        c.bias.v_boost = voltages[iv] + 0.72;
        let (from, to) = if one { (p_lo, p_hi) } else { (p_hi, p_lo) };
        c.write(one, from, widths[it])
            .map(|w| (w.p_final - to).abs() < tol)
    })
}

/// The shmoo from one [`shmoo_walk`] per polarity of `writes` (see
/// [`polarity_writes`]).
fn walk_shmoo(
    voltages: &[f64],
    widths: &[f64],
    mut writes: impl FnMut(bool, usize, usize) -> Result<bool>,
) -> Result<Shmoo> {
    let (nv, nt) = (voltages.len(), widths.len());
    // Per width, the lowest amplitude at which '1' (`one`) and '0'
    // (`zero`) write.
    let mut one = vec![nv; nt];
    shmoo_walk(nv, nt, |iv, it| writes(true, iv, it), |it, l| one[it] = l)?;
    let mut zero = vec![nv; nt];
    shmoo_walk(nv, nt, |iv, it| writes(false, iv, it), |it, l| zero[it] = l)?;
    let grid = (0..nv)
        .map(|iv| {
            (0..nt)
                .map(|it| ShmooPoint::from_polarities(iv >= one[it], iv >= zero[it]))
                .collect()
        })
        .collect();
    Ok(Shmoo {
        voltages: voltages.to_vec(),
        widths: widths.to_vec(),
        grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-grid shmoo the walk replaced: both polarities written at
    /// every point. The reference the walk is checked against.
    fn write_shmoo_full_grid(
        cell: &FefetCell,
        voltages: &[f64],
        widths: &[f64],
        tol: f64,
    ) -> Result<Shmoo> {
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
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
                row.push(ShmooPoint::from_polarities(ok1, ok0));
            }
            grid.push(row);
        }
        Ok(Shmoo {
            voltages: voltages.to_vec(),
            widths: widths.to_vec(),
            grid,
        })
    }

    /// `n` points from `lo` by `step`, as the bins build their grids.
    fn grid(lo: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| lo + step * i as f64).collect()
    }

    /// The `shmoo` bin's 9×8 grid: 0.20–1.00 V by 0.1 V, 0.2–3.0 ns.
    fn bin_grid() -> (Vec<f64>, Vec<f64>) {
        let widths = (0..=7).map(|i| (0.2 + 0.4 * i as f64) * 1e-9).collect();
        ((0..=8).map(|i| 0.20 + 0.10 * i as f64).collect(), widths)
    }

    /// The walked shmoo of `cell` on the grid, checked against the full
    /// grid; returns the number of writes the walk ran.
    fn walk_matches_full_grid(
        label: &str,
        cell: &FefetCell,
        volts: &[f64],
        widths: &[f64],
    ) -> usize {
        let writes = polarity_writes(cell, volts, widths, 0.06).unwrap();
        let mut count = 0;
        let walked = walk_shmoo(volts, widths, |one, iv, it| {
            count += 1;
            writes(one, iv, it)
        })
        .unwrap();
        let full = write_shmoo_full_grid(cell, volts, widths, 0.06).unwrap();
        assert_eq!(
            walked,
            full,
            "{label}: walk\n{}full grid\n{}",
            walked.render(),
            full.render()
        );
        assert!(
            count <= 2 * (volts.len() + widths.len()),
            "{label}: {count} writes"
        );
        count
    }

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
    fn symbols_cover_all_cases() {
        assert_eq!(ShmooPoint::Pass.symbol(), '#');
        assert_eq!(ShmooPoint::FailBoth.symbol(), '.');
        assert_eq!(ShmooPoint::FailOne.symbol(), '0');
        assert_eq!(ShmooPoint::FailZero.symbol(), '1');
        assert!(ShmooPoint::Pass.passes());
        assert!(!ShmooPoint::FailOne.passes());
    }

    /// Every monotone pass map on every grid up to 4×4 (1×n and n×1
    /// included) comes back exactly, within `nv + nt` calls. The maps are
    /// found by brute force over all `2^(nv·nt)` masks, and their count
    /// is checked against the lattice-path count `C(nv + nt, nv)`.
    #[test]
    fn shmoo_walk_finds_every_monotone_map_exactly() {
        for nv in 1..=4usize {
            for nt in 1..=4usize {
                let bit = |iv: usize, it: usize| 1u64 << (iv * nt + it);
                let monotone = |m: u64| {
                    (0..nv).all(|iv| {
                        (0..nt).all(|it| {
                            m & bit(iv, it) == 0
                                || ((iv + 1 == nv || m & bit(iv + 1, it) != 0)
                                    && (it + 1 == nt || m & bit(iv, it + 1) != 0))
                        })
                    })
                };
                let mut maps = 0u64;
                for m in (0..1u64 << (nv * nt)).filter(|&m| monotone(m)) {
                    maps += 1;
                    let mut calls = 0;
                    let got = shmoo_walk_mask(nv, nt, |iv, it| {
                        calls += 1;
                        m & bit(iv, it) != 0
                    });
                    assert_eq!(got, m, "{nv}x{nt} map {m:#b}");
                    assert!(calls <= nv + nt, "{nv}x{nt} map {m:#b}: {calls} calls");
                }
                let paths = (1..=nv as u64).fold(1u64, |c, k| c * (nt as u64 + k) / k);
                assert_eq!(maps, paths, "{nv}x{nt}");
            }
        }
    }

    /// Beyond 64 points the walk reports boundaries, not a mask. On the
    /// bin's 9×8 grid every monotone map (a staircase: per width, the
    /// lowest passing amplitude, not rising with the width) comes back
    /// exactly within `nv + nt` calls, and the count of staircases is
    /// `C(17, 8)`.
    #[test]
    fn shmoo_walk_reports_every_staircase_beyond_64_points() {
        let (nv, nt) = (9usize, 8usize);
        let mut stairs = vec![nv; nt];
        let mut maps = 0u64;
        // Odometer over non-increasing `stairs`, last width fastest.
        'maps: loop {
            maps += 1;
            let mut calls = 0;
            let mut got = vec![usize::MAX; nt];
            shmoo_walk(
                nv,
                nt,
                |iv, it| {
                    calls += 1;
                    Ok::<_, ()>(iv >= stairs[it])
                },
                |it, lowest| got[it] = lowest,
            )
            .unwrap();
            assert_eq!(got, stairs);
            assert!(calls <= nv + nt, "{stairs:?}: {calls} calls");
            for it in (0..nt).rev() {
                if stairs[it] > 0 {
                    stairs[it] -= 1;
                    let top = stairs[it];
                    stairs[it + 1..].fill(top);
                    continue 'maps;
                }
            }
            break;
        }
        assert_eq!(maps, 24_310);
    }

    /// A failing `pass` ends the walk with its error, and no width past
    /// it is reported.
    #[test]
    fn shmoo_walk_stops_at_the_first_error() {
        let mut reported = Vec::new();
        let r = shmoo_walk(
            5,
            4,
            |iv, it| if it == 2 { Err((iv, it)) } else { Ok(iv >= 3) },
            |it, lowest| reported.push((it, lowest)),
        );
        assert_eq!(r, Err((2, 2)));
        assert_eq!(reported, vec![(0, 3), (1, 3)]);
    }

    /// The walk gives the full grid's map on the bin's 9×8 grid in 30
    /// writes instead of 144, and on a 21×15 grid (0.20–1.00 V by
    /// 0.04 V, 0.1–2.9 ns by 0.2 ns) within `2·(nv + nt)` writes.
    #[test]
    fn write_shmoo_matches_the_full_grid() {
        let cell = FefetCell::default();
        let (volts, widths) = bin_grid();
        assert_eq!(
            walk_matches_full_grid("bin grid", &cell, &volts, &widths),
            30
        );
        let volts = grid(0.20, 0.04, 21);
        let widths = grid(0.1e-9, 0.2e-9, 15);
        walk_matches_full_grid("21x15", &cell, &volts, &widths);
    }

    /// The walk's monotonicity assumption also holds on cells away from
    /// the default: a thinner (2.0 nm) and a thicker (2.5 nm)
    /// ferroelectric, a 10 ps time step and a 4× bit-line load.
    #[test]
    fn write_shmoo_matches_the_full_grid_on_variant_cells() {
        let base = FefetCell::default();
        let (volts, widths) = bin_grid();
        let variants = [
            (
                "T_FE 2.0 nm",
                FefetCell {
                    fefet: base.fefet.with_thickness(2.0e-9),
                    ..base
                },
            ),
            (
                "T_FE 2.5 nm",
                FefetCell {
                    fefet: base.fefet.with_thickness(2.5e-9),
                    ..base
                },
            ),
            ("dt 10 ps", FefetCell { dt: 10e-12, ..base }),
            (
                "4x c_bit_line",
                FefetCell {
                    c_bit_line: 4.0 * base.c_bit_line,
                    ..base
                },
            ),
        ];
        for (label, cell) in &variants {
            walk_matches_full_grid(label, cell, &volts, &widths);
        }
    }
}
