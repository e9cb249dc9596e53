//! FEFET-vs-FERAM comparison (§6.2, Fig 10, Table 3) and the memory
//! parameters handed to the nonvolatile-processor simulator (§7).

use crate::cell::FefetCell;
use crate::feram::FeramCell;
use fefet_ckt::Result;

/// Which memory technology a parameter set describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// The proposed 2T FEFET memory.
    Fefet,
    /// The 1T-1C FERAM baseline.
    Feram,
}

/// NVM macro parameters in the form of the paper's Table 3 (per backup
/// word of the NVP's backup block).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmParams {
    /// Technology.
    pub kind: MemoryKind,
    /// Bit-line write voltage (V).
    pub bit_line_voltage: f64,
    /// Write time (s).
    pub write_time: f64,
    /// Write energy per word (J).
    pub write_energy: f64,
    /// Read energy per word (J).
    pub read_energy: f64,
}

impl NvmParams {
    /// Table 3 FEFET column: 0.68 V, 0.55 ns, 4.82 pJ, 0.28 pJ.
    pub fn paper_fefet() -> Self {
        NvmParams {
            kind: MemoryKind::Fefet,
            bit_line_voltage: 0.68,
            write_time: 0.55e-9,
            write_energy: 4.82e-12,
            read_energy: 0.28e-12,
        }
    }

    /// Table 3 FERAM column: 1.64 V, 0.55 ns, 15.0 pJ, 15.5 pJ.
    pub fn paper_feram() -> Self {
        NvmParams {
            kind: MemoryKind::Feram,
            bit_line_voltage: 1.64,
            write_time: 0.55e-9,
            write_energy: 15.0e-12,
            read_energy: 15.5e-12,
        }
    }
}

/// One point of the Fig 10(a) write-time-vs-voltage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePoint {
    /// Bit-line voltage magnitude (V).
    pub voltage: f64,
    /// Cell write time (worst polarity), or `None` on write failure.
    pub write_time: Option<f64>,
    /// Driver energy of the worst-polarity write (J).
    pub energy: f64,
}

/// Sweeps FEFET cell write time/energy vs bit-line voltage (Fig 10).
///
/// For each voltage the cell is exercised in both polarities with a
/// generous pulse; the reported time is the slower of the two (a write
/// must work for both data values).
///
/// # Errors
///
/// As for [`FefetCell::write`]: a cell that cannot store data, before
/// anything is simulated; simulator convergence failures.
pub fn fefet_write_sweep(cell: &FefetCell, voltages: &[f64]) -> Result<Vec<WritePoint>> {
    let states = cell.checked_memory_states()?;
    voltages
        .iter()
        .map(|&v| fefet_write_point(cell, states, v))
        .collect()
}

/// Sweeps FERAM cell write time/energy vs write voltage (Fig 10).
///
/// # Errors
///
/// As for [`FeramCell::write`]: a paraelectric film, before anything
/// is simulated; simulator convergence failures.
pub fn feram_write_sweep(cell: &FeramCell, voltages: &[f64]) -> Result<Vec<WritePoint>> {
    let states = cell.checked_memory_states()?;
    voltages
        .iter()
        .map(|&v| feram_write_point(cell, states, v))
        .collect()
}

/// Width (s) of the generous write pulse both sweeps apply.
const SWEEP_PULSE: f64 = 4e-9;

/// One FEFET sweep point at bit-line voltage `v` (V), for a cell whose
/// memory states are `(p_lo, p_hi)` (C/m²).
fn fefet_write_point(cell: &FefetCell, (p_lo, p_hi): (f64, f64), v: f64) -> Result<WritePoint> {
    let mut c = *cell;
    c.bias.v_write = v;
    // Keep the boost a fixed headroom above the bit-line level.
    c.bias.v_boost = v + 0.72;
    let w1 = c.write(true, p_lo, SWEEP_PULSE)?;
    let w0 = c.write(false, p_hi, SWEEP_PULSE)?;
    Ok(worst_polarity(
        v,
        (w1.switch_time, w1.energy),
        (w0.switch_time, w0.energy),
    ))
}

/// One FERAM sweep point at write voltage `v` (V), for a cell whose
/// memory states are `(p_lo, p_hi)` (C/m²).
fn feram_write_point(cell: &FeramCell, (p_lo, p_hi): (f64, f64), v: f64) -> Result<WritePoint> {
    let mut c = *cell;
    c.v_write = v;
    c.v_wordline = v + 0.66;
    let w1 = c.write(true, p_lo, SWEEP_PULSE)?;
    let w0 = c.write(false, p_hi, SWEEP_PULSE)?;
    Ok(worst_polarity(
        v,
        (w1.switch_time, w1.energy),
        (w0.switch_time, w0.energy),
    ))
}

/// The sweep point at voltage `v` of a '1' write and a '0' write, each
/// given as (switch time (s), energy (J)): the slower write time (none
/// if either write failed) and the larger energy.
fn worst_polarity(
    v: f64,
    (t1, e1): (Option<f64>, f64),
    (t0, e0): (Option<f64>, f64),
) -> WritePoint {
    let write_time = match (t1, t0) {
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    };
    WritePoint {
        voltage: v,
        write_time,
        energy: e1.max(e0),
    }
}

/// Finds the lowest voltage (within `v_grid`) whose write time meets
/// `t_target` (s) — the iso-write-time operating point of Table 3.
pub fn iso_write_voltage(points: &[WritePoint], t_target: f64) -> Option<WritePoint> {
    points
        .iter()
        .filter(|p| meets(p, t_target))
        .min_by(|a, b| a.voltage.total_cmp(&b.voltage))
        .copied()
}

/// True if the point wrote both polarities within `t_target` (s).
fn meets(p: &WritePoint, t_target: f64) -> bool {
    p.write_time.is_some_and(|t| t <= t_target)
}

/// [`iso_write_voltage`] on the ascending voltage `grid` (V) without
/// sweeping it: a bisection that evaluates `point` (the sweep point at
/// a voltage) at no more than `⌈log2(n + 1)⌉` of the `n` grid
/// voltages, 4 of a 15-point grid. Exact if meeting `t_target` (s) is
/// monotone along the grid: every voltage above one that meets it
/// meets it too.
fn bisect_iso_point(
    grid: &[f64],
    t_target: f64,
    mut point: impl FnMut(f64) -> Result<WritePoint>,
) -> Result<Option<WritePoint>> {
    // `grid[..lo]` misses the target and `grid[hi..]` meets it; `found`
    // is the point at `hi` once one was evaluated.
    let (mut lo, mut hi) = (0, grid.len());
    let mut found = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let p = point(grid[mid])?;
        if meets(&p, t_target) {
            hi = mid;
            found = Some(p);
        } else {
            lo = mid + 1;
        }
    }
    Ok(found)
}

/// The bit-line voltages (V) [`iso_comparison`] searches for each
/// memory's operating point: 15 points each, FEFET 0.40–0.96 V and
/// FERAM 1.30–2.14 V.
fn iso_grids() -> (Vec<f64>, Vec<f64>) {
    (
        (0..=14).map(|i| 0.40 + 0.04 * i as f64).collect(),
        (0..=14).map(|i| 1.30 + 0.06 * i as f64).collect(),
    )
}

/// The Table 3 comparison produced from simulation: both memories at
/// iso-write-time `t_target`, with per-word (×`word_bits`) energies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoComparison {
    /// FEFET operating point.
    pub fefet: NvmParams,
    /// FERAM operating point.
    pub feram: NvmParams,
    /// Write-voltage reduction, as a fraction (paper: 58.5 %).
    pub voltage_reduction: f64,
    /// Write-energy reduction, as a fraction (paper: 67.7 %).
    pub write_energy_reduction: f64,
}

/// Runs the full iso-write-time comparison at write time `t_target`
/// (s), 550 ps in the paper, for a backup word of `word_bits` bits.
///
/// Each memory's operating point is the lowest voltage of its 15-point
/// grid whose write meets `t_target`, found by bisection: 4 sweep
/// points per memory instead of 15. That equals the full sweep's
/// [`iso_write_voltage`] when a cell's write time does not rise with
/// the write voltage and a write that meets the target at one voltage
/// still works at every higher one. Fig 10 shows this shape, and the
/// tests check the bisection against the full sweep on the Table 3 and
/// Fig 10 grids at four targets.
///
/// # Errors
///
/// As for [`FefetCell::write`] and [`FeramCell::write`] (a cell that
/// cannot store data is refused before anything is simulated);
/// simulator convergence failures; a netlist error if either memory
/// cannot meet the target time on the swept grid.
pub fn iso_comparison(
    fefet: &FefetCell,
    feram: &FeramCell,
    t_target: f64,
    word_bits: usize,
) -> Result<IsoComparison> {
    let (fefet_grid, feram_grid) = iso_grids();
    let (p_lo_f, p_hi_f) = fefet.checked_memory_states()?;
    let (p_lo_r, p_hi_r) = feram.checked_memory_states()?;
    let f_op = bisect_iso_point(&fefet_grid, t_target, |v| {
        fefet_write_point(fefet, (p_lo_f, p_hi_f), v)
    })?
    .ok_or_else(|| {
        fefet_ckt::CktError::Netlist("FEFET cannot meet the target write time".into())
    })?;
    let r_op = bisect_iso_point(&feram_grid, t_target, |v| {
        feram_write_point(feram, (p_lo_r, p_hi_r), v)
    })?
    .ok_or_else(|| {
        fefet_ckt::CktError::Netlist("FERAM cannot meet the target write time".into())
    })?;

    // Per-word energies: cell-level writes per bit, plus a FERAM read is
    // destructive so its read costs a development + write-back; the FEFET
    // read only spends the sensing path energy.
    let n = word_bits as f64;
    let mut fefet_rd = *fefet;
    fefet_rd.bias.v_write = f_op.voltage;
    let fefet_read = fefet_rd.read(p_hi_f, 1.5e-9)?.energy + fefet_rd.read(p_lo_f, 1.5e-9)?.energy;
    let fefet_read = 0.5 * fefet_read; // average over data values

    let mut feram_rd = *feram;
    feram_rd.v_write = r_op.voltage;
    feram_rd.v_wordline = r_op.voltage + 0.66;
    let (_, _, e_read1) = feram_rd.read_with_writeback(p_hi_r, 2e-9, t_target * 2.0)?;
    let (_, _, e_read0) = feram_rd.read_with_writeback(p_lo_r, 2e-9, t_target * 2.0)?;
    let feram_read = 0.5 * (e_read1 + e_read0);

    // The bisection only selects points with a measured write time,
    // but keep the failure typed rather than trusting that invariant.
    let f_time = f_op.write_time.ok_or_else(|| {
        fefet_ckt::CktError::Netlist("FEFET operating point lost its write time".into())
    })?;
    let r_time = r_op.write_time.ok_or_else(|| {
        fefet_ckt::CktError::Netlist("FERAM operating point lost its write time".into())
    })?;
    let fefet_params = NvmParams {
        kind: MemoryKind::Fefet,
        bit_line_voltage: f_op.voltage,
        write_time: f_time,
        write_energy: n * f_op.energy,
        read_energy: n * fefet_read,
    };
    let feram_params = NvmParams {
        kind: MemoryKind::Feram,
        bit_line_voltage: r_op.voltage,
        write_time: r_time,
        write_energy: n * r_op.energy,
        read_energy: n * feram_read,
    };
    Ok(IsoComparison {
        voltage_reduction: 1.0 - fefet_params.bit_line_voltage / feram_params.bit_line_voltage,
        write_energy_reduction: 1.0 - fefet_params.write_energy / feram_params.write_energy,
        fefet: fefet_params,
        feram: feram_params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_constants() {
        let f = NvmParams::paper_fefet();
        let r = NvmParams::paper_feram();
        assert_eq!(f.bit_line_voltage, 0.68);
        assert_eq!(r.bit_line_voltage, 1.64);
        assert_eq!(f.write_time, r.write_time);
        // Published reductions: 58.5 % voltage, ≈67.7 % write energy.
        assert!((1.0 - f.bit_line_voltage / r.bit_line_voltage - 0.585).abs() < 0.01);
        assert!((1.0 - f.write_energy / r.write_energy - 0.677).abs() < 0.02);
        // Read asymmetry: destructive FERAM read ≈ write energy.
        assert!(r.read_energy > 0.9 * r.write_energy);
        assert!(f.read_energy < 0.1 * f.write_energy);
    }

    #[test]
    fn fig10a_fefet_time_decreases_with_voltage_and_fails_low() {
        let cell = FefetCell::default();
        let pts = fefet_write_sweep(&cell, &[0.2, 0.55, 0.68, 0.9]).unwrap();
        // 0.2 V is below the down-switch fold: must fail.
        assert!(pts[0].write_time.is_none(), "0.2 V should fail");
        let t55 = pts[1].write_time.expect("0.55 V works");
        let t68 = pts[2].write_time.expect("0.68 V works");
        let t90 = pts[3].write_time.expect("0.9 V works");
        assert!(t68 < t55);
        assert!(t90 < t68);
    }

    #[test]
    fn fig10a_feram_needs_much_higher_voltage() {
        let cell = FeramCell::default();
        let pts = feram_write_sweep(&cell, &[1.0, 1.4, 1.64, 2.0]).unwrap();
        assert!(pts[0].write_time.is_none(), "1.0 V must fail (below V_c)");
        let t164 = pts[2].write_time.expect("1.64 V works");
        assert!(
            (0.3e-9..0.9e-9).contains(&t164),
            "1.64 V write in {:.2} ns",
            t164 * 1e9
        );
        let t2 = pts[3].write_time.unwrap();
        assert!(t2 < t164);
    }

    #[test]
    fn iso_write_voltage_selects_minimum() {
        let pts = vec![
            WritePoint {
                voltage: 0.5,
                write_time: None,
                energy: 1.0,
            },
            WritePoint {
                voltage: 0.6,
                write_time: Some(0.8e-9),
                energy: 2.0,
            },
            WritePoint {
                voltage: 0.7,
                write_time: Some(0.5e-9),
                energy: 3.0,
            },
            WritePoint {
                voltage: 0.8,
                write_time: Some(0.3e-9),
                energy: 4.0,
            },
        ];
        let op = iso_write_voltage(&pts, 0.55e-9).unwrap();
        assert_eq!(op.voltage, 0.7);
        assert!(iso_write_voltage(&pts[..2], 0.1e-9).is_none());
    }

    /// The bisection selects the full sweep's [`iso_write_voltage`]
    /// point bit for bit, on the Table 3 grids and on the Fig 10 grids,
    /// at four target times, evaluating at most 4 grid points.
    #[test]
    fn bisection_matches_the_full_sweep() {
        let fefet = FefetCell::default();
        let feram = FeramCell::default();
        let (fefet_iso, feram_iso) = iso_grids();
        let fefet_fig10: Vec<f64> = (0..=12).map(|i| 0.20 + 0.075 * i as f64).collect();
        let feram_fig10: Vec<f64> = (0..=12).map(|i| 1.00 + 0.10 * i as f64).collect();
        let fefet_states = fefet.checked_memory_states().unwrap();
        let feram_states = feram.checked_memory_states().unwrap();
        let fefet_point = |v| fefet_write_point(&fefet, fefet_states, v);
        let feram_point = |v| feram_write_point(&feram, feram_states, v);
        type Point<'a> = &'a dyn Fn(f64) -> Result<WritePoint>;
        let cases: [(&str, &[f64], Vec<WritePoint>, Point); 4] = [
            (
                "FEFET Table 3",
                &fefet_iso,
                fefet_write_sweep(&fefet, &fefet_iso).unwrap(),
                &fefet_point,
            ),
            (
                "FERAM Table 3",
                &feram_iso,
                feram_write_sweep(&feram, &feram_iso).unwrap(),
                &feram_point,
            ),
            (
                "FEFET Fig 10",
                &fefet_fig10,
                fefet_write_sweep(&fefet, &fefet_fig10).unwrap(),
                &fefet_point,
            ),
            (
                "FERAM Fig 10",
                &feram_fig10,
                feram_write_sweep(&feram, &feram_fig10).unwrap(),
                &feram_point,
            ),
        ];
        for (label, grid, swept, point) in cases {
            for t_target in [0.4e-9, 0.55e-9, 0.8e-9, 1.0e-9] {
                let mut evaluated = 0;
                let got = bisect_iso_point(grid, t_target, |v| {
                    evaluated += 1;
                    point(v)
                })
                .unwrap();
                assert_eq!(
                    got,
                    iso_write_voltage(&swept, t_target),
                    "{label} at {:.2} ns",
                    t_target * 1e9
                );
                assert!(evaluated <= 4, "{label}: {evaluated} points");
            }
        }
    }

    /// Bisection over a synthetic grid: every boundary position (none,
    /// all, and each one between) is found, failed writes count as
    /// missing the target, and a 15-point grid costs exactly 4 points.
    #[test]
    fn bisection_finds_every_boundary() {
        let grid: Vec<f64> = (0..15).map(|i| i as f64).collect();
        for boundary in 0..=15usize {
            let point = |v: f64| {
                Ok(WritePoint {
                    voltage: v,
                    // Below the boundary: a failed write, or one too slow.
                    write_time: match v as usize {
                        i if i >= boundary => Some(1.0),
                        i if i % 2 == 0 => None,
                        _ => Some(2.0),
                    },
                    energy: v,
                })
            };
            let mut evaluated = 0;
            let got = bisect_iso_point(&grid, 1.5, |v| {
                evaluated += 1;
                point(v)
            })
            .unwrap();
            assert_eq!(
                got.map(|p| p.voltage as usize),
                (boundary < 15).then_some(boundary)
            );
            assert_eq!(evaluated, 4, "boundary {boundary}");
        }
        let err = bisect_iso_point(&grid, 1.5, |_| {
            Err(fefet_ckt::CktError::Netlist("no convergence".into()))
        });
        assert!(err.is_err());
    }

    #[test]
    fn table3_shape_reproduced_from_simulation() {
        let cmp = iso_comparison(&FefetCell::default(), &FeramCell::default(), 0.8e-9, 32).unwrap();
        // Who wins and by roughly what factor (shape, not absolutes):
        assert!(
            cmp.fefet.bit_line_voltage < 0.55 * cmp.feram.bit_line_voltage,
            "voltage: {} vs {}",
            cmp.fefet.bit_line_voltage,
            cmp.feram.bit_line_voltage
        );
        assert!(
            cmp.write_energy_reduction > 0.4,
            "write energy reduction {:.2}",
            cmp.write_energy_reduction
        );
        assert!(
            cmp.fefet.read_energy < 0.5 * cmp.feram.read_energy,
            "read energies {:.3e} vs {:.3e}",
            cmp.fefet.read_energy,
            cmp.feram.read_energy
        );
    }
}
