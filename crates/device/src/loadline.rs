//! Load-line analysis (paper Fig 4a): charge versus voltage for the
//! ferroelectric and for the underlying MOSFET gate.
//!
//! "Hysteresis is introduced in the device characteristics when there are
//! two different points of intersection in the load line plot" — with the
//! S-shaped ferroelectric Q-V, the count of intersections with the MOSFET
//! charge line decides hysteresis: one intersection per gate voltage
//! means a single-valued transfer curve; three means bistability.

use crate::fefet::{Fefet, GateBranch};

/// One point of a Q-V curve (charge density vs voltage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QvPoint {
    /// Voltage across the element (V).
    pub v: f64,
    /// Charge density (C/m²).
    pub q: f64,
}

/// The ferroelectric Q-V S-curve, parameterized by polarization:
/// `(v, q) = (T_FE·E_static(P), P)` over `P ∈ [-p_max, p_max]` (C/m²).
pub fn fe_s_curve(dev: &Fefet, p_max: f64, n: usize) -> Vec<QvPoint> {
    assert!(n >= 2, "fe_s_curve: need n >= 2");
    (0..=n)
        .map(|i| {
            let p = -p_max + 2.0 * p_max * i as f64 / n as f64;
            QvPoint {
                v: dev.fe.v_static(p),
                q: p,
            }
        })
        .collect()
}

/// The MOSFET load line in the (V_FE, Q) plane for applied gate
/// voltage `v_g` (V): the charge the MOSFET holds when the
/// ferroelectric drops `v`, i.e. `q = Q_MOS(v_g − v)`.
pub fn mos_load_line(dev: &Fefet, v_g: f64, v_range: (f64, f64), n: usize) -> Vec<QvPoint> {
    assert!(n >= 2, "mos_load_line: need n >= 2");
    let (lo, hi) = v_range;
    (0..=n)
        .map(|i| {
            let v = lo + (hi - lo) * i as f64 / n as f64;
            QvPoint {
                v,
                q: dev.mos.q_gate_density(v_g - v),
            }
        })
        .collect()
}

/// Polarization half-range (C/m²) and grid intervals of the
/// intersection scan.
const SCAN_P_MAX: f64 = 0.9;
const SCAN_GRID: usize = 6000;

/// Counts intersections between the ferroelectric S-curve and the
/// MOSFET load line at gate voltage `v_g` (V) — i.e. the number of
/// static solutions of the series stack. One = single-valued; three =
/// hysteretic.
pub fn intersection_count(dev: &Fefet, v_g: f64) -> usize {
    // Solutions of v_gate_static(P) = v_g; reuse the equilibrium scan.
    dev.equilibria(v_g, SCAN_P_MAX, SCAN_GRID).len()
}

/// The largest number of simultaneous intersections over the
/// gate-voltage range `[v_lo, v_hi]` (V) — 1 for a hysteresis-free
/// design, ≥3 for a hysteretic one. Every gate voltage scans one
/// gate-branch table, so each count equals [`intersection_count`]'s.
pub fn max_intersections(dev: &Fefet, v_lo: f64, v_hi: f64, steps: usize) -> usize {
    assert!(steps >= 1, "max_intersections: need steps");
    let branch = GateBranch::new(&dev.mos, SCAN_P_MAX, SCAN_GRID);
    (0..=steps)
        .map(|i| {
            let v = v_lo + (v_hi - v_lo) * i as f64 / steps as f64;
            dev.equilibria_on(&branch, v).len()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::paper_fefet;

    #[test]
    fn fig4a_1nm_single_intersection_everywhere() {
        let dev = paper_fefet().with_thickness(1.0e-9);
        assert_eq!(max_intersections(&dev, -1.0, 1.0, 80), 1);
    }

    #[test]
    fn fig4a_2_25nm_three_intersections_somewhere() {
        let dev = paper_fefet();
        assert!(max_intersections(&dev, -1.0, 1.0, 80) >= 3);
        // At zero bias specifically (the memory condition).
        assert!(intersection_count(&dev, 0.0) >= 3);
    }

    #[test]
    fn s_curve_has_negative_slope_region() {
        let dev = paper_fefet();
        let pts = fe_s_curve(&dev, 0.6, 600);
        let mut falling = false;
        for w in pts.windows(2) {
            if w[1].v < w[0].v {
                falling = true;
            }
        }
        assert!(falling, "FE S-curve must have an NC branch");
    }

    #[test]
    fn s_curve_is_odd_symmetric() {
        let dev = paper_fefet();
        let pts = fe_s_curve(&dev, 0.5, 100);
        let n = pts.len();
        for i in 0..n {
            let a = pts[i];
            let b = pts[n - 1 - i];
            assert!((a.v + b.v).abs() < 1e-9);
            assert!((a.q + b.q).abs() < 1e-12);
        }
    }

    #[test]
    fn load_line_monotone_decreasing_in_v() {
        // Higher FE drop leaves less voltage on the MOSFET: q decreases.
        let dev = paper_fefet();
        let pts = mos_load_line(&dev, 0.5, (-2.0, 2.0), 200);
        for w in pts.windows(2) {
            assert!(w[1].q <= w[0].q + 1e-15);
        }
    }

    #[test]
    fn load_line_shifts_with_gate_voltage() {
        let dev = paper_fefet();
        let a = mos_load_line(&dev, 0.0, (0.0, 0.0), 2);
        let b = mos_load_line(&dev, 1.0, (0.0, 0.0), 2);
        assert!(b[0].q > a[0].q, "higher V_G holds more charge");
    }
}
