//! Ferroelectric-thickness design-space exploration (paper §3).
//!
//! "We optimize the FE thickness (T_FE) of FEFETs to introduce
//! non-volatility. ... Our analysis shows that T_FE > 1.9 nm is required
//! to retain the polarization in FE."

use crate::fefet::{Fefet, GateBranch};

/// Summary of a single thickness point in the design sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Ferroelectric thickness (m).
    pub t_fe: f64,
    /// True if any hysteresis exists (≥3 static solutions somewhere).
    pub hysteretic: bool,
    /// True if two well-separated states are retained at V_G = 0.
    pub nonvolatile: bool,
    /// Hysteresis window `(v_down, v_up)` from a quasi-static sweep, if a
    /// loop was resolved.
    pub window: Option<(f64, f64)>,
}

/// Evaluates one ferroelectric thickness `t_fe` (m).
pub fn design_point(base: &Fefet, t_fe: f64) -> DesignPoint {
    let dev = base.with_thickness(t_fe);
    // Fold criterion on the polarization axis: robust even when the
    // multivalued voltage band is only millivolts wide (Fig 3's 1.9 nm
    // loop sits just past onset).
    let hysteretic = dev.is_hysteretic(0.6, 2000);
    let nonvolatile = dev.is_nonvolatile();
    let window = if hysteretic {
        dev.sweep_id_vg(-1.2, 1.2, 500, 0.05).window(0.03)
    } else {
        None
    };
    DesignPoint {
        t_fe,
        hysteretic,
        nonvolatile,
        window,
    }
}

/// Sweeps thickness over `[t_lo, t_hi]` (m) with `steps` intervals.
pub fn thickness_sweep(base: &Fefet, t_lo: f64, t_hi: f64, steps: usize) -> Vec<DesignPoint> {
    assert!(t_lo < t_hi && steps >= 1, "thickness_sweep: bad range");
    (0..=steps)
        .map(|i| design_point(base, t_lo + (t_hi - t_lo) * i as f64 / steps as f64))
        .collect()
}

/// The smallest thickness (m) at which the device is nonvolatile,
/// found by bisection between a volatile thickness `t_volatile` and a
/// nonvolatile one `t_nonvolatile` (both in m).
///
/// Returns `None` if the bracket does not actually bracket the boundary.
/// Thickness leaves the gate C-V card alone, so every probe reads one
/// gate-branch table.
pub fn nonvolatility_boundary(base: &Fefet, t_volatile: f64, t_nonvolatile: f64) -> Option<f64> {
    let states = GateBranch::states(&base.mos);
    if base.with_thickness(t_volatile).is_nonvolatile_on(&states)
        || !base
            .with_thickness(t_nonvolatile)
            .is_nonvolatile_on(&states)
    {
        return None;
    }
    let (mut lo, mut hi) = (t_volatile, t_nonvolatile);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if base.with_thickness(mid).is_nonvolatile_on(&states) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::paper_fefet;

    #[test]
    fn boundary_is_just_above_1_9nm() {
        // §3: "T_FE > 1.9nm is required to retain the polarization".
        let t = nonvolatility_boundary(&paper_fefet(), 1.9e-9, 2.25e-9).expect("bracket must hold");
        assert!(
            (1.9e-9..2.1e-9).contains(&t),
            "non-volatility boundary {:.3} nm",
            t * 1e9
        );
    }

    #[test]
    fn boundary_rejects_bad_bracket() {
        assert!(nonvolatility_boundary(&paper_fefet(), 2.25e-9, 2.5e-9).is_none());
        assert!(nonvolatility_boundary(&paper_fefet(), 1.0e-9, 1.5e-9).is_none());
    }

    #[test]
    fn sweep_is_monotone_in_character() {
        // Thin: clean; middle: hysteretic but volatile; thick: nonvolatile.
        let pts = thickness_sweep(&paper_fefet(), 1.0e-9, 2.5e-9, 6);
        assert!(!pts[0].hysteretic);
        assert!(pts.last().unwrap().nonvolatile);
        // Once nonvolatile, stays nonvolatile as thickness grows.
        let first_nv = pts.iter().position(|p| p.nonvolatile).unwrap();
        assert!(pts[first_nv..].iter().all(|p| p.nonvolatile));
        // Hysteresis appears at or before non-volatility.
        let first_h = pts.iter().position(|p| p.hysteretic).unwrap();
        assert!(first_h <= first_nv);
    }

    #[test]
    fn window_widens_with_thickness() {
        let w225 = design_point(&paper_fefet(), 2.25e-9)
            .window
            .map(|(d, u)| u - d)
            .unwrap();
        let w250 = design_point(&paper_fefet(), 2.5e-9)
            .window
            .map(|(d, u)| u - d)
            .unwrap();
        assert!(w250 > w225);
    }

    #[test]
    fn fig4b_fefet_switching_far_below_fecap_coercive_voltage() {
        // §3: the FEFET's series MOSFET cuts the switching voltage well
        // below the stand-alone film's coercive voltage.
        let dev = paper_fefet().with_thickness(2.5e-9);
        let (v_dn, v_up) = design_point(&paper_fefet(), 2.5e-9).window.unwrap();
        let v_cap = dev.fe.coercive_voltage().unwrap();
        assert!(v_cap > 2.0, "2.5nm film V_c = {v_cap:.2}");
        assert!(
            v_up.abs() < 1.0 && v_dn.abs() < 1.0,
            "FEFET loop inside ±1V"
        );
        assert!(v_up < 0.5 * v_cap);
    }
}
