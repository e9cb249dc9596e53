//! Temperature dependence of the ferroelectric memory window.
//!
//! In Landau theory the first coefficient is linear in temperature and
//! vanishes at the Curie point: `α(T) = α_ref · (T_C − T)/(T_C − T_ref)`.
//! Everything the paper builds on α — the hysteresis window, the
//! non-volatility boundary, the remnant polarization, retention — softens
//! as the die heats toward `T_C`. This module propagates that scaling
//! through the §3 analyses and finds the temperature at which the
//! 2.25 nm design stops being nonvolatile (its thermal corner).

use crate::fefet::{Fefet, GateBranch};
use crate::retention::RetentionModel;
use fefet_ckt::models::LkParams;

/// Landau-theory temperature scaling of the LK coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Curie temperature (K). Doped-hafnia-class films hold their
    /// ferroelectricity to high temperature; 1100 K is representative.
    pub t_curie: f64,
    /// Temperature at which the reference coefficients were calibrated (K).
    pub t_ref: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel {
            t_curie: 1100.0,
            t_ref: 300.0,
        }
    }
}

impl ThermalModel {
    /// LK coefficients at temperature `t` (K): α scales linearly toward
    /// zero at the Curie point; β, γ, ρ are taken temperature-independent
    /// over the operating range.
    ///
    /// # Panics
    ///
    /// Panics if `t >= t_curie` (the film is paraelectric there; the
    /// linear scaling is no longer meaningful) or `t <= 0`.
    pub fn lk_at(&self, base: &LkParams, t: f64) -> LkParams {
        assert!(t > 0.0, "temperature must be positive");
        assert!(
            t < self.t_curie,
            "at/above the Curie point ({} K) the film is paraelectric",
            self.t_curie
        );
        let scale = (self.t_curie - t) / (self.t_curie - self.t_ref);
        LkParams {
            alpha: base.alpha * scale,
            ..*base
        }
    }

    /// The device re-evaluated at temperature `t` (K).
    pub fn fefet_at(&self, base: &Fefet, t: f64) -> Fefet {
        let mut dev = *base;
        dev.fe.lk = self.lk_at(&base.fe.lk, t);
        dev
    }

    /// The temperature (K) above which `base` loses non-volatility, found
    /// by bisection over `[t_ref, t_hi]`; `None` if it is still
    /// nonvolatile at `t_hi`. Temperature scales only α, never the gate
    /// C-V card, so every probe reads one gate-branch table.
    pub fn volatility_temperature(&self, base: &Fefet, t_hi: f64) -> Option<f64> {
        let states = GateBranch::states(&base.mos);
        if self.fefet_at(base, t_hi).is_nonvolatile_on(&states) {
            return None;
        }
        if !self.fefet_at(base, self.t_ref).is_nonvolatile_on(&states) {
            return Some(self.t_ref);
        }
        let (mut lo, mut hi) = (self.t_ref, t_hi);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if self.fefet_at(base, mid).is_nonvolatile_on(&states) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Retention time (s) at temperature `t` (K), combining the
    /// Arrhenius temperature in the retention model with the softened
    /// barrier.
    pub fn fefet_retention_at(&self, base: &Fefet, t: f64) -> Option<f64> {
        let dev = self.fefet_at(base, t);
        let model = RetentionModel {
            temperature: t,
            ..RetentionModel::default()
        };
        model.fefet_retention_time(&dev.fe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::paper_fefet;

    #[test]
    fn alpha_scales_linearly() {
        let tm = ThermalModel::default();
        let base = LkParams::default();
        let at_ref = tm.lk_at(&base, 300.0);
        assert_eq!(at_ref.alpha, base.alpha);
        let hot = tm.lk_at(&base, 700.0);
        assert!((hot.alpha / base.alpha - 0.5).abs() < 1e-12);
        assert_eq!(hot.beta, base.beta);
    }

    #[test]
    #[should_panic(expected = "paraelectric")]
    fn above_curie_panics() {
        let tm = ThermalModel::default();
        tm.lk_at(&LkParams::default(), 1100.0);
    }

    #[test]
    fn window_shrinks_with_temperature() {
        let tm = ThermalModel::default();
        let base = paper_fefet();
        let w = |t: f64| {
            tm.fefet_at(&base, t)
                .sweep_id_vg(-1.0, 1.0, 300, 0.05)
                .window(0.03)
                .map(|(d, u)| u - d)
                .unwrap_or(0.0)
        };
        let w300 = w(300.0);
        let w360 = w(360.0);
        let w410 = w(410.0);
        assert!(w300 > w360, "window must shrink: {w300} vs {w360}");
        assert!(w360 > w410, "window must keep shrinking: {w360} vs {w410}");
    }

    #[test]
    fn remnant_polarization_decreases_with_temperature() {
        let tm = ThermalModel::default();
        let base = LkParams::default();
        let pr_cold = base.remnant_polarization().unwrap();
        let pr_hot = tm.lk_at(&base, 800.0).remnant_polarization().unwrap();
        assert!(pr_hot < pr_cold);
    }

    #[test]
    fn paper_design_has_a_thermal_corner_above_operating_range() {
        // The 2.25 nm design should survive the usual 358 K (85°C) corner
        // but lose non-volatility somewhere below ~500 K.
        let tm = ThermalModel::default();
        let base = paper_fefet();
        assert!(tm.fefet_at(&base, 358.0).is_nonvolatile(), "85C must work");
        let t_fail = tm
            .volatility_temperature(&base, 600.0)
            .expect("must fail below 600 K");
        assert!(
            (360.0..520.0).contains(&t_fail),
            "thermal corner at {t_fail:.0} K"
        );
    }

    #[test]
    fn thicker_film_raises_the_thermal_corner() {
        let tm = ThermalModel::default();
        let t1 = tm
            .volatility_temperature(&paper_fefet(), 900.0)
            .unwrap_or(900.0);
        let t2 = tm
            .volatility_temperature(&paper_fefet().with_thickness(2.5e-9), 900.0)
            .unwrap_or(900.0);
        assert!(t2 > t1, "2.5 nm corner {t2:.0} K vs 2.25 nm {t1:.0} K");
    }

    #[test]
    fn retention_collapses_with_temperature() {
        let tm = ThermalModel::default();
        let base = paper_fefet();
        let r300 = tm.fefet_retention_at(&base, 300.0).unwrap();
        let r358 = tm.fefet_retention_at(&base, 358.0).unwrap();
        assert!(
            r300 > 10.0 * r358,
            "retention must fall steeply: {r300:.3e} vs {r358:.3e}"
        );
    }
}
