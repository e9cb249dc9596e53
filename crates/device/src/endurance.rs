//! Endurance (fatigue and imprint) of the ferroelectric memory window.
//!
//! The paper's introduction motivates FE memories with FERAM's "high
//! endurance" and faults ReRAM/PCM for lacking it. Ferroelectric films
//! nevertheless degrade with write cycling through two well-documented
//! phenomenological channels:
//!
//! - **fatigue** — remnant polarization loss, roughly logarithmic in the
//!   cycle count beyond an onset;
//! - **imprint** — a preferred-state bias that shifts the loop along the
//!   voltage axis, eroding the margin of the opposite state.
//!
//! This module maps a cycle count to degraded LK coefficients (scaling β
//! upward to shrink P_r, adding a field offset for imprint) and
//! re-evaluates the §3 memory criteria, yielding cycles-to-failure — the
//! quantity a system architect trades against the NVP's backup rate.

use crate::fefet::Fefet;
use fefet_ckt::models::LkParams;

/// Phenomenological endurance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    /// Cycle count (dimensionless) at which fatigue onset begins.
    pub fatigue_onset: f64,
    /// Fraction of P_r lost per decade of cycles beyond onset.
    pub fatigue_per_decade: f64,
    /// Imprint field accumulated per decade of cycles (V/m).
    pub imprint_per_decade: f64,
}

impl Default for EnduranceModel {
    /// Representative doped-hafnia-class numbers: fatigue onset at 10⁶
    /// cycles, ≈4 % P_r per decade, and a slowly accumulating imprint.
    fn default() -> Self {
        EnduranceModel {
            fatigue_onset: 1e6,
            fatigue_per_decade: 0.04,
            imprint_per_decade: 6e6,
        }
    }
}

/// LK coefficients plus an imprint field offset after cycling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycledFilm {
    /// Degraded coefficients.
    pub lk: LkParams,
    /// Imprint offset field (V/m) added to the film's effective E.
    pub imprint_field: f64,
}

impl EnduranceModel {
    /// The film state after `cycles` bipolar write cycles.
    ///
    /// Fatigue shrinks P_r by scaling β upward (P_r² ≈ −α/β to first
    /// order); imprint accumulates as a field offset.
    ///
    /// # Panics
    ///
    /// Panics if `cycles < 1` (dimensionless cycle count).
    pub fn cycled(&self, base: &LkParams, cycles: f64) -> CycledFilm {
        assert!(cycles >= 1.0, "cycled: cycle count must be >= 1");
        let decades = (cycles / self.fatigue_onset).max(1.0).log10();
        let pr_scale = (1.0 - self.fatigue_per_decade * decades).max(0.1);
        // P_r ∝ sqrt(-α/β): scaling β by 1/pr_scale² scales P_r by pr_scale.
        let lk = LkParams {
            beta: base.beta / (pr_scale * pr_scale),
            gamma: base.gamma / (pr_scale * pr_scale * pr_scale * pr_scale),
            ..*base
        };
        CycledFilm {
            lk,
            imprint_field: self.imprint_per_decade * decades,
        }
    }

    /// The device after `cycles` write cycles (dimensionless): fatigue
    /// is applied to the gate ferroelectric; the imprint offset (V) is
    /// reported separately since it acts as a bias.
    pub fn fefet_after(&self, base: &Fefet, cycles: f64) -> (Fefet, f64) {
        let film = self.cycled(&base.fe.lk, cycles);
        let mut dev = *base;
        dev.fe.lk = film.lk;
        // The imprint offset referred to the gate: E_imprint · T_FE.
        (dev, film.imprint_field * dev.fe.thickness)
    }

    /// True if the device still functions as a memory after `cycles`
    /// write cycles (dimensionless): nonvolatile and with both states'
    /// margins exceeding the imprint offset.
    pub fn survives(&self, base: &Fefet, cycles: f64) -> bool {
        let (dev, v_imprint) = self.fefet_after(base, cycles);
        if !dev.is_nonvolatile() {
            return false;
        }
        // Margin: the hysteresis window must still enclose 0 with room
        // for the imprint shift in either direction.
        match dev.sweep_id_vg(-1.2, 1.2, 150, 0.05).window(0.03) {
            Some((v_dn, v_up)) => v_up > v_imprint && -v_dn > v_imprint,
            None => false,
        }
    }

    /// Cycles-to-failure by bisection on a log grid between `lo` and
    /// `hi` cycle counts (dimensionless); `None` if the device survives
    /// `hi`.
    pub fn cycles_to_failure(&self, base: &Fefet, lo: f64, hi: f64) -> Option<f64> {
        if self.survives(base, hi) {
            return None;
        }
        if !self.survives(base, lo) {
            return Some(lo);
        }
        let (mut llo, mut lhi) = (lo.log10(), hi.log10());
        for _ in 0..14 {
            let mid = 0.5 * (llo + lhi);
            if self.survives(base, 10f64.powf(mid)) {
                llo = mid;
            } else {
                lhi = mid;
            }
        }
        Some(10f64.powf(0.5 * (llo + lhi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::paper_fefet;

    #[test]
    fn fresh_film_is_unchanged() {
        let m = EnduranceModel::default();
        let base = LkParams::default();
        let f = m.cycled(&base, 1.0);
        assert_eq!(f.lk, base);
        assert_eq!(f.imprint_field, 0.0);
    }

    #[test]
    fn fatigue_shrinks_remnant_polarization() {
        let m = EnduranceModel::default();
        let base = LkParams::default();
        let pr0 = base.remnant_polarization().unwrap();
        let f = m.cycled(&base, 1e10);
        let pr = f.lk.remnant_polarization().unwrap();
        // 4 decades past onset: ≈16 % loss.
        assert!(pr < pr0, "{pr} vs {pr0}");
        assert!((pr / pr0 - 0.84).abs() < 0.03, "ratio {}", pr / pr0);
    }

    #[test]
    fn imprint_accumulates_logarithmically() {
        let m = EnduranceModel::default();
        let base = LkParams::default();
        let f8 = m.cycled(&base, 1e8);
        let f10 = m.cycled(&base, 1e10);
        assert!(f10.imprint_field > f8.imprint_field);
        assert!((f10.imprint_field - 2.0 * f8.imprint_field).abs() < 1e-6 * f10.imprint_field);
    }

    #[test]
    fn paper_design_survives_feram_class_cycling() {
        // 10^10 cycles — well past the NVP's lifetime backup count.
        let m = EnduranceModel::default();
        assert!(m.survives(&paper_fefet(), 1e10));
    }

    #[test]
    fn device_eventually_fails() {
        let m = EnduranceModel::default();
        let n = m
            .cycles_to_failure(&paper_fefet(), 1e6, 1e18)
            .expect("must fail somewhere before 1e18");
        assert!(n > 1e9, "fails too early: {n:.2e}");
        // Repeatability of the bisection.
        let n2 = m.cycles_to_failure(&paper_fefet(), 1e6, 1e18).unwrap();
        assert!((n.log10() - n2.log10()).abs() < 1e-6);
    }

    #[test]
    fn harsher_model_fails_sooner() {
        let soft = EnduranceModel::default();
        let harsh = EnduranceModel {
            fatigue_per_decade: 0.10,
            imprint_per_decade: 3e7,
            ..soft
        };
        let dev = paper_fefet();
        let n_soft = soft.cycles_to_failure(&dev, 1e6, 1e18).unwrap_or(1e18);
        let n_harsh = harsh.cycles_to_failure(&dev, 1e6, 1e18).unwrap_or(1e18);
        assert!(n_harsh < n_soft, "{n_harsh:.2e} vs {n_soft:.2e}");
    }

    #[test]
    #[should_panic(expected = "cycle count must be >= 1")]
    fn zero_cycles_panics() {
        EnduranceModel::default().cycled(&LkParams::default(), 0.0);
    }
}
