//! Landau-Khalatnikov (LK) ferroelectric model.
//!
//! The ferroelectric is described by the time-dependent LK equation from
//! the paper (eq. 1):
//!
//! ```text
//! E = α P + β P³ + γ P⁵ + ρ dP/dt
//! ```
//!
//! with `P` the polarization (C/m²), `E` the electric field (V/m), and the
//! Table 2 coefficients as defaults:
//! `α = -7e9 m/F`, `β = 3.3e10 m⁵/F/C²`, `γ = -0.2e10 m⁹/F/C⁴`.
//!
//! With these coefficients the stand-alone coercive voltage of a 1 nm film
//! evaluates to ≈1.24 V, matching the paper's statement that "the coercive
//! voltage is as high as 1.26 V even with smaller ferroelectric layer
//! thickness of 1 nm" (§6.2.4).

/// Landau coefficients plus the kinetic (viscosity) coefficient ρ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LkParams {
    /// α (m/F); negative for a ferroelectric double well.
    pub alpha: f64,
    /// β (m⁵/F/C²).
    pub beta: f64,
    /// γ (m⁹/F/C⁴).
    pub gamma: f64,
    /// Kinetic coefficient ρ (Ω·m); sets the polarization switching
    /// speed, calibrated so a 0.68 V write completes in ≈550 ps (Table 3).
    pub rho: f64,
}

impl Default for LkParams {
    /// The paper's Table 2 coefficients with a kinetic coefficient
    /// calibrated to the paper's 550 ps write time at 0.68 V.
    fn default() -> Self {
        LkParams {
            alpha: -7.0e9,
            beta: 3.3e10,
            gamma: -0.2e10,
            rho: 0.308,
        }
    }
}

impl LkParams {
    /// Static field `E(P) = αP + βP³ + γP⁵` (V/m).
    #[inline]
    pub fn e_static(&self, p: f64) -> f64 {
        let p2 = p * p;
        p * (self.alpha + p2 * (self.beta + p2 * self.gamma))
    }

    /// Derivative `dE/dP = α + 3βP² + 5γP⁴` at polarization `p` (C/m²),
    /// in V·m/C: inverse capacitance density times thickness; negative
    /// in the negative-capacitance region.
    #[inline]
    pub fn de_dp(&self, p: f64) -> f64 {
        let p2 = p * p;
        self.alpha + p2 * (3.0 * self.beta + p2 * 5.0 * self.gamma)
    }

    /// Free-energy density `U(P) = α/2 P² + β/4 P⁴ + γ/6 P⁶` (J/m³).
    #[inline]
    pub fn energy_density(&self, p: f64) -> f64 {
        let p2 = p * p;
        p2 * (0.5 * self.alpha + p2 * (0.25 * self.beta + p2 * self.gamma / 6.0))
    }

    /// Remnant polarization: the stable nonzero root of `E(P) = 0`
    /// closest to zero, or `None` if the material is paraelectric.
    pub fn remnant_polarization(&self) -> Option<f64> {
        // E(P)=0, P≠0  =>  γ x² + β x + α = 0 with x = P².
        smallest_stable_root(self.gamma, self.beta, self.alpha, |p| self.de_dp(p))
    }

    /// Coercive field magnitude: |E| at the local extremum of the S-curve
    /// (`dE/dP = 0`), or `None` if the model is monotone (paraelectric).
    pub fn coercive_field(&self) -> Option<f64> {
        // dE/dP = 0 => 5γ x² + 3β x + α = 0 with x = P².
        let x = positive_quadratic_roots(5.0 * self.gamma, 3.0 * self.beta, self.alpha)
            .into_iter()
            .reduce(f64::min)?;
        let p = x.sqrt();
        Some(self.e_static(p).abs())
    }

    /// Polarization magnitude at the coercive point (the unstable knee of
    /// the S-curve).
    pub fn coercive_polarization(&self) -> Option<f64> {
        let x = positive_quadratic_roots(5.0 * self.gamma, 3.0 * self.beta, self.alpha)
            .into_iter()
            .reduce(f64::min)?;
        Some(x.sqrt())
    }

    /// Energy barrier between a remnant well and the P=0 saddle (J/m³);
    /// `None` for a paraelectric.
    pub fn barrier_density(&self) -> Option<f64> {
        let pr = self.remnant_polarization()?;
        Some(-self.energy_density(pr))
    }
}

/// Positive real roots of `a x² + b x + c = 0` (handles the degenerate
/// linear case `a == 0`).
fn positive_quadratic_roots(a: f64, b: f64, c: f64) -> Vec<f64> {
    let mut out = Vec::new();
    if a == 0.0 {
        if b != 0.0 {
            let x = -c / b;
            if x > 0.0 {
                out.push(x);
            }
        }
        return out;
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return out;
    }
    let sq = disc.sqrt();
    for x in [(-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)] {
        if x > 0.0 {
            out.push(x);
        }
    }
    out
}

fn smallest_stable_root<F>(a: f64, b: f64, c: f64, de_dp: F) -> Option<f64>
where
    F: Fn(f64) -> f64,
{
    let mut best: Option<f64> = None;
    for x in positive_quadratic_roots(a, b, c) {
        let p = x.sqrt();
        if de_dp(p) > 0.0 {
            best = Some(match best {
                Some(b0) => b0.min(p),
                None => p,
            });
        }
    }
    best
}

/// A ferroelectric capacitor: LK material, film thickness and plate area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeCapParams {
    /// Material/kinetic coefficients.
    pub lk: LkParams,
    /// Film thickness `T_FE` (m).
    pub thickness: f64,
    /// Plate area (m²).
    pub area: f64,
}

impl FeCapParams {
    /// Ferroelectric capacitor with the paper's default material and
    /// the given `thickness` (m) and `area` (m²).
    pub fn new(thickness: f64, area: f64) -> Self {
        FeCapParams {
            lk: LkParams::default(),
            thickness,
            area,
        }
    }

    /// Static voltage (V) across the film at polarization `p` (C/m²):
    /// `T_FE · E(P)`.
    #[inline]
    pub fn v_static(&self, p: f64) -> f64 {
        self.thickness * self.lk.e_static(p)
    }

    /// `dV/dP` (V·m²/C) at polarization `p` (C/m²).
    #[inline]
    pub fn dv_dp(&self, p: f64) -> f64 {
        self.thickness * self.lk.de_dp(p)
    }

    /// Series "viscosity" resistance `T_FE · ρ / A` seen by the terminal
    /// current (`V = V_static(P) + T_FE·ρ·(dP/dt)`, `I = A·dP/dt`).
    #[inline]
    pub fn series_resistance(&self) -> f64 {
        self.thickness * self.lk.rho / self.area
    }

    /// Stand-alone coercive voltage `T_FE · E_c`, or `None` if paraelectric.
    pub fn coercive_voltage(&self) -> Option<f64> {
        self.lk.coercive_field().map(|e| e * self.thickness)
    }

    /// Small-signal capacitance density at polarization `p` (F/m²);
    /// negative in the NC region.
    pub fn capacitance_density(&self, p: f64) -> f64 {
        1.0 / (self.thickness * self.lk.de_dp(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> LkParams {
        LkParams::default()
    }

    #[test]
    fn e_static_is_odd() {
        let lk = paper();
        for p in [0.1, 0.25, 0.4637] {
            assert!((lk.e_static(p) + lk.e_static(-p)).abs() < 1e-3);
        }
        assert_eq!(lk.e_static(0.0), 0.0);
    }

    #[test]
    fn remnant_polarization_matches_analytic() {
        // γ x² + β x + α = 0 with the paper's coefficients:
        // x = 0.215..., P_r = 0.4637... C/m² (≈46 µC/cm², PZT-class).
        let pr = paper().remnant_polarization().unwrap();
        assert!((pr - 0.4637).abs() < 5e-3, "P_r = {pr}");
        // It must actually be a zero of E and a stable well.
        assert!(paper().e_static(pr).abs() < 1.0);
        assert!(paper().de_dp(pr) > 0.0);
    }

    #[test]
    fn coercive_field_matches_paper_feram_claim() {
        // E_c·1nm ≈ 1.24-1.26 V per §6.2.4.
        let ec = paper().coercive_field().unwrap();
        let vc_1nm = ec * 1e-9;
        assert!(
            (1.15..1.35).contains(&vc_1nm),
            "coercive voltage at 1nm = {vc_1nm}"
        );
    }

    #[test]
    fn coercive_point_is_knee() {
        let lk = paper();
        let pc = lk.coercive_polarization().unwrap();
        assert!(lk.de_dp(pc).abs() < 1e3); // ≈0 at the knee
                                           // Slightly inside/outside the knee the slope changes sign.
        assert!(lk.de_dp(pc * 0.9) < 0.0);
        assert!(lk.de_dp(pc * 1.1) > 0.0);
    }

    #[test]
    fn energy_landscape_double_well() {
        let lk = paper();
        let pr = lk.remnant_polarization().unwrap();
        // Wells below the P=0 saddle.
        assert!(lk.energy_density(pr) < 0.0);
        assert!(lk.energy_density(-pr) < 0.0);
        assert_eq!(lk.energy_density(0.0), 0.0);
        assert!(lk.barrier_density().unwrap() > 0.0);
    }

    #[test]
    fn paraelectric_when_alpha_positive() {
        let para = LkParams {
            alpha: 1e9,
            beta: 3.3e10,
            gamma: 0.0,
            rho: 0.1,
        };
        assert!(para.remnant_polarization().is_none());
        assert!(para.coercive_field().is_none());
        assert!(para.barrier_density().is_none());
    }

    #[test]
    fn gamma_zero_degenerate_case() {
        let lk = LkParams {
            alpha: -7.0e9,
            beta: 3.3e10,
            gamma: 0.0,
            rho: 0.1,
        };
        let pr = lk.remnant_polarization().unwrap();
        // x = -α/β = 0.2121, P_r = 0.4606.
        assert!((pr - (7.0e9f64 / 3.3e10).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fecap_scalings() {
        let fe = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let lk = paper();
        let p = 0.2;
        assert!((fe.v_static(p) - 2.25e-9 * lk.e_static(p)).abs() < 1e-12);
        assert!(fe.series_resistance() > 0.0);
        // Thicker film -> higher stand-alone coercive voltage.
        let thin = FeCapParams::new(1e-9, fe.area);
        assert!(fe.coercive_voltage().unwrap() > thin.coercive_voltage().unwrap());
    }

    #[test]
    fn fecap_nc_region_has_negative_capacitance() {
        let fe = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        assert!(fe.capacitance_density(0.0) < 0.0);
        let pr = fe.lk.remnant_polarization().unwrap();
        assert!(fe.capacitance_density(pr) > 0.0);
    }

    #[test]
    fn fig4b_fefet_vs_fecap_precondition() {
        // Stand-alone 2.5nm FE cap hysteresis extends beyond ±2V (paper
        // Fig 4b): coercive voltage at 2.5nm must exceed 2V.
        let fe = FeCapParams::new(2.5e-9, 65e-9 * 45e-9);
        assert!(fe.coercive_voltage().unwrap() > 2.0);
    }
}
