//! EKV-style charge-based MOSFET compact model.
//!
//! The paper couples its ferroelectric model to the PTM 45 nm
//! high-performance transistor (Table 2: 45 nm node, 65 nm width). PTM
//! cards are BSIM4 decks that we cannot ship; instead this is a smooth
//! EKV-style model calibrated to the same headline figures:
//!
//! - threshold ≈ 0.47 V, subthreshold slope ≈ 85 mV/dec,
//! - on-current ≈ 60-70 µA at W = 65 nm, V_GS = V_DS = 1 V,
//! - on/off current ratio ≈ 10⁶ at V_DS = 0.4 V (a junction/GIDL leakage
//!   floor bounds the off current, as in the paper's 10⁶ claim),
//! - a **two-plateau gate C-V** (`C_low` below the charge threshold,
//!   `C_high` in strong inversion) calibrated so the series combination
//!   with the paper's Landau-Khalatnikov ferroelectric reproduces §3:
//!   no hysteresis at T_FE = 1 nm, positive-V_GS-only hysteresis at
//!   1.9 nm (Fig 3), and a ±V_GS-spanning nonvolatile window of roughly
//!   0.4-0.5 V at 2.25 nm (Fig 2) — the non-volatility boundary sits
//!   just above 1.9 nm, matching "T_FE > 1.9 nm is required".
//!
//! The drain current interpolates smoothly from weak to strong inversion
//! via the EKV interpolation function `F(x) = ln²(1 + e^(x/2φt))`. The
//! gate charge is the analytic integral of the two-plateau C-V. The
//! charge threshold `vt_q` is a *fitted* parameter of the charge branch
//! and deliberately differs from the current threshold `vt0` — the pair
//! (`cdep_ratio`, `vt_q`) positions the FEFET hysteresis exactly as the
//! paper's calibrated model does.

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MosPolarity {
    /// N-channel.
    #[default]
    Nmos,
    /// P-channel.
    Pmos,
}

/// MOSFET model card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub polarity: MosPolarity,
    /// Drawn width (m).
    pub w: f64,
    /// Drawn length (m).
    pub l: f64,
    /// Threshold voltage magnitude (V).
    pub vt0: f64,
    /// Subthreshold slope factor `n`, dimensionless (SS = n·φt·ln10).
    pub n: f64,
    /// Transconductance parameter µC_ox (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Thermal voltage (V); 25.9 mV at 300 K.
    pub phi_t: f64,
    /// Drain-source leakage conductance per width (S/m): junction/GIDL
    /// floor that bounds the off current.
    pub g_leak_per_w: f64,
    /// Strong-inversion gate-capacitance density `C_high` (F/m²).
    pub cox_area: f64,
    /// Subthreshold plateau as a fraction of `cox_area` (`C_low/C_high`).
    pub cdep_ratio: f64,
    /// Gate-charge threshold: center of the C_low → C_high transition
    /// (V). A fitted parameter of the charge branch, distinct from `vt0`.
    pub vt_q: f64,
    /// C-V transition smoothness (V).
    pub v_smooth: f64,
}

impl MosParams {
    /// Generic 45 nm high-performance NMOS for access transistors,
    /// switches and logic: 0.47 V threshold, pass-gate charge branch
    /// (small subthreshold plateau so clock feedthrough onto floating
    /// nodes stays realistic). Width defaults to the paper's 65 nm; scale
    /// with [`MosParams::with_width`].
    pub fn nmos_45nm() -> Self {
        MosParams {
            polarity: MosPolarity::Nmos,
            w: 65e-9,
            l: 45e-9,
            vt0: 0.47,
            n: 1.40,
            kp: 4.4e-4,
            lambda: 0.10,
            phi_t: 0.0259,
            g_leak_per_w: 1.0e-3,
            cox_area: 0.085,
            cdep_ratio: 0.12,
            vt_q: 0.47,
            v_smooth: 0.05,
        }
    }

    /// The MOSFET underlying the paper's FEFET.
    ///
    /// The **charge branch** (two-plateau C-V: `cdep_ratio = 0.882`,
    /// `vt_q = 1.0 V`) is the §3 calibration that positions the FEFET
    /// hysteresis: no loop at T_FE = 1 nm, positive-only loop at 1.9 nm,
    /// a ±V_GS-spanning nonvolatile window at 2.25 nm.
    ///
    /// The **current threshold** (`vt0 = 2.3 V`) is referenced to the
    /// internal gate after the negative-capacitance step-up: the retained
    /// ON state sits at ≈2.66 V internally, and a 2.3 V channel threshold
    /// puts the ON current near 30 µA — giving the paper's ~10⁶ on/off
    /// distinguishability instead of the unphysical half-milliamp a
    /// minimum-V_t channel would carry at that internal voltage. (FEFET
    /// gate stacks are workfunction-engineered in exactly this spirit.)
    pub fn nmos_45nm_fefet_base() -> Self {
        MosParams {
            vt0: 2.3,
            cdep_ratio: 0.882,
            vt_q: 1.0,
            ..Self::nmos_45nm()
        }
    }

    /// 45 nm high-performance PMOS (mobility-scaled mirror of the NMOS).
    pub fn pmos_45nm() -> Self {
        MosParams {
            polarity: MosPolarity::Pmos,
            kp: 2.0e-4,
            ..Self::nmos_45nm()
        }
    }

    /// Returns a copy with a different channel width `w` (m).
    pub fn with_width(mut self, w: f64) -> Self {
        self.w = w;
        self
    }

    /// Returns a copy with a different current-threshold magnitude
    /// `vt` (V).
    pub fn with_vt(mut self, vt: f64) -> Self {
        self.vt0 = vt;
        self
    }

    /// Specific current `I_S = 2 n µC_ox (W/L) φt²`.
    #[inline]
    pub fn i_spec(&self) -> f64 {
        2.0 * self.n * self.kp * (self.w / self.l) * self.phi_t * self.phi_t
    }

    /// Drain current and derivatives for **intrinsic polarity-normalized**
    /// voltages: for PMOS pass `(v_sg, v_sd)` and interpret the returned
    /// current as source→drain.
    ///
    /// Returns `(id, gm, gds)` where `gm = ∂I/∂v_gs`, `gds = ∂I/∂v_ds`,
    /// valid for either sign of `v_ds` (channel symmetry is used for
    /// reverse operation).
    pub fn ids(&self, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
        Channel::of(self).ids(self, v_gs, v_ds)
    }

    /// Subthreshold-plateau capacitance density `C_low` (F/m²).
    #[inline]
    pub fn c_low(&self) -> f64 {
        self.cox_area * self.cdep_ratio
    }

    /// Gate charge (C) at intrinsic gate-source voltage `v` — the
    /// integral of the two-plateau C-V profile from 0 to `v`, times gate
    /// area.
    pub fn q_gate(&self, v: f64) -> f64 {
        self.q_gate_density(v) * self.w * self.l
    }

    /// Gate-charge density (C/m²) at gate voltage `v` (V).
    pub fn q_gate_density(&self, v: f64) -> f64 {
        let cv = ChargeBranch::of(self);
        cv.q_density(v, cv.softplus_at_zero())
    }

    /// Gate-capacitance density (F/m²) at gate voltage `v`:
    /// `C(v) = C_low + (C_high − C_low)·σ((v − vt_q)/v_smooth)`.
    pub fn c_gate_density(&self, v: f64) -> f64 {
        ChargeBranch::of(self).c_density(v)
    }

    /// Gate capacitance (F) at gate voltage `v`.
    pub fn c_gate(&self, v: f64) -> f64 {
        self.c_gate_density(v) * self.w * self.l
    }

    /// Inverse of [`MosParams::q_gate_density`]: the gate voltage (V)
    /// that holds charge density `q` (C/m²). Callers that invert many
    /// charges on one card should hold a [`GateInverse`] instead, which
    /// returns the same bits without re-deriving the card per call.
    pub fn v_gate_of_density(&self, q: f64) -> f64 {
        GateInverse::new(self).v_gate(q)
    }
}

/// The drain-current constants a card derives: with the card's own
/// fields, the one place the channel formulas live.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Channel {
    /// Specific current [`MosParams::i_spec`] (A).
    i_spec: f64,
    /// Leakage conductance `g_leak_per_w·W` (S).
    g_leak: f64,
}

impl Channel {
    fn of(mos: &MosParams) -> Self {
        Channel {
            i_spec: mos.i_spec(),
            g_leak: mos.g_leak_per_w * mos.w,
        }
    }

    /// [`MosParams::ids`] of `mos`, the card these constants belong to.
    #[inline]
    fn ids(&self, mos: &MosParams, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
        if v_ds >= 0.0 {
            self.ids_fwd(mos, v_gs, v_ds)
        } else {
            // Source/drain swap: I(vgs, vds) = -I(vgs - vds, -vds).
            let (i, gm, gds) = self.ids_fwd(mos, v_gs - v_ds, -v_ds);
            // I' = -I(vgs', vds') with vgs' = vgs - vds, vds' = -vds:
            // dI'/dvgs = -gm; dI'/dvds = gm + gds.
            (-i, -gm, gm + gds)
        }
    }

    #[inline]
    fn ids_fwd(&self, mos: &MosParams, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
        let vp = (v_gs - mos.vt0) / mos.n;
        let (f_f, df_f) = ekv_f(vp, mos.phi_t);
        let (f_r, df_r) = ekv_f(vp - v_ds, mos.phi_t);
        let clm = 1.0 + mos.lambda * v_ds;
        let i = self.i_spec * (f_f - f_r) * clm + self.g_leak * v_ds;
        let gm = self.i_spec * clm * (df_f - df_r) / mos.n;
        let gds = self.i_spec * (mos.lambda * (f_f - f_r) + clm * df_r) + self.g_leak;
        (i, gm, gds)
    }
}

/// A MOSFET card with its evaluation constants derived once: the
/// specific current, the leakage conductance, the C-V charge branch and
/// its softplus term at 0 V. A circuit element holds one per device, so
/// a Newton stamp pass evaluates the model without re-deriving the card;
/// the evaluations return the same bits as the [`MosParams`] methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosCard {
    params: MosParams,
    ch: Channel,
    cv: ChargeBranch,
    /// `softplus(−vt_q/v_smooth)`.
    sp0: f64,
}

impl MosCard {
    /// Derives `params`' evaluation constants.
    pub fn new(params: MosParams) -> Self {
        let cv = ChargeBranch::of(&params);
        MosCard {
            params,
            ch: Channel::of(&params),
            cv,
            sp0: cv.softplus_at_zero(),
        }
    }

    /// The model card the constants were derived from.
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    /// Drain current (A) and its derivatives at polarity-normalized
    /// `v_gs`, `v_ds` (V), as [`MosParams::ids`] returns them.
    #[inline]
    pub(crate) fn ids(&self, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
        self.ch.ids(&self.params, v_gs, v_ds)
    }

    /// Gate charge (C) at gate voltage `v` (V): [`MosParams::q_gate`].
    #[inline]
    pub(crate) fn q_gate(&self, v: f64) -> f64 {
        self.cv.q_density(v, self.sp0) * self.params.w * self.params.l
    }

    /// Gate charge (C) and capacitance (F) at gate voltage `v` (V):
    /// [`MosParams::q_gate`] and [`MosParams::c_gate`] from one call,
    /// sharing one exponential where both formulas take it.
    #[inline]
    pub(crate) fn q_c_gate(&self, v: f64) -> (f64, f64) {
        let (q, c) = self.cv.q_c_density(v, self.sp0);
        let (w, l) = (self.params.w, self.params.l);
        (q * w * l, c * w * l)
    }
}

/// The two-plateau C-V charge branch of one card: the one place the
/// charge and capacitance formulas live.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChargeBranch {
    /// Subthreshold plateau `C_low` (F/m²).
    c_low: f64,
    /// Plateau step `C_high − C_low` (F/m²).
    dc: f64,
    /// Charge threshold (V).
    vt_q: f64,
    /// Transition smoothness (V).
    v_smooth: f64,
}

impl ChargeBranch {
    fn of(mos: &MosParams) -> Self {
        let c_low = mos.c_low();
        ChargeBranch {
            c_low,
            dc: mos.cox_area - c_low,
            vt_q: mos.vt_q,
            v_smooth: mos.v_smooth,
        }
    }

    /// `softplus(−vt_q/v_smooth)`, the term that pins the charge at
    /// 0 V to zero.
    fn softplus_at_zero(&self) -> f64 {
        softplus(-self.vt_q / self.v_smooth)
    }

    /// Charge density (C/m²) at gate voltage `v` (V), given
    /// [`ChargeBranch::softplus_at_zero`] as `sp0`.
    #[inline]
    fn q_density(&self, v: f64, sp0: f64) -> f64 {
        let vs = self.v_smooth;
        let inv = softplus((v - self.vt_q) / vs) - sp0;
        self.c_low * v + self.dc * vs * inv
    }

    /// Capacitance density (F/m²) at gate voltage `v` (V).
    #[inline]
    fn c_density(&self, v: f64) -> f64 {
        self.c_low + self.dc * sigmoid((v - self.vt_q) / self.v_smooth)
    }

    /// [`ChargeBranch::q_density`] and [`ChargeBranch::c_density`] at
    /// one gate voltage `v` (V).
    #[inline]
    fn q_c_density(&self, v: f64, sp0: f64) -> (f64, f64) {
        let vs = self.v_smooth;
        let (sp, sg) = softplus_sigmoid((v - self.vt_q) / vs);
        (
            self.c_low * v + self.dc * vs * (sp - sp0),
            self.c_low + self.dc * sg,
        )
    }
}

/// A card's gate-charge inverse `V(q)` with its per-card constants
/// derived once: the C-V plateaus, the softplus term at 0 V and the
/// knee charge `q(vt_q)`. [`MosParams::v_gate_of_density`] builds one
/// per call; a caller that inverts many charges on one card (an LK
/// integration, a gate-branch table) builds it once and gets the same
/// bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateInverse {
    cv: ChargeBranch,
    /// Strong-inversion capacitance density `C_high` (F/m²).
    cox_area: f64,
    /// `softplus(−vt_q/v_smooth)`.
    sp0: f64,
    /// Charge density (C/m²) at the charge threshold `vt_q`.
    q_knee: f64,
}

impl GateInverse {
    /// Derives `mos`'s per-card constants.
    pub fn new(mos: &MosParams) -> Self {
        let cv = ChargeBranch::of(mos);
        let sp0 = cv.softplus_at_zero();
        GateInverse {
            cv,
            cox_area: mos.cox_area,
            sp0,
            q_knee: cv.q_density(cv.vt_q, sp0),
        }
    }

    /// The gate voltage (V) that holds charge density `q` (C/m²). The
    /// charge is strictly monotone with slope in `[C_low, C_high]`, so
    /// Newton from a plateau-based guess converges in a handful of
    /// iterations (at most 60).
    pub fn v_gate(&self, q: f64) -> f64 {
        let cv = &self.cv;
        let mut v = if q > self.q_knee {
            cv.vt_q + (q - self.q_knee) / self.cox_area
        } else {
            q / cv.c_low
        };
        let tol = 1e-15 * (1.0 + q.abs());
        for _ in 0..60 {
            let f = cv.q_density(v, self.sp0) - q;
            if f.abs() < tol {
                break;
            }
            v -= f / cv.c_density(v);
        }
        v
    }

    /// Gate-charge density (C/m²) and capacitance density (F/m²) at gate
    /// voltage `v` (V): the forward branch that [`GateInverse::v_gate`]
    /// inverts, from one shared exponential. An integration whose state
    /// is the gate voltage reads the charge here instead of inverting
    /// it.
    #[inline]
    pub fn q_c(&self, v: f64) -> (f64, f64) {
        self.cv.q_c_density(v, self.sp0)
    }
}

/// Numerically safe `ln(1+e^x)`.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        0.0
    } else {
        x.exp().ln_1p()
    }
}

/// Numerically safe logistic function.
#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// [`softplus`] and [`sigmoid`] of one `x`, bit for bit, taking one
/// exponential for `x < 0`, where both take `e^x`.
#[inline]
fn softplus_sigmoid(x: f64) -> (f64, f64) {
    if x >= 0.0 {
        (softplus(x), sigmoid(x))
    } else {
        let e = x.exp();
        let sp = if x < -35.0 { 0.0 } else { e.ln_1p() };
        (sp, e / (1.0 + e))
    }
}

/// EKV interpolation function `F(v) = ln²(1 + e^(v/2φt))` and its
/// derivative with respect to `v`.
#[inline]
fn ekv_f(v: f64, phi_t: f64) -> (f64, f64) {
    let (sp, sg) = softplus_sigmoid(v / (2.0 * phi_t));
    (sp * sp, sp * sg / phi_t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> MosParams {
        MosParams::nmos_45nm()
    }

    #[test]
    fn on_current_in_45nm_hp_range() {
        let (i_on, _, _) = nmos().ids(1.0, 1.0);
        assert!(
            (30e-6..150e-6).contains(&i_on),
            "I_on = {i_on:.3e} A out of 45nm HP range"
        );
    }

    #[test]
    fn subthreshold_slope_near_85mv_per_decade() {
        let m = nmos();
        // Subtract the leakage floor to measure the intrinsic slope.
        let floor = m.g_leak_per_w * m.w * 1.0;
        let (i1, _, _) = m.ids(0.25, 1.0);
        let (i2, _, _) = m.ids(0.35, 1.0);
        let ss = 0.1 / ((i2 - floor) / (i1 - floor)).log10();
        assert!((0.070..0.100).contains(&ss), "SS = {:.1} mV/dec", ss * 1e3);
    }

    #[test]
    fn on_off_ratio_near_1e6_at_read_voltage() {
        // The paper quotes ~10^6 distinguishability; the leakage floor
        // keeps the ratio from being unphysically larger.
        let m = nmos();
        let (i_on, _, _) = m.ids(1.0, 0.4);
        let (i_off, _, _) = m.ids(0.0, 0.4);
        let ratio = i_on / i_off;
        assert!((1e5..1e8).contains(&ratio), "on/off ratio = {ratio:.2e}");
    }

    #[test]
    fn off_current_dominated_by_leakage_floor() {
        let m = nmos();
        let (i_off, _, _) = m.ids(-1.0, 0.4); // deep off
        let floor = m.g_leak_per_w * m.w * 0.4;
        assert!((i_off - floor).abs() < 0.1 * floor);
    }

    #[test]
    fn current_zero_at_zero_vds() {
        let (i, _, _) = nmos().ids(0.8, 0.0);
        assert_eq!(i, 0.0);
    }

    #[test]
    fn reverse_operation_antisymmetric() {
        let m = nmos();
        let (i_fwd, _, _) = m.ids(0.9, 0.3);
        let (i_rev, _, _) = m.ids(0.9 - 0.3, -0.3);
        assert!((i_fwd + i_rev).abs() < 1e-12 * i_fwd.abs().max(1.0));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = nmos();
        for (vgs, vds) in [(0.3, 0.5), (0.8, 0.1), (1.0, 1.0), (0.6, -0.4)] {
            let (_i0, gm, gds) = m.ids(vgs, vds);
            let h = 1e-7;
            let (ip, _, _) = m.ids(vgs + h, vds);
            let (im, _, _) = m.ids(vgs - h, vds);
            let gm_fd = (ip - im) / (2.0 * h);
            assert!(
                (gm - gm_fd).abs() <= 1e-4 * gm_fd.abs().max(1e-12),
                "gm mismatch at ({vgs},{vds}): {gm} vs {gm_fd}"
            );
            let (ip, _, _) = m.ids(vgs, vds + h);
            let (im, _, _) = m.ids(vgs, vds - h);
            let gds_fd = (ip - im) / (2.0 * h);
            assert!(
                (gds - gds_fd).abs() <= 1e-4 * gds_fd.abs().max(1e-10),
                "gds mismatch at ({vgs},{vds}): {gds} vs {gds_fd}"
            );
        }
    }

    #[test]
    fn gm_and_gds_positive_in_normal_operation() {
        let m = nmos();
        for vgs in [0.2, 0.5, 0.8, 1.1] {
            let (_, gm, gds) = m.ids(vgs, 0.5);
            assert!(gm > 0.0);
            assert!(gds > 0.0);
        }
    }

    #[test]
    fn gate_charge_zero_at_zero_bias() {
        assert_eq!(nmos().q_gate(0.0), 0.0);
    }

    #[test]
    fn gate_charge_derivative_is_capacitance() {
        let m = nmos();
        for v in [-2.0, -0.5, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0] {
            let h = 1e-6;
            let c_fd = (m.q_gate_density(v + h) - m.q_gate_density(v - h)) / (2.0 * h);
            let c = m.c_gate_density(v);
            assert!(
                (c - c_fd).abs() < 1e-6 * c.abs().max(1e-12),
                "C mismatch at {v}: {c} vs {c_fd}"
            );
        }
    }

    #[test]
    fn cv_profile_two_plateaus() {
        let m = nmos();
        let c_sub = m.c_gate_density(0.0);
        let c_deep_sub = m.c_gate_density(-2.0);
        let c_inv = m.c_gate_density(2.0);
        assert!((c_sub - m.c_low()).abs() < 0.01 * m.c_low());
        assert!((c_deep_sub - m.c_low()).abs() < 0.01 * m.c_low());
        assert!((c_inv - m.cox_area).abs() < 0.01 * m.cox_area);
        assert!(c_inv > c_sub);
    }

    #[test]
    fn q_gate_monotone_increasing() {
        let m = nmos();
        let mut prev = m.q_gate_density(-3.0);
        let mut v = -3.0;
        while v <= 3.0 {
            let q = m.q_gate_density(v);
            assert!(q >= prev);
            prev = q;
            v += 0.01;
        }
    }

    #[test]
    fn v_gate_of_density_inverts_q_gate() {
        let m = nmos();
        for v in [-2.5, -0.3, 0.0, 0.2, 0.7, 1.4, 3.0] {
            let q = m.q_gate_density(v);
            let v_back = m.v_gate_of_density(q);
            assert!((v - v_back).abs() < 1e-6, "{v} -> {q} -> {v_back}");
        }
    }

    /// The MOSFET model as it stood before [`MosCard`] existed,
    /// verbatim: every call re-derives the card, and softplus and
    /// sigmoid each take their own exponential.
    mod reference {
        use super::super::MosParams;

        pub fn softplus(x: f64) -> f64 {
            if x > 35.0 {
                x
            } else if x < -35.0 {
                0.0
            } else {
                x.exp().ln_1p()
            }
        }

        pub fn sigmoid(x: f64) -> f64 {
            if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        }

        fn ekv_f(v: f64, phi_t: f64) -> (f64, f64) {
            let x = v / (2.0 * phi_t);
            let sp = softplus(x);
            let sg = sigmoid(x);
            (sp * sp, sp * sg / phi_t)
        }

        pub fn ids(m: &MosParams, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
            if v_ds >= 0.0 {
                ids_fwd(m, v_gs, v_ds)
            } else {
                let (i, gm, gds) = ids_fwd(m, v_gs - v_ds, -v_ds);
                (-i, -gm, gm + gds)
            }
        }

        fn ids_fwd(m: &MosParams, v_gs: f64, v_ds: f64) -> (f64, f64, f64) {
            let vp = (v_gs - m.vt0) / m.n;
            let (f_f, df_f) = ekv_f(vp, m.phi_t);
            let (f_r, df_r) = ekv_f(vp - v_ds, m.phi_t);
            let i_spec = m.i_spec();
            let clm = 1.0 + m.lambda * v_ds;
            let g_leak = m.g_leak_per_w * m.w;
            let i = i_spec * (f_f - f_r) * clm + g_leak * v_ds;
            let gm = i_spec * clm * (df_f - df_r) / m.n;
            let gds = i_spec * (m.lambda * (f_f - f_r) + clm * df_r) + g_leak;
            (i, gm, gds)
        }

        pub fn q_gate(m: &MosParams, v: f64) -> f64 {
            q_gate_density(m, v) * m.w * m.l
        }

        pub fn c_gate(m: &MosParams, v: f64) -> f64 {
            c_gate_density(m, v) * m.w * m.l
        }

        pub fn q_gate_density(m: &MosParams, v: f64) -> f64 {
            let clow = m.c_low();
            let dc = m.cox_area - clow;
            let vs = m.v_smooth;
            let inv = softplus((v - m.vt_q) / vs) - softplus(-m.vt_q / vs);
            clow * v + dc * vs * inv
        }

        pub fn c_gate_density(m: &MosParams, v: f64) -> f64 {
            let clow = m.c_low();
            let dc = m.cox_area - clow;
            clow + dc * sigmoid((v - m.vt_q) / m.v_smooth)
        }

        pub fn v_gate_of_density(m: &MosParams, q: f64) -> f64 {
            let clow = m.c_low();
            let q_knee = q_gate_density(m, m.vt_q);
            let mut v = if q > q_knee {
                m.vt_q + (q - q_knee) / m.cox_area
            } else {
                q / clow
            };
            for _ in 0..60 {
                let f = q_gate_density(m, v) - q;
                if f.abs() < 1e-15 * (1.0 + q.abs()) {
                    break;
                }
                v -= f / c_gate_density(m, v);
            }
            v
        }
    }

    /// NMOS, PMOS, the FEFET's gate card, and 60 cards with `vt_q`,
    /// `v_smooth` and `cdep_ratio` perturbed around the NMOS and FEFET
    /// cards.
    fn cv_cards() -> Vec<MosParams> {
        let mut cards = vec![
            MosParams::nmos_45nm(),
            MosParams::pmos_45nm(),
            MosParams::nmos_45nm_fefet_base(),
        ];
        let mut rng = fefet_numerics::rng::Rng::seed_from_u64(0xc0de);
        for k in 0..60 {
            let base = if k % 2 == 0 {
                MosParams::nmos_45nm()
            } else {
                MosParams::nmos_45nm_fefet_base()
            };
            cards.push(MosParams {
                vt_q: base.vt_q + rng.uniform_in(-0.3, 0.3),
                v_smooth: base.v_smooth * rng.uniform_in(0.5, 2.0),
                cdep_ratio: (base.cdep_ratio * rng.uniform_in(0.7, 1.3)).min(0.95),
                ..base
            });
        }
        cards
    }

    /// `x` and its `k` nearest floats on each side.
    fn ulp_neighbourhood(x: f64, k: usize) -> Vec<f64> {
        let (mut lo, mut hi) = (x, x);
        let mut out = vec![x];
        for _ in 0..k {
            lo = lo.next_down();
            hi = hi.next_up();
            out.extend([lo, hi]);
        }
        out
    }

    /// Charge densities (C/m²) that exercise `m`'s inversion: a dense
    /// grid over ±1.6, the knee charge and its ulp neighbours, and the
    /// charges whose voltages put `(v − vt_q)/v_smooth` at the softplus
    /// and sigmoid branch edges 0 and ±35, each with neighbours.
    fn probe_charges(m: &MosParams) -> Vec<f64> {
        let n = 8000;
        let mut qs: Vec<f64> = (0..=n).map(|i| -1.6 + 3.2 * i as f64 / n as f64).collect();
        qs.extend(ulp_neighbourhood(reference::q_gate_density(m, m.vt_q), 8));
        for edge in [0.0, 35.0, -35.0] {
            for v in ulp_neighbourhood(m.vt_q + edge * m.v_smooth, 4) {
                qs.extend(ulp_neighbourhood(reference::q_gate_density(m, v), 4));
            }
        }
        qs
    }

    #[test]
    fn held_inverse_matches_the_per_call_inverse_bit_for_bit() {
        for m in cv_cards() {
            let inv = GateInverse::new(&m);
            for q in probe_charges(&m) {
                let want = reference::v_gate_of_density(&m, q).to_bits();
                assert_eq!(inv.v_gate(q).to_bits(), want, "{m:?} at q = {q:e}");
                assert_eq!(m.v_gate_of_density(q).to_bits(), want, "{m:?} at q = {q:e}");
                let v = f64::from_bits(want);
                assert_eq!(
                    m.q_gate_density(v).to_bits(),
                    reference::q_gate_density(&m, v).to_bits()
                );
                assert_eq!(
                    m.c_gate_density(v).to_bits(),
                    reference::c_gate_density(&m, v).to_bits()
                );
                // The forward branch the V_MOS-form LK step reads: the
                // same charge and capacitance, and it undoes the inverse.
                let (qv, cv) = inv.q_c(v);
                assert_eq!(qv.to_bits(), reference::q_gate_density(&m, v).to_bits());
                assert_eq!(cv.to_bits(), reference::c_gate_density(&m, v).to_bits());
                assert!(
                    (qv - q).abs() <= 1e-15 * (1.0 + q.abs()),
                    "{m:?} at q = {q:e}"
                );
            }
        }
    }

    /// NMOS, PMOS, the FEFET's base card, and 90 cards with every
    /// channel and charge-branch field perturbed around each of them.
    fn model_cards() -> Vec<MosParams> {
        let bases = [
            MosParams::nmos_45nm(),
            MosParams::pmos_45nm(),
            MosParams::nmos_45nm_fefet_base(),
        ];
        let mut cards = bases.to_vec();
        let mut rng = fefet_numerics::rng::Rng::seed_from_u64(0x5eed_ca7d);
        for k in 0..90 {
            let base = bases[k % 3];
            cards.push(MosParams {
                w: base.w * rng.uniform_in(0.5, 4.0),
                l: base.l * rng.uniform_in(0.8, 1.5),
                vt0: base.vt0 + rng.uniform_in(-0.2, 0.2),
                n: base.n * rng.uniform_in(0.9, 1.2),
                kp: base.kp * rng.uniform_in(0.7, 1.3),
                lambda: base.lambda * rng.uniform_in(0.5, 2.0),
                phi_t: base.phi_t * rng.uniform_in(0.9, 1.1),
                g_leak_per_w: base.g_leak_per_w * rng.uniform_in(0.1, 10.0),
                vt_q: base.vt_q + rng.uniform_in(-0.3, 0.3),
                v_smooth: base.v_smooth * rng.uniform_in(0.5, 2.0),
                cdep_ratio: (base.cdep_ratio * rng.uniform_in(0.7, 1.3)).min(0.95),
                ..base
            });
        }
        cards
    }

    /// Gate-source drives that put the EKV argument `v/(2φt)` of the
    /// forward channel end at the softplus/sigmoid branch edges 0 and
    /// ±35, each with ulp neighbours, plus a grid over -1.5..4 V.
    fn probe_v_gs(m: &MosParams) -> Vec<f64> {
        let mut v: Vec<f64> = (0..=110).map(|i| -1.5 + 0.05 * i as f64).collect();
        for edge in [0.0, 35.0, -35.0] {
            v.extend(ulp_neighbourhood(m.vt0 + m.n * 2.0 * m.phi_t * edge, 4));
        }
        v
    }

    #[test]
    fn shared_exponential_matches_softplus_and_sigmoid_bit_for_bit() {
        let mut xs = vec![0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, -745.0];
        for edge in [0.0, 35.0, -35.0] {
            xs.extend(ulp_neighbourhood(edge, 4));
        }
        xs.extend((0..=8000).map(|i| -40.0 + 0.01 * i as f64));
        for x in xs {
            let (sp, sg) = softplus_sigmoid(x);
            assert_eq!(
                sp.to_bits(),
                reference::softplus(x).to_bits(),
                "softplus({x:e})"
            );
            assert_eq!(
                sg.to_bits(),
                reference::sigmoid(x).to_bits(),
                "sigmoid({x:e})"
            );
        }
    }

    /// The held card evaluates the channel current, gate charge and gate
    /// capacitance with the same bits as the model before [`MosCard`],
    /// over both signs of `v_ds` and the softplus/sigmoid branch edges
    /// of the channel and charge arguments; so does [`MosParams`].
    #[test]
    fn held_card_matches_the_per_call_model_bit_for_bit() {
        let v_ds: Vec<f64> = (0..=40)
            .map(|i| -1.5 + 0.075 * i as f64)
            .chain([0.0, -0.0, 1e-12, -1e-12])
            .collect();
        for m in model_cards() {
            let card = MosCard::new(m);
            assert_eq!(*card.params(), m);
            for &vgs in &probe_v_gs(&m) {
                // The reverse channel end sits at a branch edge when
                // v_ds moves the argument by the edge itself.
                let edge_vds = (vgs - m.vt0) / m.n;
                for &vds in v_ds.iter().chain(&ulp_neighbourhood(edge_vds, 2)) {
                    let want = reference::ids(&m, vgs, vds);
                    for (got, who) in [(card.ids(vgs, vds), "card"), (m.ids(vgs, vds), "params")] {
                        assert_eq!(
                            [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                            [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                            "{who} ids({vgs:e}, {vds:e}) on {m:?}"
                        );
                    }
                }
            }
            let mut vs: Vec<f64> = (0..=120).map(|i| -3.0 + 0.05 * i as f64).collect();
            for edge in [0.0, 35.0, -35.0] {
                vs.extend(ulp_neighbourhood(m.vt_q + edge * m.v_smooth, 4));
            }
            for v in vs {
                let (q, c) = card.q_c_gate(v);
                let (q_ref, c_ref) = (reference::q_gate(&m, v), reference::c_gate(&m, v));
                assert_eq!(q.to_bits(), q_ref.to_bits(), "q_c_gate({v:e}).0 on {m:?}");
                assert_eq!(c.to_bits(), c_ref.to_bits(), "q_c_gate({v:e}).1 on {m:?}");
                assert_eq!(card.q_gate(v).to_bits(), q_ref.to_bits(), "q_gate({v:e})");
                assert_eq!(
                    m.q_gate(v).to_bits(),
                    q_ref.to_bits(),
                    "params q_gate({v:e})"
                );
                assert_eq!(
                    m.c_gate(v).to_bits(),
                    c_ref.to_bits(),
                    "params c_gate({v:e})"
                );
            }
        }
    }

    #[test]
    fn with_width_scales_current() {
        let m = nmos();
        let m2 = m.with_width(130e-9);
        let (i1, _, _) = m.ids(1.0, 1.0);
        let (i2, _, _) = m2.ids(1.0, 1.0);
        assert!((i2 / i1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn pmos_card_is_weaker() {
        let p = MosParams::pmos_45nm();
        assert_eq!(p.polarity, MosPolarity::Pmos);
        assert!(p.kp < MosParams::nmos_45nm().kp);
    }

    #[test]
    fn softplus_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert_eq!(softplus(-100.0), 0.0);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-15);
        assert!(sigmoid(-100.0) < 1e-15);
        assert_eq!(sigmoid(0.0), 0.5);
    }
}
