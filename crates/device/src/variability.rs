//! Process-variation (Monte Carlo) analysis of the FEFET memory device.
//!
//! The paper's sensing section sizes its input transistors "for less
//! variation"; this module quantifies what device-level variation does to
//! the memory margins: ferroelectric-thickness, threshold-voltage and
//! width spreads are sampled and propagated through the static stack
//! analysis to distributions of the hysteresis window, the memory
//! states, and the read-current ratio — the quantities that set sensing
//! margin and yield.

use crate::fefet::Fefet;
use fefet_numerics::rng::Rng;

/// 1-σ relative/absolute spreads of the varied parameters.
///
/// The three classic knobs (`t_fe_sigma_rel`, `vt_sigma`,
/// `width_sigma_rel`) default to typical 45 nm-node values; the
/// polarization/coercive-field and trap knobs default to **off** (0.0)
/// so that the random-draw sequence — and therefore every seeded result
/// — of a pre-existing three-knob spec is unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Ferroelectric-thickness σ as a fraction of nominal (typ. 2-5 %).
    pub t_fe_sigma_rel: f64,
    /// Threshold-voltage σ (V), Pelgrom-style (typ. 20-40 mV at 65 nm).
    pub vt_sigma: f64,
    /// Width σ as a fraction of nominal (line-edge roughness).
    pub width_sigma_rel: f64,
    /// Remanent-polarization σ as a fraction of nominal P_r
    /// (grain-orientation spread). 0 disables the draw pair.
    pub pr_sigma_rel: f64,
    /// Coercive-field σ as a fraction of nominal E_c. 0 disables the
    /// draw pair (P_r and E_c are drawn together when either is on).
    pub ec_sigma_rel: f64,
    /// Mean areal defect/trap density (1/m²); the per-device trap count
    /// is drawn from a normal approximation of Poisson(density × area).
    /// 0 disables the draw.
    pub trap_density: f64,
    /// Threshold shift per trapped charge (V); electron trapping raises
    /// V_T of the read transistor.
    pub trap_delta_vt: f64,
    /// Cycle-to-cycle (per-write) switched-polarization σ as a fraction
    /// of nominal: each write cycle switches a slightly different
    /// polarization fraction (nucleation stochasticity). 0 disables the
    /// per-cycle draw pair. Unlike the device knobs above, this is
    /// sampled per *write operation* via [`sample_write_cycle`], not per
    /// device.
    pub c2c_pr_sigma_rel: f64,
    /// Cycle-to-cycle effective coercive-field σ as a fraction of
    /// nominal: a high-E_c cycle switches less completely and stresses
    /// half-selected neighbors harder. 0 disables the draw pair (both
    /// per-cycle normals are drawn whenever either knob is on).
    pub c2c_ec_sigma_rel: f64,
}

impl Default for VariationSpec {
    fn default() -> Self {
        VariationSpec {
            t_fe_sigma_rel: 0.03,
            vt_sigma: 0.03,
            width_sigma_rel: 0.02,
            pr_sigma_rel: 0.0,
            ec_sigma_rel: 0.0,
            trap_density: 0.0,
            trap_delta_vt: 10e-3,
            c2c_pr_sigma_rel: 0.0,
            c2c_ec_sigma_rel: 0.0,
        }
    }
}

/// One write cycle's sampled variation, as multiplicative scale factors
/// (unitless) around the nominal write.
///
/// Produced by [`sample_write_cycle`]; consumed by the serving layer's
/// disturb/stress accumulator, where a weak-polarization or
/// high-coercive-field cycle both shorten the margin budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteCycle {
    /// Switched-polarization scale factor for this cycle (unitless,
    /// clamped to ≥ 0.05; 1.0 = nominal).
    pub pr_scale: f64,
    /// Effective coercive-field scale factor for this cycle (unitless,
    /// clamped to ≥ 0.05; 1.0 = nominal).
    pub ec_scale: f64,
}

impl WriteCycle {
    /// The nominal, variation-free cycle.
    pub fn nominal() -> Self {
        WriteCycle {
            pr_scale: 1.0,
            ec_scale: 1.0,
        }
    }

    /// Relative disturb-stress weight of this cycle (unitless):
    /// `ec_scale / pr_scale`. A cycle that needed a stronger effective
    /// field, or switched less polarization, leaves half-selected
    /// neighbors with proportionally more accumulated stress; the
    /// nominal cycle weighs exactly 1.
    pub fn stress_weight(&self) -> f64 {
        self.ec_scale / self.pr_scale
    }
}

/// Draws one write cycle's variation from `spec`'s cycle-to-cycle knobs.
///
/// Draw-count contract (the same discipline as [`sample_device`]): with
/// both `c2c_*` knobs at 0 this consumes **zero** RNG draws and returns
/// [`WriteCycle::nominal`], so pre-existing seeded op streams replay
/// bit-identically when the knobs are off; when either knob is on, both
/// normals are drawn (P_r first, then E_c), keeping the draw count
/// independent of the knob values.
pub fn sample_write_cycle(spec: &VariationSpec, rng: &mut Rng) -> WriteCycle {
    if spec.c2c_pr_sigma_rel <= 0.0 && spec.c2c_ec_sigma_rel <= 0.0 {
        return WriteCycle::nominal();
    }
    let pr_scale = (1.0 + spec.c2c_pr_sigma_rel * rng.normal()).max(0.05);
    let ec_scale = (1.0 + spec.c2c_ec_sigma_rel * rng.normal()).max(0.05);
    WriteCycle { pr_scale, ec_scale }
}

/// One sampled device's figures of merit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleResult {
    /// Sampled thickness (m).
    pub t_fe: f64,
    /// True if the sample retains two states at zero bias.
    pub nonvolatile: bool,
    /// Zero-bias states `(p_lo, p_hi)` if nonvolatile.
    pub states: Option<(f64, f64)>,
    /// Read-current ratio at V_DS = 0.4 V if nonvolatile.
    pub current_ratio: Option<f64>,
}

/// Summary statistics over a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    /// All per-sample results.
    pub samples: Vec<SampleResult>,
}

impl MonteCarlo {
    /// Fraction of samples that are nonvolatile (memory yield).
    pub fn yield_fraction(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.nonvolatile).count();
        ok as f64 / self.samples.len() as f64
    }

    /// Smallest read-current ratio among working samples (worst sensing
    /// margin), or `None` if no sample works.
    pub fn worst_current_ratio(&self) -> Option<f64> {
        self.samples
            .iter()
            .filter_map(|s| s.current_ratio)
            .min_by(f64::total_cmp)
    }

    /// Mean and standard deviation of the high-state polarization over
    /// working samples.
    pub fn p_hi_stats(&self) -> Option<(f64, f64)> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|s| s.states.map(|(_, hi)| hi))
            .collect();
        if vals.is_empty() {
            return None;
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Some((mean, var.sqrt()))
    }
}

/// Applies one sampled variation to a nominal device.
///
/// Draw order is part of the API: the three legacy draws come first (so
/// legacy specs reproduce bit-identically), then the P_r/E_c pair (both
/// normals drawn whenever either knob is on, keeping the draw count
/// independent of the knob values), then the trap-count draw.
pub fn sample_device(nominal: &Fefet, spec: &VariationSpec, rng: &mut Rng) -> Fefet {
    let mut dev = *nominal;
    dev.fe.thickness *= 1.0 + spec.t_fe_sigma_rel * rng.normal();
    let dw = 1.0 + spec.width_sigma_rel * rng.normal();
    dev.mos.w *= dw;
    dev.fe.area *= dw; // gate and FE share the width
    dev.mos.vt0 += spec.vt_sigma * rng.normal();
    if spec.pr_sigma_rel > 0.0 || spec.ec_sigma_rel > 0.0 {
        // Scale the Landau landscape so that P_r scales by s_p and the
        // coercive field by s_e: E'(P) = s_e·E(P/s_p) maps the
        // coefficients to α·s_e/s_p, β·s_e/s_p³, γ·s_e/s_p⁵ while
        // preserving the S-curve shape and the number of stable states.
        let s_p = (1.0 + spec.pr_sigma_rel * rng.normal()).max(0.05);
        let s_e = (1.0 + spec.ec_sigma_rel * rng.normal()).max(0.05);
        dev.fe.lk.alpha *= s_e / s_p;
        dev.fe.lk.beta *= s_e / (s_p * s_p * s_p);
        dev.fe.lk.gamma *= s_e / (s_p * s_p * s_p * s_p * s_p);
    }
    if spec.trap_density > 0.0 {
        let lambda = spec.trap_density * dev.fe.area;
        let n_t = (lambda + lambda.sqrt() * rng.normal()).max(0.0);
        dev.mos.vt0 += n_t * spec.trap_delta_vt;
    }
    dev
}

fn evaluate(dev: &Fefet) -> SampleResult {
    let states = dev.stable_states_at_zero();
    let lo = states.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = states.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let nonvolatile = lo < -0.05 && hi > 0.05;
    let (states, current_ratio) = if nonvolatile {
        let ratio = dev.drain_current(hi, 0.4) / dev.drain_current(lo, 0.4).max(1e-30);
        (Some((lo, hi)), Some(ratio))
    } else {
        (None, None)
    };
    SampleResult {
        t_fe: dev.fe.thickness,
        nonvolatile,
        states,
        current_ratio,
    }
}

/// Runs an `n`-sample Monte Carlo, seeded for reproducibility.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn monte_carlo(nominal: &Fefet, spec: &VariationSpec, n: usize, seed: u64) -> MonteCarlo {
    assert!(n > 0, "monte_carlo: need at least one sample");
    let mut rng = Rng::seed_from_u64(seed ^ 0xfe0f_37a7);
    let samples = (0..n)
        .map(|_| evaluate(&sample_device(nominal, spec, &mut rng)))
        .collect();
    MonteCarlo { samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::paper_fefet;

    #[test]
    fn nominal_spread_keeps_high_yield() {
        // 2.25 nm is ~16 % above the 1.93 nm boundary; a 3 % thickness
        // sigma should leave the yield essentially perfect.
        let mc = monte_carlo(&paper_fefet(), &VariationSpec::default(), 200, 7);
        assert!(
            mc.yield_fraction() > 0.99,
            "yield {:.3}",
            mc.yield_fraction()
        );
    }

    #[test]
    fn margin_distribution_shape() {
        // The read margin is exponentially sensitive to T_FE (the ON
        // state's internal voltage rides on the NC step-up): typical
        // samples keep ~10^5-10^6 ratios, while 3σ-thin tails degrade to
        // ~10^2 — still readable, but the paper's "large-size transistors
        // for less variation" remark is well-founded.
        let mc = monte_carlo(&paper_fefet(), &VariationSpec::default(), 200, 7);
        let mut ratios: Vec<f64> = mc.samples.iter().filter_map(|s| s.current_ratio).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median > 1e5, "median ratio {median:.2e}");
        let worst = mc.worst_current_ratio().unwrap();
        assert!(worst > 10.0, "worst ratio {worst:.2e} must stay readable");
    }

    #[test]
    fn thin_marginal_device_loses_yield() {
        // At 1.97 nm (just past the boundary) the same spread pushes a
        // meaningful fraction of samples volatile.
        let marginal = paper_fefet().with_thickness(1.97e-9);
        let mc = monte_carlo(&marginal, &VariationSpec::default(), 200, 7);
        let y = mc.yield_fraction();
        assert!(y < 0.995, "marginal yield {y:.3} should drop");
        assert!(y > 0.2, "but not collapse entirely: {y:.3}");
    }

    #[test]
    fn zero_variation_is_deterministic() {
        let spec = VariationSpec {
            t_fe_sigma_rel: 0.0,
            vt_sigma: 0.0,
            width_sigma_rel: 0.0,
            pr_sigma_rel: 0.0,
            ec_sigma_rel: 0.0,
            trap_density: 0.0,
            trap_delta_vt: 0.0,
            c2c_pr_sigma_rel: 0.0,
            c2c_ec_sigma_rel: 0.0,
        };
        let mc = monte_carlo(&paper_fefet(), &spec, 16, 3);
        let (mean, sd) = mc.p_hi_stats().unwrap();
        assert!(sd < 1e-12, "sd {sd}");
        assert!((mean - 0.2155).abs() < 1e-3);
        assert_eq!(mc.yield_fraction(), 1.0);
    }

    #[test]
    fn reproducible_per_seed() {
        let a = monte_carlo(&paper_fefet(), &VariationSpec::default(), 20, 5);
        let b = monte_carlo(&paper_fefet(), &VariationSpec::default(), 20, 5);
        assert_eq!(a, b);
        let c = monte_carlo(&paper_fefet(), &VariationSpec::default(), 20, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn new_knobs_off_draw_nothing() {
        // With the trap/P_r/E_c knobs at zero no extra normals are
        // drawn, so changing only `trap_delta_vt` (which is never used
        // when `trap_density == 0`) must not perturb any sample — this
        // is what keeps legacy seeded runs bit-identical.
        let base = VariationSpec::default();
        let tweaked = VariationSpec {
            trap_delta_vt: 99.0,
            ..base
        };
        let a = monte_carlo(&paper_fefet(), &base, 32, 13);
        let b = monte_carlo(&paper_fefet(), &tweaked, 32, 13);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn pr_ec_scaling_maps_landau_coefficients_consistently() {
        let nominal = paper_fefet();
        // E_c-only: α, β, γ all scale by the same factor s_e.
        let ec_spec = VariationSpec {
            t_fe_sigma_rel: 0.0,
            vt_sigma: 0.0,
            width_sigma_rel: 0.0,
            ec_sigma_rel: 0.10,
            ..VariationSpec::default()
        };
        let mut rng = Rng::seed_from_u64(21);
        let dev = sample_device(&nominal, &ec_spec, &mut rng);
        let ra = dev.fe.lk.alpha / nominal.fe.lk.alpha;
        let rb = dev.fe.lk.beta / nominal.fe.lk.beta;
        let rg = dev.fe.lk.gamma / nominal.fe.lk.gamma;
        assert!(ra > 0.0, "scale factor must stay positive: {ra}");
        assert!((ra - rb).abs() < 1e-12 && (ra - rg).abs() < 1e-12);
        assert!((ra - 1.0).abs() > 1e-6, "a 10 % σ draw should move α");

        // P_r-only: α scales by 1/s_p, β by 1/s_p³, γ by 1/s_p⁵.
        let pr_spec = VariationSpec {
            ec_sigma_rel: 0.0,
            pr_sigma_rel: 0.10,
            ..ec_spec
        };
        let mut rng = Rng::seed_from_u64(22);
        let dev = sample_device(&nominal, &pr_spec, &mut rng);
        let ra = dev.fe.lk.alpha / nominal.fe.lk.alpha;
        let rb = dev.fe.lk.beta / nominal.fe.lk.beta;
        let rg = dev.fe.lk.gamma / nominal.fe.lk.gamma;
        assert!((ra * ra * ra - rb).abs() < 1e-10 * rb.abs());
        assert!((ra * ra * ra * ra * ra - rg).abs() < 1e-10 * rg.abs());
    }

    #[test]
    fn pr_knob_spreads_memory_states() {
        let spec = VariationSpec {
            t_fe_sigma_rel: 0.0,
            vt_sigma: 0.0,
            width_sigma_rel: 0.0,
            pr_sigma_rel: 0.05,
            ..VariationSpec::default()
        };
        let mc = monte_carlo(&paper_fefet(), &spec, 100, 17);
        let (_, sd) = mc.p_hi_stats().unwrap();
        assert!(sd > 1e-3, "P_r spread must widen p_hi: sd {sd:.2e}");
    }

    #[test]
    fn trap_knob_raises_threshold_on_average() {
        let nominal = paper_fefet();
        // Choose the density so the expected per-device trap count is
        // ~20; the mean V_T shift should then track λ·ΔV_T closely.
        let lambda_target = 20.0;
        let spec = VariationSpec {
            t_fe_sigma_rel: 0.0,
            vt_sigma: 0.0,
            width_sigma_rel: 0.0,
            trap_density: lambda_target / nominal.fe.area,
            trap_delta_vt: 5e-3,
            ..VariationSpec::default()
        };
        let mut rng = Rng::seed_from_u64(33);
        let n = 300;
        let mean_shift: f64 = (0..n)
            .map(|_| sample_device(&nominal, &spec, &mut rng).mos.vt0 - nominal.mos.vt0)
            .sum::<f64>()
            / n as f64;
        let expected = lambda_target * spec.trap_delta_vt;
        assert!(mean_shift > 0.0);
        assert!(
            (mean_shift - expected).abs() < 0.2 * expected,
            "mean shift {mean_shift:.4} V vs expected {expected:.4} V"
        );
    }

    #[test]
    fn write_cycle_draws_are_seed_deterministic() {
        let spec = VariationSpec {
            c2c_pr_sigma_rel: 0.04,
            c2c_ec_sigma_rel: 0.06,
            ..VariationSpec::default()
        };
        let draw_seq = |seed: u64| -> Vec<(u64, u64)> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..64)
                .map(|_| {
                    let c = sample_write_cycle(&spec, &mut rng);
                    (c.pr_scale.to_bits(), c.ec_scale.to_bits())
                })
                .collect()
        };
        assert_eq!(draw_seq(42), draw_seq(42), "same seed, same cycles");
        assert_ne!(draw_seq(42), draw_seq(43), "seed must matter");
        // The draws actually move: a 4-6 % σ sequence is not all-nominal.
        let seq = draw_seq(42);
        assert!(seq
            .iter()
            .any(|&(p, e)| p != 1.0f64.to_bits() || e != 1.0f64.to_bits()));
    }

    #[test]
    fn write_cycle_knobs_off_consume_no_draws() {
        // The off spec must leave the RNG stream untouched — this is
        // what keeps legacy seeded op streams bit-identical when a
        // serving spec without c2c variation replays.
        let spec = VariationSpec::default();
        assert_eq!(spec.c2c_pr_sigma_rel, 0.0);
        assert_eq!(spec.c2c_ec_sigma_rel, 0.0);
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..16 {
            let c = sample_write_cycle(&spec, &mut a);
            assert_eq!(c, WriteCycle::nominal());
            assert_eq!(c.stress_weight(), 1.0);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "off knobs drew from the RNG");
    }

    #[test]
    fn write_cycle_draw_count_is_knob_value_independent() {
        // Either knob alone still draws the full pair, so turning the
        // second knob on later does not re-phase the stream.
        let pr_only = VariationSpec {
            c2c_pr_sigma_rel: 0.05,
            ..VariationSpec::default()
        };
        let both = VariationSpec {
            c2c_pr_sigma_rel: 0.05,
            c2c_ec_sigma_rel: 0.05,
            ..VariationSpec::default()
        };
        let mut a = Rng::seed_from_u64(11);
        let mut b = Rng::seed_from_u64(11);
        let ca = sample_write_cycle(&pr_only, &mut a);
        let cb = sample_write_cycle(&both, &mut b);
        assert_eq!(a.next_u64(), b.next_u64(), "draw counts diverged");
        assert_eq!(ca.pr_scale.to_bits(), cb.pr_scale.to_bits());
        assert_eq!(ca.ec_scale, 1.0, "pr-only spec keeps E_c nominal scale");
        assert_ne!(cb.ec_scale, 1.0);
    }

    #[test]
    fn larger_spread_hurts_yield_monotonically() {
        let marginal = paper_fefet().with_thickness(2.0e-9);
        let tight = VariationSpec {
            t_fe_sigma_rel: 0.01,
            ..VariationSpec::default()
        };
        let loose = VariationSpec {
            t_fe_sigma_rel: 0.08,
            ..VariationSpec::default()
        };
        let y_tight = monte_carlo(&marginal, &tight, 300, 11).yield_fraction();
        let y_loose = monte_carlo(&marginal, &loose, 300, 11).yield_fraction();
        assert!(
            y_tight > y_loose,
            "tight {y_tight:.3} vs loose {y_loose:.3}"
        );
    }
}
