//! Robust backward-Euler integration of scalar polarization dynamics.
//!
//! The LK rate `dP/dt = f(t, P)` is stiff and *folded*: during a
//! polarization switch the implicit residual can become non-monotone and
//! a plain Newton iteration jumps between branches. This stepper combines
//! damped Newton (for speed on the smooth segments) with a guaranteed
//! bisection fallback on the bracket `[-P_BOUND, P_BOUND]`, inside which
//! the residual always changes sign because the quintic Landau term
//! dominates at the bracket ends.
//!
//! [`be_step`] steps in P, which suits a rate that is explicit in P (the
//! bare FE capacitor). The FEFET stack's rate needs `V_MOS(P)`, an
//! inverse, so the stack steps in `V_MOS` instead
//! ([`crate::fefet::LkRate::step`]) and shares only [`march`] and
//! [`P_BOUND`] with this module.

use fefet_numerics::{Error, Result};

/// Polarization bracket used by the bisection fallback (C/m²). With the
/// paper's coefficients the physical trajectories stay below ~0.6 C/m²;
/// the unstable outer Landau branch is near 3.1 C/m².
pub const P_BOUND: f64 = 1.6;

/// One sample of an integrated polarization trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PSample {
    /// Time (s).
    pub t: f64,
    /// Polarization (C/m²).
    pub p: f64,
}

/// Takes one backward-Euler step of `dP/dt = rate(t_new, P)`.
///
/// Solves `g(p) = p - p_old - h·rate(t_new, p) = 0` at time `t_new`
/// (s) with step `h` (s) from polarization `p_old` (C/m²), preferring
/// the root nearest `p_old` (branch continuity) and falling back to
/// bisection.
///
/// # Errors
///
/// [`Error::NonFinite`] if the rate function produces a NaN/infinite
/// residual at an iterate.
pub fn be_step<F>(rate: &F, t_new: f64, p_old: f64, h: f64) -> Result<f64>
where
    F: Fn(f64, f64) -> f64,
{
    let g = |p: f64| p - p_old - h * rate(t_new, p);
    // Damped Newton with a finite-difference slope.
    let mut p = p_old;
    for _ in 0..40 {
        let gp = g(p);
        if !gp.is_finite() {
            return Err(Error::NonFinite {
                context: "be_step residual",
            });
        }
        if gp.abs() < 1e-12 * (1.0 + p.abs()) {
            return Ok(p.clamp(-P_BOUND, P_BOUND));
        }
        let dp_fd = 1e-8;
        let slope = (g(p + dp_fd) - gp) / dp_fd;
        if slope.abs() < 1e-12 {
            break;
        }
        let mut step = -gp / slope;
        if step.abs() > 0.05 {
            step = step.signum() * 0.05;
        }
        let p_next = (p + step).clamp(-P_BOUND, P_BOUND);
        if !p_next.is_finite() {
            return Err(Error::NonFinite {
                context: "be_step newton update",
            });
        }
        if (p_next - p).abs() < 1e-14 {
            p = p_next;
            if g(p).abs() < 1e-9 {
                return Ok(p);
            }
            break;
        }
        p = p_next;
    }
    if g(p).abs() < 1e-9 {
        return Ok(p);
    }
    // Bisection: the quintic term guarantees g(-P_BOUND) < 0 < g(P_BOUND)
    // for any LK material with a dominant stabilizing high-order term.
    let (mut lo, mut hi) = (-P_BOUND, P_BOUND);
    let glo = g(lo);
    if !glo.is_finite() {
        return Err(Error::NonFinite {
            context: "be_step bisection bracket",
        });
    }
    if glo > 0.0 {
        // Pathological rate function; return the damped-Newton iterate.
        return Ok(p);
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        let gm = g(mid);
        if !gm.is_finite() {
            return Err(Error::NonFinite {
                context: "be_step bisection",
            });
        }
        if gm < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Integrates `dP/dt = rate(t, P)` from `p0` (C/m²) over `[0, t_end]`
/// (s) with `steps` fixed backward-Euler steps, returning all samples.
///
/// # Errors
///
/// As for [`march`].
pub fn integrate<F>(rate: F, p0: f64, t_end: f64, steps: usize) -> Result<Vec<PSample>>
where
    F: Fn(f64, f64) -> f64,
{
    march(p0, t_end, steps, |t, p, h| be_step(&rate, t, p, h))
}

/// Marches a polarization from `p0` (C/m²) over `[0, t_end]` (s) in
/// `steps` fixed steps of width `h = t_end/steps`, returning all
/// samples. `step(t_new, p_old, h)` takes one step to `t_new`; a
/// stepper that carries more state than P (the FEFET's `V_MOS`) keeps
/// it itself.
///
/// # Errors
///
/// [`Error::InvalidArgument`] if `t_end <= 0` or `steps == 0`;
/// [`Error::NonFinite`] if the initial polarization is NaN/infinite;
/// whatever `step` returns.
pub fn march<S>(p0: f64, t_end: f64, steps: usize, mut step: S) -> Result<Vec<PSample>>
where
    S: FnMut(f64, f64, f64) -> Result<f64>,
{
    if !(t_end > 0.0) {
        return Err(Error::InvalidArgument("integrate: t_end must be positive"));
    }
    if steps == 0 {
        return Err(Error::InvalidArgument("integrate: steps must be positive"));
    }
    if !p0.is_finite() {
        return Err(Error::NonFinite {
            context: "integrate initial polarization",
        });
    }
    let h = t_end / steps as f64;
    let mut out = Vec::with_capacity(steps + 1);
    let mut p = p0;
    out.push(PSample { t: 0.0, p });
    for i in 1..=steps {
        let t = i as f64 * h;
        p = step(t, p, h)?;
        out.push(PSample { t, p });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_decay_matches_exact() {
        let sol = integrate(|_t, p| -1e9 * p, 0.5, 5e-9, 500).unwrap();
        let last = sol.last().unwrap();
        let exact = 0.5 * (-5.0f64).exp();
        assert!((last.p - exact).abs() < 2e-3);
    }

    #[test]
    fn lk_relaxation_to_remnant() {
        // Pure LK well: from a small positive perturbation the state flows
        // to +P_r.
        use fefet_ckt::models::LkParams;
        let lk = LkParams::default();
        let pr = lk.remnant_polarization().unwrap();
        let sol = integrate(|_t, p| -lk.e_static(p) / lk.rho, 0.05, 50e-9, 2000).unwrap();
        assert!((sol.last().unwrap().p - pr).abs() < 1e-3);
    }

    #[test]
    fn lk_switching_through_the_fold_is_robust() {
        // Strong field against the stored state with a coarse step: the
        // solver must step through the fold without failing.
        use fefet_ckt::models::LkParams;
        let lk = LkParams::default();
        let pr = lk.remnant_polarization().unwrap();
        let e_app = 3.0e9; // well above coercive field
        let sol = integrate(|_t, p| (e_app - lk.e_static(p)) / lk.rho, -pr, 5e-9, 50).unwrap();
        assert!(sol.last().unwrap().p > pr, "must have switched positive");
        assert!(sol.iter().all(|s| s.p.is_finite()));
    }

    #[test]
    fn stationary_at_equilibrium() {
        use fefet_ckt::models::LkParams;
        let lk = LkParams::default();
        let pr = lk.remnant_polarization().unwrap();
        let sol = integrate(|_t, p| -lk.e_static(p) / lk.rho, pr, 10e-9, 100).unwrap();
        for s in &sol {
            assert!((s.p - pr).abs() < 1e-6);
        }
    }

    #[test]
    fn bad_args_are_typed_errors() {
        assert!(matches!(
            integrate(|_t, _p| 0.0, 0.0, 0.0, 10),
            Err(Error::InvalidArgument(_))
        ));
        assert!(matches!(
            integrate(|_t, _p| 0.0, 0.0, 1e-9, 0),
            Err(Error::InvalidArgument(_))
        ));
        assert!(matches!(
            integrate(|_t, _p| 0.0, f64::NAN, 1e-9, 10),
            Err(Error::NonFinite { .. })
        ));
    }

    #[test]
    fn nan_rate_is_a_typed_error() {
        let res = integrate(|_t, _p| f64::NAN, 0.1, 1e-9, 10);
        assert!(matches!(res, Err(Error::NonFinite { .. })), "{res:?}");
    }

    #[test]
    fn samples_cover_interval() {
        let sol = integrate(|_t, _p| 0.0, 0.1, 1e-9, 10).unwrap();
        assert_eq!(sol.len(), 11);
        assert_eq!(sol[0].t, 0.0);
        assert!((sol.last().unwrap().t - 1e-9).abs() < 1e-24);
    }
}
