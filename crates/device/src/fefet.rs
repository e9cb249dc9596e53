//! The composite FEFET device: a Landau-Khalatnikov ferroelectric layer in
//! series with the MOSFET gate (paper §2-3, Fig 2-3).
//!
//! Charge continuity ties the ferroelectric polarization to the MOSFET
//! gate-charge density (`q = P`, both in C/m², taking the FE area equal to
//! the gate area), so the applied gate voltage splits as
//!
//! ```text
//! V_G = V_MOS(P) + T_FE·(α P + β P³ + γ P⁵) + T_FE·ρ·dP/dt
//! ```
//!
//! Static analysis walks this relation on a polarization grid; transient
//! analysis integrates the `dP/dt` term directly.

use crate::dynamics::{self, PSample};
use fefet_ckt::models::{FeCapParams, MosParams};
use fefet_numerics::Result;

/// A composite ferroelectric transistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fefet {
    /// The gate-stack ferroelectric.
    pub fe: FeCapParams,
    /// The underlying MOSFET.
    pub mos: MosParams,
}

/// Polarization half-range (C/m²) of the zero-bias state scan behind
/// [`Fefet::stable_states_at_zero`] and [`Fefet::is_nonvolatile`].
const STATE_P_MAX: f64 = 0.9;
/// Grid intervals of the zero-bias state scan.
const STATE_GRID: usize = 4000;

/// The MOS gate branch `V_MOS(p_i)` tabulated on an equilibrium grid
/// over `[-p_max, p_max]` (C/m²).
///
/// `V_MOS(P)` — the gate voltage at which the MOSFET holds charge
/// density `P` — depends only on the gate C-V card (`cox_area`,
/// `cdep_ratio`, `vt_q`, `v_smooth`): not on the applied gate voltage,
/// the ferroelectric, `vt0` or the width. A scan reading the table adds
/// the same `f64` at every grid point as [`Fefet::equilibria`] computes
/// inline, so repeated scans of one card share one table and stay
/// bit-identical.
#[derive(Debug)]
pub(crate) struct GateBranch {
    /// The C-V card the table was built for, as bit patterns.
    card: [u64; 4],
    p_max: f64,
    /// `V_MOS` (V) at each of the `grid + 1` scan points.
    v_mos: Vec<f64>,
}

impl GateBranch {
    /// Tabulates `mos`'s gate branch on the `grid`-interval scan over
    /// `[-p_max, p_max]` (C/m²).
    ///
    /// # Panics
    ///
    /// Panics if `grid < 3`.
    pub(crate) fn new(mos: &MosParams, p_max: f64, grid: usize) -> Self {
        assert!(grid >= 3, "gate branch: grid too small");
        GateBranch {
            card: cv_card(mos),
            p_max,
            v_mos: grid_points(p_max, grid)
                .map(|p| mos.v_gate_of_density(p))
                .collect(),
        }
    }

    /// The branch on the zero-bias state scan's grid, for
    /// [`Fefet::stable_states_on`] and [`Fefet::is_nonvolatile_on`].
    pub(crate) fn states(mos: &MosParams) -> Self {
        GateBranch::new(mos, STATE_P_MAX, STATE_GRID)
    }
}

/// The fields `MosParams::v_gate_of_density` reads, as bit patterns.
fn cv_card(mos: &MosParams) -> [u64; 4] {
    [
        mos.cox_area.to_bits(),
        mos.cdep_ratio.to_bits(),
        mos.vt_q.to_bits(),
        mos.v_smooth.to_bits(),
    ]
}

/// The `grid + 1` polarizations (C/m²) of a scan over `[-p_max, p_max]`.
fn grid_points(p_max: f64, grid: usize) -> impl Iterator<Item = f64> {
    std::iter::once(-p_max)
        .chain((1..=grid).map(move |i| -p_max + 2.0 * p_max * i as f64 / grid as f64))
}

/// The stable polarizations among `eqs`.
fn stable(eqs: Vec<Equilibrium>) -> Vec<f64> {
    eqs.into_iter().filter(|e| e.stable).map(|e| e.p).collect()
}

/// The §3 memory criterion on zero-bias stable states: one well below
/// and one well above zero polarization.
fn holds_two_states(states: &[f64]) -> bool {
    states.iter().any(|p| *p < -0.05) && states.iter().any(|p| *p > 0.05)
}

/// An equilibrium polarization at a given gate voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Equilibrium {
    /// Polarization (C/m²).
    pub p: f64,
    /// True if the equilibrium is stable (`dV_G/dP > 0`).
    pub stable: bool,
}

/// One sample of a quasi-static I_D-V_G sweep branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Applied gate voltage (V).
    pub v_g: f64,
    /// Drain current (A) at the sweep's drain voltage.
    pub i_d: f64,
    /// Polarization (C/m²).
    pub p: f64,
    /// Internal MOSFET gate voltage (V) after the NC step-up.
    pub v_mos: f64,
}

/// A full up/down quasi-static sweep (paper Fig 2a / Fig 3a).
#[derive(Debug, Clone, PartialEq)]
pub struct IdVgSweep {
    /// Up-branch samples (V_G increasing).
    pub up: Vec<SweepPoint>,
    /// Down-branch samples (V_G decreasing).
    pub down: Vec<SweepPoint>,
}

impl IdVgSweep {
    /// Gate voltage (V) of the largest polarization jump on the up
    /// branch (the up-switching voltage), if any jump exceeds `min_dp`
    /// (C/m²).
    pub fn v_switch_up(&self, min_dp: f64) -> Option<f64> {
        largest_jump(&self.up, min_dp)
    }

    /// Gate voltage (V) of the largest polarization jump on the down
    /// branch, if any jump exceeds `min_dp` (C/m²).
    pub fn v_switch_down(&self, min_dp: f64) -> Option<f64> {
        largest_jump(&self.down, min_dp)
    }

    /// Hysteresis window `(v_switch_down, v_switch_up)` (V), if both
    /// exist at jump threshold `min_dp` (C/m²).
    pub fn window(&self, min_dp: f64) -> Option<(f64, f64)> {
        Some((self.v_switch_down(min_dp)?, self.v_switch_up(min_dp)?))
    }

    /// Gate voltage at which the polarization crosses zero on the up
    /// branch — the switching-voltage definition suited to *continuous*
    /// (dynamic) trajectories, where the transition is spread over many
    /// samples rather than a single quasi-static jump.
    pub fn v_cross_up(&self) -> Option<f64> {
        cross_zero_v(&self.up)
    }

    /// Gate voltage at which the polarization crosses zero on the down
    /// branch.
    pub fn v_cross_down(&self) -> Option<f64> {
        cross_zero_v(&self.down)
    }

    /// Current ratio between the two branches at `v_g` (up branch is the
    /// low-P branch for an NMOS FEFET).
    pub fn branch_ratio_at(&self, v_g: f64) -> Option<f64> {
        let i_up = interp_current(&self.up, v_g)?;
        let i_dn = interp_current(&self.down, v_g)?;
        let (hi, lo) = if i_up > i_dn {
            (i_up, i_dn)
        } else {
            (i_dn, i_up)
        };
        Some(hi / lo.max(1e-300))
    }
}

fn cross_zero_v(branch: &[SweepPoint]) -> Option<f64> {
    for w in branch.windows(2) {
        if (w[0].p < 0.0 && w[1].p >= 0.0) || (w[0].p > 0.0 && w[1].p <= 0.0) {
            let f = -w[0].p / (w[1].p - w[0].p);
            return Some(w[0].v_g + f * (w[1].v_g - w[0].v_g));
        }
    }
    None
}

fn largest_jump(branch: &[SweepPoint], min_dp: f64) -> Option<f64> {
    let mut best: Option<(f64, f64)> = None;
    for w in branch.windows(2) {
        let dp = (w[1].p - w[0].p).abs();
        if dp >= min_dp && best.map(|(d, _)| dp > d).unwrap_or(true) {
            best = Some((dp, 0.5 * (w[0].v_g + w[1].v_g)));
        }
    }
    best.map(|(_, v)| v)
}

fn interp_current(branch: &[SweepPoint], v_g: f64) -> Option<f64> {
    // Branches may run in either direction; find the bracketing segment.
    for w in branch.windows(2) {
        let (a, b) = (w[0].v_g, w[1].v_g);
        if (a - v_g) * (b - v_g) <= 0.0 && a != b {
            let f = (v_g - a) / (b - a);
            return Some(w[0].i_d + f * (w[1].i_d - w[0].i_d));
        }
    }
    None
}

impl Fefet {
    /// Builds a FEFET; the ferroelectric area should equal the gate area
    /// for the charge-continuity model to be consistent.
    pub fn new(fe: FeCapParams, mos: MosParams) -> Self {
        Fefet { fe, mos }
    }

    /// The paper's FEFET with a different ferroelectric thickness
    /// `t_fe` (m).
    pub fn with_thickness(mut self, t_fe: f64) -> Self {
        self.fe.thickness = t_fe;
        self
    }

    /// Static gate voltage (V) required to hold polarization `p`
    /// (C/m²): `V_G(P) = V_MOS(P) + T_FE·E_static(P)`.
    pub fn v_gate_static(&self, p: f64) -> f64 {
        self.mos.v_gate_of_density(p) + self.fe.v_static(p)
    }

    /// Slope `dV_G/dP` (V·m²/C) of the static stack curve at
    /// polarization `p` (C/m²):
    /// `1/C_MOS(V_MOS(P)) + T_FE·dE/dP`. A negative slope anywhere means
    /// the transfer curve folds — the §3 hysteresis criterion
    /// `|C_FE| < C_MOS` expressed on the polarization axis.
    pub fn dv_gate_dp(&self, p: f64) -> f64 {
        let v_mos = self.mos.v_gate_of_density(p);
        1.0 / self.mos.c_gate_density(v_mos) + self.fe.dv_dp(p)
    }

    /// True if the static stack curve has a negative-slope (folded)
    /// region within `|P| <= p_max` (C/m²) — i.e. the device is
    /// hysteretic.
    pub fn is_hysteretic(&self, p_max: f64, grid: usize) -> bool {
        (0..=grid).any(|i| {
            let p = -p_max + 2.0 * p_max * i as f64 / grid as f64;
            self.dv_gate_dp(p) < 0.0
        })
    }

    /// Internal MOSFET gate voltage (V) when the stack holds
    /// polarization `p` (C/m²)
    /// under applied gate voltage `v_g` (quasi-statically,
    /// `V_MOS = V_G − T_FE·E_static(P)` at equilibrium; here computed
    /// from the charge branch, which also holds off equilibrium).
    pub fn v_mos_of(&self, p: f64) -> f64 {
        self.mos.v_gate_of_density(p)
    }

    /// All equilibria at gate voltage `v_g` (V), found by scanning
    /// `V_G(P) − v_g` for sign changes over `[-p_max, p_max]` (C/m²) on a
    /// `grid`-interval polarization grid, then bisecting each bracket.
    ///
    /// This one-shot form inverts `V_MOS(P)` at every grid point. Callers
    /// that scan the same device family many times read a tabulated
    /// `GateBranch` instead; both run one scan and agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 3`.
    pub fn equilibria(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<Equilibrium> {
        assert!(grid >= 3, "equilibria: grid too small");
        self.scan(v_g, p_max, grid, |_, p| self.mos.v_gate_of_density(p))
    }

    /// [`Fefet::equilibria`] on `branch`'s grid, reading `V_MOS(p_i)`
    /// from the table instead of inverting it.
    ///
    /// # Panics
    ///
    /// Panics if `branch` was built for another gate C-V card.
    pub(crate) fn equilibria_on(&self, branch: &GateBranch, v_g: f64) -> Vec<Equilibrium> {
        assert!(
            branch.card == cv_card(&self.mos),
            "equilibria_on: gate branch built for another C-V card"
        );
        self.scan(v_g, branch.p_max, branch.v_mos.len() - 1, |i, _| {
            branch.v_mos[i]
        })
    }

    /// The equilibrium scan shared by [`Fefet::equilibria`] and
    /// [`Fefet::equilibria_on`]: `v_mos(i, p_i)` supplies `V_MOS` at grid
    /// point `i`; the bisection always evaluates the full stack curve.
    fn scan(
        &self,
        v_g: f64,
        p_max: f64,
        grid: usize,
        v_mos: impl Fn(usize, f64) -> f64,
    ) -> Vec<Equilibrium> {
        let offset = |i: usize, p: f64| (v_mos(i, p) + self.fe.v_static(p)) - v_g;
        let mut out = Vec::new();
        let mut prev_p = -p_max;
        let mut prev_f = offset(0, prev_p);
        for (i, p) in grid_points(p_max, grid).enumerate().skip(1) {
            let f = offset(i, p);
            if prev_f == 0.0 {
                out.push(Equilibrium {
                    p: prev_p,
                    stable: f > prev_f,
                });
            } else if prev_f * f < 0.0 {
                // Bisect for the root.
                let (mut lo, mut hi, lo_f) = (prev_p, p, prev_f);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    let fm = self.v_gate_static(mid) - v_g;
                    if (fm > 0.0) == (lo_f > 0.0) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                let root = 0.5 * (lo + hi);
                out.push(Equilibrium {
                    p: root,
                    stable: f > prev_f, // rising crossing = stable
                });
            }
            prev_p = p;
            prev_f = f;
        }
        out
    }

    /// Stable polarization states at zero gate bias — the memory states.
    pub fn stable_states_at_zero(&self) -> Vec<f64> {
        stable(self.equilibria(0.0, STATE_P_MAX, STATE_GRID))
    }

    /// [`Fefet::stable_states_at_zero`] read from `branch`; equal to it
    /// bit for bit when `branch` is [`GateBranch::states`].
    pub(crate) fn stable_states_on(&self, branch: &GateBranch) -> Vec<f64> {
        stable(self.equilibria_on(branch, 0.0))
    }

    /// True if the device retains two well-separated polarization states
    /// at `V_G = 0` (the §3 non-volatility criterion: hysteresis spans
    /// both positive and negative gate voltage).
    pub fn is_nonvolatile(&self) -> bool {
        holds_two_states(&self.stable_states_at_zero())
    }

    /// [`Fefet::is_nonvolatile`] read from `branch` (see
    /// [`Fefet::stable_states_on`]).
    pub(crate) fn is_nonvolatile_on(&self, branch: &GateBranch) -> bool {
        holds_two_states(&self.stable_states_on(branch))
    }

    /// Drain current (A) at drain bias `v_ds` (V), with the stack
    /// holding polarization `p` (C/m²).
    pub fn drain_current(&self, p: f64, v_ds: f64) -> f64 {
        let v_mos = self.v_mos_of(p);
        self.mos.ids(v_mos, v_ds).0
    }

    /// Quasi-static I_D-V_G hysteresis sweep at drain bias `v_ds` (V),
    /// Fig 2a / Fig 3a: the polarization follows the nearest stable
    /// equilibrium as `V_G` ramps `v_lo → v_hi → v_lo` (V).
    ///
    /// Every tracking point scans one 2,000-interval `GateBranch` built
    /// once per sweep, so the result is bit-identical to tracking
    /// with one-shot [`Fefet::equilibria`] at the same grid.
    ///
    /// # Panics
    ///
    /// Panics if `v_lo >= v_hi` or `steps < 2`.
    pub fn sweep_id_vg(&self, v_lo: f64, v_hi: f64, steps: usize, v_ds: f64) -> IdVgSweep {
        assert!(v_lo < v_hi, "sweep: need v_lo < v_hi");
        assert!(steps >= 2, "sweep: need steps >= 2");
        // Start from the most negative stable state at v_lo.
        let start = stable(self.equilibria(v_lo, 0.9, 4000))
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut p = if start.is_finite() { start } else { 0.0 };
        let branch = GateBranch::new(&self.mos, 0.9, 2000);
        let track = |v_g: f64, p_prev: f64| -> f64 {
            stable(self.equilibria_on(&branch, v_g))
                .into_iter()
                .min_by(|a, b| (a - p_prev).abs().total_cmp(&(b - p_prev).abs()))
                .unwrap_or(p_prev)
        };
        let mut up = Vec::with_capacity(steps + 1);
        for i in 0..=steps {
            let v_g = v_lo + (v_hi - v_lo) * i as f64 / steps as f64;
            p = track(v_g, p);
            up.push(SweepPoint {
                v_g,
                i_d: self.drain_current(p, v_ds),
                p,
                v_mos: self.v_mos_of(p),
            });
        }
        let mut down = Vec::with_capacity(steps + 1);
        for i in 0..=steps {
            let v_g = v_hi - (v_hi - v_lo) * i as f64 / steps as f64;
            p = track(v_g, p);
            down.push(SweepPoint {
                v_g,
                i_d: self.drain_current(p, v_ds),
                p,
                v_mos: self.v_mos_of(p),
            });
        }
        IdVgSweep { up, down }
    }

    /// Nested minor-loop family (classic ferroelectric characterization):
    /// quasi-static sweeps over ±`v_max` for each amplitude (V) in
    /// `v_maxes` at drain bias `v_ds` (V),
    /// all starting from the low memory state. Small amplitudes trace
    /// closed reversible curves; once the amplitude exceeds the switching
    /// voltages the loop opens into the full hysteresis loop.
    pub fn minor_loops(&self, v_maxes: &[f64], steps: usize, v_ds: f64) -> Vec<IdVgSweep> {
        v_maxes
            .iter()
            .map(|&vm| {
                assert!(vm > 0.0, "minor_loops: amplitudes must be positive");
                self.sweep_id_vg(-vm, vm, steps, v_ds)
            })
            .collect()
    }

    /// Integrates the polarization dynamics under a gate-voltage waveform
    /// `v_g(t)`:
    ///
    /// `dP/dt = (v_g(t) − V_MOS(P) − T_FE·E_static(P)) / (T_FE·ρ)`.
    ///
    /// Returns `(t, P)` samples over `[0, t_end]` (s), starting from
    /// polarization `p0` (C/m²).
    ///
    /// # Errors
    ///
    /// Propagates [`fefet_numerics::Error`] from the LK integration:
    /// `InvalidArgument` for a non-positive horizon or zero steps,
    /// `NonFinite` if the waveform or state diverges.
    pub fn transient<F>(&self, v_g: F, p0: f64, t_end: f64, steps: usize) -> Result<Vec<PSample>>
    where
        F: Fn(f64) -> f64,
    {
        let rate = |t: f64, p: f64| {
            let v_fe = v_g(t) - self.mos.v_gate_of_density(p);
            (v_fe - self.fe.v_static(p)) / (self.fe.thickness * self.fe.lk.rho)
        };
        dynamics::integrate(rate, p0, t_end, steps)
    }

    /// Dynamic (rate-dependent) I_D-V_G loop: a triangular gate sweep at
    /// finite ramp time instead of the quasi-static equilibrium tracker.
    /// Faster ramps widen the apparent loop (kinetic broadening), the
    /// same effect Fig 10(a) exploits: shorter pulses need more voltage.
    ///
    /// `t_ramp` (s) is the time for one `v_lo → v_hi` (V) ramp, at
    /// drain bias `v_ds` (V).
    ///
    /// # Errors
    ///
    /// Propagates integration errors from [`Fefet::transient`].
    ///
    /// # Panics
    ///
    /// Panics if `v_lo >= v_hi`.
    pub fn dynamic_sweep(
        &self,
        v_lo: f64,
        v_hi: f64,
        t_ramp: f64,
        steps: usize,
        v_ds: f64,
    ) -> Result<IdVgSweep> {
        assert!(v_lo < v_hi, "dynamic_sweep: need v_lo < v_hi");
        // Start from the most negative stable state at v_lo.
        let p0 = self
            .equilibria(v_lo, 0.9, 2000)
            .into_iter()
            .filter(|e| e.stable)
            .map(|e| e.p)
            .fold(f64::INFINITY, f64::min);
        let p0 = if p0.is_finite() { p0 } else { 0.0 };
        let span = v_hi - v_lo;
        let up_wave = move |t: f64| v_lo + span * (t / t_ramp).min(1.0);
        let up_traj = self.transient(up_wave, p0, t_ramp, steps)?;
        let p_top = up_traj.last().map(|s| s.p).unwrap_or(p0);
        let down_wave = move |t: f64| v_hi - span * (t / t_ramp).min(1.0);
        let down_traj = self.transient(down_wave, p_top, t_ramp, steps)?;
        let mk = |traj: &[crate::dynamics::PSample], wave: &dyn Fn(f64) -> f64| {
            traj.iter()
                .map(|s| {
                    let v_g = wave(s.t);
                    SweepPoint {
                        v_g,
                        i_d: self.drain_current(s.p, v_ds),
                        p: s.p,
                        v_mos: self.v_mos_of(s.p),
                    }
                })
                .collect()
        };
        Ok(IdVgSweep {
            up: mk(&up_traj, &up_wave),
            down: mk(&down_traj, &down_wave),
        })
    }

    /// Time for a constant gate voltage `v_write` to switch the device
    /// from the stable state nearest `p_from` to within `tol` (C/m²) of
    /// its destination stable state, or `Ok(None)` if it has not switched
    /// by `t_max`.
    ///
    /// # Errors
    ///
    /// Propagates integration errors from [`Fefet::transient`].
    pub fn write_time(
        &self,
        v_write: f64,
        p_from: f64,
        t_max: f64,
        tol: f64,
    ) -> Result<Option<f64>> {
        // Destination: stable state at v_write nearest the drive direction.
        let dest = self
            .equilibria(v_write, 0.9, 3000)
            .into_iter()
            .filter(|e| e.stable)
            .map(|e| e.p)
            .fold(
                if v_write > 0.0 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                if v_write > 0.0 { f64::max } else { f64::min },
            );
        if !dest.is_finite() {
            return Ok(None);
        }
        let steps = 4000;
        let sol = self.transient(|_| v_write, p_from, t_max, steps)?;
        Ok(sol.iter().find(|s| (s.p - dest).abs() <= tol).map(|s| s.t))
    }

    /// Retention check (Fig 2b / Fig 3b): after writing with `v_pulse`
    /// (V) for `t_pulse` (s) from polarization `p0` (C/m²), hold
    /// `V_G = 0` for `t_hold` (s) and return the final polarization.
    ///
    /// # Errors
    ///
    /// Propagates integration errors from [`Fefet::transient`].
    pub fn write_then_hold(&self, v_pulse: f64, t_pulse: f64, p0: f64, t_hold: f64) -> Result<f64> {
        let written = self
            .transient(|_| v_pulse, p0, t_pulse, 2000)?
            .last()
            .map(|s| s.p)
            .unwrap_or(p0);
        Ok(self
            .transient(|_| 0.0, written, t_hold, 2000)?
            .last()
            .map(|s| s.p)
            .unwrap_or(written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endurance::EnduranceModel;
    use crate::params::paper_fefet;
    use crate::thermal::ThermalModel;
    use crate::variability::{sample_device, VariationSpec};
    use fefet_numerics::rng::Rng;

    /// Devices that share the paper's gate C-V card: the four Fig 2-4
    /// thicknesses, a fatigued film, a hot film and seeded variation
    /// draws with the P_r/E_c and trap knobs on.
    fn same_card_devices() -> Vec<Fefet> {
        let base = paper_fefet();
        let mut devs: Vec<Fefet> = [2.25e-9, 1.9e-9, 1.0e-9, 2.5e-9]
            .iter()
            .map(|&t| base.with_thickness(t))
            .collect();
        devs.push(EnduranceModel::default().fefet_after(&base, 1e14).0);
        devs.push(ThermalModel::default().fefet_at(&base, 400.0));
        let spec = VariationSpec {
            pr_sigma_rel: 0.05,
            ec_sigma_rel: 0.05,
            trap_density: 20.0 / base.fe.area,
            ..VariationSpec::default()
        };
        let mut rng = Rng::seed_from_u64(0x6a7e);
        devs.extend((0..3).map(|_| sample_device(&base, &spec, &mut rng)));
        devs
    }

    fn bits(eqs: &[Equilibrium]) -> Vec<(u64, bool)> {
        eqs.iter().map(|e| (e.p.to_bits(), e.stable)).collect()
    }

    #[test]
    fn branch_scan_matches_one_shot_bit_for_bit() {
        let card = paper_fefet().mos;
        for grid in [2000, 4000, 6000] {
            let branch = GateBranch::new(&card, 0.9, grid);
            for dev in same_card_devices() {
                for k in 0..=48 {
                    let v_g = -1.2 + 2.4 * k as f64 / 48.0;
                    let table = dev.equilibria_on(&branch, v_g);
                    let inline = dev.equilibria(v_g, 0.9, grid);
                    assert_eq!(
                        bits(&table),
                        bits(&inline),
                        "{dev:?} at {v_g} V, grid {grid}"
                    );
                }
            }
        }
        let states = GateBranch::states(&card);
        for dev in same_card_devices() {
            let table: Vec<u64> = dev
                .stable_states_on(&states)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let inline: Vec<u64> = dev
                .stable_states_at_zero()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(table, inline, "{dev:?}");
            assert_eq!(dev.is_nonvolatile_on(&states), dev.is_nonvolatile());
        }
    }

    #[test]
    #[should_panic(expected = "another C-V card")]
    fn branch_for_another_cox_area_is_rejected() {
        let dev = paper_fefet();
        let mut other = dev.mos;
        other.cox_area *= 1.01;
        dev.equilibria_on(&GateBranch::states(&other), 0.0);
    }

    #[test]
    #[should_panic(expected = "another C-V card")]
    fn branch_for_another_vt_q_is_rejected() {
        let dev = paper_fefet();
        let mut other = dev.mos;
        other.vt_q += 0.01;
        dev.equilibria_on(&GateBranch::states(&other), 0.0);
    }

    #[test]
    fn fig2_nonvolatile_at_2_25nm() {
        let f = paper_fefet();
        assert!(f.is_nonvolatile());
        let states = f.stable_states_at_zero();
        assert!(states.iter().any(|p| *p < -0.1), "states: {states:?}");
        assert!(states.iter().any(|p| *p > 0.15), "states: {states:?}");
    }

    #[test]
    fn fig3_volatile_at_1_9nm() {
        let f = paper_fefet().with_thickness(1.9e-9);
        assert!(!f.is_nonvolatile());
    }

    #[test]
    fn no_hysteresis_at_1nm() {
        let f = paper_fefet().with_thickness(1.0e-9);
        let sweep = f.sweep_id_vg(-1.0, 1.0, 200, 0.05);
        assert!(sweep.window(0.05).is_none(), "1nm device must be loop-free");
        // And only one state at zero.
        assert_eq!(f.stable_states_at_zero().len(), 1);
    }

    #[test]
    fn fig2a_window_spans_zero_and_is_about_half_volt() {
        let f = paper_fefet();
        let sweep = f.sweep_id_vg(-1.0, 1.0, 400, 0.05);
        let (v_dn, v_up) = sweep.window(0.05).expect("2.25nm must show a loop");
        assert!(v_up > 0.0, "up-switch at {v_up}");
        assert!(v_dn < 0.0, "down-switch at {v_dn}");
        let width = v_up - v_dn;
        assert!(
            (0.25..0.75).contains(&width),
            "window width {width:.3} V should be around 0.5 V"
        );
    }

    #[test]
    fn fig3a_window_positive_only_at_1_9nm() {
        let f = paper_fefet().with_thickness(1.9e-9);
        let sweep = f.sweep_id_vg(-1.0, 1.0, 800, 0.05);
        if let Some((v_dn, v_up)) = sweep.window(0.02) {
            assert!(
                v_dn > 0.0,
                "1.9nm loop must sit at positive V_GS, got down-switch {v_dn}"
            );
            assert!(
                v_up > 0.0,
                "1.9nm loop must sit at positive V_GS, got up-switch {v_up}"
            );
        }
        // Whether or not a small loop is resolved, the device is volatile.
        assert!(!f.is_nonvolatile());
    }

    #[test]
    fn six_orders_of_magnitude_distinguishability() {
        // Paper: read currents of the two states differ by ~10^6 at
        // V_GS = 0 (read drain bias 0.4 V).
        let f = paper_fefet();
        let states = f.stable_states_at_zero();
        let p_lo = states.iter().cloned().fold(f64::INFINITY, f64::min);
        let p_hi = states.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let i0 = f.drain_current(p_lo, 0.4);
        let i1 = f.drain_current(p_hi, 0.4);
        let ratio = i1 / i0;
        assert!(
            ratio > 1e6,
            "state currents {i1:.3e}/{i0:.3e} ratio {ratio:.2e} < 1e6"
        );
    }

    #[test]
    fn nc_voltage_stepup_in_on_state() {
        // In the retained ON state the internal MOSFET gate sits far above
        // the applied 0 V — the negative-capacitance voltage amplification.
        let f = paper_fefet();
        let p_hi = f
            .stable_states_at_zero()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        let v_int = f.v_mos_of(p_hi);
        assert!(v_int > 1.0, "internal gate = {v_int:.2} V");
    }

    #[test]
    fn equilibria_stability_classification() {
        let f = paper_fefet();
        let eq = f.equilibria(0.0, 0.9, 4000);
        // Stable and unstable points must alternate.
        for w in eq.windows(2) {
            assert_ne!(w[0].stable, w[1].stable, "stability must alternate");
        }
        // At least one unstable point between two stable memory states.
        assert!(eq.iter().any(|e| !e.stable));
    }

    #[test]
    fn write_pulse_switches_and_retains() {
        let f = paper_fefet();
        let states = f.stable_states_at_zero();
        let p_lo = states.iter().cloned().fold(f64::INFINITY, f64::min);
        let p_hi = states.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Write '1' from the low state with +0.68 V.
        let p_after = f.write_then_hold(0.68, 2e-9, p_lo, 20e-9).unwrap();
        assert!(
            (p_after - p_hi).abs() < 0.05,
            "retained {p_after} vs expected {p_hi}"
        );
        // Write '0' from the high state with −0.68 V.
        let p_after = f.write_then_hold(-0.68, 2e-9, p_hi, 20e-9).unwrap();
        assert!(
            (p_after - p_lo).abs() < 0.05,
            "retained {p_after} vs expected {p_lo}"
        );
    }

    #[test]
    fn volatile_device_relaxes_after_write() {
        // Fig 3b: at 1.9 nm the written polarization falls back once the
        // gate is released.
        let f = paper_fefet().with_thickness(1.9e-9);
        let p_after = f.write_then_hold(-0.68, 2e-9, 0.0, 50e-9).unwrap();
        assert!(
            p_after.abs() < 0.06,
            "1.9nm should not retain, got {p_after}"
        );
    }

    #[test]
    fn write_time_at_0v68_is_sub_nanosecond() {
        // Table 3: 0.55 ns write at 0.68 V. The kinetic coefficient is
        // calibrated to land in that range.
        let f = paper_fefet();
        let p_lo = f
            .stable_states_at_zero()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let t = f
            .write_time(0.68, p_lo, 10e-9, 0.02)
            .unwrap()
            .expect("0.68 V must switch the device");
        assert!(
            (0.2e-9..1.2e-9).contains(&t),
            "write time {:.3} ns should be near 0.55 ns",
            t * 1e9
        );
    }

    #[test]
    fn write_fails_below_half_volt() {
        // Fig 10a: FEFET write fails below ≈0.5 V. The binding direction
        // is the '0' write (down-switch at ≈ −0.35 V statically, higher
        // dynamically).
        let f = paper_fefet();
        let p_hi = f
            .stable_states_at_zero()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            f.write_time(-0.15, p_hi, 20e-9, 0.02).unwrap().is_none(),
            "-0.15 V must NOT switch the high state"
        );
        assert!(
            f.write_time(-0.68, p_hi, 20e-9, 0.02).unwrap().is_some(),
            "-0.68 V must switch the high state"
        );
    }

    #[test]
    fn higher_write_voltage_switches_faster() {
        let f = paper_fefet();
        let p_lo = f
            .stable_states_at_zero()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let t1 = f.write_time(0.6, p_lo, 20e-9, 0.02).unwrap().unwrap();
        let t2 = f.write_time(0.9, p_lo, 20e-9, 0.02).unwrap().unwrap();
        assert!(t2 < t1, "faster at higher voltage: {t2} vs {t1}");
    }

    #[test]
    fn dynamic_loop_wider_than_quasi_static() {
        let f = paper_fefet();
        let qs = f.sweep_id_vg(-1.0, 1.0, 300, 0.05);
        let u_qs = qs.v_cross_up().unwrap();
        let d_qs = qs.v_cross_down().unwrap();
        // A 2 ns ramp is comparable to the switching time: kinetic
        // broadening pushes both switching voltages outward.
        let dyn_fast = f.dynamic_sweep(-1.0, 1.0, 2e-9, 2000, 0.05).unwrap();
        let u_dyn = dyn_fast.v_cross_up().unwrap();
        let d_dyn = dyn_fast.v_cross_down().unwrap();
        assert!(u_dyn > u_qs, "up: dynamic {u_dyn:.3} vs static {u_qs:.3}");
        assert!(d_dyn < d_qs, "down: dynamic {d_dyn:.3} vs static {d_qs:.3}");
        // A very slow ramp converges back to the quasi-static loop.
        let dyn_slow = f.dynamic_sweep(-1.0, 1.0, 500e-9, 4000, 0.05).unwrap();
        let u_slow = dyn_slow.v_cross_up().unwrap();
        assert!((u_slow - u_qs).abs() < 0.08, "{u_slow:.3} vs {u_qs:.3}");
    }

    #[test]
    fn minor_loops_open_with_amplitude() {
        let f = paper_fefet();
        let loops = f.minor_loops(&[0.05, 0.3, 1.0], 200, 0.05);
        // Polarization excursion grows with drive amplitude.
        let p_span = |sw: &IdVgSweep| {
            let lo = sw
                .up
                .iter()
                .chain(&sw.down)
                .map(|p| p.p)
                .fold(f64::INFINITY, f64::min);
            let hi = sw
                .up
                .iter()
                .chain(&sw.down)
                .map(|p| p.p)
                .fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        let spans: Vec<f64> = loops.iter().map(p_span).collect();
        assert!(spans[0] < spans[1] && spans[1] < spans[2], "{spans:?}");
        // The smallest amplitude never switches: stays in the low well.
        assert!(loops[0].window(0.05).is_none());
        // The largest traces the full loop.
        assert!(loops[2].window(0.05).is_some());
    }

    #[test]
    fn sweep_branch_ratio_large_inside_window() {
        let f = paper_fefet();
        let sweep = f.sweep_id_vg(-1.0, 1.0, 400, 0.4);
        // At V_G = 0 the two branches differ by the full distinguishability.
        let ratio = sweep.branch_ratio_at(0.0).unwrap();
        assert!(ratio > 1e5, "branch ratio {ratio:.2e}");
    }
}
