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

use crate::dynamics::{self, PSample, P_BOUND};
use fefet_ckt::models::{FeCapParams, GateInverse, MosParams};
use fefet_numerics::{Error, Result};
use std::sync::{Arc, Mutex, PoisonError};

/// A composite ferroelectric transistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fefet {
    /// The gate-stack ferroelectric.
    pub fe: FeCapParams,
    /// The underlying MOSFET.
    pub mos: MosParams,
}

/// A FEFET stack's Landau-Khalatnikov dynamics
/// `T_FE·ρ·dP/dt = v_g − V_MOS − T_FE·E_static(P)` with `P = q(V_MOS)`,
/// stepped in backward Euler with the MOS gate voltage as the unknown.
/// Built by [`Fefet::lk_rate`] once per device; it holds the gate
/// card's [`GateInverse`] and the `V_MOS` bracket of `±P_BOUND`.
///
/// In V the charge is explicit: one [`GateInverse::q_c`] call gives
/// `P = q(V)` and `C(V) = dq/dV`, where a P-form step would invert
/// `V_MOS(P)` with a nested Newton at every rate evaluation. The
/// inverse runs once, when a trajectory starts ([`LkRate::state`]);
/// from there [`LkState`] carries V from step to step. Allocation-free.
#[derive(Debug)]
pub struct LkRate<'a> {
    fe: &'a FeCapParams,
    gate: GateInverse,
    /// `T_FE·ρ` (V·s·m²/C).
    tau: f64,
    /// `V_MOS` (V) at `−P_BOUND` and `P_BOUND`: the bisection bracket
    /// and the clamp on every Newton iterate.
    v_bound: (f64, f64),
}

/// The state [`LkRate::step`] carries: the MOS gate voltage and the
/// polarization (equal to the gate-charge density) it holds. Built only
/// by [`LkRate::state`] and [`LkRate::step`], which keep the pair on
/// one card's charge branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LkState {
    /// Internal MOS gate voltage `V_MOS` (V).
    v_mos: f64,
    /// Polarization (C/m²).
    p: f64,
}

impl LkState {
    /// Polarization (C/m²).
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Internal MOS gate voltage `V_MOS` (V).
    pub fn v_mos(&self) -> f64 {
        self.v_mos
    }
}

/// Newton iterations of one [`LkRate::step`] before the bisection
/// fallback.
const LK_NEWTON_ITERS: usize = 40;
/// Largest polarization change (C/m²) one damped Newton iteration of
/// [`LkRate::step`] may make.
const LK_MAX_DP: f64 = 0.05;
/// Bisection halvings of [`LkRate::step`]'s fallback. The `V_MOS`
/// bracket is tens to hundreds of volts wide, so about 60 halvings
/// reach adjacent floats, and the loop stops there.
const LK_BISECTIONS: usize = 100;

impl LkRate<'_> {
    /// The state at polarization `p` (C/m²): `V_MOS` from the gate
    /// inverse. A trajectory starts here.
    pub fn state(&self, p: f64) -> LkState {
        LkState {
            v_mos: self.gate.v_gate(p),
            p,
        }
    }

    /// One backward-Euler step of width `h` (s) under gate voltage
    /// `v_g` (V) from `from`.
    ///
    /// Solves `f(V) = q(V) − p_old − (h/τ)·(v_g − V − v_static(q(V))) = 0`
    /// by damped Newton from `V_old` with the analytic slope
    /// `f'(V) = C(V)·(1 + (h/τ)·v_static'(q)) + h/τ`. That is `C(V)`
    /// times the P-form slope `1 + (h/τ)·(1/C + v_static')`, so it is
    /// positive wherever the stack curve rises (`1/C + v_static' > 0`):
    /// there the step's root is unique, as the P-form's is. `f` is the
    /// P-form residual at `P = q(V)`, and the step keeps that form's
    /// safeguards: the `1e-12·(1 + |P|)` residual test, at most
    /// 0.05 C/m² of P per iteration, iterates clamped to
    /// `[V(−P_BOUND), V(P_BOUND)]`, and bisection on that bracket when
    /// Newton stalls.
    ///
    /// # Errors
    ///
    /// [`fefet_numerics::Error::NonFinite`] if the residual or an
    /// iterate is NaN/infinite (a non-finite `v_g`, `h` or state).
    pub fn step(&self, v_g: f64, h: f64, from: LkState) -> Result<LkState> {
        self.step_traced(v_g, h, from).map(|(s, _)| s)
    }

    /// [`LkRate::step`], also telling whether it took the bisection
    /// fallback.
    fn step_traced(&self, v_g: f64, h: f64, from: LkState) -> Result<(LkState, bool)> {
        let k = h / self.tau;
        let p_old = from.p;
        // Residual, charge and capacitance at V.
        let f = |v: f64| {
            let (q, c) = self.gate.q_c(v);
            (q - p_old - k * (v_g - v - self.fe.v_static(q)), q, c)
        };
        let at = |v_mos: f64, p: f64| LkState { v_mos, p };
        let (v_lo, v_hi) = self.v_bound;
        let mut v = from.v_mos;
        for _ in 0..LK_NEWTON_ITERS {
            let (fv, q, c) = f(v);
            if !fv.is_finite() {
                return Err(Error::NonFinite {
                    context: "lk step residual",
                });
            }
            if fv.abs() < 1e-12 * (1.0 + q.abs()) {
                return Ok((at(v, q), false));
            }
            let slope = c * (1.0 + k * self.fe.dv_dp(q)) + k;
            if slope.abs() < 1e-12 * c {
                break;
            }
            let mut dv = -fv / slope;
            if (c * dv).abs() > LK_MAX_DP {
                dv = dv.signum() * LK_MAX_DP / c;
            }
            let v_next = (v + dv).clamp(v_lo, v_hi);
            if !v_next.is_finite() {
                return Err(Error::NonFinite {
                    context: "lk step newton update",
                });
            }
            let stalled = (c * (v_next - v)).abs() < 1e-14;
            v = v_next;
            if stalled {
                break;
            }
        }
        let (fv, q, _) = f(v);
        if fv.abs() < 1e-9 {
            return Ok((at(v, q), false));
        }
        // Bisection: the quintic Landau term makes f(V(−P_BOUND)) < 0 <
        // f(V(P_BOUND)).
        let (mut lo, mut hi) = (v_lo, v_hi);
        let (f_lo, ..) = f(lo);
        if !f_lo.is_finite() {
            return Err(Error::NonFinite {
                context: "lk step bisection bracket",
            });
        }
        if f_lo > 0.0 {
            // Pathological stack; return the damped-Newton iterate.
            return Ok((at(v, q), false));
        }
        for _ in 0..LK_BISECTIONS {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            let (fm, ..) = f(mid);
            if !fm.is_finite() {
                return Err(Error::NonFinite {
                    context: "lk step bisection",
                });
            }
            if fm < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v = 0.5 * (lo + hi);
        Ok((at(v, self.gate.q_c(v).0), true))
    }
}

/// Polarization half-range (C/m²) of the zero-bias state scan behind
/// [`Fefet::stable_states_at_zero`] and [`Fefet::is_nonvolatile`].
const STATE_P_MAX: f64 = 0.9;
/// Grid intervals of the zero-bias state scan.
const STATE_GRID: usize = 4000;
/// The §3 memory criterion (C/m²): a nonvolatile device holds one
/// stable zero-bias state below `-STATE_MARGIN` and one above
/// `STATE_MARGIN`.
const STATE_MARGIN: f64 = 0.05;

/// Gate-branch tables kept by [`gate_branch`]. Production scans use one
/// C-V card on four grids; the bound only matters to callers that vary
/// the card.
const BRANCH_CACHE_CAPACITY: usize = 8;

/// The MOS gate branch `V_MOS(p_i)` tabulated on an equilibrium grid
/// over `[-p_max, p_max]` (C/m²).
///
/// `V_MOS(P)` — the gate voltage at which the MOSFET holds charge
/// density `P` — depends only on the gate C-V card (`cox_area`,
/// `cdep_ratio`, `vt_q`, `v_smooth`): not on the applied gate voltage,
/// the ferroelectric, `vt0` or the width. Every scan of a card reads
/// one table, so it adds the same `f64` at every grid point as a scan
/// that inverts `V_MOS` afresh.
#[derive(Debug)]
struct GateBranch {
    /// The C-V card the table was built for, as bit patterns.
    card: [u64; 4],
    /// `p_max` as a bit pattern.
    p_max: u64,
    /// The `grid + 1` scan polarizations (C/m²).
    p: Vec<f64>,
    /// `V_MOS` (V) at each scan polarization.
    v_mos: Vec<f64>,
}

impl GateBranch {
    /// `V_MOS` (V) at each scan polarization, for a device whose gate
    /// C-V card is `mos`'s.
    ///
    /// # Panics
    ///
    /// Panics if the table was built for another gate C-V card.
    fn v_mos_for(&self, mos: &MosParams) -> &[f64] {
        assert!(
            self.card == cv_card(mos),
            "gate branch built for another C-V card"
        );
        &self.v_mos
    }
}

/// The most recently used gate-branch tables, oldest first.
static BRANCHES: Mutex<Vec<Arc<GateBranch>>> = Mutex::new(Vec::new());

/// `mos`'s gate branch on the `grid`-interval scan over
/// `[-p_max, p_max]` (C/m²), from the process-wide cache: built on the
/// first scan of a (card, `p_max`, `grid`) key, shared after that.
fn gate_branch(mos: &MosParams, p_max: f64, grid: usize) -> Arc<GateBranch> {
    let card = cv_card(mos);
    // The cache holds only finished tables, so a panic elsewhere while
    // the lock was held leaves nothing half-written behind.
    let mut cache = BRANCHES.lock().unwrap_or_else(PoisonError::into_inner);
    let hit = cache
        .iter()
        .position(|b| b.card == card && b.p_max == p_max.to_bits() && b.p.len() == grid + 1);
    let branch = match hit {
        Some(i) => cache.remove(i),
        None => {
            let p: Vec<f64> = grid_points(p_max, grid).collect();
            let inverse = GateInverse::new(mos);
            let v_mos = p.iter().map(|&p| inverse.v_gate(p)).collect();
            if cache.len() == BRANCH_CACHE_CAPACITY {
                cache.remove(0);
            }
            Arc::new(GateBranch {
                card,
                p_max: p_max.to_bits(),
                p,
                v_mos,
            })
        }
    };
    cache.push(Arc::clone(&branch));
    branch
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

/// Where an equilibrium scan saw the stack offset `V_G(P) − v_g` change
/// sign: between adjacent grid polarizations `lo < hi` (C/m²), or
/// exactly zero at the grid polarization `lo == hi`. The equilibrium
/// lies in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bracket {
    lo: f64,
    hi: f64,
    /// The offset is positive at `lo`.
    lo_above: bool,
    /// Rising crossing (`dV_G/dP > 0`): a stable equilibrium.
    stable: bool,
}

impl Bracket {
    /// The equilibrium polarization (C/m²) at gate voltage `v_g` (V):
    /// the grid point of an exact zero, else up to 60 bisection halvings
    /// of `[lo, hi]`.
    ///
    /// The halving stops once the midpoint equals `lo` or `hi` bit for
    /// bit. `lo` always satisfies the side test and `hi` never does, so
    /// from then on every halving would reassign an end its own value:
    /// stopping leaves the root's bits unchanged.
    fn root(&self, dev: &Fefet, v_g: f64) -> f64 {
        if self.lo == self.hi {
            return self.lo;
        }
        let (mut lo, mut hi) = (self.lo, self.hi);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits() {
                break;
            }
            if (dev.v_gate_static(mid) - v_g > 0.0) == self.lo_above {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// The brackets of `g(i) − v_g` on the grid `p` (C/m²), where `g(i)` is
/// the stack curve `V_G(p_i)` (V), in grid order: a linear scan over
/// adjacent points.
fn scan(p: &[f64], g: impl Fn(usize) -> f64, v_g: f64) -> Vec<Bracket> {
    let mut out = Vec::new();
    let mut prev_f = g(0) - v_g;
    for i in 1..p.len() {
        let f = g(i) - v_g;
        if prev_f == 0.0 {
            out.push(Bracket {
                lo: p[i - 1],
                hi: p[i - 1],
                lo_above: false,
                stable: f > prev_f,
            });
        } else if prev_f * f < 0.0 {
            out.push(Bracket {
                lo: p[i - 1],
                hi: p[i],
                lo_above: prev_f > 0.0,
                stable: f > prev_f,
            });
        }
        prev_f = f;
    }
    out
}

/// A maximal monotone stretch `start..=end` of a tabulated stack curve.
/// Adjacent runs share their boundary point.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    end: usize,
    rising: bool,
}

/// One device's stack curve `V_G(p_i)` (V) tabulated on a scan grid
/// and split into monotone runs, for scanning many gate voltages.
///
/// A gate voltage crosses each monotone run at most once, so a binary
/// search per run finds the brackets the linear [`scan`] would: the
/// sign of `g_i − v_g` is the order of `g_i` and `v_g`, and an exact
/// zero is `g_i == v_g`.
#[derive(Debug)]
pub(crate) struct StackCurve {
    p: Vec<f64>,
    g: Vec<f64>,
    runs: Vec<Run>,
}

impl StackCurve {
    /// `dev`'s stack curve on the `grid`-interval scan over
    /// `[-p_max, p_max]` (C/m²): the same `v_mos_i + T_FE·E(p_i)` sums
    /// the linear scan forms.
    pub(crate) fn new(dev: &Fefet, p_max: f64, grid: usize) -> Self {
        let branch = gate_branch(&dev.mos, p_max, grid);
        let g = branch
            .p
            .iter()
            .zip(branch.v_mos_for(&dev.mos))
            .map(|(&p, &v_mos)| v_mos + dev.fe.v_static(p))
            .collect();
        StackCurve::from_curve(branch.p.clone(), g)
    }

    /// Splits the curve `g` (V) over the grid `p` (C/m²) into monotone
    /// runs. A flat step joins the run it sits in.
    fn from_curve(p: Vec<f64>, g: Vec<f64>) -> Self {
        let mut runs = Vec::new();
        let (mut start, mut rising) = (0, None);
        for k in 1..g.len() {
            let step = if g[k] > g[k - 1] {
                Some(true)
            } else if g[k] < g[k - 1] {
                Some(false)
            } else {
                None
            };
            match (rising, step) {
                (Some(r), Some(s)) if r != s => {
                    runs.push(Run {
                        start,
                        end: k - 1,
                        rising: r,
                    });
                    start = k - 1;
                    rising = step;
                }
                (None, Some(_)) => rising = step,
                _ => {}
            }
        }
        runs.push(Run {
            start,
            end: g.len() - 1,
            rising: rising.unwrap_or(true),
        });
        StackCurve { p, g, runs }
    }

    /// The brackets at gate voltage `v_g` (V), equal to the linear
    /// scan's.
    pub(crate) fn brackets(&self, v_g: f64) -> Vec<Bracket> {
        let (p, g) = (&self.p, &self.g);
        let mut out = Vec::new();
        for run in &self.runs {
            let seg = &g[run.start..=run.end];
            // `seg[..below]` lies strictly on the run's starting side of
            // `v_g`, `seg[below..past]` equals it.
            let (below, past) = if run.rising {
                (
                    seg.partition_point(|&x| x < v_g),
                    seg.partition_point(|&x| x <= v_g),
                )
            } else {
                (
                    seg.partition_point(|&x| x > v_g),
                    seg.partition_point(|&x| x >= v_g),
                )
            };
            // Exact zeros; a run's last point belongs to the next run,
            // and the scan never reports the grid's last point.
            for j in run.start + below..(run.start + past).min(run.end) {
                out.push(Bracket {
                    lo: p[j],
                    hi: p[j],
                    lo_above: false,
                    stable: g[j + 1] - v_g > 0.0,
                });
            }
            let i = run.start + below;
            if below == past && below > 0 && i <= run.end {
                let (prev_f, f) = (g[i - 1] - v_g, g[i] - v_g);
                if prev_f * f < 0.0 {
                    out.push(Bracket {
                        lo: p[i - 1],
                        hi: p[i],
                        lo_above: prev_f > 0.0,
                        stable: f > prev_f,
                    });
                }
            }
        }
        out
    }
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
    /// The scan reads `V_MOS(p_i)` from the card's cached gate branch.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 3`.
    pub fn equilibria(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<Equilibrium> {
        self.brackets(v_g, p_max, grid)
            .iter()
            .map(|b| Equilibrium {
                p: b.root(self, v_g),
                stable: b.stable,
            })
            .collect()
    }

    /// The brackets of the equilibrium scan [`Fefet::equilibria`]
    /// describes, before any bisection.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 3`.
    pub(crate) fn brackets(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<Bracket> {
        assert!(grid >= 3, "equilibria: grid too small");
        let branch = gate_branch(&self.mos, p_max, grid);
        let (p, v_mos) = (&branch.p, branch.v_mos_for(&self.mos));
        scan(p, |i| v_mos[i] + self.fe.v_static(p[i]), v_g)
    }

    /// The stable equilibria (C/m²) at gate voltage `v_g` (V) of the
    /// scan [`Fefet::equilibria`] describes; unstable brackets are not
    /// bisected.
    fn stable_roots(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<f64> {
        self.brackets(v_g, p_max, grid)
            .iter()
            .filter(|b| b.stable)
            .map(|b| b.root(self, v_g))
            .collect()
    }

    /// Stable polarization states at zero gate bias — the memory states.
    pub fn stable_states_at_zero(&self) -> Vec<f64> {
        self.stable_roots(0.0, STATE_P_MAX, STATE_GRID)
    }

    /// True if the device retains two well-separated polarization states
    /// at `V_G = 0` (the §3 non-volatility criterion: hysteresis spans
    /// both positive and negative gate voltage).
    ///
    /// Equal to testing [`Fefet::stable_states_at_zero`] against
    /// ±0.05 C/m², but a stable state lies inside its bracket, so only a
    /// bracket that straddles a threshold is bisected.
    pub fn is_nonvolatile(&self) -> bool {
        let brackets = self.brackets(0.0, STATE_P_MAX, STATE_GRID);
        let stable = || brackets.iter().filter(|b| b.stable);
        let root = |b: &Bracket| b.root(self, 0.0);
        let below = || {
            stable()
                .any(|b| b.hi < -STATE_MARGIN || (b.lo < -STATE_MARGIN && root(b) < -STATE_MARGIN))
        };
        let above = || {
            stable().any(|b| b.lo > STATE_MARGIN || (b.hi > STATE_MARGIN && root(b) > STATE_MARGIN))
        };
        below() && above()
    }

    /// The stable equilibrium among `brackets` (at gate voltage `v_g`,
    /// V) nearest `p_prev` (C/m²), the first of equally near ones; `None`
    /// without a stable bracket.
    ///
    /// A root in `[lo, hi]` lies between `|lo − p_prev|` and
    /// `|hi − p_prev|` (or 0 if `p_prev` is inside), and float
    /// subtraction is monotone, so a bracket whose nearest possible
    /// distance exceeds another's farthest cannot win and is not
    /// bisected.
    fn nearest_stable(&self, brackets: &[Bracket], v_g: f64, p_prev: f64) -> Option<f64> {
        let dist = |p: f64| (p - p_prev).abs();
        let nearest = |b: &Bracket| {
            if b.lo - p_prev <= 0.0 && b.hi - p_prev >= 0.0 {
                0.0
            } else {
                dist(b.lo).min(dist(b.hi))
            }
        };
        let stable = || brackets.iter().filter(|b| b.stable);
        let bound = stable()
            .map(|b| dist(b.lo).max(dist(b.hi)))
            .fold(f64::INFINITY, f64::min);
        stable()
            .filter(|b| nearest(b) <= bound)
            .map(|b| b.root(self, v_g))
            .min_by(|a, b| dist(*a).total_cmp(&dist(*b)))
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
    /// Every tracking point scans one 2,000-interval [`StackCurve`]
    /// built once per sweep, so the result is bit-identical to tracking
    /// with [`Fefet::equilibria`] at the same grid.
    ///
    /// # Panics
    ///
    /// Panics if `v_lo >= v_hi` or `steps < 2`.
    pub fn sweep_id_vg(&self, v_lo: f64, v_hi: f64, steps: usize, v_ds: f64) -> IdVgSweep {
        assert!(v_lo < v_hi, "sweep: need v_lo < v_hi");
        assert!(steps >= 2, "sweep: need steps >= 2");
        // Start from the most negative stable state at v_lo.
        let start = self
            .stable_roots(v_lo, 0.9, 4000)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut p = if start.is_finite() { start } else { 0.0 };
        let curve = StackCurve::new(self, 0.9, 2000);
        let track = |v_g: f64, p_prev: f64| -> f64 {
            self.nearest_stable(&curve.brackets(v_g), v_g, p_prev)
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
    /// polarization `p0` (C/m²), in `steps` backward-Euler steps of
    /// [`LkRate::step`]: `V_MOS` carries from step to step and is
    /// inverted from `p0` once.
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
        let lk = self.lk_rate();
        let mut s = lk.state(p0);
        dynamics::march(p0, t_end, steps, |t, _p, h| {
            s = lk.step(v_g(t), h, s)?;
            Ok(s.p())
        })
    }

    /// The stack's LK dynamics with this device's gate card derived
    /// once; what [`Fefet::transient`] and the yield engine's stress
    /// integrate.
    pub fn lk_rate(&self) -> LkRate<'_> {
        let gate = GateInverse::new(&self.mos);
        LkRate {
            fe: &self.fe,
            gate,
            tau: self.fe.thickness * self.fe.lk.rho,
            v_bound: (gate.v_gate(-P_BOUND), gate.v_gate(P_BOUND)),
        }
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
            .stable_roots(v_lo, 0.9, 2000)
            .into_iter()
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
        let dest = self.stable_roots(v_write, 0.9, 3000).into_iter().fold(
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

    /// The paper-card devices, then one device on another C-V card
    /// (`cox_area`×1.01, `vt_q`+0.01): a cache that ignored the card
    /// would hand it a paper-card table.
    fn devices() -> Vec<Fefet> {
        let mut devs = same_card_devices();
        let mut off_card = paper_fefet();
        off_card.mos.cox_area *= 1.01;
        off_card.mos.vt_q += 0.01;
        devs.push(off_card);
        devs
    }

    /// The eager reference scan: inverts `V_MOS` at every grid point and
    /// bisects every bracket for the full 60 halvings.
    fn eager_equilibria(dev: &Fefet, v_g: f64, p_max: f64, grid: usize) -> Vec<Equilibrium> {
        let offset = |p: f64| (dev.mos.v_gate_of_density(p) + dev.fe.v_static(p)) - v_g;
        let mut out = Vec::new();
        let mut prev_p = -p_max;
        let mut prev_f = offset(prev_p);
        for p in grid_points(p_max, grid).skip(1) {
            let f = offset(p);
            if prev_f == 0.0 {
                out.push(Equilibrium {
                    p: prev_p,
                    stable: f > prev_f,
                });
            } else if prev_f * f < 0.0 {
                let (mut lo, mut hi) = (prev_p, p);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    let fm = dev.v_gate_static(mid) - v_g;
                    if (fm > 0.0) == (prev_f > 0.0) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                out.push(Equilibrium {
                    p: 0.5 * (lo + hi),
                    stable: f > prev_f,
                });
            }
            prev_p = p;
            prev_f = f;
        }
        out
    }

    fn eager_stable(dev: &Fefet, v_g: f64, p_max: f64, grid: usize) -> Vec<f64> {
        eager_equilibria(dev, v_g, p_max, grid)
            .into_iter()
            .filter(|e| e.stable)
            .map(|e| e.p)
            .collect()
    }

    /// The quasi-static sweep tracked on the eager reference scan.
    fn eager_sweep(dev: &Fefet, v_lo: f64, v_hi: f64, steps: usize, v_ds: f64) -> IdVgSweep {
        let start = eager_stable(dev, v_lo, 0.9, 4000)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let mut p = if start.is_finite() { start } else { 0.0 };
        let mut point = |v_g: f64| {
            p = eager_stable(dev, v_g, 0.9, 2000)
                .into_iter()
                .min_by(|a, b| (a - p).abs().total_cmp(&(b - p).abs()))
                .unwrap_or(p);
            SweepPoint {
                v_g,
                i_d: dev.drain_current(p, v_ds),
                p,
                v_mos: dev.v_mos_of(p),
            }
        };
        let up = (0..=steps)
            .map(|i| point(v_lo + (v_hi - v_lo) * i as f64 / steps as f64))
            .collect();
        let down = (0..=steps)
            .map(|i| point(v_hi - (v_hi - v_lo) * i as f64 / steps as f64))
            .collect();
        IdVgSweep { up, down }
    }

    fn bits(eqs: &[Equilibrium]) -> Vec<(u64, bool)> {
        eqs.iter().map(|e| (e.p.to_bits(), e.stable)).collect()
    }

    fn p_bits(ps: &[f64]) -> Vec<u64> {
        ps.iter().map(|p| p.to_bits()).collect()
    }

    /// Gate voltages (V) over [−1.2, 1.2] V: an even grid, then points of
    /// `dev`'s stack curve on the `grid`-interval scan, where the scan
    /// offset is exactly zero.
    fn gate_voltages(dev: &Fefet, grid: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..=48).map(|k| -1.2 + 2.4 * k as f64 / 48.0).collect();
        let p: Vec<f64> = grid_points(0.9, grid).collect();
        v.extend(
            (1..32)
                .map(|k| {
                    let p = p[k * grid / 32];
                    dev.mos.v_gate_of_density(p) + dev.fe.v_static(p)
                })
                .filter(|g| g.abs() <= 1.2),
        );
        v
    }

    #[test]
    fn branch_scan_matches_one_shot_bit_for_bit() {
        for grid in [2000, 4000, 6000] {
            for dev in devices() {
                for v_g in gate_voltages(&dev, grid) {
                    let eager = eager_equilibria(&dev, v_g, 0.9, grid);
                    let lazy = dev.equilibria(v_g, 0.9, grid);
                    assert_eq!(bits(&lazy), bits(&eager), "{dev:?} at {v_g} V, grid {grid}");
                    assert_eq!(
                        p_bits(&dev.stable_roots(v_g, 0.9, grid)),
                        p_bits(&eager_stable(&dev, v_g, 0.9, grid))
                    );
                    assert_eq!(dev.brackets(v_g, 0.9, grid).len(), eager.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "another C-V card")]
    fn branch_for_another_cox_area_is_rejected() {
        let dev = paper_fefet();
        let mut other = dev.mos;
        other.cox_area *= 1.01;
        gate_branch(&other, STATE_P_MAX, STATE_GRID).v_mos_for(&dev.mos);
    }

    #[test]
    #[should_panic(expected = "another C-V card")]
    fn branch_for_another_vt_q_is_rejected() {
        let dev = paper_fefet();
        let mut other = dev.mos;
        other.vt_q += 0.01;
        gate_branch(&other, STATE_P_MAX, STATE_GRID).v_mos_for(&dev.mos);
    }

    #[test]
    fn curve_points_scan_as_exact_zeros() {
        let dev = paper_fefet();
        let exact = gate_voltages(&dev, 2000)
            .into_iter()
            .skip(49)
            .filter(|&v_g| dev.brackets(v_g, 0.9, 2000).iter().any(|b| b.lo == b.hi))
            .count();
        assert!(exact > 0, "no curve point scanned as an exact zero");
    }

    #[test]
    fn zero_bias_queries_match_the_eager_scan() {
        // Thicknesses across the non-volatility boundary, where the
        // memory states cross ±0.05 C/m²: the finest steps put a state's
        // bracket across the threshold, so `is_nonvolatile` bisects.
        let base = paper_fefet();
        let t_b = crate::design::nonvolatility_boundary(&base, 1.9e-9, 2.25e-9)
            .expect("1.9 and 2.25 nm bracket the boundary");
        let thicknesses = (0..=30)
            .map(|k| 1.8e-9 + 0.01e-9 * k as f64)
            .chain((-10..=10).map(|k| t_b * (1.0 + 1e-5 * k as f64)))
            .map(|t| base.with_thickness(t));
        for dev in devices().into_iter().chain(thicknesses) {
            let eager = eager_stable(&dev, 0.0, STATE_P_MAX, STATE_GRID);
            assert_eq!(
                p_bits(&dev.stable_states_at_zero()),
                p_bits(&eager),
                "{dev:?}"
            );
            let two_states =
                eager.iter().any(|&p| p < -STATE_MARGIN) && eager.iter().any(|&p| p > STATE_MARGIN);
            assert_eq!(dev.is_nonvolatile(), two_states, "{dev:?}");
        }
    }

    #[test]
    fn sweeps_and_counts_match_the_eager_scan() {
        use crate::loadline::{intersection_count, max_intersections};
        let flat = |s: &IdVgSweep| -> Vec<u64> {
            s.up.iter()
                .chain(&s.down)
                .flat_map(|pt| [pt.v_g, pt.i_d, pt.p, pt.v_mos])
                .map(f64::to_bits)
                .collect()
        };
        for dev in devices() {
            let lazy = dev.sweep_id_vg(-1.2, 1.2, 60, 0.05);
            let eager = eager_sweep(&dev, -1.2, 1.2, 60, 0.05);
            assert_eq!(flat(&lazy), flat(&eager), "{dev:?}");
            let counts: Vec<usize> = (0..=20)
                .map(|k| eager_equilibria(&dev, -1.0 + 2.0 * k as f64 / 20.0, 0.9, 6000).len())
                .collect();
            assert_eq!(
                max_intersections(&dev, -1.0, 1.0, 20),
                counts.iter().copied().max().unwrap_or(0),
                "{dev:?}"
            );
            assert_eq!(intersection_count(&dev, 0.0), counts[10], "{dev:?}");
        }
    }

    #[test]
    fn nearest_stable_matches_bisecting_every_stable_bracket() {
        // Wide random brackets, so that the distance bounds of several
        // brackets overlap and the pruning has to get its bound right.
        let dev = paper_fefet();
        let mut rng = Rng::seed_from_u64(0x5eed);
        for _ in 0..400 {
            let mut ends: Vec<f64> = (0..6).map(|_| rng.uniform_in(-0.9, 0.9)).collect();
            ends.sort_by(f64::total_cmp);
            let v_g = rng.uniform_in(-0.5, 0.5);
            let brackets: Vec<Bracket> = ends
                .chunks(2)
                .map(|e| Bracket {
                    lo: e[0],
                    hi: e[1],
                    lo_above: rng.bool(),
                    stable: rng.uniform() < 0.8,
                })
                .collect();
            let p_prev = rng.uniform_in(-1.0, 1.0);
            let every = brackets
                .iter()
                .filter(|b| b.stable)
                .map(|b| b.root(&dev, v_g))
                .min_by(|a, b| (a - p_prev).abs().total_cmp(&(b - p_prev).abs()));
            assert_eq!(
                dev.nearest_stable(&brackets, v_g, p_prev).map(f64::to_bits),
                every.map(f64::to_bits),
                "{brackets:?} from {p_prev}"
            );
        }
    }

    #[test]
    fn run_search_finds_the_linear_scan_brackets() {
        for dev in devices() {
            let curve = StackCurve::new(&dev, 0.9, 2000);
            let mut v: Vec<f64> = (0..=96).map(|k| -1.2 + 2.4 * k as f64 / 96.0).collect();
            v.extend(curve.g.iter().step_by(37).copied());
            for v_g in v {
                assert_eq!(
                    curve.brackets(v_g),
                    scan(&curve.p, |i| curve.g[i], v_g),
                    "{dev:?} at {v_g} V"
                );
            }
        }
        // Synthetic curves: flat steps on and off the gate voltage, flat
        // starts and ends, extrema on grid points, and sign changes whose
        // offset product underflows.
        let curves: [&[f64]; 5] = [
            &[0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 0.0, -1.0, -1.0, 3.0],
            &[2.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 0.5, 0.5, 0.5],
            &[1.0, 1.0, 1.0, 1.0],
            &[-1e-170, 1e-170, -1e-170, 0.0, 1e-170, 2.0],
            &[3.0, 1.0, 2.0, 0.0, 2.0, 1.0, 3.0, 3.0],
        ];
        for g in curves {
            let p: Vec<f64> = (0..g.len()).map(|i| i as f64).collect();
            let curve = StackCurve::from_curve(p.clone(), g.to_vec());
            for v_g in [
                -2.0, -1.0, -1e-170, 0.0, 1e-170, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0,
            ] {
                assert_eq!(
                    curve.brackets(v_g),
                    scan(&p, |i| g[i], v_g),
                    "{g:?} at {v_g}"
                );
            }
        }
    }

    #[test]
    fn early_exit_keeps_the_full_bisection_root() {
        // Wide brackets around each zero-bias equilibrium, bisected
        // with and without the early exit.
        let dev = paper_fefet();
        for eq in eager_equilibria(&dev, 0.0, 0.9, 400) {
            for half_width in [1e-2, 1e-9, 1e-15] {
                let (lo, hi) = (eq.p - half_width, eq.p + half_width);
                let b = Bracket {
                    lo,
                    hi,
                    lo_above: dev.v_gate_static(lo) > 0.0,
                    stable: eq.stable,
                };
                let (mut lo, mut hi) = (lo, hi);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if (dev.v_gate_static(mid) > 0.0) == b.lo_above {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                assert_eq!(b.root(&dev, 0.0).to_bits(), (0.5 * (lo + hi)).to_bits());
            }
        }
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

    /// The P-form backward-Euler step the V_MOS form replaced:
    /// `dynamics::be_step` on the rate with `V_MOS(P)` inverted per call.
    fn p_form_step(dev: &Fefet, v_g: f64, h: f64, p_old: f64) -> f64 {
        let tau = dev.fe.thickness * dev.fe.lk.rho;
        let rate =
            |_t: f64, p: f64| (v_g - dev.mos.v_gate_of_density(p) - dev.fe.v_static(p)) / tau;
        dynamics::be_step(&rate, h, p_old, h).expect("P-form step")
    }

    /// A 1 µs step from the erased state at 4 V crosses the whole fold
    /// in one step: Newton runs out of iterations under the 0.05 C/m²
    /// damping, and the bisection on `[V(−P_BOUND), V(P_BOUND)]` lands
    /// on the P-form step's root.
    #[test]
    fn lk_step_bisection_lands_on_the_p_form_root() {
        let dev = paper_fefet();
        let lk = dev.lk_rate();
        let (v_g, h, p0) = (4.0, 1e-6, -0.5);
        let (s, bisected) = lk.step_traced(v_g, h, lk.state(p0)).expect("step");
        assert!(
            bisected,
            "Newton converged; the case no longer reaches bisection"
        );
        let want = p_form_step(&dev, v_g, h, p0);
        assert!((s.p() - want).abs() <= 1e-12, "{} vs {want}", s.p());
        assert!(s.p() > 0.3, "the step must write the device: {}", s.p());
        let (q, _) = lk.gate.q_c(s.v_mos());
        assert_eq!(q.to_bits(), s.p().to_bits());
    }

    /// On small steps (the stress and transient regime) Newton converges
    /// without the fallback, within the two forms' summed residual
    /// tolerance of the P-form step (at most 1.4e-12 C/m² here), from
    /// both stored states and in between, at gate voltages across ±3 V,
    /// on every same-card device.
    #[test]
    fn lk_step_matches_the_p_form_step_on_small_steps() {
        for dev in same_card_devices() {
            let lk = dev.lk_rate();
            let tau = dev.fe.thickness * dev.fe.lk.rho;
            for p0 in [-0.5, -0.2, 0.0, 0.2, 0.5] {
                for k in 0..=30 {
                    let v_g = -3.0 + 0.2 * k as f64;
                    for h in [1e-12, 1e-11, 5e-11] {
                        let (s, bisected) = lk.step_traced(v_g, h, lk.state(p0)).expect("step");
                        let want = p_form_step(&dev, v_g, h, p0);
                        assert!(!bisected, "{dev:?} p0 {p0} v_g {v_g} h {h:e}");
                        // Each form stops within 1e-12·(1 + |P|) of a zero
                        // residual whose slope in P is 1 + (h/τ)·dV_G/dP.
                        let slope = 1.0 + h / tau * dev.dv_gate_dp(want);
                        let band = 2e-12 * (1.0 + want.abs()) / slope;
                        assert!(
                            (s.p() - want).abs() <= band,
                            "{dev:?} p0 {p0} v_g {v_g} h {h:e}: {} vs {want}",
                            s.p()
                        );
                    }
                }
            }
        }
    }

    /// A NaN or infinite gate voltage is a typed error, in one step and
    /// in a transient.
    #[test]
    fn lk_step_non_finite_bias_is_a_typed_error() {
        let dev = paper_fefet();
        let lk = dev.lk_rate();
        for v_g in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let res = lk.step(v_g, 1e-11, lk.state(0.3));
            assert!(
                matches!(res, Err(Error::NonFinite { .. })),
                "{v_g}: {res:?}"
            );
        }
        let res = dev.transient(|t| if t > 0.5e-9 { f64::NAN } else { 1.0 }, 0.3, 1e-9, 100);
        assert!(matches!(res, Err(Error::NonFinite { .. })), "{res:?}");
    }

    /// `Fefet::transient` on the V_MOS-form step follows the P-form
    /// integration within 1e-11 C/m² (a few step tolerances; 4.4e-12
    /// measured) at every sample of a switching ramp and of a write
    /// pulse.
    #[test]
    fn transient_matches_the_p_form_integration() {
        let dev = paper_fefet();
        let tau = dev.fe.thickness * dev.fe.lk.rho;
        let cases: [(&dyn Fn(f64) -> f64, f64, f64); 2] = [
            (&|t: f64| -2.0 + 4.0 * (t / 5e-9).min(1.0), -0.4, 5e-9),
            (&|_t: f64| -0.9, 0.4, 2e-9),
        ];
        for (wave, p0, t_end) in cases {
            let got = dev.transient(wave, p0, t_end, 2000).expect("V form");
            let rate = |t: f64, p: f64| {
                (wave(t) - dev.mos.v_gate_of_density(p) - dev.fe.v_static(p)) / tau
            };
            let want = dynamics::integrate(rate, p0, t_end, 2000).expect("P form");
            assert!(
                (want.last().unwrap().p - p0).abs() > 0.3,
                "the case must switch"
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.t.to_bits(), w.t.to_bits());
                assert!(
                    (g.p - w.p).abs() <= 1e-11,
                    "t {:e}: {} vs {}",
                    g.t,
                    g.p,
                    w.p
                );
            }
        }
    }
}
