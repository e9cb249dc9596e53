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
use fefet_ckt::models::{FeCapParams, GateInverse, LkParams, MosParams};
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

/// Tables kept by each of [`gate_branch`] and [`landau_table`].
/// Production scans use one C-V card on five grids and one Landau
/// coefficient set on four; the bound only matters to callers that vary
/// the card or the coefficients.
const TABLE_CACHE_CAPACITY: usize = 8;

/// A process-wide cache of tables under their keys, the most recently
/// used last.
type TableCache<K, T> = Mutex<Vec<(K, Arc<T>)>>;

/// The table under `key` in `cache`, built by `build` on the first
/// request and shared after that. A miss past
/// [`TABLE_CACHE_CAPACITY`] drops the least recently used table.
fn cached<K: PartialEq, T>(cache: &TableCache<K, T>, key: K, build: impl FnOnce() -> T) -> Arc<T> {
    // The cache holds only finished tables, so a panic elsewhere while
    // the lock was held leaves nothing half-written behind.
    let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
    let entry = match cache.iter().position(|(k, _)| *k == key) {
        Some(i) => cache.remove(i),
        None => {
            if cache.len() == TABLE_CACHE_CAPACITY {
                cache.remove(0);
            }
            (key, Arc::new(build()))
        }
    };
    let table = Arc::clone(&entry.1);
    cache.push(entry);
    table
}

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

/// Gate-branch tables under their (C-V card, `p_max` bits, grid) keys.
static BRANCHES: TableCache<([u64; 4], u64, usize), GateBranch> = Mutex::new(Vec::new());

/// `mos`'s gate branch on the `grid`-interval scan over
/// `[-p_max, p_max]` (C/m²), from the process-wide cache: built on the
/// first scan of a (card, `p_max`, `grid`) key, shared after that.
fn gate_branch(mos: &MosParams, p_max: f64, grid: usize) -> Arc<GateBranch> {
    let card = cv_card(mos);
    cached(&BRANCHES, (card, p_max.to_bits(), grid), || {
        let p: Vec<f64> = grid_points(p_max, grid).collect();
        let inverse = GateInverse::new(mos);
        let v_mos = p.iter().map(|&p| inverse.v_gate(p)).collect();
        GateBranch { card, p, v_mos }
    })
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

/// Landau field tables under their (`α`, `β`, `γ` bits, `p_max` bits,
/// grid) keys.
static LANDAU: TableCache<([u64; 3], u64, usize), Vec<f64>> = Mutex::new(Vec::new());

/// The static field `E(p_i)` (V/m) of `lk`'s Landau coefficients at the
/// `grid + 1` polarizations of the scan over `[-p_max, p_max]` (C/m²),
/// from the process-wide cache. `E` reads only `α`, `β` and `γ`, so
/// devices that differ in thickness, card or `ρ` share a table, and
/// `thickness·e[i]` is the `f64` that `FeCapParams::v_static` returns.
fn landau_table(lk: &LkParams, p_max: f64, grid: usize) -> Arc<Vec<f64>> {
    let coeffs = [lk.alpha.to_bits(), lk.beta.to_bits(), lk.gamma.to_bits()];
    cached(&LANDAU, (coeffs, p_max.to_bits(), grid), || {
        grid_points(p_max, grid).map(|p| lk.e_static(p)).collect()
    })
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
    /// `V_MOS` (V) at `lo` and at `hi`, read from the gate-branch table.
    v_lo: f64,
    v_hi: f64,
    /// The offset is positive at `lo`.
    lo_above: bool,
    /// Rising crossing (`dV_G/dP > 0`): a stable equilibrium.
    stable: bool,
}

/// Iterations of [`Bracket::root`]'s safeguarded Newton. Newton needs a
/// handful; bisection steps alone reach adjacent floats on a grid
/// interval in about 60, where the loop stops.
const ROOT_ITERS: usize = 100;

/// A scan grid: the polarizations (C/m²) and the gate branch `V_MOS`
/// (V) at each.
#[derive(Debug, Clone, Copy)]
struct Grid<'a> {
    p: &'a [f64],
    v_mos: &'a [f64],
}

impl Grid<'_> {
    /// The bracket from grid point `i` to grid point `j` (`i` or `i + 1`).
    fn bracket(&self, i: usize, j: usize, lo_above: bool, stable: bool) -> Bracket {
        Bracket {
            lo: self.p[i],
            hi: self.p[j],
            v_lo: self.v_mos[i],
            v_hi: self.v_mos[j],
            lo_above,
            stable,
        }
    }
}

impl Bracket {
    /// The equilibrium polarization (C/m²) at gate voltage `v_g` (V) of
    /// the ferroelectric `fe` on the gate card `gate`: the grid point of
    /// an exact zero, else `q(u)` at the root `u` of the stack offset
    /// in `V_MOS`, clamped into `[lo, hi]`.
    ///
    /// The unknown is `u = V_MOS`, whose charge is explicit: one
    /// [`GateInverse::q_c`] call gives `q(u)` and `C(u) = dq/du`, where
    /// the offset in P would invert `V_MOS(P)` with a nested Newton at
    /// every evaluation. Newton solves `f(u) = u + T_FE·E(q(u)) − v_g`
    /// with slope `f'(u) = 1 + T_FE·E'(q)·C(u)` from the middle of
    /// `[v_lo, v_hi]`, which `V_MOS`'s monotone branch maps onto
    /// `[lo, hi]`. Each residual's sign moves one end of the bracket, and
    /// a step that would leave the bracket halves it instead. The loop
    /// stops at an exact zero, at adjacent floats, or once
    /// `|Δu| ≤ 2ε|u|`. The clamp keeps the root inside its bracket,
    /// which [`Fefet::is_nonvolatile`] and the sweep's tracker rely on.
    fn root(&self, fe: &FeCapParams, gate: &GateInverse, v_g: f64) -> f64 {
        // `lo <= hi` always, so this holds only at an exact grid zero.
        if self.hi <= self.lo {
            return self.lo;
        }
        // The offset has `lo`'s sign at `a` and the other at `b`.
        let (mut a, mut b) = (self.v_lo, self.v_hi);
        let mut u = 0.5 * (a + b);
        for _ in 0..ROOT_ITERS {
            let (q, c) = gate.q_c(u);
            let f = u + fe.v_static(q) - v_g;
            if f == 0.0 {
                break;
            }
            if (f > 0.0) == self.lo_above {
                a = u;
            } else {
                b = u;
            }
            let newton = u - f / (1.0 + fe.dv_dp(q) * c);
            let next = if newton > a && newton < b {
                newton
            } else {
                let mid = 0.5 * (a + b);
                if mid <= a || mid >= b {
                    // `a` and `b` are adjacent floats.
                    break;
                }
                mid
            };
            let du = next - u;
            u = next;
            if du.abs() <= 2.0 * f64::EPSILON * u.abs() {
                break;
            }
        }
        gate.q_c(u).0.clamp(self.lo, self.hi)
    }
}

/// Grid points [`scan`] tests for a sign change in one branch-free pass.
const SCAN_CHUNK: usize = 16;

/// The brackets of the stack offset `f_i = v_mos[i] + t_fe·e[i] − v_g`
/// (V) on `grid`, where `e` (V/m) is the Landau field on that grid: a
/// linear scan over adjacent points, in grid order.
///
/// A bracket needs `f_{i−1} == 0` or `f_{i−1}·f_i < 0`. If every offset
/// of a chunk of [`SCAN_CHUNK`] points has the strict sign of the point
/// before the chunk, no pair in it passes either test, so the chunk is
/// passed over after a branch-free count of signs; other chunks are
/// walked point by point.
fn scan(grid: Grid, e: &[f64], t_fe: f64, v_g: f64) -> Vec<Bracket> {
    let n = grid.p.len();
    let (v_mos, e) = (&grid.v_mos[..n], &e[..n]);
    let f = |i: usize| v_mos[i] + t_fe * e[i] - v_g;
    let mut out = Vec::new();
    let mut walk = |range: std::ops::Range<usize>, prev_f: &mut f64| {
        for i in range {
            let f = f(i);
            if *prev_f == 0.0 {
                out.push(grid.bracket(i - 1, i - 1, false, f > *prev_f));
            } else if *prev_f * f < 0.0 {
                out.push(grid.bracket(i - 1, i, *prev_f > 0.0, f > *prev_f));
            }
            *prev_f = f;
        }
    };
    let mut prev_f = f(0);
    let mut i = 1;
    while i + SCAN_CHUNK <= n {
        let (mut above, mut below) = (0, 0);
        for k in i..i + SCAN_CHUNK {
            let f = f(k);
            above += usize::from(f > 0.0);
            below += usize::from(f < 0.0);
        }
        if (prev_f > 0.0 && above == SCAN_CHUNK) || (prev_f < 0.0 && below == SCAN_CHUNK) {
            prev_f = f(i + SCAN_CHUNK - 1);
        } else {
            walk(i..i + SCAN_CHUNK, &mut prev_f);
        }
        i += SCAN_CHUNK;
    }
    walk(i..n, &mut prev_f);
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
    /// The grid and its `V_MOS`, shared with the card's cached table.
    branch: Arc<GateBranch>,
    g: Vec<f64>,
    runs: Vec<Run>,
}

impl StackCurve {
    /// `dev`'s stack curve on the `grid`-interval scan over
    /// `[-p_max, p_max]` (C/m²): the same `v_mos_i + T_FE·e_i` sums
    /// the linear scan forms.
    pub(crate) fn new(dev: &Fefet, p_max: f64, grid: usize) -> Self {
        let branch = gate_branch(&dev.mos, p_max, grid);
        let e = landau_table(&dev.fe.lk, p_max, grid);
        let t_fe = dev.fe.thickness;
        let g = branch
            .v_mos_for(&dev.mos)
            .iter()
            .zip(e.iter())
            .map(|(&v, &e)| v + t_fe * e)
            .collect();
        StackCurve::from_curve(branch, g)
    }

    /// Splits the curve `g` (V) over `branch`'s grid into monotone runs.
    /// A flat step joins the run it sits in.
    fn from_curve(branch: Arc<GateBranch>, g: Vec<f64>) -> Self {
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
        StackCurve { branch, g, runs }
    }

    /// The brackets at gate voltage `v_g` (V), equal to the linear
    /// scan's.
    pub(crate) fn brackets(&self, v_g: f64) -> Vec<Bracket> {
        let grid = Grid {
            p: &self.branch.p,
            v_mos: &self.branch.v_mos,
        };
        let g = &self.g;
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
                out.push(grid.bracket(j, j, false, g[j + 1] - v_g > 0.0));
            }
            let i = run.start + below;
            if below == past && below > 0 && i <= run.end {
                let (prev_f, f) = (g[i - 1] - v_g, g[i] - v_g);
                if prev_f * f < 0.0 {
                    out.push(grid.bracket(i - 1, i, prev_f > 0.0, f > prev_f));
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
        // A nonzero span to divide by: for ends that pass the product
        // test, `b - a != 0.0` is `a != b`.
        if (a - v_g) * (b - v_g) <= 0.0 && b - a != 0.0 {
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
        self.dv_gate_dp_at(p, self.mos.v_gate_of_density(p))
    }

    /// [`Fefet::dv_gate_dp`] at polarization `p` (C/m²) held at MOS gate
    /// voltage `v_mos` (V).
    fn dv_gate_dp_at(&self, p: f64, v_mos: f64) -> f64 {
        1.0 / self.mos.c_gate_density(v_mos) + self.fe.dv_dp(p)
    }

    /// True if the static stack curve has a negative-slope (folded)
    /// region within `|P| <= p_max` (C/m²) — i.e. the device is
    /// hysteretic — tested at the `grid + 1` points of the scan over
    /// `[-p_max, p_max]`, with `V_MOS` read from the card's cached gate
    /// branch.
    pub fn is_hysteretic(&self, p_max: f64, grid: usize) -> bool {
        let branch = gate_branch(&self.mos, p_max, grid);
        branch
            .p
            .iter()
            .zip(branch.v_mos_for(&self.mos))
            .any(|(&p, &v_mos)| self.dv_gate_dp_at(p, v_mos) < 0.0)
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
    /// `grid`-interval polarization grid, then solving each bracket for
    /// its root in `V_MOS` by safeguarded Newton. The scan reads
    /// `V_MOS(p_i)` from the card's cached gate branch and `E(p_i)` from
    /// the Landau coefficients' cached table.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 3`.
    pub fn equilibria(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<Equilibrium> {
        let gate = GateInverse::new(&self.mos);
        self.brackets(v_g, p_max, grid)
            .iter()
            .map(|b| Equilibrium {
                p: b.root(&self.fe, &gate, v_g),
                stable: b.stable,
            })
            .collect()
    }

    /// The brackets of the equilibrium scan [`Fefet::equilibria`]
    /// describes, before any root is solved.
    ///
    /// # Panics
    ///
    /// Panics if `grid < 3`.
    pub(crate) fn brackets(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<Bracket> {
        assert!(grid >= 3, "equilibria: grid too small");
        let branch = gate_branch(&self.mos, p_max, grid);
        let e = landau_table(&self.fe.lk, p_max, grid);
        let grid = Grid {
            p: &branch.p,
            v_mos: branch.v_mos_for(&self.mos),
        };
        scan(grid, &e, self.fe.thickness, v_g)
    }

    /// The stable equilibria (C/m²) at gate voltage `v_g` (V) of the
    /// scan [`Fefet::equilibria`] describes; unstable brackets are not
    /// solved.
    fn stable_roots(&self, v_g: f64, p_max: f64, grid: usize) -> Vec<f64> {
        let gate = GateInverse::new(&self.mos);
        self.brackets(v_g, p_max, grid)
            .iter()
            .filter(|b| b.stable)
            .map(|b| b.root(&self.fe, &gate, v_g))
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
    /// bracket that straddles a threshold is solved.
    pub fn is_nonvolatile(&self) -> bool {
        let brackets = self.brackets(0.0, STATE_P_MAX, STATE_GRID);
        let gate = GateInverse::new(&self.mos);
        let stable = || brackets.iter().filter(|b| b.stable);
        let root = |b: &Bracket| b.root(&self.fe, &gate, 0.0);
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
    /// V, on the gate card `gate`) nearest `p_prev` (C/m²), the first of
    /// equally near ones; `None` without a stable bracket.
    ///
    /// A root in `[lo, hi]` lies between `|lo − p_prev|` and
    /// `|hi − p_prev|` (or 0 if `p_prev` is inside), and float
    /// subtraction is monotone, so a bracket whose nearest possible
    /// distance exceeds another's farthest cannot win and is not
    /// solved.
    fn nearest_stable(
        &self,
        gate: &GateInverse,
        brackets: &[Bracket],
        v_g: f64,
        p_prev: f64,
    ) -> Option<f64> {
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
            .map(|b| b.root(&self.fe, gate, v_g))
            .min_by(|a, b| dist(*a).total_cmp(&dist(*b)))
    }

    /// Drain current (A) at drain bias `v_ds` (V), with the stack
    /// holding polarization `p` (C/m²).
    pub fn drain_current(&self, p: f64, v_ds: f64) -> f64 {
        let v_mos = self.v_mos_of(p);
        self.mos.ids(v_mos, v_ds).0
    }

    /// The sweep sample at gate voltage `v_g` (V) and polarization `p`
    /// (C/m²), at drain bias `v_ds` (V): one `V_MOS` inversion serves both
    /// the current and `v_mos`.
    fn sweep_point(&self, v_g: f64, p: f64, v_ds: f64) -> SweepPoint {
        let v_mos = self.v_mos_of(p);
        SweepPoint {
            v_g,
            i_d: self.mos.ids(v_mos, v_ds).0,
            p,
            v_mos,
        }
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
        let gate = GateInverse::new(&self.mos);
        let mut point = |v_g: f64| {
            p = self
                .nearest_stable(&gate, &curve.brackets(v_g), v_g, p)
                .unwrap_or(p);
            self.sweep_point(v_g, p, v_ds)
        };
        let up = (0..=steps)
            .map(|i| point(v_lo + (v_hi - v_lo) * i as f64 / steps as f64))
            .collect();
        let down = (0..=steps)
            .map(|i| point(v_hi - (v_hi - v_lo) * i as f64 / steps as f64))
            .collect();
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
                .map(|s| self.sweep_point(wave(s.t), s.p, v_ds))
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

    /// `V_MOS` (V) at charge density `p` (C/m²) to rounding.
    /// [`GateInverse::v_gate`] stops at a charge tolerance of
    /// `1e-15·(1 + |p|)`, about 1e-14 V; Newton steps on
    /// [`GateInverse::q_c`] after it take the rest.
    fn exact_v_mos(gate: &GateInverse, p: f64) -> f64 {
        let mut v = gate.v_gate(p);
        for _ in 0..4 {
            let (q, c) = gate.q_c(v);
            v -= (q - p) / c;
        }
        v
    }

    /// The eager reference scan: inverts `V_MOS` at every grid point and
    /// bisects every bracket in P for the full 60 halvings, on the stack
    /// offset with `V_MOS` inverted to rounding.
    fn eager_equilibria(dev: &Fefet, v_g: f64, p_max: f64, grid: usize) -> Vec<Equilibrium> {
        let gate = GateInverse::new(&dev.mos);
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
                    let fm = (exact_v_mos(&gate, mid) + dev.fe.v_static(mid)) - v_g;
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

    /// How far (C/m²) a root solved in `V_MOS` may sit from the eager
    /// scan's P bisection of the same bracket. Largest `|ΔP|` measured:
    /// 3.5e-15 over [`devices`]' equilibria at three grids, 1.1e-15 over
    /// the zero-bias states of [`band_devices`] and 1.8e-15 over the
    /// sweeps.
    const ROOT_BAND: f64 = 1e-14;

    /// How far (V) from zero a root's stack offset, with `V_MOS` inverted
    /// to rounding, may be: a few ε of rounding in offsets of at most
    /// about 1 V. Largest measured beside the folds: 2.25ε.
    const FOLD_NOISE: f64 = 4.0 * f64::EPSILON;

    /// The largest `|ΔP|` (C/m²) between the roots `got` and the eager
    /// scan's `want`, after asserting that they are as many and each
    /// pair lies within [`ROOT_BAND`].
    fn band(got: &[f64], want: &[f64], what: &dyn Fn() -> String) -> f64 {
        assert_eq!(got.len(), want.len(), "root count moved: {}", what());
        let worst = got
            .iter()
            .zip(want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(worst <= ROOT_BAND, "|ΔP| = {worst:e}: {}", what());
        worst
    }

    /// [`band`] over equilibria, which must also keep their stable flags.
    fn eq_band(got: &[Equilibrium], want: &[Equilibrium], what: &dyn Fn() -> String) -> f64 {
        let flags = |eqs: &[Equilibrium]| eqs.iter().map(|e| e.stable).collect::<Vec<_>>();
        assert_eq!(flags(got), flags(want), "stable flags moved: {}", what());
        let ps = |eqs: &[Equilibrium]| eqs.iter().map(|e| e.p).collect::<Vec<_>>();
        band(&ps(got), &ps(want), what)
    }

    /// Films whose zero-bias states span the memory criterion: 31
    /// thicknesses across the 1.93 nm non-volatility boundary (and 21
    /// within 1e-4 relative of it, where a state's bracket straddles
    /// ±0.05 C/m² and `is_nonvolatile` solves it), endurance-cycled
    /// films at 1e0..1e14 cycles and thermal corners at 300..440 K.
    fn corner_devices() -> Vec<Fefet> {
        let base = paper_fefet();
        let t_b = crate::design::nonvolatility_boundary(&base, 1.9e-9, 2.25e-9)
            .expect("1.9 and 2.25 nm bracket the boundary");
        let endurance = EnduranceModel::default();
        let thermal = ThermalModel::default();
        (0..=30)
            .map(|k| 1.8e-9 + 0.01e-9 * k as f64)
            .chain((-10..=10).map(|k| t_b * (1.0 + 1e-5 * k as f64)))
            .map(|t| base.with_thickness(t))
            .chain((0..=14).map(|k| endurance.fefet_after(&base, 10f64.powi(k)).0))
            .chain((0..=14).map(|k| thermal.fefet_at(&base, 300.0 + 10.0 * k as f64)))
            .collect()
    }

    /// Every device family the zero-bias comparison covers: [`devices`],
    /// [`corner_devices`], the 500 devices of `monte_carlo(paper, default
    /// spec, 500, 42)` and 64 draws with the P_r/E_c spread on.
    fn band_devices() -> Vec<Fefet> {
        let base = paper_fefet();
        let mut devs = devices();
        devs.extend(corner_devices());
        let spec = VariationSpec::default();
        let mut rng = Rng::seed_from_u64(42 ^ 0xfe0f_37a7);
        devs.extend((0..500).map(|_| sample_device(&base, &spec, &mut rng)));
        let spread = VariationSpec {
            pr_sigma_rel: 0.05,
            ec_sigma_rel: 0.05,
            ..VariationSpec::default()
        };
        let mut rng = Rng::seed_from_u64(0x9e_c5);
        devs.extend((0..64).map(|_| sample_device(&base, &spread, &mut rng)));
        devs
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
    fn branch_scan_matches_one_shot_within_the_band() {
        for grid in [2000, 4000, 6000] {
            for dev in devices() {
                for v_g in gate_voltages(&dev, grid) {
                    let what = || format!("{dev:?} at {v_g} V, grid {grid}");
                    let eager = eager_equilibria(&dev, v_g, 0.9, grid);
                    eq_band(&dev.equilibria(v_g, 0.9, grid), &eager, &what);
                    band(
                        &dev.stable_roots(v_g, 0.9, grid),
                        &eager_stable(&dev, v_g, 0.9, grid),
                        &what,
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
        for dev in band_devices() {
            let eager = eager_stable(&dev, 0.0, STATE_P_MAX, STATE_GRID);
            band(&dev.stable_states_at_zero(), &eager, &|| format!("{dev:?}"));
            let two_states =
                eager.iter().any(|&p| p < -STATE_MARGIN) && eager.iter().any(|&p| p > STATE_MARGIN);
            assert_eq!(dev.is_nonvolatile(), two_states, "{dev:?}");
        }
    }

    #[test]
    fn sweeps_and_counts_match_the_eager_scan() {
        use crate::loadline::{intersection_count, max_intersections};
        for dev in devices().into_iter().chain(corner_devices()) {
            let lazy = dev.sweep_id_vg(-1.2, 1.2, 60, 0.05);
            let eager = eager_sweep(&dev, -1.2, 1.2, 60, 0.05);
            let what = || format!("{dev:?}");
            let branch = |s: &IdVgSweep, f: fn(&SweepPoint) -> f64| -> Vec<f64> {
                s.up.iter().chain(&s.down).map(f).collect()
            };
            assert_eq!(branch(&lazy, |pt| pt.v_g), branch(&eager, |pt| pt.v_g));
            band(&branch(&lazy, |pt| pt.p), &branch(&eager, |pt| pt.p), &what);
            for min_dp in [0.03, 0.05] {
                assert_eq!(
                    lazy.window(min_dp).is_some(),
                    eager.window(min_dp).is_some(),
                    "{dev:?}"
                );
            }
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

    /// A bracket over `[lo, hi]` (C/m²) with its `V_MOS` ends inverted
    /// afresh.
    fn bracket(dev: &Fefet, lo: f64, hi: f64, lo_above: bool, stable: bool) -> Bracket {
        Bracket {
            lo,
            hi,
            v_lo: dev.v_mos_of(lo),
            v_hi: dev.v_mos_of(hi),
            lo_above,
            stable,
        }
    }

    #[test]
    fn nearest_stable_matches_bisecting_every_stable_bracket() {
        // Wide random brackets, so that the distance bounds of several
        // brackets overlap and the pruning has to get its bound right.
        let dev = paper_fefet();
        let gate = GateInverse::new(&dev.mos);
        let mut rng = Rng::seed_from_u64(0x5eed);
        for _ in 0..400 {
            let mut ends: Vec<f64> = (0..6).map(|_| rng.uniform_in(-0.9, 0.9)).collect();
            ends.sort_by(f64::total_cmp);
            let v_g = rng.uniform_in(-0.5, 0.5);
            let brackets: Vec<Bracket> = ends
                .chunks(2)
                .map(|e| bracket(&dev, e[0], e[1], rng.bool(), rng.uniform() < 0.8))
                .collect();
            let p_prev = rng.uniform_in(-1.0, 1.0);
            let every = brackets
                .iter()
                .filter(|b| b.stable)
                .map(|b| b.root(&dev.fe, &gate, v_g))
                .min_by(|a, b| (a - p_prev).abs().total_cmp(&(b - p_prev).abs()));
            assert_eq!(
                dev.nearest_stable(&gate, &brackets, v_g, p_prev)
                    .map(f64::to_bits),
                every.map(f64::to_bits),
                "{brackets:?} from {p_prev}"
            );
        }
    }

    /// Whether Newton's first step from the middle of `b`'s `V_MOS`
    /// interval, where [`Bracket::root`] starts, leaves the interval, so
    /// that the root needs its bisection safeguard.
    fn first_newton_leaves(b: &Bracket, fe: &FeCapParams, gate: &GateInverse, v_g: f64) -> bool {
        let u = 0.5 * (b.v_lo + b.v_hi);
        let (q, c) = gate.q_c(u);
        let f = u + fe.v_static(q) - v_g;
        let newton = u - f / (1.0 + fe.dv_dp(q) * c);
        // `V_MOS` rises with P, so `v_lo < v_hi`.
        !(newton > b.v_lo && newton < b.v_hi)
    }

    #[test]
    fn root_bisects_where_newton_leaves_a_fold_bracket() {
        // Gate voltages just inside each fold of the stack curve (the
        // switching voltages): the brackets on either side of the fold
        // point hold a root where the offset's slope nearly vanishes, so
        // Newton from the bracket's middle overshoots it.
        let dev = paper_fefet();
        let gate = GateInverse::new(&dev.mos);
        let curve = StackCurve::new(&dev, 0.9, 2000);
        let g = &curve.g;
        let folds: Vec<usize> = curve.runs.iter().skip(1).map(|r| r.start).collect();
        assert_eq!(folds.len(), 2, "the 2.25 nm curve folds twice");
        let mut overshoots = 0;
        for &k in &folds {
            let step = (g[k] - g[k - 1]).abs().min((g[k] - g[k + 1]).abs());
            let inward = if g[k] > g[k - 1] { -1.0 } else { 1.0 };
            for frac in [0.5, 1e-2, 1e-4, 1e-6, 1e-8] {
                let v_g = g[k] + inward * frac * step;
                let brackets = curve.brackets(v_g);
                let eager = eager_equilibria(&dev, v_g, 0.9, 2000);
                assert_eq!(brackets.len(), eager.len(), "at {v_g} V");
                for (b, want) in brackets.iter().zip(&eager) {
                    let p = b.root(&dev.fe, &gate, v_g);
                    assert!(b.lo <= p && p <= b.hi, "{p} outside {b:?} at {v_g} V");
                    // Near a fold the slope `dV_G/dP` is small, so a few ε
                    // of rounding in the offset moves a root far in P: both
                    // roots must solve their offset to rounding, and may
                    // then differ by that rounding over the slope.
                    let offset = |p: f64| exact_v_mos(&gate, p) + dev.fe.v_static(p) - v_g;
                    for root in [p, want.p] {
                        assert!(offset(root).abs() <= FOLD_NOISE, "{root} at {v_g} V");
                    }
                    let band = ROOT_BAND.max(2.0 * FOLD_NOISE / dev.dv_gate_dp(p).abs());
                    assert!((p - want.p).abs() <= band, "{p} vs {} at {v_g} V", want.p);
                    overshoots += usize::from(first_newton_leaves(b, &dev.fe, &gate, v_g));
                }
            }
        }
        assert!(
            overshoots > 0,
            "no Newton step beside a fold left its bracket"
        );
    }

    /// The point-by-point scan of `g(i) − v_g` that [`scan`]'s chunk
    /// skipping and [`StackCurve::brackets`]' run search must reproduce.
    fn linear_scan(grid: Grid, g: impl Fn(usize) -> f64, v_g: f64) -> Vec<Bracket> {
        let mut out = Vec::new();
        let mut prev_f = g(0) - v_g;
        for i in 1..grid.p.len() {
            let f = g(i) - v_g;
            if prev_f == 0.0 {
                out.push(grid.bracket(i - 1, i - 1, false, f > prev_f));
            } else if prev_f * f < 0.0 {
                out.push(grid.bracket(i - 1, i, prev_f > 0.0, f > prev_f));
            }
            prev_f = f;
        }
        out
    }

    #[test]
    fn run_search_finds_the_linear_scan_brackets() {
        for dev in devices() {
            let curve = StackCurve::new(&dev, 0.9, 2000);
            let e = landau_table(&dev.fe.lk, 0.9, 2000);
            let mut v: Vec<f64> = (0..=96).map(|k| -1.2 + 2.4 * k as f64 / 96.0).collect();
            v.extend(curve.g.iter().step_by(37).copied());
            for v_g in v {
                let grid = Grid {
                    p: &curve.branch.p,
                    v_mos: &curve.branch.v_mos,
                };
                let linear = linear_scan(grid, |i| curve.g[i], v_g);
                assert_eq!(curve.brackets(v_g), linear, "{dev:?} at {v_g} V");
                let chunked = scan(grid, &e, dev.fe.thickness, v_g);
                assert_eq!(chunked, linear, "{dev:?} at {v_g} V");
            }
        }
        // Synthetic curves: flat steps on and off the gate voltage, flat
        // starts and ends, extrema on grid points, and sign changes whose
        // offset product underflows; tiled so that [`scan`] meets them in
        // skipped chunks, walked chunks and the tail.
        let curves: [&[f64]; 5] = [
            &[0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 0.0, -1.0, -1.0, 3.0],
            &[2.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 0.5, 0.5, 0.5],
            &[1.0, 1.0, 1.0, 1.0],
            &[-1e-170, 1e-170, -1e-170, 0.0, 1e-170, 2.0],
            &[3.0, 1.0, 2.0, 0.0, 2.0, 1.0, 3.0, 3.0],
        ];
        for g in curves {
            for tiles in [1, 2, 7] {
                let g: Vec<f64> = (0..tiles)
                    .flat_map(|k| g.iter().map(move |&x| x + 4.0 * k as f64))
                    .chain(std::iter::repeat_n(4.0 * tiles as f64, SCAN_CHUNK + 3))
                    .collect();
                let p: Vec<f64> = (0..g.len()).map(|i| i as f64).collect();
                let zeros = vec![0.0; g.len()];
                let branch = GateBranch {
                    card: [0; 4],
                    p: p.clone(),
                    v_mos: g.clone(),
                };
                let curve = StackCurve::from_curve(Arc::new(branch), g.clone());
                for v_g in [
                    -2.0, -1.0, -1e-170, 0.0, 1e-170, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 9.0,
                    30.0,
                ] {
                    let grid = Grid { p: &p, v_mos: &g };
                    let linear = linear_scan(grid, |i| g[i], v_g);
                    assert_eq!(curve.brackets(v_g), linear, "{g:?} at {v_g}");
                    assert_eq!(scan(grid, &zeros, 0.0, v_g), linear, "{g:?} at {v_g}");
                }
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
