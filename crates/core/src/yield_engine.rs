//! Monte Carlo yield engine: thousands of perturbed array trials with
//! cross-trial solver reuse and fixed-memory streaming statistics.
//!
//! Every trial perturbs the per-cell devices of one read-biased array
//! (threshold voltage, ferroelectric thickness, P_r/E_c landscape,
//! trap-induced V_T shifts — see
//! [`fefet_device::variability::VariationSpec`]) and evaluates three
//! workloads: the read margin of the accessed row, a (write-voltage ×
//! pulse-width) shmoo of the hardest cell, and a read-disturb stress of
//! the easiest cell. The read margin is solved on the read row slice
//! that [`FefetArray::sense_row`] reads: only the accessed row's cells
//! carry their sampled devices, because under Table 1 read biasing an
//! unaccessed cell's read FET has no drain bias. The performance
//! substance is what is **shared** across trials:
//!
//! - **One symbolic analysis per pattern, process-wide.** Every trial
//!   solves a structurally identical MNA system (perturbations change
//!   values, never the pattern), so all trials share one
//!   [`AnalysisCache`] entry instead of re-analyzing per trial.
//! - **Reusable per-worker trial workspaces.** Each pooled worker owns a
//!   [`TrialScratch`] (read-slice clone, Newton workspace, state/solution
//!   vectors, device scratch) that is re-parameterized in place — the
//!   warm trial loop performs zero heap allocations.
//! - **Warm-started Newton.** Trials start from the converged nominal
//!   read-bias solution rather than from cold initial conditions, and
//!   the per-trial iteration counts recorded in [`TrialOutcome`] prove
//!   the reduction against [`YieldEngine::run_trial_cold`].
//! - **Reuse inside a trial only.** Device bypass caches model
//!   evaluations across a trial's solves (the cache is emptied when the
//!   trial starts), and a solve's converging iteration rides the
//!   previous iteration's factors; no factors cross a solve.
//!
//! The write shmoo and the disturb stress integrate the stack's LK
//! dynamics ([`Fefet::lk_rate`]) in backward-Euler steps on two cells
//! per trial: the hardest (largest closed-form coercive voltage) and the
//! easiest. Each cell's rate is built once per trial, holding its gate
//! card's charge inverse. The steps solve for `V_MOS`, in which the
//! gate charge is explicit, so the inverse runs once per pulse instead
//! of inside every step. The shmoo walks the boundary of its monotone
//! pass map ([`crate::shmoo::shmoo_walk`]) instead of filling the grid
//! (at most `shmoo_nv + shmoo_nt` points), and a point's down write
//! runs only after its up write passed. The masks and disturb shifts
//! are the bits the full grid on the same step gives.
//!
//! Trial randomness is drawn **serially** at setup (one sub-seed per
//! trial from the master seed); only the evaluation fans out over the
//! persistent pool ([`fefet_ckt::parallel::pool_map`]). Every outcome is a
//! pure function of its sub-seed, and the pool preserves order, so a
//! pooled run is bit-identical to a serial (`threads = 1`) run.
//!
//! Results stream into fixed-memory accumulators ([`Streaming`] and a
//! [`fefet_telemetry::Histogram`]) — memory does not grow with the
//! trial count — and condense into a [`YieldReport`] that renders as a
//! self-validating JSON [`RunReport`].

use crate::array::{FefetArray, ReadSlice};
use crate::cell::FefetCell;
use crate::shmoo::shmoo_walk_mask;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::ElemState;
use fefet_ckt::engine::{NewtonWorkspace, SolverOptions};
use fefet_ckt::parallel::pool_map;
use fefet_ckt::plan::AnalysisCache;
use fefet_ckt::{CktError, Result};
use fefet_device::fefet::{Fefet, LkRate, LkState};
use fefet_device::variability::{sample_device, VariationSpec};
use fefet_numerics::rng::Rng;
use fefet_telemetry::json::fmt_f64;
use fefet_telemetry::{Histogram, Instrumentation, RunReport, TraceEvent};
use std::cell::RefCell;
use std::sync::Arc;

/// Read-window bias point (s) at which trials are evaluated — inside
/// the read-select plateau of the 3 ns read the engine builds.
const T_BIAS: f64 = 0.5e-9;
/// Pseudo-transient step (s) for the fixed-bias point solves.
const H_STEP: f64 = 50e-12;
/// Relaxation steps from the initial-condition seed to the converged
/// nominal read-bias solution.
const K_BOOT: usize = 12;
/// Pseudo-transient steps per trial (each one Newton point solve).
const K_TRIAL: usize = 3;
/// Integration steps across a shmoo/disturb pulse.
const N_PULSE: usize = 32;
/// Integration steps across the zero-bias settle after a pulse.
const N_HOLD: usize = 8;
/// Zero-bias settle window (s) after a pulse.
const T_HOLD: f64 = 1e-9;
/// Decorrelates the trial sub-seed stream from other engine seeds.
const SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Full specification of a yield run. All knobs have working defaults;
/// `rows`/`cols` size the array, `n_trials` the Monte Carlo depth.
#[derive(Debug, Clone)]
pub struct YieldSpec {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Monte Carlo trials.
    pub n_trials: usize,
    /// Master seed; the per-trial sub-seeds derive from it serially.
    pub seed: u64,
    /// Worker threads for the pooled run; 0 = one per hardware thread,
    /// 1 = serial. Results are bit-identical for every value.
    pub threads: usize,
    /// Trials dispatched to the pool per batch (bounds the in-flight
    /// outcome buffer; statistics stream between batches).
    pub batch: usize,
    /// Per-device variation spread.
    pub variation: VariationSpec,
    /// Read passes when the on/off current ratio (dimensionless) of the
    /// accessed row is at least this.
    pub margin_min: f64,
    /// Shmoo grid: lowest write amplitude (V).
    pub shmoo_v_lo: f64,
    /// Shmoo grid: highest write amplitude (V).
    pub shmoo_v_hi: f64,
    /// Shmoo grid: amplitude points.
    pub shmoo_nv: usize,
    /// Shmoo grid: shortest write pulse (s).
    pub shmoo_t_lo: f64,
    /// Shmoo grid: longest write pulse (s).
    pub shmoo_t_hi: f64,
    /// Shmoo grid: pulse-width points. `shmoo_nv × shmoo_nt` must be
    /// ≤ 64 (pass/fail packs into a `u64` mask). A trial evaluates at
    /// most `shmoo_nv + shmoo_nt` of the points: it walks the boundary
    /// of the monotone pass map and fills in the rest.
    pub shmoo_nt: usize,
    /// A write passes when the settled polarization reaches this
    /// fraction of the nominal stored state, with the right sign.
    pub write_frac: f64,
    /// Disturb stress amplitude (V) applied to the easiest cell. The
    /// default sits below the nominal coercive voltage, so the
    /// criterion discriminates between trials instead of switching
    /// every device outright.
    pub disturb_v: f64,
    /// Disturb stress duration (s).
    pub disturb_t: f64,
    /// Disturb passes when the residual polarization shift (C/m²) stays
    /// below this.
    pub disturb_max_dp: f64,
}

impl Default for YieldSpec {
    fn default() -> Self {
        YieldSpec {
            rows: 4,
            cols: 4,
            n_trials: 256,
            seed: 0x5eed,
            threads: 0,
            batch: 256,
            variation: VariationSpec::default(),
            margin_min: 100.0,
            shmoo_v_lo: 0.4,
            shmoo_v_hi: 1.2,
            shmoo_nv: 6,
            shmoo_t_lo: 0.3e-9,
            shmoo_t_hi: 3e-9,
            shmoo_nt: 6,
            write_frac: 0.7,
            disturb_v: 0.10,
            disturb_t: 2e-9,
            disturb_max_dp: 0.05,
        }
    }
}

/// Everything one trial produced. A pure function of the engine and the
/// trial index, so serial and pooled runs agree bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// Trial index.
    pub trial: usize,
    /// False if any Newton point solve of this trial failed to
    /// converge (the trial then has no read margin and is left out of
    /// the read yield).
    pub solver_ok: bool,
    /// Accessed-row read margin: min ON over max OFF cell current
    /// (dimensionless ratio).
    pub margin_ratio: f64,
    /// Smallest ON-cell current (A) on the accessed row.
    pub i_on_min_a: f64,
    /// Largest OFF-cell current (A) on the accessed row.
    pub i_off_max_a: f64,
    /// Newton iterations summed over this trial's warm point solves.
    pub warm_iters: u64,
    /// Shmoo pass/fail bitmask; bit `iv·shmoo_nt + it` is the grid
    /// point at amplitude `iv`, width `it`. It is the full grid's
    /// result, found by a walk along the pass map's boundary.
    pub shmoo_pass: u64,
    /// Population count of `shmoo_pass`.
    pub shmoo_npass: u32,
    /// Worst residual polarization shift (C/m²) of the disturb stress.
    pub disturb_dp: f64,
    /// Column of the limiting (weakest ON) cell on the accessed row.
    pub worst_col: usize,
    /// Sampled threshold voltage (V) of that cell's read transistor.
    pub worst_vt0_v: f64,
    /// Sampled ferroelectric thickness (m) of that cell.
    pub worst_t_fe_m: f64,
}

/// Reusable per-worker trial workspace: a read-slice clone that is
/// re-parameterized in place, the Newton workspace, solution and state
/// vectors, and per-cell device scratch. After the first (cold) use,
/// [`YieldEngine::run_trial`] performs zero heap allocations on it.
#[derive(Debug)]
pub struct TrialScratch {
    circuit: Circuit,
    ws: NewtonWorkspace,
    x: Vec<f64>,
    states: Vec<ElemState>,
    devices: Vec<Fefet>,
}

/// Streaming (Welford) accumulator: count, mean, variance, min, max in
/// O(1) memory regardless of how many samples are folded in.
#[derive(Debug, Clone)]
pub struct Streaming {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Streaming {
    fn default() -> Self {
        Self::new()
    }
}

impl Streaming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Streaming {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one sample in. `x` carries whatever units the stream
    /// tracks (a dimensionless ratio for margins, seconds for times);
    /// the summary statistics come out in the same units.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (units of the folded samples; dimensionless for
    /// ratio streams).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (squared sample units; dimensionless for
    /// ratio streams).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation (units of the folded samples).
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample folded (units of the folded samples), or +∞ when
    /// empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample folded (units of the folded samples), or −∞ when
    /// empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Condenses to a plain summary.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            n: self.n,
            mean: self.mean(),
            std: self.std(),
            min: self.min,
            max: self.max,
        }
    }
}

/// Condensed summary of one [`Streaming`] accumulator.
#[derive(Debug, Clone, Copy)]
pub struct StreamStats {
    /// Sample count.
    pub n: u64,
    /// Mean, in the units of the accumulated samples (dimensionless
    /// for ratio streams).
    pub mean: f64,
    /// Standard deviation, in the units of the accumulated samples
    /// (dimensionless for ratio streams).
    pub std: f64,
    /// Minimum, in the units of the accumulated samples (dimensionless
    /// for ratio streams); +∞ when empty.
    pub min: f64,
    /// Maximum, in the units of the accumulated samples (dimensionless
    /// for ratio streams); −∞ when empty.
    pub max: f64,
}

impl StreamStats {
    /// Serializes as one JSON object (non-finite extrema become null).
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                fmt_f64(v)
            } else {
                "null".to_string()
            }
        };
        format!(
            "{{\"n\":{},\"mean\":{},\"std\":{},\"min\":{},\"max\":{}}}",
            self.n,
            num(self.mean),
            num(self.std),
            num(self.min),
            num(self.max)
        )
    }
}

/// The limiting corner over a whole run: the solver-clean trial with
/// the smallest read margin, and the device that set it.
#[derive(Debug, Clone, Copy)]
pub struct WorstCorner {
    /// Trial index of the worst margin.
    pub trial: usize,
    /// That trial's margin (dimensionless ratio).
    pub margin_ratio: f64,
    /// Limiting column on the accessed row.
    pub col: usize,
    /// Sampled threshold voltage (V) of the limiting read transistor.
    pub vt0_v: f64,
    /// Sampled ferroelectric thickness (m) of the limiting cell.
    pub t_fe_m: f64,
}

/// Aggregated result of a yield run; see [`YieldEngine::run`].
#[derive(Debug, Clone)]
pub struct YieldReport {
    /// Trials evaluated.
    pub n_trials: usize,
    /// Trials with a non-converged point solve. A solver failure says
    /// nothing about the sampled devices, so these trials are left out
    /// of `read_yield` rather than counted as failed reads.
    pub solver_failures: usize,
    /// Fraction of converged trials passing the read-margin criterion
    /// (0 when no trial converged).
    pub read_yield: f64,
    /// Fraction of trials whose best shmoo corner writes successfully.
    pub write_yield: f64,
    /// Fraction of trials passing the disturb criterion.
    pub disturb_yield: f64,
    /// Read-margin distribution (dimensionless ratios).
    pub margin: StreamStats,
    /// Histogram of log₁₀(margin), serialized JSON.
    pub margin_hist_json: String,
    /// Disturb polarization-shift distribution (C/m² samples).
    pub disturb: StreamStats,
    /// Warm Newton iterations per trial (dimensionless counts).
    pub warm_iters: StreamStats,
    /// Newton iterations the nominal bootstrap spent reaching the
    /// shared warm-start solution.
    pub nominal_bootstrap_iters: u64,
    /// Nominal (unperturbed) read margin (dimensionless ratio).
    pub nominal_margin: f64,
    /// Pass counts per shmoo grid point, row-major over
    /// (amplitude × width).
    pub shmoo_pass_counts: Vec<u64>,
    /// Amplitude points of the shmoo grid.
    pub shmoo_nv: usize,
    /// Pulse-width points of the shmoo grid.
    pub shmoo_nt: usize,
    /// The worst solver-clean corner, if any trial was solver-clean.
    pub worst: Option<WorstCorner>,
}

impl YieldReport {
    /// Renders as a self-validating [`RunReport`]: suite `yield`, one
    /// JSON section per workload.
    pub fn to_run_report(&self, spec: &YieldSpec) -> RunReport {
        let mut r = RunReport::new("yield");
        r.meta("rows", &spec.rows.to_string());
        r.meta("cols", &spec.cols.to_string());
        r.meta("trials", &self.n_trials.to_string());
        r.meta("seed", &spec.seed.to_string());
        r.meta("threads", &spec.threads.to_string());
        r.section(
            "yield",
            format!(
                "{{\"read\":{},\"write\":{},\"disturb\":{},\
                 \"solver_failures\":{}}}",
                fmt_f64(self.read_yield),
                fmt_f64(self.write_yield),
                fmt_f64(self.disturb_yield),
                self.solver_failures
            ),
        );
        r.section("read_margin", self.margin.to_json());
        r.section("read_margin_log10_hist", self.margin_hist_json.clone());
        r.section("disturb_dp", self.disturb.to_json());
        let mut shmoo = String::with_capacity(128);
        shmoo.push_str(&format!(
            "{{\"nv\":{},\"nt\":{},\"v_lo\":{},\"v_hi\":{},\
             \"t_lo\":{},\"t_hi\":{},\"pass_counts\":[",
            self.shmoo_nv,
            self.shmoo_nt,
            fmt_f64(spec.shmoo_v_lo),
            fmt_f64(spec.shmoo_v_hi),
            fmt_f64(spec.shmoo_t_lo),
            fmt_f64(spec.shmoo_t_hi)
        ));
        for (g, c) in self.shmoo_pass_counts.iter().enumerate() {
            if g > 0 {
                shmoo.push(',');
            }
            shmoo.push_str(&c.to_string());
        }
        shmoo.push_str("]}");
        r.section("write_shmoo", shmoo);
        r.section(
            "warm_start",
            format!(
                "{{\"nominal_bootstrap_iters\":{},\"nominal_margin\":{},\
                 \"trial_iters\":{}}}",
                self.nominal_bootstrap_iters,
                fmt_f64(self.nominal_margin),
                self.warm_iters.to_json()
            ),
        );
        let worst = match &self.worst {
            Some(w) => format!(
                "{{\"trial\":{},\"margin\":{},\"col\":{},\"vt0_v\":{},\
                 \"t_fe_m\":{}}}",
                w.trial,
                fmt_f64(w.margin_ratio),
                w.col,
                fmt_f64(w.vt0_v),
                fmt_f64(w.t_fe_m)
            ),
            None => "null".to_string(),
        };
        r.section("worst_corner", worst);
        r
    }
}

/// Immutable state shared by every trial: the nominal read row slice
/// with its assembly and accessed-row positions, the solver options
/// carrying the process-wide analysis cache, the converged warm-start
/// solution, and the pre-drawn trial sub-seeds.
#[derive(Debug)]
struct EngineCore {
    cell: FefetCell,
    spec: YieldSpec,
    slice: ReadSlice,
    opts: SolverOptions,
    x_nominal: Vec<f64>,
    states_nominal: Vec<ElemState>,
    trial_seeds: Vec<u64>,
    p_lo: f64,
    p_hi: f64,
    boot_iters: u64,
    nominal_margin: f64,
    instr: Instrumentation,
}

/// The yield engine itself. Cheap to clone (one `Arc`); every clone
/// shares the same analysis cache and warm-start state.
#[derive(Debug, Clone)]
pub struct YieldEngine {
    core: Arc<EngineCore>,
}

thread_local! {
    /// Per-worker trial workspace, keyed by the owning engine core so a
    /// new engine on the same pool thread rebuilds it.
    static SCRATCH: RefCell<Option<(usize, TrialScratch)>> = const { RefCell::new(None) };
}

/// Closed-form coercive voltage (V) of a ferroelectric film: the
/// extremum of the Landau S-curve at x = P² solving 5γx² + 3βx + α = 0
/// (smaller positive root), times the film thickness. Allocation-free,
/// used only to rank sampled devices.
fn coercive_voltage(fe: &fefet_ckt::models::FeCapParams) -> f64 {
    let (a, b, g) = (fe.lk.alpha, fe.lk.beta, fe.lk.gamma);
    let disc = 9.0 * b * b - 20.0 * g * a;
    if disc < 0.0 || g.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    let x = (-3.0 * b + disc.sqrt()) / (10.0 * g);
    if x > 0.0 {
        (fe.thickness * fe.lk.e_static(x.sqrt())).abs()
    } else {
        0.0
    }
}

/// Integrates a FEFET stack's LK dynamics at fixed gate bias `v_g` (V)
/// from `s` over `t_tot` (s) in `n` backward-Euler steps of
/// [`LkRate::step`], whose unknown is `V_MOS`: the state carries V from
/// step to step, so no step inverts the gate charge. Allocation-free;
/// `None` if a step meets a non-finite value.
fn settle(rate: &LkRate<'_>, v_g: f64, s: LkState, t_tot: f64, n: usize) -> Option<LkState> {
    let h = t_tot / n as f64;
    let mut s = s;
    for _ in 0..n {
        s = rate.step(v_g, h, s).ok()?;
    }
    Some(s)
}

/// A write pulse of `v_w` (V) for `t_p` (s) from `p0` (C/m²), then the
/// zero-bias hold: the settled polarization (C/m²). `V_MOS` is inverted
/// from `p0` once and carries from the pulse into the hold.
fn pulse_then_hold(rate: &LkRate<'_>, v_w: f64, p0: f64, t_p: f64) -> Option<f64> {
    settle(rate, v_w, rate.state(p0), t_p, N_PULSE)
        .and_then(|s| settle(rate, 0.0, s, T_HOLD, N_HOLD))
        .map(|s| s.p())
}

/// [`CktError::Netlist`] naming the first field of `spec` that no
/// study could run on (or would run on and report a meaningless yield
/// for: a NaN threshold fails every trial, a negative pulse integrates
/// backwards).
fn validate_spec(spec: &YieldSpec) -> Result<()> {
    let positive = |t: f64| t.is_finite() && t > 0.0;
    let checks: &[(&str, bool)] = &[
        (
            "rows, n_trials and batch must all be >= 1",
            spec.n_trials > 0 && spec.rows > 0 && spec.batch > 0,
        ),
        (
            "cols must be >= 2 (the checkerboard row 0 needs an ON and an OFF cell)",
            spec.cols >= 2,
        ),
        (
            "shmoo grid must have 1..=64 points",
            spec.shmoo_nv
                .checked_mul(spec.shmoo_nt)
                .is_some_and(|n| (1..=64).contains(&n)),
        ),
        ("margin_min must be finite", spec.margin_min.is_finite()),
        ("shmoo_v_lo must be finite", spec.shmoo_v_lo.is_finite()),
        ("shmoo_v_hi must be finite", spec.shmoo_v_hi.is_finite()),
        ("disturb_v must be finite", spec.disturb_v.is_finite()),
        (
            "shmoo_t_lo must be finite and > 0",
            positive(spec.shmoo_t_lo),
        ),
        (
            "shmoo_t_hi must be finite and > 0",
            positive(spec.shmoo_t_hi),
        ),
        ("disturb_t must be finite and > 0", positive(spec.disturb_t)),
        (
            "write_frac must lie in (0, 1]",
            spec.write_frac > 0.0 && spec.write_frac <= 1.0,
        ),
        (
            "disturb_max_dp must be finite and >= 0",
            spec.disturb_max_dp.is_finite() && spec.disturb_max_dp >= 0.0,
        ),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        Some((what, _)) => Err(CktError::Netlist(format!("yield: {what}"))),
        None => Ok(()),
    }
}

/// Whether cell `(i, j)` of the checkerboard pattern stores the high
/// polarization state.
fn stores_hi(i: usize, j: usize) -> bool {
    (i + j) % 2 == 1
}

impl YieldEngine {
    /// Builds the engine: constructs the checkerboard-patterned array's
    /// read row slice for row 0 (the circuit
    /// [`FefetArray::sense_row`] solves), performs the one-time symbolic
    /// analysis and the nominal warm-start bootstrap, and pre-draws
    /// every trial's sub-seed serially from `spec.seed`.
    ///
    /// Trials put their sampled devices into row 0's cells only. Under
    /// Table 1 read biasing an unaccessed row's read select sits at 0 V
    /// and every sense line at virtual ground, so an unaccessed cell's
    /// read FET has no drain bias and adds nothing to the sensed
    /// currents; the slice's lumped unaccessed cells stay nominal.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] on an invalid spec: zero rows, trials or
    /// batch; fewer than 2 columns, which leaves the accessed row
    /// without an ON cell and so without a read margin; a shmoo grid
    /// beyond 64 points; a non-finite `margin_min`, shmoo amplitude or
    /// `disturb_v`; a shmoo width or `disturb_t` that is not finite and
    /// positive; `write_frac` outside (0, 1]; a `disturb_max_dp` that is
    /// not finite and non-negative; a FEFET that cannot store data (as
    /// for [`FefetCell::checked_memory_states`]). Solver errors if the
    /// nominal bootstrap fails to converge.
    pub fn new(cell: FefetCell, spec: YieldSpec, instr: Instrumentation) -> Result<Self> {
        validate_spec(&spec)?;
        let mut array = FefetArray::try_new(spec.rows, spec.cols, cell)?;
        let (p_lo, p_hi) = array.memory_states();
        for i in 0..spec.rows {
            for j in 0..spec.cols {
                array.set_polarization(i, j, if stores_hi(i, j) { p_hi } else { p_lo });
            }
        }
        let slice = array.read_slice(0, 3e-9)?;
        let opts = SolverOptions {
            // No factors cross a solve, so none cross a trial. Device
            // bypass does carry state in the worker workspace, and each
            // trial clears it first (`trial_body`): a trial stays a pure
            // function of its sub-seed.
            jacobian_reuse: false,
            cache: Some(AnalysisCache::new()),
            instr: instr.clone(),
            ..SolverOptions::default()
        };
        let cell = array.cell;
        // Nominal bootstrap: relax the read bias point from the hold
        // solution by pseudo-transient stepping (the FE caps are open in
        // DC, so a pure DC solve cannot see the stored polarization).
        let mut x = slice.x_hold.clone();
        let mut states = slice.states_at(&slice.x_hold);
        let mut ws = NewtonWorkspace::new(slice.asm.n_unknowns());
        let boot_iters = slice.asm.relax_at_bias(
            &slice.circuit,
            T_BIAS,
            H_STEP,
            K_BOOT,
            &opts,
            &mut x,
            &mut states,
            &mut ws,
        )? as u64;
        let x_nominal = x;
        // Trials restart the FE caps from their stored polarization
        // (`initial_state` resets each to its p0) with node voltages
        // warm-started at the converged read bias.
        let states_nominal = slice.states_at(&x_nominal);
        let mut rng = Rng::seed_from_u64(spec.seed ^ SEED_SALT);
        let trial_seeds: Vec<u64> = (0..spec.n_trials).map(|_| rng.next_u64()).collect();
        let mut core = EngineCore {
            cell,
            spec,
            slice,
            opts,
            x_nominal,
            states_nominal,
            trial_seeds,
            p_lo,
            p_hi,
            boot_iters,
            nominal_margin: 0.0,
            instr,
        };
        let (margin, _, _, _) = margin_of(&core, &core.slice.circuit, &core.x_nominal);
        core.nominal_margin = margin;
        Ok(YieldEngine {
            core: Arc::new(core),
        })
    }

    /// The spec this engine runs.
    pub fn spec(&self) -> &YieldSpec {
        &self.core.spec
    }

    /// MNA unknowns per trial solve: the read row slice's. From 4 rows
    /// up they depend on `cols` alone (266 at 16 columns).
    pub fn n_unknowns(&self) -> usize {
        self.core.slice.asm.n_unknowns()
    }

    /// Newton iterations the nominal bootstrap spent reaching the
    /// shared warm-start solution.
    pub fn bootstrap_iters(&self) -> u64 {
        self.core.boot_iters
    }

    /// Nominal (unperturbed) read margin (dimensionless ratio).
    pub fn nominal_margin(&self) -> f64 {
        self.core.nominal_margin
    }

    /// Builds a fresh trial workspace. One per worker is enough; after
    /// its first use, [`YieldEngine::run_trial`] reuses it without
    /// allocating.
    pub fn make_scratch(&self) -> TrialScratch {
        let core = &*self.core;
        let n = core.slice.asm.n_unknowns();
        TrialScratch {
            circuit: core.slice.circuit.clone(),
            ws: NewtonWorkspace::new(n),
            x: vec![0.0; n],
            states: core.states_nominal.clone(),
            devices: vec![core.cell.fefet; core.spec.rows * core.spec.cols],
        }
    }

    /// Evaluates one trial on a reusable workspace: draws the per-cell
    /// devices from the trial's sub-seed, re-parameterizes the circuit
    /// in place, runs the warm-started read point solves, the shmoo
    /// and the disturb stress. Allocation-free once `scratch` is warm.
    pub fn run_trial(&self, scratch: &mut TrialScratch, trial: usize) -> TrialOutcome {
        trial_body(
            &self.core,
            scratch,
            trial,
            &self.core.opts,
            &self.core.x_nominal,
            &self.core.states_nominal,
        )
    }

    /// The honest cold baseline for the same trial: a fresh workspace,
    /// no shared analysis cache (the symbolic analysis is redone), and
    /// Newton started from the initial-condition seed instead of the
    /// converged nominal solution.
    pub fn run_trial_cold(&self, trial: usize) -> TrialOutcome {
        let core = &*self.core;
        let mut scratch = self.make_scratch();
        let opts = SolverOptions {
            cache: None,
            ..core.opts.clone()
        };
        trial_body(
            core,
            &mut scratch,
            trial,
            &opts,
            &core.slice.x_hold,
            &core.slice.states_at(&core.slice.x_hold),
        )
    }

    /// Runs every trial and streams the outcomes into fixed-memory
    /// accumulators. Sub-seeds were drawn serially at construction;
    /// evaluation fans out over the persistent pool in `spec.threads`-
    /// wide batches, and outcomes fold in trial order — the report is
    /// bit-identical for any thread count.
    pub fn run(&self) -> YieldReport {
        let core = &*self.core;
        let spec = &core.spec;
        let nv = spec.shmoo_nv;
        let nt = spec.shmoo_nt;
        let mut margin_s = Streaming::new();
        let mut disturb_s = Streaming::new();
        let mut iters_s = Streaming::new();
        let hist = Histogram::linear(-2.0, 10.0, 24);
        let mut shmoo_counts = vec![0u64; nv * nt];
        let mut read_pass = 0usize;
        let mut write_pass = 0usize;
        let mut disturb_pass = 0usize;
        let mut failures = 0usize;
        let mut worst: Option<WorstCorner> = None;
        let mut start = 0usize;
        while start < spec.n_trials {
            let end = (start + spec.batch).min(spec.n_trials);
            let idx: Vec<usize> = (start..end).collect();
            let core_cl = self.core.clone();
            let outcomes = pool_map(idx, spec.threads, &core.instr, move |&i| {
                run_trial_pooled(&core_cl, i)
            });
            for o in &outcomes {
                if o.solver_ok {
                    margin_s.push(o.margin_ratio);
                    hist.record(o.margin_ratio.max(1e-30).log10());
                    iters_s.push(o.warm_iters as f64);
                    if o.margin_ratio >= spec.margin_min {
                        read_pass += 1;
                    }
                    let replace = match &worst {
                        Some(w) => o.margin_ratio < w.margin_ratio,
                        None => true,
                    };
                    if replace {
                        worst = Some(WorstCorner {
                            trial: o.trial,
                            margin_ratio: o.margin_ratio,
                            col: o.worst_col,
                            vt0_v: o.worst_vt0_v,
                            t_fe_m: o.worst_t_fe_m,
                        });
                    }
                } else {
                    failures += 1;
                }
                if o.shmoo_pass != 0 {
                    write_pass += 1;
                }
                for (g, c) in shmoo_counts.iter_mut().enumerate() {
                    *c += (o.shmoo_pass >> g) & 1;
                }
                disturb_s.push(o.disturb_dp);
                if o.disturb_dp <= spec.disturb_max_dp {
                    disturb_pass += 1;
                }
            }
            start = end;
        }
        let frac = |k: usize| k as f64 / spec.n_trials as f64;
        let clean = spec.n_trials - failures;
        YieldReport {
            n_trials: spec.n_trials,
            solver_failures: failures,
            read_yield: if clean > 0 {
                read_pass as f64 / clean as f64
            } else {
                0.0
            },
            write_yield: frac(write_pass),
            disturb_yield: frac(disturb_pass),
            margin: margin_s.stats(),
            margin_hist_json: hist.to_json(),
            disturb: disturb_s.stats(),
            warm_iters: iters_s.stats(),
            nominal_bootstrap_iters: core.boot_iters,
            nominal_margin: core.nominal_margin,
            shmoo_pass_counts: shmoo_counts,
            shmoo_nv: nv,
            shmoo_nt: nt,
            worst,
        }
    }
}

/// Pool entry point: fetches (or rebuilds) this worker's thread-local
/// scratch and evaluates the trial on it.
fn run_trial_pooled(core: &Arc<EngineCore>, trial: usize) -> TrialOutcome {
    let engine = YieldEngine { core: core.clone() };
    let key = Arc::as_ptr(core) as usize;
    let trial_t0 = core.instr.profile().map(|(_, tr)| tr.now_ns());
    let out = SCRATCH.with(|slot| {
        let mut slot = slot.borrow_mut();
        let fresh = !matches!(&*slot, Some((k, _)) if *k == key);
        if fresh {
            *slot = Some((key, engine.make_scratch()));
        }
        if let Some((_, scratch)) = &mut *slot {
            engine.run_trial(scratch, trial)
        } else {
            // The slot was just populated above; this branch only
            // protects against a poisoned borrow pattern.
            let mut scratch = engine.make_scratch();
            engine.run_trial(&mut scratch, trial)
        }
    });
    if let (Some(t0), Some((_, tr))) = (trial_t0, core.instr.profile()) {
        tr.complete_at(TraceEvent::YieldTrial, t0, tr.now_ns(), trial as u64);
    }
    out
}

/// Read margin of the accessed row from a solved iterate `x` with the
/// devices of `ckt`: smallest ON over largest OFF cell current, plus
/// the limiting ON column.
fn margin_of(core: &EngineCore, ckt: &Circuit, x: &[f64]) -> (f64, f64, f64, usize) {
    let mut i_on_min = f64::INFINITY;
    let mut i_off_max = 0.0f64;
    let mut worst_col = 0usize;
    for j in 0..core.spec.cols {
        let i_d = core.slice.read_current(ckt, x, j);
        if stores_hi(0, j) {
            if i_d < i_on_min {
                i_on_min = i_d;
                worst_col = j;
            }
        } else {
            i_off_max = i_off_max.max(i_d.abs());
        }
    }
    let margin = if i_on_min.is_finite() {
        i_on_min / i_off_max.max(1e-30)
    } else {
        0.0
    };
    (margin, i_on_min, i_off_max, worst_col)
}

/// Draws trial `trial`'s devices from its sub-seed into `devices`
/// (`rows × cols`, row-major).
fn draw_devices(core: &EngineCore, trial: usize, devices: &mut [Fefet]) {
    let mut rng = Rng::seed_from_u64(core.trial_seeds[trial]);
    for dev in devices.iter_mut() {
        *dev = sample_device(&core.cell.fefet, &core.spec.variation, &mut rng);
    }
}

/// Point `i` of an `n`-point grid from `lo` to `hi` (`lo` alone when
/// `n == 1`).
fn grid_at(lo: f64, hi: f64, i: usize, n: usize) -> f64 {
    let f = if n > 1 {
        i as f64 / (n - 1) as f64
    } else {
        0.0
    };
    lo + (hi - lo) * f
}

/// The device-level workloads of one trial over all its `devices`: the
/// shmoo pass mask of the hardest cell and the worst disturb shift
/// (C/m²) of the easiest one. The mask is the full grid's, found by
/// the workspace's one boundary walk ([`shmoo_walk_mask`]). The walk
/// is exact in amplitude: each backward-Euler step solves
/// `p' = p + h·r(v, p')` with `r` increasing in `v`, so wherever
/// `p' − h·r(v, p')` increases in `p'` (the step's root is
/// unique) the step's result rises with `v` and with its start `p`,
/// and the zero-bias hold keeps that order. A larger amplitude thus
/// writes each polarity at least as far. In width (`h = t_p/N_PULSE`
/// changes with it) monotonicity is checked against the full-grid
/// reference in the tests, not proven.
fn stress_of(core: &EngineCore, devices: &[Fefet]) -> (u64, f64) {
    let spec = &core.spec;
    // Shmoo the hardest cell (largest closed-form coercive voltage).
    let mut hard = 0usize;
    let mut easy = 0usize;
    let mut vc_max = f64::NEG_INFINITY;
    let mut vc_min = f64::INFINITY;
    for (k, dev) in devices.iter().enumerate() {
        let vc = coercive_voltage(&dev.fe);
        if vc > vc_max {
            vc_max = vc;
            hard = k;
        }
        if vc < vc_min {
            vc_min = vc;
            easy = k;
        }
    }
    let rate = devices[hard].lk_rate();
    let (nv, nt) = (spec.shmoo_nv, spec.shmoo_nt);
    let shmoo_pass = shmoo_walk_mask(nv, nt, |iv, it| {
        let v_w = grid_at(spec.shmoo_v_lo, spec.shmoo_v_hi, iv, nv);
        let t_p = grid_at(spec.shmoo_t_lo, spec.shmoo_t_hi, it, nt);
        // A point passes only if both polarities write, so the down
        // write runs only after the up write passed.
        pulse_then_hold(&rate, v_w, core.p_lo, t_p)
            .is_some_and(|p1| p1 >= spec.write_frac * core.p_hi)
            && pulse_then_hold(&rate, -v_w, core.p_hi, t_p)
                .is_some_and(|p0| p0 <= spec.write_frac * core.p_lo)
    });
    // Disturb-stress the easiest cell (smallest coercive voltage) from
    // both stored states with both stress polarities.
    let rate = devices[easy].lk_rate();
    let mut disturb_dp = 0.0f64;
    for &(p0, v) in &[
        (core.p_lo, spec.disturb_v),
        (core.p_lo, -spec.disturb_v),
        (core.p_hi, spec.disturb_v),
        (core.p_hi, -spec.disturb_v),
    ] {
        match pulse_then_hold(&rate, v, p0, spec.disturb_t) {
            Some(p) => disturb_dp = disturb_dp.max((p - p0).abs()),
            None => disturb_dp = f64::INFINITY,
        }
    }
    (shmoo_pass, disturb_dp)
}

fn trial_body(
    core: &EngineCore,
    scratch: &mut TrialScratch,
    trial: usize,
    opts: &SolverOptions,
    x0: &[f64],
    states0: &[ElemState],
) -> TrialOutcome {
    let spec = &core.spec;
    draw_devices(core, trial, &mut scratch.devices);
    // Row 0 is the accessed row: its devices are the first `cols` draws.
    let mut solver_ok = true;
    for (j, dev) in scratch.devices[..spec.cols].iter().enumerate() {
        solver_ok &= scratch
            .circuit
            .set_fecap_params_at(core.slice.ffe[j], dev.fe)
            .is_ok();
        solver_ok &= scratch
            .circuit
            .set_mosfet_params_at(core.slice.mfet[j], dev.mos)
            .is_ok();
    }
    // Cache entries hold the previous trial's devices at their
    // operating points; this trial's row-0 devices differ.
    scratch.ws.clear_bypass();
    scratch.x.copy_from_slice(x0);
    scratch.states.copy_from_slice(states0);
    let mut warm_iters = 0u64;
    if solver_ok {
        match core.slice.asm.relax_at_bias(
            &scratch.circuit,
            T_BIAS,
            H_STEP,
            K_TRIAL,
            opts,
            &mut scratch.x,
            &mut scratch.states,
            &mut scratch.ws,
        ) {
            Ok(iters) => warm_iters = iters as u64,
            Err(_) => solver_ok = false,
        }
    }
    let (margin_ratio, i_on_min, i_off_max, worst_col) = if solver_ok {
        margin_of(core, &scratch.circuit, &scratch.x)
    } else {
        (0.0, 0.0, 0.0, 0)
    };
    let (shmoo_pass, disturb_dp) = stress_of(core, &scratch.devices);
    let limiter = &scratch.devices[worst_col];
    TrialOutcome {
        trial,
        solver_ok,
        margin_ratio,
        i_on_min_a: i_on_min,
        i_off_max_a: i_off_max,
        warm_iters,
        shmoo_pass,
        shmoo_npass: shmoo_pass.count_ones(),
        disturb_dp,
        worst_col,
        worst_vt0_v: limiter.mos.vt0,
        worst_t_fe_m: limiter.fe.thickness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fefet_ckt::elements::{EvalCtx, Integration};
    use fefet_ckt::engine::Assembly;
    use fefet_device::dynamics::be_step;
    use fefet_telemetry::json;

    fn small_spec() -> YieldSpec {
        YieldSpec {
            rows: 2,
            cols: 2,
            n_trials: 8,
            seed: 42,
            threads: 1,
            batch: 4,
            shmoo_nv: 2,
            shmoo_nt: 2,
            ..YieldSpec::default()
        }
    }

    fn outcomes_equal(a: &TrialOutcome, b: &TrialOutcome) -> bool {
        a.trial == b.trial
            && a.solver_ok == b.solver_ok
            && a.margin_ratio.to_bits() == b.margin_ratio.to_bits()
            && a.i_on_min_a.to_bits() == b.i_on_min_a.to_bits()
            && a.i_off_max_a.to_bits() == b.i_off_max_a.to_bits()
            && a.warm_iters == b.warm_iters
            && a.shmoo_pass == b.shmoo_pass
            && a.disturb_dp.to_bits() == b.disturb_dp.to_bits()
            && a.worst_col == b.worst_col
            && a.worst_vt0_v.to_bits() == b.worst_vt0_v.to_bits()
            && a.worst_t_fe_m.to_bits() == b.worst_t_fe_m.to_bits()
    }

    #[test]
    fn nominal_bootstrap_separates_the_stored_states() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        assert!(engine.bootstrap_iters() > 0);
        assert!(
            engine.nominal_margin() > 1.0,
            "nominal ON/OFF margin must separate: {}",
            engine.nominal_margin()
        );
    }

    #[test]
    fn serial_and_pooled_runs_are_bit_identical() {
        let cell = FefetCell::default();
        let serial =
            YieldEngine::new(cell, small_spec(), Instrumentation::off()).expect("serial engine");
        let pooled_spec = YieldSpec {
            threads: 4,
            batch: 3, // uneven batches exercise the fold boundaries
            ..small_spec()
        };
        let pooled =
            YieldEngine::new(cell, pooled_spec, Instrumentation::off()).expect("pooled engine");
        // Trial-level identity first: sharper diagnostics than the
        // aggregate comparison when something drifts.
        let mut s1 = serial.make_scratch();
        let mut s2 = pooled.make_scratch();
        for t in 0..serial.spec().n_trials {
            let a = serial.run_trial(&mut s1, t);
            let b = pooled.run_trial(&mut s2, t);
            assert!(outcomes_equal(&a, &b), "trial {t} diverged: {a:?} vs {b:?}");
        }
        let ra = serial.run();
        let rb = pooled.run();
        assert_eq!(
            ra.to_run_report(serial.spec()).to_json(),
            rb.to_run_report(&YieldSpec {
                threads: 1, // normalize the meta line; payloads must match
                batch: serial.spec().batch,
                ..pooled.spec().clone()
            })
            .to_json()
        );
    }

    /// A reused workspace carries a bypass bank from trial to trial;
    /// running trials out of order, one of them twice, on it must give
    /// what a fresh workspace gives for each. (A stale entry only hits
    /// where a device's terminals sit within `bypass_vtol` of its last
    /// evaluation; `fefet-ckt`'s
    /// `clearing_the_bypass_forgets_replaced_devices` forces that.)
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        let mut reused = engine.make_scratch();
        for t in [3, 0, 2, 1, 3] {
            let a = engine.run_trial(&mut reused, t);
            let mut fresh = engine.make_scratch();
            let b = engine.run_trial(&mut fresh, t);
            assert!(
                outcomes_equal(&a, &b),
                "trial {t}: reused scratch diverged from fresh"
            );
        }
    }

    /// The yield trials' pattern is the one the numerics crate's
    /// refactorization test reads from its committed file (see
    /// [`crate::array::pattern_text`]).
    #[test]
    fn refactor_fixture_is_the_live_yield_pattern() {
        let engine = YieldEngine::new(
            FefetCell::default(),
            array16_seed7(),
            Instrumentation::off(),
        )
        .expect("engine");
        let mut scratch = engine.make_scratch();
        engine.run_trial(&mut scratch, 0);
        let live = scratch.ws.sparse_pattern(false).expect("transient pattern");
        assert!(
            crate::array::pattern_text(live)
                == include_str!("../../numerics/tests/data/yield_slice_16.txt"),
            "the yield slice's pattern changed: rewrite the fixture with `pattern_text`"
        );
    }

    #[test]
    fn warm_start_needs_no_more_iterations_than_cold() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        let mut scratch = engine.make_scratch();
        let mut warm_total = 0u64;
        let mut cold_total = 0u64;
        for t in 0..4 {
            let warm = engine.run_trial(&mut scratch, t);
            let cold = engine.run_trial_cold(t);
            assert!(warm.solver_ok && cold.solver_ok);
            warm_total += warm.warm_iters;
            cold_total += cold.warm_iters;
        }
        assert!(
            warm_total < cold_total,
            "warm start must reduce Newton work: warm {warm_total} vs cold {cold_total}"
        );
    }

    #[test]
    fn streaming_matches_naive_reference() {
        let mut rng = Rng::seed_from_u64(7);
        let mut acc = Streaming::new();
        let mut all = Vec::new();
        for _ in 0..1000 {
            let v = rng.normal() * 3.0 + 1.5;
            acc.push(v);
            all.push(v);
        }
        let n = all.len() as f64;
        let mean = all.iter().sum::<f64>() / n;
        let var = all.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = all.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = all.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(acc.count(), 1000);
        assert!((acc.mean() - mean).abs() < 1e-12 * mean.abs().max(1.0));
        assert!((acc.variance() - var).abs() < 1e-10 * var.max(1.0));
        assert!((acc.min() - min).abs() < f64::EPSILON);
        assert!((acc.max() - max).abs() < f64::EPSILON);
    }

    #[test]
    fn report_is_valid_self_describing_json() {
        let engine = YieldEngine::new(FefetCell::default(), small_spec(), Instrumentation::off())
            .expect("engine");
        let report = engine.run();
        assert_eq!(report.n_trials, 8);
        for y in [report.read_yield, report.write_yield, report.disturb_yield] {
            assert!((0.0..=1.0).contains(&y), "yield fraction out of range: {y}");
        }
        assert_eq!(report.shmoo_pass_counts.len(), 4);
        assert!(report.margin.n + report.solver_failures as u64 == 8);
        let json_text = report.to_run_report(engine.spec()).to_json();
        json::validate(&json_text).expect("yield report must be valid JSON");
        assert!(json_text.contains("\"write_shmoo\""));
        assert!(json_text.contains("\"worst_corner\""));
    }

    #[test]
    fn spec_validation_rejects_a_row_without_an_on_cell() {
        // One column: row 0 of the checkerboard holds only an OFF cell,
        // so no trial could have a read margin.
        for rows in [1, 4] {
            let one_col = YieldSpec {
                rows,
                cols: 1,
                ..small_spec()
            };
            match YieldEngine::new(FefetCell::default(), one_col, Instrumentation::off()) {
                Err(CktError::Netlist(msg)) => assert!(msg.contains("cols"), "{msg}"),
                other => panic!("{rows}x1 spec must be a netlist error, got {other:?}"),
            }
        }
    }

    #[test]
    fn spec_validation_rejects_oversized_shmoo_grids() {
        let bad = YieldSpec {
            shmoo_nv: 9,
            shmoo_nt: 9,
            ..small_spec()
        };
        assert!(YieldEngine::new(FefetCell::default(), bad, Instrumentation::off()).is_err());
        let overflowing = YieldSpec {
            shmoo_nv: usize::MAX,
            shmoo_nt: 2,
            ..small_spec()
        };
        assert!(
            YieldEngine::new(FefetCell::default(), overflowing, Instrumentation::off()).is_err()
        );
        let empty = YieldSpec {
            n_trials: 0,
            ..small_spec()
        };
        assert!(YieldEngine::new(FefetCell::default(), empty, Instrumentation::off()).is_err());
    }

    /// Each stress or threshold field that would otherwise run a study
    /// with a silently wrong yield (a NaN threshold fails every trial, a
    /// negative width integrates backwards) is a netlist error naming
    /// the field.
    #[test]
    fn spec_validation_rejects_malformed_stress_fields() {
        type Edit = fn(&mut YieldSpec);
        let cases: &[(&str, Edit)] = &[
            ("margin_min", |s| s.margin_min = f64::NAN),
            ("shmoo_v_lo", |s| s.shmoo_v_lo = f64::NEG_INFINITY),
            ("shmoo_v_hi", |s| s.shmoo_v_hi = f64::NAN),
            ("disturb_v", |s| s.disturb_v = f64::INFINITY),
            ("shmoo_t_lo", |s| s.shmoo_t_lo = 0.0),
            ("shmoo_t_hi", |s| s.shmoo_t_hi = f64::INFINITY),
            ("disturb_t", |s| s.disturb_t = -2e-9),
            ("write_frac", |s| s.write_frac = 2.0),
            ("write_frac", |s| s.write_frac = 0.0),
            ("disturb_max_dp", |s| s.disturb_max_dp = -0.01),
            ("disturb_max_dp", |s| s.disturb_max_dp = f64::NAN),
        ];
        for (field, edit) in cases {
            let mut spec = small_spec();
            edit(&mut spec);
            match YieldEngine::new(FefetCell::default(), spec, Instrumentation::off()) {
                Err(CktError::Netlist(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("malformed {field} must be a netlist error, got {other:?}"),
            }
        }
        // The edges of the accepted ranges stay accepted.
        let edge = YieldSpec {
            write_frac: 1.0,
            disturb_max_dp: 0.0,
            disturb_v: 0.0,
            ..small_spec()
        };
        assert!(YieldEngine::new(FefetCell::default(), edge, Instrumentation::off()).is_ok());
    }

    #[test]
    fn shared_cache_performs_one_symbolic_analysis_across_trials() {
        let instr = Instrumentation::enabled();
        let engine =
            YieldEngine::new(FefetCell::default(), small_spec(), instr.clone()).expect("engine");
        let mut scratch = engine.make_scratch();
        for t in 0..4 {
            engine.run_trial(&mut scratch, t);
        }
        // A second worker workspace joins the same cache.
        let mut scratch2 = engine.make_scratch();
        engine.run_trial(&mut scratch2, 0);
        let tel = instr.get().expect("telemetry");
        assert_eq!(
            tel.solver.sparse_symbolic_analyses.get(),
            1,
            "all trials must share one symbolic analysis"
        );
        assert!(
            tel.solver.analysis_cache_hits.get() >= 1,
            "later workspaces must hit the shared analysis cache"
        );
    }

    /// The committed study's spec (`examples/yield_study.rs`), serial.
    fn committed_spec() -> YieldSpec {
        YieldSpec {
            rows: 4,
            cols: 4,
            n_trials: 256,
            seed: 0x5eed_f00d,
            threads: 1,
            ..YieldSpec::default()
        }
    }

    /// The 16×16 array at seed 7, serial.
    fn array16_seed7() -> YieldSpec {
        YieldSpec {
            rows: 16,
            cols: 16,
            n_trials: 3,
            seed: 7,
            threads: 1,
            ..YieldSpec::default()
        }
    }

    /// The trial stress before the walk and the short-circuit: both
    /// write polarities at every point of the full shmoo grid, each one
    /// a `stress(device, v, p0, t_p)` pulse-and-hold integration.
    fn stress_reference(
        core: &EngineCore,
        devices: &[Fefet],
        stress: impl Fn(&Fefet, f64, f64, f64) -> Option<f64>,
    ) -> (u64, f64) {
        let spec = &core.spec;
        let vc = |k: &usize| coercive_voltage(&devices[*k].fe);
        // Ties resolve as the engine's strict comparisons do: first
        // largest, first smallest.
        let hard = (0..devices.len())
            .rev()
            .max_by(|a, b| vc(a).total_cmp(&vc(b)))
            .unwrap();
        let easy = (0..devices.len())
            .min_by(|a, b| vc(a).total_cmp(&vc(b)))
            .unwrap();
        let mut shmoo_pass = 0u64;
        for iv in 0..spec.shmoo_nv {
            let fv = if spec.shmoo_nv > 1 {
                iv as f64 / (spec.shmoo_nv - 1) as f64
            } else {
                0.0
            };
            let v_w = spec.shmoo_v_lo + (spec.shmoo_v_hi - spec.shmoo_v_lo) * fv;
            for it in 0..spec.shmoo_nt {
                let ft = if spec.shmoo_nt > 1 {
                    it as f64 / (spec.shmoo_nt - 1) as f64
                } else {
                    0.0
                };
                let t_p = spec.shmoo_t_lo + (spec.shmoo_t_hi - spec.shmoo_t_lo) * ft;
                let up = stress(&devices[hard], v_w, core.p_lo, t_p);
                let down = stress(&devices[hard], -v_w, core.p_hi, t_p);
                if let (Some(p1), Some(p0)) = (up, down) {
                    if p1 >= spec.write_frac * core.p_hi && p0 <= spec.write_frac * core.p_lo {
                        shmoo_pass |= 1u64 << (iv * spec.shmoo_nt + it);
                    }
                }
            }
        }
        let mut disturb_dp = 0.0f64;
        for (p0, v) in [
            (core.p_lo, spec.disturb_v),
            (core.p_lo, -spec.disturb_v),
            (core.p_hi, spec.disturb_v),
            (core.p_hi, -spec.disturb_v),
        ] {
            disturb_dp = match stress(&devices[easy], v, p0, spec.disturb_t) {
                Some(p) => disturb_dp.max((p - p0).abs()),
                None => f64::INFINITY,
            };
        }
        (shmoo_pass, disturb_dp)
    }

    /// Runs the walk's stress and the full-grid reference on every trial
    /// of `spec` and demands the same mask and disturb bits; returns the
    /// masks.
    fn stress_masks_match_the_reference(spec: &YieldSpec) -> Vec<u64> {
        let label = format!(
            "{}x{} seed {} shmoo {}x{} {}..{} V",
            spec.rows,
            spec.cols,
            spec.seed,
            spec.shmoo_nv,
            spec.shmoo_nt,
            spec.shmoo_v_lo,
            spec.shmoo_v_hi
        );
        let engine = YieldEngine::new(FefetCell::default(), spec.clone(), Instrumentation::off())
            .expect("engine");
        let core = &*engine.core;
        let mut devices = vec![core.cell.fefet; spec.rows * spec.cols];
        (0..spec.n_trials)
            .map(|trial| {
                draw_devices(core, trial, &mut devices);
                let (pass, dp) = stress_of(core, &devices);
                let (pass_ref, dp_ref) = stress_reference(core, &devices, |dev, v, p0, t| {
                    pulse_then_hold(&dev.lk_rate(), v, p0, t)
                });
                assert_eq!(pass, pass_ref, "{label} trial {trial}");
                assert_eq!(dp.to_bits(), dp_ref.to_bits(), "{label} trial {trial}");
                pass
            })
            .collect()
    }

    /// The shared LK rate, the shmoo short-circuit and the boundary walk
    /// leave every trial's stress bits where the full grid on the same
    /// step puts them: on the committed study, on 32 trials of the 16×16
    /// array, on 1×8, 8×1 and 8×8 (a full 64-bit mask) grids, and on
    /// grids where no point or every point passes.
    #[test]
    fn stress_walk_matches_the_full_grid_reference_bit_for_bit() {
        stress_masks_match_the_reference(&committed_spec());
        stress_masks_match_the_reference(&YieldSpec {
            n_trials: 32,
            ..array16_seed7()
        });
        for (nv, nt) in [(1, 8), (8, 1), (8, 8)] {
            stress_masks_match_the_reference(&YieldSpec {
                n_trials: 32,
                shmoo_nv: nv,
                shmoo_nt: nt,
                ..committed_spec()
            });
        }
        // Amplitudes below any sampled device's switching write nothing.
        let none = stress_masks_match_the_reference(&YieldSpec {
            n_trials: 32,
            shmoo_v_lo: 0.05,
            shmoo_v_hi: 0.2,
            ..committed_spec()
        });
        assert!(none.iter().all(|&m| m == 0), "{none:x?}");
        // Amplitudes well above switching write every point.
        let all = stress_masks_match_the_reference(&YieldSpec {
            n_trials: 32,
            shmoo_v_lo: 2.0,
            shmoo_v_hi: 3.0,
            ..committed_spec()
        });
        assert!(all.iter().all(|&m| m == (1u64 << 36) - 1), "{all:x?}");
    }

    /// One P-form backward-Euler step (`dynamics::be_step` on the rate
    /// with `V_MOS(P)` inverted per call, the step the V_MOS form
    /// replaced) of width `h` under `v_g` from `p_old`.
    fn p_form_step(dev: &Fefet, v_g: f64, h: f64, p_old: f64) -> Option<f64> {
        let tau = dev.fe.thickness * dev.fe.lk.rho;
        let rate =
            |_t: f64, p: f64| (v_g - dev.mos.v_gate_of_density(p) - dev.fe.v_static(p)) / tau;
        be_step(&rate, h, p_old, h).ok()
    }

    /// A pulse and its hold on the P-form step: the settled
    /// polarization.
    fn p_form_pulse_then_hold(dev: &Fefet, v: f64, p0: f64, t: f64) -> Option<f64> {
        let settle = |v_g: f64, p0: f64, t_tot: f64, n: usize| {
            (0..n).try_fold(p0, |p, _| p_form_step(dev, v_g, t_tot / n as f64, p))
        };
        settle(v, p0, t, N_PULSE).and_then(|p| settle(0.0, p, T_HOLD, N_HOLD))
    }

    /// The V_MOS-form stress keeps the P-form stress's outcomes: the
    /// same shmoo mask and a disturb shift within 1e-12 C/m², on all 256
    /// committed trials and on 32 trials of the 16×16 array at seed 7.
    #[test]
    fn lk_stress_keeps_the_p_form_outcomes() {
        for spec in [
            committed_spec(),
            YieldSpec {
                n_trials: 32,
                ..array16_seed7()
            },
        ] {
            let engine =
                YieldEngine::new(FefetCell::default(), spec.clone(), Instrumentation::off())
                    .expect("engine");
            let core = &*engine.core;
            let mut devices = vec![core.cell.fefet; spec.rows * spec.cols];
            for trial in 0..spec.n_trials {
                draw_devices(core, trial, &mut devices);
                let (pass, dp) = stress_of(core, &devices);
                let (pass_ref, dp_ref) = stress_reference(core, &devices, p_form_pulse_then_hold);
                let label = format!(
                    "{}x{} seed {} trial {trial}",
                    spec.rows, spec.cols, spec.seed
                );
                assert_eq!(pass, pass_ref, "{label}");
                assert!((dp - dp_ref).abs() <= 1e-12, "{label}: {dp} vs {dp_ref}");
            }
        }
    }

    /// Every V_MOS-form step lands within the two forms' summed
    /// tolerance of the P-form step from the same polarization: along
    /// every pulse and hold of the default 6×6 shmoo grid (both
    /// polarities) and of the four disturb stresses, on the nominal card
    /// and on every sampled card of 8 committed-study trials. Each form
    /// stops within `1e-12·(1 + |P|)` of a zero residual whose slope in P
    /// is `1 + (h/τ)·dV_G/dP`, so their roots differ by at most twice
    /// that over the slope (the largest gap here is 0.74 of it). On the
    /// nominal card the settled polarizations also agree within 1e-12
    /// (7.5e-14 measured); on perturbed cards a pulse
    /// can end next to the zero-bias saddle, whose hold magnifies the
    /// per-step gap (up to 3e-11 here), so they are held to the
    /// per-step band only.
    #[test]
    fn lk_stress_steps_stay_within_the_p_form_band() {
        let spec = committed_spec();
        let engine = YieldEngine::new(FefetCell::default(), spec.clone(), Instrumentation::off())
            .expect("engine");
        let core = &*engine.core;
        let mut cards = vec![core.cell.fefet];
        let mut devices = vec![core.cell.fefet; spec.rows * spec.cols];
        for trial in 0..8 {
            draw_devices(core, trial, &mut devices);
            cards.extend_from_slice(&devices);
        }
        let mut stresses = Vec::new();
        for iv in 0..spec.shmoo_nv {
            let v = grid_at(spec.shmoo_v_lo, spec.shmoo_v_hi, iv, spec.shmoo_nv);
            for it in 0..spec.shmoo_nt {
                let t = grid_at(spec.shmoo_t_lo, spec.shmoo_t_hi, it, spec.shmoo_nt);
                stresses.extend([(v, core.p_lo, t), (-v, core.p_hi, t)]);
            }
        }
        for (p0, v) in [(core.p_lo, spec.disturb_v), (core.p_hi, spec.disturb_v)] {
            stresses.extend([(v, p0, spec.disturb_t), (-v, p0, spec.disturb_t)]);
        }
        assert_eq!(stresses.len(), 76);
        for (k, dev) in cards.iter().enumerate() {
            let rate = dev.lk_rate();
            let tau = dev.fe.thickness * dev.fe.lk.rho;
            for &(v, p0, t) in &stresses {
                let label = format!("card {k} v {v} p0 {p0} t {t:e}");
                let mut s = rate.state(p0);
                for (v_g, t_tot, n) in [(v, t, N_PULSE), (0.0, T_HOLD, N_HOLD)] {
                    let h = t_tot / n as f64;
                    for i in 0..n {
                        let want = p_form_step(dev, v_g, h, s.p()).expect("P-form step");
                        s = rate.step(v_g, h, s).expect("V-form step");
                        let slope = 1.0 + h / tau * dev.dv_gate_dp(want);
                        let band = 2e-12 * (1.0 + want.abs()) / slope;
                        assert!(
                            (s.p() - want).abs() <= band,
                            "{label} step {i}: {} vs {want} (band {band:e})",
                            s.p()
                        );
                    }
                }
                if k == 0 {
                    let want = p_form_pulse_then_hold(dev, v, p0, t).expect("P-form stress");
                    assert!(
                        (s.p() - want).abs() <= 1e-12,
                        "{label}: {} vs {want}",
                        s.p()
                    );
                }
            }
        }
    }

    /// Trials whose read solves fell into a 0.5 V clamp cycle while the
    /// FE capacitor eliminated its polarization inside its stamp now
    /// converge under the plain clamp, to the margin a 0.1 V-clamped
    /// re-solve finds.
    #[test]
    fn clamp_cycle_trials_match_a_finely_damped_resolve() {
        let cases: [(YieldSpec, &[usize]); 2] = [
            (committed_spec(), &[127, 144, 160, 186, 244]),
            (array16_seed7(), &[2]),
        ];
        for (spec, trials) in cases {
            let label = format!("{}x{} seed {}", spec.rows, spec.cols, spec.seed);
            let instr = Instrumentation::enabled();
            let engine =
                YieldEngine::new(FefetCell::default(), spec, instr.clone()).expect("engine");
            let core = &*engine.core;
            let fine = SolverOptions {
                max_v_step: 0.1,
                ..core.opts.clone()
            };
            let tel = instr.get().expect("telemetry");
            let mut scratch = engine.make_scratch();
            for &t in trials {
                let o = engine.run_trial(&mut scratch, t);
                assert!(o.solver_ok, "{label} trial {t} did not converge");
                let mut fresh = engine.make_scratch();
                let r = trial_body(
                    core,
                    &mut fresh,
                    t,
                    &fine,
                    &core.x_nominal,
                    &core.states_nominal,
                );
                assert!(r.solver_ok, "{label} trial {t}: 0.1 V re-solve failed");
                let rel = (o.margin_ratio - r.margin_ratio).abs() / r.margin_ratio.abs();
                assert!(
                    rel <= 1e-9,
                    "{label} trial {t}: margin {} vs 0.1 V re-solve {} (rel {rel:e})",
                    o.margin_ratio,
                    r.margin_ratio
                );
            }
            assert_eq!(tel.solver.failures.get(), 0, "{label}: a solve failed");
        }
    }

    /// `TrialOutcome` bits as (margin, i_on, i_off, warm_iters, shmoo,
    /// disturb, worst_col, vt0, t_fe).
    type OutcomeBits = (u64, u64, u64, u64, u64, u64, usize, u64, u64);

    fn outcome_bits(o: &TrialOutcome) -> OutcomeBits {
        (
            o.margin_ratio.to_bits(),
            o.i_on_min_a.to_bits(),
            o.i_off_max_a.to_bits(),
            o.warm_iters,
            o.shmoo_pass,
            o.disturb_dp.to_bits(),
            o.worst_col,
            o.worst_vt0_v.to_bits(),
            o.worst_t_fe_m.to_bits(),
        )
    }

    /// Trial outcomes are pinned to the bit, including on a workspace
    /// that just ran trial 127, whose read once fell into a clamp cycle.
    /// The device-owned values (bootstrap iterations, shmoo, limiting
    /// column and its device) predate the charge-based FE element; the
    /// margins, currents and iteration counts are the read row slice's
    /// with polarization as an unknown (margins moved by −5.7e-9
    /// nominal and −1.1e-8 to +6.5e-9 at these trials when it came in);
    /// the disturb shifts are the V_MOS-form LK step's (−5.6e-15,
    /// −5.7e-15 and −5.3e-16 C/m² from the P-form step's at trials 0,
    /// 100 and 128). Device bypass and confirming iterations on a
    /// solve's own factors moved the nominal margin by −1.5e-12 and the
    /// margins at trials 0, 100 and 128 by +7.3e-13, +2.0e-12 and
    /// −2.9e-12 relative (ON currents +6.8e-13, +2.0e-12, −2.6e-12; OFF
    /// currents −5.1e-14, −2.2e-14, +3.1e-13); iteration counts and
    /// everything device-owned stayed. Solving the cell's memory states
    /// in `V_MOS` moved only the disturb shifts, by +1.1e-16, +5.6e-17
    /// and +1.1e-16 C/m² at trials 0, 100 and 128.
    #[test]
    fn clean_trial_outcomes_are_pinned() {
        let engine = YieldEngine::new(
            FefetCell::default(),
            committed_spec(),
            Instrumentation::off(),
        )
        .expect("engine");
        assert_eq!(engine.bootstrap_iters(), 42);
        assert_eq!(engine.nominal_margin().to_bits(), 0x4134_2b4e_6293_17af);
        let pins: [(usize, OutcomeBits); 3] = [
            (
                0,
                (
                    0x4120_6034_e6b8_6bda,
                    0x3ee9_8d81_0b29_841b,
                    0x3db8_f762_31fa_9952,
                    12,
                    0xf_ffff_efbc,
                    0x3fa5_4e3c_b136_e72c,
                    1,
                    0x4002_6497_8261_a95b,
                    0x3e22_a1c3_c5ce_7155,
                ),
            ),
            (
                100,
                (
                    0x40d4_682a_e01f_2c09,
                    0x3ea1_2655_30f1_06d4,
                    0x3dba_e477_6dbd_1004,
                    12,
                    0xf_ffff_efbc,
                    0x3fd6_145f_ebe7_55c6,
                    3,
                    0x4002_d2d3_d368_c288,
                    0x3e21_919c_e399_148f,
                ),
            ),
            (
                128,
                (
                    0x412a_e6c8_c3e7_60da,
                    0x3ef5_c10e_5b7f_4aff,
                    0x3db9_e087_a124_fb90,
                    11,
                    0xf_ffff_efa0,
                    0x3f91_5560_6534_d0b8,
                    1,
                    0x4002_9f1f_39d4_64ca,
                    0x3e23_3cca_1784_0db9,
                ),
            ),
        ];
        let mut scratch = engine.make_scratch();
        // Trial 128 follows trial 127 on the same workspace and must not
        // see any of it.
        engine.run_trial(&mut scratch, 127);
        for (t, want) in pins.iter().rev() {
            let got = outcome_bits(&engine.run_trial(&mut scratch, *t));
            assert_eq!(got, *want, "trial {t} moved");
        }
    }

    /// Test-only reference for the read row slice: a trial solved on
    /// the full netlist ([`FefetArray::read_circuit`]: every cell on its
    /// own lines), which carries all `rows × cols` sampled devices and
    /// relaxes from its own nominal bootstrap with the same `T_BIAS`,
    /// `H_STEP`, `K_BOOT` and `K_TRIAL`.
    struct FullNetlist {
        circuit: Circuit,
        asm: Assembly,
        opts: SolverOptions,
        x_nominal: Vec<f64>,
        states_nominal: Vec<ElemState>,
        ffe: Vec<usize>,
        mfet: Vec<usize>,
        boot_iters: u64,
    }

    impl FullNetlist {
        fn new(engine: &YieldEngine) -> Self {
            let core = &*engine.core;
            let (rows, cols) = (core.spec.rows, core.spec.cols);
            let mut array = FefetArray::new(rows, cols, FefetCell::default());
            for i in 0..rows {
                for j in 0..cols {
                    let p = if stores_hi(i, j) {
                        core.p_hi
                    } else {
                        core.p_lo
                    };
                    array.set_polarization(i, j, p);
                }
            }
            let circuit = array.read_circuit(0, 3e-9).expect("full read circuit");
            let asm = Assembly::new(&circuit);
            let node = |name: String| circuit.find_node(&name).expect("node").index() - 1;
            let elem = |name: String| circuit.element_position(&name).expect("element");
            let fefet = &core.cell.fefet;
            let mut x = vec![0.0; asm.n_unknowns()];
            let (mut ffe, mut mfet) = (Vec::new(), Vec::new());
            for i in 0..rows {
                for j in 0..cols {
                    let p0 = array.polarization(i, j);
                    x[node(format!("g{i}_{j}"))] = fefet.v_gate_static(p0);
                    x[node(format!("gi{i}_{j}"))] = fefet.v_mos_of(p0);
                    ffe.push(elem(format!("Ffe{i}_{j}")));
                    mfet.push(elem(format!("Mfet{i}_{j}")));
                }
            }
            let opts = SolverOptions {
                cache: Some(AnalysisCache::new()),
                ..core.opts.clone()
            };
            let initial = |x: &[f64]| -> Vec<ElemState> {
                circuit
                    .elements()
                    .iter()
                    .map(|(_, e)| e.initial_state(x))
                    .collect()
            };
            let mut states = initial(&x);
            asm.seed_polarization(&circuit, &states, 0.0, &mut x);
            let mut ws = NewtonWorkspace::new(asm.n_unknowns());
            let boot_iters = asm
                .relax_at_bias(
                    &circuit,
                    T_BIAS,
                    H_STEP,
                    K_BOOT,
                    &opts,
                    &mut x,
                    &mut states,
                    &mut ws,
                )
                .expect("full-netlist bootstrap") as u64;
            let states_nominal = initial(&x);
            FullNetlist {
                circuit,
                asm,
                opts,
                x_nominal: x,
                states_nominal,
                ffe,
                mfet,
                boot_iters,
            }
        }

        /// Trial `trial` of `engine`, its read solved on the full
        /// netlist; the device workloads run on the same draws.
        fn trial(&self, engine: &YieldEngine, trial: usize) -> TrialOutcome {
            let core = &*engine.core;
            let cols = core.spec.cols;
            let mut devices = vec![core.cell.fefet; core.spec.rows * cols];
            draw_devices(core, trial, &mut devices);
            let mut ckt = self.circuit.clone();
            for (k, dev) in devices.iter().enumerate() {
                ckt.set_fecap_params_at(self.ffe[k], dev.fe).expect("fe");
                ckt.set_mosfet_params_at(self.mfet[k], dev.mos)
                    .expect("mos");
            }
            let mut x = self.x_nominal.clone();
            let mut states = self.states_nominal.clone();
            let mut ws = NewtonWorkspace::new(self.asm.n_unknowns());
            let solved = self.asm.relax_at_bias(
                &ckt,
                T_BIAS,
                H_STEP,
                K_TRIAL,
                &self.opts,
                &mut x,
                &mut states,
                &mut ws,
            );
            let (mut i_on_min, mut i_off_max, mut worst_col) = (f64::INFINITY, 0.0f64, 0);
            for j in 0..cols {
                let ctx = EvalCtx {
                    t: T_BIAS,
                    h: H_STEP,
                    method: Integration::BackwardEuler,
                    dc: false,
                    x: &x,
                    state: ElemState::None,
                };
                let m = self.mfet[j];
                let i_d = ckt.elements()[m]
                    .1
                    .current(self.asm.branch0[m], &ctx, self.asm.n_nodes)
                    .expect("read FET current");
                if stores_hi(0, j) {
                    if i_d < i_on_min {
                        (i_on_min, worst_col) = (i_d, j);
                    }
                } else {
                    i_off_max = i_off_max.max(i_d.abs());
                }
            }
            let (shmoo_pass, disturb_dp) = stress_of(core, &devices);
            TrialOutcome {
                trial,
                solver_ok: solved.is_ok(),
                margin_ratio: i_on_min / i_off_max.max(1e-30),
                i_on_min_a: i_on_min,
                i_off_max_a: i_off_max,
                warm_iters: solved.unwrap_or(0) as u64,
                shmoo_pass,
                shmoo_npass: shmoo_pass.count_ones(),
                disturb_dp,
                worst_col,
                worst_vt0_v: devices[worst_col].mos.vt0,
                worst_t_fe_m: devices[worst_col].fe.thickness,
            }
        }
    }

    /// Largest relative difference the read currents and margin of a
    /// slice trial may show against the full netlist: 2× the per-trial
    /// worst measured over every spec the parity test runs.
    const SLICE_PARITY_REL: f64 = 9e-5;

    /// Runs `trials` of `spec` on the slice and on the full netlist and
    /// returns the worst relative difference over margin, ON and OFF
    /// currents, asserting everything that must match exactly.
    fn slice_vs_full(spec: YieldSpec, trials: &[usize]) -> f64 {
        let label = format!("{}x{} seed {}", spec.rows, spec.cols, spec.seed);
        let engine =
            YieldEngine::new(FefetCell::default(), spec, Instrumentation::off()).expect("engine");
        let full = FullNetlist::new(&engine);
        assert_eq!(
            engine.bootstrap_iters(),
            full.boot_iters,
            "{label}: bootstrap iterations"
        );
        let margin_min = engine.spec().margin_min;
        let mut scratch = engine.make_scratch();
        let mut worst = 0.0f64;
        for &t in trials {
            let a = engine.run_trial(&mut scratch, t);
            let b = full.trial(&engine, t);
            assert!(a.solver_ok && b.solver_ok, "{label} trial {t} failed");
            assert_eq!(
                a.margin_ratio >= margin_min,
                b.margin_ratio >= margin_min,
                "{label} trial {t}: read pass/fail moved ({} vs {})",
                a.margin_ratio,
                b.margin_ratio
            );
            assert_eq!(a.shmoo_pass, b.shmoo_pass, "{label} trial {t}: shmoo");
            assert_eq!(
                a.disturb_dp.to_bits(),
                b.disturb_dp.to_bits(),
                "{label} trial {t}: disturb"
            );
            assert_eq!(a.worst_col, b.worst_col, "{label} trial {t}: worst column");
            assert_eq!(a.worst_vt0_v.to_bits(), b.worst_vt0_v.to_bits());
            assert_eq!(a.worst_t_fe_m.to_bits(), b.worst_t_fe_m.to_bits());
            for (what, x, y) in [
                ("margin", a.margin_ratio, b.margin_ratio),
                ("i_on_min", a.i_on_min_a, b.i_on_min_a),
                ("i_off_max", a.i_off_max_a, b.i_off_max_a),
            ] {
                let rel = (x - y).abs() / y.abs();
                assert!(
                    rel <= SLICE_PARITY_REL,
                    "{label} trial {t}: {what} {x:e} vs full {y:e} (rel {rel:e})"
                );
                worst = worst.max(rel);
            }
        }
        worst
    }

    #[test]
    fn slice_trials_match_the_full_netlist_on_the_committed_spec() {
        let spec = committed_spec();
        let trials: Vec<usize> = (0..spec.n_trials).collect();
        let worst = slice_vs_full(spec, &trials);
        eprintln!("4x4 committed spec: worst relative difference {worst:e}");
    }

    #[test]
    fn slice_trials_match_the_full_netlist_without_probes() {
        for n in [2, 3] {
            let spec = YieldSpec {
                rows: n,
                cols: n,
                n_trials: 64,
                seed: 0x5eed_f00d,
                threads: 1,
                ..YieldSpec::default()
            };
            let trials: Vec<usize> = (0..spec.n_trials).collect();
            let worst = slice_vs_full(spec, &trials);
            eprintln!("{n}x{n}: worst relative difference {worst:e}");
        }
    }

    #[test]
    fn slice_trials_match_the_full_netlist_on_larger_arrays() {
        let reduced = |spec: YieldSpec| YieldSpec {
            shmoo_nv: 2,
            shmoo_nt: 2,
            ..spec
        };
        let spec8 = reduced(YieldSpec {
            rows: 8,
            cols: 8,
            n_trials: 16,
            seed: 0x5eed_f00d,
            threads: 1,
            ..YieldSpec::default()
        });
        let worst = slice_vs_full(spec8, &(0..16).collect::<Vec<_>>());
        eprintln!("8x8: worst relative difference {worst:e}");
        let worst = slice_vs_full(reduced(array16_seed7()), &[0, 1, 2]);
        eprintln!("16x16 seed 7: worst relative difference {worst:e}");
    }
}
