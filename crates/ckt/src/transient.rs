//! Transient analysis: implicit time stepping with per-step Newton,
//! waveform breakpoint alignment, automatic step halving on convergence
//! failure, and per-source energy metering. Each accepted point goes to
//! an observer: [`transient`] records every signal, other callers keep
//! only what they read (see [`crate::probe`]) and may end the run once
//! their answer is fixed.

use crate::circuit::Circuit;
use crate::elements::{ElemState, Element, EvalCtx, Integration, Node};
use crate::engine::{Assembly, NewtonWorkspace, SolverOptions};
use crate::probe::Recorder;
use crate::trace::Trace;
use crate::{CktError, Result};
use fefet_telemetry::TraceEvent;
use std::ops::ControlFlow;

/// Bounded accepted-point history for step prediction: the times and
/// node-voltage parts of the last (up to) two accepted solutions, held
/// in fixed buffers so that accepting a step never allocates.
#[derive(Debug)]
struct NodeHistory {
    times: [f64; 2],
    bufs: [Vec<f64>; 2],
    len: usize,
}

impl NodeHistory {
    // fefet-lint: allow-item(hot-alloc) -- history ring buffers are allocated once per run, then rotated in place
    fn new(nv: usize) -> Self {
        NodeHistory {
            times: [0.0; 2],
            bufs: [vec![0.0; nv], vec![0.0; nv]],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Records an accepted point, dropping the oldest once full. Only
    /// the node-voltage prefix of `x` is kept — all prediction uses.
    fn push(&mut self, t: f64, x: &[f64]) {
        let nv = self.bufs[0].len();
        if self.len == self.bufs.len() {
            self.times.rotate_left(1);
            self.bufs.rotate_left(1);
            self.len -= 1;
        }
        self.times[self.len] = t;
        self.bufs[self.len].copy_from_slice(&x[..nv]);
        self.len += 1;
    }

    /// The last two accepted points, oldest first, or `None` with fewer
    /// than two in history.
    #[allow(clippy::type_complexity)]
    fn last_two(&self) -> Option<((f64, &[f64]), (f64, &[f64]))> {
        if self.len < 2 {
            return None;
        }
        let i1 = self.len - 1;
        let i0 = self.len - 2;
        Some((
            (self.times[i0], self.bufs[i0].as_slice()),
            (self.times[i1], self.bufs[i1].as_slice()),
        ))
    }
}

/// How the initial condition at `t = 0` is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StartMode {
    /// Use the provided node initial conditions directly (SPICE `UIC`).
    /// All unspecified nodes start at 0 V; dynamic elements take their
    /// own initial state (capacitor voltage from the node ICs, FE
    /// polarization from `p0`). This is the default: memory simulations
    /// start from a quiescent, grounded array.
    #[default]
    UseIcs,
    /// Solve a DC operating point at the `t = 0` stimulus values first.
    DcOperatingPoint,
}

/// Options for [`transient`].
///
/// Steps run between a floor, [`TransientOptions::dt`], and a ceiling,
/// [`TransientOptions::dt_max`]. Every run starts at the floor and
/// returns to it, with a backward-Euler step, at each waveform corner.
/// Between corners each step is checked against the prediction made
/// for it (the linear extrapolation of the node voltages and each FE
/// polarization advanced at its last rate): while the difference stays
/// under 1e-4 and no node voltage or polarization moves by more than
/// 1e-3 over the step (volts and C/m²), the next step may grow, by at
/// most 2× per step, up to the ceiling. A grown step that misses either
/// bound is retried smaller, never below the floor, and counted in
/// `StepStats::rejected_lte`. With the default ceiling (the floor) every
/// step is `dt`, apart from breakpoint landings and Newton halvings, and
/// no check is made.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Step floor (s): the step of every run without a larger
    /// [`TransientOptions::dt_max`], and the step each run restarts at
    /// after a waveform corner; `0.0` selects `t_end / 2000`.
    pub dt: f64,
    /// Step ceiling (s) for the error-controlled growth between waveform
    /// corners; `0.0` selects `dt`, which keeps every step at the floor.
    /// Must be finite and, unless `0.0`, at least `dt`.
    pub dt_max: f64,
    /// Smallest step (s) before giving up; `0.0` selects `dt / 1e7`.
    pub dt_min: f64,
    /// Integration method (backward Euler by default).
    pub method: Integration,
    /// Newton solver settings.
    pub solver: SolverOptions,
    /// Initial node voltages; unlisted nodes start at 0 V.
    pub node_ics: Vec<(Node, f64)>,
    /// Initial-condition mode.
    pub start: StartMode,
    /// Step prediction: start each Newton solve from a linear
    /// extrapolation of the last two accepted node vectors instead of
    /// the previous solution. Cuts Newton iterations on smooth segments
    /// and pairs with modified Newton (a better initial guess keeps the
    /// residual contracting under stale factors). Off across waveform
    /// corners, where the derivative is discontinuous. Default on.
    pub predict: bool,
}

impl Default for TransientOptions {
    // fefet-lint: allow-item(hot-alloc) -- options construction happens once per run, before stepping
    fn default() -> Self {
        TransientOptions {
            dt: 0.0,
            dt_max: 0.0,
            dt_min: 0.0,
            method: Integration::BackwardEuler,
            solver: SolverOptions::default(),
            node_ics: Vec::new(),
            start: StartMode::UseIcs,
            predict: true,
        }
    }
}

/// The per-run context a [`Step`] evaluates element currents with.
#[derive(Debug, Clone, Copy)]
struct StepCtx<'a> {
    ckt: &'a Circuit,
    branch0: &'a [usize],
    /// Nominal step (s): the `h` every recorded current is evaluated at.
    h: f64,
    method: Integration,
}

/// One accepted time point of a transient run, as handed to the
/// observer of [`transient_with`]: the solution at `t` and the element
/// states advanced to it. The `t = 0` initial point is observed first.
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// Time of the point (s).
    pub t: f64,
    /// Solution: node voltages (node `k` at index `k − 1`), then branch
    /// currents.
    pub x: &'a [f64],
    /// Element states at `t`, in [`Circuit::elements`] order.
    pub states: &'a [ElemState],
    ctx: StepCtx<'a>,
}

impl<'a> Step<'a> {
    /// The circuit being simulated.
    pub fn circuit(&self) -> &'a Circuit {
        self.ctx.ckt
    }

    /// Voltage of `node` at this point (V); ground is 0 V.
    pub fn v(&self, node: Node) -> f64 {
        if node.index() == 0 {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Current (A) through the element at position `elem`
    /// ([`Circuit::elements`] order) at this point: exactly what
    /// [`transient`] records as `i(<element>)`, and 0 for an element
    /// without a defined current.
    pub fn current(&self, elem: usize) -> f64 {
        self.current_at(elem, self.t, self.x)
    }

    /// Current (A) through the element at position `elem` for another
    /// solution `x` at time `t_s`, evaluated with this point's element
    /// states. For elements whose current is a function of the solution
    /// alone (resistors, sources, switches, diodes, MOSFETs) this is
    /// exactly what the point that produced `x` recorded; capacitor
    /// currents come from the states and so belong to this point.
    pub fn current_at(&self, elem: usize, t_s: f64, x: &[f64]) -> f64 {
        let Some((_, e)) = self.ctx.ckt.elements().get(elem) else {
            return 0.0;
        };
        let ctx = EvalCtx {
            t: t_s,
            h: self.ctx.h,
            method: self.ctx.method,
            dc: false,
            x,
            state: self.states[elem],
        };
        e.current(self.ctx.branch0[elem], &ctx, self.ctx.ckt.n_nodes())
            .unwrap_or(0.0)
    }

    /// Polarization (C/m²) of the FE capacitor at position `elem` at
    /// this point — what [`transient`] records as `p(<element>)`; 0 for
    /// other elements.
    pub fn polarization(&self, elem: usize) -> f64 {
        polarization(self.states, elem)
    }
}

fn polarization(states: &[ElemState], elem: usize) -> f64 {
    match states.get(elem) {
        Some(ElemState::Fe { p, .. }) => *p,
        _ => 0.0,
    }
}

/// Energy meter of one independent source: the energy it has delivered
/// so far and its terminal voltage and delivered current at the last
/// accepted point.
#[derive(Debug, Clone, Copy)]
struct Meter {
    elem: usize,
    v: f64,
    i: f64,
    joules: f64,
}

impl Meter {
    /// Adds the energy of an accepted step of width `h` that ended at
    /// `(v, i)`, by the rule matching the integrator that took it. A
    /// backward-Euler step's current is the average over the step, so
    /// the step delivers ½(V_{k−1}+V_k)·I_k·h — exactly the energy a
    /// linear capacitor stores under that step. A trapezoidal step's
    /// currents are point values, so the trapezoid rule applies to the
    /// power itself: ½(V_{k−1}·I_{k−1}+V_k·I_k)·h.
    fn accept(&mut self, method: Integration, h: f64, (v, i): (f64, f64)) {
        self.joules += match method {
            Integration::BackwardEuler => 0.5 * (self.v + v) * i * h,
            Integration::Trapezoidal => 0.5 * (self.v * self.i + v * i) * h,
        };
        (self.v, self.i) = (v, i);
    }
}

/// Terminal voltage `V(a) − V(b)` and delivered current of the source at
/// element position `elem` for the solution `x` at time `t`; their
/// product is the power the source delivers to the circuit.
fn source_vi(ckt: &Circuit, branch0: &[usize], elem: usize, t: f64, x: &[f64]) -> (f64, f64) {
    let v = |n: Node| {
        if n.index() == 0 {
            0.0
        } else {
            x[n.index() - 1]
        }
    };
    match &ckt.elements()[elem].1 {
        Element::VSource { a, b, .. } => (v(*a) - v(*b), -x[ckt.n_nodes() - 1 + branch0[elem]]),
        Element::ISource { a, b, wave } => (v(*a) - v(*b), -wave.eval(t)),
        _ => (0.0, 0.0),
    }
}

/// Step-control tolerance: the largest predictor–corrector difference a
/// grown step may show, in volts on node voltages and in C/m² on FE
/// polarizations (both swing O(1) in the circuits simulated here).
const STEP_TOL: f64 = 1e-4;

/// The most a grown step may move any node voltage (V) or FE
/// polarization (C/m²): steps grow only where nothing moves. A level
/// crossing interpolated inside a long step that the state is still
/// moving through, or the lag a backward-Euler step builds up while a
/// node drifts, is off by more than the floor schedule's would be even
/// when the step's curvature is small.
const STEP_MOVE: f64 = 1e-3;

/// Largest factor by which one step may grow on the next.
const STEP_GROWTH: f64 = 2.0;

/// Step control's measure of a solved attempt, each part the largest
/// over node voltages and FE polarizations.
#[derive(Debug, Clone, Copy)]
struct StepCheck {
    /// Difference between the prediction and the solution.
    diff: f64,
    /// Change of the solution over the step.
    moved: f64,
}

impl StepCheck {
    /// Whether a grown step showing this must be retried smaller.
    fn over(self) -> bool {
        self.diff > STEP_TOL || self.moved > STEP_MOVE
    }

    /// The factor by which to scale the step, aiming at 0.9 of both
    /// bounds: the difference from a linear extrapolation grows with the
    /// square of the step, the change over it with the step. At most
    /// [`STEP_GROWTH`]; below 1 once either nears its bound.
    fn factor(self) -> f64 {
        let by_diff = (STEP_TOL / self.diff).sqrt();
        let by_move = STEP_MOVE / self.moved;
        (0.9 * by_diff.min(by_move)).min(STEP_GROWTH)
    }
}

/// [`StepCheck`] of the attempt from `x` to `x_new` predicted as
/// `x_pred`, over the first `nv` unknowns (node voltages) and the FE
/// polarization rows `p_rows`.
fn step_check(x: &[f64], x_pred: &[f64], x_new: &[f64], nv: usize, p_rows: &[usize]) -> StepCheck {
    (0..nv).chain(p_rows.iter().copied()).fold(
        StepCheck {
            diff: 0.0,
            moved: 0.0,
        },
        |c, r| StepCheck {
            diff: c.diff.max((x_new[r] - x_pred[r]).abs()),
            moved: c.moved.max((x_new[r] - x[r]).abs()),
        },
    )
}

/// What a [`transient_with`] run returns besides what its observer
/// kept. For a run its observer ended early, everything here is as of
/// the point at which it stopped.
#[derive(Debug, Clone)]
pub struct TransientRun {
    /// Accepted time steps (the `t = 0` point is not a step).
    pub steps: usize,
    /// Energy delivered by each independent source (J), as
    /// `(element position, joules)` in element order.
    pub energies: Vec<(usize, f64)>,
    /// Element states at the final time point.
    pub states: Vec<ElemState>,
}

impl TransientRun {
    /// Total energy delivered by all independent sources (J): the same
    /// sum, in the same order, as [`Trace::total_source_energy`].
    pub fn total_source_energy(&self) -> f64 {
        self.energies.iter().map(|(_, e)| e).sum()
    }

    /// Energy delivered by each independent source of `ckt` (the circuit
    /// that was run) as `(source name, joules)`, in element order: what
    /// [`Trace::energies`] lists.
    pub fn source_energies<'a>(
        &'a self,
        ckt: &'a Circuit,
    ) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.energies
            .iter()
            .map(move |&(i, e)| (ckt.elements()[i].0.as_str(), e))
    }

    /// Final polarization (C/m²) of the FE capacitor at element
    /// position `elem` — the last sample [`transient`] records as
    /// `p(<element>)`; 0 for other elements.
    pub fn polarization(&self, elem: usize) -> f64 {
        polarization(&self.states, elem)
    }
}

/// Runs a transient analysis of `ckt` from 0 to `t_end` (s).
///
/// Records every node voltage (`v(<node>)`), every element current
/// (`i(<element>)`), and every ferroelectric polarization
/// (`p(<element>)`), plus delivered energy per independent source. This
/// is [`transient_with`] with a [`Recorder`] as the observer: the
/// waveform API. A measurement that reads a few values passes the
/// probes of [`crate::probe`] to [`transient_with`] instead.
///
/// # Errors
///
/// As for [`transient_with`].
// fefet-lint: allow-item(hot-alloc) -- full-trace entry point: names the source energies once per run; the trace grows per step by design
pub fn transient(ckt: &Circuit, t_end: f64, opts: TransientOptions) -> Result<Trace> {
    let mut rec = Recorder::new();
    let run = transient_with(ckt, t_end, opts, |s| {
        rec.observe(s);
        ControlFlow::Continue(())
    })?;
    let mut trace = rec.into_trace();
    trace.set_energies(
        run.source_energies(ckt)
            .map(|(name, e)| (name.to_string(), e))
            .collect(),
    );
    Ok(trace)
}

/// Runs a transient analysis of `ckt` from 0 to `t_end` (s), handing
/// every accepted time point — the `t = 0` initial point first — to
/// `observe`, which keeps whatever it needs. Energy per independent
/// source, the accepted-step count and the final element states come
/// back in the [`TransientRun`]. The stepping is the same whatever the
/// observer does, so any two observers see the same points; an observer
/// that returns [`ControlFlow::Break`] ends the run at that point, and
/// every point up to it is the one a full run would have taken.
///
/// # Errors
///
/// [`CktError::Netlist`] for a non-positive `t_end`;
/// [`CktError::Convergence`] if Newton fails even at the minimum step.
// fefet-lint: allow-item(hot-alloc) -- run driver: allocates per-run state up front and on cold error/accept paths; the per-step warm path is solve_point_with, pinned zero-alloc by the alloctrack gate
#[allow(clippy::needless_range_loop)]
pub fn transient_with(
    ckt: &Circuit,
    t_end: f64,
    opts: TransientOptions,
    mut observe: impl FnMut(&Step<'_>) -> ControlFlow<()>,
) -> Result<TransientRun> {
    if !(t_end > 0.0) {
        return Err(CktError::Netlist(
            "transient: t_end must be positive".into(),
        ));
    }
    // Wall-time span for the whole run (no-op when instrumentation is
    // off); recorded on drop, including early error returns.
    let _span = opts.solver.instr.span("ckt.transient");
    let dt_nom = if opts.dt > 0.0 {
        opts.dt
    } else {
        t_end / 2000.0
    };
    if !opts.dt_max.is_finite() || (opts.dt_max != 0.0 && opts.dt_max < dt_nom) {
        return Err(CktError::Netlist(format!(
            "transient: dt_max = {:e} s must be finite and at least dt = {dt_nom:e} s",
            opts.dt_max
        )));
    }
    let dt_max = if opts.dt_max > 0.0 {
        opts.dt_max
    } else {
        dt_nom
    };
    // Step control is on only when the ceiling leaves room to grow;
    // otherwise every step is the floor and no estimate is taken.
    let grow = dt_max > dt_nom;
    let dt_min = if opts.dt_min > 0.0 {
        opts.dt_min
    } else {
        dt_nom / 1e7
    };
    let asm = Assembly::new(ckt);
    // Corner-snapping tolerance, relative to the nominal step so that it
    // works unchanged on nanosecond-scale write pulses and second-scale
    // retention sweeps alike (an absolute 1e-18 s would be smaller than
    // one ULP of a second-scale time axis and never match).
    let snap_eps = 1e-9 * dt_nom;

    // Breakpoints from source waveforms.
    let mut bps: Vec<f64> = Vec::new();
    for (_, e) in ckt.elements() {
        e.breakpoints(t_end, &mut bps);
    }
    bps.retain(|t| *t > 0.0 && *t < t_end);
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() < snap_eps);

    // Initial solution vector, plus the per-step Newton scratch buffers
    // reused for the whole run.
    let mut ws = NewtonWorkspace::new(asm.n_unknowns());
    let mut x = vec![0.0; asm.n_unknowns()];
    for (node, v) in &opts.node_ics {
        if node.index() > 0 {
            x[node.index() - 1] = *v;
        }
    }
    if opts.start == StartMode::DcOperatingPoint {
        // Without states every FE capacitor's DC row pins it to `p0`.
        let states: Vec<ElemState> = ckt.elements().iter().map(|_| ElemState::None).collect();
        asm.solve_point_with(
            ckt,
            0.0,
            0.0,
            opts.method,
            true,
            &opts.solver,
            &mut x,
            &states,
            &mut ws,
        )?;
    }

    // Element states at t = 0.
    let mut states: Vec<ElemState> = ckt
        .elements()
        .iter()
        .map(|(_, e)| e.initial_state(&x))
        .collect();
    asm.seed_polarization(ckt, &states, 0.0, &mut x);

    // Energy meters per independent source.
    let mut meters: Vec<Meter> = ckt
        .elements()
        .iter()
        .enumerate()
        .filter(|(_, (_, e))| matches!(e, Element::VSource { .. } | Element::ISource { .. }))
        .map(|(elem, _)| {
            let (v, i) = source_vi(ckt, &asm.branch0, elem, 0.0, &x);
            Meter {
                elem,
                v,
                i,
                joules: 0.0,
            }
        })
        .collect();

    let step_ctx = StepCtx {
        ckt,
        branch0: &asm.branch0,
        h: dt_nom,
        method: opts.method,
    };

    let mut t = 0.0;
    let mut stopped = observe(&Step {
        t,
        x: &x,
        states: &states,
        ctx: step_ctx,
    })
    .is_break();

    let mut steps = 0usize;
    let mut bp_cursor = 0usize;
    // The step following t=0 or any waveform corner uses backward Euler:
    // trapezoidal integration would otherwise propagate the (unknowable)
    // pre-corner derivative into the new segment.
    let mut at_corner = true;
    let nv = ckt.n_nodes() - 1;
    let mut hist = NodeHistory::new(nv);
    hist.push(0.0, &x);
    // Attempt buffer: each trial step solves into `x_new` so a rejected
    // step leaves `x` untouched; on acceptance the two swap pointers.
    let mut x_new = vec![0.0; asm.n_unknowns()];
    // Under step control: the prediction each attempt is measured
    // against, and the FE polarization rows the estimate covers.
    let mut x_pred = if grow {
        vec![0.0; asm.n_unknowns()]
    } else {
        Vec::new()
    };
    let p_rows: Vec<usize> = if grow {
        ckt.elements()
            .iter()
            .enumerate()
            .filter(|(_, (_, e))| matches!(e, Element::FeCap { .. }))
            .map(|(k, _)| nv + asm.branch0[k])
            .collect()
    } else {
        Vec::new()
    };
    // The step the next attempt starts from: the floor, or what step
    // control grew it to.
    let mut h_next = dt_nom;
    while !stopped && t < t_end * (1.0 - 1e-15) {
        // Profiling: the step timer spans every attempt (rejections
        // included) so the latency distribution reflects what a step
        // actually cost, not just its final successful solve.
        let step_t0 = opts.solver.instr.profile().map(|(_, tr)| tr.now_ns());
        while bp_cursor < bps.len() && bps[bp_cursor] <= t * (1.0 + 1e-15) {
            bp_cursor += 1;
        }
        let t_ceiling = if bp_cursor < bps.len() {
            bps[bp_cursor].min(t_end)
        } else {
            t_end
        };
        let step_method = if at_corner {
            Integration::BackwardEuler
        } else {
            opts.method
        };
        let mut dt_try = h_next.min(t_ceiling - t);
        // Halving from dt_nom to dt_min covers ~23 attempts at the
        // default ratio; the cap turns a pathological reject cycle into
        // a typed error instead of an unbounded retry loop.
        const MAX_STEP_ATTEMPTS: usize = 256;
        let mut accepted: Option<(f64, Option<f64>)> = None;
        for _attempt in 0..MAX_STEP_ATTEMPTS {
            let t_attempt = if (t + dt_try - t_ceiling).abs() < snap_eps {
                t_ceiling
            } else {
                t + dt_try
            };
            x_new.copy_from_slice(&x);
            // Transient prediction: linear extrapolation of the node
            // voltages through the last two accepted points, and each FE
            // polarization advanced at its last rate. It is the Newton
            // initial guess (with `predict`) and step control's
            // reference. Branch currents keep their previous values —
            // they are linear consequences of the voltages and converge
            // in the same iteration either way. Skipped on the step after
            // a corner (history was cleared there anyway) and clamped to
            // the damping bound so a wild extrapolation can never fling
            // the iterate further than Newton itself may.
            let mut predicted = false;
            if let (true, true, Some(((t0, x0), (t1, x1)))) =
                (opts.predict || grow, !at_corner, hist.last_two())
            {
                let h0 = t1 - t0;
                if h0 > 0.0 {
                    let guess = if opts.predict {
                        &mut x_new
                    } else {
                        x_pred.copy_from_slice(&x);
                        &mut x_pred
                    };
                    let w = (t_attempt - t1) / h0;
                    let bound = opts.solver.max_v_step;
                    for i in 0..nv {
                        guess[i] = x1[i] + (w * (x1[i] - x0[i])).clamp(-bound, bound);
                    }
                    asm.seed_polarization(ckt, &states, t_attempt - t, guess);
                    if opts.predict {
                        if grow {
                            x_pred.copy_from_slice(&x_new);
                        }
                        if let Some(tel) = opts.solver.instr.get() {
                            tel.steps.predicted.inc();
                        }
                    }
                    predicted = true;
                }
            }
            let solved = asm.solve_point_with(
                ckt,
                t_attempt,
                t_attempt - t,
                step_method,
                false,
                &opts.solver,
                &mut x_new,
                &states,
                &mut ws,
            );
            match solved {
                Ok(_) => {
                    // Step control: the next step's scale factor from
                    // this one's predictor–corrector difference and
                    // change; a grown step outside either bound is
                    // retried smaller. A step without a prediction (the
                    // first past a corner) is not checked, and the next
                    // one stays at the floor.
                    let factor = if grow && predicted {
                        let check = step_check(&x, &x_pred, &x_new, nv, &p_rows);
                        if check.over() && dt_try > dt_nom {
                            if let Some(tel) = opts.solver.instr.get() {
                                tel.steps.rejected_lte.inc();
                            }
                            dt_try = (dt_try * check.factor()).max(dt_nom);
                            continue;
                        }
                        Some(check.factor())
                    } else {
                        None
                    };
                    accepted = Some((t_attempt, factor));
                    break;
                }
                // A non-finite iterate comes from NaN/Inf in the stimulus
                // or model, not from the step size; retrying smaller
                // steps cannot converge it.
                Err(e @ CktError::NonFinite { .. }) => return Err(e),
                Err(e) => {
                    if let Some(tel) = opts.solver.instr.get() {
                        tel.steps.rejected_newton.inc();
                    }
                    dt_try *= 0.5;
                    if dt_try < dt_min {
                        return Err(CktError::Convergence {
                            time: t,
                            detail: format!("step rejected below dt_min={dt_min:.3e}: {e}"),
                        });
                    }
                }
            }
        }
        let (t_new, factor) = accepted.ok_or_else(|| CktError::Convergence {
            time: t,
            detail: format!("no accepted step within {MAX_STEP_ATTEMPTS} attempts"),
        })?;
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(CktError::NonFinite {
                context: "transient accepted step",
                step: t_new,
            });
        }
        let h = t_new - t;
        // Advance element states.
        for (i, (_, e)) in ckt.elements().iter().enumerate() {
            let ctx = EvalCtx {
                t: t_new,
                h,
                method: step_method,
                dc: false,
                x: &x_new,
                state: states[i],
            };
            states[i] = match e.next_state(asm.branch0[i], ckt.n_nodes(), &ctx) {
                ElemState::None => states[i],
                s => s,
            };
        }
        std::mem::swap(&mut x, &mut x_new);
        at_corner = bps.iter().any(|b| (b - t_new).abs() < snap_eps);
        if let Some(tel) = opts.solver.instr.get() {
            tel.steps.accepted.inc();
            tel.steps.dt_seconds.record(h);
            if at_corner {
                tel.steps.corner_snaps.inc();
            }
        }
        if let (Some(t0), Some((tel, tr))) = (step_t0, opts.solver.instr.profile()) {
            let end = tr.now_ns();
            tel.latency
                .transient_step_ns
                .record_ns(end.saturating_sub(t0));
            // arg: accepted step size in femtoseconds (integral, so it
            // survives the u64 payload; ps would alias sub-ps steps).
            tr.complete_at(TraceEvent::TransientStep, t0, end, (h * 1e15) as u64);
        }
        if at_corner {
            // Prediction restarts after a stimulus corner.
            hist.clear();
        }
        // The next step: this one scaled by its check, or the floor
        // after a corner or an unchecked step.
        h_next = match factor {
            Some(f) if !at_corner => (h * f).clamp(dt_nom, dt_max),
            _ => dt_nom,
        };
        for m in meters.iter_mut() {
            m.accept(
                step_method,
                h,
                source_vi(ckt, &asm.branch0, m.elem, t_new, &x),
            );
        }
        t = t_new;
        hist.push(t, &x);
        steps += 1;
        stopped = observe(&Step {
            t,
            x: &x,
            states: &states,
            ctx: step_ctx,
        })
        .is_break();
    }

    Ok(TransientRun {
        steps,
        energies: meters.iter().map(|m| (m.elem, m.joules)).collect(),
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Node;
    use crate::models::{FeCapParams, MosParams};
    use crate::trace::Edge;
    use crate::waveform::Waveform;

    #[test]
    fn nan_stimulus_is_a_typed_nonfinite_error() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(f64::NAN));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let res = transient(&c, 1e-6, TransientOptions::default());
        assert!(
            matches!(res, Err(CktError::NonFinite { .. })),
            "expected NonFinite, got {res:?}"
        );
    }

    #[test]
    fn rc_step_matches_analytic() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let tau = 1e-6;
        let tr = transient(
            &c,
            5.0 * tau,
            TransientOptions {
                dt: tau / 400.0,
                method: Integration::Trapezoidal,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // Compare against 1 - e^{-t/tau} at several times.
        for frac in [0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let v = tr.value_at("v(out)", t).unwrap();
            let exact = 1.0 - (-frac).exp();
            assert!(
                (v - exact).abs() < 2e-3,
                "RC mismatch at {frac} tau: {v} vs {exact}"
            );
        }
    }

    #[test]
    fn rc_energy_balance() {
        // Energy delivered by the source into an RC charge = C V² (half in
        // the cap, half dissipated).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", vin, vout, 1e3);
        c.capacitor("C1", vout, Circuit::GND, 1e-9);
        let tr = transient(
            &c,
            20e-6, // 20 tau: fully settled
            TransientOptions {
                dt: 10e-9,
                method: Integration::Trapezoidal,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let e = tr.energy("V1").unwrap();
        assert!(
            (e - 1e-9).abs() < 0.03e-9,
            "source energy {e:.3e} J, expected C·V² = 1e-9 J"
        );
    }

    #[test]
    fn energy_meter_is_exact_on_a_driven_capacitor() {
        // A capacitor straight across a piecewise-linear source stores
        // ½·C·V_end², all of it delivered by the source. Each meter rule
        // matches its integrator's charge balance, so the metered energy
        // is exact at any step up to the Newton tolerance, corners
        // included — where BE steps follow trapezoidal ones.
        let cap = 1e-12;
        let wave = Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.4), (3e-9, 0.9)]);
        for method in [Integration::BackwardEuler, Integration::Trapezoidal] {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.vsource("V1", a, Circuit::GND, wave.clone());
            c.capacitor("C1", a, Circuit::GND, cap);
            let opts = TransientOptions {
                dt: 0.3e-9,
                method,
                ..TransientOptions::default()
            };
            let e = transient(&c, 3e-9, opts).unwrap().energy("V1").unwrap();
            let exact = 0.5 * cap * 0.9 * 0.9;
            assert!(
                (e - exact).abs() < 1e-6 * exact,
                "{method:?}: metered {e:e} J, stored {exact:e} J"
            );
        }
    }

    #[test]
    fn energy_meter_converges_at_the_integrator_order() {
        // A linear ramp into an RC load delivers a closed-form energy,
        // so the meter's error can be measured at each step: halving dt
        // halves it under backward Euler and quarters it under the
        // trapezoidal rule (whose first step, at t = 0, is still BE).
        let (r, cap, slope, t_ramp): (f64, f64, f64, f64) = (1e3, 1e-12, 1e9, 2e-9);
        let tau = r * cap;
        let exact = slope
            * slope
            * cap
            * (0.5 * t_ramp * t_ramp
                - tau * tau * (1.0 - (-t_ramp / tau).exp() * (1.0 + t_ramp / tau)));
        let err = |method, dt| {
            let mut c = Circuit::new();
            let vin = c.node("in");
            let vout = c.node("out");
            c.vsource(
                "V1",
                vin,
                Circuit::GND,
                Waveform::pwl(vec![(0.0, 0.0), (t_ramp, slope * t_ramp)]),
            );
            c.resistor("R1", vin, vout, r);
            c.capacitor("C1", vout, Circuit::GND, cap);
            let opts = TransientOptions {
                dt,
                method,
                ..TransientOptions::default()
            };
            let e = transient(&c, t_ramp, opts).unwrap().energy("V1").unwrap();
            (e - exact).abs() / exact
        };
        for (method, lo, hi) in [
            (Integration::BackwardEuler, 1.8, 2.2),
            (Integration::Trapezoidal, 3.5, 4.5),
        ] {
            let errs = [
                err(method, 0.1e-9),
                err(method, 0.05e-9),
                err(method, 0.025e-9),
            ];
            for w in errs.windows(2) {
                let ratio = w[0] / w[1];
                assert!(
                    (lo..hi).contains(&ratio),
                    "{method:?}: error ratio {ratio:.3} per halving, errors {errs:?}"
                );
            }
        }
    }

    #[test]
    fn pulse_breakpoints_are_hit() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(
            "V1",
            a,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9),
        );
        c.resistor("R1", a, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            4e-9,
            TransientOptions {
                dt: 0.3e-9, // deliberately coarse and incommensurate
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // The flat-top must be fully resolved: max exactly 1.0.
        assert!((tr.max("v(a)").unwrap() - 1.0).abs() < 1e-9);
        // Time axis must contain the pulse corners.
        for corner in [1e-9, 1.1e-9, 2.1e-9, 2.2e-9] {
            assert!(
                tr.time().iter().any(|t| (t - corner).abs() < 1e-15),
                "corner {corner} not sampled"
            );
        }
    }

    /// Corner snapping must be scale-relative: the same pulse shape on a
    /// nanosecond axis and on a second-scale (retention-style) axis must
    /// both land time points exactly on the waveform corners. With the
    /// old absolute `1e-18 s` tolerance the second-scale run could miss
    /// the snap (1e-18 is below one ULP of `t ≈ 1 s`) and emit sliver
    /// steps next to each corner instead.
    #[test]
    fn corner_snap_is_scale_invariant() {
        for scale in [1e-9, 1.0] {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.vsource(
                "V1",
                a,
                Circuit::GND,
                Waveform::pulse(0.0, 1.0, scale, 0.1 * scale, 0.1 * scale, scale),
            );
            c.resistor("R1", a, Circuit::GND, 1e3);
            let tr = transient(
                &c,
                4.0 * scale,
                TransientOptions {
                    dt: 0.3 * scale, // coarse and incommensurate with the corners
                    ..TransientOptions::default()
                },
            )
            .unwrap();
            assert!(
                (tr.max("v(a)").unwrap() - 1.0).abs() < 1e-9,
                "scale {scale}: flat-top not resolved"
            );
            for frac in [1.0, 1.1, 2.1, 2.2] {
                let corner = frac * scale;
                assert!(
                    tr.time().iter().any(|t| (t - corner).abs() < 1e-12 * scale),
                    "scale {scale}: corner {corner} not sampled exactly"
                );
            }
            // No sliver steps: consecutive time points never closer than
            // the snap tolerance would allow.
            let dt_nom = 0.3 * scale;
            let times = tr.time();
            for w in times.windows(2) {
                assert!(
                    w[1] - w[0] > 1e-9 * dt_nom,
                    "scale {scale}: sliver step {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn uic_starts_at_zero_then_steps() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, Circuit::GND, 1e3);
        let tr = transient(&c, 1e-9, TransientOptions::default()).unwrap();
        let v = tr.signal("v(a)").unwrap();
        assert_eq!(v[0], 0.0); // UIC
        assert!((v[1] - 1.0).abs() < 1e-6); // snapped to source
    }

    #[test]
    fn dc_start_mode_begins_settled() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            1e-9,
            TransientOptions {
                start: StartMode::DcOperatingPoint,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        assert!((tr.signal("v(b)").unwrap()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_ics_respected() {
        // Pre-charged capacitor discharging through a resistor.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::GND, 1e-9);
        c.resistor("R1", a, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            3e-6,
            TransientOptions {
                dt: 5e-9,
                node_ics: vec![(a, 1.0)],
                method: Integration::Trapezoidal,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let v1 = tr.value_at("v(a)", 1e-6).unwrap();
        assert!(((v1 - (-1.0f64).exp()).abs()) < 2e-3, "decay: {v1}");
    }

    #[test]
    fn switch_gates_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.switch(
            "S1",
            a,
            b,
            Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 1e-9),
            10.0,
            1e12,
        );
        c.resistor("RL", b, Circuit::GND, 1e3);
        let tr = transient(
            &c,
            3e-9,
            TransientOptions {
                dt: 0.05e-9,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // Before the switch closes, v(b) ~ 0; during: ~ 1V.
        assert!(tr.value_at("v(b)", 0.5e-9).unwrap().abs() < 1e-3);
        assert!((tr.value_at("v(b)", 1.5e-9).unwrap() - 1e3 / 1010.0).abs() < 1e-3);
        assert!(tr.value_at("v(b)", 2.5e-9).unwrap().abs() < 1e-3);
    }

    #[test]
    fn nmos_inverter_switches() {
        // Resistor-load inverter: out high when gate low, pulled low when
        // gate high.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        c.vsource(
            "VG",
            g,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 2e-9, 0.1e-9, 0.1e-9, 4e-9),
        );
        c.resistor("RL", vdd, out, 100e3);
        c.capacitor("CL", out, Circuit::GND, 0.2e-15);
        c.mosfet("M1", out, g, Circuit::GND, MosParams::nmos_45nm());
        let tr = transient(
            &c,
            8e-9,
            TransientOptions {
                dt: 0.02e-9,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let v_before = tr.value_at("v(out)", 1.8e-9).unwrap();
        let v_during = tr.value_at("v(out)", 5.5e-9).unwrap();
        assert!(v_before > 0.9, "output should be high, got {v_before}");
        assert!(
            v_during < 0.2,
            "output should be pulled low, got {v_during}"
        );
        // Falling edge measurable.
        let tf = tr.cross_time("v(out)", 0.5, Edge::Falling, 1.9e-9).unwrap();
        assert!(tf > 2e-9 && tf < 3.5e-9, "fall at {tf}");
    }

    #[test]
    fn fecap_polarization_switches_under_field() {
        // Drive a 1 nm FE cap well beyond its coercive voltage (±1.24 V)
        // and watch the polarization flip sign.
        let mut c = Circuit::new();
        let a = c.node("a");
        let params = FeCapParams::new(1e-9, 65e-9 * 65e-9);
        c.vsource(
            "V1",
            a,
            Circuit::GND,
            Waveform::pwl(vec![
                (0.0, 0.0),
                (2e-9, 2.0),
                (4e-9, 2.0),
                (6e-9, -2.0),
                (8e-9, -2.0),
            ]),
        );
        c.resistor("Rs", a, c.find_node("a").unwrap(), 1.0); // placeholder keeps node count stable
        let f = c.node("f");
        c.resistor("R1", a, f, 100.0);
        c.fecap("F1", f, Circuit::GND, params, -0.4);
        let tr = transient(
            &c,
            8e-9,
            TransientOptions {
                dt: 2e-12,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        let p = tr.signal("p(F1)").unwrap();
        assert!(p[0] < 0.0);
        let p_mid = tr.value_at("p(F1)", 4e-9).unwrap();
        assert!(p_mid > 0.3, "P should have switched positive, got {p_mid}");
        let p_end = tr.last("p(F1)").unwrap();
        assert!(p_end < -0.3, "P should have switched back, got {p_end}");
    }

    #[test]
    fn rl_current_rise_matches_analytic() {
        // Series RL step: i(t) = (V/R)(1 - e^{-tR/L}).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", vin, mid, 100.0);
        c.inductor("L1", mid, Circuit::GND, 1e-6);
        let tau = 1e-6 / 100.0; // 10 ns
        let tr = transient(
            &c,
            5.0 * tau,
            TransientOptions {
                dt: tau / 200.0,
                method: Integration::Trapezoidal,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        for frac in [1.0, 2.0, 4.0] {
            let i = tr.value_at("i(L1)", frac * tau).unwrap();
            let exact = 0.01 * (1.0 - (-frac).exp());
            assert!(
                (i - exact).abs() < 2e-4 * 0.01 + 2e-5,
                "RL mismatch at {frac} tau: {i} vs {exact}"
            );
        }
    }

    #[test]
    fn lc_tank_oscillates_at_resonance() {
        // Pre-charged C ringing into L: period = 2 pi sqrt(LC).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::GND, 1e-12);
        c.inductor("L1", a, Circuit::GND, 1e-6);
        // Small loss to keep the numerics honest.
        c.resistor("Rp", a, Circuit::GND, 1e6);
        let period = 2.0 * std::f64::consts::PI * (1e-6f64 * 1e-12).sqrt(); // ~6.28 ns
        let tr = transient(
            &c,
            2.0 * period,
            TransientOptions {
                dt: period / 400.0,
                method: Integration::Trapezoidal,
                node_ics: vec![(a, 1.0)],
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // First zero crossing at a quarter period.
        let t_zero = tr
            .cross_time("v(a)", 0.0, crate::trace::Edge::Falling, 0.0)
            .unwrap();
        assert!(
            (t_zero - period / 4.0).abs() < 0.03 * period,
            "quarter period {t_zero:.3e} vs {:.3e}",
            period / 4.0
        );
        // Oscillation survives to the second period with modest decay.
        let v_peak2 = tr.window_max("v(a)", 0.9 * period, 1.1 * period).unwrap();
        assert!(v_peak2 > 0.8, "peak after one period {v_peak2}");
    }

    #[test]
    fn inductor_is_short_in_dc_start() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0));
        c.resistor("R1", vin, mid, 1e3);
        c.inductor("L1", mid, Circuit::GND, 1e-3);
        let tr = transient(
            &c,
            1e-9,
            TransientOptions {
                start: StartMode::DcOperatingPoint,
                ..TransientOptions::default()
            },
        )
        .unwrap();
        // DC: inductor shorts mid to ground, current = 2 mA.
        assert!(tr.signal("v(mid)").unwrap()[0].abs() < 1e-6);
        assert!((tr.signal("i(L1)").unwrap()[0] - 2e-3).abs() < 1e-8);
    }

    #[test]
    fn rejects_bad_t_end() {
        let c = Circuit::new();
        assert!(transient(&c, 0.0, TransientOptions::default()).is_err());
    }

    #[test]
    fn trapezoidal_more_accurate_than_be_on_rc() {
        // Discharging RC from a node IC: smooth exponential with no input
        // discontinuity, so the trapezoidal rule's second order shows.
        let build = || {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.capacitor("C1", a, Circuit::GND, 1e-9);
            c.resistor("R1", a, Circuit::GND, 1e3);
            c
        };
        let run = |method| {
            let c = build();
            let a = c.find_node("a").unwrap();
            let tr = transient(
                &c,
                2e-6,
                TransientOptions {
                    dt: 50e-9,
                    method,
                    node_ics: vec![(a, 1.0)],
                    ..TransientOptions::default()
                },
            )
            .unwrap();
            tr.value_at("v(a)", 1e-6).unwrap()
        };
        let exact = (-1.0f64).exp();
        let err_be = (run(Integration::BackwardEuler) - exact).abs();
        let err_tr = (run(Integration::Trapezoidal) - exact).abs();
        assert!(
            err_tr < err_be,
            "trap ({err_tr:.2e}) should beat BE ({err_be:.2e})"
        );
    }

    /// FNV-1a fingerprint of a run: every accepted point's time and
    /// solution, the step count and the source energies, all as bits.
    fn fingerprint(ckt: &Circuit, t_end: f64, opts: TransientOptions) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let run = transient_with(ckt, t_end, opts, |s| {
            mix(s.t.to_bits());
            for v in s.x {
                mix(v.to_bits());
            }
            ControlFlow::Continue(())
        })
        .unwrap();
        mix(run.steps as u64);
        for (_, e) in &run.energies {
            mix(e.to_bits());
        }
        h
    }

    /// A three-stage RC ladder driven by a pulse with flat plateaus.
    fn rc_ladder() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.vsource(
            "V1",
            vin,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 0.5e-9, 50e-12, 50e-12, 3e-9),
        );
        let mut prev = vin;
        for k in 0..3 {
            let n = c.node(&format!("n{k}"));
            c.resistor(&format!("R{k}"), prev, n, 1e3);
            c.capacitor(&format!("C{k}"), n, Circuit::GND, 50e-15);
            prev = n;
        }
        c
    }

    /// The 2T FEFET cell's topology: bit line into the FE gate stack
    /// through an access NMOS, the stack on a read NMOS's gate, every
    /// line driven through a resistance and loaded by a capacitance; a
    /// write pulse on the bit line under a boosted select.
    fn two_t_cell() -> (Circuit, Vec<(Node, f64)>) {
        let mut c = Circuit::new();
        let bl = c.node("bl");
        let ws = c.node("ws");
        let rs = c.node("rs");
        let sl = c.node("sl");
        let g = c.node("g");
        let gi = c.node("gi");
        let bld = c.node("bl_drv");
        let wsd = c.node("ws_drv");
        c.vsource(
            "Vbl",
            bld,
            Circuit::GND,
            Waveform::pulse(0.0, 2.0, 0.2e-9, 50e-12, 50e-12, 1e-9),
        );
        c.resistor("Rbl", bld, bl, 1e3);
        c.vsource(
            "Vws",
            wsd,
            Circuit::GND,
            Waveform::pulse(0.0, 2.8, 0.2e-9, 50e-12, 50e-12, 2.5e-9),
        );
        c.resistor("Rws", wsd, ws, 1e3);
        c.vsource("Vrs", rs, Circuit::GND, Waveform::dc(0.0));
        c.vsource("Vsl", sl, Circuit::GND, Waveform::dc(0.0));
        c.capacitor("Cbl", bl, Circuit::GND, 10e-15);
        c.capacitor("Cws", ws, Circuit::GND, 2e-15);
        c.mosfet("Macc", bl, ws, g, MosParams::nmos_45nm());
        c.fecap("Ffe", g, gi, FeCapParams::new(1e-9, 65e-9 * 65e-9), -0.4);
        c.mosfet("Mfet", rs, gi, sl, MosParams::nmos_45nm());
        (c, Vec::new())
    }

    /// Trapezoidal options at step `dt` (s) with ceiling `dt_max` (s).
    fn trap(dt: f64, dt_max: f64) -> TransientOptions {
        TransientOptions {
            dt,
            dt_max,
            method: Integration::Trapezoidal,
            ..TransientOptions::default()
        }
    }

    /// With the ceiling at the floor — set explicitly or left at its
    /// default — every time point, solution, step count and energy is
    /// bit for bit what the fixed-step engine gave before step control
    /// existed (fingerprints recorded from it; the 2T cell's re-recorded
    /// when Newton came to accept an iterate on its measured
    /// contraction, which ends some of its solves an iteration sooner,
    /// and when device bypass came to replay on its error bound).
    /// Row ops keep this schedule.
    #[test]
    fn ceiling_at_the_floor_is_the_fixed_step_schedule_bit_for_bit() {
        let dt = 20e-12;
        for dt_max in [0.0, dt] {
            assert_eq!(
                fingerprint(&rc_ladder(), 5e-9, trap(dt, dt_max)),
                0xf11a_6313_736b_943a,
                "RC ladder, dt_max = {dt_max:e}"
            );
            let (c, node_ics) = two_t_cell();
            let opts = TransientOptions {
                node_ics,
                ..trap(dt, dt_max)
            };
            assert_eq!(
                fingerprint(&c, 4e-9, opts),
                0xe2d0_f758_dd3d_5092,
                "2T cell, dt_max = {dt_max:e}"
            );
        }
        // The write drives the film's polarization through its
        // nonlinear range.
        let (c, node_ics) = two_t_cell();
        let opts = TransientOptions {
            node_ics,
            ..trap(dt, 0.0)
        };
        let p = transient(&c, 4e-9, opts).unwrap();
        assert!(p.max("p(Ffe)").unwrap() > -0.37, "P stayed near its start");
    }

    /// On the RC ladder's plateaus the step grows: the run takes far
    /// fewer steps, still lands on every waveform corner, and stays
    /// within a tight band of the fixed-step run. A small ripple source,
    /// whose sine has no corner to restart at, makes some grown steps
    /// miss the tolerance; each is retried and counted, and every
    /// Newton solve is an accepted step or a counted retry.
    #[test]
    fn grown_steps_on_rc_plateaus_land_on_corners_and_stay_in_band() {
        use fefet_telemetry::Instrumentation;
        let (dt, t_end) = (20e-12, 10e-9);
        let mut c = rc_ladder();
        let s = c.node("s");
        let q = c.node("q");
        let ripple = Waveform::Sin {
            offset: 0.0,
            ampl: 2e-3,
            freq: 0.5e9,
            delay: 0.0,
        };
        c.vsource("Vs", s, Circuit::GND, ripple);
        c.resistor("Rq", s, q, 1e3);
        c.capacitor("Cq", q, Circuit::GND, 50e-15);
        let floor = transient(&c, t_end, trap(dt, 0.0)).unwrap();
        let mut opts = trap(dt, 10.0 * dt);
        opts.solver.instr = Instrumentation::enabled();
        let instr = opts.solver.instr.clone();
        let grown = transient(&c, t_end, opts).unwrap();
        let (n_floor, n_grown) = (floor.time().len() - 1, grown.time().len() - 1);
        assert!(
            3 * n_grown < 2 * n_floor,
            "{n_grown} grown steps against {n_floor} at the floor"
        );
        let tel = instr.get().unwrap();
        let accepted = tel.steps.accepted.get();
        let rejected = tel.steps.rejected_lte.get();
        assert_eq!(accepted, n_grown as u64);
        assert!(rejected > 0, "no grown step was retried");
        assert_eq!(tel.steps.rejected_newton.get(), 0);
        assert_eq!(tel.solver.solves.get(), accepted + rejected);
        // Every corner of the pulse is a time point of both runs.
        for corner in [0.5e-9, 0.55e-9, 3.55e-9, 3.6e-9] {
            for (name, tr) in [("floor", &floor), ("grown", &grown)] {
                assert!(
                    tr.time().iter().any(|t| (t - corner).abs() < 1e-9 * dt),
                    "{name}: corner {corner:e} not sampled"
                );
            }
        }
        // No step is longer than the ceiling.
        for w in grown.time().windows(2) {
            assert!(
                w[1] - w[0] <= 10.0 * dt * (1.0 + 1e-12),
                "step {:e}",
                w[1] - w[0]
            );
        }
        // Node voltages at the floor run's points, and the energy.
        let mut worst = 0.0f64;
        for (k, &t) in floor.time().iter().enumerate() {
            for s in ["v(n0)", "v(n1)", "v(n2)", "v(q)"] {
                let v = floor.signal(s).unwrap()[k];
                worst = worst.max((grown.value_at(s, t).unwrap() - v).abs());
            }
        }
        assert!(
            worst < 2e-4,
            "node voltages {worst:e} V off the fixed-step run"
        );
        let (e_floor, e_grown) = (floor.energy("V1").unwrap(), grown.energy("V1").unwrap());
        assert!(
            ((e_grown - e_floor) / e_floor).abs() < 1e-4,
            "energy {e_grown:e} J against {e_floor:e} J"
        );
    }

    #[test]
    fn a_ceiling_below_the_floor_or_not_finite_is_a_typed_error() {
        let c = rc_ladder();
        for dt_max in [10e-12, -1.0, f64::NAN, f64::INFINITY] {
            let res = transient(&c, 1e-9, trap(20e-12, dt_max));
            assert!(
                matches!(&res, Err(CktError::Netlist(m)) if m.contains("dt_max")),
                "dt_max = {dt_max:e}: {res:?}"
            );
        }
        // The default step (t_end / 2000) is the floor a ceiling is
        // checked against.
        let opts = TransientOptions {
            dt_max: 0.4e-12,
            ..TransientOptions::default()
        };
        assert!(transient(&c, 1e-9, opts).is_err());
        let opts = TransientOptions {
            dt_max: 0.5e-12,
            ..TransientOptions::default()
        };
        assert!(transient(&c, 1e-9, opts).is_ok());
    }
}
