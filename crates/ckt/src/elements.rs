//! Circuit elements and their modified-nodal-analysis stamps.
//!
//! Every element contributes to the Newton residual `F(x)` (KCL sums plus
//! branch equations) and the Jacobian `J = dF/dx`. Sign conventions:
//!
//! - KCL residual at a node is the sum of currents **leaving** the node
//!   into elements.
//! - A two-terminal element's current flows from terminal `a` to
//!   terminal `b` *through* the element.
//! - A voltage source's branch unknown is the current entering terminal
//!   `a`; its branch equation is `v(a) - v(b) - V(t) = 0`.

use crate::models::mosfet::MosReplay;
use crate::models::{FeCapParams, MosCard, MosPolarity};
use crate::waveform::Waveform;
use std::cell::Cell;

/// A circuit node handle. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub(crate) usize);

impl Node {
    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Integration method for dynamic elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integration {
    /// Backward Euler — L-stable, first order. Robust for the strongly
    /// nonlinear polarization switching transients, so it is the default.
    #[default]
    BackwardEuler,
    /// Trapezoidal — A-stable, second order, can ring on hard corners.
    Trapezoidal,
}

/// A netlist element.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor { a: Node, b: Node, ohms: f64 },
    /// Linear capacitor between `a` and `b`.
    Capacitor { a: Node, b: Node, farads: f64 },
    /// Linear inductor between `a` and `b` (branch-current unknown).
    Inductor { a: Node, b: Node, henries: f64 },
    /// Independent voltage source; `a` is the positive terminal.
    VSource { a: Node, b: Node, wave: Waveform },
    /// Independent current source driving current from `a` to `b`
    /// through itself (i.e. *into* the external circuit at `b`).
    ISource { a: Node, b: Node, wave: Waveform },
    /// Voltage-controlled voltage source: `v(p) - v(n) = gain·(v(cp)-v(cn))`.
    Vcvs {
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gain: f64,
    },
    /// Voltage-controlled current source: `i(p→n) = gm·(v(cp)-v(cn))`.
    Vccs {
        p: Node,
        n: Node,
        cp: Node,
        cn: Node,
        gm: f64,
    },
    /// Time-controlled switch: resistance `r_on` while `ctrl(t) > 0.5`,
    /// else `r_off`.
    Switch {
        a: Node,
        b: Node,
        ctrl: Waveform,
        r_on: f64,
        r_off: f64,
    },
    /// Junction diode `i = Is(e^(v/n·φt) - 1)`, anode `a`.
    Diode {
        a: Node,
        b: Node,
        i_sat: f64,
        n_ideality: f64,
    },
    /// MOSFET with drain/gate/source terminals (bulk tied to source).
    /// The card is boxed so its derived constants do not widen every
    /// element of a netlist.
    Mosfet {
        d: Node,
        g: Node,
        s: Node,
        card: Box<MosCard>,
    },
    /// Ferroelectric (LK) capacitor; `p0` is the initial polarization in
    /// C/m² (positive `p` corresponds to positive charge on terminal `a`).
    FeCap {
        a: Node,
        b: Node,
        params: FeCapParams,
        p0: f64,
    },
}

/// Per-element dynamic state carried between accepted time steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ElemState {
    /// Element has no state.
    #[default]
    None,
    /// Capacitor: voltage and current at the last accepted step.
    Cap { v: f64, i: f64 },
    /// Inductor: branch current and voltage at the last accepted step.
    Ind { i: f64, v: f64 },
    /// MOSFET: gate charge and gate current at the last accepted step.
    Mos { q_g: f64, i_g: f64 },
    /// Ferroelectric capacitor: polarization and its rate.
    Fe { p: f64, dp_dt: f64 },
}

impl ElemState {
    /// The state a backward-Euler step of width `2h/3` starts from to
    /// take a second-order BDF step of width `h` from this state, with
    /// `prev` the state one step of `h` earlier: every stored charge-like
    /// quantity (capacitor voltage, inductor current, gate charge,
    /// polarization) becomes `(4·self − prev)/3`. Rates, which backward
    /// Euler does not read, are dropped. A state of another kind than
    /// `prev` comes back unchanged.
    pub fn bdf2_base(self, prev: ElemState) -> ElemState {
        let base = |now: f64, before: f64| (4.0 * now - before) / 3.0;
        match (self, prev) {
            (ElemState::Cap { v, .. }, ElemState::Cap { v: v0, .. }) => ElemState::Cap {
                v: base(v, v0),
                i: 0.0,
            },
            (ElemState::Ind { i, .. }, ElemState::Ind { i: i0, .. }) => ElemState::Ind {
                i: base(i, i0),
                v: 0.0,
            },
            (ElemState::Mos { q_g, .. }, ElemState::Mos { q_g: q0, .. }) => ElemState::Mos {
                q_g: base(q_g, q0),
                i_g: 0.0,
            },
            (ElemState::Fe { p, .. }, ElemState::Fe { p: p0, .. }) => ElemState::Fe {
                p: base(p, p0),
                dp_dt: 0.0,
            },
            (now, _) => now,
        }
    }
}

/// Everything an element needs to stamp itself at one Newton iterate.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Absolute time (s) of the step being solved (ignored for DC).
    pub t: f64,
    /// Step size (s); 0 for DC.
    pub h: f64,
    /// Integration method for dynamic elements.
    pub method: Integration,
    /// True during a DC operating-point solve (dynamic elements open).
    pub dc: bool,
    /// Current Newton iterate (node voltages then branch currents).
    pub x: &'a [f64],
    /// State at the previous accepted time point.
    pub state: ElemState,
}

impl<'a> EvalCtx<'a> {
    /// Voltage of `node` in the current iterate (ground = 0).
    #[inline]
    pub fn v(&self, node: Node) -> f64 {
        if node.0 == 0 {
            0.0
        } else {
            self.x[node.0 - 1]
        }
    }
}

/// Destination of Jacobian stamps during one assembly pass.
///
/// Element `stamp` implementations are written once against [`Sys`];
/// the target decides what an add means. The **slot-indexed stamping
/// invariant**: for a fixed circuit and `dc` flag, every element issues
/// the *same sequence* of Jacobian adds regardless of iterate values
/// (value-dependent branches may change what is added, never whether or
/// where). `Pattern` records that sequence once at setup; `Sparse`
/// replays it, consuming one preresolved slot per add — the hot loop is
/// `values[slot] += g` with zero searching or hashing.
#[derive(Debug)]
pub(crate) enum JacTarget<'a> {
    /// Slot-indexed sparse stamping into a CSR value array.
    Sparse {
        /// CSR values of the sparse Jacobian.
        values: &'a mut [f64],
        /// Preresolved value-array slot per add, in stamp order.
        slots: &'a [usize],
        /// Next slot to consume.
        cursor: usize,
    },
    /// Structural pass: record (row, col) of every add, in stamp order.
    Pattern(&'a mut Vec<(usize, usize)>),
    /// Residual-only pass: every Jacobian add is discarded. Used by the
    /// modified-Newton fast path, which re-solves against the stored
    /// factorization and only needs a fresh residual.
    Null,
}

/// Mutable view of the Newton system being assembled.
#[derive(Debug)]
pub struct Sys<'a> {
    pub(crate) jac: JacTarget<'a>,
    pub(crate) res: &'a mut [f64],
    /// Number of circuit nodes including ground.
    pub(crate) n_nodes: usize,
}

impl<'a> Sys<'a> {
    /// Slots consumed so far on a sparse target (`None` otherwise).
    pub(crate) fn sparse_cursor(&self) -> Option<usize> {
        match &self.jac {
            JacTarget::Sparse { cursor, .. } => Some(*cursor),
            _ => None,
        }
    }

    /// Routes one Jacobian add to the active target.
    #[inline]
    pub(crate) fn jac_add(&mut self, r: usize, c: usize, g: f64) {
        match &mut self.jac {
            JacTarget::Sparse {
                values,
                slots,
                cursor,
            } => {
                values[slots[*cursor]] += g;
                *cursor += 1;
            }
            JacTarget::Pattern(v) => v.push((r, c)),
            JacTarget::Null => {}
        }
    }

    #[inline]
    fn node_idx(&self, n: Node) -> Option<usize> {
        if n.0 == 0 {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    #[inline]
    fn branch_idx(&self, b: usize) -> usize {
        self.n_nodes - 1 + b
    }

    /// Adds `v` (A) to the KCL residual of `node`.
    #[inline]
    pub fn add_res_node(&mut self, node: Node, v: f64) {
        if let Some(i) = self.node_idx(node) {
            self.res[i] += v;
        }
    }

    /// Adds `v` (V) to the residual of branch equation `b`.
    #[inline]
    pub fn add_res_branch(&mut self, b: usize, v: f64) {
        let i = self.branch_idx(b);
        self.res[i] += v;
    }

    /// Adds `dF(row_node)/dv(col_node) += g` (S).
    #[inline]
    pub fn add_jac_nn(&mut self, row: Node, col: Node, g: f64) {
        if let (Some(r), Some(c)) = (self.node_idx(row), self.node_idx(col)) {
            self.jac_add(r, c, g);
        }
    }

    /// Adds `dF(row_node)/d i(branch) += g` (dimensionless).
    #[inline]
    pub fn add_jac_nb(&mut self, row: Node, branch: usize, g: f64) {
        if let Some(r) = self.node_idx(row) {
            let c = self.branch_idx(branch);
            self.jac_add(r, c, g);
        }
    }

    /// Adds `dF(branch)/dv(col_node) += g` (dimensionless).
    #[inline]
    pub fn add_jac_bn(&mut self, branch: usize, col: Node, g: f64) {
        if let Some(c) = self.node_idx(col) {
            let r = self.branch_idx(branch);
            self.jac_add(r, c, g);
        }
    }

    /// Adds `dF(branch)/d i(branch2) += g` (Ω).
    #[inline]
    pub fn add_jac_bb(&mut self, branch: usize, branch2: usize, g: f64) {
        let r = self.branch_idx(branch);
        let c = self.branch_idx(branch2);
        self.jac_add(r, c, g);
    }

    /// Stamps a conductance `g` (S) between `a` and `b` carrying
    /// current `i = g (v_a - v_b) + i0` (Norton companion, `i0` in A,
    /// node voltages `va`/`vb` in V), adding both the residual and
    /// Jacobian entries.
    pub fn stamp_conductance(&mut self, a: Node, b: Node, g: f64, i0: f64, va: f64, vb: f64) {
        let i = g * (va - vb) + i0;
        self.add_res_node(a, i);
        self.add_res_node(b, -i);
        self.add_jac_nn(a, a, g);
        self.add_jac_nn(a, b, -g);
        self.add_jac_nn(b, a, -g);
        self.add_jac_nn(b, b, g);
    }
}

/// The move (V) on every terminal drive inside which a bypassed device
/// always replays, and from which the replay's error budget is derived:
/// the remainder such a move leaves in the worst case the model allows.
pub(crate) const BYPASS_BOX_V: f64 = 1e-6;

/// Cached outputs of one element's expensive model evaluation, keyed by
/// the operating point they were computed at. Only the diode and the
/// MOSFET are cached: linear elements and sources are cheap or
/// time-dependent, and the ferroelectric capacitor's stamp is a
/// polynomial in its own polarization unknown, cheaper than a lookup.
///
/// A *hit* returns the cached derivatives with the current/charge
/// linearized to first order around the cached point. Whether a device
/// may replay is decided on a bound of that linearization's error, not
/// on a fixed voltage window: a move within [`BYPASS_BOX_V`] on every
/// drive always replays, and a larger one replays while its estimated
/// second-order remainder stays within the remainder such a move could
/// leave (DESIGN.md "Device bypass"). Stamps are always issued either
/// way, which preserves the slot-indexed stamping invariant untouched.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) enum ModelCache {
    #[default]
    Empty,
    /// Diode: exponential current and conductance at the cached bias.
    Diode { v: f64, i: f64, g: f64 },
    /// MOSFET: channel current and conductances at the cached
    /// polarity-normalized drives, raw gate charge/capacitance
    /// (state-free, so valid across timesteps), and what a replay of
    /// them is held to.
    Mos(MosReplay),
}

/// Per-element model-evaluation cache for the device-bypass fast path.
///
/// Owned by the engine's `NewtonWorkspace` (one slot per netlist
/// element, allocated once on the first bypass-enabled solve) and handed
/// to [`Element::stamp_cached`] by index during assembly. Interior
/// mutability keeps the stamping signature `&self`-clean; assembly is
/// single-threaded per workspace, so `Cell` is exactly the right tool.
#[derive(Debug, Default)]
pub(crate) struct BypassBank {
    slots: Vec<Cell<ModelCache>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl BypassBank {
    pub(crate) fn new(n_elements: usize) -> Self {
        Self {
            slots: (0..n_elements)
                .map(|_| Cell::new(ModelCache::Empty))
                .collect(),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Empties every slot in place (no allocation).
    pub(crate) fn clear(&self) {
        for slot in &self.slots {
            slot.set(ModelCache::Empty);
        }
    }

    fn record_hit(&self) {
        self.hits.set(self.hits.get() + 1);
    }

    fn record_miss(&self) {
        self.misses.set(self.misses.get() + 1);
    }

    /// Drains the hit/miss counters accumulated since the last call
    /// (the engine harvests them into telemetry once per solve).
    pub(crate) fn take_counts(&self) -> (u64, u64) {
        (self.hits.replace(0), self.misses.replace(0))
    }
}

/// One element's view into the bypass bank during a stamping pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BypassCtx<'a> {
    pub(crate) bank: &'a BypassBank,
    pub(crate) index: usize,
}

impl<'a> BypassCtx<'a> {
    #[inline]
    fn slot(&self) -> &'a Cell<ModelCache> {
        &self.bank.slots[self.index]
    }
}

impl Element {
    /// Number of extra MNA branch unknowns this element introduces.
    pub fn n_branches(&self) -> usize {
        match self {
            Element::VSource { .. }
            | Element::Vcvs { .. }
            | Element::Inductor { .. }
            | Element::FeCap { .. } => 1,
            _ => 0,
        }
    }

    /// Appends this element's waveform breakpoints (s) within
    /// `[0, t_end]`.
    pub fn breakpoints(&self, t_end: f64, out: &mut Vec<f64>) {
        match self {
            Element::VSource { wave, .. }
            | Element::ISource { wave, .. }
            | Element::Switch { ctrl: wave, .. } => wave.breakpoints(t_end, out),
            _ => {}
        }
    }

    /// Initial dynamic state given the initial solution vector `x0`.
    pub fn initial_state(&self, x0: &[f64]) -> ElemState {
        let v_of = |n: &Node| if n.0 == 0 { 0.0 } else { x0[n.0 - 1] };
        match self {
            Element::Capacitor { a, b, .. } => ElemState::Cap {
                v: v_of(a) - v_of(b),
                i: 0.0,
            },
            Element::Inductor { .. } => ElemState::Ind { i: 0.0, v: 0.0 },
            Element::Mosfet { g, s, card, .. } => {
                let sign = match card.params().polarity {
                    MosPolarity::Nmos => 1.0,
                    MosPolarity::Pmos => -1.0,
                };
                let vgs = v_of(g) - v_of(s);
                ElemState::Mos {
                    q_g: sign * card.q_gate(sign * vgs),
                    i_g: 0.0,
                }
            }
            Element::FeCap { p0, .. } => ElemState::Fe { p: *p0, dp_dt: 0.0 },
            _ => ElemState::None,
        }
    }

    /// Stamps this element into the Newton system.
    ///
    /// `branch0` is the element's first branch index (meaningful only when
    /// [`Element::n_branches`] is nonzero).
    pub fn stamp(&self, branch0: usize, ctx: &EvalCtx<'_>, sys: &mut Sys<'_>) {
        self.stamp_cached(branch0, ctx, sys, None);
    }

    /// [`Element::stamp`] with an optional device-bypass cache slot.
    ///
    /// With `bypass` present, the diode and the MOSFET answer from the
    /// cached operating point when their terminal voltages moved less
    /// than the bypass tolerance, skipping the model evaluation;
    /// everything else stamps identically. Bypass is ignored during DC
    /// solves (the cached entries would be missing their dynamic
    /// parts).
    pub(crate) fn stamp_cached(
        &self,
        branch0: usize,
        ctx: &EvalCtx<'_>,
        sys: &mut Sys<'_>,
        bypass: Option<BypassCtx<'_>>,
    ) {
        let bypass = if ctx.dc { None } else { bypass };
        match self {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                sys.stamp_conductance(*a, *b, g, 0.0, ctx.v(*a), ctx.v(*b));
            }
            Element::Capacitor { a, b, farads } => {
                if ctx.dc {
                    return; // open in DC
                }
                let (v_prev, i_prev) = match ctx.state {
                    ElemState::Cap { v, i } => (v, i),
                    _ => (0.0, 0.0),
                };
                let (g, i0) = match ctx.method {
                    Integration::BackwardEuler => {
                        let g = farads / ctx.h;
                        (g, -g * v_prev)
                    }
                    Integration::Trapezoidal => {
                        let g = 2.0 * farads / ctx.h;
                        (g, -g * v_prev - i_prev)
                    }
                };
                sys.stamp_conductance(*a, *b, g, i0, ctx.v(*a), ctx.v(*b));
            }
            Element::Inductor { a, b, henries } => {
                let i_br = ctx.x[sys.n_nodes - 1 + branch0];
                sys.add_res_node(*a, i_br);
                sys.add_res_node(*b, -i_br);
                sys.add_jac_nb(*a, branch0, 1.0);
                sys.add_jac_nb(*b, branch0, -1.0);
                if ctx.dc {
                    // Short circuit in DC: v_a - v_b = 0.
                    sys.add_res_branch(branch0, ctx.v(*a) - ctx.v(*b));
                    sys.add_jac_bn(branch0, *a, 1.0);
                    sys.add_jac_bn(branch0, *b, -1.0);
                } else {
                    let (i_prev, v_prev) = match ctx.state {
                        ElemState::Ind { i, v } => (i, v),
                        _ => (0.0, 0.0),
                    };
                    let v = ctx.v(*a) - ctx.v(*b);
                    // v = L di/dt discretized: BE: v = L (i - i_prev)/h;
                    // trapezoidal: (v + v_prev)/2 = L (i - i_prev)/h.
                    let (res, dv_coeff) = match ctx.method {
                        Integration::BackwardEuler => (v - henries * (i_br - i_prev) / ctx.h, 1.0),
                        Integration::Trapezoidal => {
                            (0.5 * (v + v_prev) - henries * (i_br - i_prev) / ctx.h, 0.5)
                        }
                    };
                    sys.add_res_branch(branch0, res);
                    sys.add_jac_bn(branch0, *a, dv_coeff);
                    sys.add_jac_bn(branch0, *b, -dv_coeff);
                    sys.add_jac_bb(branch0, branch0, -henries / ctx.h);
                }
            }
            Element::VSource { a, b, wave } => {
                let i_br = ctx.x[sys.n_nodes - 1 + branch0];
                sys.add_res_node(*a, i_br);
                sys.add_res_node(*b, -i_br);
                sys.add_jac_nb(*a, branch0, 1.0);
                sys.add_jac_nb(*b, branch0, -1.0);
                sys.add_res_branch(branch0, ctx.v(*a) - ctx.v(*b) - wave.eval(ctx.t));
                sys.add_jac_bn(branch0, *a, 1.0);
                sys.add_jac_bn(branch0, *b, -1.0);
            }
            Element::ISource { a, b, wave } => {
                let i = wave.eval(ctx.t);
                sys.add_res_node(*a, i);
                sys.add_res_node(*b, -i);
            }
            Element::Vcvs { p, n, cp, cn, gain } => {
                let i_br = ctx.x[sys.n_nodes - 1 + branch0];
                sys.add_res_node(*p, i_br);
                sys.add_res_node(*n, -i_br);
                sys.add_jac_nb(*p, branch0, 1.0);
                sys.add_jac_nb(*n, branch0, -1.0);
                sys.add_res_branch(
                    branch0,
                    ctx.v(*p) - ctx.v(*n) - gain * (ctx.v(*cp) - ctx.v(*cn)),
                );
                sys.add_jac_bn(branch0, *p, 1.0);
                sys.add_jac_bn(branch0, *n, -1.0);
                sys.add_jac_bn(branch0, *cp, -gain);
                sys.add_jac_bn(branch0, *cn, *gain);
            }
            Element::Vccs { p, n, cp, cn, gm } => {
                let i = gm * (ctx.v(*cp) - ctx.v(*cn));
                sys.add_res_node(*p, i);
                sys.add_res_node(*n, -i);
                sys.add_jac_nn(*p, *cp, *gm);
                sys.add_jac_nn(*p, *cn, -gm);
                sys.add_jac_nn(*n, *cp, -gm);
                sys.add_jac_nn(*n, *cn, *gm);
            }
            Element::Switch {
                a,
                b,
                ctrl,
                r_on,
                r_off,
            } => {
                let closed = ctrl.eval(ctx.t) > 0.5;
                let g = 1.0 / if closed { *r_on } else { *r_off };
                sys.stamp_conductance(*a, *b, g, 0.0, ctx.v(*a), ctx.v(*b));
            }
            Element::Diode {
                a,
                b,
                i_sat,
                n_ideality,
            } => {
                let v = ctx.v(*a) - ctx.v(*b);
                let mut hit = None;
                if let Some(bp) = bypass {
                    if let ModelCache::Diode {
                        v: vc,
                        i: ic,
                        g: gc,
                    } = bp.slot().get()
                    {
                        // A pure exponential: the worst case the
                        // budget is taken from is the diode itself, so
                        // its bound is the box.
                        if (v - vc).abs() <= BYPASS_BOX_V {
                            // First-order update around the cached bias.
                            hit = Some((ic + gc * (v - vc), gc));
                        }
                    }
                }
                let (i, g) = match hit {
                    Some(ig) => {
                        if let Some(bp) = bypass {
                            bp.bank.record_hit();
                        }
                        ig
                    }
                    None => {
                        let vt = n_ideality * 0.02585;
                        let x = v / vt;
                        // Exponential with linear extension beyond x=40 to
                        // keep Newton bounded.
                        let (i, g) = if x > 40.0 {
                            let e = 40f64.exp();
                            (i_sat * (e * (1.0 + (x - 40.0)) - 1.0), i_sat * e / vt)
                        } else {
                            let e = x.exp();
                            (i_sat * (e - 1.0), i_sat * e / vt)
                        };
                        if let Some(bp) = bypass {
                            bp.bank.record_miss();
                            bp.slot().set(ModelCache::Diode { v, i, g });
                        }
                        (i, g)
                    }
                };
                // Norton: i(v) ≈ i + g (v' - v)  => i0 = i - g v.
                sys.stamp_conductance(*a, *b, g, i - g * v, ctx.v(*a), ctx.v(*b));
            }
            Element::Mosfet { d, g, s, card } => {
                self.stamp_mosfet(*d, *g, *s, card, ctx, sys, bypass);
            }
            Element::FeCap { a, b, params, p0 } => {
                let p = ctx.x[sys.n_nodes - 1 + branch0];
                let (p_prev, dp_prev) = match ctx.state {
                    ElemState::Fe { p, dp_dt } => (p, dp_dt),
                    _ => (*p0, 0.0),
                };
                if ctx.dc {
                    // Open in DC, with the polarization frozen.
                    sys.add_res_branch(branch0, p - p_prev);
                    sys.add_jac_bb(branch0, branch0, 1.0);
                    return;
                }
                let (p_base, h_eff) = fe_companion(p_prev, dp_prev, ctx.h, ctx.method);
                let j = (p - p_base) / h_eff;
                let i = params.area * j;
                sys.add_res_node(*a, i);
                sys.add_res_node(*b, -i);
                sys.add_jac_nb(*a, branch0, params.area / h_eff);
                sys.add_jac_nb(*b, branch0, -params.area / h_eff);
                // Eq. (1) across the film, in volts like a source row.
                let tau = params.thickness * params.lk.rho;
                sys.add_res_branch(
                    branch0,
                    params.v_static(p) + tau * j - (ctx.v(*a) - ctx.v(*b)),
                );
                sys.add_jac_bn(branch0, *a, -1.0);
                sys.add_jac_bn(branch0, *b, 1.0);
                sys.add_jac_bb(branch0, branch0, params.dv_dp(p) + tau / h_eff);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet(
        &self,
        d: Node,
        g: Node,
        s: Node,
        card: &MosCard,
        ctx: &EvalCtx<'_>,
        sys: &mut Sys<'_>,
        bypass: Option<BypassCtx<'_>>,
    ) {
        let (vd, vg, vs) = (ctx.v(d), ctx.v(g), ctx.v(s));
        let polarity = card.params().polarity;
        // Polarity-normalized terminal drives: a1 = sign·vgs, a2 =
        // sign·vds — the arguments `ids`/`q_c_gate` see for both
        // polarities, which makes the cache key polarity-agnostic.
        let (a1, a2) = match polarity {
            MosPolarity::Nmos => (vg - vs, vd - vs),
            MosPolarity::Pmos => (vs - vg, vs - vd),
        };
        let mut hit = None;
        if let Some(bp) = bypass {
            if let ModelCache::Mos(cached) = bp.slot().get() {
                let h_eff = match ctx.method {
                    Integration::BackwardEuler => ctx.h,
                    Integration::Trapezoidal => 0.5 * ctx.h,
                };
                hit = card.replay(&cached, a1, a2, BYPASS_BOX_V, h_eff);
            }
        }
        let ((i, gm, gds), (q_raw, c)) = match hit {
            Some(v) => {
                if let Some(bp) = bypass {
                    bp.bank.record_hit();
                }
                v
            }
            None => match bypass {
                Some(bp) => {
                    let ev = card.eval_bounded(a1, a2);
                    bp.bank.record_miss();
                    bp.slot().set(ModelCache::Mos(ev));
                    ev.values()
                }
                None => {
                    // DC stamps never read the gate charge.
                    let q_c = if ctx.dc {
                        (0.0, 0.0)
                    } else {
                        card.q_c_gate(a1)
                    };
                    (card.ids(a1, a2), q_c)
                }
            },
        };
        match polarity {
            MosPolarity::Nmos => {
                // Current i flows d -> s through the channel.
                sys.add_res_node(d, i);
                sys.add_res_node(s, -i);
                sys.add_jac_nn(d, d, gds);
                sys.add_jac_nn(d, g, gm);
                sys.add_jac_nn(d, s, -(gm + gds));
                sys.add_jac_nn(s, d, -gds);
                sys.add_jac_nn(s, g, -gm);
                sys.add_jac_nn(s, s, gm + gds);
            }
            MosPolarity::Pmos => {
                // Current i flows s -> d through the channel.
                sys.add_res_node(s, i);
                sys.add_res_node(d, -i);
                // di/dvs = gm + gds, di/dvg = -gm, di/dvd = -gds.
                sys.add_jac_nn(s, s, gm + gds);
                sys.add_jac_nn(s, g, -gm);
                sys.add_jac_nn(s, d, -gds);
                sys.add_jac_nn(d, s, -(gm + gds));
                sys.add_jac_nn(d, g, gm);
                sys.add_jac_nn(d, d, gds);
            }
        }
        // Gate charge dynamics (gate-source referenced).
        if !ctx.dc {
            let (q_prev, ig_prev) = match ctx.state {
                ElemState::Mos { q_g, i_g } => (q_g, i_g),
                _ => (0.0, 0.0),
            };
            let sign = match polarity {
                MosPolarity::Nmos => 1.0,
                MosPolarity::Pmos => -1.0,
            };
            let q = sign * q_raw;
            let (i_g, di_dvgs) = match ctx.method {
                Integration::BackwardEuler => ((q - q_prev) / ctx.h, c / ctx.h),
                Integration::Trapezoidal => (2.0 * (q - q_prev) / ctx.h - ig_prev, 2.0 * c / ctx.h),
            };
            sys.add_res_node(g, i_g);
            sys.add_res_node(s, -i_g);
            sys.add_jac_nn(g, g, di_dvgs);
            sys.add_jac_nn(g, s, -di_dvgs);
            sys.add_jac_nn(s, g, -di_dvgs);
            sys.add_jac_nn(s, s, di_dvgs);
        }
    }

    /// Computes the post-step dynamic state from the accepted solution.
    /// `branch0` is the element's first branch index and `n_nodes` the
    /// node count (needed by branch-current elements like the inductor).
    pub fn next_state(&self, branch0: usize, n_nodes: usize, ctx: &EvalCtx<'_>) -> ElemState {
        let v_of = |n: &Node| ctx.v(*n);
        match self {
            Element::Capacitor { a, b, farads } => {
                let (v_prev, i_prev) = match ctx.state {
                    ElemState::Cap { v, i } => (v, i),
                    _ => (0.0, 0.0),
                };
                let v = v_of(a) - v_of(b);
                let i = match ctx.method {
                    Integration::BackwardEuler => farads * (v - v_prev) / ctx.h,
                    Integration::Trapezoidal => 2.0 * farads * (v - v_prev) / ctx.h - i_prev,
                };
                ElemState::Cap { v, i }
            }
            Element::Inductor { a, b, .. } => {
                let v = v_of(a) - v_of(b);
                let i = ctx.x[n_nodes - 1 + branch0];
                ElemState::Ind { i, v }
            }
            Element::Mosfet { g, s, card, .. } => {
                let (q_prev, ig_prev) = match ctx.state {
                    ElemState::Mos { q_g, i_g } => (q_g, i_g),
                    _ => (0.0, 0.0),
                };
                let sign = match card.params().polarity {
                    MosPolarity::Nmos => 1.0,
                    MosPolarity::Pmos => -1.0,
                };
                let q = sign * card.q_gate(sign * (v_of(g) - v_of(s)));
                let i_g = match ctx.method {
                    Integration::BackwardEuler => (q - q_prev) / ctx.h,
                    Integration::Trapezoidal => 2.0 * (q - q_prev) / ctx.h - ig_prev,
                };
                ElemState::Mos { q_g: q, i_g }
            }
            Element::FeCap { p0, .. } => {
                let (p_prev, dp_prev) = match ctx.state {
                    ElemState::Fe { p, dp_dt } => (p, dp_dt),
                    _ => (*p0, 0.0),
                };
                let p = ctx.x[n_nodes - 1 + branch0];
                let (p_base, h_eff) = fe_companion(p_prev, dp_prev, ctx.h, ctx.method);
                ElemState::Fe {
                    p,
                    dp_dt: (p - p_base) / h_eff,
                }
            }
            _ => ElemState::None,
        }
    }

    /// Terminal current through the element at the given solution, used
    /// for recording (positive from `a`/drain to `b`/source).
    pub fn current(&self, branch0: usize, ctx: &EvalCtx<'_>, n_nodes: usize) -> Option<f64> {
        match self {
            Element::Resistor { a, b, ohms } => Some((ctx.v(*a) - ctx.v(*b)) / ohms),
            Element::VSource { .. } | Element::Vcvs { .. } | Element::Inductor { .. } => {
                Some(ctx.x[n_nodes - 1 + branch0])
            }
            Element::ISource { wave, .. } => Some(wave.eval(ctx.t)),
            Element::Vccs { cp, cn, gm, .. } => Some(gm * (ctx.v(*cp) - ctx.v(*cn))),
            Element::Switch {
                a,
                b,
                ctrl,
                r_on,
                r_off,
            } => {
                let r = if ctrl.eval(ctx.t) > 0.5 {
                    *r_on
                } else {
                    *r_off
                };
                Some((ctx.v(*a) - ctx.v(*b)) / r)
            }
            Element::Diode {
                a,
                b,
                i_sat,
                n_ideality,
            } => {
                let vt = n_ideality * 0.02585;
                let x = ((ctx.v(*a) - ctx.v(*b)) / vt).min(40.0);
                Some(i_sat * (x.exp() - 1.0))
            }
            Element::Mosfet { d, g, s, card } => {
                let (vd, vg, vs) = (ctx.v(*d), ctx.v(*g), ctx.v(*s));
                let i = match card.params().polarity {
                    MosPolarity::Nmos => card.ids(vg - vs, vd - vs).0,
                    MosPolarity::Pmos => -card.ids(vs - vg, vs - vd).0,
                };
                Some(i)
            }
            Element::Capacitor { .. } => match ctx.state {
                ElemState::Cap { i, .. } => Some(i),
                _ => Some(0.0),
            },
            Element::FeCap { params, .. } => match ctx.state {
                ElemState::Fe { dp_dt, .. } => Some(params.area * dp_dt),
                _ => Some(0.0),
            },
        }
    }
}

/// The ferroelectric capacitor's discretization of `dP/dt` over a step
/// of width `h` (s) from polarization `p_prev` (C/m²) with rate
/// `dp_prev` (C/m²/s): `dP/dt = (P − p_base)/h_eff`, returned as
/// `(p_base, h_eff)`. Backward Euler takes `(p_prev, h)`; the
/// trapezoidal rule folds its explicit half into the base,
/// `(p_prev + h/2·dp_prev, h/2)`.
fn fe_companion(p_prev: f64, dp_prev: f64, h: f64, method: Integration) -> (f64, f64) {
    match method {
        Integration::BackwardEuler => (p_prev, h),
        Integration::Trapezoidal => (p_prev + 0.5 * h * dp_prev, 0.5 * h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{FeCapParams, MosParams};
    use fefet_numerics::linalg::Matrix;
    use fefet_numerics::sparse::{CsrMatrix, CsrPattern};

    fn ctx<'a>(x: &'a [f64], h: f64, state: ElemState) -> EvalCtx<'a> {
        EvalCtx {
            t: 0.0,
            h,
            method: Integration::BackwardEuler,
            dc: false,
            x,
            state,
        }
    }

    /// Stamps `e` at `c` into an `n`-unknown system the way the engine
    /// does: a pattern pass records the Jacobian adds, every unknown's
    /// diagonal joins the pattern (as the gmin pass puts it there), and
    /// a slot-indexed pass stamps the values. Returns the residual and
    /// the Jacobian's dense view.
    fn stamped(e: &Element, c: &EvalCtx<'_>, n: usize, n_nodes: usize) -> (Vec<f64>, Matrix) {
        let mut adds = Vec::new();
        let mut res = vec![0.0; n];
        let mut sys = Sys {
            jac: JacTarget::Pattern(&mut adds),
            res: &mut res,
            n_nodes,
        };
        e.stamp(0, c, &mut sys);
        let entries: Vec<(usize, usize)> =
            adds.iter().copied().chain((0..n).map(|i| (i, i))).collect();
        let pattern = CsrPattern::from_entries(n, &entries).unwrap();
        let slots: Vec<usize> = adds
            .iter()
            .map(|&(r, col)| pattern.slot_of(r, col).unwrap())
            .collect();
        let mut jac = CsrMatrix::from_pattern(pattern);
        let mut res = vec![0.0; n];
        let mut sys = Sys {
            jac: JacTarget::Sparse {
                values: jac.values_mut(),
                slots: &slots,
                cursor: 0,
            },
            res: &mut res,
            n_nodes,
        };
        e.stamp(0, c, &mut sys);
        assert_eq!(
            sys.sparse_cursor(),
            Some(slots.len()),
            "every slot consumed"
        );
        (res, jac.to_dense())
    }

    #[test]
    fn node_display_and_index() {
        let n = Node(3);
        assert_eq!(n.to_string(), "n3");
        assert_eq!(n.index(), 3);
    }

    #[test]
    fn resistor_stamp_into_2node_system() {
        // Nodes 1,2 with R between them; check residual and Jacobian.
        let x = [1.0, 0.0];
        let e = Element::Resistor {
            a: Node(1),
            b: Node(2),
            ohms: 100.0,
        };
        let c = ctx(&x, 1e-9, ElemState::None);
        let (res, jac) = stamped(&e, &c, 2, 3);
        assert!((res[0] - 0.01).abs() < 1e-15);
        assert!((res[1] + 0.01).abs() < 1e-15);
        assert!((jac[(0, 0)] - 0.01).abs() < 1e-15);
        assert!((jac[(0, 1)] + 0.01).abs() < 1e-15);
    }

    #[test]
    fn resistor_to_ground_skips_ground_row() {
        let x = [2.0];
        let e = Element::Resistor {
            a: Node(1),
            b: Node(0),
            ohms: 1000.0,
        };
        let c = ctx(&x, 1e-9, ElemState::None);
        let (res, jac) = stamped(&e, &c, 1, 2);
        assert!((res[0] - 0.002).abs() < 1e-15);
        assert!((jac[(0, 0)] - 0.001).abs() < 1e-15);
    }

    #[test]
    fn capacitor_open_in_dc() {
        let x = [1.0];
        let e = Element::Capacitor {
            a: Node(1),
            b: Node(0),
            farads: 1e-9,
        };
        let c = EvalCtx {
            dc: true,
            ..ctx(&x, 0.0, ElemState::Cap { v: 0.0, i: 0.0 })
        };
        let (res, jac) = stamped(&e, &c, 1, 2);
        assert_eq!(res[0], 0.0);
        assert_eq!(jac[(0, 0)], 0.0);
    }

    #[test]
    fn capacitor_backward_euler_companion() {
        // v_prev = 0, v = 1, h = 1ns, C = 1nF -> i = C dv/dt = 1 A.
        let x = [1.0];
        let e = Element::Capacitor {
            a: Node(1),
            b: Node(0),
            farads: 1e-9,
        };
        let c = ctx(&x, 1e-9, ElemState::Cap { v: 0.0, i: 0.0 });
        let (res, _) = stamped(&e, &c, 1, 2);
        assert!((res[0] - 1.0).abs() < 1e-12);
        let st = e.next_state(0, 2, &c);
        match st {
            ElemState::Cap { v, i } => {
                assert_eq!(v, 1.0);
                assert!((i - 1.0).abs() < 1e-12);
            }
            _ => panic!("wrong state"),
        }
    }

    #[test]
    fn vsource_branch_equation() {
        // One node, one branch. x = [v1, i_br].
        let x = [0.3, 0.001];
        let e = Element::VSource {
            a: Node(1),
            b: Node(0),
            wave: Waveform::dc(1.0),
        };
        let c = ctx(&x, 1e-9, ElemState::None);
        let (res, jac) = stamped(&e, &c, 2, 2);
        // KCL at node 1: +i_br.
        assert!((res[0] - 0.001).abs() < 1e-15);
        // Branch: v1 - 1.0.
        assert!((res[1] + 0.7).abs() < 1e-15);
        assert_eq!(jac[(0, 1)], 1.0);
        assert_eq!(jac[(1, 0)], 1.0);
    }

    #[test]
    fn isource_pushes_current() {
        let x = [0.0, 0.0];
        let e = Element::ISource {
            a: Node(1),
            b: Node(2),
            wave: Waveform::dc(1e-3),
        };
        let c = ctx(&x, 1e-9, ElemState::None);
        let (res, _) = stamped(&e, &c, 2, 3);
        assert_eq!(res[0], 1e-3);
        assert_eq!(res[1], -1e-3);
    }

    #[test]
    fn switch_states() {
        let e = Element::Switch {
            a: Node(1),
            b: Node(0),
            ctrl: Waveform::pulse(0.0, 1.0, 1e-9, 0.0, 0.0, 1e-9),
            r_on: 1.0,
            r_off: 1e9,
        };
        let x = [1.0];
        // Before pulse: open.
        let c0 = ctx(&x, 1e-12, ElemState::None);
        assert!((e.current(0, &c0, 2).unwrap() - 1e-9).abs() < 1e-18);
        // During pulse: closed.
        let c1 = EvalCtx {
            t: 1.5e-9,
            ..ctx(&x, 1e-12, ElemState::None)
        };
        assert!((e.current(0, &c1, 2).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diode_forward_and_reverse() {
        let e = Element::Diode {
            a: Node(1),
            b: Node(0),
            i_sat: 1e-14,
            n_ideality: 1.0,
        };
        let xf = [0.7];
        let cf = ctx(&xf, 1e-12, ElemState::None);
        let i_f = e.current(0, &cf, 2).unwrap();
        assert!(i_f > 1e-4, "forward current too small: {i_f}");
        let xr = [-5.0];
        let cr = ctx(&xr, 1e-12, ElemState::None);
        let i_r = e.current(0, &cr, 2).unwrap();
        assert!((i_r + 1e-14).abs() < 1e-20);
    }

    #[test]
    fn diode_large_bias_is_finite() {
        let e = Element::Diode {
            a: Node(1),
            b: Node(0),
            i_sat: 1e-14,
            n_ideality: 1.0,
        };
        let x = [100.0];
        let c = ctx(&x, 1e-12, ElemState::None);
        let (res, jac) = stamped(&e, &c, 1, 2);
        assert!(res[0].is_finite());
        assert!(jac[(0, 0)].is_finite());
    }

    #[test]
    fn nmos_stamp_kcl_consistent() {
        // Current leaving drain equals current entering source.
        let x = [1.0, 0.8, 0.0]; // vd, vg, vs
        let e = Element::Mosfet {
            d: Node(1),
            g: Node(2),
            s: Node(3),
            card: Box::new(MosCard::new(MosParams::nmos_45nm())),
        };
        let c = EvalCtx {
            dc: true,
            ..ctx(&x, 0.0, ElemState::None)
        };
        let (res, _) = stamped(&e, &c, 3, 4);
        assert!(res[0] > 0.0); // drain sinks current
        assert!((res[0] + res[2]).abs() < 1e-18); // KCL through the device
        assert_eq!(res[1], 0.0); // no DC gate current
    }

    #[test]
    fn pmos_stamp_mirror() {
        // PMOS with source at 1V, gate 0, drain 0: strongly on.
        let x = [0.0, 0.0, 1.0]; // d, g, s
        let e = Element::Mosfet {
            d: Node(1),
            g: Node(2),
            s: Node(3),
            card: Box::new(MosCard::new(MosParams::pmos_45nm())),
        };
        let c = EvalCtx {
            dc: true,
            ..ctx(&x, 0.0, ElemState::None)
        };
        let (res, _) = stamped(&e, &c, 3, 4);
        assert!(res[2] > 0.0); // current leaves source node into device
        assert!((res[0] + res[2]).abs() < 1e-18);
    }

    /// A film at its remnant polarization under its own static voltage
    /// is stationary: both its KCL and its branch row read zero, and the
    /// row's polarization slope is the static slope plus the viscous
    /// `T·ρ/h`.
    #[test]
    fn fecap_stamp_zero_bias_keeps_remnant() {
        let params = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let pr = params.lk.remnant_polarization().unwrap();
        let e = Element::FeCap {
            a: Node(1),
            b: Node(0),
            params,
            p0: pr,
        };
        let h = 1e-12;
        let x = [params.v_static(pr), pr];
        let c = ctx(&x, h, ElemState::Fe { p: pr, dp_dt: 0.0 });
        let (res, jac) = stamped(&e, &c, 2, 2);
        assert_eq!(res, vec![0.0, 0.0]);
        assert_eq!(jac[(0, 1)], params.area / h);
        assert_eq!(jac[(1, 0)], -1.0);
        let tau = params.thickness * params.lk.rho;
        assert_eq!(jac[(1, 1)], params.dv_dp(pr) + tau / h);
        match e.next_state(0, 2, &c) {
            ElemState::Fe { p, dp_dt } => assert_eq!((p, dp_dt), (pr, 0.0)),
            other => panic!("wrong state {other:?}"),
        }
    }

    /// One backward-Euler step across a film held at ±3 V moves its
    /// polarization toward the field, from either remnant state; the
    /// rate recorded in the next state is the step's `ΔP/h`.
    #[test]
    fn fecap_step_drives_polarization_toward_field() {
        use crate::circuit::Circuit;
        use crate::engine::{Assembly, SolverOptions};
        let params = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let pr = params.lk.remnant_polarization().unwrap();
        let h = 1e-12;
        for (p0, v) in [(-pr, 3.0), (pr, -3.0)] {
            let mut c = Circuit::new();
            let a = c.node("a");
            c.vsource("V1", a, Circuit::GND, Waveform::dc(v));
            c.fecap("F1", a, Circuit::GND, params, p0);
            let asm = Assembly::new(&c);
            let mut x0 = vec![v, 0.0, p0];
            let states: Vec<ElemState> = c
                .elements()
                .iter()
                .map(|(_, e)| e.initial_state(&x0))
                .collect();
            asm.seed_polarization(&c, &states, 0.0, &mut x0);
            let x = asm
                .solve_point(
                    &c,
                    h,
                    h,
                    Integration::BackwardEuler,
                    false,
                    &SolverOptions::default(),
                    &x0,
                    &states,
                )
                .unwrap();
            let dp = x[2] - p0;
            assert!(dp * v > 0.0, "P moved {dp} under {v} V");
            let fe = &c.elements()[1].1;
            match fe.next_state(asm.branch0[1], asm.n_nodes, &ctx(&x, h, states[1])) {
                ElemState::Fe { p, dp_dt } => {
                    assert_eq!(p, x[2]);
                    assert_eq!(dp_dt, dp / h);
                }
                other => panic!("wrong state {other:?}"),
            }
        }
    }

    /// In a DC solve the film is open and its polarization frozen: the
    /// branch row pins `P` to the previous state, `p0` before any step.
    #[test]
    fn fecap_dc_row_freezes_polarization() {
        let params = FeCapParams::new(2.25e-9, 1e-15);
        let e = Element::FeCap {
            a: Node(1),
            b: Node(0),
            params,
            p0: -0.3,
        };
        let x = [1.0, 0.1];
        let c = EvalCtx {
            dc: true,
            ..ctx(&x, 0.0, ElemState::None)
        };
        let (res, jac) = stamped(&e, &c, 2, 2);
        assert_eq!(res, vec![0.0, 0.1 + 0.3]);
        assert_eq!((jac[(0, 0)], jac[(0, 1)], jac[(1, 0)]), (0.0, 0.0, 0.0));
        assert_eq!(jac[(1, 1)], 1.0);
    }

    #[test]
    fn fecap_current_recorded_from_state() {
        let params = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        let e = Element::FeCap {
            a: Node(1),
            b: Node(0),
            params,
            p0: 0.0,
        };
        let x = [0.0];
        let c = ctx(&x, 1e-12, ElemState::Fe { p: 0.1, dp_dt: 2.0 });
        let i = e.current(0, &c, 2).unwrap();
        assert!((i - params.area * 2.0).abs() < 1e-24);
    }

    #[test]
    fn n_branches_accounting() {
        let v = Element::VSource {
            a: Node(1),
            b: Node(0),
            wave: Waveform::dc(1.0),
        };
        assert_eq!(v.n_branches(), 1);
        let r = Element::Resistor {
            a: Node(1),
            b: Node(0),
            ohms: 1.0,
        };
        assert_eq!(r.n_branches(), 0);
        let f = Element::FeCap {
            a: Node(1),
            b: Node(0),
            params: FeCapParams::new(2.25e-9, 1e-15),
            p0: 0.0,
        };
        assert_eq!(f.n_branches(), 1);
    }

    #[test]
    fn initial_state_of_fecap_uses_p0() {
        let params = FeCapParams::new(2.25e-9, 1e-15);
        let e = Element::FeCap {
            a: Node(1),
            b: Node(0),
            params,
            p0: -0.3,
        };
        match e.initial_state(&[0.0]) {
            ElemState::Fe { p, dp_dt } => {
                assert_eq!(p, -0.3);
                assert_eq!(dp_dt, 0.0);
            }
            _ => panic!("wrong state kind"),
        }
    }
}
