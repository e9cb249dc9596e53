//! Shared Newton assembly used by both DC and transient analyses.
//!
//! The hot path is [`Assembly::solve_point_with`]: it runs the full
//! Newton iteration against caller-owned buffers (a [`NewtonWorkspace`])
//! so that a transient run of thousands of timesteps performs **zero
//! per-iteration heap allocation** — the Jacobian, residual, update
//! vector, and LU storage are built once and reused for every iteration
//! of every step.

use crate::circuit::Circuit;
use crate::elements::{
    BypassBank, BypassCtx, ElemState, Element, EvalCtx, Integration, JacTarget, Node, Sys,
};
use crate::plan::AnalysisCache;
use crate::CktError;
use fefet_numerics::linalg::norm_inf;
use fefet_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu};
use fefet_telemetry::{ConvergenceReport, Instrumentation, TraceEvent};

/// Residual contraction a modified-Newton iteration must reach: a fast
/// iteration is kept only if it cuts the residual norm to this fraction
/// of the previous iteration's, or less. Anything slower demotes the
/// rest of the solve to exact Newton.
const FAST_CONTRACTION: f64 = 0.25;

/// Node update, in units of [`SolverOptions::tol_v`], below which an
/// exact iteration of a solve that carries no factors across solves
/// hands its own factors to the next iteration (1e-4 V at the default
/// `tol_v`). Measured on yield trials: 1e5·`tol_v` saves the final
/// factorization of every solve (3 per trial) without adding
/// iterations; 1e3·`tol_v` saves 2 per trial, and 1e7·`tol_v` adds
/// iterations.
const CONFIRM_BELOW_TOL_V: f64 = 1e5;

/// Iteration count above which a solve's stored factors count as stale:
/// the next solve in the same workspace refactors on its first
/// iteration.
const REFRESH_AFTER_ITERS: usize = 3;

/// Newton solver tuning knobs shared by DC and transient analyses.
///
/// There is no linear-solver choice: every system, a single cell as
/// well as a full array, is factored by the pattern-cached sparse LU.
///
/// Not `Copy`: the [`Instrumentation`] handle holds an optional shared
/// telemetry sink, so options are cloned where they used to be copied
/// (a cheap `Option<Arc>` clone).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Maximum Newton iterations per solution point.
    pub max_newton: usize,
    /// Convergence tolerance on node-voltage updates (V).
    pub tol_v: f64,
    /// Convergence tolerance on KCL residuals (A).
    pub tol_i: f64,
    /// Damping: largest node-voltage change applied per iteration (V).
    pub max_v_step: f64,
    /// Conductance from every node to ground for conditioning (S).
    pub gmin: f64,
    /// Modified Newton: keep the factored Jacobian and skip
    /// restamp+refactor while each iteration cuts the residual norm at
    /// least 4x, falling back to exact Newton for the rest of the solve
    /// the moment one does not. A solve after one that fell back, took
    /// more than three iterations or failed refactors on its first
    /// iteration. Convergence is still judged on a freshly stamped
    /// residual, so accepted solutions meet the same tolerances as the
    /// exact path. Default on.
    ///
    /// `false` carries no factors across solves: every solve starts
    /// with an exact iteration, so it depends only on its own inputs.
    /// Within the solve, an exact iteration that moved every node by
    /// less than 1e5·`tol_v` hands its factors to the next iteration,
    /// which confirms convergence with a residual-only stamp and a
    /// back-solve. That iteration is kept under the same 4x contraction
    /// test and is redone exactly when it fails it.
    pub jacobian_reuse: bool,
    /// Device bypass: each MOSFET and diode caches its last operating
    /// point, and one whose terminal voltages moved less than
    /// [`SolverOptions::bypass_vtol`] skips its model evaluation
    /// (stamping first-order-updated cached values instead). Default
    /// on.
    pub bypass: bool,
    /// Terminal-voltage tolerance for a device-bypass cache hit (V).
    /// The bypass error is O(vtol²) in the stamped currents.
    pub bypass_vtol: f64,
    /// Shared analysis cache: workers solving structurally identical
    /// systems (array clones in a pooled sweep) reuse one symbolic
    /// analysis per pattern instead of re-analyzing per worker.
    pub cache: Option<AnalysisCache>,
    /// Telemetry sink; defaults to off (a no-op on the hot path).
    pub instr: Instrumentation,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_newton: 100,
            tol_v: 1e-9,
            tol_i: 1e-12,
            max_v_step: 0.5,
            gmin: 1e-12,
            jacobian_reuse: true,
            bypass: true,
            bypass_vtol: 1e-6,
            cache: None,
            instr: Instrumentation::off(),
        }
    }
}

/// Exact configuration a stored Jacobian factorization is valid for.
///
/// The modified-Newton fast path reuses factors across iterations *and*
/// across solves (timesteps); any change that alters the Jacobian's
/// structure or scaling — stamping mode, step size, gmin, or
/// integration method — invalidates them. Time is deliberately *not*
/// part of the key: source values only enter the residual, and the rare
/// time-dependent Jacobian change (a switch toggling) is caught by the
/// residual-contraction fallback instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FactorKey {
    dc: bool,
    h_bits: u64,
    gmin_bits: u64,
    method: Integration,
}

/// Reusable Newton-iteration buffers: Jacobian, residual, update vector,
/// and factorization storage for one system size.
///
/// Owned by the analysis drivers ([`crate::dc`], [`crate::transient`])
/// and threaded through [`Assembly::solve_point_with`]. Every system,
/// from a single cell to a full array, is factored by the
/// pattern-cached sparse LU. Its state — CSR pattern, slot table and
/// symbolic factorization, one per stamping mode since DC and transient
/// patterns differ — is built lazily on the first solve that needs it
/// and reused for every subsequent iteration of every step, so a
/// warmed-up analysis run performs **zero heap allocation** in the
/// Newton loop. Element `stamp` implementations
/// must likewise not allocate — they only accumulate into the borrowed
/// Jacobian/residual.
#[derive(Debug)]
pub struct NewtonWorkspace {
    n: usize,
    res: Vec<f64>,
    dx: Vec<f64>,
    sparse_dc: Option<SparseState>,
    sparse_tr: Option<SparseState>,
    /// Device-bypass operating-point cache, one slot per element; built
    /// lazily on the first bypass-enabled solve.
    bypass: Option<BypassBank>,
    /// Configuration the currently stored factorization belongs to;
    /// `None` when no reusable factorization exists.
    factor_key: Option<FactorKey>,
    /// The previous solve left the fast path, took more than
    /// [`REFRESH_AFTER_ITERS`] iterations or failed: the next solve
    /// refactors on its first iteration instead of riding the stored
    /// factors.
    refresh: bool,
}

/// Sparse solver state for one stamping mode (DC or transient): the CSR
/// Jacobian over the circuit's fixed pattern, the preresolved slot per
/// Jacobian add in stamp order, and the analyzed sparse LU.
#[derive(Debug)]
struct SparseState {
    a: CsrMatrix,
    slots: Vec<usize>,
    lu: SparseLu,
}

impl NewtonWorkspace {
    /// Creates a workspace for systems of `n` unknowns
    /// ([`Assembly::n_unknowns`]).
    // fefet-lint: allow-item(hot-alloc) -- workspace construction IS the setup: it exists so the Newton loop itself never allocates
    pub fn new(n: usize) -> Self {
        NewtonWorkspace {
            n,
            res: vec![0.0; n],
            dx: vec![0.0; n],
            sparse_dc: None,
            sparse_tr: None,
            bypass: None,
            factor_key: None,
            refresh: false,
        }
    }

    /// The system order this workspace is sized for.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Structural nonzero count of the sparse Jacobian pattern for the
    /// given stamping mode, if that sparse state has been built.
    pub fn sparse_nnz(&self, dc: bool) -> Option<usize> {
        self.sparse_pattern(dc).map(CsrPattern::nnz)
    }

    /// Structural pattern of the sparse Jacobian for the given stamping
    /// mode, if that sparse state has been built.
    pub fn sparse_pattern(&self, dc: bool) -> Option<&CsrPattern> {
        let s = if dc { &self.sparse_dc } else { &self.sparse_tr };
        s.as_ref().map(|s| s.a.pattern())
    }

    /// Empties the device-bypass cache in place, so the next solve
    /// evaluates every device afresh. A caller that re-parameterizes
    /// devices between solves on one workspace calls it first: a cache
    /// entry holds a device's currents at an operating point, not the
    /// parameters they came from.
    pub fn clear_bypass(&mut self) {
        if let Some(bank) = &self.bypass {
            bank.clear();
        }
    }
}

/// Precomputed element/branch bookkeeping for one circuit.
#[derive(Debug)]
pub struct Assembly {
    /// First branch index per element (`usize::MAX` when none).
    pub branch0: Vec<usize>,
    /// Total number of branch unknowns.
    pub n_branches: usize,
    /// Number of nodes including ground.
    pub n_nodes: usize,
    /// Per non-ground node, the number `m` of identical nodes it stands
    /// for ([`Circuit::set_node_multiplicity`]); empty when every node
    /// stands for itself.
    node_mult: Vec<f64>,
}

/// Newton acceptance test, shared by the workspace loop and the
/// allocating reference so the two stay bit-identical.
///
/// The primary criterion is the SPICE-style step test: the last update
/// moved every node by less than `tol_v` and both residual norms are
/// inside spec. The fallback is a residual-floor test: an update that
/// lands between `tol_v` and `10·tol_v` while both residuals already sit
/// an order of magnitude inside spec is accepted rather than paying one
/// more iteration to confirm it. It was added for the FE element's
/// former inner polarization solve, which quantized the attainable step
/// near switching. With polarization an MNA unknown it fires about a
/// fourteenth as often, and still saves an iteration where it does.
fn newton_accepted(opts: &SolverOptions, dv: f64, res_kcl: f64, res_branch: f64) -> bool {
    if dv < opts.tol_v && res_kcl < opts.tol_i && res_branch < opts.tol_v {
        return true;
    }
    dv < 10.0 * opts.tol_v && res_kcl < 0.1 * opts.tol_i && res_branch < 0.1 * opts.tol_v
}

/// Whether an exact iteration of a solve without cross-solve reuse
/// hands its factors to the next iteration: its node update `dv` (V)
/// was below [`CONFIRM_BELOW_TOL_V`]·`tol_v`. Shared by the workspace
/// loop and the allocating reference so the two stay bit-identical.
fn confirms_on_own_factors(opts: &SolverOptions, dv: f64) -> bool {
    !opts.jacobian_reuse && dv < CONFIRM_BELOW_TOL_V * opts.tol_v
}

/// Damping: the factor that brings the node-voltage update `dx_nodes`
/// (V) within [`SolverOptions::max_v_step`], or `None` when the update
/// is applied in full. Shared by the workspace loop and the allocating
/// reference so the two stay bit-identical.
fn damping(opts: &SolverOptions, dx_nodes: &[f64]) -> Option<f64> {
    let dv_max = norm_inf(dx_nodes);
    (dv_max > opts.max_v_step).then(|| opts.max_v_step / dv_max)
}

impl Assembly {
    /// Builds the element/branch bookkeeping for `ckt`.
    // fefet-lint: allow-item(hot-alloc) -- one-time assembly construction per circuit, before any solve
    pub fn new(ckt: &Circuit) -> Self {
        let mut branch0 = Vec::with_capacity(ckt.elements().len());
        let mut nb = 0;
        for (_, e) in ckt.elements() {
            let k = e.n_branches();
            branch0.push(if k > 0 { nb } else { usize::MAX });
            nb += k;
        }
        let mut node_mult = Vec::new();
        if !ckt.node_multiplicities().is_empty() {
            node_mult = vec![1.0; ckt.n_nodes() - 1];
            for &(node, m) in ckt.node_multiplicities() {
                node_mult[node.index() - 1] = m;
            }
        }
        Assembly {
            branch0,
            n_branches: nb,
            n_nodes: ckt.n_nodes(),
            node_mult,
        }
    }

    /// Infinity norm of the KCL residual `res_nodes` (one entry per
    /// non-ground node), with each lumped node's entry divided by its
    /// multiplicity.
    fn kcl_norm(&self, res_nodes: &[f64]) -> f64 {
        if self.node_mult.is_empty() {
            return norm_inf(res_nodes);
        }
        res_nodes
            .iter()
            .zip(&self.node_mult)
            .fold(0.0, |acc, (r, m)| acc.max((r / m).abs()))
    }

    /// Total unknowns: node voltages (minus ground) plus branch currents.
    pub fn n_unknowns(&self) -> usize {
        self.n_nodes - 1 + self.n_branches
    }

    /// Stamps every element plus the gmin conditioning diagonal into an
    /// already-cleared system view.
    ///
    /// This is the single assembly path behind every Jacobian target
    /// (slot-indexed sparse, pattern recording, residual-only), which is
    /// what makes the slot-indexed invariant hold by construction: the
    /// sequence of Jacobian adds is identical for a given circuit and
    /// `dc` flag no matter the target. The gmin diagonal is stamped
    /// unconditionally (adding `0.0` when gmin is disabled) so the node
    /// diagonals are always part of the sparse pattern and the add
    /// sequence never depends on the gmin value.
    ///
    /// `bypass` (bank + voltage tolerance) enables the device-bypass
    /// fast path for this stamp pass; bypassed elements still issue the
    /// full stamp sequence, so the slot-indexed sparse invariant holds
    /// regardless of cache hits.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::needless_range_loop)]
    fn stamp_sys(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        gmin: f64,
        x: &[f64],
        states: &[ElemState],
        sys: &mut Sys<'_>,
        bypass: Option<(&BypassBank, f64)>,
    ) {
        for (i, (_, e)) in ckt.elements().iter().enumerate() {
            let ctx = EvalCtx {
                t,
                h,
                method,
                dc,
                x,
                state: states[i],
            };
            let bp = bypass.map(|(bank, vtol)| BypassCtx {
                bank,
                index: i,
                vtol,
            });
            e.stamp_cached(self.branch0[i], &ctx, sys, bp);
        }
        // gmin to ground at every node for conditioning; a lumped node
        // carries the gmin of every node it stands for.
        for n in 0..self.n_nodes - 1 {
            let g = self.node_mult.get(n).map_or(gmin, |m| gmin * m);
            sys.jac_add(n, n, g);
            sys.res[n] += g * x[n];
        }
    }

    /// Records the Jacobian add sequence with a pattern-target stamp
    /// pass, assembles the CSR pattern, and resolves every add to its
    /// value-array slot.
    // fefet-lint: allow-item(hot-alloc) -- first-use backend setup cached in the workspace; the Newton loop reuses it allocation-free
    #[allow(clippy::too_many_arguments)]
    fn record_pattern(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        gmin: f64,
        x: &[f64],
        states: &[ElemState],
    ) -> Result<(CsrPattern, Vec<usize>), CktError> {
        let n = self.n_unknowns();
        let mut entries: Vec<(usize, usize)> = Vec::new();
        let mut scratch_res = vec![0.0; n];
        let mut sys = Sys {
            jac: JacTarget::Pattern(&mut entries),
            res: &mut scratch_res,
            n_nodes: self.n_nodes,
        };
        self.stamp_sys(ckt, t, h, method, dc, gmin, x, states, &mut sys, None);
        let pattern = CsrPattern::from_entries(n, &entries).map_err(CktError::from)?;
        let mut slots = Vec::with_capacity(entries.len());
        for &(r, c) in &entries {
            match pattern.slot_of(r, c) {
                Some(s) => slots.push(s),
                None => {
                    return Err(CktError::Netlist(
                        "sparse pattern is missing a stamped entry".into(),
                    ))
                }
            }
        }
        Ok((pattern, slots))
    }

    /// Builds the sparse backend state for one stamping mode. The
    /// symbolic analysis goes through [`SolverOptions::cache`] when one
    /// is attached, so pooled sweep workers solving the same pattern
    /// share a single analysis (the cache clones its pristine proto:
    /// fresh numeric buffers, `Arc`-shared symbolic state).
    #[allow(clippy::too_many_arguments)]
    fn build_sparse_state(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        opts: &SolverOptions,
        x: &[f64],
        states: &[ElemState],
    ) -> Result<SparseState, CktError> {
        let (pattern, slots) = self.record_pattern(ckt, t, h, method, dc, opts.gmin, x, states)?;
        let (lu, cache_hit) = match &opts.cache {
            Some(cache) => cache.sparse(&pattern, || SparseLu::analyze(&pattern))?,
            None => (SparseLu::analyze(&pattern).map_err(CktError::from)?, false),
        };
        if let Some(tel) = opts.instr.get() {
            if cache_hit {
                tel.solver.analysis_cache_hits.inc();
            } else {
                tel.solver.sparse_symbolic_analyses.inc();
            }
            tel.solver
                .sparse_pattern_nnz
                .record_max(pattern.nnz() as u64);
            let fill = lu.lu_nnz().saturating_sub(pattern.nnz());
            tel.solver.sparse_fill_nnz.record_max(fill as u64);
        }
        let a = CsrMatrix::from_pattern(pattern);
        Ok(SparseState { a, slots, lu })
    }

    /// Newton iteration for one solution point. Returns the converged
    /// unknown vector.
    ///
    /// Convenience wrapper over [`Assembly::solve_point_with`] that
    /// allocates a fresh [`NewtonWorkspace`] per call; analysis drivers
    /// should own a workspace and call `solve_point_with` directly.
    /// `t` is the absolute time (s) and `h` the step size (s), both 0
    /// for DC.
    ///
    /// # Errors
    ///
    /// As for [`Assembly::solve_point_with`].
    // fefet-lint: allow-item(hot-alloc) -- convenience wrapper that allocates a fresh workspace by documented contract; hot callers use solve_point_with
    #[allow(clippy::too_many_arguments)]
    pub fn solve_point(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        opts: &SolverOptions,
        x0: &[f64],
        states: &[ElemState],
    ) -> Result<Vec<f64>, CktError> {
        let mut ws = NewtonWorkspace::new(self.n_unknowns());
        let mut x = x0.to_vec();
        self.solve_point_with(ckt, t, h, method, dc, opts, &mut x, states, &mut ws)?;
        Ok(x)
    }

    /// Newton iteration for one solution point at time `t` (s) with
    /// step `h` (s), in place. Returns the number of Newton iterations
    /// performed (so callers can compare iteration trajectories).
    ///
    /// `x` holds the initial iterate on entry and the converged unknown
    /// vector on successful return (on error it holds the last partial
    /// iterate — callers that retry must keep their own copy). All
    /// scratch storage lives in `ws`; the sparse pattern and symbolic
    /// factorization are built inside `ws` on first use, after which the
    /// Newton loop performs no heap allocation.
    ///
    /// # Errors
    ///
    /// [`CktError::Netlist`] on a size mismatch between `x`, `ws`, and
    /// the assembly; [`CktError::Convergence`] if the Jacobian is
    /// singular; [`CktError::NewtonExhausted`] — carrying a structured
    /// [`ConvergenceReport`] (worst KCL-residual node, last damping
    /// factor, gmin) — if the iteration budget runs out;
    /// [`CktError::NonFinite`] if an iterate leaves the finite range;
    /// [`CktError::Numerics`] if the circuit's sparse pattern is
    /// structurally singular.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_point_with(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        opts: &SolverOptions,
        x: &mut [f64],
        states: &[ElemState],
        ws: &mut NewtonWorkspace,
    ) -> Result<usize, CktError> {
        let n = self.n_unknowns();
        if x.len() != n || ws.order() != n {
            // fefet-lint: allow(hot-alloc) -- cold error path: formatting happens once, on the way out
            return Err(CktError::Netlist(format!(
                "solve_point: system has {n} unknowns but x has {} and workspace {}",
                x.len(),
                ws.order()
            )));
        }
        let NewtonWorkspace {
            res,
            dx,
            sparse_dc,
            sparse_tr,
            bypass,
            factor_key,
            refresh,
            ..
        } = ws;
        // Lazy one-time setup of this stamping mode's sparse state;
        // every later call reuses it.
        let sparse = if dc { sparse_dc } else { sparse_tr };
        let SparseState { a, slots, lu } = match sparse {
            Some(sp) => sp,
            None => sparse.insert(self.build_sparse_state(ckt, t, h, method, dc, opts, x, states)?),
        };

        // Device bypass: per-element operating-point cache, built lazily
        // on the first bypass-enabled transient solve and rebuilt if the
        // circuit's element count changed. DC solves skip it — a DC
        // operating point stamped without gate dynamics must not seed
        // the transient cache.
        let want_bypass = opts.bypass && !dc;
        let rebuild_bank = match bypass.as_ref() {
            Some(b) => b.len() != ckt.elements().len(),
            None => true,
        };
        if want_bypass && rebuild_bank {
            *bypass = Some(BypassBank::new(ckt.elements().len()));
        }
        let bank: Option<(&BypassBank, f64)> = if want_bypass {
            bypass.as_ref().map(|b| (b, opts.bypass_vtol))
        } else {
            None
        };

        // Configuration this solve's factorizations belong to. Factors
        // stored by a previous solve are reusable iff the keys match.
        let key = FactorKey {
            dc,
            h_bits: h.to_bits(),
            gmin_bits: opts.gmin.to_bits(),
            method,
        };

        let nv = self.n_nodes - 1;
        // Profiling (trace recorder attached): one clock read here and
        // one at the solve's end; counters-only instrumentation never
        // touches the clock.
        let prof_t0 = opts.instr.profile().map(|(_, tr)| tr.now_ns());
        // Damping factor applied on the most recent iteration (1.0 =
        // full Newton step); reported in convergence diagnostics.
        let mut last_damping = 1.0;
        // Modified-Newton bookkeeping: iterations that rode a stored
        // factorization vs. fresh factorizations this solve, plus the
        // residual-contraction monitor that demotes the fast path.
        let mut exact_only = !opts.jacobian_reuse;
        // A previous solve that demoted, ran long or failed left stale
        // factors: this one refactors on iteration 0. The flag stays set
        // until this solve converges, so an error here does the same.
        let refresh_first = std::mem::replace(refresh, true);
        let mut demoted = false;
        // The previous iteration was exact and handed its factors on
        // ([`confirms_on_own_factors`]).
        let mut confirm = false;
        let mut prev_res = f64::INFINITY;
        let mut factors: usize = 0;
        let mut reuses: usize = 0;
        let mut stamp_passes: usize = 0;
        for it in 0..opts.max_newton {
            // Is the stored factorization valid for this configuration?
            let stored_ok = *factor_key == Some(key) && lu.is_factored();
            // Fast path: residual-only stamp (Jacobian adds discarded by
            // the Null target), accepted only while each iteration cuts
            // the residual to FAST_CONTRACTION of the last one or less.
            // Without cross-solve reuse it runs only as a confirming
            // iteration on the previous iteration's factors.
            let mut fast_norms: Option<(f64, f64)> = None;
            let try_fast = if exact_only {
                confirm
            } else {
                !(it == 0 && refresh_first)
            };
            if try_fast && stored_ok {
                res.fill(0.0);
                let mut sys = Sys {
                    jac: JacTarget::Null,
                    res,
                    n_nodes: self.n_nodes,
                };
                self.stamp_sys(ckt, t, h, method, dc, opts.gmin, x, states, &mut sys, bank);
                stamp_passes += 1;
                let k = self.kcl_norm(&res[..nv]);
                let b = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
                let cur = k.max(b);
                if cur.is_finite() && cur <= FAST_CONTRACTION * prev_res {
                    prev_res = cur;
                    fast_norms = Some((k, b));
                } else {
                    // Convergence stalled under the stale Jacobian (the
                    // operating point moved too far, or the circuit
                    // changed behind the key — e.g. a switch toggled).
                    // Exact Newton for the rest of this solve; the full
                    // stamp below overwrites the residual.
                    exact_only = true;
                    demoted = true;
                }
            }
            let fast = fast_norms.is_some();
            let (res_kcl, res_branch) = match fast_norms {
                Some(norms) => norms,
                None => {
                    // Exact iteration: assemble into the CSR Jacobian.
                    a.clear();
                    res.fill(0.0);
                    let mut sys = Sys {
                        jac: JacTarget::Sparse {
                            values: a.values_mut(),
                            slots,
                            cursor: 0,
                        },
                        res,
                        n_nodes: self.n_nodes,
                    };
                    self.stamp_sys(ckt, t, h, method, dc, opts.gmin, x, states, &mut sys, bank);
                    stamp_passes += 1;
                    if sys.sparse_cursor() != Some(slots.len()) {
                        return Err(CktError::Netlist(
                            "stamp sequence diverged from the cached sparse pattern".into(),
                        ));
                    }
                    let k = self.kcl_norm(&res[..nv]);
                    let b = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
                    let cur = k.max(b);
                    if cur.is_finite() {
                        prev_res = cur;
                    }
                    (k, b)
                }
            };
            // dx = -res, then solve. Fast path: permuted triangular
            // solves against the stored factors only — no stamp of the
            // Jacobian, no elimination. Exact path: numeric
            // refactorization over the cached pattern, then permuted
            // triangular solves.
            for (d, r) in dx.iter_mut().zip(res.iter()) {
                *d = -*r;
            }
            let solved = if fast {
                reuses += 1;
                lu.solve_in_place(dx)
            } else {
                // The stored factors are about to be overwritten; clear
                // the key first so a factorization error cannot leave a
                // stale key pointing at garbage.
                *factor_key = None;
                let r = lu.factor_solve_in_place(a, dx);
                if r.is_ok() {
                    factors += 1;
                    *factor_key = Some(key);
                    if let Some((_, tr)) = opts.instr.profile() {
                        tr.instant(TraceEvent::Factor, 1);
                    }
                }
                r
            };
            if let Err(e) = solved {
                // Drop this mode's sparse state: the next solve records
                // its pattern afresh (an analysis-cache hit when the
                // pattern is unchanged), so a workspace whose netlist
                // could not be factored can be handed a corrected one.
                *sparse = None;
                return Err(CktError::Convergence {
                    time: t,
                    // fefet-lint: allow(hot-alloc) -- cold error path: the iteration is already abandoned
                    detail: format!("jacobian factorization failed: {e}"),
                });
            }
            // Damp on the node-voltage part of the update; pure-branch
            // systems (nv == 0) have no voltage to bound, so the damping
            // (a voltage limit) does not apply to them.
            let clamp = damping(opts, &dx[..nv]);
            last_damping = clamp.unwrap_or(1.0);
            if let Some(s) = clamp {
                // Branch unknowns (source currents, FE polarizations)
                // scale the same way, so the damped update stays a
                // point on the Newton direction.
                for d in dx.iter_mut() {
                    *d *= s;
                }
            }
            for (xi, di) in x.iter_mut().zip(dx.iter()) {
                *xi += di;
            }
            if x.iter().any(|v| !v.is_finite()) {
                return Err(CktError::NonFinite {
                    context: "newton update",
                    step: t,
                });
            }
            let dv = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            confirm = !fast && confirms_on_own_factors(opts, dv);
            if newton_accepted(opts, dv, res_kcl, res_branch) {
                *refresh = demoted || it + 1 > REFRESH_AFTER_ITERS;
                // Per-solve telemetry: relaxed atomics only, nothing
                // allocated, so the warm-path zero-allocation invariant
                // holds with instrumentation on as well as off.
                if let Some(tel) = opts.instr.get() {
                    let iters = it + 1;
                    tel.solver.solves.inc();
                    tel.solver.newton_iterations.record_usize(iters);
                    tel.solver.residual_at_convergence.record(res_kcl);
                    tel.solver.factors_per_solve.record_usize(factors);
                    // Fresh factorizations (a fully reused solve records
                    // zero); one back-substitution per iteration.
                    tel.solver.sparse_refactors.add(factors as u64);
                    tel.solver.back_substitutions.add(iters as u64);
                    tel.solver.jacobian_reuses.add(reuses as u64);
                    tel.solver.stamp_passes.add(stamp_passes as u64);
                    if let Some((b, _)) = bank {
                        let (bh, bm) = b.take_counts();
                        tel.solver.bypass_hits.add(bh);
                        tel.solver.bypass_misses.add(bm);
                    }
                }
                if let (Some(t0), Some((tel, tr))) = (prof_t0, opts.instr.profile()) {
                    let end = tr.now_ns();
                    tel.latency.solve_ns.record_ns(end.saturating_sub(t0));
                    tr.complete_at(TraceEvent::NewtonSolve, t0, end, (it + 1) as u64);
                }
                return Ok(it + 1);
            }
        }
        if let (Some(t0), Some((tel, tr))) = (prof_t0, opts.instr.profile()) {
            let end = tr.now_ns();
            tel.latency.solve_ns.record_ns(end.saturating_sub(t0));
            tr.complete_at(TraceEvent::NewtonSolve, t0, end, opts.max_newton as u64);
        }
        if let Some(tel) = opts.instr.get() {
            tel.solver.failures.inc();
            tel.solver.failed_iterations.add(opts.max_newton as u64);
            tel.solver.jacobian_reuses.add(reuses as u64);
            tel.solver.stamp_passes.add(stamp_passes as u64);
            if let Some((b, _)) = bank {
                let (bh, bm) = b.take_counts();
                tel.solver.bypass_hits.add(bh);
                tel.solver.bypass_misses.add(bm);
            }
        }
        // Failure path: allocate freely to explain *where* the solve
        // diverged. `res` still holds the residual stamped on the last
        // iteration; its KCL span names the worst node, judged as the
        // convergence test judges it (lumped nodes per represented node).
        let kcl = if nv > 0 { &res[..nv] } else { &res[..] };
        let mut worst_node = 0usize;
        let mut worst_residual = 0.0f64;
        for (i, r) in kcl.iter().enumerate() {
            let r = r / self.node_mult.get(i).copied().unwrap_or(1.0);
            if r.abs() > worst_residual {
                worst_node = i;
                worst_residual = r.abs();
            }
        }
        let worst_node_name = if worst_node < nv {
            ckt.node_name(Node(worst_node + 1)).to_string()
        } else {
            String::new()
        };
        Err(CktError::NewtonExhausted {
            time: t,
            report: ConvergenceReport {
                iterations: opts.max_newton,
                worst_node,
                worst_node_name,
                worst_residual,
                last_damping,
                max_v_step: opts.max_v_step,
                gmin: opts.gmin,
                // fefet-lint: allow(hot-alloc) -- cold error path: empty placeholder in the exhaustion report
                gmin_trajectory: Vec::new(),
            },
        })
    }

    /// Relaxes the circuit at a fixed bias: holds every source at its
    /// value at time `t` (s) and takes `steps` backward-Euler point
    /// solves of pseudo-time width `h` (s), advancing the element states
    /// after each one. `x` and `states` hold the starting point on entry
    /// and the relaxed solution and states on return. Returns the Newton
    /// iterations spent.
    ///
    /// # Errors
    ///
    /// As for [`Assembly::solve_point_with`], from the first point solve
    /// that fails; `x` and `states` then hold its partial iterate and
    /// the states of the last converged step.
    #[allow(clippy::too_many_arguments)]
    pub fn relax_at_bias(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        steps: usize,
        opts: &SolverOptions,
        x: &mut [f64],
        states: &mut [ElemState],
        ws: &mut NewtonWorkspace,
    ) -> Result<usize, CktError> {
        if states.len() != ckt.elements().len() {
            // fefet-lint: allow(hot-alloc) -- cold error path: formatting happens once, on the way out
            return Err(CktError::Netlist(format!(
                "relax_at_bias: circuit has {} elements but states has {}",
                ckt.elements().len(),
                states.len()
            )));
        }
        let mut iters = 0;
        for _ in 0..steps {
            iters += self.solve_point_with(
                ckt,
                t,
                h,
                Integration::BackwardEuler,
                false,
                opts,
                x,
                states,
                ws,
            )?;
            self.advance_states(ckt, t, h, x, states);
        }
        Ok(iters)
    }

    /// Seeds each ferroelectric capacitor's polarization unknown in `x`
    /// from its element state: `P + h·dP/dt`, the polarization its
    /// last rate reaches after a step of width `h` (s). `h = 0` sets
    /// the stored polarization itself, as a run or a hold solution
    /// starts from; a positive `h` is the transient step predictor.
    pub fn seed_polarization(&self, ckt: &Circuit, states: &[ElemState], h: f64, x: &mut [f64]) {
        for (k, (_, e)) in ckt.elements().iter().enumerate() {
            if let (Element::FeCap { .. }, ElemState::Fe { p, dp_dt }) = (e, states[k]) {
                x[self.n_nodes - 1 + self.branch0[k]] = p + h * dp_dt;
            }
        }
    }

    /// Advances every element's state over a backward-Euler step of
    /// width `h` (s) ending at time `t` (s) with solution `x`.
    pub fn advance_states(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        x: &[f64],
        states: &mut [ElemState],
    ) {
        for (k, (_, e)) in ckt.elements().iter().enumerate() {
            let ctx = EvalCtx {
                t,
                h,
                method: Integration::BackwardEuler,
                dc: false,
                x,
                state: states[k],
            };
            states[k] = e.next_state(self.branch0[k], self.n_nodes, &ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn assembly_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, b, 1e3);
        c.vcvs("E1", b, Circuit::GND, a, Circuit::GND, 2.0);
        let asm = Assembly::new(&c);
        assert_eq!(asm.n_branches, 2);
        assert_eq!(asm.branch0, vec![0, usize::MAX, 1]);
        assert_eq!(asm.n_unknowns(), 2 + 2);
    }

    /// What the allocating reference saw: the converged unknowns and the
    /// damping factor it applied at each iteration.
    struct RefSolve {
        x: Vec<f64>,
        damping: Vec<f64>,
    }

    /// Reference Newton loop in allocating style: every exact
    /// iteration records the sparse pattern afresh, stamps into a new
    /// CSR matrix and residual, and runs a new symbolic analysis and
    /// numeric factorization. Mirrors the arithmetic of
    /// [`Assembly::solve_point_with`] without cross-solve reuse
    /// operation for operation, confirming iterations on the previous
    /// iteration's factors included, so the two must agree bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn solve_point_allocating(
        asm: &Assembly,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        opts: &SolverOptions,
        x0: &[f64],
        states: &[ElemState],
    ) -> Result<RefSolve, CktError> {
        let n = asm.n_unknowns();
        let nv = asm.n_nodes - 1;
        let mut x = x0.to_vec();
        let mut damping = Vec::new();
        // Factors the last exact iteration handed on, and the residual
        // norm they were stamped at.
        let mut handed: Option<SparseLu> = None;
        let mut prev_res = f64::INFINITY;
        for _it in 0..opts.max_newton {
            let (pattern, slots) =
                asm.record_pattern(ckt, t, h, method, dc, opts.gmin, &x, states)?;
            let mut jac = CsrMatrix::from_pattern(pattern.clone());
            let mut res = vec![0.0; n];
            let mut sys = Sys {
                jac: JacTarget::Sparse {
                    values: jac.values_mut(),
                    slots: &slots,
                    cursor: 0,
                },
                res: &mut res,
                n_nodes: asm.n_nodes,
            };
            asm.stamp_sys(ckt, t, h, method, dc, opts.gmin, &x, states, &mut sys, None);
            let res_kcl = asm.kcl_norm(&res[..nv]);
            let res_branch = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
            let cur = res_kcl.max(res_branch);
            let own = handed
                .take()
                .filter(|_| cur.is_finite() && cur <= FAST_CONTRACTION * prev_res);
            if cur.is_finite() {
                prev_res = cur;
            }
            let fast = own.is_some();
            let mut lu = match own {
                Some(lu) => lu,
                None => {
                    let mut lu = SparseLu::analyze(&pattern)?;
                    lu.refactor(&jac).map_err(|e| CktError::Convergence {
                        time: t,
                        detail: format!("jacobian factorization failed: {e}"),
                    })?;
                    lu
                }
            };
            let mut dx: Vec<f64> = res.iter().map(|r| -r).collect();
            lu.solve_in_place(&mut dx)?;
            let clamp = super::damping(opts, &dx[..nv]);
            damping.push(clamp.unwrap_or(1.0));
            if let Some(s) = clamp {
                for d in dx.iter_mut() {
                    *d *= s;
                }
            }
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += di;
            }
            let dv = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            if newton_accepted(opts, dv, res_kcl, res_branch) {
                return Ok(RefSolve { x, damping });
            }
            if !fast && confirms_on_own_factors(opts, dv) {
                handed = Some(lu);
            }
        }
        Err(CktError::Convergence {
            time: t,
            detail: "reference newton exhausted".into(),
        })
    }

    /// The workspace path must reproduce the allocating Newton loop bit
    /// for bit: same pattern, same pivots, same arithmetic order, so
    /// the converged unknown vectors match exactly, not just to
    /// tolerance. Checked in both stamping modes.
    #[test]
    fn workspace_newton_is_bit_identical_to_allocating_reference() {
        let (c, asm, states) = mos_test_circuit();
        let x0 = vec![0.0; asm.n_unknowns()];
        for (name, dc, t) in [("dc", true, 0.0), ("transient", false, 1e-9)] {
            assert_matches_reference(name, &asm, &c, t, dc, &exact(), &x0, &states);
        }
    }

    /// A circuit of only branch unknowns (voltage source dead-ended into
    /// another source's node) exercises the `nv == 0` damping guard.
    /// The damping bound is a voltage limit; it must not clamp branch
    /// currents when there are no node-voltage unknowns at all.
    #[test]
    fn pure_branch_system_is_not_voltage_damped() {
        // One node forced by a source: eliminating ground leaves nv = 1;
        // to get nv = 0 we need a circuit with only ground... which the
        // netlist builder cannot express. Instead verify the guard
        // arithmetic directly: with nv = 0 the damping scale is never
        // applied even for large branch updates.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        // 0.1 ohm: branch current 20 A dwarfs max_v_step = 0.5. The
        // voltage unknown converges in one step (linear), and the branch
        // current must come out exact, not clamped by the voltage bound.
        c.resistor("R1", a, Circuit::GND, 0.1);
        let asm = Assembly::new(&c);
        let states = vec![ElemState::None; 2];
        let x = asm
            .solve_point(
                &c,
                0.0,
                0.0,
                Integration::BackwardEuler,
                true,
                &SolverOptions {
                    max_v_step: 10.0,
                    ..SolverOptions::default()
                },
                &[0.0, 0.0],
                &states,
            )
            .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] + 20.0).abs() < 1e-4, "i(V1) = {}", x[1]);
        let _ = states;
    }

    #[test]
    fn solve_point_voltage_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::GND, 1e3);
        let asm = Assembly::new(&c);
        let states = vec![ElemState::None; 3];
        let x0 = vec![0.0; asm.n_unknowns()];
        let x = asm
            .solve_point(
                &c,
                0.0,
                0.0,
                Integration::BackwardEuler,
                true,
                &SolverOptions {
                    max_v_step: 10.0,
                    ..SolverOptions::default()
                },
                &x0,
                &states,
            )
            .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
        // Branch current of V1: 2V across 2k total, entering terminal a
        // means sourcing => negative by our convention.
        assert!((x[2] + 1e-3).abs() < 1e-8);
    }

    /// Common-source MOSFET stage used by the fast-path tests: nonlinear
    /// enough that Newton takes several iterations from a cold start.
    fn mos_test_circuit() -> (Circuit, Assembly, Vec<ElemState>) {
        use crate::models::MosParams;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        let g = c.node("g");
        c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        c.vsource("VG", g, Circuit::GND, Waveform::dc(0.6));
        c.resistor("RD", vdd, d, 50e3);
        c.mosfet("M1", d, g, Circuit::GND, MosParams::nmos_45nm());
        c.capacitor("CL", d, Circuit::GND, 1e-15);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        (c, asm, states)
    }

    /// Modified Newton must (a) actually reuse factorizations across the
    /// iterations and warm-started solves of a transient-like sequence,
    /// (b) factor strictly less often than exact Newton, and (c) land on
    /// the same solution to solver tolerance.
    #[test]
    fn jacobian_reuse_drops_factor_count_and_matches_exact() {
        let (c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();

        let run = |reuse: bool| -> (Vec<f64>, u64, u64) {
            let opts = SolverOptions {
                jacobian_reuse: reuse,
                bypass: false,
                instr: Instrumentation::enabled(),
                ..SolverOptions::default()
            };
            let mut x = vec![0.0; n];
            let mut ws = NewtonWorkspace::new(n);
            // Mimic a short transient: repeated warm-started solves at
            // successive times with the same step size.
            for k in 0..6 {
                let t = 1e-9 + k as f64 * 1e-9;
                asm.solve_point_with(
                    &c,
                    t,
                    1e-9,
                    Integration::BackwardEuler,
                    false,
                    &opts,
                    &mut x,
                    &states,
                    &mut ws,
                )
                .unwrap();
            }
            let tel = opts.instr.get().unwrap();
            (
                x,
                tel.solver.sparse_refactors.get(),
                tel.solver.jacobian_reuses.get(),
            )
        };

        let (x_exact, factors_exact, reuses_exact) = run(false);
        let (x_fast, factors_fast, reuses_fast) = run(true);
        assert_eq!(reuses_exact, 0);
        assert!(reuses_fast > 0, "fast run never reused a factorization");
        assert!(
            factors_fast < factors_exact,
            "reuse did not reduce factorizations: {factors_fast} vs {factors_exact}"
        );
        for i in 0..n {
            let scale = x_exact[i].abs().max(1.0);
            assert!(
                (x_fast[i] - x_exact[i]).abs() <= 1e-6 * scale,
                "unknown {i}: fast {} vs exact {}",
                x_fast[i],
                x_exact[i]
            );
        }
    }

    /// A solve without cross-solve reuse confirms on its own factors:
    /// where the all-exact trajectory's penultimate update is below the
    /// hand-on threshold, the solve takes as many iterations, one
    /// factorization fewer, and lands within `tol_v` of it. The
    /// all-exact trajectory is the same solve taken one iteration per
    /// call, since nothing crosses solves.
    #[test]
    fn an_exact_solve_confirms_on_its_own_factors() {
        // The drain node of a common-source stage, converged at a 0.6 V
        // gate, after the gate steps to 0.601 V: the drain moves 2.7 mV,
        // then 10 µV, then converges.
        let (mut c, asm, states) = mos_test_circuit();
        let mut x0 = vec![0.0; asm.n_unknowns()];
        asm.solve_point_with(
            &c,
            1e-9,
            1e-9,
            Integration::BackwardEuler,
            false,
            &exact(),
            &mut x0,
            &states,
            &mut NewtonWorkspace::new(asm.n_unknowns()),
        )
        .unwrap();
        c.set_waveform("VG", Waveform::dc(0.601)).unwrap();
        let n = asm.n_unknowns();
        let nv = asm.n_nodes - 1;
        let opts = SolverOptions {
            instr: Instrumentation::enabled(),
            ..exact()
        };
        let tel = opts.instr.get().unwrap();
        let solve = |opts: &SolverOptions, x: &mut [f64], ws: &mut NewtonWorkspace| {
            asm.solve_point_with(
                &c,
                1e-9,
                1e-9,
                Integration::BackwardEuler,
                false,
                opts,
                x,
                &states,
                ws,
            )
        };

        let one_step = SolverOptions {
            max_newton: 1,
            ..opts.clone()
        };
        let mut x_exact = x0.clone();
        let mut ws = NewtonWorkspace::new(n);
        let mut updates = Vec::new();
        loop {
            let before = x_exact.clone();
            let r = solve(&one_step, &mut x_exact, &mut ws);
            let dv = x_exact[..nv]
                .iter()
                .zip(&before)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            updates.push(dv);
            match r {
                Ok(_) => break,
                Err(CktError::NewtonExhausted { .. }) => assert!(updates.len() < 50),
                Err(e) => panic!("{e:?}"),
            }
        }
        let iters_exact = updates.len();
        let penultimate = updates[iters_exact - 2];
        assert!(
            penultimate > opts.tol_v && confirms_on_own_factors(&opts, penultimate),
            "penultimate update {penultimate:e} V in {updates:?}"
        );

        let mut x = x0.clone();
        let mut ws = NewtonWorkspace::new(n);
        let f0 = tel.solver.sparse_refactors.get();
        let iters = solve(&opts, &mut x, &mut ws).unwrap();
        assert_eq!(iters, iters_exact);
        assert_eq!(
            tel.solver.sparse_refactors.get() - f0,
            iters_exact as u64 - 1
        );
        for i in 0..nv {
            assert!(
                (x[i] - x_exact[i]).abs() < opts.tol_v,
                "node {i}: {} vs all-exact {}",
                x[i],
                x_exact[i]
            );
        }
    }

    /// Device bypass: warm re-solves at an (almost) unchanged operating
    /// point must hit the per-element cache; the cold first solve must
    /// record misses.
    #[test]
    fn bypass_hits_accumulate_across_warm_solves() {
        let (c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();
        let opts = SolverOptions {
            jacobian_reuse: false,
            bypass: true,
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        for k in 0..4 {
            let t = 1e-9 + k as f64 * 1e-9;
            asm.solve_point_with(
                &c,
                t,
                1e-9,
                Integration::BackwardEuler,
                false,
                &opts,
                &mut x,
                &states,
                &mut ws,
            )
            .unwrap();
        }
        let tel = opts.instr.get().unwrap();
        assert!(
            tel.solver.bypass_misses.get() > 0,
            "no model evaluations recorded"
        );
        assert!(
            tel.solver.bypass_hits.get() > 0,
            "warm re-solves at an unchanged operating point never hit the cache"
        );
    }

    /// A bypass entry holds a device's currents at an operating point,
    /// not the parameters they came from. After the MOSFET is replaced
    /// in place, a re-solve from the same point on a warm workspace hits
    /// the stale entry and leaves the fresh-workspace trajectory; after
    /// `clear_bypass` it matches a fresh workspace bit for bit.
    #[test]
    fn clearing_the_bypass_forgets_replaced_devices() {
        use crate::models::MosParams;
        let (mut c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();
        let opts = SolverOptions {
            bypass: true,
            ..exact()
        };
        let solve = |c: &Circuit, x: &mut [f64], ws: &mut NewtonWorkspace| {
            let iters = asm
                .solve_point_with(
                    c,
                    1e-9,
                    1e-9,
                    Integration::BackwardEuler,
                    false,
                    &opts,
                    x,
                    &states,
                    ws,
                )
                .unwrap();
            (iters, x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        // Two workspaces warmed identically at the converged point x0.
        let mut x0 = vec![0.0; n];
        let mut warm = [NewtonWorkspace::new(n), NewtonWorkspace::new(n)];
        for ws in &mut warm {
            x0.fill(0.0);
            solve(&c, &mut x0, ws);
            solve(&c, &mut x0, ws);
        }
        let m1 = c
            .elements()
            .iter()
            .position(|(name, _)| name == "M1")
            .unwrap();
        let shifted = MosParams {
            vt0: MosParams::nmos_45nm().vt0 + 0.05,
            ..MosParams::nmos_45nm()
        };
        c.set_mosfet_params_at(m1, shifted).unwrap();

        let fresh = solve(&c, &mut x0.clone(), &mut NewtonWorkspace::new(n));
        let [stale_ws, cleared_ws] = &mut warm;
        let stale = solve(&c, &mut x0.clone(), stale_ws);
        assert_ne!(stale, fresh, "the stale entry was never hit");
        cleared_ws.clear_bypass();
        let cleared = solve(&c, &mut x0.clone(), cleared_ws);
        assert_eq!(cleared, fresh);
    }

    /// Star circuit: `k` two-node branches (series resistors into a
    /// diode + capacitor) hanging off one driven center node.
    fn star_circuit(k: usize) -> Circuit {
        let mut c = Circuit::new();
        let center = c.node("c");
        c.vsource("V1", center, Circuit::GND, Waveform::dc(1.0));
        for j in 0..k {
            let a = c.node(&format!("a{j}"));
            let b = c.node(&format!("b{j}"));
            c.resistor(&format!("Ra{j}"), center, a, 1e3);
            c.resistor(&format!("Rab{j}"), a, b, 2e3);
            c.diode(&format!("D{j}"), b, Circuit::GND, 1e-14, 1.0);
            c.capacitor(&format!("Cb{j}"), b, Circuit::GND, 1e-12);
        }
        c
    }

    /// Workspaces sharing an [`AnalysisCache`] run the symbolic analysis
    /// once: the first build analyzes, every later identical build hits
    /// the cache — the invariant pooled sweep workers rely on.
    #[test]
    fn analysis_cache_shares_symbolic_work_across_workspaces() {
        let c = star_circuit(3);
        let asm = Assembly::new(&c);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let n = asm.n_unknowns();
        let opts = SolverOptions {
            cache: Some(AnalysisCache::new()),
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        };
        for _worker in 0..3 {
            let mut x = vec![0.0; n];
            let mut ws = NewtonWorkspace::new(n);
            asm.solve_point_with(
                &c,
                0.0,
                0.0,
                Integration::BackwardEuler,
                true,
                &opts,
                &mut x,
                &states,
                &mut ws,
            )
            .unwrap();
        }
        let tel = opts.instr.get().unwrap();
        assert_eq!(
            tel.solver.sparse_symbolic_analyses.get(),
            1,
            "symbolic analysis must run once"
        );
        assert_eq!(
            tel.solver.analysis_cache_hits.get(),
            2,
            "workers 2 and 3 must hit the cache"
        );
    }

    /// A faulty netlist and its healthy twin of the same unknown count:
    /// a source driving `a`, a resistor to `b` and a `ladder`-node
    /// resistor chain from `b`, plus one fault.
    /// - `SourceLoop`: a second source on `a` (its healthy twin drives
    ///   `b`), so both branch rows hold only `v(a)` and the Jacobian is
    ///   structurally singular.
    /// - `FloatingNode`: a node `f` reached only through a capacitor,
    ///   open at DC (the healthy twin also ties it to ground through a
    ///   resistor); with gmin off its row is numerically zero.
    fn faulty_netlist(ladder: usize, fault: Fault, healthy: bool) -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("Rab", a, b, 1e3);
        let mut prev = b;
        for i in 0..ladder {
            let n = c.node(&format!("n{i}"));
            c.resistor(&format!("R{i}"), prev, n, 1e3);
            c.resistor(&format!("Rg{i}"), n, Circuit::GND, 1e3);
            prev = n;
        }
        match fault {
            Fault::SourceLoop => {
                c.vsource(
                    "V2",
                    if healthy { b } else { a },
                    Circuit::GND,
                    Waveform::dc(2.0),
                );
            }
            Fault::FloatingNode => {
                let f = c.node("f");
                c.capacitor("Cf", b, f, 1e-15);
                if healthy {
                    c.resistor("Rf", f, Circuit::GND, 1e3);
                }
            }
        }
        c
    }

    #[derive(Debug, Clone, Copy)]
    enum Fault {
        SourceLoop,
        FloatingNode,
    }

    /// A singular Jacobian is a typed error, not a panic, at cell size
    /// (under 64 unknowns) and at array size, for a voltage-source loop
    /// and for a floating node. It leaves the workspace usable: the same
    /// workspace then solves the healthy twin of the same order, building
    /// the sparse state of the stamping mode it solves in and no other.
    #[test]
    fn singular_netlists_are_typed_errors_at_cell_and_array_size() {
        for fault in [Fault::SourceLoop, Fault::FloatingNode] {
            for ladder in [4, 100] {
                let bad = faulty_netlist(ladder, fault, false);
                let good = faulty_netlist(ladder, fault, true);
                let asm_bad = Assembly::new(&bad);
                let asm_good = Assembly::new(&good);
                let n = asm_bad.n_unknowns();
                assert_eq!(n, asm_good.n_unknowns());
                assert_eq!(n < 64, ladder == 4, "{fault:?}: n = {n}");
                let states = |c: &Circuit| -> Vec<ElemState> {
                    c.elements().iter().map(|_| ElemState::None).collect()
                };
                let opts = SolverOptions {
                    gmin: 0.0,
                    ..SolverOptions::default()
                };
                let mut ws = NewtonWorkspace::new(n);
                let mut x = vec![0.0; n];
                let r = asm_bad.solve_point_with(
                    &bad,
                    0.0,
                    0.0,
                    Integration::BackwardEuler,
                    true,
                    &opts,
                    &mut x,
                    &states(&bad),
                    &mut ws,
                );
                assert!(
                    matches!(r, Err(CktError::Convergence { .. } | CktError::Numerics(_))),
                    "{fault:?}, n = {n}: expected a typed singular-matrix error, got {r:?}"
                );
                let mut x = vec![0.0; n];
                asm_good
                    .solve_point_with(
                        &good,
                        0.0,
                        0.0,
                        Integration::BackwardEuler,
                        true,
                        &opts,
                        &mut x,
                        &states(&good),
                        &mut ws,
                    )
                    .unwrap();
                // The DC solve built DC sparse state only.
                assert!(ws.sparse_nnz(true).is_some() && ws.sparse_nnz(false).is_none());
                let v = |name: &str| x[good.find_node(name).unwrap().index() - 1];
                assert!(
                    (v("a") - 1.0).abs() < 1e-9,
                    "{fault:?}, n = {n}: v(a) = {}",
                    v("a")
                );
                if let Fault::SourceLoop = fault {
                    assert!((v("b") - 2.0).abs() < 1e-9, "n = {n}: v(b) = {}", v("b"));
                }
            }
        }
    }

    /// Changing the timestep invalidates the stored factorization's key:
    /// the next solve must factor again instead of riding Jacobian
    /// factors scaled for the old `h`.
    #[test]
    fn step_size_change_forces_refactor() {
        let (c, asm, states) = mos_test_circuit();
        let n = asm.n_unknowns();
        let opts = SolverOptions {
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        };
        let mut x = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        asm.solve_point_with(
            &c,
            1e-9,
            1e-9,
            Integration::BackwardEuler,
            false,
            &opts,
            &mut x,
            &states,
            &mut ws,
        )
        .unwrap();
        let tel = opts.instr.get().unwrap();
        let factors_before = tel.solver.sparse_refactors.get();
        assert!(factors_before > 0);
        asm.solve_point_with(
            &c,
            1.5e-9,
            0.5e-9,
            Integration::BackwardEuler,
            false,
            &opts,
            &mut x,
            &states,
            &mut ws,
        )
        .unwrap();
        assert!(
            tel.solver.sparse_refactors.get() > factors_before,
            "h change did not trigger a refactor"
        );
    }

    /// Runs one warm transient solve at time `t` (s) with a 1 ns
    /// backward-Euler step and returns its iterations, fresh
    /// factorizations and iterations that rode stored factors.
    fn counted_solve(
        asm: &Assembly,
        c: &Circuit,
        t: f64,
        opts: &SolverOptions,
        x: &mut [f64],
        ws: &mut NewtonWorkspace,
    ) -> (usize, u64, u64) {
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let tel = opts.instr.get().expect("counted solves need telemetry");
        let factors = || tel.solver.sparse_refactors.get();
        let (f0, r0) = (factors(), tel.solver.jacobian_reuses.get());
        let iters = asm
            .solve_point_with(
                c,
                t,
                1e-9,
                Integration::BackwardEuler,
                false,
                opts,
                x,
                &states,
                ws,
            )
            .unwrap();
        (iters, factors() - f0, tel.solver.jacobian_reuses.get() - r0)
    }

    /// Modified Newton with telemetry on and bypass off, so factor and
    /// reuse counts follow from the refresh policy alone.
    fn reuse_counted() -> SolverOptions {
        SolverOptions {
            bypass: false,
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        }
    }

    /// A solve that stays on stored factors and converges in at most
    /// [`REFRESH_AFTER_ITERS`] iterations leaves them in place: the next
    /// solve starts on them. One that needed more iterations, even
    /// without leaving the fast path, makes the next solve refactor on
    /// its first iteration; that refreshed solve, converging at once,
    /// hands clean factors on again.
    #[test]
    fn a_long_solve_refreshes_the_next_solves_factors() {
        let (mut c, asm, _) = mos_test_circuit();
        let opts = reuse_counted();
        let n = asm.n_unknowns();
        let mut x = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws);
        // Converged point, stored factors refreshed there: one exact
        // iteration, then a clean short solve that rides them.
        assert_eq!(
            counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws),
            (1, 1, 0)
        );
        assert!(!ws.refresh);
        assert_eq!(
            counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws),
            (1, 0, 1)
        );
        assert!(!ws.refresh);
        // A small gate step: every iteration contracts under the stored
        // factors, but it takes more than REFRESH_AFTER_ITERS of them.
        c.set_waveform("VG", Waveform::dc(0.62)).unwrap();
        let (iters, factors, reuses) = counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws);
        assert!(iters > REFRESH_AFTER_ITERS, "{iters} iterations");
        assert_eq!(
            (factors, reuses),
            (0, iters as u64),
            "the solve left the fast path"
        );
        assert!(ws.refresh);
        assert_eq!(
            counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws),
            (1, 1, 0)
        );
        assert_eq!(
            counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws),
            (1, 0, 1)
        );
    }

    /// A solve that leaves the fast path makes the next solve refactor
    /// on its first iteration, even when it converged within
    /// [`REFRESH_AFTER_ITERS`] iterations. A switch closing behind the
    /// factor key changes the Jacobian: the stale first iteration cannot
    /// cut the residual 4x, and the solve demotes to exact Newton.
    #[test]
    fn a_demoted_solve_refreshes_the_next_solves_factors() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        c.resistor("R1", a, b, 1e4);
        let closes = Waveform::pulse(0.0, 1.0, 5e-9, 1e-12, 1e-12, 1.0);
        c.switch("S1", b, Circuit::GND, closes, 1e3, 1e9);
        c.capacitor("CL", b, Circuit::GND, 1e-15);
        let asm = Assembly::new(&c);
        let opts = reuse_counted();
        let n = asm.n_unknowns();
        let mut x = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws);
        counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws);
        assert_eq!(
            counted_solve(&asm, &c, 1e-9, &opts, &mut x, &mut ws),
            (1, 0, 1)
        );
        // Switch closed: the solve starts on the stored factors, then
        // refactors. The rejected fast attempt costs one stamp pass on
        // top of one per iteration.
        let tel = opts.instr.get().expect("telemetry");
        let passes0 = tel.solver.stamp_passes.get();
        let (iters, factors, reuses) = counted_solve(&asm, &c, 9e-9, &opts, &mut x, &mut ws);
        assert!(iters <= REFRESH_AFTER_ITERS, "{iters} iterations");
        assert!(
            reuses >= 1 && factors >= 1,
            "{reuses} reuses, {factors} factors"
        );
        assert_eq!(
            tel.solver.stamp_passes.get() - passes0,
            iters as u64 + 1,
            "stamp passes of a {iters}-iteration demoted solve"
        );
        assert!(ws.refresh);
        assert_eq!(
            counted_solve(&asm, &c, 9e-9, &opts, &mut x, &mut ws),
            (1, 1, 0)
        );
        assert!(!ws.refresh);
        assert_eq!(
            counted_solve(&asm, &c, 9e-9, &opts, &mut x, &mut ws),
            (1, 0, 1)
        );
    }

    /// Exact Newton (no factor reuse, no bypass), so the workspace path
    /// is comparable bit for bit with the allocating reference.
    fn exact() -> SolverOptions {
        SolverOptions {
            jacobian_reuse: false,
            bypass: false,
            ..SolverOptions::default()
        }
    }

    /// Runs `ckt` through the workspace loop from `x0` and returns the
    /// solution and the iteration count.
    #[allow(clippy::too_many_arguments)]
    fn workspace_solve(
        asm: &Assembly,
        ckt: &Circuit,
        t: f64,
        h: f64,
        dc: bool,
        opts: &SolverOptions,
        x0: &[f64],
        states: &[ElemState],
    ) -> Result<(Vec<f64>, usize), CktError> {
        let mut x = x0.to_vec();
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let iters = asm.solve_point_with(
            ckt,
            t,
            h,
            Integration::BackwardEuler,
            dc,
            opts,
            &mut x,
            states,
            &mut ws,
        )?;
        Ok((x, iters))
    }

    /// Checks that the workspace loop solves `c` from `x0` in exactly
    /// the reference's iterations and lands on its bits, and returns the
    /// reference.
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_reference(
        name: &str,
        asm: &Assembly,
        c: &Circuit,
        t: f64,
        dc: bool,
        opts: &SolverOptions,
        x0: &[f64],
        states: &[ElemState],
    ) -> RefSolve {
        let reference = solve_point_allocating(
            asm,
            c,
            t,
            t,
            Integration::BackwardEuler,
            dc,
            opts,
            x0,
            states,
        )
        .unwrap();
        let (x, iters) = workspace_solve(asm, c, t, t, dc, opts, x0, states).unwrap();
        assert_eq!(iters, reference.damping.len(), "{name}: iteration counts");
        for (i, (r, w)) in reference.x.iter().zip(&x).enumerate() {
            assert_eq!(
                r.to_bits(),
                w.to_bits(),
                "{name}: unknown {i}: {r:?} vs {w:?}"
            );
        }
        reference
    }

    /// Long runs of clamped updates follow the plain 0.5 V clamp, and
    /// the workspace loop matches the reference bit for bit. The 20 V
    /// divider walks 39 clamped steps; the diode stage takes clamped
    /// steps before the junction turns on.
    #[test]
    fn clamped_steps_without_a_cycle_keep_the_plain_clamp_trajectory() {
        let mut divider = Circuit::new();
        let a = divider.node("a");
        let b = divider.node("b");
        divider.vsource("V1", a, Circuit::GND, Waveform::dc(20.0));
        divider.resistor("R1", a, b, 1e3);
        divider.resistor("R2", b, Circuit::GND, 1e3);

        let mut diode = Circuit::new();
        let s = diode.node("s");
        let d = diode.node("d");
        diode.vsource("V1", s, Circuit::GND, Waveform::dc(3.0));
        diode.resistor("R1", s, d, 1e3);
        diode.diode("D1", d, Circuit::GND, 1e-14, 1.0);

        for (name, c, min_clamped) in [("divider", &divider, 39), ("diode", &diode, 2)] {
            let asm = Assembly::new(c);
            let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
            let x0 = vec![0.0; asm.n_unknowns()];
            let reference =
                assert_matches_reference(name, &asm, c, 0.0, true, &exact(), &x0, &states);
            let clamped = reference.damping.iter().filter(|&&s| s < 1.0).count();
            assert!(
                clamped >= min_clamped,
                "{name}: only {clamped} clamped iterations"
            );
            assert!(
                reference
                    .damping
                    .windows(2)
                    .any(|w| w[0] < 1.0 && w[1] < 1.0),
                "{name}: no two consecutive clamped iterations"
            );
        }
    }

    /// One 100 ps backward-Euler step of a 0.2 V source driving a
    /// cell-sized ferroelectric capacitor through 1 MOhm, from a cold
    /// start at P = −0.1 C/m², inside the negative-capacitance region.
    /// With the polarization eliminated inside the element, Newton
    /// fell into a period-2 cycle of clamped updates here. With P as an
    /// unknown the solve converges under the plain clamp, matches the
    /// reference bit for bit and lands where a 0.1 V clamp does.
    #[test]
    fn fe_step_in_the_nc_region_converges_under_the_plain_clamp() {
        use crate::models::FeCapParams;
        const H: f64 = 1e-10;
        let mut c = Circuit::new();
        let s = c.node("s");
        let m = c.node("m");
        c.vsource("V1", s, Circuit::GND, Waveform::dc(0.2));
        c.resistor("R1", s, m, 1e6);
        let fe = FeCapParams::new(2.25e-9, 65e-9 * 45e-9);
        c.fecap("F1", m, Circuit::GND, fe, -0.1);
        assert!(
            fe.lk.de_dp(-0.1) < 0.0,
            "P = -0.1 C/m² is not in the NC region"
        );
        let asm = Assembly::new(&c);
        let mut x0 = vec![0.0; asm.n_unknowns()];
        let states: Vec<ElemState> = c
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x0))
            .collect();
        asm.seed_polarization(&c, &states, 0.0, &mut x0);
        assert_matches_reference("fe", &asm, &c, H, false, &exact(), &x0, &states);
        let (x, _) = workspace_solve(&asm, &c, H, H, false, &exact(), &x0, &states).unwrap();
        let fine = SolverOptions {
            max_v_step: 0.1,
            ..exact()
        };
        let (x_fine, _) = workspace_solve(&asm, &c, H, H, false, &fine, &x0, &states).unwrap();
        for (i, (a, b)) in x.iter().zip(&x_fine).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1e-12),
                "unknown {i}: 0.5 V clamp {a:e} vs 0.1 V clamp {b:e}"
            );
        }
    }

    /// A 5 V source charging 1 pF through 1 kΩ (RC = 1 ns), relaxed
    /// from an empty capacitor in `steps` backward-Euler steps spanning
    /// 4 ns. The linear solve's only limit is the 0.5 V damping bound,
    /// so the iterations a solve needs grow with how far its step moves
    /// the capacitor node.
    fn relax_rc(steps: usize, max_newton: usize) -> (Result<usize, CktError>, f64, SolverOptions) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(5.0));
        c.resistor("R1", a, b, 1e3);
        c.capacitor("C1", b, Circuit::GND, 1e-12);
        let asm = Assembly::new(&c);
        // The driven node starts at the source voltage; only `b` moves.
        let mut x = vec![0.0; asm.n_unknowns()];
        x[a.index() - 1] = 5.0;
        let mut states: Vec<ElemState> = c
            .elements()
            .iter()
            .map(|(_, e)| e.initial_state(&x))
            .collect();
        let opts = SolverOptions {
            max_newton,
            instr: Instrumentation::enabled(),
            ..SolverOptions::default()
        };
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let h = 4e-9 / steps as f64;
        let r = asm.relax_at_bias(&c, 1e-9, h, steps, &opts, &mut x, &mut states, &mut ws);
        (r, x[b.index() - 1], opts)
    }

    #[test]
    fn relax_at_bias_takes_plain_steps_and_returns_a_failed_solves_error() {
        // Converging: one solve, exactly the 4 ns backward-Euler step.
        let (r, v, opts) = relax_rc(1, 100);
        r.expect("full step converges");
        let tel = opts.instr.get().unwrap();
        assert_eq!(tel.solver.solves.get(), 1);
        assert!(
            (v - 4.0).abs() < 1e-6,
            "BE step of 4·RC ends at 4 V, got {v}"
        );
        // Four 1 ns steps: four solves, ending at 5·(1 − 2⁻⁴) V.
        let (r, v, opts) = relax_rc(4, 100);
        r.expect("quarter steps converge");
        assert_eq!(opts.instr.get().unwrap().solver.solves.get(), 4);
        assert!((v - 5.0 * (1.0 - 0.5f64.powi(4))).abs() < 1e-6, "{v} V");
        // Six iterations move the node at most 3 V: the 4 V step fails
        // with the solve's own typed error, and nothing retries it.
        let (r, _, opts) = relax_rc(1, 6);
        assert!(matches!(r, Err(CktError::NewtonExhausted { .. })), "{r:?}");
        let tel = opts.instr.get().unwrap();
        assert_eq!((tel.solver.solves.get(), tel.solver.failures.get()), (0, 1));
    }
}
