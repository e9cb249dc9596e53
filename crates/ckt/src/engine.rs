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
    BypassBank, BypassCtx, ElemState, EvalCtx, Integration, JacTarget, Node, Sys,
};
use crate::plan::AnalysisCache;
use crate::CktError;
use fefet_numerics::linalg::{norm_inf, LuWorkspace, Matrix};
use fefet_numerics::sparse::{CsrMatrix, CsrPattern, SparseLu};
use fefet_telemetry::{ConvergenceReport, Instrumentation, TraceEvent};

/// Linear-solver backend for the Newton inner solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Dense LU below [`SPARSE_CROSSOVER`] unknowns, pattern-cached
    /// sparse LU at or above it. Cells run dense; every array netlist
    /// (FEFET row slices, full FEFET read circuits, FERAM arrays) runs
    /// sparse.
    #[default]
    Auto,
    /// Dense LU with partial pivoting, regardless of size.
    Dense,
    /// Pattern-cached sparse LU, regardless of size.
    Sparse,
}

/// System order at which `Auto` switches from dense to sparse LU.
///
/// Single-cell circuits (≈ 13 unknowns) factor faster dense — the CSR
/// indirection is pure overhead at that size — while an 8×8 array
/// (≈ 216 unknowns) is already an order of magnitude faster sparse.
/// The break-even sits near a few dozen unknowns; 64 is conservative in
/// the safe direction on both sides.
pub const SPARSE_CROSSOVER: usize = 64;

/// Newton solver tuning knobs shared by DC and transient analyses.
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
    /// Linear-solver backend for the inner solve.
    pub backend: SolverBackend,
    /// Modified Newton: keep the factored Jacobian and skip
    /// restamp+refactor while the residual norm contracts, falling back
    /// to a full iteration the moment it stalls. Convergence is still
    /// judged on a freshly stamped residual, so accepted solutions meet
    /// the same tolerances as the exact path. Default on.
    pub jacobian_reuse: bool,
    /// Device bypass: per-element caching of the last operating point so
    /// elements whose terminal voltages moved less than
    /// [`SolverOptions::bypass_vtol`] skip their expensive model
    /// evaluation (stamping first-order-updated cached values instead).
    /// Default on.
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
            backend: SolverBackend::Auto,
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
/// structure or scaling — backend, stamping mode, step size, gmin, or
/// integration method — invalidates them. Time is deliberately *not*
/// part of the key: source values only enter the residual, and the rare
/// time-dependent Jacobian change (a switch toggling) is caught by the
/// residual-contraction fallback instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FactorKey {
    backend: BackendKind,
    dc: bool,
    h_bits: u64,
    gmin_bits: u64,
    method: Integration,
}

/// Resolved backend for one solve — [`SolverBackend`] with `Auto`
/// already decided by system order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Dense,
    Sparse,
}

/// Reusable Newton-iteration buffers: Jacobian, residual, update vector,
/// and factorization storage for one system size.
///
/// Owned by the analysis drivers ([`crate::dc`], [`crate::transient`])
/// and threaded through [`Assembly::solve_point_with`]. Backend state is
/// built lazily on the first solve that needs it — dense Jacobian + LU
/// buffers for the dense backend, CSR pattern + slot table + symbolic
/// factorization for the sparse one (per stamping mode, since DC and
/// transient patterns differ) — and reused for every subsequent
/// iteration of every step, so a warmed-up analysis run performs **zero
/// heap allocation** in the Newton loop. Element `stamp` implementations
/// must likewise not allocate — they only accumulate into the borrowed
/// Jacobian/residual.
#[derive(Debug)]
pub struct NewtonWorkspace {
    n: usize,
    res: Vec<f64>,
    dx: Vec<f64>,
    dense: Option<DenseState>,
    sparse_dc: Option<SparseState>,
    sparse_tr: Option<SparseState>,
    /// Device-bypass operating-point cache, one slot per element; built
    /// lazily on the first bypass-enabled solve.
    bypass: Option<BypassBank>,
    /// Configuration the currently stored factorization belongs to;
    /// `None` when no reusable factorization exists.
    factor_key: Option<FactorKey>,
}

/// Dense backend: full Jacobian storage plus LU workspace.
#[derive(Debug)]
struct DenseState {
    jac: Matrix,
    lu: LuWorkspace,
}

/// Sparse backend for one stamping mode (DC or transient): the CSR
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
            dense: None,
            sparse_dc: None,
            sparse_tr: None,
            bypass: None,
            factor_key: None,
        }
    }

    /// The system order this workspace is sized for.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Structural nonzero count of the sparse Jacobian pattern for the
    /// given stamping mode, if that sparse state has been built.
    pub fn sparse_nnz(&self, dc: bool) -> Option<usize> {
        let s = if dc { &self.sparse_dc } else { &self.sparse_tr };
        s.as_ref().map(|s| s.a.nnz())
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
/// inside spec. The fallback is a residual-floor test: device models
/// with internal solves (the FE polarization update) quantize the
/// attainable step near switching, so `dv` can bottom out just above
/// `tol_v` while KCL is already satisfied an order of magnitude tighter
/// than spec -- the iterate is converged in every physical sense and
/// further iterations cycle without improving it.
fn newton_accepted(opts: &SolverOptions, dv: f64, res_kcl: f64, res_branch: f64) -> bool {
    if dv < opts.tol_v && res_kcl < opts.tol_i && res_branch < opts.tol_v {
        return true;
    }
    dv < 10.0 * opts.tol_v && res_kcl < 0.1 * opts.tol_i && res_branch < 0.1 * opts.tol_v
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

    /// Assembles residual and Jacobian at iterate `x` (dense target)
    /// at time `t` (s) with step `h` (s) and diagonal leak `gmin` (S).
    #[allow(clippy::too_many_arguments)]
    pub fn stamp_all(
        &self,
        ckt: &Circuit,
        t: f64,
        h: f64,
        method: Integration,
        dc: bool,
        gmin: f64,
        x: &[f64],
        states: &[ElemState],
        jac: &mut Matrix,
        res: &mut [f64],
    ) {
        jac.clear();
        res.fill(0.0);
        let mut sys = Sys::dense(jac, res, self.n_nodes);
        self.stamp_sys(ckt, t, h, method, dc, gmin, x, states, &mut sys, None);
    }

    /// Stamps every element plus the gmin conditioning diagonal into an
    /// already-cleared system view.
    ///
    /// This is the single assembly path behind all three Jacobian
    /// targets (dense, slot-indexed sparse, pattern recording), which is
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
    /// performed (so callers can compare iteration trajectories across
    /// solver backends).
    ///
    /// `x` holds the initial iterate on entry and the converged unknown
    /// vector on successful return (on error it holds the last partial
    /// iterate — callers that retry must keep their own copy). All
    /// scratch storage lives in `ws`; backend state (dense buffers or
    /// the sparse pattern/symbolic factorization) is built inside `ws`
    /// on first use, after which the Newton loop performs no heap
    /// allocation.
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
        let kind = match opts.backend {
            SolverBackend::Dense => BackendKind::Dense,
            SolverBackend::Sparse => BackendKind::Sparse,
            SolverBackend::Auto if n >= SPARSE_CROSSOVER => BackendKind::Sparse,
            SolverBackend::Auto => BackendKind::Dense,
        };
        // Lazy one-time backend setup; every later call reuses it.
        match kind {
            BackendKind::Sparse => {
                let slot = if dc {
                    &mut ws.sparse_dc
                } else {
                    &mut ws.sparse_tr
                };
                if slot.is_none() {
                    *slot = Some(self.build_sparse_state(ckt, t, h, method, dc, opts, x, states)?);
                }
            }
            BackendKind::Dense => {
                if ws.dense.is_none() {
                    ws.dense = Some(DenseState {
                        jac: Matrix::zeros(n, n),
                        lu: LuWorkspace::new(n),
                    });
                }
            }
        }
        let NewtonWorkspace {
            res,
            dx,
            dense,
            sparse_dc,
            sparse_tr,
            bypass,
            factor_key,
            ..
        } = ws;
        let sparse = if dc { sparse_dc } else { sparse_tr };

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
            backend: kind,
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
        let mut prev_res = f64::INFINITY;
        let mut factors: usize = 0;
        let mut reuses: usize = 0;
        for it in 0..opts.max_newton {
            // Is the stored factorization valid for this configuration?
            let stored_ok = *factor_key == Some(key)
                && match kind {
                    BackendKind::Sparse => sparse.as_ref().is_some_and(|sp| sp.lu.is_factored()),
                    BackendKind::Dense => dense.as_ref().is_some_and(|dn| dn.lu.is_factored()),
                };
            // Fast path: residual-only stamp (Jacobian adds discarded by
            // the Null target), accepted only while the residual keeps
            // contracting under the stale factors.
            let mut fast_norms: Option<(f64, f64)> = None;
            if !exact_only && stored_ok {
                res.fill(0.0);
                let mut sys = Sys {
                    jac: JacTarget::Null,
                    res,
                    n_nodes: self.n_nodes,
                };
                self.stamp_sys(ckt, t, h, method, dc, opts.gmin, x, states, &mut sys, bank);
                let k = self.kcl_norm(&res[..nv]);
                let b = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
                let cur = k.max(b);
                if cur.is_finite() && cur <= 0.5 * prev_res {
                    prev_res = cur;
                    fast_norms = Some((k, b));
                } else {
                    // Convergence stalled under the stale Jacobian (the
                    // operating point moved too far, or the circuit
                    // changed behind the key — e.g. a switch toggled).
                    // Exact Newton for the rest of this solve; the full
                    // stamp below overwrites the residual.
                    exact_only = true;
                }
            }
            let fast = fast_norms.is_some();
            let (res_kcl, res_branch) = match fast_norms {
                Some(norms) => norms,
                None => {
                    // Exact iteration: assemble into the active
                    // backend's Jacobian storage.
                    let csr = sparse.as_mut().filter(|_| kind == BackendKind::Sparse);
                    if let Some(SparseState { a, slots, .. }) = csr {
                        a.clear();
                        res.fill(0.0);
                        let n_slots = slots.len();
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
                        if sys.sparse_cursor() != Some(n_slots) {
                            return Err(CktError::Netlist(
                                "stamp sequence diverged from the cached sparse pattern".into(),
                            ));
                        }
                    } else if let Some(dn) = dense.as_mut() {
                        dn.jac.clear();
                        res.fill(0.0);
                        let mut sys = Sys::dense(&mut dn.jac, res, self.n_nodes);
                        self.stamp_sys(ckt, t, h, method, dc, opts.gmin, x, states, &mut sys, bank);
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
            // Jacobian, no elimination. Exact dense path: fused in-place
            // elimination — the stamped Jacobian's buffer is swapped
            // into the LU workspace (no n x n copy) and eliminated with
            // dx carried as an augmented column, so each matrix row is
            // visited once while cache-hot; `jac` gets the previous
            // factorization's buffer back, which the next stamp
            // re-zeroes before use. Exact sparse path: numeric
            // refactorization over the cached pattern, then permuted
            // triangular solves.
            for (d, r) in dx.iter_mut().zip(res.iter()) {
                *d = -*r;
            }
            let solved = if fast {
                reuses += 1;
                match kind {
                    BackendKind::Sparse => match sparse.as_mut() {
                        Some(sp) => sp.lu.solve_in_place(dx),
                        // `stored_ok` proved the backend state exists.
                        None => {
                            return Err(CktError::Netlist("newton workspace has no backend".into()))
                        }
                    },
                    BackendKind::Dense => match dense.as_mut() {
                        Some(dn) => dn.lu.solve_into(dx),
                        None => {
                            return Err(CktError::Netlist("newton workspace has no backend".into()))
                        }
                    },
                }
            } else {
                // The stored factors are about to be overwritten; clear
                // the key first so a factorization error cannot leave a
                // stale key pointing at garbage.
                *factor_key = None;
                let r = match kind {
                    BackendKind::Sparse => match sparse.as_mut() {
                        Some(sp) => sp.lu.factor_solve_in_place(&sp.a, dx),
                        None => {
                            return Err(CktError::Netlist("newton workspace has no backend".into()))
                        }
                    },
                    // One of the setup branches always built its state.
                    BackendKind::Dense => match dense.as_mut() {
                        Some(dn) => dn.lu.factor_solve_in_place(&mut dn.jac, dx),
                        None => {
                            return Err(CktError::Netlist("newton workspace has no backend".into()))
                        }
                    },
                };
                if r.is_ok() {
                    factors += 1;
                    *factor_key = Some(key);
                    if let Some((_, tr)) = opts.instr.profile() {
                        let backend = match kind {
                            BackendKind::Dense => 0,
                            BackendKind::Sparse => 1,
                        };
                        tr.instant(TraceEvent::Factor, backend);
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
            let dv_max = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            last_damping = 1.0;
            if nv > 0 && dv_max > opts.max_v_step {
                let s = opts.max_v_step / dv_max;
                last_damping = s;
                // Branch currents are linear consequences of the node
                // voltages; scale them the same way to stay consistent
                // within the iteration.
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
            if newton_accepted(opts, dv, res_kcl, res_branch) {
                // Per-solve telemetry: relaxed atomics only, nothing
                // allocated, so the warm-path zero-allocation invariant
                // holds with instrumentation on as well as off.
                if let Some(tel) = opts.instr.get() {
                    let iters = it + 1;
                    tel.solver.solves.inc();
                    tel.solver.newton_iterations.record_usize(iters);
                    tel.solver.residual_at_convergence.record(res_kcl);
                    tel.solver.factors_per_solve.record_usize(factors);
                    // Fresh factorizations on whichever backend ran (a
                    // fully reused solve records zero); one
                    // back-substitution per iteration on either path.
                    match kind {
                        BackendKind::Sparse => {
                            tel.solver.sparse_refactors.add(factors as u64);
                        }
                        BackendKind::Dense => {
                            tel.solver.dense_factors.add(factors as u64);
                        }
                    }
                    tel.solver.back_substitutions.add(iters as u64);
                    tel.solver.jacobian_reuses.add(reuses as u64);
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
                gmin: opts.gmin,
                // fefet-lint: allow(hot-alloc) -- cold error path: empty placeholder in the exhaustion report
                gmin_trajectory: Vec::new(),
            },
        })
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

    /// Reference Newton loop in the seed's allocating style: fresh
    /// Jacobian/residual/negated-residual vectors and an owning
    /// [`LuFactors::factor`] every iteration. Mirrors the arithmetic of
    /// [`Assembly::solve_point_with`] operation for operation so the two
    /// must agree bit for bit.
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
    ) -> Result<Vec<f64>, CktError> {
        use fefet_numerics::linalg::LuFactors;
        let n = asm.n_unknowns();
        let nv = asm.n_nodes - 1;
        let mut x = x0.to_vec();
        for _it in 0..opts.max_newton {
            let mut jac = Matrix::zeros(n, n);
            let mut res = vec![0.0; n];
            asm.stamp_all(
                ckt, t, h, method, dc, opts.gmin, &x, states, &mut jac, &mut res,
            );
            let res_kcl = asm.kcl_norm(&res[..nv]);
            let res_branch = if nv < n { norm_inf(&res[nv..]) } else { 0.0 };
            let lu = LuFactors::factor(jac.clone()).map_err(|e| CktError::Convergence {
                time: t,
                detail: format!("jacobian factorization failed: {e}"),
            })?;
            let neg: Vec<f64> = res.iter().map(|r| -r).collect();
            let mut dx = lu.solve(&neg).map_err(CktError::from)?;
            let dv_max = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            if nv > 0 && dv_max > opts.max_v_step {
                let s = opts.max_v_step / dv_max;
                for d in dx.iter_mut() {
                    *d *= s;
                }
            }
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += di;
            }
            let dv = if nv > 0 { norm_inf(&dx[..nv]) } else { 0.0 };
            if newton_accepted(opts, dv, res_kcl, res_branch) {
                return Ok(x);
            }
        }
        Err(CktError::Convergence {
            time: t,
            detail: "reference newton exhausted".into(),
        })
    }

    /// The workspace path must reproduce the seed's allocating Newton
    /// loop bit for bit: same pivots, same arithmetic order, so the
    /// converged unknown vectors match exactly, not just to tolerance.
    #[test]
    fn workspace_newton_is_bit_identical_to_allocating_reference() {
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
        // The reference refactors every iteration; force the exact path
        // so the trajectories are comparable bit for bit.
        let opts = SolverOptions {
            jacobian_reuse: false,
            bypass: false,
            ..SolverOptions::default()
        };
        let x0 = vec![0.0; asm.n_unknowns()];

        let reference = solve_point_allocating(
            &asm,
            &c,
            0.0,
            0.0,
            Integration::BackwardEuler,
            true,
            &opts,
            &x0,
            &states,
        )
        .unwrap();

        let mut x = x0.clone();
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
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

        assert_eq!(reference.len(), x.len());
        for (i, (a, b)) in reference.iter().zip(&x).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "unknown {i} differs: reference {a:?} vs workspace {b:?}"
            );
        }
    }

    /// The sparse backend must track the dense one: same Newton
    /// iteration count (both backends see the same Jacobian, only
    /// factored differently) and solutions matching to tight tolerance
    /// on a nonlinear MOSFET circuit, in both DC and transient stamping
    /// modes. Exercises the full pattern-record → slot-resolve →
    /// slot-indexed-stamp → refactor → solve pipeline.
    #[test]
    fn sparse_backend_matches_dense_newton() {
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
        let n = asm.n_unknowns();

        for (dc, t, h) in [(true, 0.0, 0.0), (false, 1e-9, 1e-9)] {
            // Equal iteration counts require both backends to run exact
            // Newton: the fast paths change the trajectory (legally).
            let dense_opts = SolverOptions {
                backend: SolverBackend::Dense,
                jacobian_reuse: false,
                bypass: false,
                ..SolverOptions::default()
            };
            let sparse_opts = SolverOptions {
                backend: SolverBackend::Sparse,
                jacobian_reuse: false,
                bypass: false,
                ..SolverOptions::default()
            };
            let mut xd = vec![0.0; n];
            let mut ws_d = NewtonWorkspace::new(n);
            let it_d = asm
                .solve_point_with(
                    &c,
                    t,
                    h,
                    Integration::BackwardEuler,
                    dc,
                    &dense_opts,
                    &mut xd,
                    &states,
                    &mut ws_d,
                )
                .unwrap();
            let mut xs = vec![0.0; n];
            let mut ws_s = NewtonWorkspace::new(n);
            let it_s = asm
                .solve_point_with(
                    &c,
                    t,
                    h,
                    Integration::BackwardEuler,
                    dc,
                    &sparse_opts,
                    &mut xs,
                    &states,
                    &mut ws_s,
                )
                .unwrap();
            assert_eq!(it_d, it_s, "newton iteration counts diverged (dc={dc})");
            for i in 0..n {
                let scale = xd[i].abs().max(1.0);
                assert!(
                    (xs[i] - xd[i]).abs() <= 1e-9 * scale,
                    "dc={dc} unknown {i}: sparse {} vs dense {}",
                    xs[i],
                    xd[i]
                );
            }
            assert!(ws_s.sparse_nnz(dc).is_some());
            assert!(ws_s.sparse_nnz(!dc).is_none());
        }
    }

    /// `Auto` resolves by system order: small systems stay dense (the
    /// workspace never builds sparse state), large ones go sparse.
    #[test]
    fn auto_backend_selects_by_size() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        let mut prev = a;
        for i in 0..(SPARSE_CROSSOVER + 4) {
            let nn = c.node(&format!("n{i}"));
            c.resistor(&format!("R{i}"), prev, nn, 1e3);
            prev = nn;
        }
        c.resistor("Rend", prev, Circuit::GND, 1e3);
        let asm = Assembly::new(&c);
        assert!(asm.n_unknowns() >= SPARSE_CROSSOVER);
        let states: Vec<ElemState> = c.elements().iter().map(|_| ElemState::None).collect();
        let mut x = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        asm.solve_point_with(
            &c,
            0.0,
            0.0,
            Integration::BackwardEuler,
            true,
            &SolverOptions::default(),
            &mut x,
            &states,
            &mut ws,
        )
        .unwrap();
        assert!(
            ws.sparse_nnz(true).is_some(),
            "auto should have picked sparse at this size"
        );

        // A two-resistor divider stays dense under Auto.
        let mut c2 = Circuit::new();
        let b = c2.node("b");
        let m = c2.node("m");
        c2.vsource("V1", b, Circuit::GND, Waveform::dc(1.0));
        c2.resistor("R1", b, m, 1e3);
        c2.resistor("R2", m, Circuit::GND, 1e3);
        let asm2 = Assembly::new(&c2);
        let states2: Vec<ElemState> = c2.elements().iter().map(|_| ElemState::None).collect();
        let mut x2 = vec![0.0; asm2.n_unknowns()];
        let mut ws2 = NewtonWorkspace::new(asm2.n_unknowns());
        asm2.solve_point_with(
            &c2,
            0.0,
            0.0,
            Integration::BackwardEuler,
            true,
            &SolverOptions::default(),
            &mut x2,
            &states2,
            &mut ws2,
        )
        .unwrap();
        assert!(ws2.sparse_nnz(true).is_none());
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
                tel.solver.dense_factors.get(),
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
            backend: SolverBackend::Sparse,
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

    /// Two sources driving `a` (1 V and, when `conflict`, 2 V on the
    /// same node; otherwise 2 V on `b`), joined by a resistor and padded
    /// with a `ladder`-node resistor chain from `b`. Both variants have
    /// the same unknown count; the conflicting one is structurally
    /// singular (both branch rows hold only `v(a)`).
    fn parallel_sources(ladder: usize, conflict: bool) -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        let v2 = if conflict { a } else { b };
        c.vsource("V2", v2, Circuit::GND, Waveform::dc(2.0));
        c.resistor("Rab", a, b, 1e3);
        let mut prev = b;
        for i in 0..ladder {
            let n = c.node(&format!("n{i}"));
            c.resistor(&format!("R{i}"), prev, n, 1e3);
            c.resistor(&format!("Rg{i}"), n, Circuit::GND, 1e3);
            prev = n;
        }
        c
    }

    /// A singular Jacobian is a typed error on both `Auto` tiers —
    /// dense below [`SPARSE_CROSSOVER`] unknowns, sparse at or above
    /// it — and leaves the workspace usable: the same workspace then
    /// solves a healthy circuit of the same order.
    #[test]
    fn singular_netlists_are_typed_errors_on_both_backends() {
        for (ladder, sparse) in [(4, false), (SPARSE_CROSSOVER, true)] {
            let bad = parallel_sources(ladder, true);
            let good = parallel_sources(ladder, false);
            let asm_bad = Assembly::new(&bad);
            let asm_good = Assembly::new(&good);
            let n = asm_bad.n_unknowns();
            assert_eq!(n, asm_good.n_unknowns());
            assert_eq!(n >= SPARSE_CROSSOVER, sparse, "n = {n}");
            let states: Vec<ElemState> = bad.elements().iter().map(|_| ElemState::None).collect();
            let opts = SolverOptions::default();
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
                &states,
                &mut ws,
            );
            assert!(
                matches!(r, Err(CktError::Convergence { .. } | CktError::Numerics(_))),
                "n = {n}: expected a typed singular-matrix error, got {r:?}"
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
                    &states,
                    &mut ws,
                )
                .unwrap();
            assert_eq!(ws.sparse_nnz(true).is_some(), sparse, "n = {n}");
            let v = |name: &str| x[good.find_node(name).unwrap().index() - 1];
            assert!((v("a") - 1.0).abs() < 1e-9, "n = {n}: v(a) = {}", v("a"));
            assert!((v("b") - 2.0).abs() < 1e-9, "n = {n}: v(b) = {}", v("b"));
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
        let factors_before = tel.solver.dense_factors.get();
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
            tel.solver.dense_factors.get() > factors_before,
            "h change did not trigger a refactor"
        );
    }
}
