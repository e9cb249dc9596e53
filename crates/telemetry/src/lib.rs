//! fefet-telemetry — std-only instrumentation for the fefet stack.
//!
//! The solver pipeline (Newton → transient → array sweep → NVP study)
//! runs thousands of SPICE-class solves per figure; this crate makes
//! their health observable without giving up the zero-allocation warm
//! path PR 2/3 established. It provides:
//!
//! - [`Counter`] / [`FloatCell`] / [`Histogram`]: lock-free atomic
//!   metric primitives ([`metrics`]).
//! - [`SpanRegistry`] / [`SpanGuard`]: wall-time span aggregation with
//!   lock-free recording, keyed per worker thread ([`span`]).
//! - [`QuantileHistogram`]: log-bucketed latency distributions with
//!   p50/p90/p99 estimation and merge support ([`quantile`]).
//! - [`TraceRecorder`]: lock-free per-thread ring-buffer trace events
//!   with Chrome-trace JSON export ([`trace`]).
//! - [`ConvergenceReport`]: structured "newton exhausted" diagnostics,
//!   and [`RunReport`]: a hand-serialized JSON artifact ([`report`]).
//! - [`json`]: escaping, float formatting, and a dependency-free JSON
//!   validator used by the CI smoke step.
//! - [`Telemetry`]: the domain aggregate (solver / step / array / NVP
//!   stats plus spans), and [`Instrumentation`]: the near-zero-cost
//!   handle threaded through `SolverOptions`.
//!
//! # Cost model
//!
//! `Instrumentation` is an `Option<Arc<Telemetry>>`. Off (the default)
//! it is a `None` check — the solver's hot loop sees one predictable
//! branch per *solve* (not per iteration) and no clock reads. On, all
//! recording is relaxed-atomic and allocation-free, so one `Telemetry`
//! shared across `pool_map` workers aggregates without locks and
//! the alloctrack warm-solve invariant holds in both states.

pub mod json;
pub mod metrics;
pub mod quantile;
pub mod report;
pub mod span;
pub mod trace;

pub use metrics::{Counter, FloatCell, Histogram};
pub use quantile::QuantileHistogram;
pub use report::{ConvergenceReport, RunReport};
pub use span::{SpanGuard, SpanRegistry, SpanStats};
pub use trace::{TraceEvent, TraceRecorder};

use std::sync::{Arc, OnceLock};

/// Per-solve Newton and linear-algebra statistics, recorded by
/// `fefet_ckt::engine` (one recording block per solve) with sparse
/// structure counters harvested from `fefet_numerics::sparse`.
#[derive(Debug)]
pub struct SolverStats {
    /// Converged Newton solves.
    pub solves: Counter,
    /// Solves that exhausted the iteration budget.
    pub failures: Counter,
    /// Newton iterations per converged solve.
    pub newton_iterations: Histogram,
    /// Newton iterations spent in solves that exhausted the iteration
    /// budget (counted in `failures`, absent from `newton_iterations`).
    pub failed_iterations: Counter,
    /// |KCL residual| (A) at convergence, per solve.
    pub residual_at_convergence: Histogram,
    /// Dense LU factorizations: always 0, since every Newton solve runs
    /// on the sparse LU. Kept only for readers of the JSON report until
    /// the benchmark's layer metrics stop reading it.
    pub dense_factors: Counter,
    /// Sparse LU numeric refactorizations (one per exact Newton
    /// iteration; an iteration on stored factors takes none).
    pub sparse_refactors: Counter,
    /// Triangular back-substitutions, total.
    pub back_substitutions: Counter,
    /// LU (re)factorizations per converged solve.
    pub factors_per_solve: Histogram,
    /// High-water mark: nonzeros in the sparse MNA pattern.
    pub sparse_pattern_nnz: Counter,
    /// High-water mark: fill-in nonzeros added by symbolic analysis
    /// (LU nnz − pattern nnz).
    pub sparse_fill_nnz: Counter,
    /// One-time symbolic analyses performed.
    pub sparse_symbolic_analyses: Counter,
    /// Always 0: the bordered-block-diagonal backend it counted was
    /// removed. Kept only because the external benchmark's per-layer
    /// report still reads it; not part of the JSON export.
    pub bbd_refactors: Counter,
    /// Sweep-level symbolic/setup work answered from a shared analysis
    /// cache proto instead of a fresh analysis (counted at the engine's
    /// lazy-build site).
    pub analysis_cache_hits: Counter,
    /// AC frequency points solved.
    pub ac_points: Counter,
    /// Full small-signal stamp passes performed by AC analysis (with
    /// factor reuse this stays at one per sweep, not one per point).
    pub ac_stamp_passes: Counter,
    /// Extra gmin-stepping passes taken after a direct solve failed.
    pub gmin_retries: Counter,
    /// Newton iterations that reused the stored Jacobian factorization
    /// (modified Newton: residual-only stamp + back-substitution).
    pub jacobian_reuses: Counter,
    /// Device-stamp passes over the netlist, summed over converged and
    /// failed solves: one per exact iteration and one per fast attempt,
    /// including a fast attempt that fails the contraction test and is
    /// followed by an exact stamp in the same iteration.
    pub stamp_passes: Counter,
    /// Device model evaluations answered from the per-element bypass
    /// cache (linearized around the cached operating point).
    pub bypass_hits: Counter,
    /// Device model evaluations that missed the bypass cache and ran
    /// the full model.
    pub bypass_misses: Counter,
}

impl Default for SolverStats {
    fn default() -> Self {
        let iteration_edges = || {
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 100.0,
            ]
        };
        Self {
            solves: Counter::new(),
            failures: Counter::new(),
            newton_iterations: Histogram::with_edges(iteration_edges()),
            failed_iterations: Counter::new(),
            residual_at_convergence: Histogram::log10_decades(-18, 0),
            dense_factors: Counter::new(),
            sparse_refactors: Counter::new(),
            back_substitutions: Counter::new(),
            factors_per_solve: Histogram::with_edges(iteration_edges()),
            sparse_pattern_nnz: Counter::new(),
            sparse_fill_nnz: Counter::new(),
            sparse_symbolic_analyses: Counter::new(),
            bbd_refactors: Counter::new(),
            analysis_cache_hits: Counter::new(),
            ac_points: Counter::new(),
            ac_stamp_passes: Counter::new(),
            gmin_retries: Counter::new(),
            jacobian_reuses: Counter::new(),
            stamp_passes: Counter::new(),
            bypass_hits: Counter::new(),
            bypass_misses: Counter::new(),
        }
    }
}

impl SolverStats {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"solves\":{},\"failures\":{},\"gmin_retries\":{},\
             \"newton_iterations\":{},\"failed_iterations\":{},\
             \"residual_at_convergence\":{},\
             \"dense_factors\":{},\"sparse_refactors\":{},\
             \"back_substitutions\":{},\"factors_per_solve\":{},\
             \"jacobian_reuses\":{},\"stamp_passes\":{},\
             \"bypass_hits\":{},\
             \"bypass_misses\":{},\
             \"sparse_pattern_nnz\":{},\"sparse_fill_nnz\":{},\
             \"sparse_symbolic_analyses\":{},\
             \"analysis_cache_hits\":{},\
             \"ac_points\":{},\"ac_stamp_passes\":{}}}",
            self.solves.get(),
            self.failures.get(),
            self.gmin_retries.get(),
            self.newton_iterations.to_json(),
            self.failed_iterations.get(),
            self.residual_at_convergence.to_json(),
            self.dense_factors.get(),
            self.sparse_refactors.get(),
            self.back_substitutions.get(),
            self.factors_per_solve.to_json(),
            self.jacobian_reuses.get(),
            self.stamp_passes.get(),
            self.bypass_hits.get(),
            self.bypass_misses.get(),
            self.sparse_pattern_nnz.get(),
            self.sparse_fill_nnz.get(),
            self.sparse_symbolic_analyses.get(),
            self.analysis_cache_hits.get(),
            self.ac_points.get(),
            self.ac_stamp_passes.get(),
        )
    }
}

/// Transient time-stepping statistics, recorded by
/// `fefet_ckt::transient`.
#[derive(Debug)]
pub struct StepStats {
    /// Accepted timesteps.
    pub accepted: Counter,
    /// Steps rejected because Newton failed (dt halved).
    pub rejected_newton: Counter,
    /// Grown steps rejected by step control and retried smaller: runs
    /// whose `TransientOptions::dt_max` lies above their `dt` (the
    /// cell-level ops) grow the step on quiescent stretches, and a grown
    /// step whose predictor–corrector difference or change over the step
    /// is over its bound is retried. Always 0 at a fixed step, which is
    /// every row op and yield trial.
    pub rejected_lte: Counter,
    /// Accepted steps that landed on a waveform corner via snapping.
    pub corner_snaps: Counter,
    /// Step attempts whose Newton initial guess was extrapolated from
    /// the node-voltage history instead of copied from the last point.
    pub predicted: Counter,
    /// Accepted timestep sizes (s), one decade per bucket.
    pub dt_seconds: Histogram,
}

impl Default for StepStats {
    fn default() -> Self {
        Self {
            accepted: Counter::new(),
            rejected_newton: Counter::new(),
            rejected_lte: Counter::new(),
            corner_snaps: Counter::new(),
            predicted: Counter::new(),
            dt_seconds: Histogram::log10_decades(-15, -3),
        }
    }
}

impl StepStats {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"rejected_newton\":{},\"rejected_lte\":{},\
             \"corner_snaps\":{},\"predicted\":{},\"dt_seconds\":{}}}",
            self.accepted.get(),
            self.rejected_newton.get(),
            self.rejected_lte.get(),
            self.corner_snaps.get(),
            self.predicted.get(),
            self.dt_seconds.to_json(),
        )
    }
}

/// Array-sweep statistics, recorded by `fefet_core::array`.
#[derive(Debug)]
pub struct ArrayStats {
    /// Row read operations (each is a full transient per column sense).
    pub row_reads: Counter,
    /// Row write operations.
    pub row_writes: Counter,
    /// Worst-case read margin across all reads: min over rows of
    /// (smallest ON-bit current / largest OFF-bit current). `null`
    /// until a read sees both states.
    pub read_margin_worst: FloatCell,
    /// Largest sneak-path current observed (A).
    pub sneak_current_max: FloatCell,
    /// Largest half-select polarization disturb observed (C/m²).
    pub disturb_max: FloatCell,
}

impl Default for ArrayStats {
    fn default() -> Self {
        Self {
            row_reads: Counter::new(),
            row_writes: Counter::new(),
            read_margin_worst: FloatCell::min_tracker(),
            sneak_current_max: FloatCell::max_tracker(),
            disturb_max: FloatCell::max_tracker(),
        }
    }
}

impl ArrayStats {
    pub fn to_json(&self) -> String {
        let finite_or_null = |v: f64| {
            if v.is_finite() {
                json::fmt_f64(v)
            } else {
                "null".to_string()
            }
        };
        format!(
            "{{\"row_reads\":{},\"row_writes\":{},\"read_margin_worst\":{},\
             \"sneak_current_max_a\":{},\"disturb_max\":{}}}",
            self.row_reads.get(),
            self.row_writes.get(),
            finite_or_null(self.read_margin_worst.get()),
            finite_or_null(self.sneak_current_max.get()),
            finite_or_null(self.disturb_max.get()),
        )
    }
}

/// Nonvolatile-processor simulation statistics, recorded by
/// `fefet_nvp::processor::simulate_with`.
#[derive(Debug)]
pub struct NvpStats {
    /// Completed `simulate` runs.
    pub runs: Counter,
    /// Backup operations across runs.
    pub backups: Counter,
    /// Restore operations across runs.
    pub restores: Counter,
    /// Retention losses (power returned after state decayed).
    pub retention_losses: Counter,
    /// Energy spent in backups (J), accumulated.
    pub backup_energy_j: FloatCell,
    /// Energy spent in restores (J), accumulated.
    pub restore_energy_j: FloatCell,
    /// Forward progress achieved (s of useful work), accumulated.
    pub progress_s: FloatCell,
}

impl NvpStats {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"runs\":{},\"backups\":{},\"restores\":{},\
             \"retention_losses\":{},\"backup_energy_j\":{},\
             \"restore_energy_j\":{},\"progress_s\":{}}}",
            self.runs.get(),
            self.backups.get(),
            self.restores.get(),
            self.retention_losses.get(),
            self.backup_energy_j.to_json(),
            self.restore_energy_j.to_json(),
            self.progress_s.to_json(),
        )
    }
}

impl Default for NvpStats {
    fn default() -> Self {
        Self {
            runs: Counter::new(),
            backups: Counter::new(),
            restores: Counter::new(),
            retention_losses: Counter::new(),
            backup_energy_j: FloatCell::zero(),
            restore_energy_j: FloatCell::zero(),
            progress_s: FloatCell::zero(),
        }
    }
}

/// Per-participant pool accounting slots. Slot 0 is the calling
/// thread (every `pool_map` caller folds into it); slots 1+ are the
/// persistent pool workers by spawn index.
pub const POOL_WORKER_SLOTS: usize = 32;

/// One pool participant's share of the sweep work: items it actually
/// ran, chunks it claimed beyond its first, and wall time spent inside
/// the map function. This is what makes the aggregate
/// `workers_active` high-water attributable.
#[derive(Debug, Default)]
pub struct PoolWorkerStats {
    /// Work items this participant executed.
    pub tasks: Counter,
    /// Chunks claimed beyond the participant's first (stolen work).
    pub steals: Counter,
    /// Wall time spent running claimed items (ns).
    pub busy_ns: Counter,
}

/// Persistent sweep-pool statistics, recorded by
/// `fefet_ckt::parallel::pool_map`.
#[derive(Debug)]
pub struct PoolStats {
    /// Pool sweeps dispatched (one per `pool_map` call that actually
    /// fanned out; inline fallbacks are not counted).
    pub sweeps: Counter,
    /// Work items executed across all pool sweeps.
    pub items: Counter,
    /// High-water mark: participants (caller + pool workers) observed
    /// running chunks of the same sweep concurrently.
    pub workers_active: Counter,
    /// Chunks a participant claimed beyond its first — work "stolen"
    /// from the static equal split by the self-scheduling counter.
    pub tasks_stolen: Counter,
    /// Per-participant breakdown (slot 0 = callers, 1+ = pool
    /// workers). Participants beyond [`POOL_WORKER_SLOTS`] fold into
    /// the last slot so nothing is ever lost.
    pub workers: Vec<PoolWorkerStats>,
}

impl Default for PoolStats {
    fn default() -> Self {
        Self {
            sweeps: Counter::new(),
            items: Counter::new(),
            workers_active: Counter::new(),
            tasks_stolen: Counter::new(),
            workers: (0..POOL_WORKER_SLOTS)
                .map(|_| PoolWorkerStats::default())
                .collect(),
        }
    }
}

impl PoolStats {
    /// The accounting slot for participant `idx` (0 = caller, 1+ =
    /// pool worker); out-of-range participants share the last slot.
    #[inline]
    pub fn worker(&self, idx: usize) -> Option<&PoolWorkerStats> {
        let last = self.workers.len().saturating_sub(1);
        self.workers.get(idx.min(last))
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"sweeps\":{},\"items\":{},\"workers_active\":{},\
             \"tasks_stolen\":{},\"workers\":[",
            self.sweeps.get(),
            self.items.get(),
            self.workers_active.get(),
            self.tasks_stolen.get(),
        );
        let mut first = true;
        for (i, w) in self.workers.iter().enumerate() {
            if w.tasks.get() == 0 && w.steals.get() == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "{{\"worker\":{i},\"tasks\":{},\"steals\":{},\"busy_ns\":{}}}",
                w.tasks.get(),
                w.steals.get(),
                w.busy_ns.get(),
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Latency distributions for the three profiled operations, recorded
/// only while a [`TraceRecorder`] is attached (see
/// [`Instrumentation::profile`]): plain counter-level instrumentation
/// never reads the clock per solve, which is what keeps its measured
/// overhead at the <2% the PR 4 bench pinned.
#[derive(Debug)]
pub struct LatencyStats {
    /// Wall time per Newton point solve (ns).
    pub solve_ns: QuantileHistogram,
    /// Wall time per accepted transient step (ns).
    pub transient_step_ns: QuantileHistogram,
    /// Wall time per pool work item (ns).
    pub pool_task_ns: QuantileHistogram,
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self {
            solve_ns: QuantileHistogram::latency_ns(),
            transient_step_ns: QuantileHistogram::latency_ns(),
            pool_task_ns: QuantileHistogram::latency_ns(),
        }
    }
}

impl LatencyStats {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"solve_ns\":{},\"transient_step_ns\":{},\"pool_task_ns\":{}}}",
            self.solve_ns.to_json(),
            self.transient_step_ns.to_json(),
            self.pool_task_ns.to_json(),
        )
    }
}

/// Memory-macro serving statistics, recorded by `fefet_mem::serving`.
///
/// Counters split the op stream by class and by fidelity; the per-class
/// histograms hold wall-clock service latency (ns per op, the row-level
/// operation's cost attributed to each op it served) and are recorded
/// whenever instrumentation is enabled — unlike [`LatencyStats`], they
/// do not wait for a trace recorder, because escalation-rate and p50/p99
/// service latency are first-class outputs of a serving run.
#[derive(Debug)]
pub struct ServingStats {
    /// Ops accepted (reads + writes + persists).
    pub ops: Counter,
    /// Read ops served.
    pub reads: Counter,
    /// Write ops served.
    pub writes: Counter,
    /// Persist ops served.
    pub persists: Counter,
    /// Ops that coalesced into an earlier same-row op in their window.
    pub coalesced: Counter,
    /// Batch windows executed.
    pub windows: Counter,
    /// Row-level operations actually performed (post-coalescing).
    pub row_ops: Counter,
    /// Row-level operations answered at macro fidelity (no solve).
    pub fast_path: Counter,
    /// Row-level operations escalated to the circuit solver.
    pub escalations: Counter,
    /// Escalations caused by an uncalibrated column (first touch).
    pub esc_first_touch: Counter,
    /// Escalations caused by a sense margin inside the guard band.
    pub esc_guard_band: Counter,
    /// Escalations caused by the disturb-stress accumulator threshold.
    pub esc_disturb: Counter,
    /// Escalations forced by configuration (`force_escalate`).
    pub esc_forced: Counter,
    /// Per-bank calibration-cache refreshes from escalated reads.
    pub calibration_refreshes: Counter,
    /// Bits where an escalated read corrected the macro-tracked word.
    pub word_corrections: Counter,
    /// Wall-clock service latency per read op (ns).
    pub read_ns: QuantileHistogram,
    /// Wall-clock service latency per write op (ns).
    pub write_ns: QuantileHistogram,
    /// Wall-clock service latency per persist op (ns).
    pub persist_ns: QuantileHistogram,
}

impl Default for ServingStats {
    fn default() -> Self {
        Self {
            ops: Counter::new(),
            reads: Counter::new(),
            writes: Counter::new(),
            persists: Counter::new(),
            coalesced: Counter::new(),
            windows: Counter::new(),
            row_ops: Counter::new(),
            fast_path: Counter::new(),
            escalations: Counter::new(),
            esc_first_touch: Counter::new(),
            esc_guard_band: Counter::new(),
            esc_disturb: Counter::new(),
            esc_forced: Counter::new(),
            calibration_refreshes: Counter::new(),
            word_corrections: Counter::new(),
            read_ns: QuantileHistogram::latency_ns(),
            write_ns: QuantileHistogram::latency_ns(),
            persist_ns: QuantileHistogram::latency_ns(),
        }
    }
}

impl ServingStats {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ops\":{},\"reads\":{},\"writes\":{},\"persists\":{},\
             \"coalesced\":{},\"windows\":{},\"row_ops\":{},\
             \"fast_path\":{},\"escalations\":{},\
             \"esc_first_touch\":{},\"esc_guard_band\":{},\
             \"esc_disturb\":{},\"esc_forced\":{},\
             \"calibration_refreshes\":{},\"word_corrections\":{},\
             \"read_ns\":{},\"write_ns\":{},\"persist_ns\":{}}}",
            self.ops.get(),
            self.reads.get(),
            self.writes.get(),
            self.persists.get(),
            self.coalesced.get(),
            self.windows.get(),
            self.row_ops.get(),
            self.fast_path.get(),
            self.escalations.get(),
            self.esc_first_touch.get(),
            self.esc_guard_band.get(),
            self.esc_disturb.get(),
            self.esc_forced.get(),
            self.calibration_refreshes.get(),
            self.word_corrections.get(),
            self.read_ns.to_json(),
            self.write_ns.to_json(),
            self.persist_ns.to_json(),
        )
    }
}

/// The domain aggregate: every stats group plus the span registry.
/// Shared across threads through an `Arc` inside [`Instrumentation`].
#[derive(Debug, Default)]
pub struct Telemetry {
    pub solver: SolverStats,
    pub steps: StepStats,
    pub array: ArrayStats,
    pub nvp: NvpStats,
    pub pool: PoolStats,
    pub serving: ServingStats,
    pub spans: SpanRegistry,
    /// Latency distributions, populated only while profiling (a trace
    /// recorder is attached).
    pub latency: LatencyStats,
    /// The profiling switch: set once by [`Telemetry::attach_trace`],
    /// read lock-free forever after.
    trace: OnceLock<Arc<TraceRecorder>>,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches (or returns the already-attached) trace recorder with
    /// `events_per_lane` ring slots per lane. Attaching is the single
    /// profiling switch: it turns on both trace-event recording and the
    /// [`LatencyStats`] clocks at every instrumented site sharing this
    /// aggregate.
    pub fn attach_trace(&self, events_per_lane: usize) -> Arc<TraceRecorder> {
        Arc::clone(
            self.trace
                .get_or_init(|| Arc::new(TraceRecorder::with_capacity(events_per_lane))),
        )
    }

    /// The attached trace recorder, if profiling is on. One lock-free
    /// `OnceLock` load.
    #[inline]
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.get().map(Arc::as_ref)
    }

    /// Serializes the full snapshot as one JSON object, suitable as a
    /// [`RunReport`] section.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!("{{\"solver\":{}", self.solver.to_json()));
        s.push_str(&format!(",\"steps\":{}", self.steps.to_json()));
        s.push_str(&format!(",\"array\":{}", self.array.to_json()));
        s.push_str(&format!(",\"nvp\":{}", self.nvp.to_json()));
        s.push_str(&format!(",\"pool\":{}", self.pool.to_json()));
        s.push_str(&format!(",\"serving\":{}", self.serving.to_json()));
        s.push_str(&format!(",\"latency\":{}", self.latency.to_json()));
        s.push_str(",\"spans\":{");
        for (i, (name, count, total_ns)) in self.spans.snapshot().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{}}}",
                json::escape(name),
                count,
                total_ns
            ));
        }
        s.push_str("}}");
        s
    }
}

/// The near-zero-cost instrumentation handle threaded through
/// `SolverOptions` (and from there `DcOptions` / `TransientOptions` /
/// `FefetArray`).
///
/// Defaults to **off** (`None`): the hot path pays one branch per
/// solve/step and records nothing. [`Instrumentation::enabled`] turns
/// it on with a fresh [`Telemetry`]; cloning the handle shares the same
/// underlying `Arc<Telemetry>`, which is how `pool_map` workers
/// aggregate into one snapshot.
#[derive(Debug, Clone, Default)]
pub struct Instrumentation(Option<Arc<Telemetry>>);

impl Instrumentation {
    /// The default no-op handle.
    pub fn off() -> Self {
        Self(None)
    }

    /// A handle backed by a fresh, empty [`Telemetry`].
    pub fn enabled() -> Self {
        Self(Some(Arc::new(Telemetry::new())))
    }

    /// A handle sharing an existing aggregate.
    pub fn shared(telemetry: Arc<Telemetry>) -> Self {
        Self(Some(telemetry))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The telemetry sink, if instrumentation is on. The recording
    /// idiom is `if let Some(tel) = instr.get() { … }` — the off path
    /// is a single `None` check.
    #[inline]
    pub fn get(&self) -> Option<&Telemetry> {
        self.0.as_deref()
    }

    /// The shared aggregate itself (for snapshotting after a run).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.0.as_ref()
    }

    /// The profiling gate: `Some` only when instrumentation is on
    /// *and* a trace recorder is attached. Hot paths call this once
    /// per operation — off (no handle, or counters-only) it is one or
    /// two lock-free checks with no clock read; on, the caller records
    /// trace events and latency samples through the returned pair.
    #[inline]
    pub fn profile(&self) -> Option<(&Telemetry, &TraceRecorder)> {
        let tel = self.0.as_deref()?;
        let tr = tel.trace()?;
        Some((tel, tr))
    }

    /// Opens a wall-time span; the returned guard records on drop. Off
    /// handles return a no-op guard without touching the clock.
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.0 {
            Some(tel) => SpanGuard::active(tel.spans.handle(name)),
            None => SpanGuard::noop(),
        }
    }
}

/// Handles compare by *identity* of the underlying aggregate: two off
/// handles are equal; two on handles are equal iff they share the same
/// `Arc<Telemetry>`. This keeps `SolverOptions: PartialEq` meaningful
/// (same config + same sink) without comparing live atomic state.
impl PartialEq for Instrumentation {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_default_and_records_nothing() {
        let instr = Instrumentation::default();
        assert!(!instr.is_enabled());
        assert!(instr.get().is_none());
        drop(instr.span("anything"));
        assert_eq!(instr, Instrumentation::off());
    }

    #[test]
    fn enabled_handle_aggregates_through_clones() {
        let instr = Instrumentation::enabled();
        let clone = instr.clone();
        if let Some(tel) = clone.get() {
            tel.solver.solves.inc();
            tel.solver.newton_iterations.record_usize(4);
        }
        let tel = instr.get().unwrap();
        assert_eq!(tel.solver.solves.get(), 1);
        assert_eq!(tel.solver.newton_iterations.count(), 1);
    }

    #[test]
    fn equality_is_sink_identity() {
        let a = Instrumentation::enabled();
        let b = Instrumentation::enabled();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_ne!(a, Instrumentation::off());
        assert_eq!(Instrumentation::off(), Instrumentation::default());
    }

    #[test]
    fn spans_record_through_the_handle() {
        let instr = Instrumentation::enabled();
        {
            let _g = instr.span("unit.test");
        }
        let snap = instr.get().unwrap().spans.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "unit.test");
        assert_eq!(snap[0].1, 1);
    }

    #[test]
    fn profiling_requires_both_handle_and_trace() {
        assert!(Instrumentation::off().profile().is_none());
        let instr = Instrumentation::enabled();
        assert!(
            instr.profile().is_none(),
            "counters-only instrumentation must not profile"
        );
        let tel = instr.get().unwrap();
        let tr = tel.attach_trace(64);
        let (tel2, tr2) = instr.profile().expect("profiling on after attach");
        assert!(std::ptr::eq(tel, tel2));
        assert_eq!(tr.capacity_per_lane(), 64);
        // Attach is idempotent: the first capacity wins.
        let again = tel.attach_trace(4096);
        assert_eq!(again.capacity_per_lane(), 64);
        tr2.instant(TraceEvent::Factor, 0);
        assert_eq!(tr.events_recorded(), 1, "handles share one recorder");
    }

    #[test]
    fn latency_stats_serialize_with_quantiles() {
        let tel = Telemetry::new();
        for i in 1..=100u64 {
            tel.latency.solve_ns.record_ns(i * 1000);
        }
        let j = tel.latency.to_json();
        assert!(json::validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"solve_ns\":{\"count\":100"), "{j}");
        let p50 = tel.latency.solve_ns.p50().unwrap();
        let p99 = tel.latency.solve_ns.p99().unwrap();
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    }

    #[test]
    fn pool_worker_slots_attribute_work() {
        let tel = Telemetry::new();
        if let Some(w) = tel.pool.worker(0) {
            w.tasks.add(5);
            w.busy_ns.add(1000);
        }
        if let Some(w) = tel.pool.worker(2) {
            w.tasks.add(3);
            w.steals.inc();
        }
        // Out-of-range participants fold into the last slot.
        if let Some(w) = tel.pool.worker(POOL_WORKER_SLOTS + 10) {
            w.tasks.inc();
        }
        let j = tel.pool.to_json();
        assert!(json::validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"worker\":0,\"tasks\":5"), "{j}");
        assert!(j.contains("\"worker\":2,\"tasks\":3,\"steals\":1"), "{j}");
        assert!(
            j.contains(&format!("\"worker\":{},\"tasks\":1", POOL_WORKER_SLOTS - 1)),
            "{j}"
        );
        // Idle slots are omitted from the JSON entirely.
        assert!(!j.contains("\"worker\":1,"), "{j}");
    }

    #[test]
    fn telemetry_snapshot_is_valid_json() {
        let tel = Telemetry::new();
        assert!(json::validate(&tel.to_json()).is_ok(), "{}", tel.to_json());

        tel.solver.solves.inc();
        tel.solver.newton_iterations.record_usize(3);
        tel.steps.accepted.add(10);
        tel.steps.dt_seconds.record(4e-12);
        tel.array.row_reads.inc();
        tel.array.read_margin_worst.update_min(42.0);
        tel.nvp.runs.inc();
        tel.nvp.backup_energy_j.add(1.5e-9);
        tel.solver.jacobian_reuses.add(7);
        tel.solver.stamp_passes.add(11);
        tel.solver.bypass_hits.add(3);
        tel.steps.predicted.add(9);
        tel.pool.sweeps.inc();
        tel.pool.workers_active.record_max(4);
        tel.pool.tasks_stolen.add(2);
        tel.serving.ops.add(1000);
        tel.serving.fast_path.add(990);
        tel.serving.escalations.add(10);
        tel.serving.read_ns.record_ns(250);
        let _ = tel.spans.handle("x");
        let j = tel.to_json();
        assert!(json::validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"solves\":1"));
        assert!(j.contains("\"accepted\":10"));
        assert!(j.contains("\"jacobian_reuses\":7"));
        assert!(j.contains("\"stamp_passes\":11"));
        assert!(j.contains("\"predicted\":9"));
        assert!(j.contains("\"workers_active\":4"));
        assert!(j.contains("\"fast_path\":990"));
        assert!(j.contains("\"x\":{\"count\":0"));
    }

    #[test]
    fn serving_stats_group_serializes_counters_and_quantiles() {
        let s = ServingStats::default();
        s.ops.add(12);
        s.reads.add(6);
        s.writes.add(5);
        s.persists.add(1);
        s.coalesced.add(2);
        s.windows.inc();
        s.row_ops.add(10);
        s.fast_path.add(9);
        s.escalations.inc();
        s.esc_guard_band.inc();
        s.calibration_refreshes.inc();
        for ns in [100u64, 200, 400] {
            s.read_ns.record_ns(ns);
        }
        let j = s.to_json();
        assert!(json::validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"ops\":12"), "{j}");
        assert!(j.contains("\"esc_guard_band\":1"), "{j}");
        assert!(j.contains("\"read_ns\":{\"count\":3"), "{j}");
        // Untouched classes still serialize (count 0), so report
        // consumers can rely on the keys being present.
        assert!(j.contains("\"persist_ns\":{\"count\":0"), "{j}");
    }

    #[test]
    fn empty_trackers_serialize_as_null_not_inf() {
        // ±inf has no JSON representation; an untouched min/max tracker
        // must not produce a malformed artifact.
        let j = ArrayStats::default().to_json();
        assert!(json::validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"read_margin_worst\":null"), "{j}");
    }

    #[test]
    fn shared_telemetry_across_worker_threads() {
        let instr = Instrumentation::enabled();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let worker = instr.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        if let Some(tel) = worker.get() {
                            tel.solver.solves.inc();
                            tel.solver.newton_iterations.record_usize(5);
                        }
                    }
                });
            }
        });
        let tel = instr.get().unwrap();
        assert_eq!(tel.solver.solves.get(), 100);
        assert_eq!(tel.solver.newton_iterations.count(), 100);
    }
}
