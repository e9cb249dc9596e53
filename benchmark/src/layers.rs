//! Per-layer attribution from the library's existing telemetry, read
//! from outside: span totals, solver/step/pool counters and the
//! latency histograms of a traced run.

use std::time::Instant;

use fefet_mem::array::FefetArray;
use fefet_telemetry::{QuantileHistogram, Telemetry};

use crate::report::Outcome;

/// Total time (ns) recorded under span `name`.
fn span_ns(tel: &Telemetry, name: &str) -> f64 {
    tel.spans
        .snapshot()
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |&(_, _, ns)| ns as f64)
}

/// Declares [`Snapshot`] from `field: reading` pairs, so each total is
/// named once.
macro_rules! snapshot {
    ($tel:ident => { $($field:ident: $read:expr,)* }) => {
        /// Cumulative telemetry totals at one instant. Two snapshots
        /// bracket a timed pass, so set-up work recorded into the same
        /// aggregate (bank calibration, the yield bootstrap) stays out
        /// of per-op figures.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Snapshot {
            $(pub $field: f64,)*
        }

        impl Snapshot {
            pub fn take($tel: &Telemetry) -> Self {
                Snapshot { $($field: $read,)* }
            }

            /// Totals accumulated between `earlier` and `self`.
            pub fn since(&self, earlier: &Snapshot) -> Snapshot {
                Snapshot { $($field: self.$field - earlier.$field,)* }
            }
        }
    };
}

snapshot!(tel => {
    read_row_ns: span_ns(tel, "array.read_row"),
    write_row_ns: span_ns(tel, "array.write_row"),
    transient_ns: span_ns(tel, "ckt.transient"),
    solve_ns: tel.latency.solve_ns.sum(),
    pool_task_ns: tel.latency.pool_task_ns.sum(),
    solves: tel.solver.solves.get() as f64,
    failed_solves: tel.solver.failures.get() as f64,
    newton_iters: tel.solver.newton_iterations.sum(),
    back_substitutions: tel.solver.back_substitutions.get() as f64,
    dense_factors: tel.solver.dense_factors.get() as f64,
    sparse_factors: tel.solver.sparse_refactors.get() as f64,
    bbd_factors: tel.solver.bbd_refactors.get() as f64,
    jacobian_reuses: tel.solver.jacobian_reuses.get() as f64,
    bypass_hits: tel.solver.bypass_hits.get() as f64,
    bypass_misses: tel.solver.bypass_misses.get() as f64,
    symbolic_analyses: tel.solver.sparse_symbolic_analyses.get() as f64,
    analysis_cache_hits: tel.solver.analysis_cache_hits.get() as f64,
    steps: tel.steps.accepted.get() as f64,
    rejected_steps: (tel.steps.rejected_newton.get() + tel.steps.rejected_lte.get()) as f64,
    pool_tasks: tel.pool.workers.iter().map(|w| w.tasks.get() as f64).sum(),
    pool_steals: tel.pool.tasks_stolen.get() as f64,
    pool_busy_ns: tel.pool.workers.iter().map(|w| w.busy_ns.get() as f64).sum(),
});

impl Snapshot {
    fn factors(&self) -> f64 {
        self.dense_factors + self.sparse_factors + self.bbd_factors
    }
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean duration (s) of the named span over everything `tel` recorded,
/// or 0 when the span never ran.
pub fn span_mean_s(tel: &Telemetry, name: &str) -> f64 {
    tel.spans
        .snapshot()
        .iter()
        .find(|(n, _, _)| n == name)
        .map_or(0.0, |&(_, count, ns)| ratio(ns as f64 * 1e-9, count as f64))
}

/// Self-times of nested layers from their inclusive totals, outermost
/// first: `wall` is the outermost total, each entry of `inner` lies
/// inside the one before it. Self-time is a layer's total minus the
/// next layer's, and the innermost layer's total is all self.
///
/// # Errors
///
/// A negative self-time (an inner layer claims more time than its
/// parent), or self-times that do not sum to `wall` within 5%.
pub fn self_times(wall: f64, inner: &[f64]) -> Result<Vec<f64>, String> {
    let mut totals = vec![wall];
    totals.extend_from_slice(inner);
    let selfs: Vec<f64> = totals
        .iter()
        .enumerate()
        .map(|(i, t)| t - totals.get(i + 1).copied().unwrap_or(0.0))
        .collect();
    if let Some((i, s)) = selfs
        .iter()
        .enumerate()
        .find(|(_, s)| s.is_nan() || **s < 0.0)
    {
        return Err(format!(
            "layer {i} self-time {s:e} s is negative (totals {totals:?})"
        ));
    }
    let sum: f64 = selfs.iter().sum();
    if sum.is_nan() || (sum - wall).abs() > 0.05 * wall {
        return Err(format!("self-times sum to {sum:e} s, wall is {wall:e} s"));
    }
    Ok(selfs)
}

/// The `q`-quantile of a latency histogram in seconds, or 0 when it
/// holds no samples. The histogram's buckets are about ±15% wide, so
/// these figures attribute time to layers; end-to-end latencies come
/// from exact samples instead.
///
/// # Errors
///
/// When fewer than [`crate::stats::MIN_BEYOND`] samples lie beyond the
/// quantile.
pub fn quantile_s(h: &QuantileHistogram, q: f64) -> Result<f64, String> {
    let n = h.count();
    if n == 0 {
        return Ok(0.0);
    }
    let rank = (q * n as f64).ceil() as u64;
    if n - rank.min(n) < crate::stats::MIN_BEYOND as u64 {
        return Err(format!(
            "q{q} of {n} histogram samples has too few beyond it"
        ));
    }
    Ok(h.quantile(q).unwrap_or(0.0) * 1e-9)
}

/// Newton, backend and transient-step metrics of a timed pass of `ops`
/// operations (`d`, a snapshot delta), plus the process-wide latency
/// quantiles of `tel`.
///
/// # Errors
///
/// As for [`quantile_s`].
pub fn engine_metrics(
    out: &mut Outcome,
    tel: &Telemetry,
    d: &Snapshot,
    ops: f64,
) -> Result<(), String> {
    let factors = d.factors();
    out.metric("engine.newton_s_per_op", ratio(d.solve_ns * 1e-9, ops));
    out.metric(
        "engine.solves_per_op",
        ratio(d.solves + d.failed_solves, ops),
    );
    out.metric("engine.iters_per_solve", ratio(d.newton_iters, d.solves));
    out.metric("engine.factors_per_op", ratio(factors, ops));
    out.metric("engine.bbd_factor_frac", ratio(d.bbd_factors, factors));
    out.metric(
        "engine.jacobian_reuse_frac",
        ratio(d.jacobian_reuses, d.back_substitutions),
    );
    out.metric(
        "engine.bypass_hit_frac",
        ratio(d.bypass_hits, d.bypass_hits + d.bypass_misses),
    );
    out.metric("engine.symbolic_analyses", d.symbolic_analyses);
    out.metric("engine.analysis_cache_hits", d.analysis_cache_hits);
    out.metric("engine.failed_solves", d.failed_solves);
    out.metric("transient.steps_per_op", ratio(d.steps, ops));
    out.metric("transient.rejected_per_op", ratio(d.rejected_steps, ops));
    // Quantiles are reported for layers the pass exercised; set-up work
    // recorded into the same histograms (the yield bootstrap) is
    // included, a pass without solves (`serve_fast`) reports none.
    if d.solves + d.failed_solves > 0.0 {
        out.metric(
            "engine.solve_p50_s",
            quantile_s(&tel.latency.solve_ns, 0.50)?,
        );
        out.metric(
            "engine.solve_p99_s",
            quantile_s(&tel.latency.solve_ns, 0.99)?,
        );
    }
    if d.steps > 0.0 {
        out.metric(
            "transient.step_p50_s",
            quantile_s(&tel.latency.transient_step_ns, 0.50)?,
        );
    }
    Ok(())
}

/// Median time to build `array`'s read netlist. The build happens
/// before the `array.read_row` span opens, so it is timed here on its
/// own.
///
/// # Errors
///
/// A netlist construction error.
pub fn netlist_build_s(array: &FefetArray, t_read_s: f64) -> Result<f64, String> {
    let samples = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let c = array
                .read_circuit(0, t_read_s)
                .map_err(|e| format!("read netlist: {e}"))?;
            let dt = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(c));
            Ok(dt)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(crate::stats::median(&samples))
}

/// Trace-buffer health: a run whose recorder wrapped lost events, so
/// its per-layer figures are incomplete and the run fails.
pub fn trace_metrics(out: &mut Outcome, tel: &Telemetry, overhead_frac: f64) {
    let dropped = tel.trace().map_or(0, |t| t.dropped());
    let recorded = tel.trace().map_or(0, |t| t.events_recorded());
    out.metric("trace.overhead_frac", overhead_frac);
    out.metric("trace.dropped", dropped as f64);
    out.detail("trace_events", "count", recorded as f64);
    out.check("trace recorder dropped no events", dropped == 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope() {
        let s = self_times(10.0, &[8.0, 5.0, 1.0]).expect("nested totals");
        assert_eq!(s, vec![2.0, 3.0, 4.0, 1.0]);
        assert!(
            self_times(10.0, &[8.0, 9.0]).is_err(),
            "child exceeds parent"
        );
        assert!(self_times(10.0, &[f64::NAN]).is_err());
        assert_eq!(self_times(3.0, &[]).expect("one layer"), vec![3.0]);
    }

    #[test]
    fn quantiles_need_a_tail() {
        let h = QuantileHistogram::latency_ns();
        assert_eq!(quantile_s(&h, 0.5), Ok(0.0));
        for i in 1..=50u64 {
            h.record_ns(i * 1000);
        }
        assert!(quantile_s(&h, 0.5).is_ok());
        assert!(quantile_s(&h, 0.99).is_err());
    }

    #[test]
    fn snapshot_deltas_isolate_a_pass() {
        let tel = Telemetry::new();
        tel.solver.solves.add(5);
        let before = Snapshot::take(&tel);
        tel.solver.solves.add(7);
        tel.latency.solve_ns.record_ns(2_000);
        let d = Snapshot::take(&tel).since(&before);
        assert_eq!(d.solves, 7.0);
        assert_eq!(d.solve_ns, 2_000.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
