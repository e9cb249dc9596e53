//! The `yield_mc` workload: Monte Carlo yield studies on a 16×16 FEFET
//! array through `YieldEngine::run`, two pool threads, one study after
//! another (a closed loop with one client).

use std::time::Instant;

use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_mem::yield_engine::{YieldEngine, YieldReport, YieldSpec};
use fefet_numerics::rng::Rng;
use fefet_telemetry::Instrumentation;

use crate::host::{HostSpeed, Samples};
use crate::layers::{self, ratio, Snapshot};
use crate::report::Outcome;
use crate::stats::{median, percentile, MIN_SAMPLES};

const ROWS: usize = 16;
/// Trials per study: small enough that a run holds the
/// [`MIN_SAMPLES`] studies its median latency needs.
const TRIALS_PER_STUDY: usize = 128;
/// Pool threads, each a CPU the workload keeps busy.
pub const THREADS: usize = 2;
/// Studies in a traced pass: 1024 trials, so the trial p99 has ten
/// samples beyond it.
const TRACE_STUDIES: usize = 8;
/// Trace ring slots per lane (a traced pass records about 30,000
/// events across all lanes).
const TRACE_EVENTS_PER_LANE: usize = 1 << 18;

fn spec(seed: u64) -> YieldSpec {
    YieldSpec {
        rows: ROWS,
        cols: ROWS,
        n_trials: TRIALS_PER_STUDY,
        seed,
        threads: THREADS,
        ..YieldSpec::default()
    }
}

fn engine(spec: &YieldSpec, instr: &Instrumentation) -> Result<YieldEngine, String> {
    YieldEngine::new(FefetCell::default(), spec.clone(), instr.clone())
        .map_err(|e| format!("yield engine construction: {e}"))
}

/// The invariants `examples/yield_study.rs` checks on its artifact.
fn study_problems(y: &YieldReport, spec: &YieldSpec) -> Vec<&'static str> {
    let clean = y.n_trials.saturating_sub(y.solver_failures);
    let unit = |v: f64| (0.0..=1.0).contains(&v);
    let checks: [(&'static str, bool); 8] = [
        ("trial count", y.n_trials == spec.n_trials),
        ("margin samples == clean trials", y.margin.n == clean as u64),
        ("read yield in [0,1]", unit(y.read_yield)),
        ("write yield in [0,1]", unit(y.write_yield)),
        ("disturb yield in [0,1]", unit(y.disturb_yield)),
        ("nominal margin finite", y.nominal_margin.is_finite()),
        (
            "shmoo grid sized",
            y.shmoo_pass_counts.len() == y.shmoo_nv * y.shmoo_nt,
        ),
        ("worst corner present", clean == 0 || y.worst.is_some()),
    ];
    checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| *what)
        .collect()
}

/// What a sequence of studies produced.
#[derive(Debug, Default)]
struct Studies {
    setup: Samples,
    latencies: Samples,
    trials: u64,
    solver_failures: u64,
    problems: Vec<&'static str>,
    digest: crate::stats::Digest,
}

impl Studies {
    fn fold(&mut self, y: &YieldReport, spec: &YieldSpec) {
        self.trials += y.n_trials as u64;
        self.solver_failures += y.solver_failures as u64;
        self.problems.extend(study_problems(y, spec));
        self.digest
            .bytes(y.to_run_report(spec).to_json().as_bytes());
    }

    fn checks(&self, out: &mut Outcome) {
        for p in &self.problems {
            eprintln!("yield check failed: {p}");
        }
        out.check(
            "every study passes the yield_study invariants",
            self.problems.is_empty(),
        );
    }
}

/// The untraced run. Each study gets its own counters-only
/// instrumentation (the yield study example's setting) so the run can
/// check that it performed exactly one symbolic analysis.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut seeds = Rng::seed_from_u64(seed);
    let mut s = Studies::default();
    let mut one_analysis = true;
    let mut host = HostSpeed::start(THREADS);
    let t_run = Instant::now();
    while s.latencies.len() < MIN_SAMPLES || t_run.elapsed().as_secs_f64() < seconds {
        let spec = spec(seeds.next_u64());
        let instr = Instrumentation::enabled();
        let t0 = Instant::now();
        let engine = engine(&spec, &instr)?;
        s.setup.push(&host, t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let y = engine.run();
        s.latencies.push(&host, t1.elapsed().as_secs_f64());
        s.fold(&y, &spec);
        one_analysis &= instr
            .get()
            .is_some_and(|t| t.solver.sparse_symbolic_analyses.get() == 1);
        host.tick();
    }
    host.probe();
    let mut out = Outcome {
        attempted: s.trials,
        digest: s.digest,
        host_factor: Some(host.factor()),
        ..Outcome::default()
    };
    s.checks(&mut out);
    out.check(
        "each study runs exactly one symbolic analysis",
        one_analysis,
    );
    let lat = s.latencies.normalized(&host);
    let raw = s.latencies.raw();
    out.metric("setup_s", median(&s.setup.normalized(&host)));
    out.metric("ops_per_s", s.trials as f64 / lat.iter().sum::<f64>());
    out.metric("latency_p50_s", percentile(&lat, 50.0)?);
    out.metric("peak_rss_mb", crate::sys::peak_rss_mb()?);
    out.detail("raw_setup_s", "s", median(&s.setup.raw()));
    out.detail(
        "raw_ops_per_s",
        "ops/s",
        s.trials as f64 / raw.iter().sum::<f64>(),
    );
    out.detail("raw_latency_p50_s", "s", percentile(&raw, 50.0)?);
    out.detail("studies", "count", lat.len() as f64);
    out.detail("trials_per_study", "count", TRIALS_PER_STUDY as f64);
    out.detail(
        "solver_failure_frac",
        "1",
        ratio(s.solver_failures as f64, s.trials as f64),
    );
    Ok(out)
}

/// Runs `n` studies under `instr`: engines are built first, so the
/// returned snapshot delta covers `run()` alone.
fn studies_under(
    seed: u64,
    n: usize,
    instr: &Instrumentation,
    host: &mut HostSpeed,
) -> Result<(Studies, Snapshot), String> {
    let mut seeds = Rng::seed_from_u64(seed);
    let specs: Vec<YieldSpec> = (0..n).map(|_| spec(seeds.next_u64())).collect();
    let engines = specs
        .iter()
        .map(|spec| engine(spec, instr))
        .collect::<Result<Vec<_>, _>>()?;
    let tel = instr.get().ok_or("instrumentation is off")?;
    let before = Snapshot::take(tel);
    let mut s = Studies::default();
    for (engine, spec) in engines.iter().zip(&specs) {
        let t0 = Instant::now();
        let y = engine.run();
        s.latencies.push(host, t0.elapsed().as_secs_f64());
        s.fold(&y, spec);
        host.tick();
    }
    host.probe();
    Ok((s, Snapshot::take(tel).since(&before)))
}

/// The traced run: the same studies untraced, then traced, with the
/// pool / yield-engine / Newton breakdown of the traced pass.
pub fn trace(seed: u64) -> Result<Outcome, String> {
    // One study first starts the pool and warms the allocator, which
    // would otherwise bill the untraced pass for them.
    let mut base_host = HostSpeed::start(THREADS);
    studies_under(!seed, 1, &Instrumentation::enabled(), &mut base_host)?;
    let counters = Instrumentation::enabled();
    let (base, _) = studies_under(seed, TRACE_STUDIES, &counters, &mut base_host)?;
    let instr = Instrumentation::enabled();
    let tel = instr.telemetry().ok_or("instrumentation is off")?.clone();
    tel.attach_trace(TRACE_EVENTS_PER_LANE);
    let mut host = HostSpeed::start(THREADS);
    let (s, d) = studies_under(seed, TRACE_STUDIES, &instr, &mut host)?;
    let wall: f64 = s.latencies.raw().iter().sum();

    let mut out = Outcome {
        attempted: s.trials,
        digest: s.digest,
        host_factor: Some(host.factor()),
        ..Outcome::default()
    };
    s.checks(&mut out);
    out.check(
        "tracing leaves the yield reports unchanged",
        base.digest.hex() == s.digest.hex(),
    );
    out.check(
        "each study runs exactly one symbolic analysis",
        tel.solver.sparse_symbolic_analyses.get() == TRACE_STUDIES as u64,
    );
    let trials = s.trials as f64;
    let threads = THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    // Participant time: every pool participant's share of the wall,
    // split into pool overhead/idle, trial bodies outside Newton, and
    // Newton solves.
    let capacity = threads as f64 * wall;
    let selfs = layers::self_times(capacity, &[d.pool_task_ns * 1e-9, d.solve_ns * 1e-9]);
    out.check(
        "layer self-times are non-negative and sum to run() wall",
        selfs.is_ok(),
    );
    let selfs = selfs.unwrap_or_else(|e| {
        eprintln!("{e}");
        vec![0.0; 3]
    });
    out.metric("parallel.busy_frac", ratio(d.pool_busy_ns * 1e-9, capacity));
    out.metric("parallel.tasks", d.pool_tasks);
    out.metric("parallel.steals", d.pool_steals);
    out.metric(
        "yield_engine.trial_p50_s",
        layers::quantile_s(&tel.latency.pool_task_ns, 0.50)?,
    );
    out.metric(
        "yield_engine.trial_p99_s",
        layers::quantile_s(&tel.latency.pool_task_ns, 0.99)?,
    );
    out.metric("yield_engine.self_s_per_trial", ratio(selfs[1], trials));
    out.metric(
        "yield_engine.newton_iters_per_trial",
        ratio(d.newton_iters, trials),
    );
    let array = FefetArray::new(ROWS, ROWS, FefetCell::default());
    out.metric(
        "array.netlist_build_s",
        layers::netlist_build_s(&array, 3e-9)?,
    );
    layers::engine_metrics(&mut out, &tel, &d, trials)?;
    out.detail("pool_idle_s", "s", selfs[0]);
    out.scale_times(host.factor());
    let traced: f64 = s.latencies.normalized(&host).iter().sum();
    let untraced: f64 = base.latencies.normalized(&base_host).iter().sum();
    layers::trace_metrics(&mut out, &tel, traced / untraced - 1.0);
    out.detail("untraced_wall_s", "s", untraced);
    out.detail("traced_wall_s", "s", traced);
    Ok(out)
}
