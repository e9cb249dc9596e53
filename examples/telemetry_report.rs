//! Observability smoke + artifact: runs the 16×16 array sweep with
//! full profiling on (instrumentation + trace recorder), provokes a
//! Newton failure for its structured [`ConvergenceReport`], runs the
//! NVP simulator against a harvesting trace, and writes:
//!
//! - `BENCH_telemetry.json` — the aggregate run report, whose
//!   `telemetry` section nests the self-checked `latency` quantiles
//!   (solve / transient-step / pool-task), plus the tracing-overhead
//!   A/B bench;
//! - `TRACE_telemetry.json` — a Chrome trace-event dump of the run,
//!   openable in `chrome://tracing` or <https://ui.perfetto.dev>, with
//!   one lane per recording thread.
//!
//! CI runs this example and fails the build if either artifact is
//! malformed JSON, any expected histogram recorded zero samples, fewer
//! than two trace lanes appear, or profiling costs the 16×16 row
//! workload more than 5% over the counters-only baseline.
//!
//! Run with `cargo run --release --example telemetry_report`.

use fefet::ckt::circuit::Circuit;
use fefet::ckt::dc::{dc_operating_point, DcOptions};
use fefet::ckt::engine::SolverOptions;
use fefet::ckt::waveform::Waveform;
use fefet::ckt::CktError;
use fefet::mem::array::FefetArray;
use fefet::mem::cell::FefetCell;
use fefet::mem::NvmParams;
use fefet::numerics::rng::Rng;
use fefet::nvp::harvester::PowerTrace;
use fefet::nvp::processor::{simulate_with, NvpConfig};
use fefet::nvp::workload::mibench_suite;
use fefet::telemetry::{json, Instrumentation, RunReport};
use fefet_bench::tinybench;

const ROWS: usize = 16;
const COLS: usize = 16;
/// Shortest read window that still digitizes correctly (see the bench
/// suite's `seeded` fixture, which this mirrors).
const T_READ: f64 = 0.3e-9;

/// The bench suite's seeded 16×16 array: coarsened 40 ps grid, stored
/// polarizations from a fixed-seed RNG so the workload is reproducible.
fn seeded_array(instr: &Instrumentation) -> FefetArray {
    let mut a = FefetArray::new(ROWS, COLS, FefetCell::default());
    a.cell.dt = 40e-12;
    a.instr = instr.clone();
    let (p_lo, p_hi) = a.memory_states();
    let mut rng = Rng::seed_from_u64(0x8a_8a);
    for i in 0..ROWS {
        for j in 0..COLS {
            let bit = rng.uniform() > 0.5;
            a.set_polarization(i, j, if bit { p_hi } else { p_lo });
        }
    }
    a
}

/// A diode clamp starved to two Newton iterations: deterministically
/// non-convergent, so the solver must surface a populated
/// [`fefet::telemetry::ConvergenceReport`].
fn provoke_convergence_report(instr: &Instrumentation) -> Result<String, String> {
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
    c.resistor("R1", a, b, 1e3);
    c.diode("D1", b, Circuit::GND, 1e-14, 1.0);
    let opts = DcOptions {
        solver: SolverOptions {
            max_newton: 2,
            instr: instr.clone(),
            ..SolverOptions::default()
        },
        ..DcOptions::default()
    };
    match dc_operating_point(&c, opts) {
        Err(CktError::NewtonExhausted { report, .. }) => {
            if report.worst_residual <= 0.0 {
                return Err("convergence report carries no residual".into());
            }
            if report.gmin_trajectory.is_empty() {
                return Err("convergence report lost its gmin trajectory".into());
            }
            println!("provoked failure: {report}");
            Ok(report.to_json())
        }
        other => Err(format!(
            "starved diode clamp should fail with NewtonExhausted, got {other:?}"
        )),
    }
}

/// Two named worker threads each solving the starved-free diode clamp
/// against the shared profiled handle, so the Chrome trace carries
/// worker lanes beyond the main thread even on a single-core host
/// (where the sweep pool runs inline on the caller).
fn spawn_worker_lanes(instr: &Instrumentation) -> Result<(), String> {
    let handles: Vec<_> = (0..2)
        .map(|w| {
            let instr = instr.clone();
            std::thread::Builder::new()
                .name(format!("trace-worker-{w}"))
                .spawn(move || {
                    let mut c = Circuit::new();
                    let a = c.node("a");
                    let b = c.node("b");
                    c.vsource("V1", a, Circuit::GND, Waveform::dc(1.5));
                    c.resistor("R1", a, b, 1e3);
                    c.diode("D1", b, Circuit::GND, 1e-14, 1.0);
                    let opts = DcOptions {
                        solver: SolverOptions {
                            instr,
                            ..SolverOptions::default()
                        },
                        ..DcOptions::default()
                    };
                    dc_operating_point(&c, opts).map(|_| ())
                })
                .map_err(|e| format!("spawning trace worker {w}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    for h in handles {
        h.join()
            .map_err(|_| "trace worker panicked".to_string())?
            .map_err(|e| format!("trace worker solve: {e}"))?;
    }
    Ok(())
}

/// Interleaved A/B: the same seeded-array row write+read once with
/// counters-only instrumentation and once fully profiled (trace
/// recorder attached, so every solve/step/pool-task reads the clock and
/// pushes ring events). Returns the tinybench report and the measured
/// overhead fraction `profiled/counters - 1`.
fn overhead_pair() -> Result<(tinybench::Report, f64), String> {
    let data: Vec<bool> = (0..COLS).map(|j| j % 3 != 0).collect();
    let off_instr = Instrumentation::enabled();
    let mut off_array = seeded_array(&off_instr);
    let on_instr = Instrumentation::enabled();
    on_instr
        .get()
        .ok_or("profiled handle is off")?
        .attach_trace(16 * 1024);
    let mut on_array = seeded_array(&on_instr);

    let mut report = tinybench::Report::new();
    report.bench_pair(
        "row_write_read_16x16/counters",
        "row_write_read_16x16/profiled",
        || {
            off_array.write_row(0, &data, 1.0e-9).ok();
            tinybench::opaque(off_array.read_row(0, T_READ).ok())
        },
        || {
            on_array.write_row(0, &data, 1.0e-9).ok();
            tinybench::opaque(on_array.read_row(0, T_READ).ok())
        },
    );
    let off = report
        .min_of("row_write_read_16x16/counters")
        .ok_or("counters sample missing")?;
    let on = report
        .min_of("row_write_read_16x16/profiled")
        .ok_or("profiled sample missing")?;
    Ok((report, on / off.max(1e-12) - 1.0))
}

fn run() -> Result<(), String> {
    let instr = Instrumentation::enabled();
    let recorder = instr
        .get()
        .ok_or("instrumentation handle is off")?
        .attach_trace(16 * 1024);

    // 1. Array sweep: one row write, then every row read (parallel
    //    workers share the same telemetry sink).
    let mut array = seeded_array(&instr);
    let data: Vec<bool> = (0..COLS).map(|j| j % 3 != 0).collect();
    array
        .write_row(0, &data, 1.0e-9)
        .map_err(|e| format!("write_row: {e}"))?;
    let reads = array
        .read_all_rows(T_READ, 0)
        .map_err(|e| format!("read_all_rows: {e}"))?;
    let row0: Vec<bool> = reads[0].bits.clone();
    if row0 != data {
        return Err(format!("row 0 read back {row0:?}, wrote {data:?}"));
    }
    println!("array sweep: wrote 1 row, read {} rows", reads.len());

    // 2. A deliberately failing solve, for the diagnostics section.
    let convergence = provoke_convergence_report(&instr)?;

    // 3. NVP: intermittent harvesting over the FEFET backup block.
    let mut segs = Vec::new();
    for _ in 0..20 {
        segs.push((300e-6, 300e-6));
        segs.push((500e-6, 0.0));
    }
    let trace = PowerTrace::from_segments(segs);
    let cfg = NvpConfig::with_nvm(NvmParams::paper_fefet());
    let nvp_run = simulate_with(&cfg, &trace, &mibench_suite()[0], &instr);
    println!(
        "nvp: forward progress {:.3}, {} backups / {} restores",
        nvp_run.forward_progress, nvp_run.backups, nvp_run.restores
    );

    // 4. Extra trace lanes: two named worker threads recording into
    //    the same ring set.
    spawn_worker_lanes(&instr)?;

    // Assemble and self-check the artifact.
    let tel = instr.get().ok_or("instrumentation handle is off")?;
    let lat = &tel.latency;
    let checks: &[(&str, bool)] = &[
        ("solve latency recorded", lat.solve_ns.count() > 0),
        (
            "transient-step latency recorded",
            lat.transient_step_ns.count() > 0,
        ),
        ("pool-task latency recorded", lat.pool_task_ns.count() > 0),
        ("solve p50 <= p99", lat.solve_ns.p50() <= lat.solve_ns.p99()),
        (
            "step p50 <= p99",
            lat.transient_step_ns.p50() <= lat.transient_step_ns.p99(),
        ),
        ("trace recorded events", recorder.events_recorded() > 0),
        (
            "trace has main + 2 worker lanes",
            recorder.lanes_claimed() >= 3,
        ),
        ("row_writes == 1", tel.array.row_writes.get() == 1),
        (
            "row_reads == ROWS",
            tel.array.row_reads.get() == ROWS as u64,
        ),
        (
            "newton_iterations histogram nonempty",
            tel.solver.newton_iterations.count() > 0,
        ),
        (
            "residual_at_convergence histogram nonempty",
            tel.solver.residual_at_convergence.count() > 0,
        ),
        (
            "dt_seconds histogram nonempty",
            tel.steps.dt_seconds.count() > 0,
        ),
        ("steps accepted", tel.steps.accepted.get() > 0),
        (
            "sparse refactors counted",
            tel.solver.sparse_refactors.get() > 0,
        ),
        (
            "read margin tracked",
            tel.array.read_margin_worst.get().is_finite(),
        ),
        ("solver failures counted", tel.solver.failures.get() > 0),
        ("nvp runs counted", tel.nvp.runs.get() == 1),
    ];
    for (what, ok) in checks {
        if !ok {
            return Err(format!("telemetry check failed: {what}"));
        }
    }

    let mut report = RunReport::new("telemetry_16x16_sweep");
    report.meta("rows", &ROWS.to_string());
    report.meta("cols", &COLS.to_string());
    report.meta("t_read_s", &format!("{T_READ:e}"));
    report.meta(
        "workloads",
        "array write+sweep, starved diode clamp, nvp odab",
    );
    report.section("telemetry", tel.to_json());
    report.section("convergence_failure", convergence);

    // 5. Tracing-overhead gate: profiled vs counters-only on the same
    //    row workload, batches interleaved so host-load drift cancels.
    //    Smoke mode runs each side once — no statistical weight, so the
    //    pair (and its hard 5% assert) is skipped entirely.
    if !tinybench::smoke() {
        let (bench, overhead) = overhead_pair()?;
        println!(
            "tracing overhead on row workload: {:+.2}%",
            overhead * 100.0
        );
        report.meta("tracing_overhead_frac", &format!("{overhead:.4}"));
        report.section("overhead_bench", bench.to_json("telemetry_overhead"));
        if overhead >= 0.05 {
            return Err(format!(
                "profiling overhead {:.2}% exceeds the 5% budget",
                overhead * 100.0
            ));
        }
    }

    let body = report.to_json();
    json::validate(&body).map_err(|e| format!("artifact is malformed JSON: {e}"))?;

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_telemetry.json");
    report
        .write_json(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());

    // 6. Chrome trace artifact: validate before writing, and prove the
    //    worker lanes actually made it into the export.
    let chrome = recorder.to_chrome_json();
    json::validate(&chrome).map_err(|e| format!("Chrome trace is malformed JSON: {e}"))?;
    for lane in ["trace-worker-0", "trace-worker-1"] {
        if !chrome.contains(lane) {
            return Err(format!("Chrome trace lost worker lane {lane:?}"));
        }
    }
    let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("TRACE_telemetry.json");
    recorder
        .write_chrome_json(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "wrote {} ({} events, {} lanes, {} dropped)",
        trace_path.display(),
        recorder.events_recorded(),
        recorder.lanes_claimed(),
        recorder.dropped()
    );
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("telemetry_report: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
