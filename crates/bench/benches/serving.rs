//! Performance bench for the memory-macro serving layer: warm
//! fast-path throughput on a calibrated 64×64 FEFET bank under mixed
//! read/write/persist traffic, against the force-escalated baseline
//! that routes every row operation through the circuit solvers.
//!
//! Three hard gates run in every mode (including `TINYBENCH_SMOKE=1`):
//!
//! 1. fast-path throughput ≥ 1e5 ops/s at 64×64 mixed traffic,
//! 2. fast path ≥ 10× the force-escalate ops/s,
//! 3. escalation rate < 5% on a calibrated bank (exactly the guard
//!    the serving report self-validates).
//!
//! A full run writes `BENCH_serving.json` at the repository root (the
//! committed baseline); `TINYBENCH_SMOKE=1` runs every workload once
//! and writes nothing.

use fefet_bench::tinybench::{smoke, Report};
use fefet_mem::cell::FefetCell;
use fefet_mem::macro_model::MacroConfig;
use fefet_mem::serving::{Bank, MemOp, MemoryService, ServeSpec};
use fefet_telemetry::Instrumentation;

const ROWS: usize = 64;
const COLS: usize = 64;

/// Deterministic mixed traffic (≈1/3 writes, 1/3 reads, 1/3 persists)
/// over every row of bank 0, with enough same-row locality inside the
/// default 64-op window for coalescing to matter.
fn mixed_stream(n: usize) -> Vec<MemOp> {
    let mut ops = Vec::with_capacity(n);
    let mut x = 0x5e12_5e2d_u64;
    for _ in 0..n {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let row = ((x >> 45) % ROWS as u64) as u32;
        let word = x >> 7;
        ops.push(match (x >> 61) % 3 {
            0 => MemOp::Write { bank: 0, row, word },
            1 => MemOp::Read { bank: 0, row },
            _ => MemOp::Persist { bank: 0, row },
        });
    }
    ops
}

/// A serving service over one calibrated 64×64 FEFET bank.
fn calibrated_service(spec: ServeSpec) -> MemoryService {
    let mut svc = MemoryService::new(spec, Instrumentation::off()).expect("service");
    let bank =
        Bank::fefet(MacroConfig::fefet(ROWS, COLS), FefetCell::default()).expect("fefet bank");
    svc.add_bank(bank);
    svc.calibrate_bank(0).expect("calibrate");
    svc
}

fn main() {
    let mut report = Report::new();
    let fast_ops = if smoke() { 20_000 } else { 100_000 };

    // --- Fast path: warm macro serving of mixed traffic. -------------
    let mut svc = calibrated_service(ServeSpec::default());
    let ops = mixed_stream(fast_ops);
    let mut out = Vec::new();
    // Warm the scratch so the measured loop is the steady state.
    let warm_summary = svc.serve(&ops, &mut out).expect("warm serve");
    warm_summary.validate().expect("warm summary invariants");
    let fast_name = format!("serving_fast_path_{ROWS}x{COLS}_{fast_ops}ops");
    report.bench(&fast_name, || svc.serve(&ops, &mut out).expect("serve"));
    report.annotate(&fast_name, (ROWS * COLS) as u64, None);

    // Hard gate 3: a calibrated bank under default-spec mixed traffic
    // must stay on the fast path (<5% escalation; in practice 0).
    let mut fresh = calibrated_service(ServeSpec::default());
    let summary = fresh.serve(&ops, &mut out).expect("fresh serve");
    summary.validate().expect("summary invariants");
    assert!(
        summary.escalation_rate() < 0.05,
        "calibrated bank escalated {:.2}% of row ops (gate: <5%)",
        100.0 * summary.escalation_rate()
    );
    println!(
        "calibrated escalation rate:                   {:.4}% ({} of {} row ops)",
        100.0 * summary.escalation_rate(),
        summary.escalations,
        summary.row_ops
    );

    // --- Window sensitivity: window=1 disables coalescing. -----------
    let mut svc_w1 = calibrated_service(ServeSpec {
        window: 1,
        ..ServeSpec::default()
    });
    let w1_name = format!("serving_window1_{ROWS}x{COLS}_{fast_ops}ops");
    svc_w1.serve(&ops, &mut out).expect("warm serve");
    report.bench(&w1_name, || svc_w1.serve(&ops, &mut out).expect("serve"));
    report.annotate(&w1_name, (ROWS * COLS) as u64, None);

    // --- Baseline: every row op forced through the circuit tier. -----
    // A circuit row op on a 64×64 array solves its row slice in
    // ~0.08 s, so the forced stream is tiny: one write + one read + one
    // persist, three row activations through the transient solver.
    let mut forced = calibrated_service(ServeSpec {
        force_escalate: true,
        ..ServeSpec::default()
    });
    let forced_ops = [
        MemOp::Write {
            bank: 0,
            row: 0,
            word: 0x5555_5555_5555_5555,
        },
        MemOp::Read { bank: 0, row: 0 },
        MemOp::Persist { bank: 0, row: 0 },
    ];
    let forced_name = format!("serving_force_escalate_{ROWS}x{COLS}_3ops");
    report.bench_once(&forced_name, || {
        forced.serve(&forced_ops, &mut out).expect("forced serve")
    });
    report.annotate(&forced_name, (ROWS * COLS) as u64, None);

    // --- Headline ratio + hard gates 1 and 2. ------------------------
    let fast_s = report.median_of(&fast_name).expect("fast sample");
    let forced_s = report.median_of(&forced_name).expect("forced sample");
    let fast_ops_per_s = fast_ops as f64 / fast_s;
    let forced_ops_per_s = forced_ops.len() as f64 / forced_s;
    println!(
        "serving fast path:                            {:.3e} ops/s",
        fast_ops_per_s
    );
    println!(
        "serving force-escalate baseline:              {:.3e} ops/s",
        forced_ops_per_s
    );
    println!(
        "fast-path speedup over circuit tier:          {:.1}x",
        fast_ops_per_s / forced_ops_per_s
    );
    assert!(
        fast_ops_per_s >= 1e5,
        "fast path served {fast_ops_per_s:.3e} ops/s (gate: >= 1e5)"
    );
    assert!(
        fast_ops_per_s >= 10.0 * forced_ops_per_s,
        "fast path {fast_ops_per_s:.3e} ops/s is not >= 10x the forced \
         baseline {forced_ops_per_s:.3e} ops/s"
    );

    // A full run leaves the committed baseline at the repository root;
    // smoke runs (CI) measure nothing worth keeping.
    if !smoke() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serving.json");
        report
            .write_json("serving", &path)
            .expect("write BENCH_serving.json");
        println!("wrote {}", path.display());
    }
}
