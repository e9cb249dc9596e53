//! Pins the zero-allocation warm serving loop of the memory-macro
//! serving layer: after a cold serve grows the service's scratch (op
//! partitions, window groups, result buffer), every further serial
//! serve of fast-path traffic — window grouping, coalescing, macro
//! reads/writes/persists, stress bookkeeping, summary folding — must
//! perform exactly zero heap allocations, with instrumentation off and
//! with it on (one latency-histogram sample per served op).
//!
//! This file holds a single `#[test]` on purpose: the allocation
//! counter is process-global, so a concurrently running sibling test
//! would inflate the counts.

use fefet_alloctrack::count_allocations;
use fefet_mem::cell::FefetCell;
use fefet_mem::macro_model::MacroConfig;
use fefet_mem::serving::{Bank, MemOp, MemoryService, ServeSpec};
use fefet_telemetry::Instrumentation;

fn mixed_stream(rows: u32, n: u32) -> Vec<MemOp> {
    let mut ops = Vec::with_capacity(n as usize);
    let mut x = 0x9e37_79b9_u64;
    for _ in 0..n {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let row = ((x >> 45) % u64::from(rows)) as u32;
        let word = (x >> 13) & 0xf;
        ops.push(match (x >> 61) % 3 {
            0 => MemOp::Write { bank: 0, row, word },
            1 => MemOp::Read { bank: 0, row },
            _ => MemOp::Persist { bank: 0, row },
        });
    }
    ops
}

/// Builds a calibrated one-bank service on `instr`, then serves the
/// same 96-op stream once cold and eight times warm, asserting every
/// warm serve allocates nothing. Returns the number of serves.
fn serve_warm(instr: Instrumentation) -> u64 {
    let spec = ServeSpec {
        threads: 1,
        // Disturb accumulation off so no op ever leaves the fast path
        // mid-test and triggers an (allocating) circuit escalation.
        disturb_per_write: 0.0,
        ..ServeSpec::default()
    };
    let mut svc = MemoryService::new(spec, instr).expect("service");
    let bank = Bank::fefet(MacroConfig::fefet(4, 4), FefetCell::default()).expect("bank");
    svc.add_bank(bank);
    // Calibrate every (column, state) pair so reads stay macro.
    svc.calibrate_bank(0).expect("calibrate");

    let ops = mixed_stream(4, 96);
    let mut out = Vec::new();
    // Cold serve: grows the per-bank op partitions, the window scratch,
    // and the result buffer; must allocate.
    let (cold, first) = count_allocations(|| svc.serve(&ops, &mut out));
    let summary = first.expect("cold serve");
    assert_eq!(summary.escalations, 0, "calibrated traffic must stay fast");
    assert!(cold > 0, "first serve should build scratch state");

    // Warm serves: the whole serving loop, zero allocations.
    let warm_passes = 8;
    for pass in 0..warm_passes {
        let (warm, res) = count_allocations(|| svc.serve(&ops, &mut out));
        let summary = res.expect("warm serve");
        assert_eq!(summary.escalations, 0, "pass {pass} left the fast path");
        assert_eq!(summary.ops, 96);
        assert_eq!(
            warm, 0,
            "warm serve pass {pass} performed {warm} heap allocations"
        );
    }
    1 + warm_passes
}

#[test]
fn warm_serial_serving_allocates_nothing() {
    serve_warm(Instrumentation::off());

    // Instrumented, every served op also records one latency sample
    // in its class's histogram; that path must not allocate either.
    let instr = Instrumentation::enabled();
    let serves = serve_warm(instr.clone());
    let tel = instr.get().expect("enabled");
    let samples =
        tel.serving.read_ns.count() + tel.serving.write_ns.count() + tel.serving.persist_ns.count();
    assert_eq!(samples, 96 * serves, "one latency sample per served op");
}
