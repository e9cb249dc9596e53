//! Fault injection through the public serving API: seeded adversarial
//! `MemoryService` streams and specs must come back as typed
//! `ServeError`s, never as panics, and must leave the service exactly
//! as a twin that never saw them.
//!
//! Each seed builds a valid FEFET + FERAM stream, corrupts one op in it
//! (unknown bank, out-of-range row, or a write word with bits past the
//! bank's columns), and serves it. The corrupted stream is rejected up
//! front; the valid op served next must then match the same op on the
//! twin service, which is served the valid traffic only.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fefet_mem::array::MIN_T_READ_S;
use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::macro_model::MacroConfig;
use fefet_mem::serving::{
    Bank, MemOp, MemoryService, OpResult, ServeError, ServeSpec, ServeSummary,
};
use fefet_numerics::rng::Rng;
use fefet_telemetry::Instrumentation;

const ROWS: usize = 4;
const COLS: usize = 8;
const BANKS: u32 = 2;
const SEEDS: u64 = 12;

fn build_service(spec: ServeSpec) -> Result<MemoryService, ServeError> {
    let mut svc = MemoryService::new(spec, Instrumentation::off())?;
    svc.add_bank(Bank::fefet(
        MacroConfig::fefet(ROWS, COLS),
        FefetCell::default(),
    )?);
    svc.add_bank(Bank::feram(
        MacroConfig::feram(ROWS, COLS),
        FeramCell::default(),
    )?);
    svc.calibrate_bank(0)?;
    svc.calibrate_bank(1)?;
    Ok(svc)
}

fn valid_op(rng: &mut Rng) -> MemOp {
    let bank = rng.below(u64::from(BANKS)) as u32;
    let row = rng.below(ROWS as u64) as u32;
    match rng.below(3) {
        0 => MemOp::Write {
            bank,
            row,
            word: rng.next_u64() & ((1 << COLS) - 1),
        },
        1 => MemOp::Read { bank, row },
        _ => MemOp::Persist { bank, row },
    }
}

/// Rewrites `op` into one the service must reject.
fn corrupt(op: MemOp, rng: &mut Rng) -> MemOp {
    let (bank, row) = (op.bank(), op.row());
    match rng.below(3) {
        0 => {
            let bad_bank = match rng.below(3) {
                0 => BANKS,
                1 => u32::MAX,
                _ => BANKS + rng.next_u64() as u32 % 1000,
            };
            MemOp::Read {
                bank: bad_bank,
                row,
            }
        }
        1 => {
            let bad_row = match rng.below(3) {
                0 => ROWS as u32,
                1 => u32::MAX,
                _ => ROWS as u32 + rng.next_u64() as u32 % 1000,
            };
            MemOp::Persist { bank, row: bad_row }
        }
        _ => MemOp::Write {
            bank,
            row,
            word: rng.next_u64() | 1 << (COLS as u64 + rng.below(64 - COLS as u64)),
        },
    }
}

/// Serves `ops`, turning a panic into a test failure that names `what`.
fn serve_no_panic(
    svc: &mut MemoryService,
    ops: &[MemOp],
    out: &mut Vec<OpResult>,
    what: &str,
) -> Result<ServeSummary, ServeError> {
    catch_unwind(AssertUnwindSafe(|| svc.serve(ops, out)))
        .unwrap_or_else(|_| panic!("{what}: serve panicked instead of returning a ServeError"))
}

#[test]
fn adversarial_streams_are_typed_errors_and_leave_no_trace() {
    let spec = ServeSpec {
        window: 4,
        ..ServeSpec::default()
    };
    let mut svc = build_service(spec.clone()).expect("service");
    let mut twin = build_service(spec).expect("twin service");
    let mut out = Vec::new();
    let mut twin_out = Vec::new();
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from_u64(0xfa17 ^ seed);
        let len = 1 + rng.below(24) as usize;
        let mut ops: Vec<MemOp> = (0..len).map(|_| valid_op(&mut rng)).collect();
        let at = rng.below(len as u64) as usize;
        ops[at] = corrupt(ops[at], &mut rng);
        let what = format!("seed {seed}: op {at} = {:?}", ops[at]);
        match serve_no_panic(&mut svc, &ops, &mut out, &what) {
            Err(ServeError::Config(msg)) => {
                assert!(msg.contains(&format!("op {at}")), "{what}: {msg}")
            }
            other => panic!("{what}: expected a config error, got {other:?}"),
        }

        // The next valid op behaves as on a service that never saw the
        // rejected stream.
        let next = [valid_op(&mut rng)];
        let got = serve_no_panic(&mut svc, &next, &mut out, &what).expect("valid op");
        let want = serve_no_panic(&mut twin, &next, &mut twin_out, &what).expect("twin op");
        assert_eq!(got, want, "{what}: summary diverged from the twin");
        assert_eq!(out, twin_out, "{what}: result diverged from the twin");
    }
    for bank in 0..BANKS {
        for row in 0..ROWS {
            assert_eq!(
                svc.bank(bank).expect("bank").word(row),
                twin.bank(bank).expect("twin bank").word(row),
                "bank {bank} row {row}: tracked word diverged from the twin"
            );
        }
    }
}

#[test]
fn adversarial_specs_are_config_errors() {
    let mut rng = Rng::seed_from_u64(0x5bec);
    let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut specs = vec![ServeSpec {
        window: 0,
        ..ServeSpec::default()
    }];
    for &t in &non_finite {
        specs.push(ServeSpec {
            t_read_s: t,
            ..ServeSpec::default()
        });
        specs.push(ServeSpec {
            t_write_s: t,
            ..ServeSpec::default()
        });
    }
    for _ in 0..8 {
        // Read windows below the 150 ps sensing bound, zero and negative
        // included.
        specs.push(ServeSpec {
            t_read_s: MIN_T_READ_S * (2.0 * rng.uniform() - 1.0) * 0.999,
            ..ServeSpec::default()
        });
    }
    for spec in specs {
        let what = format!("{spec:?}");
        match catch_unwind(|| MemoryService::new(spec, Instrumentation::off())) {
            Ok(Err(ServeError::Config(_))) => {}
            Ok(other) => panic!("{what}: expected a config error, got {other:?}"),
            Err(_) => panic!("{what}: MemoryService::new panicked"),
        }
    }
}

/// Write pulses shorter than the 150 ps read bound pass validation; a
/// forced circuit write with one must either serve or fail with a typed
/// error, and the service must keep serving valid ops afterwards.
#[test]
fn sub_150ps_write_pulses_never_panic() {
    let mut rng = Rng::seed_from_u64(0x9a15e);
    for _ in 0..3 {
        let t_write_s = 1e-12 + rng.uniform() * (MIN_T_READ_S - 1e-12);
        let spec = ServeSpec {
            t_write_s,
            force_escalate: true,
            ..ServeSpec::default()
        };
        let what = format!("t_write_s = {t_write_s:e}");
        let mut svc = match catch_unwind(|| build_service(spec)) {
            Ok(Ok(svc)) => svc,
            Ok(Err(e)) => panic!("{what}: service construction failed: {e}"),
            Err(_) => panic!("{what}: service construction panicked"),
        };
        let mut out = Vec::new();
        let write = [MemOp::Write {
            bank: 0,
            row: 1,
            word: 0x5a,
        }];
        match serve_no_panic(&mut svc, &write, &mut out, &what) {
            Ok(_) | Err(ServeError::Circuit(_)) => {}
            Err(e) => panic!("{what}: unexpected error {e}"),
        }
        let read = [MemOp::Read { bank: 1, row: 2 }];
        serve_no_panic(&mut svc, &read, &mut out, &what).expect("valid read afterwards");
    }
}
