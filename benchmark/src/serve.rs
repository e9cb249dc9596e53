//! The serving workloads: `serve_fast` (macro fast-path dispatch over a
//! calibrated two-bank service) and `serve_escalate` (every op forced to
//! a full-array circuit solve). Both are closed loops with one client:
//! the next `serve()` call is issued when the previous one returns.

use std::time::Instant;

use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::macro_model::MacroConfig;
use fefet_mem::serving::{
    Bank, MemOp, MemoryService, OpResult, ServeError, ServeSpec, ServeSummary,
};
use fefet_numerics::rng::Rng;
use fefet_telemetry::Instrumentation;

use crate::host::{HostSpeed, Samples};
use crate::layers::{self, ratio, Snapshot};
use crate::report::Outcome;
use crate::stats::{median, percentile, Digest, MIN_SAMPLES};

/// Ops per `serve_fast` call.
const FAST_OPS_PER_CALL: usize = 4096;
/// Rows of `serve_escalate`'s FEFET bank: the smallest array on which
/// the `Auto` solver policy picks the BBD backend, as it does at 64×64.
const ESCALATE_ROWS: usize = 32;
/// Fresh construct(+calibrate) rounds whose median is `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// Fixed work of a traced pass, so per-layer counts repeat exactly.
const FAST_TRACE_CALLS: usize = 2000;
const ESCALATE_TRACE_OPS: usize = 20;
/// Upper bound on `serve_escalate` ops in one run (≈0.35 s each).
const ESCALATE_MAX_OPS: usize = 480;
/// Trace ring slots per lane: serving runs on one thread, so one lane
/// holds every solver event of a traced pass (about 11,000 for
/// `serve_escalate`).
const TRACE_EVENTS_PER_LANE: usize = 1 << 18;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fast,
    Escalate,
}

impl Kind {
    fn spec(self) -> ServeSpec {
        match self {
            Kind::Fast => ServeSpec::default(),
            Kind::Escalate => ServeSpec {
                window: 1,
                threads: 1,
                force_escalate: true,
                ..ServeSpec::default()
            },
        }
    }

    /// Builds the service; returns it with the time spent calibrating.
    fn build(self, instr: Instrumentation) -> Result<(MemoryService, f64), String> {
        let err = |what: &'static str| move |e: ServeError| format!("{what}: {e}");
        let mut svc = MemoryService::new(self.spec(), instr).map_err(err("service"))?;
        let mut calibrate_s = 0.0;
        match self {
            Kind::Fast => {
                svc.add_bank(
                    Bank::fefet(MacroConfig::fefet(64, 64), FefetCell::default())
                        .map_err(err("FEFET bank"))?,
                );
                svc.add_bank(
                    Bank::feram(MacroConfig::feram(16, 16), FeramCell::default())
                        .map_err(err("FERAM bank"))?,
                );
                let t0 = Instant::now();
                for bank in 0..2 {
                    svc.calibrate_bank(bank).map_err(err("calibration"))?;
                }
                calibrate_s = t0.elapsed().as_secs_f64();
            }
            Kind::Escalate => {
                svc.add_bank(
                    Bank::fefet(
                        MacroConfig::fefet(ESCALATE_ROWS, ESCALATE_ROWS),
                        FefetCell::default(),
                    )
                    .map_err(err("FEFET bank"))?,
                );
            }
        }
        Ok((svc, calibrate_s))
    }

    /// The seeded op stream of this workload.
    fn ops(self, seed: u64) -> OpSource {
        let mut rng = Rng::seed_from_u64(seed);
        match self {
            Kind::Fast => OpSource::Fast(rng),
            Kind::Escalate => {
                OpSource::Escalate(escalate_ops(&mut rng, ESCALATE_MAX_OPS).into_iter())
            }
        }
    }
}

/// Draws one `serve_fast` call's ops: about a third each of write, read
/// and persist, three quarters of them on bank 0 (64×64 FEFET), the rest
/// on bank 1 (16×16 FERAM).
pub fn fast_batch(rng: &mut Rng, ops: &mut Vec<MemOp>) {
    ops.clear();
    for _ in 0..FAST_OPS_PER_CALL {
        let x = rng.next_u64();
        let (bank, rows, mask) = if x.is_multiple_of(4) {
            (1, 16, 0xffff)
        } else {
            (0, 64, u64::MAX)
        };
        let row = ((x >> 8) % rows) as u32;
        ops.push(match (x >> 16) % 3 {
            0 => MemOp::Write {
                bank,
                row,
                word: rng.next_u64() & mask,
            },
            1 => MemOp::Read { bank, row },
            _ => MemOp::Persist { bank, row },
        });
    }
}

/// Draws `n` ops for `serve_escalate`. Each aligned block of three holds
/// one read, one write and one persist in seeded order, so every run
/// sees the same class mix whatever its length.
pub fn escalate_ops(rng: &mut Rng, n: usize) -> Vec<MemOp> {
    const ORDERS: [[u8; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let rows = ESCALATE_ROWS as u64;
    let mask = (1u64 << ESCALATE_ROWS) - 1;
    let mut ops = Vec::with_capacity(n + 2);
    while ops.len() < n {
        for class in ORDERS[rng.below(6) as usize] {
            let row = rng.below(rows) as u32;
            ops.push(match class {
                0 => MemOp::Read { bank: 0, row },
                1 => MemOp::Write {
                    bank: 0,
                    row,
                    word: rng.next_u64() & mask,
                },
                _ => MemOp::Persist { bank: 0, row },
            });
        }
    }
    ops.truncate(n);
    ops
}

/// Where a loop's calls come from.
enum OpSource {
    Fast(Rng),
    Escalate(std::vec::IntoIter<MemOp>),
}

impl OpSource {
    /// Fills `ops` with the next call; false when the stream is spent.
    fn next_call(&mut self, ops: &mut Vec<MemOp>) -> bool {
        match self {
            OpSource::Fast(rng) => {
                fast_batch(rng, ops);
                true
            }
            OpSource::Escalate(stream) => {
                ops.clear();
                ops.extend(stream.next());
                !ops.is_empty()
            }
        }
    }
}

/// Program-order model of the banks' words at window granularity:
/// within a window, writes commit first (the last write to a row wins),
/// then every op on that row observes the committed word.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    words: Vec<Vec<u64>>,
}

impl Reference {
    pub fn of(svc: &MemoryService) -> Self {
        let words = (0..svc.bank_count() as u32)
            .filter_map(|b| svc.bank(b))
            .map(|bank| (0..bank.rows()).map(|r| bank.word(r)).collect())
            .collect();
        Reference { words }
    }

    /// Checks one call's outputs and advances the model.
    ///
    /// # Errors
    ///
    /// The first op whose served word differs from program order.
    pub fn check(&mut self, ops: &[MemOp], out: &[OpResult], window: usize) -> Result<(), String> {
        for (w, chunk) in ops.chunks(window).enumerate() {
            for op in chunk {
                if let MemOp::Write { bank, row, word } = *op {
                    self.words[bank as usize][row as usize] = word;
                }
            }
            for (k, op) in chunk.iter().enumerate() {
                let i = w * window + k;
                let want = self.words[op.bank() as usize][op.row() as usize];
                let got = out.get(i).map(|r| r.word);
                if got != Some(want) {
                    return Err(format!(
                        "op {i} ({op:?}) served {got:x?}, program order says {want:#x}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// True when the service's tracked words equal the model's.
    pub fn matches(&self, svc: &MemoryService) -> bool {
        *self == Reference::of(svc)
    }
}

/// What a serve loop did.
#[derive(Debug, Default)]
struct Served {
    latencies: Samples,
    summary: ServeSummary,
    attempted: u64,
    failed: u64,
    summaries_valid: bool,
    program_order: bool,
    digest: Digest,
}

/// Issues calls from `source` while `more(calls_done)` holds, timing
/// each `serve()`; output checks, the digest and host probes run
/// between calls, outside the timed region. The last probe closes the
/// last call's segment.
fn serve_loop(
    svc: &mut MemoryService,
    source: &mut OpSource,
    host: &mut HostSpeed,
    mut more: impl FnMut(usize) -> bool,
) -> Served {
    let window = svc.spec().window;
    let mut reference = Reference::of(svc);
    let mut ops = Vec::with_capacity(FAST_OPS_PER_CALL);
    let mut out = Vec::with_capacity(FAST_OPS_PER_CALL);
    let mut run = Served {
        summaries_valid: true,
        program_order: true,
        ..Served::default()
    };
    while more(run.latencies.len()) && source.next_call(&mut ops) {
        run.attempted += ops.len() as u64;
        let t0 = Instant::now();
        let res = svc.serve(&ops, &mut out);
        let dt = t0.elapsed().as_secs_f64();
        let summary = match res {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve failed: {e}");
                run.failed += ops.len() as u64;
                break;
            }
        };
        run.latencies.push(host, dt);
        run.summary.merge(&summary);
        if let Err(e) = summary.validate() {
            eprintln!("serve summary invalid: {e}");
            run.summaries_valid = false;
        }
        if run.program_order {
            if let Err(e) = reference.check(&ops, &out, window) {
                eprintln!("served words diverge: {e}");
                run.program_order = false;
            }
        }
        for r in &out {
            run.digest.u64(r.word);
            run.digest.f64(r.energy_j);
        }
        host.tick();
    }
    host.probe();
    run.program_order &= reference.matches(svc);
    run
}

fn serve_checks(kind: Kind, out: &mut Outcome, run: &Served) {
    let s = &run.summary;
    out.check("every serve summary passes validate()", run.summaries_valid);
    out.check(
        "served words follow program order at window granularity",
        run.program_order,
    );
    match kind {
        Kind::Fast => out.check("no op escalates to a circuit solve", s.escalations == 0),
        Kind::Escalate => {
            out.check(
                "every op escalates, forced",
                s.escalations == s.ops && s.esc_forced == s.ops,
            );
            out.check(
                "escalated reads correct no word bits",
                s.word_corrections == 0,
            );
        }
    }
}

/// The untraced run: `setup_s`, throughput, latency and memory.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut host = HostSpeed::start(1);
    let mut setup = Samples::default();
    let mut built = None;
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let (mut svc, _) = kind.build(Instrumentation::off())?;
        if kind == Kind::Escalate {
            // The first escalation pays the bank's one-time symbolic
            // analysis; the timed loop starts warm.
            svc.serve(&[MemOp::Read { bank: 0, row: 0 }], &mut Vec::new())
                .map_err(|e| format!("warm-up op: {e}"))?;
        }
        setup.push(&host, t0.elapsed().as_secs_f64());
        built = Some(svc);
        host.probe();
    }
    let mut svc = built.ok_or("no set-up round ran")?;
    let mut source = kind.ops(seed);
    let t_run = Instant::now();
    let run = serve_loop(&mut svc, &mut source, &mut host, |calls| {
        calls < MIN_SAMPLES || t_run.elapsed().as_secs_f64() < seconds
    });

    let mut out = Outcome {
        attempted: run.attempted,
        failed: run.failed,
        digest: run.digest,
        host_factor: Some(host.factor()),
        ..Outcome::default()
    };
    serve_checks(kind, &mut out, &run);
    let served = run.summary.ops as f64;
    let lat = run.latencies.normalized(&host);
    let raw = run.latencies.raw();
    out.metric("setup_s", median(&setup.normalized(&host)));
    out.metric("ops_per_s", served / lat.iter().sum::<f64>());
    out.metric("latency_p50_s", percentile(&lat, 50.0)?);
    out.metric("peak_rss_mb", crate::sys::peak_rss_mb()?);
    out.detail("calls", "count", lat.len() as f64);
    for p in [90.0, 99.0] {
        // Reported only where the run has the tail samples for it.
        if let Ok(v) = percentile(&lat, p) {
            out.detail(&format!("latency_p{p}_s"), "s", v);
        }
    }
    out.detail("raw_setup_s", "s", median(&setup.raw()));
    out.detail("raw_ops_per_s", "ops/s", served / raw.iter().sum::<f64>());
    out.detail("raw_latency_p50_s", "s", percentile(&raw, 50.0)?);
    out.detail(
        "failed_frac",
        "1",
        ratio(run.failed as f64, run.attempted as f64),
    );
    out.detail(
        "coalesced_frac",
        "1",
        ratio(run.summary.coalesced as f64, served),
    );
    out.detail("escalations", "count", run.summary.escalations as f64);
    out.detail("modeled_energy_j", "J", run.summary.energy_j);
    Ok(out)
}

/// The traced run: a fixed number of calls served twice, untraced and
/// then traced, with the per-layer breakdown of the traced pass.
pub fn trace(kind: Kind, seed: u64) -> Result<Outcome, String> {
    let calls = match kind {
        Kind::Fast => FAST_TRACE_CALLS,
        Kind::Escalate => ESCALATE_TRACE_OPS,
    };
    let mut base_host = HostSpeed::start(1);
    let (mut plain, _) = kind.build(Instrumentation::off())?;
    let base = serve_loop(&mut plain, &mut kind.ops(seed), &mut base_host, |c| {
        c < calls
    });
    drop(plain);

    let instr = Instrumentation::enabled();
    let tel = instr.telemetry().ok_or("instrumentation is off")?.clone();
    tel.attach_trace(TRACE_EVENTS_PER_LANE);
    let mut host = HostSpeed::start(1);
    let (mut svc, calibrate_s) = kind.build(instr)?;
    let before = Snapshot::take(&tel);
    let run = serve_loop(&mut svc, &mut kind.ops(seed), &mut host, |c| c < calls);
    let d = Snapshot::take(&tel).since(&before);

    let mut out = Outcome {
        attempted: run.attempted,
        failed: run.failed,
        digest: run.digest,
        host_factor: Some(host.factor()),
        ..Outcome::default()
    };
    serve_checks(kind, &mut out, &run);
    out.check(
        "tracing leaves the served results unchanged",
        base.digest.hex() == run.digest.hex(),
    );
    let ops = run.summary.ops as f64;
    let wall: f64 = run.latencies.raw().iter().sum();
    let array_ns = d.read_row_ns + d.write_row_ns;
    let selfs = layers::self_times(
        wall,
        &[array_ns * 1e-9, d.transient_ns * 1e-9, d.solve_ns * 1e-9],
    );
    out.check(
        "layer self-times are non-negative and sum to serve() wall",
        selfs.is_ok(),
    );
    let selfs = selfs.unwrap_or_else(|e| {
        eprintln!("{e}");
        vec![0.0; 4]
    });
    out.metric("serving.self_s_per_op", ratio(selfs[0], ops));
    out.metric("array.self_s_per_op", ratio(selfs[1], ops));
    out.metric("transient.self_s_per_op", ratio(selfs[2], ops));
    out.metric("serving.calibrate_s", calibrate_s);
    out.metric("serving.coalesced", run.summary.coalesced as f64);
    out.metric("serving.row_ops", run.summary.row_ops as f64);
    out.metric("serving.escalations", run.summary.escalations as f64);
    out.metric(
        "serving.fast_path_frac",
        ratio(run.summary.fast_path as f64, run.summary.row_ops as f64),
    );
    out.metric(
        "array.read_row_s",
        layers::span_mean_s(&tel, "array.read_row"),
    );
    out.metric(
        "array.write_row_s",
        layers::span_mean_s(&tel, "array.write_row"),
    );
    let array = svc
        .bank(0)
        .and_then(|b| b.as_fefet())
        .ok_or("bank 0 is not a FEFET bank")?;
    out.metric(
        "array.netlist_build_s",
        layers::netlist_build_s(array, svc.spec().t_read_s)?,
    );
    layers::engine_metrics(&mut out, &tel, &d, ops)?;
    out.scale_times(host.factor());
    let traced: f64 = run.latencies.normalized(&host).iter().sum();
    let untraced: f64 = base.latencies.normalized(&base_host).iter().sum();
    layers::trace_metrics(&mut out, &tel, traced / untraced - 1.0);
    out.detail("untraced_wall_s", "s", untraced);
    out.detail("traced_wall_s", "s", traced);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_generators_are_reproducible() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fast_batch(&mut Rng::seed_from_u64(9), &mut a);
        fast_batch(&mut Rng::seed_from_u64(9), &mut b);
        assert_eq!(a, b);
        fast_batch(&mut Rng::seed_from_u64(10), &mut b);
        assert_ne!(a, b);
        let e1 = escalate_ops(&mut Rng::seed_from_u64(9), 30);
        assert_eq!(e1, escalate_ops(&mut Rng::seed_from_u64(9), 30));
        assert_ne!(e1, escalate_ops(&mut Rng::seed_from_u64(10), 30));
    }

    #[test]
    fn fast_batches_have_the_stated_mix() {
        let mut ops = Vec::new();
        fast_batch(&mut Rng::seed_from_u64(1), &mut ops);
        assert_eq!(ops.len(), FAST_OPS_PER_CALL);
        let n = ops.len() as f64;
        let share = |f: &dyn Fn(&MemOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / n;
        assert!((share(&|o| o.bank() == 0) - 0.75).abs() < 0.03);
        assert!((share(&|o| matches!(o, MemOp::Read { .. })) - 1.0 / 3.0).abs() < 0.03);
        assert!((share(&|o| matches!(o, MemOp::Write { .. })) - 1.0 / 3.0).abs() < 0.03);
        for op in &ops {
            match *op {
                MemOp::Write { bank: 1, word, .. } => assert_eq!(word >> 16, 0),
                MemOp::Read { bank: 1, row } | MemOp::Persist { bank: 1, row } => assert!(row < 16),
                _ => assert!(op.row() < 64),
            }
        }
    }

    #[test]
    fn escalate_blocks_hold_one_op_of_each_class() {
        let ops = escalate_ops(&mut Rng::seed_from_u64(3), 99);
        assert_eq!(ops.len(), 99);
        for block in ops.chunks(3) {
            let mut classes: Vec<&str> = block.iter().map(|o| o.class().as_str()).collect();
            classes.sort_unstable();
            assert_eq!(classes, ["persist", "read", "write"]);
        }
        assert!(ops.iter().all(|o| (o.row() as usize) < ESCALATE_ROWS));
    }

    #[test]
    fn reference_applies_writes_first_within_a_window() {
        let mut r = Reference {
            words: vec![vec![0; 2]],
        };
        let ops = [
            MemOp::Read { bank: 0, row: 0 },
            MemOp::Write {
                bank: 0,
                row: 0,
                word: 5,
            },
            MemOp::Read { bank: 0, row: 1 },
            MemOp::Read { bank: 0, row: 0 },
        ];
        let served = |words: [u64; 4]| -> Vec<OpResult> {
            words
                .iter()
                .map(|&word| OpResult {
                    word,
                    ..OpResult::default()
                })
                .collect()
        };
        assert!(r.clone().check(&ops, &served([5, 5, 0, 5]), 4).is_ok());
        assert!(r.clone().check(&ops, &served([0, 5, 0, 5]), 4).is_err());
        assert!(r.check(&ops, &served([0, 5, 0, 5]), 1).is_ok());
    }
}
