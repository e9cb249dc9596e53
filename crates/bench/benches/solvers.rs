//! Performance benches for the numerical substrate: the Newton/transient
//! engine on its one sparse LU path, and the array-level sweeps.
//!
//! A full run writes `BENCH_solvers.json` at the repository root (the
//! committed baseline); `TINYBENCH_SMOKE=1` runs every workload once
//! and writes nothing.

use fefet_bench::tinybench::{opaque, smoke, Report};
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{ElemState, Integration};
use fefet_ckt::engine::{Assembly, NewtonWorkspace, SolverOptions};
use fefet_ckt::transient::{transient, TransientOptions};
use fefet_ckt::waveform::Waveform;
use fefet_device::endurance::EnduranceModel;
use fefet_device::paper_fefet;
use fefet_device::variability::{monte_carlo, VariationSpec};
use fefet_mem::array::{FastPathToggles, FefetArray};
use fefet_mem::cell::FefetCell;
use fefet_mem::compare::iso_comparison;
use fefet_mem::feram::FeramCell;
use fefet_mem::shmoo::write_shmoo;
use fefet_mem::yield_engine::{YieldEngine, YieldSpec};
use fefet_numerics::rng::Rng;
use fefet_telemetry::Instrumentation;

/// One DC Newton solve at time `t` (s) from `x0`, into `x`, on the
/// caller's workspace.
#[allow(clippy::too_many_arguments)]
fn newton_inplace(
    asm: &Assembly,
    ckt: &Circuit,
    t: f64,
    opts: &SolverOptions,
    x: &mut [f64],
    x0: &[f64],
    states: &[ElemState],
    ws: &mut NewtonWorkspace,
) {
    x.copy_from_slice(x0);
    asm.solve_point_with(
        ckt,
        t,
        0.0,
        Integration::BackwardEuler,
        true,
        opts,
        x,
        states,
        ws,
    )
    .expect("newton_inplace failed to converge");
}

/// The read-phase circuit of an array, at a bias point inside the read
/// window, with DC element states — one representative Newton solve.
fn read_solve_fixture(rows: usize, cols: usize) -> (Circuit, Assembly, Vec<ElemState>) {
    let a = FefetArray::new(rows, cols, FefetCell::default());
    let ckt = a.read_circuit(0, 3e-9).expect("read circuit");
    let asm = Assembly::new(&ckt);
    let states: Vec<ElemState> = ckt.elements().iter().map(|_| ElemState::None).collect();
    (ckt, asm, states)
}

fn bench_newton(report: &mut Report) {
    // Cell-sized system: the 1x1 array's read circuit (~13 unknowns),
    // solved from zeros at t = 0.5 ns (read select up).
    let t_bias = 0.5e-9;
    let opts = SolverOptions::default();
    {
        let (ckt, asm, states) = read_solve_fixture(1, 1);
        let x0 = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let mut x = vec![0.0; asm.n_unknowns()];
        report.bench("newton_cell_2t", || {
            newton_inplace(&asm, &ckt, t_bias, &opts, &mut x, &x0, &states, &mut ws);
            x.last().copied()
        });
        // The transient per-timestep workload: warm-started from the
        // converged point, as every accepted step warm-starts from its
        // predecessor. This is the solve the engine runs thousands of
        // times per analysis.
        let mut x_star = vec![0.0; asm.n_unknowns()];
        let mut ws2 = NewtonWorkspace::new(asm.n_unknowns());
        newton_inplace(
            &asm,
            &ckt,
            t_bias,
            &opts,
            &mut x_star,
            &x0,
            &states,
            &mut ws2,
        );
        report.bench("newton_cell_2t_step", || {
            newton_inplace(
                &asm, &ckt, t_bias, &opts, &mut x, &x_star, &states, &mut ws2,
            );
            x.last().copied()
        });
    }
    // Array-sized system: the 8x8 read circuit (~200+ unknowns).
    {
        let (ckt, asm, states) = read_solve_fixture(8, 8);
        let x0 = vec![0.0; asm.n_unknowns()];
        let mut ws = NewtonWorkspace::new(asm.n_unknowns());
        let mut x = vec![0.0; asm.n_unknowns()];
        report.bench("newton_array_8x8", || {
            newton_inplace(&asm, &ckt, t_bias, &opts, &mut x, &x0, &states, &mut ws);
            x.last().copied()
        });
    }
}

/// The pattern-cached sparse Newton solve at growing array sizes, in
/// two regimes:
///
/// **Warm exact** — from the converged point with Jacobian reuse off,
/// so each call is one full stamp + factor + solve (the cost a
/// transient pays on every Jacobian change).
///
/// **Cold** — a fresh workspace solving from zeros: pattern recording,
/// symbolic analysis, factorization, Newton iteration — what an array
/// of this shape costs the first time it is simulated.
fn bench_newton_scaling(report: &mut Report) {
    let t_bias = 0.5e-9;
    for (rows, cols) in [(8usize, 8usize), (16, 16), (32, 32), (64, 64)] {
        let a = FefetArray::new(rows, cols, FefetCell::default());
        let ckt = a.read_circuit(0, 3e-9).expect("read circuit");
        let asm = Assembly::new(&ckt);
        let states: Vec<ElemState> = ckt.elements().iter().map(|_| ElemState::None).collect();
        let n = asm.n_unknowns();
        let exact = SolverOptions {
            jacobian_reuse: false,
            bypass: false,
            ..SolverOptions::default()
        };
        // Converge once for the warm start.
        let x0 = vec![0.0; n];
        let mut x_star = vec![0.0; n];
        let mut ws = NewtonWorkspace::new(n);
        newton_inplace(
            &asm,
            &ckt,
            t_bias,
            &exact,
            &mut x_star,
            &x0,
            &states,
            &mut ws,
        );
        let nnz = ws.sparse_nnz(true).map(|z| z as u64);
        let mut xs = vec![0.0; n];
        let name_sparse = format!("newton_array_{rows}x{cols}_sparse");
        report.bench(&name_sparse, || {
            newton_inplace(
                &asm, &ckt, t_bias, &exact, &mut xs, &x_star, &states, &mut ws,
            );
            xs.last().copied()
        });
        report.annotate(&name_sparse, n as u64, nnz);
        // One instrumented solve records how many Newton iterations and
        // factorizations the timed workload performs.
        let instr = Instrumentation::enabled();
        let counted = SolverOptions {
            instr: instr.clone(),
            ..exact.clone()
        };
        newton_inplace(
            &asm, &ckt, t_bias, &counted, &mut xs, &x_star, &states, &mut ws,
        );
        if let Some(tel) = instr.get() {
            report.attach_telemetry(
                &name_sparse,
                tel.solver.newton_iterations.sum() as u64,
                tel.solver.sparse_refactors.get(),
            );
        }
        // Cold point solves: workspace standup + analysis + factor +
        // Newton from zeros, fresh every call (no AnalysisCache, so
        // each sample pays the full first-solve cost).
        let name_cold_sparse = format!("newton_array_{rows}x{cols}_cold_sparse");
        report.bench(&name_cold_sparse, || {
            let mut ws = NewtonWorkspace::new(n);
            let mut xc = vec![0.0; n];
            newton_inplace(&asm, &ckt, t_bias, &exact, &mut xc, &x0, &states, &mut ws);
            xc.last().copied()
        });
        report.annotate(&name_cold_sparse, n as u64, nnz);
    }
}

/// Instrumentation-overhead A/B on the acceptance workload: the 16×16
/// per-step Newton solve with telemetry off vs. on, batches interleaved
/// so the ratio survives host-load drift. The enabled side then donates
/// its counted Newton iterations and refactorizations to the report via
/// [`Report::attach_telemetry`].
fn bench_instr_overhead(report: &mut Report) {
    let t_bias = 0.5e-9;
    let (ckt, asm, states) = read_solve_fixture(16, 16);
    let n = asm.n_unknowns();
    let opts_off = SolverOptions::default();
    let instr = Instrumentation::enabled();
    let opts_on = SolverOptions {
        instr: instr.clone(),
        ..SolverOptions::default()
    };
    let x0 = vec![0.0; n];
    let mut x_star = vec![0.0; n];
    let mut ws = NewtonWorkspace::new(n);
    newton_inplace(
        &asm,
        &ckt,
        t_bias,
        &opts_off,
        &mut x_star,
        &x0,
        &states,
        &mut ws,
    );
    // Each side owns a workspace (the closures run interleaved); warm
    // the on-side's sparse pattern cache before timing starts.
    let mut ws_on = NewtonWorkspace::new(n);
    let mut xa = vec![0.0; n];
    let mut xb = vec![0.0; n];
    newton_inplace(
        &asm, &ckt, t_bias, &opts_off, &mut xb, &x_star, &states, &mut ws_on,
    );
    report.bench_pair(
        "newton_array_16x16_instr_off",
        "newton_array_16x16_instr_on",
        || {
            newton_inplace(
                &asm, &ckt, t_bias, &opts_off, &mut xa, &x_star, &states, &mut ws,
            );
            xa.last().copied()
        },
        || {
            newton_inplace(
                &asm, &ckt, t_bias, &opts_on, &mut xb, &x_star, &states, &mut ws_on,
            );
            xb.last().copied()
        },
    );
    report.annotate("newton_array_16x16_instr_off", n as u64, None);
    report.annotate("newton_array_16x16_instr_on", n as u64, None);
    // A fresh sink for one final run, so the attached counts describe a
    // single solve rather than every calibration batch.
    let once = Instrumentation::enabled();
    let opts_once = SolverOptions {
        instr: once.clone(),
        ..opts_off
    };
    newton_inplace(
        &asm, &ckt, t_bias, &opts_once, &mut xb, &x_star, &states, &mut ws_on,
    );
    if let Some(tel) = once.get() {
        report.attach_telemetry(
            "newton_array_16x16_instr_on",
            tel.solver.newton_iterations.sum() as u64,
            tel.solver.sparse_refactors.get(),
        );
    }
    // Min-of-batches ratio: on a shared 1-core host, scheduler noise
    // only ever inflates a batch, so comparing fastest batches isolates
    // the instrumentation cost from host-load drift.
    if let (Some(off), Some(on)) = (
        report.min_of("newton_array_16x16_instr_off"),
        report.min_of("newton_array_16x16_instr_on"),
    ) {
        println!(
            "instrumentation overhead (on/off, min):       {:.4}x",
            on / off
        );
    }
}

fn bench_rc_transient(report: &mut Report) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mut prev = vin;
    // A 10-stage RC ladder.
    for i in 0..10 {
        let n = ckt.node(&format!("n{i}"));
        ckt.resistor(&format!("R{i}"), prev, n, 1e3);
        ckt.capacitor(&format!("C{i}"), n, Circuit::GND, 1e-12);
        prev = n;
    }
    ckt.vsource(
        "V1",
        vin,
        Circuit::GND,
        Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 5e-9),
    );
    report.bench("transient_rc_ladder_1000_steps", || {
        transient(
            &ckt,
            10e-9,
            TransientOptions {
                dt: 10e-12,
                ..TransientOptions::default()
            },
        )
        .unwrap()
    });
}

/// One cell write transient, and the two paper searches built on it:
/// the `shmoo` bin's 9×8 write shmoo (a boundary walk per polarity,
/// 30 writes) and the `table3` bin's iso-write-time comparison (a
/// 4-point bisection per memory, then the read energies).
fn bench_cell_write(report: &mut Report) {
    let cell = FefetCell::default();
    let (p_lo, _) = cell.checked_memory_states().expect("the cell stores data");
    report.bench("cell_write_transient_2t", || {
        cell.write(true, opaque(p_lo), 1.0e-9).unwrap()
    });
    let volts: Vec<f64> = (0..=8).map(|i| 0.20 + 0.10 * i as f64).collect();
    let widths: Vec<f64> = (0..=7).map(|i| (0.2 + 0.4 * i as f64) * 1e-9).collect();
    report.bench("cell_write_shmoo_9x8", || {
        write_shmoo(&cell, opaque(&volts), &widths, 0.06).unwrap()
    });
    let feram = FeramCell::default();
    report.bench("iso_comparison_table3", || {
        iso_comparison(&cell, &feram, opaque(0.8e-9), 32).unwrap()
    });
}

/// Seeded array for the sweep workloads. As in the determinism test,
/// the timestep is coarsened to 40 ps and the read window cut to 0.3 ns
/// (the shortest that still digitizes correctly): the stored
/// polarizations park every FE cap near its switching region, where
/// Newton iterates hard on every step, and the 20 ps default grid would
/// take twice the steps.
fn seeded(rows: usize, cols: usize) -> FefetArray {
    let mut a = FefetArray::new(rows, cols, FefetCell::default());
    a.cell.dt = 40e-12;
    let (p_lo, p_hi) = a.memory_states();
    let mut rng = Rng::seed_from_u64(0x8a_8a);
    for i in 0..rows {
        for j in 0..cols {
            let bit = rng.uniform() > 0.5;
            a.set_polarization(i, j, if bit { p_hi } else { p_lo });
        }
    }
    a
}

/// The transient fast paths A/B: one row read on the seeded array with
/// every fast path forced off vs. the defaults (Jacobian reuse + device
/// bypass + step prediction), batches interleaved so the ratio survives
/// host-load drift. The smoke run keeps the comparison as a hard gate:
/// the fast path failing to at least break even is a regression.
fn bench_fastpaths(report: &mut Report) {
    let a = seeded(8, 8);
    let mut exact_a = a.clone();
    exact_a.fastpaths = FastPathToggles::exact();
    let t_read = 0.3e-9;
    report.bench_pair(
        "array_read_row_8x8_exact",
        "array_read_row_8x8_fastpath",
        || {
            exact_a
                .read_row(0, t_read)
                .expect("exact row read")
                .bits
                .len()
        },
        || a.read_row(0, t_read).expect("fastpath row read").bits.len(),
    );
    // One instrumented run per side: the fast path must do strictly
    // fewer LU factorizations — that count is deterministic, so it
    // gates even single-shot smoke runs where timing is noise.
    let mut factors = [0u64; 2];
    for (k, (name, arr)) in [
        ("array_read_row_8x8_exact", &exact_a),
        ("array_read_row_8x8_fastpath", &a),
    ]
    .into_iter()
    .enumerate()
    {
        let mut t = arr.clone();
        t.instr = Instrumentation::enabled();
        t.read_row(0, t_read).expect("instrumented row read");
        if let Some(tel) = t.instr.get() {
            factors[k] = tel.solver.sparse_refactors.get();
            report.attach_telemetry(name, tel.solver.newton_iterations.sum() as u64, factors[k]);
        }
    }
    assert!(
        factors[1] < factors[0],
        "fast path must refactor less: {} vs exact {}",
        factors[1],
        factors[0]
    );
    let exact = report
        .min_of("array_read_row_8x8_exact")
        .expect("exact sample");
    let fast = report
        .min_of("array_read_row_8x8_fastpath")
        .expect("fastpath sample");
    assert!(
        fast <= exact * 1.10,
        "transient fast paths regressed the row read: {fast:.4} s vs exact {exact:.4} s"
    );
    println!(
        "transient fastpath speedup (exact/fast, min): {:.2}x ({} -> {} refactors)",
        exact / fast,
        factors[0],
        factors[1]
    );
}

/// One warm served escalation (a `write_row` + `read_row` pair) on the
/// seeded 32×32 array: each call writes the complement of the previous
/// word into row 0 and reads it back, with the array's analysis cache
/// warmed before timing. The row ops solve a row slice (384 unknowns).
fn bench_escalation(report: &mut Report) {
    let t_read = 0.3e-9;
    let t_write = 1.0e-9;
    let mut a = seeded(32, 32);
    let n = a.row_op_dims().expect("32x32 dims").n_unknowns as u64;
    let mut word: Vec<bool> = (0..a.cols).map(|j| j % 2 == 0).collect();
    let mut escalate = move || {
        for b in word.iter_mut() {
            *b = !*b;
        }
        a.write_row(0, &word, t_write).expect("escalated write");
        let read = a.read_row(0, t_read).expect("escalated read");
        assert_eq!(
            read.bits, word,
            "escalated read must return the written word"
        );
        read.op.steps
    };
    escalate();
    report.bench("array_escalation_32x32_sparse", &mut escalate);
    report.annotate("array_escalation_32x32_sparse", n, None);
}

fn bench_array_sweep(report: &mut Report) {
    let a = seeded(8, 8);
    let n8 = a.row_op_dims().expect("8x8 dims").n_unknowns as u64;
    let rows: Vec<usize> = (0..8).collect();
    let t_read = 0.3e-9;
    // Serial vs. pooled sweep with batches interleaved (the pre-pool
    // harness timed them in separate windows, which let host-load drift
    // manufacture a "speedup" — or hide a pessimization — between them).
    let mut serial = Vec::new();
    let mut par = Vec::new();
    report.bench_pair(
        "array_read_sweep_8x8_serial",
        "array_read_sweep_8x8_par4",
        || {
            serial = a.read_rows(&rows, t_read, 1).expect("serial sweep");
            serial.len()
        },
        || {
            par = a.read_rows(&rows, t_read, 4).expect("parallel sweep");
            par.len()
        },
    );
    // The pooled sweep's own telemetry, from one instrumented run.
    let mut pooled = a.clone();
    pooled.instr = Instrumentation::enabled();
    pooled
        .read_rows(&rows, t_read, 4)
        .expect("instrumented sweep");
    if let Some(tel) = pooled.instr.get() {
        println!(
            "pool telemetry: sweeps={} items={} workers_active(max)={} tasks_stolen={}",
            tel.pool.sweeps.get(),
            tel.pool.items.get(),
            tel.pool.workers_active.get(),
            tel.pool.tasks_stolen.get(),
        );
    }
    report.annotate("array_read_sweep_8x8_serial", n8, None);
    report.annotate("array_read_sweep_8x8_par4", n8, None);
    // The acceptance bar for the parallel sweep: serial and threaded
    // results agree to the last mantissa bit.
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.bits, p.bits);
        assert!(s
            .currents
            .iter()
            .zip(&p.currents)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(s.max_sneak.to_bits(), p.max_sneak.to_bits());
    }
    println!("array_read_sweep serial/par4: bit-identical over all 8 rows");
    // The scaling headline: a 16×16 sweep (4x the cells, 2x the
    // row-slice unknowns).
    let a16 = seeded(16, 16);
    let n16 = a16.row_op_dims().expect("16x16 dims").n_unknowns as u64;
    let rows16: Vec<usize> = (0..16).collect();
    report.bench_once("array_read_sweep_16x16_serial", || {
        a16.read_rows(&rows16, t_read, 1)
            .expect("16x16 sweep")
            .len()
    });
    report.annotate("array_read_sweep_16x16_serial", n16, None);

    // The large-array headline: a 64×64 serial read sweep. Each read
    // solves the 736-unknown row slice on sparse LU, and every pooled or
    // serial trial shares one symbolic analysis per pattern. Smoke runs
    // sweep a 4-row subset to keep CI fast.
    let a64 = seeded(64, 64);
    let n64 = a64.row_op_dims().expect("64x64 dims").n_unknowns as u64;
    let rows64: Vec<usize> = if smoke() {
        (0..4).collect()
    } else {
        (0..64).collect()
    };
    report.bench_once("array_read_sweep_64x64_serial", || {
        a64.read_rows(&rows64, t_read, 1)
            .expect("64x64 sweep")
            .len()
    });
    report.annotate("array_read_sweep_64x64_serial", n64, None);
}

/// The Monte Carlo yield engine's cross-trial reuse, in two pairs:
///
/// **Cold vs warm trial** — the same perturbed-array trials evaluated
/// the honest cold way (fresh workspace, its own symbolic analysis,
/// Newton from the initial-condition seed) against the engine's warm
/// path (reused per-worker scratch, shared analysis cache, Newton
/// warm-started from the converged nominal solution). One iteration on
/// either side evaluates the same fixed block of `TRIAL_BLOCK` trials,
/// so both sides do identical work per iteration; batches are
/// interleaved, and on full runs the warm path must win by ≥ 2×
/// (min-of-batches, so host-load drift cannot manufacture a pass).
/// One instrumented engine proves the reuse is real: exactly one
/// sparse symbolic analysis across the bootstrap and every trial.
///
/// **Serial vs pooled run** — the whole streaming yield run at one
/// thread vs four, with the bit-identity of the two reports asserted
/// inline (draws are serial, evaluation fans out, outcomes fold in
/// trial order).
fn bench_yield(report: &mut Report) {
    // 32×32 array, minimal device-level grids: the pair isolates the
    // solver-reuse win (symbolic analysis + warm start) rather than the
    // (identical-cost) per-trial shmoo work. A trial solves the 384-
    // unknown read row slice; the cold side's symbolic analysis and
    // workspace set-up then cost about as much as the warm trial
    // itself, which is the cost the shared cache deletes. Both sides
    // also pay the device draws and coercive ranking over all 1024
    // cells and the 1×1 shmoo and disturb integrations of the two cells
    // that ranking picks.
    let trial_spec = YieldSpec {
        rows: 32,
        cols: 32,
        n_trials: 64,
        seed: 0xca11_ab1e,
        threads: 1,
        shmoo_nv: 1,
        shmoo_nt: 1,
        ..YieldSpec::default()
    };
    let engine = YieldEngine::new(
        FefetCell::default(),
        trial_spec.clone(),
        Instrumentation::off(),
    )
    .expect("yield engine");
    let n = engine.n_unknowns() as u64;
    let mut scratch = engine.make_scratch();
    engine.run_trial(&mut scratch, 0); // stand the scratch up untimed

    // Trials differ in cost: at this seed 8 of the 64 (13, 16, 26, 28,
    // 35, 40, 45, 62) escape a Newton damping-clamp cycle and take 20-25
    // warm iterations against 12-18 for the rest. A batch holds only a
    // few cold trials, so timing different trials on each side would
    // compare different mixes. Both sides time one fixed block, the
    // first eight trials (all solve cleanly): the same work, and the
    // solver reuse this pair isolates.
    const TRIAL_BLOCK: usize = 8;
    report.bench_pair(
        "yield_trial_cold",
        "yield_trial_warm",
        || {
            (0..TRIAL_BLOCK)
                .map(|t| engine.run_trial_cold(opaque(t)).warm_iters)
                .sum::<u64>()
        },
        || {
            (0..TRIAL_BLOCK)
                .map(|t| engine.run_trial(&mut scratch, opaque(t)).warm_iters)
                .sum::<u64>()
        },
    );
    report.annotate("yield_trial_cold", n, None);
    report.annotate("yield_trial_warm", n, None);
    // Instrumented engines donate per-trial Newton/refactor counts and
    // pin the symbolic-reuse claim.
    let instr_w = Instrumentation::enabled();
    let eng_w = YieldEngine::new(FefetCell::default(), trial_spec.clone(), instr_w.clone())
        .expect("instrumented engine");
    let mut s_w = eng_w.make_scratch();
    let boot_analyses = instr_w
        .get()
        .map(|t| t.solver.sparse_symbolic_analyses.get())
        .unwrap_or(0);
    for t in 0..8 {
        eng_w.run_trial(&mut s_w, t);
    }
    let mut s_w2 = eng_w.make_scratch(); // a second worker joins the cache
    eng_w.run_trial(&mut s_w2, 0);
    if let Some(tel) = instr_w.get() {
        assert_eq!(
            tel.solver.sparse_symbolic_analyses.get(),
            boot_analyses,
            "warm trials must not re-analyze: one symbolic analysis per pattern per process"
        );
        assert!(tel.solver.analysis_cache_hits.get() >= 2);
        report.attach_telemetry(
            "yield_trial_warm",
            tel.solver.newton_iterations.sum() as u64,
            tel.solver.sparse_refactors.get(),
        );
        println!(
            "yield warm trials: {} symbolic analyses (bootstrap included), {} cache hits",
            tel.solver.sparse_symbolic_analyses.get(),
            tel.solver.analysis_cache_hits.get()
        );
    }
    let instr_c = Instrumentation::enabled();
    let eng_c = YieldEngine::new(FefetCell::default(), trial_spec, instr_c.clone())
        .expect("instrumented engine");
    let base = instr_c.get().map(|t| {
        (
            t.solver.newton_iterations.sum() as u64,
            t.solver.sparse_refactors.get(),
        )
    });
    for t in 0..9 {
        eng_c.run_trial_cold(t);
    }
    if let (Some(tel), Some((it0, rf0))) = (instr_c.get(), base) {
        report.attach_telemetry(
            "yield_trial_cold",
            tel.solver.newton_iterations.sum() as u64 - it0,
            tel.solver.sparse_refactors.get() - rf0,
        );
    }
    if let (Some(cold), Some(warm)) = (
        report.min_of("yield_trial_cold"),
        report.min_of("yield_trial_warm"),
    ) {
        // The acceptance gate: ≥ 2× per trial on full runs. Single-shot
        // smoke batches are too noisy for a ratio, but cold slower than
        // warm must hold even there.
        if smoke() {
            assert!(
                warm <= cold,
                "warm yield trial regressed past cold: {warm:.6} s vs {cold:.6} s"
            );
        } else {
            assert!(
                cold >= 2.0 * warm,
                "warm trial reuse must win ≥2x: cold {cold:.6} s vs warm {warm:.6} s"
            );
        }
        println!(
            "yield trial speedup (cold/warm, min of {TRIAL_BLOCK}-trial blocks): {:.2}x",
            cold / warm
        );
    }

    // The committed study's trials (`examples/yield_study.rs`: 4×4,
    // default 6×6 shmoo grid and disturb stress), serial and warm. At
    // this size the write shmoo and disturb LK integrations of a trial's
    // two stressed cells are a third or more of its cost, so this entry
    // shows a change to the stress integrator, which the 1×1 and 2×2
    // grids of the other yield entries hardly exercise. One fixed block
    // of trials (the first eight, all solving cleanly), as above.
    let committed = YieldEngine::new(
        FefetCell::default(),
        YieldSpec {
            rows: 4,
            cols: 4,
            n_trials: 256,
            seed: 0x5eed_f00d,
            threads: 1,
            ..YieldSpec::default()
        },
        Instrumentation::off(),
    )
    .expect("committed-spec yield engine");
    let mut committed_scratch = committed.make_scratch();
    committed.run_trial(&mut committed_scratch, 0);
    report.bench("yield_trial_4x4_default_grid", || {
        (0..TRIAL_BLOCK)
            .map(|t| {
                committed
                    .run_trial(&mut committed_scratch, opaque(t))
                    .shmoo_pass
            })
            .fold(0u64, |a, m| a ^ m)
    });

    // Serial vs pooled streaming run, bit-identity asserted inline.
    let run_spec = YieldSpec {
        rows: 4,
        cols: 4,
        n_trials: if smoke() { 8 } else { 32 },
        seed: 0x1e1d,
        threads: 1,
        shmoo_nv: 2,
        shmoo_nt: 2,
        ..YieldSpec::default()
    };
    let serial = YieldEngine::new(
        FefetCell::default(),
        run_spec.clone(),
        Instrumentation::off(),
    )
    .expect("serial yield engine");
    let par_spec = YieldSpec {
        threads: 4,
        ..run_spec.clone()
    };
    let par = YieldEngine::new(FefetCell::default(), par_spec, Instrumentation::off())
        .expect("pooled yield engine");
    let mut last_serial = None;
    let mut last_par = None;
    report.bench_pair(
        "yield_run_serial",
        "yield_run_par4",
        || {
            let r = serial.run();
            let y = r.read_yield;
            last_serial = Some(r);
            y
        },
        || {
            let r = par.run();
            let y = r.read_yield;
            last_par = Some(r);
            y
        },
    );
    let (Some(rs), Some(rp)) = (last_serial, last_par) else {
        panic!("yield pair produced no reports");
    };
    // Normalize the meta line (thread count) and demand identical
    // payloads — every statistic, histogram bucket and corner.
    assert_eq!(
        rs.to_run_report(&run_spec).to_json(),
        rp.to_run_report(&run_spec).to_json(),
        "pooled yield run must be bit-identical to serial"
    );
    println!(
        "yield_run serial/par4: reports bit-identical over {} trials",
        rs.n_trials
    );
    if let (Some(s), Some(p)) = (
        report.min_of("yield_run_serial"),
        report.min_of("yield_run_par4"),
    ) {
        println!(
            "yield_run 4-thread speedup (serial/par4, min): {:.2}x",
            s / p
        );
    }
}

fn bench_lk_stepper(report: &mut Report) {
    let dev = paper_fefet();
    report.bench("lk_write_transient_2000_steps", || {
        dev.transient(|_t| 0.68, opaque(-0.18), 2e-9, 2000).unwrap()
    });
}

/// The static equilibrium scans behind the paper's device figures: a
/// quasi-static I_D-V_G sweep, a 500-sample Monte Carlo and the
/// endurance cycles-to-failure bisection. Each reads its C-V card's
/// cached gate-branch table and its Landau coefficients' cached field
/// table instead of re-evaluating either per grid point, and solves only
/// the roots it reads, by Newton in `V_MOS`.
fn bench_device_scans(report: &mut Report) {
    let dev = paper_fefet();
    report.bench("device_sweep_id_vg_300", || {
        dev.sweep_id_vg(opaque(-1.0), 1.0, 300, 0.05)
    });
    let spec = VariationSpec::default();
    report.bench("device_monte_carlo_500", || {
        monte_carlo(&dev, &spec, 500, opaque(42))
    });
    let model = EnduranceModel::default();
    report.bench("device_cycles_to_failure", || {
        model.cycles_to_failure(&dev, opaque(1e6), 1e18)
    });
}

fn main() {
    let mut report = Report::new();
    bench_newton(&mut report);
    bench_newton_scaling(&mut report);
    bench_instr_overhead(&mut report);
    bench_rc_transient(&mut report);
    bench_cell_write(&mut report);
    bench_fastpaths(&mut report);
    bench_escalation(&mut report);
    bench_array_sweep(&mut report);
    bench_yield(&mut report);
    bench_lk_stepper(&mut report);
    bench_device_scans(&mut report);

    // Derived headline ratio.
    if let (Some(serial), Some(par)) = (
        report.median_of("array_read_sweep_8x8_serial"),
        report.median_of("array_read_sweep_8x8_par4"),
    ) {
        println!(
            "array_read_sweep 4-thread speedup:            {:.2}x",
            serial / par
        );
    }

    // A full run leaves the committed baseline at the repository root;
    // smoke runs (CI) measure nothing worth keeping.
    if !smoke() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solvers.json");
        report
            .write_json("solvers", &path)
            .expect("write BENCH_solvers.json");
        println!("wrote {}", path.display());
    }
}
