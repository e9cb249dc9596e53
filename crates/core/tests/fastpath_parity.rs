//! Parity bounds for the transient fast paths (modified-Newton Jacobian
//! reuse, device bypass, step prediction): each knob toggled on its own,
//! and all together, against the all-off exact path on the seeded 8×8
//! read and a 2T-cell array write. The fast paths may change the Newton
//! trajectory, but not the physics: same accepted-step sequence (fixed
//! dt), same digitized bits, voltages/currents within solver tolerance
//! — and the pooled sweep stays bit-deterministic across thread counts.

use fefet_mem::array::{FastPathToggles, FefetArray};
use fefet_mem::cell::FefetCell;
use fefet_numerics::rng::Rng;

/// Same fixture as `parallel_sweeps.rs`: an 8×8 array with a seeded
/// random bit pattern installed directly as stored polarizations, and a
/// 40 ps step to bound the runtime.
fn seeded_8x8() -> (FefetArray, Vec<Vec<bool>>) {
    let mut a = FefetArray::new(8, 8, FefetCell::default());
    a.cell.dt = 40e-12;
    let (p_lo, p_hi) = a.memory_states();
    let mut rng = Rng::seed_from_u64(0x8a_8a);
    let mut pattern = Vec::new();
    for i in 0..8 {
        let mut row = Vec::new();
        for j in 0..8 {
            let bit = rng.uniform() > 0.5;
            a.set_polarization(i, j, if bit { p_hi } else { p_lo });
            row.push(bit);
        }
        pattern.push(row);
    }
    (a, pattern)
}

/// The toggle matrix under test: each knob alone, then all together.
fn knob_configs() -> Vec<(&'static str, FastPathToggles)> {
    vec![
        (
            "jacobian_reuse",
            FastPathToggles {
                jacobian_reuse: true,
                ..FastPathToggles::exact()
            },
        ),
        (
            "bypass",
            FastPathToggles {
                bypass: true,
                ..FastPathToggles::exact()
            },
        ),
        (
            "predict",
            FastPathToggles {
                predict: true,
                ..FastPathToggles::exact()
            },
        ),
        ("all", FastPathToggles::default()),
    ]
}

/// Current agreement bound: relative at solver scale plus an absolute
/// floor well under the 1e-7 A digitization threshold. Both solves stop
/// at `tol_i = 1e-12` / `tol_v = 1e-9`, so sensed currents can differ by
/// the tolerance itself, not by machine epsilon.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()) + 1e-9
}

#[test]
fn read_parity_each_knob_vs_exact_on_seeded_8x8() {
    let (base, pattern) = seeded_8x8();
    let t_read = 0.3e-9;
    let rows = [0usize, 5];

    let mut exact = base.clone();
    exact.fastpaths = FastPathToggles::exact();
    let reference = exact.read_rows(&rows, t_read, 1).expect("exact sweep");

    for (name, toggles) in knob_configs() {
        let mut fast = base.clone();
        fast.fastpaths = toggles;
        let got = fast.read_rows(&rows, t_read, 1).expect("fast sweep");
        for (k, &row) in rows.iter().enumerate() {
            assert_eq!(got[k].bits, pattern[row], "{name}: bits, row {row}");
            assert_eq!(
                got[k].op.steps, reference[k].op.steps,
                "{name}: accepted-step count diverged, row {row}"
            );
            for (j, (e, f)) in reference[k]
                .currents
                .iter()
                .zip(&got[k].currents)
                .enumerate()
            {
                assert!(
                    close(*e, *f),
                    "{name}: current row {row} col {j}: exact {e:e} vs fast {f:e}"
                );
            }
            assert!(
                close(reference[k].max_sneak, got[k].max_sneak),
                "{name}: sneak, row {row}: exact {:e} vs fast {:e}",
                reference[k].max_sneak,
                got[k].max_sneak
            );
        }
    }
}

#[test]
fn write_parity_each_knob_vs_exact_on_2t_cells() {
    let base = FefetArray::new(2, 2, FefetCell::default());
    let data = [true, false];

    let mut exact = base.clone();
    exact.fastpaths = FastPathToggles::exact();
    let ref_op = exact.write_row(0, &data, 1.0e-9).expect("exact write");

    for (name, toggles) in knob_configs() {
        let mut fast = base.clone();
        fast.fastpaths = toggles;
        let op = fast.write_row(0, &data, 1.0e-9).expect("fast write");
        assert_eq!(
            op.steps, ref_op.steps,
            "{name}: accepted-step count diverged"
        );
        // The written polarizations define the stored data; they must
        // match the exact path well inside the memory window (the two
        // states are ~0.2 C/m^2 apart).
        for i in 0..2 {
            for j in 0..2 {
                let pe = exact.polarization(i, j);
                let pf = fast.polarization(i, j);
                assert!(
                    (pe - pf).abs() < 1e-4,
                    "{name}: cell ({i},{j}) polarization {pf} vs exact {pe}"
                );
            }
        }
        assert!(
            (op.max_disturb - ref_op.max_disturb).abs() < 1e-4,
            "{name}: disturb {:e} vs exact {:e}",
            op.max_disturb,
            ref_op.max_disturb
        );
        assert_eq!(fast.bit(0, 0), true, "{name}: wrote '1'");
        assert_eq!(fast.bit(0, 1), false, "{name}: wrote '0'");
    }
}

/// With every fast path on, the pooled sweep must still be a pure
/// function of the inputs: 1-thread and 4-thread runs agree bit for bit.
#[test]
fn fast_paths_stay_deterministic_across_thread_counts() {
    let (a, _) = seeded_8x8();
    let rows = [0usize, 3, 7];
    let serial = a.read_rows(&rows, 0.3e-9, 1).expect("serial");
    let parallel = a.read_rows(&rows, 0.3e-9, 4).expect("parallel");
    for k in 0..rows.len() {
        assert_eq!(serial[k].bits, parallel[k].bits);
        for (s, p) in serial[k].currents.iter().zip(&parallel[k].currents) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }
}
