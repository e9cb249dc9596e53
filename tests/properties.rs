//! Cross-crate property tests over the full stack.
//!
//! Std-only randomized sweeps (seeded via [`fefet::numerics::rng`])
//! stand in for `proptest`, which the offline build cannot fetch.

use fefet::device::paper_fefet;
use fefet::mem::array::FefetArray;
use fefet::mem::cell::FefetCell;
use fefet::mem::NvmParams;
use fefet::numerics::rng::Rng;
use fefet::nvp::harvester::PowerTrace;
use fefet::nvp::processor::{simulate, NvpConfig};
use fefet::nvp::workload::mibench_suite;

/// Any 3-bit pattern written to a row reads back exactly.
#[test]
fn array_roundtrips_any_pattern() {
    let mut rng = Rng::seed_from_u64(0x3001);
    for case in 0..8 {
        let bits: Vec<bool> = (0..3).map(|_| rng.bool()).collect();
        let mut array = FefetArray::new(1, 3, FefetCell::default());
        array.write_row(0, &bits, 1.0e-9).unwrap();
        let r = array.read_row(0, 3e-9).unwrap();
        assert_eq!(r.bits, bits, "case {case}");
    }
}

/// Writes from arbitrary physical starting polarizations inside the
/// well range land in the commanded state.
#[test]
fn cell_write_converges_from_any_start() {
    let mut rng = Rng::seed_from_u64(0x3002);
    for case in 0..8 {
        let p0 = rng.uniform_in(-0.25, 0.25);
        let data = rng.bool();
        let cell = FefetCell::default();
        let (p_lo, p_hi) = cell.checked_memory_states().unwrap();
        let w = cell.write(data, p0, 2.0e-9).unwrap();
        let target = if data { p_hi } else { p_lo };
        assert!(
            (w.p_final - target).abs() < 0.06,
            "case {case}: from {} wrote {} -> {}",
            p0,
            data,
            w.p_final
        );
    }
}

/// Gate-voltage equilibria always alternate stable/unstable and the
/// count is odd (topological property of the S-curve).
#[test]
fn equilibria_structure() {
    let mut rng = Rng::seed_from_u64(0x3003);
    for case in 0..16 {
        let v_g = rng.uniform_in(-1.0, 1.0);
        let dev = paper_fefet();
        let eq = dev.equilibria(v_g, 0.9, 3000);
        assert!(
            eq.len() % 2 == 1,
            "case {case}: even equilibrium count at {v_g}"
        );
        for w in eq.windows(2) {
            assert_ne!(w[0].stable, w[1].stable, "case {case}");
        }
        // Outermost equilibria are stable.
        assert!(eq.first().unwrap().stable, "case {case}");
        assert!(eq.last().unwrap().stable, "case {case}");
    }
}

/// NVP forward progress is bounded and monotone in a uniform power
/// scale factor.
#[test]
fn nvp_fp_bounded_and_monotone() {
    let mut rng = Rng::seed_from_u64(0x3004);
    for case in 0..16 {
        let scale = rng.uniform_in(0.5, 2.0);
        let bench = mibench_suite()[2];
        let cfg = NvpConfig::with_nvm(NvmParams::paper_fefet());
        let base: Vec<(f64, f64)> = (0..40)
            .flat_map(|_| [(100e-6, 140e-6), (150e-6, 0.0)])
            .collect();
        let tr1 = PowerTrace::from_segments(base.clone());
        let tr2 = PowerTrace::from_segments(base.iter().map(|(d, p)| (*d, p * scale)).collect());
        let r1 = simulate(&cfg, &tr1, &bench);
        let r2 = simulate(&cfg, &tr2, &bench);
        assert!((0.0..=1.0).contains(&r1.forward_progress), "case {case}");
        assert!((0.0..=1.0).contains(&r2.forward_progress), "case {case}");
        if scale >= 1.0 {
            assert!(
                r2.forward_progress >= r1.forward_progress - 1e-9,
                "case {case}"
            );
        } else {
            assert!(
                r2.forward_progress <= r1.forward_progress + 1e-9,
                "case {case}"
            );
        }
    }
}

/// The FEFET always beats the FERAM on any bursty trace (it never
/// pays more per backup/restore).
#[test]
fn fefet_never_loses() {
    let mut rng = Rng::seed_from_u64(0x3005);
    for case in 0..16 {
        let on_us = rng.uniform_in(60.0, 200.0);
        let off_us = rng.uniform_in(100.0, 500.0);
        let bench = mibench_suite()[0];
        let segs: Vec<(f64, f64)> = (0..30)
            .flat_map(|_| [(on_us * 1e-6, 180e-6), (off_us * 1e-6, 0.0)])
            .collect();
        let tr = PowerTrace::from_segments(segs);
        let f = simulate(&NvpConfig::with_nvm(NvmParams::paper_fefet()), &tr, &bench);
        let r = simulate(&NvpConfig::with_nvm(NvmParams::paper_feram()), &tr, &bench);
        assert!(
            f.forward_progress >= r.forward_progress - 1e-9,
            "case {case}: FEFET {} vs FERAM {}",
            f.forward_progress,
            r.forward_progress
        );
    }
}
