//! Property-based tests for the numerics kernel.
//!
//! The workspace is std-only (no `proptest` in the offline registry), so
//! each property is exercised over a seeded sweep of random inputs from
//! [`fefet_numerics::rng`] — reproducible, and failures print the case
//! index so a shrunk reproduction is one seed away.

use fefet_numerics::complex::{CMatrix, Complex};
use fefet_numerics::linalg::{norm_inf, LuFactors, LuWorkspace, Matrix};
use fefet_numerics::rng::Rng;

const CASES: usize = 64;

fn vec_in(rng: &mut Rng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.uniform_in(lo, hi)).collect()
}

/// A diagonally dominant matrix is well conditioned enough for tight
/// round-trip bounds.
fn diag_dominant(n: usize, entries: &[f64]) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut row_sum = 0.0;
        for c in 0..n {
            if r != c {
                let v = entries[r * n + c];
                m[(r, c)] = v;
                row_sum += v.abs();
            }
        }
        m[(r, r)] = row_sum + 1.0 + entries[r * n + r].abs();
    }
    m
}

#[test]
fn lu_solves_diag_dominant_systems() {
    let mut rng = Rng::seed_from_u64(0x1001);
    for case in 0..CASES {
        let n = 1 + rng.below(7) as usize;
        let seed = vec_in(&mut rng, -10.0, 10.0, 64);
        let xs = vec_in(&mut rng, -5.0, 5.0, 8);
        let m = diag_dominant(n, &seed);
        let x_true = &xs[..n];
        let b = m.mul_vec(x_true).unwrap();
        let lu = LuFactors::factor(m.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        let err: f64 = x
            .iter()
            .zip(x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "case {case}: round-trip error {err}");
    }
}

#[test]
fn in_place_lu_is_bit_identical_to_owning_factorization() {
    // The reusable workspace must not be "approximately" the owning
    // path: identical pivot choices, identical factor entries, identical
    // solutions — bit for bit — across random well-conditioned systems
    // of every size the circuit engine uses, including a workspace that
    // is reused (and resized) across cases.
    let mut rng = Rng::seed_from_u64(0x1011);
    let mut ws = LuWorkspace::new(1);
    for case in 0..CASES {
        let n = 1 + rng.below(8) as usize;
        let seed = vec_in(&mut rng, -10.0, 10.0, n * n);
        let b = vec_in(&mut rng, -5.0, 5.0, n);
        let m = diag_dominant(n, &seed);

        let owning = LuFactors::factor(m.clone()).unwrap();
        ws.factor(&m).unwrap();

        assert_eq!(ws.pivots(), owning.pivots(), "case {case}: pivot rows");
        let a = owning.factors().as_slice();
        let w = ws.factors().as_slice();
        assert_eq!(a.len(), w.len(), "case {case}");
        for (k, (x, y)) in a.iter().zip(w).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: factor entry {k}: {x:?} vs {y:?}"
            );
        }
        assert_eq!(
            owning.det().to_bits(),
            ws.det().unwrap().to_bits(),
            "case {case}: determinant"
        );

        let x_own = owning.solve(&b).unwrap();
        let mut x_ws = b.clone();
        ws.solve_into(&mut x_ws).unwrap();
        for (k, (x, y)) in x_own.iter().zip(&x_ws).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: solution entry {k}: {x:?} vs {y:?}"
            );
        }

        // The buffer-swapping variant is the same computation again:
        // same factors, same pivots, same solve — and the matrix handed
        // back must be usable as an n x n staging buffer.
        let mut staged = m.clone();
        ws.factor_in_place(&mut staged).unwrap();
        assert_eq!(ws.pivots(), owning.pivots(), "case {case}: swap pivots");
        for (k, (x, y)) in a.iter().zip(ws.factors().as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: swap factor entry {k}: {x:?} vs {y:?}"
            );
        }
        let mut x_swap = b.clone();
        ws.solve_into(&mut x_swap).unwrap();
        for (k, (x, y)) in x_own.iter().zip(&x_swap).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: swap solution entry {k}: {x:?} vs {y:?}"
            );
        }
        assert_eq!(
            (staged.rows(), staged.cols()),
            (n, n),
            "case {case}: returned staging buffer order"
        );

        // The fused factor-and-solve carries the RHS through the
        // elimination as an augmented column; it must reproduce the
        // factor-then-substitute result bit for bit, and leave the
        // workspace factored for further right-hand sides.
        let mut fused_m = m.clone();
        let mut x_fused = b.clone();
        ws.factor_solve_in_place(&mut fused_m, &mut x_fused)
            .unwrap();
        assert_eq!(ws.pivots(), owning.pivots(), "case {case}: fused pivots");
        for (k, (x, y)) in a.iter().zip(ws.factors().as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: fused factor entry {k}: {x:?} vs {y:?}"
            );
        }
        for (k, (x, y)) in x_own.iter().zip(&x_fused).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: fused solution entry {k}: {x:?} vs {y:?}"
            );
        }
        let mut x_again = b.clone();
        ws.solve_into(&mut x_again).unwrap();
        for (k, (x, y)) in x_own.iter().zip(&x_again).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "case {case}: post-fused solve entry {k}: {x:?} vs {y:?}"
            );
        }
        assert_eq!(
            owning.det().to_bits(),
            ws.det().unwrap().to_bits(),
            "case {case}: fused determinant"
        );
    }
}

#[test]
fn lu_determinant_sign_consistent_with_solvability() {
    let mut rng = Rng::seed_from_u64(0x1002);
    for case in 0..CASES {
        let n = 1 + rng.below(5) as usize;
        let seed = vec_in(&mut rng, -10.0, 10.0, 36);
        let m = diag_dominant(n, &seed);
        let lu = LuFactors::factor(m).unwrap();
        // Diagonally dominant with positive diagonal => det > 0.
        assert!(lu.det() > 0.0, "case {case}: det {}", lu.det());
    }
}

#[test]
fn complex_field_axioms() {
    let mut rng = Rng::seed_from_u64(0x100b);
    for case in 0..CASES {
        let a = Complex::new(rng.uniform_in(-10.0, 10.0), rng.uniform_in(-10.0, 10.0));
        let b = Complex::new(rng.uniform_in(-10.0, 10.0), rng.uniform_in(-10.0, 10.0));
        // Commutativity and distributivity.
        assert!(((a + b) - (b + a)).abs() < 1e-12, "case {case}");
        assert!((a * b - b * a).abs() < 1e-9, "case {case}");
        let lhs = a * (b + Complex::ONE);
        let rhs = a * b + a;
        assert!((lhs - rhs).abs() < 1e-9, "case {case}");
        // |a·b| = |a|·|b| and conj distributes over products.
        assert!(
            ((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            ((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9,
            "case {case}"
        );
        // Division round-trips when |b| is away from zero.
        if b.abs() > 1e-6 {
            assert!(((a / b) * b - a).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn complex_solve_residual_small() {
    let mut rng = Rng::seed_from_u64(0x100c);
    for case in 0..CASES {
        // Diagonally dominant 3x3 complex system.
        let n = 3;
        let mut m = CMatrix::zeros(n);
        let mut store = vec![vec![Complex::ZERO; n]; n];
        for r in 0..n {
            let mut dom = 0.0;
            for c in 0..n {
                if r != c {
                    let v = Complex::new(rng.uniform_in(-5.0, 5.0), rng.uniform_in(-5.0, 5.0));
                    store[r][c] = v;
                    m.add(r, c, v);
                    dom += v.abs();
                }
            }
            let d = Complex::new(dom + 1.0, 0.5);
            store[r][r] = d;
            m.add(r, r, d);
        }
        let b: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.uniform_in(-5.0, 5.0), rng.uniform_in(-5.0, 5.0)))
            .collect();
        let x = m.solve(&b).unwrap();
        // Residual check.
        for r in 0..n {
            let mut acc = Complex::ZERO;
            for c in 0..n {
                acc += store[r][c] * x[c];
            }
            assert!((acc - b[r]).abs() < 1e-9, "case {case}: row {r} residual");
        }
    }
}

#[test]
fn matrix_vector_residual_small_after_solve() {
    let mut rng = Rng::seed_from_u64(0x100d);
    for case in 0..CASES {
        let n = 2 + rng.below(5) as usize;
        let seed = vec_in(&mut rng, -3.0, 3.0, 49);
        let b = vec_in(&mut rng, -10.0, 10.0, 7);
        let m = diag_dominant(n, &seed);
        let rhs = &b[..n];
        let x = m.solve(rhs).unwrap();
        let back = m.mul_vec(&x).unwrap();
        let res: Vec<f64> = back.iter().zip(rhs).map(|(a, b)| a - b).collect();
        assert!(
            norm_inf(&res) < 1e-9,
            "case {case}: residual {}",
            norm_inf(&res)
        );
    }
}
