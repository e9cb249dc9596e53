//! Dense linear algebra: matrices, LU factorization, linear solves.
//!
//! The circuit simulator assembles modified-nodal-analysis (MNA) systems of
//! at most a few hundred unknowns, so a dense LU with partial pivoting is
//! the right tool: simple, robust, and cache-friendly at these sizes.

use crate::{Error, Result};

/// A dense, row-major `rows x cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use fefet_numerics::linalg::Matrix;
///
/// # fn main() -> Result<(), fefet_numerics::Error> {
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 4.0;
/// m[(1, 1)] = 2.0;
/// let x = m.solve(&[8.0, 4.0])?;
/// assert_eq!(x, vec![2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `rows` is empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(Error::InvalidArgument("from_rows: no rows"));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(Error::InvalidArgument("from_rows: zero columns"));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(Error::InvalidArgument("from_rows: ragged rows"));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `v` to entry `(r, c)` — the "stamp" operation used by MNA.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self[(r, c)] += v;
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                found: (x.len(), 1),
                expected: (self.cols, 1),
            });
        }
        let y = self
            .data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(y)
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Factors the matrix in place into `P * A = L * U` and solves `A x = b`.
    ///
    /// Convenience wrapper over [`LuFactors::factor`] + [`LuFactors::solve`]
    /// for single right-hand sides. Use [`LuFactors`] directly to reuse the
    /// factorization.
    ///
    /// # Errors
    ///
    /// [`Error::Singular`] if a pivot is (numerically) zero,
    /// [`Error::DimensionMismatch`] if `b.len() != self.rows()` or the
    /// matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let lu = LuFactors::factor(self.clone())?;
        lu.solve(b)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

/// LU factorization with partial pivoting of a square matrix.
///
/// Factor once, then solve any number of right-hand sides — the pattern the
/// transient simulator uses when the Jacobian is reused across Newton steps.
///
/// # Example
///
/// ```
/// use fefet_numerics::linalg::{LuFactors, Matrix};
///
/// # fn main() -> Result<(), fefet_numerics::Error> {
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?; // needs pivoting
/// let lu = LuFactors::factor(a)?;
/// assert_eq!(lu.solve(&[3.0, 7.0])?, vec![7.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    ipiv: Vec<usize>,
    sign: f64,
}

/// Pivots smaller than this (relative to the largest entry in the column)
/// are treated as exactly zero.
const PIVOT_EPS: f64 = 1e-300;

/// Gaussian elimination with partial pivoting over row-major storage,
/// recording the row swapped into position at each step (`ipiv[k] == k`
/// when no swap happened). Returns the permutation sign.
///
/// The elimination works on whole-row slices so the inner loops carry no
/// per-element bounds checks.
fn eliminate_in_place(data: &mut [f64], n: usize, ipiv: &mut [usize]) -> Result<f64> {
    let mut sign = 1.0;
    for k in 0..n {
        // Find pivot: largest |a[i][k]| for i >= k. Walking whole rows
        // keeps the column scan free of per-access index arithmetic;
        // the strict `>` makes the first maximum win, exactly as a
        // top-down indexed scan would.
        let mut p = k;
        let mut max = 0.0;
        for (i, row) in data[k * n..].chunks_exact(n).enumerate() {
            let v = row[k].abs();
            if v > max {
                max = v;
                p = k + i;
            }
        }
        if max < PIVOT_EPS {
            return Err(Error::Singular { column: k });
        }
        ipiv[k] = p;
        if p != k {
            let (head, tail) = data.split_at_mut(p * n);
            head[k * n..k * n + n].swap_with_slice(&mut tail[..n]);
            sign = -sign;
        }
        let pivot = data[k * n + k];
        let (fixed, active) = data.split_at_mut((k + 1) * n);
        let row_k = &fixed[k * n..];
        for row_i in active.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            for (aic, akc) in row_i[k + 1..n].iter_mut().zip(&row_k[k + 1..n]) {
                *aic -= factor * akc;
            }
        }
    }
    Ok(sign)
}

/// Permutation + triangular substitution on `x` in place, using the
/// factored storage `lu` and the recorded swap sequence `ipiv`.
fn substitute_in_place(lu: &[f64], n: usize, ipiv: &[usize], x: &mut [f64]) {
    // Apply the recorded row swaps in factorization order — the same
    // permutation the elimination applied to the matrix rows.
    for (k, &p) in ipiv.iter().enumerate() {
        if p != k {
            x.swap(k, p);
        }
    }
    // Forward substitution with unit lower triangle.
    for i in 1..n {
        let row = &lu[i * n..i * n + i];
        let (solved, xi) = x.split_at_mut(i);
        let mut s = xi[0];
        for (l, xj) in row.iter().zip(solved.iter()) {
            s -= l * xj;
        }
        xi[0] = s;
    }
    // Back substitution, accumulating in ascending-j order like the
    // indexed form it replaced (the sum order is part of the result's
    // bit pattern).
    for i in (0..n).rev() {
        let row = &lu[i * n..(i + 1) * n];
        let (head, tail) = x.split_at_mut(i + 1);
        let mut s = head[i];
        for (r, xj) in row[i + 1..].iter().zip(&*tail) {
            s -= r * xj;
        }
        head[i] = s / row[i];
    }
}

impl LuFactors {
    /// Factors `a` (consumed) into `P A = L U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `a` is not square;
    /// [`Error::Singular`] if elimination finds a zero pivot column.
    pub fn factor(mut a: Matrix) -> Result<Self> {
        if a.rows != a.cols {
            return Err(Error::DimensionMismatch {
                found: (a.rows, a.cols),
                expected: (a.rows, a.rows),
            });
        }
        let n = a.rows;
        let mut ipiv: Vec<usize> = (0..n).collect();
        let sign = eliminate_in_place(&mut a.data, n, &mut ipiv)?;
        Ok(LuFactors { lu: a, ipiv, sign })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows
    }

    /// The packed `L\U` factors (unit lower triangle below the diagonal,
    /// upper triangle on and above it).
    pub fn factors(&self) -> &Matrix {
        &self.lu
    }

    /// The pivot swap sequence: at elimination step `k`, row `k` was
    /// swapped with row `pivots()[k]`.
    pub fn pivots(&self) -> &[usize] {
        &self.ipiv
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `b.len() != self.order()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `b` holds the right-hand side on entry
    /// and the solution on return. Performs no allocation.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if `b.len() != self.order()`.
    pub fn solve_into(&self, b: &mut [f64]) -> Result<()> {
        let n = self.order();
        if b.len() != n {
            return Err(Error::DimensionMismatch {
                found: (b.len(), 1),
                expected: (n, 1),
            });
        }
        substitute_in_place(&self.lu.data, n, &self.ipiv, b);
        Ok(())
    }

    /// Determinant of the original matrix (product of pivots times the
    /// permutation sign).
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.order() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// `y += alpha * x`, element-wise.
///
/// # Panics
///
/// Panics if slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z[(2, 3)], 0.0);
        let i = Matrix::identity(3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[1.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        let empty: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty]).is_err());
    }

    #[test]
    fn mul_vec_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let x = a.solve(&[5.0, 1.0, 2.0]).unwrap();
        // x = [1, 2, 1]
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
        assert_close(x[2], 1.0, 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.solve(&[1.0, 2.0]) {
            Err(Error::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_factor_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactors::factor(a),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn det_of_permutation() {
        // Swapping two rows of identity gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactors::factor(a).unwrap();
        assert_close(lu.det(), -1.0, 1e-12);
    }

    #[test]
    fn det_of_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let lu = LuFactors::factor(a).unwrap();
        assert_close(lu.det(), -6.0, 1e-12);
    }

    #[test]
    fn reuse_factorization_for_many_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let lu = LuFactors::factor(a.clone()).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -3.0]] {
            let x = lu.solve(&b).unwrap();
            let back = a.mul_vec(&x).unwrap();
            assert_close(back[0], b[0], 1e-12);
            assert_close(back[1], b[1], 1e-12);
        }
    }

    #[test]
    fn solve_wrong_rhs_len() {
        let a = Matrix::identity(2);
        assert!(a.solve(&[1.0]).is_err());
    }

    #[test]
    fn norms() {
        assert_close(norm2(&[3.0, 4.0]), 5.0, 1e-15);
        assert_close(norm_inf(&[1.0, -7.0, 3.0]), 7.0, 0.0);
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]).unwrap();
        assert_close(m.norm_inf(), 3.5, 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn stamp_add() {
        let mut m = Matrix::zeros(2, 2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 0.5);
        assert_eq!(m[(0, 0)], 2.0);
        m.clear();
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let lu = LuFactors::factor(a).unwrap();
        let b = [2.0, -3.0];
        let x = lu.solve(&b).unwrap();
        let mut y = b;
        lu.solve_into(&mut y).unwrap();
        assert_eq!(x[0].to_bits(), y[0].to_bits());
        assert_eq!(x[1].to_bits(), y[1].to_bits());
        assert!(lu.solve_into(&mut [1.0]).is_err());
    }

    #[test]
    fn matrix_slice_access() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        m.as_mut_slice()[3] = 5.0;
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    fn solve_hilbert_4() {
        // Hilbert 4x4 is ill-conditioned but still solvable in f64.
        let n = 4;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / ((i + j + 1) as f64);
            }
        }
        // b = A * ones
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let x = a.solve(&b).unwrap();
        for xi in x {
            assert_close(xi, 1.0, 1e-9);
        }
    }
}
