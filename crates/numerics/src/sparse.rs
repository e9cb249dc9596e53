//! Sparse CSR matrices and a pattern-cached sparse LU factorization.
//!
//! This is the scalable counterpart of [`crate::linalg`]: an MNA Jacobian
//! of an N×N memory array is overwhelmingly sparse (each element stamps
//! only its own terminal nodes), so dense O(n³) factorization dominates
//! wall-clock long before the arrays reach the sizes the paper studies.
//! The design follows the classic SPICE/KLU split:
//!
//! - **Symbolic analysis, once per circuit** ([`SparseLu::analyze`]):
//!   from the structural nonzero pattern alone, pick a fill-reducing
//!   pivot order (a restricted structural Markowitz search with row
//!   *and* column permutations, so structurally zero diagonals — e.g.
//!   voltage-source branch rows — are handled without numeric
//!   pivoting), compute the complete fill-in pattern, and preallocate
//!   every buffer the numeric phase will touch.
//! - **Numeric refactorization, every Newton iteration**
//!   ([`SparseLu::refactor`]): a row-wise Doolittle elimination that
//!   scatters each matrix row into a dense work array, applies the
//!   precomputed update sequence, and gathers back into the LU value
//!   array. No allocation, no searching, no hashing in the hot path.
//!
//! The matrix itself ([`CsrMatrix`]) has a **fixed pattern**: callers
//! resolve (row, col) coordinates to value-array slots once at setup
//! time via [`CsrMatrix::slot_of`] and thereafter stamp with
//! `values_mut()[slot] += g`. The pattern is immutable after
//! construction; stamps may only touch preresolved slots.
//!
//! The analysis products themselves are immutable and live in a
//! [`SparseSymbolic`] behind an `Arc`: many [`SparseLu`] instances (one
//! per parallel sweep worker) share a single symbolic analysis and carry
//! only their own numeric buffers.

use crate::linalg::Matrix;
use crate::{Error, Result};
use std::sync::Arc;

/// Pivots smaller than this in magnitude are treated as exact zeros,
/// mirroring the dense LU in [`crate::linalg`].
const PIVOT_EPS: f64 = 1e-300;

/// Immutable structural nonzero pattern of a square sparse matrix in
/// compressed-sparse-row form (column indices sorted within each row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
}

impl CsrPattern {
    /// Builds a pattern from an unordered (row, col) coordinate list.
    ///
    /// Duplicates are merged. Every row and every column must contain at
    /// least one structural entry; an empty row or column makes the
    /// matrix structurally singular and is reported as a typed error so
    /// callers can identify the offending unknown/equation.
    // fefet-lint: allow-item(hot-alloc) -- one-time pattern construction; the numeric phase reuses it allocation-free
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidArgument("empty pattern (n == 0)"));
        }
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_seen = vec![false; n];
        for &(r, c) in entries {
            if r >= n || c >= n {
                return Err(Error::InvalidArgument(
                    "pattern entry out of range for matrix order",
                ));
            }
            rows[r].push(c);
            col_seen[c] = true;
        }
        for (r, cols) in rows.iter_mut().enumerate() {
            if cols.is_empty() {
                return Err(Error::StructurallySingular { index: r });
            }
            cols.sort_unstable();
            cols.dedup();
        }
        for (c, seen) in col_seen.iter().enumerate() {
            if !seen {
                return Err(Error::StructurallySingular { index: c });
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for cols in &rows {
            col_idx.extend_from_slice(cols);
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            n,
            row_ptr,
            col_idx,
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row-pointer array (length `n + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column-index array (length `nnz`), sorted within each row.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value-array slot of entry `(r, c)`, or `None` if the entry is not
    /// in the pattern. Binary search — intended for setup-time slot
    /// resolution, not for hot-loop stamping.
    pub fn slot_of(&self, r: usize, c: usize) -> Option<usize> {
        if r >= self.n {
            return None;
        }
        let row = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
        match row.binary_search(&c) {
            Ok(k) => Some(self.row_ptr[r] + k),
            Err(_) => None,
        }
    }
}

/// Square sparse matrix with a fixed [`CsrPattern`] and mutable values.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    pattern: CsrPattern,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// A zero matrix over the given pattern.
    // fefet-lint: allow-item(hot-alloc) -- matrix storage is allocated once per pattern, then refilled in place
    pub fn from_pattern(pattern: CsrPattern) -> Self {
        let values = vec![0.0; pattern.nnz()];
        Self { pattern, values }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.pattern.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// The structural pattern.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Value-array slot of entry `(r, c)` (setup-time resolution).
    pub fn slot_of(&self, r: usize, c: usize) -> Option<usize> {
        self.pattern.slot_of(r, c)
    }

    /// The value array, parallel to `pattern().col_idx()`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array for slot-indexed stamping.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Zeroes every value (the pattern is untouched).
    pub fn clear(&mut self) {
        for v in &mut self.values {
            *v = 0.0;
        }
    }

    /// Dense copy, for tests and diagnostics.
    pub fn to_dense(&self) -> Matrix {
        let n = self.pattern.n;
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for k in self.pattern.row_ptr[r]..self.pattern.row_ptr[r + 1] {
                m.add(r, self.pattern.col_idx[k], self.values[k]);
            }
        }
        m
    }

    /// `y = A·x` (for residual checks in tests).
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        let n = self.pattern.n;
        if x.len() != n || y.len() != n {
            return Err(Error::DimensionMismatch {
                found: (x.len(), y.len()),
                expected: (n, n),
            });
        }
        for r in 0..n {
            let mut acc = 0.0;
            for k in self.pattern.row_ptr[r]..self.pattern.row_ptr[r + 1] {
                acc += self.values[k] * x[self.pattern.col_idx[k]];
            }
            y[r] = acc;
        }
        Ok(())
    }
}

/// Immutable products of one symbolic analysis: permutations, the full
/// fill-in pattern, and the scatter maps the numeric phase replays.
///
/// Shareable across any number of [`SparseLu`] instances via `Arc` —
/// pooled sweep workers factoring the same circuit topology pay for the
/// Markowitz ordering exactly once.
#[derive(Debug, PartialEq, Eq)]
pub struct SparseSymbolic {
    n: usize,
    /// Permuted row position `i` → original row index.
    row_perm: Vec<usize>,
    /// Permuted col position `i` → original column index.
    col_perm: Vec<usize>,
    /// LU pattern, row-wise in permuted coordinates, positions sorted.
    lu_row_ptr: Vec<usize>,
    lu_cols: Vec<usize>,
    /// Slot of the diagonal within the LU values for each permuted row.
    diag_ptr: Vec<usize>,
    /// For each A value slot: its permuted column position (searchless
    /// scatter during refactorization).
    a_cols_permuted: Vec<usize>,
    /// Copy of A's row pointers (so refactor only needs A's values).
    a_row_ptr: Vec<usize>,
}

/// Pattern-cached sparse LU with one-time symbolic analysis and
/// allocation-free numeric refactorization.
///
/// Built once per circuit topology with [`SparseLu::analyze`]; thereafter
/// [`SparseLu::refactor`] + [`SparseLu::solve_in_place`] (or the fused
/// [`SparseLu::factor_solve_in_place`]) run with zero heap allocation.
/// [`SparseLu::from_symbolic`] builds additional numeric instances over
/// an already-shared analysis without re-running it.
#[derive(Debug, Clone)]
pub struct SparseLu {
    sym: Arc<SparseSymbolic>,
    lu_vals: Vec<f64>,
    inv_diag: Vec<f64>,
    /// Dense scatter/gather work array, indexed by permuted position.
    work: Vec<f64>,
    /// Solve scratch (permuted RHS / solution).
    y: Vec<f64>,
    /// Numeric refactorizations performed (observability; plain
    /// counters keep this crate dependency-free — the engine harvests
    /// them into telemetry).
    refactors: u64,
    /// Triangular solves performed.
    solves: u64,
    /// Whether `lu_vals`/`inv_diag` hold a successful numeric
    /// factorization (guards refactor-free re-solves).
    factored: bool,
}

impl SparseSymbolic {
    /// One-time symbolic analysis of a structural pattern.
    ///
    /// Runs a restricted structural Markowitz elimination: at each step
    /// pick the active column present in the fewest active rows, then
    /// the shortest active row containing it (ties broken toward the
    /// smallest index, so the ordering is deterministic). Row and column
    /// permutations are chosen together, which places a structural
    /// nonzero on every pivot without numeric pivoting — essential for
    /// MNA, where voltage-source branch rows have zero diagonals. The
    /// complete fill-in pattern is computed here so the numeric phase
    /// never allocates.
    ///
    /// Returns [`Error::StructurallySingular`] when no structurally
    /// nonsingular permutation exists (the pattern has no perfect
    /// matching of rows to columns).
    // fefet-lint: allow-item(hot-alloc) -- symbolic analysis runs once per pattern and precomputes all fill-in precisely so factor/solve never allocate
    pub fn analyze(pattern: &CsrPattern) -> Result<Self> {
        let n = pattern.n;
        // Growing per-row column sets (sorted; never lose members — the
        // final set of an eliminated row *is* its LU row pattern).
        let mut row_cols: Vec<Vec<usize>> = (0..n)
            .map(|r| pattern.col_idx[pattern.row_ptr[r]..pattern.row_ptr[r + 1]].to_vec())
            .collect();
        // Incidence: rows that contain each column (may go stale for
        // deactivated rows; filtered on access).
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, cols) in row_cols.iter().enumerate() {
            for &c in cols {
                col_rows[c].push(r);
            }
        }
        let mut row_active = vec![true; n];
        let mut col_active = vec![true; n];
        // Markowitz counts restricted to the active submatrix.
        let mut col_count: Vec<usize> = col_rows.iter().map(Vec::len).collect();
        let mut row_count: Vec<usize> = row_cols.iter().map(Vec::len).collect();
        // Does row r contain the (still-active) structural diagonal (r, r)?
        let mut has_diag: Vec<bool> = row_cols
            .iter()
            .enumerate()
            .map(|(r, cols)| cols.binary_search(&r).is_ok())
            .collect();

        let mut row_perm = vec![0usize; n];
        let mut col_perm = vec![0usize; n];
        let mut merge_buf: Vec<usize> = Vec::new();

        for k in 0..n {
            // Preferred pivot: a structural diagonal (r, r), minimizing
            // the Markowitz cost (row_count-1)·(col_count-1). MNA
            // diagonals carry conductance sums plus gmin, so they are
            // the numerically dominant entries; keeping pivots there
            // bounds element growth without numeric pivoting. Any valid
            // structural pivot preserves completability (elimination
            // with full fill keeps the remaining pattern's structural
            // rank), so greedy diagonal preference cannot dead-end.
            let mut best_d = usize::MAX;
            let mut best_cost = usize::MAX;
            for r in 0..n {
                if row_active[r] && has_diag[r] {
                    let cost = (row_count[r] - 1) * (col_count[r] - 1);
                    if cost < best_cost {
                        best_cost = cost;
                        best_d = r;
                    }
                }
            }
            let (r, c) = if best_d != usize::MAX {
                (best_d, best_d)
            } else {
                // Off-diagonal fallback (voltage-source-style branch
                // rows with structurally zero diagonals): the column in
                // the fewest active rows, then the shortest active row
                // containing it; smallest index on ties.
                let mut best_c = usize::MAX;
                let mut best_cc = usize::MAX;
                for c in 0..n {
                    if col_active[c] && col_count[c] > 0 && col_count[c] < best_cc {
                        best_cc = col_count[c];
                        best_c = c;
                    }
                }
                if best_c == usize::MAX {
                    return Err(Error::StructurallySingular {
                        index: Self::singular_index(&row_active, &row_count, &col_active),
                    });
                }
                let c = best_c;
                let mut best_r = usize::MAX;
                let mut best_rc = usize::MAX;
                for &r in &col_rows[c] {
                    if row_active[r]
                        && (row_count[r] < best_rc || (row_count[r] == best_rc && r < best_r))
                    {
                        best_rc = row_count[r];
                        best_r = r;
                    }
                }
                if best_r == usize::MAX {
                    // col_count said there was an active row; defensive.
                    return Err(Error::StructurallySingular { index: c });
                }
                (best_r, c)
            };
            row_perm[k] = r;
            col_perm[k] = c;

            // Deactivate the pivot row and column, fixing up counts.
            row_active[r] = false;
            for &x in &row_cols[r] {
                if col_active[x] {
                    col_count[x] -= 1;
                }
            }
            col_active[c] = false;
            has_diag[c] = false;
            for i in 0..col_rows[c].len() {
                let rr = col_rows[c][i];
                if row_active[rr] {
                    row_count[rr] -= 1;
                }
            }

            // Fill: every remaining active row containing c absorbs the
            // pivot row's still-active columns (the pivot row's U part).
            let targets: Vec<usize> = col_rows[c]
                .iter()
                .copied()
                .filter(|&rr| row_active[rr])
                .collect();
            for rr in targets {
                merge_buf.clear();
                // Sorted merge of row_cols[rr] and the active subset of
                // row_cols[r]; record genuinely new columns.
                let a = &row_cols[rr];
                let b = &row_cols[r];
                let (mut ia, mut ib) = (0usize, 0usize);
                let mut added: Vec<usize> = Vec::new();
                while ia < a.len() || ib < b.len() {
                    if ib >= b.len() || (ia < a.len() && a[ia] <= b[ib]) {
                        if ib < b.len() && a[ia] == b[ib] {
                            ib += 1;
                        }
                        merge_buf.push(a[ia]);
                        ia += 1;
                    } else {
                        let x = b[ib];
                        ib += 1;
                        if col_active[x] {
                            merge_buf.push(x);
                            added.push(x);
                        }
                    }
                }
                if added.is_empty() {
                    continue;
                }
                std::mem::swap(&mut row_cols[rr], &mut merge_buf);
                row_count[rr] += added.len();
                for x in added {
                    if x == rr {
                        has_diag[rr] = true;
                    }
                    col_rows[x].push(rr);
                    col_count[x] += 1;
                }
            }
        }

        let mut col_pos = vec![0usize; n];
        for (i, &c) in col_perm.iter().enumerate() {
            col_pos[c] = i;
        }

        // Assemble the LU pattern: permuted row i is original row
        // row_perm[i]; its columns are everything the row ever
        // contained, mapped through the column permutation and sorted.
        let mut lu_row_ptr = Vec::with_capacity(n + 1);
        let mut lu_cols: Vec<usize> = Vec::new();
        let mut diag_ptr = vec![0usize; n];
        lu_row_ptr.push(0);
        let mut diag_missing = None;
        for (i, &r) in row_perm.iter().enumerate() {
            let base = lu_cols.len();
            let mut cols: Vec<usize> = row_cols[r].iter().map(|&c| col_pos[c]).collect();
            cols.sort_unstable();
            match cols.binary_search(&i) {
                Ok(k) => diag_ptr[i] = base + k,
                Err(_) => diag_missing = Some(i),
            }
            lu_cols.extend_from_slice(&cols);
            lu_row_ptr.push(lu_cols.len());
        }
        if let Some(i) = diag_missing {
            // Cannot happen: the pivot column is by construction in the
            // pivot row. Kept as a typed error rather than a panic.
            return Err(Error::StructurallySingular { index: col_perm[i] });
        }

        let a_cols_permuted: Vec<usize> = pattern.col_idx.iter().map(|&c| col_pos[c]).collect();
        Ok(Self {
            n,
            row_perm,
            col_perm,
            lu_row_ptr,
            lu_cols,
            diag_ptr,
            a_cols_permuted,
            a_row_ptr: pattern.row_ptr.clone(),
        })
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzeros in the factored L+U pattern (fill-in included).
    pub fn lu_nnz(&self) -> usize {
        self.lu_cols.len()
    }

    /// Fill-in nonzeros added by symbolic analysis beyond the original
    /// matrix pattern.
    pub fn fill_nnz(&self) -> usize {
        self.lu_cols
            .len()
            .saturating_sub(self.a_cols_permuted.len())
    }

    fn singular_index(row_active: &[bool], row_count: &[usize], col_active: &[bool]) -> usize {
        for (r, &act) in row_active.iter().enumerate() {
            if act && row_count[r] == 0 {
                return r;
            }
        }
        for (c, &act) in col_active.iter().enumerate() {
            if act {
                return c;
            }
        }
        0
    }
}

impl SparseLu {
    /// One-time symbolic analysis of a structural pattern (see
    /// [`SparseSymbolic::analyze`]) wrapped with fresh numeric storage.
    pub fn analyze(pattern: &CsrPattern) -> Result<Self> {
        Ok(Self::from_symbolic(Arc::new(SparseSymbolic::analyze(
            pattern,
        )?)))
    }

    /// Fresh numeric state over an already-computed (shared) symbolic
    /// analysis. The expensive Markowitz ordering is not re-run; only
    /// the numeric buffers are allocated.
    // fefet-lint: allow-item(hot-alloc) -- per-instance numeric buffers are allocated once here, then reused allocation-free
    pub fn from_symbolic(sym: Arc<SparseSymbolic>) -> Self {
        let n = sym.n;
        let lu_nnz = sym.lu_cols.len();
        Self {
            sym,
            lu_vals: vec![0.0; lu_nnz],
            inv_diag: vec![0.0; n],
            work: vec![0.0; n],
            y: vec![0.0; n],
            refactors: 0,
            solves: 0,
            factored: false,
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.sym.n
    }

    /// Nonzeros in the factored L+U pattern (fill-in included).
    pub fn lu_nnz(&self) -> usize {
        self.sym.lu_nnz()
    }

    /// Fill-in nonzeros added by symbolic analysis beyond the original
    /// matrix pattern.
    pub fn fill_nnz(&self) -> usize {
        self.sym.fill_nnz()
    }

    /// Numeric refactorizations performed over this analysis's lifetime.
    pub fn refactor_count(&self) -> u64 {
        self.refactors
    }

    /// Triangular solves performed over this analysis's lifetime.
    pub fn solve_count(&self) -> u64 {
        self.solves
    }

    /// Whether the analysis holds a successful numeric factorization,
    /// i.e. whether [`SparseLu::solve_in_place`] can run against it
    /// without a fresh [`SparseLu::refactor`]. Modified-Newton callers
    /// use this to re-solve with a stale Jacobian.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Numeric refactorization over the analyzed pattern. Allocation-free.
    ///
    /// `a` must have the same pattern the analysis was built from (order
    /// and nonzero count are checked; the column structure is trusted).
    /// Returns [`Error::Singular`] if a pivot collapses numerically,
    /// identifying the original column of the failed pivot.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<()> {
        let sym = &*self.sym;
        if a.n() != sym.n || a.nnz() != sym.a_cols_permuted.len() {
            return Err(Error::DimensionMismatch {
                found: (a.n(), a.nnz()),
                expected: (sym.n, sym.a_cols_permuted.len()),
            });
        }
        self.refactors += 1;
        self.factored = false;
        let av = a.values();
        for i in 0..sym.n {
            // Scatter row `row_perm[i]` of A into the dense work array
            // (zeroing exactly the LU row-i positions first).
            for k in sym.lu_row_ptr[i]..sym.lu_row_ptr[i + 1] {
                self.work[sym.lu_cols[k]] = 0.0;
            }
            let r = sym.row_perm[i];
            for k in sym.a_row_ptr[r]..sym.a_row_ptr[r + 1] {
                self.work[sym.a_cols_permuted[k]] += av[k];
            }
            // Eliminate: for each sub-diagonal position k (ascending),
            // apply pivot row k's upper part.
            for t in sym.lu_row_ptr[i]..sym.diag_ptr[i] {
                let k = sym.lu_cols[t];
                let l = self.work[k] * self.inv_diag[k];
                self.work[k] = l;
                for u in sym.diag_ptr[k] + 1..sym.lu_row_ptr[k + 1] {
                    self.work[sym.lu_cols[u]] -= l * self.lu_vals[u];
                }
            }
            // Gather back and invert the pivot.
            for k in sym.lu_row_ptr[i]..sym.lu_row_ptr[i + 1] {
                self.lu_vals[k] = self.work[sym.lu_cols[k]];
            }
            let d = self.lu_vals[sym.diag_ptr[i]];
            if !(d.abs() >= PIVOT_EPS) {
                return Err(Error::Singular {
                    column: sym.col_perm[i],
                });
            }
            self.inv_diag[i] = 1.0 / d;
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` in place using the current factorization
    /// (`b` is overwritten with `x`). Allocation-free.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] if the analysis holds no successful
    /// numeric factorization; [`Error::DimensionMismatch`] on a wrong
    /// right-hand-side length.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<()> {
        if !self.factored {
            return Err(Error::InvalidArgument(
                "solve_in_place: analysis holds no numeric factorization",
            ));
        }
        let sym = &*self.sym;
        if b.len() != sym.n {
            return Err(Error::DimensionMismatch {
                found: (b.len(), 1),
                expected: (sym.n, 1),
            });
        }
        self.solves += 1;
        // Permute the RHS into factored row order.
        for i in 0..sym.n {
            self.y[i] = b[sym.row_perm[i]];
        }
        // Forward substitution (unit lower-triangular L).
        for i in 0..sym.n {
            let mut acc = self.y[i];
            for t in sym.lu_row_ptr[i]..sym.diag_ptr[i] {
                acc -= self.lu_vals[t] * self.y[sym.lu_cols[t]];
            }
            self.y[i] = acc;
        }
        // Back substitution (U with stored diagonal).
        for i in (0..sym.n).rev() {
            let mut acc = self.y[i];
            for t in sym.diag_ptr[i] + 1..sym.lu_row_ptr[i + 1] {
                acc -= self.lu_vals[t] * self.y[sym.lu_cols[t]];
            }
            self.y[i] = acc * self.inv_diag[i];
        }
        // Un-permute the solution into original column order.
        for i in 0..sym.n {
            b[sym.col_perm[i]] = self.y[i];
        }
        Ok(())
    }

    /// Fused refactor + solve, the per-Newton-iteration entry point.
    pub fn factor_solve_in_place(&mut self, a: &CsrMatrix, b: &mut [f64]) -> Result<()> {
        self.refactor(a)?;
        self.solve_in_place(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::LuFactors;
    use crate::rng::Rng;

    fn csr_from_dense(rows: &[&[f64]]) -> CsrMatrix {
        let n = rows.len();
        let mut entries = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    entries.push((r, c));
                }
            }
        }
        let pat = CsrPattern::from_entries(n, &entries).unwrap();
        let mut m = CsrMatrix::from_pattern(pat);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    let s = m.slot_of(r, c).unwrap();
                    m.values_mut()[s] = v;
                }
            }
        }
        m
    }

    fn solve_sparse(m: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        let mut lu = SparseLu::analyze(m.pattern()).unwrap();
        let mut x = b.to_vec();
        lu.factor_solve_in_place(m, &mut x).unwrap();
        x
    }

    #[test]
    fn counts_refactors_solves_and_fill() {
        let m = csr_from_dense(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let mut lu = SparseLu::analyze(m.pattern()).unwrap();
        assert_eq!(lu.refactor_count(), 0);
        assert_eq!(lu.solve_count(), 0);
        // Tridiagonal with a perfect elimination order: no fill.
        assert_eq!(lu.fill_nnz(), lu.lu_nnz() - m.nnz());
        let mut b = vec![1.0, 2.0, 3.0];
        lu.factor_solve_in_place(&m, &mut b).unwrap();
        assert_eq!(lu.refactor_count(), 1);
        assert_eq!(lu.solve_count(), 1);
        lu.refactor(&m).unwrap();
        let mut b2 = vec![1.0, 0.0, 0.0];
        lu.solve_in_place(&mut b2).unwrap();
        lu.solve_in_place(&mut b2).unwrap();
        assert_eq!(lu.refactor_count(), 2);
        assert_eq!(lu.solve_count(), 3);
    }

    #[test]
    fn unfactored_solve_is_a_typed_error() {
        let m = csr_from_dense(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let mut lu = SparseLu::analyze(m.pattern()).unwrap();
        assert!(!lu.is_factored());
        let mut b = vec![1.0, 1.0];
        assert!(matches!(
            lu.solve_in_place(&mut b),
            Err(Error::InvalidArgument(_))
        ));
        lu.refactor(&m).unwrap();
        assert!(lu.is_factored());
        lu.solve_in_place(&mut b).unwrap();
    }

    #[test]
    fn pattern_dedups_and_sorts() {
        let pat = CsrPattern::from_entries(2, &[(0, 1), (0, 0), (0, 0), (1, 1), (1, 0)]).unwrap();
        assert_eq!(pat.nnz(), 4);
        assert_eq!(pat.row_ptr(), &[0, 2, 4]);
        assert_eq!(pat.col_idx(), &[0, 1, 0, 1]);
        assert_eq!(pat.slot_of(0, 1), Some(1));
        assert_eq!(pat.slot_of(1, 0), Some(2));
        assert_eq!(pat.slot_of(2, 0), None);
    }

    #[test]
    fn pattern_rejects_out_of_range_and_empty() {
        assert!(matches!(
            CsrPattern::from_entries(0, &[]),
            Err(Error::InvalidArgument(_))
        ));
        assert!(matches!(
            CsrPattern::from_entries(2, &[(0, 0), (1, 2)]),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn empty_row_is_structurally_singular() {
        let e = CsrPattern::from_entries(3, &[(0, 0), (0, 1), (2, 2), (0, 2)]).unwrap_err();
        assert_eq!(e, Error::StructurallySingular { index: 1 });
    }

    #[test]
    fn empty_column_is_structurally_singular() {
        let e = CsrPattern::from_entries(3, &[(0, 0), (1, 0), (2, 2), (1, 2)]).unwrap_err();
        assert_eq!(e, Error::StructurallySingular { index: 1 });
    }

    #[test]
    fn no_perfect_matching_is_structurally_singular() {
        // Rows 0 and 1 both live only in column 0: every row and column
        // is nonempty, yet no structurally nonsingular permutation
        // exists (structural rank 2 < 3).
        let pat = CsrPattern::from_entries(3, &[(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]).unwrap();
        assert!(matches!(
            SparseLu::analyze(&pat),
            Err(Error::StructurallySingular { .. })
        ));
    }

    #[test]
    fn identity_solve() {
        let m = csr_from_dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = solve_sparse(&m, &[3.0, -7.0]);
        assert_eq!(x, vec![3.0, -7.0]);
    }

    #[test]
    fn solves_known_system() {
        let m = csr_from_dense(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let b = [5.0, 10.0, 13.0];
        let x = solve_sparse(&m, &b);
        let dense = m.to_dense().solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - dense[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn handles_zero_diagonal_mna_style() {
        // A voltage-source-style system: node row + branch row with a
        // structurally zero (2,2) diagonal. Static numeric pivoting
        // would die here; the structural permutation must not.
        let m = csr_from_dense(&[&[1e-3, 0.0, 1.0], &[0.0, 2e-3, -1.0], &[1.0, -1.0, 0.0]]);
        let b = [0.0, 0.0, 1.5];
        let x = solve_sparse(&m, &b);
        let dense = m.to_dense().solve(&b).unwrap();
        for i in 0..3 {
            assert!(
                (x[i] - dense[i]).abs() <= 1e-9 * dense[i].abs().max(1.0),
                "x[{i}] = {} vs dense {}",
                x[i],
                dense[i]
            );
        }
        // The branch-row constraint v0 - v1 = 1.5 must hold exactly-ish.
        assert!((x[0] - x[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn numerically_singular_is_typed_error() {
        // Structurally fine (full pattern), numerically rank-deficient:
        // row 1 = 2 × row 0.
        let m = csr_from_dense(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let mut lu = SparseLu::analyze(m.pattern()).unwrap();
        assert!(matches!(lu.refactor(&m), Err(Error::Singular { .. })));
    }

    #[test]
    fn refactor_rejects_mismatched_matrix() {
        let m = csr_from_dense(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let other = csr_from_dense(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut lu = SparseLu::analyze(m.pattern()).unwrap();
        assert!(matches!(
            lu.refactor(&other),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    /// Random sparse system generator: strictly diagonally dominant so
    /// the systems are guaranteed well-conditioned, with a random
    /// off-diagonal pattern (including asymmetric structure).
    fn random_system(rng: &mut Rng, n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for r in 0..n {
            let k = 1 + (rng.below(4) as usize).min(n - 1);
            for _ in 0..k {
                let c = rng.below(n as u64) as usize;
                entries.push((r, c));
            }
        }
        // Ensure every column is hit (diagonal already guarantees it).
        let pat = CsrPattern::from_entries(n, &entries).unwrap();
        let mut m = CsrMatrix::from_pattern(pat);
        for r in 0..n {
            let (lo, hi) = (m.pattern().row_ptr()[r], m.pattern().row_ptr()[r + 1]);
            let mut off_sum = 0.0;
            for k in lo..hi {
                if m.pattern().col_idx()[k] != r {
                    let v = rng.uniform_in(-1.0, 1.0);
                    m.values_mut()[k] = v;
                    off_sum += v.abs();
                }
            }
            let s = m.slot_of(r, r).unwrap();
            m.values_mut()[s] = off_sum + 1.0 + rng.uniform();
        }
        let b: Vec<f64> = (0..n).map(|_| rng.uniform_in(-5.0, 5.0)).collect();
        (m, b)
    }

    #[test]
    fn property_sparse_matches_dense_lu_on_random_systems() {
        let mut rng = Rng::seed_from_u64(0x5eed_cafe);
        for trial in 0..200 {
            let n = 2 + rng.below(38) as usize;
            let (m, b) = random_system(&mut rng, n);
            let dense = LuFactors::factor(m.to_dense()).unwrap();
            let xd = dense.solve(&b).unwrap();
            let mut lu = SparseLu::analyze(m.pattern()).unwrap();
            let mut xs = b.clone();
            lu.factor_solve_in_place(&m, &mut xs).unwrap();
            for i in 0..n {
                let scale = xd[i].abs().max(1.0);
                assert!(
                    (xs[i] - xd[i]).abs() <= 1e-9 * scale,
                    "trial {trial} n={n} i={i}: sparse {} vs dense {}",
                    xs[i],
                    xd[i]
                );
            }
        }
    }

    #[test]
    fn refactor_reuses_pattern_across_value_changes() {
        let mut rng = Rng::seed_from_u64(42);
        let (mut m, b) = random_system(&mut rng, 20);
        let mut lu = SparseLu::analyze(m.pattern()).unwrap();
        for _ in 0..5 {
            // Perturb values only (pattern fixed), refactor, check the
            // residual of the solve.
            for v in m.values_mut() {
                *v += rng.uniform_in(-0.05, 0.05);
            }
            // Re-establish diagonal dominance after the perturbation.
            for r in 0..20 {
                let s = m.slot_of(r, r).unwrap();
                let d = m.values()[s];
                m.values_mut()[s] = d.abs() + 2.0;
            }
            let mut x = b.clone();
            lu.factor_solve_in_place(&m, &mut x).unwrap();
            let mut ax = vec![0.0; 20];
            m.mul_vec(&x, &mut ax).unwrap();
            for i in 0..20 {
                assert!((ax[i] - b[i]).abs() < 1e-9 * b[i].abs().max(1.0));
            }
        }
    }

    #[test]
    fn fill_in_is_counted() {
        // An arrow matrix pointing the wrong way (dense last row/col,
        // diagonal elsewhere) generates no fill under a good ordering —
        // Markowitz should find it.
        let n = 12;
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            entries.push((n - 1, i));
            entries.push((i, n - 1));
        }
        let pat = CsrPattern::from_entries(n, &entries).unwrap();
        let lu = SparseLu::analyze(&pat).unwrap();
        // Perfect elimination order ⇒ LU nnz equals pattern nnz.
        assert_eq!(lu.lu_nnz(), pat.nnz());
    }
}
