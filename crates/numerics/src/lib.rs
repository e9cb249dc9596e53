//! Numerical kernel for the FEFET nonvolatile-memory reproduction.
//!
//! Rust has no mature circuit-simulation ecosystem, so every numerical
//! primitive the simulator needs is implemented here from scratch:
//!
//! - [`complex`] — complex arithmetic and dense complex solves for AC
//!   (frequency-domain) analysis.
//! - [`linalg`] — dense matrices, LU factorization with partial pivoting,
//!   and linear solves (the inner kernel of modified nodal analysis).
//! - [`quad`] — sample-based and running trapezoid integrals for energy
//!   metering.
//! - [`rng`] — seedable, dependency-free pseudo-random numbers for the
//!   Monte-Carlo and harvester-trace machinery.
//! - [`sparse`] — CSR sparse matrices and a pattern-cached sparse LU
//!   (one-time symbolic analysis, allocation-free numeric
//!   refactorization) for array-scale MNA systems.
//!
//! # Example
//!
//! Solve a small linear system, as the circuit simulator does at every
//! Newton iteration:
//!
//! ```
//! use fefet_numerics::linalg::Matrix;
//!
//! # fn main() -> Result<(), fefet_numerics::Error> {
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
//! let x = a.solve(&[5.0, 10.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// `!(b > a)` is used deliberately for NaN-safe argument validation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod complex;
pub mod linalg;
pub mod quad;
pub mod rng;
pub mod sparse;

mod error;

pub use error::Error;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
