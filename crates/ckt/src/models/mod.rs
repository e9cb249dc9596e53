//! Compact device-model math shared by the circuit elements and the
//! device-level analysis crate.
//!
//! - [`mosfet`] — EKV-style charge-based MOSFET model calibrated to a
//!   45 nm high-performance process (the paper couples its ferroelectric
//!   model to the PTM 45 nm HP transistor).
//! - [`lk`] — Landau-Khalatnikov ferroelectric model with the paper's
//!   Table 2 coefficients as defaults.

pub mod lk;
pub mod mosfet;

pub use lk::{FeCapParams, LkParams};
pub use mosfet::{GateInverse, MosCard, MosParams, MosPolarity};
