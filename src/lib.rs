//! # fefet — a full-stack reproduction of "Nonvolatile Memory Design
//! Based on Ferroelectric FETs" (DAC 2016)
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`numerics`] — dense and sparse LU, complex solves for AC
//!   analysis, seeded RNG.
//! - [`ckt`] — a SPICE-class circuit simulator (MNA, DC + transient)
//!   with MOSFET and Landau-Khalatnikov ferroelectric models.
//! - [`device`] — the composite FEFET device: hysteresis, load lines,
//!   thickness design space, retention (paper §2-3, Fig 2-4).
//! - [`mem`] — the paper's contribution: the 2T FEFET cell, Table 1
//!   biasing, arrays, current sensing, layout, and the 1T-1C FERAM
//!   baseline (paper §4-6).
//! - [`nvp`] — the energy-harvesting nonvolatile-processor simulator
//!   (paper §7, Fig 13).
//! - [`telemetry`] — std-only instrumentation: counters, histograms,
//!   span timing, convergence diagnostics, and JSON run reports
//!   (enable via `Instrumentation::enabled()` on `SolverOptions`).
//!
//! # Quickstart
//!
//! ```
//! use fefet::device::paper_fefet;
//!
//! // The paper's 2.25 nm FEFET retains two states at zero gate bias...
//! let dev = paper_fefet();
//! assert!(dev.is_nonvolatile());
//!
//! // ...with about six orders of magnitude between their read currents.
//! let states = dev.stable_states_at_zero();
//! let lo = states.iter().cloned().fold(f64::INFINITY, f64::min);
//! let hi = states.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
//! let ratio = dev.drain_current(hi, 0.4) / dev.drain_current(lo, 0.4);
//! assert!(ratio > 1e6);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the per-figure reproduction harness.

pub use fefet_ckt as ckt;
pub use fefet_device as device;
pub use fefet_mem as mem;
pub use fefet_numerics as numerics;
pub use fefet_nvp as nvp;
pub use fefet_telemetry as telemetry;
