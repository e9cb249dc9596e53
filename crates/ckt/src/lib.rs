//! SPICE-class circuit simulator for the FEFET nonvolatile-memory
//! reproduction.
//!
//! Rust has no circuit-simulation ecosystem, so this crate implements one
//! from scratch, scoped to what the DAC'16 FEFET memory paper needs:
//!
//! - [`waveform`] — DC / pulse / PWL / sine stimulus descriptions with
//!   breakpoint extraction for the transient scheduler.
//! - [`models`] — compact device model math: an EKV-style 45 nm MOSFET
//!   (I-V and gate charge) and the Landau-Khalatnikov ferroelectric
//!   capacitor (`E = αP + βP³ + γP⁵ + ρ dP/dt`).
//! - [`elements`] — circuit elements (R, C, V/I sources, VCVS/VCCS,
//!   time-gated switch, diode, MOSFET, FE capacitor) with their
//!   modified-nodal-analysis stamps.
//! - [`circuit`] — netlist builder with named nodes.
//! - [`engine`] — the shared Newton kernel: MNA assembly plus the
//!   reusable [`engine::NewtonWorkspace`] buffers that make the
//!   iteration allocation-free.
//! - [`plan`] — [`plan::AnalysisCache`] shares one sparse symbolic
//!   analysis per pattern across parallel sweep workers.
//! - [`parallel`] — std-only fan-out: [`parallel::pool_map`] runs a
//!   sweep on scoped threads that claim chunks from one shared cursor;
//!   shared by array sweeps, the yield engine, and serving.
//! - [`dc`] — DC operating point via Newton with gmin stepping.
//! - [`ac`] — small-signal frequency-domain analysis around a bias
//!   point (including the ferroelectric's negative capacitance).
//! - [`transient`] — implicit (backward-Euler / trapezoidal) transient
//!   analysis with per-step Newton, waveform breakpoints and per-source
//!   energy metering; each accepted point goes to an observer, which may
//!   end the run and which for [`transient::transient`] records every
//!   signal.
//! - [`probe`] — streaming observers that keep only what a measurement
//!   reads (currents and voltages at a sample time, windowed voltage
//!   extrema, threshold crossings), and the full-waveform recorder.
//! - [`trace`] — recorded waveforms plus measurement helpers (values at
//!   a time, threshold crossings, extrema over a window).
//!
//! # Example: RC step response
//!
//! ```
//! use fefet_ckt::circuit::Circuit;
//! use fefet_ckt::waveform::Waveform;
//! use fefet_ckt::transient::{transient, TransientOptions};
//!
//! # fn main() -> Result<(), fefet_ckt::CktError> {
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let vout = c.node("out");
//! c.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
//! c.resistor("R1", vin, vout, 1e3);
//! c.capacitor("C1", vout, Circuit::GND, 1e-9);
//!
//! let trace = transient(&c, 10e-6, TransientOptions::default())?;
//! let v_end = *trace.signal("v(out)").unwrap().last().unwrap();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 tau
//! # Ok(())
//! # }
//! ```

// `!(t > 0.0)` is used deliberately for NaN-safe argument validation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod ac;
pub mod circuit;
pub mod dc;
pub mod elements;
pub mod engine;
pub mod models;
pub mod parallel;
pub mod plan;
pub mod probe;
pub mod trace;
pub mod transient;
pub mod waveform;

mod error;

pub use error::CktError;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CktError>;
