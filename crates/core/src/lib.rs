//! The paper's primary contribution: the 2-transistor FEFET nonvolatile
//! memory — cell, bias scheme, array organization, current sensing and
//! layout — plus the 1T-1C FERAM baseline it is compared against.
//!
//! Module map (paper section in parentheses):
//!
//! - [`bias`] — the Table 1 bias conditions for write/read/hold on
//!   accessed and unaccessed rows (§4.1-4.2).
//! - [`cell`] — the 2T FEFET bit-cell at circuit level: write transients
//!   with select-line boost and negative bit-line, disturb-free read
//!   (Fig 5, Fig 6).
//! - [`feram`] — the 1T-1C FERAM baseline with destructive read and
//!   write-back (§6.1, Fig 9).
//! - [`feram_array`] — the FERAM baseline at array level, exhibiting the
//!   plate-line disturb the FEFET scheme avoids.
//! - [`mod@array`] — m×n array with shared lines and metal parasitics; row
//!   write with unaccessed-row isolation; sneak-path checks (Fig 7).
//! - `slice` (crate-internal) — the row slice both arrays' row ops
//!   solve: unaccessed rows lumped into `m`-scaled class cells.
//! - [`yield_engine`] — Monte Carlo yield engine: perturbed array trials
//!   with cross-trial symbolic-analysis reuse, warm-started Newton, and
//!   streaming fixed-memory statistics.
//! - [`sense`] — the current-sensing chain (clamp driver, pre-charge
//!   driver, current sense amplifier) and the eq. (2) read-time
//!   decomposition (§5, Fig 8).
//! - [`layout`] — λ-rule layout generator for the 2×2 cell arrays of
//!   Fig 11 and the 2.4× area comparison (§6.2.3).
//! - [`compare`] — write time/voltage/energy sweeps (Fig 10) and the
//!   iso-write-time Table 3 comparison, producing the memory parameters
//!   consumed by the NVP simulator (§7).
//! - [`macro_model`] — full NVM-macro organization: periphery area and
//!   block-level word energies including the unaccessed-row select
//!   swings the paper's Table 3 accounts for.
//! - [`shmoo`] — (voltage × pulse-width) write pass/fail maps around the
//!   Fig 10 operating points.
//! - [`serving`] — memory-macro serving layer: batched multi-fidelity op
//!   scheduler with a macro-model fast path and circuit-level escalation
//!   for marginal operations.

pub mod array;
pub mod bias;
pub mod cell;
pub mod compare;
pub mod feram;
pub mod feram_array;
pub mod layout;
pub mod macro_model;
pub mod sense;
pub mod serving;
pub mod shmoo;
mod slice;
pub mod yield_engine;

/// Step ceiling of every cell-level op and row op, as a multiple of its
/// step floor: between waveform corners its transient grows the step
/// wherever the circuit is quiescent (see
/// `fefet_ckt::transient::TransientOptions`).
pub(crate) const STEP_CEILING: f64 = 10.0;

pub use bias::{BiasSpec, LineBias, Operation};
pub use cell::FefetCell;
pub use compare::{MemoryKind, NvmParams};
pub use feram::FeramCell;
