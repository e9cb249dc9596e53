//! Quickstart: the paper's FEFET as a memory element in four steps —
//! device non-volatility, a cell write, a disturb-free read, and the
//! headline distinguishability.
//!
//! Run with `cargo run --example quickstart`.

use fefet::device::paper_fefet;
use fefet::mem::cell::FefetCell;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Device: the 2.25 nm-ferroelectric FEFET retains two states.
    let dev = paper_fefet();
    let states = dev.stable_states_at_zero();
    println!(
        "zero-bias states: {states:?} (nonvolatile: {})",
        dev.is_nonvolatile()
    );

    // 2. Cell: write a '1' with the paper's 0.68 V bit line.
    let cell = FefetCell::default();
    let (p_lo, _p_hi) = cell.checked_memory_states().expect("the cell stores data");
    let write = cell.write(true, p_lo, 1.0e-9)?;
    println!(
        "write '1': switched in {:.0} ps using {:.1} fJ",
        write.switch_time.expect("write must complete") * 1e12,
        write.energy * 1e15
    );

    // 3. Read it back without disturbing the stored polarization.
    let read = cell.read(write.p_final, 3e-9)?;
    println!(
        "read: I = {:.1} uA, polarization disturb {:.1e} C/m^2",
        read.i_read * 1e6,
        read.disturb
    );

    // 4. The two states differ by ~10^6 in current.
    let read0 = cell.read(p_lo, 3e-9)?;
    println!(
        "distinguishability: I('1')/I('0') = {:.2e}",
        read.i_read / read0.i_read.max(1e-30)
    );
    Ok(())
}
