//! Fig 8: the current-based read scheme — clamp driver, pre-charge
//! driver and current sense amplifier waveforms — plus the eq. (2) read
//! timing decomposition.

use fefet_bench::{fmt_energy, fmt_time, print_wave, section};
use fefet_ckt::probe::Recorder;
use fefet_mem::cell::FefetCell;
use fefet_mem::sense::{ReadTiming, SenseChain};

/// The sensing chain's signals of the Fig 8(b) waveform tables.
const WAVE: &[&str] = &["v(rs)", "v(sl)", "v(vsense)", "v(vsa)"];

fn main() {
    let cell = FefetCell::default();
    let chain = SenseChain::default();
    let (p_lo, p_hi) = cell.checked_memory_states().expect("the cell stores data");

    section("Fig 8(b): read of a stored '1' through the sensing chain");
    let mut wave = Recorder::new();
    let r1 = chain
        .read_bit_observed(&cell, p_hi, 2.5e-9, |s| wave.observe(s))
        .expect("sense '1'");
    print_wave(&wave.into_trace(), WAVE);
    println!(
        "bit = {} | V_SENSE(end) = {:.3} V | decision at {} | sense-line excursion {:.1} mV | energy {}",
        r1.bit as u8,
        r1.v_sense_end,
        r1.t_decision.map(fmt_time).unwrap_or_else(|| "-".into()),
        r1.v_bl_excursion * 1e3,
        fmt_energy(r1.energy)
    );

    section("Fig 8(b): read of a stored '0'");
    let mut wave = Recorder::new();
    let r0 = chain
        .read_bit_observed(&cell, p_lo, 2.5e-9, |s| wave.observe(s))
        .expect("sense '0'");
    print_wave(&wave.into_trace(), WAVE);
    println!(
        "bit = {} | V_SENSE(end) = {:.3} V (collapses below V_PRE = {:.2} V)",
        r0.bit as u8, r0.v_sense_end, chain.v_pre
    );

    section("Eq. (2): t_read = max(t_pre, t_dec) + t_sa + t_buffer");
    let t = ReadTiming::default();
    println!(
        "t_pre = {}, t_dec = {}, t_sa = {}, t_buffer = {}",
        fmt_time(t.t_pre),
        fmt_time(t.t_dec),
        fmt_time(t.t_sa),
        fmt_time(t.t_buffer)
    );
    println!(
        "eq. (2) total (overlapped decode):   {}",
        fmt_time(t.total())
    );
    println!(
        "paper's quoted total (sequential sum): {} — the paper's \"3.0 nS\" \
         matches the sum, not eq. (2)",
        fmt_time(t.total_sequential())
    );
}
