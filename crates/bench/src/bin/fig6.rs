//! Fig 6: transient waveforms of the 2T FEFET cell — write '1', read,
//! write '0', read, with the Table 1 biasing.

use fefet_bench::{fmt_current, fmt_energy, fmt_time, print_wave, section};
use fefet_ckt::probe::Recorder;
use fefet_mem::cell::FefetCell;

fn main() {
    let cell = FefetCell::default();
    // The waveforms of the first three ops, recorded as they run.
    let mut waves = [Recorder::new(), Recorder::new(), Recorder::new()];
    let (w1, r1, w0, r0) = cell
        .fig6_sequence_observed(1.0e-9, 3e-9, |op, s| {
            if let Some(wave) = waves.get_mut(op) {
                wave.observe(s);
            }
        })
        .expect("cell sequence must simulate");
    let [w1_wave, r1_wave, w0_wave] = waves.map(Recorder::into_trace);

    section("Fig 6: write '1' transient (bit line +0.68 V, boosted select)");
    print_wave(&w1_wave, &["v(bl)", "v(ws)", "v(g)", "p(Ffe)"]);
    println!(
        "switch time {} | final P {:+.3} C/m^2 | driver energy {}",
        w1.switch_time
            .map(fmt_time)
            .unwrap_or_else(|| "FAILED".into()),
        w1.p_final,
        fmt_energy(w1.energy)
    );

    section("Fig 6: read of the '1' (read select 0.4 V, gate grounded)");
    print_wave(&r1_wave, &["v(rs)", "v(ws)", "i(Mfet)", "p(Ffe)"]);
    println!(
        "I_read = {} | disturb {:.2e} C/m^2 | energy {}",
        fmt_current(r1.i_read),
        r1.disturb,
        fmt_energy(r1.energy)
    );

    section("Fig 6: write '0' transient (bit line -0.68 V)");
    print_wave(&w0_wave, &["v(bl)", "v(ws)", "v(g)", "p(Ffe)"]);
    println!(
        "switch time {} | final P {:+.3} C/m^2 | driver energy {}",
        w0.switch_time
            .map(fmt_time)
            .unwrap_or_else(|| "FAILED".into()),
        w0.p_final,
        fmt_energy(w0.energy)
    );

    section("Fig 6: read of the '0'");
    println!(
        "I_read = {} | disturb {:.2e} C/m^2 | energy {}",
        fmt_current(r0.i_read),
        r0.disturb,
        fmt_energy(r0.energy)
    );
    println!(
        "read distinguishability I('1')/I('0') = {:.2e}",
        r1.i_read / r0.i_read.max(1e-30)
    );
}
