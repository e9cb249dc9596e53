//! Ablation studies of the design choices the paper calls out:
//! the negative unaccessed select, the select-line boost, the
//! virtual-ground sense clamp, the pre-charge driver, and the NVP
//! backup reserve.

use fefet_bench::{fmt_current, fmt_time, section};
use fefet_ckt::circuit::Circuit;
use fefet_ckt::probe::{CurrentsAt, VoltagesAt};
use fefet_ckt::transient::{transient_with, TransientOptions};
use fefet_ckt::waveform::Waveform;
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_mem::sense::SenseChain;
use fefet_mem::NvmParams;
use fefet_nvp::harvester::HarvesterScenario;
use fefet_nvp::processor::{simulate, NvpConfig};
use fefet_nvp::workload::mibench_suite;
use std::ops::ControlFlow;

fn main() {
    ablate_unaccessed_select();
    ablate_boost();
    ablate_clamp();
    ablate_precharge();
    ablate_reserve();
}

/// §4.1: grounding the unaccessed write select instead of driving it to
/// −V_DD lets negative bit lines forward-bias the off access devices.
fn ablate_unaccessed_select() {
    section("Ablation 1: unaccessed write-select at 0 V vs -V_DD");
    let run = |grounded: bool| {
        let mut cell = FefetCell::default();
        if grounded {
            cell.bias = cell.bias.with_grounded_unaccessed_select();
        }
        let mut a = FefetArray::new(2, 2, cell);
        a.write_row(1, &[true, true], 1.0e-9).expect("park row 1");
        // Opposite-polarity write on row 0 stresses row 1's isolation.
        let op = a
            .write_row(0, &[false, false], 1.0e-9)
            .expect("write row 0");
        (op.max_disturb, a.bit(1, 0) && a.bit(1, 1))
    };
    let (d_paper, intact_paper) = run(false);
    let (d_ablate, intact_ablate) = run(true);
    println!("paper bias (-V_DD): disturb {d_paper:.2e} C/m^2, row-1 data intact: {intact_paper}");
    println!(
        "ablated bias (0 V): disturb {d_ablate:.2e} C/m^2, row-1 data intact: {intact_ablate}"
    );
    println!(
        "isolation degradation: {:.0}x",
        d_ablate / d_paper.max(1e-12)
    );
}

/// §4.1: "we boost the select line voltage" — without the boost the
/// access transistor starves the FEFET gate drive.
fn ablate_boost() {
    section("Ablation 2: select-line boost removed (V_boost = V_DD)");
    for (label, boost) in [("boosted 1.40 V", 1.4), ("unboosted 1.00 V", 1.0)] {
        let mut cell = FefetCell::default();
        cell.bias.v_boost = boost;
        let (p_lo, _) = cell.memory_states();
        let w = cell.write(true, p_lo, 4e-9).expect("write");
        println!(
            "{label}: commit {} | final P {:+.3}",
            w.switch_time
                .map(fmt_time)
                .unwrap_or_else(|| "FAILED".into()),
            w.p_final
        );
    }
}

/// §4.2/§5: removing the virtual-ground clamp lets the sense line rise,
/// debiasing the read FEFET.
fn ablate_clamp() {
    section("Ablation 3: sense-line virtual-ground clamp removed");
    let cell = FefetCell::default();
    let (_, p_hi) = cell.memory_states();
    for (label, r_load) in [("clamped (50 ohm)", 50.0), ("floating (1 Mohm)", 1e6)] {
        let mut c = Circuit::new();
        let rs = c.node("rs");
        let sl = c.node("sl");
        let gi = c.node("gi");
        c.vsource(
            "Vrs",
            rs,
            Circuit::GND,
            Waveform::pulse(0.0, 0.4, 0.2e-9, 50e-12, 50e-12, 3e-9),
        );
        // Gate stack held at the stored state (gate clamped per Table 1).
        c.vsource(
            "Vgi",
            gi,
            Circuit::GND,
            Waveform::dc(cell.fefet.v_mos_of(p_hi)),
        );
        let mfet = c.elements().len();
        c.mosfet("Mfet", rs, gi, sl, cell.fefet.mos);
        c.capacitor("Csl", sl, Circuit::GND, cell.c_sense_line);
        c.resistor("Rload", sl, Circuit::GND, r_load);
        let mut i_read = CurrentsAt::new(3.0e-9, vec![mfet]);
        let mut v_read = VoltagesAt::new(3.0e-9, vec![sl]);
        transient_with(
            &c,
            3.6e-9,
            TransientOptions {
                dt: 10e-12,
                ..TransientOptions::default()
            },
            |s| {
                i_read.observe(s);
                v_read.observe(s);
                // Both samples are taken at 3.0 ns; the run need not go on.
                match v_read.values() {
                    Some(_) => ControlFlow::Break(()),
                    None => ControlFlow::Continue(()),
                }
            },
        )
        .expect("sim");
        let i = i_read.values().map_or(0.0, |v| v[0]);
        let v_sl = v_read.values().map_or(0.0, |v| v[0]);
        println!(
            "{label}: read current {} | sense line at {:.3} V",
            fmt_current(i),
            v_sl
        );
    }
}

/// §5: without the pre-charge driver the sensing node charges through
/// the mirrored cell current alone.
fn ablate_precharge() {
    section("Ablation 4: pre-charge driver disabled");
    let cell = FefetCell::default();
    let (_, p_hi) = cell.memory_states();
    let chain = SenseChain::default();
    let slow = SenseChain {
        t_precharge: 0.0,
        ..chain
    };
    // Only the decision time is read, so each 25 ns read stops there.
    let fast_t = chain.decision_time(&cell, p_hi, 25e-9).expect("sense");
    let slow_t = slow.decision_time(&cell, p_hi, 25e-9).expect("sense");
    println!(
        "with pre-charge:    decision at {}",
        fast_t.map(fmt_time).unwrap_or_else(|| "never".into())
    );
    println!(
        "without pre-charge: decision at {}",
        slow_t.map(fmt_time).unwrap_or_else(|| "never".into())
    );
}

/// NVP: the ODAB reserve scales with the backup image energy — FERAM
/// withholds ~3x the FEFET's energy from useful work.
fn ablate_reserve() {
    section("Ablation 5: NVP backup-reserve margin");
    let trace = HarvesterScenario::Weak.trace(0.3, 41);
    let bench = mibench_suite()[0];
    for nvm in [NvmParams::paper_fefet(), NvmParams::paper_feram()] {
        let name = format!("{:?}", nvm.kind);
        for margin in [1.05, 1.3, 2.0, 4.0] {
            let cfg = NvpConfig {
                reserve_margin: margin,
                ..NvpConfig::with_nvm(nvm)
            };
            let run = simulate(&cfg, &trace, &bench);
            println!(
                "{name:>6} margin {margin:>4.2}: reserve {:>6.2} nJ, FP {:.4}",
                cfg.reserve_level() * 1e9,
                run.forward_progress
            );
        }
    }
    println!("(a fatter reserve is wasted headroom; FERAM's is ~3x the FEFET's to begin with)");
}
