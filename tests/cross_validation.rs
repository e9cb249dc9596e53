//! Cross-layer validation: the same physics computed through independent
//! code paths must agree.

use fefet::ckt::ac::{ac_analysis, AcOptions};
use fefet::ckt::circuit::Circuit;
use fefet::ckt::transient::{transient, TransientOptions};
use fefet::ckt::waveform::Waveform;
use fefet::device::paper_fefet;

/// The circuit simulator's FE-cap + MOSFET netlist must reproduce the
/// device layer's quasi-static hysteresis: drive a slow triangle wave on
/// the gate and compare the polarization switching voltages against the
/// equilibrium-tracking sweep.
#[test]
fn circuit_level_sweep_matches_device_level_window() {
    let dev = paper_fefet();
    // Device-level window.
    let sweep = dev.sweep_id_vg(-1.0, 1.0, 400, 0.05);
    let (v_dn_dev, v_up_dev) = sweep.window(0.05).expect("device window");

    // Circuit-level: FE cap + MOSFET gate stack, slow triangle on the gate.
    let mut c = Circuit::new();
    let g = c.node("g");
    let gi = c.node("gi");
    let period = 400e-9; // much slower than the ~0.5 ns switching time
    c.vsource(
        "Vg",
        g,
        Circuit::GND,
        Waveform::pwl(vec![
            (0.0, 0.0),
            (0.25 * period, -1.0),
            (0.75 * period, 1.0),
            (1.25 * period, -1.0),
        ]),
    );
    let d = c.node("d");
    c.fecap("Ffe", g, gi, dev.fe, -0.18);
    c.mosfet("Mfet", d, gi, Circuit::GND, dev.mos);
    c.vsource("Vd", d, Circuit::GND, Waveform::dc(0.05));
    let gi_ic = dev.v_mos_of(-0.18);
    let gi_node = c.find_node("gi").unwrap();
    let tr = transient(
        &c,
        1.25 * period,
        TransientOptions {
            dt: 0.1e-9,
            node_ics: vec![(gi_node, gi_ic)],
            ..TransientOptions::default()
        },
    )
    .expect("circuit sweep");

    // Find the gate voltages at which P crosses zero going up (during the
    // rising ramp) and going down (during the falling ramp).
    let t = tr.time();
    let p = tr.signal("p(Ffe)").unwrap();
    let vg = tr.signal("v(g)").unwrap();
    let mut v_up_ckt = None;
    let mut v_dn_ckt = None;
    for i in 1..t.len() {
        let rising_ramp = t[i] > 0.25 * period && t[i] <= 0.75 * period;
        let falling_ramp = t[i] > 0.75 * period;
        if rising_ramp && p[i - 1] < 0.0 && p[i] >= 0.0 && v_up_ckt.is_none() {
            v_up_ckt = Some(vg[i]);
        }
        if falling_ramp && p[i - 1] > 0.0 && p[i] <= 0.0 && v_dn_ckt.is_none() {
            v_dn_ckt = Some(vg[i]);
        }
    }
    let v_up_ckt = v_up_ckt.expect("circuit up-switch");
    let v_dn_ckt = v_dn_ckt.expect("circuit down-switch");

    // Kinetics round the corners slightly; agree within 60 mV.
    assert!(
        (v_up_ckt - v_up_dev).abs() < 0.06,
        "up-switch: circuit {v_up_ckt:.3} vs device {v_up_dev:.3}"
    );
    assert!(
        (v_dn_ckt - v_dn_dev).abs() < 0.06,
        "down-switch: circuit {v_dn_ckt:.3} vs device {v_dn_dev:.3}"
    );
}

/// The AC linearization of the FE capacitor must agree with the analytic
/// small-signal capacitance: a series FE + linear-cap divider measured by
/// `ac_analysis` matches the closed-form divider ratio.
#[test]
fn ac_fecap_matches_analytic_divider() {
    let fe = paper_fefet().fe;
    let c_fe = fe.capacitance_density(0.0) * fe.area;
    for frac in [0.3, 0.7] {
        let c_pos = frac * c_fe.abs();
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        c.fecap("F1", vin, mid, fe, 0.0);
        c.capacitor("Cp", mid, Circuit::GND, c_pos);
        let sweep = ac_analysis(&c, "V1", &[1e6], AcOptions::default()).unwrap();
        let gain = sweep.magnitude("v(mid)").unwrap()[0];
        let theory = c_fe.abs() / (c_fe.abs() - c_pos);
        assert!(
            (gain - theory).abs() < 0.02 * theory,
            "frac {frac}: {gain} vs {theory}"
        );
    }
}
