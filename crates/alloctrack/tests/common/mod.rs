//! The two systems every Newton zero-allocation pin solves: an
//! array-sized ladder and a single 2T FEFET cell. Every circuit runs on
//! the one sparse Newton path, so pinning both keeps the cell size class
//! (the paper's cell-level results) as well as the array one
//! allocation-free.

use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::ElemState;
use fefet_ckt::engine::Assembly;
use fefet_ckt::models::MosParams;
use fefet_ckt::waveform::Waveform;
use fefet_mem::cell::FefetCell;

/// A nonlinear RC/MOSFET ladder big enough (> 100 unknowns) that the
/// sparse LU exercises real fill-in, not a toy diagonal.
pub fn ladder() -> Circuit {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    c.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
    let mut prev = vdd;
    for i in 0..60 {
        let n = c.node(&format!("n{i}"));
        c.resistor(&format!("R{i}"), prev, n, 1e3);
        c.capacitor(&format!("C{i}"), n, Circuit::GND, 1e-15);
        if i % 10 == 5 {
            c.mosfet(
                &format!("M{i}"),
                n,
                prev,
                Circuit::GND,
                MosParams::nmos_45nm(),
            );
        }
        prev = n;
    }
    c
}

/// The paper-default 2T FEFET cell held at its Table 1 write bias
/// (select boosted, bit line at V_write, read select at V_read): nine
/// nodes, four source branches and the FE capacitor's polarization row,
/// 14 unknowns in all.
pub fn fefet_cell() -> Circuit {
    let cell = FefetCell::default();
    let b = cell.bias;
    let mut c = Circuit::new();
    let bl = c.node("bl");
    let ws = c.node("ws");
    let rs = c.node("rs");
    let sl = c.node("sl");
    let g = c.node("g");
    let gi = c.node("gi");
    for (name, line, v) in [
        ("bl", bl, b.v_write),
        ("ws", ws, b.v_boost),
        ("rs", rs, b.v_read),
    ] {
        let drv = c.node(&format!("{name}_drv"));
        c.vsource(&format!("V{name}"), drv, Circuit::GND, Waveform::dc(v));
        c.resistor(&format!("R{name}"), drv, line, cell.r_driver);
    }
    c.vsource("Vsl", sl, Circuit::GND, Waveform::dc(0.0));
    c.capacitor("Cbl", bl, Circuit::GND, cell.c_bit_line);
    c.capacitor("Cws", ws, Circuit::GND, cell.c_write_select);
    c.capacitor("Crs", rs, Circuit::GND, cell.c_read_select);
    c.capacitor("Csl", sl, Circuit::GND, cell.c_sense_line);
    c.mosfet("Macc", bl, ws, g, cell.access);
    c.fecap(
        "Ffe",
        g,
        gi,
        cell.fefet.fe,
        cell.checked_memory_states().unwrap().0,
    );
    c.mosfet("Mfet", rs, gi, sl, cell.fefet.mos);
    c
}

/// The pinned systems by name: the ladder and the cell.
pub fn systems() -> [(&'static str, Circuit); 2] {
    [("ladder", ladder()), ("cell", fefet_cell())]
}

/// A cold starting point for `c`: zero node voltages, each element's
/// initial state there, and every FE polarization unknown seeded from
/// its stored state.
pub fn cold_start(c: &Circuit, asm: &Assembly) -> (Vec<f64>, Vec<ElemState>) {
    let mut x = vec![0.0; asm.n_unknowns()];
    let states: Vec<ElemState> = c
        .elements()
        .iter()
        .map(|(_, e)| e.initial_state(&x))
        .collect();
    asm.seed_polarization(c, &states, 0.0, &mut x);
    (x, states)
}
