//! Cell-level op results against two references.
//!
//! - *The fixed-schedule results.* Cell ops used to step at a fixed
//!   step (20 ps for the cells, 10 ps for the sense chain), and single
//!   cells were factored on the dense LU. The `*_FIXED` constants were
//!   recorded there. Cell ops now solve on the sparse LU and grow their
//!   step on quiescent stretches (`CellSim`'s step ceiling), so each
//!   result must stay within [`SCHEDULE_BAND`] of its fixed-schedule
//!   value. The largest relative deltas measured 6.1e-7 (FEFET cell),
//!   2.0e-6 (FERAM cell, the '1' read's bit-line swing) and 1.2e-9
//!   (sense chain), against a discretization error of 0.5–7.4% at the
//!   fixed step (EXPERIMENTS.md "Discretization error"), so the band
//!   leaves room for the schedule, not for a change in physics.
//! - *Rounding pins.* The `*_GROWN` constants were recorded on the
//!   grown schedule; each result must stay within [`ROUNDING_BAND`] of
//!   them, which leaves room for rounding only.

use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::sense::SenseChain;

/// Largest relative deviation from a fixed-schedule result.
const SCHEDULE_BAND: f64 = 1e-4;

/// Largest relative deviation from a grown-schedule pin.
const ROUNDING_BAND: f64 = 1e-9;

/// Checks `results` against `reference` (same names, same order) and
/// fails listing every result whose relative deviation exceeds `band`.
fn assert_within(results: &[(String, f64)], reference: &[(&str, f64)], band: f64) {
    assert_eq!(results.len(), reference.len(), "result count");
    let mut worst = 0.0f64;
    let mut out = Vec::new();
    for ((what, got), (name, want)) in results.iter().zip(reference) {
        assert_eq!(what, name, "result order");
        let rel = (got - want).abs() / want.abs();
        worst = worst.max(rel);
        if rel > band {
            out.push(format!("{what}: {got:e} vs {want:e} ({rel:.2e})"));
        }
    }
    println!(
        "largest relative delta over {} results: {worst:.2e}",
        results.len()
    );
    assert!(out.is_empty(), "out of band {band:e}:\n{}", out.join("\n"));
}

/// The FEFET cell's writes (both polarities, 1 ns and 4 ns pulses) and
/// reads (both states, 3 ns).
fn fefet_results() -> Vec<(String, f64)> {
    let cell = FefetCell::default();
    let (lo, hi) = cell.checked_memory_states().unwrap();
    let mut out = Vec::new();
    for (case, data, from, pulse) in [
        ("write '1' 1 ns", true, lo, 1e-9),
        ("write '0' 1 ns", false, hi, 1e-9),
        ("write '1' 4 ns", true, lo, 4e-9),
        ("write '0' 4 ns", false, hi, 4e-9),
    ] {
        let w = cell.write(data, from, pulse).unwrap();
        let t_sw = w.switch_time.unwrap_or_else(|| panic!("{case}: no switch"));
        out.push((format!("{case} switch_time"), t_sw));
        out.push((format!("{case} energy"), w.energy));
        out.push((format!("{case} p_final"), w.p_final));
    }
    for (case, p0) in [("read '1'", hi), ("read '0'", lo)] {
        let r = cell.read(p0, 3e-9).unwrap();
        out.push((format!("{case} i_read"), r.i_read));
        out.push((format!("{case} energy"), r.energy));
    }
    out
}

/// The FERAM cell's writes at the 550 ps operating pulse and reads over
/// a 1 ns develop window, both states.
fn feram_results() -> Vec<(String, f64)> {
    let cell = FeramCell::default();
    let (lo, hi) = cell.checked_memory_states().unwrap();
    let mut out = Vec::new();
    for (case, data, from) in [("write '1'", true, lo), ("write '0'", false, hi)] {
        let w = cell.write(data, from, 0.55e-9).unwrap();
        let t_sw = w.switch_time.unwrap_or_else(|| panic!("{case}: no switch"));
        out.push((format!("{case} switch_time"), t_sw));
        out.push((format!("{case} energy"), w.energy));
        out.push((format!("{case} p_final"), w.p_final));
    }
    for (case, p0) in [("read '1'", hi), ("read '0'", lo)] {
        let r = cell.read(p0, 1e-9).unwrap();
        out.push((format!("{case} v_bl_swing"), r.v_bl_swing));
        out.push((format!("{case} energy"), r.energy));
        out.push((format!("{case} p_after"), r.p_after));
    }
    out
}

/// The sense chain's read of both states over a 2.5 ns window.
fn sense_results() -> Vec<(String, f64)> {
    let cell = FefetCell::default();
    let (lo, hi) = cell.checked_memory_states().unwrap();
    let chain = SenseChain::default();
    let one = chain.read_bit(&cell, hi, 2.5e-9).unwrap();
    assert!(one.bit);
    let zero = chain.read_bit(&cell, lo, 2.5e-9).unwrap();
    assert!(!zero.bit);
    assert_eq!(zero.t_decision, None);
    vec![
        (
            "sense '1' t_decision".to_string(),
            one.t_decision.expect("sense '1' decides"),
        ),
        ("sense '1' v_sense_end".to_string(), one.v_sense_end),
        ("sense '0' v_sense_end".to_string(), zero.v_sense_end),
    ]
}

/// [`fefet_results`] at the fixed 20 ps step on the dense LU.
const FEFET_FIXED: &[(&str, f64)] = &[
    ("write '1' 1 ns switch_time", 3.7654043721894063e-10),
    ("write '1' 1 ns energy", 4.776552392048617e-15),
    ("write '1' 1 ns p_final", 0.20541645219723326),
    ("write '0' 1 ns switch_time", 4.2228668638054647e-10),
    ("write '0' 1 ns energy", 5.012280486459998e-15),
    ("write '0' 1 ns p_final", -0.19058808834736826),
    ("write '1' 4 ns switch_time", 3.7654043721894063e-10),
    ("write '1' 4 ns energy", 4.776575737843282e-15),
    ("write '1' 4 ns p_final", 0.20542316505080083),
    ("write '0' 4 ns switch_time", 4.2228668638054647e-10),
    ("write '0' 4 ns energy", 5.012311410612895e-15),
    ("write '0' 4 ns p_final", -0.19059783810174014),
    ("read '1' i_read", 2.9416233357824147e-5),
    ("read '1' energy", 3.753530216138163e-14),
    ("read '0' i_read", 2.5999998284000113e-11),
    ("read '0' energy", 1.3304470581052779e-15),
];

/// [`fefet_results`] on the grown schedule.
const FEFET_GROWN: &[(&str, f64)] = &[
    ("write '1' 1 ns switch_time", 3.7654043721891964e-10),
    ("write '1' 1 ns energy", 4.776552608751172e-15),
    ("write '1' 1 ns p_final", 0.2054164164160751),
    ("write '0' 1 ns switch_time", 4.22286686384827e-10),
    ("write '0' 1 ns energy", 5.0122806080642996e-15),
    ("write '0' 1 ns p_final", -0.1905879727206427),
    ("write '1' 4 ns switch_time", 3.7654043721891964e-10),
    ("write '1' 4 ns energy", 4.7765757362348876e-15),
    ("write '1' 4 ns p_final", 0.20542312926036535),
    ("write '0' 4 ns switch_time", 4.22286686384827e-10),
    ("write '0' 4 ns energy", 5.012311403655726e-15),
    ("write '0' 4 ns p_final", -0.19059772282923088),
    ("read '1' i_read", 2.9416237197937457e-5),
    ("read '1' energy", 3.753530212434919e-14),
    ("read '0' i_read", 2.5999998284000113e-11),
    ("read '0' energy", 1.3304470708520844e-15),
];

/// [`feram_results`] at the fixed 20 ps step on the dense LU.
const FERAM_FIXED: &[(&str, f64)] = &[
    ("write '1' switch_time", 6.48883662152016e-10),
    ("write '1' energy", 4.873203102335438e-14),
    ("write '1' p_final", 0.45645585935951083),
    ("write '0' switch_time", 5.927766980956235e-10),
    ("write '0' energy", 1.3214882655583065e-14),
    ("write '0' p_final", -0.47069788941945506),
    ("read '1' v_bl_swing", 0.160862358480451),
    ("read '1' energy", 1.3728504038827658e-14),
    ("read '1' p_after", -0.48991193918747783),
    ("read '0' v_bl_swing", 0.028769802149891725),
    ("read '0' energy", 7.403385147072851e-15),
    ("read '0' p_after", -0.4900259791335736),
];

/// [`feram_results`] on the grown schedule.
const FERAM_GROWN: &[(&str, f64)] = &[
    ("write '1' switch_time", 6.48883662152016e-10),
    ("write '1' energy", 4.873203097691953e-14),
    ("write '1' p_final", 0.45645550805264606),
    ("write '0' switch_time", 5.927766980956236e-10),
    ("write '0' energy", 1.3214882386219e-14),
    ("write '0' p_final", -0.4706972964872579),
    ("read '1' v_bl_swing", 0.16086203838927282),
    ("read '1' energy", 1.3728506018678698e-14),
    ("read '1' p_after", -0.48991194098212154),
    ("read '0' v_bl_swing", 0.028769802149891766),
    ("read '0' energy", 7.403385519080732e-15),
    ("read '0' p_after", -0.4900259790959139),
];

/// [`sense_results`] at the fixed 10 ps step on the dense LU.
const SENSE_FIXED: &[(&str, f64)] = &[
    ("sense '1' t_decision", 1.7208889672579862e-9),
    ("sense '1' v_sense_end", 0.44659855144494115),
    ("sense '0' v_sense_end", 0.3050406025268982),
];

/// [`sense_results`] on the grown schedule.
const SENSE_GROWN: &[(&str, f64)] = &[
    ("sense '1' t_decision", 1.7208889672598495e-9),
    ("sense '1' v_sense_end", 0.4465985514448639),
    ("sense '0' v_sense_end", 0.3050406021698564),
];

#[test]
fn fefet_cell_writes_and_reads_match_the_dense_results() {
    assert_within(&fefet_results(), FEFET_FIXED, SCHEDULE_BAND);
}

#[test]
fn fefet_cell_writes_and_reads_match_their_grown_schedule_pins() {
    assert_within(&fefet_results(), FEFET_GROWN, ROUNDING_BAND);
}

#[test]
fn feram_cell_writes_and_reads_match_the_dense_results() {
    assert_within(&feram_results(), FERAM_FIXED, SCHEDULE_BAND);
}

#[test]
fn feram_cell_writes_and_reads_match_their_grown_schedule_pins() {
    assert_within(&feram_results(), FERAM_GROWN, ROUNDING_BAND);
}

#[test]
fn sense_chain_decision_matches_the_dense_result() {
    assert_within(&sense_results(), SENSE_FIXED, SCHEDULE_BAND);
}

#[test]
fn sense_chain_decision_matches_its_grown_schedule_pins() {
    assert_within(&sense_results(), SENSE_GROWN, ROUNDING_BAND);
}
