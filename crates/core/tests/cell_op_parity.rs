//! Cell operations on the sparse Newton path against the results the
//! dense LU gave before it was removed.
//!
//! Single-cell circuits (under 64 unknowns) used to be factored dense.
//! Every circuit now runs on the pattern-cached sparse LU, which pivots
//! in a different order, so each Newton solve lands on slightly
//! different rounding. The constants below were recorded from the dense
//! path; each cell-level result must stay within `BAND` of them
//! (relative). The sparse path's largest relative deltas measured
//! 5.6e-14 (FEFET cell), 1.6e-15 (FERAM cell) and 5.0e-14 (sense
//! chain), so the band leaves room for rounding, not for a change in
//! physics.

use fefet_mem::cell::FefetCell;
use fefet_mem::feram::FeramCell;
use fefet_mem::sense::SenseChain;

/// Largest relative deviation from a dense-path result.
const BAND: f64 = 1e-9;

/// Collects `(what, sparse, dense)` comparisons and checks them all at
/// once, so a failure lists every result out of band.
#[derive(Default)]
struct Parity {
    rows: Vec<(String, f64, f64)>,
}

impl Parity {
    fn check(&mut self, what: &str, sparse: f64, dense: f64) {
        self.rows.push((what.to_string(), sparse, dense));
    }

    fn check_opt(&mut self, what: &str, sparse: Option<f64>, dense: f64) {
        let sparse = sparse.unwrap_or_else(|| panic!("{what}: no value on the sparse path"));
        self.check(what, sparse, dense);
    }

    fn assert_within_band(self) {
        let mut worst = 0.0f64;
        let mut out = Vec::new();
        for (what, sparse, dense) in &self.rows {
            let rel = (sparse - dense).abs() / dense.abs();
            worst = worst.max(rel);
            if rel > BAND {
                out.push(format!(
                    "{what}: sparse {sparse:e} vs dense {dense:e} ({rel:.2e})"
                ));
            }
        }
        println!(
            "largest relative delta over {} results: {worst:.2e}",
            self.rows.len()
        );
        assert!(out.is_empty(), "out of band:\n{}", out.join("\n"));
    }
}

#[test]
fn fefet_cell_writes_and_reads_match_the_dense_results() {
    let cell = FefetCell::default();
    let (lo, hi) = cell.memory_states();
    let mut parity = Parity::default();
    // (case, data, from, pulse, switch_time, energy, p_final)
    let writes = [
        (
            "write '1' 1 ns",
            true,
            lo,
            1e-9,
            3.7654043721894063e-10,
            4.776552392048617e-15,
            0.20541645219723326,
        ),
        (
            "write '0' 1 ns",
            false,
            hi,
            1e-9,
            4.2228668638054647e-10,
            5.012280486459998e-15,
            -0.19058808834736826,
        ),
        (
            "write '1' 4 ns",
            true,
            lo,
            4e-9,
            3.7654043721894063e-10,
            4.776575737843282e-15,
            0.20542316505080083,
        ),
        (
            "write '0' 4 ns",
            false,
            hi,
            4e-9,
            4.2228668638054647e-10,
            5.012311410612895e-15,
            -0.19059783810174014,
        ),
    ];
    for (case, data, from, pulse, t_sw, energy, p_final) in writes {
        let w = cell.write(data, from, pulse).unwrap();
        parity.check_opt(&format!("{case} switch_time"), w.switch_time, t_sw);
        parity.check(&format!("{case} energy"), w.energy, energy);
        parity.check(&format!("{case} p_final"), w.p_final, p_final);
    }
    // (case, stored, i_read, energy)
    let reads = [
        ("read '1'", hi, 2.9416233357824147e-5, 3.753530216138163e-14),
        (
            "read '0'",
            lo,
            2.5999998284000113e-11,
            1.3304470581052779e-15,
        ),
    ];
    for (case, p0, i_read, energy) in reads {
        let r = cell.read(p0, 3e-9).unwrap();
        parity.check(&format!("{case} i_read"), r.i_read, i_read);
        parity.check(&format!("{case} energy"), r.energy, energy);
    }
    parity.assert_within_band();
}

#[test]
fn feram_cell_writes_and_reads_match_the_dense_results() {
    let cell = FeramCell::default();
    let (lo, hi) = cell.memory_states();
    let mut parity = Parity::default();
    // (case, data, from, switch_time, energy, p_final) at the 550 ps
    // operating pulse.
    let writes = [
        (
            "write '1'",
            true,
            lo,
            6.48883662152016e-10,
            4.873203102335438e-14,
            0.45645585935951083,
        ),
        (
            "write '0'",
            false,
            hi,
            5.927766980956235e-10,
            1.3214882655583065e-14,
            -0.47069788941945506,
        ),
    ];
    for (case, data, from, t_sw, energy, p_final) in writes {
        let w = cell.write(data, from, 0.55e-9).unwrap();
        parity.check_opt(&format!("{case} switch_time"), w.switch_time, t_sw);
        parity.check(&format!("{case} energy"), w.energy, energy);
        parity.check(&format!("{case} p_final"), w.p_final, p_final);
    }
    // (case, stored, v_bl_swing, energy, p_after) over a 1 ns develop
    // window.
    let reads = [
        (
            "read '1'",
            hi,
            0.160862358480451,
            1.3728504038827658e-14,
            -0.48991193918747783,
        ),
        (
            "read '0'",
            lo,
            0.028769802149891725,
            7.403385147072851e-15,
            -0.4900259791335736,
        ),
    ];
    for (case, p0, swing, energy, p_after) in reads {
        let r = cell.read(p0, 1e-9).unwrap();
        parity.check(&format!("{case} v_bl_swing"), r.v_bl_swing, swing);
        parity.check(&format!("{case} energy"), r.energy, energy);
        parity.check(&format!("{case} p_after"), r.p_after, p_after);
    }
    parity.assert_within_band();
}

#[test]
fn sense_chain_decision_matches_the_dense_result() {
    let cell = FefetCell::default();
    let (lo, hi) = cell.memory_states();
    let chain = SenseChain::default();
    let mut parity = Parity::default();
    let one = chain.read_bit(&cell, hi, 2.5e-9).unwrap();
    assert!(one.bit);
    parity.check_opt(
        "sense '1' t_decision",
        one.t_decision,
        1.7208889672579862e-9,
    );
    parity.check(
        "sense '1' v_sense_end",
        one.v_sense_end,
        0.44659855144494115,
    );
    let zero = chain.read_bit(&cell, lo, 2.5e-9).unwrap();
    assert!(!zero.bit);
    assert_eq!(zero.t_decision, None);
    parity.check(
        "sense '0' v_sense_end",
        zero.v_sense_end,
        0.3050406025268982,
    );
    parity.assert_within_band();
}
