//! Bit-identity pins for the static equilibrium scans: quasi-static
//! sweeps, the Monte Carlo, the load-line intersection counts and the
//! bisection searches built on `is_nonvolatile` (endurance, thermal and
//! thickness boundaries). The scans read the tabulated gate branch and
//! Landau field and solve each root in `V_MOS` by safeguarded Newton.
//! The sweep and Monte Carlo digests were captured from that root; it
//! moved them from the P-bisection root's by rounding only (sweep P by
//! at most 5.7e-15 C/m², the Monte Carlo states by at most 2.5e-16 C/m²
//! with every non-volatility flag kept). The counts and searches read
//! only brackets or whole-state thresholds and kept their values.
//! Keeping the gate-charge inverse's last Newton step, which puts
//! `V_MOS` at rounding, moved the sweeps' P by at most 6.5e-16 C/m²
//! (`V_MOS` by 1.5e-14 V, currents by 4.0e-13 relative) and the Monte
//! Carlo states by at most 1.9e-16 C/m², with every flag kept.

use fefet_device::design::nonvolatility_boundary;
use fefet_device::endurance::EnduranceModel;
use fefet_device::fefet::IdVgSweep;
use fefet_device::loadline::max_intersections;
use fefet_device::paper_fefet;
use fefet_device::thermal::ThermalModel;
use fefet_device::variability::{monte_carlo, VariationSpec};

/// FNV-1a over the bit patterns of `vals`.
fn digest(vals: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Flattens an optional value to a presence flag plus the value.
fn opt(v: Option<f64>) -> [f64; 2] {
    match v {
        Some(x) => [1.0, x],
        None => [0.0, 0.0],
    }
}

fn sweep_digest(s: &IdVgSweep) -> u64 {
    digest(
        s.up.iter()
            .chain(&s.down)
            .flat_map(|pt| [pt.v_g, pt.i_d, pt.p, pt.v_mos]),
    )
}

#[test]
fn sweep_id_vg_is_pinned_at_2_25_and_1_9nm() {
    let s225 = paper_fefet().sweep_id_vg(-1.0, 1.0, 300, 0.05);
    assert_eq!(sweep_digest(&s225), 0xf0fb_c7c7_f59b_04ef);
    let s19 = paper_fefet()
        .with_thickness(1.9e-9)
        .sweep_id_vg(-1.0, 1.0, 300, 0.05);
    assert_eq!(sweep_digest(&s19), 0xe221_d8a4_8062_19fe);
}

#[test]
fn monte_carlo_500_is_pinned() {
    let mc = monte_carlo(&paper_fefet(), &VariationSpec::default(), 500, 42);
    assert_eq!(mc.samples.len(), 500);
    let d = digest(mc.samples.iter().flat_map(|s| {
        let [has_states, lo] = opt(s.states.map(|(lo, _)| lo));
        let hi = s.states.map_or(0.0, |(_, hi)| hi);
        let [has_ratio, ratio] = opt(s.current_ratio);
        [
            s.t_fe,
            f64::from(u8::from(s.nonvolatile)),
            has_states,
            lo,
            hi,
            has_ratio,
            ratio,
        ]
    }));
    assert_eq!(d, 0xb655_7795_b26f_8902);
}

#[test]
fn max_intersections_are_pinned() {
    let counts: Vec<usize> = [1.0e-9, 2.25e-9, 2.5e-9]
        .iter()
        .flat_map(|&t| {
            let dev = paper_fefet().with_thickness(t);
            [
                max_intersections(&dev, -1.0, 1.0, 60),
                max_intersections(&dev, -1.0, 1.0, 80),
            ]
        })
        .collect();
    assert_eq!(counts, [1, 1, 3, 3, 3, 3]);
}

#[test]
fn cycles_to_failure_is_pinned() {
    let n = EnduranceModel::default()
        .cycles_to_failure(&paper_fefet(), 1e6, 1e18)
        .expect("the 2.25 nm design fails before 1e18 cycles");
    assert_eq!(n.to_bits(), 0x42e4_e481_313b_56e3);
}

#[test]
fn volatility_temperature_is_pinned() {
    let t = ThermalModel::default()
        .volatility_temperature(&paper_fefet(), 700.0)
        .expect("the 2.25 nm design turns volatile below 700 K");
    assert_eq!(t.to_bits(), 0x4079_d0d9_caeb_4180);
}

#[test]
fn nonvolatility_boundary_is_pinned() {
    let t = nonvolatility_boundary(&paper_fefet(), 1.9e-9, 2.25e-9)
        .expect("1.9 and 2.25 nm bracket the boundary");
    assert_eq!(t.to_bits(), 0x3e20_9042_3d4a_5bcb);
}
