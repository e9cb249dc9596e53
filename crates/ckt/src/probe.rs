//! Streaming probes for [`crate::transient::transient_with`]: observers
//! that keep the few quantities a measurement reads instead of the whole
//! waveform, with the same arithmetic as the [`crate::trace::Trace`]
//! helpers they stand in for — so a probed run reports the same bits as
//! a full-trace run followed by a lookup.

use crate::elements::Node;
use crate::trace::interpolate;
use crate::transient::Step;

/// Currents of chosen elements at one sample time, interpolated between
/// the two accepted points that bracket it: bit for bit what
/// [`crate::trace::Trace::value_at`] returns for `i(<element>)` on the
/// full trace.
///
/// Only the previous point's solution vector is kept, and currents are
/// evaluated at the bracketing pair alone. The previous point's current
/// is re-evaluated from its solution, which is exact for elements whose
/// current is a function of the solution alone (resistors, sources,
/// switches, diodes, MOSFETs) — see [`Step::current_at`].
#[derive(Debug, Clone)]
pub struct CurrentsAt {
    t_sample: f64,
    elems: Vec<usize>,
    prev_t: f64,
    prev_x: Vec<f64>,
    seen: bool,
    values: Vec<f64>,
    done: bool,
}

impl CurrentsAt {
    /// A probe for the currents of the elements at positions `elems`
    /// ([`crate::circuit::Circuit::elements`] order) at time
    /// `t_sample_s`.
    // fefet-lint: allow-item(hot-alloc) -- one-time construction per run
    pub fn new(t_sample_s: f64, elems: Vec<usize>) -> Self {
        let values = vec![0.0; elems.len()];
        CurrentsAt {
            t_sample: t_sample_s,
            elems,
            prev_t: 0.0,
            prev_x: Vec::new(),
            seen: false,
            values,
            done: false,
        }
    }

    /// Takes in one accepted point; pass every point of the run, in
    /// order.
    pub fn observe(&mut self, s: &Step<'_>) {
        if self.done {
            return;
        }
        if s.t < self.t_sample {
            self.prev_t = s.t;
            self.prev_x.clear();
            self.prev_x.extend_from_slice(s.x);
            self.seen = true;
            return;
        }
        // `value_at` clamps a sample time at or before the first point
        // to that point and returns an exactly hit point's own sample.
        let exact = !self.seen || s.t.total_cmp(&self.t_sample).is_eq();
        for (v, &e) in self.values.iter_mut().zip(&self.elems) {
            let y1 = s.current(e);
            *v = if exact {
                y1
            } else {
                let y0 = s.current_at(e, self.prev_t, &self.prev_x);
                interpolate(self.t_sample, (self.prev_t, y0), (s.t, y1))
            };
        }
        self.done = true;
    }

    /// The sampled currents (A), in the order of `elems`, or `None` if
    /// the run ended before the sample time.
    pub fn values(&self) -> Option<&[f64]> {
        self.done.then_some(self.values.as_slice())
    }
}

/// Running maxima of chosen node voltages over the window
/// `[t0, t1]`: bit for bit what [`crate::trace::Trace::window_max`]
/// returns for `v(<node>)` on the full trace.
#[derive(Debug, Clone)]
pub struct WindowMax {
    t0: f64,
    t1: f64,
    nodes: Vec<Node>,
    max: Vec<f64>,
    any: bool,
}

impl WindowMax {
    /// A probe for the maxima of the voltages of `nodes` over the
    /// points with `t0_s <= t <= t1_s`.
    // fefet-lint: allow-item(hot-alloc) -- one-time construction per run
    pub fn new(t0_s: f64, t1_s: f64, nodes: Vec<Node>) -> Self {
        let max = vec![f64::NEG_INFINITY; nodes.len()];
        WindowMax {
            t0: t0_s,
            t1: t1_s,
            nodes,
            max,
            any: false,
        }
    }

    /// Takes in one accepted point.
    pub fn observe(&mut self, s: &Step<'_>) {
        if s.t >= self.t0 && s.t <= self.t1 {
            for (m, &n) in self.max.iter_mut().zip(&self.nodes) {
                *m = m.max(s.v(n));
            }
            self.any = true;
        }
    }

    /// The maxima (V), in the order of `nodes`, or `None` if no point
    /// fell inside the window.
    pub fn values(&self) -> Option<&[f64]> {
        self.any.then_some(self.max.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::models::MosParams;
    use crate::transient::{transient, transient_with, TransientOptions};
    use crate::waveform::Waveform;

    /// A driven RC into a MOSFET load: node voltages and a device
    /// current that both move on every step.
    fn fixture() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(
            "V1",
            vin,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 0.2e-9, 0.1e-9, 0.1e-9, 1e-9),
        );
        c.resistor("R1", vin, out, 10e3);
        c.capacitor("C1", out, Circuit::GND, 1e-15);
        c.mosfet("M1", out, out, Circuit::GND, MosParams::nmos_45nm());
        c
    }

    fn opts() -> TransientOptions {
        TransientOptions {
            dt: 0.03e-9,
            ..TransientOptions::default()
        }
    }

    #[test]
    fn probes_match_trace_lookups_bit_for_bit() {
        let c = fixture();
        let t_end = 2e-9;
        let full = transient(&c, t_end, opts()).unwrap();
        let times = full.time().to_vec();
        let m1 = c.element_position("M1").unwrap();
        let r1 = c.element_position("R1").unwrap();
        let out = c.find_node("out").unwrap();
        // Before the first point, between points, exactly on a point,
        // and on the last point.
        for t_sample in [
            -1e-9,
            0.0,
            0.77e-9,
            times[10],
            1.234e-9,
            times[times.len() - 1],
        ] {
            let mut probe = CurrentsAt::new(t_sample, vec![m1, r1]);
            let mut window = WindowMax::new(0.3e-9, 1.1e-9, vec![out]);
            let run = transient_with(&c, t_end, opts(), |s| {
                probe.observe(s);
                window.observe(s);
            })
            .unwrap();
            let got = probe.values().unwrap();
            for (name, v) in [("i(M1)", got[0]), ("i(R1)", got[1])] {
                let want = full.value_at(name, t_sample).unwrap();
                assert_eq!(v.to_bits(), want.to_bits(), "{name} at {t_sample:e}");
            }
            let want = full.window_max("v(out)", 0.3e-9, 1.1e-9).unwrap();
            assert_eq!(window.values().unwrap()[0].to_bits(), want.to_bits());
            assert_eq!(run.steps + 1, times.len());
            assert_eq!(
                run.total_source_energy().to_bits(),
                full.total_source_energy().to_bits()
            );
        }
    }

    #[test]
    fn probes_report_none_when_nothing_was_sampled() {
        let c = fixture();
        let mut late = CurrentsAt::new(5e-9, vec![0]);
        let mut empty = WindowMax::new(3e-9, 4e-9, vec![Circuit::GND]);
        transient_with(&c, 1e-9, opts(), |s| {
            late.observe(s);
            empty.observe(s);
        })
        .unwrap();
        assert!(late.values().is_none());
        assert!(empty.values().is_none());
    }
}
