//! Streaming probes for [`crate::transient::transient_with`]: observers
//! that keep the few quantities a measurement reads instead of the whole
//! waveform, with the same arithmetic as the [`crate::trace::Trace`]
//! helpers they stand in for — so a probed run reports the same bits as
//! a full-trace run followed by a lookup. [`Recorder`] is the other end:
//! every signal at every point, the observer behind
//! [`crate::transient::transient`].

use crate::circuit::Circuit;
use crate::elements::{Element, Node};
use crate::trace::{crossing, interpolate, Edge, SampleCheck, Trace};
use crate::transient::Step;
use crate::{CktError, Result};

/// Where an accepted point falls against a sample time: the bracketing
/// logic [`CurrentsAt`] and [`VoltagesAt`] share with
/// [`crate::trace::Trace::value_at`].
#[derive(Debug, Clone, Copy)]
struct SampleClock {
    t_sample: f64,
    prev_t: f64,
    seen: bool,
    done: bool,
}

/// What a point is to the sample.
#[derive(Clone, Copy)]
enum Place {
    /// Before the sample time: keep it as the bracket's left end.
    Before,
    /// The sample itself: the point's own value is the answer.
    Exact,
    /// Past the sample time, with the previous point at `prev_t`:
    /// interpolate between the two.
    After { prev_t: f64 },
    /// The sample was already taken.
    Done,
}

impl SampleClock {
    fn new(t_sample: f64) -> Self {
        SampleClock {
            t_sample,
            prev_t: 0.0,
            seen: false,
            done: false,
        }
    }

    fn place(&mut self, t: f64) -> Place {
        if self.done {
            return Place::Done;
        }
        if t < self.t_sample {
            self.prev_t = t;
            self.seen = true;
            return Place::Before;
        }
        self.done = true;
        // `value_at` clamps a sample time at or before the first point
        // to that point and returns an exactly hit point's own sample.
        if !self.seen || t.total_cmp(&self.t_sample).is_eq() {
            Place::Exact
        } else {
            Place::After {
                prev_t: self.prev_t,
            }
        }
    }
}

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
    clock: SampleClock,
    elems: Vec<usize>,
    prev_x: Vec<f64>,
    values: Vec<f64>,
}

impl CurrentsAt {
    /// A probe for the currents of the elements at positions `elems`
    /// ([`crate::circuit::Circuit::elements`] order) at time
    /// `t_sample_s`.
    // fefet-lint: allow-item(hot-alloc) -- one-time construction per run
    pub fn new(t_sample_s: f64, elems: Vec<usize>) -> Self {
        let values = vec![0.0; elems.len()];
        CurrentsAt {
            clock: SampleClock::new(t_sample_s),
            elems,
            prev_x: Vec::new(),
            values,
        }
    }

    /// Takes in one accepted point; pass every point of the run, in
    /// order.
    pub fn observe(&mut self, s: &Step<'_>) {
        match self.clock.place(s.t) {
            Place::Done => {}
            Place::Before => {
                self.prev_x.clear();
                self.prev_x.extend_from_slice(s.x);
            }
            Place::Exact => {
                for (v, &e) in self.values.iter_mut().zip(&self.elems) {
                    *v = s.current(e);
                }
            }
            Place::After { prev_t } => {
                let t = self.clock.t_sample;
                for (v, &e) in self.values.iter_mut().zip(&self.elems) {
                    let y0 = s.current_at(e, prev_t, &self.prev_x);
                    *v = interpolate(t, (prev_t, y0), (s.t, s.current(e)));
                }
            }
        }
    }

    /// The sampled currents (A), in the order of `elems`, or `None` if
    /// the run ended before the sample time.
    pub fn values(&self) -> Option<&[f64]> {
        self.clock.done.then_some(self.values.as_slice())
    }
}

/// Voltages of chosen nodes at one sample time, interpolated between
/// the two accepted points that bracket it: bit for bit what
/// [`crate::trace::Trace::value_at`] returns for `v(<node>)` on the
/// full trace. Only the chosen nodes' voltages at the previous point
/// are kept.
#[derive(Debug, Clone)]
pub struct VoltagesAt {
    clock: SampleClock,
    nodes: Vec<Node>,
    prev: Vec<f64>,
    values: Vec<f64>,
}

impl VoltagesAt {
    /// A probe for the voltages of `nodes` at time `t_sample_s`.
    // fefet-lint: allow-item(hot-alloc) -- one-time construction per run
    pub fn new(t_sample_s: f64, nodes: Vec<Node>) -> Self {
        let prev = vec![0.0; nodes.len()];
        let values = vec![0.0; nodes.len()];
        VoltagesAt {
            clock: SampleClock::new(t_sample_s),
            nodes,
            prev,
            values,
        }
    }

    /// Takes in one accepted point; pass every point of the run, in
    /// order.
    pub fn observe(&mut self, s: &Step<'_>) {
        let place = self.clock.place(s.t);
        let t = self.clock.t_sample;
        for ((v, p), &n) in self.values.iter_mut().zip(&mut self.prev).zip(&self.nodes) {
            match place {
                Place::Done => return,
                Place::Before => *p = s.v(n),
                Place::Exact => *v = s.v(n),
                Place::After { prev_t } => *v = interpolate(t, (prev_t, *p), (s.t, s.v(n))),
            }
        }
    }

    /// The sampled voltages (V), in the order of `nodes`, or `None` if
    /// the run ended before the sample time.
    pub fn values(&self) -> Option<&[f64]> {
        self.clock.done.then_some(self.values.as_slice())
    }
}

/// A running fold of chosen node voltages over the points with
/// `t0 <= t <= t1`, in point order, as
/// [`crate::trace::Trace::window_max`] and
/// [`crate::trace::Trace::window_min`] fold the full trace.
#[derive(Debug, Clone)]
struct Window {
    t0: f64,
    t1: f64,
    nodes: Vec<Node>,
    acc: Vec<f64>,
    any: bool,
    fold: fn(f64, f64) -> f64,
}

impl Window {
    // fefet-lint: allow-item(hot-alloc) -- one-time construction per run
    fn new(t0: f64, t1: f64, nodes: Vec<Node>, init: f64, fold: fn(f64, f64) -> f64) -> Self {
        let acc = vec![init; nodes.len()];
        Window {
            t0,
            t1,
            nodes,
            acc,
            any: false,
            fold,
        }
    }

    fn observe(&mut self, s: &Step<'_>) {
        if s.t >= self.t0 && s.t <= self.t1 {
            for (a, &n) in self.acc.iter_mut().zip(&self.nodes) {
                *a = (self.fold)(*a, s.v(n));
            }
            self.any = true;
        }
    }

    fn values(&self) -> Option<&[f64]> {
        self.any.then_some(self.acc.as_slice())
    }
}

/// Running maxima of chosen node voltages over the window
/// `[t0, t1]`: bit for bit what [`crate::trace::Trace::window_max`]
/// returns for `v(<node>)` on the full trace.
#[derive(Debug, Clone)]
pub struct WindowMax(Window);

impl WindowMax {
    /// A probe for the maxima of the voltages of `nodes` over the
    /// points with `t0_s <= t <= t1_s`.
    pub fn new(t0_s: f64, t1_s: f64, nodes: Vec<Node>) -> Self {
        WindowMax(Window::new(t0_s, t1_s, nodes, f64::NEG_INFINITY, f64::max))
    }

    /// Takes in one accepted point.
    pub fn observe(&mut self, s: &Step<'_>) {
        self.0.observe(s);
    }

    /// The maxima (V), in the order of `nodes`, or `None` if no point
    /// fell inside the window.
    pub fn values(&self) -> Option<&[f64]> {
        self.0.values()
    }
}

/// Running minima of chosen node voltages over the window
/// `[t0, t1]`: bit for bit what [`crate::trace::Trace::window_min`]
/// returns for `v(<node>)` on the full trace.
#[derive(Debug, Clone)]
pub struct WindowMin(Window);

impl WindowMin {
    /// A probe for the minima of the voltages of `nodes` over the
    /// points with `t0_s <= t <= t1_s`.
    pub fn new(t0_s: f64, t1_s: f64, nodes: Vec<Node>) -> Self {
        WindowMin(Window::new(t0_s, t1_s, nodes, f64::INFINITY, f64::min))
    }

    /// Takes in one accepted point.
    pub fn observe(&mut self, s: &Step<'_>) {
        self.0.observe(s);
    }

    /// The minima (V), in the order of `nodes`, or `None` if no point
    /// fell inside the window.
    pub fn values(&self) -> Option<&[f64]> {
        self.0.values()
    }
}

/// The first time at or after `after` at which one signal crosses a
/// level with a chosen edge, linearly interpolated between the two
/// points that straddle it: bit for bit what
/// [`crate::trace::Trace::cross_time`] returns on the full trace, and,
/// through [`Crossing::checked`], what
/// [`crate::trace::Trace::checked_cross_time`] returns.
///
/// The caller hands in the signal's value at each point (for example
/// [`Step::v`] or [`Step::polarization`]). Once [`Crossing::time`] is
/// `Some` the answer is fixed, so an observer may end the run there.
#[derive(Debug, Clone, Copy)]
pub struct Crossing {
    level: f64,
    edge: Edge,
    after: f64,
    prev: Option<(f64, f64)>,
    time: Option<f64>,
    check: SampleCheck,
}

impl Crossing {
    /// A probe for the first crossing of `level` (signal units) with
    /// `edge` at or after `after_s` (s).
    pub fn new(level: f64, edge: Edge, after_s: f64) -> Self {
        Crossing {
            level,
            edge,
            after: after_s,
            prev: None,
            time: None,
            check: SampleCheck::default(),
        }
    }

    /// Takes in the signal's value `y`, in the level's units (volts for
    /// a node voltage, C/m² for a polarization), at the accepted point
    /// at `t_s`; pass every point of the run, in order.
    pub fn observe(&mut self, t_s: f64, y: f64) {
        self.check.push(t_s, y);
        if self.time.is_some() {
            return;
        }
        if let Some(p0) = self.prev {
            if t_s >= self.after {
                self.time =
                    crossing(self.level, self.edge, p0, (t_s, y)).filter(|tc| *tc >= self.after);
            }
        }
        self.prev = Some((t_s, y));
    }

    /// The crossing time (s), or `None` if the signal has not crossed.
    pub fn time(&self) -> Option<f64> {
        self.time
    }

    /// The crossing time with the validation of
    /// [`crate::trace::Trace::checked_cross_time`] over the points taken
    /// in so far, errors naming `signal`.
    ///
    /// # Errors
    ///
    /// [`CktError::Measurement`] for fewer than two points, a
    /// non-increasing or non-finite time, a non-finite value, or a
    /// non-finite level or window start.
    // fefet-lint: allow-item(hot-alloc) -- once per run, after it; allocates only to format an error
    pub fn checked(&self, signal: &str) -> Result<Option<f64>> {
        self.check.result(signal)?;
        let ill = |reason: String| CktError::Measurement {
            signal: signal.to_string(),
            reason,
        };
        if !self.level.is_finite() {
            return Err(ill(format!(
                "crossing level {:?} is not finite",
                self.level
            )));
        }
        if !self.after.is_finite() {
            return Err(ill(format!("window start {:?} is not finite", self.after)));
        }
        Ok(self.time)
    }
}

/// Every node voltage (`v(<node>)`), element current (`i(<element>)`)
/// and FE polarization (`p(<element>)`) at every point: the observer
/// behind [`crate::transient::transient`], for a caller that runs
/// [`crate::transient::transient_with`] with probes of its own and
/// wants the waveforms of the same run. The signal layout is taken from
/// the circuit of the first point observed, so use one recorder per
/// run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    trace: Option<Trace>,
    sample: Vec<f64>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes in one accepted point.
    pub fn observe(&mut self, s: &Step<'_>) {
        let ckt = s.circuit();
        let trace = self
            .trace
            .get_or_insert_with(|| Trace::new(signal_names(ckt)));
        let nv = ckt.n_nodes() - 1;
        self.sample.clear();
        self.sample.extend_from_slice(&s.x[..nv]);
        for i in 0..ckt.elements().len() {
            self.sample.push(s.current(i));
        }
        for (i, (_, e)) in ckt.elements().iter().enumerate() {
            if matches!(e, Element::FeCap { .. }) {
                self.sample.push(s.polarization(i));
            }
        }
        trace.push_sample(s.t, &self.sample);
    }

    /// The recorded waveforms (an empty trace if nothing was observed).
    /// Source energies are not part of them: they come back in the
    /// run's [`crate::transient::TransientRun`].
    pub fn into_trace(self) -> Trace {
        self.trace.unwrap_or_default()
    }
}

/// The signal names [`Recorder`] records for `ckt`, in sample order:
/// node voltages, element currents, FE polarizations.
// fefet-lint: allow-item(hot-alloc) -- signal layout, built once per recorded run
fn signal_names(ckt: &Circuit) -> Vec<String> {
    let mut names: Vec<String> = (1..ckt.n_nodes())
        .map(|n| format!("v({})", ckt.node_name(Node(n))))
        .collect();
    names.extend(ckt.elements().iter().map(|(name, _)| format!("i({name})")));
    names.extend(
        ckt.elements()
            .iter()
            .filter(|(_, e)| matches!(e, Element::FeCap { .. }))
            .map(|(name, _)| format!("p({name})")),
    );
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::models::MosParams;
    use crate::transient::{transient, transient_with, TransientOptions};
    use crate::waveform::Waveform;
    use std::ops::ControlFlow;

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

    /// Every point goes on: the observer of a run that reads it all.
    fn go_on() -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    #[test]
    fn probes_match_trace_lookups_bit_for_bit() {
        let c = fixture();
        let t_end = 2e-9;
        let full = transient(&c, t_end, opts()).unwrap();
        let times = full.time().to_vec();
        let m1 = c.element_position("M1").unwrap();
        let r1 = c.element_position("R1").unwrap();
        let vin = c.find_node("in").unwrap();
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
            let mut volts = VoltagesAt::new(t_sample, vec![out, vin]);
            let mut max = WindowMax::new(0.3e-9, 1.1e-9, vec![out]);
            let mut min = WindowMin::new(0.3e-9, 1.6e-9, vec![out]);
            let run = transient_with(&c, t_end, opts(), |s| {
                probe.observe(s);
                volts.observe(s);
                max.observe(s);
                min.observe(s);
                go_on()
            })
            .unwrap();
            let got = probe.values().unwrap();
            let v = volts.values().unwrap();
            for (name, v) in [
                ("i(M1)", got[0]),
                ("i(R1)", got[1]),
                ("v(out)", v[0]),
                ("v(in)", v[1]),
            ] {
                let want = full.value_at(name, t_sample).unwrap();
                assert_eq!(v.to_bits(), want.to_bits(), "{name} at {t_sample:e}");
            }
            let want = full.window_max("v(out)", 0.3e-9, 1.1e-9).unwrap();
            assert_eq!(max.values().unwrap()[0].to_bits(), want.to_bits());
            let want = full.window_min("v(out)", 0.3e-9, 1.6e-9).unwrap();
            assert_eq!(min.values().unwrap()[0].to_bits(), want.to_bits());
            assert_eq!(run.steps + 1, times.len());
            assert_eq!(
                run.total_source_energy().to_bits(),
                full.total_source_energy().to_bits()
            );
        }
    }

    #[test]
    fn crossing_matches_trace_cross_time_bit_for_bit() {
        let c = fixture();
        let t_end = 2e-9;
        let full = transient(&c, t_end, opts()).unwrap();
        let times = full.time();
        let out = c.find_node("out").unwrap();
        let y = full.signal("v(out)").unwrap();
        let level = 0.3;
        // The segment the rising crossing of `level` falls in.
        let tc = full.cross_time("v(out)", level, Edge::Rising, 0.0).unwrap();
        let i = times.iter().position(|t| *t >= tc).unwrap();
        assert!(times[i - 1] < tc && tc < times[i], "crossing on a point");
        // A sample value on the rising edge, hit exactly by a point.
        let k = (1..times.len())
            .find(|&k| y[k] > y[k - 1] && y[k] > 0.1)
            .unwrap();
        let cases = [
            (level, Edge::Rising, 0.0, "rising"),
            (level, Edge::Falling, 0.0, "falling"),
            (level, Edge::Any, 1.0e-9, "either edge, after the rise"),
            (level, Edge::Rising, 0.9e-9, "crossing before `after`"),
            (
                level,
                Edge::Rising,
                0.5 * (times[i - 1] + tc),
                "straddling `after`, found",
            ),
            (
                level,
                Edge::Rising,
                0.5 * (tc + times[i]),
                "straddling `after`, missed",
            ),
            (y[k], Edge::Rising, 0.0, "level hit exactly by a point"),
            (level, Edge::Rising, times[i], "`after` on a point"),
            (5.0, Edge::Any, 0.0, "no crossing"),
            (f64::NAN, Edge::Any, 0.0, "non-finite level"),
        ];
        for (level, edge, after, case) in cases {
            let mut cross = Crossing::new(level, edge, after);
            transient_with(&c, t_end, opts(), |s| {
                cross.observe(s.t, s.v(out));
                go_on()
            })
            .unwrap();
            let want = full.cross_time("v(out)", level, edge, after);
            assert_eq!(
                cross.time().map(f64::to_bits),
                want.map(f64::to_bits),
                "{case}"
            );
            assert_eq!(
                cross.checked("v(out)"),
                full.checked_cross_time("v(out)", level, edge, after),
                "{case}"
            );
        }
    }

    #[test]
    fn an_observer_can_end_the_run_at_its_answer() {
        let c = fixture();
        let t_end = 2e-9;
        let full = transient(&c, t_end, opts()).unwrap();
        let out = c.find_node("out").unwrap();
        let mut cross = Crossing::new(0.3, Edge::Rising, 0.0);
        let mut seen = Vec::new();
        let run = transient_with(&c, t_end, opts(), |s| {
            seen.push((s.t, s.v(out)));
            cross.observe(s.t, s.v(out));
            match cross.time() {
                Some(_) => ControlFlow::Break(()),
                None => go_on(),
            }
        })
        .unwrap();
        let want = full.cross_time("v(out)", 0.3, Edge::Rising, 0.0).unwrap();
        assert_eq!(cross.time().unwrap().to_bits(), want.to_bits());
        // The run stopped on the point that closed the crossing's
        // segment, and every point up to it is the full run's.
        let (t_stop, _) = *seen.last().unwrap();
        let k = full.time().iter().position(|t| *t >= want).unwrap();
        assert_eq!(t_stop.to_bits(), full.time()[k].to_bits());
        assert_eq!(run.steps + 1, seen.len());
        let y = full.signal("v(out)").unwrap();
        for (k, (t, v)) in seen.iter().enumerate() {
            assert_eq!(t.to_bits(), full.time()[k].to_bits());
            assert_eq!(v.to_bits(), y[k].to_bits());
        }
        // Stopping on the t = 0 point takes no step at all.
        let run = transient_with(&c, t_end, opts(), |_| ControlFlow::Break(())).unwrap();
        assert_eq!(run.steps, 0);
    }

    #[test]
    fn recorder_is_the_full_trace() {
        let c = fixture();
        let full = transient(&c, 2e-9, opts()).unwrap();
        let mut rec = Recorder::new();
        transient_with(&c, 2e-9, opts(), |s| {
            rec.observe(s);
            go_on()
        })
        .unwrap();
        let waves = rec.into_trace();
        assert_eq!(
            waves.names().collect::<Vec<_>>(),
            full.names().collect::<Vec<_>>()
        );
        assert_eq!(waves.time(), full.time());
        for name in full.names() {
            let (a, b) = (waves.signal(name).unwrap(), full.signal(name).unwrap());
            assert!(
                a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}"
            );
        }
        assert!(waves.energies().is_empty());
        assert!(Recorder::new().into_trace().time().is_empty());
    }

    #[test]
    fn probes_report_none_when_nothing_was_sampled() {
        let c = fixture();
        let mut late = CurrentsAt::new(5e-9, vec![0]);
        let mut late_v = VoltagesAt::new(5e-9, vec![Circuit::GND]);
        let mut empty = WindowMax::new(3e-9, 4e-9, vec![Circuit::GND]);
        let mut empty_min = WindowMin::new(3e-9, 4e-9, vec![Circuit::GND]);
        transient_with(&c, 1e-9, opts(), |s| {
            late.observe(s);
            late_v.observe(s);
            empty.observe(s);
            empty_min.observe(s);
            go_on()
        })
        .unwrap();
        assert!(late.values().is_none());
        assert!(late_v.values().is_none());
        assert!(empty.values().is_none());
        assert!(empty_min.values().is_none());
    }
}
