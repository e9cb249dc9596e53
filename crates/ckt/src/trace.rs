//! Recorded transient waveforms and measurement helpers.

use crate::{CktError, Result};
use std::collections::HashMap;

/// Edge selector for threshold-crossing measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Signal crosses the level going up.
    Rising,
    /// Signal crosses the level going down.
    Falling,
    /// Either direction.
    Any,
}

/// Linear interpolation at `t` between the samples `(t0, y0)` and
/// `(t1, y1)`: the one formula [`Trace::value_at`] and the streaming
/// probes of [`crate::probe`] share, so both give the same bits.
pub(crate) fn interpolate(t: f64, (t0, y0): (f64, f64), (t1, y1): (f64, f64)) -> f64 {
    let frac = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
    y0 + frac * (y1 - y0)
}

/// The time at which the segment from `(t0, y0)` to `(t1, y1)` crosses
/// `level` with the `edge` asked for, linearly interpolated, or `None`
/// if it does not: the one formula [`Trace::cross_time`] and the
/// streaming [`crate::probe::Crossing`] share.
pub(crate) fn crossing(
    level: f64,
    edge: Edge,
    (t0, y0): (f64, f64),
    (t1, y1): (f64, f64),
) -> Option<f64> {
    let rising = y0 < level && y1 >= level;
    let falling = y0 > level && y1 <= level;
    let hit = match edge {
        Edge::Rising => rising,
        Edge::Falling => falling,
        Edge::Any => rising || falling,
    };
    if !hit {
        return None;
    }
    let frac = if (y1 - y0).abs() > 0.0 {
        (level - y0) / (y1 - y0)
    } else {
        0.0
    };
    Some(t0 + frac * (t1 - t0))
}

/// The validation of [`Trace::checked_signal`], one sample at a time:
/// it notes the first non-increasing time step, non-finite time and
/// non-finite value it sees, so the streaming
/// [`crate::probe::Crossing`] reports the same errors as the full trace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SampleCheck {
    n: usize,
    prev_t: f64,
    non_monotonic: Option<(usize, f64, f64)>,
    non_finite_t: Option<usize>,
    non_finite_y: Option<usize>,
}

impl SampleCheck {
    /// Takes in the next sample `(t, y)`.
    pub(crate) fn push(&mut self, t: f64, y: f64) {
        if self.n > 0 && self.non_monotonic.is_none() && !(t > self.prev_t) {
            self.non_monotonic = Some((self.n, self.prev_t, t));
        }
        if self.non_finite_t.is_none() && !t.is_finite() {
            self.non_finite_t = Some(self.n);
        }
        if self.non_finite_y.is_none() && !y.is_finite() {
            self.non_finite_y = Some(self.n);
        }
        self.prev_t = t;
        self.n += 1;
    }

    /// `Ok` if the samples taken in are measurable, else the
    /// [`CktError::Measurement`] for `signal` that
    /// [`Trace::checked_signal`] returns.
    pub(crate) fn result(&self, signal: &str) -> Result<()> {
        let reason = if self.n < 2 {
            format!("needs at least two samples, trace has {}", self.n)
        } else if let Some((i, t0, t1)) = self.non_monotonic {
            format!("non-monotonic time axis at index {i} ({t0:e} then {t1:e})")
        } else if let Some(i) = self.non_finite_t {
            format!("non-finite time at index {i}")
        } else if let Some(i) = self.non_finite_y {
            format!("non-finite sample at index {i}")
        } else {
            return Ok(());
        };
        Err(CktError::Measurement {
            signal: signal.to_string(),
            reason,
        })
    }
}

/// A set of recorded signals over a common time axis.
///
/// Signals are named `v(<node>)` for node voltages, `i(<element>)` for
/// element currents, and `p(<element>)` for ferroelectric polarizations.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    t: Vec<f64>,
    names: Vec<String>,
    index: HashMap<String, usize>,
    data: Vec<Vec<f64>>,
    energies: Vec<(String, f64)>,
}

impl Trace {
    /// Creates an empty trace with the given signal names.
    pub(crate) fn new(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let data = names.iter().map(|_| Vec::new()).collect();
        Trace {
            t: Vec::new(),
            names,
            index,
            data,
            energies: Vec::new(),
        }
    }

    pub(crate) fn push_sample(&mut self, t: f64, values: &[f64]) {
        debug_assert_eq!(values.len(), self.data.len());
        self.t.push(t);
        for (col, v) in self.data.iter_mut().zip(values) {
            col.push(*v);
        }
    }

    pub(crate) fn set_energies(&mut self, e: Vec<(String, f64)>) {
        self.energies = e;
    }

    /// The time axis.
    pub fn time(&self) -> &[f64] {
        &self.t
    }

    /// All recorded signal names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| s.as_str())
    }

    /// Samples of the named signal.
    pub fn signal(&self, name: &str) -> Option<&[f64]> {
        self.index.get(name).map(|&i| self.data[i].as_slice())
    }

    /// Samples of the named signal, or an error naming the signal.
    ///
    /// # Errors
    ///
    /// [`CktError::UnknownSignal`] if the signal was not recorded.
    pub fn try_signal(&self, name: &str) -> Result<&[f64]> {
        self.signal(name)
            .ok_or_else(|| CktError::UnknownSignal(name.to_string()))
    }

    /// Final value of the named signal.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.signal(name)?.last().copied()
    }

    /// Linearly interpolated value of the named signal at time `t` (s),
    /// clamped to the trace's ends.
    pub fn value_at(&self, name: &str, t: f64) -> Option<f64> {
        let y = self.signal(name)?;
        if self.t.is_empty() {
            return None;
        }
        if t <= self.t[0] {
            return Some(y[0]);
        }
        let n = self.t.len();
        if t >= self.t[n - 1] {
            return Some(y[n - 1]);
        }
        let i = match self.t.binary_search_by(|probe| probe.total_cmp(&t)) {
            Ok(i) => return Some(y[i]),
            Err(i) => i - 1,
        };
        Some(interpolate(t, (self.t[i], y[i]), (self.t[i + 1], y[i + 1])))
    }

    /// First time (s) at or after `after` (s) at which the signal
    /// crosses `level` (in the signal's own units), with the requested
    /// edge, linearly interpolated.
    pub fn cross_time(&self, name: &str, level: f64, edge: Edge, after: f64) -> Option<f64> {
        let y = self.signal(name)?;
        for i in 1..self.t.len() {
            if self.t[i] < after {
                continue;
            }
            let seg = ((self.t[i - 1], y[i - 1]), (self.t[i], y[i]));
            if let Some(tc) = crossing(level, edge, seg.0, seg.1) {
                if tc >= after {
                    return Some(tc);
                }
            }
        }
        None
    }

    /// Minimum of the signal over the whole trace.
    pub fn min(&self, name: &str) -> Option<f64> {
        self.signal(name)?.iter().copied().min_by(f64::total_cmp)
    }

    /// Maximum of the signal over the whole trace.
    pub fn max(&self, name: &str) -> Option<f64> {
        self.signal(name)?.iter().copied().max_by(f64::total_cmp)
    }

    /// Minimum of the signal restricted to `t in [t0, t1]` (s).
    pub fn window_min(&self, name: &str, t0: f64, t1: f64) -> Option<f64> {
        self.window_fold(name, t0, t1, f64::INFINITY, f64::min)
    }

    /// Maximum of the signal restricted to `t in [t0, t1]` (s).
    pub fn window_max(&self, name: &str, t0: f64, t1: f64) -> Option<f64> {
        self.window_fold(name, t0, t1, f64::NEG_INFINITY, f64::max)
    }

    fn window_fold(
        &self,
        name: &str,
        t0: f64,
        t1: f64,
        init: f64,
        f: fn(f64, f64) -> f64,
    ) -> Option<f64> {
        let y = self.signal(name)?;
        let mut acc = init;
        let mut any = false;
        for (t, v) in self.t.iter().zip(y) {
            if *t >= t0 && *t <= t1 {
                acc = f(acc, *v);
                any = true;
            }
        }
        any.then_some(acc)
    }

    /// Validates that the named signal is measurable: at least two
    /// samples, a strictly increasing time axis, and finite time and
    /// data values throughout. Returns the samples on success.
    ///
    /// The unchecked helpers ([`Trace::value_at`], [`Trace::cross_time`])
    /// silently clamp or skip over degenerate data; measurement code
    /// that feeds committed results should use the `checked_*` variants,
    /// which surface these conditions as typed
    /// [`CktError::Measurement`] errors instead.
    ///
    /// # Errors
    ///
    /// [`CktError::UnknownSignal`] for a missing signal;
    /// [`CktError::Measurement`] for a degenerate axis or data.
    pub fn checked_signal(&self, name: &str) -> Result<&[f64]> {
        let y = self.try_signal(name)?;
        let mut check = SampleCheck::default();
        for (t, v) in self.t.iter().zip(y) {
            check.push(*t, *v);
        }
        check.result(name)?;
        Ok(y)
    }

    /// Linearly interpolated value at time `t` (s), with validation:
    /// unlike [`Trace::value_at`] this refuses degenerate traces and
    /// out-of-range queries instead of clamping.
    ///
    /// # Errors
    ///
    /// As for [`Trace::checked_signal`], plus [`CktError::Measurement`]
    /// when `t` is non-finite or outside the recorded time axis.
    pub fn checked_value_at(&self, name: &str, t: f64) -> Result<f64> {
        self.checked_signal(name)?;
        let ill = |reason: String| CktError::Measurement {
            signal: name.to_string(),
            reason,
        };
        if !t.is_finite() {
            return Err(ill(format!("query time {t:?} is not finite")));
        }
        let (t0, t1) = (self.t[0], self.t[self.t.len() - 1]);
        if t < t0 || t > t1 {
            return Err(ill(format!(
                "query time {t:e} outside recorded axis [{t0:e}, {t1:e}] \
                 (value_at would clamp)"
            )));
        }
        // The axis is validated and t is in range, so the unchecked
        // interpolation cannot clamp and cannot miss.
        self.value_at(name, t)
            .ok_or_else(|| ill("empty trace".into()))
    }

    /// Threshold-crossing time (s) at `level` (signal units) at or
    /// after `after` (s), with validation: like [`Trace::cross_time`]
    /// (`Ok(None)` when no crossing exists) but degenerate traces and
    /// queries are typed errors.
    ///
    /// # Errors
    ///
    /// As for [`Trace::checked_signal`], plus [`CktError::Measurement`]
    /// when `level` or `after` is non-finite.
    pub fn checked_cross_time(
        &self,
        name: &str,
        level: f64,
        edge: Edge,
        after: f64,
    ) -> Result<Option<f64>> {
        self.checked_signal(name)?;
        let ill = |reason: String| CktError::Measurement {
            signal: name.to_string(),
            reason,
        };
        if !level.is_finite() {
            return Err(ill(format!("crossing level {level:?} is not finite")));
        }
        if !after.is_finite() {
            return Err(ill(format!("window start {after:?} is not finite")));
        }
        Ok(self.cross_time(name, level, edge, after))
    }

    /// Energy delivered by the named independent source over the run (J).
    pub fn energy(&self, source: &str) -> Option<f64> {
        self.energies
            .iter()
            .find(|(n, _)| n == source)
            .map(|(_, e)| *e)
    }

    /// Per-source delivered energies `(name, joules)`.
    pub fn energies(&self) -> &[(String, f64)] {
        &self.energies
    }

    /// Total energy delivered by all independent sources (J).
    pub fn total_source_energy(&self) -> f64 {
        self.energies.iter().map(|(_, e)| e).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> Trace {
        // v(a) ramps 0..1 over 10 samples; i(E) = 2*t.
        let mut tr = Trace::new(vec!["v(a)".into(), "i(E)".into()]);
        for i in 0..=10 {
            let t = i as f64 * 0.1;
            tr.push_sample(t, &[t, 2.0 * t]);
        }
        tr.set_energies(vec![("V1".into(), 42.0)]);
        tr
    }

    #[test]
    fn signal_lookup() {
        let tr = ramp_trace();
        assert!(tr.signal("v(a)").is_some());
        assert!(tr.signal("v(zz)").is_none());
        assert!(tr.try_signal("v(zz)").is_err());
        assert_eq!(tr.names().count(), 2);
        assert_eq!(tr.last("i(E)"), Some(2.0));
    }

    #[test]
    fn value_at_interpolates() {
        let tr = ramp_trace();
        assert!((tr.value_at("v(a)", 0.55).unwrap() - 0.55).abs() < 1e-12);
        assert_eq!(tr.value_at("v(a)", -1.0), Some(0.0));
        assert_eq!(tr.value_at("v(a)", 99.0), Some(1.0));
        assert!((tr.value_at("v(a)", 0.3).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn cross_time_rising() {
        let tr = ramp_trace();
        let tc = tr.cross_time("v(a)", 0.5, Edge::Rising, 0.0).unwrap();
        assert!((tc - 0.5).abs() < 1e-12);
        assert!(tr.cross_time("v(a)", 0.5, Edge::Falling, 0.0).is_none());
        assert!(tr.cross_time("v(a)", 2.0, Edge::Any, 0.0).is_none());
    }

    #[test]
    fn cross_time_respects_after() {
        let mut tr = Trace::new(vec!["s".into()]);
        // Triangle: up then down.
        for (t, v) in [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)] {
            tr.push_sample(t, &[v]);
        }
        let up = tr.cross_time("s", 0.5, Edge::Any, 0.0).unwrap();
        assert!((up - 0.5).abs() < 1e-12);
        let down = tr.cross_time("s", 0.5, Edge::Any, 0.75).unwrap();
        assert!((down - 1.5).abs() < 1e-12);
        let down2 = tr.cross_time("s", 0.5, Edge::Falling, 0.0).unwrap();
        assert!((down2 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_and_windows() {
        let tr = ramp_trace();
        assert_eq!(tr.min("v(a)"), Some(0.0));
        assert_eq!(tr.max("v(a)"), Some(1.0));
        assert!((tr.window_max("v(a)", 0.0, 0.5).unwrap() - 0.5).abs() < 1e-12);
        assert!((tr.window_min("v(a)", 0.5, 1.0).unwrap() - 0.5).abs() < 1e-12);
        assert!(tr.window_min("v(a)", 5.0, 6.0).is_none());
    }

    fn measurement_err(r: Result<impl std::fmt::Debug>) -> String {
        match r {
            Err(CktError::Measurement { reason, .. }) => reason,
            other => panic!("expected CktError::Measurement, got {other:?}"),
        }
    }

    #[test]
    fn checked_helpers_accept_well_formed_traces() {
        let tr = ramp_trace();
        assert!(tr.checked_signal("v(a)").is_ok());
        assert!((tr.checked_value_at("v(a)", 0.55).unwrap() - 0.55).abs() < 1e-12);
        let tc = tr
            .checked_cross_time("v(a)", 0.5, Edge::Rising, 0.0)
            .unwrap()
            .unwrap();
        assert!((tc - 0.5).abs() < 1e-12);
        // No crossing is Ok(None), not an error.
        assert_eq!(
            tr.checked_cross_time("v(a)", 2.0, Edge::Any, 0.0).unwrap(),
            None
        );
        // Unknown signals stay UnknownSignal, not Measurement.
        assert!(matches!(
            tr.checked_value_at("v(zz)", 0.5),
            Err(CktError::UnknownSignal(_))
        ));
    }

    #[test]
    fn single_sample_trace_is_a_typed_error() {
        let mut tr = Trace::new(vec!["s".into()]);
        tr.push_sample(0.0, &[1.0]);
        let reason = measurement_err(tr.checked_value_at("s", 0.0));
        assert!(reason.contains("two samples"), "{reason}");
        // The unchecked helper clamps instead — that silent fallback is
        // exactly what checked_value_at exists to reject.
        assert_eq!(tr.value_at("s", 99.0), Some(1.0));
        let empty = Trace::new(vec!["s".into()]);
        assert!(empty.checked_signal("s").is_err());
    }

    #[test]
    fn non_monotonic_time_axis_is_a_typed_error() {
        let mut tr = Trace::new(vec!["s".into()]);
        for (t, v) in [(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)] {
            tr.push_sample(t, &[v]);
        }
        let reason = measurement_err(tr.checked_value_at("s", 0.5));
        assert!(reason.contains("non-monotonic"), "{reason}");
        assert!(reason.contains("index 2"), "{reason}");
        // Duplicate timestamps are equally unmeasurable.
        let mut dup = Trace::new(vec!["s".into()]);
        for t in [0.0, 1.0, 1.0] {
            dup.push_sample(t, &[t]);
        }
        let reason = measurement_err(dup.checked_cross_time("s", 0.5, Edge::Any, 0.0));
        assert!(reason.contains("non-monotonic"), "{reason}");
    }

    #[test]
    fn nan_samples_are_a_typed_error_not_a_panic() {
        let mut tr = Trace::new(vec!["s".into()]);
        for (t, v) in [(0.0, 0.0), (1.0, f64::NAN), (2.0, 1.0)] {
            tr.push_sample(t, &[v]);
        }
        let reason = measurement_err(tr.checked_value_at("s", 0.5));
        assert!(reason.contains("non-finite sample at index 1"), "{reason}");

        let mut bad_t = Trace::new(vec!["s".into()]);
        for (t, v) in [(0.0, 0.0), (f64::NAN, 1.0)] {
            bad_t.push_sample(t, &[v]);
        }
        // A NaN timestamp breaks monotonicity before the finiteness
        // check even runs; either way it is a typed error.
        assert!(bad_t.checked_signal("s").is_err());
    }

    #[test]
    fn out_of_range_and_non_finite_queries_are_typed_errors() {
        let tr = ramp_trace();
        let reason = measurement_err(tr.checked_value_at("v(a)", 5.0));
        assert!(reason.contains("outside recorded axis"), "{reason}");
        assert!(tr.checked_value_at("v(a)", -0.1).is_err());
        assert!(tr.checked_value_at("v(a)", f64::NAN).is_err());
        assert!(tr
            .checked_cross_time("v(a)", f64::NAN, Edge::Any, 0.0)
            .is_err());
        assert!(tr
            .checked_cross_time("v(a)", 0.5, Edge::Any, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn energies_accessible() {
        let tr = ramp_trace();
        assert_eq!(tr.energy("V1"), Some(42.0));
        assert_eq!(tr.energy("V2"), None);
        assert_eq!(tr.total_source_energy(), 42.0);
        assert_eq!(tr.energies().len(), 1);
    }
}
