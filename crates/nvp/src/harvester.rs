//! Ambient (Wi-Fi) energy-harvester power traces.
//!
//! The paper evaluates forward progress "with a Wi-Fi energy harvester
//! \[4\] as the supply". Measured Wi-Fi harvesting traces are bursty:
//! stretches of usable power separated by outages, both with highly
//! variable durations. We model a trace as piecewise-constant power with
//! exponentially distributed on/off durations and jittered on-power —
//! seeded and fully reproducible.

use fefet_numerics::rng::Rng;

/// A piecewise-constant power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    segments: Vec<(f64, f64)>, // (duration s, power W)
    total: f64,
}

impl PowerTrace {
    /// Builds a trace from `(duration, power)` segments.
    ///
    /// # Panics
    ///
    /// Panics if any duration is non-positive or any power negative.
    pub fn from_segments(segments: Vec<(f64, f64)>) -> Self {
        assert!(!segments.is_empty(), "trace needs at least one segment");
        let mut total = 0.0;
        for (d, p) in &segments {
            assert!(*d > 0.0, "segment duration must be positive");
            assert!(*p >= 0.0, "power cannot be negative");
            total += d;
        }
        PowerTrace { segments, total }
    }

    /// The `(duration, power)` segments.
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }

    /// Total trace duration (s).
    pub fn duration(&self) -> f64 {
        self.total
    }

    /// Time-averaged harvested power (W).
    pub fn mean_power(&self) -> f64 {
        let e: f64 = self.segments.iter().map(|(d, p)| d * p).sum();
        e / self.total
    }

    /// Number of power outages: transitions to a segment below the
    /// power threshold `p_min` (W).
    pub fn outage_count(&self, p_min: f64) -> usize {
        let mut n = 0;
        let mut powered = true;
        for (_, p) in &self.segments {
            let on = *p >= p_min;
            if powered && !on {
                n += 1;
            }
            powered = on;
        }
        n
    }
}

/// Harvesting-strength scenarios, ordered from strongest to weakest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HarvesterScenario {
    /// Near the transmitter: generous power, long bursts.
    Strong,
    /// Typical indoor distance.
    Moderate,
    /// Far from the transmitter: power barely above the core's demand.
    Weak,
    /// Marginal harvesting: frequent interruption, sub-demand power.
    VeryWeak,
}

impl HarvesterScenario {
    /// All scenarios, strongest first.
    pub fn all() -> [HarvesterScenario; 4] {
        [
            HarvesterScenario::Strong,
            HarvesterScenario::Moderate,
            HarvesterScenario::Weak,
            HarvesterScenario::VeryWeak,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            HarvesterScenario::Strong => "strong",
            HarvesterScenario::Moderate => "moderate",
            HarvesterScenario::Weak => "weak",
            HarvesterScenario::VeryWeak => "very-weak",
        }
    }

    /// `(mean on-power W, mean on-duration s, mean off-duration s)`.
    fn params(&self) -> (f64, f64, f64) {
        match self {
            HarvesterScenario::Strong => (400e-6, 400e-6, 80e-6),
            HarvesterScenario::Moderate => (220e-6, 150e-6, 100e-6),
            HarvesterScenario::Weak => (132e-6, 65e-6, 130e-6),
            HarvesterScenario::VeryWeak => (90e-6, 40e-6, 160e-6),
        }
    }

    /// Generates a reproducible trace of the given `duration` (s).
    ///
    /// # Panics
    ///
    /// Panics if `duration <= 0`.
    pub fn trace(&self, duration: f64, seed: u64) -> PowerTrace {
        assert!(duration > 0.0, "trace duration must be positive");
        let (p_on, t_on, t_off) = self.params();
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_fefe);
        let mut segments = Vec::new();
        let mut t = 0.0;
        let mut on = true;
        while t < duration {
            // Exponential duration via inverse transform.
            let u: f64 = rng.uniform_in(1e-6, 1.0);
            let mean = if on { t_on } else { t_off };
            let d = (-u.ln() * mean).clamp(mean * 0.05, mean * 6.0);
            let d = d.min(duration - t).max(1e-9);
            let p = if on {
                // ±35 % power jitter burst to burst.
                p_on * rng.uniform_in(0.65, 1.35)
            } else {
                0.0
            };
            segments.push((d, p));
            t += d;
            on = !on;
        }
        PowerTrace::from_segments(segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_duration_and_mean() {
        let tr = PowerTrace::from_segments(vec![(1.0, 2.0), (1.0, 0.0)]);
        assert_eq!(tr.duration(), 2.0);
        assert_eq!(tr.mean_power(), 1.0);
        assert_eq!(tr.segments().len(), 2);
    }

    #[test]
    fn outage_counting() {
        let tr = PowerTrace::from_segments(vec![(1.0, 2.0), (1.0, 0.0), (1.0, 2.0), (1.0, 0.0)]);
        assert_eq!(tr.outage_count(0.5), 2);
        // Everything below threshold: a single initial outage.
        assert_eq!(tr.outage_count(3.0), 1);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn rejects_bad_segment() {
        PowerTrace::from_segments(vec![(0.0, 1.0)]);
    }

    #[test]
    fn generated_trace_is_reproducible() {
        let a = HarvesterScenario::Moderate.trace(0.05, 42);
        let b = HarvesterScenario::Moderate.trace(0.05, 42);
        assert_eq!(a, b);
        let c = HarvesterScenario::Moderate.trace(0.05, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn scenarios_ordered_by_mean_power() {
        let traces: Vec<f64> = HarvesterScenario::all()
            .iter()
            .map(|s| s.trace(0.2, 7).mean_power())
            .collect();
        for w in traces.windows(2) {
            assert!(w[0] > w[1], "scenario ordering violated: {traces:?}");
        }
    }

    #[test]
    fn weak_scenarios_have_more_frequent_outages() {
        let strong = HarvesterScenario::Strong.trace(0.2, 3);
        let weak = HarvesterScenario::VeryWeak.trace(0.2, 3);
        assert!(weak.outage_count(1e-6) > strong.outage_count(1e-6));
    }

    #[test]
    fn trace_covers_requested_duration() {
        let tr = HarvesterScenario::Weak.trace(0.1, 9);
        assert!((tr.duration() - 0.1).abs() < 1e-9);
    }
}
