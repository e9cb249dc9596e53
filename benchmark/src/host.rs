//! Host-speed normalization.
//!
//! The benchmark runs on shared hosts whose CPU speed drifts by tens of
//! percent within seconds to minutes, and differs between the vCPUs of
//! one VM (other tenants, frequency changes): on a 2-vCPU Xeon VM a
//! forced 32×32 escalation took 0.33 s in one minute and 0.53 s in the
//! next. The same op divided by the mean of a fixed floating-point
//! kernel timed just before and just after it on the same CPU stayed
//! within about ±5%. So every run times that kernel between samples,
//! outside the timed regions, and reports each sample divided by its
//! bracketing probes' mean over the kernel's [`NOMINAL_PROBE_S`]:
//! seconds on the reference host. Raw timings are printed beside the
//! normalized ones.

use std::time::Instant;

/// The probe kernel's duration on the reference host (2.1 GHz Xeon,
/// quiet).
pub const NOMINAL_PROBE_S: f64 = 6.8e-3;
/// Wall time between probes; samples shorter than this share a pair of
/// bracketing probes.
const PROBE_EVERY_S: f64 = 0.25;

/// A fixed transcendental loop: the work never changes, so its duration
/// measures the host.
fn kernel() -> f64 {
    let mut acc = 0.0;
    for i in 0..700_000u32 {
        let x = 1.0 + f64::from(std::hint::black_box(i)) * 1e-6;
        acc += x.ln() * (-x).exp();
    }
    acc
}

fn time_kernel() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// The probes of one run, in order. Samples taken between probe `k`
/// and probe `k + 1` belong to segment `k`.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    /// Threads the workload keeps busy: each probe runs the kernel on
    /// this many threads at once and takes their mean.
    width: usize,
    probes: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// Starts with one probe, after an untimed warm-up run of the
    /// kernel (the first call in a process pages in the math library).
    pub fn start(width: usize) -> Self {
        std::hint::black_box(kernel());
        let mut h = HostSpeed {
            width: width.max(1),
            probes: Vec::new(),
            last: Instant::now(),
        };
        h.probe();
        h
    }

    /// Times the kernel once per thread of the workload's width,
    /// closing the current segment.
    pub fn probe(&mut self) {
        let times: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.width).map(|_| s.spawn(time_kernel)).collect();
            let mut times = vec![time_kernel()];
            times.extend(others.into_iter().filter_map(|h| h.join().ok()));
            times
        });
        self.probes
            .push(times.iter().sum::<f64>() / times.len() as f64);
        self.last = Instant::now();
    }

    /// Probes when [`PROBE_EVERY_S`] have passed since the last probe.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            self.probe();
        }
    }

    /// The segment a sample taken now falls in.
    pub fn segment(&self) -> usize {
        self.probes.len() - 1
    }

    /// Slowdown against the reference host during `segment`: the mean
    /// of its bracketing probes over [`NOMINAL_PROBE_S`] (the opening
    /// probe alone while the segment is still open).
    pub fn segment_factor(&self, segment: usize) -> f64 {
        let open = self.probes[segment];
        let close = self.probes.get(segment + 1).copied().unwrap_or(open);
        0.5 * (open + close) / NOMINAL_PROBE_S
    }

    /// Median slowdown over the whole run, for figures that are sums
    /// over a pass rather than samples.
    pub fn factor(&self) -> f64 {
        crate::stats::median(&self.probes) / NOMINAL_PROBE_S
    }
}

/// Timed samples with the probe segment each was taken in.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    raw: Vec<(usize, f64)>,
}

impl Samples {
    /// Records a sample of `raw_s` seconds that just finished.
    pub fn push(&mut self, host: &HostSpeed, raw_s: f64) {
        self.raw.push((host.segment(), raw_s));
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// The samples as measured (s).
    pub fn raw(&self) -> Vec<f64> {
        self.raw.iter().map(|&(_, s)| s).collect()
    }

    /// The samples in reference-host seconds. Call after the probe that
    /// closes the last sample's segment.
    pub fn normalized(&self, host: &HostSpeed) -> Vec<f64> {
        self.raw
            .iter()
            .map(|&(seg, s)| s / host.segment_factor(seg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_divide_by_their_bracketing_probes() {
        let mut h = HostSpeed {
            width: 1,
            probes: vec![NOMINAL_PROBE_S],
            last: Instant::now(),
        };
        let mut s = Samples::default();
        s.push(&h, 1.0);
        s.push(&h, 2.0);
        h.probes.push(3.0 * NOMINAL_PROBE_S);
        s.push(&h, 4.0);
        assert_eq!(
            s.normalized(&h),
            vec![0.5, 1.0, 4.0 / 3.0],
            "open segment uses its opening probe"
        );
        h.probes.push(NOMINAL_PROBE_S);
        assert_eq!(s.normalized(&h), vec![0.5, 1.0, 2.0]);
        assert_eq!(s.raw(), vec![1.0, 2.0, 4.0]);
        assert_eq!(h.factor(), 1.0);
    }

    #[test]
    fn ticks_probe_only_after_the_interval() {
        let mut h = HostSpeed::start(2);
        h.tick();
        assert_eq!(h.segment(), 0, "tick right after a probe does nothing");
        h.probe();
        assert_eq!(h.segment(), 1);
        assert!(h.factor() > 0.0 && h.factor().is_finite());
    }
}
