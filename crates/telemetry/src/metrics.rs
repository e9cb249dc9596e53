//! Lock-free metric primitives: counters, float cells, and
//! fixed-bucket histograms with quantile estimates.
//!
//! Every recording operation is a handful of relaxed atomic updates —
//! no locks, no allocation — so `pool_map` workers sharing one
//! [`crate::Telemetry`] through an `Arc` aggregate without contention
//! on the hot path, and the instrumented Newton warm path stays
//! allocation-free (pinned by the alloctrack test suite).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::fmt_f64;

/// A monotonically increasing (or max-tracking) `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `v` if `v` is larger (high-water marks
    /// such as sparse pattern / fill-in sizes).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomically updated `f64` stored as its bit pattern. Supports
/// accumulation and min/max tracking via compare-and-swap.
#[derive(Debug)]
pub struct FloatCell(AtomicU64);

impl FloatCell {
    pub fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    /// A cell that accumulates from zero.
    pub fn zero() -> Self {
        Self::new(0.0)
    }

    /// A cell tracking a running minimum (starts at `+inf`, so any
    /// finite update lowers it).
    pub fn min_tracker() -> Self {
        Self::new(f64::INFINITY)
    }

    /// A cell tracking a running maximum (starts at `-inf`).
    pub fn max_tracker() -> Self {
        Self::new(f64::NEG_INFINITY)
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// `self += delta`, atomically. NaN deltas are ignored so one bad
    /// sample cannot poison an accumulator.
    #[inline]
    pub fn add(&self, delta: f64) {
        if delta.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Lowers the cell to `v` if `v` is smaller. NaN is ignored.
    #[inline]
    pub fn update_min(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v < f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// Raises the cell to `v` if `v` is larger. NaN is ignored.
    #[inline]
    pub fn update_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                if v > f64::from_bits(bits) {
                    Some(v.to_bits())
                } else {
                    None
                }
            });
    }

    /// The cell's value as a JSON fragment; tracker cells that were
    /// never updated (still at `±inf`) serialize as `null`.
    pub fn to_json(&self) -> String {
        fmt_f64(self.get())
    }
}

/// A fixed-bucket histogram with atomic counts and quantile estimates.
///
/// The bucket layout is decided once at construction (a sorted list of
/// upper edges, with one implicit overflow bucket), so recording is a
/// binary search plus a few relaxed atomic updates — lock- and
/// allocation-free, safe to share across `pool_map` workers. Bucket
/// counts give any quantile to within one bucket: the latency layout
/// ([`Histogram::latency_ns`]) has log-spaced edges about 33% apart.
#[derive(Debug)]
pub struct Histogram {
    /// Sorted, finite, deduplicated inclusive upper edges. Bucket `i`
    /// counts samples `v` with `edges[i-1] < v <= edges[i]`.
    edges: Vec<f64>,
    /// `edges.len() + 1` slots; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: FloatCell,
    min: FloatCell,
    max: FloatCell,
}

impl Histogram {
    /// Builds a histogram from explicit upper edges. Non-finite edges
    /// are dropped; the rest are sorted and deduplicated.
    // fefet-lint: allow-item(hot-alloc) -- one-time bucket allocation at construction; recording never allocates
    pub fn with_edges(mut edges: Vec<f64>) -> Self {
        edges.retain(|e| e.is_finite());
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| a.to_bits() == b.to_bits());
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges,
            buckets,
            count: AtomicU64::new(0),
            sum: FloatCell::zero(),
            min: FloatCell::min_tracker(),
            max: FloatCell::max_tracker(),
        }
    }

    /// `n` equal-width buckets spanning `(lo, hi]`, plus overflow.
    // fefet-lint: allow-item(hot-alloc) -- one-time edge list at construction
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        let n = n.max(1);
        let edges = (1..=n)
            .map(|i| lo + (hi - lo) * (i as f64) / (n as f64))
            .collect();
        Self::with_edges(edges)
    }

    /// `sub` log-spaced buckets per decade: edges `10^(lo + i/sub)` for
    /// `i = 0..=(hi - lo)·sub`, where `lo..=hi` is `lo_exp..=hi_exp`
    /// reordered if swapped and `sub` is at least one, so construction
    /// is total. `sub = 1` gives one bucket per decade.
    // fefet-lint: allow-item(hot-alloc) -- one-time edge list at construction
    pub fn log_spaced(lo_exp: i32, hi_exp: i32, sub: u32) -> Self {
        let (lo, hi) = (lo_exp.min(hi_exp), lo_exp.max(hi_exp));
        let sub = sub.max(1);
        let n = hi.abs_diff(lo) * sub;
        let edges = (0..=n)
            .map(|i| 10f64.powf(f64::from(lo) + f64::from(i) / f64::from(sub)))
            .collect();
        Self::with_edges(edges)
    }

    /// The latency layout: 1 ns to 1000 s (12 decades) at 8 buckets per
    /// decade, 97 edges whose quantile estimates are good to one bucket
    /// (≈33%), covering a single back-substitution to a whole yield
    /// run.
    pub fn latency_ns() -> Self {
        Self::log_spaced(0, 12, 8)
    }

    /// Records one sample. Non-finite samples are ignored (they carry
    /// no bucket and would poison `sum`).
    #[inline]
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let i = self.edges.partition_point(|e| *e < v);
        if let Some(b) = self.buckets.get(i) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
        self.min.update_min(v);
        self.max.update_max(v);
    }

    /// Convenience for integer-valued metrics (iteration counts, …).
    #[inline]
    pub fn record_usize(&self, v: usize) {
        self.record(v as f64);
    }

    /// Convenience for nanosecond durations measured as `u64`.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.record(ns as f64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Mean of recorded samples, or `None` before the first record.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            None
        } else {
            Some(self.sum() / n as f64)
        }
    }

    pub fn min(&self) -> Option<f64> {
        let v = self.min.get();
        v.is_finite().then_some(v)
    }

    pub fn max(&self) -> Option<f64> {
        let v = self.max.get();
        v.is_finite().then_some(v)
    }

    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// A snapshot of the bucket counts (`edges.len() + 1` entries; the
    /// last is the overflow bucket).
    // fefet-lint: allow-item(hot-alloc) -- snapshot/export path, never on the warm recording path
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimates the `q`-quantile (`q` clamped into `[0, 1]`) from the
    /// bucket counts: the upper edge of the bucket holding the
    /// `ceil(q*n)`-th smallest sample, clamped into the observed
    /// `[min, max]` so estimates never leave the data range. Returns
    /// `None` before the first sample. Monotone in `q` by construction
    /// (cumulative counts are monotone, edges are sorted, and the clamp
    /// is order-preserving).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        let hit = self.buckets.iter().position(|b| {
            cum += b.load(Ordering::Relaxed);
            cum >= rank
        });
        let lo = self.min.get();
        let hi = self.max.get();
        // The overflow bucket is unbounded above, so its edge says
        // nothing — the observed max is the best estimate there.
        let edge = hit.and_then(|i| self.edges.get(i)).copied().unwrap_or(hi);
        if lo.is_finite() && hi.is_finite() {
            Some(edge.clamp(lo, hi))
        } else {
            Some(edge)
        }
    }

    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Serializes the histogram as one JSON object:
    /// `{"count":…,"sum":…,"min":…,"max":…,"mean":…,"p50":…,"p90":…,"p99":…,"le":[…],"buckets":[…]}`.
    /// `buckets` has one more entry than `le` (the overflow bucket);
    /// the summary statistics of an empty histogram are `null`.
    // fefet-lint: allow-item(hot-alloc) -- snapshot/export path, never on the warm recording path
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!("{{\"count\":{}", self.count()));
        s.push_str(&format!(",\"sum\":{}", fmt_f64(self.sum())));
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), fmt_f64);
        s.push_str(&format!(",\"min\":{}", opt(self.min())));
        s.push_str(&format!(",\"max\":{}", opt(self.max())));
        s.push_str(&format!(",\"mean\":{}", opt(self.mean())));
        s.push_str(&format!(",\"p50\":{}", opt(self.p50())));
        s.push_str(&format!(",\"p90\":{}", opt(self.quantile(0.90))));
        s.push_str(&format!(",\"p99\":{}", opt(self.p99())));
        s.push_str(",\"le\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&fmt_f64(*e));
        }
        s.push_str("],\"buckets\":[");
        for (i, b) in self.bucket_counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&b.to_string());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn counter_inc_add_max() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_max(3);
        assert_eq!(c.get(), 5);
        c.record_max(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn float_cell_accumulates_and_tracks_extrema() {
        let acc = FloatCell::zero();
        acc.add(1.5);
        acc.add(2.5);
        assert!((acc.get() - 4.0).abs() < 1e-15);
        acc.add(f64::NAN);
        assert!((acc.get() - 4.0).abs() < 1e-15);

        let lo = FloatCell::min_tracker();
        let hi = FloatCell::max_tracker();
        for v in [3.0, -1.0, 2.0, f64::NAN] {
            lo.update_min(v);
            hi.update_max(v);
        }
        assert!((lo.get() + 1.0).abs() < 1e-15);
        assert!((hi.get() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_edge() {
        let h = Histogram::with_edges(vec![1.0, 2.0, 4.0]);
        // v <= 1 -> bucket 0; 1 < v <= 2 -> bucket 1; 2 < v <= 4 -> 2;
        // v > 4 -> overflow.
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!((h.min().unwrap() - 0.5).abs() < 1e-15);
        assert!((h.max().unwrap() - 100.0).abs() < 1e-15);
    }

    #[test]
    fn histogram_ignores_non_finite_samples() {
        let h = Histogram::linear(0.0, 10.0, 5);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
    }

    #[test]
    fn decade_histogram_covers_timestep_scales() {
        let h = Histogram::log_spaced(-15, -3, 1);
        assert_eq!(h.edges().len(), 13);
        h.record(4e-12);
        let counts = h.bucket_counts();
        let nonzero: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonzero, vec![4]); // edges[3]=1e-12 < v <= edges[4]=1e-11
    }

    #[test]
    fn decade_edges_are_the_exact_powers_of_ten() {
        // The solver's residual and step-size histograms once built
        // their edges with `powi`; `log_spaced` must give the same
        // bits, so their committed bucket counts cannot move.
        for (lo, hi) in [(-18, 0), (-15, -3), (0, 12)] {
            let h = Histogram::log_spaced(lo, hi, 1);
            let want: Vec<u64> = (lo..=hi).map(|e| 10f64.powi(e).to_bits()).collect();
            let got: Vec<u64> = h.edges().iter().map(|e| e.to_bits()).collect();
            assert_eq!(got, want, "decades {lo}..={hi}");
        }
        // Every eighth latency edge is a decade.
        let lat = Histogram::latency_ns();
        assert_eq!(lat.edges().len(), 97);
        for (k, e) in lat.edges().iter().step_by(8).enumerate() {
            assert_eq!(e.to_bits(), 10f64.powi(k as i32).to_bits(), "10^{k}");
        }
    }

    #[test]
    fn degenerate_layouts_are_repaired() {
        // Explicit edges: non-finite dropped, sorted, deduplicated.
        let h = Histogram::with_edges(vec![4.0, f64::NAN, 1.0, 1.0, f64::INFINITY]);
        assert_eq!(h.edges(), &[1.0, 4.0]);
        // Log-spaced: swapped exponents reorder, `sub = 0` means one
        // bucket per decade, and a zero span leaves one edge.
        let h = Histogram::log_spaced(5, 5, 0);
        assert_eq!(h.edges(), &[1e5]);
        assert_eq!(h.bucket_counts().len(), 2);
        let swapped = Histogram::log_spaced(3, -3, 2);
        assert_eq!(swapped.edges(), Histogram::log_spaced(-3, 3, 2).edges());
        assert_eq!(swapped.edges().len(), 13);
        // No edges at all still buckets: everything overflows.
        let none = Histogram::with_edges(vec![]);
        none.record(5.0);
        assert_eq!(none.bucket_counts(), vec![1]);
        assert!((none.p50().unwrap() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn empty_histogram_is_well_formed_and_reports_nothing() {
        let h = Histogram::with_edges(vec![1.0, 10.0, 100.0]);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.p50().is_none());
        assert!(h.quantile(1.0).is_none());
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
        let j = h.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"mean\":null"), "{j}");
        assert!(j.contains("\"p50\":null,\"p90\":null,\"p99\":null"), "{j}");
    }

    #[test]
    fn single_sample_sets_every_summary_stat() {
        let h = Histogram::with_edges(vec![1.0, 10.0, 100.0]);
        h.record(7.0);
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 7.0).abs() < 1e-15);
        assert!((h.mean().unwrap() - 7.0).abs() < 1e-15);
        assert!((h.min().unwrap() - 7.0).abs() < 1e-15);
        assert!((h.max().unwrap() - 7.0).abs() < 1e-15);
        assert_eq!(h.bucket_counts(), vec![0, 1, 0, 0]);
        // The clamp into [min, max] collapses every quantile of a
        // one-sample distribution onto the sample itself.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 7.0).abs() < 1e-12, "q={q}: {v}");
        }
    }

    #[test]
    fn overflow_bucket_saturates_without_losing_samples() {
        let h = Histogram::with_edges(vec![1.0, 2.0]);
        for _ in 0..1000 {
            h.record(1e9);
        }
        h.record(5e12);
        assert_eq!(h.count(), 1001);
        assert_eq!(h.bucket_counts(), vec![0, 0, 1001]);
        assert!((h.max().unwrap() - 5e12).abs() < 1e-3);
        // The overflow bucket has no upper edge: its quantiles report
        // the observed max, not the top edge.
        assert!((h.p99().unwrap() - 5e12).abs() < 1e-3);
    }

    #[test]
    fn underflow_and_negative_samples_land_in_bucket_zero() {
        let h = Histogram::log_spaced(1, 3, 4); // edges 10 ..= 1000
        h.record(0.5);
        h.record(-3.0);
        h.record(0.0);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 3);
        assert_eq!(h.count(), 3);
        // Quantiles stay inside the observed range, not at the edge.
        assert!((h.p99().unwrap() - 0.5).abs() < 1e-15);
        // Non-finite samples are ignored entirely.
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantiles_bracket_a_known_distribution() {
        let h = Histogram::latency_ns();
        // 100 samples: 1..=100 µs in ns.
        for i in 1..=100u64 {
            h.record_ns(i * 1000);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        // One log-bucket of slack at 8 sub-buckets/decade is ~33%.
        assert!((3.0e4..=7.0e4).contains(&p50), "p50 = {p50}");
        assert!((7.0e4..=1.0e5).contains(&p99), "p99 = {p99}");
        assert!((h.max().unwrap() - 1.0e5).abs() < 1e-6);
        // Buckets are upper-inclusive: a sample on a decade reports
        // that decade.
        let h = Histogram::latency_ns();
        h.record_ns(1);
        h.record_ns(1000);
        assert!((h.quantile(0.5).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn quantile_estimates_are_monotone_in_q() {
        // Property test over a deterministic spread of sample sets.
        let h = Histogram::latency_ns();
        let mut x = 0x1234_5678_u64;
        for _ in 0..500 {
            // xorshift: deterministic pseudo-random spread over decades.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record_ns(x % 10_000_000);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in (0..=20).map(|i| i as f64 / 20.0) {
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
        assert!(h.p50().unwrap() <= h.p99().unwrap());
        assert!(h.p99().unwrap() <= h.max().unwrap());
    }

    #[test]
    fn histogram_json_is_well_formed() {
        let h = Histogram::with_edges(vec![1.0, 10.0]);
        assert!(validate(&h.to_json()).is_ok(), "{}", h.to_json());
        h.record(0.5);
        h.record(50.0);
        let j = h.to_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.starts_with("{\"count\":2,\"sum\":"), "{j}");
        assert!(
            j.contains("\"p50\":1e0,\"p90\":5e1,\"p99\":5e1,\"le\":[1e0,1e1]"),
            "{j}"
        );
        assert!(j.contains("\"buckets\":[1,0,1]"));
    }

    #[test]
    fn shared_histogram_aggregates_across_threads() {
        let h = std::sync::Arc::new(Histogram::linear(0.0, 8.0, 8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..250u64 {
                        h.record_ns(t * 2 + i % 2);
                    }
                });
            }
        });
        assert_eq!(h.count(), 1000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 1000);
    }
}
