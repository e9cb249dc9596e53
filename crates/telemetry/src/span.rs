//! Lightweight span timing.
//!
//! A [`SpanRegistry`] maps `(thread slot, span name)` pairs to shared
//! [`SpanStats`]. Keying by the recording thread's process-wide slot
//! ([`crate::trace::thread_slot`]) keeps spans opened concurrently by
//! pooled workers from collapsing into one flat entry — each worker's
//! observations stay attributable, while [`SpanRegistry::snapshot`]
//! still aggregates by name for the common reporting case
//! ([`SpanRegistry::snapshot_by_worker`] exposes the breakdown).
//! Looking a handle up takes a short mutex hold (registration is rare
//! — once per span name per worker, typically outside any inner loop);
//! *recording* an observation is two relaxed atomic adds on an
//! `Arc<SpanStats>`, so pool workers never contend on a lock on the
//! hot path. Time is measured with `std::time::Instant` only while a
//! span is active; a no-op guard (instrumentation off) never reads the
//! clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::trace::thread_slot;

/// Aggregated timing for one span name: total nanoseconds and the
/// number of completed observations.
#[derive(Debug, Default)]
pub struct SpanStats {
    total_ns: AtomicU64,
    count: AtomicU64,
}

impl SpanStats {
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

/// A thread-safe `(thread slot, name)` → [`SpanStats`] registry. The
/// slot list is tiny (one entry per distinct span name per recording
/// thread), so linear search beats any map.
#[derive(Debug, Default)]
pub struct SpanRegistry {
    slots: Mutex<Vec<(usize, String, Arc<SpanStats>)>>,
}

impl SpanRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds or creates the stats slot for `name` on the calling
    /// thread. Two threads asking for the same name get *different*
    /// slots (that is the point: concurrent pooled spans no longer
    /// collapse), while repeated calls from one thread share one.
    /// Callers that time a span in a loop should hoist this lookup out
    /// of the loop and record through the returned `Arc` directly.
    pub fn handle(&self, name: &str) -> Arc<SpanStats> {
        let slot = thread_slot();
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, _, stats)) = slots.iter().find(|(s, n, _)| *s == slot && n == name) {
            return Arc::clone(stats);
        }
        let stats = Arc::new(SpanStats::default());
        slots.push((slot, name.to_string(), Arc::clone(&stats)));
        stats
    }

    /// Snapshot of `(name, count, total_ns)` aggregated across all
    /// recording threads, in first-registration order per name.
    pub fn snapshot(&self) -> Vec<(String, u64, u64)> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<(String, u64, u64)> = Vec::new();
        for (_, n, s) in slots.iter() {
            if let Some(entry) = out.iter_mut().find(|(name, _, _)| name == n) {
                entry.1 += s.count();
                entry.2 += s.total_ns();
            } else {
                out.push((n.clone(), s.count(), s.total_ns()));
            }
        }
        out
    }

    /// Snapshot of `(thread slot, name, count, total_ns)` per recording
    /// thread, in registration order — the worker-level breakdown the
    /// aggregated [`SpanRegistry::snapshot`] folds away.
    pub fn snapshot_by_worker(&self) -> Vec<(usize, String, u64, u64)> {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .map(|(slot, n, s)| (*slot, n.clone(), s.count(), s.total_ns()))
            .collect()
    }
}

/// An RAII span timer. Created through
/// [`crate::Instrumentation::span`]; records elapsed wall time into its
/// [`SpanStats`] on drop. The no-op variant carries no clock read and
/// records nothing.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<(Arc<SpanStats>, Instant)>,
}

impl SpanGuard {
    /// A guard that does nothing on drop (instrumentation off).
    pub fn noop() -> Self {
        Self { active: None }
    }

    /// A guard that starts timing now and records into `stats` on drop.
    pub fn active(stats: Arc<SpanStats>) -> Self {
        Self {
            active: Some((stats, Instant::now())),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stats, start)) = self.active.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stats.record_ns(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_deduplicates_by_name() {
        let reg = SpanRegistry::new();
        let a = reg.handle("solve");
        let b = reg.handle("solve");
        let c = reg.handle("stamp");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        a.record_ns(10);
        b.record_ns(20);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], ("solve".to_string(), 2, 30));
        assert_eq!(snap[1], ("stamp".to_string(), 0, 0));
    }

    #[test]
    fn guard_records_on_drop_noop_does_not() {
        let reg = SpanRegistry::new();
        {
            let _g = SpanGuard::active(reg.handle("timed"));
        }
        {
            let _g = SpanGuard::noop();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, 1, "exactly one observation recorded");
    }

    #[test]
    fn workers_record_through_shared_handles_without_locking() {
        let reg = Arc::new(SpanRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    // One lock per worker to fetch the handle…
                    let h = reg.handle("row");
                    // …then lock-free recording.
                    for _ in 0..50 {
                        h.record_ns(1);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap[0].1, 200);
        assert_eq!(snap[0].2, 200);
    }

    /// The PR 9 satellite fix: spans opened concurrently by pooled
    /// workers must not collapse into one flat slot. Each worker gets
    /// its own (thread, name) entry; only the reporting snapshot
    /// aggregates.
    #[test]
    fn concurrent_worker_spans_stay_attributable() {
        let reg = Arc::new(SpanRegistry::new());
        std::thread::scope(|s| {
            for w in 0..3u64 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let h = reg.handle("trial");
                    for _ in 0..=w {
                        h.record_ns(10);
                    }
                });
            }
        });
        let by_worker = reg.snapshot_by_worker();
        assert_eq!(by_worker.len(), 3, "one slot per worker: {by_worker:?}");
        let slots: Vec<usize> = by_worker.iter().map(|e| e.0).collect();
        let mut dedup = slots.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "distinct thread slots: {slots:?}");
        let mut counts: Vec<u64> = by_worker.iter().map(|e| e.2).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3]);
        // The aggregate view still folds them into one named row.
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0], ("trial".to_string(), 6, 60));
    }

    /// A thread re-entering the same span name nests onto its own slot
    /// rather than a fresh one, and distinct names on one thread stay
    /// distinct.
    #[test]
    fn per_thread_handles_are_stable_across_reentry() {
        let reg = SpanRegistry::new();
        let outer = reg.handle("outer");
        let inner = reg.handle("inner");
        let outer_again = reg.handle("outer");
        assert!(Arc::ptr_eq(&outer, &outer_again));
        assert!(!Arc::ptr_eq(&outer, &inner));
        assert_eq!(reg.snapshot_by_worker().len(), 2);
    }
}
