//! Lock-free trace-event recording and Chrome-trace export.
//!
//! A [`TraceRecorder`] owns a fixed set of per-thread lanes. Each lane
//! is a fixed-capacity ring of event slots made of plain `AtomicU64`
//! fields (the workspace forbids `unsafe`, so the classic
//! `UnsafeCell` ring is off the table; single-writer relaxed stores
//! give the same cost without it). A thread claims a lane on its first
//! event and keeps it for the recorder's lifetime, so the warm record
//! path is: one thread-local lookup, one `fetch_add` on the lane
//! cursor, and four relaxed stores — no locks, no allocation (pinned
//! by the alloctrack suite), no ordering stronger than `Relaxed`.
//!
//! **Drop policy:** the ring wraps. When a lane's cursor passes its
//! capacity, each new event overwrites the oldest one and the
//! recorder-wide [`TraceRecorder::dropped`] counter increments — recent
//! history is always intact, total loss is always visible. Threads
//! beyond [`MAX_LANES`] record nothing (counted as dropped too).
//!
//! **Export:** [`TraceRecorder::to_chrome_json`] emits the Chrome
//! trace-event JSON format (`chrome://tracing`, Perfetto, Speedscope):
//! one `tid` per lane with a `thread_name` metadata record, complete
//! (`"ph":"X"`) events with microsecond timestamps relative to the
//! recorder's epoch, and instant (`"ph":"i"`) events for point
//! occurrences like chunk claims and steals.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::escape;

/// Maximum lanes (concurrent recording threads) per recorder. The pool
/// sizes itself to the hardware thread count, so 32 covers every
/// machine this workspace targets with room for auxiliary threads.
pub const MAX_LANES: usize = 32;

/// Default ring capacity per lane, in events. At ~40 bytes per slot
/// this is ~650 KiB per *claimed* lane (lanes allocate lazily), enough
/// for several seconds of solver-level events before wrapping.
pub const DEFAULT_EVENTS_PER_LANE: usize = 16 * 1024;

/// The static event-name catalog. Recording stores the discriminant —
/// never a string — so the warm path stays allocation-free; the
/// exporter maps it back to the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEvent {
    /// One converged (or failed) Newton point solve. `arg` = iterations.
    NewtonSolve = 0,
    /// A Jacobian (re)factorization. `arg` = 1 (the sparse LU, the
    /// only Newton backend).
    Factor = 1,
    /// One accepted transient step. `arg` = step size in femtoseconds.
    TransientStep = 2,
    /// A pool participant claimed a chunk. `arg` = first item index.
    PoolClaim = 3,
    /// A pool worker claimed a chunk beyond its first — stolen work.
    /// `arg` = first item index.
    PoolSteal = 4,
    /// One pool work item ran. `arg` = item index.
    PoolTask = 5,
    /// One Monte Carlo yield trial. `arg` = trial index.
    YieldTrial = 6,
}

impl TraceEvent {
    /// The viewer-facing event name.
    pub fn label(self) -> &'static str {
        match self {
            TraceEvent::NewtonSolve => "newton.solve",
            TraceEvent::Factor => "solver.factor",
            TraceEvent::TransientStep => "transient.step",
            TraceEvent::PoolClaim => "pool.claim",
            TraceEvent::PoolSteal => "pool.steal",
            TraceEvent::PoolTask => "pool.task",
            TraceEvent::YieldTrial => "yield.trial",
        }
    }

    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(TraceEvent::NewtonSolve),
            1 => Some(TraceEvent::Factor),
            2 => Some(TraceEvent::TransientStep),
            3 => Some(TraceEvent::PoolClaim),
            4 => Some(TraceEvent::PoolSteal),
            5 => Some(TraceEvent::PoolTask),
            6 => Some(TraceEvent::YieldTrial),
            _ => None,
        }
    }
}

/// Event phase, packed into the slot metadata next to the name.
const KIND_COMPLETE: u64 = 0;
const KIND_INSTANT: u64 = 1;

/// One ring slot. Written by exactly one thread (the lane owner) with
/// relaxed stores; the exporter reads concurrently and tolerates a
/// torn in-flight slot (at worst one garbled event in the dump — never
/// UB, never a malformed file, because every field round-trips through
/// a total decoder).
#[derive(Debug, Default)]
struct EventSlot {
    /// `kind << 32 | name discriminant`.
    meta: AtomicU64,
    /// Epoch-relative start time.
    t_ns: AtomicU64,
    /// Duration (0 for instants).
    dur_ns: AtomicU64,
    /// Event-specific payload (see [`TraceEvent`]).
    arg: AtomicU64,
}

/// One thread's ring. The slot vector and label are set exactly once,
/// on the claiming thread's first event (the only allocating moment in
/// a lane's life).
#[derive(Debug, Default)]
struct Lane {
    /// Total events ever written; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
    events: OnceLock<Vec<EventSlot>>,
    /// Claiming thread's name, for the `thread_name` metadata record.
    label: OnceLock<String>,
}

/// Process-wide monotone thread-slot ids: the first time a thread asks,
/// it gets the next id, cached thread-locally forever. Shared by the
/// span registry (per-worker span keys) and anything else that needs a
/// stable small integer per thread without hashing `ThreadId`s.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Per-thread `(recorder id, claimed lane)` pairs. Linear scan —
    /// a thread touches at most a handful of recorders per process.
    static LANE_CACHE: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// This thread's process-wide slot id (assigned on first call).
pub fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
        s.set(v);
        v
    })
}

/// Recorder identity for the thread-local lane cache.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// A lock-free, fixed-capacity, per-thread-lane trace recorder. See
/// the module docs for the ring layout and drop policy.
#[derive(Debug)]
pub struct TraceRecorder {
    id: u64,
    epoch: Instant,
    capacity: usize,
    lanes: Vec<Lane>,
    next_lane: AtomicUsize,
    dropped: AtomicU64,
}

impl TraceRecorder {
    /// A recorder with [`DEFAULT_EVENTS_PER_LANE`] slots per lane.
    // fefet-lint: allow-item(hot-alloc) -- one-time recorder construction
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENTS_PER_LANE)
    }

    /// A recorder with `events_per_lane` ring slots per lane (clamped
    /// to at least 1). Lane rings allocate lazily, on the claiming
    /// thread's first event.
    // fefet-lint: allow-item(hot-alloc) -- one-time recorder construction; lane rings allocate at claim time, never per event
    pub fn with_capacity(events_per_lane: usize) -> Self {
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            capacity: events_per_lane.max(1),
            lanes: (0..MAX_LANES).map(|_| Lane::default()).collect(),
            next_lane: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this recorder was created. The timestamp base
    /// for every event.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The lane this thread already claimed on this recorder, if any.
    #[inline]
    fn cached_lane(&self) -> Option<usize> {
        LANE_CACHE.with(|c| {
            c.borrow()
                .iter()
                .find(|(id, _)| *id == self.id)
                .map(|&(_, lane)| lane)
        })
    }

    /// Claims (and initializes) a lane for this thread. Cold path: runs
    /// once per (thread, recorder) pair; this is the "setup" the
    /// zero-allocation-after-setup contract refers to.
    // fefet-lint: allow-item(hot-alloc) -- lane registration: one-time ring + label allocation per (thread, recorder); the per-event path is `push`
    fn claim_lane(&self) -> usize {
        let idx = self.next_lane.fetch_add(1, Ordering::Relaxed);
        let lane = if idx < MAX_LANES { idx } else { usize::MAX };
        if let Some(l) = self.lanes.get(lane) {
            let cap = self.capacity;
            let _ = l
                .events
                .get_or_init(|| (0..cap).map(|_| EventSlot::default()).collect());
            let _ = l.label.get_or_init(|| {
                std::thread::current()
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("thread-{}", thread_slot()))
            });
        }
        LANE_CACHE.with(|c| c.borrow_mut().push((self.id, lane)));
        lane
    }

    /// The warm record path: thread-local lane lookup, cursor
    /// `fetch_add`, four relaxed stores. Allocation-free after the
    /// lane's first event.
    #[inline]
    fn push(&self, kind: u64, ev: TraceEvent, t_ns: u64, dur_ns: u64, arg: u64) {
        let lane_idx = match self.cached_lane() {
            Some(l) => l,
            None => self.claim_lane(),
        };
        let Some(lane) = self.lanes.get(lane_idx) else {
            // No lane left (more than MAX_LANES threads): drop, visibly.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(events) = lane.events.get() else {
            return;
        };
        let seq = lane.cursor.fetch_add(1, Ordering::Relaxed);
        let cap = events.len() as u64;
        if seq >= cap {
            // Ring wrap: this store overwrites the oldest event.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let Some(slot) = events.get((seq % cap) as usize) else {
            return;
        };
        slot.meta.store((kind << 32) | ev as u64, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
    }

    /// Records a complete (`"X"`) event spanning `start_ns..now`.
    /// `start_ns` comes from an earlier [`TraceRecorder::now_ns`] call.
    #[inline]
    pub fn complete(&self, ev: TraceEvent, start_ns: u64, arg: u64) {
        let end = self.now_ns();
        self.push(
            KIND_COMPLETE,
            ev,
            start_ns,
            end.saturating_sub(start_ns),
            arg,
        );
    }

    /// Records a complete event with an explicit end timestamp.
    #[inline]
    pub fn complete_at(&self, ev: TraceEvent, start_ns: u64, end_ns: u64, arg: u64) {
        self.push(
            KIND_COMPLETE,
            ev,
            start_ns,
            end_ns.saturating_sub(start_ns),
            arg,
        );
    }

    /// Records an instant (`"i"`) event at the current time.
    #[inline]
    pub fn instant(&self, ev: TraceEvent, arg: u64) {
        let now = self.now_ns();
        self.push(KIND_INSTANT, ev, now, 0, arg);
    }

    /// Lanes claimed so far (one per recording thread, up to
    /// [`MAX_LANES`]).
    pub fn lanes_claimed(&self) -> usize {
        self.next_lane.load(Ordering::Relaxed).min(MAX_LANES)
    }

    /// Ring slots per lane.
    pub fn capacity_per_lane(&self) -> usize {
        self.capacity
    }

    /// Total events accepted across all lanes (including ones later
    /// overwritten by ring wrap).
    pub fn events_recorded(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.cursor.load(Ordering::Relaxed))
            .sum()
    }

    /// Events lost: ring-wrap overwrites plus events from threads that
    /// arrived after every lane was claimed.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Serializes every surviving event as Chrome trace-event JSON
    /// (`{"traceEvents":[…]}`), one `tid` per lane, timestamps in
    /// microseconds relative to the recorder epoch. The output loads
    /// directly in `chrome://tracing` / Perfetto and passes
    /// [`crate::json::validate`].
    // fefet-lint: allow-item(hot-alloc) -- export path: serializing the whole ring after a run, never on the recording path
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |frag: String, s: &mut String| {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&frag);
        };
        emit(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"fefet\"}}"
                .to_string(),
            &mut s,
        );
        for (tid, lane) in self.lanes.iter().enumerate() {
            let Some(events) = lane.events.get() else {
                continue;
            };
            let label = lane.label.get().map_or("lane", String::as_str);
            emit(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\
                     \"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                    escape(label)
                ),
                &mut s,
            );
            let cursor = lane.cursor.load(Ordering::Relaxed);
            let cap = events.len() as u64;
            let n = cursor.min(cap);
            // Oldest surviving event first: the ring holds the last
            // `n` events ending at slot `cursor % cap`.
            let oldest = if cursor > cap { cursor % cap } else { 0 };
            for k in 0..n {
                let i = ((oldest + k) % cap) as usize;
                let Some(slot) = events.get(i) else {
                    continue;
                };
                let meta = slot.meta.load(Ordering::Relaxed);
                let Some(ev) = TraceEvent::from_u64(meta & 0xffff_ffff) else {
                    continue;
                };
                let t_us = slot.t_ns.load(Ordering::Relaxed) as f64 / 1000.0;
                let arg = slot.arg.load(Ordering::Relaxed);
                let frag = if meta >> 32 == KIND_INSTANT {
                    format!(
                        "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"fefet\",\
                         \"ts\":{t_us:.3},\"pid\":1,\"tid\":{tid},\"s\":\"t\",\
                         \"args\":{{\"arg\":{arg}}}}}",
                        ev.label()
                    )
                } else {
                    let dur_us = slot.dur_ns.load(Ordering::Relaxed) as f64 / 1000.0;
                    format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"fefet\",\
                         \"ts\":{t_us:.3},\"dur\":{dur_us:.3},\"pid\":1,\
                         \"tid\":{tid},\"args\":{{\"arg\":{arg}}}}}",
                        ev.label()
                    )
                };
                emit(frag, &mut s);
            }
        }
        s.push_str(&format!(
            "],\"otherData\":{{\"dropped\":{},\"recorded\":{}}}}}",
            self.dropped(),
            self.events_recorded()
        ));
        s
    }

    /// Writes [`TraceRecorder::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_chrome_json().as_bytes())
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn thread_slots_are_stable_and_distinct() {
        let here = thread_slot();
        assert_eq!(here, thread_slot(), "slot is cached");
        let other = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn records_and_exports_complete_and_instant_events() {
        let tr = TraceRecorder::with_capacity(64);
        let t0 = tr.now_ns();
        tr.complete(TraceEvent::NewtonSolve, t0, 4);
        tr.instant(TraceEvent::Factor, 1);
        tr.complete_at(TraceEvent::TransientStep, 100, 300, 40_000);
        assert_eq!(tr.events_recorded(), 3);
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.lanes_claimed(), 1);
        let j = tr.to_chrome_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"name\":\"newton.solve\""), "{j}");
        assert!(j.contains("\"name\":\"solver.factor\""), "{j}");
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"dur\":0.200"), "explicit 200 ns span: {j}");
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let tr = TraceRecorder::with_capacity(4);
        for i in 0..10 {
            tr.complete_at(TraceEvent::PoolTask, i * 10, i * 10 + 5, i);
        }
        assert_eq!(tr.events_recorded(), 10);
        assert_eq!(tr.dropped(), 6, "10 events into 4 slots drops 6");
        let j = tr.to_chrome_json();
        assert!(validate(&j).is_ok(), "{j}");
        // Only the newest 4 survive, oldest-first: args 6, 7, 8, 9.
        for kept in ["\"arg\":6", "\"arg\":7", "\"arg\":8", "\"arg\":9"] {
            assert!(j.contains(kept), "missing {kept}: {j}");
        }
        assert!(!j.contains("\"arg\":5"), "overwritten event leaked: {j}");
        assert!(j.contains("\"dropped\":6"), "{j}");
    }

    #[test]
    fn one_lane_per_thread_with_thread_names() {
        let tr = std::sync::Arc::new(TraceRecorder::with_capacity(64));
        tr.instant(TraceEvent::PoolClaim, 0);
        std::thread::scope(|s| {
            for w in 0..3u64 {
                let tr = std::sync::Arc::clone(&tr);
                let b = std::thread::Builder::new().name(format!("lane-test-{w}"));
                b.spawn_scoped(s, move || {
                    let t0 = tr.now_ns();
                    tr.complete(TraceEvent::YieldTrial, t0, w);
                })
                .unwrap();
            }
        });
        assert_eq!(tr.lanes_claimed(), 4, "main + 3 workers");
        assert_eq!(tr.events_recorded(), 4);
        let j = tr.to_chrome_json();
        assert!(validate(&j).is_ok(), "{j}");
        for name in ["lane-test-0", "lane-test-1", "lane-test-2"] {
            assert!(j.contains(name), "missing thread name {name}: {j}");
        }
    }

    #[test]
    fn threads_beyond_the_lane_budget_drop_visibly() {
        let tr = std::sync::Arc::new(TraceRecorder::with_capacity(8));
        std::thread::scope(|s| {
            for _ in 0..(MAX_LANES + 4) {
                let tr = std::sync::Arc::clone(&tr);
                s.spawn(move || tr.instant(TraceEvent::PoolSteal, 0));
            }
        });
        assert_eq!(tr.lanes_claimed(), MAX_LANES);
        assert_eq!(tr.events_recorded() + tr.dropped(), (MAX_LANES + 4) as u64);
        assert!(tr.dropped() >= 4);
        assert!(validate(&tr.to_chrome_json()).is_ok());
    }

    #[test]
    fn two_recorders_keep_separate_lanes_on_one_thread() {
        let a = TraceRecorder::with_capacity(8);
        let b = TraceRecorder::with_capacity(8);
        a.instant(TraceEvent::Factor, 1);
        b.instant(TraceEvent::Factor, 2);
        a.instant(TraceEvent::Factor, 3);
        assert_eq!(a.events_recorded(), 2);
        assert_eq!(b.events_recorded(), 1);
        assert_eq!(a.lanes_claimed(), 1);
        assert_eq!(b.lanes_claimed(), 1);
    }

    #[test]
    fn empty_recorder_exports_valid_json() {
        let tr = TraceRecorder::new();
        let j = tr.to_chrome_json();
        assert!(validate(&j).is_ok(), "{j}");
        assert!(j.contains("\"traceEvents\""));
    }
}
