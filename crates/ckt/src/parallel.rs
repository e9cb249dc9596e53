//! Std-only fan-out for independent simulation sweeps.
//!
//! Array operations on distinct rows (reads, disturb probes), yield
//! trials and serving banks are independent simulations. They all fan
//! out through [`pool_map`], which lives in `fefet-ckt` so the device
//! and memory crates share one implementation. Each sweep runs on
//! scoped threads (`std::thread::scope`) that live for that sweep only,
//! so items and the map closure may borrow from the caller, and each
//! participant may build its own state once per sweep. The caller
//! takes part, and every participant claims chunks of items from one
//! shared cursor: uneven per-item cost self-balances, and a sweep
//! finishes even if no helper thread could be spawned. Results are
//! returned in input order, so — each simulation being deterministic —
//! every bit of the output is identical to a serial run, whatever the
//! thread count or claim interleaving.
//!
//! Helpers record telemetry as participants, not as OS threads: helper
//! `i` of every sweep shares one thread slot
//! ([`fefet_telemetry::trace::claim_participant_slot`]), so per-thread
//! span entries and trace lanes do not grow with the number of sweeps.

use fefet_telemetry::{trace, Instrumentation, Telemetry, TraceEvent};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The default worker count: one per available hardware thread, falling
/// back to 1 when parallelism cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count against the hardware's: `0` means
/// "use all hardware threads", and a request is never allowed to exceed
/// the hardware count — oversubscribing pure-compute workers only adds
/// scheduler churn. In particular, on a single-core host every request
/// resolves to 1, which makes [`pool_map`] run inline on the caller
/// instead of paying for a spawn that buys no parallelism.
pub fn effective_threads(requested: usize, hardware: usize) -> usize {
    let hardware = hardware.max(1);
    let requested = if requested == 0 { hardware } else { requested };
    requested.min(hardware)
}

/// One sweep's shared state: the claim cursor over the unclaimed items
/// and the concurrency telemetry.
struct Sweep<T> {
    /// The unclaimed items, with their input indices.
    cursor: Mutex<std::iter::Enumerate<std::vec::IntoIter<T>>>,
    chunk: usize,
    /// Participants mapping items right now / the high-water mark of that.
    active: AtomicUsize,
    peak: AtomicUsize,
    /// Chunks helpers claimed beyond their first — work the helpers
    /// took off the caller's plate.
    stolen: AtomicU64,
}

impl<T> Sweep<T> {
    /// Moves the next chunk of items into `buf` (empty on entry) and
    /// returns the index of its first item; `None` once all are claimed.
    fn claim(&self, buf: &mut Vec<(usize, T)>) -> Option<usize> {
        // No user code runs under the lock, so a poisoned guard still
        // holds a whole iterator.
        let mut items = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
        buf.extend(items.by_ref().take(self.chunk));
        buf.first().map(|(i, _)| *i)
    }
}

/// The chunk-claiming loop of participant `p` (0 = the caller): maps
/// every item it claims and returns them tagged with their input index.
/// Bounded by construction: each claim moves the cursor forward.
// fefet-lint: allow-item(atomic-ordering) -- telemetry counters only need atomicity; results reach the caller through the scoped join
// fefet-lint: allow-item(hot-alloc) -- per-participant sweep setup (chunk buffer, result list), amortized over the sweep; the warm per-point path is inside `f`
fn participate<T, U, S>(
    sweep: &Sweep<T>,
    p: usize,
    instr: &Instrumentation,
    init: &impl Fn() -> S,
    f: &impl Fn(&mut S, T) -> U,
) -> Vec<(usize, U)> {
    let tel = instr.get();
    let prof = instr.profile();
    let mut state = None;
    let mut buf = Vec::with_capacity(sweep.chunk);
    let mut out = Vec::new();
    // Per-participant tallies, flushed once at exit: the claim loop
    // itself stays counter-free.
    let (mut tasks, mut steals, mut busy_ns, mut claims) = (0u64, 0u64, 0u64, 0usize);
    while let Some(start) = sweep.claim(&mut buf) {
        if claims == 0 {
            let now_active = sweep.active.fetch_add(1, Ordering::Relaxed) + 1;
            sweep.peak.fetch_max(now_active, Ordering::Relaxed);
        }
        claims += 1;
        let stolen_chunk = p > 0 && claims > 1;
        if stolen_chunk {
            sweep.stolen.fetch_add(1, Ordering::Relaxed);
            steals += 1;
        }
        if let Some((_, tr)) = prof {
            let ev = if stolen_chunk {
                TraceEvent::PoolSteal
            } else {
                TraceEvent::PoolClaim
            };
            tr.instant(ev, start as u64);
        }
        // Busy time per chunk: two clock reads amortized over the whole
        // chunk, taken only when instrumentation is on at all.
        let chunk_t0 = tel.map(|_| Instant::now());
        let state = state.get_or_insert_with(init);
        for (i, item) in buf.drain(..) {
            let item_t0 = prof.map(|(_, tr)| tr.now_ns());
            out.push((i, f(state, item)));
            if let (Some(t0), Some((t, tr))) = (item_t0, prof) {
                let end_ns = tr.now_ns();
                t.latency.pool_task_ns.record_ns(end_ns.saturating_sub(t0));
                tr.complete_at(TraceEvent::PoolTask, t0, end_ns, i as u64);
            }
            tasks += 1;
        }
        if let Some(t0) = chunk_t0 {
            busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }
    if claims > 0 {
        sweep.active.fetch_sub(1, Ordering::Relaxed);
    }
    flush_worker_stats(tel, p, tasks, steals, busy_ns);
    out
}

/// Folds one participant's sweep tallies into its `PoolStats` slot.
fn flush_worker_stats(tel: Option<&Telemetry>, p: usize, tasks: u64, steals: u64, busy_ns: u64) {
    let Some(tel) = tel else {
        return;
    };
    if tasks == 0 && steals == 0 {
        return;
    }
    if let Some(w) = tel.pool.worker(p) {
        w.tasks.add(tasks);
        w.steals.add(steals);
        w.busy_ns.add(busy_ns);
    }
}

/// Maps `f` over `items` on scoped threads, returning results in input
/// order. Each participant calls `init` once, before its first item,
/// and hands the state to `f` with every item it maps: per-thread
/// workspaces live exactly as long as the sweep.
///
/// `threads == 0` selects [`default_threads`], and every request is
/// clamped by [`effective_threads`], so a `threads = 4` sweep on a
/// single-core host runs serially rather than spawning helpers that
/// time-slice one CPU. With one effective thread or fewer than two
/// items the map runs inline on the caller's thread with no spawn,
/// which doubles as the serial reference path for determinism tests.
/// Otherwise the caller spawns up to `threads - 1` helpers (a failed
/// spawn only leaves fewer) and claims chunks itself. Chunks are
/// `max(1, n / (threads * 4))` items: small enough to self-balance
/// uneven per-item cost, large enough to amortize the claim.
///
/// Telemetry (when `instr` is enabled): `pool.sweeps`, `pool.items`,
/// `pool.workers_active` (high-water concurrent mappers, caller
/// included), `pool.tasks_stolen` (chunks helpers claimed beyond their
/// first) and the per-participant slots (0 = caller, `i` = helper `i`).
///
/// # Panics
///
/// Re-raises the first panic from `init` or `f` on the caller's thread,
/// once every participant has finished.
// fefet-lint: allow-item(hot-alloc) -- per-sweep setup (helper handles, result merge), amortized over the sweep; the warm per-point path is inside `f`
// fefet-lint: allow-item(atomic-ordering) -- final telemetry loads happen after every helper joined; the join is the synchronization point
pub fn pool_map<T, U, S>(
    items: Vec<T>,
    threads: usize,
    instr: &Instrumentation,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> U + Sync,
) -> Vec<U>
where
    T: Send,
    U: Send,
{
    let n = items.len();
    if let Some(tel) = instr.get() {
        tel.pool.sweeps.inc();
        tel.pool.items.add(n as u64);
    }
    let threads = effective_threads(threads, default_threads());
    let chunk = (n / (threads * 4)).max(1);
    let sweep = Sweep {
        cursor: Mutex::new(items.into_iter().enumerate()),
        chunk,
        active: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        stolen: AtomicU64::new(0),
    };
    let helpers = threads.min(n.div_ceil(chunk)).saturating_sub(1);
    let run = |p| participate(&sweep, p, instr, &init, &f);
    let (mut done, joined) = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=helpers)
            .filter_map(|p| {
                std::thread::Builder::new()
                    .name(format!("fefet-pool-{p}"))
                    .spawn_scoped(scope, move || {
                        trace::claim_participant_slot(p);
                        run(p)
                    })
                    .ok()
            })
            .collect();
        // A panic here unwinds out of the scope once the helpers finish.
        let mine = run(0);
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (mine, joined)
    });
    if let Some(tel) = instr.get() {
        tel.pool
            .workers_active
            .record_max(sweep.peak.load(Ordering::Relaxed).max(1) as u64);
        tel.pool
            .tasks_stolen
            .add(sweep.stolen.load(Ordering::Relaxed));
    }
    for r in joined {
        match r {
            Ok(part) => done.extend(part),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn effective_threads_clamps_to_hardware() {
        // The 1-core pessimization this guards against: a threads = 4
        // sweep on a single-core host must resolve to 1 (serial path).
        assert_eq!(effective_threads(4, 1), 1);
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(1, 1), 1);
        // Zero requests all hardware threads.
        assert_eq!(effective_threads(0, 8), 8);
        // Plain requests pass through up to the hardware count.
        assert_eq!(effective_threads(3, 8), 3);
        assert_eq!(effective_threads(16, 8), 8);
        // Defensive: a zero hardware report behaves like one core.
        assert_eq!(effective_threads(4, 0), 1);
    }

    /// Regression: when the effective thread count is 1 the map must run
    /// inline on the caller's thread — no spawn at all. Observed via
    /// thread IDs: every invocation of `f` must see the caller's.
    #[test]
    fn serial_fallback_runs_inline_on_caller_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        let ids = pool_map(
            items,
            1,
            &Instrumentation::off(),
            || (),
            |_, _| std::thread::current().id(),
        );
        assert!(ids.iter().all(|&id| id == caller));
    }

    /// The number of distinct worker threads never exceeds the effective
    /// thread count (the caller plus at most `effective - 1` helpers).
    /// On a single-core host this degenerates to the serial-fallback
    /// assertion: one distinct ID, equal to the caller's.
    #[test]
    fn worker_count_is_bounded_by_effective_threads() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let ids = pool_map(
            items,
            4,
            &Instrumentation::off(),
            || (),
            |_, _| std::thread::current().id(),
        );
        let mut distinct: Vec<std::thread::ThreadId> = Vec::new();
        for id in &ids {
            if !distinct.contains(id) {
                distinct.push(*id);
            }
        }
        let effective = effective_threads(4, default_threads());
        assert!(
            distinct.len() <= effective,
            "{} distinct worker threads > effective {effective}",
            distinct.len()
        );
        if effective == 1 {
            assert!(
                ids.iter().all(|&id| id == caller),
                "serial fallback not taken"
            );
        }
    }

    /// `pool_map` must agree with the serial map exactly, at every
    /// thread count and over repeated sweeps. The items are `&mut`
    /// borrows of the caller's data, each mutated exactly once; each
    /// participant builds its state at most once per sweep; and every
    /// item is attributed to a `PoolStats` slot below the effective
    /// thread count.
    #[test]
    fn pool_map_matches_serial_at_every_thread_count() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
        assert!(default_threads() >= 1);
        for threads in [0, 1, 2, 3, 4, 8, 64] {
            let effective = effective_threads(threads, default_threads());
            for _round in 0..3 {
                let instr = Instrumentation::enabled();
                let mut cells: Vec<u64> = (0..97).collect();
                let inits = AtomicUsize::new(0);
                let out = pool_map(
                    cells.iter_mut().collect(),
                    threads,
                    &instr,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0u64
                    },
                    |mapped: &mut u64, c: &mut u64| {
                        *mapped += 1;
                        let i = *c;
                        *c = 3 * i + 1;
                        i * i + 1
                    },
                );
                assert_eq!(out, expect, "threads = {threads}");
                assert!(
                    cells
                        .iter()
                        .enumerate()
                        .all(|(i, &c)| c == 3 * i as u64 + 1),
                    "threads = {threads}: every borrowed item mutated once"
                );
                let built = inits.load(Ordering::Relaxed);
                assert!(
                    (1..=effective).contains(&built),
                    "threads = {threads}: {built} states built for {effective} participants"
                );
                let slots = &instr.get().unwrap().pool.workers;
                let below: u64 = slots[..effective].iter().map(|w| w.tasks.get()).sum();
                let beyond: u64 = slots[effective..].iter().map(|w| w.tasks.get()).sum();
                assert_eq!((below, beyond), (97, 0), "threads = {threads}");
            }
        }
    }

    #[test]
    fn pool_map_empty_and_single_inputs() {
        let out = pool_map(
            Vec::<u8>::new(),
            4,
            &Instrumentation::off(),
            || (),
            |_, i| i,
        );
        assert!(out.is_empty());
        let out = pool_map(vec![7], 4, &Instrumentation::off(), || (), |_, i| i * 2);
        assert_eq!(out, vec![14]);
    }

    /// A panic in `f` must re-raise on the caller's thread, not hang the
    /// sweep, and later sweeps keep working.
    #[test]
    fn pool_map_propagates_panics_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            pool_map(
                vec![0u32, 1, 2, 3],
                4,
                &Instrumentation::off(),
                || (),
                |_, i| {
                    assert!(i != 2, "boom on item 2");
                    i
                },
            )
        });
        assert!(result.is_err(), "panic was swallowed");
        // The process keeps working afterwards.
        let out = pool_map(
            vec![1u32, 2, 3],
            4,
            &Instrumentation::off(),
            || (),
            |_, i| i + 1,
        );
        assert_eq!(out, vec![2, 3, 4]);
    }

    /// With a trace recorder attached, every pool item produces a task
    /// event, a latency sample, and a per-participant attribution —
    /// on the pooled path and on the single-core inline fallback alike.
    #[test]
    fn profiled_pool_map_records_task_events_and_worker_stats() {
        let instr = Instrumentation::enabled();
        let tr = instr.get().unwrap().attach_trace(256);
        let out = pool_map((0..20u64).collect(), 4, &instr, || (), |_, i| i + 1);
        assert_eq!(out, (1..=20u64).collect::<Vec<_>>());
        let tel = instr.get().unwrap();
        assert_eq!(tel.latency.pool_task_ns.count(), 20);
        assert!(tel.latency.pool_task_ns.p50() <= tel.latency.pool_task_ns.p99());
        let attributed: u64 = tel.pool.workers.iter().map(|w| w.tasks.get()).sum();
        assert_eq!(attributed, 20, "every item lands in a participant slot");
        assert!(tr.events_recorded() >= 20, "one task event per item");
        let j = tr.to_chrome_json();
        assert!(fefet_telemetry::json::validate(&j).is_ok());
        assert!(j.contains("\"name\":\"pool.task\""), "{j}");
    }

    /// Helpers live for one sweep, but record as stable participants:
    /// repeated profiled sweeps that open a span per item leave as many
    /// per-thread span entries and trace lanes as one sweep does.
    #[test]
    fn repeated_sweeps_keep_per_thread_telemetry_bounded() {
        let instr = Instrumentation::enabled();
        let tel = instr.get().unwrap();
        let tr = tel.attach_trace(1 << 12);
        // Each participant's state waits for all of them, so every
        // participant maps items in every sweep.
        let all_in = Barrier::new(effective_threads(2, default_threads()));
        let sweep = || {
            pool_map(
                (0..16u64).collect(),
                2,
                &instr,
                || {
                    all_in.wait();
                },
                |_, i| {
                    let _span = instr.span("item");
                    i
                },
            )
        };
        sweep();
        let entries = tel.spans.snapshot_by_worker().len();
        let lanes = tr.lanes_claimed();
        for _ in 1..50 {
            sweep();
        }
        assert_eq!(tel.spans.snapshot_by_worker().len(), entries);
        assert_eq!(tr.lanes_claimed(), lanes);
        assert_eq!(tel.latency.pool_task_ns.count(), 50 * 16);
    }

    /// Sweep telemetry: item/sweep totals are exact; the concurrency
    /// high-water is at least 1 (exactly 1 on a single-core host, where
    /// the inline path runs).
    #[test]
    fn pool_map_records_sweep_telemetry() {
        let instr = Instrumentation::enabled();
        let out = pool_map((0..40u64).collect(), 4, &instr, || (), |_, i| i);
        assert_eq!(out.len(), 40);
        let tel = instr.get().unwrap();
        assert_eq!(tel.pool.sweeps.get(), 1);
        assert_eq!(tel.pool.items.get(), 40);
        assert!(tel.pool.workers_active.get() >= 1);
        let effective = effective_threads(4, default_threads());
        assert!(
            tel.pool.workers_active.get() <= effective as u64,
            "high-water {} > effective {effective}",
            tel.pool.workers_active.get()
        );
    }
}
