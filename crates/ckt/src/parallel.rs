//! Std-only fan-out for independent simulation sweeps.
//!
//! Array operations on distinct rows (reads, disturb probes, margin
//! sweeps), Monte Carlo sample evaluations, and yield-engine trials are
//! independent simulations. They all fan out through [`pool_map`] (or
//! its stateful sibling [`pool_map_mut`]), which lives in `fefet-ckt`
//! so the device and memory crates share one pool: a process-wide
//! persistent worker pool with chunked self-scheduling. Workers are
//! spawned once; each sweep enqueues light jobs that claim chunks from
//! a shared atomic cursor, and the **caller claims chunks too**, so a
//! sweep always makes progress even if every pool worker is busy (or
//! none could be spawned) — the design cannot deadlock. Results are
//! indexed and re-sorted, so the output ordering — and, because each
//! simulation is itself deterministic, every bit of the output — is
//! identical to a serial run regardless of thread count or claim
//! interleaving.

use fefet_telemetry::{Instrumentation, TraceEvent};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// This thread's pool participant slot: 0 for every caller thread,
    /// `i + 1` for persistent pool worker `i` (set once at spawn).
    /// Keys the per-worker `PoolStats` breakdown.
    static POOL_WORKER_ID: Cell<usize> = const { Cell::new(0) };
}

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
/// resolves to 1, which makes [`pool_map`] take its inline serial path
/// instead of paying hand-off overhead for no parallelism.
pub fn effective_threads(requested: usize, hardware: usize) -> usize {
    let hardware = hardware.max(1);
    let requested = if requested == 0 { hardware } else { requested };
    requested.min(hardware)
}

/// A unit of pool work: runs the chunk-claiming loop for one sweep.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the persistent workers: a FIFO of pending jobs
/// and the condvar workers park on when it is empty.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// The process-wide persistent pool: spawned once on first use, workers
/// never exit. Sweeps do not own workers — they enqueue jobs and help.
struct Pool {
    shared: Arc<PoolShared>,
    /// Workers actually spawned (spawn failures are tolerated: the
    /// caller-helping design guarantees progress with zero workers).
    workers: usize,
}

/// Recovers the guard from a poisoned lock: pool state is a plain FIFO
/// plus atomics, all valid at every instruction boundary, so a panic in
/// some other job's closure does not invalidate it.
fn lock_queue(shared: &PoolShared) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
    match shared.queue.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut q = lock_queue(shared);
    // fefet-lint: allow(unbounded-loop) -- persistent daemon worker: parks on the condvar when idle and lives for the process, by design
    loop {
        if let Some(job) = q.pop_front() {
            drop(q);
            job();
            q = lock_queue(shared);
        } else {
            q = match shared.available.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

impl Pool {
    fn submit(&self, job: Job) {
        let mut q = lock_queue(&self.shared);
        q.push_back(job);
        drop(q);
        self.shared.available.notify_one();
    }
}

/// The shared pool, built on first use: one worker per hardware thread
/// beyond the caller's own (the caller always helps, so a 1-core host
/// gets zero workers and [`pool_map`] runs inline anyway).
// fefet-lint: allow-item(hot-alloc) -- one-time pool construction behind OnceLock; never on a per-point path
fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        let target = default_threads().saturating_sub(1);
        let mut workers = 0;
        for i in 0..target {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("fefet-pool-{i}"))
                .spawn(move || {
                    POOL_WORKER_ID.with(|id| id.set(i + 1));
                    worker_loop(&shared)
                });
            if spawned.is_ok() {
                workers += 1;
            }
        }
        Pool { shared, workers }
    })
}

/// One sweep's shared state: the input items, the map function, and the
/// chunk-claim cursor every participating thread self-schedules from.
struct SweepCtx<T, F> {
    items: Vec<T>,
    f: F,
    /// Next unclaimed item index; `fetch_add(chunk)` claims a chunk.
    next: AtomicUsize,
    chunk: usize,
    /// Threads mapping items right now / the high-water mark of that.
    active: AtomicUsize,
    peak: AtomicUsize,
    /// Chunks claimed by pool workers beyond their first — work the pool
    /// genuinely took off the caller's plate.
    stolen: AtomicU64,
    /// Shared sink for per-worker accounting and (when a trace
    /// recorder is attached) claim/steal/task events.
    instr: Instrumentation,
}

/// Per-item result message; `Panicked` carries the payload so the sweep
/// accounts for every item even when `f` panics, then re-raises.
enum Msg<U> {
    Done(usize, U),
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The chunk-claiming loop run by the caller and every helper job. The
/// loop is bounded by construction: every `fetch_add` advances the
/// cursor, so at most `ceil(n / chunk)` claims succeed per sweep.
// fefet-lint: allow-item(atomic-ordering) -- claim cursor and telemetry counters only need atomicity: fetch_add hands out each index exactly once, and results synchronize through the mpsc channel, not the counters
fn run_chunks<T, U, F>(ctx: &SweepCtx<T, F>, tx: &mpsc::Sender<Msg<U>>, helper: bool)
where
    F: Fn(&T) -> U,
{
    let n = ctx.items.len();
    let wid = POOL_WORKER_ID.with(Cell::get);
    let tel = ctx.instr.get();
    let prof = ctx.instr.profile();
    // Per-participant tallies, flushed once at exit: the claim loop
    // itself stays counter-free.
    let mut tasks_run = 0u64;
    let mut steals = 0u64;
    let mut busy_ns = 0u64;
    let mut claims = 0usize;
    let mut start = ctx.next.fetch_add(ctx.chunk, Ordering::Relaxed);
    while start < n {
        if claims == 0 {
            let now_active = ctx.active.fetch_add(1, Ordering::Relaxed) + 1;
            ctx.peak.fetch_max(now_active, Ordering::Relaxed);
        }
        claims += 1;
        let stolen_chunk = helper && claims > 1;
        if stolen_chunk {
            ctx.stolen.fetch_add(1, Ordering::Relaxed);
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
        let end = (start + ctx.chunk).min(n);
        // Busy time per chunk: two clock reads amortized over the whole
        // chunk, taken only when instrumentation is on at all.
        let chunk_t0 = tel.map(|_| Instant::now());
        for i in start..end {
            let item_t0 = prof.map(|(_, t)| t.now_ns());
            let out =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (ctx.f)(&ctx.items[i])));
            if let (Some(t0), Some((t, tr))) = (item_t0, prof) {
                let end_ns = tr.now_ns();
                t.latency.pool_task_ns.record_ns(end_ns.saturating_sub(t0));
                tr.complete_at(TraceEvent::PoolTask, t0, end_ns, i as u64);
            }
            tasks_run += 1;
            let msg = match out {
                Ok(u) => Msg::Done(i, u),
                Err(payload) => Msg::Panicked(payload),
            };
            if tx.send(msg).is_err() {
                // Receiver gone: the caller is already unwinding from an
                // earlier panic. Stop claiming and let the job retire.
                if claims > 0 {
                    ctx.active.fetch_sub(1, Ordering::Relaxed);
                }
                if let Some(t0) = chunk_t0 {
                    busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                }
                flush_worker_stats(tel, wid, tasks_run, steals, busy_ns);
                return;
            }
        }
        if let Some(t0) = chunk_t0 {
            busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        start = ctx.next.fetch_add(ctx.chunk, Ordering::Relaxed);
    }
    if claims > 0 {
        ctx.active.fetch_sub(1, Ordering::Relaxed);
    }
    flush_worker_stats(tel, wid, tasks_run, steals, busy_ns);
}

/// Folds one participant's sweep tallies into its `PoolStats` slot.
fn flush_worker_stats(
    tel: Option<&fefet_telemetry::Telemetry>,
    wid: usize,
    tasks: u64,
    steals: u64,
    busy_ns: u64,
) {
    let Some(tel) = tel else {
        return;
    };
    if tasks == 0 && steals == 0 {
        return;
    }
    if let Some(w) = tel.pool.worker(wid) {
        w.tasks.add(tasks);
        w.steals.add(steals);
        w.busy_ns.add(busy_ns);
    }
}

/// Maps `f` over `items` on the persistent pool, returning results in
/// input order.
///
/// `threads == 0` selects [`default_threads`], and every request is
/// clamped by [`effective_threads`], so a `threads = 4` sweep on a
/// single-core host runs serially rather than queueing helpers that
/// time-slice one CPU. With one effective thread or fewer than two
/// items the map runs inline on the caller's thread with no pool
/// interaction at all, which doubles as the serial reference path for
/// determinism tests. Otherwise the caller enqueues up to
/// `threads - 1` helper jobs and joins the chunk-claiming itself, so the
/// sweep completes even on a saturated (or empty) pool. Chunks are
/// `max(1, n / (threads * 4))` items: small enough to self-balance
/// uneven per-item cost, large enough to amortize the claim.
///
/// Telemetry (when `instr` is enabled): `pool.sweeps`, `pool.items`,
/// `pool.workers_active` (high-water concurrent mappers, caller
/// included) and `pool.tasks_stolen` (chunks pool workers claimed beyond
/// their first).
///
/// # Panics
///
/// Re-raises the first panic from `f` on the caller's thread, after all
/// in-flight items finish.
// fefet-lint: allow-item(hot-alloc) -- per-sweep setup (context, channel, helper jobs, result buffer), amortized over the sweep; the warm per-point path is inside `f`
// fefet-lint: allow-item(atomic-ordering) -- final telemetry loads happen after every sender retired; the channel teardown is the synchronization point
pub fn pool_map<T, U, F>(items: Vec<T>, threads: usize, instr: &Instrumentation, f: F) -> Vec<U>
where
    T: Send + Sync + 'static,
    U: Send + 'static,
    F: Fn(&T) -> U + Send + Sync + 'static,
{
    let n = items.len();
    if let Some(tel) = instr.get() {
        tel.pool.sweeps.inc();
        tel.pool.items.add(n as u64);
    }
    let threads = effective_threads(threads, default_threads());
    if threads <= 1 || n <= 1 {
        if let Some(tel) = instr.get() {
            tel.pool.workers_active.record_max(1);
        }
        // Inline fallback. When profiling, items still get task events
        // and latency samples (attributed to participant slot 0, the
        // caller) so single-core runs trace the same way pooled ones do.
        return match instr.profile() {
            None => items.iter().map(f).collect(),
            Some((tel, tr)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let t0 = tr.now_ns();
                    let u = f(item);
                    let end = tr.now_ns();
                    let dur = end.saturating_sub(t0);
                    tel.latency.pool_task_ns.record_ns(dur);
                    tr.complete_at(TraceEvent::PoolTask, t0, end, i as u64);
                    if let Some(w) = tel.pool.worker(0) {
                        w.tasks.inc();
                        w.busy_ns.add(dur);
                    }
                    u
                })
                .collect(),
        };
    }
    let pool = global_pool();
    let ctx = Arc::new(SweepCtx {
        items,
        f,
        next: AtomicUsize::new(0),
        chunk: (n / (threads * 4)).max(1),
        active: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        stolen: AtomicU64::new(0),
        instr: instr.clone(),
    });
    let (tx, rx) = mpsc::channel::<Msg<U>>();
    let helpers = (threads - 1).min(pool.workers);
    for _ in 0..helpers {
        let ctx = Arc::clone(&ctx);
        let tx = tx.clone();
        pool.submit(Box::new(move || run_chunks(&ctx, &tx, true)));
    }
    run_chunks(&ctx, &tx, false);
    drop(tx);

    let mut done: Vec<(usize, U)> = Vec::with_capacity(n);
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for _ in 0..n {
        match rx.recv() {
            Ok(Msg::Done(i, u)) => done.push((i, u)),
            Ok(Msg::Panicked(payload)) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
            // All senders retired: only reachable once every claimed
            // item has reported, so the loop below has what it needs.
            Err(_) => break,
        }
    }
    if let Some(tel) = instr.get() {
        tel.pool
            .workers_active
            .record_max(ctx.peak.load(Ordering::Relaxed) as u64);
        tel.pool
            .tasks_stolen
            .add(ctx.stolen.load(Ordering::Relaxed));
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    assert!(
        done.len() == n,
        "pool sweep lost results: {} of {n}",
        done.len()
    );
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

/// Recovers a slot guard from a poisoned lock, like [`lock_queue`]: a
/// slot is a plain `Option<T>`, valid at every instruction boundary.
fn lock_slot<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`pool_map`] for stateful items: maps `f` over *mutable* items on
/// the persistent pool and returns each (mutated) item alongside its
/// result, in input order.
///
/// This is the fan-out shape for sweeps where the per-item work mutates
/// owned state that the caller needs back afterwards — e.g. the serving
/// layer's banks, whose arrays, calibration caches, and RNG streams all
/// advance while a window of ops executes. Each item is visited exactly
/// once (the pool hands out each index once), so per-item mutation
/// never contends and the output — item state and result alike — is
/// bit-identical to a serial `items.iter_mut().map(..)` pass regardless
/// of thread count.
///
/// `threads` follows the same rules as [`pool_map`].
///
/// # Panics
///
/// Re-raises the first panic from `f` on the caller's thread. An item
/// whose `f` panicked is dropped (its slot is consumed mid-flight), so
/// the unwinding caller never observes half-mutated state.
// fefet-lint: allow-item(hot-alloc) -- per-sweep setup (slot vector, index vector, result buffer), amortized over the sweep; the warm per-op path is inside `f`
pub fn pool_map_mut<T, U, F>(
    items: Vec<T>,
    threads: usize,
    instr: &Instrumentation,
    f: F,
) -> Vec<(T, U)>
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(&mut T) -> U + Send + Sync + 'static,
{
    let n = items.len();
    let slots: Arc<Vec<Mutex<Option<T>>>> =
        Arc::new(items.into_iter().map(|t| Mutex::new(Some(t))).collect());
    let worker_slots = Arc::clone(&slots);
    let idx: Vec<usize> = (0..n).collect();
    let results = pool_map(idx, threads, instr, move |&i| {
        // The slot is always full here: pool_map hands out each index
        // exactly once, and only the post-sweep collection below takes.
        worker_slots
            .get(i)
            .map(|slot| lock_slot(slot).as_mut().map(&f))
    });
    let mut out: Vec<(T, U)> = Vec::with_capacity(n);
    for (i, u) in results.into_iter().enumerate() {
        let item = slots.get(i).and_then(|slot| lock_slot(slot).take());
        if let (Some(t), Some(Some(u))) = (item, u) {
            out.push((t, u));
        }
    }
    assert!(
        out.len() == n,
        "pool_map_mut lost items: {} of {n}",
        out.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// inline on the caller's thread — no pool hand-off at all. Observed
    /// via thread IDs: every invocation of `f` must see the caller's.
    #[test]
    fn serial_fallback_runs_inline_on_caller_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        let ids = pool_map(items, 1, &Instrumentation::off(), |_| {
            std::thread::current().id()
        });
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
        let ids = pool_map(items, 4, &Instrumentation::off(), |_| {
            std::thread::current().id()
        });
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
    /// thread count, including re-running a warm pool (workers persist
    /// between sweeps).
    #[test]
    fn pool_map_matches_serial_at_every_thread_count() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
        assert!(default_threads() >= 1);
        for threads in [0, 1, 2, 3, 4, 8, 64] {
            for _round in 0..3 {
                let items: Vec<u64> = (0..97).collect();
                let out = pool_map(items, threads, &Instrumentation::off(), |&i| i * i + 1);
                assert_eq!(out, expect, "threads = {threads}");
            }
        }
    }

    #[test]
    fn pool_map_empty_and_single_inputs() {
        let out = pool_map(Vec::<u8>::new(), 4, &Instrumentation::off(), |&i| i);
        assert!(out.is_empty());
        let out = pool_map(vec![7], 4, &Instrumentation::off(), |&i| i * 2);
        assert_eq!(out, vec![14]);
    }

    /// A panic in `f` must re-raise on the caller's thread, not hang the
    /// sweep or poison the pool for later sweeps.
    #[test]
    fn pool_map_propagates_panics_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            pool_map(vec![0u32, 1, 2, 3], 4, &Instrumentation::off(), |&i| {
                assert!(i != 2, "boom on item 2");
                i
            })
        });
        assert!(result.is_err(), "panic was swallowed");
        // The pool (and the process) keep working afterwards.
        let out = pool_map(vec![1u32, 2, 3], 4, &Instrumentation::off(), |&i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    /// With a trace recorder attached, every pool item produces a task
    /// event, a latency sample, and a per-participant attribution —
    /// on the pooled path and on the single-core inline fallback alike.
    #[test]
    fn profiled_pool_map_records_task_events_and_worker_stats() {
        let instr = Instrumentation::enabled();
        let tr = instr.get().unwrap().attach_trace(256);
        let out = pool_map((0..20u64).collect(), 4, &instr, |&i| i + 1);
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

    /// `pool_map_mut` must return every item, mutated, with its result,
    /// in input order — identical to a serial `iter_mut` pass at every
    /// thread count.
    #[test]
    fn pool_map_mut_matches_serial_mutation_at_every_thread_count() {
        let expect: Vec<(u64, u64)> = (0..53u64).map(|i| (i * 3 + 1, i * 3)).collect();
        for threads in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..53).collect();
            let out = pool_map_mut(items, threads, &Instrumentation::off(), |t| {
                let before = *t * 3;
                *t = before + 1;
                before
            });
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn pool_map_mut_empty_and_single_inputs() {
        let out = pool_map_mut(Vec::<u8>::new(), 4, &Instrumentation::off(), |t| *t);
        assert!(out.is_empty());
        let out = pool_map_mut(vec![5u8], 4, &Instrumentation::off(), |t| {
            *t += 1;
            *t as u32
        });
        assert_eq!(out, vec![(6u8, 6u32)]);
    }

    /// A panic in `f` re-raises on the caller (the in-flight item is
    /// consumed, never observed half-mutated), and the pool survives.
    #[test]
    fn pool_map_mut_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            pool_map_mut(vec![0u32, 1, 2, 3], 4, &Instrumentation::off(), |t| {
                assert!(*t != 2, "boom on item 2");
                *t
            })
        });
        assert!(result.is_err(), "panic was swallowed");
        let out = pool_map_mut(vec![9u32], 4, &Instrumentation::off(), |t| *t);
        assert_eq!(out, vec![(9, 9)]);
    }

    /// Sweep telemetry: item/sweep totals are exact; the concurrency
    /// high-water is at least 1 (exactly 1 on a single-core host, where
    /// the inline path runs).
    #[test]
    fn pool_map_records_sweep_telemetry() {
        let instr = Instrumentation::enabled();
        let out = pool_map((0..40u64).collect(), 4, &instr, |&i| i);
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
