// Fixture: R7 (atomic-ordering) violations.

use std::sync::atomic::{AtomicUsize, Ordering};

pub static COUNTER: AtomicUsize = AtomicUsize::new(0);

pub fn bump() -> usize {
    // No explicit ordering named in the call.
    COUNTER.fetch_add(1)
}

pub fn snapshot() -> usize {
    // SeqCst is "justify or weaken".
    COUNTER.load(Ordering::SeqCst)
}

pub fn reset() {
    // Relaxed outside the telemetry counter crate.
    COUNTER.store(0, Ordering::Relaxed);
}
