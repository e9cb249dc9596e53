//! Allocation pin for array row-op recording: a row read keeps only
//! what it reads (the sampled cell currents, the previous point's
//! solution, the final element states), so its heap traffic is fixed by
//! the array size and does not grow with the number of accepted time
//! steps. A warm 16×16 `read_row` with a 20× longer window (twice the
//! steps, since the long plateau runs at the grown step) must make
//! exactly as many allocations as the short one.
//!
//! The quasi-static read kernel (`sense_row`) takes a fixed number of
//! point solves whatever the window, so its allocations must not grow
//! with the window either.
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;

#[test]
fn row_read_allocations_do_not_scale_with_the_window() {
    let mut a = FefetArray::new(16, 16, FefetCell::default());
    let (p_lo, p_hi) = a.memory_states();
    for i in 0..16 {
        for j in 0..16 {
            a.set_polarization(i, j, if (i + j) % 3 == 0 { p_hi } else { p_lo });
        }
    }
    let (t_short, t_long) = (0.3e-9, 6e-9);
    // Warm the array's shared analysis cache: the first read of a
    // pattern runs its symbolic analysis.
    a.read_row(5, t_short).expect("warm-up read");

    let (short, r_short) = count_allocations(|| a.read_row(5, t_short));
    let (long, r_long) = count_allocations(|| a.read_row(5, t_long));
    let (r_short, r_long) = (r_short.expect("short read"), r_long.expect("long read"));
    assert!(
        r_long.op.steps >= 2 * r_short.op.steps,
        "the long window should take at least twice the steps: {} vs {}",
        r_long.op.steps,
        r_short.op.steps
    );
    assert_eq!(r_short.bits, r_long.bits, "same stored row either way");
    assert_eq!(
        short, long,
        "read_row allocations grew with the window: {short} for {} steps, \
         {long} for {} steps",
        r_short.op.steps, r_long.op.steps
    );

    let (short, s_short) = count_allocations(|| a.sense_row(5, t_short));
    let (long, s_long) = count_allocations(|| a.sense_row(5, t_long));
    let (s_short, s_long) = (s_short.expect("short sense"), s_long.expect("long sense"));
    assert_eq!(s_short.bits, r_short.bits, "the kernel senses the same row");
    assert_eq!(s_long.bits, r_long.bits, "the kernel senses the same row");
    assert_eq!(
        short, long,
        "sense_row allocations grew with the window: {short} at {t_short:e} s, \
         {long} at {t_long:e} s"
    );
}
