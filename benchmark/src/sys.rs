//! Host measurements and CPU placement.

/// Peak resident set size of this process (MB), from `VmHWM` in
/// `/proc/self/status`.
///
/// # Errors
///
/// When the status file is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters, of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Peak resident set size (MB) of the largest child process this
/// process has waited for. The paper artifact bins run as children, so
/// their memory is not in this process's `VmHWM`.
///
/// # Errors
///
/// When `getrusage` fails.
pub fn children_peak_rss_mb() -> Result<f64, String> {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(usage.maxrss_kb as f64 / 1024.0)
}

/// Pins the calling thread to the CPU it is running on and returns that
/// CPU. Threads and child processes it starts afterwards inherit the
/// pin, so a single-threaded workload, its children and its host-speed
/// probes all run on one CPU: the vCPUs of a shared host can differ in
/// speed by half at the same moment.
///
/// # Errors
///
/// When either system call fails.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .map_err(|_| format!("sched_getcpu failed: {}", std::io::Error::last_os_error()))?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("cpu {cpu} is beyond a 1024-bit cpu set"))? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, readable 128-byte `cpu_set_t` whose size
    // is what we pass; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_readings_are_positive() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        let status = std::process::Command::new("true")
            .status()
            .expect("run true");
        assert!(status.success());
        assert!(children_peak_rss_mb().expect("getrusage") > 0.0);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // On a thread of its own, so the pin does not leak into other
        // tests.
        std::thread::spawn(|| {
            pin_to_current_cpu().expect("pin");
            let n = std::thread::available_parallelism().map_or(0, |n| n.get());
            assert_eq!(n, 1);
        })
        .join()
        .expect("pinned thread");
    }
}
