//! The `paper_repro` workload: sequential passes over every artifact bin
//! that regenerates one of the paper's figures or tables, each bin a
//! child process (a closed loop with one client).

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

use crate::host::{HostSpeed, Samples};
use crate::report::{paper_metric, Outcome};
use crate::stats::{median, percentile, MIN_SAMPLES};

/// The artifact bins of README's reproduction list (`bench-diff` is a
/// CI tool, not an artifact).
pub const BINS: [&str; 19] = [
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig8",
    "fig10",
    "fig11",
    "fig13",
    "table1",
    "table2",
    "table3",
    "retention",
    "ablations",
    "variability",
    "shmoo",
    "policies",
    "endurance",
    "nc_smallsignal",
    "array_scaling",
];

/// Bins whose stdout carries wall-clock times and so may differ between
/// passes.
const TIMED_OUTPUT: &[&str] = &["array_scaling"];

/// Passes in a traced run; each bin reports its median.
const TRACE_PASSES: usize = 3;

/// One bin execution: what it printed; its wall time goes to `walls`.
fn run_bin(dir: &Path, bin: &str, walls: &mut Samples, host: &HostSpeed) -> Result<Output, String> {
    let path = dir.join(bin);
    let t0 = Instant::now();
    let out = Command::new(&path)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running {}: {e}", path.display()))?;
    walls.push(host, t0.elapsed().as_secs_f64());
    Ok(out)
}

/// One pass over every bin, in [`BINS`] order, probing the host after
/// each bin: most bins take milliseconds, and each is normalized by the
/// probes on either side of it.
fn pass(dir: &Path, walls: &mut Samples, host: &mut HostSpeed) -> Result<Vec<Output>, String> {
    let mut outputs = Vec::with_capacity(BINS.len());
    for bin in BINS {
        outputs.push(run_bin(dir, bin, walls, host)?);
        host.probe();
    }
    Ok(outputs)
}

/// Checks a pass against the reference pass; returns the bins that
/// exited non-zero.
fn check_pass(reference: &[Output], runs: &[Output], identical: &mut bool) -> u64 {
    let mut failed = 0;
    for ((bin, want), got) in BINS.iter().zip(reference).zip(runs) {
        if !got.status.success() {
            eprintln!(
                "{bin} exited with {}: {}",
                got.status,
                String::from_utf8_lossy(&got.stderr)
            );
            failed += 1;
        }
        if !TIMED_OUTPUT.contains(bin) && got.stdout != want.stdout {
            eprintln!("{bin} printed different output than in the reference pass");
            *identical = false;
        }
    }
    failed
}

/// The reference pass: also the set-up that fills the page cache with
/// every binary. Folds the deterministic stdout into the digest.
fn reference_pass(
    dir: &Path,
    out: &mut Outcome,
    walls: &mut Samples,
    host: &mut HostSpeed,
) -> Result<Vec<Output>, String> {
    let reference = pass(dir, walls, host)?;
    let mut ok = true;
    for (bin, o) in BINS.iter().zip(&reference) {
        ok &= o.status.success();
        if !TIMED_OUTPUT.contains(bin) {
            out.digest.bytes(bin.as_bytes());
            out.digest.bytes(&o.stdout);
        }
    }
    out.check("every bin exits 0 in the reference pass", ok);
    Ok(reference)
}

/// The untraced run: whole passes until `seconds` have elapsed.
pub fn run(dir: &Path, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut host = HostSpeed::start(1);
    let mut setup = Samples::default();
    let reference = reference_pass(dir, &mut out, &mut setup, &mut host)?;
    let mut walls = Samples::default();
    let mut identical = true;
    let t_run = Instant::now();
    while walls.len() < MIN_SAMPLES || t_run.elapsed().as_secs_f64() < seconds {
        let runs = pass(dir, &mut walls, &mut host)?;
        out.attempted += runs.len() as u64;
        out.failed += check_pass(&reference, &runs, &mut identical);
    }
    out.check(
        "every bin prints byte-identical output in every pass",
        identical,
    );
    out.host_factor = Some(host.factor());
    let bins = walls.normalized(&host);
    let raw = walls.raw();
    let pass_walls: Vec<f64> = bins.chunks(BINS.len()).map(|p| p.iter().sum()).collect();
    out.metric("setup_s", setup.normalized(&host).iter().sum());
    out.metric("ops_per_s", bins.len() as f64 / bins.iter().sum::<f64>());
    out.metric("latency_p50_s", percentile(&bins, 50.0)?);
    out.metric("peak_rss_mb", crate::sys::children_peak_rss_mb()?);
    out.detail("raw_setup_s", "s", setup.raw().iter().sum());
    out.detail(
        "raw_ops_per_s",
        "ops/s",
        raw.len() as f64 / raw.iter().sum::<f64>(),
    );
    out.detail("raw_latency_p50_s", "s", percentile(&raw, 50.0)?);
    out.detail("passes", "count", pass_walls.len() as f64);
    out.detail("wall_s", "s", median(&pass_walls));
    out.detail("failed_frac", "1", out.failed as f64 / out.attempted as f64);
    Ok(out)
}

/// The traced run: each bin's median wall over a few passes.
pub fn trace(dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut host = HostSpeed::start(1);
    let reference = reference_pass(dir, &mut out, &mut Samples::default(), &mut host)?;
    let mut walls = Samples::default();
    let mut identical = true;
    for _ in 0..TRACE_PASSES {
        let runs = pass(dir, &mut walls, &mut host)?;
        out.attempted += runs.len() as u64;
        out.failed += check_pass(&reference, &runs, &mut identical);
    }
    out.check(
        "every bin prints byte-identical output in every pass",
        identical,
    );
    out.host_factor = Some(host.factor());
    let walls = walls.normalized(&host);
    for (i, bin) in BINS.iter().enumerate() {
        let per_pass: Vec<f64> = walls.iter().skip(i).step_by(BINS.len()).copied().collect();
        out.metric(&paper_metric(bin), median(&per_pass));
    }
    Ok(out)
}
