//! Measures one solver backend on FEFET array row ops. Run one backend
//! per process, so the peak RSS it reports (`VmHWM`) belongs to that
//! backend alone:
//!
//! ```sh
//! for r in 32 48 64; do for b in sparse bbd; do cargo run --release -p fefet-bench --example bbd_profile -- $r $b; done; done
//! ```
//!
//! Usage: `bbd_profile <rows> <sparse|bbd> [warm_ops]`. On a fresh
//! `rows`×`rows` array it times one cold `write_row` + `read_row` pair
//! (pattern recording and symbolic analysis included), then `warm_ops`
//! (default 5) warm pairs against the array's analysis cache, and
//! prints the size of the row slice each op solves, the LU fill
//! (`sparse_fill_nnz` from telemetry) and `VmHWM`.

use fefet_ckt::engine::SolverBackend;
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;
use fefet_telemetry::Instrumentation;
use std::time::Instant;

/// Write pulse and read window of a served escalation (s).
const T_WRITE: f64 = 1.0e-9;
const T_READ: f64 = 3e-9;

/// Peak resident set size of this process (`VmHWM`), in kB.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: bbd_profile <rows> <sparse|bbd> [warm_ops]";
    let rows: usize = args.get(1).and_then(|s| s.parse().ok()).expect(usage);
    let backend = match args.get(2).map(String::as_str) {
        Some("sparse") => SolverBackend::Sparse,
        Some("bbd") => SolverBackend::Bbd,
        _ => panic!("{usage}"),
    };
    let warm_ops: usize = args.get(3).map_or(5, |s| s.parse().expect(usage));

    let mut a = FefetArray::new(rows, rows, FefetCell::default());
    a.solver_backend = backend;
    a.instr = Instrumentation::enabled();
    let n = a.row_op_dims().expect("row-op dims").n_unknowns;
    let mut op = |k: usize| {
        let row = k % rows;
        let data: Vec<bool> = (0..rows).map(|j| (j + k).is_multiple_of(3)).collect();
        let t0 = Instant::now();
        a.write_row(row, &data, T_WRITE).expect("write_row");
        let read = a.read_row(row, T_READ).expect("read_row");
        assert_eq!(read.bits, data, "read must return the written word");
        t0.elapsed().as_secs_f64()
    };
    let cold = op(0);
    let mut warm: Vec<f64> = (1..=warm_ops).map(&mut op).collect();
    warm.sort_by(f64::total_cmp);
    let fill = a.instr.get().map_or(0, |t| t.solver.sparse_fill_nnz.get());

    println!("{rows}x{rows} {backend:?}: row slice n = {n}");
    println!("  cold write+read  {cold:.4} s");
    if let (Some(min), Some(med)) = (warm.first(), warm.get(warm.len() / 2)) {
        println!("  warm write+read  median {med:.4} s  min {min:.4} s  ({warm_ops} ops)");
    }
    println!("  LU fill          {fill} nnz");
    match vm_hwm_kb() {
        Some(kb) => println!("  VmHWM            {:.1} MB", kb as f64 / 1024.0),
        None => println!("  VmHWM            unavailable"),
    }
}
