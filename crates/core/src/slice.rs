//! The row slice both arrays' row ops solve: what
//! [`crate::array::FefetArray`] and [`crate::feram_array::FeramArray`]
//! share when they build an op's netlist and commit its outcome.
//!
//! A row op touches one row. Every other row sits on the same unaccessed
//! bias, so the op's netlist keeps the accessed row's own lines and
//! cells, one lumped row-line pair for the `rows − 1` others (driver
//! `R/(rows−1)`, line capacitance `C·(rows−1)`), and per column one
//! `m`-scaled cell per class of unaccessed cells. Every device current
//! and charge is linear in width or area, so `m` identical cells in
//! parallel at the same node voltages are one `m`-scaled cell. The
//! array supplies the cell circuit and the waveforms; this module
//! supplies the partition ([`cell_groups`]), the row lines
//! ([`row_lines`]), the multiplicity rule ([`CellGroup::lumped`]), the
//! member commit ([`Groups::for_each_update`]) and the transient both
//! arrays run ([`run`]).

use crate::array::FastPathToggles;
use fefet_ckt::circuit::Circuit;
use fefet_ckt::elements::{Integration, Node};
use fefet_ckt::engine::SolverOptions;
use fefet_ckt::plan::AnalysisCache;
use fefet_ckt::transient::{transient_with, Step, TransientOptions, TransientRun};
use fefet_ckt::Result;
use fefet_telemetry::Instrumentation;
use std::ops::Range;

/// How a row-op netlist represents the cells the op does not access —
/// the one thing that differs between the full array and the row slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unaccessed {
    /// Every cell on its own row lines, row-major: the full array.
    Cells,
    /// One lumped row-line pair for every unaccessed row, and per
    /// column one `m`-scaled cell per class of unaccessed cells.
    Classes,
}

/// Scale of a probe cell (see [`cell_groups`]): small enough that its
/// load on the lines it shares is negligible, while its own node
/// voltages and polarization follow a full cell's exactly.
const PROBE_SCALE: f64 = 1e-6;

/// Probe cells per stored bit, spanning that class's stored
/// polarizations.
const PROBES_PER_BIT: usize = 5;

/// One cell of a netlist: a real cell, the `m`-scaled equivalent of `m`
/// unaccessed cells of one column, or a probe that samples how an
/// unaccessed cell's polarization change depends on where it starts.
#[derive(Debug)]
pub(crate) struct CellGroup {
    /// Suffix of its node and element names.
    pub(crate) label: String,
    /// The row-line pair it hangs on, as an index into [`row_lines`].
    pub(crate) line: usize,
    /// Its column.
    pub(crate) col: usize,
    /// Stored-state indices it stands for, as a range of
    /// [`Groups::members`]; empty for a probe.
    pub(crate) members: Range<usize>,
    /// How many cells it stands for: its member count, or
    /// [`PROBE_SCALE`] for a probe. Every element is scaled by it.
    pub(crate) scale: f64,
    /// The stored bit of its class (unaccessed cells and probes).
    pub(crate) bit: bool,
    /// Starting polarization (C/m²); see [`cell_groups`].
    pub(crate) p0: f64,
}

impl CellGroup {
    pub(crate) fn is_probe(&self) -> bool {
        self.members.is_empty()
    }

    /// True unless it stands for exactly one cell: its internal nodes
    /// then carry [`Circuit::set_node_multiplicity`] `scale`, so the
    /// engine judges their KCL residual per represented cell.
    pub(crate) fn lumped(&self) -> bool {
        self.members.len() != 1
    }
}

/// The cells of a row-op netlist, the stored cells each stands for, and
/// the positions of their FE capacitors: everything the member commit
/// reads.
#[derive(Debug)]
pub(crate) struct Groups {
    /// Every cell of the netlist, in build order.
    pub(crate) cells: Vec<CellGroup>,
    /// Concatenated stored-state indices of the cells.
    pub(crate) members: Vec<usize>,
    /// The row line of the accessed row.
    pub(crate) accessed_line: usize,
    /// Element position of each cell's FE capacitor, in `cells` order.
    pub(crate) fe: Vec<usize>,
}

impl Groups {
    /// Calls `f(k, p, dp, accessed)` with the polarization `p` (C/m²)
    /// every stored cell `k` ends `run` at and its change `dp`, given
    /// the stored polarizations `state` the netlist was built from.
    ///
    /// A real cell takes its own final polarization. A member of a
    /// lumped cell moves by the lumped cell's change plus the
    /// difference the probes of its bit class show between starting at
    /// the member's own polarization and at the lumped cell's: members
    /// sitting off their stable state move differently from settled
    /// ones. Where there are no probes (arrays under four rows, whose
    /// lumped cells have one member each) the correction is zero.
    pub(crate) fn for_each_update(
        &self,
        run: &TransientRun,
        state: &[f64],
        mut f: impl FnMut(usize, f64, f64, bool),
    ) {
        // Change vs starting polarization per stored bit, in probe
        // order (increasing starting polarization).
        let mut curves: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
        for (g, &e) in self.cells.iter().zip(&self.fe) {
            if g.is_probe() {
                curves[usize::from(g.bit)].push((g.p0, run.polarization(e) - g.p0));
            }
        }
        for (g, &e) in self.cells.iter().zip(&self.fe) {
            let p = run.polarization(e);
            match &self.members[g.members.clone()] {
                [] => {}
                [k] => f(*k, p, p - g.p0, g.line == self.accessed_line),
                members => {
                    let curve = &curves[usize::from(g.bit)];
                    let dp_mean = p - g.p0 - interpolate(curve, g.p0);
                    for &k in members {
                        let dp = dp_mean + interpolate(curve, state[k]);
                        f(k, state[k] + dp, dp, false);
                    }
                }
            }
        }
    }

    /// Largest polarization change (C/m²) over `run` of any stored cell
    /// — only unaccessed ones if `unaccessed_only`.
    pub(crate) fn max_disturb(
        &self,
        run: &TransientRun,
        state: &[f64],
        unaccessed_only: bool,
    ) -> f64 {
        let mut max_disturb: f64 = 0.0;
        self.for_each_update(run, state, |_, _, dp, accessed| {
            if !(unaccessed_only && accessed) {
                max_disturb = max_disturb.max(dp.abs());
            }
        });
        max_disturb
    }

    /// Commits `run` into `state`: every stored cell takes the
    /// polarization [`Groups::for_each_update`] gives it.
    pub(crate) fn commit(&self, run: &TransientRun, state: &mut Vec<f64>) {
        let mut next = state.clone();
        self.for_each_update(run, state, |k, p, _, _| next[k] = p);
        *state = next;
    }
}

/// The row lines of an op on `row` of a `rows`-row array, as (name
/// suffix, rows each stands for), and the index of the accessed row's
/// line. `m` identical lines in parallel are one line with `m`-fold
/// capacitance behind an `m`-fold stronger driver.
pub(crate) fn row_lines(
    rows: usize,
    row: usize,
    unaccessed: Unaccessed,
) -> (Vec<(String, usize)>, usize) {
    match unaccessed {
        Unaccessed::Cells => ((0..rows).map(|i| (i.to_string(), 1)).collect(), row),
        Unaccessed::Classes => {
            let mut lines = vec![(row.to_string(), 1)];
            if rows > 1 {
                lines.push(("u".to_string(), rows - 1));
            }
            (lines, 0)
        }
    }
}

/// A `rows × cols` array's stored polarizations (C/m², row-major) and
/// its two memory states `(p_lo, p_hi)`: what the partition reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stored<'a> {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) state: &'a [f64],
    pub(crate) memory_states: (f64, f64),
}

/// The cells a netlist for an op on `row` of `stored` contains.
///
/// With [`Unaccessed::Cells`] every cell stands for itself, row-major,
/// labelled `{i}_{j}`. With [`Unaccessed::Classes`] the accessed row's
/// cells come first, then per column the unaccessed cells cut in two at
/// their widest polarization gap ([`split_at_widest_gap`]), labelled
/// `u{k}_{j}`. The stored bits sit far apart and the cells of one bit
/// close together, so in a column holding both bits the cut falls
/// between them; a column holding one bit is cut all the same. Every
/// column thus has `min(2, rows − 1)` lumped cells whatever the data —
/// a data-dependent topology would cost a symbolic analysis per new
/// pattern. A part's bit is its first member's nearest memory state.
/// From 4 rows up, where a lumped cell can have two members to tell
/// apart, [`PROBES_PER_BIT`] probes per bit follow on
/// column 0, spread over the stored polarizations of that bit's
/// unaccessed cells and labelled `t{b}_{t}`.
///
/// A cell standing for one stored cell starts at that cell's
/// polarization; a lumped cell starts at `lumped_p0(members)`.
pub(crate) fn cell_groups(
    stored: Stored<'_>,
    row: usize,
    unaccessed: Unaccessed,
    lumped_p0: impl Fn(&[usize]) -> f64,
) -> (Vec<CellGroup>, Vec<usize>) {
    let Stored {
        rows,
        cols,
        state,
        memory_states: (p_lo, p_hi),
    } = stored;
    let mut cells = Vec::new();
    let mut members = Vec::with_capacity(rows * cols);
    let mut push = |label: String, line: usize, col: usize, bit: bool, idx: &[usize]| {
        let start = members.len();
        members.extend_from_slice(idx);
        let p0 = match idx {
            [k] => state[*k],
            _ => lumped_p0(idx),
        };
        cells.push(CellGroup {
            label,
            line,
            col,
            members: start..members.len(),
            scale: idx.len() as f64,
            bit,
            p0,
        });
    };
    if unaccessed == Unaccessed::Cells {
        for i in 0..rows {
            for j in 0..cols {
                push(format!("{i}_{j}"), i, j, false, &[i * cols + j]);
            }
        }
        return (cells, members);
    }
    for j in 0..cols {
        push(format!("{row}_{j}"), 0, j, false, &[row * cols + j]);
    }
    let is_one = |p: f64| (p - p_hi).abs() < (p - p_lo).abs();
    // Stored-polarization span of each bit's unaccessed cells.
    let mut span = [(f64::INFINITY, f64::NEG_INFINITY); 2];
    let mut column = Vec::with_capacity(rows);
    for j in 0..cols {
        column.clear();
        for i in (0..rows).filter(|&i| i != row) {
            let k = i * cols + j;
            let p = state[k];
            let (lo, hi) = &mut span[usize::from(is_one(p))];
            (*lo, *hi) = (lo.min(p), hi.max(p));
            column.push(k);
        }
        for (k, part) in split_at_widest_gap(&mut column, state)
            .into_iter()
            .enumerate()
        {
            if let Some(&first) = part.first() {
                push(format!("u{k}_{j}"), 1, j, is_one(state[first]), part);
            }
        }
    }
    if rows > 3 {
        for (b, (lo, hi)) in span.into_iter().enumerate() {
            // A bit no unaccessed cell stores: probe its stable state.
            let (lo, hi) = if lo <= hi {
                (lo, hi)
            } else {
                ([p_lo, p_hi][b], [p_lo, p_hi][b])
            };
            for t in 0..PROBES_PER_BIT {
                let p0 = lo + (hi - lo) * t as f64 / (PROBES_PER_BIT - 1) as f64;
                cells.push(CellGroup {
                    label: format!("t{b}_{t}"),
                    line: 1,
                    col: 0,
                    members: members.len()..members.len(),
                    scale: PROBE_SCALE,
                    bit: b == 1,
                    p0,
                });
            }
        }
    }
    (cells, members)
}

/// Mean stored polarization (C/m²) of cells `idx`: where a lumped cell
/// starts when its members' total charge is what matters.
pub(crate) fn mean_polarization(state: &[f64], idx: &[usize]) -> f64 {
    idx.iter().map(|&k| state[k]).sum::<f64>() / idx.len() as f64
}

/// The polarization (C/m²) within the span of cells `idx` at which
/// `f` — monotone there — takes the members' mean value of `f`.
pub(crate) fn matched(state: &[f64], idx: &[usize], f: impl Fn(f64) -> f64) -> f64 {
    let target = idx.iter().map(|&k| f(state[k])).sum::<f64>() / idx.len() as f64;
    let (mut lo, mut hi) = idx
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &k| {
            (lo.min(state[k]), hi.max(state[k]))
        });
    let rising = f(hi) >= f(lo);
    for _ in 0..64 {
        if hi - lo <= 1e-12 {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if (f(mid) < target) == rising {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Sorts `cells` (stored-state indices) by polarization and cuts them
/// in two at the widest polarization gap, so cells that sit apart
/// (freshly written ones, still relaxing) land in a part of their own.
/// The second part is empty for a single cell.
fn split_at_widest_gap<'a>(cells: &'a mut [usize], state: &[f64]) -> [&'a [usize]; 2] {
    cells.sort_by(|&a, &b| state[a].total_cmp(&state[b]));
    let gap = |c: usize| state[cells[c]] - state[cells[c - 1]];
    let cut = (1..cells.len())
        .max_by(|&a, &b| gap(a).total_cmp(&gap(b)))
        .unwrap_or(cells.len());
    let (a, b) = cells.split_at(cut);
    [a, b]
}

/// Piecewise-linear interpolation through `(x, y)` points sorted by
/// `x`, constant beyond the ends; 0 with no points.
fn interpolate(points: &[(f64, f64)], x: f64) -> f64 {
    let Some(&(x_first, y_first)) = points.first() else {
        return 0.0;
    };
    if x <= x_first {
        return y_first;
    }
    for w in points.windows(2) {
        let ((x0, y0), (x1, y1)) = (w[0], w[1]);
        if x <= x1 {
            return if x1 > x0 {
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            } else {
                y1
            };
        }
    }
    points[points.len() - 1].1
}

/// Newton settings for every simulation an array runs: its fast-path
/// switches, telemetry and analysis cache.
pub(crate) fn solver_options(
    fastpaths: FastPathToggles,
    instr: &Instrumentation,
    cache: &AnalysisCache,
) -> SolverOptions {
    SolverOptions {
        jacobian_reuse: fastpaths.jacobian_reuse,
        bypass: fastpaths.bypass,
        instr: instr.clone(),
        cache: Some(cache.clone()),
        ..SolverOptions::default()
    }
}

/// Runs a row op's trapezoidal transient of `circuit` to `t_end` (s) at
/// step `dt` (s) from the node initial conditions `node_ics`.
pub(crate) fn run(
    circuit: &Circuit,
    t_end: f64,
    dt: f64,
    node_ics: Vec<(Node, f64)>,
    predict: bool,
    solver: SolverOptions,
    observe: impl FnMut(&Step<'_>),
) -> Result<TransientRun> {
    transient_with(
        circuit,
        t_end,
        TransientOptions {
            dt,
            method: Integration::Trapezoidal,
            node_ics,
            predict,
            solver,
            ..TransientOptions::default()
        },
        observe,
    )
}
