//! `fefet-lint`: a dependency-free static-analysis pass over the
//! workspace's Rust sources, enforcing the solver-safety invariants the
//! compiler cannot:
//!
//! - **R1 `panic`** — no `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test library
//!   code of the core crates ([`PANIC_FREE_CRATES`]). Solvers must
//!   return typed errors, not abort the process. `assert!`-style
//!   argument validation is allowed — a violated precondition is a
//!   caller bug, not a solver failure mode.
//! - **R2 `unbounded-loop`** — no bare `loop {` and no `while` without
//!   a comparison in its condition inside solver modules
//!   ([`SOLVER_MODULES`]). Iteration must be lexically bounded or
//!   guarded by a cap the reader can see.
//! - **R3 `float-eq`** — no `==` / `!=` against a nonzero floating
//!   literal anywhere in the workspace. Exact-zero sentinels are
//!   allowed (they test "was this field ever set", not proximity).
//! - **R4 `solver-result`** — top-level `pub fn` items in solver
//!   modules must not return bare `f64` / `Vec<f64>`; solver entry
//!   points report failure through `Result`.
//! - **R5 `print`** — no `println!` / `eprintln!` / `print!` /
//!   `eprint!` in library code of the core crates. Libraries report
//!   through return values and the telemetry sinks; stdout/stderr
//!   belong to binaries and examples.
//! - **R6 `hot-alloc`** — no allocation constructs (`Vec::new`,
//!   `vec![`, `with_capacity`, `.clone()`, `.to_vec()`, `.collect()`,
//!   `Box::new`, `format!`, `String::from`) inside functions of the
//!   warm-path modules ([`HOT_PATH_MODULES`], matched by basename or —
//!   for entries containing `/` — by path suffix). Every fn there is
//!   warm by default; construction/setup functions opt out with the
//!   item-scoped directive. This is the static twin of the
//!   `fefet-alloctrack` zero-allocation pins.
//! - **R7 `atomic-ordering`** — every atomic operation must name an
//!   explicit `Ordering`; `Relaxed` is reserved for the
//!   telemetry/alloctrack counter crates; `SeqCst` anywhere is a
//!   "justify or weaken" finding.
//! - **R8 `unit-hygiene`** — bare-`f64` parameters of `pub fn`s and
//!   `pub` fields of `pub` structs in the physical crates
//!   ([`UNIT_CRATES`]) must carry an approved unit suffix (`_v`, `_a`,
//!   `_s`, `_hz`, `_f`, `_c`, `_j`, `_m`, `_k`) or a doc line stating
//!   units — volt/second/coulomb mixups die at the API boundary.
//!
//! The analysis is a token-tree pass: a scrubber strips comments,
//! strings and character literals (understanding raw strings and
//! lifetimes), a tokenizer walks the rest, an item parser recovers
//! fn/struct scopes, and `#[cfg(test)]`-gated items are skipped
//! wholesale. That makes the pass fast, dependency-free and fail-safe —
//! anything it cannot prove safe it flags, and intentional exceptions
//! carry an escape hatch *with a mandatory reason*:
//!
//! ```text
//! // fefet-lint: allow(panic) -- invariant: film is ferroelectric by construction
//! // fefet-lint: allow-item(hot-alloc) -- one-time construction, not on the Newton path
//! ```
//!
//! `allow` covers its own line and the line below; `allow-item` covers
//! the next fn or struct item. A directive without a reason, naming an
//! unknown rule, or suppressing nothing (stale) is itself a finding.
//! Directives in doc comments are documentation, not directives.
//!
//! Workspace findings ratchet against the committed
//! [`LINT_BASELINE.json`](baseline::BASELINE_FILE): fresh findings fail
//! the gate, grandfathered ones are tracked and may only shrink.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod baseline;
mod directives;
mod items;
mod lexer;
pub mod report;
mod rules;

pub use baseline::{Baseline, BaselineEntry, BaselineStatus, BucketDiff};
pub use report::render_json;
pub use rules::UNIT_SUFFIXES;

use lexer::{in_regions, scrub, test_regions, tokenize, LineIndex, Scrubbed};
use rules::FileLint;

/// Basenames of modules that implement iterative solvers or drive them
/// in parallel; R2 and R4 apply only here (in workspace mode).
pub const SOLVER_MODULES: &[&str] = &[
    "engine.rs",
    "dc.rs",
    "transient.rs",
    "dynamics.rs",
    "sparse.rs",
    "ac.rs",
    "parallel.rs",
];

/// Crate directory names whose library code must be panic-free (R1)
/// and print-free (R5).
pub const PANIC_FREE_CRATES: &[&str] = &["numerics", "ckt", "device", "core", "nvp", "telemetry"];

/// Warm-path modules where R6 forbids allocation: these hold the
/// Newton/transient inner loops, the sweep pool, and the telemetry
/// record paths (trace ring, quantile histograms) — the code
/// `fefet-alloctrack` pins zero-allocation dynamically. Entries
/// without a `/` match by basename anywhere in the tree; entries with
/// a `/` match as a path suffix, for modules whose basename collides
/// with an unrelated file (`ckt/src/trace.rs` would otherwise drag in
/// any future `trace.rs`).
pub const HOT_PATH_MODULES: &[&str] = &[
    "engine.rs",
    "sparse.rs",
    "transient.rs",
    "dc.rs",
    "parallel.rs",
    "ckt/src/probe.rs",
    "telemetry/src/trace.rs",
    "telemetry/src/quantile.rs",
    "core/src/serving.rs",
];

/// Crate directory names whose public `f64` surface carries physical
/// quantities; R8 applies here. `numerics` is pure math (dimensionless
/// by construction) and the infrastructure crates have no physical API.
pub const UNIT_CRATES: &[&str] = &["ckt", "device", "core", "nvp"];

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: panicking constructs in library code.
    Panic,
    /// R2: lexically unbounded loops in solver modules.
    UnboundedLoop,
    /// R3: float equality against a nonzero literal.
    FloatEq,
    /// R4: solver entry points returning bare floats.
    SolverResult,
    /// R5: stdout/stderr printing in library code.
    Print,
    /// R6: allocation constructs in warm-path functions.
    HotAlloc,
    /// R7: atomic operations with missing/suspect memory orderings.
    AtomicOrdering,
    /// R8: unitless `f64` parameters and fields on the public API.
    UnitHygiene,
    /// A malformed or stale `fefet-lint:` directive.
    Directive,
}

impl Rule {
    /// The rule's canonical name (used in `allow(...)` directives).
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::UnboundedLoop => "unbounded-loop",
            Rule::FloatEq => "float-eq",
            Rule::SolverResult => "solver-result",
            Rule::Print => "print",
            Rule::HotAlloc => "hot-alloc",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::UnitHygiene => "unit-hygiene",
            Rule::Directive => "directive",
        }
    }

    /// Parses a rule name or its `r1`-`r8` alias.
    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "panic" | "r1" => Some(Rule::Panic),
            "unbounded-loop" | "r2" => Some(Rule::UnboundedLoop),
            "float-eq" | "r3" => Some(Rule::FloatEq),
            "solver-result" | "r4" => Some(Rule::SolverResult),
            "print" | "r5" => Some(Rule::Print),
            "hot-alloc" | "r6" => Some(Rule::HotAlloc),
            "atomic-ordering" | "r7" => Some(Rule::AtomicOrdering),
            "unit-hygiene" | "r8" => Some(Rule::UnitHygiene),
            "directive" => Some(Rule::Directive),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path label the source was linted under.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How rule scoping is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Path-based scoping: R1/R5 on the core crates, R2/R4 on solver
    /// modules, R6 on warm-path modules, R8 on the physical crates,
    /// R3/R7 everywhere. Used for the workspace walk.
    Workspace,
    /// Every rule applies regardless of path. Used for explicit file
    /// arguments and rule fixtures.
    Strict,
}

// ---------------------------------------------------------------------
// Scoping and entry points
// ---------------------------------------------------------------------

fn norm_path(p: &str) -> String {
    p.replace('\\', "/")
}

fn basename(path: &str) -> String {
    let p = norm_path(path);
    p.rsplit('/').next().unwrap_or(&p).to_string()
}

fn is_solver_module(path: &str) -> bool {
    SOLVER_MODULES.contains(&basename(path).as_str())
}

fn is_hot_path_module(path: &str) -> bool {
    let p = norm_path(path);
    let base = basename(path);
    HOT_PATH_MODULES.iter().any(|m| {
        if m.contains('/') {
            p.ends_with(m)
        } else {
            base == *m
        }
    })
}

fn in_panic_free_crate(path: &str) -> bool {
    let p = norm_path(path);
    PANIC_FREE_CRATES
        .iter()
        .any(|c| p.contains(&format!("crates/{c}/src/")))
}

fn in_unit_crate(path: &str) -> bool {
    let p = norm_path(path);
    UNIT_CRATES
        .iter()
        .any(|c| p.contains(&format!("crates/{c}/src/")))
}

/// Where `Ordering::Relaxed` is legitimate without justification: the
/// monotonic counter crates, whose values are only ever read for
/// reporting after the work completes.
fn relaxed_counter_path(path: &str) -> bool {
    let p = norm_path(path);
    p.contains("crates/telemetry/src/") || p.contains("crates/alloctrack/src/")
}

/// Lints one file's source text under `mode`; `file` is the label used
/// in findings and (in [`Mode::Workspace`]) for rule scoping.
pub fn lint_source(file: &str, src: &str, mode: Mode) -> Vec<Finding> {
    let Scrubbed { text, comments } = scrub(src);
    let lines = LineIndex::new(src);
    let (mut dirs, mut directive_findings) = directives::parse(file, &comments, &lines);
    let toks = tokenize(&text);
    let regions = test_regions(&text);
    let parsed = items::parse(&text, &toks);
    directives::attach(file, &mut dirs, &parsed, &lines, &mut directive_findings);

    let mut fl = FileLint {
        scrubbed: &text,
        toks: &toks,
        items: &parsed,
        comments: &comments,
        lines: &lines,
        raw: Vec::new(),
    };
    let strict = mode == Mode::Strict;
    if strict || in_panic_free_crate(file) {
        fl.rule_panic();
        fl.rule_no_print();
    }
    if strict || is_solver_module(file) {
        fl.rule_unbounded_loop();
        fl.rule_solver_result();
    }
    fl.rule_float_eq();
    if strict || is_hot_path_module(file) {
        fl.rule_hot_alloc();
    }
    fl.rule_atomic_ordering(relaxed_counter_path(file));
    if strict || in_unit_crate(file) {
        fl.rule_unit_hygiene();
    }

    // Offset-based filters: findings inside #[cfg(test)] items are
    // dropped; findings matched by a line- or item-scoped allow are
    // dropped (and the directive marked used).
    let mut findings: Vec<Finding> = fl
        .raw
        .into_iter()
        .filter(|r| !in_regions(&regions, r.offset))
        .filter_map(|r| {
            let line = lines.line_of(r.offset);
            if directives::suppresses(&mut dirs, r.rule, line, r.offset) {
                None
            } else {
                Some(Finding {
                    file: file.to_string(),
                    line,
                    rule: r.rule,
                    message: r.message,
                })
            }
        })
        .collect();
    directives::stale(file, &dirs, &regions, &mut findings);
    findings.append(&mut directive_findings);
    findings.sort_by_key(|f| f.line);
    findings
}

/// All library source files the workspace walk covers: `src/` of the
/// root package and of every crate under `crates/`.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .map(|e| Ok(e?.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for entry in entries {
            collect_rs(&entry.join("src"), &mut files)?;
        }
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| Ok(e?.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks the workspace at `root` and lints every library source file in
/// [`Mode::Workspace`]. Findings carry root-relative path labels.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        let src = fs::read_to_string(&path)?;
        findings.extend(lint_source(&norm_path(&label), &src, Mode::Workspace));
    }
    Ok(findings)
}

/// The full workspace gate: findings, ratchet state, and counts.
#[derive(Debug)]
pub struct WorkspaceLint {
    /// Number of files linted.
    pub files_checked: usize,
    /// The committed baseline, if one exists.
    pub baseline: Option<Baseline>,
    /// Findings vs. baseline split. The gate passes iff
    /// `status.fresh` and `status.stale` are both empty.
    pub status: BaselineStatus,
}

impl WorkspaceLint {
    /// Gate verdict: no fresh findings, no stale baseline buckets.
    pub fn is_clean(&self) -> bool {
        self.status.fresh.is_empty() && self.status.stale.is_empty()
    }
}

/// Lints the workspace and applies the committed
/// [`LINT_BASELINE.json`](baseline::BASELINE_FILE) ratchet.
pub fn check_workspace(root: &Path) -> io::Result<WorkspaceLint> {
    let files = workspace_files(root)?;
    let findings = lint_workspace(root)?;
    let baseline = Baseline::load(&root.join(baseline::BASELINE_FILE))?;
    let status = baseline::apply(&findings, baseline.as_ref().unwrap_or(&Baseline::default()));
    Ok(WorkspaceLint {
        files_checked: files.len(),
        baseline,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Finding> {
        lint_source("test.rs", src, Mode::Strict)
    }

    #[test]
    fn unwrap_in_code_is_flagged_but_not_in_comment() {
        let f = strict("fn f() { x.unwrap(); }\n// x.unwrap() here is fine\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Panic);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_pass() {
        assert!(strict("fn f() { x.unwrap_or(0).unwrap_or_else(|| 1); }").is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let f = strict("fn f() { panic!(\"boom\"); unreachable!(); }");
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn asserts_are_allowed() {
        assert!(strict("fn f() { assert!(x > 0); debug_assert_eq!(a, b); }").is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); }\n}\nfn f() {}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn print_macros_flagged_write_passes() {
        let f = strict("fn f() { println!(\"x\"); eprintln!(\"y\"); }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::Print));
        // write!/writeln! target a caller-supplied sink.
        assert!(strict("fn f(w: &mut W) { writeln!(w, \"x\").ok(); }").is_empty());
        // Idents that merely contain the name don't fire.
        assert!(strict("fn f() { pretty_print(x); let print = 1; }").is_empty());
    }

    #[test]
    fn print_rule_scopes_to_library_crates() {
        let src = "fn f() { println!(\"x\"); }";
        // Binaries and tools may print.
        assert!(lint_source("crates/bench/src/lib.rs", src, Mode::Workspace).is_empty());
        let f = lint_source("crates/telemetry/src/lib.rs", src, Mode::Workspace);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Print);
        // The allow directive works for R5 like any rule.
        let allowed =
            "fn f() {\n // fefet-lint: allow(print) -- CLI progress\n println!(\"x\");\n}";
        assert!(lint_source("crates/ckt/src/lib.rs", allowed, Mode::Workspace).is_empty());
    }

    #[test]
    fn bare_loop_flagged_while_bounded_passes() {
        let f = strict("fn f() { loop { step(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnboundedLoop);
        assert!(strict("fn f() { for i in 0..10 { } while i < cap { } }").is_empty());
        assert!(strict("fn f() { while let Some(x) = it.next() { } }").is_empty());
    }

    #[test]
    fn while_without_comparison_flagged() {
        let f = strict("fn f() { while go { step(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnboundedLoop);
    }

    #[test]
    fn float_eq_flagged_zero_sentinel_passes() {
        let f = strict("fn f() { if x == 1.5 { } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatEq);
        assert!(strict("fn f() { if x == 0.0 { } if n == 3 { } }").is_empty());
    }

    #[test]
    fn pub_fn_returning_bare_f64_flagged() {
        let f = strict("pub fn solve(x_v: f64) -> f64 { x_v }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::SolverResult);
        assert!(strict("pub fn solve(x_v: f64) -> Result<f64, E> { Ok(x_v) }").is_empty());
        // Methods inside impl blocks are accessors, not entry points.
        assert!(strict("impl S { pub fn v(&self) -> f64 { self.0 } }").is_empty());
    }

    #[test]
    fn allow_directive_suppresses_with_reason() {
        let src = "fn f() {\n // fefet-lint: allow(panic) -- checked by caller\n x.unwrap();\n}";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding() {
        let src = "fn f() {\n // fefet-lint: allow(panic)\n x.unwrap();\n}";
        let f = strict(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == Rule::Directive));
        assert!(f.iter().any(|x| x.rule == Rule::Panic));
    }

    #[test]
    fn allow_unknown_rule_is_a_finding() {
        let f = strict("// fefet-lint: allow(everything) -- please\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Directive);
    }

    #[test]
    fn allow_for_the_wrong_rule_is_stale_and_suppresses_nothing() {
        let src = "fn f() {\n // fefet-lint: allow(float-eq) -- sentinel\n x.unwrap();\n}";
        let f = strict(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == Rule::Panic));
        assert!(f
            .iter()
            .any(|x| x.rule == Rule::Directive && x.message.contains("stale")));
    }

    #[test]
    fn stale_allow_is_flagged_and_doc_examples_are_not_directives() {
        // A used allow is silent; an unused one is a `directive`
        // finding.
        let used = "fn f() {\n // fefet-lint: allow(panic) -- caller checked\n x.unwrap();\n}";
        assert!(strict(used).is_empty());
        let stale = "// fefet-lint: allow(panic) -- nothing here panics\nfn f() {}\n";
        let f = strict(stale);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Directive);
        assert!(f[0].message.contains("stale"));
        // The same text inside a doc comment is documentation.
        let doc = "/// Example: `// fefet-lint: allow(panic) -- reason`\nfn f() {}\n";
        assert!(strict(doc).is_empty());
        let inner_doc = "//! fefet-lint: allow(panic) -- doc example\nfn f() {}\n";
        assert!(strict(inner_doc).is_empty());
    }

    #[test]
    fn hot_alloc_fires_in_fn_bodies_only() {
        let f = strict("fn warm(n: usize) { let v = vec![0.0; n]; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
        // Constructs outside any fn (consts) are setup by definition.
        assert!(strict("const N: usize = 4;\nstatic X: i32 = 0;").is_empty());
    }

    #[test]
    fn hot_alloc_allow_item_opts_out_a_whole_fn() {
        let src = "\
// fefet-lint: allow-item(hot-alloc) -- one-time construction
pub fn build(n: usize) -> Vec<f64> {
    let mut v = Vec::new();
    v.extend((0..n).map(|_| 0.0).collect::<Vec<f64>>());
    v
}
fn warm() { let x = Box::new(1); }
";
        let f = strict(src);
        // `build` is fully opted out; `warm` still fires; the R4-ish
        // return is not a solver-result hit (Vec<f64> is, actually).
        assert!(
            f.iter()
                .filter(|x| x.rule == Rule::HotAlloc)
                .all(|x| x.line == 7),
            "{f:?}"
        );
        assert_eq!(
            f.iter().filter(|x| x.rule == Rule::HotAlloc).count(),
            1,
            "{f:?}"
        );
    }

    #[test]
    fn hot_alloc_scopes_to_hot_modules_in_workspace_mode() {
        let src = "fn f() { let v = vec![1]; }";
        assert!(lint_source("crates/ckt/src/elements.rs", src, Mode::Workspace).is_empty());
        let f = lint_source("crates/ckt/src/engine.rs", src, Mode::Workspace);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::HotAlloc);
    }

    #[test]
    fn atomic_ordering_rules() {
        // Missing ordering.
        let f = strict("fn f(a: &AtomicUsize) { a.load(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AtomicOrdering);
        // Named ordering passes.
        assert!(strict("fn f(a: &AtomicUsize) { a.load(Ordering::Acquire); }").is_empty());
        // SeqCst is justify-or-weaken.
        let f = strict("fn f(a: &AtomicUsize) { a.store(1, Ordering::SeqCst); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SeqCst"));
        // Relaxed outside the counter crates needs justification...
        let f = strict("fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }");
        assert_eq!(f.len(), 1, "{f:?}");
        // ...but is fine inside them.
        let src = "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }";
        assert!(lint_source("crates/telemetry/src/metrics.rs", src, Mode::Workspace).is_empty());
        assert!(lint_source("crates/alloctrack/src/lib.rs", src, Mode::Workspace).is_empty());
        // Slice swaps are not atomic ops.
        assert!(strict("fn f(v: &mut [f64]) { v.swap(0, 1); }").is_empty());
    }

    #[test]
    fn unit_hygiene_on_params_and_fields() {
        // Suffix passes.
        assert!(strict("pub fn set(v_gate_v: f64) {}").is_empty());
        // Doc stating units passes.
        assert!(strict("/// Pulse width (s).\npub fn pulse(width: f64) {}").is_empty());
        // Neither: finding.
        let f = strict("pub fn pulse(width: f64) {}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnitHygiene);
        // Non-f64 and non-pub don't fire.
        assert!(strict("pub fn g(n: usize) {}\nfn h(x: f64) {}").is_empty());
        assert!(strict("pub(crate) fn h(x: f64) {}").is_empty());
        // Fields: suffix or doc.
        let f = strict("pub struct S {\n    pub t: f64,\n    /// Read voltage (V).\n    pub v_read: f64,\n    pub n: usize,\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`pub t: f64`"), "{f:?}");
        // Private structs and fields are not API surface.
        assert!(strict("struct P { pub t: f64 }\npub struct Q { t: f64 }").is_empty());
    }

    #[test]
    fn unit_hygiene_scopes_to_physical_crates() {
        let src = "pub fn set(x: f64) {}";
        assert!(lint_source("crates/numerics/src/linalg.rs", src, Mode::Workspace).is_empty());
        let f = lint_source("crates/device/src/fefet.rs", src, Mode::Workspace);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnitHygiene);
    }

    #[test]
    fn workspace_mode_scopes_rules_by_path() {
        let src = "pub fn step() -> f64 { loop { } }";
        // Non-solver path in a non-core crate: only R3/R7 apply.
        assert!(lint_source("crates/bench/src/lib.rs", src, Mode::Workspace).is_empty());
        // Solver module: R2 + R4 fire.
        let f = lint_source("crates/ckt/src/dc.rs", src, Mode::Workspace);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn hot_path_suffix_entries_scope_by_full_path() {
        let src = "fn record(&self) { let v = Vec::new(); }";
        // The telemetry record paths are R6-scoped by path suffix...
        let f = lint_source("crates/telemetry/src/trace.rs", src, Mode::Workspace);
        assert!(f.iter().any(|f| f.rule == Rule::HotAlloc), "{f:?}");
        let f = lint_source("crates/telemetry/src/quantile.rs", src, Mode::Workspace);
        assert!(f.iter().any(|f| f.rule == Rule::HotAlloc), "{f:?}");
        // ...so an unrelated module sharing the basename stays out of
        // scope (`ckt/src/trace.rs` would be a different file).
        assert!(lint_source("crates/nvp/src/trace.rs", src, Mode::Workspace).is_empty());
        // Basename entries still match anywhere.
        let f = lint_source("crates/ckt/src/engine.rs", src, Mode::Workspace);
        assert!(f.iter().any(|f| f.rule == Rule::HotAlloc), "{f:?}");
    }

    #[test]
    fn rule_aliases_parse() {
        assert_eq!(Rule::parse("r1"), Some(Rule::Panic));
        assert_eq!(Rule::parse("unbounded-loop"), Some(Rule::UnboundedLoop));
        assert_eq!(Rule::parse("r3"), Some(Rule::FloatEq));
        assert_eq!(Rule::parse("solver-result"), Some(Rule::SolverResult));
        assert_eq!(Rule::parse("print"), Some(Rule::Print));
        assert_eq!(Rule::parse("r5"), Some(Rule::Print));
        assert_eq!(Rule::parse("hot-alloc"), Some(Rule::HotAlloc));
        assert_eq!(Rule::parse("r6"), Some(Rule::HotAlloc));
        assert_eq!(Rule::parse("atomic-ordering"), Some(Rule::AtomicOrdering));
        assert_eq!(Rule::parse("r7"), Some(Rule::AtomicOrdering));
        assert_eq!(Rule::parse("unit-hygiene"), Some(Rule::UnitHygiene));
        assert_eq!(Rule::parse("r8"), Some(Rule::UnitHygiene));
        assert_eq!(Rule::parse("bogus"), None);
    }
}
