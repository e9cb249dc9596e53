//! Fixture-driven integration tests: every rule (R1–R8) must fire on
//! its violation fixture, stay silent on its clean twin, and honour the
//! `fefet-lint: allow(...)` / `allow-item(...)` escape hatches. The
//! binary's exit codes (0 clean, 1 findings, 2 usage/IO), `--rule`
//! filtering, `--json` report, the workspace gate's failing side and
//! its refusal to run outside a workspace are exercised the same way.

use fefet_lint::{lint_source, Mode, Rule};
use std::path::PathBuf;
use std::process::Command;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<(Rule, usize)> {
    let path = fixture_path(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    lint_source(name, &src, Mode::Strict)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

fn rules_of(name: &str) -> Vec<Rule> {
    lint_fixture(name).into_iter().map(|(r, _)| r).collect()
}

#[test]
fn r1_fires_on_panicking_constructs() {
    let rules = rules_of("r1_fires.rs");
    // unwrap, panic!, unreachable!, expect — four distinct sites.
    assert_eq!(rules.len(), 4, "{rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::Panic), "{rules:?}");
}

#[test]
fn r1_clean_is_silent() {
    assert_eq!(lint_fixture("r1_clean.rs"), vec![]);
}

#[test]
fn r1_allow_directive_suppresses() {
    assert_eq!(lint_fixture("r1_allowed.rs"), vec![]);
}

#[test]
fn r2_fires_on_unbounded_loops() {
    let rules = rules_of("r2_fires.rs");
    assert_eq!(rules.len(), 2, "{rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::UnboundedLoop), "{rules:?}");
}

#[test]
fn r2_clean_is_silent() {
    assert_eq!(lint_fixture("r2_clean.rs"), vec![]);
}

#[test]
fn r3_fires_on_nonzero_float_equality() {
    let rules = rules_of("r3_fires.rs");
    assert_eq!(rules.len(), 3, "{rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::FloatEq), "{rules:?}");
}

#[test]
fn r3_clean_is_silent() {
    assert_eq!(lint_fixture("r3_clean.rs"), vec![]);
}

#[test]
fn r4_fires_on_bare_float_solver_returns() {
    let rules = rules_of("r4_fires.rs");
    assert_eq!(rules.len(), 2, "{rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::SolverResult), "{rules:?}");
}

#[test]
fn r4_clean_is_silent() {
    assert_eq!(lint_fixture("r4_clean.rs"), vec![]);
}

#[test]
fn r6_fires_on_warm_path_allocation() {
    let rules = rules_of("r6_fires.rs");
    // vec!, .clone(), Vec::new, Box::new, with_capacity, format! —
    // six distinct allocation constructs.
    assert_eq!(rules.len(), 6, "{rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::HotAlloc), "{rules:?}");
}

#[test]
fn r6_clean_is_silent() {
    assert_eq!(lint_fixture("r6_clean.rs"), vec![]);
}

#[test]
fn r6_directives_suppress_line_and_item_scope() {
    assert_eq!(lint_fixture("r6_allowed.rs"), vec![]);
}

#[test]
fn r7_fires_on_ordering_violations() {
    let rules = rules_of("r7_fires.rs");
    // Missing Ordering, SeqCst, and out-of-place Relaxed.
    assert_eq!(rules.len(), 3, "{rules:?}");
    assert!(
        rules.iter().all(|r| *r == Rule::AtomicOrdering),
        "{rules:?}"
    );
}

#[test]
fn r7_clean_is_silent() {
    assert_eq!(lint_fixture("r7_clean.rs"), vec![]);
}

#[test]
fn r7_directives_suppress_justified_orderings() {
    assert_eq!(lint_fixture("r7_allowed.rs"), vec![]);
}

#[test]
fn r8_fires_on_unitless_api() {
    let rules = rules_of("r8_fires.rs");
    // Undocumented param, two suffix-less params, one bare field.
    assert_eq!(rules.len(), 4, "{rules:?}");
    assert!(rules.iter().all(|r| *r == Rule::UnitHygiene), "{rules:?}");
}

#[test]
fn r8_clean_is_silent() {
    assert_eq!(lint_fixture("r8_clean.rs"), vec![]);
}

#[test]
fn r8_directives_suppress_fields_and_params() {
    assert_eq!(lint_fixture("r8_allowed.rs"), vec![]);
}

#[test]
fn stale_directive_is_itself_a_finding() {
    let src =
        "// fefet-lint: allow(panic) -- nothing to suppress\npub fn ok() -> usize {\n    1\n}\n";
    let findings = lint_source("stale.rs", src, Mode::Strict);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Directive);
    assert!(
        findings[0].message.contains("stale"),
        "{}",
        findings[0].message
    );
}

#[test]
fn directive_without_reason_is_rejected() {
    let src = "fn f() {\n    // fefet-lint: allow(panic)\n    x.unwrap();\n}\n";
    let findings = lint_source("noreason.rs", src, Mode::Strict);
    assert!(
        findings.iter().any(|f| f.rule == Rule::Directive),
        "{findings:?}"
    );
}

#[test]
fn cfg_test_code_is_exempt() {
    assert_eq!(lint_fixture("cfg_test_skipped.rs"), vec![]);
}

#[test]
fn comments_and_strings_never_fire() {
    assert_eq!(lint_fixture("comments_strings.rs"), vec![]);
}

#[test]
fn binary_exits_nonzero_on_violations() {
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .arg(fixture_path("r1_fires.rs"))
        .output()
        .expect("spawn fefet-lint");
    assert!(!out.status.success(), "must flag the violation fixture");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[panic]"), "stdout: {stdout}");
}

#[test]
fn binary_exits_zero_on_clean_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .arg(fixture_path("r1_clean.rs"))
        .output()
        .expect("spawn fefet-lint");
    assert!(out.status.success(), "clean fixture must pass");
}

#[test]
fn binary_rule_filter_isolates_one_rule() {
    // r8_fires has only unit-hygiene findings: filtering to r6 must
    // leave nothing (exit 0), filtering to r8 must still fail.
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .args(["--rule", "r6"])
        .arg(fixture_path("r8_fires.rs"))
        .output()
        .expect("spawn fefet-lint");
    assert!(out.status.success(), "r6 filter must drop r8 findings");

    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .args(["--rule", "unit-hygiene"])
        .arg(fixture_path("r8_fires.rs"))
        .output()
        .expect("spawn fefet-lint");
    assert_eq!(out.status.code(), Some(1), "r8 findings must remain");
}

#[test]
fn binary_json_report_carries_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .args(["--json", "-"])
        .arg(fixture_path("r7_fires.rs"))
        .output()
        .expect("spawn fefet-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"atomic-ordering\""), "stdout: {stdout}");
    assert!(stdout.contains("\"fresh\""), "stdout: {stdout}");
}

#[test]
fn binary_exits_two_on_missing_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .arg(fixture_path("no_such_fixture.rs"))
        .output()
        .expect("spawn fefet-lint");
    assert_eq!(out.status.code(), Some(2), "I/O errors are exit 2");
}

#[test]
fn binary_exits_two_on_unknown_option() {
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .arg("--frobnicate")
        .output()
        .expect("spawn fefet-lint");
    assert_eq!(out.status.code(), Some(2), "usage errors are exit 2");
}

#[test]
fn workspace_gate_fails_on_a_finding() {
    // A throwaway workspace whose one library file holds one R1
    // violation (R1 is scoped to the core crates, hence `crates/ckt`).
    let dir = std::env::temp_dir().join(format!("fefet-lint-gate-{}", std::process::id()));
    let src = dir.join("crates/ckt/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn first(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n",
    )
    .expect("write");

    let ws = fefet_lint::check_workspace(&dir).expect("walk");
    assert_eq!(ws.files_checked, 1);
    assert!(!ws.is_clean());
    let found: Vec<(&str, usize, Rule)> = ws
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule))
        .collect();
    assert_eq!(found, [("crates/ckt/src/lib.rs", 2, Rule::Panic)]);

    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .current_dir(&dir)
        .output()
        .expect("spawn fefet-lint");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("crates/ckt/src/lib.rs:2: [panic]"),
        "stdout: {stdout}"
    );
}

#[test]
fn binary_exits_two_outside_any_workspace() {
    // A directory with no `[workspace]` manifest in it or above it is a
    // usage error, not a lint of some other tree.
    let dir = std::env::temp_dir().join(format!("fefet-lint-no-ws-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let has_workspace_above = dir.ancestors().any(|d| {
        std::fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
    });
    assert!(
        !has_workspace_above,
        "{} sits inside a workspace",
        dir.display()
    );
    let shown = dir.canonicalize().expect("canonical temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .current_dir(&dir)
        .output()
        .expect("spawn fefet-lint");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(
        stderr.contains(&*shown.to_string_lossy()),
        "stderr must name the directory: {stderr}"
    );
}

#[test]
fn binary_exits_zero_on_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_fefet-lint"))
        .output()
        .expect("spawn fefet-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "workspace must lint clean\nstdout: {stdout}\nstderr: {stderr}"
    );
}
