//! Gate: the whole workspace must satisfy the fefet-lint invariants
//! (R1–R8) with zero findings. This runs the same analysis as
//! `cargo run -p fefet-lint`, so any finding fails `cargo test` too.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ws = fefet_lint::check_workspace(root).expect("walk workspace sources");
    assert!(
        ws.is_clean(),
        "fefet-lint found {} violation(s):\n{}",
        ws.findings.len(),
        ws.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
