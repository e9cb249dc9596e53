//! CLI for `fefet-lint`.
//!
//! - `fefet-lint` (no args): walks the workspace's library sources and
//!   applies path-scoped rules.
//! - `fefet-lint FILE...`: lints the named files in strict mode (every
//!   rule applies regardless of path) — the mode fixtures are checked
//!   under.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use fefet_lint::{check_workspace, lint_source, render_json, Finding, Mode, Rule};

const USAGE: &str = "\
usage: fefet-lint [OPTIONS] [FILE...]

With no file arguments, lints every library source file of the
enclosing workspace (src/ and crates/*/src/) with path-scoped rules.
With file arguments, lints those files in strict mode (all rules
apply).

Options:
  --json PATH         write the machine-readable findings report to
                      PATH ('-' for stdout)
  --rule NAME         only report the named rule (name or r1..r8 alias)
  -h, --help          show this help

Rules: panic (r1), unbounded-loop (r2), float-eq (r3), solver-result
(r4), print (r5), hot-alloc (r6), atomic-ordering (r7), unit-hygiene
(r8).
Suppress a finding with a justified directive:
    // fefet-lint: allow(<rule>) -- <reason>        (line scope)
    // fefet-lint: allow-item(<rule>) -- <reason>   (next fn/struct)

Exit codes: 0 clean, 1 findings, 2 usage or I/O error.";

struct Options {
    files: Vec<String>,
    json: Option<String>,
    rule: Option<Rule>,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("fefet-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn io_error(msg: &str) -> ExitCode {
    eprintln!("fefet-lint: {msg}");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        json: None,
        rule: None,
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let mut take_value = |name: &str| -> Result<String, String> {
            if let Some(v) = args[i].strip_prefix(&format!("{name}=")) {
                return Ok(v.to_string());
            }
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        if a == "--json" || a.starts_with("--json=") {
            opts.json = Some(take_value("--json")?);
        } else if a == "--rule" || a.starts_with("--rule=") {
            let name = take_value("--rule")?;
            opts.rule = Some(Rule::parse(&name).ok_or_else(|| format!("unknown rule `{name}`"))?);
        } else if a.starts_with('-') && a != "-" {
            return Err(format!("unknown option `{a}`"));
        } else {
            opts.files.push(a.clone());
        }
        i += 1;
    }
    Ok(opts)
}

/// Ascends from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`. Outside any workspace this is a usage
/// error (exit 2) naming the directory, so a mistyped cwd cannot pass
/// the gate by linting some other tree.
fn find_workspace_root() -> Result<PathBuf, ExitCode> {
    let cwd = std::env::current_dir()
        .map_err(|e| io_error(&format!("cannot read the current directory: {e}")))?;
    let mut dir = cwd.clone();
    loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io_error(&format!(
                "no Cargo.toml with a [workspace] in {} or above it",
                cwd.display()
            )));
        }
    }
}

fn write_report(path: &str, text: &str) -> Result<(), ExitCode> {
    if path == "-" {
        print!("{text}");
        return Ok(());
    }
    std::fs::write(path, text).map_err(|e| io_error(&format!("cannot write {path}: {e}")))
}

/// Lints the named files in strict mode: `(files checked, findings)`.
fn lint_files(files: &[String]) -> Result<(usize, Vec<Finding>), ExitCode> {
    let mut findings = Vec::new();
    for arg in files {
        let src = std::fs::read_to_string(arg)
            .map_err(|e| io_error(&format!("cannot read {arg}: {e}")))?;
        findings.extend(lint_source(arg, &src, Mode::Strict));
    }
    Ok((files.len(), findings))
}

/// Lints the enclosing workspace: `(files checked, findings)`.
fn lint_workspace() -> Result<(usize, Vec<Finding>), ExitCode> {
    let root = find_workspace_root()?;
    let ws = check_workspace(&root)
        .map_err(|e| io_error(&format!("cannot lint {}: {e}", root.display())))?;
    Ok((ws.files_checked, ws.findings))
}

fn run(opts: &Options) -> Result<ExitCode, ExitCode> {
    let (files_checked, mut findings) = if opts.files.is_empty() {
        lint_workspace()?
    } else {
        lint_files(&opts.files)?
    };
    if let Some(rule) = opts.rule {
        findings.retain(|f| f.rule == rule);
    }
    for f in &findings {
        println!("{f}");
    }
    if let Some(path) = &opts.json {
        write_report(path, &render_json(files_checked, &findings))?;
    }
    if findings.is_empty() {
        println!("fefet-lint: clean ({files_checked} files)");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "fefet-lint: {} finding(s) in {files_checked} files",
            findings.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&args) {
        Ok(opts) => run(&opts).unwrap_or_else(|code| code),
        Err(e) => usage_error(&e),
    }
}
