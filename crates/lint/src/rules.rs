//! The rule passes. R1–R5 are token scans carried over from v1; R6–R8
//! use the item parser to reason about function and struct scope.
//!
//! Every pass emits [`Raw`] findings carrying the *byte offset* of the
//! construct; `lint_source` converts offsets to line numbers after the
//! `#[cfg(test)]` and directive filters have run.

use crate::items::Items;
use crate::lexer::{Kind, LineIndex, Tok};
use crate::Rule;

pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub(crate) const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Atomic operations that take an `Ordering` argument. `swap` is
/// deliberately absent: `slice::swap` / `mem::swap` are everywhere in
/// the pivoting kernels and a lexical pass cannot tell them apart.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Approved unit suffixes for R8: volts, amps, seconds, hertz, farads,
/// coulombs, joules, meters, kelvin.
pub const UNIT_SUFFIXES: &[&str] = &["_v", "_a", "_s", "_hz", "_f", "_c", "_j", "_m", "_k"];

/// Unit words R8 accepts in a doc line.
const UNIT_WORDS: &[&str] = &[
    "volt",
    "volts",
    "ampere",
    "amperes",
    "amp",
    "amps",
    "second",
    "seconds",
    "farad",
    "farads",
    "coulomb",
    "coulombs",
    "joule",
    "joules",
    "henry",
    "henries",
    "hertz",
    "ohm",
    "ohms",
    "watt",
    "watts",
    "meter",
    "meters",
    "metre",
    "metres",
    "kelvin",
    "celsius",
    "siemens",
    "dimensionless",
    "unitless",
    "normalized",
    "normalised",
    "fraction",
    "ratio",
    "radian",
    "radians",
    "degree",
    "degrees",
    "percent",
];

/// Unit symbols accepted inside a parenthesized doc annotation such as
/// `(V)`, `(A/V)`, `(F/m)` or `(kΩ)`. Case-sensitive.
const UNIT_SYMBOLS: &[&str] = &[
    "V", "A", "s", "Hz", "F", "C", "J", "m", "K", "S", "W", "H", "Ω", "eV", "Ohm", "ohm", "ohms",
    "λ", "1",
];

const SI_PREFIXES: &[char] = &['f', 'p', 'n', 'u', 'µ', 'm', 'k', 'M', 'G', 'T'];

/// A finding before line resolution.
pub(crate) struct Raw {
    pub offset: usize,
    pub rule: Rule,
    pub message: String,
}

/// Is `text` a floating-point literal with a nonzero value?
pub(crate) fn nonzero_float_literal(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let base = cleaned
        .strip_suffix("f64")
        .or_else(|| cleaned.strip_suffix("f32"))
        .unwrap_or(&cleaned);
    let floatish = cleaned.ends_with("f64")
        || cleaned.ends_with("f32")
        || base.contains('.')
        || (base.contains(['e', 'E']) && !base.starts_with("0x") && !base.starts_with("0X"));
    if !floatish {
        return false;
    }
    match base.parse::<f64>() {
        Ok(v) => v != 0.0,
        Err(_) => false,
    }
}

pub(crate) struct FileLint<'a> {
    pub scrubbed: &'a str,
    pub toks: &'a [Tok],
    pub items: &'a Items,
    pub comments: &'a [(usize, String)],
    pub lines: &'a LineIndex,
    pub raw: Vec<Raw>,
}

impl<'a> FileLint<'a> {
    fn text(&self, t: &Tok) -> &'a str {
        &self.scrubbed[t.start..t.end]
    }

    fn push(&mut self, offset: usize, rule: Rule, message: String) {
        self.raw.push(Raw {
            offset,
            rule,
            message,
        });
    }

    /// R1: `.unwrap()` / `.expect(` / panicking macros.
    pub fn rule_panic(&mut self) {
        for k in 0..self.toks.len() {
            let t = self.toks[k];
            if t.kind != Kind::Ident {
                continue;
            }
            let name = self.text(&t);
            let prev = k.checked_sub(1).map(|p| self.text(&self.toks[p]));
            let next = self.toks.get(k + 1).map(|n| self.text(n));
            if (name == "unwrap" || name == "expect") && prev == Some(".") && next == Some("(") {
                self.push(
                    t.start,
                    Rule::Panic,
                    format!("`.{name}()` in library code; return a typed error instead"),
                );
            } else if PANIC_MACROS.contains(&name) && next == Some("!") {
                self.push(
                    t.start,
                    Rule::Panic,
                    format!("`{name}!` in library code; return a typed error instead"),
                );
            }
        }
    }

    /// R5: `println!` / `eprintln!` / `print!` / `eprint!` in library
    /// code. `write!`/`writeln!` to a caller-supplied sink are fine.
    pub fn rule_no_print(&mut self) {
        for k in 0..self.toks.len() {
            let t = self.toks[k];
            if t.kind != Kind::Ident {
                continue;
            }
            let name = self.text(&t);
            if PRINT_MACROS.contains(&name)
                && self.toks.get(k + 1).map(|n| self.text(n)) == Some("!")
            {
                self.push(
                    t.start,
                    Rule::Print,
                    format!(
                        "`{name}!` in library code; report through return values \
                         or a telemetry sink, not stdout/stderr"
                    ),
                );
            }
        }
    }

    /// R2: bare `loop` and condition-free `while` in solver modules.
    pub fn rule_unbounded_loop(&mut self) {
        for k in 0..self.toks.len() {
            let t = self.toks[k];
            if t.kind != Kind::Ident {
                continue;
            }
            match self.text(&t) {
                "loop" => {
                    if self.toks.get(k + 1).map(|n| self.text(n)) == Some("{") {
                        self.push(
                            t.start,
                            Rule::UnboundedLoop,
                            "bare `loop` in a solver module; bound it with an \
                             iteration cap and a typed convergence error"
                                .to_string(),
                        );
                    }
                }
                "while" => {
                    if self.toks.get(k + 1).map(|n| self.text(n)) == Some("let") {
                        continue;
                    }
                    // Scan the condition (tokens up to the body `{` at
                    // bracket depth zero) for a comparison operator.
                    let mut depth = 0i32;
                    let mut bounded = false;
                    for n in &self.toks[k + 1..] {
                        let s = self.text(n);
                        match s {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => break,
                            "<" | ">" | "<=" | ">=" | "!=" | "==" => bounded = true,
                            _ => {}
                        }
                    }
                    if !bounded {
                        self.push(
                            t.start,
                            Rule::UnboundedLoop,
                            "`while` without a comparison in its condition in a \
                             solver module; make the bound explicit"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// R3: `==` / `!=` against a nonzero float literal.
    pub fn rule_float_eq(&mut self) {
        for k in 0..self.toks.len() {
            let t = self.toks[k];
            if t.kind != Kind::Punct {
                continue;
            }
            let op = self.text(&t);
            if op != "==" && op != "!=" {
                continue;
            }
            let float_side = [k.checked_sub(1), Some(k + 1)]
                .into_iter()
                .flatten()
                .filter_map(|idx| self.toks.get(idx))
                .find(|n| n.kind == Kind::Number && nonzero_float_literal(self.text(n)));
            if let Some(lit) = float_side {
                let lit_text = self.text(lit).to_string();
                self.push(
                    t.start,
                    Rule::FloatEq,
                    format!(
                        "`{op} {lit_text}` compares floats exactly; use a tolerance \
                         (only literal-zero sentinels are exempt)"
                    ),
                );
            }
        }
    }

    /// R4: top-level `pub fn` returning bare `f64` / `Vec<f64>`.
    pub fn rule_solver_result(&mut self) {
        let mut hits = Vec::new();
        for f in &self.items.fns {
            if f.depth != 0 || !f.is_pub {
                continue;
            }
            if f.ret == "f64" || f.ret == "Vec<f64>" {
                hits.push((
                    f.head,
                    format!(
                        "public solver fn `{}` returns bare `{}`; solver entry \
                         points must return `Result` so failures are typed",
                        f.name, f.ret
                    ),
                ));
            }
        }
        for (offset, message) in hits {
            self.push(offset, Rule::SolverResult, message);
        }
    }

    /// R6: allocation constructs inside warm-path functions. Every fn
    /// in a hot-path module is warm unless opted out with
    /// `allow-item(hot-alloc)`; constructs outside any fn (consts,
    /// statics) are setup by definition.
    pub fn rule_hot_alloc(&mut self) {
        let mut hits = Vec::new();
        for k in 0..self.toks.len() {
            let t = self.toks[k];
            if t.kind != Kind::Ident {
                continue;
            }
            let name = self.text(&t);
            let prev = k.checked_sub(1).map(|p| self.text(&self.toks[p]));
            let prev2 = k.checked_sub(2).map(|p| self.text(&self.toks[p]));
            let next = self.toks.get(k + 1).map(|n| self.text(n));
            let construct = match name {
                "vec" if next == Some("!") => Some("vec![...]"),
                "format" if next == Some("!") => Some("format!"),
                "with_capacity" if matches!(prev, Some("::") | Some(".")) && next == Some("(") => {
                    Some("with_capacity")
                }
                "clone" if prev == Some(".") && next == Some("(") => Some(".clone()"),
                "to_vec" if prev == Some(".") && next == Some("(") => Some(".to_vec()"),
                "collect" if prev == Some(".") && matches!(next, Some("(") | Some("::")) => {
                    Some(".collect()")
                }
                "new" if prev == Some("::") && matches!(prev2, Some("Vec") | Some("Box")) => {
                    Some(if prev2 == Some("Vec") {
                        "Vec::new"
                    } else {
                        "Box::new"
                    })
                }
                "from" if prev == Some("::") && prev2 == Some("String") => Some("String::from"),
                _ => None,
            };
            let Some(construct) = construct else {
                continue;
            };
            let Some(f) = self.items.enclosing_fn(t.start) else {
                continue;
            };
            hits.push((
                t.start,
                format!(
                    "allocation (`{construct}`) in warm-path fn `{}`; hoist it into \
                     setup or opt the fn out with `fefet-lint: allow-item(hot-alloc) -- <reason>`",
                    f.name
                ),
            ));
        }
        for (offset, message) in hits {
            self.push(offset, Rule::HotAlloc, message);
        }
    }

    /// R7: atomic operations must name an explicit `Ordering`;
    /// `SeqCst` is always "justify or weaken"; `Relaxed` is reserved
    /// for the telemetry counter crate.
    pub fn rule_atomic_ordering(&mut self, relaxed_ok: bool) {
        for k in 0..self.toks.len() {
            let t = self.toks[k];
            if t.kind != Kind::Ident {
                continue;
            }
            let name = self.text(&t);
            let prev = k.checked_sub(1).map(|p| self.text(&self.toks[p]));
            let prev2 = k.checked_sub(2).map(|p| self.text(&self.toks[p]));
            let next = self.toks.get(k + 1).map(|n| self.text(n));

            if ATOMIC_METHODS.contains(&name) && prev == Some(".") && next == Some("(") {
                // Scan the balanced argument list for an Ordering name.
                let mut depth = 0i32;
                let mut named = false;
                for n in &self.toks[k + 1..] {
                    let s = self.text(n);
                    match s {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {
                            if n.kind == Kind::Ident && ORDERING_NAMES.contains(&s) {
                                named = true;
                            }
                        }
                    }
                }
                if !named {
                    self.push(
                        t.start,
                        Rule::AtomicOrdering,
                        format!(
                            "atomic `.{name}(..)` without an explicit `Ordering`; \
                             name the ordering the protocol needs"
                        ),
                    );
                }
            }

            if prev == Some("::") && prev2 == Some("Ordering") {
                if name == "SeqCst" {
                    self.push(
                        t.start,
                        Rule::AtomicOrdering,
                        "`Ordering::SeqCst`: justify with an allow or weaken to \
                         the ordering the algorithm actually needs"
                            .to_string(),
                    );
                } else if name == "Relaxed" && !relaxed_ok {
                    self.push(
                        t.start,
                        Rule::AtomicOrdering,
                        "`Ordering::Relaxed` outside the telemetry counter \
                         crate; state why no synchronization is needed \
                         with an allow, or strengthen the ordering"
                            .to_string(),
                    );
                }
            }
        }
    }

    /// R8: bare-`f64` parameters of plain-`pub` fns and `pub` fields of
    /// `pub` structs must carry a unit suffix or a doc line stating
    /// units.
    pub fn rule_unit_hygiene(&mut self) {
        let mut hits = Vec::new();
        for f in &self.items.fns {
            if !f.is_pub || f.params.iter().all(|p| !p.is_f64) {
                continue;
            }
            let doc_ok = doc_states_units(&self.doc_above(f.start));
            for p in f.params.iter().filter(|p| p.is_f64) {
                if doc_ok || has_unit_suffix(&p.name) {
                    continue;
                }
                hits.push((
                    p.offset,
                    format!(
                        "`{}: f64` parameter of pub fn `{}` has no unit suffix \
                         ({}) and its doc comment does not state units",
                        p.name,
                        f.name,
                        UNIT_SUFFIXES.join(", ")
                    ),
                ));
            }
        }
        for st in &self.items.structs {
            if !st.is_pub {
                continue;
            }
            for fld in st.fields.iter().filter(|f| f.is_pub && f.is_f64) {
                if has_unit_suffix(&fld.name) || doc_states_units(&self.doc_above(fld.start)) {
                    continue;
                }
                hits.push((
                    fld.offset,
                    format!(
                        "`pub {}: f64` field of struct `{}` has no unit suffix \
                         ({}) and its doc comment does not state units",
                        fld.name,
                        st.name,
                        UNIT_SUFFIXES.join(", ")
                    ),
                ));
            }
        }
        for (offset, message) in hits {
            self.push(offset, Rule::UnitHygiene, message);
        }
    }

    /// Collects the contiguous run of comment lines directly above the
    /// item starting at `offset`.
    fn doc_above(&self, offset: usize) -> String {
        let item_line = self.lines.line_of(offset);
        let mut doc = String::new();
        let mut line = item_line;
        while line > 1 {
            line -= 1;
            let Some((_, text)) = self
                .comments
                .iter()
                .find(|(off, _)| self.lines.line_of(*off) == line)
            else {
                break;
            };
            doc.push_str(text);
            doc.push('\n');
        }
        doc
    }
}

/// Does `name` end in an approved unit suffix?
pub(crate) fn has_unit_suffix(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    UNIT_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// Does the doc text state units — either a parenthesized unit symbol
/// like `(V)`, `(A/V)`, `(F/m²)`, `(ns)` or an explicit unit word like
/// "volts", "seconds", "dimensionless"?
pub(crate) fn doc_states_units(doc: &str) -> bool {
    if doc.is_empty() {
        return false;
    }
    // Parenthesized unit expressions. Resume the scan right after each
    // `(` (not after its `)`) so a long prose paren earlier in the doc
    // cannot swallow a later `(V)`.
    let mut rest = doc;
    while let Some(open) = rest.find('(') {
        let tail = &rest[open + 1..];
        if let Some(close) = tail.find(')') {
            if close <= 16 && is_unit_expr(&tail[..close]) {
                return true;
            }
        }
        rest = tail;
    }
    // Explicit unit words.
    let lower = doc.to_ascii_lowercase();
    lower
        .split(|c: char| !c.is_ascii_alphabetic())
        .any(|w| UNIT_WORDS.contains(&w))
}

/// `V`, `A/V`, `F/m²`, `C·V`, `1/s`, `kΩ` ... — every `/`- or
/// `·`-separated part must be a (possibly SI-prefixed, possibly
/// exponentiated) unit symbol.
fn is_unit_expr(expr: &str) -> bool {
    let expr = expr.trim();
    // A bare "(1)" is an equation reference, not a unit; "1" only
    // counts inside a compound like "(1/s)".
    if expr.is_empty() || expr == "1" {
        return false;
    }
    expr.split(['/', '·', '*']).all(|part| {
        let part = part
            .trim()
            .trim_end_matches([
                '2', '3', '4', '5', '6', '7', '8', '9', '^', '²', '³', '⁴', '⁵', '⁶', '⁷', '⁸', '⁹',
            ])
            .trim();
        if part.is_empty() {
            return false;
        }
        if UNIT_SYMBOLS.contains(&part) {
            return true;
        }
        let mut chars = part.chars();
        match chars.next() {
            Some(c) if SI_PREFIXES.contains(&c) => {
                let base = chars.as_str();
                !base.is_empty() && UNIT_SYMBOLS.contains(&base)
            }
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonzero_float_literal_classification() {
        assert!(nonzero_float_literal("1.5"));
        assert!(nonzero_float_literal("2.25e-9"));
        assert!(nonzero_float_literal("1e6"));
        assert!(nonzero_float_literal("3f64"));
        assert!(!nonzero_float_literal("0.0"));
        assert!(!nonzero_float_literal("0.0e0"));
        assert!(!nonzero_float_literal("3"));
        assert!(!nonzero_float_literal("0x1f"));
    }

    #[test]
    fn unit_suffix_matching() {
        assert!(has_unit_suffix("v_gate_v"));
        assert!(has_unit_suffix("t_pulse_s"));
        assert!(has_unit_suffix("freq_hz"));
        assert!(has_unit_suffix("cap_f"));
        assert!(!has_unit_suffix("voltage"));
        assert!(!has_unit_suffix("t_ms_x"));
        assert!(!has_unit_suffix("vdd_mv"), "prefixed units need a doc line");
    }

    #[test]
    fn doc_unit_detection() {
        assert!(doc_states_units("/// Gate voltage (V)."));
        assert!(doc_states_units("/// Ramp rate (V/s)."));
        assert!(doc_states_units("/// Areal capacitance (F/m²)."));
        assert!(doc_states_units("/// Rate (1/s)."));
        assert!(doc_states_units("/// Load resistance (kΩ)."));
        assert!(doc_states_units("/// Time in seconds."));
        assert!(doc_states_units("/// Landau β (m⁵/F/C²)."));
        assert!(
            doc_states_units("/// current (a Norton companion, not a Thevenin one) in `g` (S)."),
            "a long prose paren must not swallow a later unit paren"
        );
        assert!(doc_states_units("/// Dimensionless pulse shape factor."));
        assert!(
            !doc_states_units("/// The gate voltage."),
            "quantity, not unit"
        );
        assert!(!doc_states_units("/// See section (3) of the paper."));
        assert!(!doc_states_units("/// See equation (1)."));
        assert!(!doc_states_units(""));
    }
}
