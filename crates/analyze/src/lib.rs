//! # faure-analyze — diagnostics and lints for fauré-log programs
//!
//! A span-aware, non-fail-fast front end over the analysis passes in
//! [`faure_core::analysis`]. Where evaluation stops at the first
//! problem, `faure check` collects **every** problem in one run, tags
//! each with a stable error code, and renders them rustc-style with a
//! source snippet and carets:
//!
//! ```text
//! error[F0001]: unsafe variable `b`: not bound by any positive body atom
//!  --> prog.fl:1:6
//!   |
//! 1 | R(a, b) :- F(a).
//!   |      ^
//! ```
//!
//! ## Error codes
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | F0000 | error    | syntax error |
//! | F0001 | error    | unsafe (unbound) rule variable |
//! | F0002 | error    | negation through recursion (not stratifiable) |
//! | F0003 | error    | conflicting predicate arity |
//! | F0004 | warning  | rule head shadows an input relation |
//! | F0005 | warning  | dead rule (provably empty body predicate) |
//! | F0006 | warning  | undefined relation |
//! | F0007 | warning  | singleton (likely misspelled) variable |
//! | F0008 | warning  | statically unsatisfiable rule condition |
//!
//! The entry points are [`check_source`] (program text only) and
//! [`check_source_with_db`] (adds database-aware passes: schema arity,
//! shadowing, undefined relations, empty-input dead rules).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
pub mod feasible;
pub mod infer;

pub use domains::{AbsDom, Kind};
pub use feasible::{Infeasibility, RuleSemantics};
pub use infer::{infer, Columns, Inference};

use faure_core::analysis::{analyze, Finding};
use faure_core::parser::{parse_program_spanned, RuleSpans, Span, SpannedProgram};
use faure_ctable::Database;
use std::fmt;

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is rejected by evaluation.
    Error,
    /// The program evaluates, but something is probably wrong.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
        }
    }
}

/// One diagnostic: a coded, spanned message about the source program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable error code (`F0001`, …).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Byte span of the offending source text.
    pub span: Span,
    /// Index of the rule the diagnostic concerns (`usize::MAX` for
    /// syntax errors, which have no rule).
    pub rule: usize,
}

/// The result of checking a program: all diagnostics, in source order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Diagnostics sorted by span start, then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the program is clean.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every diagnostic rustc-style against `src`, labelling
    /// locations as `filename:line:col`.
    pub fn render(&self, src: &str, filename: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&render_diagnostic(d, src, filename));
            out.push('\n');
        }
        out
    }

    /// Renders every diagnostic as a JSON array (machine-readable
    /// `faure check --format json` output). Each element carries the
    /// stable code, severity, message, file, 1-based line/col of the
    /// span start, and the byte span itself:
    ///
    /// ```json
    /// [{"code":"F0001","severity":"error","message":"...",
    ///   "file":"prog.fl","line":1,"col":6,"span":{"start":5,"end":6}}]
    /// ```
    pub fn to_json(&self, src: &str, filename: &str) -> String {
        use faure_trace::json::{array, Str};
        let mut out = array(|items| {
            for d in &self.diagnostics {
                let (line, col) = line_col(src, d.span.start);
                items.object(|o| {
                    o.field("code", Str(d.code))
                        .field("severity", Str(d.severity))
                        .field("message", Str(&d.message))
                        .field("file", Str(filename))
                        .field("line", line)
                        .field("col", col);
                    o.object("span", |s| {
                        s.field("start", d.span.start).field("end", d.span.end);
                    });
                });
            }
        });
        out.push('\n');
        out
    }
}

/// Checks program text with the text-only passes.
pub fn check_source(src: &str) -> Report {
    check(src, None)
}

/// Checks program text including the database-aware passes (schema
/// arity, shadowed inputs, undefined relations, empty input relations).
pub fn check_source_with_db(src: &str, db: &Database) -> Report {
    check(src, Some(db))
}

fn check(src: &str, db: Option<&Database>) -> Report {
    let spanned = match parse_program_spanned(src) {
        Ok(sp) => sp,
        Err(e) => {
            // A syntax error preempts analysis: one diagnostic at the
            // failing byte.
            let at = e.pos.min(src.len());
            return Report {
                diagnostics: vec![Diagnostic {
                    code: "F0000",
                    severity: Severity::Error,
                    message: format!("syntax error: {}", e.msg),
                    span: Span::new(at, (at + 1).min(src.len()).max(at)),
                    rule: usize::MAX,
                }],
            };
        }
    };
    let findings = analyze(&spanned.program, db);
    let mut diagnostics: Vec<Diagnostic> = findings
        .iter()
        .map(|f| to_diagnostic(f, &spanned, src))
        .collect();
    let inference = infer::infer(&spanned.program, db);
    diagnostics.extend(semantic_diagnostics(&spanned, db, &inference));
    // Stable order: by span, then code — and exact duplicates (same
    // code, span, and message) collapse to one.
    diagnostics.sort_by(|a, b| {
        (a.span.start, a.span.end, a.code).cmp(&(b.span.start, b.span.end, b.code))
    });
    diagnostics.dedup();
    Report { diagnostics }
}

// ---------------------------------------------------------------------------
// semantic diagnostics (F0009–F0014), from the abstract interpretation
// ---------------------------------------------------------------------------

/// Maps the inference results to diagnostics F0009–F0014.
///
/// | code  | fires when |
/// |-------|------------|
/// | F0009 | two rules write different kinds (integer vs symbolic) into one column |
/// | F0010 | a body join is provably empty under the inferred domains |
/// | F0011 | a comparison contradicts a variable's atom-inferred domain |
/// | F0012 | a recursive rule copies its head verbatim from its own body |
/// | F0013 | (with db) a derived column stays completely unrestricted (⊤) |
/// | F0014 | (with db) a program constant/c-variable misses an input relation's actual domain |
fn semantic_diagnostics(
    spanned: &SpannedProgram,
    db: Option<&Database>,
    inf: &infer::Inference,
) -> Vec<Diagnostic> {
    let program = &spanned.program;
    let idb: std::collections::BTreeSet<&str> = program.idb_predicates();
    let reg = db.map(|d| &d.cvars);
    let mut out = Vec::new();

    // The span of head argument `col` of rule `ri` (atom fallback under
    // arity conflicts).
    let head_arg = |ri: usize, col: usize| -> Span {
        let spans = &spanned.spans[ri];
        spans.head.args.get(col).copied().unwrap_or(spans.head.atom)
    };
    let body_arg = |ri: usize, li: usize, col: usize| -> Span {
        let spans = &spanned.spans[ri];
        spans
            .body
            .get(li)
            .map(|a| a.args.get(col).copied().unwrap_or(a.atom))
            .unwrap_or(spans.rule)
    };

    // F0009: kind mismatch across rule head contributions, per column.
    // The first rule writing a definite kind into a column sets the
    // precedent; later rules writing the opposite kind are flagged.
    let mut col_kinds: std::collections::BTreeMap<(&str, usize), (usize, domains::Kind)> =
        std::collections::BTreeMap::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        let sem = &inf.rules[ri];
        if sem.infeasible.is_some() {
            continue;
        }
        for (col, arg) in rule.head.args.iter().enumerate() {
            let v = infer::arg_value(arg, sem, reg);
            let kind = match &v {
                AbsDom::Bottom | AbsDom::Top => continue,
                d => d.kind(),
            };
            if kind == domains::Kind::Mixed {
                continue;
            }
            match col_kinds.get(&(rule.head.pred.as_str(), col)) {
                None => {
                    col_kinds.insert((rule.head.pred.as_str(), col), (ri, kind));
                }
                Some(&(first, prior)) if prior != kind => {
                    out.push(Diagnostic {
                        code: "F0009",
                        severity: Severity::Warning,
                        message: format!(
                            "column {col} of `{}` holds {kind} values here but {prior} \
                             values in rule #{}: the column's type is inconsistent",
                            rule.head.pred,
                            first + 1,
                        ),
                        span: head_arg(ri, col),
                        rule: ri,
                    });
                }
                Some(_) => {}
            }
        }
    }

    // F0010 / F0011 / F0014: per-rule infeasibility proofs.
    for (ri, sem) in inf.rules.iter().enumerate() {
        let rule = &program.rules[ri];
        match &sem.infeasible {
            // Empty predicates are the dead-rule pass's territory
            // (F0005) — re-reporting them here would be noise.
            Some(Infeasibility::EmptyPredicate { .. }) | None => {}
            Some(Infeasibility::ConstOutsideDomain {
                literal,
                col,
                constant,
                predicate,
                domain,
            }) => {
                let is_input = db.is_some() && !idb.contains(predicate.as_str());
                out.push(Diagnostic {
                    code: if is_input { "F0014" } else { "F0010" },
                    severity: Severity::Warning,
                    message: if is_input {
                        format!(
                            "constant `{constant}` can never match input relation \
                             `{predicate}`: column {col} only holds {domain}"
                        )
                    } else {
                        format!(
                            "join can never succeed: `{constant}` is outside column \
                             {col} of `{predicate}`, which only holds {domain}"
                        )
                    },
                    span: body_arg(ri, *literal, *col),
                    rule: ri,
                });
            }
            Some(Infeasibility::CVarOutsideDomain {
                literal,
                col,
                cvar,
                predicate,
                domain,
            }) => {
                let is_input = db.is_some() && !idb.contains(predicate.as_str());
                out.push(Diagnostic {
                    code: if is_input { "F0014" } else { "F0010" },
                    severity: Severity::Warning,
                    message: format!(
                        "c-variable `${cvar}`'s domain is disjoint from column {col} of \
                         `{predicate}`, which only holds {domain}"
                    ),
                    span: body_arg(ri, *literal, *col),
                    rule: ri,
                });
            }
            Some(Infeasibility::DisjointColumns {
                literal,
                col,
                variable,
                before,
                here,
            }) => {
                out.push(Diagnostic {
                    code: "F0010",
                    severity: Severity::Warning,
                    message: format!(
                        "join can never succeed: `{variable}` ranges over {before} from \
                         earlier atoms, but column {col} here only holds {here}"
                    ),
                    span: body_arg(ri, *literal, *col),
                    rule: ri,
                });
            }
            Some(Infeasibility::Comparison {
                comparison,
                variable,
                atom_domain,
                against_atoms,
            }) => {
                // Contradictions among the comparisons themselves are
                // F0008's territory; F0011 fires only when a comparison
                // contradicts what the *atoms* prove.
                if !against_atoms {
                    continue;
                }
                let spans = &spanned.spans[ri];
                out.push(Diagnostic {
                    code: "F0011",
                    severity: Severity::Warning,
                    message: format!(
                        "comparison contradicts the inferred domain of `{variable}`: \
                         the body atoms constrain it to {atom_domain}"
                    ),
                    span: spans
                        .comparisons
                        .get(*comparison)
                        .copied()
                        .unwrap_or(spans.rule),
                    rule: ri,
                });
            }
        }
        // F0012: the head is copied verbatim from a positive body atom
        // of the same predicate — the rule can never derive a new tuple,
        // so the recursion cannot grow its predicate.
        if let Some(li) = rule.body.iter().position(|lit| {
            !lit.is_negative()
                && lit.atom().pred == rule.head.pred
                && lit.atom().args == rule.head.args
        }) {
            let spans = &spanned.spans[ri];
            out.push(Diagnostic {
                code: "F0012",
                severity: Severity::Warning,
                message: format!(
                    "recursion cannot grow `{}`: the head is copied unchanged from \
                     body atom #{} — the rule never derives a new tuple",
                    rule.head.pred,
                    li + 1,
                ),
                span: spans.rule,
                rule: ri,
            });
        }
    }

    // F0013: with a database, every input column has a concrete domain,
    // so a derived column still at ⊤ means no rule ever restricts it —
    // usually a missing filter or an open c-variable flowing through.
    if db.is_some() {
        for (pred, cols) in &inf.columns {
            if !idb.contains(pred.as_str()) || !inf.nonempty.contains(pred) {
                continue;
            }
            for (col, dom) in cols.iter().enumerate() {
                if *dom != AbsDom::Top {
                    continue;
                }
                // Blame the first feasible rule whose head contribution
                // is ⊤ at this column.
                let Some(ri) = program.rules.iter().enumerate().position(|(ri, r)| {
                    r.head.pred == *pred
                        && inf.rules[ri].infeasible.is_none()
                        && r.head.args.get(col).is_some_and(|arg| {
                            infer::arg_value(arg, &inf.rules[ri], reg) == AbsDom::Top
                        })
                }) else {
                    continue;
                };
                out.push(Diagnostic {
                    code: "F0013",
                    severity: Severity::Warning,
                    message: format!(
                        "column {col} of `{pred}` is never restricted: it can hold any \
                         value (⊤) — likely a missing filter"
                    ),
                    span: head_arg(ri, col),
                    rule: ri,
                });
            }
        }
    }

    out
}

/// Maps a structural finding to a coded, spanned diagnostic.
fn to_diagnostic(f: &Finding, spanned: &SpannedProgram, src: &str) -> Diagnostic {
    let spans = &spanned.spans[f.rule()];
    let (code, severity, span) = match f {
        Finding::UnsafeVariable { variable, .. } => (
            "F0001",
            Severity::Error,
            var_span(spans, src, variable).unwrap_or(spans.rule),
        ),
        Finding::NegativeCycle { .. } => ("F0002", Severity::Error, spans.head.atom),
        Finding::ArityConflict { literal, .. } => (
            "F0003",
            Severity::Error,
            match literal {
                Some(li) => spans.body[*li].atom,
                None => spans.head.atom,
            },
        ),
        Finding::ShadowedInput { .. } => ("F0004", Severity::Warning, spans.head.atom),
        Finding::DeadRule { .. } => ("F0005", Severity::Warning, spans.rule),
        Finding::UndefinedPredicate { literal, .. } => {
            ("F0006", Severity::Warning, spans.body[*literal].atom)
        }
        Finding::SingletonVariable { variable, .. } => (
            "F0007",
            Severity::Warning,
            var_span(spans, src, variable).unwrap_or(spans.rule),
        ),
        Finding::UnsatisfiableRule { .. } => (
            "F0008",
            Severity::Warning,
            comparisons_span(spans).unwrap_or(spans.rule),
        ),
    };
    Diagnostic {
        code,
        severity,
        message: f.to_string(),
        span,
        rule: f.rule(),
    }
}

/// The span of the first occurrence of rule variable `name` in the
/// rule: argument positions first (head, then body), then comparisons.
fn var_span(spans: &RuleSpans, src: &str, name: &str) -> Option<Span> {
    std::iter::once(&spans.head)
        .chain(spans.body.iter())
        .flat_map(|a| a.args.iter())
        .find(|s| src.get(s.start..s.end) == Some(name))
        .or_else(|| {
            // Fall back to the whole comparison mentioning the
            // variable as a word.
            spans.comparisons.iter().find(|s| {
                src.get(s.start..s.end)
                    .is_some_and(|text| mentions_word(text, name))
            })
        })
        .copied()
}

/// Whether `text` contains `name` as a standalone identifier.
fn mentions_word(text: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(i) = text[from..].find(name) {
        let at = from + i;
        let before_ok = !text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| is_ident(c) || c == '$');
        let after_ok = !text[at + name.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        from = at + name.len();
    }
    false
}

/// The span covering all comparisons of a rule.
fn comparisons_span(spans: &RuleSpans) -> Option<Span> {
    let first = spans.comparisons.first()?;
    let last = spans.comparisons.last()?;
    Some(Span::new(first.start, last.end))
}

// ---------------------------------------------------------------------------
// --explain
// ---------------------------------------------------------------------------

/// The long-form explanation of a diagnostic code (`faure check
/// --explain F0010`), or `None` for an unknown code.
pub fn explain_code(code: &str) -> Option<&'static str> {
    Some(match code {
        "F0000" => {
            "F0000: syntax error\n\n\
             The program text does not parse as fauré-log. The diagnostic points\n\
             at the first byte the parser could not consume. Everything after a\n\
             syntax error is unchecked: fix it first, then re-run `faure check`\n\
             to see the remaining diagnostics."
        }
        "F0001" => {
            "F0001: unsafe (unbound) rule variable\n\n\
             Every variable in a rule head, comparison, or negated atom must\n\
             also appear in at least one positive body atom — otherwise its\n\
             range is unbounded and the rule has no finite meaning. Bind the\n\
             variable in a positive atom, or replace it with a constant."
        }
        "F0002" => {
            "F0002: negation through recursion\n\n\
             The program negates a predicate inside its own recursive cycle, so\n\
             no stratification exists and the fixpoint is not well-defined.\n\
             Break the cycle: derive the negated predicate in an earlier\n\
             stratum, or drop the negation."
        }
        "F0003" => {
            "F0003: conflicting predicate arity\n\n\
             The same predicate is used with different argument counts (or a\n\
             count that disagrees with the database schema). Every use of a\n\
             predicate must have the same arity."
        }
        "F0004" => {
            "F0004: rule head shadows an input relation\n\n\
             A rule derives into a predicate that also holds stored tuples in\n\
             the database. Evaluation unions the two, which is legal but almost\n\
             always surprising. Rename the derived predicate if the overlap is\n\
             unintended."
        }
        "F0005" => {
            "F0005: dead rule\n\n\
             A positive body atom ranges over a predicate that is provably\n\
             empty — never stored, never derived — so the rule can never fire.\n\
             Check the predicate name for typos."
        }
        "F0006" => {
            "F0006: undefined relation\n\n\
             A body atom references a predicate that neither the database nor\n\
             any rule head defines. It evaluates as empty; this is usually a\n\
             misspelling."
        }
        "F0007" => {
            "F0007: singleton variable\n\n\
             A variable occurs exactly once in the rule. It joins nothing and\n\
             constrains nothing, which often hides a typo (`adress` vs\n\
             `address`). Use the variable twice, or rename deliberately\n\
             throw-away variables to something like `_x` by convention."
        }
        "F0008" => {
            "F0008: statically unsatisfiable rule condition\n\n\
             The rule's comparison atoms contradict each other (for example\n\
             `a < 2, a > 5`), so the body can never be satisfied in any world\n\
             and the rule is dead weight."
        }
        "F0009" => {
            "F0009: inconsistent column type across rules\n\n\
             Two rules write provably different kinds of values — integers in\n\
             one, symbols in the other — into the same column of a predicate.\n\
             The abstract interpreter infers each column's domain from every\n\
             rule that derives into it; a kind mismatch almost always means two\n\
             rules disagree about the predicate's schema (e.g. `Cost(f, 3)` vs\n\
             `Cost(f, High)`)."
        }
        "F0010" => {
            "F0010: provably empty join\n\n\
             Under the inferred per-column domains, a body join can never\n\
             produce a row: a shared variable's occurrences have disjoint\n\
             domains, or a constant argument lies outside the derived\n\
             predicate's inferred column domain. The rule is unsatisfiable in\n\
             every world, over every database consistent with the program."
        }
        "F0011" => {
            "F0011: comparison contradicts inferred domain\n\n\
             A comparison like `a > 100` contradicts what the body atoms\n\
             already prove about `a` (e.g. that it only holds values in\n\
             [0..2]). Unlike F0008, which finds contradictions *between*\n\
             comparisons, F0011 checks each comparison against the abstract\n\
             interpretation of the atoms."
        }
        "F0012" => {
            "F0012: recursion cannot grow its domain\n\n\
             A recursive rule copies its head verbatim from a positive body\n\
             atom of the same predicate (`P(a, b) :- P(a, b), ...`), so every\n\
             tuple it derives is already present and the rule can never add\n\
             anything. Usually one of the head arguments was meant to change."
        }
        "F0013" => {
            "F0013: head column never restricted\n\n\
             With a database every input column has a concrete finite domain,\n\
             so a derived column whose inferred domain is still ⊤ (any value)\n\
             means no rule ever restricts it — typically an open c-variable\n\
             flows through unchecked, or a filter was forgotten. Reported only\n\
             when a database is supplied."
        }
        "F0014" => {
            "F0014: constant incompatible with input relation\n\n\
             A program constant (or domain-restricted c-variable) used as an\n\
             argument to an input relation can never match the relation's\n\
             actual contents under the supplied database: the value lies\n\
             outside everything the column holds. The atom — and therefore the\n\
             rule — matches nothing. Reported only when a database is supplied."
        }
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------------

/// Renders one diagnostic with a source snippet and caret underline.
fn render_diagnostic(d: &Diagnostic, src: &str, filename: &str) -> String {
    let (line_no, col) = line_col(src, d.span.start);
    let line_start = src[..d.span.start.min(src.len())]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let line_end = src[line_start..]
        .find('\n')
        .map(|i| line_start + i)
        .unwrap_or(src.len());
    let line_text = &src[line_start..line_end];

    // Caret run: from the span start to its end, clipped to this line,
    // at least one caret wide.
    let caret_start = col - 1;
    let caret_len = d.span.end.min(line_end).saturating_sub(d.span.start).max(1);

    let gutter = line_no.to_string();
    let pad = " ".repeat(gutter.len());
    format!(
        "{severity}[{code}]: {message}\n\
         {pad}--> {filename}:{line_no}:{col}\n\
         {pad} |\n\
         {gutter} | {line_text}\n\
         {pad} | {indent}{carets}\n",
        severity = d.severity,
        code = d.code,
        message = d.message,
        indent = " ".repeat(caret_start),
        carets = "^".repeat(caret_len),
    )
}

/// 1-based line and byte column of a byte offset.
fn line_col(src: &str, pos: usize) -> (usize, usize) {
    let pos = pos.min(src.len());
    let line = src[..pos].matches('\n').count() + 1;
    let col = pos - src[..pos].rfind('\n').map(|i| i + 1).unwrap_or(0) + 1;
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn span_text<'s>(src: &'s str, d: &Diagnostic) -> &'s str {
        &src[d.span.start..d.span.end]
    }

    // --- F0001: unsafe variables ---------------------------------------

    #[test]
    fn f0001_unsafe_variable_with_span() {
        let src = "R(a, b) :- F(a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0001"]);
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(span_text(src, d), "b");
        assert!(d.message.contains("unsafe variable `b`"));
    }

    #[test]
    fn f0001_clean() {
        assert!(check_source("R(a, b) :- F(a, b).\n").is_empty());
    }

    // --- F0002: negation through recursion ------------------------------

    #[test]
    fn f0002_negative_cycle_flags_both_predicates() {
        let src = "P(a) :- N(a), !Q(a).\nQ(a) :- N(a), !P(a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0002", "F0002"]);
        assert_eq!(span_text(src, &report.diagnostics[0]), "P(a)");
        assert_eq!(span_text(src, &report.diagnostics[1]), "Q(a)");
        assert!(report.has_errors());
    }

    #[test]
    fn f0002_clean_stratified_negation() {
        let src = "R(a) :- N(a).\nBad(a) :- N(a), !R(a).\n";
        assert!(check_source(src).is_empty());
    }

    // --- F0003: arity conflicts -----------------------------------------

    #[test]
    fn f0003_arity_conflict_points_at_conflicting_use() {
        let src = "R(a, b) :- F(a, b).\nS(a) :- R(a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0003"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "R(a)");
        assert!(d.message.contains("arity is 2"));
    }

    #[test]
    fn f0003_clean_consistent_arity() {
        assert!(check_source("R(a, b) :- F(a, b).\nS(a) :- R(a, a).\n").is_empty());
    }

    // --- F0004: shadowed input relations --------------------------------

    #[test]
    fn f0004_head_shadowing_edb_relation() {
        let mut db = Database::new();
        db.create_relation(faure_ctable::Schema::new("F", &["a"]))
            .unwrap();
        db.insert("F", faure_ctable::CTuple::new([faure_ctable::Term::int(1)]))
            .unwrap();
        let src = "F(a) :- G(a).\nG(1).\n";
        let report = check_source_with_db(src, &db);
        assert!(codes(&report).contains(&"F0004"));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F0004")
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(span_text(src, d), "F(a)");
    }

    #[test]
    fn f0004_clean_without_collision() {
        let mut db = Database::new();
        db.create_relation(faure_ctable::Schema::new("F", &["a"]))
            .unwrap();
        db.insert("F", faure_ctable::CTuple::new([faure_ctable::Term::int(1)]))
            .unwrap();
        assert!(check_source_with_db("R(a) :- F(a).\n", &db).is_empty());
    }

    // --- F0005: dead rules ----------------------------------------------

    #[test]
    fn f0005_self_recursive_predicate_without_base_case() {
        let src = "P(a) :- P(a).\n";
        let report = check_source(src);
        // The self-copy also triggers F0012 (recursion cannot grow).
        assert_eq!(codes(&report), vec!["F0005", "F0012"]);
        assert_eq!(span_text(src, &report.diagnostics[0]), "P(a) :- P(a).");
        assert!(!report.has_errors());
    }

    #[test]
    fn f0005_clean_with_base_case() {
        // The base case silences F0005, but the verbatim self-copy in
        // rule 2 still can never derive a new tuple (F0012).
        let report = check_source("P(a) :- E(a).\nP(a) :- P(a).\n");
        assert_eq!(codes(&report), vec!["F0012"]);
        assert!(check_source("P(a) :- E(a).\nP(b) :- E2(a, b), P(a).\n").is_empty());
    }

    // --- F0006: undefined relations -------------------------------------

    #[test]
    fn f0006_undefined_relation_with_db() {
        let db = Database::new();
        let src = "R(a) :- Missing(a).\n";
        let report = check_source_with_db(src, &db);
        assert!(codes(&report).contains(&"F0006"));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "F0006")
            .unwrap();
        assert_eq!(span_text(src, d), "Missing(a)");
    }

    #[test]
    fn f0006_clean_when_relation_exists() {
        let mut db = Database::new();
        db.create_relation(faure_ctable::Schema::new("F", &["a"]))
            .unwrap();
        db.insert("F", faure_ctable::CTuple::new([faure_ctable::Term::int(1)]))
            .unwrap();
        assert!(check_source_with_db("R(a) :- F(a).\n", &db).is_empty());
    }

    // --- F0007: singleton variables -------------------------------------

    #[test]
    fn f0007_singleton_variable_span() {
        let src = "R(a) :- F(a, b).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0007"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "b");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn f0007_clean_when_variable_shared() {
        assert!(check_source("R(a, b) :- F(a, b).\n").is_empty());
    }

    // --- F0008: unsatisfiable conditions --------------------------------

    #[test]
    fn f0008_contradictory_interval() {
        let src = "R(a) :- F(a), a < 2, a > 5.\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0008"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "a < 2, a > 5");
        assert!(d.message.contains("a < 2"));
        assert!(d.message.contains("a > 5"));
    }

    #[test]
    fn f0008_clean_satisfiable_bounds() {
        assert!(check_source("R(a) :- F(a), a > 2, a < 5.\n").is_empty());
    }

    // --- F0009..F0014: semantic diagnostics -----------------------------

    fn db_small() -> Database {
        use faure_ctable::{CTuple, Domain, Schema, Term};
        let mut db = Database::new();
        db.fresh_cvar("v", Domain::Ints(vec![0, 1, 2]));
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.insert("E", CTuple::new([Term::int(0), Term::int(1)]))
            .unwrap();
        db.insert("E", CTuple::new([Term::int(1), Term::int(2)]))
            .unwrap();
        db
    }

    #[test]
    fn f0009_kind_mismatch_across_rules() {
        let src = "Cost(a, 3) :- E(a, a).\nCost(a, High) :- E(a, a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0009"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "High");
        assert!(d.message.contains("symbolic"), "{}", d.message);
        assert!(d.message.contains("integer"), "{}", d.message);
        // Consistent kinds stay silent.
        assert!(check_source("Cost(a, 3) :- E(a, a).\nCost(a, 4) :- E(a, a).\n").is_empty());
    }

    #[test]
    fn f0010_provably_empty_join() {
        // P's only column holds {1, 2}; Q's holds {7}. Joining them on
        // one variable can never succeed.
        let src = "P(1).\nP(2).\nQ(7).\nR(a) :- P(a), Q(a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0010"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "a");
        assert!(
            d.message.contains("join can never succeed"),
            "{}",
            d.message
        );
        // Overlapping domains stay silent.
        assert!(check_source("P(1).\nP(2).\nQ(2).\nR(a) :- P(a), Q(a).\n").is_empty());
    }

    #[test]
    fn f0010_constant_outside_derived_domain() {
        let src = "P(1).\nP(2).\nR(a) :- P(7), E(a, a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0010"]);
        assert_eq!(span_text(src, &report.diagnostics[0]), "7");
    }

    #[test]
    fn f0011_comparison_contradicts_inferred_domain() {
        let db = db_small();
        let src = "R(a, b) :- E(a, b), a > 100.\n";
        let report = check_source_with_db(src, &db);
        assert_eq!(codes(&report), vec!["F0011"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "a > 100");
        assert!(d.message.contains("{0, 1}"), "{}", d.message);
        // A satisfiable comparison stays silent.
        assert!(check_source_with_db("R(a, b) :- E(a, b), a > 0.\n", &db).is_empty());
        // Comparison-vs-comparison contradictions stay F0008's call.
        let r = check_source_with_db("R(a, b) :- E(a, b), a < 2, a > 5.\n", &db);
        assert!(codes(&r).contains(&"F0008"), "{:?}", codes(&r));
        assert!(!codes(&r).contains(&"F0011"), "{:?}", codes(&r));
    }

    #[test]
    fn f0012_recursion_cannot_grow() {
        let src = "P(a) :- E(a, a).\nP(a) :- P(a), E(a, a).\n";
        let report = check_source(src);
        assert_eq!(codes(&report), vec!["F0012"]);
        assert!(
            report.diagnostics[0].message.contains("never derives"),
            "{}",
            report.diagnostics[0].message
        );
        // Real recursion (argument changes) stays silent.
        assert!(check_source("P(a) :- E(a, a).\nP(b) :- P(a), E(a, b).\n").is_empty());
    }

    #[test]
    fn f0013_unrestricted_head_column_with_db() {
        use faure_ctable::{CTuple, Domain, Schema, Term};
        let mut db = Database::new();
        let open = db.fresh_cvar("port", Domain::Open);
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.insert("E", CTuple::new([Term::int(0), Term::Var(open)]))
            .unwrap();
        let src = "R(a, b) :- E(a, b).\n";
        let report = check_source_with_db(src, &db);
        assert_eq!(codes(&report), vec!["F0013"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "b");
        assert!(d.message.contains("never restricted"), "{}", d.message);
        // A filter on the open column silences it.
        assert!(check_source_with_db("R(a, b) :- E(a, b), b < 100.\n", &db).is_empty());
        // Without a database F0013 never fires (everything would be ⊤).
        assert!(check_source(src).is_empty());
    }

    #[test]
    fn f0014_constant_incompatible_with_input() {
        let db = db_small();
        let src = "R(b) :- E(9, b).\n";
        let report = check_source_with_db(src, &db);
        assert_eq!(codes(&report), vec!["F0014"]);
        let d = &report.diagnostics[0];
        assert_eq!(span_text(src, d), "9");
        assert!(d.message.contains("input relation"), "{}", d.message);
        // A constant the input actually holds stays silent.
        assert!(check_source_with_db("R(b) :- E(1, b).\n", &db).is_empty());
    }

    #[test]
    fn duplicate_diagnostics_are_deduped_and_ordered() {
        // One atom triggering two different codes keeps both, ordered by
        // (span, code); exact duplicates collapse.
        let report = check_source("P(a) :- P(a).\n");
        let mut seen = report.diagnostics.clone();
        seen.dedup();
        assert_eq!(seen.len(), report.diagnostics.len());
        let keys: Vec<(usize, usize, &str)> = report
            .diagnostics
            .iter()
            .map(|d| (d.span.start, d.span.end, d.code))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn explain_code_covers_all_codes() {
        for n in 0..=14 {
            let code = format!("F{n:04}");
            let text = explain_code(&code).expect("explanation");
            assert!(text.starts_with(&code), "{code}: {text}");
        }
        assert!(explain_code("F9999").is_none());
        assert!(explain_code("nonsense").is_none());
    }

    // --- F0000: syntax errors -------------------------------------------

    #[test]
    fn f0000_syntax_error() {
        let report = check_source("R(a :- F(a).\n");
        assert_eq!(codes(&report), vec!["F0000"]);
        assert!(report.has_errors());
    }

    // --- collection and rendering ---------------------------------------

    #[test]
    fn multiple_diagnostics_in_one_run() {
        // Unsafe variable, singleton, and unsatisfiable condition all
        // reported together: the analyzer is not fail-fast.
        let src = "R(a, z) :- F(a, b).\nS(a) :- F(a, a), 1 > 2.\n";
        let report = check_source(src);
        let got = codes(&report);
        assert!(got.contains(&"F0001"), "{got:?}");
        assert!(got.contains(&"F0007"), "{got:?}");
        assert!(got.contains(&"F0008"), "{got:?}");
    }

    #[test]
    fn diagnostics_sorted_by_source_position() {
        let src = "S(a) :- F(a), 1 > 2.\nR(a, z) :- F(a).\n";
        let report = check_source(src);
        let starts: Vec<usize> = report.diagnostics.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn renderer_points_carets_at_the_span() {
        let src = "R(a, b) :- F(a).\n";
        let report = check_source(src);
        let rendered = report.render(src, "prog.fl");
        assert!(rendered.contains("error[F0001]"), "{rendered}");
        assert!(rendered.contains("--> prog.fl:1:6"), "{rendered}");
        assert!(rendered.contains("1 | R(a, b) :- F(a)."), "{rendered}");
        // The caret sits under column 6.
        let caret_line = rendered
            .lines()
            .find(|l| l.contains('^'))
            .expect("caret line");
        assert_eq!(caret_line.find('^'), Some("  | ".len() + 5), "{rendered}");
    }

    #[test]
    fn renderer_reports_line_numbers_past_one() {
        let src = "Ok(a) :- F(a).\nR(a, b) :- F(a).\n";
        let rendered = check_source(src).render(src, "x.fl");
        assert!(rendered.contains("--> x.fl:2:6"), "{rendered}");
    }

    // --- JSON output ------------------------------------------------------

    #[test]
    fn json_output_carries_code_location_and_span() {
        let src = "R(a, b) :- F(a).\n";
        let json = check_source(src).to_json(src, "prog.fl");
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("\"code\":\"F0001\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"file\":\"prog.fl\""), "{json}");
        assert!(json.contains("\"line\":1"), "{json}");
        assert!(json.contains("\"col\":6"), "{json}");
        assert!(json.contains("\"span\":{\"start\":5,\"end\":6}"), "{json}");
    }

    #[test]
    fn json_output_escapes_message_strings() {
        // Backtick-quoted identifiers are fine, but a message containing
        // quotes (e.g. from a syntax error echoing source) must escape.
        let src = "R(a) :- F(a), a != \"x\\\"y\".\n";
        let report = check_source(src);
        let json = report.to_json(src, "q.fl");
        // Valid JSON: every unescaped quote is structural. Cheap check:
        // the escape sequence survives and the array parses brackets.
        assert!(json.ends_with("]\n"), "{json}");
        // An empty report is an empty array.
        assert_eq!(check_source("R(a) :- F(a).\n").to_json("", "f"), "[]\n");
    }
}
