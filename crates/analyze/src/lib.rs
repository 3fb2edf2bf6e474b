//! # orchestra-analyze
//!
//! A multi-pass static analyzer for the mapping/datalog programs the CDSS
//! evaluates. The paper's update exchange is a chase over compiled schema
//! mappings with Skolem functions; whether that chase *terminates* is a
//! static property of the program — weak acyclicity of its position
//! dependency graph (Fagin et al., *Data Exchange: Semantics and Query
//! Answering*). This crate decides it, along with every other program-level
//! precondition the engine otherwise discovers the hard way, and reports
//! each finding as a structured [`Diagnostic`] with a stable code:
//!
//! | code | finding |
//! |------|---------|
//! | `E001` | weak-acyclicity violation — a Skolem-creating head position lies on a cycle |
//! | `E002` | head variable not bound by a positive body atom |
//! | `E003` | negated-atom variable not bound by a positive body atom |
//! | `E004` | Skolem term in a rule body |
//! | `E005` | relation used with conflicting arities |
//! | `E006` | program negates through recursion (not stratifiable) |
//! | `E007` | rule derives a declared edb relation |
//! | `W001` | derived relation never used (and not an output root) |
//! | `W002` | rule body requires an atom both positively and negatively |
//! | `W003` | all-Skolem head — derives only labeled nulls, never certain answers |
//! | `W004` | body references a relation nothing can populate |
//!
//! ```
//! use orchestra_analyze::{Analyzer, Code};
//! use orchestra_datalog::parse_program;
//!
//! // Invented nulls feed the join that invents the next one: diverges.
//! let program = parse_program("R(y, #f0(y)) :- R(x, y).").unwrap();
//! let report = Analyzer::new().analyze(&program);
//! assert_eq!(report.errors().next().unwrap().code, Code::E001);
//! assert!(Analyzer::new().check(&program).is_err());
//! ```
//!
//! The crate is hermetic (depends only on `orchestra-datalog`): `crates/core`
//! runs it at registration and `update_exchange` entry, `crates/net` rejects
//! wire-submitted mappings with the rendered report, and the `orchestra-lint`
//! binary runs it offline over program files.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod diagnostics;
mod hygiene;
mod safety;
mod schema;
mod strat;
mod termination;

use std::collections::BTreeSet;
use std::fmt;

use orchestra_datalog::{Program, SourceSpan};

pub use diagnostics::{Code, Diagnostic, RuleRef, Severity};

/// The analyzer: configuration plus the pass pipeline.
///
/// Two optional pieces of context sharpen the findings:
///
/// * [`with_declared_edbs`](Analyzer::with_declared_edbs) — the relations the
///   caller knows to be extensional. Enables `E007` (a rule deriving into an
///   edb) and `W004` (a body relation nothing can populate).
/// * [`with_roots`](Analyzer::with_roots) — relations that are outputs in
///   their own right (queried by users, exported over the wire). Exempts
///   them from `W001`.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    declared_edbs: Option<BTreeSet<String>>,
    roots: BTreeSet<String>,
}

impl Analyzer {
    /// An analyzer with no schema context: all error passes run, `E007` and
    /// `W004` are skipped, and every unused relation warns.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Declare the extensional relations (enables `E007`/`W004`).
    pub fn with_declared_edbs<I, S>(mut self, edbs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.declared_edbs = Some(edbs.into_iter().map(Into::into).collect());
        self
    }

    /// Declare output roots exempt from the unused-relation warning.
    pub fn with_roots<I, S>(mut self, roots: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.roots.extend(roots.into_iter().map(Into::into));
        self
    }

    /// Run every pass and collect all findings (errors and warnings).
    pub fn analyze(&self, program: &Program) -> AnalysisReport {
        let mut diagnostics = Vec::new();
        schema::check(program, self.declared_edbs.as_ref(), &mut diagnostics);
        safety::check(program, &mut diagnostics);
        termination::check(program, &mut diagnostics);
        strat::check(program, &mut diagnostics);
        hygiene::check(
            program,
            self.declared_edbs.as_ref(),
            &self.roots,
            &mut diagnostics,
        );
        // Errors before warnings; within a severity, keep pass order (schema
        // problems explain downstream findings) but sort by anchored rule so
        // reports read top-to-bottom through the program.
        diagnostics.sort_by_key(|d| {
            (
                std::cmp::Reverse(d.severity),
                d.rule_span.as_ref().map_or(usize::MAX, |r| r.index),
                d.code,
            )
        });
        AnalysisReport { diagnostics }
    }

    /// Like [`analyze`](Analyzer::analyze), but package a report containing
    /// errors as an [`AnalysisError`] (warnings alone still pass).
    pub fn check(&self, program: &Program) -> Result<AnalysisReport, AnalysisError> {
        let report = self.analyze(program);
        if report.has_errors() {
            Err(AnalysisError { report })
        } else {
            Ok(report)
        }
    }
}

/// All findings from one analyzer run, in render order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Every finding, errors first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The error findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// The warning findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.is_error())
    }

    /// Does the report contain at least one error?
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// No findings at all (not even warnings)?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Attach source byte spans to the rule anchors (`spans[i]` is rule `i`,
    /// as returned by [`orchestra_datalog::parse_program_spanned`]).
    pub fn attach_spans(&mut self, spans: &[SourceSpan]) {
        for diag in &mut self.diagnostics {
            if let Some(rule) = &mut diag.rule_span {
                rule.span = spans.get(rule.index).copied();
            }
        }
    }

    /// Render every finding as plain text (rule anchors as `rule N`).
    pub fn render(&self) -> String {
        self.render_inner(None)
    }

    /// Render with `file:line:col` anchors resolved against the source text
    /// the program was parsed from (requires [`attach_spans`](Self::attach_spans)).
    pub fn render_for_file(&self, file: &str, source: &str) -> String {
        self.render_inner(Some((file, source)))
    }

    fn render_inner(&self, source: Option<(&str, &str)>) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            diag.render_into(&mut out, source);
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        if errors > 0 || warnings > 0 {
            use std::fmt::Write;
            let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
        }
        out
    }
}

/// A program rejected by static analysis: the full report, of which at least
/// one finding is an error.
///
/// `Display` renders only the errors (the wire error message should not drown
/// the rejection in hygiene warnings); [`AnalysisError::report`] has
/// everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisError {
    report: AnalysisReport,
}

impl AnalysisError {
    /// Package a report as an error; `None` if the report has no errors.
    pub fn from_report(report: AnalysisReport) -> Option<Self> {
        report.has_errors().then_some(AnalysisError { report })
    }

    /// The full report, warnings included.
    pub fn report(&self) -> &AnalysisReport {
        &self.report
    }

    /// The distinct error codes present, in order (used to label
    /// `analyze_rejected_total`).
    pub fn error_codes(&self) -> Vec<Code> {
        let mut codes: Vec<Code> = self.report.errors().map(|d| d.code).collect();
        codes.dedup();
        codes
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let errors = self.report.errors().count();
        writeln!(
            f,
            "program rejected by static analysis ({errors} error(s)):"
        )?;
        let mut out = String::new();
        for diag in self.report.errors() {
            diag.render_into(&mut out, None);
        }
        f.write_str(out.trim_end())
    }
}

impl std::error::Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_datalog::{parse_program, parse_program_spanned};

    #[test]
    fn clean_program_has_empty_report() {
        let program = parse_program(
            "B_i(i, n) :- G_o(i, c, n).\n\
             U_i(n, #f0(n)) :- B_o(i, n).\n",
        )
        .unwrap();
        let report = Analyzer::new().with_roots(["B_i", "U_i"]).analyze(&program);
        assert!(report.is_clean(), "{}", report.render());
        assert!(Analyzer::new()
            .with_roots(["B_i", "U_i"])
            .check(&program)
            .is_ok());
    }

    #[test]
    fn errors_sort_before_warnings_and_render_counts() {
        let program = parse_program(
            "Dead(x) :- G(x).\n\
             R(y, #f0(y)) :- R(x, y).\n",
        )
        .unwrap();
        let report = Analyzer::new().analyze(&program);
        assert!(report.has_errors());
        let codes: Vec<Code> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::E001, Code::W001]);
        let text = report.render();
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
    }

    #[test]
    fn analysis_error_renders_only_errors() {
        let program = parse_program(
            "Dead(x) :- G(x).\n\
             R(y, #f0(y)) :- R(x, y).\n",
        )
        .unwrap();
        let err = Analyzer::new().check(&program).unwrap_err();
        assert_eq!(err.error_codes(), vec![Code::E001]);
        let text = err.to_string();
        assert!(text.contains("E001"));
        assert!(!text.contains("W001"));
        // Warnings alone do not reject.
        let warn_only = parse_program("Dead(x) :- G(x).").unwrap();
        assert!(Analyzer::new().check(&warn_only).is_ok());
    }

    #[test]
    fn spans_flow_into_file_renders() {
        let src = "% demo\nR(y, #f0(y)) :- R(x, y).\n";
        let (program, spans) = parse_program_spanned(src).unwrap();
        let mut report = Analyzer::new().with_roots(["R"]).analyze(&program);
        report.attach_spans(&spans);
        let text = report.render_for_file("demo.dl", src);
        assert!(text.contains("demo.dl:2:1"), "{text}");
    }

    #[test]
    fn multi_error_program_reports_every_class() {
        let program = parse_program(
            "B(x, y) :- G(x).\n\
             G(q) :- B(q, q), not G(q).\n",
        )
        .unwrap();
        let report = Analyzer::new().analyze(&program);
        let codes: BTreeSet<&str> = report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect();
        // E002 (y unbound), E005 (G arity 1 vs … consistent actually) — check
        // the ones that must fire:
        assert!(codes.contains("E002"), "{codes:?}");
        assert!(codes.contains("E006"), "{codes:?}");
    }
}
