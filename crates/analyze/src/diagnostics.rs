//! Structured findings: codes, severities, rule references and rendering.

use std::fmt;

use orchestra_datalog::{Rule, SourceSpan};

/// How serious a finding is.
///
/// Errors make a program unrunnable (the CDSS refuses to register or evaluate
/// it); warnings flag suspicious-but-legal constructs and never block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but legal; evaluation proceeds.
    Warning,
    /// The program is rejected before evaluation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes, one per analyzer finding kind.
///
/// `E` codes are errors, `W` codes warnings; the numbering is part of the
/// wire/CLI contract (clients grep for `E001`, metrics are labelled by code),
/// so codes are never renumbered — only appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Weak-acyclicity violation: a Skolem-creating head position lies on a
    /// cycle of the position dependency graph, so the chase may not terminate.
    E001,
    /// Unsafe head variable: a head variable is not bound by any positive
    /// body atom.
    E002,
    /// Unsafe negation: a variable of a negated body atom is not bound by any
    /// positive body atom.
    E003,
    /// Skolem term in a rule body (Skolem functions may only build values in
    /// heads).
    E004,
    /// A relation is used with two different arities.
    E005,
    /// The program negates through recursion and cannot be stratified.
    E006,
    /// A rule derives a relation that was declared extensional (edb).
    E007,
    /// A derived relation is never used by any rule body (and is not a
    /// declared output root).
    W001,
    /// A rule body requires the same atom both positively and negatively, so
    /// it can never be satisfied.
    W002,
    /// Every head column is a Skolem term, so every tuple the rule derives
    /// holds only labeled nulls and is never a certain answer.
    W003,
    /// A rule body references a relation that is neither derived by any rule
    /// nor a declared edb, so the rule can never fire.
    W004,
}

impl Code {
    /// The canonical `E00x`/`W00x` spelling (used in renders and as the
    /// `code` label on `analyze_rejected_total`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E003 => "E003",
            Code::E004 => "E004",
            Code::E005 => "E005",
            Code::E006 => "E006",
            Code::E007 => "E007",
            Code::W001 => "W001",
            Code::W002 => "W002",
            Code::W003 => "W003",
            Code::W004 => "W004",
        }
    }

    /// The severity implied by the code class.
    pub fn severity(&self) -> Severity {
        match self {
            Code::E001
            | Code::E002
            | Code::E003
            | Code::E004
            | Code::E005
            | Code::E006
            | Code::E007 => Severity::Error,
            Code::W001 | Code::W002 | Code::W003 | Code::W004 => Severity::Warning,
        }
    }

    /// One-line description of the finding class (for docs and `--explain`).
    pub fn title(&self) -> &'static str {
        match self {
            Code::E001 => "weak-acyclicity violation (chase may not terminate)",
            Code::E002 => "unsafe head variable",
            Code::E003 => "unsafe variable under negation",
            Code::E004 => "Skolem term in rule body",
            Code::E005 => "arity conflict",
            Code::E006 => "program is not stratifiable",
            Code::E007 => "rule derives a declared edb relation",
            Code::W001 => "derived relation is never used",
            Code::W002 => "rule body is unsatisfiable",
            Code::W003 => "head derives only labeled nulls",
            Code::W004 => "rule depends on an unknown relation",
        }
    }

    /// Every code, in rendering order (errors first).
    pub const ALL: [Code; 11] = [
        Code::E001,
        Code::E002,
        Code::E003,
        Code::E004,
        Code::E005,
        Code::E006,
        Code::E007,
        Code::W001,
        Code::W002,
        Code::W003,
        Code::W004,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A reference to the rule a diagnostic is about: its index in the program,
/// its rendered text, and (when the program came from a source file) its byte
/// span in that file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleRef {
    /// Zero-based index of the rule in the analyzed program.
    pub index: usize,
    /// The rule, rendered back to datalog syntax.
    pub rendered: String,
    /// Byte span in the source text, if the program was parsed with
    /// [`orchestra_datalog::parse_program_spanned`].
    pub span: Option<SourceSpan>,
}

impl RuleRef {
    /// Build a reference to `rule` at position `index`.
    pub fn new(index: usize, rule: &Rule) -> Self {
        RuleRef {
            index,
            rendered: rule.to_string(),
            span: None,
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code identifying the finding class.
    pub code: Code,
    /// Severity (always `code.severity()`; stored for direct filtering).
    pub severity: Severity,
    /// The rule the finding is anchored to, if any (program-level findings
    /// such as E006 may span several rules; they anchor to one and list the
    /// rest in `notes`).
    pub rule_span: Option<RuleRef>,
    /// Human-readable, single-line statement of the problem.
    pub message: String,
    /// Supporting details: the cycle steps, where a relation was first used,
    /// and similar.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Create a diagnostic with no rule anchor or notes.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            rule_span: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Anchor the diagnostic to a rule.
    pub fn with_rule(mut self, index: usize, rule: &Rule) -> Self {
        self.rule_span = Some(RuleRef::new(index, rule));
        self
    }

    /// Append a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Is this an error (as opposed to a warning)?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render the diagnostic as text.
    ///
    /// When `source` is given as `(file_name, text)`, rule anchors with spans
    /// are rendered as `file:line:col`; otherwise as `rule N`.
    pub fn render_into(&self, out: &mut String, source: Option<(&str, &str)>) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(rule) = &self.rule_span {
            match (source, rule.span) {
                (Some((file, text)), Some(span)) => {
                    let (line, col) = orchestra_datalog::line_col(text, span.start);
                    let _ = writeln!(out, "  --> {}:{}:{} (rule {})", file, line, col, rule.index);
                }
                _ => {
                    let _ = writeln!(out, "  --> rule {}", rule.index);
                }
            }
            let _ = writeln!(out, "   | {}", rule.rendered);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  = note: {note}");
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render_into(&mut out, None);
        f.write_str(out.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_datalog::parse_rule;

    #[test]
    fn codes_are_stable_and_classed() {
        assert_eq!(Code::E001.as_str(), "E001");
        assert_eq!(Code::E001.severity(), Severity::Error);
        assert_eq!(Code::W003.severity(), Severity::Warning);
        for code in Code::ALL {
            assert_eq!(
                code.as_str().starts_with('E'),
                code.severity() == Severity::Error
            );
        }
    }

    #[test]
    fn render_with_and_without_source() {
        let rule = parse_rule("B(i, n) :- G(i, c, n).").unwrap();
        let diag = Diagnostic::new(Code::E002, "head variable `n` is unbound")
            .with_rule(0, &rule)
            .with_note("bind it in a positive body atom");
        let text = diag.to_string();
        assert!(text.starts_with("error[E002]: head variable `n` is unbound"));
        assert!(text.contains("--> rule 0"));
        assert!(text.contains("B(i, n) :- G(i, c, n)."));
        assert!(text.contains("= note: bind it"));

        let src = "B(i, n) :- G(i, c, n).";
        let mut spanned = diag.clone();
        spanned.rule_span.as_mut().unwrap().span = Some(SourceSpan {
            start: 0,
            end: src.len(),
        });
        let mut out = String::new();
        spanned.render_into(&mut out, Some(("prog.dl", src)));
        assert!(out.contains("--> prog.dl:1:1 (rule 0)"));
    }
}
