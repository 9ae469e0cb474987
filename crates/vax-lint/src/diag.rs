//! Structured lint diagnostics: severity, rule identity, site, report.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but tolerable drift; fails only under `--deny`.
    Warning,
    /// A broken invariant; always fails the lint.
    Error,
}

impl Severity {
    /// Lowercase label (`warning` / `error`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The rule catalog. Six families: image CFG/decode checks,
/// static-mix-vs-profile checks, table/taxonomy audits, probe
/// measurement-vs-model refutation checks, effect-audit checks of the
/// fast run loop's resume claim, and abstract-interpretation
/// verification of images (SMC freedom, stack depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    // ----- image family -----------------------------------------------------
    /// A byte range failed to decode as instructions (totality).
    ImageDecode,
    /// A branch or case target leaves the image or splits an instruction.
    ImageBranchTarget,
    /// A privileged opcode appears in a user-mode instruction stream.
    ImagePrivileged,
    /// A PUSHR/POPR or PUSHL idiom is not adjacent/balanced.
    ImagePushPop,
    /// Worst-case walker/bias/pointer consumption exceeds its arena.
    ImageWalkerBudget,
    /// A case instruction's table cannot be sized statically.
    ImageCaseTable,
    /// Decoded code not reachable from the entry or any function.
    ImageUnreachable,
    // ----- mix family -------------------------------------------------------
    /// A weighted category is absent, or a zero-weight category present.
    MixCategory,
    /// A category's static share drifts beyond tolerance.
    MixShare,
    /// An addressing-mode share drifts beyond tolerance.
    ModeShare,
    // ----- table family -----------------------------------------------------
    /// An opcode's operand templates are inconsistent with its flags.
    TableOpcode,
    /// The control store misses a dispatch address or opcode slot.
    UcodeCoverage,
    /// Control-store regions overlap or classify an address twice.
    UcodeOverlap,
    /// A hardware counter or event kind is missing from the taxonomy.
    CounterTaxonomy,
    // ----- probe family (measurement vs static model) -----------------------
    /// A measured addressing-mode row disagrees with the static model.
    ProbeMode,
    /// A measured opcode execute row disagrees with the static model.
    ProbeOpcode,
    /// A probe measurement is internally inconsistent (reconciliation,
    /// divisibility, cross-sequence agreement). Never allowlistable.
    ProbeMeasurement,
    /// A workload-exercised opcode × mode pair was not probed.
    ProbeCoverage,
    /// The probe allowlist is malformed, names unknown keys, or carries
    /// entries no measurement used.
    ProbeAllowlist,
    // ----- effect family (run-loop safety claim vs derivation) -------------
    /// An opcode claimed resume-safe has a derived footprint that can
    /// perturb interrupt state.
    EffectResumeSafe,
    /// An opcode the derivation proves resume-safe is claimed unsafe:
    /// run continuation foregone.
    EffectForgone,
    // ----- verify family (abstract interpretation over images) -------------
    /// A reachable store's target interval can intersect the code bytes
    /// without matching a declared patch site (self-modifying code).
    VerifySmc,
    /// Stack depth unbounded, unbalanced at a join, underflowing, or
    /// exceeding the mapped user stack.
    VerifyStackDepth,
}

impl Rule {
    /// Every rule, in catalog order.
    pub const ALL: &'static [Rule] = &[
        Rule::ImageDecode,
        Rule::ImageBranchTarget,
        Rule::ImagePrivileged,
        Rule::ImagePushPop,
        Rule::ImageWalkerBudget,
        Rule::ImageCaseTable,
        Rule::ImageUnreachable,
        Rule::MixCategory,
        Rule::MixShare,
        Rule::ModeShare,
        Rule::TableOpcode,
        Rule::UcodeCoverage,
        Rule::UcodeOverlap,
        Rule::CounterTaxonomy,
        Rule::ProbeMode,
        Rule::ProbeOpcode,
        Rule::ProbeMeasurement,
        Rule::ProbeCoverage,
        Rule::ProbeAllowlist,
        Rule::EffectResumeSafe,
        Rule::EffectForgone,
        Rule::VerifySmc,
        Rule::VerifyStackDepth,
    ];

    /// Stable rule identifier (what `--deny` matches).
    pub fn id(self) -> &'static str {
        match self {
            Rule::ImageDecode => "image-decode",
            Rule::ImageBranchTarget => "image-branch-target",
            Rule::ImagePrivileged => "image-privileged",
            Rule::ImagePushPop => "image-push-pop",
            Rule::ImageWalkerBudget => "image-walker-budget",
            Rule::ImageCaseTable => "image-case-table",
            Rule::ImageUnreachable => "image-unreachable",
            Rule::MixCategory => "mix-category",
            Rule::MixShare => "mix-share",
            Rule::ModeShare => "mode-share",
            Rule::TableOpcode => "table-opcode",
            Rule::UcodeCoverage => "ucode-coverage",
            Rule::UcodeOverlap => "ucode-overlap",
            Rule::CounterTaxonomy => "counter-taxonomy",
            Rule::ProbeMode => "probe-mode",
            Rule::ProbeOpcode => "probe-opcode",
            Rule::ProbeMeasurement => "probe-measurement",
            Rule::ProbeCoverage => "probe-coverage",
            Rule::ProbeAllowlist => "probe-allowlist",
            Rule::EffectResumeSafe => "effect-resume-safe",
            Rule::EffectForgone => "effect-forgone",
            Rule::VerifySmc => "verify-smc",
            Rule::VerifyStackDepth => "verify-stack-depth",
        }
    }

    /// Look a rule up by its identifier.
    pub fn parse(id: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.id() == id)
    }

    /// One-line documentation, for `vax780 lint --list-rules`.
    pub fn doc(self) -> &'static str {
        match self {
            Rule::ImageDecode => "a byte range fails to decode as instructions (totality)",
            Rule::ImageBranchTarget => {
                "a branch or case target leaves the image or splits an instruction"
            }
            Rule::ImagePrivileged => "a privileged opcode appears in a user-mode stream",
            Rule::ImagePushPop => "a PUSHR/POPR or PUSHL idiom is not adjacent/balanced",
            Rule::ImageWalkerBudget => {
                "worst-case walker/bias/pointer consumption exceeds its arena"
            }
            Rule::ImageCaseTable => "a case instruction's table cannot be sized statically",
            Rule::ImageUnreachable => "decoded code is unreachable from the entry or any function",
            Rule::MixCategory => "a weighted category is absent, or a zero-weight one present",
            Rule::MixShare => "a category's static share drifts beyond tolerance",
            Rule::ModeShare => "an addressing-mode share drifts beyond tolerance",
            Rule::TableOpcode => "an opcode's operand templates are inconsistent with its flags",
            Rule::UcodeCoverage => "the control store misses a dispatch address or opcode slot",
            Rule::UcodeOverlap => "control-store regions overlap or classify an address twice",
            Rule::CounterTaxonomy => "a counter or event kind is missing from the taxonomy",
            Rule::ProbeMode => "a measured addressing-mode row disagrees with the static model",
            Rule::ProbeOpcode => "a measured opcode execute row disagrees with the static model",
            Rule::ProbeMeasurement => "a probe measurement is internally inconsistent",
            Rule::ProbeCoverage => "a workload-exercised opcode x mode pair was not probed",
            Rule::ProbeAllowlist => "the probe allowlist is malformed or carries unused entries",
            Rule::EffectResumeSafe => "an opcode claimed resume-safe can perturb interrupt state",
            Rule::EffectForgone => "a derived resume-safe opcode is claimed unsafe (foregone)",
            Rule::VerifySmc => "a reachable store can hit code bytes outside a declared patch site",
            Rule::VerifyStackDepth => {
                "stack depth is unbalanced, underflows, or exceeds the user stack"
            }
        }
    }

    /// The severity of the rule's primary finding, before any `--deny`
    /// promotion. A few rules also emit the other severity for
    /// aggravated or auxiliary findings (`mode-share` escalates when a
    /// weighted mode never appears at all, `probe-allowlist` warns on
    /// stale-but-well-formed entries).
    pub fn default_severity(self) -> Severity {
        match self {
            Rule::ImageUnreachable | Rule::MixShare | Rule::ModeShare | Rule::EffectForgone => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which rule fired.
    pub rule: Rule,
    /// What was being linted (`timesharing-light/proc0`, `opcode-table`,
    /// an image file name, ...).
    pub context: String,
    /// Byte offset within the linted image, if the finding has one, or a
    /// table-cell index for table audits.
    pub offset: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(rule: Rule, context: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            rule,
            context: context.into(),
            offset: None,
            message: message.into(),
        }
    }

    /// A warning-severity finding.
    pub fn warning(
        rule: Rule,
        context: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            rule,
            context: context.into(),
            offset: None,
            message: message.into(),
        }
    }

    /// Attach a byte offset (or table-cell index).
    pub fn at(mut self, offset: u64) -> Diagnostic {
        self.offset = Some(offset);
        self
    }

    /// Render as one text line.
    pub fn render_text(&self) -> String {
        let site = match self.offset {
            Some(off) => format!("{} +{off:#06x}", self.context),
            None => self.context.clone(),
        };
        format!(
            "{}[{}] {}: {}",
            self.severity.label(),
            self.rule.id(),
            site,
            self.message
        )
    }

    /// Render as one JSON object (JSONL line).
    pub fn render_jsonl(&self) -> String {
        let escape = |s: &str| {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        };
        let offset = match self.offset {
            Some(off) => off.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"severity\":\"{}\",\"rule\":\"{}\",\"context\":\"{}\",\"offset\":{},\"message\":\"{}\"}}",
            self.severity.label(),
            self.rule.id(),
            escape(&self.context),
            offset,
            escape(&self.message)
        )
    }
}

/// A collection of findings from one lint invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Fold another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Add one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Promote warnings matching `deny` (rule ids, or `"all"`) to errors.
    pub fn apply_deny(&mut self, deny: &[String]) {
        let deny_all = deny.iter().any(|d| d == "all");
        for d in &mut self.diagnostics {
            if d.severity == Severity::Warning
                && (deny_all || deny.iter().any(|r| r == d.rule.id()))
            {
                d.severity = Severity::Error;
            }
        }
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render every finding as text lines plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str("lint: clean\n");
        } else {
            out.push_str(&format!(
                "lint: {} error(s), {} warning(s)\n",
                self.errors(),
                self.warnings()
            ));
        }
        out
    }

    /// Render every finding as JSONL, one object per line.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_parse_back() {
        for &r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        let mut ids: Vec<_> = Rule::ALL.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len());
    }

    #[test]
    fn deny_promotes_warnings() {
        let mut report = Report::new();
        report.push(Diagnostic::warning(Rule::MixShare, "x", "drift"));
        assert_eq!(report.errors(), 0);
        report.apply_deny(&["all".to_string()]);
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn jsonl_escapes_quotes() {
        let d = Diagnostic::error(Rule::ImageDecode, "img", "bad \"byte\"");
        let line = d.render_jsonl();
        assert!(line.contains("bad \\\"byte\\\""), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
