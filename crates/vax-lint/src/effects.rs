//! The derived-effect audit: run [`vax_cpu::effect::audit_claims`] —
//! the exhaustive comparison of the hand-maintained
//! `claimed_resume_safe` classifier against footprints derived from the
//! operand templates, control-store row map, and static
//! characterization — and render each divergence as a diagnostic.
//! Unsound claims (claimed safe, derived unsafe) are errors; foregone
//! continuation (derived safe, claimed unsafe) is a warning.

use crate::diag::{Diagnostic, Report, Rule};
use vax_cpu::effect::{audit_claims, AuditKind};
use vax_ucode::ControlStore;

/// Audit the fast run loop's resume claim against the derived effect
/// footprints, over every opcode, in both directions.
pub fn lint_effects(cs: &ControlStore) -> Report {
    report_audit(audit_claims(cs))
}

/// Render audit findings as diagnostics under the effect-family rules.
/// Split from [`lint_effects`] so tests can push deliberately
/// misclassified claims (via `audit_claims_with`) through the same
/// rule mapping.
fn report_audit(findings: Vec<vax_cpu::effect::AuditFinding>) -> Report {
    let mut report = Report::new();
    for finding in findings {
        let mnem = finding.op.mnemonic();
        let fx = finding.effects;
        let diag = match finding.kind {
            AuditKind::Unsound => Diagnostic::error(
                Rule::EffectResumeSafe,
                "effects".to_string(),
                format!("{mnem} is claimed resume-safe but its derived footprint is [{fx}]"),
            ),
            AuditKind::Forgone => Diagnostic::warning(
                Rule::EffectForgone,
                "effects".to_string(),
                format!("{mnem} is provably resume-safe ([{fx}]) but the run loop forgoes it"),
            ),
        };
        report.push(diag);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::Opcode;
    use vax_cpu::claimed_resume_safe;
    use vax_cpu::effect::audit_claims_with;

    #[test]
    fn shipped_classifier_audits_clean_as_a_report() {
        let cs = ControlStore::build();
        let report = lint_effects(&cs);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn misclassified_opcode_is_caught_under_its_named_rule() {
        let cs = ControlStore::build();
        // Deliberately claim HALT resume-safe.
        let report = report_audit(audit_claims_with(&cs, |op| {
            op == Opcode::Halt || claimed_resume_safe(op)
        }));
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == Rule::EffectResumeSafe)
            .expect("misclassification finding");
        assert!(d.message.contains("halt"), "{}", d.message);
        assert_eq!(report.errors(), 1, "{}", report.render_text());

        // And the other direction: claiming NOP ends the run.
        let report = report_audit(audit_claims_with(&cs, |op| {
            op != Opcode::Nop && claimed_resume_safe(op)
        }));
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::EffectForgone && d.message.contains("nop")),
            "{}",
            report.render_text()
        );
        assert_eq!(report.errors(), 0, "{}", report.render_text());
    }
}
