//! Property and mutation tests for the abstract-interpretation
//! verifier: every built-in profile proves clean, and a store
//! retargeted into its own code region is caught by the SMC rule at
//! the exact byte offset.

use proptest::prelude::*;
use vax_arch::{Assembler, Opcode, Operand, Reg};
use vax_lint::{check_image, verify_image, verify_profile, Budgets, ImageModel, Rule};
use vax_workloads::{profile, WorkloadKind};

fn model_from(bytes: Vec<u8>, base: u32) -> ImageModel {
    ImageModel {
        name: "test".into(),
        base,
        entry: base,
        functions: vec![],
        bytes,
        budgets: Budgets {
            walker_len: 4096,
            bias_len: 16384,
            ptr_entries: 256,
        },
        patch_sites: vec![],
    }
}

/// A three-instruction image whose middle instruction stores R0 through
/// an absolute address. Returns the model, the store's byte offset, and
/// the offset of the 4-byte absolute address inside its specifier.
fn image_with_absolute_store(target: u32) -> (ImageModel, usize, usize) {
    let base = 0x1000;
    let mut asm = Assembler::new(base);
    asm.inst(Opcode::Movl, &[Operand::Literal(1), Operand::Reg(Reg::R0)])
        .unwrap();
    let store_off = 3; // opcode + two one-byte specifiers
    asm.inst(
        Opcode::Movl,
        &[Operand::Reg(Reg::R0), Operand::Absolute(target)],
    )
    .unwrap();
    asm.inst(Opcode::Ret, &[]).unwrap();
    let bytes = asm.finish().unwrap().bytes;
    // movl r0, @#target = D0 50 9F <addr32>: the address bytes start 3
    // bytes into the instruction.
    assert_eq!(bytes[store_off], 0xD0);
    assert_eq!(bytes[store_off + 2], 0x9F);
    (model_from(bytes, base), store_off, store_off + 3)
}

fn verify(model: &ImageModel) -> vax_lint::Report {
    let (decoded, report) = check_image(model);
    let image = decoded.unwrap_or_else(|| panic!("decodes: {}", report.render_text()));
    verify_image(model, &image)
}

#[test]
fn all_builtin_profiles_verify_clean() {
    for kind in WorkloadKind::ALL {
        let params = profile(kind);
        let report = verify_profile(&params).expect("generation succeeds");
        assert!(
            report.is_clean(),
            "{}: {}",
            params.name,
            report.render_text()
        );
    }
}

/// The `lint --list-rules` catalog is the catalog findings fire from:
/// ids unique, parseable, documented — and a finding produced by a
/// broken input names a rule present in the listing.
#[test]
fn rule_listing_matches_firing_rules() {
    let mut ids = std::collections::BTreeSet::new();
    for &rule in Rule::ALL {
        assert!(ids.insert(rule.id()), "duplicate rule id {}", rule.id());
        assert_eq!(
            Rule::parse(rule.id()),
            Some(rule),
            "{} fails to parse",
            rule.id()
        );
        assert!(!rule.doc().is_empty(), "{} lacks a doc line", rule.id());
    }
    let (model, _, addr_off) = image_with_absolute_store(0x2000);
    let mut mutated = model;
    mutated.bytes[addr_off..addr_off + 4].copy_from_slice(&0x1000u32.to_le_bytes());
    let report = verify(&mutated);
    assert!(!report.is_clean());
    for d in &report.diagnostics {
        assert!(
            ids.contains(d.rule.id()),
            "fired rule {} missing from the listing",
            d.rule.id()
        );
    }
}

#[test]
fn declared_patch_site_admits_an_exact_code_store() {
    // A store aimed at code is an SMC error — unless the image declares
    // that exact (va, len) as a patch site.
    let (mut model, _, addr_off) = image_with_absolute_store(0x2000);
    let target = 0x1003u32; // the store instruction's own first byte
    model.bytes[addr_off..addr_off + 4].copy_from_slice(&target.to_le_bytes());
    assert!(!verify(&model).is_clean());
    model.patch_sites = vec![(target, 4)];
    let report = verify(&model);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn runaway_push_loop_exceeds_the_stack_budget() {
    let mut asm = Assembler::new(0x1000);
    let top = asm.label_here();
    asm.inst(Opcode::Pushl, &[Operand::Reg(Reg::R0)]).unwrap();
    asm.branch(Opcode::Brb, &[], top).unwrap();
    let model = model_from(asm.finish().unwrap().bytes, 0x1000);
    let report = verify(&model);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::VerifyStackDepth),
        "{}",
        report.render_text()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Retargeting the store anywhere inside its own code region yields
    /// the SMC diagnostic at the store's byte offset; aiming it
    /// anywhere in a disjoint data arena never does.
    #[test]
    fn retargeted_store_is_caught_at_its_offset(into_code in any::<bool>(), slot in 0u32..4096) {
        let (model, store_off, addr_off) = image_with_absolute_store(0x2000);
        let code_len = model.bytes.len() as u32;
        let target = if into_code {
            model.base + slot % code_len
        } else {
            model.end() + 4 * slot // past the code, 4-byte aligned slots
        };
        let mut mutated = model;
        mutated.bytes[addr_off..addr_off + 4].copy_from_slice(&target.to_le_bytes());
        let report = verify(&mutated);
        if into_code {
            let d = report
                .diagnostics
                .iter()
                .find(|d| d.rule == Rule::VerifySmc)
                .expect("SMC finding");
            prop_assert_eq!(d.offset, Some(store_off as u64), "{}", report.render_text());
        } else {
            prop_assert!(report.is_clean(), "{}", report.render_text());
        }
    }
}
