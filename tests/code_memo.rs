//! The process-wide code memo (`vax_workloads::process_code`): a build
//! that reuses memoized code must measure exactly like the cold build
//! that generated it, any change to the parameters must get its own
//! code, and the memo must stay within its fixed capacity.
//!
//! The memo is shared by every test in this binary, and tests run on
//! parallel threads: each test uses seeds no other test here uses, and
//! the tests that rely on an entry staying resident hold `MEMO` so the
//! capacity test cannot evict it underneath them.

use std::sync::{Arc, Mutex};
use vax780_core::{measure, MeasuredWorkload};
use vax_cpu::CpuConfig;
use vax_mem::MemConfig;
use vax_workloads::{
    build_machine_with_config, code_memo_len, plan_processes, process_code, profile, ProfileParams,
    WorkloadKind, CODE_MEMO_CAPACITY,
};

static MEMO: Mutex<()> = Mutex::new(());

fn small_profile(kind: WorkloadKind, seed: u64) -> ProfileParams {
    ProfileParams {
        processes: 3,
        functions_per_process: 8,
        slots_per_function: 20,
        scalar_bytes: 16 * 1024,
        terminal_users: 4,
        seed,
        ..profile(kind)
    }
}

fn measured(params: &ProfileParams) -> MeasuredWorkload {
    let mut m = build_machine_with_config(params, CpuConfig::default(), MemConfig::default());
    m.run_instructions(3_000, &mut upc_monitor::NullSink)
        .expect("warm-up runs");
    measure(&mut m, 5_000)
}

#[test]
fn a_memo_hit_measures_like_the_cold_miss() {
    let _memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
    let params = small_profile(WorkloadKind::Educational, 0xC0DE_0001);
    let cold = measured(&params);
    let resident = process_code(&params).expect("generation succeeds");
    let warm = measured(&params);
    // Still the same allocation: the second build used the memo, not a
    // fresh codegen.
    let after = process_code(&params).expect("generation succeeds");
    assert!(Arc::ptr_eq(&resident, &after), "entry was regenerated");

    assert_eq!(cold.histogram, warm.histogram, "µPC histogram");
    assert_eq!(cold.counters, warm.counters, "hardware counters");
    assert_eq!(cold.cycles, warm.cycles, "cycles");
    assert_eq!(cold.instructions, warm.instructions, "instructions");
}

#[test]
fn one_changed_field_gets_its_own_code() {
    let _memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
    let base = small_profile(WorkloadKind::TimesharingLight, 0xC0DE_0002);
    let wider = ProfileParams {
        functions_per_process: base.functions_per_process + 1,
        ..base.clone()
    };
    assert_eq!((base.name, base.seed), (wider.name, wider.seed));
    let a = process_code(&base).expect("generation succeeds");
    let b = process_code(&wider).expect("generation succeeds");
    assert!(!Arc::ptr_eq(&a, &b), "distinct parameters shared an entry");
    assert_ne!(a[0].functions.len(), b[0].functions.len());
    let (pa, pb) = (
        plan_processes(&base).expect("plans"),
        plan_processes(&wider).expect("plans"),
    );
    assert_ne!(pa[0].image.bytes, pb[0].image.bytes);
    // The plans carry the memoized code.
    assert_eq!(pa[0].image.bytes, a[0].image.bytes);
    assert_eq!(pb[0].functions, b[0].functions);
}

#[test]
fn the_memo_never_exceeds_its_capacity() {
    let _memo = MEMO.lock().unwrap_or_else(|e| e.into_inner());
    let tiny = |i: u64| ProfileParams {
        processes: 1,
        functions_per_process: 2,
        slots_per_function: 4,
        ..small_profile(WorkloadKind::Commercial, 0xC0DE_1000 + i)
    };
    let first = process_code(&tiny(0)).expect("generation succeeds");
    for i in 1..=(CODE_MEMO_CAPACITY as u64 + 8) {
        process_code(&tiny(i)).expect("generation succeeds");
        assert!(code_memo_len() <= CODE_MEMO_CAPACITY, "{}", code_memo_len());
    }
    assert_eq!(code_memo_len(), CODE_MEMO_CAPACITY);
    // The oldest entry went first: asking again regenerates it.
    let again = process_code(&tiny(0)).expect("generation succeeds");
    assert!(!Arc::ptr_eq(&first, &again), "oldest entry was not evicted");
    assert_eq!(first[0].image.bytes, again[0].image.bytes);
}
