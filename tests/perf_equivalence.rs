//! The host-loop equivalence contract: the fast tier (`Tier::Fast`, the
//! default `CpuConfig`) must be *indistinguishable* from the naive
//! byte-by-byte loop (`CpuConfig::naive_loop`) to everything that
//! observes the simulated machine — µPC histograms, hardware counters,
//! and the full trace event stream — across every workload profile,
//! while faults are being injected, and across a checkpoint/resume
//! boundary (a campaign checkpointed by one tier must resume under the
//! other without a bit of difference).

use upc_monitor::{Command, HistogramBoard};
use vax780_core::{Checkpoint, CompositeStudy, MeasuredWorkload};
use vax_cpu::CpuConfig;
use vax_fault::{FaultClass, FaultEngine, FaultPlan, FiredFault};
use vax_mem::HwCounters;
use vax_trace::{TraceEvent, Tracer};
use vax_workloads::{build_machine_with_config, profile, ProfileParams, WorkloadKind};

/// A scaled-down profile so each case runs in milliseconds (the same
/// shrink as `tests/fault_determinism.rs`).
fn small_profile(kind: WorkloadKind, seed_salt: u64) -> ProfileParams {
    let base = profile(kind);
    ProfileParams {
        processes: 3,
        functions_per_process: 8,
        slots_per_function: 20,
        scalar_bytes: 16 * 1024,
        terminal_users: 4,
        seed: base.seed ^ seed_salt,
        ..base
    }
}

/// Everything one observed run produces.
struct Observed {
    events: Vec<TraceEvent>,
    histogram: upc_monitor::Histogram,
    hw: HwCounters,
    fired: Vec<FiredFault>,
    pending_ib_tb_miss: bool,
    predecode_hits: u64,
    replayed: u64,
    reconciled: bool,
}

/// Warm up, optionally install+arm a fault engine at the measurement
/// boundary, and run the measured region under the board+tracer tee.
fn observed_run(
    params: &ProfileParams,
    config: CpuConfig,
    plan: Option<&FaultPlan>,
    warmup: u64,
    measured: u64,
) -> Observed {
    let mut machine = build_machine_with_config(params, config, vax_mem::MemConfig::default());
    let hw_base = *machine.cpu.mem().counters();
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let mut tracer = Tracer::new();
    {
        let mut tee = (&mut board, &mut tracer);
        machine
            .run_phase("warmup", warmup, &mut tee)
            .expect("warmup runs");
        if let Some(plan) = plan {
            machine
                .cpu
                .mem_mut()
                .set_fault_hook(Box::new(FaultEngine::new(plan)));
            let now = machine.cpu.now();
            machine.cpu.mem_mut().arm_fault_hook(now);
        }
        machine
            .run_phase("measure", measured, &mut tee)
            .expect("measured region runs");
    }
    board.execute(Command::Stop);
    let histogram = board.snapshot();
    let hw = machine.cpu.mem().counters().delta_since(&hw_base);
    let reconciled = vax_analysis::reconcile::reconcile(
        &tracer,
        &histogram,
        &hw,
        machine.cpu.pending_ib_tb_miss(),
    )
    .is_ok();
    Observed {
        events: tracer.events().copied().collect(),
        histogram,
        hw,
        fired: machine.cpu.mem().faults_fired(),
        pending_ib_tb_miss: machine.cpu.pending_ib_tb_miss(),
        predecode_hits: machine.cpu.predecode_stats().hits,
        replayed: machine.cpu.block_stats().replayed,
        reconciled,
    }
}

/// Assert every observable of two runs is bit-identical.
fn assert_indistinguishable(name: &str, naive: &Observed, fast: &Observed) {
    assert_eq!(
        naive.histogram, fast.histogram,
        "{name}: histograms differ between loops"
    );
    assert_eq!(
        naive.hw, fast.hw,
        "{name}: hardware counters differ between loops"
    );
    assert_eq!(
        naive.events, fast.events,
        "{name}: trace event streams differ between loops"
    );
    assert_eq!(
        naive.pending_ib_tb_miss, fast.pending_ib_tb_miss,
        "{name}: trailing IB state differs between loops"
    );
    assert!(naive.reconciled, "{name}: naive loop fails reconciliation");
    assert!(fast.reconciled, "{name}: fast loop fails reconciliation");
}

/// Every workload profile, both tiers, full trace-stream equality. The
/// fast run must also actually *be* the fast tier — predecode hits, and
/// instructions retired without a step prologue — so this can never
/// silently degrade into comparing naive with naive.
#[test]
fn all_profiles_bit_identical_across_loops() {
    for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let params = small_profile(kind, 0x5EED ^ i as u64);
        let naive = observed_run(&params, CpuConfig::naive_loop(), None, 1_500, 4_000);
        let fast = observed_run(&params, CpuConfig::default(), None, 1_500, 4_000);
        assert_eq!(
            naive.predecode_hits,
            0,
            "{}: naive loop must not touch the predecode cache",
            kind.name()
        );
        assert!(
            fast.predecode_hits > 0,
            "{}: fast loop never hit the predecode cache",
            kind.name()
        );
        assert_eq!(
            naive.replayed,
            0,
            "{}: naive loop must not use the run loop",
            kind.name()
        );
        assert!(
            fast.replayed > 0,
            "{}: fast run loop never continued past one instruction",
            kind.name()
        );
        assert_indistinguishable(kind.name(), &naive, &fast);
    }
}

/// The contract holds while machine checks are being injected and
/// recovered from: the same faults fire at the same cycles under both
/// tiers, and every downstream observable stays bit-identical. (While a
/// fault hook is installed the fast tier steps one instruction per call
/// and its fast paths tick per-cycle, so the measured region is exact by
/// construction — this pins that the fallback actually engages.)
#[test]
fn bit_identical_under_fault_injection() {
    let plan = FaultPlan::seeded(&FaultClass::ALL, 780, 2, 20_000);
    for kind in [WorkloadKind::TimesharingLight, WorkloadKind::SciEng] {
        let params = small_profile(kind, 0xFA17);
        let naive = observed_run(&params, CpuConfig::naive_loop(), Some(&plan), 2_000, 5_000);
        let fast = observed_run(&params, CpuConfig::default(), Some(&plan), 2_000, 5_000);
        assert!(
            !naive.fired.is_empty(),
            "{}: the plan must actually inject",
            kind.name()
        );
        assert_eq!(
            naive.fired,
            fast.fired,
            "{}: fault logs differ",
            kind.name()
        );
        assert_indistinguishable(kind.name(), &naive, &fast);
    }
}

fn assert_same_measurements(label: &str, a: &[MeasuredWorkload], b: &[MeasuredWorkload]) {
    assert_eq!(a.len(), b.len(), "{label}: result counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{label}: workload order differs");
        assert_eq!(x.histogram, y.histogram, "{label}: {} histogram", x.name);
        assert_eq!(x.counters, y.counters, "{label}: {} counters", x.name);
        assert_eq!(
            (x.instructions, x.cycles),
            (y.instructions, y.cycles),
            "{label}: {} progress",
            x.name
        );
    }
}

/// A campaign checkpointed under one tier resumes under another with
/// nothing to show for it: the combined results equal an uninterrupted
/// single-tier campaign, in both fast<->naive crossing directions. This
/// is what licenses flipping `CpuConfig` between a crash and its resume.
#[test]
fn checkpoint_resume_crosses_loop_boundary() {
    let kinds = [
        WorkloadKind::TimesharingLight,
        WorkloadKind::Educational,
        WorkloadKind::SciEng,
    ];
    let study = |config: CpuConfig| {
        CompositeStudy::new(4_000)
            .with_kinds(&kinds)
            .warmup(1_000)
            .cpu_config(config)
    };
    let reference = study(CpuConfig::default()).run_supervised();
    assert!(reference.is_complete(), "reference campaign must complete");

    let dir = std::env::temp_dir().join("vax-perf-equiv-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for (first, second, label) in [
        (CpuConfig::naive_loop(), CpuConfig::default(), "naive->fast"),
        (CpuConfig::default(), CpuConfig::naive_loop(), "fast->naive"),
    ] {
        let path = dir.join(format!("{}.ckpt", label.replace("->", "-")));
        {
            // Run one job, then "crash" (halt_after is the deterministic
            // stand-in for a mid-campaign kill).
            let mut cp = Checkpoint::open(&path, 4_000, 1_000).unwrap();
            let halted = study(first).run_checkpointed(&mut cp, Some(1)).unwrap();
            assert_eq!(
                halted.results.len(),
                1,
                "{label}: one fresh job before halt"
            );
            assert_eq!(halted.pending.len(), 2, "{label}: two jobs left pending");
        }
        // Reopen from disk (the process that wrote it is gone) and
        // finish the campaign under the *other* loop.
        let mut cp = Checkpoint::open(&path, 4_000, 1_000).unwrap();
        let resumed = study(second).run_checkpointed(&mut cp, None).unwrap();
        assert!(resumed.is_complete(), "{label}: resumed campaign completes");
        assert_eq!(resumed.resumed, 1, "{label}: one job restored from disk");
        assert_same_measurements(label, &reference.results, &resumed.results);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
