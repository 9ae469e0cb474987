//! Measurement-loop guarantees: the Null-process exclusion stays exact
//! on the fast tier when the measured window really does contain idle
//! time, and the §3.4 scheduling-quantum ablation moves the TB miss rate
//! the way the paper says it must.

use upc_monitor::NullSink;
use vax780_core::{measure, Experiment, MeasuredWorkload};
use vax_analysis::Section4Stats;
use vax_cpu::{CpuConfig, Tier};
use vax_mem::MemConfig;
use vax_workloads::{build_machine_with_config, profile, Machine, ProfileParams, WorkloadKind};

const WARMUP: u64 = 3_000;
const MEASURED: u64 = 12_000;

/// A warmed machine parked in the Null process's idle loop at IPL 0, so
/// the first timer interrupt leaves it through the scheduler. The
/// scheduler saves the idle PC into the outgoing process's PCB, so that
/// process later resumes *in the idle loop* — entered through
/// `LDPCTX`/`REI` mid-measurement, exactly the path the exclusion must
/// catch.
fn parked_in_idle(tier: Tier) -> Machine {
    let config = CpuConfig {
        tier,
        ..CpuConfig::default()
    };
    let params = profile(WorkloadKind::TimesharingLight);
    let mut machine = build_machine_with_config(&params, config, MemConfig::default());
    machine
        .run_instructions(WARMUP, &mut NullSink)
        .expect("warmup");
    let idle_pc = machine.idle_pc;
    machine.cpu.jump(idle_pc);
    machine.cpu.psl_mut().ipl = 0;
    assert!(machine.at_idle());
    machine
}

/// Count the instructions a per-instruction walk of the same window
/// spends in the idle loop (the naive tier, one step per boundary).
fn idle_instructions_in_window() -> u64 {
    let mut machine = parked_in_idle(Tier::Naive);
    let start = machine.cpu.instructions();
    let mut idle = 0;
    while machine.cpu.instructions() - start < MEASURED {
        let before = machine.cpu.instructions();
        let at_idle = machine.at_idle();
        machine.step(&mut NullSink).expect("workload runs");
        if at_idle {
            idle += machine.cpu.instructions() - before;
        }
    }
    idle
}

fn assert_identical(naive: &MeasuredWorkload, fast: &MeasuredWorkload) {
    assert_eq!(naive.instructions, fast.instructions);
    assert_eq!(naive.cycles, fast.cycles, "cycles diverged");
    assert_eq!(naive.histogram, fast.histogram, "histogram diverged");
    assert_eq!(naive.counters, fast.counters, "counters diverged");
}

/// `measure` on the fast tier is bit-identical to the naive tier over a
/// window that includes idle-loop time entered by `LDPCTX`/`REI`.
#[test]
fn idle_exclusion_is_exact_on_the_fast_tier() {
    let idle = idle_instructions_in_window();
    assert!(idle > 0, "the measured window never reached the idle loop");
    assert!(
        idle < MEASURED,
        "the measured window never left the idle loop"
    );

    let naive = measure(&mut parked_in_idle(Tier::Naive), MEASURED);
    let mut fast_machine = parked_in_idle(Tier::Fast);
    let fast = measure(&mut fast_machine, MEASURED);
    assert_identical(&naive, &fast);
    assert!(
        fast_machine.cpu.block_stats().replayed > 0,
        "the fast run loop never engaged"
    );
    // The board was suspended for every idle instruction.
    assert!(naive.histogram.total_cycles() > 0);
    assert!(naive.analysis().instructions() <= MEASURED - idle);
}

/// Instructions per ablation point, with a 15k warm-up.
const ABLATION: u64 = 50_000;

fn tb_miss_rate(timer_period: u64) -> f64 {
    let params = ProfileParams {
        timer_period,
        ..profile(WorkloadKind::TimesharingLight)
    };
    let m = Experiment::with_params(params)
        .warmup(15_000)
        .instructions(ABLATION)
        .run();
    Section4Stats::from_analysis(&m.analysis()).tb_miss_per_instr
}

/// §3.4: every `LDPCTX` flushes the process half of the TB, so a shorter
/// scheduling quantum must raise the TB miss rate.
#[test]
fn shorter_quantum_raises_the_tb_miss_rate() {
    let short = tb_miss_rate(16_000);
    let long = tb_miss_rate(256_000);
    assert!(
        short > long,
        "quantum 16k cycles: {short:.4} TB misses/insn, 256k: {long:.4}"
    );
}
