//! Regression tests for interpreter-loop bugs:
//!
//! * the microcode-patch abort cycle fired at instruction count 0, so
//!   every run was charged a spurious abort on its very first
//!   instruction (and short ablation runs were skewed hardest);
//! * `service_interrupt` computed the PSL push address as `sp + 4`
//!   without wrapping, which overflows (a debug-build panic) when the
//!   stack pointer sits within 8 bytes of zero;
//! * (pinning, audited not-a-bug) a write into only the *tail* bytes of
//!   a predecoded instruction that straddles a 64-byte invalidation
//!   block must still bump `decode_gen` — `note_code_bytes` flags every
//!   block the instruction touches, and this test keeps it that way;
//! * the fast tier's run loop (many instructions per `step_budgeted`
//!   call) must stop exactly at the instruction budget, must see a store
//!   into a later instruction of its own straight-line run, and must
//!   actually engage — all bit-identical to the naive loop.

use upc_monitor::{Command, Histogram, HistogramBoard, NullSink};
use vax_arch::{Assembler, CodeImage, Opcode, Operand, Reg};
use vax_cpu::harness::SimpleMachine;
use vax_cpu::{CpuConfig, Interrupt, Mode, Psl, StepOutcome, Tier};

/// The fast tier's configuration, spelled out (it is also the default).
fn fast_config() -> CpuConfig {
    CpuConfig {
        tier: Tier::Fast,
        ..CpuConfig::default()
    }
}

/// An R0-incrementing loop, as in the interrupt tests.
fn looping_image() -> vax_arch::CodeImage {
    let mut asm = Assembler::new(0x400);
    let top = asm.label_here();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R0)]).unwrap();
    asm.branch(Opcode::Brb, &[], top).unwrap();
    asm.finish().unwrap()
}

/// Run `instructions` of the loop under `config` from boot, collecting
/// the µPC histogram from the very first instruction, and return the
/// issue count at the abort micro-address plus the total cycle count.
fn abort_issues_after(config: CpuConfig, instructions: u64) -> (u64, u64) {
    let mut m = SimpleMachine::with_code_and_config(&looping_image(), config);
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let outcome = m.cpu.run(instructions, &mut board).unwrap();
    board.execute(Command::Stop);
    let abort = m.cpu.control_store().abort();
    (board.snapshot().issue(abort), outcome.cycles)
}

/// A patch-abort period longer than the whole run must charge nothing:
/// the run is bit-identical to one with patch aborts disabled. Before
/// the fix, instruction 0 satisfied `count % period == 0` and the first
/// instruction of every run carried a phantom abort cycle.
#[test]
fn patch_abort_never_fires_at_instruction_zero() {
    let long_period = CpuConfig {
        patch_abort_period: 1_000,
        ..CpuConfig::default()
    };
    let disabled = CpuConfig {
        patch_abort_period: 0,
        ..CpuConfig::default()
    };
    // 50 instructions < period: the only count that could fire is 0.
    let (with_period, cycles_a) = abort_issues_after(long_period, 50);
    let (without, cycles_b) = abort_issues_after(disabled, 50);
    // TB-miss microtraps also issue from the abort address, identically
    // in both runs; any difference is the spurious instruction-0 abort.
    assert_eq!(with_period, without, "spurious abort at instruction 0");
    assert_eq!(cycles_a, cycles_b, "cycle counts must match");
}

/// And the steady-rate behavior still holds: counts `period, 2·period,
/// …` each charge exactly one abort cycle.
#[test]
fn patch_abort_fires_once_per_period() {
    let period = CpuConfig {
        patch_abort_period: 10,
        ..CpuConfig::default()
    };
    let disabled = CpuConfig {
        patch_abort_period: 0,
        ..CpuConfig::default()
    };
    // 35 instructions with period 10: aborts at counts 10, 20, 30.
    let (with_period, cycles_a) = abort_issues_after(period, 35);
    let (without, cycles_b) = abort_issues_after(disabled, 35);
    assert_eq!(with_period - without, 3, "aborts at 10, 20, 30 only");
    assert_eq!(cycles_a - cycles_b, 3, "each abort is one cycle");
}

/// Self-modifying code whose target instruction straddles a 64-byte
/// invalidation block, patched through its *tail* bytes only.
///
/// The image pads with `NOP`s so a `MOVL #imm32, R0` starts at VA
/// `0x43B`: its opcode and first three immediate bytes sit in the
/// 64-byte block `[0x400, 0x440)` while the last immediate byte (the
/// value's high byte, at `0x440`) and the register byte spill into the
/// next block. The loop executes the `MOVL` (predecoding it), saves the
/// loaded value, writes `0x99` into `0x440` — tail bytes only — and
/// re-executes the `MOVL`, which must observe the patched immediate.
/// If only the head block were flagged, the replay path would serve the
/// stale parse and `R0` would still read `0x1122_3344`.
fn straddling_smc_image() -> vax_arch::CodeImage {
    let mut asm = Assembler::new(0x400);
    for _ in 0..0x3B {
        asm.inst(Opcode::Nop, &[]).unwrap();
    }
    let top = asm.label_here();
    let movl_at = asm
        .inst(
            Opcode::Movl,
            &[Operand::Immediate(0x1122_3344), Operand::Reg(Reg::R0)],
        )
        .unwrap();
    assert_eq!(movl_at, 0x43B, "padding must land the MOVL at 0x43B");
    asm.inst(Opcode::Tstl, &[Operand::Reg(Reg::R3)]).unwrap();
    let done = asm.new_label();
    asm.branch(Opcode::Bneq, &[], done).unwrap();
    asm.inst(
        Opcode::Movl,
        &[Operand::Reg(Reg::R0), Operand::Reg(Reg::R3)],
    )
    .unwrap();
    // Patch the immediate's high byte — the one byte in the tail block.
    asm.inst(
        Opcode::Movb,
        &[Operand::Immediate(0x99), Operand::Absolute(0x440)],
    )
    .unwrap();
    asm.branch(Opcode::Brb, &[], top).unwrap();
    asm.place(done).unwrap();
    let spin = asm.label_here();
    asm.branch(Opcode::Brb, &[], spin).unwrap();
    asm.finish().unwrap()
}

fn run_straddling_smc(config: CpuConfig) -> (u32, u32, u64, Histogram) {
    let mut m = SimpleMachine::with_code_and_config(&straddling_smc_image(), config);
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let outcome = m.cpu.run(80, &mut board).unwrap();
    board.execute(Command::Stop);
    (
        m.cpu.regs().get(Reg::R0),
        m.cpu.regs().get(Reg::R3),
        outcome.cycles,
        board.into_histogram(),
    )
}

#[test]
fn tail_byte_write_invalidates_straddling_instruction() {
    let (r0, r3, naive_cycles, naive_hist) = run_straddling_smc(CpuConfig::naive_loop());
    assert_eq!(r3, 0x1122_3344, "first execution saw the original bytes");
    assert_eq!(r0, 0x9922_3344, "re-execution saw the patched tail byte");
    let (f_r0, f_r3, cycles, hist) = run_straddling_smc(fast_config());
    assert_eq!((f_r0, f_r3), (r0, r3), "stale parse served after patch");
    assert_eq!(cycles, naive_cycles, "cycle count diverged");
    assert_eq!(hist, naive_hist, "histogram diverged");
}

/// Interrupt service with the stack pointer within 8 bytes of zero: the
/// SP decrement wraps, and the PSL slot address (`sp + 4`) must wrap
/// with it instead of overflowing (which panics in debug builds).
#[test]
fn interrupt_service_survives_near_zero_stack_pointer() {
    let mut m = SimpleMachine::with_code(&looping_image());
    m.cpu.psl_mut().ipl = 0;
    // Wedge the interrupt stack pointer just above zero.
    let int_stack_psl = Psl {
        interrupt_stack: true,
        mode: Mode::Kernel,
        ..Psl::default()
    };
    m.cpu.regs_mut().set_banked_sp(&int_stack_psl, 4);
    m.cpu.post_interrupt(Interrupt {
        ipl: 20,
        vector: 0xF0,
    });
    let mut sink = NullSink;
    // Before the fix this step overflowed `sp + 4` and panicked.
    let outcome = m.cpu.step(&mut sink).unwrap();
    assert!(matches!(outcome, StepOutcome::Interrupt));
    assert_eq!(m.cpu.regs().sp(), 4u32.wrapping_sub(8), "SP wrapped");
}

/// A counted loop whose body is five straight-line instructions,
/// revisited enough times for the run loop to retire many instructions
/// per call.
fn counted_loop_image() -> CodeImage {
    let mut asm = Assembler::new(0x400);
    let top = asm.label_here();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R0)]).unwrap();
    asm.inst(
        Opcode::Addl2,
        &[Operand::Reg(Reg::R0), Operand::Reg(Reg::R1)],
    )
    .unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    asm.inst(Opcode::Cmpl, &[Operand::Reg(Reg::R0), Operand::Literal(50)])
        .unwrap();
    asm.branch(Opcode::Blss, &[], top).unwrap();
    let done = asm.label_here();
    asm.branch(Opcode::Brb, &[], done).unwrap();
    asm.finish().unwrap()
}

struct Observed {
    r_low: [u32; 8],
    cycles: u64,
    histogram: Histogram,
    replayed: u64,
}

fn observe(image: &CodeImage, config: CpuConfig, instructions: u64) -> Observed {
    let mut m = SimpleMachine::with_code_and_config(image, config);
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let outcome = m.cpu.run(instructions, &mut board).unwrap();
    board.execute(Command::Stop);
    let mut r_low = [0u32; 8];
    for (i, slot) in r_low.iter_mut().enumerate() {
        *slot = m.cpu.regs().get(Reg::from_number(i as u8));
    }
    Observed {
        r_low,
        cycles: outcome.cycles,
        histogram: board.into_histogram(),
        replayed: m.cpu.block_stats().replayed,
    }
}

/// Run `image` on both tiers, assert they are bit-identical, and return
/// the fast tier's observation.
fn assert_tiers_identical(image: &CodeImage, instructions: u64) -> Observed {
    let naive = observe(image, CpuConfig::naive_loop(), instructions);
    let fast = observe(image, fast_config(), instructions);
    assert_eq!(naive.replayed, 0, "naive loop must not use the run loop");
    assert_eq!(fast.r_low, naive.r_low, "registers diverged");
    assert_eq!(fast.cycles, naive.cycles, "cycles diverged");
    assert_eq!(fast.histogram, naive.histogram, "µPC histogram diverged");
    fast
}

/// The run loop engages under the default config — instructions retire
/// without a step prologue — and stays bit-identical to the naive loop,
/// so the equality is not vacuous.
#[test]
fn run_loop_engages_and_matches_naive_loop() {
    let fast = assert_tiers_identical(&counted_loop_image(), 320);
    assert!(
        fast.replayed > 0,
        "the run loop never continued past one instruction"
    );
    assert_eq!(
        CpuConfig::default(),
        fast_config(),
        "the default is the fast tier"
    );
}

/// `Cpu::run(n)` retires exactly `n` instructions on the fast tier: the
/// budget plumbing must stop the run loop rather than overshoot.
#[test]
fn run_loop_never_overshoots_an_instruction_budget() {
    let image = counted_loop_image();
    for target in [1u64, 2, 3, 7, 23, 64] {
        let mut m = SimpleMachine::with_code_and_config(&image, fast_config());
        let mut board = HistogramBoard::new();
        m.cpu.run(target, &mut board).unwrap();
        assert_eq!(
            m.cpu.instructions(),
            target,
            "run({target}) retired a different count"
        );
    }
}

/// Self-modifying code where the patcher and the patched instruction
/// sit in the *same* straight-line run: the store must be seen at the
/// next instruction boundary (the run loop looks each instruction up at
/// the current `decode_gen`), so the re-parsed victim observes the new
/// bytes.
///
/// The loop writes `R4` through `(R6)` and then loads an immediate into
/// `R2`. For the first three iterations `R6` aims at scratch memory;
/// after the third, `R6` is re-aimed at the immediate's low byte, so
/// every later iteration's first instruction rewrites an instruction
/// later in its own run. A loop that ignored the generation bump would
/// keep serving `#0x11`.
///
/// Built in two passes because the patch address (`MOVL` immediate + 2)
/// is only known once the prefix is assembled; operand encodings are
/// size-stable, so pass two lands every instruction at the same VA.
fn same_run_smc_image() -> CodeImage {
    let probe = build_smc_image(0x8000);
    build_smc_image(probe.1).0
}

fn build_smc_image(patch_va: u32) -> (CodeImage, u32) {
    let mut asm = Assembler::new(0x400);
    // Aim the patcher at harmless scratch memory first.
    asm.inst(
        Opcode::Movl,
        &[Operand::Immediate(0x8000), Operand::Reg(Reg::R6)],
    )
    .unwrap();
    let top = asm.label_here();
    asm.inst(
        Opcode::Movb,
        &[Operand::Reg(Reg::R4), Operand::RegDeferred(Reg::R6)],
    )
    .unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    let victim = asm
        .inst(
            Opcode::Movl,
            &[Operand::Immediate(0x11), Operand::Reg(Reg::R2)],
        )
        .unwrap();
    asm.inst(
        Opcode::Addl2,
        &[Operand::Reg(Reg::R2), Operand::Reg(Reg::R5)],
    )
    .unwrap();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R4)]).unwrap();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R3)]).unwrap();
    asm.inst(Opcode::Cmpl, &[Operand::Reg(Reg::R3), Operand::Literal(3)])
        .unwrap();
    let cont = asm.new_label();
    asm.branch(Opcode::Bneq, &[], cont).unwrap();
    // Third iteration only: re-aim the patcher at the victim's
    // immediate low byte (opcode + mode byte = +2).
    asm.inst(
        Opcode::Movl,
        &[
            Operand::Immediate(u64::from(patch_va)),
            Operand::Reg(Reg::R6),
        ],
    )
    .unwrap();
    asm.place(cont).unwrap();
    asm.inst(Opcode::Cmpl, &[Operand::Reg(Reg::R3), Operand::Literal(6)])
        .unwrap();
    asm.branch(Opcode::Blss, &[], top).unwrap();
    let done = asm.label_here();
    asm.branch(Opcode::Brb, &[], done).unwrap();
    (asm.finish().unwrap(), victim + 2)
}

#[test]
fn store_into_a_later_instruction_of_the_same_run_is_observed() {
    let fast = assert_tiers_identical(&same_run_smc_image(), 90);
    // The instruction buffer has already prefetched the victim's bytes
    // when the patcher executes, so each patch lands one iteration late
    // (faithful VAX-11/780 behavior — the reference loop agrees):
    // iterations 1–4 load #0x11 (4 × 17 = 68), iterations 5–6 load the
    // patched bytes 3 and 4. A loop that ignored the generation bump
    // entirely would keep serving #0x11 and end with R5 = 102.
    assert_eq!(fast.r_low[2], 4, "R2: last patched immediate");
    assert_eq!(fast.r_low[3], 6, "R3: iteration count");
    assert_eq!(fast.r_low[5], 75, "R5: sum over patched immediates");
    assert!(
        fast.replayed > 0,
        "the patcher/victim run never continued — guard not exercised"
    );
}
