//! Session assembly: build a complete runnable machine for one workload.
//!
//! Wires together physical memory and paging, the generated kernel, the
//! per-process programs/data/PCBs, the SCB, and the external event
//! sources (interval timer + RTE). The result boots like the real thing:
//! the CPU starts in the kernel bootstrap, `LDPCTX`/`REI`s into process
//! 0, and from then on the timer drives scheduling.

use crate::codegen::{CodeGen, DataLayout};
use crate::error::WorkloadError;
use crate::kernel::{self, KernelImage};
use crate::mix::ProfileParams;
use crate::process;
use crate::rte::{RteConfig, RteSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use upc_monitor::CycleSink;
use vax_arch::Assembler;
use vax_cpu::{Cpu, CpuConfig, CpuError, Interrupt, Psl, StepOutcome};
use vax_mem::{load_virtual, AddressSpace, MapBuilder, MemConfig, MemorySubsystem, PAGE_BYTES};

/// Interval-timer interrupt: IPL 24, SCB vector 0xC0 (the 11/780 clock).
const TIMER_IPL: u8 = 24;
const TIMER_VECTOR: u16 = 0xC0;

/// User stack pages within each process's P1 window; kernel stack pages
/// sit above them. Public so the static verifier (`vax-lint`) can bound
/// worst-case stack depth against the stack actually mapped here.
pub const USER_STACK_PAGES: u32 = 32;

/// Bytes of user stack each process gets ([`USER_STACK_PAGES`] pages).
pub const USER_STACK_BYTES: u32 = USER_STACK_PAGES * PAGE_BYTES;
const KERNEL_STACK_PAGES: u32 = 8;

/// A complete workload machine.
pub struct Machine {
    /// The processor (owns the memory subsystem).
    pub cpu: Cpu,
    /// Profile name (report labels).
    pub name: &'static str,
    /// The Null-process idle loop PC (measurement exclusion).
    pub idle_pc: u32,
    timer_period: u64,
    next_timer: u64,
    dma_period: u64,
    dma_burst: u64,
    next_dma: u64,
    rte: RteSource,
    interrupts_posted: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.name)
            .field("cycles", &self.cpu.now())
            .field("instructions", &self.cpu.instructions())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Post any external events that are due at the current cycle.
    pub fn pump(&mut self) {
        let now = self.cpu.now();
        if now >= self.next_timer {
            self.cpu.post_interrupt(Interrupt {
                ipl: TIMER_IPL,
                vector: TIMER_VECTOR,
            });
            self.interrupts_posted += 1;
            // Missed ticks are dropped, as a real ISR that re-arms would.
            self.next_timer = now + self.timer_period;
        }
        while let Some(int) = self.rte.due(now) {
            self.cpu.post_interrupt(int);
            self.interrupts_posted += 1;
        }
        // Background SBI DMA (disk/terminal controllers).
        if self.dma_period > 0 && now >= self.next_dma {
            self.cpu.mem_mut().inject_dma(now, self.dma_burst);
            self.next_dma = now + self.dma_period;
        }
        // Everything due at `now` has been posted, so each source's next
        // firing is strictly in the future: publish the earliest one as
        // the CPU's event horizon. The fast run loop stops before
        // crossing it, which makes the pump calls it skips provable
        // no-ops.
        let next_dma = if self.dma_period > 0 {
            self.next_dma
        } else {
            u64::MAX
        };
        self.cpu
            .set_event_horizon(self.next_timer.min(self.rte.next_due()).min(next_dma));
    }

    /// One instruction (or interrupt service), with event pumping.
    ///
    /// # Errors
    ///
    /// Propagates CPU errors ([`CpuError::Halted`] etc.).
    pub fn step<S: CycleSink>(&mut self, sink: &mut S) -> Result<StepOutcome, CpuError> {
        self.pump();
        self.cpu.step(sink)
    }

    /// Up to `budget` instructions (or one interrupt service), with
    /// event pumping: the fast run loop may retire several
    /// instructions in one call, but never more than `budget` and never
    /// past the next external event.
    ///
    /// # Errors
    ///
    /// Propagates CPU errors ([`CpuError::Halted`] etc.).
    pub fn step_budgeted<S: CycleSink>(
        &mut self,
        budget: u64,
        sink: &mut S,
    ) -> Result<StepOutcome, CpuError> {
        self.pump();
        self.cpu.step_budgeted(budget, sink)
    }

    /// Run until `n` more instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates CPU errors.
    pub fn run_instructions<S: CycleSink>(&mut self, n: u64, sink: &mut S) -> Result<(), CpuError> {
        let target = self.cpu.instructions() + n;
        while self.cpu.instructions() < target {
            let remaining = target - self.cpu.instructions();
            self.step_budgeted(remaining, sink)?;
        }
        Ok(())
    }

    /// Run `n` instructions as a named phase: the sink receives
    /// begin/end phase markers around the run, so a tracing sink can
    /// bracket warmup/measure/cooldown in its timeline. Non-tracing
    /// sinks ignore the markers.
    ///
    /// # Errors
    ///
    /// Propagates CPU errors; the end marker is still emitted.
    pub fn run_phase<S: CycleSink>(
        &mut self,
        name: &str,
        n: u64,
        sink: &mut S,
    ) -> Result<(), CpuError> {
        sink.trace_phase(name, true);
        let result = self.run_instructions(n, sink);
        sink.trace_phase(name, false);
        result
    }

    /// Is the CPU sitting in the Null process? (The idle loop is a
    /// two-byte `BRB` to itself.)
    pub fn at_idle(&self) -> bool {
        let pc = self.cpu.pc();
        pc >= self.idle_pc && pc < self.idle_pc + 2
    }

    /// External interrupts posted so far (timer + terminals).
    pub fn interrupts_posted(&self) -> u64 {
        self.interrupts_posted
    }

    /// Keystrokes delivered by the RTE so far.
    pub fn keystrokes(&self) -> u64 {
        self.rte.delivered()
    }
}

/// One process's generated program, before it is loaded into memory:
/// the assembled code image, the data layout/image it runs against, and
/// the placement facts a static analyzer needs (entry point, function
/// addresses).
#[derive(Debug)]
pub struct ProcessImage {
    /// Assembled user code.
    pub image: vax_arch::CodeImage,
    /// Data-region layout the code was generated against.
    pub layout: DataLayout,
    /// Initial contents of the data region.
    pub data: Vec<u8>,
    /// User-mode entry PC (the dispatcher).
    pub entry: u32,
    /// Function addresses (each starts with a 2-byte entry mask), in
    /// function-table order.
    pub functions: Vec<u32>,
}

/// Generate every process image for a profile — the pure-codegen half of
/// machine construction, exposed so static analysis (`vax-lint`) can
/// inspect exactly the code a machine would run without building one.
///
/// Deterministic in `params.seed`.
///
/// # Errors
///
/// [`WorkloadError::Params`] for out-of-range parameters and
/// [`WorkloadError::Codegen`] when generation or assembly fails.
pub fn plan_processes(params: &ProfileParams) -> Result<Vec<ProcessImage>, WorkloadError> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    plan_processes_with(params, &mut rng)
}

/// As [`plan_processes`], continuing an existing RNG stream (the kernel
/// builder consumes the same stream right after the data images, so the
/// split must not reseed in between).
fn plan_processes_with(
    params: &ProfileParams,
    rng: &mut StdRng,
) -> Result<Vec<ProcessImage>, WorkloadError> {
    params.check()?;
    let mut plans = Vec::with_capacity(params.processes as usize);
    for i in 0..params.processes {
        let layout_base = PAGE_BYTES; // page 0 reserved
        let layout = DataLayout::for_profile(params, layout_base);
        let code_base = (layout_base + layout.total_len + 15) & !15;
        let mut asm = Assembler::new(code_base);
        let gen_rng = StdRng::seed_from_u64(params.seed ^ (0x9E37_79B9 * u64::from(i + 1)));
        let mut generator = CodeGen::new(&mut asm, gen_rng, params, layout);
        let codegen_err = |source| WorkloadError::Codegen {
            profile: params.name,
            process: i,
            source,
        };
        let prog = generator.generate().map_err(codegen_err)?;
        let image = asm.finish().map_err(codegen_err)?;
        let data = process::build_data_image(&layout, params, rng, &prog.functions);
        plans.push(ProcessImage {
            image,
            layout,
            data,
            entry: prog.entry,
            functions: prog.functions,
        });
    }
    Ok(plans)
}

/// Build a machine for the given workload profile.
///
/// Deterministic in `params.seed`. Panics on construction failure; use
/// [`try_build_machine`] to report the error instead.
pub fn build_machine(params: &ProfileParams) -> Machine {
    build_machine_with_config(params, CpuConfig::default(), MemConfig::default())
}

/// As [`build_machine`] with explicit CPU/memory configurations (used by
/// the ablation benches).
pub fn build_machine_with_config(
    params: &ProfileParams,
    cpu_config: CpuConfig,
    mem_config: MemConfig,
) -> Machine {
    match try_build_machine_with_config(params, cpu_config, mem_config) {
        Ok(machine) => machine,
        Err(e) => panic!("{e}"),
    }
}

/// Build a machine for the given workload profile, reporting failures
/// (bad parameters, generator or kernel bugs) as a [`WorkloadError`]
/// diagnostic instead of aborting the process.
///
/// # Errors
///
/// Any [`WorkloadError`] from parameter checking, process code
/// generation, or the kernel builder.
pub fn try_build_machine(params: &ProfileParams) -> Result<Machine, WorkloadError> {
    try_build_machine_with_config(params, CpuConfig::default(), MemConfig::default())
}

/// As [`try_build_machine`] with explicit CPU/memory configurations.
///
/// # Errors
///
/// Any [`WorkloadError`] from parameter checking, process code
/// generation, or the kernel builder.
pub fn try_build_machine_with_config(
    params: &ProfileParams,
    cpu_config: CpuConfig,
    mem_config: MemConfig,
) -> Result<Machine, WorkloadError> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let plans = plan_processes_with(params, &mut rng)?;
    let mut mem = MemorySubsystem::new(mem_config);
    let mut mb = MapBuilder::new(mem.phys(), 8192);

    // ----- physical allocations: SCB and PCBs ------------------------------
    let scb_pa = mb.alloc_frames(1) * PAGE_BYTES;
    let pcb_pas: Vec<u32> = (0..params.processes)
        .map(|_| mb.alloc_frames(1) * PAGE_BYTES)
        .collect();

    // ----- kernel ------------------------------------------------------------
    let kdata_pages = kernel::kdata::SIZE.div_ceil(PAGE_BYTES).max(4);
    let kdata_va = 0x8000_0000;
    let kcode_va = kdata_va + kdata_pages * PAGE_BYTES;
    let kernel_img: KernelImage = kernel::build_kernel(
        params, &mut rng, kcode_va, kdata_va, scb_pa, &pcb_pas,
    )
    .map_err(|source| WorkloadError::Kernel {
        profile: params.name,
        source,
    })?;
    let kcode_pages = (kernel_img.code.len() as u32).div_ceil(PAGE_BYTES) + 1;

    // ----- system mappings (order defines the fixed kernel VAs) -------------
    let got_kdata = mb.map_system(mem.phys_mut(), kdata_pages);
    assert_eq!(got_kdata, kdata_va, "kernel data VA");
    let got_kcode = mb.map_system(mem.phys_mut(), kcode_pages);
    assert_eq!(got_kcode, kcode_va, "kernel code VA");
    let istack_pages = 8;
    let istack_base = mb.map_system(mem.phys_mut(), istack_pages);
    let istack_top = istack_base + istack_pages * PAGE_BYTES;

    // ----- processes ----------------------------------------------------------
    let p1_pages = USER_STACK_PAGES + KERNEL_STACK_PAGES;
    let mut spaces = Vec::with_capacity(plans.len());
    for plan in &plans {
        let p0_pages = plan.image.end().div_ceil(PAGE_BYTES) + 2;
        let space = mb.create_process(mem.phys_mut(), p0_pages, p1_pages);
        spaces.push(space);
    }
    let system = mb.system_map();
    mem.set_system_map(system);

    // Load kernel code and data (system space; any address space works).
    let empty = AddressSpace::empty();
    load_virtual(
        mem.phys_mut(),
        &system,
        &empty,
        kernel_img.code.base,
        &kernel_img.code.bytes,
    );
    load_virtual(mem.phys_mut(), &system, &empty, kdata_va, &kernel_img.data);

    // SCB vectors (physical).
    for &(vector, handler) in &kernel_img.vectors {
        mem.phys_mut()
            .write_u32(scb_pa + u32::from(vector), handler);
    }

    // Load process images, stacks, PCBs.
    for (i, plan) in plans.iter().enumerate() {
        let space = spaces[i];
        load_virtual(
            mem.phys_mut(),
            &system,
            &space,
            plan.layout.base,
            &plan.data,
        );
        load_virtual(
            mem.phys_mut(),
            &system,
            &space,
            plan.image.base,
            &plan.image.bytes,
        );
        // Initial kernel-stack frame: REI pops PC then PSL.
        let ktop = space.stack_top();
        let ksp = ktop - 8;
        let user_psl = Psl::default(); // user mode, IPL 0
        let mut frame = Vec::with_capacity(8);
        frame.extend_from_slice(&plan.entry.to_le_bytes());
        frame.extend_from_slice(&user_psl.to_u32().to_le_bytes());
        load_virtual(mem.phys_mut(), &system, &space, ksp, &frame);
        let usp = vax_mem::P1_BASE + USER_STACK_PAGES * PAGE_BYTES;
        let pcb = process::build_pcb(&space, ksp, usp);
        for (off, b) in pcb.iter().enumerate() {
            mem.phys_mut().write_u8(pcb_pas[i] + off as u32, *b);
        }
    }

    // ----- CPU -----------------------------------------------------------------
    let mut cpu = Cpu::new(mem, cpu_config, kernel_img.boot_pc);
    // The boot code's MTPRs install SCBB/PCBB architecturally; priming the
    // interrupt stack pointer is legitimately machine setup.
    let on_is = Psl {
        interrupt_stack: true,
        ..Psl::kernel_boot()
    };
    cpu.regs_mut().set_banked_sp(&on_is, istack_top);
    // Give boot a kernel stack too (not used past the bootstrap).
    cpu.regs_mut().set_sp(istack_top - 64);

    let rte = RteSource::new(RteConfig {
        users: params.terminal_users,
        think_mean_cycles: params.think_mean_cycles,
        burst_mean_keys: params.burst_mean_keys,
        key_gap_cycles: params.key_gap_cycles,
        seed: params.seed ^ 0xDEAD_BEEF,
    });

    Ok(Machine {
        cpu,
        name: params.name,
        idle_pc: kernel_img.idle_pc,
        timer_period: params.timer_period,
        next_timer: params.timer_period,
        dma_period: params.dma_period,
        dma_burst: params.dma_burst,
        next_dma: params.dma_period,
        rte,
        interrupts_posted: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{profile, WorkloadKind};
    use upc_monitor::NullSink;

    fn small_profile() -> ProfileParams {
        ProfileParams {
            processes: 3,
            functions_per_process: 8,
            slots_per_function: 20,
            scalar_bytes: 16 * 1024,
            terminal_users: 4,
            ..profile(WorkloadKind::TimesharingLight)
        }
    }

    #[test]
    fn machine_boots_into_user_code_and_runs() {
        let params = small_profile();
        let mut m = build_machine(&params);
        let mut sink = NullSink;
        m.run_instructions(20_000, &mut sink).expect("runs");
        assert!(m.cpu.instructions() >= 20_000);
        assert!(m.cpu.now() > 20_000, "cycles advanced");
        // The workload actually exercises memory.
        let c = m.cpu.mem().counters();
        assert!(c.writes > 100, "writes: {}", c.writes);
        assert!(c.cache_miss_d > 0);
        assert!(c.ib_requests > 1000);
    }

    #[test]
    fn context_switches_happen() {
        let params = small_profile();
        let mut m = build_machine(&params);
        let mut sink = NullSink;
        // Run long enough for several timer ticks.
        m.run_instructions(60_000, &mut sink).expect("runs");
        assert!(
            m.interrupts_posted() > 3,
            "interrupts posted: {}",
            m.interrupts_posted()
        );
        // TB process flushes (from LDPCTX) leave their mark as misses.
        assert!(m.cpu.mem().counters().tb_misses() > 10);
    }

    #[test]
    fn build_is_deterministic() {
        let params = small_profile();
        let run = || {
            let mut m = build_machine(&params);
            let mut sink = NullSink;
            m.run_instructions(5_000, &mut sink).unwrap();
            (m.cpu.now(), m.cpu.pc())
        };
        assert_eq!(run(), run());
    }
}
