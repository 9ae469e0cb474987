//! Workload mix specifications: the calibration inputs.
//!
//! These distributions are *properties of the measured workloads*, taken
//! from the paper's Tables 1/2/4 and §3 prose (see DESIGN.md's
//! calibration policy). The simulator's *outputs* — Tables 3, 5, 6, 8, 9
//! and every stall/miss number — are never set here; they emerge.

use rand::rngs::StdRng;
use rand::Rng;

/// Relative weights for the code generator's instruction emitters.
///
/// Weights need not sum to anything in particular; they are normalized at
/// sampling time. Each emitter produces one "slot" — usually a single
/// instruction, sometimes a short idiom (push/pop pair, compare+branch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixWeights {
    /// Data moves (`MOVx`, `CLRx`, `MOVZxx`, `PUSHL`, `MOVAL`).
    pub moves: f64,
    /// Simple integer arithmetic (`ADD/SUB/INC/DEC/ADWC`).
    pub arith: f64,
    /// Booleans and tests (`BIS/BIC/XOR/BIT/TST/CMP` without branch).
    pub logic: f64,
    /// Compare + conditional branch idiom (SimpleCond class).
    pub cond_branch: f64,
    /// Low-bit test branches (`BLBS`/`BLBC`).
    pub lowbit_branch: f64,
    /// A counted loop construct (the body is sampled recursively).
    pub loop_construct: f64,
    /// `CASEx` dispatch.
    pub case_dispatch: f64,
    /// Computed unconditional `JMP`.
    pub jmp_uncond: f64,
    /// `BSBx`/`JSB` to a local leaf + `RSB`.
    pub jsb_leaf: f64,
    /// `CALLS` through the function table (plus eventual `RET`).
    pub calls_proc: f64,
    /// `PUSHR`/`POPR` pair.
    pub pushr_popr: f64,
    /// Bit-field operations (`EXTZV/EXTV/INSV/FFS/CMPZV`).
    pub field_ops: f64,
    /// Bit branches (`BBS/BBC/BBSS/BBCC`).
    pub bit_branch: f64,
    /// F/D floating arithmetic.
    pub float_ops: f64,
    /// Integer multiply/divide (`MULL/DIVL/EMUL`).
    pub muldiv: f64,
    /// Character-string instruction.
    pub char_ops: f64,
    /// Packed-decimal instruction.
    pub decimal_ops: f64,
    /// Queue manipulation (`INSQUE`/`REMQUE` pair).
    pub queue_ops: f64,
    /// `CHMK` system-service request.
    pub syscall: f64,
}

impl MixWeights {
    /// A general-timesharing baseline (program development, editing,
    /// mail), tuned toward the composite Table 1.
    pub fn timesharing() -> MixWeights {
        MixWeights {
            moves: 30.0,
            arith: 15.0,
            logic: 5.5,
            cond_branch: 26.0,
            lowbit_branch: 6.0,
            loop_construct: 0.33,
            case_dispatch: 2.6,
            jmp_uncond: 1.0,
            jsb_leaf: 7.5,
            calls_proc: 3.6,
            pushr_popr: 0.80,
            field_ops: 10.0,
            bit_branch: 14.0,
            float_ops: 14.0,
            muldiv: 2.0,
            char_ops: 0.80,
            decimal_ops: 0.15,
            queue_ops: 2.60,
            syscall: 0.50,
        }
    }
}

/// Addressing-mode weights for operand sampling (Table 4 shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeWeights {
    /// Register mode.
    pub register: f64,
    /// Short literal (read operands only).
    pub literal: f64,
    /// Immediate.
    pub immediate: f64,
    /// Byte/word displacement off a base register.
    pub displacement: f64,
    /// Register deferred.
    pub reg_deferred: f64,
    /// Displacement deferred.
    pub disp_deferred: f64,
    /// Autoincrement (walker registers).
    pub autoincrement: f64,
    /// Autodecrement.
    pub autodecrement: f64,
    /// Autoincrement deferred (pointer-table walk).
    pub autoinc_deferred: f64,
    /// Absolute.
    pub absolute: f64,
    /// Probability that a memory operand is indexed.
    pub indexed: f64,
}

impl ModeWeights {
    /// The composite Table 4 shape.
    pub fn composite() -> ModeWeights {
        // These weights apply only to the *sampled* operands of generic
        // move/arithmetic slots; the many fixed register/literal operands
        // of the other emitters dilute them, so the memory modes are
        // overweighted here to land the overall Table 4 shape.
        ModeWeights {
            register: 20.0,
            literal: 3.0,
            immediate: 2.5,
            displacement: 24.0,
            reg_deferred: 52.0,
            disp_deferred: 5.5,
            autoincrement: 0.6,
            autodecrement: 1.8,
            autoinc_deferred: 1.1,
            absolute: 1.2,
            indexed: 0.70,
        }
    }
}

/// Everything the session builder needs to construct one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileParams {
    /// Human-readable name (report labels).
    pub name: &'static str,
    /// RNG seed (whole build is deterministic in this).
    pub seed: u64,
    /// Number of timesharing processes.
    pub processes: u32,
    /// Instruction-mix weights for user code.
    pub user_mix: MixWeights,
    /// Addressing-mode weights.
    pub modes: ModeWeights,
    /// Functions per process program.
    pub functions_per_process: u32,
    /// Body slots per function (mean; sampled ±50 %).
    pub slots_per_function: u32,
    /// Mean loop iteration count ("about 10", Table 2 discussion).
    pub loop_mean_iters: u32,
    /// Mean character-string length in bytes (§5: 36–44).
    pub string_mean_len: u32,
    /// Mean packed-decimal digit count.
    pub decimal_mean_digits: u32,
    /// Mean registers saved by a procedure entry mask (§5: ≈8 pushes
    /// per CALL including linkage).
    pub call_mask_regs: u32,
    /// Scalar data area bytes per process (D-stream working set knob).
    pub scalar_bytes: u32,
    /// Interval-timer period in cycles (drives scheduling, Table 7).
    pub timer_period: u64,
    /// Simulated terminal users (RTE scripts).
    pub terminal_users: u32,
    /// Mean think time between keystroke bursts, in cycles.
    pub think_mean_cycles: u64,
    /// Keystrokes per burst (mean).
    pub burst_mean_keys: u32,
    /// Cycles between keystrokes within a burst.
    pub key_gap_cycles: u64,
    /// `CHMK` service codes available (kernel generates this many).
    pub service_count: u32,
    /// Mean slots in a kernel service body.
    pub service_slots: u32,
    /// Probability a terminal ISR posts a level-2 software interrupt.
    pub ast_probability: f64,
    /// Cycles between background DMA transactions on the SBI (disk and
    /// terminal controllers of a live system); 0 disables.
    pub dma_period: u64,
    /// SBI cycles one DMA transaction occupies.
    pub dma_burst: u64,
}

impl ProfileParams {
    /// Sanity checks; panics on nonsense parameters.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Sample a geometric-ish count with the given mean (at least 1, capped).
pub(crate) fn sample_count(rng: &mut StdRng, mean: u32, cap: u32) -> u32 {
    let mean = mean.max(1) as f64;
    let u: f64 = rng.random::<f64>().max(1e-9);
    let v = (-u.ln() * mean).round() as u32;
    v.clamp(1, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_count_respects_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000;
        let mean_target = 10;
        let mut sum = 0u64;
        for _ in 0..n {
            let v = sample_count(&mut rng, mean_target, 64);
            assert!((1..=64).contains(&v));
            sum += u64::from(v);
        }
        let mean = sum as f64 / n as f64;
        assert!(
            (6.0..14.0).contains(&mean),
            "empirical mean {mean} near target"
        );
    }

    #[test]
    fn default_params_validate() {
        crate::profiles::profile(crate::profiles::WorkloadKind::TimesharingLight).validate();
    }
}
