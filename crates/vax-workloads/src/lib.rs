//! Synthetic VAX timesharing workloads for the characterization study.
//!
//! The paper measured five workloads — two live timesharing systems and
//! three Remote-Terminal-Emulator-driven synthetic environments
//! (educational, scientific/engineering, commercial) — all under VMS with
//! the Null process excluded (§2.2). This crate builds the moral
//! equivalent as *real machine images*:
//!
//! * [`codegen`] emits genuine VAX machine code per workload profile:
//!   function/loop/call structure, data-driven conditional branches,
//!   string/decimal/floating work, with instruction-mix and
//!   addressing-mode distributions as the calibration inputs;
//! * [`kernel`] builds a miniature VMS: SCB, interrupt service routines,
//!   a software-interrupt scheduler doing real `SVPCTX`/`LDPCTX` context
//!   switches, and `CHMK` system services;
//! * [`rte`] models the remote terminal emulator: scripted users whose
//!   keystrokes arrive as terminal interrupts;
//! * [`session`] assembles it all into a runnable [`Machine`].
//!
//! Everything is deterministic given the profile's seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod error;
pub mod kernel;
mod memo;
pub mod mix;
pub mod process;
pub mod profiles;
pub mod rte;
pub mod session;

pub use error::WorkloadError;
pub use mix::{MixWeights, ModeWeights, ProfileParams};
pub use profiles::{profile, WorkloadKind};
pub use rte::{RteConfig, RteSource};
pub use session::{
    build_machine, build_machine_with_config, code_memo_len, image_memo_bytes, machine_image,
    plan_processes, process_code, try_build_machine, try_build_machine_with_config, Machine,
    MachineImage, ProcessCode, ProcessImage, CODE_MEMO_CAPACITY, IMAGE_MEMO_MIB, USER_STACK_BYTES,
    USER_STACK_PAGES,
};
