//! VAX-11/780 memory subsystem model.
//!
//! Implements the right-hand half of the paper's Figure 1: the translation
//! buffer, the 8 KB write-through data cache, the 4-byte write buffer, the
//! SBI (Synchronous Backplane Interconnect) with its memory latency, and
//! VAX paging (512-byte pages over the P0/P1/S0 regions).
//!
//! # Cycle accounting
//!
//! The subsystem is passive with respect to time: every operation takes the
//! current cycle `now` and returns how many *stall* cycles the requester
//! incurs, plus (for instruction fetches) the completion time. The CPU
//! model owns the clock. Shared resources (the SBI and the write buffer)
//! are modelled as busy-until timestamps, which reproduces the paper's
//! read-stall / write-stall interactions:
//!
//! * a **read stall** is a cache read miss waiting for the SBI transfer
//!   (6 cycles in the simplest case, §4.3);
//! * a **write stall** happens when a write is attempted less than the
//!   write time after the previous write (§2.1);
//! * I-fetch misses do **not** stall the EBOX, but they occupy the SBI and
//!   can therefore delay later EBOX misses.
//!
//! # Hardware counters
//!
//! Events invisible to microcode on the real machine — IB references and
//! cache hit/miss counts — are accumulated in [`HwCounters`], the model's
//! stand-in for the separate hardware monitor of the companion cache study
//! (paper §4.1–4.2). The µPC histogram analysis never reads these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod counters;
mod paging;
mod phys;
mod sbi;
mod subsystem;
mod tb;

pub use cache::Cache;
pub use config::{CacheConfig, MemConfig, TbConfig};
pub use counters::HwCounters;
pub use paging::{
    load_virtual, pte_location, resolve_va, AddressSpace, MapBuilder, Pte, PteLocation, Region,
    SystemMap, P1_BASE, PAGE_BYTES, PAGE_SHIFT, S0_BASE,
};
pub use phys::{image_bytes, HostPage, PhysImage, PhysMem, HOST_PAGE_BYTES};
pub use sbi::Sbi;
pub use subsystem::{
    IFetchOutcome, MemFault, MemorySubsystem, ReadOutcome, Stream, TbFill, TbMiss, Width,
    WriteOutcome, CODE_BLOCK_BYTES,
};
pub use tb::{Tb, TbHalf};
