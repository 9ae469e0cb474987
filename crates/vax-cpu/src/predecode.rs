//! The predecode cache: parse each static instruction once, replay it on
//! re-execution.
//!
//! Workloads are dominated by redundant loop re-execution: the same
//! static instruction is decoded byte-by-byte millions of times while
//! its bytes never change. The cache stores the *parse* of an
//! instruction — opcode, per-specifier mode class and registers, and the
//! pre-assembled extension values (expanded short literals, immediate
//! data, sign-extended displacements) — keyed by the PC of its opcode
//! byte. On a hit, `Cpu::execute_one` replays the decoded form: it still
//! consumes the same I-stream bytes (so IB starvation stalls, prefetch
//! traffic, and I-stream TB misses land on exactly the same cycles) and
//! still issues the same specifier microinstructions, but skips the
//! host-side parsing work. The simulated machine cannot tell the
//! difference: histograms, hardware counters, and trace streams are
//! bit-identical to the naive loop.
//!
//! # Invalidation
//!
//! Two mechanisms keep entries honest:
//!
//! * **Writes.** Entries are stamped with
//!   [`MemorySubsystem::decode_gen`], which the memory subsystem bumps
//!   on any simulated write into a physical page flagged as holding
//!   predecoded bytes (so even self-modifying code cannot outrun the
//!   cache). A stale stamp is a miss; the slow path re-parses and
//!   re-inserts.
//! * **Address spaces.** Process-space entries are additionally tagged
//!   with the owning space's identity ([`MemorySubsystem::space_tag`]:
//!   the P0/P1 page-table bases, which are distinct per process).
//!   Context switches therefore cost nothing: the outgoing process's
//!   entries go dormant behind their tag and are live again the moment
//!   `LDPCTX` restores that space. System-space PCs (S0 is mapped
//!   identically for every process) use the shared tag 0 and survive
//!   all switches. This mirrors the translation buffer's discipline —
//!   rewriting a live page table in place without switching spaces is
//!   as undefined for the predecode cache as it is for the TB.
//!
//! [`MemorySubsystem::space_tag`]: vax_mem::MemorySubsystem::space_tag
//!
//! [`MemorySubsystem::decode_gen`]: vax_mem::MemorySubsystem::decode_gen

use crate::specifier::SpecDecode;
use vax_arch::Opcode;

/// VAX instructions have at most six operand specifiers (branch
/// displacements included).
pub(crate) const OPS_MAX: usize = 6;

/// One predecoded operand: a full specifier, or a branch displacement.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PdOp {
    /// An operand specifier (mode byte and extension already parsed).
    Spec(SpecDecode),
    /// A branch displacement: the sign-extended value and how many
    /// I-stream bytes it occupies.
    Branch { disp: i32, bytes: u8 },
}

/// The cached parse of one static instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredecodedInst {
    pub opcode: Opcode,
    pub nops: u8,
    pub ops: [PdOp; OPS_MAX],
}

impl PredecodedInst {
    pub(crate) fn new(opcode: Opcode) -> PredecodedInst {
        PredecodedInst {
            opcode,
            nops: 0,
            ops: [PdOp::Branch { disp: 0, bytes: 0 }; OPS_MAX],
        }
    }

    pub(crate) fn push(&mut self, op: PdOp) {
        self.ops[usize::from(self.nops)] = op;
        self.nops += 1;
    }
}

/// Slot identity, kept apart from the instruction payload so a lookup
/// scans one compact array (both ways of a set share a cache line)
/// and touches the big payload array only on a hit.
#[derive(Debug, Clone, Copy)]
struct Tag {
    pc: u32,
    /// Address-space tag at insert time (0 for system-space code).
    space: u64,
    /// `decode_gen` at insert time; 0 = empty (the subsystem's
    /// generation starts at 1).
    gen: u64,
}

/// Host-side predecode cache statistics (diagnostics: no simulated
/// meaning whatsoever).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Lookups that replayed a cached parse.
    pub hits: u64,
    /// Lookups that fell to the parse path.
    pub misses: u64,
    /// Parses inserted (or re-inserted) into the cache.
    pub inserts: u64,
}

/// Two-way set-associative predecode cache indexed by the low bits of
/// the PC. Two ways because the combined static footprint of a
/// timesharing workload's processes approaches the set count, and a
/// direct-mapped array would ping-pong hot instructions that share an
/// index; the replacement policy protects the most recently hit way, so
/// a conflicting cold instruction cannot evict a loop body.
#[derive(Debug)]
pub(crate) struct PredecodeCache {
    /// `2 * SETS` slot identities; set `i` occupies `[2i, 2i + 1]`.
    tags: Vec<Tag>,
    /// The instruction payloads, parallel to `tags`.
    insts: Vec<PredecodedInst>,
    mask: usize,
    /// One bit per set: which way was most recently hit (victim is the
    /// other one).
    mru: Vec<u64>,
    stats: PredecodeStats,
}

/// Set count (× 2 ways): generously covers the combined static
/// instructions of every process of a workload at ~5 MB of host memory
/// per CPU.
const SETS: usize = 1 << 14;

/// Total slots — the index space `lookup` hands out.
const SLOTS: usize = 2 * SETS;

impl PredecodeCache {
    /// An empty cache; `enabled == false` allocates nothing (the naive
    /// loop never touches it).
    pub(crate) fn new(enabled: bool) -> PredecodeCache {
        let empty = Tag {
            pc: 0,
            space: 0,
            gen: 0,
        };
        PredecodeCache {
            tags: if enabled {
                vec![empty; SLOTS]
            } else {
                Vec::new()
            },
            insts: if enabled {
                vec![PredecodedInst::new(Opcode::Nop); SLOTS]
            } else {
                Vec::new()
            },
            mask: SETS - 1,
            mru: if enabled {
                vec![0; SETS / 64]
            } else {
                Vec::new()
            },
            stats: PredecodeStats::default(),
        }
    }

    /// Hit/miss/insert counts since construction.
    pub(crate) fn stats(&self) -> PredecodeStats {
        self.stats
    }

    /// Set index for `(pc, space)`. Sequential PCs stay in sequential
    /// sets (loop locality); the space tag contributes a well-mixed
    /// offset so different processes whose images sit at the same VAs do
    /// not systematically collide.
    #[inline]
    fn set_of(&self, pc: u32, space: u64) -> usize {
        let mixed = space.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (pc.wrapping_add((mixed >> 48) as u32) as usize) & self.mask
    }

    #[inline]
    fn note_mru(&mut self, set: usize, way: usize) {
        let word = &mut self.mru[set / 64];
        *word = (*word & !(1 << (set % 64))) | ((way as u64) << (set % 64));
    }

    /// The slot index of the instruction at `pc` in address space
    /// `space`, if present and stamped with the current generation. An
    /// index, not a borrow: the replay path walks the cached operands
    /// *in place* through [`op_at`] while it mutates the rest of the
    /// CPU, and nothing inserts into the cache during a replay (only
    /// the parse path inserts), so the index stays valid for the whole
    /// instruction.
    ///
    /// [`op_at`]: PredecodeCache::op_at
    #[inline]
    pub(crate) fn lookup(&mut self, pc: u32, space: u64, gen: u64) -> Option<usize> {
        if self.tags.is_empty() {
            return None;
        }
        let set = self.set_of(pc, space);
        for way in 0..2 {
            let tag = &self.tags[2 * set + way];
            if tag.gen == gen && tag.pc == pc && tag.space == space {
                self.stats.hits += 1;
                self.note_mru(set, way);
                return Some(2 * set + way);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// The opcode and operand count of the slot at `idx`.
    #[inline]
    pub(crate) fn header_at(&self, idx: usize) -> (Opcode, u8) {
        let inst = &self.insts[idx];
        (inst.opcode, inst.nops)
    }

    /// The `i`-th cached operand of the slot at `idx`.
    #[inline]
    pub(crate) fn op_at(&self, idx: usize, i: usize) -> PdOp {
        self.insts[idx].ops[i]
    }

    /// Insert (or replace) the parse of the instruction at `pc`: refresh
    /// a matching slot, else reuse a dead one, else evict the way that
    /// was not hit most recently.
    ///
    /// A dead slot is one whose generation stamp is not `gen`: the
    /// subsystem's generation only grows, and a lookup demands an exact
    /// stamp, so a stale slot can never hit again and is as free as a
    /// never-used (`gen == 0`) one. Reusing it directly keeps both ways
    /// live. (With two ways the MRU bit alone already could not pin a
    /// stale slot — every MRU update coincides with making that way
    /// live, and a generation bump kills both ways at once, so the MRU
    /// way is stale only when its neighbor is too — but the explicit
    /// check keeps that invariant from being load-bearing.)
    pub(crate) fn insert(&mut self, pc: u32, space: u64, gen: u64, inst: PredecodedInst) {
        if self.tags.is_empty() {
            return;
        }
        let set = self.set_of(pc, space);
        self.stats.inserts += 1;
        let way = (0..2)
            .find(|&w| {
                let t = &self.tags[2 * set + w];
                t.pc == pc && t.space == space
            })
            .or_else(|| (0..2).find(|&w| self.tags[2 * set + w].gen != gen))
            .unwrap_or_else(|| {
                let mru = (self.mru[set / 64] >> (set % 64)) & 1;
                1 - mru as usize
            });
        self.tags[2 * set + way] = Tag { pc, space, gen };
        self.insts[2 * set + way] = inst;
        self.note_mru(set, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_misses_on_stale_generation() {
        let mut cache = PredecodeCache::new(true);
        cache.insert(0x200, 7, 1, PredecodedInst::new(Opcode::Nop));
        assert!(cache.lookup(0x200, 7, 1).is_some());
        assert!(cache.lookup(0x200, 7, 2).is_none(), "generation bump");
        assert!(cache.lookup(0x201, 7, 1).is_none(), "different pc");
        assert!(cache.lookup(0x200, 8, 1).is_none(), "different space");
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut cache = PredecodeCache::new(false);
        cache.insert(0x200, 0, 1, PredecodedInst::new(Opcode::Nop));
        assert!(cache.lookup(0x200, 0, 1).is_none());
    }

    #[test]
    fn colliding_pcs_fill_both_ways_then_evict_lru() {
        let mut cache = PredecodeCache::new(true);
        let a = 0x200;
        let b = a + (SETS as u32); // same set as a
        let c = a + 2 * (SETS as u32); // same set again
        cache.insert(a, 0, 1, PredecodedInst::new(Opcode::Nop));
        cache.insert(b, 0, 1, PredecodedInst::new(Opcode::Nop));
        assert!(cache.lookup(a, 0, 1).is_some(), "two ways hold both");
        assert!(cache.lookup(b, 0, 1).is_some());
        // b was hit most recently, so a third conflicting insert evicts a.
        cache.insert(c, 0, 1, PredecodedInst::new(Opcode::Nop));
        assert!(cache.lookup(a, 0, 1).is_none(), "LRU way evicted");
        assert!(cache.lookup(b, 0, 1).is_some(), "MRU way protected");
        assert!(cache.lookup(c, 0, 1).is_some());

        // Stale-slot case: a generation bump kills both resident entries
        // (b and c); they can never hit again, so new inserts must land
        // in the dead ways without evicting each other — a stale slot
        // must not occupy a way ahead of live data.
        let d = a + 3 * (SETS as u32);
        let e = a + 4 * (SETS as u32);
        cache.insert(d, 0, 2, PredecodedInst::new(Opcode::Nop));
        assert!(cache.lookup(d, 0, 2).is_some());
        cache.insert(e, 0, 2, PredecodedInst::new(Opcode::Movl));
        assert!(
            cache.lookup(d, 0, 2).is_some(),
            "live entry evicted while a stale slot held the other way"
        );
        assert!(cache.lookup(e, 0, 2).is_some());
        // And a re-insert of a stale PC refreshes its own slot in place
        // instead of consuming the neighboring live way.
        cache.insert(d, 0, 3, PredecodedInst::new(Opcode::Nop));
        cache.insert(e, 0, 3, PredecodedInst::new(Opcode::Movl));
        let slot = cache.lookup(e, 0, 3).expect("refreshed in place");
        assert_eq!(cache.header_at(slot).0, Opcode::Movl);
        assert!(cache.lookup(d, 0, 3).is_some(), "neighbor way survived");
    }

    #[test]
    fn spaces_coexist_at_the_same_pc() {
        // Two processes with images at the same VA keep independent
        // entries: a context switch costs nothing.
        let mut cache = PredecodeCache::new(true);
        cache.insert(0x200, 111, 1, PredecodedInst::new(Opcode::Nop));
        cache.insert(0x200, 222, 1, PredecodedInst::new(Opcode::Movl));
        let a = cache.lookup(0x200, 111, 1).expect("space 111 entry");
        assert_eq!(cache.header_at(a).0, Opcode::Nop);
        let b = cache.lookup(0x200, 222, 1).expect("space 222 entry");
        assert_eq!(cache.header_at(b).0, Opcode::Movl);
    }
}
