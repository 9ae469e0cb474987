//! Property tests for the memory subsystem: cache/TB invariants, paging
//! round trips, and timing monotonicity.

use proptest::prelude::*;
use vax_mem::{
    load_virtual, resolve_va, AddressSpace, Cache, CacheConfig, MapBuilder, MemConfig,
    MemorySubsystem, PhysMem, Stream, SystemMap, Tb, TbConfig, Width, PAGE_BYTES,
};

fn small_machine() -> MemorySubsystem {
    let mut mem = MemorySubsystem::new(MemConfig::default());
    let mut mb = MapBuilder::new(mem.phys(), 4096);
    mb.map_system(mem.phys_mut(), 32);
    let space = mb.create_process(mem.phys_mut(), 128, 8);
    let sys = mb.system_map();
    mem.set_system_map(sys);
    mem.switch_address_space(space);
    mem
}

/// Program pages of [`scattered_process`].
const P0_PAGES: u32 = 16;

/// A process whose P0 frames run in *reverse* page order (its PTEs are
/// remapped after `create_process` laid them out ascending), so every
/// page boundary a span crosses lands in a non-adjacent frame.
fn scattered_process(phys: &mut PhysMem) -> (SystemMap, AddressSpace) {
    let mut mb = MapBuilder::new(phys, 256);
    let space = mb.create_process(phys, P0_PAGES, 1);
    let sys = mb.system_map();
    let pte_pas: Vec<u32> = (0..P0_PAGES)
        .map(|i| resolve_va(phys, &sys, &AddressSpace::empty(), space.p0br + i * 4).unwrap())
        .collect();
    let ptes: Vec<u32> = pte_pas.iter().map(|&pa| phys.read_u32(pa)).collect();
    for (&pa, &pte) in pte_pas.iter().zip(ptes.iter().rev()) {
        phys.write_u32(pa, pte);
    }
    let first = resolve_va(phys, &sys, &space, 0).unwrap();
    let second = resolve_va(phys, &sys, &space, PAGE_BYTES).unwrap();
    assert_ne!(second, first + PAGE_BYTES, "frames still adjacent");
    (sys, space)
}

/// The first physical address where two memories differ.
fn first_difference(a: &PhysMem, b: &PhysMem) -> Option<u32> {
    (0..a.size()).find(|&pa| a.read_u8(pa) != b.read_u8(pa))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The page-at-a-time loader writes exactly what a walk per byte
    /// writes — nothing more, nothing elsewhere — for spans at any page
    /// offset, whether the pages' frames are adjacent or scattered.
    #[test]
    fn load_virtual_matches_a_bytewise_walk(
        page in 0u32..(P0_PAGES - 8),
        offset in 0u32..PAGE_BYTES,
        data in prop::collection::vec(any::<u8>(), 1..=3000),
        scattered: bool,
    ) {
        let mut phys = PhysMem::new(1 << 18);
        let (sys, space) = if scattered {
            scattered_process(&mut phys)
        } else {
            let mut mb = MapBuilder::new(&phys, 256);
            let space = mb.create_process(&mut phys, P0_PAGES, 1);
            (mb.system_map(), space)
        };
        let mut reference = phys.clone();
        let va = page * PAGE_BYTES + offset;
        load_virtual(&mut phys, &sys, &space, va, &data);
        for (i, &b) in data.iter().enumerate() {
            let pa = resolve_va(&reference, &sys, &space, va + i as u32).unwrap();
            reference.write_u8(pa, b);
        }
        prop_assert_eq!(first_difference(&phys, &reference), None);
    }

    /// `PhysMem::load` past the top of memory wraps to address 0 exactly
    /// as one masked byte write per byte does, spans longer than memory
    /// included (later bytes win).
    #[test]
    fn phys_load_wraps_like_bytewise_writes(
        pa in 0u32..4096,
        data in prop::collection::vec(any::<u8>(), 1..10_000),
    ) {
        let mut fast = PhysMem::new(4096);
        let mut slow = fast.clone();
        fast.load(pa, &data);
        for (i, &b) in data.iter().enumerate() {
            slow.write_u8(pa.wrapping_add(i as u32) & 4095, b);
        }
        prop_assert_eq!(first_difference(&fast, &slow), None);
    }

    /// A second probe of any just-filled cache block hits.
    #[test]
    fn cache_fill_then_probe_hits(pa in 0u32..(1 << 22)) {
        let mut cache = Cache::new(CacheConfig::default());
        cache.fill(pa);
        prop_assert!(cache.probe(pa));
        // And the whole 8-byte block is present.
        prop_assert!(cache.probe(pa & !7));
        prop_assert!(cache.probe((pa & !7) + 7));
    }

    /// The number of valid lines never exceeds the capacity, no matter
    /// the fill sequence.
    #[test]
    fn cache_capacity_is_bounded(pas in prop::collection::vec(0u32..(1 << 22), 1..600)) {
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            block_bytes: 8,
        };
        let mut cache = Cache::new(config);
        for pa in pas {
            cache.fill(pa);
        }
        prop_assert!(cache.valid_lines() <= (config.size_bytes / config.block_bytes) as usize);
    }

    /// TB insert-then-lookup returns the inserted translation; lookups
    /// never invent entries.
    #[test]
    fn tb_insert_lookup(vas in prop::collection::vec(0u32..0x4000_0000, 1..100)) {
        let mut tb = Tb::new(TbConfig::default());
        for (i, &va) in vas.iter().enumerate() {
            tb.insert(va, vax_mem::Pte::valid_frame(i as u32 + 1));
            let got = tb.lookup(va);
            prop_assert!(got.is_some());
            prop_assert_eq!(got.unwrap().pfn(), i as u32 + 1);
        }
        prop_assert!(tb.valid_entries() <= 128);
    }

    /// Virtual loads round-trip through the page tables byte-exactly.
    #[test]
    fn load_virtual_round_trips(
        offset in 0u32..30_000,
        data in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let mut mem = MemorySubsystem::new(MemConfig::default());
        let mut mb = MapBuilder::new(mem.phys(), 4096);
        mb.map_system(mem.phys_mut(), 8);
        let space = mb.create_process(mem.phys_mut(), 128, 4);
        let sys = mb.system_map();
        mem.set_system_map(sys);
        mem.switch_address_space(space);
        let va = PAGE_BYTES + offset; // page 0 reserved
        load_virtual(mem.phys_mut(), &sys, &space, va, &data);
        for (i, &b) in data.iter().enumerate() {
            let pa = resolve_va(mem.phys(), &sys, &space, va + i as u32).unwrap();
            prop_assert_eq!(mem.phys().read_u8(pa), b);
        }
    }

    /// Writes become visible to subsequent reads at every width, and the
    /// second read of the same location never stalls longer than the
    /// first (the block is cached).
    #[test]
    fn write_read_coherence(
        page in 1u32..100,
        off in 0u32..(PAGE_BYTES / 8),
        value: u32,
    ) {
        let mut mem = small_machine();
        let va = page * PAGE_BYTES + off * 8; // longword-aligned, in P0
        mem.tb_fill(va, 0).unwrap();
        let pa = mem.translate(va, Stream::Data).unwrap();
        mem.write(pa, Width::Long, value, 100);
        let r1 = mem.read(pa, Width::Long, 200);
        prop_assert_eq!(r1.value, value);
        let r2 = mem.read(pa, Width::Long, 300);
        prop_assert_eq!(r2.value, value);
        prop_assert!(r2.stall <= r1.stall);
        prop_assert!(!r2.miss);
    }

    /// Sub-longword reads extract exactly the bytes a longword read sees.
    #[test]
    fn subword_extraction(page in 1u32..100, value: u32, byte in 0u32..4) {
        let mut mem = small_machine();
        let va = page * PAGE_BYTES;
        mem.tb_fill(va, 0).unwrap();
        let pa = mem.translate(va, Stream::Data).unwrap();
        mem.write(pa, Width::Long, value, 0);
        let b = mem.read(pa + byte, Width::Byte, 100);
        prop_assert_eq!(b.value, (value >> (8 * byte)) & 0xFF);
        if byte < 3 {
            let w = mem.read(pa + byte, Width::Word, 200);
            prop_assert_eq!(w.value, (value >> (8 * byte)) & 0xFFFF);
        }
    }

    /// Back-to-back writes stall by exactly the remaining drain time.
    #[test]
    fn write_stall_formula(gap in 0u64..12) {
        let mut mem = small_machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        // Quiesce the page-walk SBI traffic.
        let w1 = mem.write(pa, Width::Long, 1, 1000);
        prop_assert_eq!(w1.stall, 0);
        let w2 = mem.write(pa + 4, Width::Long, 2, 1000 + gap);
        let expected = 6u64.saturating_sub(gap);
        prop_assert_eq!(u64::from(w2.stall), expected);
    }
}

#[test]
fn tb_fill_is_idempotent_for_timing() {
    let mut mem = small_machine();
    mem.tb_fill(0x2000, 0).unwrap();
    let pa1 = mem.translate(0x2000, Stream::Data).unwrap();
    mem.tb_fill(0x2000, 100).unwrap();
    let pa2 = mem.translate(0x2000, Stream::Data).unwrap();
    assert_eq!(pa1, pa2);
}

#[test]
fn dma_injection_delays_misses() {
    let mut a = small_machine();
    let mut b = small_machine();
    a.tb_fill(0x3000, 0).unwrap();
    b.tb_fill(0x3000, 0).unwrap();
    let pa = a.translate(0x3000, Stream::Data).unwrap();
    let _ = b.translate(0x3000, Stream::Data).unwrap();
    // Same read, but machine B has a DMA transfer in flight.
    b.inject_dma(99, 20);
    let ra = a.read(pa, Width::Long, 100);
    let rb = b.read(pa, Width::Long, 100);
    assert!(ra.miss && rb.miss);
    assert!(rb.stall > ra.stall, "{} vs {}", rb.stall, ra.stall);
}
