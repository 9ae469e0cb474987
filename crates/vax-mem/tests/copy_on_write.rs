//! `PhysMem` against a flat reference model: copy-on-write host pages
//! over a shared base must read and write exactly like one flat byte
//! array holding the base with zeros above it, at every width, across
//! host-page boundaries, and through `load`'s wrap past the top. Clones
//! share the base, and a write through one changes neither the other
//! nor the base.

use proptest::prelude::*;
use std::sync::Arc;
use vax_mem::{PhysImage, PhysMem, HOST_PAGE_BYTES};

/// Eight host pages.
const BYTES: u32 = 8 * HOST_PAGE_BYTES;

#[derive(Debug, Clone)]
enum Op {
    /// Read `width` bytes (1, 2, 4 or 8) at `pa`.
    Read(u32, u32),
    /// Write the low `width` bytes of the value at `pa`.
    Write(u32, u32, u64),
    /// `PhysMem::load` the bytes at `pa`, wrapping past the top.
    Load(u32, Vec<u8>),
}

/// An address for a `width`-byte access that stays below the top of
/// memory (wrapping there is a mis-built image, caught by a debug
/// assertion): anywhere, or within eight bytes below a host-page
/// boundary so the access straddles or touches it.
fn addr(width: u32) -> impl Strategy<Value = u32> {
    prop_oneof![
        0..=BYTES - width,
        (1..BYTES / HOST_PAGE_BYTES, 1..=8u32)
            .prop_map(|(page, back)| page * HOST_PAGE_BYTES - back),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let width = || prop::sample::select(vec![1u32, 2, 4, 8]);
    prop_oneof![
        width().prop_flat_map(|w| addr(w).prop_map(move |pa| Op::Read(w, pa))),
        (width(), any::<u64>())
            .prop_flat_map(|(w, v)| addr(w).prop_map(move |pa| Op::Write(w, pa, v))),
        (0..BYTES, prop::collection::vec(any::<u8>(), 1..9_000))
            .prop_map(|(pa, data)| Op::Load(pa, data)),
    ]
}

/// Apply `op` to both memories; a read must see what the model holds.
fn apply(mem: &mut PhysMem, model: &mut [u8], op: &Op) -> Result<(), TestCaseError> {
    match op {
        &Op::Read(width, pa) => {
            let at = pa as usize;
            let mut want = [0u8; 8];
            want[..width as usize].copy_from_slice(&model[at..at + width as usize]);
            let want = u64::from_le_bytes(want);
            let got = match width {
                1 => u64::from(mem.read_u8(pa)),
                2 => u64::from(mem.read_u16(pa)),
                4 => u64::from(mem.read_u32(pa)),
                _ => mem.read_u64(pa),
            };
            prop_assert_eq!(got, want, "read_u{} at {:#x}", width * 8, pa);
        }
        &Op::Write(width, pa, value) => {
            match width {
                1 => mem.write_u8(pa, value as u8),
                2 => mem.write_u16(pa, value as u16),
                4 => mem.write_u32(pa, value as u32),
                _ => mem.write_u64(pa, value),
            }
            let at = pa as usize;
            model[at..at + width as usize].copy_from_slice(&value.to_le_bytes()[..width as usize]);
        }
        Op::Load(pa, data) => {
            mem.load(*pa, data);
            for (k, &b) in data.iter().enumerate() {
                model[(*pa as usize + k) % BYTES as usize] = b;
            }
        }
    }
    Ok(())
}

fn same(mem: &PhysMem, model: &[u8]) -> Result<(), TestCaseError> {
    for pa in 0..BYTES {
        prop_assert_eq!(mem.read_u8(pa), model[pa as usize], "byte {:#x}", pa);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn copy_on_write_matches_a_flat_model(
        base_pages in 0..=BYTES / HOST_PAGE_BYTES,
        held in any::<u8>(),
        fill in any::<u8>(),
        ops in prop::collection::vec(op(), 1..80),
    ) {
        // Bit `n` of `held` says whether base page `n` is held; a page
        // not held reads as zero.
        let is_held = |n: u32| held & (1 << n) != 0;
        let base_bytes: Vec<u8> = (0..base_pages * HOST_PAGE_BYTES)
            .map(|i| {
                let held = is_held(i / HOST_PAGE_BYTES);
                if held { (i as u8).wrapping_mul(31) ^ fill } else { 0 }
            })
            .collect();
        let base: PhysImage = base_bytes
            .chunks_exact(HOST_PAGE_BYTES as usize)
            .enumerate()
            .map(|(n, page)| is_held(n as u32).then(|| Arc::new(page.try_into().unwrap())))
            .collect();
        let mut mem = PhysMem::new(BYTES);
        mem.mount(Arc::clone(&base));
        let mut model = vec![0u8; BYTES as usize];
        model[..base_bytes.len()].copy_from_slice(&base_bytes);
        same(&mem, &model)?;

        let split = ops.len() / 2;
        let mut twin = None;
        for (k, op) in ops.iter().enumerate() {
            if k == split {
                twin = Some((mem.clone(), model.clone()));
            }
            apply(&mut mem, &mut model, op)?;
        }
        same(&mem, &model)?;
        let (mut twin, twin_model) = twin.expect("split inside the op list");
        prop_assert!(Arc::ptr_eq(twin.base(), mem.base()), "clones share the base");
        // The writes after the split went to `mem` alone ...
        same(&twin, &twin_model)?;
        // ... and a write through the twin does not reach `mem`.
        twin.load(0, &vec![0xEE; BYTES as usize]);
        same(&mem, &model)?;
        let base_now: Vec<u8> = base
            .iter()
            .flat_map(|page| page.as_deref().copied().unwrap_or([0; HOST_PAGE_BYTES as usize]))
            .collect();
        prop_assert_eq!(base_now, base_bytes, "the shared base changed");
        prop_assert!(mem.owned_bytes() <= BYTES as usize);
    }
}

/// A memory only holds the host pages it has written.
#[test]
fn only_written_pages_are_owned() {
    let mut mem = PhysMem::new(1 << 23);
    assert_eq!(mem.owned_bytes(), 0);
    assert_eq!(mem.read_u32(0x7F_FFF0), 0);
    mem.write_u32(0x1000, 1);
    mem.write_u32(0x1FFC, 2);
    assert_eq!(mem.owned_bytes(), HOST_PAGE_BYTES as usize);
    mem.write_u16(0x2FFF, 0xFFFF);
    assert_eq!(mem.owned_bytes(), 3 * HOST_PAGE_BYTES as usize);
    assert_eq!(mem.read_u8(0x3000), 0xFF);
}
