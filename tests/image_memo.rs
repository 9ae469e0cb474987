//! The process-wide image memo (`vax_workloads::machine_image`): a job
//! that mounts a memoized image must measure exactly like the cold
//! build that made it, at every point of a sweep and under a fault
//! plan; machines share the resident image instead of copying it; two
//! racing builds of one image run once; and the memo stays within its
//! byte budget.
//!
//! The memo is shared by every test in this binary, and tests run on
//! parallel threads, so each test holds `MEMO` and uses seeds no other
//! test here uses.

use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use vax780_core::MeasuredWorkload;
use vax_cpu::CpuConfig;
use vax_fault::FaultClass;
use vax_mem::MemConfig;
use vax_serve::JobSpec;
use vax_workloads::{
    build_machine_with_config, image_memo_bytes, machine_image, profile, ProfileParams,
    WorkloadKind, IMAGE_MEMO_MIB,
};

static MEMO: Mutex<()> = Mutex::new(());

const BUDGET: usize = IMAGE_MEMO_MIB << 20;

fn lock() -> MutexGuard<'static, ()> {
    MEMO.lock().unwrap_or_else(|e| e.into_inner())
}

fn phys_bytes() -> u32 {
    MemConfig::default().phys_bytes
}

/// A small profile, so filling the memo takes few builds.
fn tiny(seed: u64) -> ProfileParams {
    ProfileParams {
        processes: 1,
        functions_per_process: 2,
        slots_per_function: 4,
        scalar_bytes: 4 * 1024,
        terminal_users: 1,
        seed,
        ..profile(WorkloadKind::Commercial)
    }
}

/// Build fresh images until more than the whole budget has gone in
/// since the call, so every image resident before it has been evicted
/// (oldest first). Checks the budget after every insert. `next` numbers
/// the fresh seeds; returns the images built.
fn flush(next: &mut u64) -> Vec<vax_workloads::MachineImage> {
    let mut built = Vec::new();
    let mut inserted = 0;
    while inserted <= BUDGET {
        *next += 1;
        let image = machine_image(&tiny(0x1A6E_F000_0000 + *next), phys_bytes())
            .expect("tiny image builds");
        inserted += image.bytes();
        assert!(image_memo_bytes() <= BUDGET, "{} bytes", image_memo_bytes());
        built.push(image);
    }
    built
}

/// The campaign-tiny sweep: one (profile, seed) pair at four config
/// points, then the same pair under a fault plan.
fn sweep(kind: WorkloadKind, seed: u64) -> Vec<JobSpec> {
    let point = |cache_kb, tb_entries, write_buffer| {
        let mut spec = JobSpec::new(kind);
        spec.instructions = 1_000;
        spec.warmup = 1_000;
        spec.seed = Some(seed);
        spec.cache_kb = cache_kb;
        spec.tb_entries = tb_entries;
        spec.write_buffer = write_buffer;
        spec
    };
    let mut faulty = point(None, None, None);
    faulty.faults = vec![FaultClass::CacheParity, FaultClass::SbiTimeout];
    faulty.fault_seed = 780;
    vec![
        point(None, None, None),
        point(Some(4), None, None),
        point(None, Some(64), None),
        point(None, None, Some(4)),
        faulty,
    ]
}

fn assert_same(cold: &MeasuredWorkload, warm: &MeasuredWorkload, what: &str) {
    assert_eq!(cold.histogram, warm.histogram, "µPC histogram: {what}");
    assert_eq!(cold.counters, warm.counters, "hardware counters: {what}");
    assert_eq!(cold.cycles, warm.cycles, "cycles: {what}");
    assert_eq!(cold.instructions, warm.instructions, "instructions: {what}");
}

#[test]
fn a_memo_hit_measures_like_a_cold_build_at_every_sweep_point() {
    let _memo = lock();
    let mut next = 0;
    let (kind, seed) = (WorkloadKind::Educational, 0x1A6E_0001);
    let params = ProfileParams {
        seed,
        ..profile(kind)
    };
    let specs = sweep(kind, seed);
    // Each cold run follows a flush, so it builds the image itself.
    let cold: Vec<MeasuredWorkload> = specs
        .iter()
        .map(|spec| {
            flush(&mut next);
            spec.experiment().run()
        })
        .collect();
    for (i, a) in cold.iter().enumerate() {
        for b in &cold[i + 1..] {
            assert_ne!(a.counters, b.counters, "two sweep points measured alike");
        }
    }
    assert!(cold[4].counters.machine_checks > 0, "the fault plan fired");

    // The image the last cold run built now serves every point.
    let resident = machine_image(&params, phys_bytes()).expect("image");
    for (spec, cold) in specs.iter().zip(&cold) {
        assert_same(cold, &spec.experiment().run(), &spec.render());
    }
    let after = machine_image(&params, phys_bytes()).expect("image");
    assert!(
        Arc::ptr_eq(resident.frames(), after.frames()),
        "a hit rebuilt the image"
    );
}

#[test]
fn machines_share_the_resident_image_and_write_privately() {
    let _memo = lock();
    let params = tiny(0x1A6E_0002);
    let image = machine_image(&params, phys_bytes()).expect("image");
    let pristine = image.frames().to_vec();
    let build = || build_machine_with_config(&params, CpuConfig::default(), MemConfig::default());
    let (mut a, b) = (build(), build());
    for m in [&a, &b] {
        assert!(Arc::ptr_eq(m.cpu.mem().phys().base(), image.frames()));
        assert_eq!(m.cpu.mem().phys().owned_bytes(), 0);
    }
    a.run_instructions(20_000, &mut upc_monitor::NullSink)
        .expect("runs");
    assert!(a.cpu.mem().phys().owned_bytes() > 0, "the run wrote memory");
    assert_eq!(b.cpu.mem().phys().owned_bytes(), 0);
    assert_eq!(
        &image.frames()[..],
        &pristine[..],
        "a write reached the image"
    );
}

#[test]
fn racing_builds_of_one_image_share_it() {
    let _memo = lock();
    let params = tiny(0x1A6E_0003);
    let start = Barrier::new(2);
    let images: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    machine_image(&params, phys_bytes()).expect("image")
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(Arc::ptr_eq(images[0].frames(), images[1].frames()));
}

#[test]
fn the_memo_never_exceeds_its_budget() {
    let _memo = lock();
    let mut next = 1 << 20;
    let first = machine_image(&tiny(0x1A6E_0004), phys_bytes()).expect("image");
    let built = flush(&mut next);
    assert!(image_memo_bytes() <= BUDGET);
    let newest = built.last().expect("images built").bytes();
    assert!(
        image_memo_bytes() > BUDGET - newest,
        "the memo holds less than its budget allows: {} bytes",
        image_memo_bytes()
    );
    // The oldest went first: asking again builds it anew, identically.
    let again = machine_image(&tiny(0x1A6E_0004), phys_bytes()).expect("image");
    assert!(!Arc::ptr_eq(first.frames(), again.frames()));
    assert_eq!(first.frames(), again.frames());
}
