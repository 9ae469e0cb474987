//! Journal idempotence: a resumed queue never re-runs a settled job,
//! and the merged results are bit-identical to an uninterrupted run.
//!
//! The executor here is synthetic (deterministic results derived from
//! the seed, no simulation) so the property hammers the *queue* logic:
//! replay, claim, retry accounting, and result rendering — across
//! random interruption points and worker counts.

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use upc_monitor::Histogram;
use vax780_core::{MeasuredWorkload, RetryPolicy};
use vax_mem::HwCounters;
use vax_serve::queue::ExecError;
use vax_serve::{run_server, Executor, JobSpec, Journal, ServeConfig};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vax-serve-idem-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec_for(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(WorkloadKind::ALL[(seed as usize) % WorkloadKind::ALL.len()]);
    spec.instructions = 1_000;
    spec.warmup = 100;
    spec.seed = Some(seed);
    spec
}

/// The deterministic result the synthetic executor produces for a seed.
fn synth(seed: u64) -> MeasuredWorkload {
    let mut h = Histogram::new();
    h.bump_issue(MicroAddr::new((seed as u16) % 1024));
    h.bump_stall(MicroAddr::new((seed as u16) % 1024), (seed % 7) as u32);
    let mut c = HwCounters::new();
    c.sbi_reads = seed * 3;
    MeasuredWorkload {
        name: spec_for(seed).workload.name(),
        histogram: h,
        counters: c,
        instructions: 1_000,
        cycles: 4_000 + seed,
    }
}

fn fail_message(seed: u64) -> String {
    format!("synthetic failure for seed {seed}")
}

/// Counts runs per seed; fails seeds in `fail_seeds`, synthesizes
/// results for the rest.
struct CountingExecutor {
    runs: Mutex<HashMap<u64, u32>>,
    fail_seeds: Vec<u64>,
}

impl Executor for CountingExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        _timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        let seed = spec.seed.expect("test specs carry a seed");
        *self.runs.lock().unwrap().entry(seed).or_insert(0) += 1;
        if self.fail_seeds.contains(&seed) {
            return Err(ExecError::Failed(fail_message(seed)));
        }
        Ok(synth(seed))
    }
}

fn drain_config(journal: PathBuf, workers: usize) -> ServeConfig {
    ServeConfig {
        journal,
        workers,
        retry: RetryPolicy::from_retries(0, 0),
        drain_on_start: true,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Settle a random subset of the queue "before the crash", resume,
    /// and check: settled jobs run zero times, unsettled jobs exactly
    /// once, and the merged result lines are byte-identical to an
    /// uninterrupted run of the same queue — whether or not the
    /// interrupted journal was compacted into v2 segments before the
    /// resume or after it.
    #[test]
    fn resumed_queue_is_idempotent_and_bit_identical(
        n in 1usize..6,
        settled_mask in 0u32..32,
        fail_mask in 0u32..32,
        dangling_start in any::<bool>(),
        workers in 1usize..4,
        compact_before in any::<bool>(),
        compact_after in any::<bool>(),
    ) {
        let dir = tempdir();
        let interrupted = dir.join("interrupted.journal");
        let reference = dir.join("reference.journal");
        let seeds: Vec<u64> = (1..=n as u64).collect();
        let fail_seeds: Vec<u64> = seeds
            .iter()
            .copied()
            .filter(|s| fail_mask & (1 << (s - 1)) != 0)
            .collect();

        // Both journals get the same enqueues.
        let mut settled: Vec<u64> = Vec::new();
        {
            let mut j = Journal::open(&interrupted).unwrap();
            let mut r = Journal::open(&reference).unwrap();
            for &seed in &seeds {
                let spec = spec_for(seed);
                let id = j.append_enqueue(&spec).unwrap();
                r.append_enqueue(&spec).unwrap();
                // "Before the crash": settle the masked subset with
                // exactly the records a server would have written.
                if settled_mask & (1 << (seed - 1)) != 0 {
                    j.append_start(id, 1).unwrap();
                    if fail_seeds.contains(&seed) {
                        j.append_fail(id, 1, &format!("attempt 1/1: {}", fail_message(seed)))
                            .unwrap();
                    } else {
                        j.append_complete(id, &synth(seed)).unwrap();
                    }
                    settled.push(seed);
                } else if dangling_start {
                    // Killed mid-attempt: a start record with no
                    // outcome must not stop the re-run.
                    j.append_start(id, 1).unwrap();
                }
            }
        }

        // Optionally fold the pre-crash settled records into a v2
        // snapshot segment: the resume must behave identically whether
        // its history lives in the tail or behind the snapshot index.
        if compact_before {
            Journal::open(&interrupted).unwrap().compact().unwrap();
        }

        // Resume the interrupted queue.
        let exec = Arc::new(CountingExecutor {
            runs: Mutex::new(HashMap::new()),
            fail_seeds: fail_seeds.clone(),
        });
        let report =
            run_server(&drain_config(interrupted.clone(), workers), None, exec.clone()).unwrap();
        let runs = exec.runs.lock().unwrap().clone();
        for &seed in &seeds {
            let expected = u32::from(!settled.contains(&seed));
            prop_assert_eq!(
                runs.get(&seed).copied().unwrap_or(0),
                expected,
                "seed {} (settled: {:?})", seed, &settled
            );
        }

        // Uninterrupted reference run: bit-identical merged results.
        let ref_exec = Arc::new(CountingExecutor {
            runs: Mutex::new(HashMap::new()),
            fail_seeds,
        });
        let ref_report =
            run_server(&drain_config(reference.clone(), workers), None, ref_exec).unwrap();
        prop_assert_eq!(report.done + report.failed, n);
        prop_assert_eq!(report.done, ref_report.done);
        prop_assert_eq!(report.failed, ref_report.failed);

        // And one more compaction after everything settled must not
        // change a byte of what the journal streams back.
        if compact_after {
            Journal::open(&interrupted).unwrap().compact().unwrap();
        }
        let streamed = |path: &PathBuf| {
            let journal = Journal::open(path).unwrap();
            let mut out = Vec::new();
            let lines = journal.stream_results(&mut out).unwrap();
            (lines, String::from_utf8(out).unwrap())
        };
        let (lines, merged) = streamed(&interrupted);
        let (ref_lines, ref_merged) = streamed(&reference);
        prop_assert_eq!(lines, n);
        prop_assert_eq!(ref_lines, n);
        prop_assert_eq!(merged, ref_merged);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Journals written while `block` was a tier name of its own still open:
/// `tier=block` and `tier=fast` enqueue records both replay as the fast
/// tier, run once each, and stream result lines in the canonical
/// spelling (no `tier=` field, since fast is the default).
#[test]
fn legacy_tier_spellings_open_replay_and_stream() {
    use std::io::Write;
    let dir = tempdir();
    let path = dir.join("legacy.journal");
    drop(Journal::open(&path).unwrap());
    {
        let mut tail = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        for (id, tier) in [(1u64, "block"), (2, "fast")] {
            writeln!(tail, "enqueue {id} {} tier={tier}", spec_for(id).render()).unwrap();
        }
    }

    let journal = Journal::open(&path).unwrap();
    assert_eq!(journal.pending().len(), 2);
    for id in journal.pending() {
        let (spec, _) = journal.pending_job(id).unwrap();
        assert_eq!(spec.tier, vax_cpu::Tier::Fast, "job {id}");
    }
    drop(journal);

    let exec = Arc::new(CountingExecutor {
        runs: Mutex::new(HashMap::new()),
        fail_seeds: Vec::new(),
    });
    let report = run_server(&drain_config(path.clone(), 1), None, exec.clone()).unwrap();
    assert_eq!(report.done, 2);
    assert_eq!(*exec.runs.lock().unwrap(), HashMap::from([(1, 1), (2, 1)]));

    let mut out = Vec::new();
    let lines = Journal::open(&path)
        .unwrap()
        .stream_results(&mut out)
        .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert_eq!(lines, 2, "{out}");
    assert!(!out.contains("tier="), "{out}");
    for id in [1u64, 2] {
        assert!(out.contains(&spec_for(id).render()), "{out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
