//! Compaction crash-safety and streaming regressions.
//!
//! Compaction replaces two files by write-new-then-rename. A `kill -9`
//! can land at any byte of the new snapshot, between the two renames,
//! or after both — and every one of those on-disk states must replay
//! to the same queue and, once settled, merge into byte-identical
//! results. The 10k-job tests pin the streaming paths: `drain` and
//! `results` go to the wire a chunk at a time, and their bytes never
//! change across a compaction — not even one that lands mid-stream.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use upc_monitor::Histogram;
use vax780_core::{MeasuredWorkload, RetryPolicy};
use vax_mem::HwCounters;
use vax_serve::wire::Client;
use vax_serve::{run_server, Endpoint, InProcessExecutor, JobSpec, JobState, Journal, ServeConfig};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "{tag}-{}-{}",
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

/// Deterministic synthetic measurement for a seed (no simulation — the
/// tests here exercise the journal, not the machine model).
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

/// Everything an on-disk state replays to, in comparable form: the
/// per-job states, the counts, and the merged result stream.
type Observed = (Vec<(u64, &'static str)>, (usize, usize, usize), String);

fn observe(path: &Path) -> Observed {
    let journal = Journal::open(path).unwrap();
    let states: Vec<(u64, &'static str)> = journal
        .states()
        .map(|(id, state)| (id, state.name()))
        .collect();
    let mut out = Vec::new();
    journal.stream_results(&mut out).unwrap();
    (states, journal.counts(), String::from_utf8(out).unwrap())
}

/// Seed a journal with a mixed history: four settled jobs (one of
/// them failed), one pending job abandoned mid-attempt, one untouched.
fn seed_journal(path: &Path) {
    let mut j = Journal::open(path).unwrap();
    for seed in 1u64..=6 {
        let id = j.append_enqueue(&spec_for(seed)).unwrap();
        match seed {
            3 => {
                j.append_start(id, 1).unwrap();
                j.append_fail(id, 1, "attempt 1/1: synthetic failure")
                    .unwrap();
            }
            1 | 2 | 4 => {
                j.append_start(id, 1).unwrap();
                j.append_complete(id, &synth(seed)).unwrap();
            }
            5 => j.append_start(id, 1).unwrap(), // dangling attempt
            _ => {}
        }
    }
}

/// Settle whatever is still pending, the way a resumed server would.
fn settle_rest(path: &Path) {
    let mut j = Journal::open(path).unwrap();
    for id in j.pending() {
        let (spec, starts) = j.pending_job(id).map(|(s, n)| (s.clone(), n)).unwrap();
        let seed = spec.seed.unwrap();
        j.append_start(id, starts + 1).unwrap();
        j.append_complete(id, &synth(seed)).unwrap();
    }
}

/// Kill -9 mid-compaction, at every byte offset of the new snapshot
/// and at both rename boundaries: each surviving on-disk state opens
/// to the identical queue, and settling the remainder from any of
/// them merges byte-identical results.
#[test]
fn mid_compaction_crash_at_every_byte_offset_merges_bit_identical() {
    let dir = tempdir("vax-serve-compact-crash");

    // The pre-compaction journal and what it replays to.
    let original = dir.join("original.journal");
    seed_journal(&original);
    let tail_bytes = std::fs::read(&original).unwrap();
    let reference = observe(&original);

    // A completed compaction of the same history: the target state.
    let full = dir.join("full.journal");
    std::fs::write(&full, &tail_bytes).unwrap();
    Journal::open(&full).unwrap().compact().unwrap();
    let snap_bytes = std::fs::read(dir.join("full.journal.snap")).unwrap();
    let new_tail_bytes = std::fs::read(&full).unwrap();
    assert_eq!(observe(&full), reference, "compaction changed the queue");

    // And the fully-settled end state all crash survivors must reach.
    let settled = dir.join("settled.journal");
    std::fs::write(&settled, &tail_bytes).unwrap();
    settle_rest(&settled);
    let final_reference = observe(&settled);
    assert_eq!(final_reference.1, (0, 5, 1));

    let crash = dir.join("crash.journal");
    let crash_snap = dir.join("crash.journal.snap");
    let crash_snap_tmp = dir.join("crash.journal.snap.tmp");
    let reset = || {
        for p in [&crash, &crash_snap, &crash_snap_tmp] {
            let _ = std::fs::remove_file(p);
        }
    };

    // Family A — killed while writing the new snapshot: the tmp file
    // holds any prefix, nothing was renamed. The journal is untouched.
    for cut in 0..=snap_bytes.len() {
        reset();
        std::fs::write(&crash, &tail_bytes).unwrap();
        std::fs::write(&crash_snap_tmp, &snap_bytes[..cut]).unwrap();
        assert_eq!(observe(&crash), reference, "snap.tmp cut at byte {cut}");
        // Re-running the interrupted compaction lands the real thing.
        Journal::open(&crash).unwrap().compact().unwrap();
        assert_eq!(
            std::fs::read(&crash_snap).unwrap(),
            snap_bytes,
            "recompacted snapshot differs (tmp cut at byte {cut})"
        );
        assert_eq!(std::fs::read(&crash).unwrap(), new_tail_bytes);
        assert_eq!(observe(&crash), reference);
    }

    // Family B — killed between the renames: new snapshot in place,
    // the tail still the old generation. Its settled records are
    // reconciled as no-ops against the snapshot.
    reset();
    std::fs::write(&crash, &tail_bytes).unwrap();
    std::fs::write(&crash_snap, &snap_bytes).unwrap();
    assert_eq!(observe(&crash), reference, "stale-tail window");
    settle_rest(&crash);
    assert_eq!(observe(&crash), final_reference, "stale-tail settle");

    // Family C — killed after both renames: the compacted state.
    reset();
    std::fs::write(&crash, &new_tail_bytes).unwrap();
    std::fs::write(&crash_snap, &snap_bytes).unwrap();
    assert_eq!(observe(&crash), reference, "post-rename state");
    settle_rest(&crash);
    assert_eq!(observe(&crash), final_reference, "post-rename settle");

    // And settling straight from a family-A survivor matches too.
    reset();
    std::fs::write(&crash, &tail_bytes).unwrap();
    std::fs::write(&crash_snap_tmp, &snap_bytes[..snap_bytes.len() / 2]).unwrap();
    settle_rest(&crash);
    assert_eq!(observe(&crash), final_reference, "mid-write settle");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A compaction is idempotent at the byte level: compacting an
/// already-compacted journal only bumps the generation, and the
/// streamed results never change.
#[test]
fn repeated_compaction_is_stable() {
    let dir = tempdir("vax-serve-compact-stable");
    let path = dir.join("q.journal");
    seed_journal(&path);
    let reference = observe(&path);
    for round in 1..=3u64 {
        let mut j = Journal::open(&path).unwrap();
        j.compact().unwrap();
        assert_eq!(j.generation(), round);
        assert_eq!(j.settled_in_tail(), 0);
        drop(j);
        assert_eq!(observe(&path), reference, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 10,000 settled jobs: `results` streaming off the journal, the
/// server's `drain` streaming over a socket, and both again after a
/// compaction, are all byte-identical — and none of them ever holds
/// the result set in memory.
#[test]
fn ten_thousand_job_drain_streams_byte_identical_across_compaction() {
    const N: u64 = 10_000;
    let dir = tempdir("vax-serve-compact-10k");
    let path = dir.join("big.journal");
    {
        let mut j = Journal::open(&path).unwrap();
        for seed in 1..=N {
            let id = j.append_enqueue(&spec_for(seed)).unwrap();
            j.append_start(id, 1).unwrap();
            if seed % 97 == 0 {
                j.append_fail(id, 1, "attempt 1/1: synthetic failure")
                    .unwrap();
            } else {
                j.append_complete(id, &synth(seed)).unwrap();
            }
        }
    }

    let stream = |path: &Path| {
        let journal = Journal::open(path).unwrap();
        let mut out = Vec::new();
        let lines = journal.stream_results(&mut out).unwrap();
        (lines, out)
    };
    let (lines, reference) = stream(&path);
    assert_eq!(lines as u64, N);

    // A draining server must put the same bytes on the wire. All jobs
    // are settled, so the drain is pure streaming.
    let socket = Endpoint::Unix(dir.join("s.sock"));
    let config = ServeConfig {
        journal: path.clone(),
        workers: 1,
        retry: RetryPolicy::from_retries(0, 0),
        drain_on_start: false,
        ..ServeConfig::default()
    };
    let server = {
        let config = config.clone();
        let socket = socket.clone();
        std::thread::spawn(move || run_server(&config, Some(&socket), Arc::new(InProcessExecutor)))
    };
    let client = Client::new(socket.clone(), Duration::from_secs(10));
    let mut wire_bytes = Vec::new();
    let streamed = client.request_stream("drain", &mut wire_bytes).unwrap();
    server.join().unwrap().unwrap();
    assert_eq!(streamed as u64, N);
    assert_eq!(
        wire_bytes, reference,
        "drain bytes differ from results bytes"
    );

    // Compaction folds all 10k results behind the snapshot index; the
    // streams must not move by a byte.
    Journal::open(&path).unwrap().compact().unwrap();
    let (lines, compacted) = stream(&path);
    assert_eq!(lines as u64, N);
    assert_eq!(compacted, reference, "results changed across compaction");

    // The journal still knows every job without rescanning: spot-check
    // states across the range.
    let journal = Journal::open(&path).unwrap();
    assert_eq!(journal.counts().0, 0);
    for id in [1u64, 97, 500, 9_999, 10_000] {
        let expected = if id % 97 == 0 {
            JobState::Failed
        } else {
            JobState::Done
        };
        assert_eq!(journal.state(id), Some(expected), "job {id}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `results` or `drain` stream that a `compact` crosses: the reply
/// is far larger than the socket and the server's write buffer, so when
/// the client has read one line the handler is still mid-reply, and the
/// compaction lands between its chunks. Chunks copied before it read
/// the old generation's segments through handles that stay open; chunks
/// copied after read the new ones. Either way the lines must be byte-
/// identical to `Journal::stream_results` on the reopened journal.
fn stream_across_compaction_matches_the_reopened_journal(verb: &str) {
    const N: u64 = 10_000;
    let dir = tempdir(&format!("vax-serve-compact-crossing-{verb}"));
    let path = dir.join("q.journal");
    {
        // Half the history in the snapshot, half settled in the tail.
        let mut j = Journal::open(&path).unwrap();
        for seed in 1..=N {
            let id = j.append_enqueue(&spec_for(seed)).unwrap();
            j.append_start(id, 1).unwrap();
            if seed % 97 == 0 {
                j.append_fail(id, 1, "attempt 1/1: synthetic failure")
                    .unwrap();
            } else {
                j.append_complete(id, &synth(seed)).unwrap();
            }
            if seed == N / 2 {
                j.compact().unwrap();
            }
        }
    }
    let sock = dir.join("s.sock");
    let socket = Endpoint::Unix(sock.clone());
    let config = ServeConfig {
        journal: path.clone(),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || run_server(&config, Some(&socket), Arc::new(InProcessExecutor)))
    };
    let client = Client::new(socket, Duration::from_secs(30));
    assert!(client.request_line("metrics").unwrap().starts_with("ok "));

    let mut conn = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    conn.write_all(format!("{verb}\n").as_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(conn);
    let mut lines = vec![String::new()];
    reader.read_line(&mut lines[0]).unwrap();

    // The compaction runs while the stream is stalled on this reader.
    let (tx, rx) = std::sync::mpsc::channel();
    let compactor = Client::new(Endpoint::Unix(sock), Duration::from_secs(30));
    std::thread::spawn(move || tx.send(compactor.request_line("compact")));
    let compacted = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("compact stalled behind the stream")
        .unwrap();
    assert_eq!(
        compacted,
        format!("ok compacted {} settled record(s) into generation 2", N / 2)
    );

    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "no `end`");
        if line == "end\n" {
            break;
        }
        lines.push(line);
    }
    if verb != "drain" {
        assert_eq!(client.request_line("shutdown").unwrap(), "ok");
    }
    server.join().unwrap().unwrap();

    let journal = Journal::open(&path).unwrap();
    assert_eq!(journal.generation(), 2);
    let mut reference = Vec::new();
    journal.stream_results(&mut reference).unwrap();
    assert_eq!(lines.len() as u64, N);
    assert!(
        lines.concat().as_bytes() == reference,
        "`{verb}` across a compaction differs from the reopened journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_results_stream_across_a_compaction_matches_the_reopened_journal() {
    stream_across_compaction_matches_the_reopened_journal("results");
}

#[test]
fn a_drain_stream_across_a_compaction_matches_the_reopened_journal() {
    stream_across_compaction_matches_the_reopened_journal("drain");
}
