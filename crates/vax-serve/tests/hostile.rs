//! Hostile input: every reader of a checkpoint, a queue journal (tail
//! and snapshot) or a `vax-job-result v1` blob returns `Ok` or `Err` —
//! it never panics — on arbitrary bytes, on any truncation of a valid
//! file, and on any single-byte flip of one. `JobSpec::parse` and
//! `validate` hold the same line on arbitrary strings and on mangled
//! canonical lines, and every spec they accept stays buildable within
//! the per-job bounds and renders far inside the request-line bound. A
//! real connection that sends an overlong request line is rejected and
//! closed, and a claiming worker that sends an overlong result blob
//! costs one retryable attempt.

use proptest::prelude::*;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use upc_monitor::Histogram;
use vax780_core::{Checkpoint, MeasuredWorkload, RetryPolicy};
use vax_mem::HwCounters;
use vax_serve::queue::{parse_result_blob, render_result_blob};
use vax_serve::server::{MAX_REQUEST_BYTES, MAX_RESULT_BLOB_BYTES};
use vax_serve::spec::{MAX_CACHE_KB, MAX_FAULTS_PER_JOB, MAX_TB_ENTRIES, MAX_WRITE_BUFFER};
use vax_serve::{run_server, Client, Endpoint, InProcessExecutor, JobSpec, Journal, ServeConfig};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "vax-serve-hostile-{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample(seed: u64) -> MeasuredWorkload {
    let mut h = Histogram::new();
    h.add_issue(MicroAddr::new(0x20 + seed as u16), 40 + seed);
    h.add_stall(MicroAddr::new(0x20 + seed as u16), seed);
    let mut c = HwCounters::new();
    c.sbi_reads = seed;
    c.machine_checks = seed % 2;
    MeasuredWorkload {
        name: WorkloadKind::ALL[seed as usize % 5].name(),
        histogram: h,
        counters: c,
        instructions: 1000,
        cycles: 4000 + seed,
    }
}

/// Valid files of every format, to truncate and flip.
struct Valid {
    checkpoint: Vec<u8>,
    tail: Vec<u8>,
    snapshot: Vec<u8>,
    /// The tail that goes with `snapshot`.
    snapshot_tail: Vec<u8>,
    blob: Vec<u8>,
}

fn valid() -> &'static Valid {
    static VALID: OnceLock<Valid> = OnceLock::new();
    VALID.get_or_init(|| {
        let dir = TempDir::new();
        let ckpt = dir.join("campaign.ckpt");
        let mut cp = Checkpoint::open(&ckpt, 1000, 100).unwrap();
        for seed in 0..2 {
            cp.record(WorkloadKind::ALL[seed].name(), &sample(seed as u64))
                .unwrap();
        }
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        for seed in 1..=3 {
            let mut spec = JobSpec::new(WorkloadKind::ALL[seed as usize % 5]);
            spec.seed = Some(seed);
            j.append_enqueue_for(if seed == 2 { "alice" } else { "" }, &spec)
                .unwrap();
            j.append_start(seed, 1).unwrap();
        }
        j.append_complete(1, &sample(1)).unwrap();
        j.append_fail(2, 2, "worker panicked:\nboom").unwrap();
        let tail = std::fs::read(&path).unwrap();
        j.compact().unwrap();
        j.append_complete(3, &sample(3)).unwrap();
        j.append_enqueue(&JobSpec::new(WorkloadKind::SciEng))
            .unwrap();
        Valid {
            checkpoint: std::fs::read(&ckpt).unwrap(),
            tail,
            snapshot: std::fs::read(j.snapshot_path()).unwrap(),
            snapshot_tail: std::fs::read(&path).unwrap(),
            blob: render_result_blob(&sample(4)).into_bytes(),
        }
    })
}

/// Open a journal and, if it opens, read every job back from it.
fn open_and_stream(path: &Path) {
    if let Ok(j) = Journal::open(path) {
        let _ = j.stream_results(&mut std::io::sink());
        for (id, _) in j.states() {
            let _ = j.spec_line(id);
        }
    }
}

fn open_checkpoint(bytes: &[u8]) {
    let dir = TempDir::new();
    let path = dir.join("campaign.ckpt");
    std::fs::write(&path, bytes).unwrap();
    let _ = Checkpoint::open(&path, 1000, 100);
}

fn open_tail(bytes: &[u8]) {
    let dir = TempDir::new();
    let path = dir.join("queue.journal");
    std::fs::write(&path, bytes).unwrap();
    open_and_stream(&path);
}

fn open_snapshot(bytes: &[u8]) {
    let dir = TempDir::new();
    let path = dir.join("queue.journal");
    std::fs::write(&path, &valid().snapshot_tail).unwrap();
    std::fs::write(path.with_extension("journal.snap"), bytes).unwrap();
    open_and_stream(&path);
}

fn parse_blob(bytes: &[u8]) {
    let _ = parse_result_blob(&String::from_utf8_lossy(bytes), "x");
}

/// Every target, each fed its own valid file with `damage` applied.
fn damage_each(damage: impl Fn(&[u8]) -> Vec<u8>) {
    let v = valid();
    open_checkpoint(&damage(&v.checkpoint));
    open_tail(&damage(&v.tail));
    open_snapshot(&damage(&v.snapshot));
    parse_blob(&damage(&v.blob));
}

#[test]
fn valid_files_open_cleanly() {
    let v = valid();
    let dir = TempDir::new();
    let ckpt = dir.join("campaign.ckpt");
    std::fs::write(&ckpt, &v.checkpoint).unwrap();
    assert_eq!(
        Checkpoint::open(&ckpt, 1000, 100)
            .unwrap()
            .completed()
            .len(),
        2
    );
    let path = dir.join("queue.journal");
    std::fs::write(&path, &v.tail).unwrap();
    assert_eq!(Journal::open(&path).unwrap().counts(), (1, 1, 1));
    std::fs::write(&path, &v.snapshot_tail).unwrap();
    std::fs::write(path.with_extension("journal.snap"), &v.snapshot).unwrap();
    assert_eq!(Journal::open(&path).unwrap().counts(), (1, 2, 1));
    assert!(parse_result_blob(std::str::from_utf8(&v.blob).unwrap(), "x").is_ok());
}

/// An index entry whose length wraps `u64` once was an add overflow in
/// `Journal::open`, and in release a bounds check that passed.
#[test]
fn snapshot_index_overflow_is_corrupt() {
    for entry in [
        "entry 1 18446744073709551615 1 done",
        "entry 1 0 18446744073709551615 done",
        "entry 18446744073709551615 0 1 done",
    ] {
        let dir = TempDir::new();
        let path = dir.join("queue.journal");
        std::fs::write(&path, "vax-queue-journal v2 generation 1 next 1\n").unwrap();
        std::fs::write(
            path.with_extension("journal.snap"),
            format!("vax-queue-snapshot v2 generation 1 jobs 1\nindex\n{entry}\nend\nx\n"),
        )
        .unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(
            matches!(err, vax_serve::JournalError::Corrupt { .. }),
            "{entry}: {err}"
        );
    }
}

/// Fixed hostile inputs that each once reached an arithmetic overflow.
#[test]
fn overflowing_counts_and_ids_are_errors() {
    let bucket = "upc-histogram v1\n10 18446744073709551615 0\n10 1 0\nend\n";
    open_checkpoint(
        format!(
            "vax-campaign-checkpoint v1\nconfig instructions 1000 warmup 100\n\
             job sci-eng instructions 1 cycles 2\n{bucket}"
        )
        .as_bytes(),
    );
    parse_blob(format!("vax-job-result v1\nresult instructions 1 cycles 2\n{bucket}").as_bytes());
    open_tail(
        b"vax-queue-journal v2 generation 0 next 1\n\
          enqueue 18446744073709551615 workload=sci-eng\n",
    );
    open_tail(b"vax-queue-journal v2 generation 0 next 18446744073709551615\n");
}

/// Canonical spec lines to mangle: a bare job, a sweep point, and a
/// fault job at its most verbose.
const CANONICAL: [&str; 3] = [
    "workload=educational instructions=1000 warmup=1000",
    "workload=sci-eng instructions=4000 warmup=1000 seed=42 tier=naive decode-overlap=1 \
     cache-kb=4 cache-ways=2 tb-entries=64 write-buffer=4",
    "workload=commercial instructions=500000 warmup=5000 seed=3 faults=cache-parity+sbi-timeout \
     fault-seed=780 fault-count=2 fault-window=50000",
];

/// Values a mangled number may become: the edges of every field width.
const EDGE_NUMBERS: [&str; 7] = [
    "0",
    "1",
    "2048",
    "65537",
    "4294967295",
    "4294967296",
    "18446744073709551615",
];

/// Every key `JobSpec::parse` knows, plus near misses.
const SPEC_KEYS: [&str; 17] = [
    "workload",
    "instructions",
    "warmup",
    "seed",
    "tier",
    "decode-overlap",
    "cache-kb",
    "cache-ways",
    "tb-entries",
    "write-buffer",
    "faults",
    "fault-seed",
    "fault-count",
    "fault-window",
    "Workload",
    "",
    "fault_count",
];

/// Values valid for some key, edge numbers, and junk.
const SPEC_VALUES: [&str; 20] = [
    "commercial",
    "sci-eng",
    "naive",
    "fast",
    "block",
    "cache-parity",
    "cache-parity+sbi-timeout+tb-corrupt",
    "cache-parity+",
    "0",
    "1",
    "3",
    "4",
    "64",
    "1024",
    "2049",
    "4294967295",
    "18446744073709551615",
    "-1",
    "",
    "=",
];

/// Parse and validate `line`; it may be rejected, but must not panic,
/// and an accepted spec must build its fault plan and experiment within
/// the per-job bounds.
fn check_spec_line(line: &str) {
    let Ok(spec) = JobSpec::parse(line) else {
        return;
    };
    if spec.validate().is_err() {
        return;
    }
    let planned = spec.fault_plan().map_or(0, |plan| plan.faults.len());
    assert!(
        planned as u64 <= MAX_FAULTS_PER_JOB,
        "{line}: {planned} faults"
    );
    let mem = spec.mem_config();
    mem.validate();
    assert!(mem.cache.size_bytes <= MAX_CACHE_KB * 1024, "{line}");
    assert!(mem.tb.entries <= MAX_TB_ENTRIES, "{line}");
    assert!(mem.write_buffer_entries <= MAX_WRITE_BUFFER, "{line}");
    assert!(spec.render().len() < MAX_REQUEST_BYTES / 8, "{line}");
    let _ = spec.experiment();
}

#[test]
fn canonical_lines_are_accepted() {
    for line in CANONICAL {
        let spec = JobSpec::parse(line).unwrap();
        spec.validate().unwrap();
        assert_eq!(spec.render(), line);
    }
}

/// Replace the `nth` decimal digit run of `line` (wrapping) with `with`.
fn replace_number(line: &str, nth: usize, with: &str) -> String {
    let runs: Vec<(usize, usize)> = line
        .char_indices()
        .filter(|&(i, c)| {
            c.is_ascii_digit() && (i == 0 || !line.as_bytes()[i - 1].is_ascii_digit())
        })
        .map(|(start, _)| {
            let len = line[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(line.len() - start);
            (start, start + len)
        })
        .collect();
    let (start, end) = runs[nth % runs.len()];
    format!("{}{with}{}", &line[..start], &line[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn arbitrary_spec_lines_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        check_spec_line(&String::from_utf8_lossy(&bytes));
        // Behind a valid workload, the bytes reach every key's parser.
        check_spec_line(&format!("workload=commercial {}", String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn random_key_value_lines_never_panic(
        pairs in prop::collection::vec(
            (prop::sample::select(SPEC_KEYS.to_vec()), prop::sample::select(SPEC_VALUES.to_vec())),
            0..8,
        ),
    ) {
        let line: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        check_spec_line(&line.join(" "));
        check_spec_line(&format!("workload=educational {}", line.join(" ")));
    }

    #[test]
    fn mangled_spec_lines_never_panic(
        which in 0usize..3,
        at: usize,
        other: usize,
        digit in 0u8..10,
        edge in 0usize..7,
    ) {
        let tokens: Vec<&str> = CANONICAL[which].split_whitespace().collect();
        let i = at % tokens.len();
        // Token drop.
        let mut dropped = tokens.clone();
        dropped.remove(i);
        check_spec_line(&dropped.join(" "));
        // Token duplication (a repeated key is an error), and a token
        // copied from another line.
        let mut doubled = tokens.clone();
        doubled.insert(other % (tokens.len() + 1), tokens[i]);
        check_spec_line(&doubled.join(" "));
        let foreign: Vec<&str> = CANONICAL[(which + 1) % 3].split_whitespace().collect();
        let mut grafted = tokens.clone();
        grafted[i] = foreign[other % foreign.len()];
        check_spec_line(&grafted.join(" "));
        // Digit flips: one digit, and a whole number set to a field edge.
        let line = CANONICAL[which];
        let digits: Vec<usize> = line
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let d = digits[at % digits.len()];
        let flipped = format!("{}{}{}", &line[..d], digit, &line[d + 1..]);
        check_spec_line(&flipped);
        check_spec_line(&replace_number(line, other, EDGE_NUMBERS[edge]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        open_checkpoint(&bytes);
        open_tail(&bytes);
        open_snapshot(&bytes);
        parse_blob(&bytes);
        // Behind a valid header, the bytes reach the record parsers.
        let behind = |header: &str| {
            let mut v = header.as_bytes().to_vec();
            v.extend_from_slice(&bytes);
            v
        };
        open_checkpoint(&behind(
            "vax-campaign-checkpoint v1\nconfig instructions 1000 warmup 100\n",
        ));
        open_tail(&behind("vax-queue-journal v2 generation 0 next 1\n"));
        open_snapshot(&behind("vax-queue-snapshot v2 generation 1 jobs 1\nindex\n"));
        parse_blob(&behind("vax-job-result v1\nresult instructions 1 cycles 2\n"));
    }

    #[test]
    fn truncated_valid_files_never_panic(cut: usize) {
        damage_each(|file| file[..cut % (file.len() + 1)].to_vec());
    }

    #[test]
    fn single_byte_flips_never_panic(at: usize, flip in 1u8..=255) {
        damage_each(|file| {
            let mut file = file.to_vec();
            let i = at % file.len();
            file[i] ^= flip;
            file
        });
    }
}

/// A request line longer than `MAX_REQUEST_BYTES`, sent over a real
/// socket, gets one reject and a closed connection: the server reads at
/// most one byte past the bound however long the line runs, and goes on
/// serving other clients.
#[test]
fn an_overlong_request_line_is_rejected_and_closed() {
    let dir = TempDir::new();
    let sock = dir.join("s.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let config = ServeConfig {
        journal: dir.join("queue.journal"),
        workers: 0,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn({
        let endpoint = endpoint.clone();
        move || run_server(&config, Some(&endpoint), Arc::new(InProcessExecutor))
    });
    let client = Client::new(endpoint, Duration::from_secs(5));
    // The first request also waits out the server's start-up.
    assert!(client.request_line("status").is_ok());

    let reply = |bytes: &[u8]| {
        let mut conn = UnixStream::connect(&sock).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(bytes).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    };
    // At the bound, the line is read whole and answered.
    let mut at_bound = vec![b'x'; MAX_REQUEST_BYTES];
    at_bound.push(b'\n');
    let answer = reply(&at_bound);
    assert!(answer.starts_with("reject unknown request"), "{answer:.80}");
    // One byte past it, no newline yet: rejected, then end of stream.
    let answer = reply(&vec![b'x'; MAX_REQUEST_BYTES + 1]);
    assert!(answer.starts_with("reject request too long"), "{answer}");
    assert_eq!(answer.lines().count(), 1, "{answer}");

    // A client that never sends a newline: the server stops reading and
    // closes, so the stream breaks long before 64 MiB.
    let mut conn = UnixStream::connect(&sock).unwrap();
    conn.set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    let broke = loop {
        if let Err(e) = conn.write_all(&chunk) {
            break e;
        }
        sent += chunk.len();
        assert!(
            sent < 64 << 20,
            "the server kept reading a line with no newline"
        );
    };
    assert!(
        matches!(
            broke.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
        ),
        "the server neither read nor closed: {broke}"
    );

    assert!(client.request_line("status").is_ok(), "still serving");
    assert_eq!(client.request_line("shutdown").unwrap(), "ok");
    server.join().unwrap().expect("clean shutdown");
}

/// The longest blob `render_result_blob` can produce: every bucket of
/// both planes nonzero at `u64::MAX`, every counter too.
fn largest_blob() -> String {
    let full = vec![u64::MAX; MicroAddr::SPACE];
    let names = HwCounters::new().to_pairs();
    render_result_blob(&MeasuredWorkload {
        name: WorkloadKind::SciEng.name(),
        histogram: Histogram::from_planes(full.clone(), full),
        counters: HwCounters::from_pairs(names.iter().map(|&(name, _)| (name, u64::MAX))),
        instructions: u64::MAX,
        cycles: u64::MAX,
    })
}

#[test]
fn the_largest_result_blob_fits_the_claim_bound() {
    let blob = largest_blob();
    assert!(blob.len() < MAX_RESULT_BLOB_BYTES, "{} bytes", blob.len());
    assert!(parse_result_blob(&blob, "sci-eng").is_ok());
}

/// A claiming worker that sends `result <id>` and then more blob than
/// `MAX_RESULT_BLOB_BYTES`, over a real socket, costs one failed,
/// retryable attempt: the server reads at most one byte past the bound,
/// answers and hangs up, and the job goes back on the queue — where the
/// next claim gets it and settles it with the largest legal blob.
#[test]
fn an_oversize_result_blob_is_a_failed_retryable_attempt() {
    let dir = TempDir::new();
    let sock = dir.join("s.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let journal = dir.join("queue.journal");
    Journal::open(&journal)
        .unwrap()
        .append_enqueue(&JobSpec::new(WorkloadKind::SciEng))
        .unwrap();
    let config = ServeConfig {
        journal: journal.clone(),
        workers: 0,
        retry: RetryPolicy::from_retries(1, 0),
        ..ServeConfig::default()
    };
    let server = std::thread::spawn({
        let endpoint = endpoint.clone();
        move || run_server(&config, Some(&endpoint), Arc::new(InProcessExecutor))
    });
    let client = Client::new(endpoint, Duration::from_secs(5));
    assert!(client.request_line("status").is_ok());

    let claim = || {
        let conn = UnixStream::connect(&sock).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        (&conn).write_all(b"claim\n").unwrap();
        let mut job = String::new();
        reader.read_line(&mut job).unwrap();
        assert!(job.starts_with("job 1 "), "{job}");
        (conn, reader)
    };

    // Well-formed bucket lines that never reach `end`.
    let (mut conn, mut reader) = claim();
    conn.write_all(b"result 1\n").unwrap();
    let chunk = b"3ff 1 1\n".repeat(8 * 1024);
    let mut sent = 0usize;
    let broke = loop {
        if let Err(e) = conn.write_all(&chunk) {
            break e;
        }
        sent += chunk.len();
        assert!(
            sent < 16 * MAX_RESULT_BLOB_BYTES,
            "the server kept reading a blob past its bound"
        );
    };
    assert!(
        matches!(
            broke.kind(),
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
        ),
        "the server neither read nor closed: {broke}"
    );
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert_eq!(ack, "ok\n");

    // The attempt failed and the job is queued again; the next claim
    // settles it with a blob just inside the bound.
    let status = client.request_line("status").unwrap();
    assert!(
        status.contains(" pending 1 running 0 done 0 failed 0 "),
        "{status}"
    );
    let (mut conn, mut reader) = claim();
    conn.write_all(format!("result 1\n{}", largest_blob()).as_bytes())
        .unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert_eq!(ack, "ok\n");
    assert_eq!(client.request_line("shutdown").unwrap(), "ok");
    server.join().unwrap().expect("clean shutdown");
    let journal = Journal::open(&journal).unwrap();
    assert_eq!(journal.counts(), (0, 1, 0));
    let line = journal.result_line(1).unwrap().unwrap();
    assert!(
        line.contains("\"instructions\":18446744073709551615"),
        "{line}"
    );
}
