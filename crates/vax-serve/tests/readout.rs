//! Reading results out never stops the machine that produces them. A
//! client that asks for `results` or `status` over a long settled
//! journal and then never reads its reply leaves the server's handler
//! blocked on a full socket; it must hold no lock while it waits, so an
//! `enqueue` from another client is answered and a worker settles the
//! new job as if the stalled reader were not there.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use upc_monitor::Histogram;
use vax780_core::MeasuredWorkload;
use vax_mem::HwCounters;
use vax_serve::queue::ExecError;
use vax_serve::{run_server, Client, Endpoint, Executor, JobSpec, Journal, ServeConfig};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

/// Settled jobs in the journal: their `status` reply (about 70 bytes a
/// line) and their `results` reply (about 230) both run far past what a
/// Unix socket and the server's write buffer hold, so the handler
/// blocks long before it finishes.
const SETTLED: u64 = 10_000;

/// How long an answer may take before the test calls it stalled.
const PATIENCE: Duration = Duration::from_secs(60);

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vax-serve-readout-{tag}-{}-{}",
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

/// A measurement made up from the seed: the tests exercise the server,
/// not the machine model.
fn synth(seed: u64) -> MeasuredWorkload {
    let mut h = Histogram::new();
    h.bump_issue(MicroAddr::new((seed as u16) % 1024));
    let mut c = HwCounters::new();
    c.sbi_reads = seed;
    MeasuredWorkload {
        name: spec_for(seed).workload.name(),
        histogram: h,
        counters: c,
        instructions: 1_000,
        cycles: 4_000 + seed,
    }
}

/// Runs no simulation: each job settles with its seed's measurement.
struct Synthetic;

impl Executor for Synthetic {
    fn run(
        &self,
        spec: &JobSpec,
        _timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        Ok(synth(spec.seed.unwrap_or(0)))
    }
}

/// Run `f` on its own thread and wait at most `PATIENCE` for it.
fn within_patience<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(PATIENCE)
        .unwrap_or_else(|_| panic!("{what} stalled behind a client that does not read"))
}

fn never_reading_client_stalls_nobody(verb: &'static str) {
    let dir = tempdir(verb);
    let path = dir.join("queue.journal");
    {
        let mut j = Journal::open(&path).unwrap();
        for seed in 1..=SETTLED {
            let id = j.append_enqueue(&spec_for(seed)).unwrap();
            j.append_start(id, 1).unwrap();
            j.append_complete(id, &synth(seed)).unwrap();
        }
    }
    let sock = dir.join("s.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let config = ServeConfig {
        journal: path.clone(),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn({
        let endpoint = endpoint.clone();
        move || run_server(&config, Some(&endpoint), Arc::new(Synthetic))
    });
    let client = Client::new(endpoint, Duration::from_secs(30));
    // Waits out the server's start-up.
    assert!(client.request_line("metrics").unwrap().starts_with("ok "));

    // The stalled reader: its first reply line proves the handler is
    // mid-reply, and it reads nothing more until the end of the test.
    let mut hog = UnixStream::connect(&sock).unwrap();
    hog.write_all(format!("{verb}\n").as_bytes()).unwrap();
    let mut hog_reader = BufReader::new(hog.try_clone().unwrap());
    let mut first = String::new();
    hog_reader.read_line(&mut first).unwrap();
    assert!(!first.is_empty(), "no reply to `{verb}`");

    // Another client's enqueue is answered...
    let spec = spec_for(SETTLED + 1).render();
    let enqueued = within_patience("enqueue", {
        let client = Client::new(Endpoint::Unix(sock.clone()), Duration::from_secs(30));
        move || client.request_line(&format!("enqueue {spec}"))
    });
    assert_eq!(enqueued.unwrap(), format!("ok {}", SETTLED + 1));

    // ...and the worker settles the job: a drain streams every result,
    // the new job's last, and then stops the server.
    let drained = within_patience("drain", move || {
        let mut out = Vec::new();
        client.request_stream("drain", &mut out).map(|n| (n, out))
    });
    let (lines, out) = drained.unwrap();
    assert_eq!(lines as u64, SETTLED + 1);
    let last = String::from_utf8(out)
        .unwrap()
        .lines()
        .last()
        .unwrap()
        .to_string();
    assert!(
        last.starts_with(&format!("{{\"job\":{},", SETTLED + 1)) && !last.contains("\"failed\""),
        "{last}"
    );
    server.join().unwrap().expect("clean shutdown");
    drop((hog, hog_reader));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_results_reader_that_never_reads_stalls_nobody() {
    never_reading_client_stalls_nobody("results");
}

#[test]
fn a_status_reader_that_never_reads_stalls_nobody() {
    never_reading_client_stalls_nobody("status");
}
