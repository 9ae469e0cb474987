//! End-to-end durability for `vax780 serve`: the queue survives
//! `kill -9`. A server is started, fed a mixed batch over its socket,
//! and SIGKILLed mid-queue; the restarted queue must re-run exactly
//! the unsettled jobs and produce merged results byte-identical to an
//! uninterrupted serial reference — zero lost, zero duplicated.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn vax780() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vax780"))
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// SIGKILL the child on drop — the test's "power failure".
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A mixed batch: every workload, one fault-plan job, one non-default
/// tier. The later jobs are heavier so the kill lands with work still
/// pending.
const SPECS: &[&str] = &[
    "workload=timesharing-light instructions=15000 warmup=2000 seed=1",
    "workload=sci-eng instructions=15000 warmup=2000 seed=2",
    "workload=commercial instructions=20000 warmup=2000 seed=3 \
     faults=cache-parity+sbi-timeout fault-seed=780 fault-count=2",
    "workload=educational instructions=30000 warmup=2000 seed=4",
    "workload=timesharing-heavy instructions=40000 warmup=2000 seed=5",
    "workload=educational instructions=40000 warmup=2000 seed=6 tier=naive",
];

fn enqueue_batch(target_flag: &str, target: impl AsRef<std::ffi::OsStr>) {
    let mut cmd = vax780();
    cmd.args(["enqueue", target_flag]).arg(target);
    for spec in SPECS {
        cmd.args(["--spec", spec]);
    }
    let out = cmd.output().expect("runs");
    assert!(
        out.status.success(),
        "enqueue failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).lines().count(),
        SPECS.len(),
        "one `enqueued <id>` line per spec"
    );
}

#[test]
fn sigkilled_server_resumes_bit_identical_to_serial_reference() {
    let dir = tempdir("vax780-serve-kill-test");

    // Uninterrupted serial reference: same batch, no server, one
    // worker, straight through.
    let reference_journal = dir.join("reference.journal");
    let reference_out = dir.join("reference.jsonl");
    enqueue_batch("--queue", &reference_journal);
    let out = vax780()
        .args(["drain", "--queue"])
        .arg(&reference_journal)
        .args(["--serial", "--out"])
        .arg(&reference_out)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "reference drain failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Live server: enqueue the same batch over the socket.
    let live_journal = dir.join("live.journal");
    let socket = dir.join("sock");
    let server = KillOnDrop(
        vax780()
            .args(["serve", "--queue"])
            .arg(&live_journal)
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns"),
    );
    enqueue_batch("--socket", &socket);

    // Wait for the first `complete` record, then kill -9: the journal
    // is mid-queue, with settled, running, and pending jobs.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let text = std::fs::read_to_string(&live_journal).unwrap_or_default();
        if text.lines().any(|l| l.starts_with("complete ")) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no job completed within 120s:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(server);

    let text = std::fs::read_to_string(&live_journal).unwrap();
    let settled = text
        .lines()
        .filter(|l| l.starts_with("complete ") || l.starts_with("fail "))
        .count();
    assert!(
        settled < SPECS.len(),
        "kill landed after the whole queue settled; nothing left to resume"
    );

    // Restart the queue offline and settle the remainder.
    let merged_out = dir.join("merged.jsonl");
    let out = vax780()
        .args(["drain", "--queue"])
        .arg(&live_journal)
        .args(["--jobs", "2", "--out"])
        .arg(&merged_out)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "resumed drain failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Bit-identical merged results: zero lost, zero duplicated, and
    // every line byte-for-byte equal to the uninterrupted reference.
    let merged = std::fs::read_to_string(&merged_out).unwrap();
    let reference = std::fs::read_to_string(&reference_out).unwrap();
    assert_eq!(merged.lines().count(), SPECS.len());
    assert_eq!(
        merged, reference,
        "resumed queue must reproduce the uninterrupted reference bit for bit"
    );

    // The journal agrees: every job settled exactly once.
    let out = vax780()
        .args(["status", "--queue"])
        .arg(&live_journal)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(
        status.contains(&format!("pending 0 done {} failed 0", SPECS.len())),
        "{status}"
    );
}

#[test]
fn server_applies_backpressure_and_rejects_bad_specs() {
    let dir = tempdir("vax780-serve-backpressure-test");
    let journal = dir.join("queue.journal");
    let socket = dir.join("sock");
    let server = KillOnDrop(
        vax780()
            .args(["serve", "--queue"])
            .arg(&journal)
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", "1", "--capacity", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns"),
    );

    // Big jobs hold the two capacity slots while we probe the edge.
    let slow = "workload=sci-eng instructions=2000000 warmup=2000 seed=9";
    for _ in 0..2 {
        let out = vax780()
            .args(["enqueue", "--socket"])
            .arg(&socket)
            .args(["--spec", slow])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = vax780()
        .args(["enqueue", "--socket"])
        .arg(&socket)
        .args(["--spec", slow])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "third enqueue must hit capacity 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("queue full"), "{err}");
    assert!(err.contains("capacity 2"), "{err}");

    // A bad spec is rejected with the parse error, not enqueued.
    let out = vax780()
        .args(["enqueue", "--socket"])
        .arg(&socket)
        .args(["--spec", "workload=warp-drive instructions=1000"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --spec"), "{err}");

    drop(server);
    // Only the two admitted jobs ever reached the journal.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(
        text.lines().filter(|l| l.starts_with("enqueue ")).count(),
        2,
        "{text}"
    );
}

/// A seventh job for the quota probe, enqueued under a named client.
const EXTRA_SPEC: &str = "workload=timesharing-light instructions=15000 warmup=2000 seed=7";

/// Remote execution end to end: a server with zero local workers
/// (`--jobs 0`) listening on TCP, one `vax780 worker --connect`
/// process settling the whole queue over the claim protocol, and a
/// per-client quota enforced over the wire. The merged results —
/// digests included — must be byte-identical to an in-process serial
/// reference.
#[test]
fn remote_tcp_worker_settles_the_queue_bit_identical() {
    let dir = tempdir("vax780-serve-remote-worker-test");

    // In-process serial reference over the same seven jobs.
    let reference_journal = dir.join("reference.journal");
    let reference_out = dir.join("reference.jsonl");
    enqueue_batch("--queue", &reference_journal);
    let out = vax780()
        .args(["enqueue", "--queue"])
        .arg(&reference_journal)
        .args(["--client", "alice", "--spec", EXTRA_SPEC])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = vax780()
        .args(["drain", "--queue"])
        .arg(&reference_journal)
        .args(["--serial", "--out"])
        .arg(&reference_out)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "reference drain failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A free TCP port: bind to :0, note the port, release it.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let addr = format!("tcp:127.0.0.1:{port}");

    // The server runs no jobs itself: all execution is remote.
    let live_journal = dir.join("live.journal");
    let server = KillOnDrop(
        vax780()
            .args(["serve", "--queue"])
            .arg(&live_journal)
            .args(["--socket", &addr, "--jobs", "0", "--client-quota", "6"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns"),
    );
    enqueue_batch("--socket", &addr);

    // The anonymous client now holds 6 unsettled jobs — quota full.
    let out = vax780()
        .args(["enqueue", "--socket", &addr, "--spec", EXTRA_SPEC])
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "seventh anonymous job must be over quota"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("quota exceeded"), "{err}");
    assert!(err.contains("quota 6"), "{err}");

    // A named client has its own budget.
    let out = vax780()
        .args(["enqueue", "--socket", &addr])
        .args(["--client", "alice", "--spec", EXTRA_SPEC])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One remote worker claims and runs everything over TCP.
    let mut worker = vax780()
        .args(["worker", "--connect", &addr])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker spawns");

    // Drain blocks until the worker settles all seven jobs, then the
    // server exits; the worker notices and exits on its own.
    let merged_out = dir.join("merged.jsonl");
    let out = vax780()
        .args(["drain", "--socket", &addr, "--out"])
        .arg(&merged_out)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "drain failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    drop(server);

    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match worker.try_wait().expect("wait") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = worker.kill();
                let _ = worker.wait();
                panic!("worker did not exit after the server went away");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert!(status.success(), "worker exited with {status}");
    let mut worker_err = String::new();
    use std::io::Read;
    worker
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut worker_err)
        .unwrap();
    assert!(
        worker_err.contains("ran 7 job(s), 0 failed attempt(s)"),
        "worker must have run every job itself:\n{worker_err}"
    );

    // Bit-identical to the in-process reference, digests and all.
    let merged = std::fs::read_to_string(&merged_out).unwrap();
    let reference = std::fs::read_to_string(&reference_out).unwrap();
    assert_eq!(merged.lines().count(), SPECS.len() + 1);
    assert!(
        merged.lines().all(|l| l.contains("\"digest\":\"")),
        "{merged}"
    );
    assert_eq!(
        merged, reference,
        "remote execution must reproduce in-process results bit for bit"
    );
}
