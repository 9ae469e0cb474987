//! Byte pins for the measurement section in every place it is written:
//! a checkpoint `job` section, a journal `complete` section, a snapshot
//! `job` record, and a `vax-job-result v1` blob. All four share one
//! codec, and none of their bytes may drift: old checkpoints and
//! journals must still replay, and result digests are computed over
//! these exact bytes. The `status` reply is pinned too: its job lines
//! are what scripts read.

use std::path::PathBuf;
use upc_monitor::Histogram;
use vax780_core::{Checkpoint, MeasuredWorkload};
use vax_mem::HwCounters;
use vax_serve::queue::{parse_result_blob, render_result_blob};
use vax_serve::{JobSpec, Journal};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

/// The codec body every section below carries.
const BODY: &str = "upc-histogram v1
counter ib_requests 0
counter ib_bytes_delivered 0
counter cache_hit_i 0
counter cache_miss_i 0
counter cache_hit_d 0
counter cache_miss_d 0
counter writes 0
counter write_hits 0
counter unaligned_refs 0
counter tb_miss_d 0
counter tb_miss_i 0
counter tb_hits 0
counter sbi_reads 7
counter sbi_writes 0
counter machine_checks 2
10 1 3
3ff 12 0
";

fn fixed() -> MeasuredWorkload {
    let mut h = Histogram::new();
    h.bump_issue(MicroAddr::new(0x10));
    h.bump_stall(MicroAddr::new(0x10), 3);
    h.add_issue(MicroAddr::new(0x3ff), 12);
    let mut c = HwCounters::new();
    c.sbi_reads = 7;
    c.machine_checks = 2;
    MeasuredWorkload {
        name: WorkloadKind::SciEng.name(),
        histogram: h,
        counters: c,
        instructions: 1000,
        cycles: 4200,
    }
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vax-serve-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn checkpoint_job_section_bytes_are_pinned() {
    let path = tempdir("ckpt").join("campaign.ckpt");
    let mut cp = Checkpoint::open(&path, 1000, 100).unwrap();
    cp.record("sci-eng", &fixed()).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!(
            "vax-campaign-checkpoint v1\nconfig instructions 1000 warmup 100\n\
             job sci-eng instructions 1000 cycles 4200\n{BODY}end\n"
        )
    );
    let back = Checkpoint::open(&path, 1000, 100).unwrap();
    let m = back.get("sci-eng").unwrap();
    assert_eq!(
        (m.histogram.clone(), m.counters),
        (fixed().histogram, fixed().counters)
    );
}

#[test]
fn journal_complete_section_and_snapshot_record_bytes_are_pinned() {
    let path = tempdir("journal").join("queue.journal");
    let mut j = Journal::open(&path).unwrap();
    let mut spec = JobSpec::new(WorkloadKind::SciEng);
    spec.seed = Some(3);
    let id = j.append_enqueue(&spec).unwrap();
    j.append_start(id, 1).unwrap();
    j.append_complete(id, &fixed()).unwrap();
    let spec_line = "workload=sci-eng instructions=20000 warmup=5000 seed=3";
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!(
            "vax-queue-journal v2 generation 0 next 1\nenqueue 1 {spec_line}\n\
             start 1 attempt 1\ncomplete 1 instructions 1000 cycles 4200\n{BODY}end\n"
        )
    );
    let result = "{\"job\":1,\"spec\":\"workload=sci-eng instructions=20000 warmup=5000 \
                  seed=3\",\"workload\":\"sci-eng\",\"instructions\":1000,\"cycles\":4200,\
                  \"cpi\":4.200000,\"machine_checks\":2,\"digest\":\"417a23e3d7c41a1b\"}";
    assert_eq!(j.result_line(id).unwrap().unwrap(), result);

    j.compact().unwrap();
    assert_eq!(
        std::fs::read_to_string(j.snapshot_path()).unwrap(),
        format!(
            "vax-queue-snapshot v2 generation 1 jobs 1\nindex\nentry 1 0 467 done\nend\n\
             job 1 {spec_line}\ncomplete 1 instructions 1000 cycles 4200\n{BODY}end\n"
        )
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "vax-queue-journal v2 generation 1 next 2\n"
    );
    assert_eq!(j.result_line(id).unwrap().unwrap(), result);
    let back = Journal::open(&path).unwrap();
    assert_eq!(back.result_line(id).unwrap().unwrap(), result);
}

/// The `fail` record and its result line carry no measurement, but
/// they ride the same log and the same result stream.
#[test]
fn journal_fail_record_and_result_line_are_pinned() {
    let path = tempdir("fail").join("queue.journal");
    let mut j = Journal::open(&path).unwrap();
    let id = j
        .append_enqueue_for("alice", &JobSpec::new(WorkloadKind::Commercial))
        .unwrap();
    j.append_fail(id, 3, "worker panicked:\nboom \"x\" \\ done")
        .unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "vax-queue-journal v2 generation 0 next 1\n\
         enqueue 1 client=alice workload=commercial instructions=20000 warmup=5000\n\
         fail 1 attempts 3 message worker panicked:\\nboom \"x\" \\\\ done\n"
    );
    assert_eq!(
        j.result_line(id).unwrap().unwrap(),
        "{\"job\":1,\"spec\":\"workload=commercial instructions=20000 warmup=5000\",\
         \"failed\":true,\"attempts\":3,\"message\":\"worker panicked:\\nboom \\\"x\\\" \
         \\\\ done\"}"
    );
}

#[test]
fn result_blob_bytes_are_pinned() {
    let blob = render_result_blob(&fixed());
    assert_eq!(
        blob,
        format!("vax-job-result v1\nresult instructions 1000 cycles 4200\n{BODY}end\n")
    );
    let back = parse_result_blob(&blob, "sci-eng").unwrap();
    assert_eq!(back.histogram, fixed().histogram);
    assert_eq!(back.counters, fixed().counters);
    assert_eq!((back.instructions, back.cycles), (1000, 4200));
}

/// The `status` reply, byte for byte: the summary line, one `job` line
/// per job in id order — settled jobs from the snapshot and from the
/// tail, a job a remote worker holds as `running`, a pending one — and
/// `end`.
#[test]
fn status_reply_bytes_are_pinned() {
    use std::io::{BufRead, Read, Write};
    use std::os::unix::net::UnixStream;
    use vax_serve::{run_server, Client, Endpoint, InProcessExecutor, ServeConfig};

    let dir = tempdir("status");
    let path = dir.join("queue.journal");
    {
        let mut j = Journal::open(&path).unwrap();
        for (seed, client) in [(1, ""), (2, "alice"), (3, ""), (4, ""), (5, "bob")] {
            let mut spec = JobSpec::new(WorkloadKind::ALL[seed as usize % 5]);
            spec.seed = Some(seed);
            j.append_enqueue_for(client, &spec).unwrap();
        }
        j.append_start(1, 1).unwrap();
        j.append_complete(1, &fixed()).unwrap();
        j.append_start(2, 1).unwrap();
        j.append_fail(2, 1, "boom").unwrap();
        j.compact().unwrap();
        j.append_start(3, 1).unwrap();
        j.append_complete(3, &fixed()).unwrap();
    }
    let sock = dir.join("s.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let config = ServeConfig {
        journal: path,
        workers: 0,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn({
        let endpoint = endpoint.clone();
        move || {
            run_server(
                &config,
                Some(&endpoint),
                std::sync::Arc::new(InProcessExecutor),
            )
        }
    });
    let client = Client::new(endpoint, std::time::Duration::from_secs(10));
    assert!(client.request_line("metrics").unwrap().starts_with("ok "));

    // A remote worker claims job 4 and holds it.
    let mut worker = UnixStream::connect(&sock).unwrap();
    worker.write_all(b"claim\n").unwrap();
    let mut claimed = String::new();
    std::io::BufReader::new(worker.try_clone().unwrap())
        .read_line(&mut claimed)
        .unwrap();
    assert!(claimed.starts_with("job 4 "), "{claimed}");

    let mut conn = UnixStream::connect(&sock).unwrap();
    conn.write_all(b"status\n").unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    assert_eq!(
        reply,
        "ok capacity 256 pending 1 running 1 done 2 failed 1 draining 0\n\
         job 1 done workload=timesharing-heavy instructions=20000 warmup=5000 seed=1\n\
         job 2 failed workload=educational instructions=20000 warmup=5000 seed=2\n\
         job 3 done workload=sci-eng instructions=20000 warmup=5000 seed=3\n\
         job 4 running workload=commercial instructions=20000 warmup=5000 seed=4\n\
         job 5 pending workload=timesharing-light instructions=20000 warmup=5000 seed=5\n\
         end\n"
    );

    drop(worker);
    assert_eq!(client.request_line("shutdown").unwrap(), "ok");
    server.join().unwrap().unwrap();
}
