//! The listener blocks in `accept` and is woken on shutdown: a request
//! is taken the moment it arrives, and an idle server still stops
//! promptly. A listener that polled for connections would pay its poll
//! period on every closed-loop request.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use vax_serve::{
    run_server, Client, Endpoint, InProcessExecutor, JobSpec, ServeConfig, ServeError, ServerReport,
};
use vax_workloads::WorkloadKind;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vax-serve-listener-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start a server with no local workers (nothing but the listener and
/// its handlers runs) on `endpoint`; its report arrives on the channel.
fn start(
    dir: &std::path::Path,
    endpoint: &Endpoint,
) -> mpsc::Receiver<Result<ServerReport, ServeError>> {
    let config = ServeConfig {
        journal: dir.join("queue.journal"),
        workers: 0,
        ..ServeConfig::default()
    };
    let endpoint = endpoint.clone();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_server(
            &config,
            Some(&endpoint),
            Arc::new(InProcessExecutor),
        ));
    });
    rx
}

/// Ask for shutdown and require `run_server` to return within a second.
fn shutdown_promptly(client: &Client, report: &mpsc::Receiver<Result<ServerReport, ServeError>>) {
    assert_eq!(client.request_line("shutdown").unwrap(), "ok");
    let asked = Instant::now();
    report
        .recv_timeout(Duration::from_secs(1))
        .expect("run_server returns within 1 s of a shutdown request")
        .expect("clean shutdown");
    assert!(asked.elapsed() < Duration::from_secs(1));
}

#[test]
fn closed_loop_enqueues_are_not_paced_by_the_listener() {
    let dir = tempdir();
    let endpoint = Endpoint::Unix(dir.join("s.sock"));
    let report = start(&dir, &endpoint);
    let client = Client::new(endpoint, Duration::from_secs(5));
    // The first request also waits out the server's start-up.
    assert!(client.request_line("status").is_ok());
    let mut spec = JobSpec::new(WorkloadKind::Educational);
    spec.instructions = 1_000;
    spec.warmup = 1_000;
    let line = format!("enqueue {}", spec.render());
    let start = Instant::now();
    for id in 1..=100 {
        assert_eq!(client.request_line(&line).unwrap(), format!("ok {id}"));
    }
    let took = start.elapsed();
    // A 20 ms accept poll would force at least 2 s here.
    assert!(
        took < Duration::from_secs(1),
        "100 sequential enqueues took {took:?}"
    );
    shutdown_promptly(&client, &report);
}

#[test]
fn idle_unix_listener_stops_on_shutdown() {
    let dir = tempdir();
    let sock = dir.join("s.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let report = start(&dir, &endpoint);
    let client = Client::new(endpoint, Duration::from_secs(5));
    assert!(client.request_line("status").is_ok());
    shutdown_promptly(&client, &report);
    assert!(!sock.exists(), "the socket file is removed on shutdown");
}

#[test]
fn idle_wildcard_tcp_listener_stops_on_shutdown() {
    // A wildcard bind: the wake-up connect must find it over loopback.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let dir = tempdir();
    let report = start(&dir, &Endpoint::Tcp(format!("0.0.0.0:{port}")));
    let client = Client::new(
        Endpoint::Tcp(format!("127.0.0.1:{port}")),
        Duration::from_secs(5),
    );
    assert!(client.request_line("status").is_ok());
    shutdown_promptly(&client, &report);
}
