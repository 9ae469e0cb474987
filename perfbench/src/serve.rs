//! Driving an in-process `vax_serve::run_server` over a Unix socket, one
//! client connection at a time.

use crate::calib::{host_speed, host_speed_all};
use crate::trace::Tracer;
use crate::{Outcome, Scale};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vax_serve::{
    run_server, Client, Endpoint, InProcessExecutor, ServeConfig, ServeError, ServerReport,
};

/// How long a client retries a connect before it counts as a wire error.
const PATIENCE: Duration = Duration::from_secs(30);

/// Collects a streamed reply's lines, and when the first and last arrived.
#[derive(Debug, Default)]
pub struct Lines {
    pub lines: Vec<String>,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Lines {
    /// Lines per second from the first line to the last. The wait before
    /// the first line (the listener's accept poll, up to 20 ms) is left
    /// out: it depends on when the request happened to arrive.
    pub fn rate(&self) -> f64 {
        match (self.first, self.last) {
            (Some(first), Some(last)) if last > first => {
                (self.lines.len() - 1) as f64 / (last - first).as_secs_f64()
            }
            _ => f64::NAN,
        }
    }
}

impl Write for Lines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.last = Some(now);
        let text = String::from_utf8_lossy(buf);
        self.lines.push(text.trim_end_matches('\n').to_string());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A server thread plus a client for its socket.
pub struct Server {
    pub client: Client,
    handle: JoinHandle<Result<ServerReport, ServeError>>,
    /// When `run_server` was called.
    pub started: Instant,
    /// When its socket was bound: the journal replayed, requests accepted.
    pub bound: Instant,
}

impl Server {
    /// Start a server over `journal` with `workers` threads, listening on
    /// `sock`, and check that it answers `status`.
    pub fn start(
        tracer: &mut Tracer,
        journal: &Path,
        sock: &Path,
        workers: usize,
        capacity: usize,
    ) -> Result<Server, String> {
        let config = ServeConfig {
            journal: journal.to_path_buf(),
            workers,
            capacity,
            // No per-attempt deadline, as `vax780 serve` without
            // `--timeout-secs`: with one, every attempt runs on a fresh
            // helper thread, whose fresh allocator arena makes the peak
            // RSS jump by a machine at random.
            timeout: None,
            ..ServeConfig::default()
        };
        let endpoint = Endpoint::Unix(sock.to_path_buf());
        let started = Instant::now();
        let server_endpoint = endpoint.clone();
        let handle = std::thread::spawn(move || {
            run_server(&config, Some(&server_endpoint), Arc::new(InProcessExecutor))
        });
        // The socket file appears once the journal has replayed and the
        // listener is bound; connecting earlier would only sleep in the
        // client's own retry loop.
        let deadline = Instant::now() + PATIENCE;
        let bound = loop {
            if sock.exists() {
                break Instant::now();
            }
            if handle.is_finished() {
                return Err(match handle.join() {
                    Ok(Err(e)) => format!("server did not start: {e}"),
                    _ => "server did not start".to_string(),
                });
            }
            if Instant::now() > deadline {
                return Err("server did not bind its socket in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(20));
        };
        let client = Client::new(endpoint, PATIENCE);
        let mut status = Lines::default();
        let streamed = tracer.span("serve.status", 0, |_| {
            client.request_stream("status", &mut status)
        });
        let server = Server {
            client,
            handle,
            started,
            bound,
        };
        let problem = match (streamed, status.lines.first()) {
            (Ok(_), Some(first)) if first.starts_with("ok ") => return Ok(server),
            (Err(e), _) => format!("status: {e}"),
            (Ok(_), first) => format!("status: unexpected reply {first:?}"),
        };
        // Stop the server rather than leave it running.
        let _ = server.shutdown(tracer);
        Err(problem)
    }

    /// Seconds from the `run_server` call until its socket was bound,
    /// which `run_server` does right after replaying the journal. The
    /// first `status` reply would add the listener's accept poll (it
    /// sleeps 20 ms when no connection is waiting), which makes the
    /// figure jump between two modes from run to run.
    pub fn ready_s(&self) -> f64 {
        (self.bound - self.started).as_secs_f64()
    }

    /// Stream a request's reply lines (`results`, `drain`).
    pub fn stream(
        &self,
        tracer: &mut Tracer,
        name: &'static str,
        request: &str,
    ) -> Result<Lines, String> {
        let mut out = Lines::default();
        tracer
            .span(name, 0, |_| self.client.request_stream(request, &mut out))
            .map_err(|e| format!("{request}: {e}"))?;
        Ok(out)
    }

    /// Wait for the server thread to exit (after `drain` or `shutdown`).
    pub fn join(self) -> Result<ServerReport, String> {
        match self.handle.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }

    /// Ask the server to stop and wait for it.
    pub fn shutdown(self, tracer: &mut Tracer) -> Result<ServerReport, String> {
        let reply = tracer.span("serve.shutdown", 0, |_| {
            self.client.request_line("shutdown")
        });
        match reply {
            Ok(r) if r == "ok" => self.join(),
            Ok(r) => Err(format!("shutdown: {r}")),
            Err(e) => Err(format!("shutdown: {e}")),
        }
    }
}

/// The snapshot segment beside a journal (`<journal>.snap`).
pub fn snap_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(".snap");
    PathBuf::from(os)
}

/// Bytes of a journal's tail and snapshot segments on disk.
pub fn journal_bytes(journal: &Path) -> u64 {
    [journal.to_path_buf(), snap_path(journal)]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Restart a one-worker server over a settled journal: push its replay
/// time (`replay_s`) and its `results` stream rate (`results_per_s`), and
/// check the stream against `expected`.
pub fn replay_round(
    tracer: &mut Tracer,
    out: &mut Outcome,
    traced: bool,
    journal: &Path,
    sock: &Path,
    expected: &[String],
) {
    let before = (host_speed(), host_speed_all());
    let served = tracer.region("bench.serve", traced, |t| {
        let server = Server::start(t, journal, sock, 1, 16)?;
        let results = server.stream(t, "serve.results", "results");
        let replay = server.ready_s();
        server.shutdown(t)?;
        Ok::<_, String>((replay, results?))
    });
    // Replay is one thread's work; the stream keeps two busy, the
    // server's writer and this client.
    let one = (before.0 + host_speed()) / 2.0;
    let two = (before.1 + host_speed_all()) / 2.0;
    if let Some((replay, results)) = out.tally.check(served) {
        out.rounds
            .push_at(traced, "replay_s", replay, one, Scale::Time);
        out.rounds
            .push_at(traced, "results_per_s", results.rate(), two, Scale::Rate);
        out.tally.op(results.lines == expected, || {
            format!(
                "results stream over {} differs from the expected lines",
                journal.display()
            )
        });
    }
}
