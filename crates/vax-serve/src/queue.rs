//! Job execution: how one [`JobSpec`] becomes one measurement.
//!
//! The server shards work two ways. [`InProcessExecutor`] runs the
//! experiment on the calling worker thread (cheap, shares the
//! process); [`ProcessExecutor`] spawns a `vax780 job-worker` child
//! per attempt, piping the spec in on stdin and reading a
//! `vax-job-result v1` blob back from stdout — crash isolation and
//! multi-process sharding for the price of a fork. Both honour a
//! per-job timeout; both return the same bit-deterministic
//! [`MeasuredWorkload`], because both run the same `Experiment::run`.

use crate::spec::JobSpec;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vax780_core::record_log::{render_section, Section};
use vax780_core::MeasuredWorkload;

const BLOB_HEADER: &str = "vax-job-result v1";

/// Why one execution attempt failed.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// The simulation panicked (or the worker process died).
    Failed(String),
    /// The attempt exceeded its deadline and was abandoned/killed.
    Timeout(Duration),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Failed(msg) => write!(f, "{msg}"),
            ExecError::Timeout(limit) => {
                write!(f, "timed out after {:.1}s", limit.as_secs_f64())
            }
        }
    }
}

/// Runs one attempt of one job.
pub trait Executor: Send + Sync {
    /// Run the spec to completion, or fail/time out.
    ///
    /// # Errors
    ///
    /// [`ExecError`] on panic, worker death, or deadline overrun.
    fn run(&self, spec: &JobSpec, timeout: Option<Duration>)
        -> Result<MeasuredWorkload, ExecError>;
}

/// Render a measurement as the `vax-job-result v1` blob a job-worker
/// process writes to stdout: the header, then a `result` measurement
/// section.
pub fn render_result_blob(m: &MeasuredWorkload) -> String {
    format!("{BLOB_HEADER}\n{}", render_section("result", m))
}

/// Parse a `vax-job-result v1` blob back into a measurement. `name`
/// restores the workload label (the blob itself carries only numbers).
///
/// # Errors
///
/// A description of the first malformed line.
pub fn parse_result_blob(text: &str, name: &'static str) -> Result<MeasuredWorkload, String> {
    let (header, section) = text.split_once('\n').unwrap_or((text, ""));
    if header.trim() != BLOB_HEADER {
        return Err(format!("missing `{BLOB_HEADER}` header (got `{header}`)"));
    }
    let section = Section::split(section)?;
    if section.prefix != "result" {
        return Err(format!("bad result line `{}`", section.prefix));
    }
    section.decode(name)
}

/// Run the job on the calling process, one thread per attempt.
#[derive(Debug, Default)]
pub struct InProcessExecutor;

impl Executor for InProcessExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        let run_guarded = |spec: &JobSpec| -> Result<MeasuredWorkload, ExecError> {
            let exp = spec.experiment();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run()))
                .map_err(|p| ExecError::Failed(panic_message(&p)))
        };
        let Some(limit) = timeout else {
            return run_guarded(spec);
        };
        // Run on a helper thread so the attempt can be abandoned at the
        // deadline. The thread is detached on timeout: the simulation
        // cannot be interrupted, but its result is discarded and the
        // worker slot freed. (Process sharding gives a true kill.)
        let (tx, rx) = std::sync::mpsc::channel();
        let spec = spec.clone();
        std::thread::spawn(move || {
            let _ = tx.send(run_guarded(&spec));
        });
        match rx.recv_timeout(limit) {
            Ok(result) => result,
            Err(_) => Err(ExecError::Timeout(limit)),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Run each attempt in a fresh worker OS process (`<exe> job-worker`).
#[derive(Debug, Clone)]
pub struct ProcessExecutor {
    /// The server binary; the child is `exe job-worker`.
    pub exe: PathBuf,
}

impl Executor for ProcessExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        let mut child = Command::new(&self.exe)
            .arg("job-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| ExecError::Failed(format!("spawn {}: {e}", self.exe.display())))?;
        // Write the spec and close stdin so the child sees EOF.
        if let Some(mut stdin) = child.stdin.take() {
            let _ = writeln!(stdin, "{}", spec.render());
        }
        // Drain stdout/stderr on threads: a full pipe would deadlock a
        // child that blocks writing while we block waiting.
        let drain = |mut pipe: Option<Box<dyn Read + Send>>| {
            std::thread::spawn(move || {
                let mut buf = String::new();
                if let Some(pipe) = pipe.as_mut() {
                    let _ = pipe.read_to_string(&mut buf);
                }
                buf
            })
        };
        let stdout = drain(child.stdout.take().map(|p| Box::new(p) as _));
        let stderr = drain(child.stderr.take().map(|p| Box::new(p) as _));
        let status = match timeout {
            None => child.wait().map_err(|e| {
                let _ = child.kill();
                ExecError::Failed(format!("wait: {e}"))
            })?,
            Some(timeout) => wait_with_deadline(&mut child, timeout)?,
        };
        let out = stdout.join().unwrap_or_default();
        let err = stderr.join().unwrap_or_default();
        if !status.success() {
            let detail = err.trim();
            return Err(ExecError::Failed(if detail.is_empty() {
                format!("worker exited with {status}")
            } else {
                format!("worker exited with {status}: {detail}")
            }));
        }
        parse_result_blob(&out, self.spec_name(spec))
            .map_err(|e| ExecError::Failed(format!("worker result: {e}")))
    }
}

impl ProcessExecutor {
    fn spec_name(&self, spec: &JobSpec) -> &'static str {
        spec.workload.name()
    }
}

/// Poll a child every 5 ms until it exits or `timeout` passes; on the
/// deadline, kill it and report a timeout.
fn wait_with_deadline(
    child: &mut std::process::Child,
    timeout: Duration,
) -> Result<std::process::ExitStatus, ExecError> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                // The child may exit cleanly between the deadline check
                // and the kill landing. The reaped status is the truth:
                // a success here means a complete result blob is already
                // in the stdout pipe, so honour it instead of discarding
                // a finished job as a timeout.
                return match kill_and_reap(child) {
                    Some(status) if status.success() => Ok(status),
                    _ => Err(ExecError::Timeout(timeout)),
                };
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(ExecError::Failed(format!("wait: {e}")));
            }
        }
    }
}

/// Kill a child and reap its true exit status. Returns `None` only if
/// the wait itself fails. A child that exited on its own before the
/// kill landed reports its real (possibly successful) status — the
/// caller decides whether that beats the timeout.
fn kill_and_reap(child: &mut std::process::Child) -> Option<std::process::ExitStatus> {
    let _ = child.kill();
    child.wait().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_workloads::WorkloadKind;

    #[test]
    fn blob_round_trips() {
        let mut spec = JobSpec::new(WorkloadKind::TimesharingLight);
        spec.instructions = 2_000;
        spec.warmup = 500;
        let m = InProcessExecutor.run(&spec, None).expect("runs");
        let blob = render_result_blob(&m);
        let back = parse_result_blob(&blob, m.name).expect("parses");
        assert_eq!(back.instructions, m.instructions);
        assert_eq!(back.cycles, m.cycles);
        assert_eq!(back.histogram, m.histogram);
        assert_eq!(back.counters, m.counters);
    }

    #[test]
    fn blob_parse_rejects_damage() {
        for bad in [
            "",
            "wrong header\n",
            "vax-job-result v1\nresult instructions x cycles 2\nend\n",
            "vax-job-result v1\nresult instructions 1 cycles 2\nupc-histogram v1\n",
        ] {
            assert!(parse_result_blob(bad, "x").is_err(), "{bad:?}");
        }
    }

    /// Bug-sweep pin: `ProcessExecutor`'s deadline check races the
    /// child's own exit. `kill_and_reap` must report the child's true
    /// status — for an already-exited child the kill is a no-op and
    /// the successful status (with the result blob already in the
    /// pipe) wins over the timeout verdict.
    #[test]
    fn kill_and_reap_reports_a_clean_exit_that_beat_the_kill() {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        // Let the child finish (unreaped) before the kill is sent: the
        // SIGKILL lands on a zombie and changes nothing.
        std::thread::sleep(Duration::from_millis(50));
        let status = kill_and_reap(&mut child).expect("reap");
        assert!(status.success(), "{status}");
        // And a child that was genuinely still running reports the
        // kill, not success.
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let status = kill_and_reap(&mut child).expect("reap");
        assert!(!status.success(), "{status}");
    }

    #[test]
    fn in_process_timeout_abandons_the_attempt() {
        let mut spec = JobSpec::new(WorkloadKind::TimesharingHeavy);
        spec.instructions = 50_000_000;
        spec.warmup = 0;
        let err = InProcessExecutor
            .run(&spec, Some(Duration::from_millis(20)))
            .expect_err("cannot finish in 20ms");
        assert!(matches!(err, ExecError::Timeout(_)), "{err}");
    }
}
