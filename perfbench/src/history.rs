//! `queue-history`: restart a server over a journal with a long settled
//! history, stream every result over the wire while the workers settle a
//! small pending batch, then `compact` and `drain`.
//!
//! Set-up writes the history through the public `Journal` API with real
//! `MeasuredWorkload`s: most of it compacted into the snapshot, the rest
//! settled tail records, plus the pending batch. Each round restarts a
//! server over a fresh copy of that journal.

use crate::calib::host_speed;
use crate::campaign::{batch, reference_lines, run_direct};
use crate::serve::{journal_bytes, snap_path, Server};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Scale};
use std::path::Path;
use vax780_core::MeasuredWorkload;
use vax_serve::{JobSpec, Journal};

/// Settled jobs compacted into the snapshot.
pub const SNAPSHOT_JOBS: usize = 4_500;
/// Settled jobs left in the tail after the compaction.
pub const TAIL_JOBS: usize = 500;
/// Pending jobs the workers settle while the results stream.
pub const PENDING_JOBS: usize = 16;
/// Distinct tiny jobs the history cycles through.
const POOL: usize = 40;
const SETUP_ROUNDS: usize = 3;
const MIN_ROUNDS: usize = 4;

fn lines_digest(lines: &[String]) -> u64 {
    vax_serve::journal::fnv64(&lines.join("\n"))
}

/// Write the history into a fresh journal at `path`.
fn build_history(
    tracer: &mut Tracer,
    path: &Path,
    pool: &[(JobSpec, MeasuredWorkload)],
) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(snap_path(path));
    let err = |e: vax_serve::JournalError| e.to_string();
    let mut journal = tracer
        .span("journal.open", 0, |_| Journal::open(path))
        .map_err(err)?;
    let settle = |t: &mut Tracer, journal: &mut Journal, i: usize| -> Result<(), String> {
        let (spec, m) = &pool[i % pool.len()];
        let id = t
            .span("journal.append_enqueue", 0, |_| {
                journal.append_enqueue(spec)
            })
            .map_err(err)?;
        t.span("journal.append_start", id, |_| journal.append_start(id, 1))
            .map_err(err)?;
        t.span("journal.append_complete", id, |_| {
            journal.append_complete(id, m)
        })
        .map_err(err)
    };
    for i in 0..SNAPSHOT_JOBS {
        settle(tracer, &mut journal, i)?;
    }
    tracer
        .span("journal.compact", 0, |_| journal.compact())
        .map_err(err)?;
    for i in SNAPSHOT_JOBS..SNAPSHOT_JOBS + TAIL_JOBS {
        settle(tracer, &mut journal, i)?;
    }
    for i in 0..PENDING_JOBS {
        let spec = &pool[i % pool.len()].0;
        tracer
            .span("journal.append_enqueue", 0, |_| {
                journal.append_enqueue(spec)
            })
            .map_err(err)?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let base = ctx.work.join("history.journal");
    let pool_specs: Vec<JobSpec> = batch(ctx.seed).into_iter().step_by(2).take(POOL).collect();

    // Set-up, several times: the pool of real results, then the history.
    let mut pool: Vec<(JobSpec, MeasuredWorkload)> = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let traced = ctx.traced_round(round);
        let start = if round == 0 {
            ctx.process_start
        } else {
            std::time::Instant::now()
        };
        let built = tracer.region("bench.setup", traced, |t| {
            let results = t.span("core.experiments", 0, |_| {
                run_direct(&pool_specs, ctx.nproc)
            });
            pool = pool_specs.iter().cloned().zip(results).collect();
            build_history(t, &base, &pool)
        });
        let secs = start.elapsed().as_secs_f64();
        // Read after, not before: the reading must stay out of the timed span.
        out.rounds
            .push_at(traced, "setup_s", secs, host_speed(), Scale::Time);
        if out.tally.check(built).is_none() {
            return out;
        }
    }
    let history_jobs = (SNAPSHOT_JOBS + TAIL_JOBS) as u64;
    let total_jobs = history_jobs + PENDING_JOBS as u64;

    // Each round's drain, as a digest: the lines themselves are large.
    let mut drained_rounds: Vec<u64> = Vec::new();
    let mut last_journal = None;
    let deadline = std::time::Instant::now() + ctx.measure_for;
    let mut round = 0usize;
    while round < MIN_ROUNDS || std::time::Instant::now() < deadline {
        let traced = ctx.traced_round(round);
        let dir = ctx.work.join(format!("r{round}"));
        let _ = std::fs::create_dir_all(&dir);
        let journal = dir.join("queue.journal");
        let copied = std::fs::copy(&base, &journal)
            .and_then(|_| std::fs::copy(snap_path(&base), snap_path(&journal)));
        if out
            .tally
            .check(copied.map_err(|e| format!("copy history: {e}")))
            .is_none()
        {
            break;
        }

        let before = host_speed();
        let run = tracer.region("bench.history", traced, |t| {
            let server = Server::start(
                t,
                &journal,
                &dir.join("s.sock"),
                ctx.nproc,
                4 * PENDING_JOBS,
            )?;
            let replay = server.ready_s();
            let results = server.stream(t, "serve.results", "results");
            let compact = t.span("serve.compact", 0, |_| {
                server.client.request_line("compact")
            });
            let drained = server.stream(t, "serve.drain", "drain");
            let total_secs = server.started.elapsed().as_secs_f64();
            let report = server.join();
            Ok::<_, String>((replay, results, compact, drained, total_secs, report))
        });
        let Some((replay, results, compact, drained, total_secs, report)) = out.tally.check(run)
        else {
            break;
        };
        let _ = out.tally.check(report);
        out.tally
            .op(matches!(&compact, Ok(r) if r.starts_with("ok ")), || {
                format!("compact: {compact:?}")
            });
        let (Some(results), Some(drained)) = (out.tally.check(results), out.tally.check(drained))
        else {
            break;
        };
        let speed = (before + host_speed()) / 2.0;
        out.rounds
            .push_at(traced, "replay_s", replay, speed, Scale::Time);
        out.rounds
            .push_at(traced, "results_per_s", results.rate(), speed, Scale::Rate);
        out.rounds.push_at(
            traced,
            "jobs_per_s",
            PENDING_JOBS as f64 / total_secs,
            speed,
            Scale::Rate,
        );
        let mips =
            PENDING_JOBS as f64 * crate::campaign::TINY_INSTRUCTIONS as f64 / total_secs / 1e6;
        out.rounds
            .push_at(traced, "sim_mips", mips, speed, Scale::Rate);
        out.rounds.push(
            traced,
            "journal_bytes_per_job",
            journal_bytes(&journal) as f64 / total_jobs as f64,
        );

        // The `results` stream is a snapshot taken while the pending jobs
        // settle: it holds the whole history plus those already settled,
        // each line identical to the drained line for the same job.
        let n = results.lines.len();
        let (history, pending) = (history_jobs as usize, total_jobs as usize);
        let stream_ok = (history..=pending).contains(&n)
            && drained.lines.len() == pending
            && results.lines[..history] == drained.lines[..history]
            && results.lines[history..]
                .iter()
                .all(|l| drained.lines[history..].contains(l));
        out.tally.op(stream_ok, || {
            format!("round {round}: {n} streamed result line(s) do not match the settled jobs")
        });
        drained_rounds.push(lines_digest(&drained.lines));
        if let Some(old) = last_journal.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        round += 1;
    }
    // Peak memory of the measured region, before the correctness checks
    // start threads of their own.
    out.rounds.push(false, "rss_peak_mb", crate::rss_peak_mb());
    out.notes.push(format!(
        "rounds {round}: {SNAPSHOT_JOBS} snapshot + {TAIL_JOBS} tail settled jobs, {PENDING_JOBS} pending, {} worker(s)",
        ctx.nproc
    ));

    // Correctness, outside the timed region: each drain must be byte-
    // identical to `Journal::stream_results` on the reopened journal, and
    // the pending jobs' lines to direct runs of their specs.
    if let Some(dir) = &last_journal {
        let reopened = Journal::open(&dir.join("queue.journal"))
            .map_err(|e| e.to_string())
            .and_then(|j| {
                let mut text = Vec::new();
                j.stream_results(&mut text).map_err(|e| e.to_string())?;
                Ok(String::from_utf8_lossy(&text)
                    .lines()
                    .map(str::to_string)
                    .collect::<Vec<_>>())
            });
        if let Some(reference) = out.tally.check(reopened) {
            let want = lines_digest(&reference);
            for (round, drained) in drained_rounds.iter().enumerate() {
                out.tally.op(*drained == want, || {
                    format!("round {round}: drain differs from the reopened journal")
                });
            }
            // Job i ran pool entry i (history) or i - history (pending),
            // modulo the pool size, as `build_history` enqueued them.
            let history = history_jobs as usize;
            let jobs = (0..total_jobs as usize).map(|i| {
                let (spec, m) = &pool[if i < history { i } else { i - history } % pool.len()];
                (spec, m)
            });
            let direct = reference_lines(&ctx.work.join("reference.journal"), jobs);
            if let Some(direct) = out.tally.check(direct) {
                out.tally.op(direct == reference, || {
                    "journal lines differ from direct runs".into()
                });
            }
        }
    }
    if ctx.trace {
        crate::probe::run(ctx, tracer, &mut out, Some(&base));
    }
    out
}
