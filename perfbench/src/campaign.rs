//! `campaign-tiny`: one client enqueues a closed batch of tiny jobs over a
//! Unix socket to an in-process server with `nproc` workers, one request
//! at a time, then one `drain` stream collects every result. The batch
//! fills the measured region: one server lifetime. After the drain the
//! server is restarted over that journal to time replay and the
//! `results` stream.

use crate::calib::host_speed;
use crate::serve::{journal_bytes, replay_round, Server};
use crate::trace::Tracer;
use crate::{mix, Ctx, Outcome, Scale};
use std::path::Path;
use std::time::Instant;
use vax780_core::MeasuredWorkload;
use vax_serve::{JobSpec, Journal};
use vax_workloads::WorkloadKind;

/// Measured instructions of a tiny job.
pub const TINY_INSTRUCTIONS: u64 = 1_000;
/// Warm-up instructions of a tiny job.
pub const TINY_WARMUP: u64 = 1_000;
/// Seeds per profile in one batch.
const SEEDS: u64 = 4;
/// Batch size per measured second: the listener's accept poll paces a
/// closed-loop client at about 50 enqueues a second on any host.
const JOBS_PER_SECOND: f64 = 40.0;
const SETUP_ROUNDS: usize = 7;
/// Server restarts over each round's drained journal.
const RESTARTS: usize = 10;

/// The sweep points: (cache-kb, tb-entries, write-buffer) overrides.
const CONFIGS: [(Option<u32>, Option<u32>, Option<u32>); 4] = [
    (None, None, None),
    (Some(4), None, None),
    (None, Some(64), None),
    (None, None, Some(4)),
];

/// The batch, shaped like a sweep: seed × profile × config point, so each
/// (profile, seed) pair recurs across the config points.
pub fn batch(seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for s in 0..SEEDS {
        for (i, &kind) in WorkloadKind::ALL.iter().enumerate() {
            for &(cache_kb, tb_entries, write_buffer) in &CONFIGS {
                let mut spec = JobSpec::new(kind);
                spec.instructions = TINY_INSTRUCTIONS;
                spec.warmup = TINY_WARMUP;
                spec.seed = Some(mix(seed, 1_000 + s * 16 + i as u64) >> 16);
                spec.cache_kb = cache_kb;
                spec.tb_entries = tb_entries;
                spec.write_buffer = write_buffer;
                jobs.push(spec);
            }
        }
    }
    jobs
}

/// Run every spec directly (`Experiment::run`) on `threads` threads.
pub fn run_direct(specs: &[JobSpec], threads: usize) -> Vec<MeasuredWorkload> {
    let chunk = specs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|s| s.experiment().run())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("direct job run panicked"))
            .collect()
    })
}

/// The result lines a scratch journal renders for `jobs` settled as jobs
/// `1..=n`, in order.
pub fn reference_lines<'a>(
    path: &std::path::Path,
    jobs: impl IntoIterator<Item = (&'a JobSpec, &'a MeasuredWorkload)>,
) -> Result<Vec<String>, String> {
    let mut journal = Journal::open(path).map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    for (spec, m) in jobs {
        let id = journal.append_enqueue(spec).map_err(|e| e.to_string())?;
        journal.append_start(id, 1).map_err(|e| e.to_string())?;
        journal.append_complete(id, m).map_err(|e| e.to_string())?;
        lines.push(
            journal
                .result_line(id)
                .map_err(|e| e.to_string())?
                .unwrap_or_default(),
        );
    }
    Ok(lines)
}

/// Start a fresh server on a fresh journal under `dir`, timing its
/// set-up (`setup_s`) from `start` until its socket is bound.
fn fresh_server(
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
    dir: &Path,
    traced: bool,
    start: Instant,
    capacity: usize,
) -> Option<Server> {
    let _ = std::fs::create_dir_all(dir);
    let server = tracer.region("bench.setup", traced, |t| {
        Server::start(
            t,
            &dir.join("queue.journal"),
            &dir.join("s.sock"),
            ctx.nproc,
            capacity,
        )
    });
    let server = out.tally.check(server)?;
    let setup = (server.bound - start).as_secs_f64();
    // Read after, not before: the reading must stay out of the timed span.
    out.rounds
        .push_at(traced, "setup_s", setup, host_speed(), Scale::Time);
    Some(server)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let specs = batch(ctx.seed);
    // One closed batch fills the measured region (two half batches in a
    // traced run: one untraced, one traced). Job j runs spec j mod 80.
    let batches = if ctx.trace { 2 } else { 1 };
    let jobs = ((ctx.measure_for.as_secs_f64() * JOBS_PER_SECOND / batches as f64) as usize)
        .max(specs.len());
    let lines: Vec<String> = (0..jobs)
        .map(|j| format!("enqueue {}", specs[j % specs.len()].render()))
        .collect();

    // Set-up, several times; the last server takes the first batch.
    let mut server = None;
    for round in 0..SETUP_ROUNDS {
        let start = if round == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let dir = ctx.work.join(format!("setup{round}"));
        let Some(s) = fresh_server(
            ctx,
            tracer,
            &mut out,
            &dir,
            ctx.traced_round(round),
            start,
            jobs + 1,
        ) else {
            return out;
        };
        if round + 1 < SETUP_ROUNDS {
            let stopped = s.shutdown(tracer);
            out.tally.check(stopped);
        } else {
            server = Some((s, dir));
        }
    }

    let mut drained_batches: Vec<Vec<String>> = Vec::new();
    for b in 0..batches {
        let traced = ctx.traced_round(b);
        let (server, dir) = match server.take() {
            Some(s) => s,
            None => {
                let dir = ctx.work.join(format!("batch{b}"));
                match fresh_server(
                    ctx,
                    tracer,
                    &mut out,
                    &dir,
                    traced,
                    Instant::now(),
                    jobs + 1,
                ) {
                    Some(s) => (s, dir),
                    None => break,
                }
            }
        };
        let journal = dir.join("queue.journal");

        // Timed: enqueue the batch, one request at a time, then drain.
        let start = Instant::now();
        let (rejected, drained) = tracer.region("bench.campaign", traced, |t| {
            let mut rejected = 0u64;
            for (i, line) in lines.iter().enumerate() {
                let reply = t.span("serve.enqueue", i as u64 + 1, |_| {
                    server.client.request_line(line)
                });
                if !matches!(&reply, Ok(r) if r == &format!("ok {}", i + 1)) {
                    rejected += 1;
                }
            }
            (rejected, server.stream(t, "serve.drain", "drain"))
        });
        let secs = start.elapsed().as_secs_f64();
        out.tally.ops(jobs as u64, rejected, || {
            format!("{rejected} enqueue(s) rejected")
        });
        let report = server.join();
        let Some(drained) = out.tally.check(drained) else {
            break;
        };
        out.tally.check(report);
        if b == 0 {
            out.rounds.push(false, "rss_peak_mb", crate::rss_peak_mb());
        }
        // The listener's accept poll (a 20 ms sleep before each enqueue
        // is taken) paces this figure, not host CPU work: it is not
        // speed-normalized.
        let settled = drained
            .lines
            .iter()
            .filter(|l| !l.contains("\"failed\":true"))
            .count();
        out.rounds.push(traced, "jobs_per_s", settled as f64 / secs);
        out.rounds.push(
            traced,
            "sim_mips",
            settled as f64 * TINY_INSTRUCTIONS as f64 / secs / 1e6,
        );
        out.rounds.push(
            traced,
            "journal_bytes_per_job",
            journal_bytes(&journal) as f64 / jobs as f64,
        );

        // Restart over the drained journal: replay, then stream results.
        for k in 0..RESTARTS {
            let sock = dir.join(format!("r{k}.sock"));
            replay_round(tracer, &mut out, traced, &journal, &sock, &drained.lines);
        }
        drained_batches.push(drained.lines);
    }
    out.notes.push(format!(
        "{batches} batch(es) of {jobs} jobs on {} worker(s)",
        ctx.nproc
    ));

    // Correctness, outside the timed region: every drained line must be
    // the line a scratch journal renders for a direct run of its spec.
    let direct = run_direct(&specs, ctx.nproc);
    let settled = (0..jobs).map(|j| (&specs[j % specs.len()], &direct[j % specs.len()]));
    let Some(reference) = out.tally.check(reference_lines(
        &ctx.work.join("reference.journal"),
        settled,
    )) else {
        return out;
    };
    for (b, drained) in drained_batches.iter().enumerate() {
        let wrong = drained
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count();
        let missing_or_extra = drained.len().abs_diff(reference.len());
        out.tally.ops(reference.len() as u64, (wrong + missing_or_extra) as u64, || {
            format!("batch {b}: {wrong} drained line(s) differ, {missing_or_extra} missing or extra")
        });
    }
    if ctx.trace {
        crate::probe::run(ctx, tracer, &mut out, None);
    }
    out
}
