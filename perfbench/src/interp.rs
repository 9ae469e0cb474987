//! `interp-long`: the five profiles, in paper order, on the default tier,
//! one thread. Set-up builds and warms one machine per profile; the
//! measured region then runs repetitions of one `measure` call per
//! profile, and sim-MIPS is the median over repetitions.

use crate::calib::host_speed;
use crate::serve::replay_round;
use crate::trace::Tracer;
use crate::{mix, Ctx, Outcome, Scale};
use upc_monitor::{codec, NullSink};
use vax780_core::{measure, MeasuredWorkload};
use vax_cpu::CpuConfig;
use vax_mem::MemConfig;
use vax_serve::{JobSpec, Journal};
use vax_workloads::{profile, try_build_machine_with_config, Machine, ProfileParams, WorkloadKind};

/// Instructions each machine runs before it is measured.
pub const WARMUP: u64 = 100_000;
/// Measured instructions per profile per repetition.
pub const CHUNK: u64 = 400_000;
const SETUP_ROUNDS: usize = 3;
const MIN_REPS: usize = 4;
/// Times each profile's result is settled in the results journal, as a
/// queue that ran the same long jobs again and again would hold them.
const RESULT_COPIES: usize = 100;
/// Server restarts over the results journal.
const SERVE_ROUNDS: usize = 16;

/// Stored digests of the first repetition, for seeds already checked
/// against the naive loop: `<seed> <profile> <digest>` per line.
const STORED_DIGESTS: &str = include_str!("../digests.txt");

/// The paper's five profiles, unchanged: the bench seed picks the
/// measured window instead (see [`warmup`]), so every seed measures the
/// same five programs and the figures do not move with the programs.
pub fn profiles() -> Vec<(WorkloadKind, ProfileParams)> {
    WorkloadKind::ALL
        .iter()
        .map(|&kind| (kind, profile(kind)))
        .collect()
}

/// Warm-up length for a bench seed: [`WARMUP`] plus up to 63k more
/// instructions, so the seed decides where in each workload the measured
/// region starts.
pub fn warmup(seed: u64) -> u64 {
    WARMUP + mix(seed, 7) % 64 * 1_000
}

/// Digest of everything a measurement reports: histogram, hardware
/// counters, instructions and cycles.
pub fn digest(m: &MeasuredWorkload) -> u64 {
    let text = codec::to_text_with_counters(&m.histogram, &m.counters.to_pairs());
    vax_serve::journal::fnv64(&format!(
        "{text}instructions {}\ncycles {}\n",
        m.instructions, m.cycles
    ))
}

fn build_warm(
    tracer: &mut Tracer,
    params: &ProfileParams,
    cpu: CpuConfig,
    warmup: u64,
) -> Result<Machine, String> {
    let mut machine = tracer
        .span("workloads.build", 0, |_| {
            try_build_machine_with_config(params, cpu, MemConfig::default())
        })
        .map_err(|e| format!("build {}: {e}", params.name))?;
    tracer
        .span("cpu.warmup", 0, |_| {
            machine.run_instructions(warmup, &mut NullSink)
        })
        .map_err(|e| format!("warm-up {}: {e}", params.name))?;
    Ok(machine)
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let profiles = profiles();
    let warmup = warmup(ctx.seed);

    // Set-up, several times; the last set of machines is measured.
    let mut machines: Vec<Machine> = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let traced = ctx.traced_round(round);
        let start = if round == 0 {
            ctx.process_start
        } else {
            std::time::Instant::now()
        };
        let built: Result<Vec<Machine>, String> = tracer.region("bench.setup", traced, |t| {
            profiles
                .iter()
                .map(|(_, p)| build_warm(t, p, CpuConfig::default(), warmup))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        // Read after, not before: the reading must stay out of the timed span.
        out.rounds
            .push_at(traced, "setup_s", secs, host_speed(), Scale::Time);
        match built {
            Ok(m) => machines = m,
            Err(e) => {
                out.tally.op(false, || e);
                return out;
            }
        }
    }

    // Measured region: interleaved repetitions over the five profiles.
    let mut first: Vec<MeasuredWorkload> = Vec::new();
    let deadline = std::time::Instant::now() + ctx.measure_for;
    let mut rep = 0usize;
    while rep < MIN_REPS || std::time::Instant::now() < deadline {
        let traced = ctx.traced_round(rep);
        // The host's speed is read between measure calls, and each call's
        // time is scaled by the mean of the readings around it.
        let mut speed = host_speed();
        let (mut secs, mut reference_secs) = (0.0, 0.0);
        let results: Vec<MeasuredWorkload> = tracer.region("bench.rep", traced, |t| {
            machines
                .iter_mut()
                .enumerate()
                .map(|(i, m)| {
                    let start = std::time::Instant::now();
                    let r = t.span("core.measure", i as u64 + 1, |_| measure(m, CHUNK));
                    let elapsed = start.elapsed().as_secs_f64();
                    let after = host_speed();
                    secs += elapsed;
                    reference_secs += elapsed * (speed + after) / 2.0;
                    speed = after;
                    r
                })
                .collect()
        });
        let speed = reference_secs / secs;
        let instructions: u64 = results.iter().map(|m| m.instructions).sum();
        out.rounds.push_at(
            traced,
            "sim_mips",
            instructions as f64 / secs / 1e6,
            speed,
            Scale::Rate,
        );
        out.rounds.push_at(
            traced,
            "jobs_per_s",
            results.len() as f64 / secs,
            speed,
            Scale::Rate,
        );
        for m in &results {
            out.tally.op(m.instructions >= CHUNK && m.cycles > 0, || {
                format!(
                    "{}: measured {} instructions in {} cycles",
                    m.name, m.instructions, m.cycles
                )
            });
        }
        if rep == 0 {
            first = results;
        }
        rep += 1;
    }
    out.rounds.push(false, "rss_peak_mb", crate::rss_peak_mb());
    out.notes.push(format!(
        "repetitions {rep} of {} x {CHUNK} instructions",
        profiles.len()
    ));

    // Correctness, outside the timed region: the first repetition's
    // digests against the stored ones for this seed, or a naive-loop run.
    for ((kind, params), m) in profiles.iter().zip(&first) {
        let got = digest(m);
        let stored = STORED_DIGESTS.lines().find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next()? == ctx.seed.to_string() && f.next()? == kind.name())
                .then(|| u64::from_str_radix(f.next()?, 16).ok())
                .flatten()
        });
        let (want, source) = match stored {
            Some(d) => (Ok(d), "stored"),
            None => {
                let mut naive = Tracer::new();
                let reference = build_warm(&mut naive, params, CpuConfig::naive_loop(), warmup)
                    .map(|mut machine| digest(&measure(&mut machine, CHUNK)));
                (reference, "naive")
            }
        };
        out.notes.push(format!(
            "digest {} {} {got:016x} ({source})",
            ctx.seed,
            kind.name()
        ));
        match want {
            Ok(want) => out.tally.op(got == want, || {
                format!("{}: digest {got:016x} != {source} {want:016x}", kind.name())
            }),
            Err(e) => out.tally.op(false, || e),
        }
    }

    // The measurements as a queue would keep them: settle each profile's
    // first repetition (an `Experiment::run` of the spec below) into a
    // journal, then restart a server over it and stream the results.
    let path = ctx.work.join("results.journal");
    let journal = settle_results(&path, &profiles, warmup, &first);
    let Some(reference) = out.tally.check(journal) else {
        return out;
    };
    // Written once, untraced: the size does not depend on tracing.
    let bytes_per_job =
        crate::serve::journal_bytes(&path) as f64 / (RESULT_COPIES * first.len()) as f64;
    out.rounds
        .push(false, "journal_bytes_per_job", bytes_per_job);
    if ctx.trace {
        out.rounds
            .push(true, "journal_bytes_per_job", bytes_per_job);
    }
    for round in 0..SERVE_ROUNDS {
        let sock = ctx.work.join(format!("r{round}.sock"));
        replay_round(
            tracer,
            &mut out,
            ctx.traced_round(round),
            &path,
            &sock,
            &reference,
        );
    }
    if ctx.trace {
        crate::probe::run(ctx, tracer, &mut out, None);
    }
    out
}

/// Write the first repetition's results as settled jobs; returns the
/// result lines `Journal::stream_results` renders for them.
fn settle_results(
    path: &std::path::Path,
    profiles: &[(WorkloadKind, ProfileParams)],
    warmup: u64,
    results: &[MeasuredWorkload],
) -> Result<Vec<String>, String> {
    let mut journal = Journal::open(path).map_err(|e| e.to_string())?;
    for _ in 0..RESULT_COPIES {
        for ((kind, params), m) in profiles.iter().zip(results) {
            let mut spec = JobSpec::new(*kind);
            spec.instructions = CHUNK;
            spec.warmup = warmup;
            spec.seed = Some(params.seed);
            let id = journal.append_enqueue(&spec).map_err(|e| e.to_string())?;
            journal.append_start(id, 1).map_err(|e| e.to_string())?;
            journal.append_complete(id, m).map_err(|e| e.to_string())?;
        }
    }
    let mut text = Vec::new();
    journal
        .stream_results(&mut text)
        .map_err(|e| e.to_string())?;
    Ok(String::from_utf8_lossy(&text)
        .lines()
        .map(str::to_string)
        .collect())
}
