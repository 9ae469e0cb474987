//! The layer probe of a traced run: each layer's public calls timed in
//! isolation on inputs derived from the bench seed, one span per call
//! (or per tight loop of calls, where one call is too short to time).
//!
//! Where the workload itself exercises a layer, its data is used:
//! `campaign-tiny`'s own enqueue spans give the enqueue round trip, and
//! `queue-history`'s journal is the one opened, streamed and compacted.

use crate::campaign::{TINY_INSTRUCTIONS, TINY_WARMUP};
use crate::interp::{digest, profiles, warmup};
use crate::serve::{snap_path, Server};
use crate::trace::Tracer;
use crate::{median, percentile, Ctx, Outcome};
use std::hint::black_box;
use std::path::Path;
use upc_monitor::{codec, NullSink};
use vax780_core::{measure, MeasuredWorkload};
use vax_arch::sdecode::decode_range;
use vax_cpu::{Cpu, CpuConfig};
use vax_mem::{MemConfig, MemorySubsystem, Stream, Width, PAGE_BYTES};
use vax_serve::{JobSpec, Journal};
use vax_workloads::{plan_processes, try_build_machine_with_config, Machine};

/// Seeds per profile for the build / tiny-job samples.
const BUILD_SEEDS: u64 = 3;
/// Instructions per interleaved NullSink / board run.
const RUN_INSTRUCTIONS: u64 = 200_000;
const RUN_REPEATS: usize = 5;
const DECODE_REPEATS: usize = 20;
const CODEC_REPEATS: usize = 10;
const PARSE_REPEATS: usize = 50;
const MEM_OPS: usize = 1 << 18;
const PROBE_ENQUEUES: usize = 100;
const APPEND_JOBS: usize = 300;
const JOURNAL_REPEATS: usize = 3;

pub fn run(ctx: &Ctx, workload: &Tracer, out: &mut Outcome, history: Option<&Path>) {
    let mut t = Tracer::new();
    t.region("probe", true, |t| probe(ctx, t, workload, out, history));
    let path =
        Path::new(".bench_work").join(format!("probe-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    if let Err(e) = t.write_jsonl(&path) {
        out.notes.push(format!("probe spans not written: {e}"));
    }
}

fn probe(ctx: &Ctx, t: &mut Tracer, workload: &Tracer, out: &mut Outcome, history: Option<&Path>) {
    let profiles = profiles();

    // vax-workloads, vax-cpu, vax-mem construction, and one tiny job
    // replayed from `Experiment::run`'s public pieces.
    let mut tiny: Vec<MeasuredWorkload> = Vec::new();
    let mut build_share = Vec::new();
    for s in 0..BUILD_SEEDS {
        for (i, (kind, base)) in profiles.iter().enumerate() {
            let mut params = base.clone();
            params.seed = crate::mix(ctx.seed, 300 + s * 8 + i as u64) >> 16;
            let mem_config = MemConfig::default();
            let planned = t.span("workloads.codegen", 0, |_| plan_processes(&params));
            out.tally
                .op(planned.is_ok(), || format!("codegen {}", kind.name()));
            let mem = t.span("mem.new", 0, |_| MemorySubsystem::new(mem_config));
            black_box(t.span("cpu.new", 0, |_| Cpu::new(mem, CpuConfig::default(), 0)));

            let job = (s * 8 + i as u64) + 1;
            let mut spec = JobSpec::new(*kind);
            spec.instructions = TINY_INSTRUCTIONS;
            spec.warmup = TINY_WARMUP;
            spec.seed = Some(params.seed);
            let replayed = t.span("core.job", job, |t| -> Result<MeasuredWorkload, String> {
                let mut m = t
                    .span("workloads.build", job, |_| {
                        try_build_machine_with_config(&params, spec.cpu_config(), spec.mem_config())
                    })
                    .map_err(|e| e.to_string())?;
                t.span("core.warmup", job, |_| {
                    m.run_instructions(spec.warmup, &mut NullSink)
                })
                .map_err(|e| e.to_string())?;
                Ok(t.span("core.measure", job, |_| measure(&mut m, spec.instructions)))
            });
            let real = t.span("core.experiment", job, |_| spec.experiment().run());
            match replayed {
                Ok(m) => {
                    out.tally.op(digest(&m) == digest(&real), || {
                        format!(
                            "{}: replayed tiny job differs from Experiment::run",
                            kind.name()
                        )
                    });
                    tiny.push(m);
                }
                Err(e) => out.tally.op(false, || e),
            }
        }
    }
    for (job, build) in t
        .durations_ms("core.job")
        .iter()
        .zip(t.durations_ms("workloads.build"))
    {
        build_share.push(build / job);
    }
    let builds = t.durations_ms("workloads.build");
    let jobs = t.durations_ms("core.job");
    out.layer("workloads.build_ms_p50", percentile(&builds, 0.5), "ms");
    out.layer("workloads.build_ms_p99", percentile(&builds, 0.99), "ms");
    out.layer(
        "workloads.codegen_ms",
        median(&t.durations_ms("workloads.codegen")),
        "ms",
    );
    out.layer("workloads.build_share", median(&build_share), "share");
    out.layer("cpu.new_ms", median(&t.durations_ms("cpu.new")), "ms");
    out.layer("mem.new_ms", median(&t.durations_ms("mem.new")), "ms");
    out.layer("core.job_ms_p50", percentile(&jobs, 0.5), "ms");
    out.layer("core.job_ms_p99", percentile(&jobs, 0.99), "ms");
    out.layer(
        "core.warmup_ms",
        median(&t.durations_ms("core.warmup")),
        "ms",
    );
    out.layer(
        "core.measure_ms",
        median(&t.durations_ms("core.measure")),
        "ms",
    );
    out.notes.push(format!(
        "probe samples: {} builds, {} tiny jobs",
        builds.len(),
        jobs.len()
    ));

    // The interpreter with a NullSink against `measure` with the µPC board,
    // interleaved, on twin machines that retire the same instructions.
    let mut run_ns = Vec::new();
    let mut board_ns = Vec::new();
    let mut measured: Vec<MeasuredWorkload> = Vec::new();
    let mut predecode = (0u64, 0u64);
    let mut replayed = (0u64, 0u64);
    let mut last: Option<Machine> = None;
    for (kind, params) in &profiles {
        let twins: Result<Vec<Machine>, String> = (0..2)
            .map(|_| {
                let mut m = t
                    .span("workloads.build", 0, |_| {
                        try_build_machine_with_config(
                            params,
                            CpuConfig::default(),
                            MemConfig::default(),
                        )
                    })
                    .map_err(|e| format!("build {}: {e}", kind.name()))?;
                t.span("cpu.warmup", 0, |_| {
                    m.run_instructions(warmup(ctx.seed), &mut NullSink)
                })
                .map_err(|e| format!("warm-up {}: {e}", kind.name()))?;
                Ok(m)
            })
            .collect();
        let Some(mut twins) = out.tally.check(twins) else {
            continue;
        };
        let mut board = twins.pop().expect("two machines");
        let mut null = twins.pop().expect("two machines");
        for _ in 0..RUN_REPEATS {
            let start = std::time::Instant::now();
            let ran = t.span("cpu.run", 0, |_| {
                null.run_instructions(RUN_INSTRUCTIONS, &mut NullSink)
            });
            run_ns.push(start.elapsed().as_nanos() as f64 / RUN_INSTRUCTIONS as f64);
            out.tally.op(ran.is_ok(), || {
                format!("{}: NullSink run failed", kind.name())
            });
            let start = std::time::Instant::now();
            let m = t.span("core.measure", 0, |_| measure(&mut board, RUN_INSTRUCTIONS));
            board_ns.push(start.elapsed().as_nanos() as f64 / m.instructions.max(1) as f64);
            measured.push(m);
        }
        let p = null.cpu.predecode_stats();
        predecode = (predecode.0 + p.hits, predecode.1 + p.hits + p.misses);
        replayed = (
            replayed.0 + null.cpu.block_stats().replayed,
            replayed.1 + null.cpu.instructions(),
        );
        last = Some(null);
    }
    let board_cost: Vec<f64> = board_ns.iter().zip(&run_ns).map(|(b, r)| b - r).collect();
    out.layer("cpu.ns_per_insn", median(&run_ns), "ns");
    out.layer("monitor.ns_per_insn", median(&board_cost), "ns");
    out.layer(
        "cpu.predecode_hit_rate",
        predecode.0 as f64 / predecode.1.max(1) as f64,
        "share",
    );
    out.layer(
        "cpu.block_replayed_share",
        replayed.0 as f64 / replayed.1.max(1) as f64,
        "share",
    );
    let cycles: u64 = measured.iter().map(|m| m.cycles).sum();
    let insns: u64 = measured.iter().map(|m| m.instructions).sum();
    out.layer("cpu.sim_cpi", cycles as f64 / insns.max(1) as f64, "cycles");
    let (mut reads, mut misses, mut tb_refs, mut tb_misses) = (0u64, 0u64, 0u64, 0u64);
    for m in &measured {
        let c = &m.counters;
        reads += c.cache_hit_i + c.cache_hit_d + c.cache_read_misses();
        misses += c.cache_read_misses();
        tb_refs += c.tb_hits + c.tb_misses();
        tb_misses += c.tb_misses();
    }
    out.layer(
        "mem.cache_miss_rate",
        misses as f64 / reads.max(1) as f64,
        "share",
    );
    out.layer(
        "mem.tb_miss_rate",
        tb_misses as f64 / tb_refs.max(1) as f64,
        "share",
    );

    // vax-mem reads and translations on a built machine's memory.
    if let Some(mut m) = last {
        probe_mem(t, m.cpu.mem_mut(), out);
    }

    // vax-arch: static decode of every generated process image.
    let mut decoded = 0u64;
    for (_, params) in &profiles {
        let Ok(plans) = plan_processes(params) else {
            out.tally.op(false, || format!("codegen {}", params.name));
            continue;
        };
        for _ in 0..DECODE_REPEATS {
            for plan in &plans {
                let bytes = &plan.image.bytes;
                let n = t.span("arch.decode", 0, |_| {
                    match decode_range(bytes, 0, bytes.len()) {
                        Ok(v) => v.len(),
                        Err((v, _, _)) => v.len(),
                    }
                });
                decoded += n as u64;
            }
        }
    }
    out.layer(
        "arch.decode_ns_per_insn",
        t.total_ms("arch.decode") * 1e6 / decoded.max(1) as f64,
        "ns",
    );

    // upc-monitor codec round trips of real measurements.
    for m in measured.iter().chain(&tiny) {
        let pairs = m.counters.to_pairs();
        for _ in 0..CODEC_REPEATS {
            let text = t.span("monitor.codec_encode", 0, |_| {
                codec::to_text_with_counters(&m.histogram, &pairs)
            });
            let back = t.span("monitor.codec_decode", 0, |_| {
                codec::from_text_with_counters(&text)
            });
            let ok = matches!(&back, Ok((h, c)) if h == &m.histogram
                && c.iter().map(|(k, v)| (k.as_str(), *v)).eq(pairs.iter().copied()));
            out.tally
                .op(ok, || format!("{}: codec round trip differs", m.name));
        }
    }
    out.layer(
        "monitor.codec_encode_us",
        median(&t.durations_ms("monitor.codec_encode")) * 1e3,
        "us",
    );
    out.layer(
        "monitor.codec_decode_us",
        median(&t.durations_ms("monitor.codec_decode")) * 1e3,
        "us",
    );

    // vax-serve: spec parsing, and the enqueue round trip.
    let specs = crate::campaign::batch(ctx.seed);
    let lines: Vec<String> = specs.iter().map(JobSpec::render).collect();
    for _ in 0..PARSE_REPEATS {
        let parsed = t.span("serve.spec_parse", 0, |_| {
            lines
                .iter()
                .map(|l| JobSpec::parse(l).and_then(|s| s.validate().map(|()| s)))
                .collect::<Vec<_>>()
        });
        let bad = parsed
            .iter()
            .zip(&specs)
            .filter(|(p, s)| p.as_ref() != Ok(*s))
            .count();
        out.tally.ops(specs.len() as u64, bad as u64, || {
            format!("{bad} spec(s) did not parse back")
        });
    }
    out.layer(
        "serve.spec_parse_us",
        t.total_ms("serve.spec_parse") * 1e3 / (PARSE_REPEATS * lines.len()) as f64,
        "us",
    );
    let mut rtt = workload.durations_ms("serve.enqueue");
    if rtt.is_empty() {
        rtt = probe_enqueue(ctx, t, &lines, out);
    }
    out.layer("serve.enqueue_rtt_ms_p50", percentile(&rtt, 0.5), "ms");
    out.layer("serve.enqueue_rtt_ms_p99", percentile(&rtt, 0.99), "ms");
    out.notes
        .push(format!("probe samples: {} enqueue round trips", rtt.len()));

    // vax-serve journal: appends on a scratch journal beside the
    // workload's, then open / stream / compact.
    let scratch = ctx.work.join("probe.journal");
    let appended = (|| -> Result<(), String> {
        if tiny.is_empty() {
            return Err("no tiny-job results to append".to_string());
        }
        let mut journal = Journal::open(&scratch).map_err(|e| e.to_string())?;
        for i in 0..APPEND_JOBS {
            let m = &tiny[i % tiny.len()];
            let spec = &specs[i % specs.len()];
            let id = t
                .span("journal.append_enqueue", 0, |_| {
                    journal.append_enqueue(spec)
                })
                .map_err(|e| e.to_string())?;
            t.span("journal.append_start", id, |_| journal.append_start(id, 1))
                .map_err(|e| e.to_string())?;
            t.span("journal.append_complete", id, |_| {
                journal.append_complete(id, m)
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    })();
    out.tally.check(appended);
    for kind in ["enqueue", "start", "complete"] {
        let name = format!("journal.append_{kind}");
        let d = t.durations_ms(&name);
        out.layer(format!("{name}_us_p50"), percentile(&d, 0.5) * 1e3, "us");
        out.layer(format!("{name}_us_p99"), percentile(&d, 0.99) * 1e3, "us");
    }
    let target = history.map_or(scratch, Path::to_path_buf);
    probe_journal(ctx, t, &target, out);
}

/// Reads on hit-heavy and miss-heavy physical streams, and translations
/// (with TB fills on a miss) over the system pages.
fn probe_mem(t: &mut Tracer, mem: &mut MemorySubsystem, out: &mut Outcome) {
    let phys = mem.config().phys_bytes;
    let mut now = 1u64 << 40;
    let mut miss_count = [0u64; 2];
    // Hit-heavy: a 2 KiB window, well inside the 8 KiB cache.
    // Miss-heavy: a stride that walks the whole of physical memory.
    for (k, (name, stride, window)) in [
        ("mem.read_hit", 4u32, 2048u32),
        ("mem.read_miss", 4100u32, phys),
    ]
    .into_iter()
    .enumerate()
    {
        let mut pa = 0u32;
        t.span(name, 0, |_| {
            for _ in 0..MEM_OPS {
                let r = mem.read(pa, Width::Long, now);
                miss_count[k] += u64::from(r.miss);
                now += u64::from(r.stall) + 1;
                pa = ((pa + stride) % window) & !3;
            }
        });
    }
    out.layer(
        "mem.read_hit_ns",
        t.total_ms("mem.read_hit") * 1e6 / MEM_OPS as f64,
        "ns",
    );
    out.layer(
        "mem.read_miss_ns",
        t.total_ms("mem.read_miss") * 1e6 / MEM_OPS as f64,
        "ns",
    );
    out.notes.push(format!(
        "probe mem streams: hit stream {:.4} miss share, miss stream {:.4} miss share",
        miss_count[0] as f64 / MEM_OPS as f64,
        miss_count[1] as f64 / MEM_OPS as f64
    ));

    // Translation: a hot set of 4 pages (TB hits; alternating pages so
    // the one-entry shortcut does not apply), then a cycle over every
    // mapped page of the current process and the system (TB misses and
    // fills), half the operations each.
    let pages: Vec<u32> = [0, vax_mem::P1_BASE, vax_mem::S0_BASE]
        .into_iter()
        .flat_map(|base| (0..4096u32).map(move |k| base + k * PAGE_BYTES))
        .filter(|&va| mem.probe_va(va))
        .collect();
    if pages.len() < 4 {
        out.tally
            .op(false, || "too few mapped pages to translate".into());
        return;
    }
    let mut fills = 0u64;
    let mut faults = 0u64;
    t.span("mem.translate", 0, |_| {
        for i in 0..MEM_OPS {
            let va = if i < MEM_OPS / 2 {
                pages[i % 4]
            } else {
                pages[i % pages.len()]
            } + 4;
            if mem.translate(va, Stream::Data).is_err() {
                fills += 1;
                match mem.tb_fill(va, now) {
                    Ok(f) => now += u64::from(f.total_stall()) + 1,
                    Err(_) => faults += 1,
                }
            }
        }
    });
    out.tally.op(faults == 0, || {
        format!("{faults} TB fill(s) faulted on mapped pages")
    });
    out.layer(
        "mem.translate_ns",
        t.total_ms("mem.translate") * 1e6 / MEM_OPS as f64,
        "ns",
    );
    out.notes.push(format!(
        "probe translate: {} pages, {:.4} fill share",
        pages.len(),
        fills as f64 / MEM_OPS as f64
    ));
}

/// Enqueue round trips against a one-worker probe server (workloads that
/// do not enqueue over the wire themselves).
fn probe_enqueue(ctx: &Ctx, t: &mut Tracer, lines: &[String], out: &mut Outcome) -> Vec<f64> {
    let dir = ctx.work.join("probe-serve");
    let _ = std::fs::create_dir_all(&dir);
    let served = (|| -> Result<(), String> {
        let server = Server::start(
            t,
            &dir.join("queue.journal"),
            &dir.join("s.sock"),
            1,
            PROBE_ENQUEUES + 1,
        )?;
        let mut rejected = 0u64;
        for i in 0..PROBE_ENQUEUES {
            let request = format!("enqueue {}", lines[i % lines.len()]);
            let reply = t.span("serve.enqueue", i as u64 + 1, |_| {
                server.client.request_line(&request)
            });
            rejected += u64::from(!matches!(&reply, Ok(r) if r.starts_with("ok ")));
        }
        out.tally.ops(PROBE_ENQUEUES as u64, rejected, || {
            format!("{rejected} probe enqueue(s) rejected")
        });
        server.shutdown(t).map(|_| ())
    })();
    out.tally.check(served);
    t.durations_ms("serve.enqueue")
}

/// Open, stream and compact copies of the journal at `path`.
fn probe_journal(ctx: &Ctx, t: &mut Tracer, path: &Path, out: &mut Outcome) {
    let dir = ctx.work.join("probe-journal");
    let _ = std::fs::create_dir_all(&dir);
    let mut lines_per_s = Vec::new();
    let result = (|| -> Result<(), String> {
        for k in 0..JOURNAL_REPEATS {
            let copy = dir.join(format!("j{k}.journal"));
            std::fs::copy(path, &copy).map_err(|e| e.to_string())?;
            if snap_path(path).exists() {
                std::fs::copy(snap_path(path), snap_path(&copy)).map_err(|e| e.to_string())?;
            }
            let mut journal = t
                .span("journal.open", 0, |_| Journal::open(&copy))
                .map_err(|e| e.to_string())?;
            let start = std::time::Instant::now();
            let lines = t
                .span("journal.stream", 0, |_| {
                    journal.stream_results(&mut std::io::sink())
                })
                .map_err(|e| e.to_string())?;
            lines_per_s.push(lines as f64 / start.elapsed().as_secs_f64());
            t.span("journal.compact", 0, |_| journal.compact())
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })();
    out.tally.check(result);
    out.layer(
        "journal.open_s",
        median(&t.durations_ms("journal.open")) / 1e3,
        "s",
    );
    out.layer("journal.stream_lines_per_s", median(&lines_per_s), "1/s");
    out.layer(
        "journal.compact_s",
        median(&t.durations_ms("journal.compact")) / 1e3,
        "s",
    );
}
