//! Reproducible benchmark harness for the simulator itself.
//!
//! The paper instruments a real machine; we instrument the *simulator*:
//! each of the five workloads is run under identical machine
//! configurations on both interpreter [`Tier`]s — the naive byte-by-byte
//! reference loop and the fast tier (predecode cache, sink batching,
//! host shortcuts, and the continuation run loop) — and the harness
//! reports per-workload sim-MIPS (millions of simulated instructions per
//! host second), wall time, and the fast tier's speedup.
//!
//! Speed without fidelity is worthless, so the harness also *proves*
//! the tiers are the same machine:
//!
//! * the timing runs must produce **bit-identical** µPC histograms and
//!   hardware counters (and the same simulated cycle count) on both
//!   tiers;
//! * per-tier smaller traced runs — the µPC board and the event tracer
//!   tee'd off one [`upc_monitor::CycleSink`] feed — must produce
//!   **bit-identical** event streams, and each run must pass the
//!   three-way trace/histogram/counter reconciliation on its own;
//! * the fast tier must actually engage (predecode hits, and
//!   instructions the run loop retired without a step prologue), so the
//!   equality can never be vacuous.
//!
//! Any discrepancy is recorded as a divergence and fails the bench
//! (`vax780 bench` exits nonzero), making this a trajectory gate: the
//! fast tier is only allowed to be fast, never different.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use upc_monitor::{Command, Histogram, HistogramBoard, NullSink};
use vax780_core::{measure, MeasuredWorkload};
use vax_cpu::{CpuConfig, Tier};
use vax_mem::{HwCounters, MemConfig};
use vax_trace::Tracer;
use vax_workloads::{build_machine_with_config, profile, WorkloadKind};

/// What to run. The defaults are the pinned CI configuration — change
/// them only through the CLI flags, so `BENCH_*.json` files stay
/// comparable across commits.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// Instructions measured per workload in each timing run.
    pub timing_instructions: u64,
    /// Instructions per workload in each traced equivalence run
    /// (smaller: the tracer records every machine event).
    pub trace_instructions: u64,
    /// Warm-up instructions before each measured region.
    pub warmup: u64,
    /// Timing repetitions per tier; the *minimum* wall time is reported.
    /// The minimum, not the mean: simulated work is deterministic, so
    /// the fastest repetition is the one least disturbed by host noise.
    pub repeat: u32,
}

impl Default for BenchSpec {
    fn default() -> BenchSpec {
        BenchSpec {
            timing_instructions: 2_000_000,
            trace_instructions: 20_000,
            warmup: 30_000,
            repeat: 3,
        }
    }
}

/// The CPU configuration `tier` benchmarks: the 11/780 defaults with
/// only the host engine swapped.
fn config(tier: Tier) -> CpuConfig {
    CpuConfig {
        tier,
        ..CpuConfig::default()
    }
}

/// One workload's timing result.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Workload name.
    pub name: &'static str,
    /// Instructions measured (identical on both tiers by construction).
    pub instructions: u64,
    /// Simulated cycles of the measured region.
    pub cycles: u64,
    /// Instructions the fast tier's run loop retired without a step
    /// prologue ([`vax_cpu::BlockStats::replayed`]), cumulative over
    /// warm-up plus the measured region.
    pub replayed: u64,
    /// Instructions the fast-tier machine executed while `replayed`
    /// grew.
    pub executed: u64,
    walls: [Duration; 2],
}

impl WorkloadBench {
    /// Host wall time of `tier`'s measured region.
    pub fn wall(&self, tier: Tier) -> Duration {
        self.walls[tier as usize]
    }

    /// Wall-time ratio naive / fast: how much faster the fast tier is.
    pub fn speedup(&self) -> f64 {
        ratio(self.wall(Tier::Naive), self.wall(Tier::Fast))
    }

    /// Fraction of executed instructions retired without a step
    /// prologue.
    pub fn replayed_share(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.replayed as f64 / self.executed as f64
        }
    }
}

/// The full benchmark outcome.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The spec that produced this report.
    pub spec: BenchSpec,
    /// Per-workload timing, in [`WorkloadKind::ALL`] order.
    pub workloads: Vec<WorkloadBench>,
    /// Human-readable descriptions of every equivalence violation.
    /// Empty means the fast tier is bit-identical to the naive loop
    /// (and actually engaged its machinery).
    pub divergences: Vec<String>,
}

impl BenchReport {
    /// Did every equivalence check pass?
    pub fn is_equivalent(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Total instructions across all timed workloads.
    pub fn total_instructions(&self) -> u64 {
        self.workloads.iter().map(|w| w.instructions).sum()
    }

    /// Summed wall time of `tier`.
    pub fn wall(&self, tier: Tier) -> Duration {
        self.workloads.iter().map(|w| w.wall(tier)).sum()
    }

    /// Composite wall-time ratio naive / fast.
    pub fn speedup(&self) -> f64 {
        ratio(self.wall(Tier::Naive), self.wall(Tier::Fast))
    }

    /// The report as a JSON document (the `BENCH_*.json` schema: see
    /// DESIGN.md "Host performance").
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"host\": {},\n",
            vax_trace::HostStamp::collect().to_json()
        ));
        s.push_str(&format!(
            "  \"spec\": {{\"timing_instructions\": {}, \"trace_instructions\": {}, \
             \"warmup\": {}, \"repeat\": {}, \"tiers\": [\"naive\", \"fast\"]}},\n",
            self.spec.timing_instructions,
            self.spec.trace_instructions,
            self.spec.warmup,
            self.spec.repeat,
        ));
        s.push_str(&format!("  \"equivalent\": {},\n", self.is_equivalent()));
        s.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"instructions\": {}, \"cycles\": {}{}, \
                 \"fast_speedup\": {:.3}, \"replayed\": {}, \"replayed_share\": {:.4}}}{}\n",
                w.name,
                w.instructions,
                w.cycles,
                timing_json(w.instructions, w.walls),
                w.speedup(),
                w.replayed,
                w.replayed_share(),
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"composite\": {{\"instructions\": {}{}, \"fast_speedup\": {:.3}}},\n",
            self.total_instructions(),
            timing_json(self.total_instructions(), Tier::ALL.map(|t| self.wall(t))),
            self.speedup()
        ));
        let divergences: Vec<String> = self
            .divergences
            .iter()
            .map(|d| format!("\"{}\"", d.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        s.push_str(&format!(
            "  \"divergences\": [{}]\n}}\n",
            divergences.join(", ")
        ));
        s
    }

    /// A fixed-width table for terminal output.
    pub fn render_table(&self) -> String {
        let mut s = format!(
            "{:<20} {:>12} {:>9} {:>10} {:>9} {:>10} {:>8}\n",
            "workload", "instructions", "naive s", "naive MIPS", "fast s", "fast MIPS", "speedup"
        );
        let mut row = |name: &str, instructions: u64, walls: [Duration; 2], speedup: f64| {
            s.push_str(&format!("{name:<20} {instructions:>12}"));
            for wall in walls {
                s.push_str(&format!(
                    " {:>9.3} {:>10.2}",
                    wall.as_secs_f64(),
                    mips(instructions, wall)
                ));
            }
            s.push_str(&format!(" {speedup:>7.2}x\n"));
        };
        for w in &self.workloads {
            row(w.name, w.instructions, w.walls, w.speedup());
        }
        row(
            "composite",
            self.total_instructions(),
            Tier::ALL.map(|t| self.wall(t)),
            self.speedup(),
        );
        s
    }
}

fn mips(instructions: u64, wall: Duration) -> f64 {
    instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6
}

/// The per-tier `, "<tier>_wall_s": …, "<tier>_mips": …` JSON fields.
fn timing_json(instructions: u64, walls: [Duration; 2]) -> String {
    Tier::ALL
        .iter()
        .zip(walls)
        .map(|(t, wall)| {
            format!(
                ", \"{0}_wall_s\": {1:.4}, \"{0}_mips\": {2:.3}",
                t.name(),
                wall.as_secs_f64(),
                mips(instructions, wall)
            )
        })
        .collect()
}

fn ratio(base: Duration, over: Duration) -> f64 {
    base.as_secs_f64() / over.as_secs_f64().max(1e-9)
}

/// One timed measurement: build, warm up (untimed), measure (timed).
/// Returns the measurement plus the wall time of the measured region
/// only, so machine construction and warm-up don't pollute sim-MIPS.
fn timed_run(
    kind: WorkloadKind,
    tier: Tier,
    spec: &BenchSpec,
) -> (
    MeasuredWorkload,
    Duration,
    vax_cpu::PredecodeStats,
    vax_cpu::BlockStats,
) {
    let mut machine = build_machine_with_config(&profile(kind), config(tier), MemConfig::default());
    let mut null = NullSink;
    machine
        .run_instructions(spec.warmup, &mut null)
        .expect("warmup runs");
    let start = Instant::now();
    let measured = measure(&mut machine, spec.timing_instructions);
    let wall = start.elapsed();
    let predecode = machine.cpu.predecode_stats();
    let blocks = machine.cpu.block_stats();
    (measured, wall, predecode, blocks)
}

/// Everything a traced equivalence run observes.
struct TracedRun {
    tracer: Tracer,
    histogram: Histogram,
    hw: HwCounters,
    reconciles: bool,
}

/// Run `kind` with both instruments attached from boot (the µPC board
/// and the event tracer tee'd off one sink feed), as `vax780 trace`
/// does, and reconcile the instruments.
fn traced_run(kind: WorkloadKind, tier: Tier, spec: &BenchSpec) -> TracedRun {
    // Capacity for every event: equivalence on a ring that dropped
    // events would still hold (both runs drop identically) but a full
    // stream makes the check maximally strict.
    let capacity = (spec.trace_instructions as usize)
        .saturating_mul(96)
        .clamp(1 << 16, 1 << 23);
    let mut machine = build_machine_with_config(&profile(kind), config(tier), MemConfig::default());
    let hw_base = *machine.cpu.mem().counters();
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let mut tracer = Tracer::with_capacity(capacity);
    {
        let mut tee = (&mut board, &mut tracer);
        machine
            .run_phase("warmup", spec.warmup.min(5_000), &mut tee)
            .expect("workload runs");
        machine
            .run_phase("measure", spec.trace_instructions, &mut tee)
            .expect("workload runs");
    }
    board.execute(Command::Stop);
    let histogram = board.snapshot();
    let hw = machine.cpu.mem().counters().delta_since(&hw_base);
    let reconciles = vax_analysis::reconcile::reconcile(
        &tracer,
        &histogram,
        &hw,
        machine.cpu.pending_ib_tb_miss(),
    )
    .is_ok();
    TracedRun {
        tracer,
        histogram,
        hw,
        reconciles,
    }
}

/// Compare the fast tier's traced run against the naive one
/// event-for-event and record every difference into `divergences`.
fn check_traces(name: &str, reference: &TracedRun, run: &TracedRun, divergences: &mut Vec<String>) {
    if !run.reconciles {
        divergences.push(format!("{name}: fast tier fails instrument reconciliation"));
    }
    if reference.histogram != run.histogram {
        divergences.push(format!("{name}: fast traced histograms differ"));
    }
    if reference.hw != run.hw {
        divergences.push(format!("{name}: fast traced hardware counters differ"));
    }
    if reference.tracer.counters() != run.tracer.counters() {
        divergences.push(format!("{name}: fast trace counters differ"));
    }
    if reference.tracer.now() != run.tracer.now() {
        divergences.push(format!(
            "{name}: fast derived trace clocks differ ({} vs {})",
            reference.tracer.now(),
            run.tracer.now()
        ));
    }
    if reference.tracer.dropped() != run.tracer.dropped()
        || reference.tracer.len() != run.tracer.len()
        || !reference.tracer.events().eq(run.tracer.events())
    {
        divergences.push(format!("{name}: fast trace event streams differ"));
    }
}

/// Run the full benchmark: per-workload timing of both tiers with
/// bit-identity checks of the fast tier against the naive loop, plus
/// traced-run stream equivalence and three-way reconciliation per tier.
pub fn run_bench(spec: &BenchSpec) -> BenchReport {
    run_bench_with_progress(spec, |_| {})
}

/// [`run_bench`] with a progress callback (one line per completed
/// stage, for interactive use).
pub fn run_bench_with_progress(spec: &BenchSpec, progress: impl Fn(&str)) -> BenchReport {
    let mut workloads = Vec::new();
    let mut divergences = Vec::new();
    for kind in WorkloadKind::ALL {
        let name = kind.name();
        // Interleave the repetitions (naive, fast, naive, …) so a burst
        // of host load penalizes both tiers alike, and keep each tier's
        // best time.
        let mut best: [Option<(MeasuredWorkload, Duration)>; 2] = [None, None];
        let (mut replayed, mut executed) = (0, 0);
        for rep in 0..spec.repeat.max(1) {
            for tier in Tier::ALL {
                let (m, w, predecode, blocks) = timed_run(kind, tier, spec);
                if rep == 0 {
                    // Engagement: the measured equality below is only
                    // meaningful if the fast tier actually ran its
                    // machinery. Deterministic simulation: every
                    // repetition sees identical counters, so the first
                    // one suffices.
                    if tier == Tier::Fast {
                        if predecode.hits == 0 {
                            divergences
                                .push(format!("{name}: fast tier never hit the predecode cache"));
                        }
                        if blocks.replayed == 0 {
                            divergences.push(format!(
                                "{name}: fast run loop never continued past one instruction"
                            ));
                        }
                        replayed = blocks.replayed;
                        executed = spec.warmup + m.instructions;
                    }
                    progress(&format!(
                        "{name}: {} run, {:.2}s (predecode {} hits, {} replayed)",
                        tier.name(),
                        w.as_secs_f64(),
                        predecode.hits,
                        blocks.replayed
                    ));
                }
                let slot = &mut best[tier as usize];
                if slot.as_ref().is_none_or(|(_, old)| w < *old) {
                    *slot = Some((m, w));
                }
            }
        }
        let [Some((naive, naive_wall)), Some((fast, fast_wall))] = best else {
            unreachable!("both tiers were timed at least once");
        };
        if naive.histogram != fast.histogram {
            divergences.push(format!("{name}: fast timed histograms differ"));
        }
        if naive.counters != fast.counters {
            divergences.push(format!("{name}: fast timed hardware counters differ"));
        }
        if naive.cycles != fast.cycles || naive.instructions != fast.instructions {
            divergences.push(format!(
                "{name}: fast simulated progress differs ({} insns/{} cycles vs {} insns/{} cycles)",
                naive.instructions, naive.cycles, fast.instructions, fast.cycles
            ));
        }
        let naive_traced = traced_run(kind, Tier::Naive, spec);
        if !naive_traced.reconciles {
            divergences.push(format!(
                "{name}: naive tier fails instrument reconciliation"
            ));
        }
        let fast_traced = traced_run(kind, Tier::Fast, spec);
        check_traces(name, &naive_traced, &fast_traced, &mut divergences);
        progress(&format!("{name}: traces compared"));
        workloads.push(WorkloadBench {
            name,
            instructions: naive.instructions,
            cycles: naive.cycles,
            replayed,
            executed,
            walls: [naive_wall, fast_wall],
        });
    }
    BenchReport {
        spec: *spec,
        workloads,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature bench must come back equivalent — this is the same
    /// machinery the CI gate runs at full size.
    #[test]
    fn mini_bench_is_equivalent() {
        let spec = BenchSpec {
            timing_instructions: 3_000,
            trace_instructions: 2_000,
            warmup: 1_000,
            repeat: 1,
        };
        let report = run_bench(&spec);
        assert!(
            report.is_equivalent(),
            "divergences: {:?}",
            report.divergences
        );
        assert_eq!(report.workloads.len(), 5);
        let json = report.to_json();
        assert!(json.contains("\"equivalent\": true"));
        assert!(json.contains("\"fast_speedup\""));
        assert!(json.contains("\"tiers\": [\"naive\", \"fast\"]"));
        assert!(json.contains("\"replayed_share\": "));
        for w in &report.workloads {
            assert!(w.replayed > 0, "{}: run loop engaged", w.name);
            assert!(w.replayed_share() > 0.0 && w.replayed_share() <= 1.0);
        }
        let table = report.render_table();
        assert!(table.lines().last().unwrap().starts_with("composite"));
    }
}
