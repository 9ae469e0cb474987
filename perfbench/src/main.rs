//! The vax780 benchmark: end-to-end metrics from untraced runs, and a
//! per-layer ledger from a traced run, for three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interp-long|campaign-tiny|queue-history \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics — the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`. Scratch files live under `.bench_work/` in the current
//! directory. See `perfbench/README.md` for what each metric means.

mod calib;
mod campaign;
mod history;
mod interp;
mod probe;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, in report order, with their units. Every workload
/// reports all of them (README.md says what each means per workload).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_mips", "MIPS"),
    ("jobs_per_s", "1/s"),
    ("journal_bytes_per_job", "B"),
    ("replay_s", "s"),
    ("results_per_s", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// What every workload run shares.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured region.
    pub measure_for: Duration,
    /// Worker threads: the host's available parallelism.
    pub nproc: usize,
    /// Scratch directory, private to this process.
    pub work: PathBuf,
    /// Process start (the first set-up is timed from here).
    pub process_start: Instant,
    /// Traced run: rounds alternate untraced/traced and the layer probe runs.
    pub trace: bool,
}

impl Ctx {
    /// Is round `k` of a phase traced? In a traced run odd rounds are, so
    /// traced and untraced rounds interleave.
    pub fn traced_round(&self, k: usize) -> bool {
        self.trace && k % 2 == 1
    }
}

/// SplitMix64 step: derive independent seeds from the bench seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Operations attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation; a false `ok` counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Count a result, failing it with its error.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || e);
                None
            }
        }
    }
}

/// How a host-time sample scales with the host's speed.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    /// A duration: shorter on a faster host.
    Time,
    /// A rate: higher on a faster host.
    Rate,
}

/// Per-round samples of the end-to-end metrics, kept apart for traced
/// and untraced rounds.
#[derive(Debug, Default)]
pub struct Rounds {
    plain: BTreeMap<&'static str, Vec<f64>>,
    traced: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced samples of speed-normalized metrics, as measured.
    raw: BTreeMap<&'static str, Vec<f64>>,
}

impl Rounds {
    pub fn push(&mut self, traced: bool, name: &'static str, value: f64) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        side.entry(name).or_default().push(value);
    }

    /// Push a host-time sample taken while the host ran at `speed` times
    /// the reference (`calib::host_speed`): the value kept is the one the
    /// reference host would show.
    pub fn push_at(
        &mut self,
        traced: bool,
        name: &'static str,
        raw: f64,
        speed: f64,
        scale: Scale,
    ) {
        let value = match scale {
            Scale::Time => raw * speed,
            Scale::Rate => raw / speed,
        };
        self.push(traced, name, value);
        if !traced {
            self.raw.entry(name).or_default().push(raw);
        }
    }

    /// Median of the untraced samples as measured, before normalization.
    pub fn raw_median(&self, name: &str) -> Option<f64> {
        self.raw.get(name).map(|v| median(v))
    }

    pub fn median(&self, traced: bool, name: &str) -> Option<f64> {
        let side = if traced { &self.traced } else { &self.plain };
        side.get(name).map(|v| median(v))
    }

    /// Untraced samples of `name`.
    pub fn count(&self, name: &str) -> usize {
        self.plain.get(name).map_or(0, Vec::len)
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub rounds: Rounds,
    pub tally: Tally,
    /// Per-layer metrics: (name, value, unit).
    pub layers: Vec<(String, f64, &'static str)>,
    /// Extra human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).clamp(1, 120),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Ctx, &mut Tracer) -> Outcome = match args.workload.as_str() {
        "interp-long" => interp::run,
        "campaign-tiny" => campaign::run,
        "queue-history" => history::run,
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (interp-long, campaign-tiny, queue-history)"
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        measure_for: Duration::from_secs(args.seconds),
        nproc,
        work: work.clone(),
        process_start,
        trace: args.trace,
    };
    let mut tracer = Tracer::new();
    let mut outcome = run(&ctx, &mut tracer);

    println!(
        "stamp workload={} seed={} seconds={} trace={} nproc={nproc} tree={:016x} host={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        tree_digest(),
        vax_trace::HostStamp::collect().to_json()
    );
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    for (name, unit) in END_TO_END {
        let value = outcome.rounds.median(false, name).unwrap_or(f64::NAN);
        let raw = match outcome.rounds.raw_median(name) {
            Some(raw) => format!(", at reference host speed; {raw} {unit} as measured"),
            None => String::new(),
        };
        println!(
            "metric {name} {value} {unit} (median of {} untraced round(s){raw})",
            outcome.rounds.count(name)
        );
        if !args.trace {
            metrics.push((name.to_string(), value, unit));
            continue;
        }
        // Tracing overhead: traced minus untraced rounds of the same run.
        // The process-wide peak RSS cannot be split by round, so its
        // overhead is the span buffer's size.
        let overhead = if name == "rss_peak_mb" {
            tracer.buffer_bytes() as f64 / (1024.0 * 1024.0)
        } else {
            outcome
                .rounds
                .median(true, name)
                .map_or(f64::NAN, |traced| traced - value)
        };
        metrics.push((format!("overhead.{name}"), overhead, unit));
    }

    if args.trace {
        let ledger = tracer.ledger();
        for layer in trace::LAYERS.into_iter().chain(["other"]) {
            outcome.layer(
                format!("ledger.{layer}.self_share"),
                ledger.share(layer),
                "share",
            );
        }
        outcome.layer("ledger.wall_ms", ledger.wall_ns as f64 / 1e6, "ms");
        outcome.layer("ledger.reconcile_error", ledger.reconcile_error(), "share");
        println!(
            "ledger spans={} wall_ms={:.3} reconcile_error={:.2e} tolerance={} nesting_errors={}",
            ledger.spans,
            ledger.wall_ns as f64 / 1e6,
            ledger.reconcile_error(),
            trace::RECONCILE_TOLERANCE,
            ledger.nesting_errors
        );
        outcome.tally.op(ledger.reconciles(), || {
            "the ledger does not reconcile".to_string()
        });
        let spans_out = root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&spans_out) {
            println!("spans not written: {e}");
        }
        metrics.extend(outcome.layers.iter().cloned());
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let _ = std::fs::remove_dir_all(&work);

    let tally = &outcome.tally;
    println!(
        "metric failed_share {} share ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for p in &tally.problems {
        println!("problem {p}");
    }
    let mut correct = tally.failed == 0;
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        if args.trace {
            println!("layer {name} {value} {unit}");
        }
        if !value.is_finite() {
            println!("problem metric {name} was not measured");
            correct = false;
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// FNV-1a over the paths and contents of every file under `crates/`, in
/// path order: identifies the code measured where no git revision is
/// available (the host stamp then says `unknown`).
fn tree_digest() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
