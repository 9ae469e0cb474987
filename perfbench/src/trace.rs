//! Spans around the benchmark's calls into each layer, and the ledger
//! derived from them.
//!
//! A span records one call the benchmark makes into a crate's public
//! function: its name (`<layer>.<call>`), start and end on one clock, the
//! span that was open when it began, and the job it belongs to. Spans are
//! kept in memory and written out once, at the end of the run. Only the
//! thread that drives the workload records spans, so they nest: a span's
//! self time is its duration minus its children's, and the self times of
//! one round sum to the round's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers the ledger attributes time to, named after the crates.
pub const LAYERS: [&str; 8] = [
    "workloads",
    "cpu",
    "mem",
    "arch",
    "monitor",
    "core",
    "serve",
    "journal",
];

/// Largest |sum of self times − wall| / wall the reconciliation accepts.
pub const RECONCILE_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

/// In-memory span recorder. When off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Wall time of the traced regions, timed apart from the spans.
    wall_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            wall_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for job `job` (0 = no job).
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Run `f` as one region — a root span named `what` when `traced`,
    /// untraced otherwise. The region's wall time is
    /// taken with its own clock reads, outside the root span.
    pub fn region<T>(
        &mut self,
        what: &'static str,
        traced: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        assert!(self.stack.is_empty(), "regions do not nest");
        self.on = traced;
        let start = Instant::now();
        let out = self.span(what, 0, f);
        if traced {
            self.wall_ns += start.elapsed().as_nanos() as u64;
        }
        self.on = false;
        out
    }

    /// Durations in ms of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Total ms of every span with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Bytes the span buffer holds (the tracer's own memory).
    pub fn buffer_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// Self time per layer over every traced region, plus `other` (the
    /// root spans' self time: the benchmark's own work between calls).
    pub fn ledger(&self) -> Ledger {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut nesting_errors = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            if child_ns[i] > dur {
                nesting_errors += 1;
            }
            let own = dur.saturating_sub(child_ns[i]);
            let layer = if s.parent.is_none() {
                "other"
            } else {
                s.name.split('.').next().unwrap_or("other")
            };
            *self_ns.entry(layer).or_insert(0) += own;
        }
        Ledger {
            wall_ns: self.wall_ns,
            self_ns,
            nesting_errors,
            spans: self.spans.len(),
        }
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time per layer, reconciled against the traced wall time.
#[derive(Debug)]
pub struct Ledger {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub nesting_errors: usize,
    pub spans: usize,
}

impl Ledger {
    /// |Σ self − wall| / wall.
    pub fn reconcile_error(&self) -> f64 {
        let sum: u64 = self.self_ns.values().sum();
        if self.wall_ns == 0 {
            return 1.0;
        }
        (sum as f64 - self.wall_ns as f64).abs() / self.wall_ns as f64
    }

    pub fn share(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Does the ledger add up: proper nesting, and self times within
    /// [`RECONCILE_TOLERANCE`] of the wall time?
    pub fn reconciles(&self) -> bool {
        self.nesting_errors == 0 && self.reconcile_error() <= RECONCILE_TOLERANCE
    }
}
