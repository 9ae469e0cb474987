//! The persistent job-queue journal, `vax-queue-journal v2`.
//!
//! The journal splits the queue across **two segments** so it stays
//! sublinear in its own history:
//!
//! - the **tail** (`<path>`) is the append-only live segment, a
//!   [`record_log`] with one record per lifecycle transition:
//!
//!   ```text
//!   vax-queue-journal v2 generation <G> next <N>
//!   enqueue <id> [client=<name>] <spec line>
//!   start <id> attempt <k>
//!   complete <id> instructions <N> cycles <C>
//!   <upc-monitor codec body>
//!   end
//!   fail <id> attempts <k> message <escaped text>
//!   ```
//!
//! - the **snapshot** (`<path>.snap`) holds compacted settled jobs in
//!   final form behind an offset index, so neither replay nor result
//!   streaming ever needs to read their bodies into memory:
//!
//!   ```text
//!   vax-queue-snapshot v2 generation <G> jobs <N>
//!   index
//!   entry <id> <rel-offset> <len> done|failed
//!   ...
//!   end
//!   job <id> <spec line>
//!   complete <id> instructions <N> cycles <C>
//!   <upc-monitor codec body>
//!   end
//!   ...
//!   ```
//!
//! Each tail record is written before the in-memory queue advances, so
//! it survives a `kill -9` at any byte offset. Records are not fsynced,
//! so an OS crash or power loss can lose the most recent transitions.
//!
//! [`Journal::compact`] migrates every settled job from the tail into
//! a fresh snapshot and rewrites the tail with only the unsettled
//! records. Compaction is crash-safe by write-new-then-rename: both
//! replacement files are fully written and fsynced to temporaries,
//! then the snapshot is renamed into place *before* the tail, and the
//! directory is fsynced after each rename. A `kill -9` at any byte
//! offset therefore leaves one of three states — old pair, new
//! snapshot + old tail, or new pair — and [`Journal::open`] replays
//! each to the identical queue: a tail whose generation lags the
//! snapshot is the pre-compaction tail, so its records for jobs the
//! snapshot already settled are skipped as the expected overlap rather
//! than corruption.
//!
//! Replay is **O(unsettled)** in memory: the tail is consumed through
//! a buffered line reader one record at a time (with the record log's
//! torn-tail policy — a partial trailing append is dropped and
//! truncated, damage anywhere else is a hard [`JournalError::Corrupt`]),
//! settled jobs collapse to fixed-size offset-table entries, and only
//! unsettled jobs keep their parsed spec in memory. Result lines for
//! `results`/`drain` and the job lines of `status` are re-derived from
//! the recorded offsets by a `Readout`: it copies a bounded chunk of
//! ids, states and offsets, then reads the records through one
//! `JournalReader` — read handles pinned to a journal generation,
//! with buffered windows, so a pass in id order costs about one read
//! per window rather than an open, a seek and a read per record. A
//! fully settled million-job queue streams without ever materializing
//! the settled set, and a server holds its lock only for the copies.

use crate::spec::JobSpec;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use vax780_core::record_log::{self, Appender, LineReader, Reject, Section};
use vax780_core::MeasuredWorkload;

const HEADER_V2: &str = "vax-queue-journal v2";
const SNAP_HEADER: &str = "vax-queue-snapshot v2";

/// Monotonic job identifier, assigned at enqueue time.
pub type JobId = u64;

/// Why the journal could not be loaded or extended.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The file could not be read or written.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file's contents did not parse.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "queue journal {}: {source}", path.display())
            }
            JournalError::Corrupt { path, detail } => {
                write!(f, "queue journal {} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Replayed state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// No settled outcome yet; the job must (re-)run.
    Pending,
    /// A `complete` record exists.
    Done,
    /// A `fail` record exists; the job is quarantined.
    Failed,
}

impl JobState {
    /// The state name as printed by `status`.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// An unsettled job: the only kind whose spec stays in memory.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// What to run.
    pub spec: JobSpec,
    /// Client that enqueued the job (empty = anonymous).
    pub client: String,
    /// `start` records seen (attempts begun, across all server lives).
    pub starts: u32,
    /// Byte offset of the `enqueue` record in the tail.
    enqueue_at: u64,
    /// Byte length of the `enqueue` record (newline included).
    enqueue_len: u32,
}

/// Which segment a settled record lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Snapshot,
    Tail,
}

/// One settled job, reduced to an offset-table entry. The record
/// bodies stay on disk; this is all the memory a settled job costs.
#[derive(Debug, Clone, Copy)]
struct SettledRef {
    seg: Segment,
    /// Tail: offset/length of the `enqueue` record carrying the spec.
    /// Snapshot: unused (the record's own `job` line carries it).
    spec_at: u64,
    spec_len: u32,
    /// Offset of the settle record (`complete`/`fail` in the tail, the
    /// whole `job ...` record in the snapshot).
    at: u64,
    len: u64,
    kind: JobState,
}

/// One job as the journal holds it.
#[derive(Debug, Clone, Copy)]
enum Job<'a> {
    Pending(&'a PendingJob),
    Settled(&'a SettledRef),
}

/// A `complete` record rendered ahead of its append, so that a caller
/// who appends under a lock can encode the measurement outside it.
#[derive(Debug, Clone)]
pub(crate) struct CompleteRecord {
    id: JobId,
    text: String,
}

impl CompleteRecord {
    /// Render the `complete` record of job `id`.
    pub(crate) fn new(id: JobId, result: &MeasuredWorkload) -> CompleteRecord {
        CompleteRecord {
            id,
            text: record_log::render_section(&format!("complete {id}"), result),
        }
    }
}

/// FNV-1a 64-bit digest (stable, dependency-free).
pub fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escape a failure message onto one journal line.
fn escape_message(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn unescape_message(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Is `name` usable as a per-client identity on an `enqueue` record?
/// One token, so it survives the one-line journal and wire codecs.
pub fn valid_client_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b'@'))
}

/// The `enqueue` record for a job (`client` empty = anonymous).
fn enqueue_record(id: JobId, client: &str, spec: &JobSpec) -> String {
    if client.is_empty() {
        format!("enqueue {id} {}\n", spec.render())
    } else {
        format!("enqueue {id} client={client} {}\n", spec.render())
    }
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn snap_path_for(path: &Path) -> PathBuf {
    with_suffix(path, ".snap")
}

fn is_record_start(t: &str) -> bool {
    t == "end"
        || t.starts_with("enqueue ")
        || t.starts_with("start ")
        || t.starts_with("complete ")
        || t.starts_with("fail ")
}

/// A loaded (or freshly created) queue journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    snap_path: PathBuf,
    generation: u64,
    next_id: JobId,
    tail: Appender,
    pending: BTreeMap<JobId, PendingJob>,
    settled: BTreeMap<JobId, SettledRef>,
    done: usize,
    failed: usize,
    settled_in_tail: usize,
    clients: BTreeMap<String, usize>,
    warnings: Vec<String>,
}

impl Journal {
    /// Open `path`, creating the v2 pair if missing (or the tail if
    /// empty) and replaying it if present. A torn trailing tail append
    /// is dropped with a warning and the tail truncated back to the
    /// last good byte.
    ///
    /// One writer at a time: the journal has no cross-process lock, so
    /// a server and an offline `enqueue` must not extend the same file
    /// concurrently.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure or mid-file corruption.
    pub fn open(path: &Path) -> Result<Journal, JournalError> {
        let io_err = |source| JournalError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut journal = Journal {
            path: path.to_path_buf(),
            snap_path: snap_path_for(path),
            generation: 0,
            next_id: 1,
            tail: Appender::open(path).map_err(io_err)?,
            pending: BTreeMap::new(),
            settled: BTreeMap::new(),
            done: 0,
            failed: 0,
            settled_in_tail: 0,
            clients: BTreeMap::new(),
            warnings: Vec::new(),
        };
        let snap_generation = match File::open(&journal.snap_path) {
            Ok(file) => Some(journal.load_snapshot(file)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(source) => return Err(journal.snap_io(source)),
        };
        if journal.tail.end() == 0 {
            journal.generation = snap_generation.unwrap_or(0);
            journal.next_id = journal.max_settled_id() + 1;
            let header = journal.tail_header();
            journal.append(&header)?;
        } else {
            let file = File::open(path).map_err(io_err)?;
            journal.replay_tail(file, snap_generation)?;
        }
        Ok(journal)
    }

    fn io_err(&self, source: std::io::Error) -> JournalError {
        JournalError::Io {
            path: self.path.clone(),
            source,
        }
    }

    fn snap_io(&self, source: std::io::Error) -> JournalError {
        JournalError::Io {
            path: self.snap_path.clone(),
            source,
        }
    }

    fn corrupt(&self, detail: String) -> JournalError {
        JournalError::Corrupt {
            path: self.path.clone(),
            detail,
        }
    }

    fn snap_corrupt(&self, detail: String) -> JournalError {
        JournalError::Corrupt {
            path: self.snap_path.clone(),
            detail,
        }
    }

    fn max_settled_id(&self) -> JobId {
        self.settled.keys().next_back().copied().unwrap_or(0)
    }

    /// Load the snapshot segment: header plus offset index only — the
    /// record bodies are never read at open. Snapshots are written
    /// atomically (rename), so any damage is a hard error, never a
    /// torn tail.
    fn load_snapshot(&mut self, file: File) -> Result<u64, JournalError> {
        let file_len = file.metadata().map_err(|e| self.snap_io(e))?.len();
        let mut reader = LineReader::new(BufReader::new(file));
        let mut next = || reader.next_line().map_err(|e| self.snap_io(e));
        let (generation, jobs): (u64, usize) = match next()? {
            Some((_, line, true)) => {
                let words: Vec<&str> = line.split_ascii_whitespace().collect();
                match words.as_slice() {
                    ["vax-queue-snapshot", "v2", "generation", g, "jobs", n] => g
                        .parse()
                        .ok()
                        .zip(n.parse().ok())
                        .ok_or_else(|| self.snap_corrupt(format!("bad header `{line}`")))?,
                    _ => {
                        return Err(self.snap_corrupt(format!(
                            "missing `{SNAP_HEADER}` header (got `{line}`)"
                        )))
                    }
                }
            }
            _ => return Err(self.snap_corrupt(format!("missing `{SNAP_HEADER}` header"))),
        };
        match next()? {
            Some((_, line, true)) if line.trim() == "index" => {}
            other => {
                return Err(self.snap_corrupt(format!("missing `index` section (got {other:?})")))
            }
        }
        let mut entries: Vec<(JobId, u64, u64, JobState)> = Vec::new();
        loop {
            match next()? {
                Some((_, line, true)) if line.trim() == "end" => break,
                Some((_, line, true)) => {
                    let words: Vec<&str> = line.split_ascii_whitespace().collect();
                    let parsed = match words.as_slice() {
                        ["entry", id, rel, len, kind] => {
                            let kind = match *kind {
                                "done" => Some(JobState::Done),
                                "failed" => Some(JobState::Failed),
                                _ => None,
                            };
                            id.parse()
                                .ok()
                                .filter(|&id: &JobId| id < JobId::MAX)
                                .zip(rel.parse().ok())
                                .zip(len.parse().ok().zip(kind))
                        }
                        _ => None,
                    };
                    let Some(((id, rel), (len, kind))) = parsed else {
                        return Err(self.snap_corrupt(format!("bad index entry `{line}`")));
                    };
                    if let Some(&(last, ..)) = entries.last() {
                        if id <= last {
                            return Err(
                                self.snap_corrupt(format!("index not strictly increasing at {id}"))
                            );
                        }
                    }
                    entries.push((id, rel, len, kind));
                }
                _ => return Err(self.snap_corrupt("index has no `end` line".to_string())),
            }
        }
        if entries.len() != jobs {
            return Err(self.snap_corrupt(format!(
                "header claims {jobs} job(s) but the index holds {}",
                entries.len()
            )));
        }
        let base = reader.pos();
        for (id, rel, len, kind) in entries {
            let in_file = |at: &u64| at.checked_add(len).is_some_and(|end| end <= file_len);
            let Some(at) = base.checked_add(rel).filter(in_file) else {
                return Err(self.snap_corrupt(format!(
                    "index entry for job {id} points past the end of the file"
                )));
            };
            match kind {
                JobState::Done => self.done += 1,
                JobState::Failed => self.failed += 1,
                JobState::Pending => unreachable!(),
            }
            self.settled.insert(
                id,
                SettledRef {
                    seg: Segment::Snapshot,
                    spec_at: at,
                    spec_len: 0,
                    at,
                    len,
                    kind,
                },
            );
        }
        Ok(generation)
    }

    /// Replay the tail through the record log — O(one record) memory —
    /// and, when the tail's generation lags the snapshot's (the
    /// mid-compaction crash window), skip records for jobs the snapshot
    /// already settled.
    fn replay_tail(
        &mut self,
        file: File,
        snap_generation: Option<u64>,
    ) -> Result<(), JournalError> {
        let mut reader = LineReader::new(BufReader::new(file));

        // Header: v2 with generation + next-id.
        let header = reader.next_line().map_err(|e| self.io_err(e))?;
        let header_next = match header {
            Some((_, line, true)) => {
                let words: Vec<&str> = line.split_ascii_whitespace().collect();
                let parsed: Option<(u64, JobId)> = match words.as_slice() {
                    ["vax-queue-journal", "v2", "generation", g, "next", n] => {
                        g.parse().ok().zip(n.parse().ok())
                    }
                    _ => {
                        return Err(
                            self.corrupt(format!("missing `{HEADER_V2}` header (got `{line}`)"))
                        )
                    }
                };
                let Some((generation, next)) = parsed else {
                    return Err(self.corrupt(format!("bad header `{line}`")));
                };
                self.generation = generation;
                next
            }
            _ => return Err(self.corrupt(format!("missing `{HEADER_V2}` header"))),
        };

        // Reconcile the tail against the snapshot. A lagging tail is
        // the expected state after a kill between the two compaction
        // renames: its records for snapshot-settled jobs are replayed
        // as no-ops.
        let stale_tail = match snap_generation {
            Some(snap_gen) => {
                if self.generation > snap_gen {
                    return Err(self.corrupt(format!(
                        "tail generation {} is newer than snapshot generation {snap_gen}",
                        self.generation
                    )));
                }
                let stale = self.generation < snap_gen;
                self.generation = snap_gen;
                stale
            }
            None => {
                if self.generation > 0 {
                    return Err(self.corrupt(format!(
                        "tail generation {} but the snapshot segment {} is missing",
                        self.generation,
                        self.snap_path.display()
                    )));
                }
                false
            }
        };

        let replayed = record_log::replay(&mut reader, is_record_start, |reader, start, line| {
            let mut words = line.splitn(3, ' ');
            let keyword = words.next().unwrap_or("");
            let id: Option<JobId> = words
                .next()
                .and_then(|w| w.parse().ok())
                .filter(|&id| id < JobId::MAX);
            let rest = words.next().unwrap_or("");
            // A stale tail's record for a job the snapshot already
            // holds in settled form.
            let stale = |id| stale_tail && self.settled.contains_key(&id);
            match (keyword, id) {
                ("enqueue", Some(id)) => {
                    let (client, spec_line) = match rest.split_once(' ') {
                        Some((first, tail_rest)) if first.starts_with("client=") => {
                            let name = &first["client=".len()..];
                            if !valid_client_name(name) {
                                return Err(Reject::malformed(format!(
                                    "enqueue {id}: bad client name `{name}`"
                                )));
                            }
                            (name.to_string(), tail_rest)
                        }
                        _ => (String::new(), rest),
                    };
                    let spec = JobSpec::parse(spec_line)
                        .map_err(|e| Reject::malformed(format!("enqueue {id}: {e}")))?;
                    let enqueue_len = u32::try_from(reader.pos() - start)
                        .map_err(|_| Reject::Corrupt(format!("enqueue {id}: record too long")))?;
                    self.next_id = self.next_id.max(id + 1);
                    if stale(id) {
                        return Ok(());
                    }
                    if self.pending.contains_key(&id) || self.settled.contains_key(&id) {
                        return Err(Reject::Corrupt(format!("duplicate enqueue for job {id}")));
                    }
                    *self.clients.entry(client.clone()).or_insert(0) += 1;
                    self.pending.insert(
                        id,
                        PendingJob {
                            spec,
                            client,
                            starts: 0,
                            enqueue_at: start,
                            enqueue_len,
                        },
                    );
                }
                ("start", Some(id)) => {
                    let attempt: Option<u32> =
                        match rest.split_ascii_whitespace().collect::<Vec<_>>().as_slice() {
                            ["attempt", k] => k.parse().ok(),
                            _ => None,
                        };
                    let Some(attempt) = attempt else {
                        return Err(Reject::malformed(format!("bad start record `{line}`")));
                    };
                    if stale(id) {
                        return Ok(());
                    }
                    if self.settled.contains_key(&id) {
                        return Err(Reject::Corrupt(format!("start for settled job {id}")));
                    }
                    let Some(job) = self.pending.get_mut(&id) else {
                        return Err(Reject::Corrupt(format!("start for unknown job {id}")));
                    };
                    job.starts = job.starts.max(attempt);
                }
                ("fail", Some(id)) => {
                    let parsed = rest
                        .strip_prefix("attempts ")
                        .and_then(|r| r.split_once(" message "))
                        .and_then(|(k, _msg)| k.parse::<u32>().ok());
                    if parsed.is_none() {
                        return Err(Reject::malformed(format!("bad fail record `{line}`")));
                    }
                    if !stale(id) {
                        self.settle_from_tail(id, start, reader.pos() - start, JobState::Failed)?;
                    }
                }
                ("complete", Some(id)) => {
                    // Fully terminated section: anything wrong inside
                    // is real corruption, not a torn append. Decode to
                    // validate, then discard — only offsets are kept.
                    Section::read(reader, line, is_record_start)?
                        .decode("")
                        .map_err(|e| Reject::Corrupt(format!("complete {id}: {e}")))?;
                    if !stale(id) {
                        self.settle_from_tail(id, start, reader.pos() - start, JobState::Done)?;
                    }
                }
                _ => return Err(Reject::malformed(format!("unparseable record `{line}`"))),
            }
            Ok(())
        })
        .map_err(|e| match e {
            Reject::Io(source) => self.io_err(source),
            Reject::Corrupt(detail) | Reject::Malformed { detail, .. } => self.corrupt(detail),
        })?;
        self.next_id = self
            .next_id
            .max(header_next.max(1))
            .max(self.max_settled_id() + 1);
        if let Some(torn) = replayed.torn {
            self.warnings
                .push(format!("{torn}; the transition will be replayed"));
            self.tail
                .truncate(replayed.good)
                .map_err(|e| self.io_err(e))?;
        }
        Ok(())
    }

    /// Move a pending job to the settled offset table during replay.
    fn settle_from_tail(
        &mut self,
        id: JobId,
        at: u64,
        len: u64,
        kind: JobState,
    ) -> Result<(), Reject> {
        if self.settled.contains_key(&id) {
            return Err(Reject::Corrupt(format!(
                "{} for settled job {id}",
                kind.name()
            )));
        }
        let Some(job) = self.pending.remove(&id) else {
            return Err(Reject::Corrupt(format!(
                "{} for unknown job {id}",
                kind.name()
            )));
        };
        self.settle(id, job, at, len, kind);
        Ok(())
    }

    /// Record a settled job's offsets and drop it from the unsettled
    /// counts.
    fn settle(&mut self, id: JobId, job: PendingJob, at: u64, len: u64, kind: JobState) {
        self.client_settled(&job.client);
        match kind {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Pending => unreachable!(),
        }
        self.settled_in_tail += 1;
        self.settled.insert(
            id,
            SettledRef {
                seg: Segment::Tail,
                spec_at: job.enqueue_at,
                spec_len: job.enqueue_len,
                at,
                len,
                kind,
            },
        );
    }

    fn client_settled(&mut self, client: &str) {
        if let Some(count) = self.clients.get_mut(client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.clients.remove(client);
            }
        }
    }

    fn tail_header(&self) -> String {
        format!(
            "{HEADER_V2} generation {} next {}\n",
            self.generation, self.next_id
        )
    }

    /// Warnings produced while opening (a torn trailing record
    /// dropped).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The journal's tail path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The snapshot segment's path.
    pub fn snapshot_path(&self) -> &Path {
        &self.snap_path
    }

    /// The compaction generation (0 until the first compaction).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Settled jobs whose records still live in the tail — the work a
    /// compaction would migrate.
    pub fn settled_in_tail(&self) -> usize {
        self.settled_in_tail
    }

    /// The highest job id ever assigned (0 if none).
    pub fn last_id(&self) -> JobId {
        self.next_id - 1
    }

    /// One job's replayed state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        if self.pending.contains_key(&id) {
            Some(JobState::Pending)
        } else {
            self.settled.get(&id).map(|r| r.kind)
        }
    }

    /// Every job in id order, as `(id, state)` — an iterator, not a
    /// materialized list, so a million-job status walk stays flat.
    pub fn states(&self) -> impl Iterator<Item = (JobId, JobState)> + '_ {
        self.jobs_from(Bound::Unbounded).map(|(id, job)| match job {
            Job::Pending(_) => (id, JobState::Pending),
            Job::Settled(r) => (id, r.kind),
        })
    }

    /// Every job from `from` on, in id order.
    fn jobs_from(&self, from: Bound<JobId>) -> impl Iterator<Item = (JobId, Job<'_>)> {
        let mut pending = self.pending.range((from, Bound::Unbounded)).peekable();
        let mut settled = self.settled.range((from, Bound::Unbounded)).peekable();
        std::iter::from_fn(move || {
            let take_pending = match (pending.peek(), settled.peek()) {
                (Some((&p, _)), Some((&s, _))) => p < s,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            if take_pending {
                pending.next().map(|(&id, job)| (id, Job::Pending(job)))
            } else {
                settled.next().map(|(&id, r)| (id, Job::Settled(r)))
            }
        })
    }

    /// An unsettled job's spec and start count, for claiming.
    pub fn pending_job(&self, id: JobId) -> Option<(&JobSpec, u32)> {
        self.pending.get(&id).map(|j| (&j.spec, j.starts))
    }

    /// Ids of jobs with no settled outcome, id order — exactly the work
    /// a restarted server must (re-)run.
    pub fn pending(&self) -> Vec<JobId> {
        self.pending.keys().copied().collect()
    }

    /// `(unsettled, done, failed)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.pending.len(), self.done, self.failed)
    }

    /// Unsettled jobs enqueued by `client` (empty = anonymous), the
    /// quantity per-client quotas bound.
    pub fn unsettled_for(&self, client: &str) -> usize {
        self.clients.get(client).copied().unwrap_or(0)
    }

    /// Append one record to the tail; returns its offset.
    fn append(&mut self, record: &str) -> Result<u64, JournalError> {
        self.tail.append(record).map_err(|e| self.io_err(e))
    }

    /// Append an `enqueue` record and return the new job's id.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_enqueue(&mut self, spec: &JobSpec) -> Result<JobId, JournalError> {
        self.append_enqueue_for("", spec)
    }

    /// Append an `enqueue` record attributed to `client` (empty =
    /// anonymous) and return the new job's id.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails, [`JournalError::Corrupt`]
    /// if the client name cannot ride the one-line codec.
    pub fn append_enqueue_for(
        &mut self,
        client: &str,
        spec: &JobSpec,
    ) -> Result<JobId, JournalError> {
        if !client.is_empty() && !valid_client_name(client) {
            return Err(self.corrupt(format!("bad client name `{client}`")));
        }
        let id = self.next_id;
        let next_id = id
            .checked_add(1)
            .ok_or_else(|| self.corrupt("job ids exhausted".to_string()))?;
        let record = enqueue_record(id, client, spec);
        let enqueue_at = self.append(&record)?;
        self.next_id = next_id;
        *self.clients.entry(client.to_string()).or_insert(0) += 1;
        self.pending.insert(
            id,
            PendingJob {
                spec: spec.clone(),
                client: client.to_string(),
                starts: 0,
                enqueue_at,
                enqueue_len: record.len() as u32,
            },
        );
        Ok(id)
    }

    /// Append a `start` record for an attempt on a pending job.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_start(&mut self, id: JobId, attempt: u32) -> Result<(), JournalError> {
        self.append(&format!("start {id} attempt {attempt}\n"))?;
        if let Some(job) = self.pending.get_mut(&id) {
            job.starts = job.starts.max(attempt);
        }
        Ok(())
    }

    /// Append a `complete` record with the full measurement.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_complete(
        &mut self,
        id: JobId,
        result: &MeasuredWorkload,
    ) -> Result<(), JournalError> {
        self.append_complete_record(&CompleteRecord::new(id, result))
    }

    /// Append a `complete` record rendered beforehand by
    /// [`CompleteRecord::new`]; the bytes are those
    /// [`Journal::append_complete`] writes.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub(crate) fn append_complete_record(
        &mut self,
        record: &CompleteRecord,
    ) -> Result<(), JournalError> {
        let at = self.append(&record.text)?;
        self.settle_append(record.id, at, record.text.len() as u64, JobState::Done);
        Ok(())
    }

    /// Append a `fail` record quarantining the job.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the append fails.
    pub fn append_fail(
        &mut self,
        id: JobId,
        attempts: u32,
        message: &str,
    ) -> Result<(), JournalError> {
        let record = format!(
            "fail {id} attempts {attempts} message {}\n",
            escape_message(message)
        );
        let at = self.append(&record)?;
        self.settle_append(id, at, record.len() as u64, JobState::Failed);
        Ok(())
    }

    fn settle_append(&mut self, id: JobId, at: u64, len: u64, kind: JobState) {
        if let Some(job) = self.pending.remove(&id) {
            self.settle(id, job, at, len, kind);
        }
    }

    /// Migrate every settled job into a fresh snapshot segment and
    /// rewrite the tail with only the unsettled records, bumping the
    /// generation. Crash-safe: both replacement files are fully
    /// written and synced before the snapshot, then the tail, are
    /// renamed into place and the directory synced — a kill at any byte
    /// offset replays to the identical queue state.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure or an unreadable settled record.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let new_generation = self.generation + 1;
        let snap_tmp = with_suffix(&self.snap_path, ".tmp");
        let tail_tmp = with_suffix(&self.path, ".tmp");
        let records_tmp = with_suffix(&self.snap_path, ".records.tmp");
        let snap_io = |e| self.snap_io(e);

        // 1. Stream every settled record into the records scratch
        // file, collecting the offset index. Every record is written in
        // the snapshot's `job` form: records already in the snapshot
        // come out byte for byte as they went in, and tail records are
        // re-keyed to it.
        let mut entries: Vec<(JobId, u64, u64, JobState)> = Vec::with_capacity(self.settled.len());
        let mut records = BufWriter::new(File::create(&records_tmp).map_err(snap_io)?);
        let mut reader = self.reader()?;
        let mut rel = 0u64;
        for (&id, r) in &self.settled {
            let record = reader.with_settled(id, r, true, |spec, settle| {
                Ok(format!("job {id} {spec}\n{settle}"))
            })?;
            let len = record.len() as u64;
            records.write_all(record.as_bytes()).map_err(snap_io)?;
            entries.push((id, rel, len, r.kind));
            rel += len;
        }
        records.flush().map_err(snap_io)?;
        drop(records);

        // 2. Assemble the snapshot: header, index, then the records
        // streamed in after it. Synced before rename.
        let mut base = 0u64;
        {
            let mut snap = BufWriter::new(File::create(&snap_tmp).map_err(snap_io)?);
            let header = format!(
                "{SNAP_HEADER} generation {new_generation} jobs {}\nindex\n",
                entries.len()
            );
            snap.write_all(header.as_bytes()).map_err(snap_io)?;
            base += header.len() as u64;
            for &(id, rel, len, kind) in &entries {
                let line = format!("entry {id} {rel} {len} {}\n", kind.name());
                snap.write_all(line.as_bytes()).map_err(snap_io)?;
                base += line.len() as u64;
            }
            snap.write_all(b"end\n").map_err(snap_io)?;
            base += 4;
            let mut records = File::open(&records_tmp).map_err(snap_io)?;
            std::io::copy(&mut records, &mut snap).map_err(snap_io)?;
            let snap = snap.into_inner().map_err(|e| snap_io(e.into_error()))?;
            snap.sync_all().map_err(snap_io)?;
        }

        // 3. The replacement tail: header with the preserved next-id,
        // then the unsettled records (enqueue + highest start seen).
        let mut pending_offsets: BTreeMap<JobId, (u64, u32)> = BTreeMap::new();
        let mut text = format!(
            "{HEADER_V2} generation {new_generation} next {}\n",
            self.next_id
        );
        for (&id, job) in &self.pending {
            let record = enqueue_record(id, &job.client, &job.spec);
            pending_offsets.insert(id, (text.len() as u64, record.len() as u32));
            text.push_str(&record);
            if job.starts > 0 {
                text.push_str(&format!("start {id} attempt {}\n", job.starts));
            }
        }
        let mut tail = Appender::open(&tail_tmp).map_err(|e| self.io_err(e))?;
        tail.truncate(0)
            .and_then(|()| tail.append(&text))
            .and_then(|_| tail.sync())
            .map_err(|e| self.io_err(e))?;

        // 4. Publish: snapshot first, then tail, fsyncing the directory
        // after each rename. A kill between the renames leaves the new
        // snapshot with the old tail, which replay reconciles by
        // generation. The new tail's append handle replaces the old
        // one, whose file the rename unlinked.
        std::fs::rename(&snap_tmp, &self.snap_path).map_err(snap_io)?;
        record_log::sync_dir(&self.snap_path).map_err(snap_io)?;
        std::fs::rename(&tail_tmp, &self.path).map_err(|e| self.io_err(e))?;
        self.tail = tail;
        record_log::sync_dir(&self.path).map_err(|e| self.io_err(e))?;
        let _ = std::fs::remove_file(&records_tmp);

        // 5. Swing the in-memory offset table to the new files.
        self.generation = new_generation;
        self.settled_in_tail = 0;
        for (id, rel, len, _) in entries {
            if let Some(r) = self.settled.get_mut(&id) {
                r.seg = Segment::Snapshot;
                r.at = base + rel;
                r.spec_at = base + rel;
                r.spec_len = 0;
                r.len = len;
            }
        }
        for (id, (at, len)) in pending_offsets {
            if let Some(job) = self.pending.get_mut(&id) {
                job.enqueue_at = at;
                job.enqueue_len = len;
            }
        }
        Ok(())
    }

    /// The canonical one-line spec text for any job, read back from
    /// the segment that holds it (settled specs live only on disk).
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the record cannot be read back.
    pub fn spec_line(&self, id: JobId) -> Result<Option<String>, JournalError> {
        if let Some(job) = self.pending.get(&id) {
            return Ok(Some(job.spec.render()));
        }
        let Some(r) = self.settled.get(&id) else {
            return Ok(None);
        };
        self.reader()?.spec_line(id, r).map(Some)
    }

    /// One settled job's deterministic JSON result line, re-derived
    /// from the on-disk record (`None` if the job is unsettled or
    /// unknown). The line depends only on the spec and the simulation
    /// outputs, so a killed-and-resumed parallel queue renders
    /// bit-identical lines to an uninterrupted serial run. The
    /// `digest` is FNV-1a 64 over the full histogram+counters codec
    /// text.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if the record cannot be read back.
    pub fn result_line(&self, id: JobId) -> Result<Option<String>, JournalError> {
        let Some(r) = self.settled.get(&id) else {
            return Ok(None);
        };
        self.reader()?.result_line(id, r).map(Some)
    }

    /// Stream every settled job's result line into `out`, id order,
    /// through one set of read handles — memory stays bounded by one
    /// chunk of jobs regardless of how many have settled.
    /// Returns the number of lines written.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on a read failure, or an `Io` wrapping the
    /// write error if `out` fails.
    pub fn stream_results(&self, out: &mut dyn Write) -> Result<usize, JournalError> {
        Readout::new(Lines::Results)
            .write_all(self, out)
            .map_err(|e| match e.downcast::<JournalError>() {
                Ok(e) => e,
                Err(e) => self.io_err(e),
            })
    }

    /// Write `job <id> <state> <spec>` for every job into `out`, id
    /// order — the job lines of `status`, offline. Returns the number
    /// of lines written.
    ///
    /// # Errors
    ///
    /// The write error if `out` fails; a read failure comes back as an
    /// `io::Error` wrapping the [`JournalError`].
    pub fn write_job_lines(&self, out: &mut dyn Write) -> std::io::Result<usize> {
        Readout::new(Lines::Jobs).write_all(self, out)
    }

    /// Open read handles on this generation's segments. The handles
    /// stay valid across later appends and compactions: segments are
    /// append-only and compaction replaces them by rename, so an open
    /// handle keeps reading the bytes its offsets name.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if a segment cannot be opened.
    pub(crate) fn reader(&self) -> Result<JournalReader, JournalError> {
        let snapshot = match File::open(&self.snap_path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(source) => return Err(self.snap_io(source)),
        };
        Ok(JournalReader {
            path: self.path.clone(),
            snap_path: self.snap_path.clone(),
            generation: self.generation,
            snapshot,
            tail: File::open(&self.path).map_err(|e| self.io_err(e))?,
            snap_window: Window::default(),
            spec_window: Window::default(),
            settle_window: Window::default(),
        })
    }
}

/// Bytes one [`JournalReader`] window fetches per read: a few dozen
/// ~2 KB records, so a pass in offset order costs one `pread` per
/// window rather than one per record.
const READ_WINDOW_BYTES: usize = 64 * 1024;

/// A cached run of one segment's bytes, refilled by positional reads
/// (`pread`), so several windows can share one file handle.
#[derive(Debug, Default)]
struct Window {
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    start: u64,
}

impl Window {
    /// The `len` bytes at `at`, from the window if it holds them, else
    /// from a refill that starts at `at` and reads ahead.
    fn read(&mut self, file: &File, at: u64, len: u64) -> std::io::Result<&[u8]> {
        use std::os::unix::fs::FileExt;
        let held = self.start..=self.start + self.buf.len() as u64;
        let end = at
            .checked_add(len)
            .ok_or(std::io::ErrorKind::InvalidInput)?;
        if !(held.contains(&at) && held.contains(&end)) {
            let len = usize::try_from(len).map_err(|_| std::io::ErrorKind::InvalidInput)?;
            self.buf.clear();
            self.buf.resize(len.max(READ_WINDOW_BYTES), 0);
            let mut filled = 0;
            while filled < len {
                match file.read_at(&mut self.buf[filled..], at + filled as u64) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.buf.clear();
                        return Err(e);
                    }
                }
            }
            self.buf.truncate(filled);
            self.start = at;
            if filled < len {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        let from = (at - self.start) as usize;
        Ok(&self.buf[from..from + (end - at) as usize])
    }
}

/// Read handles pinned to one journal generation: one per segment,
/// opened by [`Journal::reader`]. Records are read through buffered
/// windows, so a pass in id order — which is offset order within each
/// segment — costs about one read per window, not one per record. The
/// tail gets two windows, because a job's `enqueue` record and its
/// settle record lie apart.
#[derive(Debug)]
pub(crate) struct JournalReader {
    path: PathBuf,
    snap_path: PathBuf,
    /// The generation whose segments the handles hold open.
    generation: u64,
    snapshot: Option<File>,
    tail: File,
    snap_window: Window,
    spec_window: Window,
    settle_window: Window,
}

impl JournalReader {
    /// Read a settled record back and hand `f` its spec line and its
    /// raw settle record (the `complete` section or `fail` line). With
    /// `settle` false, a tail job's settle record is not read and `f`
    /// gets an empty one.
    fn with_settled<T>(
        &mut self,
        id: JobId,
        r: &SettledRef,
        settle: bool,
        f: impl FnOnce(&str, &str) -> Result<T, JournalError>,
    ) -> Result<T, JournalError> {
        let not_utf8 = |what: &str| JournalError::Corrupt {
            path: self.path.clone(),
            detail: format!("{what} record for job {id} is not UTF-8"),
        };
        match r.seg {
            Segment::Snapshot => {
                let bytes = read_at(
                    self.snapshot.as_ref(),
                    &mut self.snap_window,
                    &self.snap_path,
                    r.at,
                    r.len,
                )?;
                let text = std::str::from_utf8(bytes).map_err(|_| not_utf8("settle"))?;
                let snap_corrupt = |detail| JournalError::Corrupt {
                    path: self.snap_path.clone(),
                    detail,
                };
                let (head, settle) = text
                    .split_once('\n')
                    .ok_or_else(|| snap_corrupt(format!("truncated record for job {id}")))?;
                let spec = head.strip_prefix(&format!("job {id} ")).ok_or_else(|| {
                    snap_corrupt(format!("bad record head for job {id}: `{head}`"))
                })?;
                f(spec, settle)
            }
            Segment::Tail => {
                let record = if settle {
                    let bytes = read_at(
                        Some(&self.tail),
                        &mut self.settle_window,
                        &self.path,
                        r.at,
                        r.len,
                    )?;
                    std::str::from_utf8(bytes).map_err(|_| not_utf8("settle"))?
                } else {
                    ""
                };
                let enqueue = read_at(
                    Some(&self.tail),
                    &mut self.spec_window,
                    &self.path,
                    r.spec_at,
                    u64::from(r.spec_len),
                )?;
                let text = std::str::from_utf8(enqueue).map_err(|_| not_utf8("enqueue"))?;
                f(spec_from_enqueue(&self.path, text, id)?, record)
            }
        }
    }

    fn spec_line(&mut self, id: JobId, r: &SettledRef) -> Result<String, JournalError> {
        self.with_settled(id, r, false, |spec, _| Ok(spec.to_string()))
    }

    fn result_line(&mut self, id: JobId, r: &SettledRef) -> Result<String, JournalError> {
        self.with_settled(id, r, true, |spec, settle| {
            Ok(render_result(id, spec, settle))
        })?
        .map_err(|detail| JournalError::Corrupt {
            path: self.path.clone(),
            detail,
        })
    }
}

/// Read `len` bytes at `at` from a segment through `window`; a missing
/// segment file reads as not found.
fn read_at<'w>(
    file: Option<&File>,
    window: &'w mut Window,
    path: &Path,
    at: u64,
    len: u64,
) -> Result<&'w [u8], JournalError> {
    let io = |source| JournalError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = file.ok_or_else(|| io(std::io::ErrorKind::NotFound.into()))?;
    window.read(file, at, len).map_err(io)
}

/// Extract the canonical spec line from a raw `enqueue` record.
fn spec_from_enqueue<'a>(path: &Path, text: &'a str, id: JobId) -> Result<&'a str, JournalError> {
    let line = text.trim_end_matches('\n');
    let rest = line
        .strip_prefix(&format!("enqueue {id} "))
        .ok_or_else(|| JournalError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("bad enqueue record for job {id}: `{line}`"),
        })?;
    Ok(match rest.split_once(' ') {
        Some((first, tail)) if first.starts_with("client=") => tail,
        _ => rest,
    })
}

/// Render a result line from a spec line and a raw settle record.
/// Field order and formatting are pinned: they are the bytes the
/// kill -9 idempotence proof diffs. The digest is computed over the
/// raw body bytes — exactly the bytes `append_complete` wrote, so it
/// is bit-identical to the digest of the original measurement. `Err`
/// describes what is wrong with the records.
fn render_result(id: JobId, spec_line: &str, settle: &str) -> Result<String, String> {
    let spec = JobSpec::parse(spec_line).map_err(|e| format!("spec for job {id}: {e}"))?;
    let spec_json = json_escape(&spec.render());
    let head = settle.split_once('\n').map_or(settle, |(head, _)| head);
    if head.starts_with("complete ") {
        let section = Section::split(settle)
            .ok()
            .filter(|s| s.prefix.strip_prefix("complete ").map(str::parse) == Some(Ok(id)))
            .ok_or_else(|| format!("bad complete record for job {id}: `{head}`"))?;
        let machine_checks: u64 = section
            .body
            .lines()
            .find_map(|l| l.trim().strip_prefix("counter machine_checks "))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let (instructions, cycles) = (section.instructions, section.cycles);
        let cpi = if instructions > 0 {
            cycles as f64 / instructions as f64
        } else {
            0.0
        };
        Ok(format!(
            "{{\"job\":{id},\"spec\":\"{spec_json}\",\"workload\":\"{}\",\
             \"instructions\":{instructions},\"cycles\":{cycles},\"cpi\":{cpi:.6},\
             \"machine_checks\":{machine_checks},\"digest\":\"{:016x}\"}}",
            spec.workload.name(),
            fnv64(&section.body),
        ))
    } else if let Some(fail) = head.strip_prefix(&format!("fail {id} attempts ")) {
        let parsed = fail
            .split_once(" message ")
            .and_then(|(k, msg)| k.parse::<u32>().ok().map(|k| (k, unescape_message(msg))));
        let Some((attempts, message)) = parsed else {
            return Err(format!("bad fail record for job {id}: `{head}`"));
        };
        Ok(format!(
            "{{\"job\":{id},\"spec\":\"{spec_json}\",\"failed\":true,\
             \"attempts\":{attempts},\"message\":\"{}\"}}",
            json_escape(&message),
        ))
    } else {
        Err(format!("unrecognized settle record for job {id}: `{head}`"))
    }
}

/// Jobs one [`Readout::copy`] takes out of the journal. A server copies
/// a chunk under its lock and renders it after releasing the lock, so
/// this bounds both the lock hold and the reply's memory.
pub(crate) const READOUT_CHUNK: usize = 256;

/// Which lines a [`Readout`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lines {
    /// `job <id> <state> <spec>` for every job, as `status` lists them.
    Jobs,
    /// A result line for every settled job, as `results` streams them;
    /// unsettled jobs are skipped.
    Results,
    /// A result line for every job in id order, as `drain` streams
    /// them: the pass stops at the first unsettled job until it
    /// settles.
    Settling,
}

/// What one [`Readout::copy`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Copied {
    /// A chunk of lines is ready for [`Readout::write`].
    Lines,
    /// ([`Lines::Settling`] only) the next job has not settled yet.
    Wait,
    /// The pass has covered every job.
    Done,
}

/// A job's place in the journal, copied out by [`Readout::copy`].
#[derive(Debug)]
struct Entry {
    id: JobId,
    state: &'static str,
    record: Record,
}

/// Where an [`Entry`]'s line comes from.
#[derive(Debug)]
enum Record {
    /// A settled job's offsets.
    Settled(SettledRef),
    /// An unsettled job's spec line, rendered from memory.
    Unsettled(String),
}

/// One pass over a journal's jobs in id order, a chunk at a time, in
/// two steps: [`Readout::copy`] takes the next chunk's ids, states and
/// record offsets — cheap, and all a caller must do under its lock —
/// and [`Readout::write`] reads, renders and writes them, which needs
/// no lock. The pass reads through one [`JournalReader`], reopened
/// only when a compaction has moved the journal to a new generation
/// between chunks; the offsets of a chunk always belong to the
/// generation of the reader that reads them.
#[derive(Debug)]
pub(crate) struct Readout {
    lines: Lines,
    reader: Option<JournalReader>,
    /// The last id copied; the next chunk starts after it.
    after: Option<JobId>,
    chunk: Vec<Entry>,
}

impl Readout {
    /// A pass that has copied nothing yet.
    pub(crate) fn new(lines: Lines) -> Readout {
        Readout {
            lines,
            reader: None,
            after: None,
            chunk: Vec::new(),
        }
    }

    /// Copy the next chunk out of `journal`: at most [`READOUT_CHUNK`]
    /// jobs. `running` names which unsettled jobs `status` reports as
    /// `running`. A chunk copied earlier and not yet written is
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the segments of a new generation cannot
    /// be opened.
    pub(crate) fn copy(
        &mut self,
        journal: &Journal,
        running: &dyn Fn(JobId) -> bool,
    ) -> Result<Copied, JournalError> {
        if self.reader.as_ref().map(|r| r.generation) != Some(journal.generation) {
            self.reader = Some(journal.reader()?);
        }
        self.chunk.clear();
        let from = match self.after {
            Some(id) => Bound::Excluded(id),
            None => Bound::Unbounded,
        };
        let mut jobs = journal.jobs_from(from);
        let mut waiting = false;
        while self.chunk.len() < READOUT_CHUNK {
            let Some((id, job)) = jobs.next() else { break };
            let entry = match (self.lines, job) {
                (Lines::Jobs, Job::Pending(p)) => Entry {
                    id,
                    state: if running(id) { "running" } else { "pending" },
                    record: Record::Unsettled(p.spec.render()),
                },
                (Lines::Results, Job::Pending(_)) => continue,
                (Lines::Settling, Job::Pending(_)) => {
                    waiting = true;
                    break;
                }
                (_, Job::Settled(r)) => Entry {
                    id,
                    state: r.kind.name(),
                    record: Record::Settled(*r),
                },
            };
            self.chunk.push(entry);
        }
        Ok(match self.chunk.last() {
            Some(last) => {
                self.after = Some(last.id);
                Copied::Lines
            }
            None if waiting => Copied::Wait,
            None => Copied::Done,
        })
    }

    /// Read, render and write the chunk the last [`Readout::copy`]
    /// took. Returns the number of lines written.
    ///
    /// # Errors
    ///
    /// The write error if `out` fails; a read failure comes back as an
    /// `io::Error` wrapping the [`JournalError`].
    pub(crate) fn write(&mut self, out: &mut dyn Write) -> std::io::Result<usize> {
        let Some(reader) = self.reader.as_mut() else {
            return Ok(0);
        };
        let lines = self.chunk.len();
        for entry in self.chunk.drain(..) {
            let id = entry.id;
            match (self.lines, &entry.record) {
                (Lines::Jobs, Record::Unsettled(spec)) => {
                    writeln!(out, "job {id} {} {spec}", entry.state)?;
                }
                (Lines::Jobs, Record::Settled(r)) => {
                    let spec = reader.spec_line(id, r).map_err(std::io::Error::other)?;
                    writeln!(out, "job {id} {} {spec}", entry.state)?;
                }
                (_, Record::Settled(r)) => {
                    let line = reader.result_line(id, r).map_err(std::io::Error::other)?;
                    writeln!(out, "{line}")?;
                }
                (_, Record::Unsettled(_)) => unreachable!("result passes copy settled jobs only"),
            }
        }
        Ok(lines)
    }

    /// Run the whole pass over a journal nobody else is changing.
    fn write_all(&mut self, journal: &Journal, out: &mut dyn Write) -> std::io::Result<usize> {
        let mut lines = 0;
        while self
            .copy(journal, &|_| false)
            .map_err(std::io::Error::other)?
            == Copied::Lines
        {
            lines += self.write(out)?;
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upc_monitor::Histogram;
    use vax_mem::HwCounters;
    use vax_ucode::MicroAddr;
    use vax_workloads::WorkloadKind;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(kind: WorkloadKind) -> MeasuredWorkload {
        let mut h = Histogram::new();
        h.bump_issue(MicroAddr::new(0x22));
        h.bump_stall(MicroAddr::new(0x22), 2);
        let mut c = HwCounters::new();
        c.sbi_reads = 3;
        MeasuredWorkload {
            name: kind.name(),
            histogram: h,
            counters: c,
            instructions: 500,
            cycles: 2100,
        }
    }

    fn all_results(j: &Journal) -> String {
        let mut out = Vec::new();
        j.stream_results(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn journal_round_trips_the_queue() {
        let dir = tempdir("vax-journal-roundtrip");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec_a = JobSpec::new(WorkloadKind::TimesharingLight);
        let mut spec_b = JobSpec::new(WorkloadKind::SciEng);
        spec_b.seed = Some(9);
        let a = j.append_enqueue(&spec_a).unwrap();
        let b = j.append_enqueue_for("alice", &spec_b).unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(j.unsettled_for("alice"), 1);
        j.append_start(a, 1).unwrap();
        j.append_complete(a, &sample(WorkloadKind::TimesharingLight))
            .unwrap();
        j.append_start(b, 1).unwrap();
        j.append_fail(b, 4, "worker panicked:\nboom").unwrap();
        assert_eq!(j.unsettled_for("alice"), 0);
        let live = all_results(&j);

        let back = Journal::open(&path).unwrap();
        assert!(back.warnings().is_empty());
        assert_eq!(back.pending(), Vec::<JobId>::new());
        assert_eq!(back.counts(), (0, 1, 1));
        assert_eq!(back.state(a), Some(JobState::Done));
        assert_eq!(back.state(b), Some(JobState::Failed));
        // Result lines replay bit-identical from the offset index.
        assert_eq!(all_results(&back), live);
        let ra = back.result_line(a).unwrap().unwrap();
        assert!(ra.contains("\"job\":1"), "{ra}");
        assert!(ra.contains("\"cycles\":2100"), "{ra}");
        let rb = back.result_line(b).unwrap().unwrap();
        assert!(rb.contains("\"attempts\":4"), "{rb}");
        assert!(rb.contains("worker panicked:\\nboom"), "{rb}");
        // Ids keep growing; settled specs read back from disk.
        assert_eq!(back.spec_line(b).unwrap().unwrap(), spec_b.render());
        let mut back = back;
        assert_eq!(back.append_enqueue(&spec_a).unwrap(), 3);
        assert_eq!(back.pending(), vec![3]);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_byte_offset() {
        let dir = tempdir("vax-journal-torn");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Commercial);
        j.append_enqueue(&spec).unwrap();
        j.append_start(1, 1).unwrap();
        let good_text = std::fs::read_to_string(&path).unwrap();
        let good_len = good_text.len();
        j.append_complete(1, &sample(WorkloadKind::Commercial))
            .unwrap();
        let full_text = std::fs::read_to_string(&path).unwrap();

        for cut in good_len..full_text.len() {
            std::fs::write(&path, &full_text[..cut]).unwrap();
            let j = Journal::open(&path).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(j.pending(), vec![1], "cut at {cut}");
            if cut == good_len {
                assert!(j.warnings().is_empty(), "clean cut at {cut}");
            } else {
                assert_eq!(j.warnings().len(), 1, "cut at {cut}");
                assert_eq!(std::fs::read_to_string(&path).unwrap(), good_text);
            }
        }
        // Untouched file: settled, no warnings.
        std::fs::write(&path, &full_text).unwrap();
        let j = Journal::open(&path).unwrap();
        assert!(j.warnings().is_empty());
        assert_eq!(j.counts(), (0, 1, 0));
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tempdir("vax-journal-corrupt");
        let path = dir.join("queue.journal");
        for bad in [
            "nope\n",
            "vax-queue-journal v2 generation 0 next 1\nstart 7 attempt 1\n",
            "vax-queue-journal v2 generation 0 next 1\n\
             complete 7 instructions 1 cycles 2\nupc-histogram v1\nend\n",
            "vax-queue-journal v2 generation 0 next 1\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n",
            "vax-queue-journal v2 generation 0 next 1\ngarbage\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n",
            // A v1 journal is no longer read.
            "vax-queue-journal v1\nstart 7 attempt 1\n",
            // A generation with no snapshot segment to back it.
            "vax-queue-journal v2 generation 3 next 1\n",
        ] {
            std::fs::write(&path, bad).unwrap();
            let _ = std::fs::remove_file(snap_path_for(&path));
            let err = Journal::open(&path).unwrap_err();
            assert!(
                matches!(err, JournalError::Corrupt { .. }),
                "{bad:?}: {err}"
            );
        }
        // A terminated complete section with a bad codec body is real
        // corruption even at the tail.
        std::fs::write(
            &path,
            "vax-queue-journal v2 generation 0 next 1\n\
             enqueue 1 workload=sci-eng instructions=10 warmup=1\n\
             complete 1 instructions 1 cycles 2\nnot a histogram\nend\n",
        )
        .unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        // A damaged snapshot is always a hard error: snapshots are
        // written atomically, so torn-tail forgiveness never applies.
        std::fs::write(&path, "vax-queue-journal v2 generation 1 next 1\n").unwrap();
        std::fs::write(
            snap_path_for(&path),
            "vax-queue-snapshot v2 generation 1 jobs 1\n",
        )
        .unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn result_lines_are_deterministic() {
        let dir = tempdir("vax-journal-deterministic");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let id = j
            .append_enqueue(&JobSpec::new(WorkloadKind::Educational))
            .unwrap();
        j.append_start(id, 1).unwrap();
        j.append_complete(id, &sample(WorkloadKind::Educational))
            .unwrap();
        let a = j.result_line(id).unwrap().unwrap();
        let b = j.result_line(id).unwrap().unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"cpi\":4.200000"), "{a}");
        assert!(a.contains("\"digest\":\""), "{a}");
    }

    #[test]
    fn compaction_migrates_settled_jobs_and_preserves_results() {
        let dir = tempdir("vax-journal-compact");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let mut spec = JobSpec::new(WorkloadKind::SciEng);
        for seed in 1..=5 {
            spec.seed = Some(seed);
            j.append_enqueue_for(if seed % 2 == 0 { "even" } else { "" }, &spec)
                .unwrap();
        }
        // Settle 1..=3; 4 pending with a start; 5 untouched.
        for id in 1..=3u64 {
            j.append_start(id, 1).unwrap();
        }
        j.append_complete(1, &sample(WorkloadKind::SciEng)).unwrap();
        j.append_fail(2, 2, "boom").unwrap();
        j.append_complete(3, &sample(WorkloadKind::SciEng)).unwrap();
        j.append_start(4, 1).unwrap();
        let before = all_results(&j);
        let tail_before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(j.settled_in_tail(), 3);

        j.compact().unwrap();
        assert_eq!(j.generation(), 1);
        assert_eq!(j.settled_in_tail(), 0);
        // The tail shed the settled history.
        let tail_after = std::fs::metadata(&path).unwrap().len();
        assert!(tail_after < tail_before, "{tail_after} !< {tail_before}");
        // Results identical through the live journal and a reopen.
        assert_eq!(all_results(&j), before);
        let back = Journal::open(&path).unwrap();
        assert_eq!(all_results(&back), before);
        assert_eq!(back.counts(), (2, 2, 1));
        assert_eq!(back.unsettled_for("even"), 1);
        let (_, starts) = back.pending_job(4).unwrap();
        assert_eq!(starts, 1, "start count must survive compaction");
        // A second compaction (snapshot -> snapshot copy) still holds.
        let mut back = back;
        back.append_start(4, 2).unwrap();
        back.append_complete(4, &sample(WorkloadKind::SciEng))
            .unwrap();
        back.compact().unwrap();
        assert_eq!(back.generation(), 2);
        let reread = Journal::open(&path).unwrap();
        assert_eq!(reread.counts(), (1, 3, 1));
        assert!(all_results(&reread).starts_with(&before[..before.len() - 1]));
    }

    #[test]
    fn id_watermark_survives_a_fully_settled_compaction() {
        let dir = tempdir("vax-journal-watermark");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Commercial);
        for _ in 0..3 {
            let id = j.append_enqueue(&spec).unwrap();
            j.append_start(id, 1).unwrap();
            j.append_fail(id, 1, "x").unwrap();
        }
        j.compact().unwrap();
        // Compact again: now the snapshot holds everything and the
        // tail is empty of records. The `next` watermark in the tail
        // header must stop id reuse.
        j.compact().unwrap();
        let mut back = Journal::open(&path).unwrap();
        assert_eq!(back.append_enqueue(&spec).unwrap(), 4);
    }

    #[test]
    fn stale_tail_after_mid_compaction_crash_is_reconciled() {
        let dir = tempdir("vax-journal-stale-tail");
        let path = dir.join("queue.journal");
        let mut j = Journal::open(&path).unwrap();
        let spec = JobSpec::new(WorkloadKind::Educational);
        j.append_enqueue(&spec).unwrap();
        j.append_enqueue(&spec).unwrap();
        j.append_start(1, 1).unwrap();
        j.append_complete(1, &sample(WorkloadKind::Educational))
            .unwrap();
        let old_tail = std::fs::read(&path).unwrap();
        let before = all_results(&j);
        j.compact().unwrap();
        drop(j);
        // Simulate dying between the two renames: new snapshot on
        // disk, pre-compaction tail restored.
        std::fs::write(&path, &old_tail).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.counts(), (1, 1, 0));
        assert_eq!(all_results(&j), before);
        // The settled job's tail records were skipped as stale, not
        // double-applied; the pending job survived.
        assert_eq!(j.pending(), vec![2]);
    }
}
