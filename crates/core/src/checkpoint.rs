//! Campaign checkpoint/resume.
//!
//! A checkpoint file records every completed job of a composite
//! campaign — label, lengths, and the full measurement (histogram plus
//! hardware counters) as a [`record_log`](crate::record_log)
//! measurement section. The file is an append-only record log: the
//! header is written once, and each finished job adds one
//! self-contained section, so a campaign killed mid-flight loses at
//! most the jobs that were still running. Resuming replays completed
//! jobs from the file byte-for-byte and runs only the missing ones; the
//! final merged result is bit-identical to an uninterrupted campaign.

use crate::record_log::{self, Appender, LineReader, Reject, Section};
use crate::MeasuredWorkload;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use vax_workloads::WorkloadKind;

const HEADER: &str = "vax-campaign-checkpoint v1";

/// The campaign settings a checkpoint's measurements depend on. A
/// resume must match them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Measured instructions per job.
    pub instructions: u64,
    /// Warm-up instructions per job.
    pub warmup: u64,
    /// The CPU folds the decode cycle (11/750-style).
    pub decode_overlap: bool,
}

impl CheckpointConfig {
    /// The file's `config` line. `decode-overlap` is written only when
    /// set, so default checkpoints keep their original bytes.
    fn line(&self) -> String {
        let overlap = if self.decode_overlap {
            " decode-overlap"
        } else {
            ""
        };
        format!(
            "config instructions {} warmup {}{overlap}",
            self.instructions, self.warmup
        )
    }

    fn parse(line: &str) -> Option<CheckpointConfig> {
        let (lengths, decode_overlap) = match line.trim().strip_suffix(" decode-overlap") {
            Some(lengths) => (lengths, true),
            None => (line, false),
        };
        match lengths
            .split_ascii_whitespace()
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["config", "instructions", i, "warmup", w] => Some(CheckpointConfig {
                instructions: i.parse().ok()?,
                warmup: w.parse().ok()?,
                decode_overlap,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for CheckpointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instructions={} warmup={}",
            self.instructions, self.warmup
        )?;
        if self.decode_overlap {
            f.write_str(" decode-overlap")?;
        }
        Ok(())
    }
}

/// Why a checkpoint could not be loaded, created, or extended.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The checkpoint path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file's contents did not parse.
    Corrupt {
        /// The checkpoint path.
        path: PathBuf,
        /// What was wrong, with a line number where available.
        detail: String,
    },
    /// The checkpoint was written by a campaign with different
    /// settings; resuming it would silently mix incompatible
    /// measurements.
    ConfigMismatch {
        /// The checkpoint path.
        path: PathBuf,
        /// The settings recorded in the file.
        found: CheckpointConfig,
        /// The settings of the resuming campaign.
        expected: CheckpointConfig,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "checkpoint {} is corrupt: {detail}", path.display())
            }
            CheckpointError::ConfigMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {} was written by a campaign with {found} \
                 (this campaign has {expected})",
                path.display(),
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A loaded (or freshly created) campaign checkpoint.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    log: Appender,
    jobs: Vec<(String, MeasuredWorkload)>,
    warnings: Vec<String>,
}

fn is_record_start(line: &str) -> bool {
    line == "end" || line.starts_with("job ")
}

impl Checkpoint {
    /// Open `path` for a campaign with the given lengths on the default
    /// CPU. See [`Checkpoint::open_for`].
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::open_for`].
    pub fn open(
        path: &Path,
        instructions_each: u64,
        warmup_each: u64,
    ) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::open_for(
            path,
            CheckpointConfig {
                instructions: instructions_each,
                warmup: warmup_each,
                decode_overlap: false,
            },
        )
    }

    /// Open `path` for a campaign with the given settings. A missing (or
    /// empty) file is created with just the header; an existing one is
    /// replayed and its recorded settings verified against `config`. A
    /// torn trailing record (a partial append left by a mid-write kill)
    /// is dropped with a warning and cut off the file. Corruption
    /// *before* the trailing record — or any fully terminated record
    /// that fails to parse — is a hard [`CheckpointError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on I/O failure, unparseable contents, or a
    /// config mismatch.
    pub fn open_for(path: &Path, config: CheckpointConfig) -> Result<Checkpoint, CheckpointError> {
        let io_err = |source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut cp = Checkpoint {
            path: path.to_path_buf(),
            log: Appender::open(path).map_err(io_err)?,
            jobs: Vec::new(),
            warnings: Vec::new(),
        };
        if cp.log.end() == 0 {
            cp.log
                .append(&format!("{HEADER}\n{}\n", config.line()))
                .map_err(io_err)?;
            return Ok(cp);
        }
        let file = File::open(path).map_err(io_err)?;
        let (found, replayed) = cp.replay(file)?;
        if found != config {
            return Err(CheckpointError::ConfigMismatch {
                path: path.to_path_buf(),
                found,
                expected: config,
            });
        }
        if let Some(torn) = replayed.torn {
            let warning = format!("{torn}; the job will be re-run");
            eprintln!("checkpoint {}: {warning}", path.display());
            cp.warnings.push(warning);
            // The next `record` appends after the last good record
            // instead of splicing onto a partial line.
            cp.log.truncate(replayed.good).map_err(io_err)?;
        }
        Ok(cp)
    }

    /// Replay the header, the config line, and every job section.
    fn replay(
        &mut self,
        file: File,
    ) -> Result<(CheckpointConfig, record_log::Replayed), CheckpointError> {
        let corrupt = |detail: String| CheckpointError::Corrupt {
            path: self.path.clone(),
            detail,
        };
        let io_err = |source| CheckpointError::Io {
            path: self.path.clone(),
            source,
        };
        let mut reader = LineReader::new(BufReader::new(file));
        match reader.next_line().map_err(io_err)? {
            Some((_, l, true)) if l.trim() == HEADER => {}
            _ => return Err(corrupt(format!("missing `{HEADER}` header"))),
        }
        let config = match reader.next_line().map_err(io_err)? {
            Some((_, l, true)) => l,
            _ => String::new(),
        };
        let config = CheckpointConfig::parse(&config)
            .ok_or_else(|| corrupt(format!("bad config line `{}`", config.trim())))?;
        let jobs = &mut self.jobs;
        let replayed = record_log::replay(&mut reader, is_record_start, |reader, _, head| {
            if !head.starts_with("job ") {
                return Err(Reject::malformed(format!(
                    "unparseable record head `{head}`"
                )));
            }
            let section = Section::read(reader, head, is_record_start)?;
            let label = section.prefix["job ".len()..].trim();
            // The section is fully terminated: anything wrong inside it
            // is real corruption, not a torn append.
            let Some(kind) = WorkloadKind::ALL.iter().find(|k| k.name() == label) else {
                return Err(Reject::Corrupt(format!(
                    "job '{label}' is not a known workload"
                )));
            };
            let m = section
                .decode(kind.name())
                .map_err(|e| Reject::Corrupt(format!("job '{label}': {e}")))?;
            jobs.push((label.to_string(), m));
            Ok(())
        })
        .map_err(|e| match e {
            Reject::Io(source) => io_err(source),
            Reject::Corrupt(detail) | Reject::Malformed { detail, .. } => corrupt(detail),
        })?;
        Ok((config, replayed))
    }

    /// Warnings produced while opening (e.g. a torn trailing record
    /// dropped after a mid-append kill).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Labels of the jobs already completed, file order.
    pub fn completed(&self) -> Vec<&str> {
        self.jobs.iter().map(|(l, _)| l.as_str()).collect()
    }

    /// Is this job already recorded?
    pub fn contains(&self, label: &str) -> bool {
        self.jobs.iter().any(|(l, _)| l == label)
    }

    /// The recorded measurement for a job.
    pub fn get(&self, label: &str) -> Option<&MeasuredWorkload> {
        self.jobs.iter().find(|(l, _)| l == label).map(|(_, m)| m)
    }

    /// Append one completed job to the file and to the in-memory set.
    /// Called under the pool's completion lock, so sections never
    /// interleave even when workers finish concurrently.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the append fails.
    pub fn record(
        &mut self,
        label: &str,
        result: &MeasuredWorkload,
    ) -> Result<(), CheckpointError> {
        let section = record_log::render_section(&format!("job {label}"), result);
        self.log
            .append(&section)
            .map_err(|source| CheckpointError::Io {
                path: self.path.clone(),
                source,
            })?;
        self.jobs.push((label.to_string(), result.clone()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upc_monitor::Histogram;
    use vax_mem::HwCounters;
    use vax_ucode::MicroAddr;

    fn sample(kind: WorkloadKind) -> MeasuredWorkload {
        let mut h = Histogram::new();
        h.bump_issue(MicroAddr::new(0x10));
        h.bump_stall(MicroAddr::new(0x10), 3);
        let mut c = HwCounters::new();
        c.sbi_reads = 7;
        c.machine_checks = 1;
        MeasuredWorkload {
            name: kind.name(),
            histogram: h,
            counters: c,
            instructions: 1000,
            cycles: 4200,
        }
    }

    #[test]
    fn checkpoint_round_trips_jobs() {
        let dir = std::env::temp_dir().join("vax-ckpt-test-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let mut cp = Checkpoint::open(&path, 1000, 100).unwrap();
        let kind = WorkloadKind::ALL[0];
        let m = sample(kind);
        cp.record(kind.name(), &m).unwrap();

        let back = Checkpoint::open(&path, 1000, 100).unwrap();
        assert!(back.contains(kind.name()));
        let r = back.get(kind.name()).unwrap();
        assert_eq!(r.histogram, m.histogram);
        assert_eq!(r.counters, m.counters);
        assert_eq!(r.instructions, 1000);
        assert_eq!(r.cycles, 4200);
        assert_eq!(back.completed(), vec![kind.name()]);
    }

    #[test]
    fn config_mismatch_is_refused() {
        let dir = std::env::temp_dir().join("vax-ckpt-test-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        Checkpoint::open(&path, 1000, 100).unwrap();
        let err = Checkpoint::open(&path, 2000, 100).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ConfigMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn corrupt_files_are_reported_not_panicked() {
        let dir = std::env::temp_dir().join("vax-ckpt-test-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let err = Checkpoint::open(&path, 1000, 100).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        // A fully terminated record with a bad body is real corruption
        // (not a torn append), and so is damage with records after it.
        std::fs::write(
            &path,
            "vax-campaign-checkpoint v1\nconfig instructions 1000 warmup 100\n\
             job timesharing-light instructions 1 cycles 2\nnot a histogram\nend\n",
        )
        .unwrap();
        let err = Checkpoint::open(&path, 1000, 100).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        std::fs::write(
            &path,
            "vax-campaign-checkpoint v1\nconfig instructions 1000 warmup 100\n\
             garbage line\njob timesharing-light instructions 1 cycles 2\n\
             upc-histogram v1\nend\n",
        )
        .unwrap();
        let err = Checkpoint::open(&path, 1000, 100).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn torn_trailing_record_is_dropped_with_warning() {
        // A `kill -9` mid-append leaves a prefix of the last record.
        // Opening must drop exactly that record (warning, file truncated
        // back to the last good record), never fail the whole resume.
        let dir = std::env::temp_dir().join("vax-ckpt-test-torn");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let mut cp = Checkpoint::open(&path, 1000, 100).unwrap();
        cp.record(WorkloadKind::ALL[0].name(), &sample(WorkloadKind::ALL[0]))
            .unwrap();
        let good_text = std::fs::read_to_string(&path).unwrap();
        let good_len = good_text.len();
        let mut cp = Checkpoint::open(&path, 1000, 100).unwrap();
        cp.record(WorkloadKind::ALL[1].name(), &sample(WorkloadKind::ALL[1]))
            .unwrap();
        let full_text = std::fs::read_to_string(&path).unwrap();

        // Truncate at every byte offset inside the last record: every
        // cut must recover to exactly the first job.
        for cut in good_len..full_text.len() {
            std::fs::write(&path, &full_text[..cut]).unwrap();
            let cp = Checkpoint::open(&path, 1000, 100)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            assert_eq!(
                cp.completed(),
                vec![WorkloadKind::ALL[0].name()],
                "cut at byte {cut}"
            );
            if cut == good_len {
                assert!(cp.warnings().is_empty(), "clean boundary cut at {cut}");
            } else {
                assert_eq!(cp.warnings().len(), 1, "cut at byte {cut}");
                assert!(cp.warnings()[0].contains("torn"), "{}", cp.warnings()[0]);
                // The file was truncated back to the last good record...
                assert_eq!(std::fs::read_to_string(&path).unwrap(), good_text);
            }
        }
        // ...and appending after recovery produces a clean two-job file.
        std::fs::write(&path, &full_text[..full_text.len() - 7]).unwrap();
        let mut cp = Checkpoint::open(&path, 1000, 100).unwrap();
        cp.record(WorkloadKind::ALL[1].name(), &sample(WorkloadKind::ALL[1]))
            .unwrap();
        let back = Checkpoint::open(&path, 1000, 100).unwrap();
        assert!(back.warnings().is_empty());
        assert_eq!(
            back.completed(),
            vec![WorkloadKind::ALL[0].name(), WorkloadKind::ALL[1].name()]
        );
        // An untouched file still opens with no warnings.
        std::fs::write(&path, &full_text).unwrap();
        let cp = Checkpoint::open(&path, 1000, 100).unwrap();
        assert!(cp.warnings().is_empty());
        assert_eq!(cp.completed().len(), 2);
    }
}
