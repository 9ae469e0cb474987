//! The append-only record log under the campaign checkpoint and the
//! queue journal, and the measurement section that both of them (and
//! the job-worker's `vax-job-result v1` blob) carry.
//!
//! A log is a header, then records appended through an [`Appender`]
//! that keeps its file open. Each record is *written* before the
//! caller's in-memory state advances, so it survives a `kill -9` at any
//! byte offset. Records are not fsynced, so an OS crash or power loss
//! can still lose the most recent ones.
//!
//! Appends are sequential, so a kill mid-write leaves a *prefix* of one
//! record at the end of the file. [`replay`] tells that torn tail apart
//! from damage anywhere else: a record that fails to parse is torn only
//! if no fully terminated record-start line follows it. A torn tail is
//! reported (and [`Appender::truncate`] cuts it away); anything else is
//! corruption, and the caller refuses to guess.
//!
//! A measurement section is the paper's measurement on disk and on the
//! wire, the µPC histogram plus the hardware counters:
//!
//! ```text
//! <prefix> instructions <N> cycles <C>
//! <upc-monitor codec body>
//! end
//! ```

use crate::MeasuredWorkload;
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, Write};
use std::path::Path;
use upc_monitor::codec;

/// Buffered line reader that tracks byte offsets and whether each line
/// was newline-terminated. Invalid UTF-8 is surfaced as a lossy line so
/// the caller's torn-versus-corrupt logic decides its fate.
pub struct LineReader<R> {
    inner: R,
    pos: u64,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    /// A reader positioned at byte 0 of `inner`.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader {
            inner,
            pos: 0,
            buf: Vec::new(),
        }
    }

    /// The byte offset just past the last line read.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// `(start_offset, line_without_newline, terminated)`, or `None`
    /// at EOF.
    ///
    /// # Errors
    ///
    /// Any read error from the underlying reader.
    pub fn next_line(&mut self) -> io::Result<Option<(u64, String, bool)>> {
        self.buf.clear();
        let start = self.pos;
        let n = self.inner.read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.pos += n as u64;
        let terminated = self.buf.last() == Some(&b'\n');
        if terminated {
            self.buf.pop();
        }
        Ok(Some((
            start,
            String::from_utf8_lossy(&self.buf).into_owned(),
            terminated,
        )))
    }
}

/// Why a record handler refused a record.
#[derive(Debug)]
pub enum Reject {
    /// The record does not parse. It is a torn tail if nothing
    /// record-shaped follows it; `saw_more` reports a record-start line
    /// the handler itself already consumed.
    Malformed {
        /// What was wrong.
        detail: String,
        /// A terminated record-start line was already consumed.
        saw_more: bool,
    },
    /// Damage that no crash can explain, whatever follows.
    Corrupt(String),
    /// The log could not be read.
    Io(io::Error),
}

impl Reject {
    /// A malformed record with nothing record-shaped consumed yet.
    pub fn malformed(detail: String) -> Reject {
        Reject::Malformed {
            detail,
            saw_more: false,
        }
    }
}

impl From<io::Error> for Reject {
    fn from(e: io::Error) -> Reject {
        Reject::Io(e)
    }
}

/// What a replay found.
#[derive(Debug)]
pub struct Replayed {
    /// The end of the last good record: where the next append belongs.
    pub good: u64,
    /// A warning describing the torn trailing record that was dropped,
    /// if there was one.
    pub torn: Option<String>,
}

/// Replay every record after the header. `record` gets each non-blank,
/// terminated line that starts a record, with the reader positioned
/// after it, and reads whatever else the record needs. A record it
/// rejects as [`Reject::Malformed`] ends the replay: the rest of the log
/// is torn if no terminated line after it satisfies `is_record_start`,
/// and corrupt otherwise.
///
/// # Errors
///
/// [`Reject::Io`] on a read failure, [`Reject::Corrupt`] on damage
/// that is not a torn tail; never [`Reject::Malformed`].
pub fn replay<R: BufRead>(
    reader: &mut LineReader<R>,
    is_record_start: impl Fn(&str) -> bool,
    mut record: impl FnMut(&mut LineReader<R>, u64, &str) -> Result<(), Reject>,
) -> Result<Replayed, Reject> {
    let mut good = reader.pos();
    while let Some((start, line, terminated)) = reader.next_line()? {
        let head = line.trim();
        let outcome = if !terminated {
            Err(Reject::malformed(format!(
                "incomplete trailing line `{head}`"
            )))
        } else if head.is_empty() {
            Ok(())
        } else {
            record(reader, start, head)
        };
        match outcome {
            Ok(()) => good = reader.pos(),
            Err(Reject::Malformed {
                detail,
                mut saw_more,
            }) => {
                while let Some((_, line, terminated)) = reader.next_line()? {
                    saw_more |= terminated && is_record_start(line.trim());
                }
                if saw_more {
                    return Err(Reject::Corrupt(detail));
                }
                let torn = format!(
                    "dropped torn trailing record ({} byte(s) after the last complete \
                     record): {detail}",
                    reader.pos() - start
                );
                return Ok(Replayed {
                    good,
                    torn: Some(torn),
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Replayed { good, torn: None })
}

/// An append-mode handle on a log file, kept open across records.
/// Every method's error is the file's own I/O error.
#[derive(Debug)]
pub struct Appender {
    file: File,
    end: u64,
}

impl Appender {
    /// Open `path` for appending, creating it empty if it is missing.
    pub fn open(path: &Path) -> io::Result<Appender> {
        let file = OpenOptions::new().append(true).create(true).open(path)?;
        let end = file.metadata()?.len();
        Ok(Appender { file, end })
    }

    /// The file's length: the offset the next record lands at.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Cut the file back to `len` bytes (a torn tail's last good byte).
    pub fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.end = len;
        Ok(())
    }

    /// Append one record and return the offset it starts at. If the
    /// write fails part-way, the partial record is cut off again so the
    /// next append does not land after garbage.
    pub fn append(&mut self, record: &str) -> io::Result<u64> {
        let at = self.end;
        if let Err(e) = self.file.write_all(record.as_bytes()) {
            let _ = self.file.set_len(at);
            return Err(e);
        }
        self.end += record.len() as u64;
        Ok(at)
    }

    /// Flush the file's data and metadata to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Fsync the directory that holds `path`, so that a rename into it
/// survives power loss.
///
/// # Errors
///
/// Any error opening or syncing the directory.
pub fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Render a measurement section.
pub fn render_section(prefix: &str, m: &MeasuredWorkload) -> String {
    let mut out = format!(
        "{prefix} instructions {} cycles {}\n",
        m.instructions, m.cycles
    );
    out.push_str(&codec::to_text_with_counters(
        &m.histogram,
        &m.counters.to_pairs(),
    ));
    out.push_str("end\n");
    out
}

/// A parsed measurement section. The body is the codec text between
/// the head line and `end`, byte for byte as written.
#[derive(Debug)]
pub struct Section<'a> {
    /// The head line's words before `instructions`.
    pub prefix: &'a str,
    /// Instructions measured.
    pub instructions: u64,
    /// Cycles measured.
    pub cycles: u64,
    /// The codec text.
    pub body: Cow<'a, str>,
}

impl<'a> Section<'a> {
    /// Parse a head line, `<prefix> instructions <N> cycles <C>`.
    fn head(line: &'a str) -> Option<(&'a str, u64, u64)> {
        let (prefix, lengths) = line.trim().split_once(" instructions ")?;
        let (instructions, cycles) = lengths.split_once(" cycles ")?;
        Some((
            prefix.trim_end(),
            instructions.trim().parse().ok()?,
            cycles.trim().parse().ok()?,
        ))
    }

    /// Parse a whole section held in memory. Its last line must be
    /// `end`.
    ///
    /// # Errors
    ///
    /// A description of a bad head or a missing `end` line.
    pub fn split(text: &'a str) -> Result<Section<'a>, String> {
        let (head, rest) = text.split_once('\n').unwrap_or((text, ""));
        let (prefix, instructions, cycles) =
            Section::head(head).ok_or_else(|| format!("bad section head `{head}`"))?;
        let body = rest
            .strip_suffix('\n')
            .unwrap_or(rest)
            .strip_suffix("end")
            .filter(|body| body.is_empty() || body.ends_with('\n'))
            .ok_or_else(|| format!("`{prefix}` does not end with an `end` line"))?;
        Ok(Section {
            prefix,
            instructions,
            cycles,
            body: Cow::Borrowed(body),
        })
    }

    /// Read the rest of the section whose head line `head` a
    /// [`replay`] just handed over, through its terminated `end`. A head
    /// that does not parse, or a log that ends inside the body, is
    /// [`Reject::Malformed`].
    ///
    /// # Errors
    ///
    /// [`Reject`] as above, or on a read failure.
    pub fn read<R: BufRead>(
        reader: &mut LineReader<R>,
        head: &'a str,
        is_record_start: impl Fn(&str) -> bool,
    ) -> Result<Section<'a>, Reject> {
        let (prefix, instructions, cycles) = Section::head(head)
            .ok_or_else(|| Reject::malformed(format!("bad section head `{head}`")))?;
        let mut body = String::new();
        let mut saw_more = false;
        while let Some((_, line, terminated)) = reader.next_line()? {
            if !terminated {
                break;
            }
            if line.trim() == "end" {
                return Ok(Section {
                    prefix,
                    instructions,
                    cycles,
                    body: Cow::Owned(body),
                });
            }
            saw_more |= is_record_start(line.trim());
            body.push_str(&line);
            body.push('\n');
        }
        Err(Reject::Malformed {
            detail: format!("`{prefix}` has no `end` line"),
            saw_more,
        })
    }

    /// Decode the body into the measurement it records; `name` restores
    /// the workload label, which the section does not carry.
    ///
    /// # Errors
    ///
    /// The codec's description of the first malformed line.
    pub fn decode(&self, name: &'static str) -> Result<MeasuredWorkload, String> {
        let (histogram, pairs) =
            codec::from_text_with_counters(&self.body).map_err(|e| e.to_string())?;
        let counters = vax_mem::HwCounters::from_pairs(pairs.iter().map(|(n, v)| (n.as_str(), *v)));
        Ok(MeasuredWorkload {
            name,
            histogram,
            counters,
            instructions: self.instructions,
            cycles: self.cycles,
        })
    }
}
