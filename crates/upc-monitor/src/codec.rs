//! A compact text codec for histograms, so measurements can be stored and
//! re-analysed later (the paper kept raw histograms around as "a general
//! resource from which the answers to many questions ... can be obtained
//! simply by doing additional interpretation", §2.2).
//!
//! Format: a header line, optional `counter <name> <value>` lines for the
//! second instrument's hardware counters, then one line per non-zero
//! bucket:
//!
//! ```text
//! upc-histogram v1
//! counter ib_requests 123456
//! <addr-hex> <issue-count> <stall-count>
//! ```

use crate::Histogram;
use std::fmt;
use vax_ucode::MicroAddr;

/// Error parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Missing or wrong header line.
    BadHeader,
    /// A bucket line did not parse.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A bucket address outside the 16 K control store.
    AddrOutOfRange {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "missing `upc-histogram v1` header"),
            CodecError::BadLine { line } => write!(f, "malformed bucket at line {line}"),
            CodecError::AddrOutOfRange { line } => {
                write!(f, "bucket address out of range at line {line}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialize a histogram (non-zero buckets only).
pub fn to_text(hist: &Histogram) -> String {
    let mut out = String::from("upc-histogram v1\n");
    for (addr, issue, stall) in hist.nonzero() {
        out.push_str(&format!("{:x} {} {}\n", addr.value(), issue, stall));
    }
    out
}

/// Counter name/value pairs for the embedded second instrument.
pub type CounterPairs = Vec<(String, u64)>;

/// Serialize a histogram with the second instrument's counters embedded.
pub fn to_text_with_counters(hist: &Histogram, counters: &[(&str, u64)]) -> String {
    let mut out = String::from("upc-histogram v1\n");
    for (name, value) in counters {
        out.push_str(&format!("counter {name} {value}\n"));
    }
    for (addr, issue, stall) in hist.nonzero() {
        out.push_str(&format!("{:x} {} {}\n", addr.value(), issue, stall));
    }
    out
}

/// Parse the text format, returning the histogram and any embedded
/// counters.
///
/// # Errors
///
/// [`CodecError`] on any malformed input.
pub fn from_text_with_counters(text: &str) -> Result<(Histogram, CounterPairs), CodecError> {
    let mut counters = Vec::new();
    let mut rest = String::from("upc-histogram v1\n");
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("upc-histogram v1") {
        return Err(CodecError::BadHeader);
    }
    for (i, raw) in lines.enumerate() {
        let line = i + 2;
        let raw = raw.trim();
        if let Some(counter) = raw.strip_prefix("counter ") {
            let mut parts = counter.split_ascii_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(name), Some(v), None) => {
                    let value = v.parse().map_err(|_| CodecError::BadLine { line })?;
                    counters.push((name.to_string(), value));
                }
                _ => return Err(CodecError::BadLine { line }),
            }
        } else {
            rest.push_str(raw);
            rest.push('\n');
        }
    }
    let hist = from_text(&rest)?;
    Ok((hist, counters))
}

/// Parse the text format back into a histogram.
///
/// # Errors
///
/// [`CodecError`] on any malformed input.
pub fn from_text(text: &str) -> Result<Histogram, CodecError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("upc-histogram v1") {
        return Err(CodecError::BadHeader);
    }
    let mut hist = Histogram::new();
    for (i, raw) in lines.enumerate() {
        let line = i + 2;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let mut parts = raw.split_ascii_whitespace();
        let (a, iss, st) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(i), Some(s), None) => (a, i, s),
            _ => return Err(CodecError::BadLine { line }),
        };
        let addr = u16::from_str_radix(a, 16).map_err(|_| CodecError::BadLine { line })?;
        if usize::from(addr) >= MicroAddr::SPACE {
            return Err(CodecError::AddrOutOfRange { line });
        }
        let issue: u64 = iss.parse().map_err(|_| CodecError::BadLine { line })?;
        let stall: u64 = st.parse().map_err(|_| CodecError::BadLine { line })?;
        let addr = MicroAddr::new(addr);
        // A repeated bucket adds up; a sum past u64 is not a count.
        if hist.issue(addr).checked_add(issue).is_none()
            || hist.stall(addr).checked_add(stall).is_none()
        {
            return Err(CodecError::BadLine { line });
        }
        hist.add_issue(addr, issue);
        hist.add_stall(addr, stall);
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut h = Histogram::new();
        h.bump_issue(MicroAddr::new(0x10));
        h.bump_issue(MicroAddr::new(0x10));
        h.bump_stall(MicroAddr::new(0x10), 7);
        h.bump_issue(MicroAddr::new(0x3FFF));
        let text = to_text(&h);
        let back = from_text(&text).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::new();
        assert_eq!(from_text(&to_text(&h)).unwrap(), h);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(from_text("nope"), Err(CodecError::BadHeader));
        assert_eq!(
            from_text("upc-histogram v1\nzzz 1 2"),
            Err(CodecError::BadLine { line: 2 })
        );
        assert_eq!(
            from_text("upc-histogram v1\nffff 1 2"),
            Err(CodecError::AddrOutOfRange { line: 2 })
        );
        assert_eq!(
            from_text("upc-histogram v1\n10 1"),
            Err(CodecError::BadLine { line: 2 })
        );
        assert_eq!(
            from_text("upc-histogram v1\n10 18446744073709551615 0\n10 1 0"),
            Err(CodecError::BadLine { line: 3 })
        );
    }

    #[test]
    fn tolerates_blank_lines() {
        let h = from_text("upc-histogram v1\n\n10 1 0\n\n").unwrap();
        assert_eq!(h.issue(MicroAddr::new(0x10)), 1);
    }
}
