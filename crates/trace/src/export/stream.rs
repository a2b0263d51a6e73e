//! Streaming trace export: incremental writers over [`io::Write`].
//!
//! The string-returning exporters in [`crate::export`] materialize the whole
//! serialized trace before anything leaves the process — fine for a unit
//! test, hopeless for sweep-scale traces (a single BERT-Base run already
//! serializes to ~200 KB; a model-fleet sweep is thousands of runs). Every
//! writer here instead emits spans *as they arrive*: peak memory is one
//! reusable line buffer per writer (one evaluation run's spans for folded
//! stacks, which need the run's parent tree), independent of total trace
//! size.
//!
//! Three formats share one contract:
//!
//! * **span JSON** — [`SpanJsonWriter`] (the `[{span},...]` array the
//!   offline-analysis pipeline reads) and [`SpanJsonLinesWriter`] (one span
//!   object per line, the streaming interchange format; concatenable, and
//!   readable back without loading the file via [`SpanJsonLinesReader`]).
//! * **Chrome trace events** — [`ChromeTraceWriter`], loadable in
//!   `chrome://tracing` / Perfetto.
//! * **folded stacks** — [`FoldedStacksWriter`], Brendan-Gregg format for
//!   `flamegraph.pl` / speedscope.
//!
//! The JSON writers emit bytes directly: no `serde_json` value tree, no
//! per-field or per-tag allocation. Each owns one line buffer that it
//! clears, fills with one span (separator included) and hands to the
//! output in a single `write_all`, so an unbuffered `File` or socket sees
//! one write per span. The emitted bytes are exactly what the vendored
//! `serde_json` renders for the same value (field order, string escaping,
//! float formatting); a proptest keeps the value tree as the oracle.
//!
//! The string exporters in [`crate::export`] are thin wrappers over these
//! writers, so streamed bytes are *identical* to materialized bytes — the
//! golden tests pin that equivalence, and the engine's determinism contract
//! (serial output == parallel output) extends to every exported artifact.

use crate::correlate::CorrelatedTrace;
use crate::server::Trace;
use crate::span::{Span, StackLevel, TagValue};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Error produced by the streaming readers: an I/O failure or a line that
/// is not a valid span object.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line failed to parse as span JSON (or is not UTF-8); carries the
    /// 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// The parse error; its offset is relative to the line.
        source: serde_json::Error,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "I/O error while reading spans: {e}"),
            ReadError::Parse { line, source } => {
                write!(f, "line {line} is not a span object: {source}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Appends `s` as a JSON string literal, escaped like the vendored
/// `serde_json`: `"`, `\`, `\n`, `\r`, `\t` by name, other control
/// characters as `\u00xx`, everything else (non-ASCII included) verbatim.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    buf.push(b'"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        buf.extend_from_slice(&bytes[start..i]);
        start = i + 1;
        match b {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            _ => buf.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
    }
    buf.extend_from_slice(&bytes[start..]);
    buf.push(b'"');
}

fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

fn push_i64(buf: &mut Vec<u8>, v: i64) {
    if v < 0 {
        buf.push(b'-');
    }
    push_u64(buf, v.unsigned_abs());
}

/// Appends a float the way `serde_json::Number` displays one: `null` when
/// non-finite, and integral values keep a `.0` so they re-parse as floats.
fn push_f64(buf: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        buf.extend_from_slice(b"null");
        return;
    }
    write!(buf, "{v}").expect("writing to a Vec cannot fail");
    if v.fract() == 0.0 {
        buf.extend_from_slice(b".0");
    }
}

/// Appends a tag's bare value (a Chrome `args` entry).
fn push_tag_value(buf: &mut Vec<u8>, v: &TagValue) {
    match v {
        TagValue::Str(s) => push_str(buf, s),
        TagValue::I64(i) => push_i64(buf, *i),
        TagValue::U64(u) => push_u64(buf, *u),
        TagValue::F64(f) => push_f64(buf, *f),
        TagValue::Bool(b) => buf.extend_from_slice(if *b { b"true" } else { b"false" }),
    }
}

/// Appends `span` as one span-JSON object: the bytes
/// `serde_json::to_string(span)` renders, fields in declaration order,
/// enums externally tagged.
fn push_span_json(buf: &mut Vec<u8>, span: &Span) {
    buf.extend_from_slice(b"{\"id\":");
    push_u64(buf, span.id.0);
    buf.extend_from_slice(b",\"trace_id\":");
    push_u64(buf, span.trace_id.0);
    buf.extend_from_slice(b",\"name\":");
    push_str(buf, &span.name);
    buf.extend_from_slice(match span.level {
        StackLevel::Application => b",\"level\":\"Application\",\"start_ns\":",
        StackLevel::Model => b",\"level\":\"Model\",\"start_ns\":",
        StackLevel::Layer => b",\"level\":\"Layer\",\"start_ns\":",
        StackLevel::Library => b",\"level\":\"Library\",\"start_ns\":",
        StackLevel::Kernel => b",\"level\":\"Kernel\",\"start_ns\":",
    });
    push_u64(buf, span.start_ns);
    buf.extend_from_slice(b",\"end_ns\":");
    push_u64(buf, span.end_ns);
    buf.extend_from_slice(b",\"parent\":");
    match span.parent {
        Some(p) => push_u64(buf, p.0),
        None => buf.extend_from_slice(b"null"),
    }
    buf.extend_from_slice(b",\"tags\":[");
    for (i, (key, value)) in span.tags.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.push(b'[');
        push_str(buf, key);
        buf.extend_from_slice(match value {
            TagValue::Str(_) => b",{\"Str\":",
            TagValue::I64(_) => b",{\"I64\":",
            TagValue::U64(_) => b",{\"U64\":",
            TagValue::F64(_) => b",{\"F64\":",
            TagValue::Bool(_) => b",{\"Bool\":",
        });
        push_tag_value(buf, value);
        buf.extend_from_slice(b"}]");
    }
    buf.extend_from_slice(b"],\"logs\":[");
    for (i, log) in span.logs.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        buf.extend_from_slice(b"{\"at_ns\":");
        push_u64(buf, log.at_ns);
        buf.extend_from_slice(b",\"message\":");
        push_str(buf, &log.message);
        buf.push(b'}');
    }
    buf.extend_from_slice(b"]}");
}

/// One entry of a Chrome event's `args` object.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Id(u64),
    Tag(&'a TagValue),
}

/// Appends `span` as one Chrome "X" (complete) event. `args` holds
/// `span_id`, then `parent` when set, then the tags, with JSON-object
/// semantics: each key appears once, at its first position, carrying its
/// last value — so a tag named `span_id` or `parent`, or a repeated tag
/// key, overrides rather than duplicates.
fn push_chrome_event(buf: &mut Vec<u8>, span: &Span) {
    buf.extend_from_slice(b"{\"name\":");
    push_str(buf, &span.name);
    buf.extend_from_slice(b",\"cat\":\"");
    buf.extend_from_slice(span.level.label().as_bytes());
    buf.extend_from_slice(b"\",\"ph\":\"X\",\"ts\":");
    push_f64(buf, span.start_ns as f64 / 1e3);
    buf.extend_from_slice(b",\"dur\":");
    push_f64(buf, span.duration_ns() as f64 / 1e3);
    buf.extend_from_slice(b",\"pid\":");
    push_u64(buf, span.trace_id.0);
    buf.extend_from_slice(b",\"tid\":");
    push_u64(buf, u64::from(span.level.rank()));
    buf.extend_from_slice(b",\"args\":{");

    let fixed = 1 + usize::from(span.parent.is_some());
    let entry = |i: usize| -> (&str, Arg<'_>) {
        match (i, span.parent) {
            (0, _) => ("span_id", Arg::Id(span.id.0)),
            (1, Some(p)) => ("parent", Arg::Id(p.0)),
            _ => {
                let (key, value) = &span.tags[i - fixed];
                (key, Arg::Tag(value))
            }
        }
    };
    let n = fixed + span.tags.len();
    for i in 0..n {
        let (key, value) = entry(i);
        if (0..i).any(|j| entry(j).0 == key) {
            continue;
        }
        let value = (i + 1..n)
            .rev()
            .map(entry)
            .find(|(k, _)| *k == key)
            .map_or(value, |(_, v)| v);
        // Entry 0 (`span_id`) is never a repeat, so it is always written first.
        if i > 0 {
            buf.push(b',');
        }
        push_str(buf, key);
        buf.push(b':');
        match value {
            Arg::Id(id) => push_u64(buf, id),
            Arg::Tag(tag) => push_tag_value(buf, tag),
        }
    }
    buf.extend_from_slice(b"}}");
}

/// Incremental writer for the span-JSON *array* format — byte-compatible
/// with [`crate::export::to_span_json`], which wraps it.
///
/// ```
/// use xsp_trace::export::stream::SpanJsonWriter;
/// use xsp_trace::{SpanBuilder, StackLevel, TraceId};
/// let span = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1)).start(0).finish(5);
/// let mut w = SpanJsonWriter::new(Vec::new()).unwrap();
/// w.write_span(&span).unwrap();
/// let bytes = w.finish().unwrap();
/// assert!(bytes.starts_with(b"[{") && bytes.ends_with(b"}]"));
/// ```
#[derive(Debug)]
pub struct SpanJsonWriter<W: Write> {
    out: W,
    line: Vec<u8>,
    written: usize,
}

impl<W: Write> SpanJsonWriter<W> {
    /// Opens the array.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"[")?;
        Ok(Self {
            out,
            line: Vec::new(),
            written: 0,
        })
    }

    /// Appends one span (one `write_all`, separator included).
    pub fn write_span(&mut self, span: &Span) -> io::Result<()> {
        self.line.clear();
        if self.written > 0 {
            self.line.push(b',');
        }
        push_span_json(&mut self.line, span);
        self.out.write_all(&self.line)?;
        self.written += 1;
        Ok(())
    }

    /// Appends every span of `trace`.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Number of spans written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Closes the array, flushes, and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(b"]")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Incremental writer for span-JSON-*lines*: one span object per line.
///
/// This is the streaming interchange format — outputs are concatenable
/// (append two exports, get one valid trace), resumable after a crash up to
/// the last complete line, and readable back incrementally by
/// [`SpanJsonLinesReader`] without ever holding the file in memory.
#[derive(Debug)]
pub struct SpanJsonLinesWriter<W: Write> {
    out: W,
    line: Vec<u8>,
    written: usize,
}

impl<W: Write> SpanJsonLinesWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            line: Vec::new(),
            written: 0,
        }
    }

    /// Appends one span as a single line (one `write_all`).
    pub fn write_span(&mut self, span: &Span) -> io::Result<()> {
        self.line.clear();
        push_span_json(&mut self.line, span);
        self.line.push(b'\n');
        self.out.write_all(&self.line)?;
        self.written += 1;
        Ok(())
    }

    /// Appends every span of `trace`, one line each.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Number of spans written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes without consuming the writer (for long-lived sinks that
    /// outlive many sweep points).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader for span-JSON-lines: yields one [`Span`] per line,
/// holding only the current line in memory. Blank lines are skipped, so
/// concatenated or hand-edited exports stay readable. A line that is not
/// UTF-8 is a [`ReadError::Parse`] at that line, offset at its first
/// invalid byte.
#[derive(Debug)]
pub struct SpanJsonLinesReader<R: BufRead> {
    input: R,
    line: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> SpanJsonLinesReader<R> {
    /// Creates a reader over `input`.
    pub fn new(input: R) -> Self {
        Self {
            input,
            line: 0,
            buf: Vec::new(),
        }
    }
}

impl<R: BufRead> Iterator for SpanJsonLinesReader<R> {
    type Item = Result<Span, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            self.line += 1;
            match self.input.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {
                    let parsed = match std::str::from_utf8(&self.buf) {
                        Ok(text) => {
                            let text = text.trim_end_matches(['\n', '\r']);
                            if text.trim().is_empty() {
                                continue;
                            }
                            serde_json::from_str::<Span>(text)
                        }
                        Err(e) => Err(serde_json::Error::Syntax {
                            message: "invalid UTF-8".to_owned(),
                            offset: e.valid_up_to(),
                        }),
                    };
                    return Some(parsed.map_err(|source| ReadError::Parse {
                        line: self.line,
                        source,
                    }));
                }
                Err(e) => return Some(Err(ReadError::Io(e))),
            }
        }
    }
}

/// Reads a complete span-JSON-lines stream back into a [`Trace`] — the
/// round-trip inverse of [`SpanJsonLinesWriter`].
pub fn read_span_json_lines<R: BufRead>(input: R) -> Result<Trace, ReadError> {
    let spans: Vec<Span> = SpanJsonLinesReader::new(input).collect::<Result<_, _>>()?;
    Ok(Trace::from_spans(spans))
}

/// Incremental writer for Chrome trace-event JSON — byte-compatible with
/// [`crate::export::to_chrome_trace`], which wraps it. Each stack level maps
/// to its own "thread" row so the across-stack timeline reads top-down like
/// Figure 1 of the paper; each evaluation run becomes a "process" row.
#[derive(Debug)]
pub struct ChromeTraceWriter<W: Write> {
    out: W,
    line: Vec<u8>,
    written: usize,
}

impl<W: Write> ChromeTraceWriter<W> {
    /// Opens the `traceEvents` envelope.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"{\"traceEvents\":[")?;
        Ok(Self {
            out,
            line: Vec::new(),
            written: 0,
        })
    }

    /// Appends one span as an "X" (complete) event (one `write_all`,
    /// separator included).
    pub fn write_span(&mut self, span: &Span) -> io::Result<()> {
        self.line.clear();
        if self.written > 0 {
            self.line.push(b',');
        }
        push_chrome_event(&mut self.line, span);
        self.out.write_all(&self.line)?;
        self.written += 1;
        Ok(())
    }

    /// Appends every span of `trace`.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Number of events written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes without consuming the writer (the envelope stays open for
    /// more events).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Closes the envelope and flushes without consuming the writer — for
    /// long-lived sinks whose writer half lives inside an enum. Close
    /// exactly once; a later `write_span` would write past the trailer.
    pub fn close(&mut self) -> io::Result<()> {
        self.out.write_all(b"]}")?;
        self.out.flush()
    }

    /// Closes the envelope, flushes, and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.close()?;
        Ok(self.out)
    }
}

/// Incremental writer for Brendan-Gregg folded-stack output — one line per
/// span with self-time, `model_prediction;conv2d/Conv2D;volta_scudnn 1234`
/// (weight = self time in microseconds).
///
/// Folded stacks need each span's children, so the streaming unit is one
/// *correlated run* ([`write_run`](FoldedStacksWriter::write_run)): peak
/// memory is the largest single run, not the whole export.
/// [`crate::export::to_folded_stacks`] wraps this writer.
#[derive(Debug)]
pub struct FoldedStacksWriter<W: Write> {
    out: W,
}

impl<W: Write> FoldedStacksWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Streams the folded stacks of one correlated trace (typically a
    /// single evaluation run) to the output, walking the trace's built-once
    /// root/children indices — no per-export adjacency rebuild.
    pub fn write_run(&mut self, trace: &CorrelatedTrace) -> io::Result<()> {
        let mut stack = Vec::new();
        for &r in trace.root_indices() {
            self.emit(trace, r, &mut stack)?;
        }
        Ok(())
    }

    fn emit(
        &mut self,
        trace: &CorrelatedTrace,
        idx: usize,
        stack: &mut Vec<String>,
    ) -> io::Result<()> {
        let span = &trace.spans()[idx].span;
        stack.push(span.name.replace([';', ' '], "_"));
        let kids = trace.child_indices(span.id);
        let child_time: u64 = kids
            .iter()
            .map(|&k| trace.spans()[k].span.duration_ns())
            .sum();
        let self_us = span.duration_ns().saturating_sub(child_time) / 1_000;
        if self_us > 0 || kids.is_empty() {
            writeln!(self.out, "{} {}", stack.join(";"), self_us.max(1))?;
        }
        for &k in kids {
            self.emit(trace, k, stack)?;
        }
        stack.pop();
        Ok(())
    }

    /// Flushes without consuming the writer (for long-lived sinks that
    /// outlive many sweep points).
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::reconstruct_parents;
    use crate::span::{SpanBuilder, StackLevel, TraceId};

    fn spans() -> Vec<Span> {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 4u64)
            .finish(1_000_000);
        let pid = model.id;
        let layer = SpanBuilder::new("conv2d/Conv2D", StackLevel::Layer, TraceId(1))
            .start(1_000)
            .parent(pid)
            .tag("occ", 0.25f64)
            .finish(500_000);
        vec![model, layer]
    }

    #[test]
    fn array_writer_matches_materialized_exporter() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonWriter::new(Vec::new()).unwrap();
        w.write_trace(&trace).unwrap();
        assert_eq!(w.written(), 2);
        let streamed = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(
            streamed,
            serde_json::to_string(trace.spans()).unwrap(),
            "array framing must be byte-compatible with serde_json"
        );
    }

    #[test]
    fn empty_array_is_valid() {
        let w = SpanJsonWriter::new(Vec::new()).unwrap();
        assert_eq!(w.finish().unwrap(), b"[]");
    }

    #[test]
    fn json_lines_round_trip() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
        let back = read_span_json_lines(&bytes[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.spans()[0].name, "predict");
        assert_eq!(back.spans()[1].parent, trace.spans()[1].parent);
        assert_eq!(back.spans()[0].tag("batch_size").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn json_lines_skip_blank_lines() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.extend_from_slice(b"\n\n");
        let back = read_span_json_lines(&bytes[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn json_lines_report_bad_line_numbers() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.extend_from_slice(b"not a span\n");
        match read_span_json_lines(&bytes[..]) {
            Err(ReadError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn json_lines_report_invalid_utf8_as_a_parse_error_at_its_line() {
        let trace = Trace::from_spans(spans());
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&trace).unwrap();
        let mut bytes = w.finish().unwrap();
        bytes.extend_from_slice(b"{\"name\":\"ab\xffcd\"}\n");
        match read_span_json_lines(&bytes[..]) {
            Err(ReadError::Parse {
                line,
                source: serde_json::Error::Syntax { message, offset },
            }) => {
                assert_eq!(line, 3);
                assert_eq!(offset, 11, "offset of the 0xff byte within the line");
                assert_eq!(message, "invalid UTF-8");
            }
            other => panic!("expected a parse error at line 3, got {other:?}"),
        }
    }

    /// A `Write` that accepts everything and counts the calls it receives.
    #[derive(Default)]
    struct CountingWrite {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_writers_make_one_write_per_span() {
        let trace = Trace::from_spans(spans());
        let n = trace.len();

        let mut w = SpanJsonWriter::new(CountingWrite::default()).unwrap();
        w.write_trace(&trace).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.writes, n + 2, "`[`, one per span, `]`");
        assert_eq!(out.bytes, crate::export::to_span_json(&trace).as_bytes());

        let mut w = SpanJsonLinesWriter::new(CountingWrite::default());
        w.write_trace(&trace).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.writes, n, "one per span, newline included");

        let mut w = ChromeTraceWriter::new(CountingWrite::default()).unwrap();
        w.write_trace(&trace).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.writes, n + 2, "envelope open, one per event, close");
        assert_eq!(out.bytes, crate::export::to_chrome_trace(&trace).as_bytes());
    }

    #[test]
    fn concatenated_streams_stay_readable() {
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        w.write_trace(&Trace::from_spans(spans())).unwrap();
        let mut bytes = w.finish().unwrap();
        let mut w2 = SpanJsonLinesWriter::new(Vec::new());
        w2.write_trace(&Trace::from_spans(spans())).unwrap();
        bytes.extend_from_slice(&w2.finish().unwrap());
        assert_eq!(read_span_json_lines(&bytes[..]).unwrap().len(), 4);
    }

    #[test]
    fn chrome_writer_emits_valid_envelope() {
        let trace = Trace::from_spans(spans());
        let mut w = ChromeTraceWriter::new(Vec::new()).unwrap();
        w.write_trace(&trace).unwrap();
        let json = String::from_utf8(w.finish().unwrap()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[1]["tid"], 2);
    }

    #[test]
    fn folded_writer_streams_runs() {
        let c = reconstruct_parents(&Trace::from_spans(spans()));
        let mut w = FoldedStacksWriter::new(Vec::new());
        w.write_run(&c).unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(out.contains("predict;conv2d/Conv2D "), "{out}");
    }
}
