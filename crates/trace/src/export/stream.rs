//! Streaming trace export: incremental writers over [`io::Write`].
//!
//! A serialized trace is never materialized before it leaves the process:
//! a single BERT-Base run already serializes to ~200 KB, and a model-fleet
//! sweep is thousands of runs. Every writer here emits spans *as they
//! arrive*: peak memory is one reusable line buffer per writer (one
//! evaluation run's spans for folded stacks, which need the run's parent
//! tree), independent of total trace size.
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
//! [`SpanJsonLinesReader`] is the writers' inverse and builds no value tree
//! either: it parses each line straight into a [`Span`], in any field
//! order, with JSON whitespace anywhere, every escape and the vendored
//! parser's number rules, sizing tag and log vectors exactly. Its hand-off
//! rule: a line whose meaning depends on value-tree rules (a duplicate,
//! unknown or missing key, a mistyped value, a tag object without exactly
//! one key, `{"F64":null}`, any syntax error) goes to
//! `serde_json::from_str::<Span>` instead. So the lines it accepts, the
//! spans it builds and every error it reports (message and offset) are
//! the value tree's by construction, and a proptest checks it against that
//! oracle on bent writer lines. On top, it refuses a span that ends before
//! it starts. Names, tag keys and string values are shared for the whole
//! stream: a string seen before is a clone of its first [`Name`], and a
//! new one is copied into the reader's `NameArena`, so reading a span
//! allocates its tag vector and, when it has logs, its log vector and
//! messages.
//!
//! A writer over a `Vec<u8>` is how a test or a fingerprint gets the bytes
//! in memory: there is no separate string exporter to drift from the
//! streamed bytes. The golden tests pin those bytes, and the engine's
//! determinism contract (serial output == parallel output) extends to
//! every exported artifact.

use crate::correlate::CorrelatedTrace;
use crate::fxhash::FxHashSet;
use crate::intern::{Name, NameArena};
use crate::server::Trace;
use crate::span::{LogEvent, Span, SpanId, StackLevel, TagValue, TraceId};
use std::borrow::Cow;
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

/// Parses one span-JSON object straight into a [`Span`] — the inverse of
/// [`push_span_json`], with no value tree in between — or returns `None`
/// to hand the line to `serde_json::from_str::<Span>`.
///
/// It takes fields in any order, JSON whitespace anywhere, every escape
/// the vendored parser takes, and numbers by that parser's rules, so on
/// every line it accepts it builds exactly the span the value tree would.
/// It declines wherever the outcome hinges on value-tree semantics: a
/// duplicate, unknown or missing key, a mistyped value, a tag object
/// without exactly one key, `{"F64":null}`, and any syntax error. The
/// caller's fallback then yields today's span or today's error, offset
/// and message included. Names, tag keys and string values come from
/// `names`, so a string the stream repeats is shared, not copied. `tags`
/// and `logs` are scratch space, reused across calls so the span's own
/// vectors are allocated at their exact length.
fn parse_span_json(
    text: &str,
    names: &mut StreamNames,
    tags: &mut Vec<(Name, TagValue)>,
    logs: &mut Vec<LogEvent>,
) -> Option<Span> {
    tags.clear();
    logs.clear();
    let mut p = JsonCursor::new(text);
    let (mut id, mut trace_id, mut name, mut level) = (None, None, None, None);
    let (mut start_ns, mut end_ns, mut parent) = (None, None, None);
    let (mut has_tags, mut has_logs) = (false, false);
    p.object(|p, key| {
        match key {
            "id" if id.is_none() => id = Some(SpanId(p.u64()?)),
            "trace_id" if trace_id.is_none() => trace_id = Some(TraceId(p.u64()?)),
            "name" if name.is_none() => name = Some(p.name(names)?),
            "level" if level.is_none() => {
                level = Some(match &*p.string()? {
                    "Application" => StackLevel::Application,
                    "Model" => StackLevel::Model,
                    "Layer" => StackLevel::Layer,
                    "Library" => StackLevel::Library,
                    "Kernel" => StackLevel::Kernel,
                    _ => return None,
                })
            }
            "start_ns" if start_ns.is_none() => start_ns = Some(p.u64()?),
            "end_ns" if end_ns.is_none() => end_ns = Some(p.u64()?),
            "parent" if parent.is_none() => parent = Some(p.null_or_u64()?.map(SpanId)),
            "tags" if !has_tags => {
                has_tags = true;
                p.array(|p| {
                    tags.push(p.tag(names)?);
                    Some(())
                })?;
            }
            "logs" if !has_logs => {
                has_logs = true;
                p.array(|p| {
                    logs.push(p.log()?);
                    Some(())
                })?;
            }
            // A repeated or unknown key.
            _ => return None,
        }
        Some(())
    })?;
    if !(has_tags && has_logs && p.at_end()) {
        return None;
    }
    Some(Span {
        id: id?,
        trace_id: trace_id?,
        name: name?,
        level: level?,
        start_ns: start_ns?,
        end_ns: end_ns?,
        parent: parent?,
        tags: take_exact(tags),
        logs: take_exact(logs),
    })
}

/// The interner a [`SpanJsonLinesReader`] holds for its whole stream: a
/// string seen before is a clone of its first [`Name`], a new one is copied
/// into the reader's `NameArena`.
///
/// The set stops taking strings at [`StreamNames::MAX_NAMES`] entries or
/// [`StreamNames::MAX_BYTES`] bytes of text; later new strings still go
/// to the arena, whose blocks die with the spans that use them. A stream
/// of ever-new strings then keeps no table that outgrows its spans.
#[derive(Debug)]
struct StreamNames {
    seen: FxHashSet<Name>,
    bytes: usize,
    arena: NameArena,
    /// Decoding buffer for escaped strings.
    scratch: String,
}

impl StreamNames {
    const MAX_NAMES: usize = 1 << 16;
    const MAX_BYTES: usize = 4 << 20;
    /// Set capacity a reader starts with: a profile's distinct strings
    /// number in the hundreds.
    const INITIAL_NAMES: usize = 64;

    fn new() -> Self {
        Self {
            seen: FxHashSet::with_capacity_and_hasher(Self::INITIAL_NAMES, Default::default()),
            bytes: 0,
            arena: NameArena::new(),
            scratch: String::new(),
        }
    }

    fn share(&mut self, text: &str) -> Name {
        if let Some(name) = self.seen.get(text) {
            return name.clone();
        }
        let name = self.arena.alloc(text);
        if self.seen.len() < Self::MAX_NAMES && self.bytes + text.len() <= Self::MAX_BYTES {
            self.bytes += text.len();
            self.seen.insert(name.clone());
        }
        name
    }
}

/// Moves `scratch`'s items into a vector of exactly their length, leaving
/// `scratch` empty with its capacity kept for the next line.
fn take_exact<T>(scratch: &mut Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(scratch.len());
    out.append(scratch);
    out
}

/// Cursor of [`parse_span_json`]. Every method returns `None` where the
/// line needs the value tree's judgement.
struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.text.as_bytes().get(at).copied()
    }

    /// Skips JSON whitespace, then returns the next byte without taking it.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte(self.pos)
    }

    /// Skips whitespace and takes `byte`.
    fn eat(&mut self, byte: u8) -> Option<()> {
        (self.peek()? == byte).then(|| self.pos += 1)
    }

    fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }

    /// Skips whitespace and takes `word` if it comes next.
    fn literal(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// An object, each member's value parsed by `member` given its key.
    fn object(&mut self, mut member: impl FnMut(&mut Self, &str) -> Option<()>) -> Option<()> {
        self.eat(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Some(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            member(self, &key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// An array, each element parsed by `element`.
    fn array(&mut self, mut element: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.eat(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            return Some(());
        }
        loop {
            element(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    /// A string, borrowed from the line unless it holds an escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        let (start, end, escaped) = self.string_bounds()?;
        if !escaped {
            return Some(Cow::Borrowed(&self.text[start..end]));
        }
        let mut out = String::with_capacity(end - start);
        self.unescape(start, end, &mut out)?;
        Some(Cow::Owned(out))
    }

    /// A string as a [`Name`] from `names`; an escaped string is decoded
    /// into the table's scratch buffer, so only a new string allocates.
    fn name(&mut self, names: &mut StreamNames) -> Option<Name> {
        let (start, end, escaped) = self.string_bounds()?;
        if !escaped {
            return Some(names.share(&self.text[start..end]));
        }
        let mut out = std::mem::take(&mut names.scratch);
        out.clear();
        self.unescape(start, end, &mut out)?;
        let name = names.share(&out);
        names.scratch = out;
        Some(name)
    }

    /// Steps over a string literal; returns the byte range between its
    /// quotes and whether it holds an escape.
    fn string_bounds(&mut self) -> Option<(usize, usize, bool)> {
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut escaped = false;
        loop {
            match *bytes.get(end)? {
                b'"' => break,
                b'\\' => {
                    escaped = true;
                    end += 2;
                }
                _ => end += 1,
            }
        }
        self.pos = end + 1;
        Some((start, end, escaped))
    }

    /// Decodes the escaped string literal body at `start..end` into `out`.
    fn unescape(&self, start: usize, end: usize, out: &mut String) -> Option<()> {
        let bytes = self.text.as_bytes();
        // Escapes only shrink, so the raw length sizes the decoded string.
        out.reserve(end - start);
        let mut at = start;
        while at < end {
            let run = bytes[at..end]
                .iter()
                .position(|&b| b == b'\\')
                .map_or(end, |i| at + i);
            out.push_str(&self.text[at..run]);
            if run == end {
                break;
            }
            at = run + 2;
            out.push(match bytes[run + 1] {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hi = self.hex4(at)?;
                    at += 4;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        if self.byte(at)? != b'\\' || self.byte(at + 1)? != b'u' {
                            return None;
                        }
                        let lo = self.hex4(at + 2)?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return None;
                        }
                        at += 6;
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    char::from_u32(code)?
                }
                _ => return None,
            });
        }
        Some(())
    }

    /// Four hex digits at `at` (the vendored parser also takes a `+`
    /// sign there; such lines are declined).
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.text.as_bytes().get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
    }

    /// A number's text, scanned exactly as the vendored parser scans it,
    /// and whether it is written as a float.
    fn number(&mut self) -> Option<(&'a str, bool)> {
        let digits = |p: &mut Self| {
            while matches!(p.byte(p.pos), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
        };
        let first = self.peek()?;
        let start = self.pos;
        match first {
            b'-' => self.pos += 1,
            b'0'..=b'9' => {}
            _ => return None,
        }
        digits(self);
        let mut is_float = false;
        if self.byte(self.pos) == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.byte(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.byte(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        Some((&self.text[start..self.pos], is_float))
    }

    /// A `u64` field: an integer the vendored parser reads as `PosInt`.
    fn u64(&mut self) -> Option<u64> {
        let (text, is_float) = self.number()?;
        if is_float {
            return None;
        }
        if text.len() <= 19 && text.bytes().all(|b| b.is_ascii_digit()) {
            // Nineteen digits cannot overflow; `str::parse` would agree.
            return Some(text.bytes().fold(0, |v, b| v * 10 + u64::from(b - b'0')));
        }
        text.parse().ok()
    }

    /// An `I64` tag value: `PosInt` within `i64`, or `NegInt`.
    fn i64(&mut self) -> Option<i64> {
        let (text, is_float) = self.number()?;
        if is_float {
            return None;
        }
        match text.parse::<u64>() {
            Ok(v) => i64::try_from(v).ok(),
            Err(_) => text.parse().ok(),
        }
    }

    /// An `F64` tag value: any number, integers converted through the
    /// `u64` → `i64` → `f64` ladder the value tree climbs (so `-0` is
    /// `+0.0`).
    fn f64(&mut self) -> Option<f64> {
        let (text, is_float) = self.number()?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Some(v as f64);
            }
            if let Ok(v) = text.parse::<i64>() {
                return Some(v as f64);
            }
        }
        text.parse().ok()
    }

    fn null_or_u64(&mut self) -> Option<Option<u64>> {
        if self.literal("null") {
            return Some(None);
        }
        self.u64().map(Some)
    }

    fn bool(&mut self) -> Option<bool> {
        if self.literal("true") {
            Some(true)
        } else if self.literal("false") {
            Some(false)
        } else {
            None
        }
    }

    /// One `[key,{"Variant":value}]` tag.
    fn tag(&mut self, names: &mut StreamNames) -> Option<(Name, TagValue)> {
        self.eat(b'[')?;
        let key = self.name(names)?;
        self.eat(b',')?;
        let mut value = None;
        self.object(|p, variant| {
            if value.is_some() {
                return None;
            }
            value = Some(match variant {
                "Str" => TagValue::Str(p.name(names)?),
                "I64" => TagValue::I64(p.i64()?),
                "U64" => TagValue::U64(p.u64()?),
                "F64" => TagValue::F64(p.f64()?),
                "Bool" => TagValue::Bool(p.bool()?),
                _ => return None,
            });
            Some(())
        })?;
        self.eat(b']')?;
        Some((key, value?))
    }

    /// One `{"at_ns":…,"message":…}` log entry.
    fn log(&mut self) -> Option<LogEvent> {
        let (mut at_ns, mut message) = (None, None);
        self.object(|p, key| match key {
            "at_ns" if at_ns.is_none() => {
                at_ns = Some(p.u64()?);
                Some(())
            }
            "message" if message.is_none() => {
                message = Some(p.string()?.into_owned());
                Some(())
            }
            _ => None,
        })?;
        Some(LogEvent {
            at_ns: at_ns?,
            message: message?,
        })
    }
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
/// with `serde_json::to_string` of the span slice, and the writer behind
/// the profile-level `to_span_json` fingerprint.
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
/// holding the current line and the stream's distinct strings (up to a
/// cap) in memory. Blank lines are skipped, so concatenated or
/// hand-edited exports stay readable. A line that is not UTF-8 is a
/// [`ReadError::Parse`] at that line, offset at its first invalid byte;
/// so is a span that ends before it starts. Lines are
/// parsed with no value tree, under the hand-off rule in the
/// [module docs](self).
#[derive(Debug)]
pub struct SpanJsonLinesReader<R: BufRead> {
    input: R,
    line: usize,
    buf: Vec<u8>,
    names: StreamNames,
    tags: Vec<(Name, TagValue)>,
    logs: Vec<LogEvent>,
}

impl<R: BufRead> SpanJsonLinesReader<R> {
    /// Line-buffer capacity a reader starts with: a profiled span's line
    /// is a few hundred bytes, so the buffer rarely grows.
    const LINE_CAPACITY: usize = 1 << 10;
    /// Tag-scratch capacity a reader starts with; a profiled span carries
    /// up to a dozen tags.
    const TAG_CAPACITY: usize = 16;

    /// Creates a reader over `input`.
    pub fn new(input: R) -> Self {
        Self {
            input,
            line: 0,
            buf: Vec::with_capacity(Self::LINE_CAPACITY),
            names: StreamNames::new(),
            tags: Vec::with_capacity(Self::TAG_CAPACITY),
            logs: Vec::new(),
        }
    }
}

/// Refuses a span that ends before it starts: every duration computed
/// downstream subtracts its start from its end.
fn check_interval(span: Span) -> Result<Span, serde_json::Error> {
    if span.end_ns < span.start_ns {
        return Err(serde_json::Error::Data(format!(
            "span {} ends before it starts: end_ns {} < start_ns {}",
            span.id.0, span.end_ns, span.start_ns
        )));
    }
    Ok(span)
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
                            match parse_span_json(
                                text,
                                &mut self.names,
                                &mut self.tags,
                                &mut self.logs,
                            ) {
                                Some(span) => Ok(span),
                                None => serde_json::from_str::<Span>(text),
                            }
                            .and_then(check_interval)
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

/// Incremental writer for Chrome trace-event JSON. Each stack level maps
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
#[derive(Debug)]
pub struct FoldedStacksWriter<W: Write> {
    out: W,
    written: usize,
}

impl<W: Write> FoldedStacksWriter<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        Self { out, written: 0 }
    }

    /// Streams the folded stacks of one correlated trace (typically a
    /// single evaluation run) to the output, depth first, walking the
    /// trace's built-once root/children indices — no per-export adjacency
    /// rebuild. The walk keeps its own stack, so a parent chain of any
    /// depth costs heap, not call stack. A span already on the current
    /// path is not entered again: spans that reuse an id can make a parent
    /// chain loop, and the walk must still end.
    pub fn write_run(&mut self, trace: &CorrelatedTrace) -> io::Result<()> {
        // The `;`-joined names from the root to the current span.
        let mut path = String::new();
        let mut on_path = vec![false; trace.len()];
        // Per span on the path: its index, its siblings still to visit, and
        // the path length before its name was appended.
        let mut open: Vec<(usize, &[usize], usize)> = Vec::new();
        let mut next = trace.root_indices();
        loop {
            let Some((&idx, siblings)) = next.split_first() else {
                // Every child of the innermost open span is done: close it.
                let Some((idx, siblings, len)) = open.pop() else {
                    break;
                };
                on_path[idx] = false;
                path.truncate(len);
                next = siblings;
                continue;
            };
            if on_path[idx] {
                next = siblings;
                continue;
            }
            let span = &trace.spans()[idx].span;
            let len = path.len();
            if !open.is_empty() {
                path.push(';');
            }
            on_path[idx] = true;
            open.push((idx, siblings, len));
            path.extend(
                span.name
                    .chars()
                    .map(|c| if c == ';' || c == ' ' { '_' } else { c }),
            );
            let kids = trace.child_indices(span.id);
            let child_time: u64 = kids
                .iter()
                .map(|&k| trace.spans()[k].span.duration_ns())
                .sum();
            let self_us = span.duration_ns().saturating_sub(child_time) / 1_000;
            if self_us > 0 || kids.is_empty() {
                writeln!(self.out, "{path} {}", self_us.max(1))?;
            }
            next = kids;
        }
        self.written += 1;
        Ok(())
    }

    /// Number of runs written so far.
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

    #[test]
    fn json_lines_refuse_a_span_that_ends_before_it_starts() {
        let mut spans = spans();
        spans[1].start_ns = 500;
        spans[1].end_ns = 100;
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        for span in &spans {
            w.write_span(span).unwrap();
        }
        let bytes = w.finish().unwrap();
        match read_span_json_lines(&bytes[..]) {
            Err(ReadError::Parse {
                line,
                source: serde_json::Error::Data(message),
            }) => {
                assert_eq!(line, 2);
                assert!(message.contains("end_ns 100 < start_ns 500"), "{message}");
            }
            other => panic!("expected a parse error at line 2, got {other:?}"),
        }
    }

    /// Every line the writer emits, also re-spaced or with an escaped key,
    /// is taken by the direct parser, never handed to the value tree —
    /// except a non-finite `F64`, written as `null`, which the value tree
    /// refuses as well.
    #[test]
    fn direct_parser_takes_every_line_the_writer_emits() {
        const HOSTILE: [&str; 8] = [
            "",
            "model_prediction",
            "say \"hi\"",
            "back\\slash\\",
            "ctl\u{1}\u{1f}\u{0}",
            "tab\tnl\nret\r",
            "uni⟨code⟩ λ 😀",
            "del\u{7f}",
        ];
        let mut values: Vec<TagValue> = HOSTILE.iter().map(|s| TagValue::from(*s)).collect();
        values.extend([i64::MIN, -1, 0, i64::MAX].map(TagValue::I64));
        values.extend([0, 7, u64::MAX].map(TagValue::U64));
        values.extend(
            [
                -0.0,
                0.0,
                5e-324,
                1e300,
                -2.0,
                0.1,
                123.456,
                f64::MAX,
                f64::MIN,
            ]
            .map(TagValue::F64),
        );
        values.extend([true, false].map(TagValue::Bool));

        let (mut tags, mut logs) = (Vec::new(), Vec::new());
        let mut names = StreamNames::new();
        let mut line = Vec::new();
        for (i, name) in HOSTILE.iter().enumerate() {
            let i = i as u64;
            let span = Span {
                id: SpanId(u64::MAX - i),
                trace_id: TraceId(i),
                name: Name::from(*name),
                level: StackLevel::ALL[i as usize % StackLevel::ALL.len()],
                start_ns: i,
                end_ns: u64::MAX - i,
                parent: (i % 2 == 0).then_some(SpanId(i)),
                tags: values
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (Name::from(HOSTILE[j % HOSTILE.len()]), v.clone()))
                    .collect(),
                logs: HOSTILE
                    .iter()
                    .map(|m| crate::span::LogEvent {
                        at_ns: i,
                        message: (*m).to_owned(),
                    })
                    .collect(),
            };
            line.clear();
            push_span_json(&mut line, &span);
            let text = std::str::from_utf8(&line).unwrap();
            // No hostile string holds `:` or `,`, so these edits only
            // re-space and re-escape the line.
            let spaced = text.replace(':', " :\t").replace(',', "\r, ");
            let escaped = text.replace("\"level\"", "\"l\\u0065vel\"");
            for text in [text, &spaced, &escaped] {
                let parsed = parse_span_json(text, &mut names, &mut tags, &mut logs)
                    .unwrap_or_else(|| panic!("direct parser declined a valid line: {text}"));
                // Debug tells -0.0 from 0.0 and prints finite floats exactly.
                assert_eq!(format!("{parsed:?}"), format!("{span:?}"));
                assert_eq!(parsed.tags.capacity(), parsed.tags.len());
                assert_eq!(parsed.logs.capacity(), parsed.logs.len());
            }
        }

        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut span = spans().remove(0);
            span.tags = vec![(Name::from("occ"), TagValue::F64(f))];
            line.clear();
            push_span_json(&mut line, &span);
            let text = std::str::from_utf8(&line).unwrap();
            assert!(parse_span_json(text, &mut names, &mut tags, &mut logs).is_none());
            assert!(serde_json::from_str::<Span>(text).is_err());
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
        assert_eq!(
            out.bytes,
            serde_json::to_string(trace.spans()).unwrap().as_bytes()
        );

        let mut w = SpanJsonLinesWriter::new(CountingWrite::default());
        w.write_trace(&trace).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.writes, n, "one per span, newline included");

        let mut w = ChromeTraceWriter::new(CountingWrite::default()).unwrap();
        w.write_trace(&trace).unwrap();
        let out = w.finish().unwrap();
        assert_eq!(out.writes, n + 2, "envelope open, one per event, close");
        let mut w = ChromeTraceWriter::new(Vec::new()).unwrap();
        w.write_trace(&trace).unwrap();
        assert_eq!(
            out.bytes,
            w.finish().unwrap(),
            "write splitting keeps the bytes"
        );
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
        assert_eq!(w.written(), 1, "counts runs");
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(out.contains("predict;conv2d/Conv2D "), "{out}");
    }

    #[test]
    fn folded_writer_walks_a_deep_chain_on_a_small_stack() {
        // Span i parents span i + 1 and keeps 2 ns of self time, so only
        // the leaf gets a line. A walk that recursed once per level would
        // overflow the 256 KiB stack long before the leaf.
        use crate::correlate::{AmbiguityReport, CorrelatedSpan};
        const DEPTH: u64 = 100_000;
        let mut parent = None;
        let spans = (0..DEPTH)
            .map(|i| {
                let mut b = SpanBuilder::new(format!("s{i}"), StackLevel::Layer, TraceId(1));
                if let Some(p) = parent {
                    b = b.parent(p);
                }
                let span = b.start(i).finish(2 * DEPTH - i);
                parent = Some(span.id);
                CorrelatedSpan {
                    parent: span.parent,
                    span,
                    launch_interval: None,
                }
            })
            .collect();
        let trace = CorrelatedTrace::new(spans, AmbiguityReport::default());
        let out = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut w = FoldedStacksWriter::new(Vec::new());
                w.write_run(&trace).unwrap();
                w.finish().unwrap()
            })
            .unwrap()
            .join()
            .expect("the folded walk must not need a deep call stack");
        let names: Vec<String> = (0..DEPTH).map(|i| format!("s{i}")).collect();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("{} 1\n", names.join(";"))
        );
    }

    #[test]
    fn folded_writer_does_not_reenter_a_span_on_its_own_path() {
        // `inner` reuses `outer`'s id and names it as its parent, so the
        // children of that id include `inner` itself.
        use crate::correlate::{AmbiguityReport, CorrelatedSpan};
        let outer = SpanBuilder::new("outer", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(100_000);
        let mut inner = SpanBuilder::new("inner", StackLevel::Layer, TraceId(1))
            .start(10_000)
            .finish(15_000);
        inner.id = outer.id;
        let spans = [outer, inner]
            .into_iter()
            .map(|span| CorrelatedSpan {
                parent: (span.name == "inner").then_some(span.id),
                span,
                launch_interval: None,
            })
            .collect();
        let trace = CorrelatedTrace::new(spans, AmbiguityReport::default());
        let mut w = FoldedStacksWriter::new(Vec::new());
        w.write_run(&trace).unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(out, "outer 95\n");
    }

    #[test]
    fn folded_writer_keeps_separators_of_empty_names() {
        let root = SpanBuilder::new("", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(10_000);
        let child = SpanBuilder::new("", StackLevel::Layer, TraceId(1))
            .start(1_000)
            .parent(root.id)
            .finish(4_000);
        let c = reconstruct_parents(&Trace::from_spans(vec![root, child]));
        let mut w = FoldedStacksWriter::new(Vec::new());
        w.write_run(&c).unwrap();
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(out, " 7\n; 3\n");
    }
}
