//! `.xspb` — the compact length-prefixed binary span interchange format.
//!
//! Span-JSON-lines is the human-debuggable interchange; `.xspb` is the
//! fast one. A stream is a 5-byte header (the magic `XSPB` plus a format
//! version byte) followed by length-prefixed records:
//!
//! | field   | size | meaning                                      |
//! |---------|------|----------------------------------------------|
//! | kind    | 1    | `0x01` name definition, `0x02` span          |
//! | length  | 4    | payload length, big-endian `u32`             |
//! | payload | len  | record body                                  |
//!
//! A **name record** (`0x01`) defines the next symbol of the stream's
//! string table: `[symbol: u32][utf-8 bytes]`. Symbols are dense and
//! sequential — record *n* must carry symbol id *n* — so the table is a
//! plain vector on both sides and the encoding is deterministic: writers
//! emit a name record at each string's first appearance, which makes
//! `.xspb` bytes a pure function of the span sequence (the
//! Serial-vs-`Fixed(4)` byte-identity test extends to this format).
//!
//! A **span record** (`0x02`) carries one span, all integers big-endian:
//! `[id: u64][trace_id: u64][name: sym u32][level: u8][flags: u8]`
//! `[parent: u64 if flags&1][start: u64][end: u64]`
//! `[tag_count: u32][tags...][log_count: u32][logs...]` where a tag is
//! `[key: sym u32][kind: u8][value]` (kind 0 `Str`: sym u32; 1 `I64`/2
//! `U64`: 8 bytes; 3 `F64`: 8-byte IEEE bits; 4 `Bool`: 1 byte) and a log
//! is `[at_ns: u64][len: u32][utf-8 bytes]`.
//!
//! The reader mirrors the paranoia of the daemon's `FrameReader`: the
//! length prefix is validated against [`MAX_RECORD_LEN`] *before* any
//! allocation, element counts are validated against the bytes actually
//! present before reserving, clean EOF (at a record boundary) is
//! distinguished from a torn record, and every failure is a structured
//! [`BinaryReadError`] — corrupted input can never panic or OOM the
//! process. Each name record becomes one shared [`Name`], and every span
//! that references its symbol holds a clone of that `Name`: reading a
//! capture into owned spans or into a [`SpanStore`] (via
//! [`SpanBinaryReader::read_into_store`]) makes one string allocation per
//! *distinct* string, not per span, and a name defined once is held once
//! however many spans use it.

use crate::intern::{Name, Symbol};
use crate::server::Trace;
use crate::span::{Span, SpanId, StackLevel, TagValue, TraceId};
use crate::store::{SpanStore, SpanView, TagRef};
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte magic every `.xspb` stream starts with.
pub const XSPB_MAGIC: [u8; 4] = *b"XSPB";

/// Current format version (the byte after the magic).
pub const XSPB_VERSION: u8 = 1;

/// Upper bound on a single record's payload, checked before allocation —
/// the same cap as the daemon's frame protocol.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

const REC_NAME: u8 = 0x01;
const REC_SPAN: u8 = 0x02;

const TAG_STR: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_BOOL: u8 = 4;

const FLAG_PARENT: u8 = 1;

/// Whether `prefix` starts with the `.xspb` magic — the format sniff the
/// CLI and the daemon use to route `--from` files and Append payloads.
/// Requires all four magic bytes; shorter prefixes never match.
pub fn is_xspb_prefix(prefix: &[u8]) -> bool {
    prefix.len() >= XSPB_MAGIC.len() && prefix[..XSPB_MAGIC.len()] == XSPB_MAGIC
}

/// What went wrong while decoding a `.xspb` stream.
#[derive(Debug)]
pub enum BinaryReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The stream does not start with the `XSPB` magic.
    BadMagic([u8; 4]),
    /// The stream's version byte is newer than this reader understands.
    UnsupportedVersion(u8),
    /// The stream ended inside a header or a record's promised payload.
    Truncated {
        /// Bytes actually present.
        have: usize,
        /// Bytes the stream promised.
        want: usize,
    },
    /// A record's length prefix exceeds [`MAX_RECORD_LEN`]; rejected
    /// before any allocation.
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// An unknown record kind byte.
    UnknownRecordKind(u8),
    /// An unknown tag-value kind byte inside a span record.
    UnknownTagKind(u8),
    /// A symbol reference with no prior name definition.
    BadSymbol(u32),
    /// A name or log message that is not valid UTF-8.
    Utf8,
    /// An invalid record: its fields disagree with the payload, or its
    /// span ends before it starts.
    Malformed(&'static str),
}

impl fmt::Display for BinaryReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryReadError::Io(e) => write!(f, "I/O error while reading spans: {e}"),
            BinaryReadError::BadMagic(m) => {
                write!(f, "not an .xspb stream (magic {m:02x?})")
            }
            BinaryReadError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .xspb version {v} (reader speaks {XSPB_VERSION})"
                )
            }
            BinaryReadError::Truncated { have, want } => {
                write!(f, "truncated record: {have} of {want} promised bytes")
            }
            BinaryReadError::Oversized { len } => {
                write!(f, "record length {len} exceeds cap {MAX_RECORD_LEN}")
            }
            BinaryReadError::UnknownRecordKind(k) => write!(f, "unknown record kind 0x{k:02x}"),
            BinaryReadError::UnknownTagKind(k) => write!(f, "unknown tag kind 0x{k:02x}"),
            BinaryReadError::BadSymbol(s) => write!(f, "undefined symbol {s}"),
            BinaryReadError::Utf8 => write!(f, "string payload is not valid UTF-8"),
            BinaryReadError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for BinaryReadError {}

impl From<io::Error> for BinaryReadError {
    fn from(e: io::Error) -> Self {
        BinaryReadError::Io(e)
    }
}

/// Streaming `.xspb` writer: emits the header on construction, then one
/// name record per distinct string (at first appearance) and one span
/// record per span.
///
/// ```
/// use xsp_trace::export::binary::{SpanBinaryWriter, SpanBinaryReader};
/// use xsp_trace::{SpanBuilder, StackLevel, TraceId};
/// let span = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1)).start(0).finish(5);
/// let mut w = SpanBinaryWriter::new(Vec::new()).unwrap();
/// w.write_span(&span).unwrap();
/// let bytes = w.finish().unwrap();
/// let back: Vec<_> = SpanBinaryReader::new(&bytes[..]).collect::<Result<_, _>>().unwrap();
/// assert_eq!(back, vec![span]);
/// ```
#[derive(Debug)]
pub struct SpanBinaryWriter<W: Write> {
    out: W,
    names: crate::intern::NameTable,
    written: usize,
    buf: Vec<u8>,
}

impl<W: Write> SpanBinaryWriter<W> {
    /// Writes the stream header and returns the writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&XSPB_MAGIC)?;
        out.write_all(&[XSPB_VERSION])?;
        Ok(Self {
            out,
            names: crate::intern::NameTable::new(),
            written: 0,
            buf: Vec::new(),
        })
    }

    /// Interns `name`, emitting a name record when it is new to the stream.
    fn sym(&mut self, name: &str) -> io::Result<Symbol> {
        if let Some(sym) = self.names.get(name) {
            return Ok(sym);
        }
        let sym = self.names.intern(name);
        let len = 4 + name.len();
        let len = u32::try_from(len)
            .ok()
            .filter(|&l| l <= MAX_RECORD_LEN)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "name exceeds the record cap")
            })?;
        self.out.write_all(&[REC_NAME])?;
        self.out.write_all(&len.to_be_bytes())?;
        self.out.write_all(&sym.0.to_be_bytes())?;
        self.out.write_all(name.as_bytes())?;
        Ok(sym)
    }

    /// Appends one span record (plus any name records it needs).
    pub fn write_span(&mut self, span: &Span) -> io::Result<()> {
        self.encode_span(
            span.id,
            span.trace_id,
            &span.name,
            span.level,
            span.parent,
            span.start_ns,
            span.end_ns,
            span.tags.len(),
            span.tags.iter().map(|(k, v)| (k.as_str(), TagRef::from(v))),
            span.logs.len(),
            span.logs.iter().map(|l| (l.at_ns, l.message.as_str())),
        )
    }

    /// Appends one span straight from a [`SpanStore`] view — no owned
    /// [`Span`] is materialized (the daemon's spill path).
    pub fn write_view(&mut self, view: SpanView<'_>) -> io::Result<()> {
        self.encode_span(
            view.id(),
            view.trace_id(),
            view.name(),
            view.level(),
            view.parent(),
            view.start_ns(),
            view.end_ns(),
            view.tag_count(),
            view.tags(),
            view.log_count(),
            view.logs(),
        )
    }

    /// Appends every span of `trace`.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        trace.spans().iter().try_for_each(|s| self.write_span(s))
    }

    /// Appends every span of `store`, in push order.
    pub fn write_store(&mut self, store: &SpanStore) -> io::Result<()> {
        store.iter().try_for_each(|v| self.write_view(v))
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_span<'x>(
        &mut self,
        id: SpanId,
        trace_id: TraceId,
        name: &str,
        level: StackLevel,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        tag_count: usize,
        tags: impl Iterator<Item = (&'x str, TagRef<'x>)>,
        log_count: usize,
        logs: impl Iterator<Item = (u64, &'x str)>,
    ) -> io::Result<()> {
        let name_sym = self.sym(name)?;
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.extend_from_slice(&id.0.to_be_bytes());
        buf.extend_from_slice(&trace_id.0.to_be_bytes());
        buf.extend_from_slice(&name_sym.0.to_be_bytes());
        buf.push(level.rank());
        match parent {
            Some(p) => {
                buf.push(FLAG_PARENT);
                buf.extend_from_slice(&p.0.to_be_bytes());
            }
            None => buf.push(0),
        }
        buf.extend_from_slice(&start_ns.to_be_bytes());
        buf.extend_from_slice(&end_ns.to_be_bytes());
        let count = |n: usize| {
            u32::try_from(n).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "span field count exceeds u32")
            })
        };
        buf.extend_from_slice(&count(tag_count)?.to_be_bytes());
        let mut encode = (|| {
            for (key, value) in tags {
                let key_sym = self.sym(key)?;
                buf.extend_from_slice(&key_sym.0.to_be_bytes());
                match value {
                    TagRef::Str(s) => {
                        let val_sym = self.sym(s)?;
                        buf.push(TAG_STR);
                        buf.extend_from_slice(&val_sym.0.to_be_bytes());
                    }
                    TagRef::I64(v) => {
                        buf.push(TAG_I64);
                        buf.extend_from_slice(&v.to_be_bytes());
                    }
                    TagRef::U64(v) => {
                        buf.push(TAG_U64);
                        buf.extend_from_slice(&v.to_be_bytes());
                    }
                    TagRef::F64(v) => {
                        buf.push(TAG_F64);
                        buf.extend_from_slice(&v.to_bits().to_be_bytes());
                    }
                    TagRef::Bool(v) => {
                        buf.push(TAG_BOOL);
                        buf.push(v as u8);
                    }
                }
            }
            buf.extend_from_slice(&count(log_count)?.to_be_bytes());
            for (at_ns, message) in logs {
                buf.extend_from_slice(&at_ns.to_be_bytes());
                buf.extend_from_slice(&count(message.len())?.to_be_bytes());
                buf.extend_from_slice(message.as_bytes());
            }
            io::Result::Ok(())
        })();
        if let Ok(()) = &mut encode {
            let len = u32::try_from(buf.len())
                .ok()
                .filter(|&l| l <= MAX_RECORD_LEN)
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "span exceeds the record cap")
                });
            encode = len.and_then(|len| {
                self.out.write_all(&[REC_SPAN])?;
                self.out.write_all(&len.to_be_bytes())?;
                self.out.write_all(&buf)?;
                self.written += 1;
                Ok(())
            });
        }
        self.buf = buf;
        encode
    }

    /// Number of spans written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes without consuming the writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A decoded record body, before symbol resolution.
enum Record {
    Name,
    Span(Span),
}

/// Streaming `.xspb` reader: yields one [`Span`] per span record,
/// maintaining the stream's symbol table as name records arrive.
///
/// Iteration yields `Result<Span, BinaryReadError>`; a clean EOF at a
/// record boundary ends the stream, EOF anywhere else is
/// [`BinaryReadError::Truncated`].
#[derive(Debug)]
pub struct SpanBinaryReader<R: Read> {
    src: R,
    names: Vec<Name>,
    buf: Vec<u8>,
    header_done: bool,
}

impl<R: Read> SpanBinaryReader<R> {
    /// Creates a reader over `src`; the header is validated on first read.
    pub fn new(src: R) -> Self {
        Self {
            src,
            names: Vec::new(),
            buf: Vec::new(),
            header_done: false,
        }
    }

    /// Reads the next span, or `Ok(None)` at a clean end of stream.
    pub fn next_span(&mut self) -> Result<Option<Span>, BinaryReadError> {
        loop {
            match self.next_record()? {
                None => return Ok(None),
                Some(Record::Name) => continue,
                Some(Record::Span(span)) => return Ok(Some(span)),
            }
        }
    }

    /// Reads the rest of the stream straight into `store`, remapping the
    /// stream's symbols into the store's table — one intern per *distinct*
    /// string, no owned [`Span`] materialized. Returns the span count.
    pub fn read_into_store(mut self, store: &mut SpanStore) -> Result<usize, BinaryReadError> {
        self.check_header()?;
        let mut remap: Vec<Symbol> = self
            .names
            .iter()
            .map(|n| store.names_mut().intern_name(n))
            .collect();
        let mut pushed = 0usize;
        loop {
            let Some((kind, len)) = self.read_record_header()? else {
                return Ok(pushed);
            };
            self.read_payload(len)?;
            match kind {
                REC_NAME => {
                    self.define_name()?;
                    let latest = self.names.last().expect("just defined");
                    remap.push(store.names_mut().intern_name(latest));
                }
                REC_SPAN => {
                    decode_span_into_store(&self.buf, &remap, store)?;
                    pushed += 1;
                }
                other => return Err(BinaryReadError::UnknownRecordKind(other)),
            }
        }
    }

    fn check_header(&mut self) -> Result<(), BinaryReadError> {
        if self.header_done {
            return Ok(());
        }
        let mut header = [0u8; 5];
        let have = read_up_to(&mut self.src, &mut header)?;
        if have < header.len() {
            return Err(BinaryReadError::Truncated {
                have,
                want: header.len(),
            });
        }
        let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
        if magic != XSPB_MAGIC {
            return Err(BinaryReadError::BadMagic(magic));
        }
        if header[4] != XSPB_VERSION {
            return Err(BinaryReadError::UnsupportedVersion(header[4]));
        }
        self.header_done = true;
        Ok(())
    }

    /// Reads one record header; `Ok(None)` on clean EOF. The kind and the
    /// length bound are validated before the payload is touched.
    fn read_record_header(&mut self) -> Result<Option<(u8, u32)>, BinaryReadError> {
        let mut header = [0u8; 5];
        let have = read_up_to(&mut self.src, &mut header)?;
        if have == 0 {
            return Ok(None);
        }
        if have < header.len() {
            return Err(BinaryReadError::Truncated {
                have,
                want: header.len(),
            });
        }
        let kind = header[0];
        let len = u32::from_be_bytes(header[1..5].try_into().expect("4-byte slice"));
        if len > MAX_RECORD_LEN {
            return Err(BinaryReadError::Oversized { len });
        }
        if kind != REC_NAME && kind != REC_SPAN {
            return Err(BinaryReadError::UnknownRecordKind(kind));
        }
        Ok(Some((kind, len)))
    }

    fn read_payload(&mut self, len: u32) -> Result<(), BinaryReadError> {
        // `len` is already bounded by MAX_RECORD_LEN, so this resize cannot
        // be attacker-amplified.
        self.buf.resize(len as usize, 0);
        let have = read_up_to(&mut self.src, &mut self.buf)?;
        if have < len as usize {
            return Err(BinaryReadError::Truncated {
                have,
                want: len as usize,
            });
        }
        Ok(())
    }

    fn next_record(&mut self) -> Result<Option<Record>, BinaryReadError> {
        self.check_header()?;
        let Some((kind, len)) = self.read_record_header()? else {
            return Ok(None);
        };
        self.read_payload(len)?;
        match kind {
            REC_NAME => {
                self.define_name()?;
                Ok(Some(Record::Name))
            }
            REC_SPAN => Ok(Some(Record::Span(decode_span(&self.buf, &self.names)?))),
            other => Err(BinaryReadError::UnknownRecordKind(other)),
        }
    }

    fn define_name(&mut self) -> Result<(), BinaryReadError> {
        if self.buf.len() < 4 {
            return Err(BinaryReadError::Malformed(
                "name record shorter than its symbol id",
            ));
        }
        let sym = u32::from_be_bytes(self.buf[..4].try_into().expect("4-byte slice"));
        if sym as usize != self.names.len() {
            return Err(BinaryReadError::Malformed(
                "non-sequential symbol definition",
            ));
        }
        let name = std::str::from_utf8(&self.buf[4..]).map_err(|_| BinaryReadError::Utf8)?;
        self.names.push(Name::new(name));
        Ok(())
    }
}

impl<R: Read> Iterator for SpanBinaryReader<R> {
    type Item = Result<Span, BinaryReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_span().transpose()
    }
}

/// Reads a complete `.xspb` stream back into a [`Trace`] — the round-trip
/// inverse of [`SpanBinaryWriter`], mirroring
/// [`crate::export::read_span_json_lines`].
pub fn read_span_binary<R: Read>(input: R) -> Result<Trace, BinaryReadError> {
    let spans: Vec<Span> = SpanBinaryReader::new(input).collect::<Result<_, _>>()?;
    Ok(Trace::from_spans(spans))
}

/// Serializes spans to `.xspb` bytes (the binary sibling of
/// `spans_to_jsonl`-style helpers).
pub fn spans_to_binary(spans: &[Span]) -> Vec<u8> {
    let mut w = SpanBinaryWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for span in spans {
        w.write_span(span).expect("writing to a Vec cannot fail");
    }
    w.finish().expect("writing to a Vec cannot fail")
}

/// Reads from `src` until `buf` is full or EOF; returns bytes read.
/// `Interrupted` is retried, every other error surfaces.
fn read_up_to(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut have = 0;
    while have < buf.len() {
        match src.read(&mut buf[have..]) {
            Ok(0) => break,
            Ok(n) => have += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(have)
}

/// Cursor over a record payload; every accessor checks bounds.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], BinaryReadError> {
        if self.remaining() < n {
            return Err(BinaryReadError::Malformed(what));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, BinaryReadError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, BinaryReadError> {
        Ok(u32::from_be_bytes(
            self.take(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, BinaryReadError> {
        Ok(u64::from_be_bytes(
            self.take(8, what)?.try_into().expect("8-byte slice"),
        ))
    }

    fn done(&self, what: &'static str) -> Result<(), BinaryReadError> {
        if self.remaining() != 0 {
            return Err(BinaryReadError::Malformed(what));
        }
        Ok(())
    }
}

/// The fixed-width head of a span record, shared by both decode paths.
struct SpanHead {
    id: SpanId,
    trace_id: TraceId,
    name: u32,
    level: StackLevel,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    tag_count: u32,
}

fn decode_head(payload: &[u8]) -> Result<(SpanHead, Cursor<'_>), BinaryReadError> {
    let mut c = Cursor::new(payload);
    let id = SpanId(c.u64("span record missing id")?);
    let trace_id = TraceId(c.u64("span record missing trace id")?);
    let name = c.u32("span record missing name symbol")?;
    let rank = c.u8("span record missing level")?;
    let level = *StackLevel::ALL
        .get(rank as usize)
        .ok_or(BinaryReadError::Malformed("stack level out of range"))?;
    let flags = c.u8("span record missing flags")?;
    if flags & !FLAG_PARENT != 0 {
        return Err(BinaryReadError::Malformed("unknown span flags"));
    }
    let parent = if flags & FLAG_PARENT != 0 {
        Some(SpanId(c.u64("span record missing parent")?))
    } else {
        None
    };
    let start_ns = c.u64("span record missing start")?;
    let end_ns = c.u64("span record missing end")?;
    // Structurally fine, but every duration downstream subtracts the
    // start from the end.
    if end_ns < start_ns {
        return Err(BinaryReadError::Malformed("span ends before it starts"));
    }
    let tag_count = c.u32("span record missing tag count")?;
    // A tag is at least 5 bytes (symbol + kind); reject counts the payload
    // cannot hold before anything reserves capacity on their behalf.
    if tag_count as usize > c.remaining() / 5 {
        return Err(BinaryReadError::Malformed("tag count exceeds payload"));
    }
    Ok((
        SpanHead {
            id,
            trace_id,
            name,
            level,
            parent,
            start_ns,
            end_ns,
            tag_count,
        },
        c,
    ))
}

enum RawTag {
    Str(u32),
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
}

fn decode_tag(c: &mut Cursor<'_>) -> Result<(u32, RawTag), BinaryReadError> {
    let key = c.u32("tag missing key symbol")?;
    let kind = c.u8("tag missing kind")?;
    let value = match kind {
        TAG_STR => RawTag::Str(c.u32("string tag missing value symbol")?),
        TAG_I64 => RawTag::I64(c.u64("i64 tag missing value")? as i64),
        TAG_U64 => RawTag::U64(c.u64("u64 tag missing value")?),
        TAG_F64 => RawTag::F64(f64::from_bits(c.u64("f64 tag missing value")?)),
        TAG_BOOL => RawTag::Bool(c.u8("bool tag missing value")? != 0),
        other => return Err(BinaryReadError::UnknownTagKind(other)),
    };
    Ok((key, value))
}

fn read_log_count(c: &mut Cursor<'_>) -> Result<u32, BinaryReadError> {
    let log_count = c.u32("span record missing log count")?;
    // A log is at least 12 bytes (at_ns + message length).
    if log_count as usize > c.remaining() / 12 {
        return Err(BinaryReadError::Malformed("log count exceeds payload"));
    }
    Ok(log_count)
}

fn decode_span(payload: &[u8], names: &[Name]) -> Result<Span, BinaryReadError> {
    let resolve = |sym: u32| -> Result<Name, BinaryReadError> {
        names
            .get(sym as usize)
            .cloned()
            .ok_or(BinaryReadError::BadSymbol(sym))
    };
    let (head, mut c) = decode_head(payload)?;
    let mut tags = Vec::with_capacity(head.tag_count as usize);
    for _ in 0..head.tag_count {
        let (key, raw) = decode_tag(&mut c)?;
        let value = match raw {
            RawTag::Str(sym) => TagValue::Str(resolve(sym)?),
            RawTag::I64(v) => TagValue::I64(v),
            RawTag::U64(v) => TagValue::U64(v),
            RawTag::F64(v) => TagValue::F64(v),
            RawTag::Bool(v) => TagValue::Bool(v),
        };
        tags.push((resolve(key)?, value));
    }
    let log_count = read_log_count(&mut c)?;
    let mut logs = Vec::with_capacity(log_count as usize);
    for _ in 0..log_count {
        let at_ns = c.u64("log missing timestamp")?;
        let len = c.u32("log missing message length")? as usize;
        let bytes = c.take(len, "log message exceeds payload")?;
        let message = std::str::from_utf8(bytes)
            .map_err(|_| BinaryReadError::Utf8)?
            .to_owned();
        logs.push(crate::span::LogEvent { at_ns, message });
    }
    c.done("span record has trailing bytes")?;
    Ok(Span {
        id: head.id,
        trace_id: head.trace_id,
        name: resolve(head.name)?,
        level: head.level,
        start_ns: head.start_ns,
        end_ns: head.end_ns,
        parent: head.parent,
        tags,
        logs,
    })
}

fn decode_span_into_store(
    payload: &[u8],
    remap: &[Symbol],
    store: &mut SpanStore,
) -> Result<(), BinaryReadError> {
    let remap_sym = |sym: u32| -> Result<Symbol, BinaryReadError> {
        remap
            .get(sym as usize)
            .copied()
            .ok_or(BinaryReadError::BadSymbol(sym))
    };
    let (head, mut c) = decode_head(payload)?;
    let name = remap_sym(head.name)?;
    store.push_raw_interned(
        head.id,
        head.trace_id,
        name,
        head.level,
        head.start_ns,
        head.end_ns,
        head.parent,
    );
    for _ in 0..head.tag_count {
        let (key, raw) = decode_tag(&mut c)?;
        let cell = match raw {
            RawTag::Str(sym) => crate::store::TagCell::Str(remap_sym(sym)?),
            RawTag::I64(v) => crate::store::TagCell::I64(v),
            RawTag::U64(v) => crate::store::TagCell::U64(v),
            RawTag::F64(v) => crate::store::TagCell::F64(v),
            RawTag::Bool(v) => crate::store::TagCell::Bool(v),
        };
        store.raw_tag_interned(remap_sym(key)?, cell);
    }
    let log_count = read_log_count(&mut c)?;
    for _ in 0..log_count {
        let at_ns = c.u64("log missing timestamp")?;
        let len = c.u32("log missing message length")? as usize;
        let bytes = c.take(len, "log message exceeds payload")?;
        let message = std::str::from_utf8(bytes).map_err(|_| BinaryReadError::Utf8)?;
        store.raw_log(at_ns, message);
    }
    c.done("span record has trailing bytes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{tag_keys, SpanBuilder};

    fn sample() -> Vec<Span> {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 4u64)
            .tag("note", "with \"quotes\" and \n newlines")
            .log(5, "warmup")
            .finish(1_000_000);
        let pid = model.id;
        let launch = SpanBuilder::new("cudaLaunchKernel", StackLevel::Kernel, TraceId(1))
            .start(1_000)
            .parent(pid)
            .tag(tag_keys::CORRELATION_ID, 7u64)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .finish(1_100);
        let exec = SpanBuilder::new("volta_scudnn", StackLevel::Kernel, TraceId(1))
            .start(2_000)
            .tag(tag_keys::CORRELATION_ID, 7u64)
            .tag(tag_keys::ASYNC_EXECUTION, true)
            .tag("occ", 0.25f64)
            .tag("neg", TagValue::I64(-3))
            .tag("flag", false)
            .finish(9_000);
        vec![model, launch, exec]
    }

    #[test]
    fn round_trip_preserves_spans_exactly() {
        let spans = sample();
        let bytes = spans_to_binary(&spans);
        assert!(is_xspb_prefix(&bytes));
        let back: Vec<Span> = SpanBinaryReader::new(&bytes[..])
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn second_write_read_cycle_is_byte_identical() {
        let spans = sample();
        let bytes = spans_to_binary(&spans);
        let back: Vec<Span> = SpanBinaryReader::new(&bytes[..])
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            spans_to_binary(&back),
            bytes,
            "re-encode must be a fixpoint"
        );
    }

    #[test]
    fn read_into_store_matches_span_path() {
        let spans = sample();
        let bytes = spans_to_binary(&spans);
        let mut store = SpanStore::new();
        let n = SpanBinaryReader::new(&bytes[..])
            .read_into_store(&mut store)
            .unwrap();
        assert_eq!(n, spans.len());
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(&store.materialize(i as u32), s);
        }
    }

    #[test]
    fn a_span_that_ends_before_it_starts_is_malformed() {
        let mut spans = sample();
        spans[1].start_ns = 500;
        spans[1].end_ns = 100;
        let bytes = spans_to_binary(&spans);
        let mut reader = SpanBinaryReader::new(&bytes[..]);
        assert!(reader.next_span().unwrap().is_some());
        assert!(matches!(
            reader.next_span(),
            Err(BinaryReadError::Malformed("span ends before it starts"))
        ));

        let mut store = SpanStore::new();
        assert!(matches!(
            SpanBinaryReader::new(&bytes[..]).read_into_store(&mut store),
            Err(BinaryReadError::Malformed("span ends before it starts"))
        ));
        assert_eq!(store.len(), 1, "the inverted span never reaches the store");
    }

    #[test]
    fn names_are_written_once() {
        let mut spans = Vec::new();
        for i in 0..50u64 {
            spans.push(
                SpanBuilder::new("volta_scudnn", StackLevel::Kernel, TraceId(1))
                    .start(i)
                    .tag("occ", 0.5f64)
                    .finish(i + 1),
            );
        }
        let bytes = spans_to_binary(&spans);
        let name_records = bytes
            .windows("volta_scudnn".len())
            .filter(|w| *w == &b"volta_scudnn"[..])
            .count();
        assert_eq!(name_records, 1, "each distinct string appears once");
    }

    #[test]
    fn empty_stream_is_valid() {
        let w = SpanBinaryWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len(), 5);
        assert_eq!(read_span_binary(&bytes[..]).unwrap().len(), 0);
    }

    #[test]
    fn writer_tracks_span_count() {
        let mut w = SpanBinaryWriter::new(Vec::new()).unwrap();
        assert_eq!(w.written(), 0);
        for s in sample() {
            w.write_span(&s).unwrap();
        }
        assert_eq!(w.written(), 3);
    }
}
