//! Profile export: streams a [`LeveledProfile`] out of the process in any
//! supported trace format, and provides the always-on export sink that
//! [`crate::profile::Xsp`] threads through sweeps.
//!
//! There is one export path. [`ExportFormat::from_path`] is the one rule
//! that maps a path to a format, and a private format-keyed writer is the
//! one place that builds the format's incremental writer from
//! [`xsp_trace::export::stream`] / [`xsp_trace::export::binary`].
//! [`export_profile`], [`export_run_profile`] and [`ExportSink`] all write
//! through it, one correlated run at a time: spans leave through an
//! `io::Write` as they are serialized (folded stacks emit a whole run,
//! which they need for its parent tree), so exporting never materializes
//! the serialized trace. Because profiles are deterministic in
//! `(config, graph)` and runs are merged in submission order, exported
//! bytes are identical for every [`crate::scheduler::Parallelism`] setting
//! — the CI export-determinism lane diffs serial against 4-worker output
//! for every format.

use crate::pipeline::RunProfile;
use crate::profile::LeveledProfile;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use xsp_trace::export::stream::{ChromeTraceWriter, FoldedStacksWriter, SpanJsonLinesWriter};
use xsp_trace::export::SpanBinaryWriter;
use xsp_trace::{CorrelatedTrace, Span};

/// The trace formats `xsp export` (and [`export_profile`]) can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// Span-JSON-lines: one raw span object per line (the streaming
    /// interchange format; read back with
    /// [`xsp_trace::export::read_span_json_lines`]).
    Spans,
    /// `.xspb` span binary: length-prefixed records with interned names
    /// (the compact interchange format; read back with
    /// [`xsp_trace::export::read_span_binary`]).
    Binary,
    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    Chrome,
    /// Brendan-Gregg folded stacks (`flamegraph.pl`, speedscope).
    Folded,
}

impl ExportFormat {
    /// Every format, in CLI listing order.
    pub const ALL: [ExportFormat; 4] = [
        ExportFormat::Spans,
        ExportFormat::Binary,
        ExportFormat::Chrome,
        ExportFormat::Folded,
    ];

    /// The accepted `--format` spellings, grouped per format (used by
    /// [`ParseFormatError`] to enumerate valid values).
    pub const SPELLINGS: [(&'static str, ExportFormat); 4] = [
        ("spans|jsonl|span-json-lines", ExportFormat::Spans),
        ("xspb|binary|span-binary", ExportFormat::Binary),
        ("chrome|chrome-trace", ExportFormat::Chrome),
        ("folded|flamegraph", ExportFormat::Folded),
    ];

    /// Parses the `--format` spelling. Rejection carries the offending value
    /// and enumerates every accepted spelling (see [`ParseFormatError`]).
    pub fn parse(raw: &str) -> Result<Self, ParseFormatError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "spans" | "jsonl" | "span-json-lines" => Ok(ExportFormat::Spans),
            "xspb" | "binary" | "span-binary" => Ok(ExportFormat::Binary),
            "chrome" | "chrome-trace" => Ok(ExportFormat::Chrome),
            "folded" | "flamegraph" => Ok(ExportFormat::Folded),
            _ => Err(ParseFormatError {
                value: raw.to_owned(),
            }),
        }
    }

    /// The format a path's extension names, matched case-insensitively
    /// (`.XSPB` is `.xspb`): `.xspb` selects span binary, `.json` Chrome
    /// trace events, `.folded` folded stacks, anything else
    /// span-JSON-lines. This is the only extension rule: sinks
    /// ([`ExportSink::create`]), the daemon's session sinks and the CLI
    /// all route through it.
    pub fn from_path(path: &Path) -> Self {
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        match ext.to_ascii_lowercase().as_str() {
            "xspb" => ExportFormat::Binary,
            "json" => ExportFormat::Chrome,
            "folded" => ExportFormat::Folded,
            _ => ExportFormat::Spans,
        }
    }

    /// The canonical CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            ExportFormat::Spans => "spans",
            ExportFormat::Binary => "xspb",
            ExportFormat::Chrome => "chrome",
            ExportFormat::Folded => "folded",
        }
    }
}

impl fmt::Display for ExportFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Rejection produced by [`ExportFormat::parse`]: carries the rejected
/// spelling and renders every valid one, so CLI and daemon callers surface
/// the same self-explanatory message instead of a bare "bad --format".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError {
    /// The spelling that failed to parse, verbatim.
    pub value: String,
}

impl fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown export format '{}'; valid values:", self.value)?;
        for (i, (spellings, format)) in ExportFormat::SPELLINGS.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{spellings} ({format})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseFormatError {}

/// The writer of one [`ExportFormat`] — the only code that builds a
/// per-format writer. Span-JSON-lines, `.xspb` span binary and Chrome
/// trace events append one span at a time; folded stacks need each span's
/// children, so they take whole correlated runs
/// ([`FormatWriter::write_run`]) and refuse raw spans with a structured
/// `InvalidInput` error rather than silently writing the wrong format.
enum FormatWriter<W: Write> {
    Spans(SpanJsonLinesWriter<W>),
    Binary(SpanBinaryWriter<W>),
    Chrome(ChromeTraceWriter<W>),
    Folded(FoldedStacksWriter<W>),
}

impl<W: Write> FormatWriter<W> {
    /// Opens a `format` writer over `out`. Fallible because the `.xspb`
    /// header and the Chrome `traceEvents` envelope are written eagerly, so
    /// a dead writer surfaces here instead of poisoning the first span.
    fn new(format: ExportFormat, out: W) -> io::Result<Self> {
        Ok(match format {
            ExportFormat::Spans => Self::Spans(SpanJsonLinesWriter::new(out)),
            ExportFormat::Binary => Self::Binary(SpanBinaryWriter::new(out)?),
            ExportFormat::Chrome => Self::Chrome(ChromeTraceWriter::new(out)?),
            ExportFormat::Folded => Self::Folded(FoldedStacksWriter::new(out)),
        })
    }

    fn write_span(&mut self, span: &Span) -> io::Result<()> {
        match self {
            Self::Spans(w) => w.write_span(span),
            Self::Binary(w) => w.write_span(span),
            Self::Chrome(w) => w.write_span(span),
            Self::Folded(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "folded sinks finalize per correlated run and cannot accept raw span \
                 writes; use a spans, xspb, or json sink for span streams",
            )),
        }
    }

    /// Appends one finalized run: folded stacks emit the run's stacks in
    /// one go, every other format appends the run's spans.
    fn write_run(&mut self, trace: &CorrelatedTrace) -> io::Result<()> {
        match self {
            Self::Folded(w) => w.write_run(trace),
            _ => trace
                .iter_spans()
                .try_for_each(|span| self.write_span(span)),
        }
    }

    /// Spans written so far (runs, for folded stacks).
    fn written(&self) -> usize {
        match self {
            Self::Spans(w) => w.written(),
            Self::Binary(w) => w.written(),
            Self::Chrome(w) => w.written(),
            Self::Folded(w) => w.written(),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Spans(w) => w.flush(),
            Self::Binary(w) => w.flush(),
            Self::Chrome(w) => w.flush(),
            Self::Folded(w) => w.flush(),
        }
    }

    /// Writes any format trailer (the Chrome `]}` envelope close) and
    /// flushes. After this the stream is complete; call it once.
    fn finish(&mut self) -> io::Result<()> {
        match self {
            Self::Chrome(w) => w.close(),
            _ => self.flush(),
        }
    }
}

/// Writes each correlated run once through one `format` writer and
/// returns what it counts: spans, or runs for folded stacks.
fn export_runs<'a, W: Write>(
    runs: impl IntoIterator<Item = &'a CorrelatedTrace>,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    let mut writer = FormatWriter::new(format, out)?;
    for run in runs {
        writer.write_run(run)?;
    }
    writer.finish()?;
    Ok(writer.written())
}

/// Streams every span of `profile` (canonical run order: M, M/L, M/L/G,
/// metric runs) to `out` in the requested format. Returns the number of
/// spans (events, for folded stacks: runs) written.
pub fn export_profile<W: Write>(
    profile: &LeveledProfile,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    export_runs(profile.runs().map(|run| &run.trace), format, out)
}

/// Streams an offline-reconstructed [`RunProfile`] — the
/// `xsp export --from trace.jsonl` path, where the spans came from a saved
/// span-JSON-lines capture via [`crate::pipeline::profile_from_trace`] — to
/// `out` in the requested format. Returns the number of spans written (for
/// folded stacks: the number of root-level traversals, i.e. 1 per call).
///
/// Because a saved capture already carries reconstructed parents and merged
/// async pairs, re-correlation is a no-op on its spans, and the bytes this
/// emits for a capture of `profile` equal the live
/// [`export_profile`] bytes for the same profile — the offline round-trip
/// test pins that equivalence against the frozen chrome golden. For folded
/// stacks, one traversal covers every run in the capture: the correlated
/// trace's root set lists each run's model-level roots in publication
/// order, which is exactly the per-run emission order of the live export.
pub fn export_run_profile<W: Write>(
    profile: &RunProfile,
    format: ExportFormat,
    out: W,
) -> io::Result<usize> {
    export_runs([&profile.trace], format, out)
}

struct SinkState {
    writer: FormatWriter<Box<dyn Write + Send>>,
    /// First write failure; once set, further writes are dropped so a full
    /// disk cannot panic a sweep mid-flight.
    error: Option<io::Error>,
    /// Whether [`ExportSink::finish`] has run: the trailer is written once,
    /// and later writes are refused (they would corrupt a closed stream).
    finished: bool,
}

/// A shared export sink threaded through [`crate::profile::XspConfig`]:
/// every evaluation run the profiler completes is appended (in submission
/// order, so bytes are worker-count-independent) as soon as its point
/// finishes — a batch sweep exports incrementally instead of holding every
/// profile until the end.
///
/// Clones share the underlying writer; a config clone therefore keeps
/// appending to the same stream. I/O failures are latched instead of
/// panicking: the first error stops further writes and is surfaced by
/// [`ExportSink::take_error`] / [`ExportSink::flush`].
#[derive(Clone)]
pub struct ExportSink {
    state: Arc<Mutex<SinkState>>,
}

impl ExportSink {
    /// Creates a `format` sink over any writer (file, socket, `Vec<u8>` in
    /// tests). Fallible because the `.xspb` header and the Chrome envelope
    /// are written eagerly. Call [`ExportSink::finish`] when the capture
    /// ends so a Chrome envelope closes (an unfinished chrome sink is
    /// truncated JSON). Folded sinks finalize one correlated run at a time,
    /// so only run-granular feeds (profiler sweeps) can write to them; raw
    /// span streams latch a structured error.
    pub fn with_format(format: ExportFormat, out: impl Write + Send + 'static) -> io::Result<Self> {
        let writer = FormatWriter::new(format, Box::new(out) as Box<dyn Write + Send>)?;
        Ok(Self {
            state: Arc::new(Mutex::new(SinkState {
                writer,
                error: None,
                finished: false,
            })),
        })
    }

    /// Creates a span-JSON-lines sink over any writer.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        Self::with_format(ExportFormat::Spans, out)
            .expect("a span-JSON-lines writer writes nothing before its first span")
    }

    /// Creates a `.xspb` span-binary sink over any writer.
    pub fn new_binary(out: impl Write + Send + 'static) -> io::Result<Self> {
        Self::with_format(ExportFormat::Binary, out)
    }

    /// Creates a sink appending to a buffered file at `path`, in the format
    /// [`ExportFormat::from_path`] names.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Self::with_format(ExportFormat::from_path(path), io::BufWriter::new(file))
    }

    /// Appends the given finalized runs (used by the profiler after each
    /// engine merge, and to replay cache-served profiles; runs arrive in
    /// submission order). Run granularity is what lets chrome and folded
    /// sinks stream sweeps: folded stacks are emitted per correlated run,
    /// every other format appends the run's spans.
    pub(crate) fn write_runs<'a>(&self, runs: impl IntoIterator<Item = &'a RunProfile>) {
        let mut state = self.state.lock().expect("sink lock");
        if state.error.is_some() || state.finished {
            return;
        }
        for run in runs {
            if let Err(e) = state.writer.write_run(&run.trace) {
                state.error = Some(e);
                return;
            }
        }
    }

    /// Appends a batch of spans, in batch order. Like every sink write this
    /// latches the first I/O failure instead of returning it: once poisoned the sink drops all further writes, and the error
    /// stays observable through [`ExportSink::flush`] /
    /// [`ExportSink::error_message`] / [`ExportSink::take_error`]. This is
    /// the spill path of the `xspd` daemon, which appends each session's
    /// resident spans on quota pressure, teardown, and graceful shutdown.
    /// Raw span streams are refused by folded sinks (which can only
    /// finalize whole correlated runs): the refusal latches as a structured
    /// `InvalidInput` error rather than silently writing the wrong format.
    pub fn write_spans<'a>(&self, spans: impl IntoIterator<Item = &'a Span>) {
        let mut state = self.state.lock().expect("sink lock");
        if state.error.is_some() || state.finished {
            return;
        }
        for span in spans {
            if let Err(e) = state.writer.write_span(span) {
                state.error = Some(e);
                return;
            }
        }
    }

    /// Number of spans written so far.
    pub fn spans_written(&self) -> usize {
        self.state.lock().expect("sink lock").writer.written()
    }

    /// Renders the latched write error without claiming it (unlike
    /// [`ExportSink::take_error`]) — every observer keeps seeing the
    /// poisoned state. The daemon reports this in session close frames.
    pub fn error_message(&self) -> Option<String> {
        self.state
            .lock()
            .expect("sink lock")
            .error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Flushes the underlying writer, surfacing any latched write error.
    ///
    /// The latch is *not* cleared: once a write has failed the sink stays
    /// stopped (the stream may end in a torn partial line), and every
    /// subsequent `flush` keeps reporting the failure. Use
    /// [`ExportSink::take_error`] to claim the original error object.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("sink lock");
        if let Some(e) = &state.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        match state.writer.flush() {
            Ok(()) => Ok(()),
            Err(e) => {
                let report = io::Error::new(e.kind(), e.to_string());
                state.error = Some(e);
                Err(report)
            }
        }
    }

    /// Completes the stream: writes any format trailer (the Chrome `]}`
    /// envelope close) and flushes. Idempotent — the trailer is written
    /// once, and later writes are dropped, so every teardown path (client
    /// close, disconnect, daemon shutdown drain) may finish the same sink.
    /// Surfaces the latched write error like [`ExportSink::flush`].
    pub fn finish(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("sink lock");
        if let Some(e) = &state.error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        if state.finished {
            return Ok(());
        }
        state.finished = true;
        match state.writer.finish() {
            Ok(()) => Ok(()),
            Err(e) => {
                let report = io::Error::new(e.kind(), e.to_string());
                state.error = Some(e);
                Err(report)
            }
        }
    }

    /// Takes the first write error, if any occurred.
    pub fn take_error(&self) -> Option<io::Error> {
        self.state.lock().expect("sink lock").error.take()
    }
}

impl fmt::Debug for ExportSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExportSink")
            .field("spans_written", &self.spans_written())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileMode, ProfileRequest, ProfilingLevel, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn profile() -> LeveledProfile {
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1);
        Xsp::new(cfg).run(
            ProfileRequest::new(&zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1))
                .mode(ProfileMode::ModelAndMetrics),
        )
    }

    /// A `Write` handle over a shared buffer, so tests can inspect sink
    /// bytes while the sink owns the writer.
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn format_parsing() {
        assert_eq!(ExportFormat::parse("spans"), Ok(ExportFormat::Spans));
        assert_eq!(ExportFormat::parse("CHROME"), Ok(ExportFormat::Chrome));
        assert_eq!(ExportFormat::parse("flamegraph"), Ok(ExportFormat::Folded));
        for f in ExportFormat::ALL {
            assert_eq!(ExportFormat::parse(f.label()), Ok(f));
        }
        for (spellings, f) in ExportFormat::SPELLINGS {
            for s in spellings.split('|') {
                assert_eq!(ExportFormat::parse(s), Ok(f));
            }
        }
    }

    #[test]
    fn format_parse_rejection_lists_valid_values() {
        let err = ExportFormat::parse("perfetto").unwrap_err();
        assert_eq!(err.value, "perfetto");
        let msg = err.to_string();
        assert!(msg.contains("'perfetto'"), "names the bad value: {msg}");
        for (spellings, _) in ExportFormat::SPELLINGS {
            assert!(msg.contains(spellings), "lists {spellings}: {msg}");
        }
        // The raw value is preserved verbatim (no trimming/lowercasing) so
        // the message shows exactly what the user typed.
        assert_eq!(
            ExportFormat::parse(" Perfetto ").unwrap_err().value,
            " Perfetto "
        );
    }

    #[test]
    fn spans_export_matches_wrapper_json() {
        let p = profile();
        let mut out = Vec::new();
        let written = export_profile(&p, ExportFormat::Spans, &mut out).unwrap();
        assert_eq!(written, p.iter_spans().count());
        let trace = xsp_trace::export::read_span_json_lines(&out[..]).unwrap();
        assert_eq!(
            serde_json::to_string(trace.spans()).unwrap(),
            p.to_span_json(),
            "JSONL round trip must reproduce the array exporter"
        );
    }

    #[test]
    fn chrome_export_parses_and_covers_every_span() {
        let p = profile();
        let mut out = Vec::new();
        let written = export_profile(&p, ExportFormat::Chrome, &mut out).unwrap();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), written);
        assert_eq!(written, p.iter_spans().count());
    }

    #[test]
    fn folded_export_emits_all_runs() {
        let p = profile();
        let mut out = Vec::new();
        let runs = export_profile(&p, ExportFormat::Folded, &mut out).unwrap();
        assert_eq!(runs, p.runs().count());
        let text = String::from_utf8(out).unwrap();
        assert!(text.lines().count() > 2);
        for line in text.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
            assert!(weight.parse::<u64>().unwrap() >= 1, "{line}");
            assert!(!stack.is_empty());
        }
    }

    #[test]
    fn sink_collects_runs_as_they_complete() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::new(SharedBuf(bytes.clone()));
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .export_sink(sink.clone());
        let xsp = Xsp::new(cfg);
        let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
        let p = xsp.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model));
        assert_eq!(sink.spans_written(), p.iter_spans().count());
        let after_first = sink.spans_written();
        let p2 = xsp.run(ProfileRequest::new(&graph).level(ProfilingLevel::Model));
        assert_eq!(
            sink.spans_written(),
            after_first + p2.iter_spans().count(),
            "sink appends across profiler calls"
        );
        sink.flush().unwrap();
        let trace = xsp_trace::export::read_span_json_lines(&bytes.lock().unwrap()[..]).unwrap();
        assert_eq!(trace.len(), sink.spans_written());
    }

    #[test]
    fn chrome_sink_streams_runs_and_finish_closes_the_envelope() {
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::with_format(ExportFormat::Chrome, Buf(bytes.clone())).unwrap();
        sink.write_runs(&runs);
        sink.finish().unwrap();
        sink.finish().unwrap(); // idempotent: the trailer is written once
        let mut expected = Vec::new();
        export_profile(&p, ExportFormat::Chrome, &mut expected).unwrap();
        assert_eq!(
            *bytes.lock().unwrap(),
            expected,
            "per-run streamed chrome bytes equal the one-shot export"
        );
    }

    #[test]
    fn folded_sink_finalizes_per_run_and_rejects_raw_spans() {
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::with_format(ExportFormat::Folded, Buf(bytes.clone())).unwrap();
        sink.write_runs(&runs);
        assert_eq!(sink.spans_written(), runs.len(), "folded counts runs");
        sink.finish().unwrap();
        let mut expected = Vec::new();
        export_profile(&p, ExportFormat::Folded, &mut expected).unwrap();
        assert_eq!(*bytes.lock().unwrap(), expected);

        // Raw span streams cannot be folded: the refusal is a structured
        // latched error, not silently-wrong output.
        let sink = ExportSink::with_format(ExportFormat::Folded, Vec::new()).unwrap();
        let span =
            xsp_trace::SpanBuilder::new("s", xsp_trace::StackLevel::Model, xsp_trace::TraceId(1))
                .start(0)
                .finish(1);
        sink.write_spans([&span]);
        let err = sink.take_error().expect("refusal must latch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("folded"), "{err}");
    }

    #[test]
    fn create_routes_every_extension_to_its_writer() {
        let dir = std::env::temp_dir().join(format!("xsp_sink_route_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        for (name, format) in [
            ("t.jsonl", ExportFormat::Spans),
            ("t.xspb", ExportFormat::Binary),
            ("t.json", ExportFormat::Chrome),
            ("t.folded", ExportFormat::Folded),
        ] {
            let path = dir.join(name);
            let sink = ExportSink::create(&path).unwrap();
            sink.write_runs(&runs);
            sink.finish().unwrap();
            let got = std::fs::read(&path).unwrap();
            let mut expected = Vec::new();
            export_profile(&p, format, &mut expected).unwrap();
            assert_eq!(got, expected, "{name} must route to the {format} writer");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_routes_extensions_case_insensitively() {
        // Upper- and mixed-case spellings of every extension must name the
        // same format their lowercase form does, and route to its writer.
        let dir = std::env::temp_dir().join(format!("xsp_sink_route_ci_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = profile();
        let runs: Vec<RunProfile> = p.runs().cloned().collect();
        for (name, format) in [
            ("u.JSONL", ExportFormat::Spans),
            ("u.Jsonl", ExportFormat::Spans),
            ("u.XSPB", ExportFormat::Binary),
            ("u.XspB", ExportFormat::Binary),
            ("u.JSON", ExportFormat::Chrome),
            ("u.Json", ExportFormat::Chrome),
            ("u.FOLDED", ExportFormat::Folded),
            ("u.FoLdEd", ExportFormat::Folded),
        ] {
            let path = dir.join(name);
            assert_eq!(ExportFormat::from_path(&path), format, "{name}");
            let sink = ExportSink::create(&path).unwrap();
            sink.write_runs(&runs);
            sink.finish().unwrap();
            let got = std::fs::read(&path).unwrap();
            let mut expected = Vec::new();
            export_profile(&p, format, &mut expected).unwrap();
            assert_eq!(got, expected, "{name} must route to the {format} writer");
        }
        std::fs::remove_dir_all(&dir).ok();
        for name in ["trace", "t.txt", "t.folded.bak", "folded"] {
            assert_eq!(
                ExportFormat::from_path(Path::new(name)),
                ExportFormat::Spans
            );
        }
    }

    #[test]
    fn sink_latches_write_errors_instead_of_panicking() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = ExportSink::new(FailingWriter);
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .export_sink(sink.clone());
        // the profile itself must survive the broken sink
        let p = Xsp::new(cfg).run(
            ProfileRequest::new(&zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1))
                .level(ProfilingLevel::Model),
        );
        assert!(p.model_latency_ms() > 0.0);
        assert!(sink.flush().is_err(), "error must surface on flush");
        assert!(
            sink.flush().is_err(),
            "the latch must persist across flushes — the sink stays stopped"
        );
        assert!(sink.take_error().is_some());
    }

    #[test]
    fn poisoned_sink_stops_writing_and_every_observer_sees_the_latch() {
        // Fails the first write, then would happily accept bytes — proving
        // that post-latch sweeps are dropped by the latch, not by luck.
        struct FailOnce {
            failed: bool,
            writes_after_failure: Arc<Mutex<usize>>,
        }
        impl Write for FailOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.failed {
                    self.failed = true;
                    return Err(io::Error::other("first write exploded"));
                }
                *self.writes_after_failure.lock().unwrap() += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let writes_after_failure = Arc::new(Mutex::new(0usize));
        let sink = ExportSink::new(FailOnce {
            failed: false,
            writes_after_failure: writes_after_failure.clone(),
        });
        let spans: Vec<xsp_trace::Span> = (0..5)
            .map(|i| {
                xsp_trace::SpanBuilder::new(
                    "s",
                    xsp_trace::StackLevel::Model,
                    xsp_trace::TraceId(1),
                )
                .start(i)
                .finish(i + 1)
            })
            .collect();
        sink.write_spans(&spans); // first sweep: poisons on span 0
        assert_eq!(sink.spans_written(), 0);
        sink.write_spans(&spans); // second sweep: dropped by the latch
        sink.write_spans(&spans); // third sweep: still dropped
        assert_eq!(
            *writes_after_failure.lock().unwrap(),
            0,
            "no write reaches the underlying writer once the sink is poisoned"
        );
        // error_message is non-consuming: every observer (the daemon reads
        // it once per flush ack and once for the close frame) keeps seeing
        // the same latched failure.
        let first = sink.error_message().expect("latched");
        let second = sink.error_message().expect("still latched");
        assert_eq!(first, second);
        assert!(first.contains("first write exploded"));
        assert!(sink.flush().is_err(), "flush reports the latched error too");
        // take_error claims the error object itself.
        assert!(sink.take_error().is_some());
        assert!(sink.take_error().is_none(), "claimed exactly once");
    }
}
