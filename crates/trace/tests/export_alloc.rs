//! Allocation ceilings of the span paths. Once a writer's line buffer has
//! grown to the largest span, writing spans allocates nothing; reading
//! spans back allocates what cloning them does, plus a constant for the
//! reader's buffers; a span's strings are shared, so cloning one allocates
//! only its vectors; and a `.xspb` name defined once is held once, however
//! many spans use it. The counts are exact and machine-independent, unlike
//! wall time.
//!
//! This binary installs a counting global allocator and counts per thread,
//! so the test harness's own threads cannot disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use xsp_trace::export::{
    spans_to_binary, ChromeTraceWriter, SpanBinaryReader, SpanJsonLinesReader, SpanJsonLinesWriter,
};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, SpanBuilder, StackLevel, TraceId};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread holds, and the most it has held since the
    /// last [`peak_bytes_of`] began.
    static LIVE_BYTES: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn add_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live + delta, peak.max(live + delta)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        add_bytes(layout.size() as i64);
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        add_bytes(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        add_bytes(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by `System` via this allocator with
        // `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on the calling thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `f` and returns its result with the most heap bytes the calling
/// thread held at once while `f` ran, beyond what it held before.
fn peak_bytes_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE_BYTES.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
        live
    });
    let result = f();
    let peak = LIVE_BYTES.with(|c| c.get().1);
    (result, (peak - base) as u64)
}

/// 10k spans shaped like a profiled run: a model span, layers, and kernel
/// launch/execution pairs carrying every tag type, escapes and a log.
fn trace_spans() -> Vec<Span> {
    let model = SpanBuilder::new("model_prediction", StackLevel::Model, TraceId(1))
        .start(0)
        .tag(tag_keys::BATCH_SIZE, 8u64)
        .log(5, "warm \"start\"")
        .finish(10_000_000_000);
    let model_id = model.id;
    let mut spans = vec![model];
    for i in 0..9_999u64 {
        let level = [StackLevel::Layer, StackLevel::Kernel][(i % 2) as usize];
        spans.push(
            SpanBuilder::new(format!("conv2d_{i}/Conv2D\tλ"), level, TraceId(1))
                .start(i * 1_000)
                .parent(model_id)
                .tag(tag_keys::CORRELATION_ID, i)
                .tag(tag_keys::ACHIEVED_OCCUPANCY, i as f64 / 7.0)
                .tag("delta", -(i as i64))
                .tag(tag_keys::ASYNC_EXECUTION, i % 2 == 1)
                .tag(tag_keys::LAYER_SHAPE, "⟨8, 64, 56, 56⟩")
                .finish(i * 1_000 + 999),
        );
    }
    spans
}

/// Writes `spans` twice through `writer`; returns the allocations of the
/// second pass.
fn second_pass_allocations<W>(
    writer: &mut W,
    write: impl Fn(&mut W, &Span),
    spans: &[Span],
) -> u64 {
    spans.iter().for_each(|s| write(writer, s));
    allocations_of(|| spans.iter().for_each(|s| write(writer, s)))
}

#[test]
fn rewriting_a_trace_through_the_same_writer_allocates_nothing() {
    let spans = trace_spans();
    // Each output is reserved for both passes up front, so only the writer
    // itself could allocate.
    let jsonl_len = {
        let mut w = SpanJsonLinesWriter::new(Vec::new());
        spans
            .iter()
            .for_each(|s| w.write_span(s).expect("Vec writes cannot fail"));
        w.finish().expect("Vec writes cannot fail").len()
    };
    let chrome_len = {
        let mut w = ChromeTraceWriter::new(Vec::new()).expect("Vec writes cannot fail");
        spans
            .iter()
            .for_each(|s| w.write_span(s).expect("Vec writes cannot fail"));
        w.finish().expect("Vec writes cannot fail").len()
    };

    let mut out = Vec::with_capacity(2 * jsonl_len);
    let mut jsonl = SpanJsonLinesWriter::new(&mut out);
    let allocations = second_pass_allocations(
        &mut jsonl,
        |w, s| w.write_span(s).expect("Vec writes cannot fail"),
        &spans,
    );
    assert_eq!(jsonl.written(), 2 * spans.len());
    assert_eq!(
        allocations, 0,
        "span-JSON-lines: allocations on the second pass"
    );

    let mut out = Vec::with_capacity(2 * chrome_len);
    let mut chrome = ChromeTraceWriter::new(&mut out).expect("Vec writes cannot fail");
    let allocations = second_pass_allocations(
        &mut chrome,
        |w, s| w.write_span(s).expect("Vec writes cannot fail"),
        &spans,
    );
    assert_eq!(chrome.written(), 2 * spans.len());
    assert_eq!(
        allocations, 0,
        "Chrome events: allocations on the second pass"
    );
}

/// Allocations the reader may make beyond the spans' own: its line buffer
/// and tag/log scratch vectors growing to the largest line.
const READER_BUFFERS: u64 = 32;

#[test]
fn reading_spans_back_allocates_what_cloning_them_does() {
    let spans = trace_spans();
    let mut w = SpanJsonLinesWriter::new(Vec::new());
    spans
        .iter()
        .for_each(|s| w.write_span(s).expect("Vec writes cannot fail"));
    let bytes = w.finish().expect("Vec writes cannot fail");

    let cloning = allocations_of(|| spans.iter().for_each(|s| drop(black_box(s.clone()))));
    let mut read = 0;
    let reading = allocations_of(|| {
        for span in SpanJsonLinesReader::new(&bytes[..]) {
            drop(black_box(span.expect("own output parses")));
            read += 1;
        }
    });
    assert_eq!(read, spans.len());
    assert!(
        reading <= cloning + READER_BUFFERS,
        "reading {} spans made {reading} allocations; cloning them makes {cloning}",
        spans.len()
    );
}

/// Allocations per span the readers may make: the span's tag vector and,
/// when a string is new to the stream, that string.
const READ_ALLOCATIONS_PER_SPAN: u64 = 2;

/// Allocations of reading `spans` back through `read`, which gets the
/// encoded bytes and returns the number of spans it read.
fn reading_allocations(bytes: &[u8], read: impl FnOnce(&[u8]) -> usize, spans: usize) -> u64 {
    let mut read_back = 0;
    let allocations = allocations_of(|| read_back = read(bytes));
    assert_eq!(read_back, spans);
    allocations
}

#[test]
fn readers_allocate_at_most_two_per_span() {
    let spans = trace_spans();
    let mut w = SpanJsonLinesWriter::new(Vec::new());
    spans
        .iter()
        .for_each(|s| w.write_span(s).expect("Vec writes cannot fail"));
    let jsonl = w.finish().expect("Vec writes cannot fail");
    let xspb = spans_to_binary(&spans);
    let ceiling = READ_ALLOCATIONS_PER_SPAN * spans.len() as u64 + READER_BUFFERS;

    let jsonl_allocations = reading_allocations(
        &jsonl,
        |b| {
            SpanJsonLinesReader::new(b)
                .map(|s| drop(black_box(s.expect("own output parses"))))
                .count()
        },
        spans.len(),
    );
    assert!(
        jsonl_allocations <= ceiling,
        "span-JSON-lines: {jsonl_allocations} allocations for {} spans (ceiling {ceiling})",
        spans.len()
    );
    let xspb_allocations = reading_allocations(
        &xspb,
        |b| {
            SpanBinaryReader::new(b)
                .map(|s| drop(black_box(s.expect("own output parses"))))
                .count()
        },
        spans.len(),
    );
    assert!(
        xspb_allocations <= ceiling,
        ".xspb: {xspb_allocations} allocations for {} spans (ceiling {ceiling})",
        spans.len()
    );
}

#[test]
fn cloning_a_span_without_logs_allocates_only_its_tag_vector() {
    let spans: Vec<Span> = trace_spans()
        .into_iter()
        .filter(|s| s.logs.is_empty())
        .collect();
    assert!(spans.iter().all(|s| !s.tags.is_empty()));
    let cloning = allocations_of(|| spans.iter().for_each(|s| drop(black_box(s.clone()))));
    assert!(
        cloning <= spans.len() as u64,
        "cloning {} spans made {cloning} allocations",
        spans.len()
    );
}

/// Bytes of the name the stream below defines once.
const LONG_NAME: usize = 64 << 10;
/// Spans of that stream, each named by that one name.
const NAMED_SPANS: u64 = 2_000;

/// A `.xspb` stream that defines one 64 KiB name and gives it to 2,000
/// spans, built byte by byte so it depends on no writer: the header, one
/// name record, then span records without parent, tags or logs.
fn one_name_many_spans() -> Vec<u8> {
    let mut b = b"XSPB\x01".to_vec();
    b.push(0x01);
    b.extend((4 + LONG_NAME as u32).to_be_bytes());
    b.extend(0u32.to_be_bytes());
    b.extend(std::iter::repeat(b'n').take(LONG_NAME));
    for i in 0..NAMED_SPANS {
        b.push(0x02);
        b.extend(46u32.to_be_bytes());
        b.extend((i + 1).to_be_bytes()); // id
        b.extend(1u64.to_be_bytes()); // trace id
        b.extend(0u32.to_be_bytes()); // name symbol
        b.push(4); // kernel level
        b.push(0); // no parent
        b.extend((i * 10).to_be_bytes());
        b.extend((i * 10 + 5).to_be_bytes());
        b.extend(0u32.to_be_bytes()); // tags
        b.extend(0u32.to_be_bytes()); // logs
    }
    b
}

#[test]
fn decoding_xspb_holds_a_name_defined_once_once() {
    let bytes = one_name_many_spans();
    assert_eq!(bytes.len(), 167_550);
    let (spans, peak) = peak_bytes_of(|| {
        SpanBinaryReader::new(&bytes[..])
            .collect::<Result<Vec<Span>, _>>()
            .expect("a valid stream")
    });
    assert_eq!(spans.len() as u64, NAMED_SPANS);
    assert!(spans.iter().all(|s| s.name.len() == LONG_NAME));
    assert!(
        peak <= 4 * bytes.len() as u64,
        "decoding {} bytes held up to {peak} heap bytes",
        bytes.len()
    );
}
