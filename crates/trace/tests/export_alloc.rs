//! Allocation ceilings of span JSON. Once a writer's line buffer has grown
//! to the largest span, writing spans allocates nothing; reading spans
//! back allocates what cloning them does, plus a constant for the reader's
//! buffers. The counts are exact and machine-independent, unlike wall
//! time.
//!
//! This binary installs a counting global allocator and counts per thread,
//! so the test harness's own threads cannot disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use xsp_trace::export::{ChromeTraceWriter, SpanJsonLinesReader, SpanJsonLinesWriter};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, SpanBuilder, StackLevel, TraceId};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` via this allocator with
        // `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
