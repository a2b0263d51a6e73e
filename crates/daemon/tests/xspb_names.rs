//! A `.xspb` Append whose one name record names every span: the daemon
//! holds that name once while it decodes the frame, so a small frame
//! cannot make it hold a copy of the name per span.
//!
//! This binary installs a global allocator that tracks the bytes the whole
//! process holds, because the daemon decodes on its connection thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;
use xsp_core::export::ExportFormat;
use xsp_daemon::{spawn, DaemonClient, DaemonConfig, OpenOptions};
use xsp_trace::export::SpanBinaryReader;
use xsp_trace::{Span, SpanBuilder, StackLevel, TraceId};

struct TrackingAlloc;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn add_bytes(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is an atomic byte count.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_bytes(layout.size() as i64);
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_bytes(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Runs `f` and returns its result with the most heap bytes the process
/// held at once while `f` ran, beyond what it held before.
fn peak_bytes_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = f();
    (result, (PEAK.load(Ordering::Relaxed) - base).max(0) as u64)
}

/// Bytes of the name the frame defines once.
const LONG_NAME: usize = 64 << 10;
/// Spans of the frame, each named by that one name.
const NAMED_SPANS: u64 = 2_000;

/// A `.xspb` stream that defines one 64 KiB name and gives it to 2,000
/// spans, built byte by byte: the header, one name record, then span
/// records without parent, tags or logs.
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
fn a_name_defined_once_is_held_once_through_append_and_export() {
    let socket = std::env::temp_dir().join(format!("xspd-{}-names.sock", std::process::id()));
    let mut config = DaemonConfig::new(socket);
    config.poll_interval = Duration::from_millis(10);
    let handle = spawn(config).expect("daemon binds its socket");
    let mut c = DaemonClient::connect(handle.socket_path()).expect("daemon accepts");
    let session = c.open(&OpenOptions::default()).unwrap();

    let frame = one_name_many_spans();
    assert_eq!(frame.len(), 167_550);
    let (ack, peak) = peak_bytes_of(|| c.append_raw(session, &frame));
    assert_eq!(
        ack.expect("the frame is acked").stats.resident,
        NAMED_SPANS as usize
    );
    // The client's frame copy, the server's frame buffer, the decoded spans
    // and the session's columns: a few times the frame, never a copy of the
    // name per span (2,000 × 64 KiB = 131 MB).
    assert!(
        peak <= 8 * frame.len() as u64,
        "appending a {}-byte frame held up to {peak} heap bytes",
        frame.len()
    );

    let exported = c
        .export(session, ExportFormat::Binary)
        .expect("the session exports");
    assert!(
        exported.len() <= frame.len(),
        "the export defines the name once"
    );
    let spans: Vec<Span> = SpanBinaryReader::new(&exported[..])
        .collect::<Result<_, _>>()
        .expect("the export decodes");
    assert_eq!(spans.len() as u64, NAMED_SPANS);
    assert!(spans.iter().all(|s| s.name.len() == LONG_NAME));

    // A second session on a second connection still works.
    let mut other = DaemonClient::connect(handle.socket_path()).expect("daemon accepts");
    let second = other.open(&OpenOptions::default()).unwrap();
    let span = SpanBuilder::new("after", StackLevel::Model, TraceId(1))
        .start(0)
        .finish(1);
    assert_eq!(
        other.append_spans(second, &[span]).unwrap().stats.resident,
        1
    );
    assert!(!other
        .export(second, ExportFormat::Spans)
        .unwrap()
        .is_empty());
    handle.shutdown();
}
