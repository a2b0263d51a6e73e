//! Tracers: per-profiler span publishers (§III-A step 1: "each profiler
//! within a stack is turned into a tracer").
//!
//! Every profiler — the model-level timer, the framework layer profiler, the
//! CUPTI adapter — holds a [`Tracer`] and publishes finished spans through
//! it. Spans travel over a lock-free channel to the [`crate::TracingServer`],
//! so publication is asynchronous and adds negligible overhead to the
//! profiled application (§III-C: "creating spans online adds negligible
//! overhead per span"). Tracers can be enabled and disabled at runtime, which
//! is the mechanism behind leveled experimentation.
//!
//! The channel carries *batches* of spans. A plain [`ChannelTracer`]
//! publishes singleton batches; a [`SpanBuffer`] accumulates spans locally
//! and flushes them as one atomic batch, so spans produced by one worker
//! arrive at the server contiguously even when many workers publish to the
//! same server concurrently. That contiguity — not a post-hoc re-sort of a
//! shared buffer — is what keeps concurrent trace assembly deterministic.

use crate::span::Span;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A destination for finished spans.
pub trait Tracer: Send + Sync {
    /// Publishes a finished span. Implementations must not block on the
    /// consumer.
    fn report(&self, span: Span);

    /// Whether the tracer currently forwards spans. Disabled tracers drop
    /// spans silently, letting callers skip span construction entirely.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A tracer that forwards spans to a tracing server over a channel.
///
/// The channel is unbounded: the profiled application never blocks on the
/// aggregation side. An atomic enable flag supports runtime toggling
/// (§III-A: "tracers can be enabled or disabled at runtime").
#[derive(Clone)]
pub struct ChannelTracer {
    name: &'static str,
    tx: Sender<Vec<Span>>,
    enabled: Arc<AtomicBool>,
}

impl ChannelTracer {
    /// Creates a tracer named `name` publishing into `tx`.
    pub fn new(name: &'static str, tx: Sender<Vec<Span>>) -> Self {
        Self {
            name,
            tx,
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// The tracer's name (identifies the producing profiler).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Enables or disables the tracer.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Publishes a batch of spans atomically: the batch arrives at the
    /// server contiguously, with no spans from other producers interleaved.
    pub fn report_batch(&self, spans: Vec<Span>) {
        if !spans.is_empty() && self.is_enabled() {
            // The server may already have shut down during teardown; spans
            // reported after that point are intentionally dropped.
            let _ = self.tx.send(spans);
        }
    }
}

impl Tracer for ChannelTracer {
    fn report(&self, span: Span) {
        if self.is_enabled() {
            let _ = self.tx.send(vec![span]);
        }
    }

    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }
}

/// A buffering tracer: spans accumulate locally and reach the server only on
/// [`SpanBuffer::flush`] (or drop), as one atomic batch.
///
/// This is the per-worker publication path of the parallel evaluation
/// engine. Each worker buffers the spans of the run it is executing and
/// flushes them in one piece, so a server shared by many workers receives
/// every run's spans contiguously — trace assembly then depends only on
/// trace ids, never on cross-thread arrival interleaving.
pub struct SpanBuffer {
    inner: ChannelTracer,
    buf: Mutex<Vec<Span>>,
}

impl SpanBuffer {
    /// Creates a buffer that flushes into `inner`.
    pub fn new(inner: ChannelTracer) -> Self {
        Self {
            inner,
            buf: Mutex::new(Vec::new()),
        }
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Sends every buffered span to the server as one atomic batch and
    /// returns how many were flushed.
    ///
    /// The enable flag gates *buffering* ([`Tracer::report`]); spans that
    /// were legitimately recorded while the tracer was enabled are always
    /// delivered, even if the tracer has been disabled since.
    pub fn flush(&self) -> usize {
        let spans = std::mem::take(&mut *self.buf.lock());
        let n = spans.len();
        if n > 0 {
            // Deliberately bypasses report_batch's enable check (same
            // module): the gate already ran at report() time.
            let _ = self.inner.tx.send(spans);
        }
        n
    }
}

impl Tracer for SpanBuffer {
    fn report(&self, span: Span) {
        if self.inner.is_enabled() {
            self.buf.lock().push(span);
        }
    }

    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }
}

impl Drop for SpanBuffer {
    fn drop(&mut self) {
        // Buffered spans must not be lost if the caller forgets to flush.
        self.flush();
    }
}

/// A tracer that drops every span; used when a stack level's profiling is
/// turned off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn report(&self, _span: Span) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanBuilder, StackLevel, TraceId};

    fn mk_span(name: &'static str) -> Span {
        SpanBuilder::new(name, StackLevel::Model, TraceId(0))
            .start(0)
            .finish(1)
    }

    #[test]
    fn channel_tracer_forwards_spans() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let tracer = ChannelTracer::new("test", tx);
        tracer.report(mk_span("a"));
        tracer.report(mk_span("b"));
        let got: Vec<_> = rx.try_iter().flatten().map(|s| s.name).collect();
        assert_eq!(got, vec!["a", "b"]);
    }

    #[test]
    fn disabled_tracer_drops_spans() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let tracer = ChannelTracer::new("test", tx);
        tracer.set_enabled(false);
        assert!(!tracer.is_enabled());
        tracer.report(mk_span("dropped"));
        assert!(rx.try_iter().next().is_none());
        tracer.set_enabled(true);
        tracer.report(mk_span("kept"));
        assert_eq!(rx.try_iter().flatten().count(), 1);
    }

    #[test]
    fn clones_share_enable_flag() {
        let (tx, _rx) = crossbeam_channel::unbounded();
        let a = ChannelTracer::new("t", tx);
        let b = a.clone();
        b.set_enabled(false);
        assert!(!a.is_enabled());
    }

    #[test]
    fn report_after_receiver_drop_is_silent() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let tracer = ChannelTracer::new("t", tx);
        drop(rx);
        tracer.report(mk_span("late")); // must not panic
    }

    #[test]
    fn batch_arrives_as_one_message() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let tracer = ChannelTracer::new("t", tx);
        tracer.report_batch(vec![mk_span("a"), mk_span("b")]);
        tracer.report_batch(Vec::new()); // empty batches are elided
        let batches: Vec<Vec<Span>> = rx.try_iter().collect();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn span_buffer_holds_until_flush() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let buffer = SpanBuffer::new(ChannelTracer::new("t", tx));
        buffer.report(mk_span("a"));
        buffer.report(mk_span("b"));
        assert_eq!(buffer.len(), 2);
        assert!(rx.try_iter().next().is_none(), "nothing sent before flush");
        assert_eq!(buffer.flush(), 2);
        assert!(buffer.is_empty());
        let batches: Vec<Vec<Span>> = rx.try_iter().collect();
        assert_eq!(batches.len(), 1, "flush is one atomic batch");
        assert_eq!(batches[0][1].name, "b");
    }

    #[test]
    fn span_buffer_flushes_on_drop() {
        let (tx, rx) = crossbeam_channel::unbounded();
        {
            let buffer = SpanBuffer::new(ChannelTracer::new("t", tx));
            buffer.report(mk_span("late"));
        }
        assert_eq!(rx.try_iter().flatten().count(), 1);
    }

    #[test]
    fn span_buffer_respects_enable_flag() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let inner = ChannelTracer::new("t", tx);
        inner.set_enabled(false);
        let buffer = SpanBuffer::new(inner);
        assert!(!buffer.is_enabled());
        buffer.report(mk_span("dropped"));
        assert_eq!(buffer.flush(), 0);
        assert!(rx.try_iter().next().is_none());
    }

    #[test]
    fn span_buffer_flush_delivers_despite_late_disable() {
        // Enable gating happens at report time; disabling the tracer after
        // spans were buffered must not swallow them on flush.
        let (tx, rx) = crossbeam_channel::unbounded();
        let inner = ChannelTracer::new("t", tx);
        let buffer = SpanBuffer::new(inner.clone());
        buffer.report(mk_span("recorded_while_enabled"));
        inner.set_enabled(false);
        assert_eq!(buffer.flush(), 1);
        assert_eq!(rx.try_iter().flatten().count(), 1);
    }

    #[test]
    fn noop_tracer_is_disabled() {
        assert!(!NoopTracer.is_enabled());
        NoopTracer.report(mk_span("x"));
    }
}
