//! The user-facing tracing API (§III-B-1).
//!
//! "XSP provides tracing APIs — `startSpan` and `finishSpan` — which can be
//! placed within the inference code to measure code regions of interest ...
//! This only requires adding two extra lines in the user's inference code."

use xsp_trace::span::tag_keys;
use xsp_trace::{Name, SpanBuilder, StackLevel, TraceId, Tracer, VirtualClock};

/// An open span; finish it to publish.
pub struct SpanHandle<'a> {
    tracer: &'a dyn Tracer,
    clock: &'a VirtualClock,
    builder: Option<SpanBuilder>,
}

/// Starts a model-level span named `name` at the current virtual time.
pub fn start_span<'a>(
    tracer: &'a dyn Tracer,
    clock: &'a VirtualClock,
    trace_id: TraceId,
    name: impl Into<Name>,
) -> SpanHandle<'a> {
    start_span_at_level(tracer, clock, trace_id, name, StackLevel::Model)
}

/// Starts a span at an explicit stack level (for application-level spans,
/// §III-E).
pub fn start_span_at_level<'a>(
    tracer: &'a dyn Tracer,
    clock: &'a VirtualClock,
    trace_id: TraceId,
    name: impl Into<Name>,
    level: StackLevel,
) -> SpanHandle<'a> {
    let builder = SpanBuilder::new(name, level, trace_id)
        .start(clock.now())
        .tag(tag_keys::TRACER, "xsp_api");
    SpanHandle {
        tracer,
        clock,
        builder: Some(builder),
    }
}

impl<'a> SpanHandle<'a> {
    /// Attaches a tag to the open span.
    pub fn tag(&mut self, key: impl Into<Name>, value: impl Into<xsp_trace::TagValue>) {
        if let Some(b) = self.builder.take() {
            self.builder = Some(b.tag(key, value));
        }
    }

    /// The span id (usable as an explicit parent for other spans).
    pub fn id(&self) -> Option<xsp_trace::SpanId> {
        self.builder.as_ref().map(|b| b.id())
    }

    /// Finishes the span at the current virtual time and publishes it.
    pub fn finish(mut self) {
        if let Some(b) = self.builder.take() {
            self.tracer.report(b.finish(self.clock.now()));
        }
    }
}

impl Drop for SpanHandle<'_> {
    fn drop(&mut self) {
        // Dropping without finish() publishes too — RAII convenience.
        if let Some(b) = self.builder.take() {
            self.tracer.report(b.finish(self.clock.now()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsp_trace::TracingServer;

    #[test]
    fn two_line_usage() {
        let server = TracingServer::new();
        let tracer = server.tracer("model");
        let clock = VirtualClock::new();
        let id = server.fresh_trace_id();

        let span = start_span(&tracer, &clock, id, "model_prediction"); // line 1
        clock.advance(1_000_000);
        span.finish(); // line 2

        let trace = server.drain();
        assert_eq!(trace.len(), 1);
        let s = &trace.spans()[0];
        assert_eq!(s.name, "model_prediction");
        assert_eq!(s.duration_ns(), 1_000_000);
        assert_eq!(s.level, StackLevel::Model);
    }

    #[test]
    fn raii_drop_publishes() {
        let server = TracingServer::new();
        let tracer = server.tracer("model");
        let clock = VirtualClock::new();
        {
            let mut span = start_span(&tracer, &clock, TraceId(1), "region");
            span.tag("batch_size", 8u64);
            clock.advance(500);
        }
        let trace = server.drain();
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace.spans()[0].tag("batch_size").unwrap().as_u64(),
            Some(8)
        );
    }

    #[test]
    fn explicit_level() {
        let server = TracingServer::new();
        let tracer = server.tracer("app");
        let clock = VirtualClock::new();
        let span = start_span_at_level(
            &tracer,
            &clock,
            TraceId(1),
            "whole_application",
            StackLevel::Application,
        );
        span.finish();
        assert_eq!(server.drain().spans()[0].level, StackLevel::Application);
    }
}
