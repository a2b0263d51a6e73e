//! Trace export: span JSON for offline analysis pipelines, `.xspb` span
//! binary, Chrome trace-event JSON (loadable in `chrome://tracing` /
//! Perfetto) and Brendan-Gregg folded stacks.
//!
//! Every format is an incremental writer over an `io::Write` ([`stream`],
//! [`binary`]): spans leave as they are serialized, so an export never
//! holds the full serialized trace in memory. A profile-level export picks
//! its writer by format in `xsp_core::export`.

pub mod binary;
pub mod stream;

pub use binary::{
    is_xspb_prefix, read_span_binary, spans_to_binary, BinaryReadError, SpanBinaryReader,
    SpanBinaryWriter, MAX_RECORD_LEN, XSPB_MAGIC, XSPB_VERSION,
};
pub use stream::{
    read_span_json_lines, ChromeTraceWriter, FoldedStacksWriter, ReadError, SpanJsonLinesReader,
    SpanJsonLinesWriter, SpanJsonWriter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::{reconstruct_parents, CorrelatedTrace};
    use crate::server::Trace;
    use crate::span::{SpanBuilder, StackLevel, TraceId};

    fn sample_trace() -> Trace {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 256u64)
            .finish(1_000_000);
        let pid = model.id;
        let layer = SpanBuilder::new("conv2d/Conv2D", StackLevel::Layer, TraceId(1))
            .start(1_000)
            .parent(pid)
            .tag("occ", 0.5f64)
            .finish(500_000);
        Trace::from_spans(vec![model, layer])
    }

    fn folded(trace: &CorrelatedTrace) -> String {
        let mut writer = FoldedStacksWriter::new(Vec::new());
        writer.write_run(trace).unwrap();
        String::from_utf8(writer.finish().unwrap()).unwrap()
    }

    #[test]
    fn chrome_trace_shape() {
        let mut writer = ChromeTraceWriter::new(Vec::new()).unwrap();
        writer.write_trace(&sample_trace()).unwrap();
        let json = String::from_utf8(writer.finish().unwrap()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["cat"], "model");
        assert_eq!(events[1]["cat"], "layer");
        assert_eq!(events[1]["tid"], 2); // layer rank
        assert!(events[1]["args"]["parent"].is_u64());
        // ns -> µs conversion
        assert_eq!(events[0]["dur"].as_f64().unwrap(), 1_000.0);
    }

    #[test]
    fn span_json_roundtrip() {
        let trace = sample_trace();
        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        writer.write_trace(&trace).unwrap();
        let back = read_span_json_lines(&writer.finish().unwrap()[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.spans()[0].name, "predict");
        assert_eq!(back.spans()[1].parent, trace.spans()[1].parent);
        assert_eq!(
            back.spans()[0].tag("batch_size").unwrap().as_u64(),
            Some(256)
        );
    }

    #[test]
    fn span_json_wrapper_matches_direct_serialization() {
        // The pre-streaming exporter was serde_json::to_string(spans); the
        // array writer must reproduce it byte-for-byte.
        let trace = sample_trace();
        let mut writer = SpanJsonWriter::new(Vec::new()).unwrap();
        writer.write_trace(&trace).unwrap();
        assert_eq!(
            writer.finish().unwrap(),
            serde_json::to_string(trace.spans()).unwrap().into_bytes()
        );
        let empty = SpanJsonWriter::new(Vec::new()).unwrap();
        assert_eq!(empty.finish().unwrap(), b"[]");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(read_span_json_lines(&b"not json\n"[..]).is_err());
    }

    #[test]
    fn folded_stacks_weight_self_time() {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(10_000_000); // 10 ms
        let layer = SpanBuilder::new("conv", StackLevel::Layer, TraceId(1))
            .start(1_000_000)
            .finish(9_000_000); // 8 ms
        let kernel = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1))
            .start(2_000_000)
            .finish(8_000_000); // 6 ms
        let c = reconstruct_parents(&Trace::from_spans(vec![model, layer, kernel]));
        let folded = folded(&c);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3, "{folded}");
        assert!(lines.contains(&"predict 2000"), "{folded}"); // 10-8 ms self
        assert!(lines.contains(&"predict;conv 2000"), "{folded}");
        assert!(lines.contains(&"predict;conv;k 6000"), "{folded}");
    }

    #[test]
    fn folded_stacks_sanitize_names() {
        let s = SpanBuilder::new("has space;semi", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(2_000);
        let c = reconstruct_parents(&Trace::from_spans(vec![s]));
        let folded = folded(&c);
        assert!(folded.starts_with("has_space_semi "), "{folded}");
    }
}
