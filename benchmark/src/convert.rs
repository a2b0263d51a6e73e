//! `capture-convert`: `xsp export --from`, done in-process through the
//! calls the CLI makes — read a saved capture (`.xspb` or span-JSON-lines),
//! re-correlate it with `profile_from_trace`, and stream it out with
//! `export_run_profile`.
//!
//! Set-up builds one seeded multi-run capture of at least
//! [`CAPTURE_SPANS`] spans (M/L/G runs of several models) in both
//! encodings. One cycle converts it four times (see [`COMBOS`]);
//! simulation is bypassed entirely.

use crate::harness::{
    bytes_digest, repeated_setup, Args, Digest, OpTimes, PeakRss, Report, SETUP_REPS,
};
use crate::probe::Probe;
use crate::{export_stage, ExportTally};
use std::collections::BTreeMap;
use std::time::Instant;
use xsp_core::export::{export_run_profile, ExportFormat};
use xsp_core::pipeline::{profile_from_trace, run_once, RunProfile};
use xsp_core::profile::{ProfilingLevel, XspConfig};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::export::{
    read_span_binary, read_span_json_lines, SpanBinaryWriter, SpanJsonLinesWriter,
};
use xsp_trace::{with_span_id_scope, Span, Trace};

/// Minimum spans in the capture.
pub const CAPTURE_SPANS: usize = 100_000;

/// Models whose M/L/G runs make up the capture, taken in turn.
const MODELS: [(&str, usize); 4] = [
    ("MLPerf_ResNet50_v1.5", 8),
    ("BERT-Base_SQuAD_384", 8),
    ("Inception_v3", 4),
    ("MobileNet_v1_1.0_224", 8),
];

/// One cycle: (input is `.xspb`, output format). Each encoding is read
/// twice and each format written once. The expensive span-JSON-lines read
/// is paired with the cheap `.xspb` and folded writers, and the cheap
/// `.xspb` read with the expensive JSON writers, so the four conversions
/// take similar time and every kind gets many samples per run.
const COMBOS: [(bool, ExportFormat); 4] = [
    (true, ExportFormat::Chrome),
    (false, ExportFormat::Binary),
    (true, ExportFormat::Spans),
    (false, ExportFormat::Folded),
];

struct Capture {
    spans: Vec<Span>,
    jsonl: Vec<u8>,
    xspb: Vec<u8>,
    digest: Digest,
}

fn setup(args: &Args) -> Capture {
    let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
        .seed(args.derive("capture-convert/jitter"));
    let graphs: Vec<_> = MODELS
        .iter()
        .map(|&(name, batch)| zoo::by_name(name).expect("zoo model").graph(batch))
        .collect();
    let mut spans = Vec::new();
    let mut digest = Digest::default();
    let mut run = 0u64;
    while spans.len() < CAPTURE_SPANS {
        let graph = &graphs[run as usize % graphs.len()];
        // Distinct span-id scopes keep ids unique across the capture.
        let profile = with_span_id_scope(run + 1, || {
            run_once(&cfg, graph, ProfilingLevel::ModelLayerGpu, run)
        });
        digest
            .u64("run", run)
            .f64("predict_ms", profile.phases.predict_ms)
            .u64("spans", profile.trace.len() as u64)
            .u64("kernels", profile.kernels.len() as u64);
        spans.extend(profile.trace.iter_spans().cloned());
        run += 1;
    }
    let mut jsonl = SpanJsonLinesWriter::new(Vec::new());
    let mut xspb = SpanBinaryWriter::new(Vec::new()).expect("Vec writes cannot fail");
    for span in &spans {
        jsonl.write_span(span).expect("Vec writes cannot fail");
        xspb.write_span(span).expect("Vec writes cannot fail");
    }
    Capture {
        spans,
        jsonl: jsonl.finish().expect("Vec writes cannot fail"),
        xspb: xspb.finish().expect("Vec writes cannot fail"),
        digest,
    }
}

/// The conversion itself, exporting into `out` (replacing its contents);
/// returns the span count of the re-correlated capture. `out` is reused
/// across operations, as a file would be: a fresh `Vec` growing to tens
/// of megabytes per export would time the kernel's page faults instead of
/// the export.
fn convert(
    probe: &mut Probe,
    capture: &Capture,
    binary: bool,
    format: ExportFormat,
    out: &mut Vec<u8>,
) -> Result<usize, String> {
    let trace = if binary {
        probe
            .time("ingest.read_xspb", || read_span_binary(&capture.xspb[..]))
            .map_err(|e| e.to_string())?
    } else {
        probe
            .time("ingest.read_jsonl", || {
                read_span_json_lines(&capture.jsonl[..])
            })
            .map_err(|e| e.to_string())?
    };
    let profile = probe.time("correlate.batch", || {
        profile_from_trace(trace, ProfilingLevel::ModelLayerGpu)
    });
    out.clear();
    probe.begin(export_stage(format));
    let written = export_run_profile(&profile, format, &mut *out);
    probe.end();
    written.map_err(|e| e.to_string())?;
    Ok(profile.trace.len())
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, probe: &mut Probe, report: &mut Report) {
    let (capture, setup_s) = repeated_setup(SETUP_REPS, || setup(args));
    let n_spans = capture.spans.len();
    report.info.insert("capture_spans", n_spans.to_string());

    let mut ops = OpTimes::default();
    let mut exports = ExportTally::default();
    // Reference bytes per format: the export of the in-memory source
    // spans, re-correlated once.
    let mut source: Option<RunProfile> = None;
    let mut reference: BTreeMap<&'static str, u128> = BTreeMap::new();
    let mut bytes = Vec::new();
    let mut rss = PeakRss::start();
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || start.elapsed() < args.window() {
        for (kind, &(binary, format)) in COMBOS.iter().enumerate() {
            report.attempt();
            probe.begin("convert.op");
            let t0 = Instant::now();
            let result = convert(probe, &capture, binary, format, &mut bytes);
            let took = t0.elapsed();
            probe.end();
            let spans = match result {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("convert (xspb={binary}) to {format}: {e}"));
                    continue;
                }
            };
            ops.record(kind, took, spans);
            exports.add(format, spans, bytes.len());

            // Output check (untimed): both encodings round-trip to the
            // export of the source capture itself.
            let expected = *reference.entry(format.label()).or_insert_with(|| {
                let profile = source.get_or_insert_with(|| {
                    let trace = Trace::from_spans(capture.spans.clone());
                    profile_from_trace(trace, ProfilingLevel::ModelLayerGpu)
                });
                let mut out = Vec::new();
                export_run_profile(profile, format, &mut out).expect("Vec export");
                bytes_digest(&out)
            });
            report.check(bytes_digest(&bytes) == expected && spans == n_spans, || {
                format!(
                    "convert (xspb={binary}) to {format}: output differs from the source export"
                )
            });
        }
        rss.lap();
        cycle += 1;
    }

    let mut digest = capture.digest;
    for (format, d) in &reference {
        digest.bytes(format, &d.to_le_bytes());
    }
    report.digest = digest.hex();
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss.median_mb(), "MB");
    report.metric("op_ms_p50", ops.quantile_ms(0.5), "ms");
    report.metric("op_ms_p90", ops.quantile_ms(0.9), "ms");
    report.metric("ops_per_s", ops.ops_per_s(), "1/s");
    report.metric("spans_per_s", ops.units_per_s(), "1/s");
    report.info.insert("ops", ops.count().to_string());
    report.info.insert("cycles", cycle.to_string());

    if probe.enabled() {
        report.metric("bench.op_ms_p50_traced", ops.quantile_ms(0.5), "ms");
        report.metric("convert.capture_spans", n_spans as f64, "count");
        let per_read = |stage: &str| {
            let s = probe.stage(stage);
            (
                s.mean_us(),
                s.thread_allocs as f64 / (s.calls as f64 * n_spans as f64).max(1.0),
            )
        };
        for (stage, name) in [
            ("ingest.read_xspb", "ingest.read_xspb"),
            ("ingest.read_jsonl", "ingest.read_jsonl"),
            ("correlate.batch", "correlate.batch"),
        ] {
            let (us, allocs) = per_read(stage);
            report.metric(&format!("{name}_us"), us, "us");
            report.metric(&format!("alloc.{name}_per_span"), allocs, "count");
        }
        exports.report(probe, report);
    }
}
