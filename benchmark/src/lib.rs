//! The repository benchmark: four closed-loop end-to-end workloads over
//! XSP's public API, and a traced run that splits each into per-layer
//! numbers. See `README.md` next to `Cargo.toml` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! Two binaries share this library. `xspbench` measures the end-to-end
//! metrics with the system allocator and a disabled probe; `xspbench-traced`
//! installs [`alloc::CountingAlloc`], enables the [`probe::Probe`] and adds
//! the layer probes. `run.py` builds both and drives them.

pub mod alloc;
pub mod convert;
pub mod daemon;
pub mod harness;
pub mod probe;
pub mod replica;
pub mod serving;
pub mod zoo;

use harness::{json_num, json_str, Args, Report};
use probe::Probe;
use std::collections::BTreeMap;
use std::process::ExitCode;
use xsp_core::export::ExportFormat;

/// A workload: name and entry point.
pub struct Workload {
    /// Registered name.
    pub name: &'static str,
    /// Runs set-up, the measured loop and the checks, filling the report.
    pub run: fn(&Args, &mut Probe, &mut Report),
}

/// Every workload, in registration order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zoo-export",
        run: zoo::run,
    },
    Workload {
        name: "capture-convert",
        run: convert::run,
    },
    Workload {
        name: "daemon-stream",
        run: daemon::run,
    },
    Workload {
        name: "serving-sim",
        run: serving::run,
    },
];

/// Per-layer metrics of the traced run: (name, unit). A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 79] = [
    // `run_once` replica (zoo-export)
    ("models.graph_us", "us"),
    ("pipeline.setup_us", "us"),
    ("framework.predict_m_us", "us"),
    ("framework.predict_ml_us", "us"),
    ("framework.predict_mlg_us", "us"),
    ("framework.layer_overhead_us", "us"),
    ("framework.gpu_overhead_us", "us"),
    ("cupti.flush_us", "us"),
    ("trace.buffer_flush_us", "us"),
    ("trace.drain_push_us", "us"),
    ("trace.finalize_us", "us"),
    ("pipeline.extract_us", "us"),
    ("pipeline.run_once_m_us", "us"),
    ("pipeline.run_once_ml_us", "us"),
    ("pipeline.run_once_mlg_us", "us"),
    ("pipeline.replica_coverage", "ratio"),
    ("pipeline.plumbing_over_simulate", "ratio"),
    ("pipeline.serialized_reruns", "count"),
    ("pipeline.replica_points", "count"),
    ("trace.spans_per_run", "count"),
    // profile / scheduler (zoo-export)
    ("profile.run_us", "us"),
    ("profile.run_serial_us", "us"),
    ("profile.orchestration_us", "us"),
    // export (zoo-export, capture-convert) and offline ingest
    ("export.spans_us", "us"),
    ("export.chrome_us", "us"),
    ("export.xspb_us", "us"),
    ("export.folded_us", "us"),
    ("export.bytes", "bytes"),
    ("ingest.read_xspb_us", "us"),
    ("ingest.read_jsonl_us", "us"),
    ("correlate.batch_us", "us"),
    ("convert.capture_spans", "count"),
    // daemon (daemon-stream), timed at the client
    ("daemon.client_encode_us", "us"),
    ("daemon.open_us", "us"),
    ("daemon.append_jsonl_us", "us"),
    ("daemon.append_xspb_us", "us"),
    ("daemon.export_us", "us"),
    ("daemon.export_hit_us", "us"),
    ("daemon.export_miss_us", "us"),
    ("daemon.close_us", "us"),
    ("daemon.correlation_passes_per_export", "count"),
    ("daemon.export_cache_hit_ratio", "ratio"),
    ("daemon.accepted_spans", "count"),
    ("daemon.shed_spans", "count"),
    ("daemon.append_ms_p99", "ms"),
    ("daemon.live_export_ms_p50", "ms"),
    ("daemon.live_export_ms_p90", "ms"),
    // serving and the profile cache (serving-sim)
    ("serving.simulate_cold_us", "us"),
    ("serving.simulate_warm_us", "us"),
    ("serving.stream_overhead_us", "us"),
    ("serving.steps", "count"),
    ("serving.distinct_shapes", "count"),
    ("serving.steps_per_s", "1/s"),
    ("cache.fingerprint_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    // allocation calls per span, per stage
    ("alloc.pipeline.setup_per_span", "count"),
    ("alloc.framework.predict_mlg_per_span", "count"),
    ("alloc.cupti.flush_per_span", "count"),
    ("alloc.trace.buffer_flush_per_span", "count"),
    ("alloc.trace.drain_push_per_span", "count"),
    ("alloc.trace.finalize_per_span", "count"),
    ("alloc.pipeline.extract_per_span", "count"),
    ("alloc.profile.run_per_span", "count"),
    ("alloc.export.spans_per_span", "count"),
    ("alloc.export.chrome_per_span", "count"),
    ("alloc.export.xspb_per_span", "count"),
    ("alloc.export.folded_per_span", "count"),
    ("alloc.ingest.read_xspb_per_span", "count"),
    ("alloc.ingest.read_jsonl_per_span", "count"),
    ("alloc.correlate.batch_per_span", "count"),
    ("alloc.daemon.append_jsonl_per_span", "count"),
    ("alloc.daemon.append_xspb_per_span", "count"),
    ("alloc.daemon.export_per_span", "count"),
    ("alloc.serving.simulate_cold_per_span", "count"),
    // tracing overhead: traced minus untraced end-to-end time per op
    ("bench.op_ms_p50_traced", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Probe stage name of an export in `format`.
pub fn export_stage(format: ExportFormat) -> &'static str {
    match format {
        ExportFormat::Spans => "export.spans",
        ExportFormat::Binary => "export.xspb",
        ExportFormat::Chrome => "export.chrome",
        ExportFormat::Folded => "export.folded",
    }
}

/// Per-format export totals of a traced loop, for the `export.*` and
/// `alloc.export.*` metrics.
#[derive(Default)]
pub struct ExportTally {
    spans: BTreeMap<&'static str, usize>,
    bytes: usize,
    exports: usize,
}

impl ExportTally {
    /// Counts one export of `spans` spans into `bytes` bytes.
    pub fn add(&mut self, format: ExportFormat, spans: usize, bytes: usize) {
        *self.spans.entry(export_stage(format)).or_default() += spans;
        self.bytes += bytes;
        self.exports += 1;
    }

    /// Reports the export stages recorded in `probe`.
    pub fn report(&self, probe: &Probe, report: &mut Report) {
        for format in ExportFormat::ALL {
            let stage = export_stage(format);
            let s = probe.stage(stage);
            let spans = self.spans.get(stage).copied().unwrap_or(0);
            report.metric(&format!("{stage}_us"), s.mean_us(), "us");
            report.metric(
                &format!("alloc.{stage}_per_span"),
                s.thread_allocs as f64 / spans.max(1) as f64,
                "count",
            );
        }
        report.metric(
            "export.bytes",
            self.bytes as f64 / self.exports.max(1) as f64,
            "bytes",
        );
    }
}

/// Entry point of both binaries; `traced` selects the traced run.
pub fn main(traced: bool) -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xspbench: {e}");
            eprintln!(
                "usage: xspbench --workload <{}> --seed <n> --seconds <s> [--out <dir>]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("xspbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("xspbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut probe = if traced { Probe::on() } else { Probe::off() };
    let mut report = Report::default();
    (workload.run)(&args, &mut probe, &mut report);

    if traced {
        for (name, unit) in PER_LAYER {
            report.metrics.entry(name.to_owned()).or_insert((0.0, unit));
        }
        let path = args.out.join(format!("self-trace-{}.json", workload.name));
        match probe.write_chrome_trace(&path) {
            Ok(n) => {
                report.info.insert("self_trace", path.display().to_string());
                eprintln!("xspbench: wrote {n} self-trace spans to {}", path.display());
            }
            Err(e) => report.fail(format!("self trace {}: {e}", path.display())),
        }
    }
    let non_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, (v, _))| !v.is_finite())
        .map(|(k, _)| k.clone())
        .collect();
    for name in non_finite {
        report.fail(format!("metric {name} is not a finite number"));
    }
    for reason in report.failures() {
        eprintln!("xspbench: FAILED: {reason}");
    }

    report.info.insert("workload", workload.name.to_owned());
    report.info.insert("seed", args.seed.to_string());
    report.info.insert("seconds", args.seconds.to_string());
    report.info.insert("nproc", harness::nproc().to_string());
    report.info.insert("traced", traced.to_string());
    report.info.insert("digest", report.digest.clone());
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", info.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
