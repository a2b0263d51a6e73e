//! Sustained span-path throughput: the tentpole benchmark for the
//! arena/SoA [`SpanStore`] and the `.xspb` binary interchange.
//!
//! Four families, each at 10k and 100k spans. In the first three every
//! arm runs the same correlation pass; the arms differ in how spans arrive
//! and in which output step they take:
//!
//! * **spanpath** — publish → drain → correlate, the resident hot path.
//!   The `span` arm drains into a `Trace` (one owned [`Span`] per span,
//!   its strings shared) and correlates it, moving the spans into the
//!   result; the `store` arm drains into a [`SpanStore`] (columns +
//!   interned names) and correlates over store indices without
//!   materializing.
//! * **incremental** — the `push` arm feeds owned spans chunk by chunk
//!   into the correlation window and finalizes it; the `batch` arm drains
//!   once and correlates once.
//! * **ingest** — parse → correlate from saved capture bytes, the offline
//!   path. The `jsonl` arm parses span-JSON-lines into owned spans; the
//!   `xspb` arm streams the binary format directly into a store and
//!   correlates over store indices. At 100k spans the read half of each
//!   arm is also timed alone (`ingest_read/*`), and an `xspb_spans` arm
//!   reads the binary format into owned spans and correlates those: the
//!   store's margin over plain spans on the same input. Both are for
//!   information only.
//!
//! The fourth, **export**, runs no correlation: it times the JSON writers
//! alone. The `jsonl` arm writes span-JSON-lines, the `chrome` arm Chrome
//! trace events, both into an output buffer reused across passes.
//!
//! `--quick` (or `XSP_BENCH_QUICK=1`) is the CI smoke lane: reduced
//! samples, and with `--json <path>` a machine-readable summary of
//! sustained spans/sec per arm (the export and `ingest_read` arms for
//! information only). The run *fails* if `.xspb` ingest does not sustain
//! at least 5× the JSONL ingest rate at 100k spans — the interchange
//! format's reason to exist, enforced as a regression gate.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use xsp_bench::summary::{json_artifact_path, BenchSummary};
use xsp_trace::export::{ChromeTraceWriter, SpanBinaryReader, SpanJsonLinesWriter};
use xsp_trace::span::tag_keys;
use xsp_trace::{
    CorrelationEngine, Span, SpanBuilder, SpanStore, StackLevel, TraceId, Tracer, TracingServer,
};

/// A synthetic correlated workload shaped like M/L/G runs: one model span
/// and 50 layers per run, async kernel launch/execution pairs filling the
/// rest — the same shape `micro_infrastructure` uses, scaled up.
fn mk_run_spans(total: usize, runs: u64) -> Vec<Span> {
    let mut spans = Vec::with_capacity(total);
    let layers_per_run = 50usize;
    let per_run = total / runs as usize;
    for run in 0..runs {
        let trace_id = TraceId(run + 1);
        let model = SpanBuilder::new("model_prediction", StackLevel::Model, trace_id)
            .start(0)
            .finish(10_000_000);
        let model_id = model.id;
        spans.push(model);
        let layer_len = 10_000_000 / layers_per_run as u64;
        for l in 0..layers_per_run {
            spans.push(
                SpanBuilder::new(format!("layer{l}"), StackLevel::Layer, trace_id)
                    .start(l as u64 * layer_len)
                    .parent(model_id)
                    .finish((l as u64 + 1) * layer_len - 1),
            );
        }
        let kernels = (per_run.saturating_sub(1 + layers_per_run)) / 2;
        for k in 0..kernels as u64 {
            let layer_start = (k % layers_per_run as u64) * layer_len;
            let cid = k + 1;
            spans.push(
                SpanBuilder::new("cudaLaunchKernel", StackLevel::Kernel, trace_id)
                    .start(layer_start + 10)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_LAUNCH, true)
                    .finish(layer_start + 20),
            );
            spans.push(
                SpanBuilder::new("volta_scudnn_128x64", StackLevel::Kernel, trace_id)
                    .start(layer_start + 30)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_EXECUTION, true)
                    .finish(layer_start + layer_len / 2),
            );
        }
    }
    spans
}

fn jsonl_bytes(spans: &[Span]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = SpanJsonLinesWriter::new(&mut out);
    for span in spans {
        w.write_span(span).expect("Vec writes cannot fail");
    }
    w.finish().expect("Vec writes cannot fail");
    out
}

fn xspb_bytes(spans: &[Span]) -> Vec<u8> {
    xsp_trace::export::spans_to_binary(spans)
}

/// Median wall time of `body` in seconds over `samples` iterations (one
/// untimed warmup) — the measurement behind the spans/sec summary.
fn median_secs(samples: usize, mut body: impl FnMut()) -> f64 {
    body();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[(times.len() - 1) / 2]
}

/// The resident hot path: spans published through a buffer, drained, and
/// correlated — once into owned spans, once into the columnar store.
fn bench_spanpath(
    c: &mut Criterion,
    summary: &mut Option<BenchSummary>,
    rates: &mut Vec<(String, f64)>,
    quick: bool,
) {
    let samples = if quick { 5 } else { 15 };
    let mut g = c.benchmark_group("spanpath");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let spans = mk_run_spans(n, 8);

        let span_pass = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            for s in &spans {
                buffer.report(s.clone());
            }
            buffer.flush();
            let trace = server.drain();
            black_box(CorrelationEngine::new().correlate(trace))
        };
        let store_pass = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            for s in &spans {
                buffer.report(s.clone());
            }
            buffer.flush();
            let mut store = SpanStore::with_capacity(n);
            server.drain_each(|span| {
                store.push_owned(span);
            });
            black_box(CorrelationEngine::new().correlate_store(&store))
        };
        g.bench_with_input(BenchmarkId::new("span", n), &n, |b, _| b.iter(span_pass));
        g.bench_with_input(BenchmarkId::new("store", n), &n, |b, _| b.iter(store_pass));

        for (label, secs) in [
            (
                "span",
                median_secs(samples, || {
                    span_pass();
                }),
            ),
            (
                "store",
                median_secs(samples, || {
                    store_pass();
                }),
            ),
        ] {
            let rate = n as f64 / secs;
            rates.push((format!("spanpath/{label}/{n}"), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point(format!("spanpath/{label}/{n}"), &[("spans_per_sec", rate)]);
            }
        }
    }
    g.finish();
}

/// Incremental correlation vs the batch engine: both arms publish the same
/// spans and end with a fully correlated trace, but the `batch` arm drains
/// everything at the end and correlates once, while the `push` arm drains
/// after every chunk into `CorrelationEngine::push_batch` (the sweep /
/// daemon shape) and finalizes the window. The contract pinned by the
/// oracle proptest says the outputs are identical; this group pins the
/// cost of getting them incrementally.
fn bench_incremental(
    c: &mut Criterion,
    summary: &mut Option<BenchSummary>,
    rates: &mut Vec<(String, f64)>,
    quick: bool,
) {
    let samples = if quick { 5 } else { 15 };
    let mut g = c.benchmark_group("incremental");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let spans = mk_run_spans(n, 8);
        // 16 sweeps over the run — roughly the drain cadence of a resident
        // profile with a few thousand spans per flush.
        let chunk = (n / 16).max(1);

        let batch_pass = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            for s in &spans {
                buffer.report(s.clone());
            }
            buffer.flush();
            let trace = server.drain();
            black_box(CorrelationEngine::new().correlate(trace))
        };
        let push_pass = || {
            let server = TracingServer::new();
            let buffer = server.buffer("bench");
            let mut engine = CorrelationEngine::new();
            for batch in spans.chunks(chunk) {
                for s in batch {
                    buffer.report(s.clone());
                }
                buffer.flush();
                server.drain_each(|span| engine.push_span(span));
            }
            black_box(engine.finalize_all())
        };
        g.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| b.iter(batch_pass));
        g.bench_with_input(BenchmarkId::new("push", n), &n, |b, _| b.iter(push_pass));

        for (label, secs) in [
            (
                "batch",
                median_secs(samples, || {
                    batch_pass();
                }),
            ),
            (
                "push",
                median_secs(samples, || {
                    push_pass();
                }),
            ),
        ] {
            let rate = n as f64 / secs;
            rates.push((format!("incremental/{label}/{n}"), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point(
                    format!("incremental/{label}/{n}"),
                    &[("spans_per_sec", rate)],
                );
            }
        }
    }
    g.finish();
}

/// The offline path: capture bytes parsed and correlated — JSONL through
/// owned spans vs `.xspb` streamed straight into a store.
fn bench_ingest(
    c: &mut Criterion,
    summary: &mut Option<BenchSummary>,
    rates: &mut Vec<(String, f64)>,
    quick: bool,
) {
    let samples = if quick { 5 } else { 15 };
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let spans = mk_run_spans(n, 8);
        let jsonl = jsonl_bytes(&spans);
        let xspb = xspb_bytes(&spans);

        let jsonl_pass = || {
            let trace =
                xsp_trace::export::read_span_json_lines(&jsonl[..]).expect("own JSONL parses");
            black_box(CorrelationEngine::new().correlate(trace))
        };
        let xspb_pass = || {
            let mut store = SpanStore::with_capacity(n);
            SpanBinaryReader::new(&xspb[..])
                .read_into_store(&mut store)
                .expect("own encoding parses");
            black_box(CorrelationEngine::new().correlate_store(&store))
        };
        g.bench_with_input(BenchmarkId::new("jsonl", n), &n, |b, _| b.iter(jsonl_pass));
        g.bench_with_input(BenchmarkId::new("xspb", n), &n, |b, _| b.iter(xspb_pass));

        for (label, secs) in [
            (
                "jsonl",
                median_secs(samples, || {
                    jsonl_pass();
                }),
            ),
            (
                "xspb",
                median_secs(samples, || {
                    xspb_pass();
                }),
            ),
        ] {
            let rate = n as f64 / secs;
            rates.push((format!("ingest/{label}/{n}"), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point(format!("ingest/{label}/{n}"), &[("spans_per_sec", rate)]);
            }
        }

        // The read half of each arm alone, for information: it shows how
        // much of the gated ratio is parsing rather than correlation. And
        // `.xspb` into owned spans, correlated as spans: what the store
        // adds over the span path on the same bytes.
        if n == 100_000 {
            let secs = median_secs(samples, || {
                let trace =
                    xsp_trace::export::read_span_binary(&xspb[..]).expect("own encoding parses");
                black_box(CorrelationEngine::new().correlate(trace));
            });
            let rate = n as f64 / secs;
            rates.push(("ingest/xspb_spans/100000".to_owned(), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point("ingest/xspb_spans/100000", &[("spans_per_sec", rate)]);
            }

            for (label, secs) in [
                (
                    "jsonl",
                    median_secs(samples, || {
                        black_box(
                            xsp_trace::export::read_span_json_lines(&jsonl[..])
                                .expect("own JSONL parses"),
                        );
                    }),
                ),
                (
                    "xspb",
                    median_secs(samples, || {
                        let mut store = SpanStore::with_capacity(n);
                        SpanBinaryReader::new(&xspb[..])
                            .read_into_store(&mut store)
                            .expect("own encoding parses");
                        black_box(store);
                    }),
                ),
            ] {
                let rate = n as f64 / secs;
                rates.push((format!("ingest_read/{label}"), rate));
                if let Some(summary) = summary.as_mut() {
                    summary.point(format!("ingest_read/{label}"), &[("spans_per_sec", rate)]);
                }
            }
        }
    }
    g.finish();
}

/// Writer throughput: the same spans written as span-JSON-lines and as
/// Chrome trace events into an output `Vec` each arm reuses, so the timed
/// work is serialization, not output growth.
fn bench_export(
    c: &mut Criterion,
    summary: &mut Option<BenchSummary>,
    rates: &mut Vec<(String, f64)>,
    quick: bool,
) {
    let samples = if quick { 5 } else { 15 };
    let mut g = c.benchmark_group("export");
    g.sample_size(10);
    for n in [10_000usize, 100_000] {
        let spans = mk_run_spans(n, 8);
        let mut jsonl_out = Vec::new();
        let mut jsonl_pass = || {
            jsonl_out.clear();
            let mut w = SpanJsonLinesWriter::new(&mut jsonl_out);
            for span in &spans {
                w.write_span(span).expect("Vec writes cannot fail");
            }
            black_box(w.written())
        };
        let mut chrome_out = Vec::new();
        let mut chrome_pass = || {
            chrome_out.clear();
            let mut w = ChromeTraceWriter::new(&mut chrome_out).expect("Vec writes cannot fail");
            for span in &spans {
                w.write_span(span).expect("Vec writes cannot fail");
            }
            w.close().expect("Vec writes cannot fail");
            black_box(w.written())
        };
        g.bench_with_input(BenchmarkId::new("jsonl", n), &n, |b, _| {
            b.iter(&mut jsonl_pass)
        });
        g.bench_with_input(BenchmarkId::new("chrome", n), &n, |b, _| {
            b.iter(&mut chrome_pass)
        });

        for (label, secs) in [
            (
                "jsonl",
                median_secs(samples, || {
                    jsonl_pass();
                }),
            ),
            (
                "chrome",
                median_secs(samples, || {
                    chrome_pass();
                }),
            ),
        ] {
            let rate = n as f64 / secs;
            rates.push((format!("export/{label}/{n}"), rate));
            if let Some(summary) = summary.as_mut() {
                summary.point(format!("export/{label}/{n}"), &[("spans_per_sec", rate)]);
            }
        }
    }
    g.finish();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("XSP_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let json_path = json_artifact_path("spanpath_throughput", std::env::args());
    let mut summary = json_path
        .is_some()
        .then(|| BenchSummary::start("spanpath_throughput", quick));
    let mut criterion = Criterion::default().configure_from_args();
    let mut rates: Vec<(String, f64)> = Vec::new();
    bench_spanpath(&mut criterion, &mut summary, &mut rates, quick);
    bench_incremental(&mut criterion, &mut summary, &mut rates, quick);
    bench_ingest(&mut criterion, &mut summary, &mut rates, quick);
    bench_export(&mut criterion, &mut summary, &mut rates, quick);

    println!("\nsustained span-path throughput (median):");
    for (id, rate) in &rates {
        println!("  {id:<28} {:>12.0} spans/sec", rate);
    }
    let rate_of = |id: &str| {
        rates
            .iter()
            .find(|(name, _)| name == id)
            .map(|(_, r)| *r)
            .expect("arm measured")
    };
    let ingest_ratio = rate_of("ingest/xspb/100000") / rate_of("ingest/jsonl/100000");
    let path_ratio = rate_of("spanpath/store/100000") / rate_of("spanpath/span/100000");
    let incr_ratio = rate_of("incremental/push/100000") / rate_of("incremental/batch/100000");
    let spans_ratio = rate_of("ingest/xspb_spans/100000") / rate_of("ingest/jsonl/100000");
    println!("  ingest speedup @100k (xspb/jsonl):   {ingest_ratio:.1}x");
    println!("  ... with owned spans (no gate):      {spans_ratio:.1}x");
    println!("  spanpath speedup @100k (store/span): {path_ratio:.1}x");
    println!("  incremental cost @100k (push/batch): {incr_ratio:.2}x");
    if let Some(summary) = summary.as_mut() {
        summary.point(
            "speedup/100000",
            &[
                ("ingest_xspb_over_jsonl", ingest_ratio),
                ("ingest_xspb_spans_over_jsonl", spans_ratio),
                ("spanpath_store_over_span", path_ratio),
                ("incremental_push_over_batch", incr_ratio),
            ],
        );
    }
    // The regression gate: the binary interchange must hold its
    // order-of-magnitude class win over JSONL at the 100k scale.
    assert!(
        ingest_ratio >= 5.0,
        ".xspb ingest sustained only {ingest_ratio:.1}x the JSONL rate at 100k spans (gate: 5x)"
    );
    if let (Some(path), Some(summary)) = (json_path, summary) {
        summary.write(&path).expect("bench summary write");
    }
}
