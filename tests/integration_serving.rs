//! Integration tests of the inference-serving tier: the continuous-batching
//! scheduler's determinism contract (identical reports and byte-identical
//! streamed span traces for any worker count and across replays), and the
//! decode-step runs' interaction with the incremental correlation window.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};

use xsp_core::export::{export_run_profile, ExportFormat, ExportSink};
use xsp_core::pipeline::{profile_from_correlated, RunProfile};
use xsp_core::profile::{ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_core::serving::{simulate, simulate_streaming, ArrivalTrace, ServingConfig, ServingModel};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::transformer::{self, DecodeAttention, TransformerConfig};
use xsp_trace::{CorrelationEngine, TraceId};

fn xsp(parallelism: Parallelism) -> Xsp {
    Xsp::new(
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .parallelism(parallelism),
    )
}

/// Captures a streamed serving trace as bytes.
fn streamed_trace(parallelism: Parallelism, trace: &ArrivalTrace, cfg: &ServingConfig) -> Vec<u8> {
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Arc::new(Mutex::new(Vec::new()));
    let sink = ExportSink::new(Shared(buf.clone()));
    simulate_streaming(
        &xsp(parallelism),
        ServingModel::Gpt2Small,
        trace,
        cfg,
        Some(&sink),
    );
    sink.finish().unwrap();
    let bytes = buf.lock().unwrap().clone();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The scheduler is deterministic in the worker count: the same arrival
    /// trace yields identical step sequences, request lifecycles, and
    /// byte-identical streamed span JSONL under Serial and Fixed(4) — the
    /// CI matrix's XSP_THREADS=1/XSP_THREADS=4 lanes.
    #[test]
    fn serving_is_thread_count_and_replay_deterministic(
        seed in 0u64..1_000,
        n in 2usize..7,
        rate in 20.0f64..120.0,
        max_batch in 2usize..5,
    ) {
        let trace = ArrivalTrace::synthetic(seed, n, rate, (8, 40), (2, 10));
        let cfg = ServingConfig::default()
            .max_batch(max_batch)
            .level(ProfilingLevel::Model);
        let serial = simulate(&xsp(Parallelism::Serial), ServingModel::Gpt2Small, &trace, &cfg);
        let fixed = simulate(&xsp(Parallelism::Fixed(4)), ServingModel::Gpt2Small, &trace, &cfg);
        prop_assert_eq!(&serial.steps, &fixed.steps);
        prop_assert_eq!(&serial.requests, &fixed.requests);
        prop_assert_eq!(serial.tokens_emitted, fixed.tokens_emitted);

        // Replaying the same trace is bitwise-stable, and so is the
        // streamed span export across worker counts and replays.
        let stream_cfg = cfg.level(ProfilingLevel::ModelLayer);
        let a = streamed_trace(Parallelism::Serial, &trace, &stream_cfg);
        let b = streamed_trace(Parallelism::Fixed(4), &trace, &stream_cfg);
        let c = streamed_trace(Parallelism::Serial, &trace, &stream_cfg);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}

#[test]
fn streamed_trace_carries_one_run_per_step() {
    let trace = ArrivalTrace::synthetic(3, 4, 60.0, (8, 24), (2, 6));
    let cfg = ServingConfig::default()
        .max_batch(2)
        .level(ProfilingLevel::ModelLayer);
    let report = simulate(
        &xsp(Parallelism::Serial),
        ServingModel::Gpt2Small,
        &trace,
        &cfg,
    );
    let bytes = streamed_trace(Parallelism::Serial, &trace, &cfg);
    let parsed = xsp_trace::export::read_span_json_lines(&bytes[..]).unwrap();
    // every step became its own run in the stream, trace ids 1..=steps
    let ids = parsed.trace_ids();
    assert_eq!(ids.len(), report.steps.len());
    let max_id = ids.iter().map(|t| t.0).max().unwrap();
    assert_eq!(max_id, report.steps.len() as u64);
    // spans carry the virtual-clock offset of their step: the stream's
    // earliest span of run k starts at step k-1's start time
    for step in &report.steps {
        let tid = TraceId(step.index as u64 + 1);
        let start = parsed
            .spans()
            .iter()
            .filter(|s| s.trace_id == tid)
            .map(|s| s.start_ns)
            .min()
            .unwrap();
        let expected = (step.start_ms * 1_000_000.0).round() as u64;
        assert_eq!(start, expected, "step {} offset", step.index);
    }
}

/// Decode-step runs interact with the incremental correlation window the
/// same way live runs do: pushing a step's spans in two batches across a
/// window boundary and finalizing yields the same correlated profile as a
/// one-shot push.
#[test]
fn decode_step_survives_correlation_window_boundary() {
    let tiny = TransformerConfig {
        layers: 2,
        heads: 2,
        d_model: 64,
        d_ff: 128,
        vocab: 512,
    };
    let graph = transformer::decode_step(2, 32, tiny, DecodeAttention::Materialized, |b| {
        b.decode_linear("lm_head/DecodeMatMul", 512);
    });
    let profile = xsp(Parallelism::Serial)
        .run(xsp_core::profile::ProfileRequest::new(&graph).level(ProfilingLevel::ModelLayerGpu));
    let run = &profile.mlg_runs[0];
    let spans: Vec<xsp_trace::Span> = run.trace.iter_spans().cloned().collect();
    assert!(spans.len() > 4, "decode step produced a real trace");

    // one-shot reference
    let mut engine = CorrelationEngine::new();
    engine.push_batch(spans.iter().cloned());
    let reference = engine.finalize_run(run.trace_id).unwrap();

    // split mid-trace: window boundary lands inside the run
    let mid = spans.len() / 2;
    let mut engine = CorrelationEngine::new();
    engine.push_batch(spans[..mid].iter().cloned());
    assert_eq!(engine.pending_spans(), mid, "first window buffered");
    engine.push_batch(spans[mid..].iter().cloned());
    let split = engine.finalize_run(run.trace_id).unwrap();

    let a = profile_from_correlated(reference, ProfilingLevel::ModelLayerGpu);
    let b = profile_from_correlated(split, ProfilingLevel::ModelLayerGpu);
    assert_eq!(a.kernels.len(), b.kernels.len());
    assert_eq!(a.layers.len(), b.layers.len());
    let chrome = |run: &RunProfile| {
        let mut out = Vec::new();
        export_run_profile(run, ExportFormat::Chrome, &mut out).unwrap();
        out
    };
    assert_eq!(
        chrome(&a),
        chrome(&b),
        "window boundary changed the correlated trace"
    );
}

#[test]
fn fused_attention_reduces_decode_step_latency() {
    let trace = ArrivalTrace::synthetic(9, 4, 80.0, (32, 64), (4, 8));
    let base_cfg = ServingConfig::default()
        .max_batch(4)
        .level(ProfilingLevel::Model);
    let materialized = simulate(
        &xsp(Parallelism::Serial),
        ServingModel::Gpt2Small,
        &trace,
        &base_cfg,
    );
    let fused = simulate(
        &xsp(Parallelism::Serial),
        ServingModel::Gpt2Small,
        &trace,
        &base_cfg.attention(DecodeAttention::Fused),
    );
    // the fused kernel's counterfactual: fewer launches and no score-row
    // round trip, so the same workload finishes sooner
    assert!(
        fused.decode_ms() < materialized.decode_ms(),
        "fused {} ms vs materialized {} ms",
        fused.decode_ms(),
        materialized.decode_ms()
    );
    assert_eq!(fused.tokens_emitted, materialized.tokens_emitted);
}

#[test]
fn serving_models_cover_the_transformer_tier() {
    for (id, model) in [
        (56u32, ServingModel::BertBase),
        (57, ServingModel::BertLarge),
        (58, ServingModel::Gpt2Small),
    ] {
        assert_eq!(ServingModel::from_zoo_id(id), Some(model));
        assert_eq!(
            xsp_models::zoo::by_id(id).map(|m| m.name),
            Some(model.label())
        );
    }
    assert_eq!(ServingModel::from_zoo_id(1), None);
}
