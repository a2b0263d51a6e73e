//! A stage-by-stage replica of `xsp_core::pipeline::run_once`, built from
//! the same public calls in the same order, with a probe stage around
//! each: set-up, `Session::predict`, `Cupti::flush_to_tracer`,
//! `SpanBuffer::flush`, `TracingServer::drain_each` →
//! `CorrelationEngine::push_span`, `finalize_all`, and
//! `profile_from_correlated`.
//!
//! The replica is only trustworthy while it does what `run_once` does, so
//! [`compare`] runs both under the same span-id scope and checks that the
//! serialized spans are byte-identical. A point where `run_once` needed
//! its private serialized re-run cannot be replicated; it is reported as
//! such and left out of the stage timings.

use crate::probe::Probe;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsp_core::pipeline::{profile_from_correlated, run_once, RunProfile};
use xsp_core::profile::{ProfilingLevel, XspConfig};
use xsp_cupti::{Cupti, CuptiConfig};
use xsp_framework::{LayerGraph, RunOptions, Session};
use xsp_gpu::{CudaContext, CudaContextConfig};
use xsp_trace::export::SpanJsonWriter;
use xsp_trace::span::tag_keys;
use xsp_trace::{with_span_id_scope, CorrelationEngine, TracingServer};

/// Host-side pre-processing cost per image, ns — `run_once`'s constant.
const PREPROCESS_PER_IMAGE_NS: u64 = 180_000;
/// Host-side post-processing cost per image, ns — `run_once`'s constant.
const POSTPROCESS_PER_IMAGE_NS: u64 = 25_000;

/// Probe stage names of the replica, in pipeline order. The predict stage
/// is named per level.
pub const STAGES: [&str; 6] = [
    "pipeline.setup",
    "cupti.flush",
    "trace.buffer_flush",
    "trace.drain_push",
    "trace.finalize",
    "pipeline.extract",
];

/// The predict stage name at `level`.
pub fn predict_stage(level: ProfilingLevel) -> &'static str {
    match level {
        ProfilingLevel::Model => "framework.predict_m",
        ProfilingLevel::ModelLayer => "framework.predict_ml",
        ProfilingLevel::ModelLayerGpu => "framework.predict_mlg",
    }
}

/// The `run_once` stage name at `level`.
pub fn run_once_stage(level: ProfilingLevel) -> &'static str {
    match level {
        ProfilingLevel::Model => "pipeline.run_once_m",
        ProfilingLevel::ModelLayer => "pipeline.run_once_ml",
        ProfilingLevel::ModelLayerGpu => "pipeline.run_once_mlg",
    }
}

/// Outcome of one replica-vs-`run_once` comparison.
pub struct Comparison {
    /// `run_once` took the serialized re-run; the point was not timed.
    pub serialized_rerun: bool,
    /// Replica bytes equal `run_once` bytes (vacuously true on a re-run
    /// point, where `run_once` must report the re-run instead).
    pub bytes_equal: bool,
    /// Spans in the run.
    pub spans: usize,
    /// Wall time of `run_once`.
    pub run_once: Duration,
    /// Summed wall time of the replica's stages.
    pub stages: Duration,
}

/// Serializes a run's correlated spans the way `to_span_json` does.
pub fn span_json(run: &RunProfile) -> Vec<u8> {
    let mut w = SpanJsonWriter::new(Vec::new()).expect("Vec writes cannot fail");
    for span in run.trace.iter_spans() {
        w.write_span(span).expect("Vec writes cannot fail");
    }
    w.finish().expect("Vec writes cannot fail")
}

/// Runs `run_once` and the replica on the same arguments under the same
/// span-id scope and times both. The replica's stages land in `probe` for
/// M/L/G points; at M and M/L only the predict stage is kept (the other
/// stages are reported for the full stack). A serialized re-run point
/// contributes no timings.
pub fn compare(
    probe: &mut Probe,
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
    scope: u64,
) -> Comparison {
    let start = Instant::now();
    let real = with_span_id_scope(scope, || run_once(cfg, graph, level, run_idx));
    let run_once_time = start.elapsed();
    let mut scratch = Probe::on();
    let full_stack = level == ProfilingLevel::ModelLayerGpu && !real.used_serialized_rerun;
    let target = if full_stack {
        &mut *probe
    } else {
        &mut scratch
    };
    let before = stage_total(target, level);
    let (rep, needs_rerun) =
        with_span_id_scope(scope, || replica(target, cfg, graph, level, run_idx));
    let stages = Duration::from_nanos(stage_total(target, level) - before);
    if real.used_serialized_rerun {
        return Comparison {
            serialized_rerun: true,
            bytes_equal: needs_rerun,
            spans: real.trace.len(),
            run_once: run_once_time,
            stages,
        };
    }
    probe.add(run_once_stage(level), Probe::call(run_once_time));
    if !full_stack {
        let predict = predict_stage(level);
        probe.add(predict, scratch.stage(predict));
    }
    Comparison {
        serialized_rerun: false,
        bytes_equal: !needs_rerun && span_json(&real) == span_json(&rep),
        spans: real.trace.len(),
        run_once: run_once_time,
        stages,
    }
}

fn stage_total(probe: &Probe, level: ProfilingLevel) -> u64 {
    STAGES
        .iter()
        .chain(std::iter::once(&predict_stage(level)))
        .map(|s| probe.stage(s).ns)
        .sum()
}

/// The replica itself. Returns the run profile and whether correlation
/// found ambiguities that make `run_once` take its serialized re-run.
pub fn replica(
    probe: &mut Probe,
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
) -> (RunProfile, bool) {
    probe.begin("pipeline.setup");
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    let model_tracer = server.buffer("model_timer");
    let layer_tracer = server.buffer("framework_profiler");
    let library_tracer = server.buffer("library_interposer");
    let kernel_tracer = server.buffer("cupti");
    let ctx = Arc::new(CudaContext::new(
        CudaContextConfig::new(cfg.system.clone())
            .seed(cfg.seed.wrapping_add(run_idx))
            .jitter(cfg.jitter),
    ));
    let cupti = if level.includes_gpu() {
        let cupti = Arc::new(Cupti::new(
            CuptiConfig::default().metrics(Vec::new()),
            cfg.system.gpu.clone(),
        ));
        ctx.register_hook(cupti.clone());
        Some(cupti)
    } else {
        None
    };
    let session = Session::new(cfg.framework, graph, ctx.clone());
    let clock = ctx.clock().clone();
    let batch = graph.batch() as u64;
    probe.end();

    let pre = xsp_core::api::start_span(&model_tracer, &clock, trace_id, "input_preprocess");
    clock.advance(PREPROCESS_PER_IMAGE_NS * batch.max(1));
    pre.finish();
    let mut predict =
        xsp_core::api::start_span(&model_tracer, &clock, trace_id, "model_prediction");
    predict.tag(tag_keys::BATCH_SIZE, batch);
    let host_tracer = server.buffer("host_profiler");
    let opts = if level.includes_layers() {
        let mut base = RunOptions::with_layer_profiling(&layer_tracer, trace_id);
        if cfg.library_level && level.includes_gpu() {
            base = base.with_library_tracing(&library_tracer);
        }
        if cfg.host_level && level.includes_gpu() {
            base = base.with_host_tracing(&host_tracer);
        }
        base
    } else {
        RunOptions::silent(trace_id)
    };
    probe.time(predict_stage(level), || session.predict(&opts));
    predict.finish();
    let post = xsp_core::api::start_span(&model_tracer, &clock, trace_id, "output_postprocess");
    clock.advance(POSTPROCESS_PER_IMAGE_NS * batch.max(1));
    post.finish();

    if let Some(cupti) = &cupti {
        probe.time("cupti.flush", || {
            cupti.flush_to_tracer(&kernel_tracer, trace_id)
        });
    }
    probe.time("trace.buffer_flush", || {
        for buffer in [
            &model_tracer,
            &layer_tracer,
            &library_tracer,
            &host_tracer,
            &kernel_tracer,
        ] {
            buffer.flush();
        }
    });
    let mut engine = CorrelationEngine::new();
    probe.time("trace.drain_push", || {
        server.drain_each(|span| engine.push_span(span))
    });
    let correlated = probe.time("trace.finalize", || engine.finalize_all());
    let needs_rerun = correlated.ambiguities.needs_serialized_rerun() && cfg.serialize_on_ambiguity;
    let profile = probe.time("pipeline.extract", || {
        profile_from_correlated(correlated, level)
    });
    (profile, needs_rerun)
}
