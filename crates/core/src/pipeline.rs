//! One evaluation run: system wiring, inference pipeline, trace
//! correlation, and profile extraction.
//!
//! The model-level pipeline follows Figure 1: input pre-processing → model
//! prediction → output post-processing, each wrapped in a model-level span
//! via the [`crate::api`]. Layer spans come from the framework profiler,
//! kernel spans from the CUPTI adapter; nothing sets the kernel→layer
//! relation explicitly — the [`xsp_trace::CorrelationEngine`] recovers it
//! from lazily built per-level interval trees, with an optional serialized
//! re-run (`CUDA_LAUNCH_BLOCKING=1` analogue) when parents are ambiguous
//! (§III-A).

use crate::profile::{ProfilingLevel, XspConfig};
use std::collections::HashMap;
use std::sync::Arc;
use xsp_cupti::{Cupti, CuptiConfig};
use xsp_framework::{LayerGraph, RunOptions, Session};
use xsp_gpu::{CudaContext, CudaContextConfig, Dim3};
use xsp_trace::span::tag_keys;
use xsp_trace::{
    CorrelatedTrace, CorrelationEngine, Name, Span, SpanBuilder, SpanId, StackLevel, TagValue,
    TraceId, TracingServer,
};

/// Host-side cost of decoding/normalizing one input image, ns.
const PREPROCESS_PER_IMAGE_NS: u64 = 180_000;
/// Host-side cost of post-processing one output, ns.
const POSTPROCESS_PER_IMAGE_NS: u64 = 25_000;

/// Model-level pipeline phase latencies, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPhases {
    /// Input pre-processing latency.
    pub preprocess_ms: f64,
    /// Model prediction latency (the paper's "model latency").
    pub predict_ms: f64,
    /// Output post-processing latency.
    pub postprocess_ms: f64,
}

/// A layer observation extracted from a layer-level span.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Execution index within the run.
    pub index: usize,
    /// Layer name.
    pub name: Name,
    /// Layer type ("Conv2D", "Mul", ...).
    pub type_name: Name,
    /// Output shape rendered as the framework reports it.
    pub shape: Name,
    /// Layer latency, ms.
    pub latency_ms: f64,
    /// Memory the framework allocated for the layer, bytes.
    pub alloc_bytes: u64,
    /// The underlying span.
    pub span_id: SpanId,
}

/// A kernel observation extracted from a correlated execution span.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Launch-order index within the run.
    pub order: usize,
    /// Kernel name.
    pub name: Name,
    /// Index of the layer that launched it (`None` when no layer-level
    /// profile exists in the run).
    pub layer_index: Option<usize>,
    /// Kernel duration, ms.
    pub latency_ms: f64,
    /// Grid dims (as reported).
    pub grid: Name,
    /// Block dims (as reported).
    pub block: Name,
    /// `flop_count_sp` (present when metric profiling was on).
    pub flops: Option<u64>,
    /// `dram_read_bytes`.
    pub dram_read: Option<u64>,
    /// `dram_write_bytes`.
    pub dram_write: Option<u64>,
    /// `achieved_occupancy`.
    pub occupancy: Option<f64>,
}

/// Everything one evaluation run produced.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// The profiling level the run used.
    pub level: ProfilingLevel,
    /// Trace id of the run.
    pub trace_id: TraceId,
    /// Model-level phases.
    pub phases: ModelPhases,
    /// Per-layer observations (empty below M/L).
    pub layers: Vec<LayerProfile>,
    /// Per-kernel observations (empty below M/L/G).
    pub kernels: Vec<KernelProfile>,
    /// The correlated trace (for hierarchy rendering/export).
    pub trace: CorrelatedTrace,
    /// Whether parent reconstruction needed (and used) a serialized re-run.
    pub used_serialized_rerun: bool,
}

impl RunProfile {
    /// Total GPU kernel time, ms.
    pub fn kernel_latency_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.latency_ms).sum()
    }
}

/// Runs the inference pipeline once at `level` and returns the extracted
/// profile. `run_idx` seeds the jitter so repeated runs vary like real
/// measurements.
///
/// One call is the unit of work of the parallel evaluation engine
/// ([`crate::scheduler`]): it is self-contained (own tracing server and
/// simulated context, spans published through per-run buffers) and
/// deterministic in `(cfg, graph, level, run_idx)`, so any number of calls
/// may execute concurrently. The [`crate::scheduler::Parallelism`] knob
/// travels in `cfg` and governs how the orchestrators in
/// [`crate::profile`] fan these calls out.
pub fn run_once(
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
) -> RunProfile {
    run_once_with_metrics(cfg, graph, level, run_idx, false)
}

/// Like [`run_once`], with GPU metric collection optionally enabled.
/// Metric collection replays kernels (§III-C) — wall-clock latencies of the
/// run balloon while reported per-kernel durations stay accurate, so the
/// orchestrator keeps metric runs separate from the plain M/L/G runs used
/// for latency measurement.
pub fn run_once_with_metrics(
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
    with_metrics: bool,
) -> RunProfile {
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    // Per-run span buffers (one per profiler): spans accumulate locally and
    // reach the server as atomic batches, so a run stays safe and
    // deterministic when the evaluation engine executes it on a worker
    // thread next to other runs.
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
        let metrics = if with_metrics {
            cfg.metrics.clone()
        } else {
            Vec::new()
        };
        let cupti = Arc::new(Cupti::new(
            CuptiConfig::default().metrics(metrics),
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

    // ---- model-level pipeline (Figure 1) -------------------------------
    let pre = crate::api::start_span(&model_tracer, &clock, trace_id, "input_preprocess");
    clock.advance(PREPROCESS_PER_IMAGE_NS * batch.max(1));
    pre.finish();

    let mut predict = crate::api::start_span(&model_tracer, &clock, trace_id, "model_prediction");
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
    let _stats = session.predict(&opts);
    predict.finish();

    let post = crate::api::start_span(&model_tracer, &clock, trace_id, "output_postprocess");
    clock.advance(POSTPROCESS_PER_IMAGE_NS * batch.max(1));
    post.finish();

    if let Some(cupti) = &cupti {
        cupti.flush_to_tracer(&kernel_tracer, trace_id);
    }

    // Flush every buffer (fixed order: top of the stack first) before
    // assembling the run's trace.
    for buffer in [
        &model_tracer,
        &layer_tracer,
        &library_tracer,
        &host_tracer,
        &kernel_tracer,
    ] {
        buffer.flush();
    }
    // Correlate incrementally: `drain_each` streams spans straight out of
    // the server's buckets into the engine's per-run window (no intermediate
    // `Trace`), and `finalize_all` runs the per-run merge + lazy interval
    // trees — byte-identical to the batch `correlate` path, see
    // `xsp_trace::correlate`.
    let mut engine = CorrelationEngine::new();
    server.drain_each(|span| engine.push_span(span));
    let mut correlated = engine.finalize_all();
    let mut used_rerun = false;

    // Serialized re-run for ambiguous parents (§III-A). The repeated run
    // executes with CUDA_LAUNCH_BLOCKING semantics, yielding unambiguous
    // kernel→layer assignment by launch order, which we graft back.
    if correlated.ambiguities.needs_serialized_rerun() && cfg.serialize_on_ambiguity {
        used_rerun = true;
        let assignment = serialized_kernel_assignment(cfg, graph, level, run_idx);
        apply_assignment(&mut correlated, &assignment);
    }

    let phases = extract_phases(&correlated);
    let layers = extract_layers(&correlated);
    let kernels = extract_kernels(&correlated, &layers);

    RunProfile {
        level,
        trace_id,
        phases,
        layers,
        kernels,
        trace: correlated,
        used_serialized_rerun: used_rerun,
    }
}

/// Runs serialized (`CUDA_LAUNCH_BLOCKING=1`) and returns the layer index
/// for each kernel launch, in launch order.
fn serialized_kernel_assignment(
    cfg: &XspConfig,
    graph: &LayerGraph,
    level: ProfilingLevel,
    run_idx: u64,
) -> Vec<Option<usize>> {
    let server = TracingServer::new();
    let trace_id = server.fresh_trace_id();
    let layer_tracer = server.tracer("framework_profiler");
    let kernel_tracer = server.tracer("cupti");
    let ctx = Arc::new(CudaContext::new(
        CudaContextConfig::new(cfg.system.clone())
            .seed(cfg.seed.wrapping_add(run_idx) ^ 0xB10C)
            .jitter(cfg.jitter)
            .launch_blocking(true),
    ));
    let cupti = Arc::new(Cupti::new(
        CuptiConfig::default().metrics(Vec::new()),
        cfg.system.gpu.clone(),
    ));
    ctx.register_hook(cupti.clone());
    let session = Session::new(cfg.framework, graph, ctx.clone());
    // model span so reconstruction has a root
    let model_tracer = server.tracer("model_timer");
    let clock = ctx.clock().clone();
    let span = crate::api::start_span(&model_tracer, &clock, trace_id, "model_prediction");
    let opts = if level.includes_layers() {
        RunOptions::with_layer_profiling(&layer_tracer, trace_id)
    } else {
        RunOptions::silent(trace_id)
    };
    session.predict(&opts);
    span.finish();
    cupti.flush_to_tracer(&kernel_tracer, trace_id);
    let correlated = CorrelationEngine::new().correlate(server.drain());
    let layers = extract_layers(&correlated);
    let kernels = extract_kernels(&correlated, &layers);
    kernels.into_iter().map(|k| k.layer_index).collect()
}

/// Grafts a serialized-run layer assignment onto an async trace: the i-th
/// kernel (launch order) gets the layer span whose index matches.
fn apply_assignment(correlated: &mut CorrelatedTrace, assignment: &[Option<usize>]) {
    // layer index -> span id in this trace
    let mut layer_span: HashMap<usize, SpanId> = HashMap::new();
    for s in correlated.spans() {
        if s.span.level == StackLevel::Layer {
            if let Some(idx) = s.span.tag(tag_keys::LAYER_INDEX).and_then(|v| v.as_u64()) {
                layer_span.insert(idx as usize, s.span.id);
            }
        }
    }
    // kernels in launch (correlation-id) order
    let mut kernel_positions: Vec<usize> = correlated
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.span.level == StackLevel::Kernel
                && s.span.is_async_execution()
                && s.span.tag(tag_keys::GRID).is_some()
        })
        .map(|(i, _)| i)
        .collect();
    kernel_positions.sort_by_key(|&i| correlated.spans()[i].span.correlation_id().unwrap_or(0));
    for (order, &pos) in kernel_positions.iter().enumerate() {
        if let Some(Some(layer_idx)) = assignment.get(order) {
            if let Some(&sid) = layer_span.get(layer_idx) {
                // `set_parent` keeps the trace's children/root indexes
                // coherent with the grafted assignment.
                correlated.set_parent(pos, sid);
            }
        }
    }
    correlated.ambiguities.ambiguous.clear();
}

fn extract_phases(trace: &CorrelatedTrace) -> ModelPhases {
    let ms = |name: &str| {
        trace
            .spans()
            .iter()
            .find(|s| s.span.level == StackLevel::Model && s.span.name == name)
            .map(|s| s.span.duration_ms())
            .unwrap_or(0.0)
    };
    ModelPhases {
        preprocess_ms: ms("input_preprocess"),
        predict_ms: ms("model_prediction"),
        postprocess_ms: ms("output_postprocess"),
    }
}

fn extract_layers(trace: &CorrelatedTrace) -> Vec<LayerProfile> {
    let mut layers: Vec<LayerProfile> = trace
        .spans()
        .iter()
        .filter(|s| s.span.level == StackLevel::Layer)
        .filter_map(|s| {
            let index = s.span.tag(tag_keys::LAYER_INDEX)?.as_u64()? as usize;
            Some(LayerProfile {
                index,
                name: s.span.name.clone(),
                type_name: str_tag(&s.span, tag_keys::LAYER_TYPE).unwrap_or(Name::Static("?")),
                shape: str_tag(&s.span, tag_keys::LAYER_SHAPE).unwrap_or_default(),
                latency_ms: s.span.duration_ms(),
                alloc_bytes: s
                    .span
                    .tag(tag_keys::ALLOC_BYTES)
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0),
                span_id: s.span.id,
            })
        })
        .collect();
    layers.sort_by_key(|l| l.index);
    layers
}

/// A string tag's [`Name`], shared with the span rather than copied.
fn str_tag(span: &Span, key: &str) -> Option<Name> {
    span.tag(key).and_then(TagValue::as_name).cloned()
}

fn extract_kernels(trace: &CorrelatedTrace, layers: &[LayerProfile]) -> Vec<KernelProfile> {
    let span_to_layer: HashMap<SpanId, usize> =
        layers.iter().map(|l| (l.span_id, l.index)).collect();
    // With the library level enabled, kernels parent to cuDNN API spans
    // whose parents are the layer spans: resolve through one extra hop
    // (`find` is an O(1) lookup in the trace's built-once index).
    let resolve_layer = |mut parent: Option<SpanId>| -> Option<usize> {
        for _ in 0..3 {
            let p = parent?;
            if let Some(&idx) = span_to_layer.get(&p) {
                return Some(idx);
            }
            parent = trace.find(p).and_then(|s| s.parent);
        }
        None
    };
    let mut kernels: Vec<(u64, KernelProfile)> = trace
        .spans()
        .iter()
        .filter(|s| {
            s.span.level == StackLevel::Kernel
                && s.span.is_async_execution()
                && s.span.tag(tag_keys::GRID).is_some()
        })
        .map(|s| {
            let cid = s.span.correlation_id().unwrap_or(0);
            let layer_index = resolve_layer(s.parent);
            (
                cid,
                KernelProfile {
                    order: 0,
                    name: s.span.name.clone(),
                    layer_index,
                    latency_ms: s.span.duration_ms(),
                    grid: str_tag(&s.span, tag_keys::GRID).unwrap_or_default(),
                    block: str_tag(&s.span, tag_keys::BLOCK).unwrap_or_default(),
                    flops: s.span.tag(tag_keys::FLOP_COUNT_SP).and_then(|v| v.as_u64()),
                    dram_read: s
                        .span
                        .tag(tag_keys::DRAM_READ_BYTES)
                        .and_then(|v| v.as_u64()),
                    dram_write: s
                        .span
                        .tag(tag_keys::DRAM_WRITE_BYTES)
                        .and_then(|v| v.as_u64()),
                    occupancy: s
                        .span
                        .tag(tag_keys::ACHIEVED_OCCUPANCY)
                        .and_then(|v| v.as_f64()),
                },
            )
        })
        .collect();
    kernels.sort_by_key(|(cid, _)| *cid);
    kernels
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut k))| {
            k.order = i;
            k
        })
        .collect()
}

/// Rebuilds a [`RunProfile`] from an already-collected raw trace — the
/// offline-analysis path of §III-A ("the conversion ... can be performed
/// off-line by processing the output of the profiler"). The spans may come
/// from [`xsp_trace::export::read_span_json_lines`] or
/// [`xsp_trace::export::read_span_binary`].
///
/// Caveat for multi-run captures: every live run allocates trace ids from
/// its own server, so all runs of a saved capture share `TraceId(1)` and
/// are re-correlated as one run. That is sound for captures this pipeline
/// exported — async pairs are already merged (both-flags spans pass
/// through untouched) and every non-root span carries its explicit parent,
/// so re-correlation is a no-op — but hand-built JSONL containing
/// *unpaired* async halves or parentless spans in several runs can pair or
/// parent across run boundaries. Splitting on a per-run tag instead is
/// tracked in the ROADMAP (it would change the capture format).
pub fn profile_from_trace(trace: xsp_trace::Trace, level: ProfilingLevel) -> RunProfile {
    let correlated = CorrelationEngine::new().correlate(trace);
    profile_from_correlated(correlated, level)
}

/// Extracts a [`RunProfile`] from an already-correlated trace — the entry
/// point for callers that ran correlation themselves, e.g. the daemon's
/// per-session incremental engine, which materializes a `CorrelatedTrace`
/// from its cached per-run correlations without re-correlating the
/// finalized prefix.
pub fn profile_from_correlated(correlated: CorrelatedTrace, level: ProfilingLevel) -> RunProfile {
    let trace_id = correlated
        .spans()
        .first()
        .map(|s| s.span.trace_id)
        .unwrap_or(xsp_trace::TraceId(0));
    let phases = extract_phases(&correlated);
    let layers = extract_layers(&correlated);
    let kernels = extract_kernels(&correlated, &layers);
    RunProfile {
        level,
        trace_id,
        phases,
        layers,
        kernels,
        trace: correlated,
        used_serialized_rerun: false,
    }
}

/// Synthetic helper used by benches/tests to build a kernel-span-only trace
/// (bypasses the framework); kept here so the bench crate needn't reach into
/// internals.
pub fn synthetic_kernel_span(
    trace_id: TraceId,
    name: impl Into<Name>,
    start_ns: u64,
    end_ns: u64,
    grid: Dim3,
) -> xsp_trace::Span {
    SpanBuilder::new(name, StackLevel::Kernel, trace_id)
        .start(start_ns)
        .tag(tag_keys::GRID, grid.to_string())
        .tag(tag_keys::BLOCK, "[256,1,1]")
        .tag(tag_keys::ASYNC_EXECUTION, true)
        .tag(tag_keys::CORRELATION_ID, start_ns)
        .finish(end_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn cfg() -> XspConfig {
        XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
    }

    fn small_graph(batch: usize) -> LayerGraph {
        zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch)
    }

    #[test]
    fn model_level_run_has_phases_only() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::Model, 0);
        assert!(p.phases.predict_ms > 0.0);
        assert!(p.phases.preprocess_ms > 0.0);
        assert!(p.layers.is_empty());
        assert!(p.kernels.is_empty());
    }

    #[test]
    fn layer_level_run_collects_layers() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayer, 0);
        assert!(!p.layers.is_empty());
        assert!(p.kernels.is_empty());
        // executed graph: every layer indexed consecutively
        for (i, l) in p.layers.iter().enumerate() {
            assert_eq!(l.index, i);
        }
    }

    #[test]
    fn gpu_level_run_correlates_kernels_to_layers() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayerGpu, 0);
        assert!(!p.kernels.is_empty());
        assert!(
            p.trace.ambiguities.is_clean() || p.used_serialized_rerun,
            "{:?}",
            p.trace.ambiguities
        );
        // every kernel belongs to some layer
        let orphan_kernels = p.kernels.iter().filter(|k| k.layer_index.is_none()).count();
        assert_eq!(orphan_kernels, 0, "all kernels must map to layers");
        // conv layers launched conv kernels
        let conv_layer = p
            .layers
            .iter()
            .find(|l| l.type_name == "Conv2D")
            .expect("conv layer");
        let conv_kernels: Vec<_> = p
            .kernels
            .iter()
            .filter(|k| k.layer_index == Some(conv_layer.index))
            .collect();
        assert!(!conv_kernels.is_empty());
    }

    #[test]
    fn metrics_populate_kernel_fields() {
        let mut c = cfg();
        c.metrics = xsp_cupti::MetricKind::ALL.to_vec();
        let p = run_once_with_metrics(&c, &small_graph(1), ProfilingLevel::ModelLayerGpu, 0, true);
        let k = p
            .kernels
            .iter()
            .find(|k| k.name.contains("scudnn") || k.name.contains("convolve"))
            .expect("a conv kernel");
        assert!(k.flops.is_some());
        assert!(k.dram_read.is_some());
        assert!(k.occupancy.is_some());
    }

    #[test]
    fn kernel_latency_sums_below_predict_latency() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayerGpu, 0);
        assert!(p.kernel_latency_ms() < p.phases.predict_ms);
        assert!(p.kernel_latency_ms() > 0.0);
    }

    #[test]
    fn layer_latencies_sum_close_to_kernel_windows() {
        let p = run_once(&cfg(), &small_graph(2), ProfilingLevel::ModelLayerGpu, 0);
        // each layer's kernels fit within the layer latency
        for l in &p.layers {
            let layer_kernel_ms: f64 = p
                .kernels
                .iter()
                .filter(|k| k.layer_index == Some(l.index))
                .map(|k| k.latency_ms)
                .sum();
            assert!(
                layer_kernel_ms <= l.latency_ms + 1e-6,
                "layer {} ({}): kernels {layer_kernel_ms} ms > layer {} ms",
                l.index,
                l.name,
                l.latency_ms
            );
        }
    }

    #[test]
    fn runs_are_deterministic_per_index() {
        let a = run_once(&cfg(), &small_graph(1), ProfilingLevel::Model, 7);
        let b = run_once(&cfg(), &small_graph(1), ProfilingLevel::Model, 7);
        assert_eq!(a.phases.predict_ms, b.phases.predict_ms);
        let c = run_once(&cfg(), &small_graph(1), ProfilingLevel::Model, 8);
        assert_ne!(a.phases.predict_ms, c.phases.predict_ms);
    }
}
