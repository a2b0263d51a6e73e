//! The CUPTI profiler facade: hook into the simulator, buffer records,
//! convert to spans.
//!
//! For each asynchronously launched kernel *two spans* are produced
//! (§III-B-3): the `cudaLaunchKernel` runtime interval becomes the **launch
//! span** and the device-side activity becomes the **execution span**; both
//! carry the CUPTI `correlation_id`. Requested metric values are attached to
//! the execution span as tags ("the metrics are added as metadata to the
//! corresponding kernel's span"). Conversion to spans happens at flush time
//! — after the run — because "this correlation can potentially be expensive,
//! we perform correlation during profile analysis".

use crate::activity::{ActivityRecord, RuntimeApiRecord};
use crate::metrics::{replay_passes_for, MetricKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use xsp_gpu::{ApiCall, GpuHook, GpuSpec, KernelActivity, KernelDesc, MemcpyActivity};
use xsp_trace::span::tag_keys;
use xsp_trace::{NameTable, SpanBuilder, StackLevel, TraceId, Tracer};

/// Configuration of the CUPTI adapter.
#[derive(Debug, Clone)]
pub struct CuptiConfig {
    /// Capture runtime API intervals (launch spans).
    pub capture_runtime_api: bool,
    /// Capture device activities (execution spans).
    pub capture_activities: bool,
    /// Hardware metrics to collect per kernel (empty = none; non-empty
    /// triggers kernel replay and serialization).
    pub metrics: Vec<MetricKind>,
    /// CPU overhead charged per traced kernel launch, ns. The paper measures
    /// GPU-level profiling overhead of ≈0.15 ms per kernel on TensorFlow
    /// (490.3 ms − 432.1 ms over 375 kernels); the default matches.
    pub launch_overhead_ns: u64,
}

impl Default for CuptiConfig {
    fn default() -> Self {
        Self {
            capture_runtime_api: true,
            capture_activities: true,
            metrics: Vec::new(),
            launch_overhead_ns: 145_000,
        }
    }
}

impl CuptiConfig {
    /// Standard kernel tracing plus the paper's four metrics.
    pub fn with_all_metrics() -> Self {
        Self {
            metrics: MetricKind::ALL.to_vec(),
            ..Self::default()
        }
    }

    /// Builder: sets the metric list.
    pub fn metrics(mut self, metrics: Vec<MetricKind>) -> Self {
        self.metrics = metrics;
        self
    }
}

/// The CUPTI adapter: implements [`GpuHook`], buffers [`ActivityRecord`]s.
pub struct Cupti {
    cfg: CuptiConfig,
    gpu: GpuSpec,
    records: Mutex<Vec<ActivityRecord>>,
    inflight_api: Mutex<HashMap<u64, (ApiCall, u64)>>,
}

impl Cupti {
    /// Creates an adapter for the given device.
    pub fn new(cfg: CuptiConfig, gpu: GpuSpec) -> Self {
        Self {
            cfg,
            gpu,
            records: Mutex::new(Vec::new()),
            inflight_api: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CuptiConfig {
        &self.cfg
    }

    /// Number of buffered records.
    pub fn buffered(&self) -> usize {
        self.records.lock().len()
    }

    /// Drains the raw records (offline-processing entry point).
    pub fn drain_records(&self) -> Vec<ActivityRecord> {
        std::mem::take(&mut *self.records.lock())
    }

    /// Converts all buffered records into spans and publishes them through
    /// `tracer` under `trace_id`. Returns the number of spans published.
    pub fn flush_to_tracer(&self, tracer: &dyn Tracer, trace_id: TraceId) -> usize {
        let records = self.drain_records();
        // Kernel names and launch dimensions repeat across a run's
        // records: one allocation per distinct string per flush.
        let mut names = NameTable::new();
        let mut published = 0;
        for rec in records {
            match rec {
                ActivityRecord::Runtime(r) => {
                    let mut b = SpanBuilder::new(r.api_name, StackLevel::Kernel, trace_id)
                        .start(r.start_ns)
                        .tag(tag_keys::TRACER, "cupti_callback")
                        .tag(tag_keys::CORRELATION_ID, r.correlation_id);
                    if let Some(kname) = &r.kernel_name {
                        b = b
                            .tag("kernel", names.share(kname))
                            .tag(tag_keys::ASYNC_LAUNCH, true);
                    } else if r.api_name == "cudaMemcpy" {
                        b = b.tag(tag_keys::ASYNC_LAUNCH, true);
                    }
                    tracer.report(b.finish(r.end_ns));
                    published += 1;
                }
                ActivityRecord::Kernel(k) => {
                    let mut b =
                        SpanBuilder::new(names.share(&k.name), StackLevel::Kernel, trace_id)
                            .start(k.start_ns)
                            .tag(tag_keys::TRACER, "cupti_activity")
                            .tag(tag_keys::CORRELATION_ID, k.correlation_id)
                            .tag(tag_keys::ASYNC_EXECUTION, true)
                            .tag(tag_keys::GRID, names.share_fmt(format_args!("{}", k.grid)))
                            .tag(
                                tag_keys::BLOCK,
                                names.share_fmt(format_args!("{}", k.block)),
                            )
                            .tag(tag_keys::STREAM, k.stream.0 as u64);
                    for m in &self.cfg.metrics {
                        b = match m {
                            MetricKind::FlopCountSp => b.tag(tag_keys::FLOP_COUNT_SP, k.desc.flops),
                            MetricKind::DramReadBytes => {
                                b.tag(tag_keys::DRAM_READ_BYTES, k.desc.dram_read)
                            }
                            MetricKind::DramWriteBytes => {
                                b.tag(tag_keys::DRAM_WRITE_BYTES, k.desc.dram_write)
                            }
                            MetricKind::AchievedOccupancy => {
                                b.tag(tag_keys::ACHIEVED_OCCUPANCY, k.occupancy)
                            }
                        };
                    }
                    tracer.report(b.finish(k.end_ns));
                    published += 1;
                }
                ActivityRecord::Memcpy(m) => {
                    let name = match m.kind {
                        xsp_gpu::MemcpyKind::HostToDevice => "memcpy_HtoD",
                        xsp_gpu::MemcpyKind::DeviceToHost => "memcpy_DtoH",
                        xsp_gpu::MemcpyKind::DeviceToDevice => "memcpy_DtoD",
                    };
                    let b = SpanBuilder::new(name, StackLevel::Kernel, trace_id)
                        .start(m.start_ns)
                        .tag(tag_keys::TRACER, "cupti_activity")
                        .tag(tag_keys::CORRELATION_ID, m.correlation_id)
                        .tag(tag_keys::ASYNC_EXECUTION, true)
                        .tag("bytes", m.bytes);
                    tracer.report(b.finish(m.end_ns));
                    published += 1;
                }
            }
        }
        published
    }
}

impl GpuHook for Cupti {
    fn api_enter(&self, call: &ApiCall, correlation_id: u64, at_ns: u64) {
        if self.cfg.capture_runtime_api {
            self.inflight_api
                .lock()
                .insert(correlation_id, (call.clone(), at_ns));
        }
    }

    fn api_exit(&self, call: &ApiCall, correlation_id: u64, at_ns: u64) {
        if !self.cfg.capture_runtime_api {
            return;
        }
        let Some((entered_call, start)) = self.inflight_api.lock().remove(&correlation_id) else {
            return;
        };
        let kernel_name = match &entered_call {
            ApiCall::LaunchKernel { name } => Some(name.clone()),
            _ => None,
        };
        self.records
            .lock()
            .push(ActivityRecord::Runtime(RuntimeApiRecord {
                api_name: call.api_name(),
                kernel_name,
                correlation_id,
                start_ns: start,
                end_ns: at_ns,
            }));
    }

    fn kernel_executed(&self, activity: &KernelActivity) {
        if self.cfg.capture_activities {
            self.records
                .lock()
                .push(ActivityRecord::Kernel(activity.clone()));
        }
    }

    fn memcpy_executed(&self, activity: &MemcpyActivity) {
        if self.cfg.capture_activities {
            self.records
                .lock()
                .push(ActivityRecord::Memcpy(activity.clone()));
        }
    }

    fn launch_overhead_ns(&self) -> u64 {
        if self.cfg.capture_activities || self.cfg.capture_runtime_api {
            self.cfg.launch_overhead_ns
        } else {
            0
        }
    }

    fn replay_passes(&self, _kernel: &KernelDesc) -> u32 {
        replay_passes_for(&self.cfg.metrics, &self.gpu)
    }

    fn requires_serialization(&self) -> bool {
        !self.cfg.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xsp_gpu::{systems, CudaContext, CudaContextConfig, Dim3, StreamId};
    use xsp_trace::{reconstruct_parents, TracingServer};

    fn ctx_with_cupti(cfg: CuptiConfig) -> (CudaContext, Arc<Cupti>) {
        let system = systems::tesla_v100();
        let cupti = Arc::new(Cupti::new(cfg, system.gpu.clone()));
        let ctx = CudaContext::new(CudaContextConfig::new(system).jitter(0.0));
        ctx.register_hook(cupti.clone());
        (ctx, cupti)
    }

    fn gemm() -> KernelDesc {
        KernelDesc::new("volta_sgemm_128x64_nn", Dim3::x(1024), Dim3::x(256))
            .flops(2_000_000_000)
            .dram(40_000_000, 20_000_000)
            .efficiency(0.8, 0.8, 0.25)
    }

    #[test]
    fn launch_produces_two_spans() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::default());
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        ctx.synchronize();
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        let n = cupti.flush_to_tracer(&tracer, TraceId(1));
        // launch span + execution span + sync runtime span
        assert_eq!(n, 3);
        let trace = server.drain();
        let launch = trace
            .spans()
            .iter()
            .find(|s| s.name == "cudaLaunchKernel")
            .expect("launch span");
        let exec = trace
            .spans()
            .iter()
            .find(|s| s.name == "volta_sgemm_128x64_nn")
            .expect("execution span");
        assert!(launch.is_async_launch());
        assert!(exec.is_async_execution());
        assert_eq!(launch.correlation_id(), exec.correlation_id());
        assert!(exec.start_ns >= launch.end_ns, "execution follows launch");
    }

    #[test]
    fn metrics_become_execution_span_tags() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::with_all_metrics());
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        cupti.flush_to_tracer(&tracer, TraceId(1));
        let trace = server.drain();
        let exec = trace
            .spans()
            .iter()
            .find(|s| s.is_async_execution())
            .unwrap();
        assert_eq!(
            exec.tag(tag_keys::FLOP_COUNT_SP).unwrap().as_u64(),
            Some(2_000_000_000)
        );
        assert_eq!(
            exec.tag(tag_keys::DRAM_READ_BYTES).unwrap().as_u64(),
            Some(40_000_000)
        );
        assert_eq!(
            exec.tag(tag_keys::DRAM_WRITE_BYTES).unwrap().as_u64(),
            Some(20_000_000)
        );
        assert!(exec.tag(tag_keys::ACHIEVED_OCCUPANCY).is_some());
    }

    #[test]
    fn no_metrics_no_metric_tags() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::default());
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        cupti.flush_to_tracer(&tracer, TraceId(1));
        let trace = server.drain();
        let exec = trace
            .spans()
            .iter()
            .find(|s| s.is_async_execution())
            .unwrap();
        assert!(exec.tag(tag_keys::FLOP_COUNT_SP).is_none());
    }

    #[test]
    fn correlation_pipeline_merges_pairs() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::default());
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        ctx.synchronize();
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        cupti.flush_to_tracer(&tracer, TraceId(1));
        let trace = server.drain();
        let correlated = reconstruct_parents(&trace);
        let kernels: Vec<_> = correlated
            .spans()
            .iter()
            .filter(|s| s.span.name == "volta_sgemm_128x64_nn")
            .collect();
        assert_eq!(kernels.len(), 2);
        for k in kernels {
            assert!(k.launch_interval.is_some(), "merged with launch half");
        }
    }

    #[test]
    fn metric_mode_serializes_and_replays() {
        let (ctx, _cupti) = ctx_with_cupti(CuptiConfig::with_all_metrics());
        let t0 = ctx.clock().now();
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        let with_metrics = ctx.clock().now() - t0;

        let (ctx2, _cupti2) = ctx_with_cupti(CuptiConfig::default());
        let t0 = ctx2.clock().now();
        ctx2.launch_kernel(gemm(), StreamId::DEFAULT);
        ctx2.synchronize();
        let without = ctx2.clock().now() - t0;
        assert!(
            with_metrics > without * 50,
            "metric replay must dominate: {with_metrics} vs {without}"
        );
    }

    #[test]
    fn disabled_capture_buffers_nothing() {
        let cfg = CuptiConfig {
            capture_runtime_api: false,
            capture_activities: false,
            metrics: vec![],
            launch_overhead_ns: 145_000,
        };
        let (ctx, cupti) = ctx_with_cupti(cfg);
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        assert_eq!(cupti.buffered(), 0);
        let hook: &dyn GpuHook = &*cupti;
        assert_eq!(hook.launch_overhead_ns(), 0, "no capture, no overhead");
    }

    #[test]
    fn memcpy_records_flow_through() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::default());
        ctx.memcpy(
            xsp_gpu::MemcpyKind::HostToDevice,
            1_000_000,
            StreamId::DEFAULT,
        );
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        cupti.flush_to_tracer(&tracer, TraceId(1));
        let trace = server.drain();
        assert!(trace.spans().iter().any(|s| s.name == "memcpy_HtoD"));
        assert!(trace.spans().iter().any(|s| s.name == "cudaMemcpy"));
    }

    #[test]
    fn flush_drains_buffer() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::default());
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        assert!(cupti.buffered() > 0);
        let server = TracingServer::new();
        let tracer = server.tracer("cupti");
        cupti.flush_to_tracer(&tracer, TraceId(1));
        assert_eq!(cupti.buffered(), 0);
        assert_eq!(cupti.flush_to_tracer(&tracer, TraceId(1)), 0);
    }

    /// Offline processing: drain raw records instead of spans.
    #[test]
    fn drain_records_offline_path() {
        let (ctx, cupti) = ctx_with_cupti(CuptiConfig::default());
        ctx.launch_kernel(gemm(), StreamId::DEFAULT);
        let records = cupti.drain_records();
        assert_eq!(records.len(), 2); // runtime + kernel
        let kinds: Vec<&str> = records.iter().map(|r| r.kind()).collect();
        assert!(kinds.contains(&"runtime"));
        assert!(kinds.contains(&"kernel"));
    }
}
