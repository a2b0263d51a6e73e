//! `serving-sim`: `simulate_streaming` of GPT-2 continuous batching over
//! seeded arrival traces, swept over [`CAPACITIES`] decode capacities.
//!
//! The config opts into the process-wide profile cache, and the cache is
//! emptied at the start of every operation, so within one sweep the shapes
//! a previous capacity already profiled hit and new shapes miss. Steps
//! stream through the per-step incremental correlation window into an
//! in-memory sink that only counts bytes. Simulated time is on the virtual
//! clock; the host measures wall time only.
//!
//! One operation is one sweep over the capacities on one arrival trace;
//! one cycle sweeps each of a fixed set of [`TRACES`] synthetic traces
//! once. The seed sets the order of the set and the simulated jitter.

use crate::harness::{
    median, nproc, repeated_setup, Args, Digest, OpTimes, PeakRss, Report, SETUP_REPS,
};
use crate::probe::Probe;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsp_core::cache::{self, GraphFingerprint};
use xsp_core::export::ExportSink;
use xsp_core::profile::{ProfileMode, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_core::serving::{
    simulate, simulate_streaming, ArrivalTrace, ServingConfig, ServingModel, ServingReport,
    StepKind,
};
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::transformer::{self, DecodeAttention};

/// Decode capacities of one sweep.
pub const CAPACITIES: [usize; 3] = [2, 4, 8];
/// Seeded arrival traces per cycle.
pub const TRACES: usize = 8;
/// Requests per arrival trace.
pub const REQUESTS: usize = 8;

/// An in-memory sink body that counts the bytes streamed into it.
#[derive(Clone, Default)]
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct State {
    xsp: Xsp,
    traces: Vec<ArrivalTrace>,
}

fn config(capacity: usize) -> ServingConfig {
    ServingConfig::default().max_batch(capacity)
}

/// Builds the arrival traces and warms the simulator with one uncached
/// simulation of the first trace.
fn setup(args: &Args) -> State {
    let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
        .runs(1)
        .seed(args.derive("serving-sim/jitter"))
        .parallelism(Parallelism::Fixed(nproc()))
        .cached(true);
    // The trace set is fixed so every seed asks for the same amount of
    // work; the seed rotates the order and sets the simulated jitter.
    let offset = args.derive("serving-sim/order") as usize % TRACES;
    let traces = (0..TRACES)
        .map(|k| {
            let trace = (k + offset) % TRACES;
            ArrivalTrace::synthetic(0x5E_4B + trace as u64, REQUESTS, 40.0, (8, 32), (4, 12))
        })
        .collect();
    let state = State {
        xsp: Xsp::new(cfg),
        traces,
    };
    let uncached = Xsp::new(state.xsp.config().clone().cached(false));
    simulate(
        &uncached,
        ServingModel::Gpt2Small,
        &state.traces[0],
        &config(CAPACITIES[0]),
    );
    state
}

/// The parts of a report the simulation determines (everything but the
/// shared representative profile pointer).
fn report_digest(r: &ServingReport) -> u128 {
    let mut d = Digest::default();
    d.str("model", r.model)
        .u64("max_batch", r.max_batch as u64)
        .f64("makespan_ms", r.makespan_ms)
        .u64("tokens", r.tokens_emitted as u64)
        .u64("steps", r.steps.len() as u64)
        .f64("tokens_per_s", r.tokens_per_s())
        .f64("mean_ttft_ms", r.mean_ttft_ms())
        .f64("mean_tpot_ms", r.mean_tpot_ms())
        .str("steps_detail", &format!("{:?}", r.steps))
        .str("requests_detail", &format!("{:?}", r.requests));
    d.finish()
}

fn distinct_shapes(reports: &[ServingReport]) -> usize {
    let mut shapes = std::collections::BTreeSet::new();
    for r in reports {
        for s in &r.steps {
            shapes.insert(match &s.kind {
                StepKind::Prefill { prompt_tokens, .. } => (0, *prompt_tokens, 0),
                StepKind::Decode {
                    batch,
                    attend_tokens,
                    ..
                } => (1, *batch, *attend_tokens),
            });
        }
    }
    shapes.len()
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, probe: &mut Probe, report: &mut Report) {
    let (state, setup_s) = repeated_setup(SETUP_REPS, || setup(args));
    let model = ServingModel::Gpt2Small;
    let body = CountingSink::default();
    let sink = ExportSink::new_binary(body.clone()).expect("in-memory sink");
    report
        .info
        .insert("engine_parallelism", format!("Fixed({})", nproc()));

    let loop_window = if probe.enabled() {
        args.window().mul_f64(0.6)
    } else {
        args.window()
    };
    let mut ops = OpTimes::default();
    let mut steps = 0usize;
    let mut step_time = Duration::ZERO;
    let mut shapes = 0usize;
    let mut first_cycle: Vec<u128> = Vec::new();
    let stats_before = cache::global().stats();
    let mut rss = PeakRss::start();
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || start.elapsed() < loop_window {
        for (k, trace) in state.traces.iter().enumerate() {
            report.attempt();
            let spans_before = sink.spans_written();
            probe.begin("serving.op");
            let t0 = Instant::now();
            cache::global().clear();
            let reports: Vec<ServingReport> = CAPACITIES
                .iter()
                .map(|&cap| {
                    probe.time("serving.simulate_streaming", || {
                        simulate_streaming(&state.xsp, model, trace, &config(cap), Some(&sink))
                    })
                })
                .collect();
            let took = t0.elapsed();
            probe.end();
            let sweep_steps: usize = reports.iter().map(|r| r.steps.len()).sum();
            ops.record(k, took, sink.spans_written() - spans_before);
            steps += sweep_steps;
            step_time += took;
            shapes += distinct_shapes(&reports);

            // Output check (untimed): with every shape now cached, a warm
            // re-simulation must reproduce each cold report exactly.
            let digests: Vec<u128> = reports.iter().map(report_digest).collect();
            for (cap, cold) in CAPACITIES.iter().zip(&digests) {
                report.attempt();
                let warm = report_digest(&simulate(&state.xsp, model, trace, &config(*cap)));
                report.check(warm == *cold, || {
                    format!("trace {k} capacity {cap}: warm report differs from cold")
                });
            }
            if cycle == 0 {
                first_cycle.extend(&digests);
            } else {
                let expected = &first_cycle[k * CAPACITIES.len()..(k + 1) * CAPACITIES.len()];
                report.check(expected == &digests[..], || {
                    format!("trace {k}: simulated reports changed between cycles")
                });
            }
        }
        rss.lap();
        cycle += 1;
    }
    if let Some(e) = sink.error_message() {
        report.fail(format!("serving sink: {e}"));
    }

    let mut digest = Digest::default();
    for d in &first_cycle {
        digest.bytes("report", &d.to_le_bytes());
    }
    report.digest = digest.hex();
    let n_ops = ops.count() as f64;
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss.median_mb(), "MB");
    report.metric("op_ms_p50", ops.quantile_ms(0.5), "ms");
    report.metric("op_ms_p90", ops.quantile_ms(0.9), "ms");
    report.metric("ops_per_s", ops.ops_per_s(), "1/s");
    report.metric("spans_per_s", ops.units_per_s(), "1/s");
    report.metric(
        "serving.steps_per_s",
        steps as f64 / step_time.as_secs_f64(),
        "1/s",
    );
    report.info.insert("ops", ops.count().to_string());
    report.info.insert("cycles", cycle.to_string());
    report
        .info
        .insert("streamed_bytes", body.0.load(Ordering::Relaxed).to_string());

    if probe.enabled() {
        let stats = cache::global().stats();
        let hits = (stats.hits - stats_before.hits) as f64;
        let misses = (stats.misses - stats_before.misses) as f64;
        report.metric("bench.op_ms_p50_traced", ops.quantile_ms(0.5), "ms");
        report.metric("serving.steps", steps as f64 / n_ops, "count");
        report.metric("serving.distinct_shapes", shapes as f64 / n_ops, "count");
        report.metric("cache.hits", hits / n_ops, "count");
        report.metric("cache.misses", misses / n_ops, "count");
        report.metric("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
        layer_probes(&state, probe, report, start + args.window());
    }
}

/// The traced run's layer probes: cold vs warm simulation (the profiling
/// share), streaming vs plain (the streaming share) and the cost of one
/// cache fingerprint.
fn layer_probes(state: &State, probe: &mut Probe, report: &mut Report, deadline: Instant) {
    let model = ServingModel::Gpt2Small;
    let fp_cfg = state.xsp.config().clone();
    let mut cold_spans = 0usize;
    let mut stream_us = Vec::new();
    let mut pass = 0usize;
    while pass == 0 || Instant::now() < deadline {
        for trace in &state.traces {
            let cfg = config(CAPACITIES[1]);
            cache::global().clear();
            let body = CountingSink::default();
            let sink = ExportSink::new_binary(body).expect("in-memory sink");
            let cold = probe.time("serving.simulate_cold", || {
                simulate_streaming(&state.xsp, model, trace, &cfg, Some(&sink))
            });
            cold_spans += sink.spans_written();
            probe.time("serving.simulate_warm", || {
                simulate(&state.xsp, model, trace, &cfg)
            });
            let sink = ExportSink::new_binary(CountingSink::default()).expect("in-memory sink");
            let t0 = Instant::now();
            simulate_streaming(&state.xsp, model, trace, &cfg, Some(&sink));
            let streamed = t0.elapsed();
            let t0 = Instant::now();
            simulate(&state.xsp, model, trace, &cfg);
            let plain = t0.elapsed();
            stream_us.push((streamed.as_secs_f64() - plain.as_secs_f64()) * 1e6);

            // One fingerprint per distinct step shape of the cold run.
            for step in &cold.steps {
                let graph = match &step.kind {
                    StepKind::Prefill { prompt_tokens, .. } => {
                        transformer::gpt2_small(1, *prompt_tokens)
                    }
                    StepKind::Decode {
                        batch,
                        attend_tokens,
                        ..
                    } => transformer::gpt2_decode_step(
                        *batch,
                        *attend_tokens,
                        DecodeAttention::Materialized,
                    ),
                };
                probe.time("cache.fingerprint", || {
                    GraphFingerprint::of(
                        &fp_cfg,
                        &graph,
                        ProfilingLevel::ModelLayerGpu,
                        ProfileMode::Leveled,
                    )
                });
            }
        }
        pass += 1;
    }
    let cold = probe.stage("serving.simulate_cold");
    report.metric("serving.simulate_cold_us", cold.mean_us(), "us");
    report.metric(
        "serving.simulate_warm_us",
        probe.stage("serving.simulate_warm").mean_us(),
        "us",
    );
    report.metric("serving.stream_overhead_us", median(&stream_us), "us");
    report.metric(
        "cache.fingerprint_us",
        probe.stage("cache.fingerprint").mean_us(),
        "us",
    );
    report.metric(
        "alloc.serving.simulate_cold_per_span",
        cold.global_allocs as f64 / cold_spans.max(1) as f64,
        "count",
    );
}
