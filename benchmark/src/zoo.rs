//! `zoo-export`: the paper's leveled path as a user runs it with
//! `xsp export <model>` — a cold leveled `Xsp::run` (runs = 2: M, M/L,
//! M/L/G and metric runs, 8 `run_once` calls) followed by
//! `export_profile` into memory.
//!
//! The model list is fixed (conv-bound CNNs, a GEMM-bound transformer and
//! a detector, each at batch 1 and 8); the seed sets its order, the
//! format rotation offset and the simulated jitter. One cycle profiles
//! every entry once, and the export format advances by one per cycle, so
//! four cycles export every entry in every format.
//!
//! The traced run adds the `run_once` replica (see [`crate::replica`]) and
//! the orchestration split of `Xsp::run`.

use crate::harness::{
    mean, median, nproc, repeated_setup, Args, Digest, OpTimes, PeakRss, Report, SETUP_REPS,
};
use crate::probe::Probe;
use crate::replica;
use crate::{export_stage, ExportTally};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use xsp_core::export::{export_profile, ExportFormat};
use xsp_core::pipeline::run_once_with_metrics;
use xsp_core::profile::{LeveledProfile, ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_framework::{FrameworkKind, LayerGraph};
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::with_span_id_scope;

/// The fixed model list: (zoo name, batch).
pub const MODELS: [(&str, usize); 12] = [
    ("MobileNet_v1_1.0_224", 1),
    ("MobileNet_v1_1.0_224", 8),
    ("MLPerf_ResNet50_v1.5", 1),
    ("MLPerf_ResNet50_v1.5", 8),
    ("Inception_v3", 1),
    ("Inception_v3", 8),
    ("VGG16", 1),
    ("VGG16", 8),
    ("BERT-Base_SQuAD_384", 1),
    ("BERT-Base_SQuAD_384", 8),
    ("MLPerf_SSD_MobileNet_v1_300x300", 1),
    ("MLPerf_SSD_MobileNet_v1_300x300", 8),
];

/// Evaluations per level of every leveled profile.
const RUNS: usize = 2;

/// Bounds `pipeline.replica_coverage` must fall within: outside them the
/// replica no longer accounts for `run_once`'s time and its stage numbers
/// cannot be trusted.
pub const COVERAGE_BOUND: (f64, f64) = (0.8, 1.25);

struct Item {
    name: &'static str,
    batch: usize,
    graph: LayerGraph,
}

fn config(args: &Args, parallelism: Parallelism) -> XspConfig {
    XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
        .runs(RUNS)
        .seed(args.derive("zoo-export/jitter"))
        .parallelism(parallelism)
        .cached(false)
}

/// Seed-ordered model list with built graphs, warmed by one profile and
/// export of every model at batch 1.
fn setup(args: &Args, xsp: &Xsp) -> Vec<Item> {
    let mut order: Vec<usize> = (0..MODELS.len()).collect();
    let mut state = args.derive("zoo-export/order");
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let items: Vec<Item> = order
        .into_iter()
        .map(|i| {
            let (name, batch) = MODELS[i];
            let entry = zoo::by_name(name).expect("benchmark models are in the zoo");
            Item {
                name,
                batch,
                graph: entry.graph(batch),
            }
        })
        .collect();
    for item in items.iter().filter(|it| it.batch == 1) {
        let warm = xsp.run(ProfileRequest::new(&item.graph).cached(false));
        let _ = export_profile(&warm, ExportFormat::Spans, std::io::sink());
    }
    items
}

/// Exports into `out`, replacing its contents. The buffer is reused
/// across operations, as a file would be: a fresh multi-megabyte `Vec`
/// per export would time the kernel's page faults instead of the export.
fn export_into(
    profile: &LeveledProfile,
    format: ExportFormat,
    out: &mut Vec<u8>,
) -> std::io::Result<usize> {
    out.clear();
    export_profile(profile, format, &mut *out)
}

/// Digest of a profile's simulated statistics.
fn profile_digest(item: &Item, profile: &LeveledProfile) -> u128 {
    let mut d = Digest::default();
    d.str("model", item.name)
        .u64("batch", item.batch as u64)
        .f64("model_latency_ms", profile.model_latency_ms())
        .f64("kernel_latency_ms", profile.kernel_latency_ms())
        .u64("spans", profile.iter_spans().count() as u64)
        .u64("layers", profile.layers().len() as u64)
        .u64("kernels", profile.kernels().len() as u64);
    for level in [
        ProfilingLevel::Model,
        ProfilingLevel::ModelLayer,
        ProfilingLevel::ModelLayerGpu,
    ] {
        d.f64(level.label(), profile.predict_ms_at(level));
    }
    d.finish()
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, probe: &mut Probe, report: &mut Report) {
    let workers = nproc();
    let xsp = Xsp::new(config(args, Parallelism::Fixed(workers)));
    let serial = Xsp::new(config(args, Parallelism::Serial));
    let (items, setup_s) = repeated_setup(SETUP_REPS, || setup(args, &xsp));
    report
        .info
        .insert("engine_parallelism", format!("Fixed({workers})"));

    // Traced runs split the window between the end-to-end loop and the
    // layer probes.
    let loop_window = if probe.enabled() {
        args.window().mul_f64(0.5)
    } else {
        args.window()
    };
    let mut ops = OpTimes::default();
    let mut spans_done = 0usize;
    let mut exports = ExportTally::default();
    let mut first_seen: BTreeMap<usize, u128> = BTreeMap::new();
    let (mut bytes, mut serial_bytes) = (Vec::new(), Vec::new());
    let mut rss = PeakRss::start();
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || start.elapsed() < loop_window {
        for (j, item) in items.iter().enumerate() {
            let format = ExportFormat::ALL[(j + cycle) % ExportFormat::ALL.len()];
            report.attempt();
            probe.begin("zoo.op");
            let t0 = Instant::now();
            let profile = probe.time("profile.run", || {
                xsp.run(ProfileRequest::new(&item.graph).cached(false))
            });
            probe.begin(export_stage(format));
            let exported = export_into(&profile, format, &mut bytes);
            probe.end();
            let took = t0.elapsed();
            probe.end();
            if let Err(e) = exported {
                report.fail(format!(
                    "{} b{} export {format}: {e}",
                    item.name, item.batch
                ));
                continue;
            }
            let spans = profile.iter_spans().count();
            ops.record(j * ExportFormat::ALL.len() + format as usize, took, spans);
            spans_done += spans;
            exports.add(format, spans, bytes.len());

            // Output checks (untimed): the simulated statistics repeat for
            // every profile of the same entry, and one op per cycle re-runs
            // serially and must export byte-identical bytes.
            let digest = profile_digest(item, &profile);
            let expected = *first_seen.entry(j).or_insert(digest);
            report.check(digest == expected, || {
                format!(
                    "{} b{}: simulated output changed between ops",
                    item.name, item.batch
                )
            });
            if j == cycle % items.len() {
                report.attempt();
                let again = serial.run(ProfileRequest::new(&item.graph).cached(false));
                let same =
                    export_into(&again, format, &mut serial_bytes).is_ok() && serial_bytes == bytes;
                report.check(same, || {
                    format!(
                        "{} b{} {format}: serial re-run exported different bytes",
                        item.name, item.batch
                    )
                });
            }
        }
        rss.lap();
        cycle += 1;
    }

    let mut digest = Digest::default();
    for (j, d) in &first_seen {
        digest
            .u64("item", *j as u64)
            .bytes("profile", &d.to_le_bytes());
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
        let runs = probe.stage("profile.run");
        report.metric("profile.run_us", runs.mean_us(), "us");
        report.metric(
            "alloc.profile.run_per_span",
            runs.global_allocs as f64 / spans_done.max(1) as f64,
            "count",
        );
        exports.report(probe, report);
        layer_probes(args, &items, probe, report, start + args.window());
    }
}

/// The traced run's layer probes: the `run_once` replica at M, M/L and
/// M/L/G on every entry, and the orchestration share of a serial
/// `Xsp::run`. Runs whole passes over the model list until `deadline`.
fn layer_probes(
    args: &Args,
    items: &[Item],
    probe: &mut Probe,
    report: &mut Report,
    deadline: Instant,
) {
    let cfg = config(args, Parallelism::Serial);
    let serial = Xsp::new(cfg.clone());
    let levels = [
        (ProfilingLevel::Model, 0u64),
        (ProfilingLevel::ModelLayer, 1000),
        (ProfilingLevel::ModelLayerGpu, 2000),
    ];
    let mut coverage = Vec::new();
    let mut orchestration_us = Vec::new();
    let mut run_serial_us = Vec::new();
    let mut reruns = 0u64;
    let mut points = 0u64;
    let mut mlg_spans = Vec::new();
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        for item in items {
            let name: &'static str = item.name;
            probe.time("models.graph", || {
                zoo::by_name(name).map(|e| e.graph(item.batch))
            });
            // The same eight points `Xsp::run` submits: runs 0 and 1 of
            // every level (seed offsets 0/1000/2000) plus two metric runs
            // (3000), each under its own span-id scope as the engine does.
            let mut run_once_total = Duration::ZERO;
            for &(level, base) in &levels {
                for r in 0..RUNS as u64 {
                    let run_idx = base + r;
                    report.attempt();
                    points += 1;
                    let c = replica::compare(probe, &cfg, &item.graph, level, run_idx, run_idx);
                    run_once_total += c.run_once;
                    report.check(c.bytes_equal, || {
                        format!(
                            "{} b{} {}: replica bytes differ from run_once",
                            item.name,
                            item.batch,
                            level.label()
                        )
                    });
                    if c.serialized_rerun {
                        reruns += 1;
                    } else if level == ProfilingLevel::ModelLayerGpu {
                        coverage.push(c.stages.as_secs_f64() / c.run_once.as_secs_f64());
                        mlg_spans.push(c.spans as f64);
                    }
                }
            }
            for r in 0..RUNS as u64 {
                let run_idx = 3000 + r;
                let t0 = Instant::now();
                with_span_id_scope(run_idx, || {
                    run_once_with_metrics(
                        &cfg,
                        &item.graph,
                        ProfilingLevel::ModelLayerGpu,
                        run_idx,
                        true,
                    )
                });
                run_once_total += t0.elapsed();
            }
            let t0 = Instant::now();
            let profile = probe.time("profile.run_serial", || {
                serial.run(ProfileRequest::new(&item.graph).cached(false))
            });
            let run = t0.elapsed();
            drop(profile);
            run_serial_us.push(run.as_secs_f64() * 1e6);
            orchestration_us.push((run.as_secs_f64() - run_once_total.as_secs_f64()) * 1e6);
        }
        pass += 1;
    }

    let us = |name: &str| probe.stage(name).mean_us();
    report.metric("models.graph_us", us("models.graph"), "us");
    for stage in replica::STAGES {
        report.metric(&format!("{stage}_us"), us(stage), "us");
    }
    for (level, _) in levels {
        let predict = replica::predict_stage(level);
        report.metric(&format!("{predict}_us"), us(predict), "us");
        let run_once = replica::run_once_stage(level);
        report.metric(&format!("{run_once}_us"), us(run_once), "us");
    }
    report.metric(
        "framework.layer_overhead_us",
        us("framework.predict_ml") - us("framework.predict_m"),
        "us",
    );
    report.metric(
        "framework.gpu_overhead_us",
        us("framework.predict_mlg") - us("framework.predict_ml"),
        "us",
    );
    let cov = median(&coverage);
    report.metric("pipeline.replica_coverage", cov, "ratio");
    report.check((COVERAGE_BOUND.0..=COVERAGE_BOUND.1).contains(&cov), || {
        format!("replica coverage {cov:.3} outside {COVERAGE_BOUND:?}")
    });
    let plumbing = [
        "cupti.flush",
        "trace.buffer_flush",
        "trace.drain_push",
        "trace.finalize",
        "pipeline.extract",
    ]
    .iter()
    .map(|s| probe.stage(s).ns as f64)
    .sum::<f64>();
    let predict_mlg = probe.stage("framework.predict_mlg").ns as f64;
    report.metric(
        "pipeline.plumbing_over_simulate",
        if predict_mlg > 0.0 {
            plumbing / predict_mlg
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("pipeline.serialized_reruns", reruns as f64, "count");
    report.metric("pipeline.replica_points", points as f64, "count");
    let spans_per_run = mean(&mlg_spans);
    report.metric("trace.spans_per_run", spans_per_run, "count");
    let total_mlg_spans: f64 = mlg_spans.iter().sum();
    for stage in replica::STAGES
        .into_iter()
        .chain(std::iter::once("framework.predict_mlg"))
    {
        let allocs = probe.stage(stage).thread_allocs as f64;
        report.metric(
            &format!("alloc.{stage}_per_span"),
            if total_mlg_spans > 0.0 {
                allocs / total_mlg_spans
            } else {
                0.0
            },
            "count",
        );
    }
    report.metric("profile.orchestration_us", median(&orchestration_us), "us");
    report.metric("profile.run_serial_us", median(&run_serial_us), "us");
}
