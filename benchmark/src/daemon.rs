//! `daemon-stream`: an in-process `xspd` (`xsp_daemon::spawn`) fed by one
//! client thread over its Unix socket.
//!
//! The client opens sessions one after another. Each session streams a
//! distinct seeded capture of a real model profile in fixed-size append
//! batches, two span-JSON-lines batches to every `.xspb` one, asks for a
//! live export (rotating format) every [`EXPORT_EVERY`] appends and once
//! more before it closes. Every [`REPLAY_EVERY`]th session replays an
//! earlier capture batch for batch, so its exports can be served from
//! the daemon's shared export cache.
//!
//! One operation is one append, timed from send to ack (the batch is
//! encoded before the clock starts; the traced run times the encoding on
//! its own).

use crate::harness::{
    median, ms, quantile, repeated_setup, Args, Digest, OpTimes, PeakRss, Report, SETUP_REPS,
};
use crate::probe::Probe;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsp_core::export::{export_run_profile, ExportFormat};
use xsp_core::pipeline::profile_from_trace;
use xsp_core::profile::{ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_daemon::client::spans_to_jsonl;
use xsp_daemon::{spawn, DaemonClient, DaemonConfig, DaemonHandle, OpenOptions};
use xsp_framework::{FrameworkKind, LayerGraph};
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::export::spans_to_binary;
use xsp_trace::{Span, Trace};

/// Models the session captures profile, taken in turn.
const MODELS: [(&str, usize); 4] = [
    ("MobileNet_v1_0.5_160", 1),
    ("MobileNet_v1_1.0_224", 1),
    ("MLPerf_ResNet50_v1.5", 1),
    ("Inception_v1", 1),
];

/// Spans per append batch.
pub const BATCH_SPANS: usize = 64;
/// A live export after every this many appends.
pub const EXPORT_EVERY: usize = 4;
/// Every this many sessions, one replays an earlier capture.
pub const REPLAY_EVERY: usize = 4;
/// Sessions per cycle: every model is streamed fresh three times and
/// replayed once.
const CYCLE_SESSIONS: usize = MODELS.len() * REPLAY_EVERY;
/// Fresh captures the simulated-output digest covers.
const DIGEST_CAPTURES: usize = 8;

/// One session's input: its batches, pre-encoded, and what the offline
/// path makes of the same spans.
struct Capture {
    /// Index of the profiled model in [`MODELS`].
    model: usize,
    spans: Vec<Span>,
    /// (encoded body, is `.xspb`, spans in the batch).
    batches: Vec<(Vec<u8>, bool, usize)>,
    /// Offset of the session's export-format rotation.
    format_offset: usize,
    digest: u128,
}

struct Daemon {
    // Field order: the client disconnects before the daemon shuts down.
    client: DaemonClient,
    handle: Option<DaemonHandle>,
    socket: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.client.shutdown_write();
            handle.shutdown();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct State {
    daemon: Daemon,
    graphs: Vec<LayerGraph>,
}

/// Spawns a fresh daemon on its own socket, connects the client and
/// streams one warm-up session (a capture no measured session uses).
fn setup(args: &Args, rep: usize) -> State {
    let socket = args
        .out
        .join(format!("xspd-{}-{rep}.sock", std::process::id()));
    let mut config = DaemonConfig::new(&socket);
    config.poll_interval = Duration::from_millis(10);
    let handle = spawn(config).expect("daemon binds its socket");
    let client = DaemonClient::connect(&socket).expect("client connects");
    let graphs = MODELS
        .iter()
        .map(|&(name, batch)| zoo::by_name(name).expect("zoo model").graph(batch))
        .collect();
    let mut state = State {
        daemon: Daemon {
            client,
            handle: Some(handle),
            socket,
        },
        graphs,
    };
    let warm = capture(args, &mut Probe::off(), &state.graphs, usize::MAX);
    session(
        &mut state.daemon.client,
        &mut Probe::off(),
        &mut Tally::default(),
        &mut Report::default(),
        &warm,
    );
    state
}

/// Profiles the model of the `f`th fresh capture with a capture-specific
/// seed and splits the spans into encoded batches.
fn capture(args: &Args, probe: &mut Probe, graphs: &[LayerGraph], f: usize) -> Capture {
    let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
        .runs(1)
        .seed(args.derive(&format!("daemon-stream/capture-{f}")))
        .parallelism(Parallelism::Serial)
        .cached(false);
    let profile = Xsp::new(cfg).run(ProfileRequest::new(&graphs[f % graphs.len()]));
    let spans: Vec<Span> = profile.iter_spans().cloned().collect();
    let batches = spans
        .chunks(BATCH_SPANS)
        .enumerate()
        .map(|(k, batch)| {
            let binary = k % 3 == 2;
            probe.begin("daemon.client_encode");
            let body = if binary {
                spans_to_binary(batch)
            } else {
                spans_to_jsonl(batch)
            };
            probe.end();
            (body, binary, batch.len())
        })
        .collect();
    let mut digest = Digest::default();
    digest
        .u64("capture", f as u64)
        .f64("model_latency_ms", profile.model_latency_ms())
        .u64("spans", spans.len() as u64)
        .u64("kernels", profile.kernels().len() as u64);
    Capture {
        model: f % graphs.len(),
        spans,
        batches,
        format_offset: f % ExportFormat::ALL.len(),
        digest: digest.finish(),
    }
}

/// The offline `xsp export --from` bytes of a capture.
fn offline_export(spans: &[Span], format: ExportFormat) -> Vec<u8> {
    let profile = profile_from_trace(
        Trace::from_spans(spans.to_vec()),
        ProfilingLevel::ModelLayerGpu,
    );
    let mut out = Vec::new();
    export_run_profile(&profile, format, &mut out).expect("Vec export");
    out
}

#[derive(Default)]
struct Tally {
    /// Appends; the kind is (model, batch position in the capture).
    ops: OpTimes,
    append_ms: Vec<f64>,
    export_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    accepted: u64,
    shed: u64,
    passes: u64,
    exports: u64,
    export_spans: u64,
    spans_jsonl: u64,
    spans_xspb: u64,
}

/// An open session as the client tracks it.
struct OpenSession {
    id: u64,
    /// The session's lifetime correlation passes at the last export.
    passes: u64,
    /// Spans acked so far.
    resident: usize,
}

/// One live export; returns its bytes.
fn export(
    client: &mut DaemonClient,
    probe: &mut Probe,
    tally: &mut Tally,
    report: &mut Report,
    session: &mut OpenSession,
    format: ExportFormat,
) -> Option<Vec<u8>> {
    report.attempt();
    probe.begin("daemon.export");
    let t0 = Instant::now();
    let result = client.export_counting_passes(session.id, format);
    let took = t0.elapsed();
    probe.end();
    match result {
        Ok((bytes, passes)) => {
            let delta = passes.saturating_sub(session.passes);
            session.passes = passes;
            tally.export_ms.push(ms(took));
            // Every export follows new appends, so a pass-free export was
            // answered from the shared export cache.
            if delta == 0 {
                tally.hit_ms.push(ms(took));
            } else {
                tally.miss_ms.push(ms(took));
            }
            tally.passes += delta;
            tally.exports += 1;
            tally.export_spans += session.resident as u64;
            Some(bytes)
        }
        Err(e) => {
            report.fail(format!("session {}: export {format}: {e}", session.id));
            None
        }
    }
}

/// Streams one capture through a fresh session.
fn session(
    client: &mut DaemonClient,
    probe: &mut Probe,
    tally: &mut Tally,
    report: &mut Report,
    capture: &Capture,
) {
    report.attempt();
    let opened = probe.time("daemon.open", || client.open(&OpenOptions::default()));
    let id = match opened {
        Ok(id) => id,
        Err(e) => {
            report.fail(format!("open: {e}"));
            return;
        }
    };
    let mut open = OpenSession {
        id,
        passes: 0,
        resident: 0,
    };
    let mut exports = 0usize;
    let format_at = |i: usize| ExportFormat::ALL[(capture.format_offset + i) % 4];
    for (k, (body, binary, n)) in capture.batches.iter().enumerate() {
        report.attempt();
        probe.begin(if *binary {
            "daemon.append_xspb"
        } else {
            "daemon.append_jsonl"
        });
        let t0 = Instant::now();
        let ack = client.append_raw(id, body);
        let took = t0.elapsed();
        probe.end();
        match ack {
            Ok(_) => {
                tally.ops.record(capture.model * 1000 + k, took, *n);
                tally.append_ms.push(ms(took));
                tally.accepted += *n as u64;
                open.resident += n;
                if *binary {
                    tally.spans_xspb += *n as u64;
                } else {
                    tally.spans_jsonl += *n as u64;
                }
            }
            Err(e) => {
                tally.shed += *n as u64;
                report.fail(format!("session {id}: append {k}: {e}"));
                continue;
            }
        }
        if (k + 1) % EXPORT_EVERY == 0 {
            let format = format_at(exports);
            export(client, probe, tally, report, &mut open, format);
            exports += 1;
        }
    }
    // The close-time export must equal the offline export of the spans.
    let format = format_at(exports);
    if let Some(live) = export(client, probe, tally, report, &mut open, format) {
        report.attempt();
        let offline = offline_export(&capture.spans, format);
        report.check(live == offline, || {
            format!(
                "session {id}: close-time {format} export differs from offline ({} vs {} bytes)",
                live.len(),
                offline.len()
            )
        });
    }
    match probe.time("daemon.close", || client.close(id)) {
        Ok(ack) => report.check(ack.stats.total == capture.spans.len() as u64, || {
            format!(
                "session {id}: closed with {} spans, sent {}",
                ack.stats.total,
                capture.spans.len()
            )
        }),
        Err(e) => report.fail(format!("session {id}: close: {e}")),
    }
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args, probe: &mut Probe, report: &mut Report) {
    let mut rep = 0;
    let (mut state, setup_s) = repeated_setup(SETUP_REPS, || {
        rep += 1;
        setup(args, rep)
    });
    let mut tally = Tally::default();
    // The latest fresh capture of each model, for replays.
    let mut latest: Vec<Option<Arc<Capture>>> = vec![None; MODELS.len()];
    let mut digest = Digest::default();
    let mut rss = PeakRss::start();
    let start = Instant::now();
    let (mut s, mut fresh) = (0usize, 0usize);
    while s == 0 || s % CYCLE_SESSIONS != 0 || start.elapsed() < args.window() {
        // Groups of REPLAY_EVERY sessions: fresh captures, then a replay
        // of the latest capture of model `group % MODELS.len()`, so a
        // cycle streams every model equally often.
        let group = s / REPLAY_EVERY;
        let cap = match &latest[group % MODELS.len()] {
            Some(c) if s % REPLAY_EVERY == REPLAY_EVERY - 1 => Arc::clone(c),
            _ => {
                let c = Arc::new(capture(args, probe, &state.graphs, fresh));
                if fresh < DIGEST_CAPTURES {
                    digest.bytes("capture", &c.digest.to_le_bytes());
                }
                latest[c.model] = Some(Arc::clone(&c));
                fresh += 1;
                c
            }
        };
        session(&mut state.daemon.client, probe, &mut tally, report, &cap);
        s += 1;
        if s % CYCLE_SESSIONS == 0 {
            rss.lap();
        }
    }
    let replays = s - fresh;
    drop(state);

    report.digest = digest.hex();
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss.median_mb(), "MB");
    report.metric("op_ms_p50", tally.ops.quantile_ms(0.5), "ms");
    report.metric("op_ms_p90", tally.ops.quantile_ms(0.9), "ms");
    report.metric("ops_per_s", tally.ops.ops_per_s(), "1/s");
    report.metric("spans_per_s", tally.ops.units_per_s(), "1/s");
    report.metric(
        "daemon.append_ms_p99",
        quantile(&tally.append_ms, 0.99),
        "ms",
    );
    report.metric("daemon.live_export_ms_p50", median(&tally.export_ms), "ms");
    report.metric(
        "daemon.live_export_ms_p90",
        quantile(&tally.export_ms, 0.9),
        "ms",
    );
    report.info.insert("sessions", s.to_string());
    report.info.insert("replayed_sessions", replays.to_string());
    report
        .info
        .insert("appends", tally.append_ms.len().to_string());
    report
        .info
        .insert("exports", tally.export_ms.len().to_string());

    if probe.enabled() {
        let appends = tally.append_ms.len().max(1) as f64;
        report.metric("bench.op_ms_p50_traced", tally.ops.quantile_ms(0.5), "ms");
        for stage in [
            "daemon.client_encode",
            "daemon.open",
            "daemon.append_jsonl",
            "daemon.append_xspb",
            "daemon.export",
            "daemon.close",
        ] {
            report.metric(&format!("{stage}_us"), probe.stage(stage).mean_us(), "us");
        }
        report.metric("daemon.export_hit_us", median(&tally.hit_ms) * 1e3, "us");
        report.metric("daemon.export_miss_us", median(&tally.miss_ms) * 1e3, "us");
        let exports = tally.exports.max(1) as f64;
        report.metric(
            "daemon.correlation_passes_per_export",
            tally.passes as f64 / exports,
            "count",
        );
        report.metric(
            "daemon.export_cache_hit_ratio",
            tally.hit_ms.len() as f64 / exports,
            "ratio",
        );
        report.metric(
            "daemon.accepted_spans",
            tally.accepted as f64 / appends,
            "count",
        );
        report.metric("daemon.shed_spans", tally.shed as f64 / appends, "count");
        let per_span =
            |stage: &str, spans: u64| probe.stage(stage).global_allocs as f64 / spans.max(1) as f64;
        report.metric(
            "alloc.daemon.append_jsonl_per_span",
            per_span("daemon.append_jsonl", tally.spans_jsonl),
            "count",
        );
        report.metric(
            "alloc.daemon.append_xspb_per_span",
            per_span("daemon.append_xspb", tally.spans_xspb),
            "count",
        );
        report.metric(
            "alloc.daemon.export_per_span",
            per_span("daemon.export", tally.export_spans),
            "count",
        );
    }
}
