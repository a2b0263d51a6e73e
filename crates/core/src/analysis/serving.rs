//! AX4 — inference-serving analyses (the serving-tier extension).
//!
//! Where AX1–AX3 interrogate one inference, AX4 interrogates a whole
//! continuous-batching simulation ([`crate::serving`]): how generation
//! throughput scales with decode-batch occupancy, where wall-clock goes
//! between prefill, decode, and idle, and where the KV-cache decode
//! kernels sit on the roofline (spoiler: pinned to the bandwidth ceiling).
//!
//! This module also owns the structured `--ax` flag parser the CLI
//! subcommands share, mirroring [`crate::profile::ProfilingLevel::parse`].

use std::fmt;

use super::workload::{kernel_family, KernelFamily};
use crate::profile::LeveledProfile;
use crate::roofline::{classify, RooflinePoint};
use crate::serving::{RequestRecord, ServingReport, StepKind};
use xsp_gpu::System;

/// One row of the occupancy/throughput aggregation: all decode steps that
/// ran at the same batch size.
#[derive(Debug, Clone)]
pub struct OccupancyThroughputRow {
    /// Decode batch size of the grouped steps.
    pub batch: usize,
    /// Occupancy at that batch, percent of the scheduler's `max_batch`.
    pub occupancy_percent: f64,
    /// Number of decode steps in the group.
    pub steps: usize,
    /// Tokens the group emitted.
    pub tokens: usize,
    /// Total latency of the group, ms.
    pub latency_ms: f64,
    /// Generation throughput within the group, tokens/second.
    pub tokens_per_s: f64,
}

/// AX4a: generation throughput as a function of decode-batch occupancy,
/// one row per observed batch size (ascending). The serving counterpart of
/// the paper's batch-sweep analyses: decode steps are bandwidth-bound, so
/// tokens/second scales near-linearly with occupancy while per-step
/// latency barely moves.
pub fn ax4_occupancy_throughput(report: &ServingReport) -> Vec<OccupancyThroughputRow> {
    let mut rows: Vec<OccupancyThroughputRow> = Vec::new();
    for s in &report.steps {
        let StepKind::Decode { batch, .. } = &s.kind else {
            continue;
        };
        let row = match rows.iter_mut().find(|r| r.batch == *batch) {
            Some(row) => row,
            None => {
                rows.push(OccupancyThroughputRow {
                    batch: *batch,
                    occupancy_percent: 100.0 * *batch as f64 / report.max_batch as f64,
                    steps: 0,
                    tokens: 0,
                    latency_ms: 0.0,
                    tokens_per_s: 0.0,
                });
                rows.last_mut().unwrap()
            }
        };
        row.steps += 1;
        row.tokens += batch;
        row.latency_ms += s.latency_ms;
    }
    for row in &mut rows {
        row.tokens_per_s = if row.latency_ms > 0.0 {
            row.tokens as f64 / (row.latency_ms / 1000.0)
        } else {
            0.0
        };
    }
    rows.sort_by_key(|r| r.batch);
    rows
}

/// AX4b: where the serving makespan went.
#[derive(Debug, Clone)]
pub struct LatencySplit {
    /// Time in batch-1 prefill steps, ms.
    pub prefill_ms: f64,
    /// Time in decode steps, ms.
    pub decode_ms: f64,
    /// Time with no runnable step, ms.
    pub idle_ms: f64,
    /// Prefill share of the makespan, percent.
    pub prefill_percent: f64,
    /// Decode share of the makespan, percent.
    pub decode_percent: f64,
    /// Idle share of the makespan, percent.
    pub idle_percent: f64,
    /// Mean arrival → admission wait, ms.
    pub mean_queue_wait_ms: f64,
    /// Mean arrival → first token, ms.
    pub mean_ttft_ms: f64,
    /// Mean time per output token after the first, ms.
    pub mean_tpot_ms: f64,
    /// p99-ish (max) time to first token, ms.
    pub max_ttft_ms: f64,
}

/// AX4b: splits the serving makespan into prefill/decode/idle and
/// summarizes the request-side latency metrics (queue wait, TTFT, TPOT).
pub fn ax4_latency_split(report: &ServingReport) -> LatencySplit {
    let prefill_ms = report.prefill_ms();
    let decode_ms = report.decode_ms();
    let idle_ms = report.idle_ms();
    let pct = |part: f64| {
        if report.makespan_ms > 0.0 {
            100.0 * part / report.makespan_ms
        } else {
            0.0
        }
    };
    LatencySplit {
        prefill_ms,
        decode_ms,
        idle_ms,
        prefill_percent: pct(prefill_ms),
        decode_percent: pct(decode_ms),
        idle_percent: pct(idle_ms),
        mean_queue_wait_ms: report.mean_queue_wait_ms(),
        mean_ttft_ms: report.mean_ttft_ms(),
        mean_tpot_ms: report.mean_tpot_ms(),
        max_ttft_ms: report
            .requests
            .iter()
            .map(RequestRecord::ttft_ms)
            .fold(0.0, f64::max),
    }
}

/// AX4c: roofline points of only the KV-decode-family kernels of a decode
/// step profile (use [`ServingReport::representative_decode`]) — the
/// scatter that shows the third compute regime: every decode kernel sits
/// left of the ridge point on the bandwidth ceiling, unlike the conv- and
/// GEMM-bound tiers.
pub fn ax4_cache_roofline(profile: &LeveledProfile, system: &System) -> Vec<RooflinePoint> {
    profile
        .kernels()
        .iter()
        .filter(|k| kernel_family(&k.name) == KernelFamily::KvDecode)
        .filter_map(|k| {
            classify(
                k.name.to_string(),
                k.flops?,
                k.dram_read.unwrap_or(0),
                k.dram_write.unwrap_or(0),
                k.latency_ms,
                system,
            )
        })
        .collect()
}

/// The extended analyses the CLI exposes beyond A1–A15, one per workload
/// tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxAnalysis {
    /// AX1 — library-call table (needs the library level).
    Ax1,
    /// AX2 — host/dispatch attribution (needs the host level).
    Ax2,
    /// AX3 — workload regime: kernel families and the GEMM roofline.
    Ax3,
    /// AX4 — inference serving: occupancy/throughput, latency split,
    /// KV-cache roofline.
    Ax4,
}

impl AxAnalysis {
    /// The accepted `--ax` spellings, grouped per analysis (used by
    /// [`ParseAxError`] to enumerate valid values).
    pub const SPELLINGS: [(&'static str, AxAnalysis); 4] = [
        ("1|ax1|library", AxAnalysis::Ax1),
        ("2|ax2|host", AxAnalysis::Ax2),
        ("3|ax3|workload", AxAnalysis::Ax3),
        ("4|ax4|serving", AxAnalysis::Ax4),
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AxAnalysis::Ax1 => "ax1",
            AxAnalysis::Ax2 => "ax2",
            AxAnalysis::Ax3 => "ax3",
            AxAnalysis::Ax4 => "ax4",
        }
    }

    /// Parses the CLI `--ax` spelling: `1`/`ax1`/`library` → AX1, and so
    /// on. Rejection carries the offending value and enumerates every
    /// accepted spelling (see [`ParseAxError`]), the same contract as
    /// [`crate::profile::ProfilingLevel::parse`].
    pub fn parse(raw: &str) -> Result<Self, ParseAxError> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "ax1" | "library" => Ok(AxAnalysis::Ax1),
            "2" | "ax2" | "host" => Ok(AxAnalysis::Ax2),
            "3" | "ax3" | "workload" => Ok(AxAnalysis::Ax3),
            "4" | "ax4" | "serving" => Ok(AxAnalysis::Ax4),
            _ => Err(ParseAxError {
                value: raw.to_owned(),
            }),
        }
    }
}

/// Rejection produced by [`AxAnalysis::parse`]: carries the rejected
/// spelling and renders every valid one, so `xsp analyze`, `profile
/// --analyses`, and the daemon surface the same self-explanatory message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAxError {
    /// The spelling that failed to parse, verbatim.
    pub value: String,
}

impl fmt::Display for ParseAxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown analysis '{}'; valid values:", self.value)?;
        for (i, (spellings, ax)) in AxAnalysis::SPELLINGS.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(f, "{sep}{spellings} ({})", ax.label())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseAxError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfilingLevel, Xsp, XspConfig};
    use crate::serving::{simulate, ArrivalTrace, ServingConfig, ServingModel};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;

    fn report(level: ProfilingLevel) -> ServingReport {
        let xsp =
            Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1));
        let trace = ArrivalTrace::synthetic(11, 5, 50.0, (16, 32), (3, 8));
        simulate(
            &xsp,
            ServingModel::Gpt2Small,
            &trace,
            &ServingConfig::default().max_batch(4).level(level),
        )
    }

    #[test]
    fn occupancy_rows_cover_all_decode_tokens() {
        let r = report(ProfilingLevel::Model);
        let rows = ax4_occupancy_throughput(&r);
        assert!(!rows.is_empty());
        assert!(rows.windows(2).all(|w| w[0].batch < w[1].batch));
        let decode_tokens: usize = rows.iter().map(|r| r.tokens).sum();
        // tokens = prefill first-tokens + decode tokens
        assert_eq!(decode_tokens + r.requests.len(), r.tokens_emitted);
        for row in &rows {
            assert!(row.occupancy_percent > 0.0 && row.occupancy_percent <= 100.0);
            assert!(row.tokens_per_s > 0.0);
        }
        // bandwidth-bound decode: fuller batches generate faster
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        if first.batch < last.batch {
            assert!(last.tokens_per_s > first.tokens_per_s);
        }
    }

    #[test]
    fn latency_split_percentages_sum() {
        let r = report(ProfilingLevel::Model);
        let split = ax4_latency_split(&r);
        let total = split.prefill_percent + split.decode_percent + split.idle_percent;
        assert!((total - 100.0).abs() < 1e-6, "{total}");
        assert!(split.mean_ttft_ms >= split.mean_queue_wait_ms);
        assert!(split.max_ttft_ms >= split.mean_ttft_ms);
    }

    #[test]
    fn cache_roofline_is_bandwidth_bound() {
        let r = report(ProfilingLevel::ModelLayerGpu);
        let profile = r.representative_decode.as_ref().expect("decode steps ran");
        let points = ax4_cache_roofline(profile, &systems::tesla_v100());
        assert!(!points.is_empty());
        // the third regime: every KV-decode kernel is memory-bound
        assert!(
            points.iter().all(|p| p.memory_bound),
            "compute-bound decode kernel: {:?}",
            points.iter().find(|p| !p.memory_bound)
        );
    }

    #[test]
    fn ax_parser_accepts_every_spelling() {
        for (spellings, ax) in AxAnalysis::SPELLINGS {
            for s in spellings.split('|') {
                assert_eq!(AxAnalysis::parse(s).unwrap(), ax, "{s}");
                assert_eq!(AxAnalysis::parse(&s.to_uppercase()).unwrap(), ax);
            }
        }
    }

    #[test]
    fn ax_parse_error_lists_valid_spellings() {
        let err = AxAnalysis::parse("ax9").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown analysis 'ax9'"), "{msg}");
        for (spellings, _) in AxAnalysis::SPELLINGS {
            assert!(msg.contains(spellings), "{msg} missing {spellings}");
        }
    }
}
