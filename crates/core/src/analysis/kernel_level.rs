//! A8–A10 — GPU kernel-level analyses (§III-D3): the kernel information
//! table, kernel roofline, and aggregation by kernel name.

use crate::profile::LeveledProfile;
use crate::roofline::{classify, RooflinePoint};
use xsp_gpu::System;

/// One row of the A8 kernel-information table.
#[derive(Debug, Clone)]
pub struct KernelInfoRow {
    /// Launch order.
    pub order: usize,
    /// Kernel name.
    pub name: String,
    /// Index of the invoking layer (when correlated).
    pub layer_index: Option<usize>,
    /// Kernel latency, ms.
    pub latency_ms: f64,
    /// Gflops executed.
    pub gflops: f64,
    /// DRAM reads, MB.
    pub dram_read_mb: f64,
    /// DRAM writes, MB.
    pub dram_write_mb: f64,
    /// Achieved occupancy, percent.
    pub occupancy_pct: f64,
    /// Arithmetic intensity, flops/byte.
    pub arithmetic_intensity: f64,
    /// Arithmetic throughput, Tflops/s.
    pub throughput_tflops: f64,
    /// Memory-bound on the profiled system?
    pub memory_bound: bool,
}

/// A8: per-kernel information with metrics and roofline classification.
pub fn a8_kernel_info(profile: &LeveledProfile, system: &System) -> Vec<KernelInfoRow> {
    profile
        .kernels()
        .iter()
        .map(|k| {
            let flops = k.flops.unwrap_or(0);
            let read = k.dram_read.unwrap_or(0);
            let write = k.dram_write.unwrap_or(0);
            let point = classify(k.name.to_string(), flops, read, write, k.latency_ms, system);
            KernelInfoRow {
                order: k.order,
                name: k.name.to_string(),
                layer_index: k.layer_index,
                latency_ms: k.latency_ms,
                gflops: flops as f64 / 1e9,
                dram_read_mb: read as f64 / 1e6,
                dram_write_mb: write as f64 / 1e6,
                occupancy_pct: k.occupancy.unwrap_or(0.0) * 100.0,
                arithmetic_intensity: point
                    .as_ref()
                    .map(|p| p.arithmetic_intensity)
                    .unwrap_or(0.0),
                throughput_tflops: point.as_ref().map(|p| p.throughput_tflops).unwrap_or(0.0),
                memory_bound: point.map(|p| p.memory_bound).unwrap_or(false),
            }
        })
        .collect()
}

/// A9: the kernel roofline scatter (Figure 6).
pub fn a9_kernel_roofline(profile: &LeveledProfile, system: &System) -> Vec<RooflinePoint> {
    profile
        .kernels()
        .iter()
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

/// One row of the A10 by-name aggregation.
#[derive(Debug, Clone)]
pub struct KernelNameAggRow {
    /// Kernel name.
    pub name: String,
    /// Number of invocations.
    pub count: usize,
    /// Total latency, ms.
    pub latency_ms: f64,
    /// Share of total kernel latency, percent.
    pub latency_percent: f64,
    /// Total Gflops.
    pub gflops: f64,
    /// Total DRAM reads, MB.
    pub dram_read_mb: f64,
    /// Total DRAM writes, MB.
    pub dram_write_mb: f64,
    /// Latency-weighted achieved occupancy, percent.
    pub occupancy_pct: f64,
    /// Aggregate arithmetic intensity.
    pub arithmetic_intensity: f64,
    /// Aggregate arithmetic throughput, Tflops/s.
    pub throughput_tflops: f64,
    /// Memory-bound?
    pub memory_bound: bool,
}

/// A10: kernel information aggregated by kernel name. Latency/flops/traffic
/// are sums; occupancy is the latency-weighted mean; intensity and
/// throughput are recomputed from the aggregates (§III-D3).
pub fn a10_kernel_info_by_name(profile: &LeveledProfile, system: &System) -> Vec<KernelNameAggRow> {
    let kernels = profile.kernels();
    let total_latency: f64 = kernels.iter().map(|k| k.latency_ms).sum();
    let mut rows: Vec<KernelNameAggRow> = Vec::new();
    for k in &kernels {
        let flops = k.flops.unwrap_or(0) as f64 / 1e9;
        let read = k.dram_read.unwrap_or(0) as f64 / 1e6;
        let write = k.dram_write.unwrap_or(0) as f64 / 1e6;
        let occ = k.occupancy.unwrap_or(0.0) * 100.0;
        match rows.iter_mut().find(|r| r.name == k.name) {
            Some(r) => {
                r.count += 1;
                r.latency_ms += k.latency_ms;
                r.gflops += flops;
                r.dram_read_mb += read;
                r.dram_write_mb += write;
                r.occupancy_pct += occ * k.latency_ms;
            }
            None => rows.push(KernelNameAggRow {
                name: k.name.to_string(),
                count: 1,
                latency_ms: k.latency_ms,
                gflops: flops,
                dram_read_mb: read,
                dram_write_mb: write,
                occupancy_pct: occ * k.latency_ms,
                latency_percent: 0.0,
                arithmetic_intensity: 0.0,
                throughput_tflops: 0.0,
                memory_bound: false,
            }),
        }
    }
    for r in &mut rows {
        r.occupancy_pct = if r.latency_ms > 0.0 {
            r.occupancy_pct / r.latency_ms
        } else {
            0.0
        };
        r.latency_percent = if total_latency > 0.0 {
            100.0 * r.latency_ms / total_latency
        } else {
            0.0
        };
        let bytes = (r.dram_read_mb + r.dram_write_mb) * 1e6;
        r.arithmetic_intensity = if bytes > 0.0 {
            r.gflops * 1e9 / bytes
        } else {
            f64::INFINITY
        };
        r.throughput_tflops = if r.latency_ms > 0.0 {
            r.gflops * 1e9 / (r.latency_ms / 1e3) / 1e12
        } else {
            0.0
        };
        r.memory_bound = r.arithmetic_intensity < system.ideal_arithmetic_intensity();
    }
    rows.sort_by(|a, b| b.latency_ms.partial_cmp(&a.latency_ms).unwrap());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRequest, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn profile() -> (LeveledProfile, System) {
        let system = systems::tesla_v100();
        let xsp = Xsp::new(XspConfig::new(system.clone(), FrameworkKind::TensorFlow).runs(1));
        (
            xsp.run(ProfileRequest::new(
                &zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(4),
            )),
            system,
        )
    }

    #[test]
    fn a8_rows_have_metrics() {
        let (p, sys) = profile();
        let rows = a8_kernel_info(&p, &sys);
        assert!(!rows.is_empty());
        let with_flops = rows.iter().filter(|r| r.gflops > 0.0).count();
        assert!(with_flops > 0, "conv/gemm kernels must report flops");
        for r in &rows {
            assert!(r.latency_ms > 0.0);
            assert!(r.occupancy_pct >= 0.0 && r.occupancy_pct <= 100.0);
        }
    }

    #[test]
    fn a9_points_match_a8_classification() {
        let (p, sys) = profile();
        let a8 = a8_kernel_info(&p, &sys);
        let a9 = a9_kernel_roofline(&p, &sys);
        assert_eq!(
            a9.len(),
            a8.len(),
            "all kernels carry metrics in full-metric runs"
        );
        // element-wise kernels are memory-bound; conv kernels compute-bound
        let eigen_points: Vec<_> = a9.iter().filter(|p| p.name.contains("Eigen")).collect();
        assert!(!eigen_points.is_empty());
        assert!(eigen_points.iter().all(|p| p.memory_bound));
    }

    #[test]
    fn a10_aggregates_consistently() {
        let (p, sys) = profile();
        let a8 = a8_kernel_info(&p, &sys);
        let a10 = a10_kernel_info_by_name(&p, &sys);
        // counts sum to kernel count
        let total: usize = a10.iter().map(|r| r.count).sum();
        assert_eq!(total, a8.len());
        // latency percents sum to 100
        let pct: f64 = a10.iter().map(|r| r.latency_percent).sum();
        assert!((pct - 100.0).abs() < 1e-6);
        // sums match
        let lat8: f64 = a8.iter().map(|r| r.latency_ms).sum();
        let lat10: f64 = a10.iter().map(|r| r.latency_ms).sum();
        assert!((lat8 - lat10).abs() < 1e-9);
        // sorted by latency descending
        for w in a10.windows(2) {
            assert!(w[0].latency_ms >= w[1].latency_ms);
        }
        // unique names
        let mut names: Vec<&str> = a10.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), a10.len());
    }

    #[test]
    fn weighted_occupancy_is_bounded() {
        let (p, sys) = profile();
        for r in a10_kernel_info_by_name(&p, &sys) {
            assert!(
                (0.0..=100.0).contains(&r.occupancy_pct),
                "{}: {}",
                r.name,
                r.occupancy_pct
            );
        }
    }
}
