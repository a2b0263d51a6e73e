//! A11–A15 — the analyses only possible with *correlated* across-stack
//! profiles (§III-D3): per-layer kernel aggregation, per-layer GPU metrics,
//! GPU vs non-GPU latency, the layer roofline, and the whole-model
//! aggregate. A11–A14 "cannot be performed using existing tools as they
//! require both the layer- and GPU kernel-level profiles and their results
//! to be correlated" — they are the reason XSP exists.

use crate::profile::LeveledProfile;
use crate::roofline::{classify, RooflinePoint};
use xsp_gpu::System;

/// One row of A11: kernel information aggregated over a layer.
#[derive(Debug, Clone)]
pub struct LayerKernelRow {
    /// Layer execution index.
    pub layer_index: usize,
    /// Layer name.
    pub layer_name: String,
    /// Layer latency, ms (accurate, from the layer-level profile).
    pub layer_latency_ms: f64,
    /// Sum of the layer's kernel latencies, ms.
    pub kernel_latency_ms: f64,
    /// Number of kernels the layer launched.
    pub kernel_count: usize,
    /// Total Gflops.
    pub gflops: f64,
    /// Total DRAM reads, MB.
    pub dram_read_mb: f64,
    /// Total DRAM writes, MB.
    pub dram_write_mb: f64,
    /// Latency-weighted achieved occupancy, percent.
    pub occupancy_pct: f64,
    /// Aggregate arithmetic intensity, flops/byte.
    pub arithmetic_intensity: f64,
    /// Aggregate arithmetic throughput, Tflops/s.
    pub throughput_tflops: f64,
    /// Memory-bound?
    pub memory_bound: bool,
}

/// A11: GPU kernel information aggregated by layer.
pub fn a11_kernel_info_by_layer(profile: &LeveledProfile, system: &System) -> Vec<LayerKernelRow> {
    let kernels = profile.kernels();
    // Accurate layer latencies come from M/L runs; fall back to M/L/G
    // observations for layers whose index is absent there.
    let accurate = profile.layers();
    let gpu_level = profile.layers_at_gpu_level();
    gpu_level
        .iter()
        .map(|l| {
            let layer_latency_ms = accurate
                .iter()
                .find(|a| a.index == l.index)
                .map(|a| a.latency_ms)
                .unwrap_or(l.latency_ms);
            let mine: Vec<_> = kernels
                .iter()
                .filter(|k| k.layer_index == Some(l.index))
                .collect();
            let kernel_latency_ms: f64 = mine.iter().map(|k| k.latency_ms).sum();
            let flops: u64 = mine.iter().filter_map(|k| k.flops).sum();
            let read: u64 = mine.iter().filter_map(|k| k.dram_read).sum();
            let write: u64 = mine.iter().filter_map(|k| k.dram_write).sum();
            let occupancy_pct = if kernel_latency_ms > 0.0 {
                mine.iter()
                    .map(|k| k.occupancy.unwrap_or(0.0) * 100.0 * k.latency_ms)
                    .sum::<f64>()
                    / kernel_latency_ms
            } else {
                0.0
            };
            let bytes = read + write;
            let arithmetic_intensity = if bytes > 0 {
                flops as f64 / bytes as f64
            } else {
                f64::INFINITY
            };
            let throughput_tflops = if kernel_latency_ms > 0.0 {
                flops as f64 / (kernel_latency_ms / 1e3) / 1e12
            } else {
                0.0
            };
            LayerKernelRow {
                layer_index: l.index,
                layer_name: l.name.to_string(),
                layer_latency_ms,
                kernel_latency_ms,
                kernel_count: mine.len(),
                gflops: flops as f64 / 1e9,
                dram_read_mb: read as f64 / 1e6,
                dram_write_mb: write as f64 / 1e6,
                occupancy_pct,
                arithmetic_intensity,
                throughput_tflops,
                memory_bound: arithmetic_intensity < system.ideal_arithmetic_intensity(),
            }
        })
        .collect()
}

/// One row of A12: the raw GPU metric totals per layer (Figure 7).
#[derive(Debug, Clone)]
pub struct LayerMetricsRow {
    /// Layer index.
    pub layer_index: usize,
    /// Total Gflops.
    pub gflops: f64,
    /// DRAM reads, MB.
    pub dram_read_mb: f64,
    /// DRAM writes, MB.
    pub dram_write_mb: f64,
}

/// A12: total flops / DRAM reads / DRAM writes per layer.
pub fn a12_metrics_per_layer(profile: &LeveledProfile, system: &System) -> Vec<LayerMetricsRow> {
    a11_kernel_info_by_layer(profile, system)
        .into_iter()
        .map(|r| LayerMetricsRow {
            layer_index: r.layer_index,
            gflops: r.gflops,
            dram_read_mb: r.dram_read_mb,
            dram_write_mb: r.dram_write_mb,
        })
        .collect()
}

/// A13: GPU vs non-GPU latency per layer (Figure 8): the layer's non-GPU
/// latency is its latency minus its total kernel latency.
/// Returns `(layer_index, gpu_ms, non_gpu_ms)`.
pub fn a13_gpu_vs_nongpu(profile: &LeveledProfile, system: &System) -> Vec<(usize, f64, f64)> {
    a11_kernel_info_by_layer(profile, system)
        .into_iter()
        .map(|r| {
            let non_gpu = (r.layer_latency_ms - r.kernel_latency_ms).max(0.0);
            (r.layer_index, r.kernel_latency_ms, non_gpu)
        })
        .collect()
}

/// A14: the layer roofline (Figure 9).
pub fn a14_layer_roofline(profile: &LeveledProfile, system: &System) -> Vec<RooflinePoint> {
    a11_kernel_info_by_layer(profile, system)
        .into_iter()
        .filter(|r| r.kernel_latency_ms > 0.0 && r.gflops >= 0.0)
        .filter_map(|r| {
            classify(
                r.layer_name.clone(),
                (r.gflops * 1e9) as u64,
                (r.dram_read_mb * 1e6) as u64,
                (r.dram_write_mb * 1e6) as u64,
                r.kernel_latency_ms,
                system,
            )
        })
        .collect()
}

/// A15: the whole-model aggregate (Table VI / Table IX).
#[derive(Debug, Clone)]
pub struct ModelAggregateRow {
    /// Batch size.
    pub batch: usize,
    /// Accurate model latency, ms.
    pub model_latency_ms: f64,
    /// Total kernel latency, ms.
    pub kernel_latency_ms: f64,
    /// GPU latency percentage.
    pub gpu_latency_percent: f64,
    /// Total model Gflops.
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
    /// Memory-bound at this batch size?
    pub memory_bound: bool,
}

/// A15: aggregates all kernels within the model (§III-D3 last analysis).
pub fn a15_model_aggregate(profile: &LeveledProfile, system: &System) -> ModelAggregateRow {
    let kernels = profile.kernels();
    let kernel_latency_ms: f64 = kernels.iter().map(|k| k.latency_ms).sum();
    let flops: u64 = kernels.iter().filter_map(|k| k.flops).sum();
    let read: u64 = kernels.iter().filter_map(|k| k.dram_read).sum();
    let write: u64 = kernels.iter().filter_map(|k| k.dram_write).sum();
    let occupancy_pct = if kernel_latency_ms > 0.0 {
        kernels
            .iter()
            .map(|k| k.occupancy.unwrap_or(0.0) * 100.0 * k.latency_ms)
            .sum::<f64>()
            / kernel_latency_ms
    } else {
        0.0
    };
    let bytes = read + write;
    let arithmetic_intensity = if bytes > 0 {
        flops as f64 / bytes as f64
    } else {
        f64::INFINITY
    };
    let model_latency_ms = profile.model_latency_ms();
    let throughput_tflops = if kernel_latency_ms > 0.0 {
        flops as f64 / (kernel_latency_ms / 1e3) / 1e12
    } else {
        0.0
    };
    ModelAggregateRow {
        batch: profile.batch,
        model_latency_ms,
        kernel_latency_ms,
        gpu_latency_percent: 100.0 * kernel_latency_ms / model_latency_ms.max(f64::EPSILON),
        gflops: flops as f64 / 1e9,
        dram_read_mb: read as f64 / 1e6,
        dram_write_mb: write as f64 / 1e6,
        occupancy_pct,
        arithmetic_intensity,
        throughput_tflops,
        memory_bound: arithmetic_intensity < system.ideal_arithmetic_intensity(),
    }
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
    fn a11_covers_every_layer() {
        let (p, sys) = profile();
        let rows = a11_kernel_info_by_layer(&p, &sys);
        assert_eq!(rows.len(), p.layers().len());
        // conv layers have kernels and flops
        let conv = rows
            .iter()
            .find(|r| r.layer_name.contains("conv2d"))
            .unwrap();
        assert!(conv.kernel_count > 0);
        assert!(conv.gflops > 0.0);
        assert!(conv.kernel_latency_ms <= conv.layer_latency_ms + 1e-9);
    }

    #[test]
    fn a11_kernel_totals_match_a15() {
        let (p, sys) = profile();
        let a11 = a11_kernel_info_by_layer(&p, &sys);
        let a15 = a15_model_aggregate(&p, &sys);
        let sum_latency: f64 = a11.iter().map(|r| r.kernel_latency_ms).sum();
        let sum_flops: f64 = a11.iter().map(|r| r.gflops).sum();
        assert!(
            (sum_latency - a15.kernel_latency_ms).abs() < 1e-6,
            "A15 = Σ A11 latency: {sum_latency} vs {}",
            a15.kernel_latency_ms
        );
        assert!((sum_flops - a15.gflops).abs() < 1e-6);
    }

    #[test]
    fn a12_series_aligned() {
        let (p, sys) = profile();
        let a12 = a12_metrics_per_layer(&p, &sys);
        assert_eq!(a12.len(), p.layers().len());
        assert!(a12.iter().any(|r| r.gflops > 0.0));
    }

    #[test]
    fn a13_splits_are_nonnegative_and_bounded() {
        let (p, sys) = profile();
        for (idx, gpu, non_gpu) in a13_gpu_vs_nongpu(&p, &sys) {
            assert!(gpu >= 0.0, "layer {idx}");
            assert!(non_gpu >= 0.0, "layer {idx}");
        }
        // some layers have meaningful non-GPU time (dispatch of CPU ops)
        let total_non_gpu: f64 = a13_gpu_vs_nongpu(&p, &sys).iter().map(|r| r.2).sum();
        assert!(total_non_gpu > 0.0);
    }

    #[test]
    fn a14_depthwise_and_elementwise_memory_bound() {
        let (p, sys) = profile();
        let points = a14_layer_roofline(&p, &sys);
        let mul_points: Vec<_> = points.iter().filter(|pt| pt.name.contains("mul")).collect();
        assert!(!mul_points.is_empty());
        assert!(
            mul_points.iter().all(|pt| pt.memory_bound),
            "BN-mul layers are memory-bound"
        );
    }

    #[test]
    fn a15_is_self_consistent() {
        let (p, sys) = profile();
        let a15 = a15_model_aggregate(&p, &sys);
        assert_eq!(a15.batch, 4);
        assert!(a15.gpu_latency_percent > 0.0 && a15.gpu_latency_percent < 100.0);
        assert!(a15.occupancy_pct > 0.0 && a15.occupancy_pct <= 100.0);
        assert!(a15.gflops > 0.0);
        // tiny MobileNet at batch 4 is memory-bound (paper Table IX, id 37)
        assert!(a15.memory_bound, "AI = {}", a15.arithmetic_intensity);
    }
}
