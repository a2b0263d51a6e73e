//! AX3 — workload-regime analysis (transformer-tier extension).
//!
//! The paper's 65-model zoo is convolution-dominated: its rooflines only
//! ever exercise the conv-bound regime. The transformer tier adds models
//! whose GPU time goes to cuBLAS GEMMs instead, and this module makes that
//! distinction a first-class analysis: classify every kernel into a family
//! (dense GEMM, convolution, element-wise, ...), aggregate latency shares
//! per family, and expose the roofline points of just the GEMM kernels so
//! a GEMM-bound model's regime can be compared against a conv baseline.

use crate::profile::LeveledProfile;
use crate::roofline::{classify, RooflinePoint};
use xsp_gpu::System;

/// The family a GPU kernel belongs to, by library origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Dense cuBLAS GEMMs: `*_sgemm_*` single and strided-batched kernels
    /// (attention projections and score/context products, FC/FFN layers).
    Gemm,
    /// KV-cache decode kernels: seq=1 GEMV-shaped projections
    /// (`*_sgemv_decode_*`), cached-attention score/context products, the
    /// cache-append copy, decode softmax, and the fused
    /// `flash_attention_decode` kernel. These stream weights or cache once
    /// per token and are bandwidth-bound almost regardless of batch.
    KvDecode,
    /// cuDNN convolutions: `*_scudnn_*`, implicit GEMM, depthwise,
    /// transform-domain (`fft2d`/`cgemm`) and their helper kernels.
    Convolution,
    /// Element-wise kernels (Eigen functors / mshadow ops / GELU).
    Elementwise,
    /// Normalization and softmax kernels (batch-norm, layer-norm,
    /// softmax variants, LRN).
    Normalization,
    /// Reductions and pooling.
    Reduction,
    /// Pure data movement: transpose/concat/pad/gather/resize copies.
    DataMovement,
    /// Anything else (detection `Where` scans, NMS helpers, ...).
    Other,
}

impl KernelFamily {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            KernelFamily::Gemm => "gemm",
            KernelFamily::KvDecode => "kv-decode",
            KernelFamily::Convolution => "convolution",
            KernelFamily::Elementwise => "elementwise",
            KernelFamily::Normalization => "normalization",
            KernelFamily::Reduction => "reduction",
            KernelFamily::DataMovement => "data-movement",
            KernelFamily::Other => "other",
        }
    }
}

/// Classifies a kernel by its (library-conventional) name. Decode markers
/// are checked first because the decode tier reuses library vocabulary —
/// `decode_softmax_warp_fw` would otherwise land in [`Normalization`] and
/// `kv_cache_append_kernel` in [`DataMovement`]. Convolution markers are
/// checked before the GEMM marker because cuDNN's implicit-GEMM
/// convolution kernels carry `sgemm` in their names too
/// (`implicit_convolve_sgemm`).
///
/// [`Normalization`]: KernelFamily::Normalization
/// [`DataMovement`]: KernelFamily::DataMovement
pub fn kernel_family(name: &str) -> KernelFamily {
    let decode_markers = ["decode", "kv_cache", "flash_attention", "sgemv"];
    if decode_markers.iter().any(|m| name.contains(m)) {
        return KernelFamily::KvDecode;
    }
    let conv_markers = [
        "scudnn",
        "convolve",
        "depthwise_fprop",
        "fft2d",
        "cgemm",
        "OffsetComp",
        "winograd",
    ];
    if conv_markers.iter().any(|m| name.contains(m)) {
        return KernelFamily::Convolution;
    }
    if name.contains("sgemm") {
        return KernelFamily::Gemm;
    }
    if name.contains("softmax")
        || name.contains("bn_fw")
        || name.contains("layer_norm")
        || name.contains("lrn")
    {
        return KernelFamily::Normalization;
    }
    if name.contains("Eigen") || name.contains("mshadow") || name.contains("gelu") {
        return KernelFamily::Elementwise;
    }
    if name.contains("Reduce") || name.contains("pooling") {
        return KernelFamily::Reduction;
    }
    let movement = [
        "Transpose",
        "Concat",
        "Pad",
        "gather",
        "Resize",
        "memcpy",
        "Shuffle",
    ];
    if movement.iter().any(|m| name.contains(m)) {
        return KernelFamily::DataMovement;
    }
    KernelFamily::Other
}

/// One row of the per-family latency aggregation.
#[derive(Debug, Clone)]
pub struct FamilyShareRow {
    /// Kernel family.
    pub family: KernelFamily,
    /// Kernel invocations in the family.
    pub count: usize,
    /// Total latency, ms.
    pub latency_ms: f64,
    /// Share of total kernel latency, percent.
    pub latency_percent: f64,
}

/// AX3a: GPU kernel latency aggregated by kernel family, sorted by share
/// descending. The top family names the model's compute regime.
pub fn ax3_family_shares(profile: &LeveledProfile) -> Vec<FamilyShareRow> {
    let kernels = profile.kernels();
    let total: f64 = kernels.iter().map(|k| k.latency_ms).sum();
    let mut rows: Vec<FamilyShareRow> = Vec::new();
    for k in &kernels {
        let family = kernel_family(&k.name);
        match rows.iter_mut().find(|r| r.family == family) {
            Some(r) => {
                r.count += 1;
                r.latency_ms += k.latency_ms;
            }
            None => rows.push(FamilyShareRow {
                family,
                count: 1,
                latency_ms: k.latency_ms,
                latency_percent: 0.0,
            }),
        }
    }
    for r in &mut rows {
        r.latency_percent = if total > 0.0 {
            100.0 * r.latency_ms / total
        } else {
            0.0
        };
    }
    rows.sort_by(|a, b| b.latency_ms.partial_cmp(&a.latency_ms).unwrap());
    rows
}

/// The dominant compute regime of a model's GPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeRegime {
    /// Convolution kernels carry the largest latency share (the paper's 65
    /// CNN models).
    ConvBound,
    /// Dense GEMM kernels carry the largest share (the transformer tier).
    GemmBound,
    /// KV-cache decode kernels carry the largest share (the inference-
    /// serving tier's seq=1 decode steps): GPU time goes to streaming
    /// weights and cache, not to math.
    BandwidthBound,
    /// Neither — host-heavy detection models, copy-dominated graphs.
    Mixed,
}

/// Names the regime from an already-computed share table (the rows are
/// sorted by latency, so the first family holds the plurality). Use this —
/// with one [`ax3_family_shares`] call — when also reading shares or the
/// GEMM percent, instead of re-aggregating per question.
pub fn regime_of(shares: &[FamilyShareRow]) -> ComputeRegime {
    match shares.first().map(|r| r.family) {
        Some(KernelFamily::Convolution) => ComputeRegime::ConvBound,
        Some(KernelFamily::Gemm) => ComputeRegime::GemmBound,
        Some(KernelFamily::KvDecode) => ComputeRegime::BandwidthBound,
        _ => ComputeRegime::Mixed,
    }
}

/// GEMM share of an already-computed share table, percent.
pub fn gemm_percent_of(shares: &[FamilyShareRow]) -> f64 {
    shares
        .iter()
        .find(|r| r.family == KernelFamily::Gemm)
        .map(|r| r.latency_percent)
        .unwrap_or(0.0)
}

/// AX3b: names the regime by the largest family share. A family must carry
/// a plurality of kernel latency to claim the model. Convenience over
/// [`regime_of`] when only the regime is needed.
pub fn ax3_compute_regime(profile: &LeveledProfile) -> ComputeRegime {
    regime_of(&ax3_family_shares(profile))
}

/// GEMM latency share of total kernel latency, percent — the GEMM-bound
/// counterpart of `convolution_latency_percent` (which is layer-level; this
/// one is kernel-level because attention layers mix GEMM and softmax
/// kernels within one layer). Convenience over [`gemm_percent_of`] when
/// only the percentage is needed.
pub fn gemm_latency_percent(profile: &LeveledProfile) -> f64 {
    gemm_percent_of(&ax3_family_shares(profile))
}

/// AX3c: roofline points of only the GEMM-family kernels — the scatter that
/// shows the attention chain straddling the ridge point while conv kernels
/// sit deep in the compute-bound region.
pub fn ax3_gemm_roofline(profile: &LeveledProfile, system: &System) -> Vec<RooflinePoint> {
    profile
        .kernels()
        .iter()
        .filter(|k| kernel_family(&k.name) == KernelFamily::Gemm)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRequest, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::{transformer, zoo};

    fn xsp() -> Xsp {
        Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1))
    }

    #[test]
    fn family_classifier_separates_conv_from_gemm() {
        assert_eq!(kernel_family("volta_sgemm_128x128_tn"), KernelFamily::Gemm);
        assert_eq!(
            kernel_family("volta_sgemm_64x64_nn_batched"),
            KernelFamily::Gemm
        );
        // the tricky one: conv kernels with "sgemm" in the name
        assert_eq!(
            kernel_family("cudnn::detail::implicit_convolve_sgemm"),
            KernelFamily::Convolution
        );
        assert_eq!(
            kernel_family("volta_scudnn_128x64_relu_interior_nn_v1"),
            KernelFamily::Convolution
        );
        assert_eq!(
            kernel_family("volta_cgemm_32x32_tn"),
            KernelFamily::Convolution
        );
        assert_eq!(
            kernel_family("fused_scaled_masked_softmax_warp_fw"),
            KernelFamily::Normalization
        );
        assert_eq!(
            kernel_family("layer_norm_fused_kernel<float>"),
            KernelFamily::Normalization
        );
        assert_eq!(
            kernel_family("gelu_tanh_kernel<float>"),
            KernelFamily::Elementwise
        );
        assert_eq!(
            kernel_family("Eigen::internal::scalar_max_op"),
            KernelFamily::Elementwise
        );
        assert_eq!(
            kernel_family("embedding_gather_kernel"),
            KernelFamily::DataMovement
        );
    }

    #[test]
    fn decode_markers_win_over_library_vocabulary() {
        assert_eq!(
            kernel_family("volta_sgemv_decode_tn_v1"),
            KernelFamily::KvDecode
        );
        // "softmax" would match Normalization, "append" nothing — decode
        // markers must be checked first.
        assert_eq!(
            kernel_family("decode_softmax_warp_fw"),
            KernelFamily::KvDecode
        );
        assert_eq!(
            kernel_family("kv_cache_append_kernel<float>"),
            KernelFamily::KvDecode
        );
        assert_eq!(
            kernel_family("flash_attention_decode_kernel<float>"),
            KernelFamily::KvDecode
        );
        assert_eq!(
            kernel_family("volta_sgemv_decode_scores_batched"),
            KernelFamily::KvDecode
        );
    }

    #[test]
    fn decode_step_is_bandwidth_bound() {
        let p = xsp().run(ProfileRequest::new(&transformer::gpt2_decode_step(
            4,
            256,
            transformer::DecodeAttention::Materialized,
        )));
        assert_eq!(ax3_compute_regime(&p), ComputeRegime::BandwidthBound);
        // ...and the prefill graph stays GEMM-bound: the regimes are
        // genuinely different, not a classifier artifact.
        let prefill = xsp().run(ProfileRequest::new(&transformer::gpt2_small(4, 256)));
        assert_eq!(ax3_compute_regime(&prefill), ComputeRegime::GemmBound);
    }

    #[test]
    fn bert_is_gemm_bound_resnet_is_conv_bound() {
        let bert = xsp().run(ProfileRequest::new(&transformer::bert_base(1, 128)));
        assert_eq!(ax3_compute_regime(&bert), ComputeRegime::GemmBound);
        assert!(
            gemm_latency_percent(&bert) > 50.0,
            "BERT GEMM share {:.1}%",
            gemm_latency_percent(&bert)
        );
        let resnet = xsp().run(ProfileRequest::new(
            &zoo::by_name("ResNet_v1_50").unwrap().graph(4),
        ));
        assert_eq!(ax3_compute_regime(&resnet), ComputeRegime::ConvBound);
        assert!(gemm_latency_percent(&resnet) < 20.0);
    }

    #[test]
    fn family_shares_sum_to_100() {
        let p = xsp().run(ProfileRequest::new(&transformer::bert_base(1, 64)));
        let shares = ax3_family_shares(&p);
        let total: f64 = shares.iter().map(|r| r.latency_percent).sum();
        assert!((total - 100.0).abs() < 1e-6, "{total}");
        for w in shares.windows(2) {
            assert!(w[0].latency_ms >= w[1].latency_ms);
        }
    }

    #[test]
    fn gemm_roofline_covers_projections_and_batched_products() {
        let system = systems::tesla_v100();
        let p = xsp().run(ProfileRequest::new(&transformer::bert_base(1, 128)));
        let points = ax3_gemm_roofline(&p, &system);
        assert!(!points.is_empty());
        let batched: Vec<_> = points
            .iter()
            .filter(|p| p.name.contains("batched"))
            .collect();
        let single: Vec<_> = points
            .iter()
            .filter(|p| !p.name.contains("batched"))
            .collect();
        assert!(!batched.is_empty() && !single.is_empty());
        // seq-128 batched attention GEMMs sit under the V100 ridge...
        assert!(batched.iter().all(|p| p.memory_bound), "batched points");
        // ...while the projection/FFN GEMMs sit above it. (The one
        // exception is the tiny 768→2 SQuAD head GEMM, which is
        // bandwidth-starved like any skinny GEMM.)
        let compute_bound = single.iter().filter(|p| !p.memory_bound).count();
        assert!(
            compute_bound >= single.len() - 1,
            "projection points: {compute_bound}/{} compute-bound",
            single.len()
        );
    }
}
