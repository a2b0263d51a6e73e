//! A2–A7 — layer-level analyses (§III-D2): the layer information table,
//! per-layer latency/allocation series, and aggregations by layer type.

use crate::pipeline::LayerProfile;
use crate::profile::LeveledProfile;

/// One row of the A2 layer-information table.
#[derive(Debug, Clone)]
pub struct LayerInfoRow {
    /// Execution index.
    pub index: usize,
    /// Layer name.
    pub name: String,
    /// Layer type.
    pub type_name: String,
    /// Output shape.
    pub shape: String,
    /// Latency, ms.
    pub latency_ms: f64,
    /// Allocated memory, MB.
    pub alloc_mb: f64,
}

/// A2: the layer information table, in execution order.
pub fn a2_layer_info(profile: &LeveledProfile) -> Vec<LayerInfoRow> {
    profile
        .layers()
        .iter()
        .map(|l| LayerInfoRow {
            index: l.index,
            name: l.name.to_string(),
            type_name: l.type_name.to_string(),
            shape: l.shape.to_string(),
            latency_ms: l.latency_ms,
            alloc_mb: l.alloc_bytes as f64 / 1e6,
        })
        .collect()
}

/// A3: latency per layer in execution order: `(index, latency_ms)`.
pub fn a3_layer_latency(profile: &LeveledProfile) -> Vec<(usize, f64)> {
    profile
        .layers()
        .iter()
        .map(|l| (l.index, l.latency_ms))
        .collect()
}

/// A4: allocated memory per layer in execution order: `(index, MB)`.
pub fn a4_layer_allocation(profile: &LeveledProfile) -> Vec<(usize, f64)> {
    profile
        .layers()
        .iter()
        .map(|l| (l.index, l.alloc_bytes as f64 / 1e6))
        .collect()
}

/// An aggregation row keyed by layer type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeAggRow {
    /// Layer type name.
    pub type_name: String,
    /// Occurrence count (A5) .
    pub count: usize,
    /// Total value (ms for A6, MB for A7).
    pub total: f64,
    /// Share of the whole, percent.
    pub percent: f64,
}

fn aggregate_by_type(
    layers: &[LayerProfile],
    value: impl Fn(&LayerProfile) -> f64,
) -> Vec<TypeAggRow> {
    let mut rows: Vec<TypeAggRow> = Vec::new();
    for l in layers {
        let v = value(l);
        match rows.iter_mut().find(|r| r.type_name == l.type_name) {
            Some(r) => {
                r.count += 1;
                r.total += v;
            }
            None => rows.push(TypeAggRow {
                type_name: l.type_name.to_string(),
                count: 1,
                total: v,
                percent: 0.0,
            }),
        }
    }
    let sum: f64 = rows.iter().map(|r| r.total).sum();
    for r in &mut rows {
        r.percent = if sum > 0.0 {
            100.0 * r.total / sum
        } else {
            0.0
        };
    }
    rows.sort_by(|a, b| b.total.partial_cmp(&a.total).unwrap());
    rows
}

/// A5: layer type distribution (counts; `total`/`percent` hold the counts
/// as f64 so the same row type renders all three pie charts of Figure 4).
pub fn a5_layer_type_distribution(profile: &LeveledProfile) -> Vec<TypeAggRow> {
    let mut rows = aggregate_by_type(&profile.layers(), |_| 1.0);
    rows.sort_by_key(|r| std::cmp::Reverse(r.count));
    rows
}

/// A6: layer latency aggregated by type (Figure 4b).
pub fn a6_latency_by_type(profile: &LeveledProfile) -> Vec<TypeAggRow> {
    aggregate_by_type(&profile.layers(), |l| l.latency_ms)
}

/// A7: layer memory allocation aggregated by type (Figure 4c).
pub fn a7_allocation_by_type(profile: &LeveledProfile) -> Vec<TypeAggRow> {
    aggregate_by_type(&profile.layers(), |l| l.alloc_bytes as f64 / 1e6)
}

/// Convolution share of model latency (Table VIII last column): the
/// percentage of total layer latency attributed to `Conv2D` +
/// `DepthwiseConv2dNative` layers.
pub fn convolution_latency_percent(profile: &LeveledProfile) -> f64 {
    let layers = profile.layers();
    let total: f64 = layers.iter().map(|l| l.latency_ms).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let conv: f64 = layers
        .iter()
        .filter(|l| l.type_name == "Conv2D" || l.type_name == "DepthwiseConv2dNative")
        .map(|l| l.latency_ms)
        .sum();
    100.0 * conv / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRequest, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;

    fn profile() -> LeveledProfile {
        let xsp =
            Xsp::new(XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow).runs(1));
        xsp.run(ProfileRequest::new(
            &zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2),
        ))
    }

    #[test]
    fn a2_rows_are_in_execution_order() {
        let rows = a2_layer_info(&profile());
        assert!(!rows.is_empty());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        // conv rows exist with sane shapes and allocations
        let conv = rows.iter().find(|r| r.type_name == "Conv2D").unwrap();
        assert!(conv.alloc_mb > 0.0);
        assert!(conv.shape.starts_with('⟨'));
    }

    #[test]
    fn a3_a4_series_align_with_a2() {
        let p = profile();
        let a2 = a2_layer_info(&p);
        let a3 = a3_layer_latency(&p);
        let a4 = a4_layer_allocation(&p);
        assert_eq!(a2.len(), a3.len());
        assert_eq!(a2.len(), a4.len());
        for i in 0..a2.len() {
            assert_eq!(a2[i].latency_ms, a3[i].1);
            assert!((a2[i].alloc_mb - a4[i].1).abs() < 1e-12);
        }
    }

    #[test]
    fn a5_counts_sum_to_layer_count() {
        let p = profile();
        let dist = a5_layer_type_distribution(&p);
        let total: usize = dist.iter().map(|r| r.count).sum();
        assert_eq!(total, p.layers().len());
        // TF-executed MobileNet: Mul/Add from decomposed BN dominate counts
        assert!(dist[0].count >= dist.last().unwrap().count);
    }

    #[test]
    fn a6_percentages_sum_to_100() {
        let rows = a6_latency_by_type(&profile());
        let pct: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((pct - 100.0).abs() < 1e-6, "{pct}");
        // sorted descending by total
        for w in rows.windows(2) {
            assert!(w[0].total >= w[1].total);
        }
    }

    #[test]
    fn a7_allocation_by_type_nonzero() {
        let rows = a7_allocation_by_type(&profile());
        assert!(rows.iter().any(|r| r.total > 0.0));
    }

    #[test]
    fn conv_percent_between_0_and_100() {
        let pct = convolution_latency_percent(&profile());
        assert!(pct > 0.0 && pct < 100.0, "{pct}");
    }
}
