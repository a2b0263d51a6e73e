//! Extension analysis (§III-E): library-level (cuDNN/cuBLAS) API-call
//! characterization.
//!
//! "One can also add a ML library profiling level between the layer- and
//! GPU kernel-level to measure the cuDNN API calls. ... As new profilers
//! are introduced into XSP, one can add more types of analyses to the
//! automated analysis pipeline." This module is that addition: with
//! [`crate::profile::XspConfig::library_level`] enabled, M/L/G traces carry
//! `Library`-level spans, and this analysis aggregates them by API name.

use crate::profile::LeveledProfile;
use xsp_trace::span::tag_keys;
use xsp_trace::StackLevel;

/// One row of the library-API aggregation.
#[derive(Debug, Clone)]
pub struct LibraryCallRow {
    /// API name (`cudnnConvolutionForward`, `cublasSgemm`, ...).
    pub api: String,
    /// Number of calls.
    pub count: usize,
    /// Total wall time inside the API (covers the kernels it launched in
    /// the serialized profiling regime), ms.
    pub total_ms: f64,
    /// Share of total library time, percent.
    pub percent: f64,
    /// Kernels launched from within this API across the run.
    pub kernels: usize,
}

/// Aggregates library-level spans by API name (extension analysis "AX1").
///
/// Returns an empty vector when the profile was collected without the
/// library level enabled.
pub fn ax1_library_calls(profile: &LeveledProfile) -> Vec<LibraryCallRow> {
    let Some(run) = profile.mlg_runs.first().or(profile.metric_runs.first()) else {
        return Vec::new();
    };
    let mut rows: Vec<LibraryCallRow> = Vec::new();
    for s in run.trace.spans() {
        if s.span.level != StackLevel::Library {
            continue;
        }
        // Children come from the trace's built-once adjacency — the old
        // per-API full-trace scan was quadratic in span count.
        let kernels = run
            .trace
            .children_of(s.span.id)
            .iter()
            .filter(|k| k.span.level == StackLevel::Kernel)
            .count();
        match rows.iter_mut().find(|r| r.api == s.span.name) {
            Some(r) => {
                r.count += 1;
                r.total_ms += s.span.duration_ms();
                r.kernels += kernels;
            }
            None => rows.push(LibraryCallRow {
                api: s.span.name.to_string(),
                count: 1,
                total_ms: s.span.duration_ms(),
                percent: 0.0,
                kernels,
            }),
        }
    }
    let total: f64 = rows.iter().map(|r| r.total_ms).sum();
    for r in &mut rows {
        r.percent = if total > 0.0 {
            100.0 * r.total_ms / total
        } else {
            0.0
        };
    }
    rows.sort_by(|a, b| b.total_ms.partial_cmp(&a.total_ms).unwrap());
    rows
}

/// Convenience: number of library-level spans in the profile (0 when the
/// extension is off).
pub fn library_span_count(profile: &LeveledProfile) -> usize {
    profile
        .mlg_runs
        .first()
        .map(|r| r.trace.at_level(StackLevel::Library).count())
        .unwrap_or(0)
}

/// Returns the layer index a library span is attached to, for tests.
pub fn library_span_layers(profile: &LeveledProfile) -> Vec<(String, Option<u64>)> {
    profile
        .mlg_runs
        .first()
        .map(|r| {
            r.trace
                .at_level(StackLevel::Library)
                .map(|s| {
                    (
                        s.span.name.to_string(),
                        s.span.tag(tag_keys::LAYER_INDEX).and_then(|v| v.as_u64()),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileRequest, Xsp, XspConfig};
    use xsp_framework::FrameworkKind;
    use xsp_gpu::systems;
    use xsp_models::zoo;
    use xsp_trace::StackLevel;

    fn profile(library_level: bool) -> LeveledProfile {
        let cfg = XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
            .runs(1)
            .library_level(library_level);
        Xsp::new(cfg).run(ProfileRequest::new(
            &zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2),
        ))
    }

    #[test]
    fn disabled_by_default() {
        let p = profile(false);
        assert_eq!(library_span_count(&p), 0);
        assert!(ax1_library_calls(&p).is_empty());
    }

    #[test]
    fn library_spans_appear_when_enabled() {
        let p = profile(true);
        assert!(library_span_count(&p) > 0);
        let rows = ax1_library_calls(&p);
        assert!(!rows.is_empty());
        let apis: Vec<&str> = rows.iter().map(|r| r.api.as_str()).collect();
        assert!(apis.contains(&"cudnnConvolutionForward"), "{apis:?}");
        assert!(apis.contains(&"cublasSgemm"), "{apis:?}");
        let pct: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((pct - 100.0).abs() < 1e-6);
    }

    #[test]
    fn kernels_nest_inside_library_spans() {
        let p = profile(true);
        let run = &p.mlg_runs[0];
        let mut lib_with_kernels = 0usize;
        for s in run.trace.at_level(StackLevel::Library) {
            for k in run.trace.children_of(s.span.id) {
                assert!(
                    s.span.contains(&k.span),
                    "kernel {} outside API span {}",
                    k.span.name,
                    s.span.name
                );
                lib_with_kernels += 1;
            }
        }
        assert!(lib_with_kernels > 0, "some kernels parent to library spans");
    }

    #[test]
    fn four_level_hierarchy_resolves_layers() {
        // even with the extra level interposed, every kernel still resolves
        // to its layer (2-hop resolution)
        let p = profile(true);
        for k in p.kernels() {
            assert!(k.layer_index.is_some(), "kernel {} unresolved", k.name);
        }
    }

    #[test]
    fn conv_api_dominates_library_time() {
        let p = profile(true);
        let rows = ax1_library_calls(&p);
        assert_eq!(
            rows[0].api, "cudnnConvolutionForward",
            "conv API carries the most time: {rows:?}"
        );
    }
}
