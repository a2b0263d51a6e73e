//! The profile cache's contract, pinned property-first: fingerprints are
//! pure functions of the profiled content (independent of worker count,
//! perturbed by every addressed field), and a warm run — whether served
//! from the in-memory tier or rebuilt from a persisted `.xspc` — is
//! byte-identical to the cold computation at any `XSP_THREADS`.

use proptest::prelude::*;
use proptest::sample::select;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use xsp_core::cache::{self, GraphFingerprint};
use xsp_core::profile::{ProfileMode, ProfileRequest, ProfilingLevel, Xsp, XspConfig};
use xsp_core::scheduler::Parallelism;
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;

fn config(seed: u64, runs: usize, parallelism: Parallelism) -> XspConfig {
    XspConfig::new(systems::tesla_v100(), FrameworkKind::TensorFlow)
        .runs(runs)
        .seed(seed)
        .parallelism(parallelism)
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch cache directory (cleaned up by the caller's drop guard
/// being absent — tests remove it explicitly).
fn scratch_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("xspc-{tag}-{}-{seq}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The address must not see the execution strategy: any parallelism
    /// (and repeated computation) maps the same content to the same
    /// fingerprint.
    #[test]
    fn fingerprint_ignores_parallelism(
        seed in 0u64..u64::MAX,
        runs in 1usize..3,
        batch in 1usize..3,
        model in select(vec!["MobileNet_v1_0.25_128", "MobileNet_v1_0.5_160"]),
        workers in select(vec![1usize, 2, 4, 8]),
    ) {
        let graph = zoo::by_name(model).unwrap().graph(batch);
        let level = ProfilingLevel::ModelLayerGpu;
        let serial = GraphFingerprint::of(
            &config(seed, runs, Parallelism::Serial), &graph, level, ProfileMode::Leveled);
        let fixed = GraphFingerprint::of(
            &config(seed, runs, Parallelism::Fixed(workers)), &graph, level, ProfileMode::Leveled);
        let auto = GraphFingerprint::of(
            &config(seed, runs, Parallelism::Auto), &graph, level, ProfileMode::Leveled);
        prop_assert_eq!(serial, fixed);
        prop_assert_eq!(serial, auto);
        // Stable across recomputation (no hidden per-process state).
        prop_assert_eq!(serial, GraphFingerprint::of(
            &config(seed, runs, Parallelism::Serial), &graph, level, ProfileMode::Leveled));
    }

    /// Every addressed field must perturb the fingerprint: a stale profile
    /// served for changed content would silently poison downstream
    /// analyses.
    #[test]
    fn fingerprint_sees_every_addressed_field(
        seed in 0u64..u64::MAX - 1,
        runs in 1usize..3,
        batch in 1usize..3,
    ) {
        let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch);
        let cfg = config(seed, runs, Parallelism::Serial);
        let level = ProfilingLevel::ModelLayerGpu;
        let base = GraphFingerprint::of(&cfg, &graph, level, ProfileMode::Leveled);

        let bigger = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch + 1);
        prop_assert_ne!(base, GraphFingerprint::of(&cfg, &bigger, level, ProfileMode::Leveled));
        prop_assert_ne!(base, GraphFingerprint::of(
            &cfg, &graph, ProfilingLevel::Model, ProfileMode::Leveled));
        prop_assert_ne!(base, GraphFingerprint::of(
            &cfg, &graph, level, ProfileMode::ModelAndMetrics));
        prop_assert_ne!(base, GraphFingerprint::of(
            &config(seed + 1, runs, Parallelism::Serial), &graph, level, ProfileMode::Leveled));
        prop_assert_ne!(base, GraphFingerprint::of(
            &config(seed, runs + 1, Parallelism::Serial), &graph, level, ProfileMode::Leveled));
        let other_model = zoo::by_name("MobileNet_v1_0.5_160").unwrap().graph(batch);
        prop_assert_ne!(base, GraphFingerprint::of(
            &cfg, &other_model, level, ProfileMode::Leveled));
    }

    /// The acceptance property: a cached run — first fill, then the warm
    /// hit — serializes byte-identically to an uncached run, whatever the
    /// worker count on either side.
    #[test]
    fn warm_hits_match_cold_bytes(
        seed in 0u64..u64::MAX,
        runs in 1usize..3,
        batch in 1usize..3,
        model in select(vec!["MobileNet_v1_0.25_128", "MobileNet_v1_0.5_160"]),
    ) {
        let graph = zoo::by_name(model).unwrap().graph(batch);
        let cold = Xsp::new(config(seed, runs, Parallelism::Serial))
            .run(ProfileRequest::new(&graph));
        let cached = Xsp::new(config(seed, runs, Parallelism::Fixed(4)).cached(true));
        let fill = cached.run(ProfileRequest::new(&graph));
        let hit = cached.run(ProfileRequest::new(&graph));
        prop_assert_eq!(cold.to_span_json(), fill.to_span_json());
        prop_assert_eq!(cold.to_span_json(), hit.to_span_json());
    }

    /// Disk tier: a profile persisted as `.xspc` and rebuilt in a separate
    /// cache instance reproduces the cold bytes exactly.
    #[test]
    fn xspc_round_trip_matches_cold_bytes(
        seed in 0u64..u64::MAX,
        batch in 1usize..3,
    ) {
        let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(batch);
        let cfg = config(seed, 1, Parallelism::Serial);
        let cold = Xsp::new(cfg.clone()).run(ProfileRequest::new(&graph));
        let fp = GraphFingerprint::of(
            &cfg, &graph, ProfilingLevel::ModelLayerGpu, ProfileMode::Leveled);

        let bytes = cache::xspc_to_bytes(fp, &cold);
        let (read_fp, rebuilt) = cache::read_xspc(&mut &bytes[..]).expect("round trip");
        prop_assert_eq!(read_fp, fp);
        prop_assert_eq!(cold.to_span_json(), rebuilt.to_span_json());

        let dir = scratch_dir("roundtrip");
        cache::persist_to_dir(&dir, fp, &cold).expect("persist");
        let loaded = cache::load_from_dir(&dir, fp).expect("load");
        prop_assert_eq!(cold.to_span_json(), loaded.to_span_json());
        std::fs::remove_dir_all(&dir).ok();
    }

}

/// The sink-replay path: a cache hit replays the profile's runs to the
/// configured export sink in canonical order, producing the same sink
/// bytes the cold run wrote.
#[test]
fn cache_hit_replays_sink_bytes_identically() {
    use std::sync::{Arc, Mutex};
    use xsp_core::export::ExportSink;

    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(2);
    let run_with_sink = |cfg: XspConfig| {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = ExportSink::new(Shared(buf.clone()));
        Xsp::new(cfg.export_sink(sink.clone())).run(ProfileRequest::new(&graph));
        sink.finish().unwrap();
        let bytes = buf.lock().unwrap().clone();
        bytes
    };

    let cold_bytes = run_with_sink(config(7, 2, Parallelism::Serial));
    // Fill, then hit, each with its own sink: the hit run writes its spans
    // via sink replay without profiling — the bytes must not care.
    let fill_bytes = run_with_sink(config(7, 2, Parallelism::Fixed(4)).cached(true));
    let hit_bytes = run_with_sink(config(7, 2, Parallelism::Fixed(4)).cached(true));

    assert!(cold_bytes == fill_bytes, "fill-run sink bytes diverged");
    assert!(cold_bytes == hit_bytes, "cache-hit sink bytes diverged");
}

/// A corrupt or fingerprint-mismatched `.xspc` never reaches the caller:
/// the disk tier degrades to a recompute (returns `None`), and the next
/// persist repairs the file.
#[test]
fn corrupt_disk_entries_degrade_to_recompute() {
    let graph = zoo::by_name("MobileNet_v1_0.25_128").unwrap().graph(1);
    let cfg = config(3, 1, Parallelism::Serial);
    let profile = Xsp::new(cfg.clone()).run(ProfileRequest::new(&graph));
    let fp = GraphFingerprint::of(
        &cfg,
        &graph,
        ProfilingLevel::ModelLayerGpu,
        ProfileMode::Leveled,
    );

    let dir = scratch_dir("degrade");
    let path = cache::persist_to_dir(&dir, fp, &profile).expect("persist");

    // Truncate the file mid-record: the load must refuse, not panic.
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    assert!(cache::load_from_dir(&dir, fp).is_none(), "corrupt load");

    // A valid file stored under the wrong address is refused too: the
    // embedded fingerprint is authoritative.
    std::fs::write(&path, &bytes).expect("restore");
    let other = GraphFingerprint(fp.0 ^ 1);
    std::fs::write(dir.join(cache::xspc_file_name(other)), &bytes).expect("alias");
    assert!(
        cache::load_from_dir(&dir, other).is_none(),
        "fingerprint mismatch load"
    );
    assert!(cache::load_from_dir(&dir, fp).is_some(), "honest load");
    std::fs::remove_dir_all(&dir).ok();
}
