//! Leveled experimentation walkthrough (§III-C / Figure 2), plus the
//! hierarchical step-through view and Chrome-trace export of one run.
//!
//! Run with: `cargo run --release --example leveled_overhead`

use xsp_core::export::{export_run_profile, ExportFormat};
use xsp_core::profile::{ProfileRequest, Xsp, XspConfig};
use xsp_core::report::fmt_ms;
use xsp_framework::FrameworkKind;
use xsp_gpu::systems;
use xsp_models::zoo;
use xsp_trace::SpanTree;

fn main() {
    let system = systems::tesla_v100();
    let xsp = Xsp::new(XspConfig::new(system, FrameworkKind::TensorFlow).runs(2));
    let model = zoo::by_name("MobileNet_v1_0.5_160").unwrap();
    let profile = xsp.run(ProfileRequest::new(&model.graph(8)));

    let o = profile.overhead_report();
    println!("Leveled experimentation for {} (batch 8):", model.name);
    println!(
        "  M      : {} ms   <- the accurate model latency",
        fmt_ms(o.model_ms)
    );
    println!(
        "  M/L    : {} ms   (+{} ms layer-profiler overhead)",
        fmt_ms(o.model_layer_ms),
        fmt_ms(o.layer_overhead_ms)
    );
    println!(
        "  M/L/G  : {} ms   (+{} ms CUPTI tracing overhead)",
        fmt_ms(o.model_layer_gpu_ms),
        fmt_ms(o.gpu_overhead_ms)
    );
    println!(
        "  +metrics: {} ms  ({}x slower — kernel replay for hardware counters)",
        fmt_ms(profile.metric_run_predict_ms()),
        (profile.metric_run_predict_ms() / o.model_ms) as u64
    );

    // Hierarchical step-through of the M/L/G run (truncated).
    let run = &profile.mlg_runs[0];
    let tree = SpanTree::build(&run.trace);
    let rendered = tree.render();
    println!("\nAcross-stack hierarchy (first 30 lines):");
    for line in rendered.lines().take(30) {
        println!("  {line}");
    }
    println!("  ... ({} spans total)", tree.len());

    // Chrome-trace export for chrome://tracing or Perfetto, streamed off
    // the correlated trace's borrowed span view, no cloning.
    let path = std::env::temp_dir().join("xsp_trace.json");
    let file = std::fs::File::create(&path).expect("create trace");
    let events = export_run_profile(run, ExportFormat::Chrome, std::io::BufWriter::new(file))
        .expect("write trace");
    println!(
        "\nChrome trace written to {} ({events} events)",
        path.display()
    );
}
