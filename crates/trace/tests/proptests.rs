//! Property tests for the tracing substrate: interval-tree queries vs a
//! naive oracle, parent-reconstruction invariants, and statistics bounds.

use proptest::prelude::*;
use std::collections::HashMap;
use xsp_trace::correlate::CorrelatedSpan;
use xsp_trace::interval::{Interval, IntervalTree};
use xsp_trace::span::{tag_keys, LogEvent, Span, SpanId, TagValue};
use xsp_trace::stats::{percentile, trimmed_mean, Summary};
use xsp_trace::{
    correlate_async_spans, reconstruct_parents, AmbiguityReport, CorrelationEngine, SpanBuilder,
    SpanStore, StackLevel, StoreCorrelationCache, Trace, TraceId,
};

fn arb_intervals(max_n: usize) -> impl Strategy<Value = Vec<Interval>> {
    prop::collection::vec((0u64..1000, 0u64..100), 0..max_n).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(k, (start, len))| Interval::new(start, start + len, k))
            .collect()
    })
}

proptest! {
    #[test]
    fn tree_containing_matches_naive(intervals in arb_intervals(120), lo in 0u64..1100, len in 0u64..120) {
        let hi = lo + len;
        let tree = IntervalTree::build(intervals.clone());
        let mut got: Vec<usize> = tree.containing(lo, hi).map(|iv| iv.key).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = intervals
            .iter()
            .filter(|iv| iv.contains_range(lo, hi))
            .map(|iv| iv.key)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn tree_overlapping_matches_naive(intervals in arb_intervals(120), lo in 0u64..1100, len in 0u64..120) {
        let hi = lo + len;
        let tree = IntervalTree::build(intervals.clone());
        let mut got: Vec<usize> = tree.overlapping(lo, hi).map(|iv| iv.key).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = intervals
            .iter()
            .filter(|iv| iv.overlaps(lo, hi))
            .map(|iv| iv.key)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn tree_contained_in_matches_naive(intervals in arb_intervals(120), lo in 0u64..1100, len in 0u64..200) {
        let hi = lo + len;
        let tree = IntervalTree::build(intervals.clone());
        let mut got: Vec<usize> = tree.contained_in(lo, hi).map(|iv| iv.key).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = intervals
            .iter()
            .filter(|iv| lo <= iv.start && iv.end <= hi)
            .map(|iv| iv.key)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn tree_depth_is_logarithmic(intervals in arb_intervals(256)) {
        let n = intervals.len();
        let tree = IntervalTree::build(intervals);
        if n > 0 {
            let bound = (n as f64).log2().ceil() as usize + 1;
            prop_assert!(tree.depth() <= bound, "depth {} for {} nodes", tree.depth(), n);
        }
    }

    /// Nested (non-overlapping-sibling) layer structures always reconstruct
    /// cleanly: every kernel's parent is the layer that contains it.
    #[test]
    fn reconstruction_recovers_nested_structure(
        layer_lens in prop::collection::vec(10u64..60, 1..12),
        kernel_fracs in prop::collection::vec((0.1f64..0.9, 0.02f64..0.08), 1..30),
    ) {
        let trace_id = TraceId(1);
        let mut spans = Vec::new();
        // model covers everything
        let total: u64 = layer_lens.iter().sum::<u64>() + 10;
        let model = SpanBuilder::new("model", StackLevel::Model, trace_id)
            .start(0)
            .finish(total + 10);
        spans.push(model);
        // consecutive layers
        let mut cursor = 5u64;
        let mut layer_bounds = Vec::new();
        for (i, len) in layer_lens.iter().enumerate() {
            let s = SpanBuilder::new(format!("layer{i}"), StackLevel::Layer, trace_id)
                .start(cursor)
                .tag(tag_keys::LAYER_INDEX, i as u64)
                .finish(cursor + len);
            layer_bounds.push((s.id, cursor, cursor + len));
            spans.push(s);
            cursor += len;
        }
        // kernels at fractional positions within random layers
        for (j, (frac, width)) in kernel_fracs.iter().enumerate() {
            let (lid, lo, hi) = layer_bounds[j % layer_bounds.len()];
            let span_len = hi - lo;
            let start = lo + (span_len as f64 * frac) as u64;
            let dur = ((span_len as f64) * width).max(1.0) as u64;
            let end = (start + dur).min(hi);
            if end <= start { continue; }
            let k = SpanBuilder::new(format!("kernel{j}"), StackLevel::Kernel, trace_id)
                .start(start)
                .finish(end);
            spans.push(k);
            let _ = lid;
        }
        let correlated = reconstruct_parents(&Trace::from_spans(spans));
        prop_assert!(correlated.ambiguities.is_clean(), "{:?}", correlated.ambiguities);
        for s in correlated.spans() {
            if s.span.level == StackLevel::Kernel {
                let parent = s.parent.expect("kernel parented");
                let p = correlated.find(parent).unwrap();
                prop_assert_eq!(p.span.level, StackLevel::Layer);
                prop_assert!(p.span.contains(&s.span));
            }
        }
    }

    #[test]
    fn trimmed_mean_within_min_max(samples in prop::collection::vec(-1e6f64..1e6, 1..50), trim in 0.0f64..0.49) {
        let tm = trimmed_mean(&samples, trim).unwrap();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(tm >= min - 1e-9 && tm <= max + 1e-9, "{tm} outside [{min}, {max}]");
    }

    #[test]
    fn percentiles_are_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let p25 = percentile(&samples, 25.0).unwrap();
        let p50 = percentile(&samples, 50.0).unwrap();
        let p75 = percentile(&samples, 75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
    }

    #[test]
    fn summary_invariants(samples in prop::collection::vec(0f64..1e9, 1..40)) {
        let s = Summary::of(&samples, 0.1).unwrap();
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.n, samples.len());
    }

    /// Streaming export round trip: write → read → write is byte-identical
    /// for arbitrary spans (names with JSON-hostile characters, every tag
    /// type, parent chains, logs), in both the JSON-lines and the array
    /// framing.
    #[test]
    fn span_json_lines_roundtrip_is_byte_identical(specs in arb_span_specs()) {
        use xsp_trace::export::{read_span_json_lines, SpanJsonLinesWriter, SpanJsonWriter};
        let spans = build_spans(specs);
        let trace = Trace::from_spans(spans);

        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        writer.write_trace(&trace).unwrap();
        let first = writer.finish().unwrap();

        let back = read_span_json_lines(&first[..]).unwrap();
        prop_assert_eq!(back.len(), trace.len());

        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        writer.write_trace(&back).unwrap();
        let second = writer.finish().unwrap();
        prop_assert_eq!(&first, &second, "write → read → write must be a fixpoint");

        // the array framing must agree with the materializing exporter and
        // survive its own round trip
        let mut writer = SpanJsonWriter::new(Vec::new()).unwrap();
        writer.write_trace(&trace).unwrap();
        let array = String::from_utf8(writer.finish().unwrap()).unwrap();
        prop_assert_eq!(&array, &xsp_trace::export::to_span_json(&trace));
        let reparsed = xsp_trace::export::from_span_json(&array).unwrap();
        prop_assert_eq!(xsp_trace::export::to_span_json(&reparsed), array);
    }
}

/// Strings that exercise every branch of the JSON string escaper: quotes,
/// backslashes, named and `\u00xx` control escapes, DEL (not escaped) and
/// multi-byte UTF-8.
const HOSTILE_STRINGS: [&str; 8] = [
    "",
    "model_prediction",
    "say \"hi\"",
    "back\\slash\\",
    "ctl\u{1}\u{1f}\u{0}",
    "tab\tnl\nret\r",
    "uni⟨code⟩ λ 😀",
    "del\u{7f}",
];

fn arb_tag_value() -> impl Strategy<Value = TagValue> {
    prop_oneof![
        prop::sample::select(HOSTILE_STRINGS.to_vec()).prop_map(|s| TagValue::Str(s.to_owned())),
        prop::sample::select(vec![0i64, -1, 42, i64::MIN, i64::MAX]).prop_map(TagValue::I64),
        prop::sample::select(vec![0u64, 7, u64::MAX]).prop_map(TagValue::U64),
        prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1e300,
            5e-324,
            3.0,
            -2.0,
            0.1,
            1e-7,
            123.456,
        ])
        .prop_map(TagValue::F64),
        (-1e12f64..1e12).prop_map(TagValue::F64),
        prop::sample::select(vec![true, false]).prop_map(TagValue::Bool),
    ]
}

/// Arbitrary spans built field by field (not through `SpanBuilder`), so
/// ids, timestamps and parents reach the integer extremes. Tag keys come
/// from a small set — including the Chrome writer's own `span_id` and
/// `parent` — so repeated keys are common.
fn arb_emit_span() -> impl Strategy<Value = Span> {
    let tag_keys = vec!["span_id", "parent", "occ", "note", "k\"ey\n", "λ"];
    (
        prop::sample::select(vec![0u64, 1, 1 << 40, u64::MAX]),
        prop::sample::select(vec![0u64, 3, u64::MAX]),
        prop::sample::select(HOSTILE_STRINGS.to_vec()),
        0usize..5,
        prop::sample::select(vec![0u64, 1, 1_500, 123_456_789, u64::MAX - 1_000]),
        0u64..1_000,
        prop::sample::select(vec![None, Some(0u64), Some(9), Some(u64::MAX)]),
        prop::collection::vec((prop::sample::select(tag_keys), arb_tag_value()), 0..8),
        prop::collection::vec(
            (
                prop::sample::select(vec![0u64, 17, u64::MAX]),
                prop::sample::select(HOSTILE_STRINGS.to_vec()),
            ),
            0..3,
        ),
    )
        .prop_map(
            |(id, trace_id, name, level_ix, start_ns, len, parent, tags, logs)| Span {
                id: SpanId(id),
                trace_id: TraceId(trace_id),
                name: name.to_owned(),
                level: StackLevel::ALL[level_ix],
                start_ns,
                end_ns: start_ns + len,
                parent: parent.map(SpanId),
                tags: tags.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
                logs: logs
                    .into_iter()
                    .map(|(at_ns, message)| LogEvent {
                        at_ns,
                        message: message.to_owned(),
                    })
                    .collect(),
            },
        )
}

/// The Chrome event shape the exporter once built as a `serde_json` value
/// tree before rendering it — kept here as the byte oracle for the direct
/// emitter.
#[derive(serde::Serialize)]
struct OracleChromeEvent<'a> {
    name: &'a str,
    cat: String,
    ph: &'static str,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: serde_json::Map<String, serde_json::Value>,
}

fn oracle_chrome_event(span: &Span) -> String {
    let mut args = serde_json::Map::new();
    args.insert("span_id".into(), serde_json::json!(span.id.0));
    if let Some(p) = span.parent {
        args.insert("parent".into(), serde_json::json!(p.0));
    }
    for (k, v) in &span.tags {
        let value = match v {
            TagValue::Str(s) => serde_json::Value::String(s.clone()),
            TagValue::I64(i) => serde_json::json!(i),
            TagValue::U64(u) => serde_json::json!(u),
            TagValue::F64(f) => serde_json::json!(f),
            TagValue::Bool(b) => serde_json::Value::Bool(*b),
        };
        args.insert(k.clone(), value);
    }
    serde_json::to_string(&OracleChromeEvent {
        name: &span.name,
        cat: span.level.to_string(),
        ph: "X",
        ts: span.start_ns as f64 / 1e3,
        dur: span.duration_ns() as f64 / 1e3,
        pid: span.trace_id.0,
        tid: span.level.rank() as u64,
        args,
    })
    .unwrap()
}

proptest! {
    /// The direct JSON emitters write exactly the bytes the `serde_json`
    /// value tree renders: span JSON against `serde_json::to_string(span)`,
    /// Chrome events against the value-tree event above (key order of
    /// first occurrence, last value wins). Unlike the round-trip fixpoint
    /// above, this catches a formatting change shared by writer and reader.
    #[test]
    fn direct_emitters_match_the_value_tree(spans in prop::collection::vec(arb_emit_span(), 1..12)) {
        use xsp_trace::export::{ChromeTraceWriter, SpanJsonLinesWriter, SpanJsonWriter};

        let mut lines = SpanJsonLinesWriter::new(Vec::new());
        let mut array = SpanJsonWriter::new(Vec::new()).unwrap();
        let mut chrome = ChromeTraceWriter::new(Vec::new()).unwrap();
        for span in &spans {
            lines.write_span(span).unwrap();
            array.write_span(span).unwrap();
            chrome.write_span(span).unwrap();
        }

        let want: String = spans
            .iter()
            .map(|s| serde_json::to_string(s).unwrap() + "\n")
            .collect();
        prop_assert_eq!(String::from_utf8(lines.finish().unwrap()).unwrap(), want);
        prop_assert_eq!(
            String::from_utf8(array.finish().unwrap()).unwrap(),
            serde_json::to_string(&spans).unwrap()
        );
        let events: Vec<String> = spans.iter().map(oracle_chrome_event).collect();
        prop_assert_eq!(
            String::from_utf8(chrome.finish().unwrap()).unwrap(),
            format!("{{\"traceEvents\":[{}]}}", events.join(","))
        );
    }
}

proptest! {
    /// The correlation-engine refactor contract: for arbitrary span forests
    /// — overlapping layers (ambiguity), spans outside every candidate
    /// (orphans), async launch/execution pairs, unpaired halves, library
    /// spans, multiple runs — [`CorrelationEngine`] must produce exactly
    /// the spans, parents, launch intervals and ambiguity report of the
    /// naive oracle that rebuilds one interval tree per level per run.
    #[test]
    fn engine_matches_naive_per_level_rebuild_oracle(spans in arb_correlation_forest()) {
        let trace = Trace::from_spans(spans);
        let (oracle_spans, oracle_ambiguities) = oracle_reconstruct(&trace);
        let got = CorrelationEngine::new().correlate(trace);

        prop_assert_eq!(got.len(), oracle_spans.len(), "span count diverged");
        for (g, o) in got.spans().iter().zip(&oracle_spans) {
            prop_assert_eq!(
                serde_json::to_string(&g.span).unwrap(),
                serde_json::to_string(&o.span).unwrap(),
                "span payload diverged"
            );
            prop_assert_eq!(g.parent, o.parent, "parent diverged for {}", g.span.name);
            prop_assert_eq!(g.launch_interval, o.launch_interval);
        }
        prop_assert_eq!(&got.ambiguities.ambiguous, &oracle_ambiguities.ambiguous);
        prop_assert_eq!(&got.ambiguities.orphans, &oracle_ambiguities.orphans);
    }

    /// The incremental-correlation contract: feeding the same span stream
    /// through `push_batch` at arbitrary batch boundaries, then finalizing,
    /// must reproduce the batch engine exactly — same spans, parents,
    /// launch intervals and ambiguity report — and so must the cached
    /// store path (`StoreCorrelationCache::refresh` + `materialize`) when
    /// the store grows by those same batches.
    #[test]
    fn incremental_engine_matches_batch_for_random_batch_splits(
        spans in arb_correlation_forest(),
        raw_cuts in prop::collection::vec(0usize..400, 0..6),
    ) {
        let batch = CorrelationEngine::new().correlate(Trace::from_spans(spans.clone()));

        // Random split points over the publication stream (empty batches
        // included when cuts collide).
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (spans.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(spans.len());

        let mut engine = CorrelationEngine::new();
        let mut store = SpanStore::new();
        let mut cache = StoreCorrelationCache::new();
        let mut cache_engine = CorrelationEngine::new();
        let mut prev = 0usize;
        for cut in cuts {
            engine.push_batch(spans[prev..cut].iter().cloned());
            for span in &spans[prev..cut] {
                store.push(span);
            }
            // Refresh after every batch: intermediate refreshes must not
            // disturb the final answer (prefix validation keeps finalized
            // runs cached).
            cache.refresh(&mut cache_engine, &store);
            prev = cut;
        }
        let incremental = engine.finalize_all();
        let cached = cache.materialize(&store);

        for (label, got) in [("push_batch", &incremental), ("store cache", &cached)] {
            prop_assert_eq!(got.len(), batch.len(), "{}: span count diverged", label);
            for (g, o) in got.spans().iter().zip(batch.spans()) {
                prop_assert_eq!(
                    serde_json::to_string(&g.span).unwrap(),
                    serde_json::to_string(&o.span).unwrap(),
                    "{}: span payload diverged", label
                );
                prop_assert_eq!(g.parent, o.parent, "{}: parent diverged for {}", label, g.span.name);
                prop_assert_eq!(g.launch_interval, o.launch_interval, "{}: launch interval diverged", label);
            }
            prop_assert_eq!(&got.ambiguities.ambiguous, &batch.ambiguities.ambiguous, "{}: ambiguous diverged", label);
            prop_assert_eq!(&got.ambiguities.orphans, &batch.ambiguities.orphans, "{}: orphans diverged", label);
        }
    }
}

/// One generated kernel-level participant:
/// `(kind, launch_start, launch_len, exec_start, exec_len)`.
type KernelSpec = (u8, u64, u64, u64, u64);

/// Random span forests over 1–2 runs: a model root, overlapping layers,
/// library spans, and kernels of every async flavor.
fn arb_correlation_forest() -> impl Strategy<Value = Vec<Span>> {
    (
        prop::collection::vec((0u64..9_000, 50u64..2_500, 0u8..4), 0..8),
        prop::collection::vec(
            (0u8..7, 0u64..10_400, 1u64..400, 0u64..11_000, 1u64..600),
            0..25,
        ),
        1usize..3,
    )
        .prop_map(|(layers, kernels, nruns)| {
            let mut spans = Vec::new();
            for run in 0..nruns as u64 {
                build_run_spans(TraceId(run + 1), &layers, &kernels, &mut spans);
            }
            spans
        })
}

fn build_run_spans(
    trace_id: TraceId,
    layers: &[(u64, u64, u8)],
    kernels: &[KernelSpec],
    out: &mut Vec<Span>,
) {
    // The model root covers [0, 10_000]; kernels may start beyond it so the
    // orphan path is exercised.
    let model = SpanBuilder::new("model", StackLevel::Model, trace_id)
        .start(0)
        .finish(10_000);
    let model_id = model.id;
    out.push(model);
    for (i, &(start, len, flavor)) in layers.iter().enumerate() {
        let mut b = SpanBuilder::new(format!("layer{i}"), StackLevel::Layer, trace_id).start(start);
        // Most layers carry their explicit parent (the framework knows it);
        // some do not, so layer→model reconstruction is exercised too.
        if flavor != 0 {
            b = b.parent(model_id);
        }
        out.push(b.finish(start + len));
        if flavor == 3 {
            // a library-level span nested in this layer
            let lib = SpanBuilder::new(format!("cudnnApi{i}"), StackLevel::Library, trace_id)
                .start(start + len / 4)
                .finish(start + len / 2);
            out.push(lib);
        }
    }
    for (j, &(kind, lstart, llen, xstart, xlen)) in kernels.iter().enumerate() {
        let cid = j as u64 + 1;
        match kind {
            // plain (synchronous) kernel span
            0 => out.push(
                SpanBuilder::new(format!("plain{j}"), StackLevel::Kernel, trace_id)
                    .start(xstart)
                    .finish(xstart + xlen),
            ),
            // async pair: launch + execution linked by correlation id
            1 => {
                out.push(
                    SpanBuilder::new(format!("launch{j}"), StackLevel::Kernel, trace_id)
                        .start(lstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_LAUNCH, true)
                        .finish(lstart + llen),
                );
                out.push(
                    SpanBuilder::new(format!("exec{j}"), StackLevel::Kernel, trace_id)
                        .start(xstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_EXECUTION, true)
                        .tag(tag_keys::FLOP_COUNT_SP, 1000u64)
                        .finish(xstart + xlen),
                );
            }
            // unpaired launch (kernel never ran)
            2 => out.push(
                SpanBuilder::new(format!("lost_launch{j}"), StackLevel::Kernel, trace_id)
                    .start(lstart)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_LAUNCH, true)
                    .finish(lstart + llen),
            ),
            // unpaired execution (callback dropped)
            3 => out.push(
                SpanBuilder::new(format!("lost_exec{j}"), StackLevel::Kernel, trace_id)
                    .start(xstart)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_EXECUTION, true)
                    .finish(xstart + xlen),
            ),
            // execution that arrives before its launch in publication order
            4 => {
                out.push(
                    SpanBuilder::new(format!("exec_first{j}"), StackLevel::Kernel, trace_id)
                        .start(xstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_EXECUTION, true)
                        .finish(xstart + xlen),
                );
                out.push(
                    SpanBuilder::new(format!("late_launch{j}"), StackLevel::Kernel, trace_id)
                        .start(lstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_LAUNCH, true)
                        .finish(lstart + llen),
                );
            }
            // already-merged capture span: both flags, takes part in no
            // pairing (idempotent re-correlation)
            5 => out.push(
                SpanBuilder::new(format!("premerged{j}"), StackLevel::Kernel, trace_id)
                    .start(xstart)
                    .tag(tag_keys::CORRELATION_ID, cid)
                    .tag(tag_keys::ASYNC_LAUNCH, true)
                    .tag(tag_keys::ASYNC_EXECUTION, true)
                    .finish(xstart + xlen),
            ),
            // duplicate correlation ids: two launches share the cid (the
            // last one wins, with its own interval and tags), and that
            // launch serves two executions
            _ => {
                for (half, at) in [("a", lstart), ("b", lstart + llen)] {
                    out.push(
                        SpanBuilder::new(
                            format!("dup_launch_{half}{j}"),
                            StackLevel::Kernel,
                            trace_id,
                        )
                        .start(at)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_LAUNCH, true)
                        .tag("stream", half)
                        .finish(at + llen),
                    );
                    out.push(
                        SpanBuilder::new(
                            format!("dup_exec_{half}{j}"),
                            StackLevel::Kernel,
                            trace_id,
                        )
                        .start(xstart)
                        .tag(tag_keys::CORRELATION_ID, cid)
                        .tag(tag_keys::ASYNC_EXECUTION, true)
                        .finish(xstart + xlen),
                    );
                }
            }
        }
    }
}

/// The pre-engine implementation, kept verbatim as the oracle: one interval
/// tree per level, rebuilt per run, spans cloned per run.
fn oracle_reconstruct(trace: &Trace) -> (Vec<CorrelatedSpan>, AmbiguityReport) {
    let mut spans = Vec::new();
    let mut ambiguities = AmbiguityReport::default();
    for tid in trace.trace_ids() {
        let run: Vec<Span> = trace
            .spans()
            .iter()
            .filter(|s| s.trace_id == tid)
            .cloned()
            .collect();
        let (s, a) = oracle_single_run(&run);
        spans.extend(s);
        ambiguities.merge(a);
    }
    (spans, ambiguities)
}

fn oracle_single_run(spans: &[Span]) -> (Vec<CorrelatedSpan>, AmbiguityReport) {
    let mut correlated = correlate_async_spans(spans);
    let levels: Vec<StackLevel> = StackLevel::ALL
        .iter()
        .copied()
        .filter(|l| correlated.iter().any(|s| s.span.level == *l))
        .collect();
    let mut trees: HashMap<StackLevel, IntervalTree> = HashMap::new();
    for &level in &levels {
        let intervals: Vec<Interval> = correlated
            .iter()
            .enumerate()
            .filter(|(_, s)| s.span.level == level)
            .map(|(i, s)| Interval::new(s.span.start_ns, s.span.end_ns, i))
            .collect();
        trees.insert(level, IntervalTree::build(intervals));
    }
    let mut ambiguities = AmbiguityReport::default();
    for i in 0..correlated.len() {
        if correlated[i].parent.is_some() {
            continue;
        }
        let child_level = correlated[i].span.level;
        let Some(pos) = levels.iter().position(|l| *l == child_level) else {
            continue;
        };
        if pos == 0 {
            continue;
        }
        let mut probes: Vec<(u64, u64)> = vec![correlated[i].anchor_interval()];
        let own = (correlated[i].span.start_ns, correlated[i].span.end_ns);
        if probes[0] != own {
            probes.push(own);
        }
        let mut candidates: Vec<usize> = Vec::new();
        'search: for ancestor in (0..pos).rev() {
            let tree = &trees[&levels[ancestor]];
            for &(lo, hi) in &probes {
                candidates = tree.containing(lo, hi).map(|iv| iv.key).collect();
                candidates.retain(|&c| c != i);
                if !candidates.is_empty() {
                    break 'search;
                }
            }
        }
        match candidates.len() {
            0 => ambiguities.orphans.push(correlated[i].span.id),
            1 => {
                let pid = correlated[candidates[0]].span.id;
                correlated[i].parent = Some(pid);
                correlated[i].span.parent = Some(pid);
            }
            _ => {
                let best = *candidates
                    .iter()
                    .min_by_key(|&&c| correlated[c].span.end_ns - correlated[c].span.start_ns)
                    .expect("nonempty");
                let all: Vec<SpanId> = candidates.iter().map(|&c| correlated[c].span.id).collect();
                ambiguities.ambiguous.push((correlated[i].span.id, all));
                let pid = correlated[best].span.id;
                correlated[i].parent = Some(pid);
                correlated[i].span.parent = Some(pid);
            }
        }
    }
    (correlated, ambiguities)
}

/// Raw generator output for one span: `(name index, level index, start,
/// len, parent back-reference, tag selector bits, log count)`.
type SpanSpec = (usize, usize, u64, u64, usize, u8, usize);

fn arb_span_specs() -> impl Strategy<Value = Vec<SpanSpec>> {
    prop::collection::vec(
        (
            0usize..6,
            0usize..5,
            0u64..1_000_000_000,
            0u64..1_000_000,
            0usize..4,
            0u8..32,
            0usize..3,
        ),
        0..30,
    )
}

fn build_spans(specs: Vec<SpanSpec>) -> Vec<xsp_trace::Span> {
    // JSON-hostile names: separators, quotes, escapes, control chars,
    // non-ASCII — the reader must get back exactly what the writer saw.
    let names = [
        "model_prediction",
        "conv2d 1/Conv2D;fused",
        "say \"hi\"",
        "tab\tand\nnewline",
        "uni⟨code⟩ kernel λ",
        "back\\slash",
    ];
    let mut spans: Vec<xsp_trace::Span> = Vec::with_capacity(specs.len());
    for (name_ix, level_ix, start, len, parent_back, tag_bits, logs) in specs {
        let level = StackLevel::ALL[level_ix % StackLevel::ALL.len()];
        let mut builder =
            SpanBuilder::new(names[name_ix % names.len()], level, TraceId(1)).start(start);
        if parent_back > 0 && !spans.is_empty() {
            builder = builder.parent(spans[(parent_back - 1) % spans.len()].id);
        }
        if tag_bits & 1 != 0 {
            builder = builder.tag("note", "string \"tag\"\n");
        }
        if tag_bits & 2 != 0 {
            builder = builder.tag("signed", -42i64);
        }
        if tag_bits & 4 != 0 {
            builder = builder.tag(tag_keys::FLOP_COUNT_SP, u64::MAX);
        }
        if tag_bits & 8 != 0 {
            builder = builder.tag("occ", 0.1f64 + start as f64 * 1e-3);
        }
        if tag_bits & 16 != 0 {
            builder = builder.tag("flag", (tag_bits & 1) == 0);
        }
        for l in 0..logs {
            builder = builder.log(start + l as u64, format!("event {l}"));
        }
        spans.push(builder.finish(start + len));
    }
    spans
}
