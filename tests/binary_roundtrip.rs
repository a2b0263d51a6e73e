//! Adversarial round-trip property suite for the `.xspb` span binary
//! interchange: random span forests — JSON-hostile names, every tag type,
//! async launch/execution pairs, logs, multi-run traces — must survive
//! spans → `.xspb` → spans exactly, agree with the span-JSON-lines round
//! trip of the same forest, and re-encode byte-identically on a second
//! cycle (the encoder is a pure function of the span sequence).

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use xsp_trace::export::{read_span_binary, spans_to_binary, SpanJsonLinesWriter};
use xsp_trace::span::tag_keys;
use xsp_trace::{Span, SpanId, SpanStore, StackLevel, TagValue, TraceId};

/// Names chosen to break naive encoders: JSON metacharacters, escapes,
/// control bytes, multi-byte UTF-8, and the empty string.
const HOSTILE_NAMES: &[&str] = &[
    "volta_scudnn_128x64_relu_interior_nn_v1",
    "quote\"in\"name",
    "back\\slash\\path",
    "line\nbreak",
    "tab\tseparated",
    "carriage\rreturn",
    "nul\u{0}byte",
    "bell\u{7}and\u{1b}escape",
    "unicode_漢字_ΔΣΩ",
    "emoji_🦀_🜂",
    "{\"json\":\"shaped\"}",
    "]}\",",
    "",
];

fn name_strategy() -> impl Strategy<Value = String> {
    (select(HOSTILE_NAMES.to_vec()), 0u32..4).prop_map(|(base, salt)| format!("{base}#{salt}"))
}

fn tag_value_strategy() -> impl Strategy<Value = TagValue> {
    prop_oneof![
        select(HOSTILE_NAMES.to_vec()).prop_map(TagValue::from),
        (i64::MIN..i64::MAX).prop_map(TagValue::I64),
        (0u64..u64::MAX).prop_map(TagValue::U64),
        (-1.0e12f64..1.0e12).prop_map(TagValue::F64),
        (0u8..2).prop_map(|b| TagValue::Bool(b == 1)),
    ]
}

/// One generated span, positioned by index: ids are dense, parents point
/// at earlier spans of the same forest, and every third pair of kernels
/// forms an async launch/execution couple sharing a correlation id.
#[derive(Debug, Clone)]
struct SpanSeed {
    name: String,
    level_rank: usize,
    trace_id: u64,
    start: u64,
    dur: u64,
    parent_back: usize,
    tags: Vec<(String, TagValue)>,
    logs: Vec<(u64, String)>,
    async_pair: bool,
}

fn seed_strategy() -> impl Strategy<Value = SpanSeed> {
    let tags = vec(
        (name_strategy(), tag_value_strategy()).prop_map(|(k, v)| (k, v)),
        0..5,
    );
    let logs = vec((0u64..1_000_000, name_strategy()), 0..3);
    (
        name_strategy(),
        0usize..StackLevel::ALL.len(),
        1u64..4,
        0u64..1_000_000,
        0u64..1_000_000,
        0usize..8,
        tags,
        logs,
        0u8..3,
    )
        .prop_map(
            |(name, level_rank, trace_id, start, dur, parent_back, tags, logs, pair)| SpanSeed {
                name,
                level_rank,
                trace_id,
                start,
                dur,
                parent_back,
                tags,
                logs,
                async_pair: pair == 0,
            },
        )
}

/// Materializes seeds into a span forest with dense ids, in-forest parent
/// references, and async pairs appended at the end.
fn build_forest(seeds: Vec<SpanSeed>) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::with_capacity(seeds.len() * 2);
    let mut next_id = 1u64;
    let mut cid = 100u64;
    for seed in seeds {
        let parent = if seed.parent_back > 0 && seed.parent_back <= spans.len() {
            Some(spans[spans.len() - seed.parent_back].id)
        } else {
            None
        };
        let mut span = Span {
            id: SpanId(next_id),
            trace_id: TraceId(seed.trace_id),
            name: seed.name.into(),
            level: StackLevel::ALL[seed.level_rank],
            start_ns: seed.start,
            end_ns: seed.start + seed.dur,
            parent,
            tags: seed.tags.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            logs: seed
                .logs
                .into_iter()
                .map(|(at_ns, message)| xsp_trace::span::LogEvent { at_ns, message })
                .collect(),
        };
        next_id += 1;
        if seed.async_pair {
            // Grow the forest with a launch/execution couple: the launch
            // reuses the seed's tags, the execution claims the timing.
            let mut launch = span.clone();
            launch.id = SpanId(next_id);
            next_id += 1;
            launch.level = StackLevel::Kernel;
            launch
                .tags
                .push((tag_keys::CORRELATION_ID.into(), TagValue::U64(cid)));
            launch
                .tags
                .push((tag_keys::ASYNC_LAUNCH.into(), TagValue::Bool(true)));
            span.level = StackLevel::Kernel;
            span.tags
                .push((tag_keys::CORRELATION_ID.into(), TagValue::U64(cid)));
            span.tags
                .push((tag_keys::ASYNC_EXECUTION.into(), TagValue::Bool(true)));
            cid += 1;
            spans.push(launch);
        }
        spans.push(span);
    }
    spans
}

fn jsonl_bytes(spans: &[Span]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = SpanJsonLinesWriter::new(&mut out);
    for span in spans {
        w.write_span(span).expect("Vec writes cannot fail");
    }
    w.finish().expect("Vec writes cannot fail");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property: a random forest survives the binary round
    /// trip exactly, the binary and JSONL round trips agree span-for-span,
    /// and a second encode/decode cycle is byte-identical to the first.
    #[test]
    fn xspb_round_trip_is_exact_and_idempotent(
        seeds in vec(seed_strategy(), 1..40),
    ) {
        let spans = build_forest(seeds);

        // spans → .xspb → spans is the identity.
        let bytes = spans_to_binary(&spans);
        let back = read_span_binary(&bytes[..]).expect("own encoding parses");
        prop_assert_eq!(back.spans(), &spans[..], "binary round trip drifted");

        // The JSONL leg reproduces the same spans, so the two interchange
        // formats cannot diverge on what a capture contains.
        let jsonl = jsonl_bytes(&spans);
        let via_jsonl = xsp_trace::export::read_span_json_lines(&jsonl[..])
            .expect("own JSONL parses");
        prop_assert_eq!(via_jsonl.spans(), back.spans(), "formats disagree");

        // Encoding the decoded spans again is byte-identical: symbols are
        // assigned by first appearance, so bytes are a pure function of
        // the span sequence.
        let second = spans_to_binary(back.spans());
        prop_assert_eq!(&bytes, &second, "second cycle changed the bytes");
    }

    /// Ingesting a `.xspb` stream directly into a [`SpanStore`] (the
    /// zero-copy daemon path) materializes the same spans as decoding to
    /// owned spans first.
    #[test]
    fn xspb_store_ingest_matches_span_decode(
        seeds in vec(seed_strategy(), 1..25),
    ) {
        let spans = build_forest(seeds);
        let bytes = spans_to_binary(&spans);
        let mut store = SpanStore::new();
        let n = xsp_trace::export::SpanBinaryReader::new(&bytes[..])
            .read_into_store(&mut store)
            .expect("own encoding parses");
        prop_assert_eq!(n, spans.len());
        let materialized: Vec<Span> =
            (0..store.len()).map(|i| store.materialize(i as u32)).collect();
        prop_assert_eq!(materialized, spans);
    }
}

/// JSON cannot carry non-finite floats (they collapse to `null`); the
/// binary format stores raw bits, so infinities survive exactly.
#[test]
fn non_finite_floats_survive_binary_but_not_jsonl() {
    let span = Span {
        id: SpanId(1),
        trace_id: TraceId(1),
        name: "inf".into(),
        level: StackLevel::Kernel,
        start_ns: 0,
        end_ns: 1,
        parent: None,
        tags: vec![
            ("pos".into(), TagValue::F64(f64::INFINITY)),
            ("neg".into(), TagValue::F64(f64::NEG_INFINITY)),
            ("sub".into(), TagValue::F64(f64::MIN_POSITIVE / 2.0)),
        ],
        logs: Vec::new(),
    };
    let bytes = spans_to_binary(std::slice::from_ref(&span));
    let back = read_span_binary(&bytes[..]).expect("parses");
    assert_eq!(back.spans(), std::slice::from_ref(&span));
}

/// A quick pin on compactness: the binary encoding of a realistic repeated
/// workload must be substantially smaller than its JSONL twin (interned
/// names amortize, fields drop their JSON keys).
#[test]
fn xspb_is_denser_than_jsonl() {
    let spans: Vec<Span> = (0..512u64)
        .map(|i| Span {
            id: SpanId(i + 1),
            trace_id: TraceId(1),
            name: "volta_sgemm_128x64_nt_interior".into(),
            level: StackLevel::Kernel,
            start_ns: i * 1000,
            end_ns: i * 1000 + 800,
            parent: None,
            tags: vec![
                (tag_keys::FLOP_COUNT_SP.into(), TagValue::U64(1 << 20)),
                (tag_keys::ACHIEVED_OCCUPANCY.into(), TagValue::F64(0.625)),
            ],
            logs: Vec::new(),
        })
        .collect();
    let binary = spans_to_binary(&spans).len();
    let jsonl = jsonl_bytes(&spans).len();
    assert!(
        binary * 5 < jsonl * 2,
        "expected ≥2.5× density, got binary {binary} vs jsonl {jsonl}"
    );
}
