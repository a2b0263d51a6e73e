//! Property tests for the tracing substrate: interval-tree queries vs a
//! naive oracle, parent-reconstruction invariants, and statistics bounds.

use proptest::prelude::*;
use std::collections::HashMap;
use xsp_trace::correlate::CorrelatedSpan;
use xsp_trace::interval::{Interval, IntervalTree};
use xsp_trace::span::{tag_keys, LogEvent, Span, SpanId, TagValue};
use xsp_trace::stats::{percentile, trimmed_mean, Summary};
use xsp_trace::{
    correlate_async_spans, reconstruct_parents, AmbiguityReport, CorrelationEngine, Name,
    SpanBuilder, SpanStore, StackLevel, StoreCorrelationCache, Trace, TraceId,
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

        // the array framing must survive its own round trip
        let write_array = |spans: &[xsp_trace::Span]| {
            let mut writer = SpanJsonWriter::new(Vec::new()).unwrap();
            spans.iter().for_each(|s| writer.write_span(s).unwrap());
            String::from_utf8(writer.finish().unwrap()).unwrap()
        };
        let array = write_array(trace.spans());
        let reparsed: Vec<xsp_trace::Span> = serde_json::from_str(&array).unwrap();
        prop_assert_eq!(write_array(&reparsed), array);
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
        prop::sample::select(HOSTILE_STRINGS.to_vec()).prop_map(TagValue::from),
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
                name: Name::from(name),
                level: StackLevel::ALL[level_ix],
                start_ns,
                end_ns: start_ns + len,
                parent: parent.map(SpanId),
                tags: tags.into_iter().map(|(k, v)| (Name::from(k), v)).collect(),
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
            TagValue::Str(s) => serde_json::Value::String(s.to_string()),
            TagValue::I64(i) => serde_json::json!(i),
            TagValue::U64(u) => serde_json::json!(u),
            TagValue::F64(f) => serde_json::json!(f),
            TagValue::Bool(b) => serde_json::Value::Bool(*b),
        };
        args.insert(k.to_string(), value);
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

/// A span-JSON line as a tree of text fragments: a leaf is one token's
/// text, and object keys stay raw, so a bent line can hold duplicate,
/// escaped or unknown keys that a `serde_json` value cannot.
#[derive(Clone, Debug)]
enum Doc {
    Leaf(String),
    Arr(Vec<Doc>),
    Obj(Vec<(String, Doc)>),
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap()
}

/// The tree of exactly the line `SpanJsonLinesWriter` writes for `span`.
fn doc_of(span: &Span) -> Doc {
    let num = |v: u64| Doc::Leaf(v.to_string());
    let member = |key: &str, value: Doc| (json_str(key), value);
    let tag = |(key, value): &(Name, TagValue)| {
        let (variant, text) = match value {
            TagValue::Str(s) => ("Str", json_str(s)),
            TagValue::I64(v) => ("I64", v.to_string()),
            TagValue::U64(v) => ("U64", v.to_string()),
            TagValue::F64(v) => ("F64", serde_json::to_string(v).unwrap()),
            TagValue::Bool(v) => ("Bool", v.to_string()),
        };
        Doc::Arr(vec![
            Doc::Leaf(json_str(key)),
            Doc::Obj(vec![member(variant, Doc::Leaf(text))]),
        ])
    };
    let log = |log: &LogEvent| {
        Doc::Obj(vec![
            member("at_ns", num(log.at_ns)),
            member("message", Doc::Leaf(json_str(&log.message))),
        ])
    };
    Doc::Obj(vec![
        member("id", num(span.id.0)),
        member("trace_id", num(span.trace_id.0)),
        member("name", Doc::Leaf(json_str(&span.name))),
        member("level", Doc::Leaf(json_str(&format!("{:?}", span.level)))),
        member("start_ns", num(span.start_ns)),
        member("end_ns", num(span.end_ns)),
        member(
            "parent",
            Doc::Leaf(span.parent.map_or("null".to_owned(), |p| p.0.to_string())),
        ),
        member("tags", Doc::Arr(span.tags.iter().map(tag).collect())),
        member("logs", Doc::Arr(span.logs.iter().map(log).collect())),
    ])
}

/// Renders `doc` with `ws` around every structural character.
fn render(doc: &Doc, ws: &str, out: &mut String) {
    match doc {
        Doc::Leaf(text) => out.push_str(text),
        Doc::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws);
                render(item, ws, out);
                out.push_str(ws);
            }
            out.push(']');
        }
        Doc::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws);
                out.push_str(key);
                out.push_str(ws);
                out.push(':');
                out.push_str(ws);
                render(value, ws, out);
                out.push_str(ws);
            }
            out.push('}');
        }
    }
}

fn count_nodes(doc: &Doc, pick: fn(&Doc) -> bool) -> usize {
    let below = match doc {
        Doc::Leaf(_) => 0,
        Doc::Arr(items) => items.iter().map(|d| count_nodes(d, pick)).sum(),
        Doc::Obj(members) => members.iter().map(|(_, d)| count_nodes(d, pick)).sum(),
    };
    usize::from(pick(doc)) + below
}

/// Applies `f` to the `n`-th node (pre-order) that `pick` selects.
fn apply_nth(
    doc: &mut Doc,
    pick: fn(&Doc) -> bool,
    n: &mut usize,
    f: &mut dyn FnMut(&mut Doc),
) -> bool {
    if pick(doc) {
        if *n == 0 {
            f(doc);
            return true;
        }
        *n -= 1;
    }
    match doc {
        Doc::Leaf(_) => false,
        Doc::Arr(items) => items.iter_mut().any(|d| apply_nth(d, pick, n, f)),
        Doc::Obj(members) => members.iter_mut().any(|(_, d)| apply_nth(d, pick, n, f)),
    }
}

/// Applies `f` to one node `pick` selects, chosen by `seed`.
fn bend_one(doc: &mut Doc, seed: usize, pick: fn(&Doc) -> bool, mut f: impl FnMut(&mut Doc)) {
    let count = count_nodes(doc, pick);
    if count > 0 {
        apply_nth(doc, pick, &mut (seed % count), &mut f);
    }
}

fn is_obj(d: &Doc) -> bool {
    matches!(d, Doc::Obj(m) if !m.is_empty())
}
fn is_arr(d: &Doc) -> bool {
    matches!(d, Doc::Arr(_))
}
fn is_num_leaf(d: &Doc) -> bool {
    matches!(d, Doc::Leaf(t) if t.starts_with(|c: char| c == '-' || c.is_ascii_digit() || c == 'n'))
}
fn is_str_leaf(d: &Doc) -> bool {
    matches!(d, Doc::Leaf(t) if t.starts_with('"'))
}
fn is_tag_value(d: &Doc) -> bool {
    const VARIANTS: [&str; 5] = ["\"Str\"", "\"I64\"", "\"U64\"", "\"F64\"", "\"Bool\""];
    matches!(d, Doc::Obj(m) if m.len() == 1 && VARIANTS.contains(&m[0].0.as_str()))
}

/// Numbers by the vendored parser's edge rules: leading zeros, `-0`,
/// floats and overflow where integers belong.
const NUM_TOKENS: [&str; 19] = [
    "0",
    "7",
    "01",
    "00",
    "-0",
    "-1",
    "-0.0",
    "1.0",
    "1e3",
    "2E-2",
    "1.",
    "-",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "-9223372036854775809",
    "1e999",
    "null",
    "nul",
];

/// Strings with every escape the vendored parser takes, and broken ones.
const STR_TOKENS: [&str; 15] = [
    r#""""#,
    r#""dup""#,
    r#""Model""#,
    r#""😀""#,
    r#""😀 tail""#,
    r#""a\/b\b\f\n\r\t\"\\""#,
    r#""\ud800""#,
    r#""\ud800A""#,
    r#""\ud800\udbff""#,
    r#""\ud800\ue000""#,
    r#""\udc00""#,
    r#""\u+041""#,
    r#""\u00zz""#,
    r#""\u12""#,
    r#""\q""#,
];

/// Tag value objects: `-0` in every integer and float position, numbers
/// of the wrong kind, and objects without exactly one key.
const TAG_TOKENS: [&str; 16] = [
    r#"{"F64":-0}"#,
    r#"{"F64":-0.0}"#,
    r#"{"F64":7}"#,
    r#"{"F64":18446744073709551616}"#,
    r#"{"F64":-9223372036854775809}"#,
    r#"{"F64":null}"#,
    r#"{"I64":-0}"#,
    r#"{"I64":9223372036854775808}"#,
    r#"{"U64":-0}"#,
    r#"{"U64":1.0}"#,
    r#"{"Bool":1}"#,
    r#"{"Str":5}"#,
    r#"{"U32":1}"#,
    r#"{}"#,
    r#"{"Str":"a","Str":"b"}"#,
    r#"{"F64":1,"I64":2}"#,
];

/// Values of the wrong shape for any position.
const ANY_TOKENS: [&str; 8] = [
    "[]",
    "{}",
    "[1,2]",
    r#"{"Model":null}"#,
    "true",
    "null",
    "\"x\"",
    "1",
];

/// Re-spells a string token with a `\u` escape per UTF-16 unit.
fn escape_all(token: &str, upper: bool) -> String {
    let Ok(s) = serde_json::from_str::<String>(token) else {
        return token.to_owned();
    };
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&if upper {
            format!("\\u{unit:04X}")
        } else {
            format!("\\u{unit:04x}")
        });
    }
    out.push('"');
    out
}

/// Bends `doc` one way, chosen by `kind`; `seed` picks the node and token.
/// Leaf substitutions (kinds 4, 5 and 8) are drawn twice as often as the
/// rest: they probe the most rules.
fn bend(doc: &mut Doc, kind: u8, seed: usize) {
    let kind = match kind {
        13 => 4,
        14 => 5,
        15 => 8,
        k => k,
    };
    let token = |list: &[&str]| list[seed / 7 % list.len()].to_owned();
    match kind {
        // Reorder an object's members.
        0 => bend_one(doc, seed, is_obj, |d| {
            if let Doc::Obj(m) = d {
                let len = m.len();
                m.rotate_left(seed / 3 % len);
                if seed % 2 == 0 {
                    m.reverse();
                }
            }
        }),
        // Duplicate a member, later or earlier, with a valid other value.
        1 => bend_one(doc, seed, is_obj, |d| {
            if let Doc::Obj(m) = d {
                let i = seed / 3 % m.len();
                let mut dup = m[i].clone();
                dup.1 = match &dup.1 {
                    Doc::Leaf(t) if t.starts_with('"') => {
                        Doc::Leaf(token(&[r#""dup""#, r#""Kernel""#, r#""""#]))
                    }
                    Doc::Leaf(_) => Doc::Leaf(token(&["0", "7", "123"])),
                    other => other.clone(),
                };
                let at = if seed % 2 == 0 { m.len() } else { i };
                m.insert(at, dup);
            }
        }),
        // Drop a member.
        2 => bend_one(doc, seed, is_obj, |d| {
            if let Doc::Obj(m) = d {
                m.remove(seed / 3 % m.len());
            }
        }),
        // Add an unknown member.
        3 => bend_one(doc, seed, is_obj, |d| {
            if let Doc::Obj(m) = d {
                let at = seed / 3 % (m.len() + 1);
                m.insert(at, (json_str("extra"), Doc::Leaf("1".to_owned())));
            }
        }),
        4 => bend_one(doc, seed, is_num_leaf, |d| {
            *d = Doc::Leaf(token(&NUM_TOKENS))
        }),
        5 => bend_one(doc, seed, is_str_leaf, |d| {
            *d = Doc::Leaf(token(&STR_TOKENS))
        }),
        // Re-spell a string value or a key with valid escapes.
        6 => bend_one(doc, seed, is_str_leaf, |d| {
            if let Doc::Leaf(t) = d {
                *t = escape_all(t, seed % 2 == 0);
            }
        }),
        7 => bend_one(doc, seed, is_obj, |d| {
            if let Doc::Obj(m) = d {
                let i = seed / 3 % m.len();
                m[i].0 = escape_all(&m[i].0, seed % 2 == 0);
            }
        }),
        8 => bend_one(doc, seed, is_tag_value, |d| {
            *d = Doc::Leaf(token(&TAG_TOKENS))
        }),
        // Replace any value below the root with one of the wrong shape.
        9 => bend_one(
            doc,
            seed + 1,
            |_| true,
            |d| *d = Doc::Leaf(token(&ANY_TOKENS)),
        ),
        // Remove, repeat or append an array element (tag tuples included).
        10 => bend_one(doc, seed, is_arr, |d| {
            if let Doc::Arr(items) = d {
                match (seed / 3 % 3, items.is_empty()) {
                    (0, false) => {
                        items.remove(seed / 9 % items.len());
                    }
                    (1, false) => items.push(items[seed / 9 % items.len()].clone()),
                    _ => items.push(Doc::Leaf("1".to_owned())),
                }
            }
        }),
        // Give a tag object a second key, or take its only one.
        11 => bend_one(doc, seed, is_tag_value, |d| {
            if let Doc::Obj(m) = d {
                match seed / 3 % 3 {
                    0 => m.clear(),
                    1 => m.push(m[0].clone()),
                    _ => m.push((json_str("Bool"), Doc::Leaf("true".to_owned()))),
                }
            }
        }),
        // Swap the timestamps, inverting every span with a duration.
        _ => {
            if let Doc::Obj(m) = doc {
                let find = |m: &[(String, Doc)], key: &str| m.iter().position(|(k, _)| k == key);
                if let (Some(s), Some(e)) = (find(m, "\"start_ns\""), find(m, "\"end_ns\"")) {
                    let start = m[s].1.clone();
                    m[s].1 = std::mem::replace(&mut m[e].1, start);
                }
            }
        }
    }
}

/// What the reader must yield for `line`: nothing for a blank line, else
/// the value tree's verdict followed by the timestamp check.
fn oracle_line(line: &str) -> Option<Result<Span, serde_json::Error>> {
    let text = line.trim_end_matches(['\n', '\r']);
    if text.trim().is_empty() {
        return None;
    }
    Some(serde_json::from_str::<Span>(text).and_then(|s| {
        if s.end_ns < s.start_ns {
            return Err(serde_json::Error::Data(format!(
                "span {} ends before it starts: end_ns {} < start_ns {}",
                s.id.0, s.end_ns, s.start_ns
            )));
        }
        Ok(s)
    }))
}

/// Span equality with floats compared by bits (`-0.0` is not `0.0`).
fn same_span(a: &Span, b: &Span) -> bool {
    let same_tag = |(ka, va): &(Name, TagValue), (kb, vb): &(Name, TagValue)| {
        ka == kb
            && match (va, vb) {
                (TagValue::F64(x), TagValue::F64(y)) => x.to_bits() == y.to_bits(),
                _ => va == vb,
            }
    };
    a.id == b.id
        && a.trace_id == b.trace_id
        && a.name == b.name
        && a.level == b.level
        && a.start_ns == b.start_ns
        && a.end_ns == b.end_ns
        && a.parent == b.parent
        && a.logs == b.logs
        && a.tags.len() == b.tags.len()
        && a.tags.iter().zip(&b.tags).all(|(x, y)| same_tag(x, y))
}

/// Up to three bends of one line, its whitespace, and its tail: `0`
/// truncates it, `1` appends garbage, `2` indents it.
type Bends = (Vec<(u8, usize)>, usize, (u8, usize));

fn arb_bends() -> impl Strategy<Value = Bends> {
    (
        prop::collection::vec((0u8..16, 0usize..10_000), 0..4),
        0usize..4,
        (0u8..6, 0usize..10_000),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The direct span-JSON-lines parser against the value tree: writer
    /// lines and bent variants of them (reordered, re-spaced, re-escaped;
    /// duplicate, unknown and missing keys; mistyped values and numeric
    /// edge spellings; tag objects with zero or two keys; truncations;
    /// inverted timestamps), all read through one reader, must each give
    /// exactly what `serde_json::from_str::<Span>` and the timestamp check
    /// give: the same span, floats by bits, or the same error.
    #[test]
    fn direct_reader_matches_the_value_tree(
        cases in prop::collection::vec((arb_emit_span(), arb_bends()), 1..8)
    ) {
        use xsp_trace::export::{ReadError, SpanJsonLinesReader, SpanJsonLinesWriter};
        const WS: [&str; 4] = ["", " ", "\t", " \r\t "];

        let mut lines = Vec::new();
        for (span, (bends, ws, (tail, cut))) in &cases {
            let mut writer = SpanJsonLinesWriter::new(Vec::new());
            writer.write_span(span).unwrap();
            let written = String::from_utf8(writer.finish().unwrap()).unwrap();
            let doc = doc_of(span);
            let mut pristine = String::new();
            render(&doc, "", &mut pristine);
            prop_assert_eq!(&written, &format!("{pristine}\n"), "the tree models the writer");
            lines.push(pristine);

            let mut doc = doc;
            for &(kind, seed) in bends {
                bend(&mut doc, kind, seed);
            }
            let mut bent = String::new();
            render(&doc, WS[*ws], &mut bent);
            match tail {
                0 => {
                    let mut at = cut % (bent.len() + 1);
                    while !bent.is_char_boundary(at) {
                        at -= 1;
                    }
                    bent.truncate(at);
                }
                1 => bent.push_str(" x"),
                2 => bent.insert_str(0, WS[*ws]),
                _ => {}
            }
            lines.push(bent);
        }

        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let mut reader = SpanJsonLinesReader::new(input.as_bytes());
        for (i, line) in lines.iter().enumerate() {
            let Some(want) = oracle_line(line) else { continue };
            let got = reader.next().expect("one item per non-blank line");
            match (got, want) {
                (Ok(got), Ok(want)) => prop_assert!(
                    same_span(&got, &want),
                    "line {}: {:?}\n direct {:?}\n oracle {:?}", i + 1, line, got, want
                ),
                (Err(ReadError::Parse { line: at, source }), Err(want)) => {
                    prop_assert_eq!(at, i + 1);
                    prop_assert_eq!(source, want, "line {:?}", line);
                }
                (got, want) => prop_assert!(
                    false,
                    "line {}: {:?}\n reader {:?}\n oracle {:?}", i + 1, line, got, want
                ),
            }
        }
        prop_assert!(reader.next().is_none());
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

/// The bytes of `spans` in every span format: span JSON, Chrome events,
/// `.xspb`, and folded stacks of their correlation.
fn every_format(spans: &[Span]) -> [Vec<u8>; 4] {
    use xsp_trace::export::{
        ChromeTraceWriter, FoldedStacksWriter, SpanBinaryWriter, SpanJsonWriter,
    };
    let mut json = SpanJsonWriter::new(Vec::new()).unwrap();
    let mut chrome = ChromeTraceWriter::new(Vec::new()).unwrap();
    let mut xspb = SpanBinaryWriter::new(Vec::new()).unwrap();
    for span in spans {
        json.write_span(span).unwrap();
        chrome.write_span(span).unwrap();
        xspb.write_span(span).unwrap();
    }
    let mut folded = FoldedStacksWriter::new(Vec::new());
    folded
        .write_run(&reconstruct_parents(&Trace::from_spans(spans.to_vec())))
        .unwrap();
    [
        json.finish().unwrap(),
        chrome.finish().unwrap(),
        xspb.finish().unwrap(),
        folded.finish().unwrap(),
    ]
}

proptest! {
    /// Shared names never show: spans read back through the direct JSONL
    /// parser, through a line the parser hands to `serde_json`, from
    /// `.xspb` into owned spans, and from `.xspb` into a store and out
    /// through `materialize` equal the spans written (which hold literal
    /// names), and re-export to the same bytes in every format.
    #[test]
    fn interning_is_invisible(spans in prop::collection::vec(arb_emit_span(), 1..12)) {
        use xsp_trace::export::{
            spans_to_binary, SpanBinaryReader, SpanJsonLinesReader, SpanJsonLinesWriter,
        };
        // JSON has no spelling for a non-finite float.
        let spans: Vec<Span> = spans
            .into_iter()
            .map(|mut s| {
                for (_, v) in &mut s.tags {
                    if matches!(v, TagValue::F64(f) if !f.is_finite()) {
                        *v = TagValue::F64(0.5);
                    }
                }
                s
            })
            .collect();

        let mut writer = SpanJsonLinesWriter::new(Vec::new());
        for span in &spans {
            writer.write_span(span).unwrap();
        }
        let jsonl = String::from_utf8(writer.finish().unwrap()).unwrap();
        // An unknown key makes the direct parser decline every line.
        let fallback: String = jsonl
            .lines()
            .map(|l| format!("{{\"extra\":1,{}\n", &l[1..]))
            .collect();
        let xspb = spans_to_binary(&spans);
        let mut store = SpanStore::new();
        SpanBinaryReader::new(&xspb[..]).read_into_store(&mut store).unwrap();

        let paths: [(&str, Vec<Span>); 4] = [
            ("direct JSONL", SpanJsonLinesReader::new(jsonl.as_bytes()).collect::<Result<_, _>>().unwrap()),
            ("serde fallback", SpanJsonLinesReader::new(fallback.as_bytes()).collect::<Result<_, _>>().unwrap()),
            (".xspb", SpanBinaryReader::new(&xspb[..]).collect::<Result<_, _>>().unwrap()),
            (".xspb store", (0..store.len() as u32).map(|i| store.materialize(i)).collect()),
        ];
        let want = every_format(&spans);
        for (path, read) in &paths {
            prop_assert_eq!(read.len(), spans.len(), "{}", path);
            for (got, span) in read.iter().zip(&spans) {
                prop_assert!(same_span(got, span), "{}: {:?} != {:?}", path, got, span);
            }
            prop_assert!(every_format(read) == want, "{}: re-export bytes differ", path);
        }
    }
}
