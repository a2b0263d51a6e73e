//! The tracing server: aggregates spans published by all tracers into one
//! application timeline trace (§III-A: "spans are published to a tracing
//! server ... the tracing server aggregates the spans published by the
//! different tracers into one application timeline trace").

use crate::fxhash::FxHashMap;
use crate::span::{Span, SpanId, StackLevel, TraceId};
use crate::tracer::{ChannelTracer, SpanBuffer};
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// An aggregated timeline trace: every span published during one (or more)
/// evaluation runs, in publication order.
///
/// The trace is an *indexed* store, not a bare span list: construction
/// buckets the spans per evaluation run once ([`Trace::trace_ids`] and
/// [`Trace::run_indices`] are O(1) reads), and the `SpanId → index` and
/// `parent → children` maps behind [`Trace::find`] / [`Trace::children_of`]
/// are built on first use and reused for every later lookup. Spans are
/// immutable once stored, so the indexes never go stale.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Distinct evaluation runs in first-appearance order, each with the
    /// indices of its spans (in appearance order). Built eagerly — the
    /// correlation engine consumes it for every trace.
    runs: Vec<(TraceId, Vec<usize>)>,
    /// Lazily built `SpanId → index` map (first occurrence wins, matching
    /// the historical linear-scan `find`).
    index_of: OnceLock<FxHashMap<SpanId, usize>>,
    /// Lazily built explicit-parent adjacency (indices in appearance order).
    children: OnceLock<FxHashMap<SpanId, Vec<usize>>>,
}

impl Trace {
    /// Builds a trace directly from spans (used by offline conversion paths
    /// and tests). Span order is preserved; the per-run buckets are built
    /// in this single pass.
    pub fn from_spans(spans: Vec<Span>) -> Self {
        let mut runs: Vec<(TraceId, Vec<usize>)> = Vec::new();
        let mut run_of: FxHashMap<TraceId, usize> = FxHashMap::default();
        for (i, s) in spans.iter().enumerate() {
            // Drained traces arrive grouped by run, so the common case is
            // "same bucket as the previous span" — check it before hashing.
            let bucket = match runs.last() {
                Some((tid, _)) if *tid == s.trace_id => runs.len() - 1,
                _ => *run_of.entry(s.trace_id).or_insert_with(|| {
                    runs.push((s.trace_id, Vec::new()));
                    runs.len() - 1
                }),
            };
            runs[bucket].1.push(i);
        }
        Self::from_parts(spans, runs)
    }

    /// Builds a trace from spans plus an already-known run index (the drain
    /// path, which grouped the spans itself). Invariant: `runs` lists every
    /// span index exactly once, grouped per distinct trace id.
    pub(crate) fn from_parts(spans: Vec<Span>, runs: Vec<(TraceId, Vec<usize>)>) -> Self {
        debug_assert_eq!(
            runs.iter().map(|(_, v)| v.len()).sum::<usize>(),
            spans.len()
        );
        Self {
            spans,
            runs,
            index_of: OnceLock::new(),
            children: OnceLock::new(),
        }
    }

    /// All spans, in publication order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the trace, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans at a given stack level.
    pub fn at_level(&self, level: StackLevel) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.level == level)
    }

    /// The distinct stack levels present, ordered top to bottom.
    pub fn levels_present(&self) -> Vec<StackLevel> {
        StackLevel::ALL
            .iter()
            .copied()
            .filter(|l| self.spans.iter().any(|s| s.level == *l))
            .collect()
    }

    fn index(&self) -> &FxHashMap<SpanId, usize> {
        self.index_of.get_or_init(|| {
            let mut map = FxHashMap::default();
            map.reserve(self.spans.len());
            for (i, s) in self.spans.iter().enumerate() {
                map.entry(s.id).or_insert(i);
            }
            map
        })
    }

    /// Looks up a span by id through the built-once index map.
    pub fn find(&self, id: SpanId) -> Option<&Span> {
        self.index().get(&id).map(|&i| &self.spans[i])
    }

    /// Spans restricted to a single evaluation run.
    pub fn for_trace_id(&self, trace_id: TraceId) -> Trace {
        let spans = self
            .runs
            .iter()
            .find(|(tid, _)| *tid == trace_id)
            .map(|(_, idxs)| idxs.iter().map(|&i| self.spans[i].clone()).collect())
            .unwrap_or_default();
        Trace::from_spans(spans)
    }

    /// The distinct evaluation runs present, in first-appearance order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.runs.iter().map(|(tid, _)| *tid).collect()
    }

    /// The span indices of one evaluation run, in appearance order (empty
    /// when the run is absent). This is the borrow-everything entry point
    /// the correlation engine uses instead of filtering per run.
    pub fn run_indices(&self, trace_id: TraceId) -> &[usize] {
        self.runs
            .iter()
            .find(|(tid, _)| *tid == trace_id)
            .map(|(_, idxs)| idxs.as_slice())
            .unwrap_or(&[])
    }

    /// Consumes the trace into its span table and per-run index
    /// (first-appearance order) — the zero-copy decomposition the
    /// correlation engine uses for multi-run traces.
    pub(crate) fn into_parts(self) -> (Vec<Span>, Vec<(TraceId, Vec<usize>)>) {
        (self.spans, self.runs)
    }

    /// Clones the span table and run index only, leaving the lazy lookup
    /// maps unbuilt — for consumers (the borrowing `reconstruct_parents`
    /// wrapper) that immediately decompose the clone and would throw any
    /// copied maps away.
    pub(crate) fn clone_parts(&self) -> Trace {
        Trace::from_parts(self.spans.clone(), self.runs.clone())
    }

    /// Direct children of `parent` (explicit parent references only),
    /// through the built-once adjacency map.
    pub fn children_of(&self, parent: SpanId) -> Vec<&Span> {
        self.children
            .get_or_init(|| {
                let mut map: FxHashMap<SpanId, Vec<usize>> = FxHashMap::default();
                for (i, s) in self.spans.iter().enumerate() {
                    if let Some(p) = s.parent {
                        map.entry(p).or_default().push(i);
                    }
                }
                map
            })
            .get(&parent)
            .map(|v| v.iter().map(|&i| &self.spans[i]).collect())
            .unwrap_or_default()
    }

    /// Appends all spans of `other`, rebuilding the run buckets (the lazy
    /// lookup maps reset and rebuild on next use).
    pub fn merge(&mut self, other: Trace) {
        let mut spans = std::mem::take(&mut self.spans);
        spans.extend(other.spans);
        *self = Trace::from_spans(spans);
    }
}

/// Aggregation endpoint for all tracers in the process.
///
/// The server hands out [`ChannelTracer`]s; spans published through them are
/// buffered internally. [`TracingServer::drain`] collects everything
/// published so far into a [`Trace`], and [`TracingServer::fresh_trace_id`]
/// allocates per-run trace ids so a multi-run experiment can be demultiplexed
/// later.
///
/// # Concurrent producers
///
/// The channel carries atomic span batches, and [`TracingServer::drain`]
/// orders the result by trace id (stable within a trace). As long as each
/// evaluation run (= trace id) is produced by a single worker — the model
/// of the parallel evaluation engine, which gives each worker a
/// [`SpanBuffer`] flushed once per run — the assembled trace is therefore
/// *independent of cross-thread arrival order*: workers finishing in any
/// order yield byte-identical traces.
pub struct TracingServer {
    tx: Sender<Vec<Span>>,
    rx: Receiver<Vec<Span>>,
    registered: Mutex<HashMap<&'static str, ChannelTracer>>,
    next_trace_id: AtomicU64,
}

impl Default for TracingServer {
    fn default() -> Self {
        Self::new()
    }
}

impl TracingServer {
    /// Creates a new server with an empty buffer.
    pub fn new() -> Self {
        let (tx, rx) = crossbeam_channel::unbounded();
        Self {
            tx,
            rx,
            registered: Mutex::new(HashMap::new()),
            next_trace_id: AtomicU64::new(1),
        }
    }

    /// Creates (or returns the previously created) tracer named `name`.
    ///
    /// Multiple profilers may coexist within a stack level (§III-A: "multiple
    /// tracers (or profilers) can exist within a stack level"); each gets its
    /// own named tracer, all feeding the same timeline.
    pub fn tracer(&self, name: &'static str) -> ChannelTracer {
        let mut reg = self.registered.lock();
        reg.entry(name)
            .or_insert_with(|| ChannelTracer::new(name, self.tx.clone()))
            .clone()
    }

    /// Names of all registered tracers.
    pub fn tracer_names(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.registered.lock().keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// Creates a [`SpanBuffer`] over the tracer named `name`: spans reported
    /// through it accumulate locally and reach this server as one atomic
    /// batch on flush. This is the per-worker publication endpoint of the
    /// parallel evaluation engine.
    pub fn buffer(&self, name: &'static str) -> SpanBuffer {
        SpanBuffer::new(self.tracer(name))
    }

    /// Allocates a fresh per-run trace id.
    pub fn fresh_trace_id(&self) -> TraceId {
        TraceId(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Collects the per-trace-id buckets of every span published since the
    /// previous drain — the shared O(n) body of [`TracingServer::drain`] and
    /// [`TracingServer::drain_each`]. Buckets iterate in ascending trace-id
    /// order; within one bucket the per-producer publication order is
    /// preserved (the channel is FIFO per sender and appends keep arrival
    /// order).
    fn drain_buckets(&self) -> BTreeMap<TraceId, Vec<Span>> {
        let mut buckets: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
        for batch in self.rx.try_iter() {
            for span in batch {
                buckets.entry(span.trace_id).or_default().push(span);
            }
        }
        buckets
    }

    /// Collects every span published since the previous drain.
    ///
    /// Spans are returned grouped by ascending trace id via per-run bucketed
    /// accumulation — O(n) in the span count, no sort. The historical
    /// contract — "spans in publication order" — held only while every
    /// producer shared one thread; grouping by trace id keeps the order
    /// deterministic when producers of *different* runs race on the channel
    /// (within one run the per-producer publication order is preserved).
    pub fn drain(&self) -> Trace {
        let buckets = self.drain_buckets();
        let mut spans = Vec::with_capacity(buckets.values().map(Vec::len).sum());
        let mut runs = Vec::with_capacity(buckets.len());
        for (tid, bucket) in buckets {
            let start = spans.len();
            spans.extend(bucket);
            runs.push((tid, (start..spans.len()).collect()));
        }
        // The buckets *are* the run index — hand both to the trace directly
        // instead of having `from_spans` re-derive them.
        Trace::from_parts(spans, runs)
    }

    /// Drains like [`TracingServer::drain`] (same buffer, same grouped-by-
    /// trace-id order — it *is* a drain) but hands each span to `f` as the
    /// buckets stream out, without assembling a [`Trace`] or its index maps:
    /// spans can be fed straight into a [`crate::export::stream`] writer so
    /// the serialized trace is never materialized (see
    /// `examples/application_pipeline.rs`). Peak memory is the drained
    /// buckets themselves; no span is cloned or re-sorted on the way out.
    pub fn drain_each(&self, f: impl FnMut(Span)) {
        self.drain_buckets().into_values().flatten().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Name;
    use crate::span::SpanBuilder;
    use crate::tracer::Tracer;

    fn span(trace_id: TraceId, name: &'static str, level: StackLevel, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, level, trace_id).start(s).finish(e)
    }

    #[test]
    fn drain_collects_published_spans() {
        let server = TracingServer::new();
        let t1 = server.tracer("model");
        let t2 = server.tracer("layer");
        let id = server.fresh_trace_id();
        t1.report(span(id, "predict", StackLevel::Model, 0, 100));
        t2.report(span(id, "conv", StackLevel::Layer, 10, 60));
        let trace = server.drain();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.levels_present(),
            vec![StackLevel::Model, StackLevel::Layer]
        );
        // second drain is empty
        assert!(server.drain().is_empty());
    }

    #[test]
    fn tracer_is_memoized_by_name() {
        let server = TracingServer::new();
        let a = server.tracer("gpu");
        a.set_enabled(false);
        let b = server.tracer("gpu");
        assert!(!b.is_enabled(), "same underlying tracer must be returned");
        assert_eq!(server.tracer_names(), vec!["gpu"]);
    }

    #[test]
    fn fresh_trace_ids_are_distinct() {
        let server = TracingServer::new();
        let a = server.fresh_trace_id();
        let b = server.fresh_trace_id();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_demultiplexes_runs() {
        let server = TracingServer::new();
        let t = server.tracer("model");
        let run1 = server.fresh_trace_id();
        let run2 = server.fresh_trace_id();
        t.report(span(run1, "p", StackLevel::Model, 0, 10));
        t.report(span(run2, "p", StackLevel::Model, 20, 35));
        let all = server.drain();
        assert_eq!(all.trace_ids(), vec![run1, run2]);
        assert_eq!(all.for_trace_id(run1).len(), 1);
        assert_eq!(all.for_trace_id(run2).spans()[0].start_ns, 20);
    }

    #[test]
    fn children_of_uses_explicit_parents() {
        let server = TracingServer::new();
        let t = server.tracer("fw");
        let id = server.fresh_trace_id();
        let parent = span(id, "predict", StackLevel::Model, 0, 100);
        let pid = parent.id;
        let child = SpanBuilder::new("conv", StackLevel::Layer, id)
            .start(5)
            .parent(pid)
            .finish(50);
        t.report(parent);
        t.report(child);
        let trace = server.drain();
        let kids = trace.children_of(pid);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].name, "conv");
    }

    #[test]
    fn trace_ids_index_many_distinct_runs() {
        // Regression guard for the old accumulator, which did
        // `ids.contains(&trace_id)` per span — quadratic in distinct runs.
        // The bucketed store indexes runs at construction, so sweep-scale
        // JSONL imports stay linear. Sized at 100k runs so a quadratic
        // reintroduction (~5e9 id comparisons, tens of seconds even in a
        // release build) genuinely trips the wall-clock bound instead of
        // sliding under it, while the linear path stays far below.
        const RUNS: u64 = 100_000;
        let started = std::time::Instant::now();
        let mut spans: Vec<Span> = (0..RUNS)
            .map(|i| span(TraceId(i), "p", StackLevel::Model, i, i + 1))
            .collect();
        // Non-contiguous reappearance: early runs publish again at the end.
        spans.push(span(TraceId(17), "late", StackLevel::Layer, 50, 60));
        let trace = Trace::from_spans(spans);
        let ids = trace.trace_ids();
        assert_eq!(ids.len(), RUNS as usize, "reappearance adds no dup id");
        assert_eq!(ids[0], TraceId(0));
        assert_eq!(
            ids[RUNS as usize - 1],
            TraceId(RUNS - 1),
            "first-appearance order kept"
        );
        assert_eq!(trace.run_indices(TraceId(17)), &[17, RUNS as usize]);
        assert_eq!(trace.for_trace_id(TraceId(17)).len(), 2);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "{RUNS}-run indexing took {:?} — quadratic accumulation is back",
            started.elapsed()
        );
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Trace::from_spans(vec![span(TraceId(1), "x", StackLevel::Model, 0, 1)]);
        let b = Trace::from_spans(vec![span(TraceId(2), "y", StackLevel::Layer, 2, 3)]);
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn drain_is_independent_of_producer_arrival_order() {
        // Regression test for the latent ordering assumption: the old drain
        // returned raw arrival order, which was deterministic only because
        // all producers shared one thread. Simulate two workers finishing
        // out of submission order: the run-2 buffer flushes before run 1.
        let build = |server: &TracingServer, run: TraceId, names: [&'static str; 2]| {
            let buffer = server.buffer("worker");
            buffer.report(span(run, names[0], StackLevel::Model, 0, 100));
            buffer.report(span(run, names[1], StackLevel::Layer, 10, 60));
            buffer
        };

        let in_order = TracingServer::new();
        let b1 = build(&in_order, TraceId(1), ["p1", "l1"]);
        let b2 = build(&in_order, TraceId(2), ["p2", "l2"]);
        b1.flush();
        b2.flush();
        let expected: Vec<Name> = in_order
            .drain()
            .into_spans()
            .into_iter()
            .map(|s| s.name)
            .collect();

        let out_of_order = TracingServer::new();
        let b1 = build(&out_of_order, TraceId(1), ["p1", "l1"]);
        let b2 = build(&out_of_order, TraceId(2), ["p2", "l2"]);
        b2.flush(); // run 2 arrives first
        b1.flush();
        let got: Vec<Name> = out_of_order
            .drain()
            .into_spans()
            .into_iter()
            .map(|s| s.name)
            .collect();

        assert_eq!(got, expected, "drain must group by trace id, not arrival");
        assert_eq!(got, vec!["p1", "l1", "p2", "l2"]);
    }

    #[test]
    fn drain_each_streams_in_drain_order() {
        let expected = {
            let server = TracingServer::new();
            let b2 = server.buffer("w");
            b2.report(span(TraceId(2), "p2", StackLevel::Model, 0, 10));
            let b1 = server.buffer("w");
            b1.report(span(TraceId(1), "p1", StackLevel::Model, 0, 10));
            b2.flush();
            b1.flush();
            server
                .drain()
                .into_spans()
                .into_iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
        };
        let server = TracingServer::new();
        let b2 = server.buffer("w");
        b2.report(span(TraceId(2), "p2", StackLevel::Model, 0, 10));
        let b1 = server.buffer("w");
        b1.report(span(TraceId(1), "p1", StackLevel::Model, 0, 10));
        b2.flush();
        b1.flush();
        let mut streamed = Vec::new();
        server.drain_each(|s| streamed.push(s.name));
        assert_eq!(streamed, expected);
        assert_eq!(streamed, vec!["p1", "p2"], "grouped by trace id");
        assert!(server.drain().is_empty(), "drain_each consumes the buffer");
    }

    #[test]
    fn spans_survive_cross_thread_publication() {
        let server = TracingServer::new();
        let id = server.fresh_trace_id();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tracer = server.tracer("gpu");
                std::thread::spawn(move || {
                    for j in 0..100u64 {
                        tracer.report(
                            SpanBuilder::new(format!("k{i}_{j}"), StackLevel::Kernel, id)
                                .start(j)
                                .finish(j + 1),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.drain().len(), 400);
    }
}
