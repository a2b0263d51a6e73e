//! Arena/struct-of-arrays span storage — the hot-path representation.
//!
//! A [`crate::span::Span`] is the *interchange* shape (owned,
//! self-contained, serde-friendly). Its strings are shared
//! [`crate::intern::Name`]s, so an owned span costs its tag vector (and
//! its log vector, when it has logs) and nothing per string. A
//! [`SpanStore`] keeps the same data columnar: fixed-width fields (ids,
//! intervals, levels, parents) live in flat vectors, names/tag keys/string
//! tag values are [`Symbol`]s into one [`NameTable`], and tags/logs live
//! in shared arenas addressed by per-span ranges, so pushing a span
//! allocates nothing per span once the columns have grown.
//!
//! The store is the representation for spans that arrive columnar: daemon
//! session residency and `.xspb` ingest via
//! [`crate::export::SpanBinaryReader::read_into_store`]. Spans that arrive
//! owned (a drained [`Trace`], the incremental correlation window) stay
//! owned; the correlation pass is the same for both — it reads a store
//! through the same index-access trait as a span slice — and only the
//! output step differs.
//!
//! The store also pre-computes each span's async-correlation facts (first
//! `correlation_id` tag, `async_launch` / `async_execution` flags) at push
//! time, so [`crate::correlate::CorrelationEngine::correlate_store`]
//! classifies roles with a column read instead of per-span string-keyed
//! tag walks. The precomputation replicates
//! [`crate::span::Span::correlation_id`] /
//! [`crate::span::Span::is_async_launch`] semantics exactly (first
//! matching tag wins; `as_u64` accepts `U64` and non-negative `I64`) — the
//! store-vs-span correlation tests pin the equivalence.
//!
//! Conversion back to the interchange shape is always available:
//! [`SpanStore::materialize`] rebuilds a byte-identical [`Span`] (tag and
//! log order preserved) whose strings are clones of the table's `Name`s,
//! and [`SpanStore::to_trace`] rebuilds a [`Trace`] with the same run
//! bucketing `Trace::from_spans` would derive.

use crate::fxhash::FxHashMap;
use crate::intern::{Name, NameTable, Symbol};
use crate::server::Trace;
use crate::span::{tag_keys, LogEvent, Span, SpanId, StackLevel, TagValue, TraceId};

/// A borrowed tag value — [`TagValue`] without the owned string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TagRef<'a> {
    /// A string value.
    Str(&'a str),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl<'a> TagRef<'a> {
    /// Converts to an owned [`TagValue`], copying a string value.
    pub fn to_value(self) -> TagValue {
        match self {
            TagRef::Str(s) => TagValue::Str(Name::new(s)),
            TagRef::I64(v) => TagValue::I64(v),
            TagRef::U64(v) => TagValue::U64(v),
            TagRef::F64(v) => TagValue::F64(v),
            TagRef::Bool(v) => TagValue::Bool(v),
        }
    }
}

impl<'a> From<&'a TagValue> for TagRef<'a> {
    fn from(v: &'a TagValue) -> Self {
        match v {
            TagValue::Str(s) => TagRef::Str(s),
            TagValue::I64(v) => TagRef::I64(*v),
            TagValue::U64(v) => TagRef::U64(*v),
            TagValue::F64(v) => TagRef::F64(*v),
            TagValue::Bool(v) => TagRef::Bool(*v),
        }
    }
}

/// A tag value with the string case interned — the arena cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TagCell {
    Str(Symbol),
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
}

/// Pre-computed async-correlation facts for one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AsyncInfo {
    /// The first `correlation_id` tag's value, when it was integer-typed.
    pub(crate) cid: u64,
    /// [`HAS_CID`] / [`IS_LAUNCH`] / [`IS_EXEC`] bits (plus internal
    /// first-occurrence markers).
    pub(crate) flags: u8,
}

/// The span carries an integer `correlation_id` tag.
pub(crate) const HAS_CID: u8 = 1;
/// The span's first `async_launch` tag is `Bool(true)`.
pub(crate) const IS_LAUNCH: u8 = 2;
/// The span's first `async_execution` tag is `Bool(true)`.
pub(crate) const IS_EXEC: u8 = 4;
const SEEN_CID: u8 = 8;
const SEEN_LAUNCH: u8 = 16;
const SEEN_EXEC: u8 = 32;

/// Columnar span storage with interned strings and shared tag/log arenas.
///
/// Spans keep their push order; run bucketing (`trace_id → span indices`,
/// first-appearance order with a same-as-previous fast path) is maintained
/// incrementally, exactly as [`Trace::from_spans`] derives it.
#[derive(Debug, Clone)]
pub struct SpanStore {
    names: NameTable,
    sym_cid: Symbol,
    sym_launch: Symbol,
    sym_exec: Symbol,
    ids: Vec<SpanId>,
    trace_ids: Vec<TraceId>,
    name_syms: Vec<Symbol>,
    levels: Vec<StackLevel>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    parents: Vec<Option<SpanId>>,
    tag_ranges: Vec<(u32, u32)>,
    tag_keys_col: Vec<Symbol>,
    tag_cells: Vec<TagCell>,
    log_ranges: Vec<(u32, u32)>,
    log_ats: Vec<u64>,
    log_msg_ranges: Vec<(u32, u32)>,
    log_bytes: Vec<u8>,
    async_infos: Vec<AsyncInfo>,
    runs: Vec<(TraceId, Vec<u32>)>,
    run_of: FxHashMap<TraceId, usize>,
}

impl SpanStore {
    /// Creates an empty store. The three async-correlation tag keys are
    /// interned eagerly (symbols 0–2) so tag pushes classify them by
    /// symbol compare instead of string compare.
    pub fn new() -> Self {
        let mut names = NameTable::new();
        let sym_cid = names.intern(tag_keys::CORRELATION_ID);
        let sym_launch = names.intern(tag_keys::ASYNC_LAUNCH);
        let sym_exec = names.intern(tag_keys::ASYNC_EXECUTION);
        Self {
            names,
            sym_cid,
            sym_launch,
            sym_exec,
            ids: Vec::new(),
            trace_ids: Vec::new(),
            name_syms: Vec::new(),
            levels: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            parents: Vec::new(),
            tag_ranges: Vec::new(),
            tag_keys_col: Vec::new(),
            tag_cells: Vec::new(),
            log_ranges: Vec::new(),
            log_ats: Vec::new(),
            log_msg_ranges: Vec::new(),
            log_bytes: Vec::new(),
            async_infos: Vec::new(),
            runs: Vec::new(),
            run_of: FxHashMap::default(),
        }
    }

    /// Creates an empty store with room for `spans` spans.
    pub fn with_capacity(spans: usize) -> Self {
        let mut s = Self::new();
        s.ids.reserve(spans);
        s.trace_ids.reserve(spans);
        s.name_syms.reserve(spans);
        s.levels.reserve(spans);
        s.starts.reserve(spans);
        s.ends.reserve(spans);
        s.parents.reserve(spans);
        s.tag_ranges.reserve(spans);
        s.log_ranges.reserve(spans);
        s.async_infos.reserve(spans);
        s
    }

    /// Builds a store from a slice of interchange spans.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut store = Self::with_capacity(spans.len());
        for s in spans {
            store.push(s);
        }
        store
    }

    /// Number of spans stored.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the store holds no spans.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The store's string table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Appends a span, interning its strings (a new string is stored as
    /// the span's own [`Name`], with no copy). Returns the span's index.
    pub fn push(&mut self, span: &Span) -> u32 {
        let name = self.names.intern_name(&span.name);
        let idx = self.push_raw_interned(
            span.id,
            span.trace_id,
            name,
            span.level,
            span.start_ns,
            span.end_ns,
            span.parent,
        );
        for (k, v) in &span.tags {
            let key = self.names.intern_name(k);
            let cell = match v {
                TagValue::Str(s) => TagCell::Str(self.names.intern_name(s)),
                TagValue::I64(v) => TagCell::I64(*v),
                TagValue::U64(v) => TagCell::U64(*v),
                TagValue::F64(v) => TagCell::F64(*v),
                TagValue::Bool(v) => TagCell::Bool(*v),
            };
            self.raw_tag_interned(key, cell);
        }
        for log in &span.logs {
            self.raw_log(log.at_ns, &log.message);
        }
        idx
    }

    /// Appends a span consumed by value (the drain path). Strings still
    /// intern: a new one keeps the span's [`Name`], a known one is dropped.
    pub fn push_owned(&mut self, span: Span) -> u32 {
        self.push(&span)
    }

    /// Appends a span's fixed-width fields without tags or logs; returns
    /// its index. Follow with [`SpanStore::raw_tag`] / [`SpanStore::raw_log`]
    /// *before the next push* — tags and logs live in shared arenas and
    /// must stay contiguous per span.
    #[allow(clippy::too_many_arguments)]
    pub fn push_raw(
        &mut self,
        id: SpanId,
        trace_id: TraceId,
        name: &str,
        level: StackLevel,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> u32 {
        let sym = self.names.intern(name);
        self.push_raw_interned(id, trace_id, sym, level, start_ns, end_ns, parent)
    }

    /// [`SpanStore::push_raw`] with a pre-interned name (the binary-ingest
    /// path, which remaps the stream's symbol table once per distinct name).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_raw_interned(
        &mut self,
        id: SpanId,
        trace_id: TraceId,
        name: Symbol,
        level: StackLevel,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> u32 {
        let idx = u32::try_from(self.ids.len()).expect("span store exceeds u32 indices");
        self.ids.push(id);
        self.trace_ids.push(trace_id);
        self.name_syms.push(name);
        self.levels.push(level);
        self.starts.push(start_ns);
        self.ends.push(end_ns);
        self.parents.push(parent);
        let tag_off = u32::try_from(self.tag_keys_col.len()).expect("tag arena exceeds u32");
        self.tag_ranges.push((tag_off, 0));
        let log_off = u32::try_from(self.log_ats.len()).expect("log arena exceeds u32");
        self.log_ranges.push((log_off, 0));
        self.async_infos.push(AsyncInfo::default());
        // Run bucketing, same fast path as `Trace::from_spans`: drained
        // spans arrive grouped per run, so check the last bucket first.
        let bucket = match self.runs.last() {
            Some((tid, _)) if *tid == trace_id => self.runs.len() - 1,
            _ => *self.run_of.entry(trace_id).or_insert_with(|| {
                self.runs.push((trace_id, Vec::new()));
                self.runs.len() - 1
            }),
        };
        self.runs[bucket].1.push(idx);
        idx
    }

    /// Appends a tag to the most recently pushed span.
    pub fn raw_tag(&mut self, key: &str, value: TagRef<'_>) {
        let key_sym = self.names.intern(key);
        let cell = match value {
            TagRef::Str(s) => TagCell::Str(self.names.intern(s)),
            TagRef::I64(v) => TagCell::I64(v),
            TagRef::U64(v) => TagCell::U64(v),
            TagRef::F64(v) => TagCell::F64(v),
            TagRef::Bool(v) => TagCell::Bool(v),
        };
        self.raw_tag_interned(key_sym, cell);
    }

    /// [`SpanStore::raw_tag`] with pre-interned key and value.
    pub(crate) fn raw_tag_interned(&mut self, key: Symbol, cell: TagCell) {
        self.tag_keys_col.push(key);
        self.tag_cells.push(cell);
        self.tag_ranges.last_mut().expect("push before raw_tag").1 += 1;
        // First-occurrence async facts, mirroring `Span::tag` (first match
        // wins) + `TagValue::as_u64` / `Bool(true)` checks.
        let info = self.async_infos.last_mut().expect("push before raw_tag");
        if key == self.sym_cid && info.flags & SEEN_CID == 0 {
            info.flags |= SEEN_CID;
            let as_u64 = match cell {
                TagCell::U64(v) => Some(v),
                TagCell::I64(v) if v >= 0 => Some(v as u64),
                _ => None,
            };
            if let Some(cid) = as_u64 {
                info.cid = cid;
                info.flags |= HAS_CID;
            }
        } else if key == self.sym_launch && info.flags & SEEN_LAUNCH == 0 {
            info.flags |= SEEN_LAUNCH;
            if cell == TagCell::Bool(true) {
                info.flags |= IS_LAUNCH;
            }
        } else if key == self.sym_exec && info.flags & SEEN_EXEC == 0 {
            info.flags |= SEEN_EXEC;
            if cell == TagCell::Bool(true) {
                info.flags |= IS_EXEC;
            }
        }
    }

    /// Appends a log event to the most recently pushed span.
    pub fn raw_log(&mut self, at_ns: u64, message: &str) {
        self.log_ats.push(at_ns);
        let off = u32::try_from(self.log_bytes.len()).expect("log arena exceeds u32");
        self.log_bytes.extend_from_slice(message.as_bytes());
        self.log_msg_ranges.push((
            off,
            u32::try_from(message.len()).expect("log message too long"),
        ));
        self.log_ranges.last_mut().expect("push before raw_log").1 += 1;
    }

    /// Borrow-view of the span at `idx`. Panics when out of range.
    pub fn view(&self, idx: u32) -> SpanView<'_> {
        assert!((idx as usize) < self.len(), "span index out of range");
        SpanView { store: self, idx }
    }

    /// Iterates all spans as views, in push order.
    pub fn iter(&self) -> impl Iterator<Item = SpanView<'_>> {
        (0..self.len() as u32).map(move |idx| SpanView { store: self, idx })
    }

    /// Rebuilds the interchange [`Span`] at `idx` — tag and log order
    /// preserved, so serializing it is byte-identical to serializing the
    /// span that was pushed. Strings are clones of the table's [`Name`]s;
    /// the tag vector (and a log vector, when the span has logs) are the
    /// only allocations.
    pub fn materialize(&self, idx: u32) -> Span {
        let i = idx as usize;
        let (toff, tlen) = self.tag_ranges[i];
        let tags = (toff..toff + tlen)
            .map(|t| {
                let t = t as usize;
                (
                    self.names.name(self.tag_keys_col[t]).clone(),
                    self.tag_value(self.tag_cells[t]),
                )
            })
            .collect();
        let (loff, llen) = self.log_ranges[i];
        let logs = (loff..loff + llen)
            .map(|l| {
                let l = l as usize;
                LogEvent {
                    at_ns: self.log_ats[l],
                    message: self.log_message(l).to_owned(),
                }
            })
            .collect();
        Span {
            id: self.ids[i],
            trace_id: self.trace_ids[i],
            name: self.names.name(self.name_syms[i]).clone(),
            level: self.levels[i],
            start_ns: self.starts[i],
            end_ns: self.ends[i],
            parent: self.parents[i],
            tags,
            logs,
        }
    }

    /// Rebuilds a [`Trace`] over all spans, reusing the incrementally
    /// maintained run index instead of re-deriving it.
    pub fn to_trace(&self) -> Trace {
        let spans = (0..self.len() as u32)
            .map(|i| self.materialize(i))
            .collect();
        let runs = self
            .runs
            .iter()
            .map(|(tid, idxs)| (*tid, idxs.iter().map(|&i| i as usize).collect()))
            .collect();
        Trace::from_parts(spans, runs)
    }

    /// The distinct trace ids present, in first-appearance order.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        self.runs.iter().map(|(tid, _)| *tid).collect()
    }

    /// Clears all spans and arenas, retaining interned names and capacity
    /// (the long-lived daemon-session reuse path).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.trace_ids.clear();
        self.name_syms.clear();
        self.levels.clear();
        self.starts.clear();
        self.ends.clear();
        self.parents.clear();
        self.tag_ranges.clear();
        self.tag_keys_col.clear();
        self.tag_cells.clear();
        self.log_ranges.clear();
        self.log_ats.clear();
        self.log_msg_ranges.clear();
        self.log_bytes.clear();
        self.async_infos.clear();
        self.runs.clear();
        self.run_of.clear();
    }

    pub(crate) fn names_mut(&mut self) -> &mut NameTable {
        &mut self.names
    }

    pub(crate) fn run_buckets(&self) -> &[(TraceId, Vec<u32>)] {
        &self.runs
    }

    pub(crate) fn async_info(&self, idx: u32) -> AsyncInfo {
        self.async_infos[idx as usize]
    }

    pub(crate) fn id_at(&self, idx: u32) -> SpanId {
        self.ids[idx as usize]
    }

    pub(crate) fn level_at(&self, idx: u32) -> StackLevel {
        self.levels[idx as usize]
    }

    pub(crate) fn interval_at(&self, idx: u32) -> (u64, u64) {
        (self.starts[idx as usize], self.ends[idx as usize])
    }

    pub(crate) fn parent_at(&self, idx: u32) -> Option<SpanId> {
        self.parents[idx as usize]
    }

    /// The span's tag-arena index range.
    pub(crate) fn tag_range(&self, idx: u32) -> std::ops::Range<usize> {
        let (off, len) = self.tag_ranges[idx as usize];
        off as usize..(off + len) as usize
    }

    pub(crate) fn tag_key_at(&self, arena_idx: usize) -> Symbol {
        self.tag_keys_col[arena_idx]
    }

    /// Resolves an arena tag slot to an owned `(key, value)` pair — the
    /// materialization step for tags referenced across spans (merged async
    /// launch tags).
    pub(crate) fn tag_pair_at(&self, arena_idx: usize) -> (Name, TagValue) {
        (
            self.names.name(self.tag_keys_col[arena_idx]).clone(),
            self.tag_value(self.tag_cells[arena_idx]),
        )
    }

    fn tag_value(&self, cell: TagCell) -> TagValue {
        match cell {
            TagCell::Str(s) => TagValue::Str(self.names.name(s).clone()),
            TagCell::I64(v) => TagValue::I64(v),
            TagCell::U64(v) => TagValue::U64(v),
            TagCell::F64(v) => TagValue::F64(v),
            TagCell::Bool(v) => TagValue::Bool(v),
        }
    }

    fn tag_ref(&self, cell: TagCell) -> TagRef<'_> {
        match cell {
            TagCell::Str(s) => TagRef::Str(self.names.resolve(s)),
            TagCell::I64(v) => TagRef::I64(v),
            TagCell::U64(v) => TagRef::U64(v),
            TagCell::F64(v) => TagRef::F64(v),
            TagCell::Bool(v) => TagRef::Bool(v),
        }
    }

    fn log_message(&self, arena_idx: usize) -> &str {
        let (off, len) = self.log_msg_ranges[arena_idx];
        std::str::from_utf8(&self.log_bytes[off as usize..(off + len) as usize])
            .expect("log arena holds the bytes of valid strings")
    }
}

impl Default for SpanStore {
    fn default() -> Self {
        Self::new()
    }
}

/// A borrowed view of one span in a [`SpanStore`] — field access without
/// materializing an owned [`Span`].
#[derive(Debug, Clone, Copy)]
pub struct SpanView<'a> {
    store: &'a SpanStore,
    idx: u32,
}

impl<'a> SpanView<'a> {
    /// The span's index in its store.
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Span id.
    pub fn id(&self) -> SpanId {
        self.store.ids[self.idx as usize]
    }

    /// Evaluation-run id.
    pub fn trace_id(&self) -> TraceId {
        self.store.trace_ids[self.idx as usize]
    }

    /// Span name (borrowed from the store's string table).
    pub fn name(&self) -> &'a str {
        self.store
            .names
            .resolve(self.store.name_syms[self.idx as usize])
    }

    /// Stack level.
    pub fn level(&self) -> StackLevel {
        self.store.levels[self.idx as usize]
    }

    /// Start timestamp, ns.
    pub fn start_ns(&self) -> u64 {
        self.store.starts[self.idx as usize]
    }

    /// End timestamp, ns.
    pub fn end_ns(&self) -> u64 {
        self.store.ends[self.idx as usize]
    }

    /// Explicit parent, if any.
    pub fn parent(&self) -> Option<SpanId> {
        self.store.parents[self.idx as usize]
    }

    /// Iterates the span's tags as borrowed `(key, value)` pairs, in push
    /// order.
    pub fn tags(&self) -> impl Iterator<Item = (&'a str, TagRef<'a>)> + '_ {
        let store = self.store;
        store.tag_range(self.idx).map(move |t| {
            (
                store.names.resolve(store.tag_keys_col[t]),
                store.tag_ref(store.tag_cells[t]),
            )
        })
    }

    /// Number of tags.
    pub fn tag_count(&self) -> usize {
        self.store.tag_ranges[self.idx as usize].1 as usize
    }

    /// Iterates the span's logs as `(at_ns, message)` pairs, in push order.
    pub fn logs(&self) -> impl Iterator<Item = (u64, &'a str)> + '_ {
        let store = self.store;
        let (off, len) = store.log_ranges[self.idx as usize];
        (off..off + len).map(move |l| (store.log_ats[l as usize], store.log_message(l as usize)))
    }

    /// Number of log events.
    pub fn log_count(&self) -> usize {
        self.store.log_ranges[self.idx as usize].1 as usize
    }

    /// Materializes an owned [`Span`].
    pub fn to_span(&self) -> Span {
        self.store.materialize(self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanBuilder;

    fn sample() -> Vec<Span> {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .tag("batch_size", 4u64)
            .log(5, "warmup done")
            .finish(1_000_000);
        let pid = model.id;
        let layer = SpanBuilder::new("conv2d/Conv2D", StackLevel::Layer, TraceId(1))
            .start(1_000)
            .parent(pid)
            .tag("occ", 0.25f64)
            .tag("shape", "1x3x224x224")
            .finish(500_000);
        let kernel = SpanBuilder::new("volta_scudnn", StackLevel::Kernel, TraceId(2))
            .start(2_000)
            .tag(tag_keys::CORRELATION_ID, 42u64)
            .tag(tag_keys::ASYNC_EXECUTION, true)
            .finish(3_000);
        vec![model, layer, kernel]
    }

    #[test]
    fn materialize_round_trips_exactly() {
        let spans = sample();
        let store = SpanStore::from_spans(&spans);
        assert_eq!(store.len(), 3);
        for (i, s) in spans.iter().enumerate() {
            let back = store.materialize(i as u32);
            assert_eq!(&back, s, "span {i} must round-trip field-for-field");
            assert_eq!(
                serde_json::to_string(&back),
                serde_json::to_string(s),
                "span {i} must round-trip byte-for-byte"
            );
        }
    }

    #[test]
    fn interning_dedups_names_and_keys() {
        let mut store = SpanStore::new();
        for i in 0..100u64 {
            let s = SpanBuilder::new("volta_scudnn", StackLevel::Kernel, TraceId(1))
                .start(i)
                .tag("occ", 0.5f64)
                .finish(i + 1);
            store.push(&s);
        }
        // 3 pre-interned async keys + 1 name + 1 tag key.
        assert_eq!(store.names().len(), 5);
    }

    #[test]
    fn run_bucketing_matches_trace_from_spans() {
        let mut spans = sample();
        // Interleave a second run to exercise the non-last-bucket path.
        let extra = SpanBuilder::new("late", StackLevel::Kernel, TraceId(1))
            .start(10)
            .finish(20);
        spans.push(extra);
        let store = SpanStore::from_spans(&spans);
        let trace = store.to_trace();
        let direct = Trace::from_spans(spans.clone());
        assert_eq!(trace.trace_ids(), direct.trace_ids());
        for tid in trace.trace_ids() {
            assert_eq!(trace.run_indices(tid), direct.run_indices(tid));
        }
        assert_eq!(trace.spans().len(), direct.spans().len());
        for (a, b) in trace.spans().iter().zip(direct.spans()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn async_info_matches_span_semantics() {
        let spans = sample();
        let store = SpanStore::from_spans(&spans);
        let info = store.async_info(2);
        assert_eq!(info.flags & HAS_CID, HAS_CID);
        assert_eq!(info.cid, 42);
        assert_eq!(info.flags & IS_EXEC, IS_EXEC);
        assert_eq!(info.flags & IS_LAUNCH, 0);
        assert_eq!(store.async_info(0).flags & HAS_CID, 0);
    }

    #[test]
    fn async_info_first_tag_wins_like_span_tag() {
        // A string-typed first correlation_id tag hides a later integer one
        // (Span::tag returns the first match); the store must agree.
        let s = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1))
            .start(0)
            .tag(tag_keys::CORRELATION_ID, "not-a-number")
            .tag(tag_keys::CORRELATION_ID, 7u64)
            .tag(tag_keys::ASYNC_LAUNCH, false)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .finish(1);
        assert_eq!(s.correlation_id(), None);
        assert!(!s.is_async_launch());
        let store = SpanStore::from_spans(std::slice::from_ref(&s));
        let info = store.async_info(0);
        assert_eq!(info.flags & HAS_CID, 0, "string cid must not count");
        assert_eq!(info.flags & IS_LAUNCH, 0, "first launch tag is false");
        // Negative I64 cids are rejected, non-negative accepted — as_u64.
        let neg = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1))
            .start(0)
            .tag(tag_keys::CORRELATION_ID, TagValue::I64(-1))
            .finish(1);
        let pos = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1))
            .start(0)
            .tag(tag_keys::CORRELATION_ID, TagValue::I64(9))
            .finish(1);
        let store = SpanStore::from_spans(&[neg, pos]);
        assert_eq!(store.async_info(0).flags & HAS_CID, 0);
        assert_eq!(store.async_info(1).cid, 9);
    }

    #[test]
    fn views_borrow_without_allocating() {
        let spans = sample();
        let store = SpanStore::from_spans(&spans);
        let v = store.view(1);
        assert_eq!(v.name(), "conv2d/Conv2D");
        assert_eq!(v.level(), StackLevel::Layer);
        assert_eq!(v.tag_count(), 2);
        let tags: Vec<(&str, TagRef<'_>)> = v.tags().collect();
        assert_eq!(tags[1], ("shape", TagRef::Str("1x3x224x224")));
        let logs: Vec<(u64, &str)> = store.view(0).logs().collect();
        assert_eq!(logs, vec![(5, "warmup done")]);
        assert_eq!(store.iter().count(), 3);
    }

    #[test]
    fn clear_retains_names() {
        let mut store = SpanStore::from_spans(&sample());
        let names_before = store.names().len();
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.names().len(), names_before);
        assert!(store.trace_ids().is_empty());
        // The store stays usable after clearing.
        store.push(&sample()[0]);
        assert_eq!(store.len(), 1);
    }
}
