//! Offline trace correlation (§III-A).
//!
//! Two reconstruction problems are solved here:
//!
//! 1. **Async correlation** — asynchronous operations (GPU kernels, async
//!    memcpy) appear as *two* spans: a launch span captured on the CPU
//!    timeline (CUPTI callback API) and an execution span on the GPU timeline
//!    (CUPTI activity API), linked by a `correlation_id` tag. Per the paper,
//!    "XSP uses the launch span's parent as the parent of the asynchronous
//!    function and uses the execution span to get the performance
//!    information". [`correlate_async_spans`] performs that merge.
//!
//! 2. **Parent reconstruction** — profilers at different stack levels cannot
//!    see each other, so e.g. kernel spans arrive without a layer parent.
//!    The [`CorrelationEngine`] builds an [`IntervalTree`] per stack level
//!    and assigns each orphan span the unique span one level up (among
//!    levels present) whose interval contains it. Ambiguities (several
//!    containing candidates, i.e. parallel events) are reported so the
//!    caller can re-run with serialized execution
//!    (`CUDA_LAUNCH_BLOCKING=1`).
//!
//! Both problems are solved by one pass, written once: the engine's
//! per-run routine reads spans through a small index-access trait
//! implemented for owned spans (`[Span]`) and for the columnar
//! [`SpanStore`], and returns a verdict per surviving span — source index,
//! resolved parent, merged launch index — plus the [`AmbiguityReport`].
//! Each representation keeps only its output step:
//!
//! * **owned spans** ([`CorrelationEngine::correlate`] and the incremental
//!   window) move out of the run into the [`CorrelatedTrace`]; a merged
//!   execution reads the launch tags it lacks from the launch span by
//!   reference, so no span or tag vector is cloned;
//! * **store entries** ([`CorrelationEngine::correlate_store`] and the
//!   daemon's [`StoreCorrelationCache`]) stay store indices, the launch's
//!   tags stay in the store's arena, and owned spans are built only by
//!   [`StoreCorrelation::materialize`].
//!
//! The pass walks each evaluation run once to merge async pairs and bucket
//! span indices per stack level, and builds interval trees *lazily* — a
//! level's tree is constructed on the first probe against it and cached
//! for every later probe in the run. Levels that are never probed (most
//! notably the kernel level, which holds the overwhelming majority of
//! spans but can never be anyone's parent) never pay for tree
//! construction. [`reconstruct_parents`] remains as the thin borrowing
//! wrapper the offline paths and tests use.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::intern::Name;
use crate::interval::{Interval, IntervalTree};
use crate::server::Trace;
use crate::span::{tag_keys, Span, SpanId, StackLevel, TagValue, TraceId};
use crate::store::{SpanStore, HAS_CID, IS_EXEC, IS_LAUNCH};

/// A span with its resolved parent and, for async operations, the launch
/// interval used during parent matching.
#[derive(Debug, Clone)]
pub struct CorrelatedSpan {
    /// The effective span. For async operations this carries the *execution*
    /// timing (performance information) with tags merged from both halves.
    pub span: Span,
    /// `[start, end]` of the launch span for async operations; parent
    /// matching uses this interval because the execution may slide past the
    /// end of the enclosing layer.
    pub launch_interval: Option<(u64, u64)>,
    /// Resolved parent (explicit or reconstructed).
    pub parent: Option<SpanId>,
}

impl CorrelatedSpan {
    /// The interval used for parent matching: the launch interval for async
    /// spans, the span's own interval otherwise.
    pub fn anchor_interval(&self) -> (u64, u64) {
        self.launch_interval
            .unwrap_or((self.span.start_ns, self.span.end_ns))
    }

    fn passthrough(span: Span) -> Self {
        CorrelatedSpan {
            launch_interval: None,
            parent: span.parent,
            span,
        }
    }
}

/// Ambiguities discovered during parent reconstruction.
#[derive(Debug, Clone, Default)]
pub struct AmbiguityReport {
    /// Spans with more than one containing candidate parent, along with all
    /// candidates. Best-effort resolution picked the tightest interval.
    pub ambiguous: Vec<(SpanId, Vec<SpanId>)>,
    /// Spans below the top level with no containing candidate at the level
    /// above (typically execution spans that slid past their layer when the
    /// launch interval was unavailable).
    pub orphans: Vec<SpanId>,
}

impl AmbiguityReport {
    /// Whether every parent was assigned uniquely.
    pub fn is_clean(&self) -> bool {
        self.ambiguous.is_empty() && self.orphans.is_empty()
    }

    /// Whether a serialized re-run (e.g. `CUDA_LAUNCH_BLOCKING=1`) is needed
    /// to obtain the missing correlation information (§III-A).
    pub fn needs_serialized_rerun(&self) -> bool {
        !self.ambiguous.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: AmbiguityReport) {
        self.ambiguous.extend(other.ambiguous);
        self.orphans.extend(other.orphans);
    }
}

/// A fully correlated trace: every span has a resolved parent (where one
/// exists) and async pairs are merged.
///
/// Like [`Trace`], this is an indexed store: the span table is built once by
/// the [`CorrelationEngine`] together with a `SpanId → index` map, the
/// resolved-parent adjacency, and the root set, so [`CorrelatedTrace::find`]
/// and [`CorrelatedTrace::children_of`] are map lookups instead of linear
/// scans and exporters/analyses borrow views instead of re-deriving them.
/// The span table is private; the only mutation the pipeline needs —
/// re-parenting a span after a serialized re-run — goes through
/// [`CorrelatedTrace::set_parent`], which keeps every index coherent.
#[derive(Debug, Clone, Default)]
pub struct CorrelatedTrace {
    /// Correlated spans in publication order.
    spans: Vec<CorrelatedSpan>,
    /// `SpanId → index` (first occurrence wins).
    index_of: FxHashMap<SpanId, usize>,
    /// Resolved parent → child indices, in appearance order.
    children: FxHashMap<SpanId, Vec<usize>>,
    /// Indices of spans with no parent *present in this trace*, ascending.
    roots: Vec<usize>,
    /// Reconstruction diagnostics.
    pub ambiguities: AmbiguityReport,
}

impl CorrelatedTrace {
    /// Builds the indexed store from correlated spans (used by the engine
    /// and by tests/oracles that assemble traces by hand).
    pub fn new(spans: Vec<CorrelatedSpan>, ambiguities: AmbiguityReport) -> Self {
        let mut index_of = FxHashMap::default();
        index_of.reserve(spans.len());
        for (i, s) in spans.iter().enumerate() {
            index_of.entry(s.span.id).or_insert(i);
        }
        let mut children: FxHashMap<SpanId, Vec<usize>> = FxHashMap::default();
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => {
                    children.entry(p).or_default().push(i);
                    if !index_of.contains_key(&p) {
                        roots.push(i);
                    }
                }
                None => roots.push(i),
            }
        }
        Self {
            spans,
            index_of,
            children,
            roots,
            ambiguities,
        }
    }

    /// All correlated spans, in publication order.
    pub fn spans(&self) -> &[CorrelatedSpan] {
        &self.spans
    }

    /// Iterates the effective [`Span`]s in publication order (the view
    /// exporters stream).
    pub fn iter_spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().map(|s| &s.span)
    }

    /// Spans at the given level.
    pub fn at_level(&self, level: StackLevel) -> impl Iterator<Item = &CorrelatedSpan> {
        self.spans.iter().filter(move |s| s.span.level == level)
    }

    /// Direct children of `parent`, in appearance order.
    pub fn children_of(&self, parent: SpanId) -> Vec<&CorrelatedSpan> {
        self.child_indices(parent)
            .iter()
            .map(|&i| &self.spans[i])
            .collect()
    }

    /// Indices of the direct children of `parent`, in appearance order.
    pub fn child_indices(&self, parent: SpanId) -> &[usize] {
        self.children.get(&parent).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Indices of spans whose parent is unset or absent from this trace
    /// (ascending) — the forest roots exporters traverse from.
    pub fn root_indices(&self) -> &[usize] {
        &self.roots
    }

    /// Finds a span by id through the built-once index map.
    pub fn find(&self, id: SpanId) -> Option<&CorrelatedSpan> {
        self.index_of.get(&id).map(|&i| &self.spans[i])
    }

    /// The index of a span id in the span table.
    pub fn position(&self, id: SpanId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// Re-parents the span at `idx`, keeping the span table, adjacency and
    /// root set coherent — the pipeline uses this to graft the serialized
    /// re-run's unambiguous kernel→layer assignment onto an async trace.
    pub fn set_parent(&mut self, idx: usize, parent: SpanId) {
        let old = self.spans[idx].parent;
        self.spans[idx].parent = Some(parent);
        self.spans[idx].span.parent = Some(parent);
        if old == Some(parent) {
            return;
        }
        if let Some(p) = old {
            if let Some(v) = self.children.get_mut(&p) {
                v.retain(|&i| i != idx);
            }
        }
        let siblings = self.children.entry(parent).or_default();
        let pos = siblings.partition_point(|&i| i < idx);
        siblings.insert(pos, idx);
        let was_root = match old {
            None => true,
            Some(p) => !self.index_of.contains_key(&p),
        };
        let is_root = !self.index_of.contains_key(&parent);
        if was_root != is_root {
            match self.roots.binary_search(&idx) {
                Ok(pos) if !is_root => {
                    self.roots.remove(pos);
                }
                Err(pos) if is_root => self.roots.insert(pos, idx),
                _ => {}
            }
        }
    }

    /// Total number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// A span's role in async correlation, derived from its tags once per
/// engine pass.
#[derive(Clone, Copy)]
enum AsyncRole {
    /// Launch half of an async pair (`async_launch` only), with its cid.
    Launch(u64),
    /// Execution half (`async_execution` only), with its cid.
    Execution(u64),
    /// No async tags, no cid, or both flags (an already-merged capture).
    Plain,
}

/// Derives a span's async-correlation role — the single definition of the
/// pairing semantics, shared by [`CorrelationEngine`] and
/// [`correlate_async_spans`] so the two paths cannot drift. A span carrying
/// *both* flags is an already-merged pair from a previous correlation
/// (e.g. a re-imported span-JSON-lines capture, where the execution span
/// absorbed the launch's tags); it takes part in no pairing, which makes
/// re-correlation idempotent.
fn async_role(s: &Span) -> AsyncRole {
    match s.correlation_id() {
        Some(cid) => match (s.is_async_launch(), s.is_async_execution()) {
            (true, false) => AsyncRole::Launch(cid),
            (false, true) => AsyncRole::Execution(cid),
            // both flags (already merged) or neither: plain span
            _ => AsyncRole::Plain,
        },
        None => AsyncRole::Plain,
    }
}

/// What the correlation pass reads of a span representation, by source
/// index: the run's position for a `[Span]`, the store index for a
/// [`SpanStore`].
trait SpanSource {
    fn role(&self, i: u32) -> AsyncRole;
    fn id(&self, i: u32) -> SpanId;
    fn level(&self, i: u32) -> StackLevel;
    fn interval(&self, i: u32) -> (u64, u64);
    fn parent(&self, i: u32) -> Option<SpanId>;
}

impl SpanSource for [Span] {
    fn role(&self, i: u32) -> AsyncRole {
        async_role(&self[i as usize])
    }

    fn id(&self, i: u32) -> SpanId {
        self[i as usize].id
    }

    fn level(&self, i: u32) -> StackLevel {
        self[i as usize].level
    }

    fn interval(&self, i: u32) -> (u64, u64) {
        let s = &self[i as usize];
        (s.start_ns, s.end_ns)
    }

    fn parent(&self, i: u32) -> Option<SpanId> {
        self[i as usize].parent
    }
}

impl SpanSource for SpanStore {
    /// The same facts [`async_role`] derives from tags, read from the
    /// columns the store precomputed at push.
    fn role(&self, i: u32) -> AsyncRole {
        let info = self.async_info(i);
        if info.flags & HAS_CID == 0 {
            return AsyncRole::Plain;
        }
        match (info.flags & IS_LAUNCH != 0, info.flags & IS_EXEC != 0) {
            (true, false) => AsyncRole::Launch(info.cid),
            (false, true) => AsyncRole::Execution(info.cid),
            _ => AsyncRole::Plain,
        }
    }

    fn id(&self, i: u32) -> SpanId {
        self.id_at(i)
    }

    fn level(&self, i: u32) -> StackLevel {
        self.level_at(i)
    }

    fn interval(&self, i: u32) -> (u64, u64) {
        self.interval_at(i)
    }

    fn parent(&self, i: u32) -> Option<SpanId> {
        self.parent_at(i)
    }
}

/// The correlation pass's verdict on one surviving span, by source index.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// The span that survives: for a merged async pair, the execution half
    /// (its timing is the performance information).
    span: u32,
    /// Resolved parent: the span's explicit parent, the merged launch's
    /// parent, or a reconstructed one.
    parent: Option<SpanId>,
    /// The launch half merged into `span`; its interval anchors parent
    /// matching and its tags fill the ones the execution lacks.
    launch: Option<u32>,
}

/// Reusable correlation state: per-level index buckets and the lazy
/// interval-tree cache.
///
/// One engine correlates one [`Trace`] at a time (any number of evaluation
/// runs) and may be reused across traces — the scratch buffers keep their
/// capacity. Within one run, a level's tree is built on the first probe
/// against that level and cached for the rest of the run: every child level
/// below shares it, so the layer tree is built once for all kernels and
/// library calls, and levels nothing ever probes (the kernel level — the
/// largest — can never be a parent candidate) are never built at all.
/// [`CorrelationEngine::trees_built`] exposes the construction count so
/// tests can pin the laziness.
///
/// # Incremental mode
///
/// Besides the one-shot [`CorrelationEngine::correlate`] /
/// [`CorrelationEngine::correlate_store`] entry points, the engine consumes
/// span batches *as they arrive*: [`CorrelationEngine::push_batch`] routes
/// each owned span into a sliding window of per-run span vectors (keyed by
/// [`TraceId`], first-appearance order), and
/// [`CorrelationEngine::finalize_run`] / [`CorrelationEngine::finalize_all`]
/// run the correlation pass over a window run and retire it, moving its
/// spans into the output. Because async pairing scans a whole run (a launch
/// may precede its execution by an arbitrary number of batches), the run
/// is the finalization unit: peak memory is bounded by the unfinalized
/// window rather than the whole sweep, and correlation work overlaps the
/// evaluation that produces later runs. Finalizing runs in
/// first-appearance order yields output byte-identical to the batch engine
/// (the oracle proptest and goldens pin this).
#[derive(Default)]
pub struct CorrelationEngine {
    /// Per-level verdict indices of the run being correlated, `StackLevel`
    /// rank as the slot.
    level_buckets: [Vec<usize>; StackLevel::ALL.len()],
    /// Lazily built per-level trees for the run being correlated.
    trees: [Option<IntervalTree>; StackLevel::ALL.len()],
    /// Cumulative count of tree constructions per level (across runs and
    /// traces) — observability for the laziness contract.
    trees_built: [usize; StackLevel::ALL.len()],
    /// Sliding window of unfinalized runs, first-appearance order. Spans
    /// arrive owned and leave owned, so the window holds them as they are.
    window: Vec<(TraceId, Vec<Span>)>,
}

impl CorrelationEngine {
    /// Creates an engine with empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interval trees built at `level` so far.
    pub fn trees_built_at(&self, level: StackLevel) -> usize {
        self.trees_built[level.rank() as usize]
    }

    /// Total number of interval trees built so far.
    pub fn trees_built(&self) -> usize {
        self.trees_built.iter().sum()
    }

    /// Buffers one span into the incremental window, routed by its run id.
    ///
    /// A push for a run that was already finalized opens a *fresh* window
    /// entry for that id: spans arriving after finalization correlate among
    /// themselves only, exactly as if they were a new run (the
    /// window-eviction hazard tests pin this).
    pub fn push_span(&mut self, span: Span) {
        let tid = span.trace_id;
        // Runs in flight at once are few (the window is the point), so a
        // linear scan beats a map here.
        let slot = match self.window.iter().position(|(t, _)| *t == tid) {
            Some(i) => i,
            None => {
                self.window.push((tid, Vec::new()));
                self.window.len() - 1
            }
        };
        self.window[slot].1.push(span);
    }

    /// Buffers a batch of spans into the incremental window
    /// ([`CorrelationEngine::push_span`] per span, in order). Batches may
    /// split runs arbitrarily — mid-run, mid-async-pair — and may interleave
    /// runs; only the per-run span order matters for the output.
    pub fn push_batch(&mut self, batch: impl IntoIterator<Item = Span>) {
        for span in batch {
            self.push_span(span);
        }
    }

    /// Run ids currently buffered in the window, first-appearance order —
    /// the order [`CorrelationEngine::finalize_all`] retires them in.
    pub fn pending_runs(&self) -> Vec<TraceId> {
        self.window.iter().map(|(tid, _)| *tid).collect()
    }

    /// Total spans buffered in the window across all pending runs.
    pub fn pending_spans(&self) -> usize {
        self.window.iter().map(|(_, spans)| spans.len()).sum()
    }

    /// Correlates and retires one window run, moving its buffered spans
    /// into the result.
    ///
    /// Returns `None` when the run id is not in the window (never pushed,
    /// already finalized, or a duplicate flush) — finalization is
    /// idempotent per run. The correlated output is byte-identical to what
    /// the batch engine would emit for this run's spans.
    pub fn finalize_run(&mut self, run: TraceId) -> Option<CorrelatedTrace> {
        let pos = self.window.iter().position(|(tid, _)| *tid == run)?;
        let (_, spans) = self.window.remove(pos);
        let mut out = Vec::with_capacity(spans.len());
        let mut ambiguities = AmbiguityReport::default();
        self.correlate_spans(spans, &mut out, &mut ambiguities);
        Some(CorrelatedTrace::new(out, ambiguities))
    }

    /// Correlates and retires every pending window run, first-appearance
    /// order, into one [`CorrelatedTrace`].
    ///
    /// Feeding the engine via [`crate::TracingServer::drain_each`] and
    /// finalizing here produces exactly the bytes of
    /// `engine.correlate(server.drain())`: drained batches arrive grouped
    /// by ascending run id, so window order, per-run span order, and the
    /// per-run correlation pass all coincide with the batch path. An empty
    /// window yields an empty trace.
    pub fn finalize_all(&mut self) -> CorrelatedTrace {
        let window = std::mem::take(&mut self.window);
        let mut out = Vec::with_capacity(window.iter().map(|(_, spans)| spans.len()).sum());
        let mut ambiguities = AmbiguityReport::default();
        for (_, spans) in window {
            self.correlate_spans(spans, &mut out, &mut ambiguities);
        }
        CorrelatedTrace::new(out, ambiguities)
    }

    /// Correlates every evaluation run of `trace` — async-pair merge plus
    /// parent reconstruction — consuming the trace so no span is cloned.
    ///
    /// Runs are processed independently in first-appearance order; the
    /// resulting span order, parent assignments and ambiguity report are
    /// identical to correlating each run's sub-trace on its own (the
    /// byte-identity goldens pin this).
    pub fn correlate(&mut self, trace: Trace) -> CorrelatedTrace {
        let mut ambiguities = AmbiguityReport::default();
        let mut out: Vec<CorrelatedSpan> = Vec::with_capacity(trace.len());
        for run in Self::run_buckets(trace) {
            self.correlate_spans(run, &mut out, &mut ambiguities);
        }
        CorrelatedTrace::new(out, ambiguities)
    }

    /// Splits a consumed trace into per-run span vectors, first-appearance
    /// order. Single-run traces (the pipeline hot path) move straight
    /// through.
    fn run_buckets(trace: Trace) -> Vec<Vec<Span>> {
        if trace.is_empty() {
            return Vec::new();
        }
        if trace.trace_ids().len() == 1 {
            return vec![trace.into_spans()];
        }
        let (spans, runs) = trace.into_parts();
        let mut slots: Vec<Option<Span>> = spans.into_iter().map(Some).collect();
        runs.into_iter()
            .map(|(_, idxs)| {
                idxs.into_iter()
                    .map(|i| slots[i].take().expect("each span moved once"))
                    .collect()
            })
            .collect()
    }

    /// The owned-span output step: correlates one run and moves each
    /// surviving span into `out`. A merged execution takes its parent from
    /// the verdict and the launch tags it lacks, read from the launch span
    /// by reference (one launch may serve several executions).
    fn correlate_spans(
        &mut self,
        spans: Vec<Span>,
        out: &mut Vec<CorrelatedSpan>,
        ambiguities: &mut AmbiguityReport,
    ) {
        let n = u32::try_from(spans.len()).expect("run exceeds u32 span indices");
        let mut verdicts = Vec::with_capacity(spans.len());
        self.correlate_run(&spans[..], 0..n, &mut verdicts, ambiguities);
        let mut slots: Vec<Option<Span>> = spans.into_iter().map(Some).collect();
        for v in verdicts {
            let mut span = slots[v.span as usize]
                .take()
                .expect("each span survives at most once");
            span.parent = v.parent;
            let launch_interval = v.launch.map(|l| {
                let launch = slots[l as usize]
                    .as_ref()
                    .expect("merged launch halves never survive");
                for (k, val) in &launch.tags {
                    if span.tag(k).is_none() {
                        span.tags.push((k.clone(), val.clone()));
                    }
                }
                (launch.start_ns, launch.end_ns)
            });
            out.push(CorrelatedSpan {
                span,
                parent: v.parent,
                launch_interval,
            });
        }
    }

    /// Correlates every run of `store` without materializing a single
    /// owned [`Span`]: the verdicts reference store indices, so merged
    /// launch tags stay in the store's tag arena until
    /// [`StoreCorrelation::materialize`].
    pub fn correlate_store(&mut self, store: &SpanStore) -> StoreCorrelation {
        let mut out = StoreCorrelation {
            entries: Vec::with_capacity(store.len()),
            ambiguities: AmbiguityReport::default(),
        };
        for (_, idxs) in store.run_buckets() {
            self.correlate_run(
                store,
                idxs.iter().copied(),
                &mut out.entries,
                &mut out.ambiguities,
            );
        }
        out
    }

    /// The correlation pass over one run, whatever holds its spans: async
    /// pairs merge, the surviving spans are bucketed per stack level, then
    /// each span without an explicit parent probes the lazily built level
    /// trees above it. Appends one verdict per surviving span to `out`, in
    /// run order.
    fn correlate_run<S: SpanSource + ?Sized>(
        &mut self,
        src: &S,
        run: impl IntoIterator<Item = u32>,
        out: &mut Vec<Verdict>,
        ambiguities: &mut AmbiguityReport,
    ) {
        for bucket in &mut self.level_buckets {
            bucket.clear();
        }
        for tree in &mut self.trees {
            *tree = None;
        }
        let base = out.len();

        // Classification: each span's async role, derived exactly once
        // (for owned spans a linear tag-key scan), and which correlation
        // ids have an execution half.
        let roles: Vec<(u32, AsyncRole)> = run.into_iter().map(|i| (i, src.role(i))).collect();
        let mut exec_cids: FxHashSet<u64> = FxHashSet::default();
        for &(_, role) in &roles {
            if let AsyncRole::Execution(cid) = role {
                exec_cids.insert(cid);
            }
        }
        // Pairing: the last launch of each executed cid wins; one launch
        // serves every execution that shares its cid.
        let mut launches: FxHashMap<u64, u32> = FxHashMap::default();
        for &(i, role) in &roles {
            if let AsyncRole::Launch(cid) = role {
                if exec_cids.contains(&cid) {
                    launches.insert(cid, i);
                }
            }
        }

        // Merge: paired launches fold into their executions (timing from
        // the execution, parent from the launch) and drop out; unpaired
        // halves and plain spans pass through.
        for &(i, role) in &roles {
            let launch = match role {
                AsyncRole::Execution(cid) => launches.get(&cid).copied(),
                AsyncRole::Launch(cid) if exec_cids.contains(&cid) => continue,
                _ => None,
            };
            let parent = src.parent(launch.unwrap_or(i));
            self.level_buckets[src.level(i).rank() as usize].push(out.len());
            out.push(Verdict {
                span: i,
                parent,
                launch,
            });
        }

        // Which levels exist in this run, ordered top-to-bottom.
        let levels: Vec<StackLevel> = StackLevel::ALL
            .iter()
            .copied()
            .filter(|l| !self.level_buckets[l.rank() as usize].is_empty())
            .collect();

        for v in base..out.len() {
            if out[v].parent.is_some() {
                continue; // explicit reference wins
            }
            let si = out[v].span;
            let Some(pos) = levels.iter().position(|&l| l == src.level(si)) else {
                continue;
            };
            if pos == 0 {
                continue; // top level present: no parent expected
            }
            // Candidate intervals, in preference order: the launch interval
            // for async spans ("XSP uses the kernel launch span to associate
            // it with the parent layer span"), then the span's own execution
            // interval — needed when the parent profiler reports
            // device-anchored intervals, as TensorFlow's device tracer does.
            let own = src.interval(si);
            let anchor = out[v].launch.map_or(own, |l| src.interval(l));
            let probes = [anchor, own];
            let probes = if anchor == own {
                &probes[..1]
            } else {
                &probes[..]
            };
            // Search the nearest level above first; when nothing there
            // contains the span (e.g. a memcpy issued during model-level
            // pre-processing, with no enclosing layer), walk further up the
            // stack.
            let mut candidates: Vec<usize> = Vec::new();
            'search: for ancestor in levels[..pos].iter().rev() {
                let rank = ancestor.rank() as usize;
                let tree = self.trees[rank].get_or_insert_with(|| {
                    self.trees_built[rank] += 1;
                    IntervalTree::build(
                        self.level_buckets[rank]
                            .iter()
                            .map(|&c| {
                                let (start, end) = src.interval(out[c].span);
                                Interval::new(start, end, c)
                            })
                            .collect(),
                    )
                });
                for &(lo, hi) in probes {
                    candidates = tree.containing(lo, hi).map(|iv| iv.key).collect();
                    // A span never parents itself (possible only with equal
                    // intervals at mixed levels, but be safe).
                    candidates.retain(|&c| c != v);
                    if !candidates.is_empty() {
                        break 'search;
                    }
                }
            }
            let id_of = |c: usize| src.id(out[c].span);
            let parent = match candidates[..] {
                [] => {
                    ambiguities.orphans.push(src.id(si));
                    continue;
                }
                [only] => id_of(only),
                _ => {
                    // Best effort: tightest containing interval.
                    let best = *candidates
                        .iter()
                        .min_by_key(|&&c| {
                            let (start, end) = src.interval(out[c].span);
                            end - start
                        })
                        .expect("nonempty");
                    let all = candidates.iter().map(|&c| id_of(c)).collect();
                    ambiguities.ambiguous.push((src.id(si), all));
                    id_of(best)
                }
            };
            out[v].parent = Some(parent);
        }
    }
}

/// The result of [`CorrelationEngine::correlate_store`]: correlation
/// verdicts over a [`SpanStore`], without any owned [`Span`]s.
///
/// Verdicts reference spans by store index, and a merged pair references
/// its launch half, whose tags stay in the store's arena.
/// [`StoreCorrelation::materialize`] is the store's output step: it builds
/// the owned [`CorrelatedTrace`] the analysis and export layers consume,
/// identical to running [`CorrelationEngine::correlate`] on the
/// materialized spans (pinned by the store-vs-span tests).
#[derive(Debug, Default)]
pub struct StoreCorrelation {
    entries: Vec<Verdict>,
    /// Parent reconstructions that failed or were ambiguous.
    pub ambiguities: AmbiguityReport,
}

impl StoreCorrelation {
    /// Number of correlated entries (merged async pairs count once).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no spans were correlated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Materializes the correlation into an owned [`CorrelatedTrace`],
    /// byte-equivalent to the span-based engine's output: each entry's span
    /// is rebuilt from the store with the correlated parent applied and any
    /// merged launch tags it lacks appended in launch order.
    pub fn materialize(&self, store: &SpanStore) -> CorrelatedTrace {
        CorrelatedTrace::new(
            self.materialized_spans(store).collect(),
            self.ambiguities.clone(),
        )
    }

    /// The owned correlated spans of [`StoreCorrelation::materialize`],
    /// without the trace indexing — callers concatenating several per-run
    /// correlations (the daemon's cached prefix) collect these and index
    /// once at the end.
    fn materialized_spans<'s>(
        &'s self,
        store: &'s SpanStore,
    ) -> impl Iterator<Item = CorrelatedSpan> + 's {
        self.entries.iter().map(move |v| {
            let mut span = store.materialize(v.span);
            span.parent = v.parent;
            let launch_interval = v.launch.map(|l| {
                for t in store.tag_range(l) {
                    let key = store.names().resolve(store.tag_key_at(t));
                    if span.tag(key).is_none() {
                        span.tags.push(store.tag_pair_at(t));
                    }
                }
                store.interval_at(l)
            });
            CorrelatedSpan {
                span,
                parent: v.parent,
                launch_interval,
            }
        })
    }
}

/// One run's cached correlation: the run id and span count it was computed
/// at, plus the verdicts themselves.
struct CachedRun {
    trace_id: TraceId,
    /// Span count of the run bucket when the correlation was computed; a
    /// grown bucket invalidates this entry (runs are append-only, so a
    /// matching `(trace_id, len)` pair means an identical bucket).
    len: usize,
    correlation: StoreCorrelation,
}

/// A per-run correlation cache over an append-only [`SpanStore`] — the
/// "finalized prefix" that makes repeat exports O(new spans).
///
/// [`StoreCorrelationCache::refresh`] walks the store's run buckets and
/// re-correlates only the runs whose span count changed since the last
/// refresh (runs are append-only: a bucket with the same run id and length
/// is bit-identical, so its cached verdicts still hold). The daemon's
/// resident sessions keep one of these per session: an `Export` request
/// with no new spans re-correlates nothing at all, and one that appended
/// spans to a single run pays exactly one correlation pass.
///
/// The cache is keyed by position, so it must be [`invalidate`]d whenever
/// the underlying store is rebuilt or cleared (e.g. after a quota spill) —
/// store indices restart from zero and a positional comparison would
/// wrongly validate stale entries.
///
/// [`invalidate`]: StoreCorrelationCache::invalidate
#[derive(Default)]
pub struct StoreCorrelationCache {
    runs: Vec<CachedRun>,
    passes: usize,
}

impl StoreCorrelationCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of per-run correlation passes executed so far — the
    /// observability hook behind the daemon's O(new-spans) export contract
    /// (a repeat export with nothing new must not move this counter).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Number of runs currently cached.
    pub fn runs_cached(&self) -> usize {
        self.runs.len()
    }

    /// Drops every cached run. Call when the underlying store's indices
    /// are no longer those the cache was computed against (the store was
    /// cleared or rebuilt).
    pub fn invalidate(&mut self) {
        self.runs.clear();
    }

    /// Brings the cache up to date with `store`: cached runs whose id and
    /// span count still match are kept verbatim; everything from the first
    /// divergence on is re-correlated through `engine` (one pass per run).
    pub fn refresh(&mut self, engine: &mut CorrelationEngine, store: &SpanStore) {
        let buckets = store.run_buckets();
        let valid = self
            .runs
            .iter()
            .zip(buckets)
            .take_while(|(cached, (tid, idxs))| cached.trace_id == *tid && cached.len == idxs.len())
            .count();
        self.runs.truncate(valid);
        for (tid, idxs) in &buckets[valid..] {
            let mut correlation = StoreCorrelation::default();
            engine.correlate_run(
                store,
                idxs.iter().copied(),
                &mut correlation.entries,
                &mut correlation.ambiguities,
            );
            self.passes += 1;
            self.runs.push(CachedRun {
                trace_id: *tid,
                len: idxs.len(),
                correlation,
            });
        }
    }

    /// Materializes the cached correlations, in run order, into one
    /// [`CorrelatedTrace`] — identical to
    /// `engine.correlate_store(store).materialize(store)` (runs correlate
    /// independently and the cache preserves bucket order), but only the
    /// refresh paid correlation cost.
    pub fn materialize(&self, store: &SpanStore) -> CorrelatedTrace {
        let mut spans = Vec::new();
        let mut ambiguities = AmbiguityReport::default();
        for run in &self.runs {
            spans.extend(run.correlation.materialized_spans(store));
            ambiguities.merge(run.correlation.ambiguities.clone());
        }
        CorrelatedTrace::new(spans, ambiguities)
    }
}

/// Merges async launch/execution span pairs by correlation id.
///
/// Returns correlated spans where each async pair became a single entry
/// (execution timing + merged tags + launch parent/interval) plus all
/// non-async spans unchanged. Unpaired halves are passed through unchanged —
/// a launch whose kernel never ran, or an execution record whose callback was
/// dropped, must stay visible to the analysis. A span carrying *both* async
/// flags is an already-merged pair (a re-imported capture) and passes
/// through untouched, so correlation is idempotent.
///
/// This is the borrowing single-step API; the pipeline itself goes through
/// [`CorrelationEngine::correlate`], which performs the same merge without
/// cloning spans.
pub fn correlate_async_spans(spans: &[Span]) -> Vec<CorrelatedSpan> {
    let mut launches: FxHashMap<u64, &Span> = FxHashMap::default();
    let mut exec_cids: FxHashSet<u64> = FxHashSet::default();
    for s in spans {
        match async_role(s) {
            AsyncRole::Launch(cid) => {
                launches.insert(cid, s);
            }
            AsyncRole::Execution(cid) => {
                exec_cids.insert(cid);
            }
            AsyncRole::Plain => {}
        }
    }

    let mut out = Vec::with_capacity(spans.len());
    for s in spans {
        match async_role(s) {
            AsyncRole::Execution(cid) => {
                if let Some(launch) = launches.get(&cid) {
                    // Merge: execution timing, union of tags, launch parent.
                    let mut merged = s.clone();
                    merged.parent = launch.parent;
                    for (k, v) in &launch.tags {
                        if merged.tag(k).is_none() {
                            merged.tags.push((k.clone(), v.clone()));
                        }
                    }
                    out.push(CorrelatedSpan {
                        launch_interval: Some((launch.start_ns, launch.end_ns)),
                        parent: merged.parent,
                        span: merged,
                    });
                } else {
                    out.push(CorrelatedSpan::passthrough(s.clone()));
                }
            }
            AsyncRole::Launch(cid) => {
                // Launch halves are folded into their execution span; keep
                // only unpaired launches.
                if !exec_cids.contains(&cid) {
                    out.push(CorrelatedSpan::passthrough(s.clone()));
                }
            }
            AsyncRole::Plain => out.push(CorrelatedSpan::passthrough(s.clone())),
        }
    }
    out
}

/// Reconstructs the parent of every span lacking an explicit reference, per
/// evaluation run, and returns the correlated trace.
///
/// For each stack level present in the trace, candidate parents for a child
/// at level `L` are spans at the *nearest* level above `L` that is present.
/// A unique containing candidate becomes the parent. Multiple candidates are
/// recorded in the [`AmbiguityReport`] (best-effort: tightest containing
/// interval wins), mirroring the paper's requirement of a serialized re-run
/// for parallel events.
///
/// This is the borrowing wrapper over [`CorrelationEngine::correlate`] (one
/// clone of the span table); callers that own their [`Trace`] should feed
/// the engine directly and pay no clone at all.
pub fn reconstruct_parents(trace: &Trace) -> CorrelatedTrace {
    CorrelationEngine::new().correlate(trace.clone_parts())
}

/// Convenience: attaches a numeric tag to a span (used by adapters when
/// merging metric values post-hoc).
pub fn set_tag(span: &mut Span, key: impl Into<Name>, value: TagValue) {
    let key = key.into();
    if let Some(slot) = span.tags.iter_mut().find(|(k, _)| *k == key) {
        slot.1 = value;
    } else {
        span.tags.push((key, value));
    }
}

/// Extracts a named metric tag as `f64` from a span, if present.
pub fn metric_f64(span: &Span, key: &str) -> Option<f64> {
    span.tag(key).and_then(|v| v.as_f64())
}

/// Extracts the standard GPU metric tags (`flop_count_sp`,
/// `dram_read_bytes`, `dram_write_bytes`, `achieved_occupancy`).
pub fn gpu_metrics(span: &Span) -> (Option<u64>, Option<u64>, Option<u64>, Option<f64>) {
    (
        span.tag(tag_keys::FLOP_COUNT_SP).and_then(|v| v.as_u64()),
        span.tag(tag_keys::DRAM_READ_BYTES).and_then(|v| v.as_u64()),
        span.tag(tag_keys::DRAM_WRITE_BYTES)
            .and_then(|v| v.as_u64()),
        span.tag(tag_keys::ACHIEVED_OCCUPANCY)
            .and_then(|v| v.as_f64()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanBuilder, TraceId};

    fn span(name: &'static str, level: StackLevel, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, level, TraceId(1)).start(s).finish(e)
    }

    fn launch(name: &'static str, cid: u64, s: u64, e: u64, parent: Option<SpanId>) -> Span {
        SpanBuilder::new(name, StackLevel::Kernel, TraceId(1))
            .start(s)
            .maybe_parent(parent)
            .tag(tag_keys::CORRELATION_ID, cid)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .finish(e)
    }

    fn exec(name: &'static str, cid: u64, s: u64, e: u64) -> Span {
        SpanBuilder::new(name, StackLevel::Kernel, TraceId(1))
            .start(s)
            .tag(tag_keys::CORRELATION_ID, cid)
            .tag(tag_keys::ASYNC_EXECUTION, true)
            .tag(tag_keys::FLOP_COUNT_SP, 1000u64)
            .finish(e)
    }

    #[test]
    fn async_pair_merges_to_execution_timing() {
        let l = launch("cudaLaunchKernel", 7, 100, 110, None);
        let x = exec("convKernel", 7, 150, 400);
        let merged = correlate_async_spans(&[l, x]);
        assert_eq!(merged.len(), 1);
        let m = &merged[0];
        assert_eq!(m.span.start_ns, 150, "execution timing retained");
        assert_eq!(m.launch_interval, Some((100, 110)));
        assert_eq!(m.anchor_interval(), (100, 110));
        assert_eq!(
            m.span.tag(tag_keys::FLOP_COUNT_SP).unwrap().as_u64(),
            Some(1000)
        );
    }

    #[test]
    fn unpaired_halves_pass_through() {
        let l = launch("cudaLaunchKernel", 1, 0, 5, None);
        let x = exec("kernel", 2, 10, 20);
        let merged = correlate_async_spans(&[l, x]);
        assert_eq!(merged.len(), 2, "both unpaired halves kept");
    }

    #[test]
    fn reconstructs_kernel_to_layer_parent() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer1 = span("conv", StackLevel::Layer, 10, 400);
        layer1.parent = Some(mid);
        let l1 = layer1.id;
        let mut layer2 = span("relu", StackLevel::Layer, 420, 800);
        layer2.parent = Some(mid);
        // kernel launched inside layer1, executes way past layer1's end
        let l = launch("cudaLaunchKernel", 9, 50, 60, None);
        let x = exec("volta_scudnn", 9, 500, 900);
        let trace = Trace::from_spans(vec![model, layer1, layer2, l, x]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        let kernel = c
            .spans()
            .iter()
            .find(|s| s.span.name == "volta_scudnn")
            .unwrap();
        assert_eq!(
            kernel.parent,
            Some(l1),
            "launch interval must bind kernel to layer1"
        );
    }

    #[test]
    fn explicit_parent_is_preserved() {
        let model = span("predict", StackLevel::Model, 0, 100);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 0, 100);
        layer.parent = Some(mid);
        let trace = Trace::from_spans(vec![model, layer]);
        let c = reconstruct_parents(&trace);
        let l = c.spans().iter().find(|s| s.span.name == "conv").unwrap();
        assert_eq!(l.parent, Some(mid));
    }

    #[test]
    fn skips_missing_levels() {
        // No layer-level spans: kernels bind directly to the model span.
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let k = span("kernel", StackLevel::Kernel, 100, 200);
        let trace = Trace::from_spans(vec![model, k]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean());
        let kernel = c.spans().iter().find(|s| s.span.name == "kernel").unwrap();
        assert_eq!(kernel.parent, Some(mid));
    }

    #[test]
    fn parallel_parents_are_flagged_ambiguous() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut a = span("layerA", StackLevel::Layer, 0, 500);
        a.parent = Some(mid);
        let mut b = span("layerB", StackLevel::Layer, 0, 600); // overlaps A
        b.parent = Some(mid);
        let a_id = a.id;
        let k = span("kernel", StackLevel::Kernel, 100, 200);
        let trace = Trace::from_spans(vec![model, a, b, k]);
        let c = reconstruct_parents(&trace);
        assert!(!c.ambiguities.is_clean());
        assert!(c.ambiguities.needs_serialized_rerun());
        assert_eq!(c.ambiguities.ambiguous.len(), 1);
        // best effort picked the tighter span (layerA)
        let kernel = c.spans().iter().find(|s| s.span.name == "kernel").unwrap();
        assert_eq!(kernel.parent, Some(a_id));
    }

    #[test]
    fn orphans_are_reported() {
        let model = span("predict", StackLevel::Model, 0, 100);
        let k = span("stray", StackLevel::Kernel, 500, 600); // outside model
        let trace = Trace::from_spans(vec![model, k]);
        let c = reconstruct_parents(&trace);
        assert_eq!(c.ambiguities.orphans.len(), 1);
    }

    #[test]
    fn uncovered_kernel_walks_up_to_model_level() {
        // An H2D copy during pre-processing: layers exist elsewhere in the
        // trace but none contains the copy; it must bind to the model span.
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 300, 600);
        layer.parent = Some(mid);
        let copy = span("cudaMemcpyH2D", StackLevel::Kernel, 50, 120);
        let trace = Trace::from_spans(vec![model, layer, copy]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        let m = c
            .spans()
            .iter()
            .find(|s| s.span.name == "cudaMemcpyH2D")
            .unwrap();
        assert_eq!(m.parent, Some(mid));
    }

    #[test]
    fn runs_are_correlated_independently() {
        let mut m1 = span("predict", StackLevel::Model, 0, 100);
        m1.trace_id = TraceId(1);
        let mut k1 = span("k", StackLevel::Kernel, 10, 20);
        k1.trace_id = TraceId(1);
        // run 2 overlaps run 1 in virtual time but must not cross-link
        let mut m2 = span("predict", StackLevel::Model, 0, 100);
        m2.trace_id = TraceId(2);
        let m2_id = m2.id;
        let mut k2 = span("k", StackLevel::Kernel, 10, 20);
        k2.trace_id = TraceId(2);
        let m1_id = m1.id;
        let trace = Trace::from_spans(vec![m1, k1, m2, k2]);
        let c = reconstruct_parents(&trace);
        assert!(c.ambiguities.is_clean());
        let parents: Vec<Option<SpanId>> = c
            .spans()
            .iter()
            .filter(|s| s.span.level == StackLevel::Kernel)
            .map(|s| s.parent)
            .collect();
        assert_eq!(parents, vec![Some(m1_id), Some(m2_id)]);
    }

    #[test]
    fn kernel_level_tree_is_never_built() {
        // The laziness contract behind the hot-path win: the kernel level
        // holds the bulk of the spans but can never be a parent candidate,
        // so its interval tree must never be constructed.
        let model = span("predict", StackLevel::Model, 0, 100_000);
        let mid = model.id;
        let mut spans = vec![model];
        for i in 0..50u64 {
            let mut layer = span("conv", StackLevel::Layer, i * 1000, i * 1000 + 900);
            layer.parent = Some(mid);
            spans.push(layer);
        }
        for i in 0..500u64 {
            let at = (i % 50) * 1000;
            spans.push(launch("cudaLaunchKernel", i, at + 10, at + 20, None));
            spans.push(exec("volta_kernel", i, at + 30, at + 800));
        }
        let mut engine = CorrelationEngine::new();
        let c = engine.correlate(Trace::from_spans(spans));
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        assert_eq!(
            engine.trees_built_at(StackLevel::Kernel),
            0,
            "kernel tree must stay lazy"
        );
        assert_eq!(engine.trees_built_at(StackLevel::Layer), 1);
        assert_eq!(
            engine.trees_built_at(StackLevel::Model),
            0,
            "every kernel found a layer, so the model tree is never probed"
        );
    }

    #[test]
    fn engine_scratch_is_reusable_across_traces() {
        let mk = || {
            let model = span("predict", StackLevel::Model, 0, 1000);
            let k = span("kernel", StackLevel::Kernel, 100, 200);
            Trace::from_spans(vec![model, k])
        };
        let mut engine = CorrelationEngine::new();
        let a = engine.correlate(mk());
        let b = engine.correlate(mk());
        assert_eq!(a.len(), b.len());
        assert!(b.ambiguities.is_clean());
        assert_eq!(engine.trees_built_at(StackLevel::Model), 2);
    }

    #[test]
    fn indexed_lookups_match_linear_semantics() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 10, 400);
        layer.parent = Some(mid);
        let lid = layer.id;
        let k1 = span("k1", StackLevel::Kernel, 20, 100);
        let k2 = span("k2", StackLevel::Kernel, 120, 300);
        let trace = Trace::from_spans(vec![model, layer, k1, k2]);
        let c = reconstruct_parents(&trace);
        assert_eq!(c.find(lid).unwrap().span.name, "conv");
        assert_eq!(c.position(lid), Some(1));
        let kids = c.children_of(lid);
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].span.name, "k1");
        assert_eq!(kids[1].span.name, "k2");
        assert_eq!(c.root_indices(), &[0], "only the model span is a root");
    }

    #[test]
    fn set_parent_keeps_indexes_coherent() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut a = span("layerA", StackLevel::Layer, 0, 400);
        a.parent = Some(mid);
        let a_id = a.id;
        let mut b = span("layerB", StackLevel::Layer, 500, 900);
        b.parent = Some(mid);
        let b_id = b.id;
        let k = span("kernel", StackLevel::Kernel, 100, 200);
        let trace = Trace::from_spans(vec![model, a, b, k]);
        let mut c = reconstruct_parents(&trace);
        let kidx = c.position(c.spans()[3].span.id).unwrap();
        assert_eq!(c.spans()[kidx].parent, Some(a_id));
        c.set_parent(kidx, b_id);
        assert_eq!(c.spans()[kidx].parent, Some(b_id));
        assert_eq!(c.spans()[kidx].span.parent, Some(b_id));
        assert!(c.children_of(a_id).is_empty());
        assert_eq!(c.children_of(b_id).len(), 1);
        assert_eq!(c.root_indices(), &[0]);
        // re-parenting to an absent span makes it a root
        c.set_parent(kidx, SpanId(u64::MAX));
        assert_eq!(c.root_indices(), &[0, kidx]);
    }

    #[test]
    fn set_tag_overwrites() {
        let mut s = span("x", StackLevel::Kernel, 0, 1);
        set_tag(&mut s, "k", TagValue::U64(1));
        set_tag(&mut s, "k", TagValue::U64(2));
        assert_eq!(s.tag("k").unwrap().as_u64(), Some(2));
        assert_eq!(s.tags.iter().filter(|(k, _)| k == "k").count(), 1);
    }

    #[test]
    fn gpu_metrics_extraction() {
        let s = SpanBuilder::new("k", StackLevel::Kernel, TraceId(1))
            .start(0)
            .tag(tag_keys::FLOP_COUNT_SP, 10u64)
            .tag(tag_keys::DRAM_READ_BYTES, 20u64)
            .tag(tag_keys::DRAM_WRITE_BYTES, 30u64)
            .tag(tag_keys::ACHIEVED_OCCUPANCY, 0.25f64)
            .finish(1);
        assert_eq!(gpu_metrics(&s), (Some(10), Some(20), Some(30), Some(0.25)));
    }

    /// Asserts the store pass and the span pass produced identical results:
    /// same spans (ids, parents, timing, tags in order), same launch
    /// intervals, same ambiguity report.
    fn assert_matches_span_engine(spans: Vec<Span>) {
        let expected = CorrelationEngine::new().correlate(Trace::from_spans(spans.clone()));
        let store = crate::store::SpanStore::from_spans(&spans);
        let got = CorrelationEngine::new()
            .correlate_store(&store)
            .materialize(&store);
        assert_eq!(got.len(), expected.len(), "entry counts diverge");
        for (g, e) in got.spans().iter().zip(expected.spans()) {
            assert_eq!(g.span, e.span, "materialized span diverges");
            assert_eq!(g.parent, e.parent, "parent diverges for {:?}", e.span.name);
            assert_eq!(
                g.launch_interval, e.launch_interval,
                "launch interval diverges for {:?}",
                e.span.name
            );
        }
        assert_eq!(
            got.ambiguities.ambiguous, expected.ambiguities.ambiguous,
            "ambiguous sets diverge"
        );
        assert_eq!(
            got.ambiguities.orphans, expected.ambiguities.orphans,
            "orphan sets diverge"
        );
    }

    #[test]
    fn store_pass_matches_span_engine_on_async_merge() {
        // Launch carries tags the execution is missing (merged, in launch
        // order), one it already has (skipped), and a duplicate key within
        // the launch itself (first wins, second skipped via the growing
        // extras check).
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut layer = span("conv", StackLevel::Layer, 10, 400);
        layer.parent = Some(mid);
        let l = SpanBuilder::new("cudaLaunchKernel", StackLevel::Kernel, TraceId(1))
            .start(50)
            .tag(tag_keys::CORRELATION_ID, 9u64)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .tag("grid", "128x1x1")
            .tag(tag_keys::FLOP_COUNT_SP, 5u64) // exec already has it
            .tag("grid", "shadowed") // duplicate key inside launch
            .tag("stream", 3i64)
            .finish(60);
        let x = exec("volta_scudnn", 9, 500, 900);
        assert_matches_span_engine(vec![model, layer, l, x]);
    }

    #[test]
    fn store_pass_matches_span_engine_on_unpaired_and_both_flag_spans() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let lone_launch = launch("cudaLaunchKernel", 1, 10, 20, None);
        let lone_exec = exec("kernel", 2, 30, 40);
        // Both flags set: an already-merged pair, passes through untouched.
        let premerged = SpanBuilder::new("merged", StackLevel::Kernel, TraceId(1))
            .start(100)
            .tag(tag_keys::CORRELATION_ID, 3u64)
            .tag(tag_keys::ASYNC_LAUNCH, true)
            .tag(tag_keys::ASYNC_EXECUTION, true)
            .finish(200)
            .clone();
        assert_matches_span_engine(vec![model, lone_launch, lone_exec, premerged]);
    }

    #[test]
    fn store_pass_matches_span_engine_on_ambiguity_and_orphans() {
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mid = model.id;
        let mut a = span("layerA", StackLevel::Layer, 0, 500);
        a.parent = Some(mid);
        let mut b = span("layerB", StackLevel::Layer, 0, 600); // overlaps A
        b.parent = Some(mid);
        let k = span("kernel", StackLevel::Kernel, 100, 200); // ambiguous
        let stray = span("stray", StackLevel::Kernel, 5000, 6000); // orphan
        assert_matches_span_engine(vec![model, a, b, k, stray]);
    }

    #[test]
    fn store_pass_matches_span_engine_across_runs() {
        // Two interleaved runs plus an async pair per run; runs must stay
        // independent in both passes.
        let mut spans = Vec::new();
        for tid in [1u64, 2] {
            let mut m = span("predict", StackLevel::Model, 0, 1000);
            m.trace_id = TraceId(tid);
            let mid = m.id;
            let mut layer = span("conv", StackLevel::Layer, 10, 400);
            layer.trace_id = TraceId(tid);
            layer.parent = Some(mid);
            let mut l = launch("cudaLaunchKernel", 40 + tid, 50, 60, None);
            l.trace_id = TraceId(tid);
            let mut x = exec("volta", 40 + tid, 450, 900);
            x.trace_id = TraceId(tid);
            spans.extend([m, layer, l, x]);
        }
        // Interleave publication order across the two runs.
        spans.swap(1, 5);
        assert_matches_span_engine(spans);
    }

    /// Batch-engine oracle for the incremental API: pushing `spans` in the
    /// given batch splits and finalizing everything must reproduce
    /// `correlate(Trace::from_spans(spans))` exactly — spans, parents,
    /// launch intervals, ambiguity report.
    fn assert_incremental_matches_batch(spans: Vec<Span>, splits: &[usize]) {
        let expected = CorrelationEngine::new().correlate(Trace::from_spans(spans.clone()));
        let mut engine = CorrelationEngine::new();
        let mut rest = spans;
        for &at in splits {
            let at = at.min(rest.len());
            let tail = rest.split_off(at);
            engine.push_batch(rest);
            rest = tail;
        }
        engine.push_batch(rest);
        let got = engine.finalize_all();
        assert_eq!(got.len(), expected.len(), "span counts diverge");
        for (g, e) in got.spans().iter().zip(expected.spans()) {
            assert_eq!(g.span, e.span, "span diverges");
            assert_eq!(g.parent, e.parent, "parent diverges for {:?}", e.span.name);
            assert_eq!(g.launch_interval, e.launch_interval);
        }
        assert_eq!(got.ambiguities.ambiguous, expected.ambiguities.ambiguous);
        assert_eq!(got.ambiguities.orphans, expected.ambiguities.orphans);
    }

    #[test]
    fn incremental_async_pair_straddling_a_batch_boundary_matches_batch() {
        // The launch half arrives in one batch, its execution in the next:
        // the pair must still merge because pairing happens at
        // finalization, over the whole buffered run.
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mut layer = span("conv", StackLevel::Layer, 10, 400);
        layer.parent = Some(model.id);
        let l = launch("cudaLaunchKernel", 9, 50, 60, None);
        let x = exec("volta_scudnn", 9, 500, 900);
        // split between launch (index 2) and execution (index 3)
        assert_incremental_matches_batch(vec![model, layer, l, x], &[3]);
    }

    #[test]
    fn incremental_out_of_order_run_batches_match_batch() {
        // Batches interleave two runs (run 2 spans arrive between run 1
        // batches): per-run order is all that matters, and the output
        // keeps first-appearance run order like `Trace::from_spans`.
        let mut spans = Vec::new();
        for tid in [1u64, 2] {
            let mut m = span("predict", StackLevel::Model, 0, 1000);
            m.trace_id = TraceId(tid);
            let mid = m.id;
            let mut layer = span("conv", StackLevel::Layer, 10, 400);
            layer.trace_id = TraceId(tid);
            layer.parent = Some(mid);
            let mut l = launch("cudaLaunchKernel", 40 + tid, 50, 60, None);
            l.trace_id = TraceId(tid);
            let mut x = exec("volta", 40 + tid, 450, 900);
            x.trace_id = TraceId(tid);
            spans.extend([m, layer, l, x]);
        }
        // Interleave the runs, then split mid-everything.
        spans.swap(1, 5);
        spans.swap(3, 6);
        for splits in [&[1usize, 2, 3][..], &[4], &[7], &[2, 5]] {
            assert_incremental_matches_batch(spans.clone(), splits);
        }
    }

    #[test]
    fn incremental_empty_and_duplicate_flushes_are_inert() {
        let mut engine = CorrelationEngine::new();
        // Finalizing an unknown run: None, not a panic or empty trace.
        assert!(engine.finalize_run(TraceId(7)).is_none());
        // Empty finalize_all: an empty trace.
        assert!(engine.finalize_all().is_empty());
        engine.push_batch(Vec::new()); // empty batch is a no-op
        assert_eq!(engine.pending_spans(), 0);
        engine.push_span(span("predict", StackLevel::Model, 0, 100));
        assert_eq!(engine.pending_runs(), vec![TraceId(1)]);
        let first = engine.finalize_run(TraceId(1)).expect("run pending");
        assert_eq!(first.len(), 1);
        // Duplicate flush of the same run: already retired.
        assert!(engine.finalize_run(TraceId(1)).is_none());
        assert!(engine.pending_runs().is_empty());
    }

    #[test]
    fn incremental_late_spans_after_finalize_correlate_alone() {
        // The window-eviction hazard: once a run is finalized, its parent
        // candidates are gone. Late spans for the same id must behave as a
        // fresh run — correlated against each other only, matching the
        // batch oracle over just those spans.
        let model = span("predict", StackLevel::Model, 0, 1000);
        let mut engine = CorrelationEngine::new();
        engine.push_span(model);
        engine.finalize_run(TraceId(1)).expect("run pending");
        // Arrives after eviction: no model span in the window any more.
        let stray = span("late_kernel", StackLevel::Kernel, 100, 200);
        let oracle = CorrelationEngine::new().correlate(Trace::from_spans(vec![stray.clone()]));
        engine.push_span(stray);
        let got = engine.finalize_run(TraceId(1)).expect("fresh window run");
        assert_eq!(got.len(), oracle.len());
        assert_eq!(got.spans()[0].span, oracle.spans()[0].span);
        assert_eq!(got.spans()[0].parent, None, "no candidate: stays a root");
        // A kernel with no level above it in its run is not even an orphan
        // in the batch engine; the incremental path must agree.
        assert_eq!(got.ambiguities.orphans, oracle.ambiguities.orphans);
    }

    #[test]
    fn incremental_finalize_order_and_trees_stay_lazy() {
        // Per-run finalization reuses the engine scratch: the kernel-level
        // tree must stay unbuilt run after run, same as the batch pass.
        let mut engine = CorrelationEngine::new();
        for tid in [3u64, 1, 2] {
            let mut m = span("predict", StackLevel::Model, 0, 1000);
            m.trace_id = TraceId(tid);
            let mut k = span("kernel", StackLevel::Kernel, 100, 200);
            k.trace_id = TraceId(tid);
            engine.push_batch([m, k]);
        }
        assert_eq!(
            engine.pending_runs(),
            vec![TraceId(3), TraceId(1), TraceId(2)],
            "window keeps first-appearance order, not id order"
        );
        let all = engine.finalize_all();
        assert_eq!(all.len(), 6);
        assert!(all.ambiguities.is_clean());
        assert_eq!(engine.trees_built_at(StackLevel::Kernel), 0);
        assert_eq!(engine.trees_built_at(StackLevel::Model), 3, "one per run");
    }

    #[test]
    fn correlation_cache_matches_batch_and_does_o_new_work() {
        let run_spans = |tid: u64| {
            let mut m = span("predict", StackLevel::Model, 0, 1000);
            m.trace_id = TraceId(tid);
            let mid = m.id;
            let mut layer = span("conv", StackLevel::Layer, 10, 400);
            layer.trace_id = TraceId(tid);
            layer.parent = Some(mid);
            let mut l = launch("cudaLaunchKernel", 90 + tid, 50, 60, None);
            l.trace_id = TraceId(tid);
            let mut x = exec("volta", 90 + tid, 450, 900);
            x.trace_id = TraceId(tid);
            vec![m, layer, l, x]
        };
        let mut store = SpanStore::new();
        for s in run_spans(1).iter().chain(run_spans(2).iter()) {
            store.push(s);
        }
        let mut engine = CorrelationEngine::new();
        let mut cache = StoreCorrelationCache::new();
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 2, "one pass per run");
        assert_eq!(cache.runs_cached(), 2);

        // Identity vs the one-shot store pass.
        let batch = CorrelationEngine::new()
            .correlate_store(&store)
            .materialize(&store);
        let cached = cache.materialize(&store);
        assert_eq!(cached.len(), batch.len());
        for (c, b) in cached.spans().iter().zip(batch.spans()) {
            assert_eq!(c.span, b.span);
            assert_eq!(c.parent, b.parent);
            assert_eq!(c.launch_interval, b.launch_interval);
        }

        // Nothing new: a refresh re-correlates nothing.
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 2, "clean refresh must be free");

        // Appending to run 2 re-correlates run 2 only.
        let mut extra = span("kernel2", StackLevel::Kernel, 100, 200);
        extra.trace_id = TraceId(2);
        store.push(&extra);
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 3, "one grown run, one pass");

        // A new run appends one more pass, not a full recompute.
        for s in run_spans(3) {
            store.push(&s);
        }
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 4);

        // The refreshed cache still matches the batch pass.
        let batch = CorrelationEngine::new()
            .correlate_store(&store)
            .materialize(&store);
        let cached = cache.materialize(&store);
        assert_eq!(cached.len(), batch.len());
        for (c, b) in cached.spans().iter().zip(batch.spans()) {
            assert_eq!(c.span, b.span);
            assert_eq!(c.parent, b.parent);
        }

        // Invalidation after a store clear: everything recorrelates.
        store.clear();
        cache.invalidate();
        assert_eq!(cache.runs_cached(), 0);
        store.push(&span("predict", StackLevel::Model, 0, 10));
        cache.refresh(&mut engine, &store);
        assert_eq!(cache.passes(), 5);
        assert_eq!(cache.materialize(&store).len(), 1);
    }

    #[test]
    fn store_pass_is_allocation_shaped_like_the_span_pass() {
        // Same lazy-tree contract as the span engine: the kernel-level tree
        // is never built when every kernel resolves against layers.
        let model = span("predict", StackLevel::Model, 0, 100_000);
        let mid = model.id;
        let mut spans = vec![model];
        for i in 0..20u64 {
            let mut layer = span("conv", StackLevel::Layer, i * 1000, i * 1000 + 900);
            layer.parent = Some(mid);
            spans.push(layer);
        }
        for i in 0..100u64 {
            let at = (i % 20) * 1000;
            spans.push(launch("cudaLaunchKernel", i, at + 10, at + 20, None));
            spans.push(exec("volta_kernel", i, at + 30, at + 800));
        }
        let store = crate::store::SpanStore::from_spans(&spans);
        let mut engine = CorrelationEngine::new();
        let c = engine.correlate_store(&store);
        assert!(c.ambiguities.is_clean(), "{:?}", c.ambiguities);
        assert_eq!(c.len(), 1 + 20 + 100, "pairs merged");
        assert_eq!(engine.trees_built_at(StackLevel::Kernel), 0);
        assert_eq!(engine.trees_built_at(StackLevel::Layer), 1);
        assert_eq!(engine.trees_built_at(StackLevel::Model), 0);
    }
}
