//! The traced run's self-measurement: spans around every call the
//! benchmark makes into a layer's public functions.
//!
//! A [`Probe`] records, per named stage, the number of calls, the wall
//! time and the allocation calls made inside it (see [`crate::alloc`]),
//! and keeps every span in memory so the run can be written out as a
//! Chrome trace at the end — xsp's own stages then open in the same
//! viewer as the profiles it produces. A disabled probe costs one branch
//! per call, and the untraced run never enables it.
//!
//! Span records carry no [`xsp_trace::SpanId`] until they are written out:
//! allocating ids while a stage runs would shift the id sequence of the
//! profiling run being measured.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use xsp_trace::export::ChromeTraceWriter;
use xsp_trace::{SpanBuilder, SpanId, StackLevel, TraceId};

/// Spans kept for the Chrome trace; later spans still feed the stage
/// totals. Reserved up front so recording never reallocates mid-stage.
const MAX_EVENTS: usize = 200_000;

/// Totals of one named stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    /// Completed calls.
    pub calls: u64,
    /// Summed wall time, ns.
    pub ns: u64,
    /// Allocation calls made on the calling thread inside the stage.
    pub thread_allocs: u64,
    /// Allocation calls made by the whole process inside the stage.
    pub global_allocs: u64,
}

impl Stage {
    /// Mean wall time per call, µs (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

struct Event {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    depth: usize,
}

struct Open {
    name: &'static str,
    start: Instant,
    event: Option<usize>,
    thread_allocs: u64,
    global_allocs: u64,
    own_thread: u64,
    own_global: u64,
}

/// Stage recorder; see the module docs.
pub struct Probe {
    enabled: bool,
    origin: Instant,
    events: Vec<Event>,
    open: Vec<Open>,
    stages: BTreeMap<&'static str, Stage>,
    /// Allocations the probe itself made (stage-map inserts), subtracted
    /// from every stage that was open around them.
    own_thread: u64,
    own_global: u64,
}

impl Probe {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            events: Vec::new(),
            open: Vec::new(),
            stages: BTreeMap::new(),
            own_thread: 0,
            own_global: 0,
        }
    }

    /// A recording probe.
    pub fn on() -> Self {
        Self {
            enabled: true,
            events: Vec::with_capacity(MAX_EVENTS),
            open: Vec::with_capacity(64),
            ..Self::off()
        }
    }

    /// Whether the probe records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a stage span; close it with [`Probe::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let event = (self.events.len() < MAX_EVENTS).then(|| {
            self.events.push(Event {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().and_then(|o| o.event),
                depth: self.open.len(),
            });
            self.events.len() - 1
        });
        self.open.push(Open {
            name,
            start,
            event,
            thread_allocs: alloc::thread_allocs(),
            global_allocs: alloc::global_allocs(),
            own_thread: self.own_thread,
            own_global: self.own_global,
        });
    }

    /// Closes the innermost open stage and returns its duration.
    pub fn end(&mut self) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let (thread_now, global_now) = (alloc::thread_allocs(), alloc::global_allocs());
        let now = Instant::now();
        let open = self
            .open
            .pop()
            .expect("Probe::end without a matching begin");
        let elapsed = now.duration_since(open.start);
        if let Some(i) = open.event {
            self.events[i].end_ns = now.duration_since(self.origin).as_nanos() as u64;
        }
        let thread =
            (thread_now - open.thread_allocs).saturating_sub(self.own_thread - open.own_thread);
        let global =
            (global_now - open.global_allocs).saturating_sub(self.own_global - open.own_global);
        let (t0, g0) = (alloc::thread_allocs(), alloc::global_allocs());
        let stage = self.stages.entry(open.name).or_default();
        stage.calls += 1;
        stage.ns += elapsed.as_nanos() as u64;
        stage.thread_allocs += thread;
        stage.global_allocs += global;
        self.own_thread += alloc::thread_allocs() - t0;
        self.own_global += alloc::global_allocs() - g0;
        elapsed
    }

    /// Adds totals measured elsewhere (another probe, or a duration timed
    /// outside any probe) to stage `name`, without a span.
    pub fn add(&mut self, name: &'static str, totals: Stage) {
        if !self.enabled {
            return;
        }
        let stage = self.stages.entry(name).or_default();
        stage.calls += totals.calls;
        stage.ns += totals.ns;
        stage.thread_allocs += totals.thread_allocs;
        stage.global_allocs += totals.global_allocs;
    }

    /// One call of `elapsed`, for [`Probe::add`].
    pub fn call(elapsed: Duration) -> Stage {
        Stage {
            calls: 1,
            ns: elapsed.as_nanos() as u64,
            ..Stage::default()
        }
    }

    /// Runs `f` inside a stage span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Totals of stage `name` (all zero when it never ran).
    pub fn stage(&self, name: &str) -> Stage {
        self.stages.get(name).copied().unwrap_or_default()
    }

    /// Writes the recorded spans as a Chrome trace (one row per nesting
    /// depth, on a wall clock starting at the probe's creation).
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<usize> {
        let file = io::BufWriter::new(std::fs::File::create(path)?);
        let mut writer = ChromeTraceWriter::new(file)?;
        let mut ids: Vec<SpanId> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let level = match e.depth {
                0 => StackLevel::Application,
                1 => StackLevel::Model,
                2 => StackLevel::Layer,
                3 => StackLevel::Library,
                _ => StackLevel::Kernel,
            };
            let builder = SpanBuilder::new(e.name, level, TraceId(1))
                .start(e.start_ns)
                .maybe_parent(e.parent.map(|p| ids[p]));
            ids.push(builder.id());
            // Spans still open when the run ended close at their start.
            writer.write_span(&builder.finish(e.end_ns.max(e.start_ns)))?;
        }
        let written = writer.written();
        writer.finish()?.flush()?;
        Ok(written)
    }
}
