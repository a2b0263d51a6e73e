//! # xsp-trace — distributed-tracing substrate for across-stack profiling
//!
//! XSP ("across-stack profiling", Li & Dakkak et al., IPDPS 2020) observes
//! that aggregating profiles from disjoint profilers — model-level timers,
//! framework layer profilers, GPU kernel profilers — is structurally the same
//! problem distributed tracing solves for micro-services. This crate provides
//! the tracing machinery the paper's design rests on:
//!
//! * [`Span`]s — timed operations with ids (unique within an id scope),
//!   stack-level tags, key/value annotations and optional parent references
//!   (§III-A). Their strings are shared [`Name`]s, so a span costs its tag
//!   and log vectors, not an allocation per string.
//! * [`Tracer`]s — per-profiler span publishers; spans flow over a channel to
//!   a [`TracingServer`] that aggregates them into a single timeline
//!   [`Trace`] (§III-A).
//! * A [`CorrelationEngine`] that reconstructs missing parent-child
//!   relations between spans produced by profilers that cannot see each
//!   other (§III-A: "checking for interval set inclusion"), probing
//!   lazily built per-level [`IntervalTree`]s over an indexed span store.
//! * Async-operation correlation: a *launch* span and an *execution* span
//!   linked by a correlation identifier (§III-A/§III-B-3).
//! * Trimmed-mean statistics used by the automated analysis pipeline to
//!   summarize values across evaluation runs (§III-D).
//! * Export to Chrome trace-event JSON, folded stacks and span JSON —
//!   either as materialized `String`s ([`export`]) or incrementally over
//!   any `io::Write` with constant peak memory ([`export::stream`]).
//!
//! The crate is deliberately independent of what is being profiled: the GPU
//! simulator, the framework substrate and XSP itself all publish plain
//! [`Span`]s.

#![warn(missing_docs)]

pub mod clock;
pub mod correlate;
pub mod export;
pub mod fxhash;
pub mod hierarchy;
pub mod intern;
pub mod interval;
pub mod server;
pub mod span;
pub mod stats;
pub mod store;
pub mod tracer;

pub use clock::VirtualClock;
pub use correlate::{
    correlate_async_spans, reconstruct_parents, AmbiguityReport, CorrelatedTrace,
    CorrelationEngine, StoreCorrelation, StoreCorrelationCache,
};
pub use hierarchy::SpanTree;
pub use intern::{Name, NameTable, Symbol};
pub use interval::IntervalTree;
pub use server::{Trace, TracingServer};
pub use span::{with_span_id_scope, Span, SpanBuilder, SpanId, StackLevel, TagValue, TraceId};
pub use stats::{trimmed_mean, Summary};
pub use store::{SpanStore, SpanView, TagRef};
pub use tracer::{ChannelTracer, NoopTracer, SpanBuffer, Tracer};
