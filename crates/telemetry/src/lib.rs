//! Service telemetry for the compile daemon.
//!
//! Three layers, all zero-dependency and cheap enough for the request
//! hot path:
//!
//! * [`metrics`] — the storage primitives: monotonic [`Counter`]s and
//!   fixed-bucket log-scale [`Histogram`]s. Both are plain atomics;
//!   recording never allocates and never takes a lock.
//! * [`registry`] — a [`Registry`]: a table of named scrape entries over
//!   one state that owns the primitives, read into point-in-time
//!   [`Snapshot`]s. Prometheus text is their one rendering, and
//!   [`Snapshot::parse_prometheus`] reads it back into an equal snapshot.
//! * [`span`] — per-request structured [`SpanRecord`]s over the compile
//!   pipeline, counted by a [`SpanLog`] that keeps a bounded,
//!   pre-allocated top-K slow-request log.
//!
//! The contract the service relies on (see DESIGN.md §15): recording
//! never changes what it observes — every recording call is a handful of
//! relaxed atomic ops with no side effects on compile output, so the
//! daemon keeps its counts whether or not a registry exposes them.

pub mod metrics;
pub mod registry;
pub mod span;

pub use metrics::{quantile, Buckets, Counter, Histogram};
pub use registry::{HistSnapshot, MetricKind, Registry, SeriesValue, Snapshot};
pub use span::{Label, SpanLog, SpanRecord, SPAN_PHASES, SPAN_PHASE_NAMES};
