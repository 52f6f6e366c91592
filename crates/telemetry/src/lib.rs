//! Service telemetry for the compile daemon.
//!
//! Two layers, both zero-dependency and cheap enough for the request
//! hot path:
//!
//! * [`metrics`] — the storage primitives: monotonic [`Counter`]s and
//!   fixed-bucket log-scale [`Histogram`]s. Both are plain atomics;
//!   recording never allocates and never takes a lock. The compile
//!   pipeline's phase names ([`SPAN_PHASE_NAMES`]) label the daemon's
//!   per-phase histograms.
//! * [`registry`] — a [`Registry`]: a table of named scrape entries over
//!   one state that owns the primitives, read into point-in-time
//!   [`Snapshot`]s. Prometheus text is their one rendering, and
//!   [`Snapshot::parse_prometheus`] reads it back into an equal snapshot.
//!
//! The contract the service relies on (see DESIGN.md §15): recording
//! never changes what it observes — every recording call is a handful of
//! relaxed atomic ops with no side effects on compile output, so the
//! daemon keeps its counts whether or not a registry exposes them.

pub mod metrics;
pub mod registry;

pub use metrics::{Buckets, Counter, Histogram, SPAN_PHASES, SPAN_PHASE_NAMES};
pub use registry::{HistSnapshot, MetricKind, Registry, SeriesValue, Snapshot};
