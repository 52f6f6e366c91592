//! In-memory span recorder for `raw-perf trace`.
//!
//! The harness records a span around each public call it makes into a layer:
//! name, start, end, the span that caused it, and the op it belongs to. Spans
//! are held in memory and written out when the run ends. A layer's *self
//! time* is its span's duration minus the part its child spans cover.
//!
//! A disabled tracer records nothing and never reads the clock, so the same
//! op code serves the untraced end-to-end run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name; also the name of the `*.ms` metric it feeds.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (input or request number) this span belongs to.
    pub op: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Span recorder. Cheap to create; one per thread that records.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// A tracer that records, with times relative to `epoch` (share one epoch
    /// between the tracers of several threads so their spans line up).
    pub fn recording(epoch: Instant) -> Self {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that ignores everything.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::recording(Instant::now())
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`enter`](Self::enter).
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order: that is a harness bug.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a child span the callee timed itself (it reports a duration but
    /// not when it ran): the span is laid at the tail of the innermost open
    /// span's elapsed interval.
    pub fn child_measured(&mut self, name: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now.saturating_sub(dur.as_nanos() as u64),
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
    }

    /// Appends spans another tracer of the same epoch recorded (a client
    /// thread's, or the kept repetition of a probe), as top-level spans.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        if self.enabled {
            merge(&mut self.spans, spans);
        }
    }

    /// The epoch span times are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Consumes the tracer, returning its spans.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open: {:?}", self.stack);
        self.spans
    }
}

/// Appends `more` (one thread's spans) to `all`, rebasing parent indices.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time per span: duration minus the duration of direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ms.
    pub total_ms: f64,
    /// Sum of self times, ms.
    pub self_ms: f64,
}

/// Sums duration and self time by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += s.dur_ns() as f64 / 1e6;
        t.self_ms += own_ns as f64 / 1e6;
    }
    out
}

/// Durations (ms) of every span called `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // op [0,100) ⊃ compile [10,70) ⊃ {schedule [20,40), codegen [40,65)},
        // and run [70,95) directly under op.
        let spans = vec![
            span("op", 0, 100, None),
            span("compile", 10, 70, Some(0)),
            span("schedule", 20, 40, Some(1)),
            span("codegen", 40, 65, Some(1)),
            span("run", 70, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 15, 20, 25, 25]);
        // Self times partition the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["compile"].count, 1);
        assert!((totals["compile"].total_ms - 60e-6).abs() < 1e-12);
        assert!((totals["compile"].self_ms - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_stamps_ops() {
        let mut t = Tracer::recording(Instant::now());
        t.set_op(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.child_measured("timed", Duration::from_nanos(5));
        t.exit(outer);
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 5);
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x");
        t.child_measured("y", Duration::from_millis(1));
        t.exit(id);
        assert!(!t.enabled());
        assert!(t.finish().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut all = vec![span("a", 0, 1, None)];
        merge(
            &mut all,
            vec![span("b", 0, 4, None), span("c", 1, 2, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(self_times_ns(&all), vec![1, 3, 1]);

        // A tracer adopting another's spans keeps their nesting too.
        let mut t = Tracer::recording(Instant::now());
        let own = t.enter("own");
        t.exit(own);
        t.adopt(vec![span("b", 0, 4, None), span("c", 1, 2, Some(0))]);
        let spans = t.finish();
        assert_eq!(spans[2].parent, Some(1));
    }
}
