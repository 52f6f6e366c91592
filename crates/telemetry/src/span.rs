//! Per-request compile spans.
//!
//! A [`SpanRecord`] is a fixed-size, `Copy` summary of one compile
//! request: who asked, what was compiled (with block cache-key
//! provenance), how long each pipeline phase took, and how the cache
//! behaved. A [`SpanLog`] counts every record and keeps the top-K
//! slowest, ordered by wall time. The log is bounded at construction:
//! recording a span never allocates, so a long-lived daemon's span memory
//! is a constant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of tracked pipeline phases in a span.
pub const SPAN_PHASES: usize = 8;

/// Phase names in pipeline order. Index `i` of
/// [`SpanRecord::phase_us`] is the time spent in `SPAN_PHASE_NAMES[i]`.
/// `parse` covers wire decode + IR verification on the service side;
/// the remaining seven name the compiler's `PhaseTimings::rows`, which
/// take their names from here.
pub const SPAN_PHASE_NAMES: [&str; SPAN_PHASES] = [
    "parse",
    "lower",
    "partition",
    "place",
    "schedule",
    "codegen",
    "regalloc",
    "link",
];

/// A short inline string: fixed 31-byte storage, truncating (on a
/// UTF-8 boundary) at construction. Keeps [`SpanRecord`] `Copy` and
/// recording allocation-free.
#[derive(Clone, Copy)]
pub struct Label {
    len: u8,
    buf: [u8; 31],
}

impl Label {
    pub const CAPACITY: usize = 31;

    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(Self::CAPACITY);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; 31];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        Self {
            len: end as u8,
            buf,
        }
    }

    pub fn as_str(&self) -> &str {
        // Construction only ever copies a prefix of a valid &str split
        // at a char boundary.
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("label holds valid UTF-8")
    }
}

impl Default for Label {
    fn default() -> Self {
        Self::new("")
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

/// Fixed-size summary of one compile request.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanRecord {
    /// Monotone sequence number assigned by the log at record time.
    pub seq: u64,
    /// Client name from the wire request (truncated to 31 bytes).
    pub client: Label,
    /// Program name, when known (truncated to 31 bytes).
    pub program: Label,
    /// Cache-key provenance: the content-addressed key of the first
    /// compiled block (zero when the request never reached the block
    /// cache, e.g. a whole-response memo hit).
    pub key_hi: u64,
    pub key_lo: u64,
    /// End-to-end service wall time in microseconds.
    pub wall_us: u64,
    /// Per-phase wall time in microseconds, indexed by
    /// [`SPAN_PHASE_NAMES`].
    pub phase_us: [u64; SPAN_PHASES],
    /// Blocks in the compiled program.
    pub blocks: u32,
    /// Blocks served from the block cache (memory or disk).
    pub block_hits: u32,
    /// Whole-response memo hit: the reply bytes were replayed verbatim.
    pub memo_hit: bool,
    /// The request ended in a typed error response.
    pub error: bool,
}

/// Span count plus a top-K slow-request log.
///
/// The log is allocated up front; [`SpanLog::record`] takes one short
/// mutex section and performs no allocation.
pub struct SpanLog {
    /// Up to `slow_cap` records sorted by descending `wall_us`.
    slow: Mutex<Vec<SpanRecord>>,
    slow_cap: usize,
    seq: AtomicU64,
}

impl SpanLog {
    pub fn new(slow_capacity: usize) -> Self {
        assert!(slow_capacity > 0, "degenerate slow log");
        Self {
            slow: Mutex::new(Vec::with_capacity(slow_capacity)),
            slow_cap: slow_capacity,
            seq: AtomicU64::new(0),
        }
    }

    /// Record a span, assigning and returning its sequence number.
    pub fn record(&self, mut rec: SpanRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        rec.seq = seq;
        // Keep the top `slow_cap` by wall time. The vec is pre-allocated at
        // capacity, so the sorted insert shifts in place without growing.
        let mut slow = self.slow.lock().unwrap();
        let full = slow.len() == self.slow_cap;
        if !full || rec.wall_us > slow.last().map_or(0, |s| s.wall_us) {
            if full {
                slow.pop();
            }
            let at = slow.partition_point(|s| s.wall_us >= rec.wall_us);
            slow.insert(at, rec);
        }
        seq
    }

    /// The slow-request log, slowest first.
    pub fn slowest(&self) -> Vec<SpanRecord> {
        self.slow.lock().unwrap().clone()
    }

    /// Total spans ever recorded.
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    pub fn slow_len(&self) -> usize {
        self.slow.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(wall_us: u64) -> SpanRecord {
        SpanRecord {
            client: Label::new("tester"),
            wall_us,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn label_truncates_on_char_boundary() {
        let l = Label::new("short");
        assert_eq!(l.as_str(), "short");
        let long = "x".repeat(100);
        assert_eq!(Label::new(&long).as_str().len(), Label::CAPACITY);
        // 2-byte char straddling the 31-byte boundary gets dropped whole.
        let tricky = format!("{}é", "a".repeat(30));
        assert_eq!(Label::new(&tricky).as_str(), "a".repeat(30));
    }

    #[test]
    fn slow_log_keeps_top_k_sorted() {
        let log = SpanLog::new(3);
        for w in [5, 100, 1, 50, 200, 2, 75] {
            log.record(span(w));
        }
        let slow: Vec<u64> = log.slowest().iter().map(|s| s.wall_us).collect();
        assert_eq!(slow, vec![200, 100, 75]);
        assert_eq!(log.slow_len(), 3);
    }

    #[test]
    fn slow_log_ties_do_not_displace() {
        let log = SpanLog::new(2);
        log.record(span(10));
        log.record(span(10));
        log.record(span(10)); // tie with resident minimum: not inserted
        let slow = log.slowest();
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].seq, 0);
        assert_eq!(slow[1].seq, 1);
    }

    #[test]
    fn concurrent_recording_stays_bounded() {
        use std::sync::Arc;
        let log = Arc::new(SpanLog::new(4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        log.record(span(t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.total(), 2000);
        assert_eq!(log.slow_len(), 4);
        // Top-4 overall walls are 3499, 3498, 3497, 3496.
        let slow: Vec<u64> = log.slowest().iter().map(|s| s.wall_us).collect();
        assert_eq!(slow, vec![3499, 3498, 3497, 3496]);
    }
}
