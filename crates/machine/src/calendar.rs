//! Scheduling structures of the production stepper: the run set (who steps
//! this cycle) and the timer wheel (who rejoins it later).
//!
//! A [`RunSet`] is a bitset over tile indices swept in ascending order
//! *against the live words*: a member inserted ahead of the sweep position is
//! visited in the same sweep, one inserted behind it waits for the next —
//! exactly what a `0..n` scan over per-tile modes does, at `n/64` word reads
//! plus one step per member.
//!
//! The [`CalendarQueue`] is a bucketed timing wheel holding scoreboard timers
//! `(cycle, tile)`, hashed by `cycle & mask`. Insertion and per-cycle
//! extraction are O(1) amortised: the stepper visits one bucket per cycle and
//! removes the entries whose cycle matches, leaving far-future timers (cycle ≡
//! current mod n_buckets) in place for a later lap of the wheel. The wheel
//! deliberately tolerates *stale* timers — entries for a processor that was
//! woken early and has moved on. The stepper filters those on pop by
//! re-checking the processor's mode, so the wheel never needs random-access
//! deletion.

/// Set of tile indices, swept in ascending order with [`RunSet::next_from`].
#[derive(Debug)]
pub(crate) struct RunSet {
    words: Vec<u64>,
    len: usize,
}

impl RunSet {
    /// The empty set over `0..n`.
    pub(crate) fn empty(n: usize) -> Self {
        RunSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// The set holding all of `0..n`.
    pub(crate) fn full(n: usize) -> Self {
        let mut set = RunSet::empty(n);
        for i in 0..n {
            set.insert(i);
        }
        set
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `i` (idempotent).
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        self.len += usize::from(self.words[i / 64] & bit == 0);
        self.words[i / 64] |= bit;
    }

    /// Removes `i` (idempotent). Safe on the member a sweep is standing on:
    /// the sweep resumes from `i + 1`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        self.len -= usize::from(self.words[i / 64] & bit != 0);
        self.words[i / 64] &= !bit;
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), |&i| self.next_from(i + 1))
    }

    /// The smallest member `>= from`, read from the words as they are now.
    /// A sweep is `let mut t = 0; while let Some(i) = set.next_from(t) { …;
    /// t = i + 1 }` with the body free to insert and remove.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (u64::MAX << (from % 64));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }
}

/// Bucketed timing wheel of `(cycle, tile)` timers.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    buckets: Vec<Vec<(u64, u32)>>,
    mask: u64,
}

impl CalendarQueue {
    /// Builds a wheel with at least `min_buckets` buckets (rounded up to a
    /// power of two). Sized past the common wake horizons (scoreboard
    /// latencies, remote-memory round trips) so a bucket visit rarely skips
    /// over a far-future entry.
    pub(crate) fn new(min_buckets: usize) -> Self {
        let n = min_buckets.next_power_of_two().max(2);
        CalendarQueue {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of queued timers (including stale ones).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Sets a timer for `tile` at `cycle`.
    #[inline]
    pub(crate) fn push(&mut self, cycle: u64, tile: usize) {
        self.buckets[(cycle & self.mask) as usize].push((cycle, tile as u32));
    }

    /// Removes every timer set for exactly `cycle` and feeds its tile to `f`.
    ///
    /// Entries in the visited bucket with a different cycle (a later lap of
    /// the wheel) are retained. Extraction order within a cycle is
    /// unspecified; the stepper only flips run-set bits with it.
    #[inline]
    pub(crate) fn take_due<F: FnMut(usize)>(&mut self, cycle: u64, mut f: F) {
        let bucket = &mut self.buckets[(cycle & self.mask) as usize];
        let mut i = 0;
        while i < bucket.len() {
            if bucket[i].0 == cycle {
                let (_, tile) = bucket.swap_remove(i);
                f(tile as usize);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sweeps `set`, letting `body` mutate it at each visited member.
    fn sweep(set: &mut RunSet, mut body: impl FnMut(&mut RunSet, usize)) -> Vec<usize> {
        let mut visited = Vec::new();
        let mut t = 0;
        while let Some(i) = set.next_from(t) {
            visited.push(i);
            body(set, i);
            t = i + 1;
        }
        visited
    }

    #[test]
    fn insertion_ahead_of_the_cursor_is_visited_in_the_same_sweep() {
        // Ahead in the same word, across the 64-bit word boundary, and at the
        // last tile of a 1 024-tile set.
        let mut set = RunSet::empty(1024);
        set.insert(3);
        let visited = sweep(&mut set, |set, i| {
            if i == 3 {
                set.insert(5);
                set.insert(64);
                set.insert(1023);
            }
        });
        assert_eq!(visited, vec![3, 5, 64, 1023]);
    }

    #[test]
    fn insertion_behind_the_cursor_waits_for_the_next_sweep() {
        let mut set = RunSet::empty(1024);
        set.insert(70);
        set.insert(1023);
        let visited = sweep(&mut set, |set, i| {
            if i == 70 {
                set.insert(69); // same word, behind
                set.insert(63); // previous word
            }
            if i == 1023 {
                set.insert(0);
            }
        });
        assert_eq!(visited, vec![70, 1023]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 69, 70, 1023]);
    }

    #[test]
    fn removing_the_current_member_mid_sweep_is_safe() {
        let mut set = RunSet::full(130);
        let visited = sweep(&mut set, |set, i| {
            if i % 2 == 0 {
                set.remove(i);
            }
        });
        assert_eq!(visited, (0..130).collect::<Vec<_>>());
        assert!(set.iter().eq((0..130).filter(|i| i % 2 == 1)));
        // Idempotent insert/remove keep the emptiness check exact.
        for i in 0..130 {
            set.remove(i);
            set.remove(i);
        }
        assert!(set.is_empty());
        set.insert(129);
        set.insert(129);
        set.remove(129);
        assert!(set.is_empty() && set.next_from(0).is_none());
    }

    #[test]
    fn due_timers_pop_exactly_once() {
        let mut q = CalendarQueue::new(4);
        q.push(3, 7);
        q.push(3, 2);
        q.push(7, 1); // same bucket as 3 with 4 buckets
        let mut got = Vec::new();
        q.take_due(3, |t| got.push(t));
        got.sort_unstable();
        assert_eq!(got, vec![2, 7]);
        assert_eq!(q.len(), 1);
        let mut later = Vec::new();
        q.take_due(7, |t| later.push(t));
        assert_eq!(later, vec![1]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn empty_cycles_are_cheap_and_correct() {
        let mut q = CalendarQueue::new(8);
        q.push(100, 0);
        for c in 0..100 {
            q.take_due(c, |_| panic!("nothing due at {c}"));
        }
        let mut got = Vec::new();
        q.take_due(100, |t| got.push(t));
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn wheel_wraps_far_future_timers() {
        let mut q = CalendarQueue::new(2);
        for cyc in [1u64, 3, 5, 9, 17] {
            q.push(cyc, cyc as usize);
        }
        let mut seen = Vec::new();
        for c in 0..32 {
            q.take_due(c, |t| seen.push((c, t)));
        }
        assert_eq!(
            seen,
            vec![(1, 1), (3, 3), (5, 5), (9, 9), (17, 17)],
            "each timer pops at its own cycle despite bucket collisions"
        );
    }
}
