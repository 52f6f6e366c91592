//! Single-reader single-writer word channels with one-cycle propagation.
//!
//! A channel models one directed static-network link (switch↔switch or
//! processor↔switch). Writes during cycle *t* are staged and become visible to
//! the reader at cycle *t + 1*; the machine commits each staged word once per
//! cycle. This makes the simulation independent of the order in which
//! components are stepped within a cycle, and gives the paper's published
//! timing (one cycle per hop).
//!
//! Every channel of a machine lives in one `Channels` slab: a fixed ring of
//! `capacity` words per channel in one contiguous word array, plus a small
//! per-channel record (ring head, readable length, staged word). Nothing is
//! allocated after construction.
//!
//! Every channel is single-writer and stages at most one word per cycle, so
//! the production stepper commits only a *dirty list* of channels that
//! staged this cycle instead of scanning all of them, and a commit is a wake
//! event for a component blocked on that channel. Code that stages a write
//! outside the `run_proc`/`run_switch` paths must also push the channel onto
//! the dirty list, or the word is silently never committed under that
//! stepper.

use crate::isa::Word;

/// One channel's ring state; its words live in [`Channels::words`].
#[derive(Clone, Copy, Debug, Default)]
struct Ring {
    /// Slot of the oldest readable word.
    head: u32,
    /// Readable words.
    len: u32,
    /// The word written this cycle, visible after commit.
    staged: Option<Word>,
}

/// Every static-network channel of a machine: directed, bounded, blocking
/// word FIFOs of one common capacity, addressed by channel id.
#[derive(Clone, Debug)]
pub(crate) struct Channels {
    capacity: u32,
    rings: Vec<Ring>,
    /// `capacity` slots per channel, channel-major.
    words: Vec<Word>,
}

impl Channels {
    /// `count` empty channels holding at most `capacity` words each.
    pub fn new(count: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "channel capacity must be at least 1");
        Channels {
            capacity: capacity as u32,
            rings: vec![Ring::default(); count],
            words: vec![0; count * capacity],
        }
    }

    /// Number of channels.
    pub fn count(&self) -> usize {
        self.rings.len()
    }

    /// True if a word is available to read from `id` this cycle.
    #[inline]
    pub fn can_read(&self, id: usize) -> bool {
        self.rings[id].len != 0
    }

    /// True if a word can be written to `id` this cycle.
    ///
    /// At most one word may be staged per cycle, and the queue (including the
    /// staged word) must not exceed capacity.
    #[inline]
    pub fn can_write(&self, id: usize) -> bool {
        let ring = &self.rings[id];
        ring.staged.is_none() && ring.len < self.capacity
    }

    /// Consumes and returns the front word of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty; call [`can_read`](Self::can_read) first.
    #[inline]
    pub fn read(&mut self, id: usize) -> Word {
        let cap = self.capacity;
        let ring = &mut self.rings[id];
        assert!(ring.len != 0, "read from empty channel");
        let slot = ring.head;
        ring.head = if slot + 1 == cap { 0 } else { slot + 1 };
        ring.len -= 1;
        self.words[id * cap as usize + slot as usize]
    }

    /// Stages a word on `id` for visibility next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the channel cannot accept a write this cycle; call
    /// [`can_write`](Self::can_write) first.
    #[inline]
    pub fn write(&mut self, id: usize, word: Word) {
        assert!(self.can_write(id), "write to full channel");
        self.rings[id].staged = Some(word);
    }

    /// Promotes the staged word of `id` (call exactly once per simulated
    /// cycle). Returns `true` if a word moved (used for progress detection).
    #[inline]
    pub fn commit(&mut self, id: usize) -> bool {
        let cap = self.capacity;
        let ring = &mut self.rings[id];
        let Some(word) = ring.staged.take() else {
            return false;
        };
        let mut slot = ring.head + ring.len;
        if slot >= cap {
            slot -= cap;
        }
        ring.len += 1;
        self.words[id * cap as usize + slot as usize] = word;
        true
    }

    /// True if a write to `id` is staged for commit at the end of this cycle
    /// (used by the production stepper to build its dirty-channel list).
    #[inline]
    pub fn has_staged(&self, id: usize) -> bool {
        self.rings[id].staged.is_some()
    }

    /// Number of words currently readable from `id`.
    #[inline]
    pub fn len(&self, id: usize) -> usize {
        self.rings[id].len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_become_visible_next_cycle() {
        let mut ch = Channels::new(1, 4);
        assert!(!ch.can_read(0));
        ch.write(0, 7);
        assert!(
            !ch.can_read(0),
            "write must not be visible in the same cycle"
        );
        ch.commit(0);
        assert!(ch.can_read(0));
        assert_eq!(ch.read(0), 7);
        assert!(!ch.can_read(0));
    }

    #[test]
    fn one_write_per_cycle() {
        let mut ch = Channels::new(1, 4);
        ch.write(0, 1);
        assert!(!ch.can_write(0), "second write in one cycle must block");
        ch.commit(0);
        assert!(ch.can_write(0));
    }

    #[test]
    fn capacity_blocks_writer() {
        let mut ch = Channels::new(1, 2);
        for w in 0..2 {
            ch.write(0, w);
            ch.commit(0);
        }
        assert_eq!(ch.len(0), 2);
        assert!(!ch.can_write(0));
        // Reader frees a slot; writer may proceed next cycle.
        let _ = ch.read(0);
        assert!(ch.can_write(0));
    }

    #[test]
    fn fifo_order_survives_wrapping() {
        let mut ch = Channels::new(1, 3);
        let mut expect = std::collections::VecDeque::new();
        for w in 0..20u32 {
            ch.write(0, w);
            ch.commit(0);
            expect.push_back(w);
            if w % 3 != 0 {
                assert_eq!(ch.read(0), expect.pop_front().unwrap());
            }
            if ch.len(0) == 3 {
                assert_eq!(ch.read(0), expect.pop_front().unwrap());
            }
        }
        while ch.can_read(0) {
            assert_eq!(ch.read(0), expect.pop_front().unwrap());
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn channels_of_one_slab_are_independent() {
        let mut ch = Channels::new(3, 2);
        ch.write(1, 11);
        ch.write(2, 22);
        ch.commit(1);
        ch.commit(2);
        assert!(!ch.can_read(0) && !ch.has_staged(0));
        assert_eq!((ch.read(2), ch.read(1)), (22, 11));
        assert_eq!(ch.count(), 3);
    }

    #[test]
    fn commit_reports_progress() {
        let mut ch = Channels::new(1, 1);
        assert!(!ch.commit(0));
        ch.write(0, 9);
        assert!(ch.commit(0));
        assert!(!ch.commit(0));
        assert_eq!(ch.len(0), 1);
    }

    #[test]
    #[should_panic(expected = "empty channel")]
    fn reading_empty_panics() {
        Channels::new(1, 1).read(0);
    }
}
