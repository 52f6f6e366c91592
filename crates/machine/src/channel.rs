//! Single-reader single-writer word channels with one-cycle propagation.
//!
//! A [`Channel`] models one directed static-network link (switch↔switch or
//! processor↔switch). Writes during cycle *t* are staged and become visible to
//! the reader at cycle *t + 1*; the machine calls [`Channel::commit`] once per
//! cycle to promote staged words. This makes the simulation independent of the
//! order in which components are stepped within a cycle, and gives the paper's
//! published timing (one cycle per hop).
//!
//! Every channel is single-writer and stages at most one word per cycle, so
//! the production stepper commits only a *dirty list* of channels that
//! staged this cycle instead of scanning all of them, and each commit is a
//! wake event for the channel's reader (a word arrived) and writer (staging
//! space freed). Code that stages a write outside the `run_proc`/`run_switch`
//! paths must also push the channel onto the dirty list, or the word is
//! silently never committed under that stepper.

use crate::isa::Word;
use std::collections::VecDeque;

/// A directed, bounded, blocking word channel.
#[derive(Clone, Debug, Default)]
pub struct Channel {
    queue: VecDeque<Word>,
    staged: Option<Word>,
    capacity: usize,
}

impl Channel {
    /// Creates a channel holding at most `capacity` words.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "channel capacity must be at least 1");
        Channel {
            queue: VecDeque::with_capacity(capacity),
            staged: None,
            capacity,
        }
    }

    /// True if a word is available to read this cycle.
    pub fn can_read(&self) -> bool {
        !self.queue.is_empty()
    }

    /// True if a word can be written this cycle.
    ///
    /// At most one word may be staged per cycle, and the queue (including the
    /// staged word) must not exceed capacity.
    pub fn can_write(&self) -> bool {
        self.staged.is_none() && self.queue.len() < self.capacity
    }

    /// Peeks at the word that would be read, without consuming it.
    pub fn peek(&self) -> Option<Word> {
        self.queue.front().copied()
    }

    /// Consumes and returns the front word.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty; call [`can_read`](Self::can_read) first.
    pub fn read(&mut self) -> Word {
        self.queue.pop_front().expect("read from empty channel")
    }

    /// Stages a word for visibility next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the channel cannot accept a write this cycle; call
    /// [`can_write`](Self::can_write) first.
    pub fn write(&mut self, word: Word) {
        assert!(self.can_write(), "write to full channel");
        self.staged = Some(word);
    }

    /// Promotes the staged word (call exactly once per simulated cycle).
    /// Returns `true` if a word moved (used for progress detection).
    pub fn commit(&mut self) -> bool {
        if let Some(w) = self.staged.take() {
            self.queue.push_back(w);
            true
        } else {
            false
        }
    }

    /// True if a write is staged for commit at the end of this cycle (used by
    /// the production stepper to build its dirty-channel list).
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Number of words currently readable.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no word is readable and none is staged.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.staged.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_become_visible_next_cycle() {
        let mut ch = Channel::new(4);
        assert!(!ch.can_read());
        ch.write(7);
        assert!(
            !ch.can_read(),
            "write must not be visible in the same cycle"
        );
        ch.commit();
        assert!(ch.can_read());
        assert_eq!(ch.peek(), Some(7));
        assert_eq!(ch.read(), 7);
        assert!(!ch.can_read());
    }

    #[test]
    fn one_write_per_cycle() {
        let mut ch = Channel::new(4);
        ch.write(1);
        assert!(!ch.can_write(), "second write in one cycle must block");
        ch.commit();
        assert!(ch.can_write());
    }

    #[test]
    fn capacity_blocks_writer() {
        let mut ch = Channel::new(2);
        for w in 0..2 {
            ch.write(w);
            ch.commit();
        }
        assert_eq!(ch.len(), 2);
        assert!(!ch.can_write());
        // Reader frees a slot; writer may proceed next cycle.
        let _ = ch.read();
        assert!(ch.can_write());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut ch = Channel::new(4);
        for w in [3, 1, 4] {
            ch.write(w);
            ch.commit();
        }
        assert_eq!([ch.read(), ch.read(), ch.read()], [3, 1, 4]);
    }

    #[test]
    fn commit_reports_progress() {
        let mut ch = Channel::new(1);
        assert!(!ch.commit());
        ch.write(9);
        assert!(ch.commit());
        assert!(!ch.commit());
        assert!(!ch.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty channel")]
    fn reading_empty_panics() {
        Channel::new(1).read();
    }
}
