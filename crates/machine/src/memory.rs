//! A tile's local memory.

use crate::isa::Word;

/// `size` words of local memory that read 0 until written. Only the prefix
/// up to the highest word written is allocated, so loading a machine costs
/// nothing for the words its program never touches.
#[derive(Clone, Debug)]
pub struct LocalMem {
    words: Vec<Word>,
    size: usize,
}

impl LocalMem {
    /// `size` zero words.
    pub fn new(size: usize) -> LocalMem {
        LocalMem {
            words: Vec::new(),
            size,
        }
    }

    /// The word at `addr`, or `None` past the end of memory.
    #[inline]
    pub fn load(&self, addr: usize) -> Option<Word> {
        match self.words.get(addr) {
            Some(&w) => Some(w),
            None => (addr < self.size).then_some(0),
        }
    }

    /// Writes `value` at `addr`; `None`, writing nothing, past the end of
    /// memory.
    #[inline]
    pub fn store(&mut self, addr: usize, value: Word) -> Option<()> {
        if addr >= self.words.len() {
            self.grow_to(addr)?;
        }
        self.words[addr] = value;
        Some(())
    }

    /// Allocates up to word `addr`, off the store's hot path; `None` past the
    /// end of memory.
    #[cold]
    fn grow_to(&mut self, addr: usize) -> Option<()> {
        if addr >= self.size {
            return None;
        }
        self.words.resize(addr + 1, 0);
        Some(())
    }

    /// All `size` words.
    pub fn to_vec(&self) -> Vec<Word> {
        let mut all = Vec::with_capacity(self.size);
        all.extend_from_slice(&self.words);
        all.resize(self.size, 0);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_words_read_zero_and_the_end_is_enforced() {
        let mut mem = LocalMem::new(8);
        assert_eq!(mem.load(7), Some(0));
        assert_eq!(mem.load(8), None);
        assert_eq!(mem.store(5, 9), Some(()));
        assert_eq!(mem.store(8, 1), None);
        assert_eq!(
            (mem.load(4), mem.load(5), mem.load(6)),
            (Some(0), Some(9), Some(0))
        );
        assert_eq!(mem.to_vec(), [0, 0, 0, 0, 0, 9, 0, 0]);
    }
}
