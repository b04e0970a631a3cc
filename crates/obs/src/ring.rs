//! A bounded FIFO ring buffer that counts evictions.
//!
//! Replaces the unbounded `Vec<TsEvent>` inside the trusted server's
//! event log: a server handling millions of requests must not grow its
//! in-memory log without bound. Evicted events are returned to the
//! caller so they can be folded into running statistics (and have
//! already been journaled if a journal sink is attached).

use std::collections::VecDeque;

/// A fixed-capacity FIFO buffer. Pushing onto a full buffer evicts and
/// returns the oldest element.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// A buffer holding at most `capacity` elements (minimum 1).
    ///
    /// `capacity` is an eviction bound, not an upfront allocation: the
    /// backing storage grows on demand. Trace collection creates its
    /// span ring at 64Ki slots by default; eagerly reserving those would
    /// bill megabytes of page faults to the first span recorded.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingBuffer {
            buf: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends `value`; if full, evicts and returns the oldest element.
    pub fn push(&mut self, value: T) -> Option<T> {
        let evicted = if self.buf.len() == self.capacity {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(value);
        evicted
    }

    /// Elements currently held, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &T> + Clone {
        self.buf.iter()
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Removes and returns every element, oldest first.
    pub fn drain(&mut self) -> Vec<T> {
        self.buf.drain(..).collect()
    }

    /// How many elements have been evicted over the buffer's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<'a, T> IntoIterator for &'a RingBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_fifo() {
        let mut ring = RingBuffer::new(3);
        assert_eq!(ring.push(1), None);
        assert_eq!(ring.push(2), None);
        assert_eq!(ring.push(3), None);
        assert_eq!(ring.push(4), Some(1));
        assert_eq!(ring.push(5), Some(2));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = RingBuffer::new(0);
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.push('a'), None);
        assert_eq!(ring.push('b'), Some('a'));
    }

    #[test]
    fn iteration_is_oldest_first() {
        let mut ring = RingBuffer::new(2);
        for i in 0..5 {
            ring.push(i);
        }
        let seen: Vec<i32> = (&ring).into_iter().copied().collect();
        assert_eq!(seen, vec![3, 4]);
        assert_eq!(ring.dropped(), 3);
    }
}
