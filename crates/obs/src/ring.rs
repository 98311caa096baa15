//! The bounded log behind every observability store: scrape points, coarse
//! rollup buckets, trace spans, cluster events and attribution records.
//!
//! A [`Ring`] holds at most `cap` items; pushing onto a full ring evicts the
//! oldest and bumps a `dropped` counter, so long runs hold memory under a
//! fixed cap and readers can tell truncated history from empty history.
//! Item `i` is the `dropped() + i`-th push (0-based), which is how logs
//! derive monotone sequence numbers without storing them.

use std::collections::VecDeque;

/// A bounded FIFO that evicts its oldest item when full and counts evictions.
#[derive(Debug)]
pub struct Ring<T> {
    items: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `cap` items.
    pub fn new(cap: usize) -> Ring<T> {
        assert!(cap > 0, "ring capacity must be positive");
        Ring {
            items: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    /// Append `item`, evicting the oldest item when at capacity.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.cap {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
    }

    /// Change the capacity, evicting the oldest items past it.
    pub fn set_cap(&mut self, cap: usize) {
        assert!(cap > 0, "ring capacity must be positive");
        self.cap = cap;
        while self.items.len() > cap {
            self.items.pop_front();
            self.dropped += 1;
        }
    }

    /// Forget every retained item; a clear is not a drop.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items evicted by the capacity so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items ever pushed and not cleared: evicted plus retained.
    pub fn pushed(&self) -> u64 {
        self.dropped + self.items.len() as u64
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.items.get_mut(i)
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!((r.len(), r.dropped(), r.pushed()), (3, 2, 5));
        // Item i is the (dropped + i)-th push.
        assert_eq!(r.get(0), Some(&2));
        r.set_cap(1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![4]);
        assert_eq!(r.dropped(), 4);
        r.clear();
        assert!(r.is_empty());
        assert_eq!((r.dropped(), r.pushed()), (4, 4), "a clear is not a drop");
        r.push(9);
        assert_eq!((r.len(), r.dropped()), (1, 4));
    }
}
