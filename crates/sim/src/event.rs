//! The event calendar.
//!
//! A min-heap over `(fire_time, sequence)` keys. The sequence number breaks
//! ties so that events scheduled earlier fire earlier, which keeps the whole
//! simulation deterministic for a fixed seed and schedule order.
//!
//! Only the keys live in the heap. Payloads wait in a slab and move twice —
//! in on `schedule`, out on `pop` — however deep the calendar is; a sift
//! moves 24-byte keys, not whatever the simulation put on the calendar.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A heap entry: when an event fires, its tie-break, and the slab slot its
/// payload waits in.
struct Key {
    at: SimTime,
    seq: u64,
    slot: usize,
}

// A payload that rode the heap would be moved through every level of each
// sift; keep the key to three words.
const _: () = assert!(std::mem::size_of::<Key>() <= 24);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event calendar over payloads of type `M`.
///
/// `pop` advances virtual time to the fire time of the earliest event and
/// returns it. Time never moves backwards; scheduling an event in the past
/// clamps it to fire "now".
pub struct EventQueue<M> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Key>,
    /// Payloads by slot: `Some` exactly for the slots a heap key names.
    slab: Vec<Option<M>>,
    /// Empty slots of `slab`, reused before it grows.
    free: Vec<usize>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, payload: M) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Schedule `payload` at an absolute instant (clamped to `now`).
    pub fn schedule_at(&mut self, at: SimTime, payload: M) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                self.slab.len() - 1
            }
        };
        self.heap.push(Key { at, seq, slot });
    }

    /// Pop the earliest event, advancing virtual time to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, M)> {
        let Key { at, slot, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now, "event calendar went backwards");
        self.now = at;
        let payload = self.slab[slot]
            .take()
            .expect("a heap key names a filled slot");
        self.free.push(slot);
        Some((at, payload))
    }

    /// Fire time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_millis(30), "c");
        q.schedule(SimDuration::from_millis(10), "a");
        q.schedule(SimDuration::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30_000_000));
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimDuration::from_millis(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_millis(10), "later");
        q.pop();
        q.schedule_at(SimTime::ZERO, "past");
        let (at, m) = q.pop().unwrap();
        assert_eq!(m, "past");
        assert_eq!(at, SimTime(10_000_000));
    }

    #[test]
    fn time_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimDuration::from_millis(1), 1u8);
        q.schedule(SimDuration::from_millis(2), 2u8);
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            assert_eq!(q.now(), at);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// Any interleaving of `schedule`, `schedule_at` (past, present and
        /// equal instants included) and `pop` fires what a list sorted by
        /// `(at, seq)` fires, each payload the one scheduled under its key
        /// however often its slot was reused. Fire times span a few
        /// nanoseconds so that ties and past instants are common.
        #[test]
        fn matches_a_list_sorted_by_time_then_schedule_order(
            ops in prop::collection::vec((0u8..5, 0u64..8), 1..200),
        ) {
            let mut q = EventQueue::new();
            // (at, seq, payload); the payload is the seq as a String, so a
            // payload read from the wrong slot shows.
            let mut model: Vec<(SimTime, u64, String)> = Vec::new();
            let (mut now, mut seq) = (SimTime::ZERO, 0u64);
            for (kind, t) in ops {
                match kind {
                    0 | 1 => {
                        q.schedule(SimDuration(t), seq.to_string());
                        model.push((SimTime(now.0 + t), seq, seq.to_string()));
                        seq += 1;
                    }
                    2 => {
                        // Absolute: lands before, at or after `now`.
                        let at = SimTime((now.0 + t).saturating_sub(4));
                        q.schedule_at(at, seq.to_string());
                        model.push((at.max(now), seq, seq.to_string()));
                        seq += 1;
                    }
                    _ => {
                        model.sort();
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(q.peek_time(), want.as_ref().map(|w| w.0));
                        let got = q.pop();
                        prop_assert_eq!(got, want.map(|(at, _, p)| (at, p)));
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(q.now(), now);
                prop_assert_eq!(q.len(), model.len());
            }
            model.sort();
            for (at, _, p) in model {
                prop_assert_eq!(q.pop(), Some((at, p)));
            }
            prop_assert!(q.is_empty());
        }
    }
}
