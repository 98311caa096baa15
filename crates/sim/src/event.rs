//! The event calendar.
//!
//! A min-heap over `(fire_time, sequence)` keys. The sequence number breaks
//! ties so that events scheduled earlier fire earlier, which keeps the whole
//! simulation deterministic for a fixed seed and schedule order.
//!
//! Only the keys live in the heap. Payloads wait in a slab and move twice —
//! in on `schedule`, out on `pop` — however deep the calendar is; a sift
//! moves 24-byte keys, not whatever the simulation put on the calendar.
//!
//! A key can also be handed out without an event behind it
//! ([`EventQueue::reserve`]): its owner keeps the message itself and acts
//! on it once the calendar has passed the key ([`EventQueue::key`]), or
//! puts it on the calendar after all ([`EventQueue::schedule_keyed`]) where
//! it fires exactly where a plain `schedule` would have put it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An event's place in the calendar's order: when it fires, then its
/// tie-break among events that fire at the same instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    pub at: SimTime,
    pub seq: u64,
}

impl EventKey {
    /// Below every key a calendar hands out.
    pub const ZERO: EventKey = EventKey {
        at: SimTime::ZERO,
        seq: 0,
    };
}

/// A heap entry: an event's key and the slab slot its payload waits in.
struct Key {
    key: EventKey,
    slot: usize,
}

// A payload that rode the heap would be moved through every level of each
// sift; keep the key to three words.
const _: () = assert!(std::mem::size_of::<Key>() <= 24);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        other.key.cmp(&self.key)
    }
}

/// A deterministic event calendar over payloads of type `M`.
///
/// `pop` advances virtual time to the fire time of the earliest event and
/// returns it. Time never moves backwards; scheduling an event in the past
/// clamps it to fire "now".
pub struct EventQueue<M> {
    /// Key of the event popped last, or of the reserved key the calendar
    /// was advanced to since: every key up to it has fired.
    fired: EventKey,
    /// Next sequence number; starts above [`EventKey::ZERO`]'s.
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
            fired: EventKey::ZERO,
            seq: 1,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.fired.at
    }

    /// Key of the event being processed (the one popped last), or of the
    /// reserved key [`EventQueue::advance_to`] moved the calendar to since.
    /// A reserved key at or below it has fired.
    pub fn key(&self) -> EventKey {
        self.fired
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
        self.schedule_at(self.now() + delay, payload);
    }

    /// Schedule `payload` at an absolute instant (clamped to `now`).
    pub fn schedule_at(&mut self, at: SimTime, payload: M) {
        let key = self.next_key(at.max(self.now()));
        self.push(key, payload);
    }

    /// The key `schedule(delay, _)` would file an event under, taken from
    /// the sequence without putting anything on the calendar.
    pub fn reserve(&mut self, delay: SimDuration) -> EventKey {
        self.next_key(self.now() + delay)
    }

    /// Schedule `payload` under a key [`EventQueue::reserve`] handed out
    /// and that has not fired: it fires where a `schedule` at the time of
    /// the reservation would have.
    pub fn schedule_keyed(&mut self, key: EventKey, payload: M) {
        debug_assert!(key.seq < self.seq, "{key:?} was never reserved");
        debug_assert!(key > self.fired, "{key:?} has fired already");
        self.push(key, payload);
    }

    /// Move the calendar to a reserved key that fires before every pending
    /// event — the last of the messages an owner holds that a run up to
    /// some instant passes — as if it had been popped.
    pub fn advance_to(&mut self, key: EventKey) {
        debug_assert!(key.seq < self.seq, "{key:?} was never reserved");
        debug_assert!(
            self.heap.peek().is_none_or(|k| key < k.key),
            "{key:?} would pass a pending event"
        );
        self.fired = self.fired.max(key);
    }

    fn next_key(&mut self, at: SimTime) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        EventKey { at, seq }
    }

    fn push(&mut self, key: EventKey, payload: M) {
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
        self.heap.push(Key { key, slot });
    }

    /// Pop the earliest event, advancing virtual time to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, M)> {
        let Key { key, slot } = self.heap.pop()?;
        debug_assert!(key > self.fired, "event calendar went backwards");
        self.fired = key;
        let payload = self.slab[slot]
            .take()
            .expect("a heap key names a filled slot");
        self.free.push(slot);
        Some((key.at, payload))
    }

    /// Fire time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.key.at)
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
        /// equal instants included), `pop`, `reserve`, `schedule_keyed` and
        /// `advance_to` fires what a list sorted by `(at, seq)` fires, each
        /// payload the one scheduled under its key however often its slot
        /// was reused: a reserved key keeps its place in the sequence,
        /// whatever was scheduled between reserving and scheduling it, and
        /// advancing to one hands no later event a number already used.
        /// Fire times span a few nanoseconds so that ties and past instants
        /// are common.
        #[test]
        fn matches_a_list_sorted_by_time_then_schedule_order(
            ops in prop::collection::vec((0u8..8, 0u64..8), 1..200),
        ) {
            let mut q = EventQueue::new();
            // (at, seq, payload); the payload is the seq as a String, so a
            // payload read from the wrong slot shows.
            let mut model: Vec<(SimTime, u64, String)> = Vec::new();
            // Keys reserved and neither scheduled nor fired yet.
            let mut reserved: Vec<EventKey> = Vec::new();
            let (mut fired, mut seq) = (EventKey::ZERO, 1u64);
            for (kind, t) in ops {
                let now = fired.at;
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
                    3 => {
                        model.sort();
                        let want = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(q.peek_time(), want.as_ref().map(|w| w.0));
                        let got = q.pop();
                        prop_assert_eq!(got, want.clone().map(|(at, _, p)| (at, p)));
                        if let Some((at, s, _)) = want {
                            fired = EventKey { at, seq: s };
                        }
                    }
                    4 => {
                        let key = q.reserve(SimDuration(t));
                        prop_assert_eq!(key, EventKey { at: SimTime(now.0 + t), seq });
                        reserved.push(key);
                        seq += 1;
                    }
                    5 if !reserved.is_empty() => {
                        let key = reserved.remove(t as usize % reserved.len());
                        q.schedule_keyed(key, key.seq.to_string());
                        model.push((key.at, key.seq, key.seq.to_string()));
                    }
                    6 => {
                        // A reserved key that lands before every pending
                        // event: the owner's message was the next to fire.
                        let first = model.iter().map(|&(at, s, _)| EventKey { at, seq: s }).min();
                        let landed: Vec<EventKey> = reserved
                            .iter()
                            .copied()
                            .filter(|&k| first.is_none_or(|f| k < f))
                            .collect();
                        if !landed.is_empty() {
                            let key = landed[t as usize % landed.len()];
                            q.advance_to(key);
                            fired = fired.max(key);
                        }
                    }
                    _ => {}
                }
                // A reserved key the calendar has passed fired with it.
                reserved.retain(|&k| k > fired);
                prop_assert_eq!(q.key(), fired);
                prop_assert_eq!(q.now(), fired.at);
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
