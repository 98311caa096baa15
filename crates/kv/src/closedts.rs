//! Closed timestamps (§5.1.1, §6.2.1).
//!
//! A closed timestamp is a promise by the leaseholder that no *new* writes
//! will be accepted at or below it. Promises travel to followers in two
//! ways: attached to every Raft command, and via a periodic *side
//! transport* for idle ranges. A follower may serve a read at `T` only once
//! it has (a) received a closed timestamp ≥ `T` and (b) applied the log
//! prefix that the promise covers.
//!
//! The side transport is node-to-node: per tick a sender ships one shared
//! [`SideBatch`] to every node that follows one of its ranges, and the
//! receiver keeps it in its [`SideRx`] inbox. A delivery that repeats the
//! log index the sender listed last time — an idle range, 50 ms later —
//! touches no replica; the promise it carries reaches the replica's
//! tracker when a reader asks ([`SideRx::standing`]) or when the next
//! delivery for the range says something new.
//!
//! A batch that repeats its sender's previous one line for line — every
//! range under the same log index — is not even an event. Its only effect
//! on arrival would be to become its sender's newest batch, so the
//! receiver's inbox holds it *in flight* under the calendar key it was
//! reserved ([`SideRx::send`]). A reader passes the key of the event being
//! processed ([`SideRx::at`]) and sees every repeat at or below it as
//! arrived; the next delivery, send on the link or recall folds those in
//! for good. A repeat stays a pure replacement only while three things
//! hold, and goes back on the calendar under its key, to be delivered like
//! any other batch, as soon as one fails: no later batch on its link lands
//! first (it would arrive overtaken), no other sender's promise outranks its
//! sender at this node (it would arrive crossed), and the topology has not
//! changed since it was sent (its receiver may die or be cut off before it
//! lands; after a change, each link's next batch is an event too). A run up
//! to an instant moves the clock to the last repeat that landed by then, so
//! the clock reads what it would have had every repeat been an event.
//!
//! REGIONAL ranges close time in the past (`now - lag`, default 3s). GLOBAL
//! ranges close time in the future at target
//! `now + L_raft + L_replicate + max_clock_offset` so that present-time
//! reads (plus their uncertainty intervals) are already closed on every
//! replica by the time they happen (§6.2.1).

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_proto::RangeId;
use mr_sim::{EventKey, NodeId, SimDuration, SimTime};

use crate::zone::ClosedTsPolicy;

/// Parameters for closed-timestamp target computation.
#[derive(Clone, Copy, Debug)]
pub struct ClosedTsParams {
    /// How far in the past REGIONAL ranges close (default 3s).
    pub lag: SimDuration,
    /// Estimated Raft consensus latency for this range (1 RTT to the
    /// nearest quorum; §6.2.1 cites 2-5ms ZONE / 20-30ms REGION).
    pub raft_latency: SimDuration,
    /// Estimated time for a committed entry to reach the furthest follower
    /// (§6.2.1 cites 100-125ms).
    pub replicate_latency: SimDuration,
    /// Extra slack covering the side-transport publication interval and
    /// residual gateway↔leaseholder clock skew, so that a promise is still
    /// ahead of every reader's uncertainty limit when the *next* promise
    /// arrives. (§6.2.1 folds this into its latency estimates; we make it
    /// explicit. `Cluster::new` derives it from the side-transport interval
    /// and the configured skew amplitude, or takes
    /// `ClusterConfig::lead_slack_override`.)
    pub(crate) lead_slack: SimDuration,
    /// Maximum tolerated clock skew (uncertainty interval width).
    /// `Cluster::new` copies it from `ClusterConfig::clock`.
    pub(crate) max_clock_offset: SimDuration,
}

impl ClosedTsParams {
    pub const DEFAULT_LAG_SECS: u64 = 3;

    /// Maximum tolerated clock skew the lead covers.
    pub fn max_clock_offset(&self) -> SimDuration {
        self.max_clock_offset
    }

    /// The future-time lead for GLOBAL ranges:
    /// `L_raft + L_replicate + slack + max_clock_offset`.
    pub fn lead(&self) -> SimDuration {
        self.raft_latency + self.replicate_latency + self.lead_slack + self.max_clock_offset
    }

    /// The closed-timestamp target for a leaseholder whose clock reads
    /// `now_ts`.
    pub fn target(&self, policy: ClosedTsPolicy, now_ts: Timestamp) -> Timestamp {
        match policy {
            ClosedTsPolicy::Lag => Timestamp::new(now_ts.wall.saturating_sub(self.lag.nanos()), 0),
            // Future-time targets are synthetic: no clock has reached them.
            ClosedTsPolicy::Lead => {
                Timestamp::new(now_ts.wall + self.lead().nanos(), 0).as_synthetic()
            }
        }
    }
}

impl Default for ClosedTsParams {
    fn default() -> Self {
        ClosedTsParams {
            lag: SimDuration::from_secs(Self::DEFAULT_LAG_SECS),
            raft_latency: SimDuration::from_millis(4),
            replicate_latency: SimDuration::from_millis(150),
            lead_slack: SimDuration::from_millis(175),
            max_clock_offset: SimDuration::from_millis(250),
        }
    }
}

/// Follower-side tracker for the closed timestamp of one replica.
///
/// Closed timestamps arrive either on applied Raft entries (immediately
/// usable: applying the entry proves the prefix is applied) or via the side
/// transport, which references a log index that must be applied before the
/// promise activates.
#[derive(Clone, Debug, Default)]
pub struct ClosedTsTracker {
    /// Active closed timestamp: reads at or below this are safe (modulo
    /// intents).
    active: Timestamp,
    /// Side-transport promise awaiting log application: `(ts, index)`.
    pending: Option<(Timestamp, u64)>,
    /// Side-transport tick of the newest inbox promise taken in through
    /// [`ClosedTsTracker::settle`]; promises from that tick or earlier are
    /// not taken in again.
    settled_tick: u64,
}

impl ClosedTsTracker {
    pub fn new() -> ClosedTsTracker {
        ClosedTsTracker::default()
    }

    /// The closed timestamp currently usable for follower reads.
    pub fn closed(&self) -> Timestamp {
        self.active
    }

    /// Signed distance from `now_wall` back to the closed frontier, in
    /// nanoseconds. Negative when the frontier *leads* present time, as on
    /// lead-policy (GLOBAL) ranges. Exposed as the `kv.closedts.lag_nanos`
    /// gauge at every observability scrape.
    pub fn lag_nanos(&self, now_wall: u64) -> i64 {
        now_wall as i64 - self.active.wall as i64
    }

    /// A Raft entry carrying `closed` was applied.
    pub fn on_entry_applied(&mut self, closed: Timestamp, applied_index: u64) {
        self.active = self.active.forward(closed);
        self.activate_pending(applied_index);
    }

    /// A side-transport update arrived: `closed` holds once `index` is
    /// applied.
    pub fn on_side_transport(&mut self, closed: Timestamp, index: u64, applied_index: u64) {
        if applied_index >= index {
            self.active = self.active.forward(closed);
        } else {
            match self.pending {
                Some((ts, _)) if ts >= closed => {}
                _ => self.pending = Some((closed, index)),
            }
        }
    }

    /// Take in a promise from the node's side-transport inbox, once per
    /// tick: [`ClosedTsTracker::on_side_transport`] for a promise newer
    /// than any this tracker has seen, nothing for one it already holds
    /// (so a read right after `fault_regress` does not undo the fault; the
    /// next tick's promise does) or that predates it.
    pub fn settle(&mut self, p: SidePromise, applied_index: u64) {
        if p.tick > self.settled_tick {
            self.settled_tick = p.tick;
            self.on_side_transport(p.closed, p.index, applied_index);
        }
    }

    /// Declare every promise sent through side-transport tick `tick` stale
    /// for this tracker. A re-installed replica starts a new Raft log, so
    /// the indices of promises still standing in its node's inbox, or still
    /// on the wire, name positions in a log it does not have; the frontier
    /// it was seeded with already covers what they promised.
    pub fn settled_through(&mut self, tick: u64) {
        self.settled_tick = self.settled_tick.max(tick);
    }

    /// Fault injection for the online invariant monitors: forcibly move the
    /// active closed timestamp *backwards* by `delta_nanos`. Real trackers
    /// only ever `forward`; tests use this to prove that the
    /// `closed_ts_monotonic` monitor detects a regressing frontier.
    pub fn fault_regress(&mut self, delta_nanos: u64) {
        self.active = Timestamp::new(self.active.wall.saturating_sub(delta_nanos), 0);
    }

    fn activate_pending(&mut self, applied_index: u64) {
        if let Some((ts, idx)) = self.pending {
            if applied_index >= idx {
                self.active = self.active.forward(ts);
                self.pending = None;
            }
        }
    }
}

/// Leaseholder-side closed timestamp state: the highest target ever
/// promised. Writes must be forwarded above this.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClosedTsLeaseState {
    promised: Timestamp,
}

impl ClosedTsLeaseState {
    /// Compute the next closed-timestamp target at `now`, never regressing.
    pub fn advance(
        &mut self,
        params: &ClosedTsParams,
        policy: ClosedTsPolicy,
        now: SimTime,
        clock_skew: i64,
    ) -> Timestamp {
        let phys = ((now.nanos() as i64) + clock_skew).max(0) as u64;
        let target = params.target(policy, Timestamp::new(phys, 0));
        self.promised = self.promised.forward(target);
        self.promised
    }

    /// The highest timestamp promised closed so far.
    pub fn promised(&self) -> Timestamp {
        self.promised
    }

    /// Adopt a promise made by a previous leaseholder (lease transfer or
    /// failover): this leaseholder must never write below it.
    pub fn inherit(&mut self, promised: Timestamp) {
        self.promised = self.promised.forward(promised);
    }

    /// Minimum timestamp a new write may use: just above the promise.
    pub fn min_write_ts(&self) -> Timestamp {
        self.promised.next()
    }
}

/// One range's line in a side-transport batch: `closed` holds on a follower
/// once it has applied log index `index`.
pub type SideEntry = (RangeId, Timestamp, u64);

/// What one node promises in one side-transport tick: a line for every range
/// it leads and holds the lease of, ascending by range id. Built once per
/// sender per tick and shared by all of its destinations.
pub type SideBatch = Rc<[SideEntry]>;

/// Whether `next` lists the ranges `prev` lists, under the same log indices:
/// all it says beyond `prev` is that time moved on.
pub(crate) fn repeats(prev: &[SideEntry], next: &[SideEntry]) -> bool {
    prev.len() == next.len() && prev.iter().zip(next).all(|(p, n)| (p.0, p.2) == (n.0, n.2))
}

/// A side-transport promise as a tracker takes it in: one [`SideEntry`]
/// stamped with the cluster-wide tick its batch was sent in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SidePromise {
    pub tick: u64,
    pub closed: Timestamp,
    pub index: u64,
}

impl SidePromise {
    fn of(tick: u64, e: &SideEntry) -> SidePromise {
        SidePromise {
            tick,
            closed: e.1,
            index: e.2,
        }
    }
}

/// A side-transport batch on the wire: where it lands in the calendar's
/// order, and what it says.
#[derive(Clone, Debug)]
pub(crate) struct InFlight {
    pub(crate) key: EventKey,
    pub(crate) from: NodeId,
    pub(crate) tick: u64,
    pub(crate) batch: SideBatch,
}

/// What a node holds of one sender.
#[derive(Clone, Debug, Default)]
struct SenderSlot {
    /// `(tick, batch)` of the newest batch received.
    newest: Option<(u64, SideBatch)>,
    /// Tick of the newest batch with which another sender took a range over
    /// from this one. A batch this sender sent before that tick may still be
    /// on the wire and list the range as if nothing had happened.
    outranked_at: u64,
    /// Tick and landing key of the last batch the sender put on the link to
    /// this node since the topology last changed.
    sent: Option<(u64, EventKey)>,
    /// Repeats on the link, each landing after the one before: the first
    /// lands on the batch in `newest`.
    in_flight: VecDeque<InFlight>,
}

impl SenderSlot {
    /// `(tick, batch)` of the newest batch that has arrived when the
    /// calendar is at `now`: the last repeat that has landed, else the one
    /// received.
    fn newest_at(&self, now: EventKey) -> Option<(u64, &SideBatch)> {
        match self.in_flight.iter().take_while(|e| e.key <= now).last() {
            Some(e) => Some((e.tick, &e.batch)),
            None => self.newest.as_ref().map(|(t, b)| (*t, b)),
        }
    }

    /// The repeats that have landed by `now` replace, in turn, the batch
    /// each repeats as the newest.
    fn fold(&mut self, now: EventKey) {
        while let Some(e) = self.in_flight.pop_front_if(|e| e.key <= now) {
            debug_assert!(
                self.newest
                    .as_ref()
                    .is_some_and(|(t, b)| *t + 1 == e.tick && repeats(b, &e.batch)),
                "a repeat of tick {} lands on what it does not repeat",
                e.tick
            );
            debug_assert!(e.tick >= self.outranked_at, "a repeat lands crossed");
            self.newest = Some((e.tick, e.batch));
        }
    }
}

/// A promise that a line of `newest`, a sender's `(tick, batch)`, makes for
/// `range`.
fn listed_in(newest: Option<(u64, &SideBatch)>, range: RangeId) -> Option<SidePromise> {
    let (tick, batch) = newest?;
    let at = batch.binary_search_by_key(&range, |e| e.0).ok()?;
    Some(SidePromise::of(tick, &batch[at]))
}

/// Where a range's newest promise is, of those that have arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Holder {
    /// In this sender's newest batch: that line *stands*.
    Lists(u32),
    /// Nowhere: the sender that listed the range stopped, the promise of
    /// this tick was its last, and the tracker has been offered it.
    Left(u64),
}

/// A node's side-transport inbox: the newest batch that has arrived from
/// each sender, and for each range the sender whose batch holds its
/// *standing* promise — the newest one sent, of those that have arrived.
///
/// What lets a delivery pass the replicas by: a tracker is behind its
/// range's standing promise only by promises that repeat the log index of
/// one it has already taken in. Everything else — a changed index, a range
/// that left its sender's batch, a range another sender takes over, a line
/// that crossed a newer one on the wire — is handed to the tracker as it
/// arrives, so [`ClosedTsTracker::on_side_transport`] sees the deliveries a
/// per-replica transport would have shown it, in their order, minus the
/// repeats; and a repeat `(ts', i)` after `(ts, i)` leaves the tracker
/// where `(ts', i)` alone does, whenever it is taken in.
///
/// Repeats in flight (see the module doc) wait in their sender's slot. A
/// reader counts the ones the calendar has passed as arrived
/// ([`SideRx::at`]); a delivery, a send on the link or a recall folds them
/// in first.
#[derive(Debug, Default)]
pub struct SideRx {
    /// By sender node id.
    senders: Vec<SenderSlot>,
    /// By range id (ids are handed out in sequence, so this stays dense).
    src: Vec<Option<Holder>>,
    /// Repeats that stopped being pure replacements, for the caller to put
    /// back on the calendar ([`SideRx::take_evicted`]).
    evicted: Vec<InFlight>,
}

/// The inbox as a reader sees it while the calendar is at `now`: every
/// repeat that has landed by then counts as arrived.
#[derive(Clone, Copy)]
pub struct SideRxAt<'a> {
    rx: &'a SideRx,
    now: EventKey,
}

impl SideRxAt<'_> {
    /// The promise a reader of `range`'s closed timestamp must hand to the
    /// replica's tracker first ([`ClosedTsTracker::settle`]).
    pub fn standing(&self, range: RangeId) -> Option<SidePromise> {
        match self.rx.holder(range)? {
            Holder::Lists(sender) => listed_in(
                self.rx.senders.get(sender as usize)?.newest_at(self.now),
                range,
            ),
            Holder::Left(_) => None,
        }
    }
}

impl SideRx {
    /// The inbox as a reader sees it when the calendar is at `now`.
    pub fn at(&self, now: EventKey) -> SideRxAt<'_> {
        SideRxAt { rx: self, now }
    }

    /// Every slot's repeats that have landed by `now`, folded in: what a
    /// delivery or a recall rewrites must be what a reader would see.
    fn fold_all(&mut self, now: EventKey) {
        for slot in &mut self.senders {
            slot.fold(now);
        }
    }

    /// `from` puts its batch of tick `tick` on the link to this node, to land
    /// at `key` (reserved while the calendar is at `now`). `repeat`: the batch
    /// lists the ranges and indices of the sender's batch of the tick before.
    /// The inbox holds it in flight and returns true when it is a pure
    /// replacement of that batch — the link carried the batch, this one
    /// lands after it, and nothing outranks the sender here — and returns
    /// false when the caller must schedule it under `key`. Repeats already
    /// in flight that this batch overtakes are evicted.
    pub(crate) fn send(
        &mut self,
        now: EventKey,
        from: NodeId,
        tick: u64,
        key: EventKey,
        batch: &SideBatch,
        repeat: bool,
    ) -> bool {
        self.slot(from);
        let SideRx {
            senders, evicted, ..
        } = self;
        let slot = &mut senders[from.0 as usize];
        slot.fold(now);
        let prev = slot.sent.replace((tick, key));
        while let Some(e) = slot.in_flight.pop_back_if(|e| e.key > key) {
            evicted.push(e);
        }
        // Only batches that have arrived outrank a sender, and none of this
        // tick has arrived anywhere yet.
        debug_assert!(tick >= slot.outranked_at);
        if !(repeat && prev.is_some_and(|(t, k)| t + 1 == tick && k < key)) {
            return false;
        }
        slot.in_flight.push_back(InFlight {
            key,
            from,
            tick,
            batch: Rc::clone(batch),
        });
        true
    }

    /// The topology changed at `now`: every repeat in flight is evicted, and
    /// each link's next batch travels as an event.
    pub(crate) fn recall(&mut self, now: EventKey) {
        self.fold_all(now);
        let SideRx {
            senders, evicted, ..
        } = self;
        for slot in senders {
            slot.sent = None;
            evicted.extend(slot.in_flight.drain(..));
        }
    }

    /// The repeats evicted since the last call, to be scheduled under their
    /// keys.
    pub(crate) fn take_evicted(&mut self) -> std::vec::Drain<'_, InFlight> {
        self.evicted.drain(..)
    }

    /// The latest key, at or before `t`, at which a repeat in flight lands.
    pub(crate) fn latest_landed(&self, t: SimTime) -> Option<EventKey> {
        self.senders
            .iter()
            .filter_map(|slot| slot.in_flight.iter().take_while(|e| e.key.at <= t).last())
            .map(|e| e.key)
            .max()
    }

    fn slot(&mut self, from: NodeId) -> &mut SenderSlot {
        let at = from.0 as usize;
        if self.senders.len() <= at {
            self.senders.resize(at + 1, SenderSlot::default());
        }
        &mut self.senders[at]
    }

    fn holder(&self, range: RangeId) -> Option<Holder> {
        *self.src.get(range.0 as usize)?
    }

    fn set_holder(&mut self, range: RangeId, holder: Holder) {
        let at = range.0 as usize;
        if self.src.len() <= at {
            self.src.resize(at + 1, None);
        }
        self.src[at] = Some(holder);
    }

    /// What `sender`'s newest batch promises for `range`, once the repeats
    /// that have landed are folded in.
    fn listed_by(&self, sender: u32, range: RangeId) -> Option<SidePromise> {
        let newest = self.senders.get(sender as usize)?.newest.as_ref();
        listed_in(newest.map(|(t, b)| (*t, b)), range)
    }

    /// `from`'s batch of tick `tick` arrived, the calendar at `now`. Calls
    /// `offer(range, promise, stands)` for every promise a tracker on this
    /// node must take in now, in the order it must take them; the caller
    /// routes each to the replica, if the node hosts one. `stands` is false
    /// for a promise that arrives after a newer one for its range: that one
    /// goes to [`ClosedTsTracker::on_side_transport`] as a plain late
    /// delivery, the rest through [`ClosedTsTracker::settle`].
    pub fn deliver(
        &mut self,
        now: EventKey,
        from: NodeId,
        tick: u64,
        batch: SideBatch,
        mut offer: impl FnMut(RangeId, SidePromise, bool),
    ) {
        self.fold_all(now);
        let slot = from.0 as usize;
        if self
            .slot(from)
            .newest
            .as_ref()
            .is_some_and(|(t, _)| *t > tick)
        {
            // Overtaken on the wire by a later batch of the same sender.
            // Each line is news measured against what stands, this sender's
            // newer line included; one that turns out to be the newest of
            // its range is also the last, its sender having dropped it since.
            for e in batch.iter() {
                let ours = self.listed_by(from.0, e.0);
                self.news(from.0, e.0, ours, SidePromise::of(tick, e), &mut offer);
                if ours.is_none() && self.holder(e.0) == Some(Holder::Lists(from.0)) {
                    self.set_holder(e.0, Holder::Left(tick));
                }
            }
            return;
        }
        // Sent before another sender's take-over but arriving after it: a
        // line may repeat its index and still not be this sender's to repeat.
        let sender = &mut self.senders[slot];
        let crossed = tick < sender.outranked_at;
        let prev = sender.newest.replace((tick, Rc::clone(&batch)));
        let (old_tick, old): (u64, &[SideEntry]) = match &prev {
            Some((t, b)) => (*t, b),
            None => (0, &[]),
        };
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < batch.len() {
            let order = match (old.get(i), batch.get(j)) {
                (Some(o), Some(n)) => o.0.cmp(&n.0),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            match order {
                // Left the batch — the sender no longer leads and leases
                // the range — but what it last promised still counts.
                Ordering::Less => {
                    let range = old[i].0;
                    if self.holder(range) == Some(Holder::Lists(from.0)) {
                        self.set_holder(range, Holder::Left(old_tick));
                        offer(range, SidePromise::of(old_tick, &old[i]), true);
                    }
                }
                // Listed before and now, under the same index: the promise
                // moved forward in time only, which can wait for a reader.
                Ordering::Equal
                    if old[i].2 == batch[j].2
                        && !(crossed && self.holder(old[i].0) != Some(Holder::Lists(from.0))) => {}
                _ => {
                    let ours =
                        (order == Ordering::Equal).then(|| SidePromise::of(old_tick, &old[i]));
                    let new = SidePromise::of(tick, &batch[j]);
                    self.news(from.0, batch[j].0, ours, new, &mut offer);
                }
            }
            i += usize::from(order != Ordering::Greater);
            j += usize::from(order != Ordering::Less);
        }
    }

    /// `from` lists `range` for the first time, or under a new index: the
    /// tracker takes in what stood until now — `ours`, `from`'s previous
    /// line, if `from` held the range, else the holder's — and then `new`,
    /// which stands from here on. Unless a newer promise stands already
    /// (two senders' batches crossed on the wire): then `new` is offered as
    /// the late delivery it is and displaces nothing.
    fn news(
        &mut self,
        from: u32,
        range: RangeId,
        ours: Option<SidePromise>,
        new: SidePromise,
        offer: &mut impl FnMut(RangeId, SidePromise, bool),
    ) {
        let holder = self.holder(range);
        // What stood until now, and the tick of the newest promise seen.
        let (stood, newest) = match holder {
            Some(Holder::Lists(h)) => {
                let stood = if h == from {
                    ours
                } else {
                    self.listed_by(h, range)
                };
                (stood, stood.map_or(0, |s| s.tick))
            }
            Some(Holder::Left(tick)) => (None, tick),
            None => (None, 0),
        };
        let late = newest > new.tick;
        if let Some(s) = stood {
            offer(range, s, true);
        }
        if late {
            self.outrank(from, newest);
            offer(range, new, false);
            return;
        }
        if holder != Some(Holder::Lists(from)) {
            self.set_holder(range, Holder::Lists(from));
            if let Some(Holder::Lists(h)) = holder {
                self.outrank(h, new.tick);
            }
        }
        offer(range, new, true);
    }

    /// Whichever of two senders loses a range here may have older batches
    /// on the wire that still list it: those sent before tick `by` arrive
    /// crossed, and the repeats among them are evicted.
    fn outrank(&mut self, sender: u32, by: u64) {
        let slot = &mut self.senders[sender as usize];
        slot.outranked_at = by.max(slot.outranked_at);
        while let Some(e) = slot.in_flight.pop_front_if(|e| e.tick < by) {
            self.evicted.push(e);
        }
    }

    /// Forget every batch: a node that lost its volatile state rebuilds its
    /// trackers from durable frontiers, below promises the old incarnation
    /// held, and must not be handed those promises back.
    ///
    /// A crash clears the inbox only after [`SideRx::recall`] (it is a
    /// topology change), so no repeat is in flight to lose.
    pub fn clear(&mut self) {
        debug_assert!(self.senders.iter().all(|s| s.in_flight.is_empty()));
        self.senders.clear();
        self.src.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn lag_target_is_in_the_past() {
        let p = ClosedTsParams::default();
        let now = Timestamp::new(SimDuration::from_secs(10).nanos(), 0);
        let t = p.target(ClosedTsPolicy::Lag, now);
        assert_eq!(t.wall, SimDuration::from_secs(7).nanos());
        assert!(!t.synthetic);
    }

    #[test]
    fn lag_target_saturates_at_zero() {
        let p = ClosedTsParams::default();
        let t = p.target(ClosedTsPolicy::Lag, Timestamp::new(5, 0));
        assert_eq!(t.wall, 0);
    }

    #[test]
    fn lead_target_is_future_and_synthetic() {
        let p = ClosedTsParams {
            raft_latency: SimDuration::from_millis(4),
            replicate_latency: SimDuration::from_millis(125),
            lead_slack: SimDuration::from_millis(100),
            max_clock_offset: SimDuration::from_millis(250),
            ..ClosedTsParams::default()
        };
        assert_eq!(p.lead(), SimDuration::from_millis(479));
        let now = Timestamp::new(SimDuration::from_secs(1).nanos(), 0);
        let t = p.target(ClosedTsPolicy::Lead, now);
        assert_eq!(
            t.wall,
            SimDuration::from_secs(1).nanos() + SimDuration::from_millis(479).nanos()
        );
        assert!(t.synthetic);
    }

    #[test]
    fn tracker_entry_applied() {
        let mut t = ClosedTsTracker::new();
        t.on_entry_applied(Timestamp::new(100, 0), 1);
        assert_eq!(t.closed(), Timestamp::new(100, 0));
        // Never regresses.
        t.on_entry_applied(Timestamp::new(50, 0), 2);
        assert_eq!(t.closed(), Timestamp::new(100, 0));
    }

    #[test]
    fn tracker_side_transport_waits_for_application() {
        let mut t = ClosedTsTracker::new();
        // Promise at index 5 while only 3 applied: pending.
        t.on_side_transport(Timestamp::new(200, 0), 5, 3);
        assert_eq!(t.closed(), Timestamp::ZERO);
        // Applying index 5 activates it.
        t.on_entry_applied(Timestamp::new(150, 0), 5);
        assert_eq!(t.closed(), Timestamp::new(200, 0));
    }

    #[test]
    fn tracker_side_transport_immediate_when_applied() {
        let mut t = ClosedTsTracker::new();
        t.on_side_transport(Timestamp::new(300, 0), 2, 2);
        assert_eq!(t.closed(), Timestamp::new(300, 0));
    }

    #[test]
    fn lease_state_never_regresses() {
        let p = ClosedTsParams::default();
        let mut s = ClosedTsLeaseState::default();
        let t1 = s.advance(
            &p,
            ClosedTsPolicy::Lead,
            SimTime(SimDuration::from_secs(10).nanos()),
            0,
        );
        // Clock goes "backwards" (skew change): promise holds.
        let t2 = s.advance(
            &p,
            ClosedTsPolicy::Lead,
            SimTime(SimDuration::from_secs(9).nanos()),
            0,
        );
        assert_eq!(t2, t1);
        assert!(s.min_write_ts() > s.promised());
    }

    #[test]
    fn lease_state_applies_skew() {
        let p = ClosedTsParams::default();
        let mut a = ClosedTsLeaseState::default();
        let mut b = ClosedTsLeaseState::default();
        let now = SimTime(SimDuration::from_secs(100).nanos());
        let ta = a.advance(&p, ClosedTsPolicy::Lag, now, 1_000_000);
        let tb = b.advance(&p, ClosedTsPolicy::Lag, now, -1_000_000);
        assert_eq!(ta.wall - tb.wall, 2_000_000);
    }

    // ---------------------------------------------------------------
    // The inbox against the per-replica delivery it replaced
    // ---------------------------------------------------------------

    fn r(id: u64) -> RangeId {
        RangeId(id)
    }

    fn ts(wall: u64) -> Timestamp {
        Timestamp::new(wall, 0)
    }

    fn batch(lines: &[(u64, u64, u64)]) -> SideBatch {
        lines.iter().map(|&(id, t, i)| (r(id), ts(t), i)).collect()
    }

    /// Deliver and return what the inbox offered, in order.
    fn offered(
        rx: &mut SideRx,
        from: u32,
        tick: u64,
        lines: &[(u64, u64, u64)],
    ) -> Vec<(u64, u64, u64, bool)> {
        let mut out = Vec::new();
        rx.deliver(
            EventKey::ZERO,
            NodeId(from),
            tick,
            batch(lines),
            |range, p, stands| out.push((range.0, p.tick, p.closed.wall, stands)),
        );
        out
    }

    #[test]
    fn same_index_touches_no_tracker_and_moves_the_standing_promise() {
        let mut rx = SideRx::default();
        assert_eq!(
            offered(&mut rx, 0, 1, &[(1, 100, 5), (2, 100, 9)]),
            vec![(1, 1, 100, true), (2, 1, 100, true)],
            "first sight of a range is news"
        );
        assert_eq!(offered(&mut rx, 0, 2, &[(1, 150, 5), (2, 150, 9)]), vec![]);
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(1)),
            Some(SidePromise {
                tick: 2,
                closed: ts(150),
                index: 5
            })
        );
        assert_eq!(rx.at(EventKey::ZERO).standing(r(3)), None);
    }

    #[test]
    fn changed_index_offers_the_old_promise_then_the_new() {
        let mut rx = SideRx::default();
        offered(&mut rx, 0, 1, &[(1, 100, 5), (2, 100, 9)]);
        offered(&mut rx, 0, 2, &[(1, 150, 5), (2, 150, 9)]);
        assert_eq!(
            offered(&mut rx, 0, 3, &[(1, 200, 6), (2, 200, 9)]),
            vec![(1, 2, 150, true), (1, 3, 200, true)],
            "range 2 repeated its index and is passed by"
        );
    }

    #[test]
    fn a_range_that_left_the_batch_keeps_its_last_promise() {
        let mut rx = SideRx::default();
        offered(&mut rx, 0, 1, &[(1, 100, 5), (2, 100, 9)]);
        offered(&mut rx, 0, 2, &[(1, 150, 5), (2, 150, 9)]);
        assert_eq!(
            offered(&mut rx, 0, 3, &[(2, 200, 9)]),
            vec![(1, 2, 150, true)]
        );
        assert_eq!(rx.at(EventKey::ZERO).standing(r(1)), None);
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(2)).map(|p| p.tick),
            Some(3)
        );
    }

    #[test]
    fn a_second_sender_takes_over_after_the_first_ones_promise_is_offered() {
        let mut rx = SideRx::default();
        offered(&mut rx, 0, 1, &[(1, 100, 5)]);
        offered(&mut rx, 0, 2, &[(1, 150, 5)]);
        assert_eq!(
            offered(&mut rx, 1, 3, &[(1, 200, 6)]),
            vec![(1, 2, 150, true), (1, 3, 200, true)]
        );
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(1)).map(|p| p.tick),
            Some(3)
        );
        // The first sender's tick-3 batch no longer lists the range; it is
        // not this sender's promise to retire any more.
        assert_eq!(
            offered(&mut rx, 0, 3, &[(7, 200, 1)]),
            vec![(7, 3, 200, true)]
        );
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(1)).map(|p| p.tick),
            Some(3)
        );
    }

    #[test]
    fn a_batch_overtaken_on_the_wire_is_late_where_a_newer_line_stands() {
        let mut rx = SideRx::default();
        offered(&mut rx, 0, 1, &[(1, 100, 5)]);
        offered(&mut rx, 0, 3, &[(1, 200, 5)]);
        // Range 1: what stands goes first, then the late line. Range 2 was
        // listed at tick 2 only: its newest promise, and its last.
        assert_eq!(
            offered(&mut rx, 0, 2, &[(1, 150, 5), (2, 150, 1)]),
            vec![(1, 3, 200, true), (1, 2, 150, false), (2, 2, 150, true)]
        );
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(1)).map(|p| p.tick),
            Some(3)
        );
        assert_eq!(rx.at(EventKey::ZERO).standing(r(2)), None);
    }

    #[test]
    fn a_line_that_crossed_a_take_over_is_late_even_under_its_old_index() {
        let mut rx = SideRx::default();
        offered(&mut rx, 0, 1, &[(1, 100, 5)]);
        // Sender 1's tick-3 batch beats sender 0's tick-2 batch to this node.
        offered(&mut rx, 1, 3, &[(1, 200, 6)]);
        assert_eq!(
            offered(&mut rx, 0, 2, &[(1, 150, 5)]),
            vec![(1, 3, 200, true), (1, 2, 150, false)]
        );
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(1)).map(|p| p.tick),
            Some(3)
        );
        // Under a new index it is no less late.
        let mut rx = SideRx::default();
        offered(&mut rx, 0, 1, &[(1, 100, 5)]);
        offered(&mut rx, 1, 3, &[(1, 200, 7)]);
        assert_eq!(
            offered(&mut rx, 0, 2, &[(1, 150, 6)]),
            vec![(1, 3, 200, true), (1, 2, 150, false)]
        );
        assert_eq!(
            rx.at(EventKey::ZERO).standing(r(1)).map(|p| p.tick),
            Some(3)
        );
    }

    #[test]
    fn settle_takes_a_tick_once_and_nothing_older() {
        let mut t = ClosedTsTracker::new();
        let p = |tick, closed, index| SidePromise {
            tick,
            closed: ts(closed),
            index,
        };
        t.settle(p(4, 400, 2), 2);
        assert_eq!(t.closed(), ts(400));
        t.fault_regress(100);
        t.settle(p(4, 400, 2), 2);
        assert_eq!(t.closed(), ts(300), "the same tick does not undo the fault");
        t.settle(p(5, 450, 2), 2);
        assert_eq!(t.closed(), ts(450), "the next one does");
        // A re-installed replica: promises up to the install are stale.
        let mut t = ClosedTsTracker::new();
        t.settled_through(7);
        t.settle(p(7, 700, 0), 0);
        assert_eq!(t.closed(), Timestamp::ZERO);
        t.settle(p(8, 800, 0), 0);
        assert_eq!(t.closed(), ts(800));
    }

    #[test]
    fn a_repeat_waits_in_flight_until_the_calendar_passes_its_key() {
        let key = |at, seq| EventKey {
            at: SimTime(at),
            seq,
        };
        let mut rx = SideRx::default();
        let first = batch(&[(1, 100, 5)]);
        assert!(!rx.send(key(0, 1), NodeId(0), 1, key(10, 2), &first, false));
        rx.deliver(key(10, 2), NodeId(0), 1, first, |_, _, _| {});
        let again = batch(&[(1, 150, 5)]);
        assert!(rx.send(key(50, 3), NodeId(0), 2, key(60, 4), &again, true));
        assert_eq!(rx.at(key(60, 3)).standing(r(1)).map(|p| p.tick), Some(1));
        assert_eq!(rx.at(key(60, 4)).standing(r(1)).map(|p| p.tick), Some(2));
        // A third batch that lands before the second it repeats overtakes it:
        // both travel as events.
        assert!(rx.send(key(100, 5), NodeId(0), 3, key(120, 6), &again, true));
        assert!(!rx.send(key(105, 7), NodeId(0), 4, key(110, 8), &again, true));
        let evicted: Vec<u64> = rx.take_evicted().map(|e| e.tick).collect();
        assert_eq!(evicted, vec![3]);
        assert_eq!(rx.latest_landed(SimTime(200)), None);
    }

    /// One follower node hosting three ranges, two senders, and the two
    /// ways of telling the node's trackers about side-transport promises:
    /// `oracle` gets every line of every batch as it arrives (the
    /// per-replica delivery this inbox replaced), `lazy` gets what the
    /// inbox offers plus a settle before each read. Batches travel through
    /// a calendar the way the cluster ships them: each takes a key, and the
    /// inbox holds the repeats it can in flight.
    struct Model {
        rx: SideRx,
        q: EventQueue<(u32, u64, SideBatch)>,
        oracle: [ClosedTsTracker; 3],
        lazy: [ClosedTsTracker; 3],
        /// Per range: who leads and leases it, whether that sender lists it
        /// this tick, the leader's last index, the follower's applied index.
        leader: [u32; 3],
        listed: [bool; 3],
        last: [u64; 3],
        applied: [u64; 3],
        tick: u64,
        /// Each sender's batch of the last tick.
        prev: [Option<SideBatch>; 2],
        /// Every batch sent and not yet landed, event or not: the oracle's
        /// wire.
        wire: Vec<(EventKey, SideBatch)>,
        /// The follower is down: nothing is sent to it, and what lands
        /// meanwhile is lost.
        down: bool,
    }

    impl Model {
        fn new() -> Model {
            Model {
                rx: SideRx::default(),
                q: EventQueue::new(),
                oracle: Default::default(),
                lazy: Default::default(),
                leader: [0, 0, 1],
                listed: [true; 3],
                last: [1; 3],
                applied: [1; 3],
                tick: 0,
                prev: Default::default(),
                wire: Vec::new(),
                down: false,
            }
        }

        /// One side-transport tick: every sender with something to say puts
        /// a batch on the wire, sender `s` one that lands `delays[s]` later.
        /// Promises rise with the tick, as a clock does.
        fn send(&mut self, delays: [u64; 2]) {
            self.tick += 1;
            for s in 0..2u32 {
                let lines: Vec<SideEntry> = (0..3)
                    .filter(|&k| self.leader[k] == s && self.listed[k])
                    .map(|k| (r(k as u64), ts(1_000 + 50 * self.tick), self.last[k]))
                    .collect();
                let lines = (!lines.is_empty()).then(|| SideBatch::from(lines));
                let prev = std::mem::replace(&mut self.prev[s as usize], lines.clone());
                let Some(lines) = lines else {
                    continue;
                };
                if self.down {
                    continue;
                }
                let repeat = prev.is_some_and(|p| repeats(&p, &lines));
                let key = self.q.reserve(SimDuration(delays[s as usize]));
                self.wire.push((key, Rc::clone(&lines)));
                let now = self.q.key();
                if !self.rx.send(now, NodeId(s), self.tick, key, &lines, repeat) {
                    self.q.schedule_keyed(key, (s, self.tick, lines));
                }
                self.resend();
            }
        }

        fn resend(&mut self) {
            for e in self.rx.take_evicted() {
                self.q.schedule_keyed(e.key, (e.from.0, e.tick, e.batch));
            }
        }

        /// The oracle takes in, in calendar order, every batch that has
        /// landed by now.
        fn oracle_catch_up(&mut self) {
            let now = self.q.key();
            self.wire.sort_by_key(|w| w.0);
            let landed = self.wire.partition_point(|w| w.0 <= now);
            for (_, lines) in self.wire.drain(..landed) {
                for &(range, closed, index) in lines.iter().filter(|_| !self.down) {
                    let k = range.0 as usize;
                    self.oracle[k].on_side_transport(closed, index, self.applied[k]);
                }
            }
        }

        /// The next event on the calendar fires: a batch arrives.
        fn arrive(&mut self) {
            let Some((_, (s, tick, lines))) = self.q.pop() else {
                return;
            };
            self.oracle_catch_up();
            if self.down {
                return;
            }
            let (lazy, applied) = (&mut self.lazy, &self.applied);
            let now = self.q.key();
            self.rx
                .deliver(now, NodeId(s), tick, lines, |range, p, stands| {
                    let k = range.0 as usize;
                    if stands {
                        lazy[k].settle(p, applied[k]);
                    } else {
                        lazy[k].on_side_transport(p.closed, p.index, applied[k]);
                    }
                });
            self.resend();
        }

        /// Run the calendar `d` past now, as `Cluster::run_until` does.
        fn run_for(&mut self, d: u64) {
            let t = SimTime(self.q.now().0 + d);
            while self.q.peek_time().is_some_and(|pt| pt <= t) {
                self.arrive();
            }
            if let Some(key) = self.rx.latest_landed(t) {
                self.q.advance_to(key);
            }
        }

        /// The follower goes down or comes back: a topology change.
        fn toggle_down(&mut self) {
            self.oracle_catch_up();
            self.rx.recall(self.q.key());
            self.resend();
            self.down = !self.down;
        }

        fn apply(&mut self, k: usize) {
            if self.applied[k] < self.last[k] {
                self.oracle_catch_up();
                self.applied[k] += 1;
                self.oracle[k].on_entry_applied(Timestamp::ZERO, self.applied[k]);
                self.lazy[k].on_entry_applied(Timestamp::ZERO, self.applied[k]);
            }
        }

        fn read(&mut self, k: usize) -> (Timestamp, Timestamp) {
            self.oracle_catch_up();
            if let Some(p) = self.rx.at(self.q.key()).standing(r(k as u64)) {
                self.lazy[k].settle(p, self.applied[k]);
            }
            (self.oracle[k].closed(), self.lazy[k].closed())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8192, ..ProptestConfig::default() })]

        /// Whatever the schedule, a read sees the closed timestamp the
        /// per-replica delivery would have produced.
        #[test]
        fn inbox_and_settle_agree_with_per_replica_delivery(
            steps in prop::collection::vec((0u8..13, 0usize..3, 0u64..4), 1..160),
        ) {
            let mut m = Model::new();
            for (n, (kind, k, d)) in steps.into_iter().enumerate() {
                match kind {
                    // Index same: just another tick. Links take 1-4 units.
                    0..=2 => m.send([1 + d, 1 + (d + k as u64) % 4]),
                    // Index advanced: the leader appended.
                    3 => m.last[k] += 1,
                    // Entry applied on the follower.
                    4 | 5 => m.apply(k),
                    // Range dropped: its sender stops listing it (lost
                    // leadership) until someone takes it over.
                    6 if d == 0 => m.listed[k] = false,
                    // The other sender takes the range over; a new leader's
                    // first act is a no-op entry.
                    7 if d < 2 => {
                        m.leader[k] ^= 1;
                        m.listed[k] = true;
                        m.last[k] += 1;
                    }
                    // The next batch on the calendar arrives.
                    8 | 9 => m.arrive(),
                    // Time passes: whatever lands meanwhile, repeats held in
                    // flight included.
                    10 => m.run_for(d),
                    11 if d == 0 => m.toggle_down(),
                    // Read: the only time `lazy` is settled, so promises
                    // stand unseen across the steps in between.
                    12 => {
                        let (oracle, lazy) = m.read(k);
                        prop_assert_eq!(oracle, lazy, "step {} range {}", n, k);
                    }
                    _ => {}
                }
            }
            m.run_for(8);
            for k in 0..3 {
                let (oracle, lazy) = m.read(k);
                prop_assert_eq!(oracle, lazy, "at the end, range {}", k);
            }
        }
    }
}
