//! The Raft state machine.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use mr_sim::{SimDuration, SimTime};

/// A replica's identity within its Raft group.
pub type Peer = u32;

/// A replicated log entry carrying an opaque payload.
///
/// Copy discipline: an entry is cloned into every log that appends it and
/// out of every [`RaftNode::take_committed`] drain, never into a message
/// (an `AppendEntries` carries a [`Window`] of the sender's log). `P`
/// should be a handle whose clone is a pointer copy (`mr-kv` uses
/// `Rc<[Command]>`): the payload is materialised once at the proposal and
/// every log and apply shares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry<P> {
    pub index: u64,
    pub term: u64,
    pub payload: P,
}

/// A replica's log, shared with the [`Window`]s it has sent. Appends go to
/// the shared vector (a window reads only the positions it was cut with);
/// truncation copies first when a window still shares it
/// ([`RaftNode::truncate_log`]).
type Log<P> = Rc<RefCell<Vec<Entry<P>>>>;

/// The positions `[start, end)` of a sender's log, shared rather than
/// copied: an append re-covers its follower's whole unacked window, and
/// that costs one reference count. The sender only ever pushes to a log a
/// window shares, and copies the kept prefix before it cuts one, so a
/// window reads the entries it was cut with for as long as it lives.
#[derive(Clone)]
pub struct Window<P> {
    log: Log<P>,
    start: usize,
    end: usize,
}

impl<P> Window<P> {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The window's entries, borrowed from the sender's log. Drop the
    /// borrow before handing control back to the sender.
    pub fn entries(&self) -> Ref<'_, [Entry<P>]> {
        Ref::map(self.log.borrow(), |log| &log[self.start..self.end])
    }
}

/// Prints the entries, as the `Vec` it stands for would.
impl<P: fmt::Debug> fmt::Debug for Window<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries().iter()).finish()
    }
}

/// Raft messages exchanged between replicas of one group. The transport
/// wraps them in an envelope carrying `(group, from, to)`.
#[derive(Clone, Debug)]
pub enum RaftMsg<P> {
    AppendEntries {
        term: u64,
        prev_index: u64,
        prev_term: u64,
        entries: Window<P>,
        commit: u64,
    },
    AppendResp {
        term: u64,
        success: bool,
        /// Highest index known replicated on the sender (on success), or
        /// the sender's hint for where to back up to (on failure).
        match_index: u64,
    },
    RequestVote {
        term: u64,
        last_index: u64,
        last_term: u64,
    },
    VoteResp {
        term: u64,
        granted: bool,
    },
    /// Leadership transfer: the recipient should campaign immediately.
    TimeoutNow {
        term: u64,
    },
    /// Range quiescence (§ CRDB's idle-range optimization): the leader has
    /// nothing in flight and every follower is caught up through `commit`,
    /// so heartbeats stop until new traffic arrives. A caught-up recipient
    /// parks its election timer; a lagging one answers with a failed
    /// `AppendResp`, which un-quiesces the leader and triggers repair.
    Quiesce {
        term: u64,
        commit: u64,
        /// Term of the leader's entry at `commit` — the recipient may only
        /// park if its own log matches (the AppendEntries consistency check
        /// in miniature; without it a divergent uncommitted suffix of the
        /// same length would be silently treated as committed).
        last_term: u64,
    },
}

/// Raft role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Static configuration of one replica.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    pub id: Peer,
    /// Voting members of the group (must include `id` if this replica votes).
    pub voters: Vec<Peer>,
    /// Non-voting members: receive the log, never vote or count for quorum.
    pub learners: Vec<Peer>,
    /// Base election timeout; staggered per replica for determinism.
    pub election_timeout: SimDuration,
    pub heartbeat_interval: SimDuration,
    /// Allow idle ranges to quiesce (stop heartbeating). Disable for A/B
    /// heartbeat-rate measurements (`raft_probe`).
    pub quiesce: bool,
}

impl RaftConfig {
    pub fn is_voter(&self, p: Peer) -> bool {
        self.voters.contains(&p)
    }

    fn quorum(&self) -> usize {
        self.voters.len() / 2 + 1
    }
}

/// What a leader knows about one peer's log.
#[derive(Clone, Copy)]
struct Progress {
    /// Next log index to send.
    next: u64,
    /// Highest index known replicated.
    matched: u64,
    /// Highest index already shipped (suppresses duplicate streaming: an
    /// ack only triggers a follow-up append once everything previously sent
    /// has been acknowledged).
    sent: u64,
}

/// One replica's Raft state machine.
pub struct RaftNode<P> {
    cfg: RaftConfig,
    role: Role,
    term: u64,
    voted_for: Option<Peer>,
    log: Log<P>,
    commit_index: u64,
    applied_index: u64,
    /// Known leader (for redirect hints).
    leader_hint: Option<Peer>,
    /// Every other member, voters then learners: whom a leader replicates to.
    peers: Vec<Peer>,
    /// Leader replication progress, indexed by peer id (built on election,
    /// empty on a replica that never led; slots of non-members and of this
    /// replica itself are never read).
    progress: Vec<Progress>,
    /// Candidate vote tally.
    votes: usize,
    last_heartbeat: SimTime,
    last_broadcast: SimTime,
    /// Entries appended via [`RaftNode::propose_batched`] that have not
    /// been shipped yet (group commit: one broadcast covers them all).
    pending_broadcast: bool,
    /// Quiesced: an idle leader stops heartbeating, an idle follower parks
    /// its election timer. Any received message, proposal, or explicit
    /// [`RaftNode::unquiesce`] wakes the replica.
    quiesced: bool,
    /// Highest log index durably fsynced. Normally tracks the log tail
    /// (entries are synced at append, the Raft durability contract);
    /// with `defer_log_sync` it only advances on [`RaftNode::mark_log_synced`]
    /// — the armed `InjectedBug::WalSkipFsync` acks entries before their fsync.
    log_synced_index: u64,
    /// When set, appends do NOT advance `log_synced_index`.
    defer_log_sync: bool,
}

impl<P: Clone> RaftNode<P> {
    pub fn new(cfg: RaftConfig, now: SimTime) -> RaftNode<P> {
        let members = cfg.voters.iter().chain(&cfg.learners);
        let peers: Vec<Peer> = members.copied().filter(|&p| p != cfg.id).collect();
        RaftNode {
            cfg,
            role: Role::Follower,
            term: 0,
            voted_for: None,
            log: Log::default(),
            commit_index: 0,
            applied_index: 0,
            leader_hint: None,
            peers,
            progress: Vec::new(),
            votes: 0,
            last_heartbeat: now,
            last_broadcast: now,
            pending_broadcast: false,
            quiesced: false,
            log_synced_index: 0,
            defer_log_sync: false,
        }
    }

    /// Force this replica to start as the group's leader at term 1 without
    /// an election (used at range creation: the allocator designates the
    /// initial leaseholder, mirroring CRDB's bootstrap).
    pub fn bootstrap_leader(&mut self, now: SimTime) {
        self.term = 1;
        self.become_leader(now);
    }

    pub fn id(&self) -> Peer {
        self.cfg.id
    }

    pub fn role(&self) -> Role {
        self.role
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    pub fn leader_hint(&self) -> Option<Peer> {
        if self.is_leader() {
            Some(self.cfg.id)
        } else {
            self.leader_hint
        }
    }

    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Index up to which committed entries have been drained via
    /// [`RaftNode::take_committed`].
    pub fn applied_index(&self) -> u64 {
        self.applied_index
    }

    pub fn last_index(&self) -> u64 {
        self.log.borrow().len() as u64
    }

    /// Term of the last log entry (0 when the log is empty).
    pub fn last_log_term(&self) -> u64 {
        self.last_term()
    }

    pub fn config(&self) -> &RaftConfig {
        &self.cfg
    }

    /// Log durability bookkeeping after any append or truncation: entries
    /// are fsynced at append unless syncs are deferred (armed fsync bug).
    /// A truncation can only lower the synced horizon.
    fn after_log_change(&mut self) {
        let tail = self.last_index();
        if self.defer_log_sync {
            self.log_synced_index = self.log_synced_index.min(tail);
        } else {
            self.log_synced_index = tail;
        }
    }

    /// Highest durably fsynced log index.
    pub fn log_synced_index(&self) -> u64 {
        self.log_synced_index
    }

    /// Arm or disarm deferred log syncs (the `InjectedBug::WalSkipFsync` canary:
    /// entries are acked before they are durable).
    pub fn set_defer_log_sync(&mut self, defer: bool) {
        self.defer_log_sync = defer;
        if !defer {
            self.after_log_change();
        }
    }

    /// Fsync the log tail now (the periodic sync tick under deferred mode).
    pub fn mark_log_synced(&mut self) {
        self.log_synced_index = self.last_index();
    }

    /// Crash losing volatile state and come back as a cold follower. The
    /// log survives up to its fsynced horizon (`drop_unsynced_log` models
    /// the armed fsync bug, where acked-but-unsynced entries are lost);
    /// `recovered_applied` is the apply index the storage engine recovered
    /// to — commit/apply progress regresses there and the entries above it
    /// re-commit through normal replication.
    pub fn crash_volatile(&mut self, recovered_applied: u64, drop_unsynced_log: bool) {
        if drop_unsynced_log {
            self.truncate_log(self.log_synced_index);
        }
        self.after_log_change();
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes = 0;
        self.pending_broadcast = false;
        self.quiesced = false;
        let resume = recovered_applied.min(self.last_index());
        self.applied_index = resume;
        self.commit_index = resume;
    }

    fn last_term(&self) -> u64 {
        self.log.borrow().last().map_or(0, |e| e.term)
    }

    fn term_at(&self, index: u64) -> Option<u64> {
        if index == 0 {
            Some(0)
        } else {
            self.log.borrow().get(index as usize - 1).map(|e| e.term)
        }
    }

    /// Cut the log back to its first `len` entries. A [`Window`] still in
    /// flight may share the log, so a shared log is not cut: this replica
    /// moves to a copy of the kept prefix, and the window keeps reading the
    /// entries it was cut with, exactly as a copied message would.
    fn truncate_log(&mut self, len: u64) {
        let len = len as usize;
        if len >= self.log.borrow().len() {
            return;
        }
        if Rc::strong_count(&self.log) > 1 {
            let kept = self.log.borrow()[..len].to_vec();
            self.log = Rc::new(RefCell::new(kept));
        } else {
            self.log.borrow_mut().truncate(len);
        }
    }

    /// Staggered election timeout: replica ids fire at different times so
    /// deterministic simulations avoid split votes.
    fn my_election_timeout(&self) -> SimDuration {
        self.cfg.election_timeout
            + SimDuration(self.cfg.heartbeat_interval.nanos() / 2 * self.cfg.id as u64)
    }

    // ---- Input: proposals ----

    /// Append a payload to the leader's log and broadcast it. Returns the
    /// assigned index, or `None` if this replica is not the leader.
    pub fn propose(&mut self, payload: P, now: SimTime) -> Option<(u64, Vec<(Peer, RaftMsg<P>)>)> {
        let index = self.propose_batched(payload)?;
        Some((index, self.broadcast_appends(now)))
    }

    /// Append a payload to the leader's log *without* broadcasting it:
    /// group commit. The entry ships on the next [`RaftNode::flush_appends`]
    /// (or the heartbeat rebroadcast, which acts as the safety net), so
    /// several proposals arriving close together amortize into a single
    /// consensus round. Returns the assigned index, or `None` if this
    /// replica is not the leader.
    pub fn propose_batched(&mut self, payload: P) -> Option<u64> {
        if self.role != Role::Leader {
            return None;
        }
        let index = self.last_index() + 1;
        self.log.borrow_mut().push(Entry {
            index,
            term: self.term,
            payload,
        });
        self.after_log_change();
        // Single-voter groups commit immediately.
        self.maybe_advance_commit();
        self.quiesced = false;
        self.pending_broadcast = true;
        Some(index)
    }

    /// Ship every entry appended since the last broadcast. Returns no
    /// messages when nothing is pending (or this replica lost leadership —
    /// in that case the new leader's log reconciliation takes over).
    pub fn flush_appends(&mut self, now: SimTime) -> Vec<(Peer, RaftMsg<P>)> {
        if self.role != Role::Leader || !self.pending_broadcast {
            return Vec::new();
        }
        self.broadcast_appends(now)
    }

    /// Whether batched proposals are waiting for a flush.
    pub fn has_pending_broadcast(&self) -> bool {
        self.pending_broadcast
    }

    // ---- Quiescence ----

    /// Whether this replica is quiesced (leader: not heartbeating;
    /// follower: election timer parked).
    pub fn is_quiesced(&self) -> bool {
        self.quiesced
    }

    /// A leader may quiesce only when the range is fully idle: nothing
    /// unflushed, nothing unapplied, and every peer (voters *and* learners —
    /// learners must keep receiving closed timestamps via the log) caught up
    /// through the last index.
    fn can_quiesce(&self) -> bool {
        self.cfg.quiesce
            && self.role == Role::Leader
            && !self.pending_broadcast
            && self.commit_index == self.last_index()
            && self.applied_index == self.commit_index
            && self
                .peers
                .iter()
                .all(|&p| self.progress[p as usize].matched == self.last_index())
    }

    /// Wake a quiesced replica, restarting its election clock. The cluster
    /// calls this on followers when it doubts the quiesced leader's
    /// liveness (crash or partition detected out of band); a full staggered
    /// election timeout later the follower campaigns normally.
    pub fn unquiesce(&mut self, now: SimTime) {
        if self.quiesced {
            self.quiesced = false;
            self.last_heartbeat = now;
        }
    }

    // ---- Input: timers ----

    /// Advance timers. Leaders emit heartbeats — or a `Quiesce` broadcast
    /// once fully idle, after which they go silent; followers whose
    /// election timeout expired campaign (voters only, never while
    /// quiesced).
    pub fn tick(&mut self, now: SimTime) -> Vec<(Peer, RaftMsg<P>)> {
        if self.quiesced {
            return Vec::new();
        }
        match self.role {
            Role::Leader => {
                if now.since(self.last_broadcast) >= self.cfg.heartbeat_interval {
                    // A range that stayed idle for a whole heartbeat
                    // interval turns its due heartbeat into the Quiesce
                    // broadcast — quiescing on the heartbeat cadence (not
                    // the instant the last entry applies) keeps a briefly
                    // idle range hot and matches CRDB's tick-driven
                    // quiescence check.
                    if self.can_quiesce() {
                        self.quiesced = true;
                        self.last_broadcast = now;
                        let msg = RaftMsg::Quiesce {
                            term: self.term,
                            commit: self.commit_index,
                            last_term: self.last_term(),
                        };
                        return self.peers.iter().map(|&p| (p, msg.clone())).collect();
                    }
                    self.broadcast_appends(now)
                } else {
                    Vec::new()
                }
            }
            Role::Follower | Role::Candidate => {
                if self.cfg.is_voter(self.cfg.id)
                    && now.since(self.last_heartbeat) >= self.my_election_timeout()
                {
                    self.campaign(now)
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn campaign(&mut self, now: SimTime) -> Vec<(Peer, RaftMsg<P>)> {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.cfg.id);
        self.votes = 1;
        self.leader_hint = None;
        self.last_heartbeat = now;
        if self.votes >= self.cfg.quorum() {
            self.become_leader(now);
            return self.broadcast_appends(now);
        }
        let msg = RaftMsg::RequestVote {
            term: self.term,
            last_index: self.last_index(),
            last_term: self.last_term(),
        };
        self.cfg
            .voters
            .clone()
            .into_iter()
            .filter(|&p| p != self.cfg.id)
            .map(|p| (p, msg.clone()))
            .collect()
    }

    fn become_leader(&mut self, now: SimTime) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.cfg.id);
        let fresh = Progress {
            next: self.last_index() + 1,
            matched: 0,
            sent: 0,
        };
        let slots = self.peers.iter().max().map_or(0, |&p| p as usize + 1);
        self.progress.clear();
        self.progress.resize(slots, fresh);
        self.last_broadcast = now;
    }

    fn broadcast_appends(&mut self, now: SimTime) -> Vec<(Peer, RaftMsg<P>)> {
        self.last_broadcast = now;
        self.pending_broadcast = false;
        self.quiesced = false;
        (0..self.peers.len())
            .map(|i| (self.peers[i], self.append_for(self.peers[i])))
            .collect()
    }

    /// The append covering `[next, last]` for `peer`. Every append re-covers
    /// the whole unacked window rather than pipelining from `sent`: links
    /// reorder, and a follower can only accept an append whose predecessor
    /// it already holds. The entries are a [`Window`] of the log: the
    /// re-covered window costs a reference count, not a copy.
    fn append_for(&mut self, peer: Peer) -> RaftMsg<P> {
        let end = self.log.borrow().len();
        let pr = &mut self.progress[peer as usize];
        pr.sent = end as u64;
        let prev_index = pr.next - 1;
        RaftMsg::AppendEntries {
            term: self.term,
            prev_index,
            prev_term: self.term_at(prev_index).unwrap_or(0),
            entries: Window {
                log: Rc::clone(&self.log),
                start: (prev_index as usize).min(end),
                end,
            },
            commit: self.commit_index,
        }
    }

    // ---- Input: messages ----

    /// Process an incoming message; returns outbound messages.
    pub fn step(&mut self, from: Peer, msg: RaftMsg<P>, now: SimTime) -> Vec<(Peer, RaftMsg<P>)> {
        // Any message with a newer term demotes us.
        let msg_term = match &msg {
            RaftMsg::AppendEntries { term, .. }
            | RaftMsg::AppendResp { term, .. }
            | RaftMsg::RequestVote { term, .. }
            | RaftMsg::VoteResp { term, .. }
            | RaftMsg::TimeoutNow { term }
            | RaftMsg::Quiesce { term, .. } => *term,
        };
        if msg_term > self.term {
            self.term = msg_term;
            self.role = Role::Follower;
            self.voted_for = None;
            self.votes = 0;
        }
        // Any traffic wakes a quiesced replica; the Quiesce handler re-parks
        // a follower that turns out to be fully caught up.
        self.quiesced = false;

        match msg {
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                commit,
            } => self.handle_append(from, term, prev_index, prev_term, entries, commit, now),
            RaftMsg::AppendResp {
                term,
                success,
                match_index,
            } => self.handle_append_resp(from, term, success, match_index),
            RaftMsg::RequestVote {
                term,
                last_index,
                last_term,
            } => self.handle_vote_request(from, term, last_index, last_term, now),
            RaftMsg::VoteResp { term, granted } => self.handle_vote_resp(term, granted, now),
            RaftMsg::TimeoutNow { term } => {
                if term >= self.term && self.cfg.is_voter(self.cfg.id) && self.role != Role::Leader
                {
                    self.campaign(now)
                } else {
                    Vec::new()
                }
            }
            RaftMsg::Quiesce {
                term,
                commit,
                last_term,
            } => self.handle_quiesce(from, term, commit, last_term, now),
        }
    }

    fn append_resp(&self, to: Peer, success: bool, match_index: u64) -> Vec<(Peer, RaftMsg<P>)> {
        let resp = RaftMsg::AppendResp {
            term: self.term,
            success,
            match_index,
        };
        vec![(to, resp)]
    }

    fn handle_quiesce(
        &mut self,
        from: Peer,
        term: u64,
        commit: u64,
        last_term: u64,
        now: SimTime,
    ) -> Vec<(Peer, RaftMsg<P>)> {
        if term < self.term {
            // Depose the stale leader, same as a stale AppendEntries.
            return self.append_resp(from, false, 0);
        }
        // Valid leader for our term.
        self.role = Role::Follower;
        self.leader_hint = Some(from);
        self.last_heartbeat = now;
        if self.last_index() == commit && self.term_at(commit) == Some(last_term) {
            // Fully caught up: park the election timer. No reply — silence
            // is the point.
            self.commit_index = self.commit_index.max(commit);
            self.quiesced = true;
            return Vec::new();
        }
        // Lagging (or divergent) log: refuse to quiesce and wake the leader
        // so normal append repair takes over.
        let hint = self.last_index().min(commit);
        self.append_resp(from, false, hint)
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_append(
        &mut self,
        from: Peer,
        term: u64,
        prev_index: u64,
        prev_term: u64,
        entries: Window<P>,
        commit: u64,
        now: SimTime,
    ) -> Vec<(Peer, RaftMsg<P>)> {
        if term < self.term {
            return self.append_resp(from, false, 0);
        }
        // Valid leader for our term.
        self.role = Role::Follower;
        self.leader_hint = Some(from);
        self.last_heartbeat = now;

        // Log consistency check.
        if self.term_at(prev_index) != Some(prev_term) {
            // Hint the leader to back up to our log end (or below the
            // divergence point).
            let hint = self.last_index().min(prev_index.saturating_sub(1));
            return self.append_resp(from, false, hint);
        }
        let window = entries.entries();
        // Log Matching: if our entry at the last index the append overlaps
        // carries the leader's term, everything up to it is identical — a
        // re-sent window is skipped without comparing it entry by entry.
        let held = self.last_index().min(prev_index + window.len() as u64);
        let skip = match (held - prev_index) as usize {
            n if n > 0 && self.term_at(held) == Some(window[n - 1].term) => n,
            _ => 0,
        };
        // Append from the first entry we lack, truncating any divergent
        // suffix; only appended entries are cloned.
        let rest = &window[skip..];
        if let Some(i) = rest
            .iter()
            .position(|e| self.term_at(e.index) != Some(e.term))
        {
            self.truncate_log(rest[i].index - 1);
            debug_assert_eq!(self.last_index() + 1, rest[i].index, "log gap");
            self.log.borrow_mut().extend_from_slice(&rest[i..]);
        }
        self.after_log_change();
        // Ack only what this append proved: the log matches the leader's
        // through the window's end, and through our tail when our last entry
        // is from the leader's own term (Log Matching). A longer stale
        // suffix from an older term is not the leader's and must not count
        // toward its quorum.
        let match_index = if self.last_term() == term {
            self.last_index()
        } else {
            prev_index + window.len() as u64
        };
        self.commit_index = self.commit_index.max(commit.min(match_index));
        self.append_resp(from, true, match_index)
    }

    fn handle_append_resp(
        &mut self,
        from: Peer,
        term: u64,
        success: bool,
        match_index: u64,
    ) -> Vec<(Peer, RaftMsg<P>)> {
        if self.role != Role::Leader || term < self.term {
            return Vec::new();
        }
        let Some(pr) = self.progress.get_mut(from as usize) else {
            return Vec::new(); // not a member of this group
        };
        if success {
            // Acks reorder: an older one must not pull `next` back below
            // what a newer one already proved replicated.
            pr.matched = pr.matched.max(match_index);
            pr.next = pr.matched + 1;
            // Continue streaming only when (a) the peer is behind and
            // (b) everything previously shipped has been acknowledged —
            // otherwise in-flight appends already cover the gap and a
            // resend per ack would snowball.
            let sent = pr.sent;
            self.maybe_advance_commit();
            if match_index < self.last_index() && match_index >= sent {
                return vec![(from, self.append_for(from))];
            }
            Vec::new()
        } else {
            // Back up to the follower's hint (but at least one step) and
            // retry.
            pr.next = pr.next.saturating_sub(1).min(match_index + 1).max(1);
            vec![(from, self.append_for(from))]
        }
    }

    fn maybe_advance_commit(&mut self) {
        // Highest index replicated on a quorum of voters whose entry is from
        // the current term: the largest voter position that at least
        // `quorum` voters have reached (groups are a handful of voters, so
        // counting beats sorting a scratch copy).
        let position = |v: &Peer| match *v {
            v if v == self.cfg.id => self.last_index(),
            v => self.progress[v as usize].matched,
        };
        let voters = &self.cfg.voters;
        let quorum_index = voters
            .iter()
            .map(position)
            .filter(|&i| voters.iter().filter(|v| position(v) >= i).count() >= self.cfg.quorum())
            .max()
            .unwrap_or(0);
        if quorum_index > self.commit_index && self.term_at(quorum_index) == Some(self.term) {
            self.commit_index = quorum_index;
        }
    }

    fn handle_vote_request(
        &mut self,
        from: Peer,
        term: u64,
        last_index: u64,
        last_term: u64,
        now: SimTime,
    ) -> Vec<(Peer, RaftMsg<P>)> {
        let up_to_date = (last_term, last_index) >= (self.last_term(), self.last_index());
        let granted = term >= self.term
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if granted {
            self.voted_for = Some(from);
            self.last_heartbeat = now; // reset our own timeout
        }
        vec![(
            from,
            RaftMsg::VoteResp {
                term: self.term,
                granted,
            },
        )]
    }

    fn handle_vote_resp(
        &mut self,
        term: u64,
        granted: bool,
        now: SimTime,
    ) -> Vec<(Peer, RaftMsg<P>)> {
        if self.role != Role::Candidate || term < self.term || !granted {
            return Vec::new();
        }
        self.votes += 1;
        if self.votes >= self.cfg.quorum() {
            self.become_leader(now);
            return self.broadcast_appends(now);
        }
        Vec::new()
    }

    // ---- Leadership transfer ----

    /// Ask `target` to take over leadership (used for lease transfers).
    pub fn transfer_leadership(&mut self, target: Peer) -> Vec<(Peer, RaftMsg<P>)> {
        if self.role != Role::Leader || !self.cfg.is_voter(target) || target == self.cfg.id {
            return Vec::new();
        }
        vec![(target, RaftMsg::TimeoutNow { term: self.term })]
    }

    // ---- Output: committed entries ----

    /// Drain entries committed since the last call, in order.
    pub fn take_committed(&mut self) -> Vec<Entry<P>> {
        if self.applied_index >= self.commit_index {
            return Vec::new();
        }
        let out =
            self.log.borrow()[self.applied_index as usize..self.commit_index as usize].to_vec();
        self.applied_index = self.commit_index;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Net = Vec<(Peer, Peer, RaftMsg<&'static str>)>; // (from, to, msg)

    /// A window over entries that belong to no replica's log.
    impl<P> From<Vec<Entry<P>>> for Window<P> {
        fn from(entries: Vec<Entry<P>>) -> Window<P> {
            let end = entries.len();
            Window {
                log: Rc::new(RefCell::new(entries)),
                start: 0,
                end,
            }
        }
    }

    struct Group {
        nodes: Vec<RaftNode<&'static str>>,
    }

    impl Group {
        fn new(voters: Vec<Peer>, learners: Vec<Peer>) -> Group {
            let all: Vec<Peer> = voters.iter().chain(learners.iter()).copied().collect();
            let nodes = all
                .iter()
                .map(|&id| {
                    RaftNode::new(
                        RaftConfig {
                            id,
                            voters: voters.clone(),
                            learners: learners.clone(),
                            election_timeout: SimDuration::from_millis(150),
                            heartbeat_interval: SimDuration::from_millis(50),
                            quiesce: true,
                        },
                        SimTime::ZERO,
                    )
                })
                .collect();
            Group { nodes }
        }

        fn node(&mut self, id: Peer) -> &mut RaftNode<&'static str> {
            self.nodes.iter_mut().find(|n| n.id() == id).unwrap()
        }

        /// Deliver all messages until quiescent (instant network).
        fn settle(&mut self, mut pending: Net, now: SimTime) {
            while let Some((from, to, msg)) = pending.pop() {
                if self.nodes.iter().all(|n| n.id() != to) {
                    continue;
                }
                let out = self.node(to).step(from, msg, now);
                for (dest, m) in out {
                    pending.push((to, dest, m));
                }
            }
        }

        fn tick_all(&mut self, now: SimTime) -> Net {
            let mut net = Vec::new();
            for n in &mut self.nodes {
                let id = n.id();
                for (to, m) in n.tick(now) {
                    net.push((id, to, m));
                }
            }
            net
        }
    }

    #[test]
    fn bootstrap_leader_commits_with_quorum() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        let (idx, msgs) = g.node(0).propose("a", SimTime::ZERO).unwrap();
        assert_eq!(idx, 1);
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).commit_index(), 1);
        let committed = g.node(0).take_committed();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].payload, "a");
        // Followers learn the commit on the next broadcast.
        let net = g.tick_all(SimTime::ZERO + SimDuration::from_millis(60));
        g.settle(net, SimTime::ZERO + SimDuration::from_millis(60));
        assert_eq!(g.node(1).commit_index(), 1);
        assert_eq!(g.node(2).take_committed().len(), 1);
    }

    #[test]
    fn election_after_leader_silence() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        // No leader; node 0 has the shortest staggered timeout (150ms vs
        // 175ms and 200ms), so ticking at 160ms makes only node 0 campaign.
        let t = SimTime::ZERO + SimDuration::from_millis(160);
        let net = g.tick_all(t);
        assert!(!net.is_empty());
        g.settle(net, t);
        assert!(g.node(0).is_leader());
        assert_eq!(g.node(1).role(), Role::Follower);
        assert_eq!(g.node(1).leader_hint(), Some(0));
    }

    #[test]
    fn learner_replicates_but_does_not_count_for_quorum() {
        // 3 voters + 1 learner; two voters are "down" (we just don't
        // deliver to them), so nothing can commit even if the learner acks.
        let mut g = Group::new(vec![0, 1, 2], vec![3]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        let (_, msgs) = g.node(0).propose("a", SimTime::ZERO).unwrap();
        // Deliver only to the learner.
        let mut net: Net = Vec::new();
        for (to, m) in msgs {
            if to == 3 {
                net.push((0, to, m));
            }
        }
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(3).last_index(), 1, "learner received the entry");
        assert_eq!(g.node(0).commit_index(), 0, "no voter quorum");
        // Now deliver to one voter: 2/3 voters = quorum.
        let msgs = g.node(0).broadcast_appends(SimTime::ZERO);
        let net: Net = msgs
            .into_iter()
            .filter(|(to, _)| *to == 1)
            .map(|(to, m)| (0, to, m))
            .collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).commit_index(), 1);
    }

    #[test]
    fn learner_never_campaigns() {
        let mut g = Group::new(vec![0, 1], vec![2]);
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        let msgs = g.node(2).tick(t);
        assert!(msgs.is_empty());
        assert_eq!(g.node(2).role(), Role::Follower);
    }

    #[test]
    fn divergent_follower_log_is_repaired() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        // Node 1 has a stale divergent entry from a dead term.
        g.node(1).term = 1;
        g.node(1).log.borrow_mut().push(Entry {
            index: 1,
            term: 1,
            payload: "stale",
        });
        // Node 0 becomes leader at term 2 and proposes.
        g.node(0).term = 1;
        g.node(0).bootstrap_leader(SimTime::ZERO); // term stays, role leader
        g.node(0).term = 2;
        let (_, msgs) = g.node(0).propose("fresh", SimTime::ZERO).unwrap();
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(1).log.borrow().len(), 1);
        assert_eq!(g.node(1).log.borrow()[0].payload, "fresh");
        assert_eq!(g.node(0).commit_index(), 1);
    }

    fn entry(index: u64, term: u64, payload: &'static str) -> Entry<&'static str> {
        Entry {
            index,
            term,
            payload,
        }
    }

    /// Node 1 as a term-3 follower holding `log`, handed an append of
    /// `entries` after `prev_index`; returns the acked match index.
    fn follower_append(
        g: &mut Group,
        log: &[Entry<&'static str>],
        prev_index: u64,
        entries: &[Entry<&'static str>],
    ) -> u64 {
        g.node(1).term = 3;
        g.node(1).log = Rc::new(RefCell::new(log.to_vec()));
        let prev_term = g.node(1).term_at(prev_index).unwrap();
        let msg = RaftMsg::AppendEntries {
            term: 3,
            prev_index,
            prev_term,
            entries: entries.to_vec().into(),
            commit: 0,
        };
        match g.node(1).step(0, msg, SimTime::ZERO).pop() {
            Some((
                0,
                RaftMsg::AppendResp {
                    success: true,
                    match_index,
                    ..
                },
            )) => match_index,
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn prefix_skip_truncates_exactly_at_the_divergence() {
        let leader = [entry(1, 1, "a"), entry(2, 3, "b"), entry(3, 3, "c")];
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        // Divergence (index 2) *before* the last overlapping entry (index 3).
        let stale = [entry(1, 1, "a"), entry(2, 2, "x"), entry(3, 2, "y")];
        assert_eq!(follower_append(&mut g, &stale, 0, &leader), 3);
        assert_eq!(*g.node(1).log.borrow(), leader);
        // Divergence *at* the last overlapping entry, stale tail beyond it.
        let stale = [entry(1, 1, "a"), entry(2, 2, "x"), entry(3, 2, "y")];
        assert_eq!(follower_append(&mut g, &stale, 0, &leader[..2]), 2);
        assert_eq!(*g.node(1).log.borrow(), leader[..2]);
        // Divergence right behind `prev_index`: nothing is skipped.
        assert_eq!(follower_append(&mut g, &stale, 1, &leader[1..]), 3);
        assert_eq!(*g.node(1).log.borrow(), leader);
        // A re-sent, shorter window is a held prefix: skipped whole, and the
        // entry past it must survive.
        assert_eq!(follower_append(&mut g, &leader, 0, &leader[..2]), 3);
        assert_eq!(*g.node(1).log.borrow(), leader);
        // A window reaching past the held prefix appends only the rest.
        assert_eq!(follower_append(&mut g, &leader[..2], 1, &leader[1..]), 3);
        assert_eq!(*g.node(1).log.borrow(), leader);
    }

    #[test]
    fn reordered_older_ack_does_not_regress_next_index() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        for p in ["a", "b", "c", "d", "e", "f"] {
            g.node(0).propose_batched(p).unwrap();
        }
        g.node(0).flush_appends(SimTime::ZERO);
        for match_index in [5, 3] {
            let ack = RaftMsg::AppendResp {
                term: 1,
                success: true,
                match_index,
            };
            assert!(g.node(0).step(1, ack, SimTime::ZERO).is_empty());
        }
        let (_, msgs) = g.node(0).propose("g", SimTime::ZERO).unwrap();
        match &msgs[0] {
            (1, RaftMsg::AppendEntries { entries, .. }) => {
                assert_eq!(entries.entries()[0].index, 6)
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn vote_denied_to_stale_log() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(1).log.borrow_mut().push(Entry {
            index: 1,
            term: 1,
            payload: "x",
        });
        g.node(1).term = 1;
        // Node 0 campaigns with an empty log: node 1 must refuse.
        let out = g.node(1).step(
            0,
            RaftMsg::RequestVote {
                term: 2,
                last_index: 0,
                last_term: 0,
            },
            SimTime::ZERO,
        );
        match &out[0].1 {
            RaftMsg::VoteResp { granted, .. } => assert!(!granted),
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn leadership_transfer() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        let msgs = g.node(0).transfer_leadership(1);
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        assert!(g.node(1).is_leader());
        assert!(!g.node(0).is_leader());
        assert!(g.node(1).term() > 1);
    }

    #[test]
    fn transfer_to_learner_refused() {
        let mut g = Group::new(vec![0, 1], vec![2]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        assert!(g.node(0).transfer_leadership(2).is_empty());
        assert!(g.node(0).transfer_leadership(0).is_empty());
    }

    #[test]
    fn five_voter_quorum_needs_three() {
        let mut g = Group::new(vec![0, 1, 2, 3, 4], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        let (_, msgs) = g.node(0).propose("a", SimTime::ZERO).unwrap();
        // Deliver to just one other voter: 2 acks < quorum(3).
        let net: Net = msgs
            .into_iter()
            .filter(|(to, _)| *to == 1)
            .map(|(to, m)| (0, to, m))
            .collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).commit_index(), 0);
        // One more ack reaches quorum.
        let msgs = g.node(0).broadcast_appends(SimTime::ZERO);
        let net: Net = msgs
            .into_iter()
            .filter(|(to, _)| *to == 2)
            .map(|(to, m)| (0, to, m))
            .collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).commit_index(), 1);
    }

    #[test]
    fn stale_term_leader_is_demoted() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        // Node 1 holds a newer term.
        g.node(1).term = 5;
        let (_, msgs) = g.node(0).propose("a", SimTime::ZERO).unwrap();
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).role(), Role::Follower);
        assert_eq!(g.node(0).term(), 5);
    }

    #[test]
    fn batched_proposals_share_one_broadcast() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        let i1 = g.node(0).propose_batched("a").unwrap();
        let i2 = g.node(0).propose_batched("b").unwrap();
        let i3 = g.node(0).propose_batched("c").unwrap();
        assert_eq!((i1, i2, i3), (1, 2, 3));
        assert!(g.node(0).has_pending_broadcast());
        assert_eq!(g.node(0).commit_index(), 0, "no quorum yet");
        // One flush ships all three entries in a single append per peer.
        let msgs = g.node(0).flush_appends(SimTime::ZERO);
        assert_eq!(msgs.len(), 2, "one append per follower");
        for (_, m) in &msgs {
            match m {
                RaftMsg::AppendEntries { entries, .. } => assert_eq!(entries.len(), 3),
                m => panic!("unexpected {m:?}"),
            }
        }
        assert!(!g.node(0).has_pending_broadcast());
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).commit_index(), 3);
        // A second flush with nothing pending is a no-op.
        assert!(g.node(0).flush_appends(SimTime::ZERO).is_empty());
    }

    #[test]
    fn batched_proposal_commits_instantly_on_single_voter() {
        let mut g = Group::new(vec![0], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        g.node(0).propose_batched("a").unwrap();
        assert_eq!(g.node(0).commit_index(), 1);
        assert_eq!(g.node(0).take_committed().len(), 1);
    }

    #[test]
    fn heartbeat_tick_ships_unflushed_batch() {
        // If the flush never fires, the periodic heartbeat rebroadcast
        // still carries the batched entries (the safety net).
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        g.node(0).propose_batched("a").unwrap();
        let t = SimTime::ZERO + SimDuration::from_millis(60);
        let net = g.tick_all(t);
        g.settle(net, t);
        assert_eq!(g.node(0).commit_index(), 1);
        assert!(!g.node(0).has_pending_broadcast());
    }

    #[test]
    fn follower_cannot_propose_batched() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        assert!(g.node(1).propose_batched("a").is_none());
        assert!(g.node(1).flush_appends(SimTime::ZERO).is_empty());
    }

    /// Drive a bootstrapped 3-voter group to the fully-idle state: propose
    /// one entry, replicate, apply everywhere, and deliver the commit-index
    /// bump so every follower is caught up.
    fn idle_group() -> Group {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        let (_, msgs) = g.node(0).propose("a", SimTime::ZERO).unwrap();
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        // Followers learn the commit on the next broadcast.
        let t = SimTime::ZERO + SimDuration::from_millis(60);
        let net = g.tick_all(t);
        g.settle(net, t);
        for id in 0..3 {
            g.node(id).take_committed();
        }
        g
    }

    #[test]
    fn idle_group_quiesces_and_stops_heartbeating() {
        let mut g = idle_group();
        let t = SimTime::ZERO + SimDuration::from_millis(120);
        let net = g.tick_all(t);
        // The leader's only traffic is the Quiesce broadcast.
        assert!(net
            .iter()
            .all(|(_, _, m)| matches!(m, RaftMsg::Quiesce { .. })));
        assert_eq!(net.len(), 2, "one Quiesce per follower");
        assert!(g.node(0).is_quiesced());
        g.settle(net, t);
        assert!(g.node(1).is_quiesced());
        assert!(g.node(2).is_quiesced());
        // From here on the group is silent: no heartbeats, no elections,
        // even far past every timeout.
        let later = t + SimDuration::from_secs(60);
        assert!(g.tick_all(later).is_empty());
        assert!(g.node(0).is_leader());
        assert_eq!(g.node(1).role(), Role::Follower);
    }

    #[test]
    fn proposal_unquiesces_the_group() {
        let mut g = idle_group();
        let t = SimTime::ZERO + SimDuration::from_millis(120);
        let net = g.tick_all(t);
        g.settle(net, t);
        assert!(g.node(0).is_quiesced());
        let (idx, msgs) = g.node(0).propose("b", t).unwrap();
        assert!(!g.node(0).is_quiesced());
        let net: Net = msgs.into_iter().map(|(to, m)| (0, to, m)).collect();
        g.settle(net, t);
        assert!(!g.node(1).is_quiesced(), "append woke the follower");
        assert_eq!(g.node(0).commit_index(), idx);
    }

    #[test]
    fn lagging_follower_refuses_quiesce_and_wakes_leader() {
        let mut g = idle_group();
        // Leave follower 2 behind: propose + replicate to follower 1 only.
        let (_, msgs) = g.node(0).propose("b", SimTime::ZERO).unwrap();
        let net: Net = msgs
            .into_iter()
            .filter(|(to, _)| *to == 1)
            .map(|(to, m)| (0, to, m))
            .collect();
        g.settle(net, SimTime::ZERO);
        // Leader cannot quiesce while follower 2 lags; it heartbeats
        // instead.
        let t = SimTime::ZERO + SimDuration::from_millis(120);
        let net = g.tick_all(t);
        assert!(net
            .iter()
            .any(|(from, _, m)| *from == 0 && matches!(m, RaftMsg::AppendEntries { .. })));
        // Force the stale view: hand-deliver a Quiesce to the lagging
        // follower. It must refuse, and its failed AppendResp must trigger
        // log repair on the leader.
        let commit = g.node(0).commit_index();
        let last_term = g.node(0).last_term();
        let term = g.node(0).term();
        let out = g.node(2).step(
            0,
            RaftMsg::Quiesce {
                term,
                commit,
                last_term,
            },
            t,
        );
        assert!(!g.node(2).is_quiesced());
        assert!(matches!(
            out[0].1,
            RaftMsg::AppendResp { success: false, .. }
        ));
        let net: Net = out.into_iter().map(|(to, m)| (2, to, m)).collect();
        g.settle(net, t);
        assert_eq!(g.node(2).last_index(), g.node(0).last_index());
    }

    #[test]
    fn unquiesce_restarts_the_election_clock() {
        let mut g = idle_group();
        let t = SimTime::ZERO + SimDuration::from_millis(120);
        let net = g.tick_all(t);
        g.settle(net, t);
        assert!(g.node(1).is_quiesced());
        // The cluster doubts the (crashed) leader's liveness and wakes
        // follower 1. Its election clock restarts at `wake`, so it
        // campaigns only a full staggered timeout later.
        let wake = t + SimDuration::from_secs(5);
        g.node(1).unquiesce(wake);
        assert!(g.node(1).tick(wake).is_empty());
        let elect = wake + SimDuration::from_millis(200);
        let msgs = g.node(1).tick(elect);
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, RaftMsg::RequestVote { .. })));
        assert_eq!(g.node(1).role(), Role::Candidate);
    }

    #[test]
    fn stale_quiesce_deposes_old_leader() {
        let mut g = idle_group();
        // Follower 1 has moved to a newer term.
        g.node(1).term = 9;
        let out = g.node(1).step(
            0,
            RaftMsg::Quiesce {
                term: 1,
                commit: 1,
                last_term: 1,
            },
            SimTime::ZERO,
        );
        assert!(!g.node(1).is_quiesced());
        match &out[0].1 {
            RaftMsg::AppendResp { term, success, .. } => {
                assert_eq!(*term, 9);
                assert!(!success);
            }
            m => panic!("unexpected {m:?}"),
        }
        let net: Net = out.into_iter().map(|(to, m)| (1, to, m)).collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(g.node(0).role(), Role::Follower);
        assert_eq!(g.node(0).term(), 9);
    }

    #[test]
    fn quiesce_knob_off_keeps_heartbeats_flowing() {
        let mut g = idle_group();
        for n in &mut g.nodes {
            n.cfg.quiesce = false;
        }
        let t = SimTime::ZERO + SimDuration::from_millis(120);
        let net = g.tick_all(t);
        assert!(net
            .iter()
            .all(|(_, _, m)| matches!(m, RaftMsg::AppendEntries { .. })));
        assert!(!g.node(0).is_quiesced());
    }

    #[test]
    fn divergent_same_length_log_refuses_quiesce() {
        // Follower 2's log is the same length as the leader's but its tail
        // entry is an uncommitted leftover from a dead term: it must NOT
        // treat it as committed when told to quiesce.
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        g.node(0).term = 3;
        g.node(0).log.borrow_mut().push(Entry {
            index: 1,
            term: 3,
            payload: "committed",
        });
        g.node(0).commit_index = 1;
        g.node(0).applied_index = 1;
        g.node(2).term = 3;
        g.node(2).log.borrow_mut().push(Entry {
            index: 1,
            term: 2,
            payload: "divergent",
        });
        let out = g.node(2).step(
            0,
            RaftMsg::Quiesce {
                term: 3,
                commit: 1,
                last_term: 3,
            },
            SimTime::ZERO,
        );
        assert!(!g.node(2).is_quiesced());
        assert_eq!(g.node(2).commit_index(), 0, "divergent entry not committed");
        assert!(matches!(
            out[0].1,
            RaftMsg::AppendResp { success: false, .. }
        ));
    }

    #[test]
    fn take_committed_is_incremental() {
        let mut g = Group::new(vec![0], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        g.node(0).propose("a", SimTime::ZERO);
        g.node(0).propose("b", SimTime::ZERO);
        let c1 = g.node(0).take_committed();
        assert_eq!(c1.iter().map(|e| e.payload).collect::<Vec<_>>(), ["a", "b"]);
        assert!(g.node(0).take_committed().is_empty());
        g.node(0).propose("c", SimTime::ZERO);
        let c2 = g.node(0).take_committed();
        assert_eq!(c2.len(), 1);
        assert_eq!(c2[0].index, 3);
    }

    /// The payloads of `node`'s log, in order.
    fn payloads(g: &mut Group, node: Peer) -> Vec<&'static str> {
        g.node(node)
            .log
            .borrow()
            .iter()
            .map(|e| e.payload)
            .collect()
    }

    /// The payloads an append carries.
    fn carried(msg: &RaftMsg<&'static str>) -> Vec<&'static str> {
        match msg {
            RaftMsg::AppendEntries { entries, .. } => {
                entries.entries().iter().map(|e| e.payload).collect()
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn stale_suffix_beyond_the_append_is_not_acked() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        // Follower 1 kept an uncommitted term-2 suffix; the term-3 leader
        // never saw it.
        g.node(1).term = 2;
        *g.node(1).log.borrow_mut() = vec![entry(1, 1, "a"), entry(2, 2, "x"), entry(3, 2, "y")];
        g.node(0).term = 3;
        g.node(0).log.borrow_mut().push(entry(1, 1, "a"));
        g.node(0).become_leader(SimTime::ZERO);
        // The leader's first append is empty and matches at index 1: it
        // proves nothing past index 1.
        let msgs = g.node(0).broadcast_appends(SimTime::ZERO);
        let (_, first) = msgs.into_iter().find(|(to, _)| *to == 1).unwrap();
        assert_eq!(carried(&first), Vec::<&str>::new());
        let out = g.node(1).step(0, first, SimTime::ZERO);
        match &out[..] {
            [(
                0,
                RaftMsg::AppendResp {
                    success: true,
                    match_index,
                    ..
                },
            )] => {
                assert_eq!(*match_index, 1)
            }
            m => panic!("unexpected {m:?}"),
        }
        for (to, ack) in out {
            g.node(0).step(1, ack, SimTime::ZERO);
            assert_eq!(to, 0);
        }
        // Index 2 is held by the leader alone: it must not commit.
        let (idx, msgs) = g.node(0).propose("b", SimTime::ZERO).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(g.node(0).commit_index(), 0, "committed on a stale ack");
        // Once follower 1 really holds it, it commits.
        let net: Net = msgs
            .into_iter()
            .filter(|(to, _)| *to == 1)
            .map(|(to, m)| (0, to, m))
            .collect();
        g.settle(net, SimTime::ZERO);
        assert_eq!(payloads(&mut g, 1), ["a", "b"]);
        assert_eq!(g.node(0).commit_index(), 2);
    }

    #[test]
    fn in_flight_append_outlives_the_overwritten_suffix() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        g.node(0).propose_batched("a").unwrap();
        g.node(0).propose_batched("b").unwrap();
        let in_flight = g.node(0).flush_appends(SimTime::ZERO);
        // Node 0 is deposed before its append lands: a term-2 leader
        // overwrites its whole suffix.
        let overwrite = RaftMsg::AppendEntries {
            term: 2,
            prev_index: 0,
            prev_term: 0,
            entries: vec![entry(1, 2, "x")].into(),
            commit: 0,
        };
        g.node(0).step(1, overwrite, SimTime::ZERO);
        assert_eq!(g.node(0).role(), Role::Follower);
        assert_eq!(payloads(&mut g, 0), ["x"]);
        // The old append still carries, and delivers, what it was cut with.
        let (to, msg) = in_flight.into_iter().find(|(to, _)| *to == 2).unwrap();
        assert_eq!(carried(&msg), ["a", "b"]);
        // It prints as the `Vec` it stands for.
        let RaftMsg::AppendEntries { entries, .. } = &msg else {
            unreachable!()
        };
        let copy = entries.entries().to_vec();
        assert_eq!(format!("{entries:?}"), format!("{copy:?}"));
        assert_eq!(format!("{entries:#?}"), format!("{copy:#?}"));
        g.node(to).step(0, msg, SimTime::ZERO);
        assert_eq!(payloads(&mut g, 2), ["a", "b"]);
        assert_eq!(payloads(&mut g, 0), ["x"]);
    }

    #[test]
    fn in_flight_append_outlives_a_crash_that_drops_the_log() {
        let mut g = Group::new(vec![0, 1, 2], vec![]);
        g.node(0).bootstrap_leader(SimTime::ZERO);
        g.node(0).set_defer_log_sync(true);
        g.node(0).propose_batched("a").unwrap();
        g.node(0).propose_batched("b").unwrap();
        let in_flight = g.node(0).flush_appends(SimTime::ZERO);
        // Nothing was fsynced: the crash loses the whole log.
        g.node(0).crash_volatile(0, true);
        assert_eq!(g.node(0).last_index(), 0);
        for (to, msg) in in_flight {
            assert_eq!(carried(&msg), ["a", "b"]);
            g.node(to).step(0, msg, SimTime::ZERO);
            assert_eq!(payloads(&mut g, to), ["a", "b"]);
        }
        // The crashed replica's fresh log takes appends of its own.
        let repair = RaftMsg::AppendEntries {
            term: 1,
            prev_index: 0,
            prev_term: 0,
            entries: vec![entry(1, 1, "a")].into(),
            commit: 0,
        };
        g.node(0).step(1, repair, SimTime::ZERO);
        assert_eq!(payloads(&mut g, 0), ["a"]);
    }
}
