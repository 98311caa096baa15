//! Property tests for the Raft state machine: under randomized message
//! delivery orders, delays, drops, and leader changes, all replicas agree
//! on the committed prefix (log matching + leader completeness).

use proptest::prelude::*;

use mr_raft::{RaftConfig, RaftMsg, RaftNode, Role};
use mr_sim::{SimDuration, SimTime};

type Payload = u32;

struct Net {
    /// In-flight messages: (from, to, msg).
    queue: Vec<(u32, u32, RaftMsg<Payload>)>,
}

struct Harness {
    nodes: Vec<RaftNode<Payload>>,
    net: Net,
    now: SimTime,
}

impl Harness {
    fn new(n: u32) -> Harness {
        let voters: Vec<u32> = (0..n).collect();
        let nodes = voters
            .iter()
            .map(|&id| {
                RaftNode::new(
                    RaftConfig {
                        id,
                        voters: voters.clone(),
                        learners: vec![],
                        election_timeout: SimDuration::from_millis(150),
                        heartbeat_interval: SimDuration::from_millis(50),
                        // Quiescence on: the prefix-agreement property must
                        // hold through quiesce/unquiesce cycles too.
                        quiesce: true,
                    },
                    SimTime::ZERO,
                )
            })
            .collect();
        Harness {
            nodes,
            net: Net { queue: Vec::new() },
            now: SimTime::ZERO,
        }
    }

    fn send(&mut self, from: u32, msgs: Vec<(u32, RaftMsg<Payload>)>) {
        for (to, m) in msgs {
            self.net.queue.push((from, to, m));
        }
    }

    /// Deliver the in-flight message at `idx % len`, or drop it when
    /// `drop` is set.
    fn step_network(&mut self, idx: usize, drop: bool) {
        if self.net.queue.is_empty() {
            return;
        }
        let i = idx % self.net.queue.len();
        let (from, to, msg) = self.net.queue.swap_remove(i);
        if drop {
            return;
        }
        let out = self.nodes[to as usize].step(from, msg, self.now);
        self.send(to, out);
    }

    fn tick_all(&mut self) {
        self.now += SimDuration::from_millis(60);
        for i in 0..self.nodes.len() {
            let out = self.nodes[i].tick(self.now);
            let id = self.nodes[i].id();
            self.send(id, out);
        }
    }

    fn leader(&self) -> Option<usize> {
        // The highest-term leader is the live one.
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.role() == Role::Leader)
            .max_by_key(|(_, n)| n.term())
            .map(|(i, _)| i)
    }

    fn drain_committed(&mut self) -> Vec<Vec<Payload>> {
        self.nodes
            .iter_mut()
            .map(|n| n.take_committed().into_iter().map(|e| e.payload).collect())
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Under any interleaving of proposals, partial delivery, drops, and
    /// ticks, every replica's committed sequence is a prefix of every
    /// other's — and committed entries never change.
    #[test]
    fn committed_prefixes_agree(
        schedule in prop::collection::vec((any::<u16>(), 0u8..10), 20..200),
    ) {
        let mut h = Harness::new(3);
        h.nodes[0].bootstrap_leader(SimTime::ZERO);
        let mut next_payload: Payload = 1;
        // Applied-so-far per node.
        let mut applied: Vec<Vec<Payload>> = vec![Vec::new(); 3];

        for (r, action) in schedule {
            match action {
                // Propose at the current leader (if any).
                0 | 1 => {
                    if let Some(l) = h.leader() {
                        let now = h.now;
                        if let Some((_, msgs)) = h.nodes[l].propose(next_payload, now) {
                            next_payload += 1;
                            let id = h.nodes[l].id();
                            h.send(id, msgs);
                        }
                    }
                }
                // Deliver a random in-flight message.
                2..=6 => h.step_network(r as usize, false),
                // Drop one.
                7 => h.step_network(r as usize, true),
                // Advance time (heartbeats, elections).
                _ => h.tick_all(),
            }
            for (i, new) in h.drain_committed().into_iter().enumerate() {
                applied[i].extend(new);
            }
            // Invariant: pairwise prefix agreement.
            for a in 0..3 {
                for b in 0..3 {
                    let (short, long) = if applied[a].len() <= applied[b].len() {
                        (&applied[a], &applied[b])
                    } else {
                        (&applied[b], &applied[a])
                    };
                    prop_assert_eq!(
                        &long[..short.len()],
                        &short[..],
                        "divergent committed prefixes"
                    );
                }
            }
        }

        // Let the network quiesce fully and re-check convergence.
        for i in 0..4000 {
            if h.net.queue.is_empty() {
                h.tick_all();
            } else {
                h.step_network(i, false);
            }
            for (i, new) in h.drain_committed().into_iter().enumerate() {
                applied[i].extend(new);
            }
            if h.net.queue.is_empty() && h.leader().is_some() {
                break;
            }
        }
        // Whatever the leader committed, everyone eventually applies.
        if let Some(l) = h.leader() {
            // Flush: a few more heartbeat rounds.
            for i in 0..2000 {
                if h.net.queue.is_empty() {
                    h.tick_all();
                } else {
                    h.step_network(i, false);
                }
                for (i, new) in h.drain_committed().into_iter().enumerate() {
                    applied[i].extend(new);
                }
            }
            let lead_len = applied[l].len();
            for (i, a) in applied.iter().enumerate() {
                prop_assert_eq!(
                    &a[..a.len().min(lead_len)],
                    &applied[l][..a.len().min(lead_len)],
                    "node {} diverged from leader after quiescence", i
                );
            }
        }
    }
}

/// What one follower saw of a run: every ack it sent, and the entries it
/// applied.
type FollowerView = (Vec<u64>, Vec<Payload>);

/// The leader proposes `k` entries with no ack in between, so every append
/// re-covers the whole unacked window. `deliver` maps the appends a follower
/// is owed to the sequence it actually receives. Returns each follower's
/// view.
fn replicate(
    k: u32,
    deliver: fn(Vec<RaftMsg<Payload>>) -> Vec<RaftMsg<Payload>>,
) -> Vec<FollowerView> {
    let mut h = Harness::new(3);
    h.nodes[0].bootstrap_leader(SimTime::ZERO);
    let mut owed: Vec<Vec<RaftMsg<Payload>>> = vec![Vec::new(); 3];
    for p in 1..=k {
        let (_, msgs) = h.nodes[0].propose(p, SimTime::ZERO).unwrap();
        for (to, m) in msgs {
            owed[to as usize].push(m);
        }
    }
    let mut acks: Vec<Vec<u64>> = vec![Vec::new(); 3];
    for to in 1..3 {
        for m in deliver(std::mem::take(&mut owed[to])) {
            for (dest, resp) in h.nodes[to].step(0, m, SimTime::ZERO) {
                match resp {
                    RaftMsg::AppendResp {
                        success: true,
                        match_index,
                        ..
                    } => acks[to].push(match_index),
                    m => panic!("unexpected {m:?}"),
                }
                let before = h.nodes[0].commit_index();
                let more = h.nodes[0].step(to as u32, resp, SimTime::ZERO);
                assert!(h.nodes[0].commit_index() >= before, "commit went back");
                assert_eq!(dest, 0);
                h.send(0, more);
            }
        }
    }
    assert_eq!(h.nodes[0].commit_index(), k as u64);
    // Whatever streaming the acks triggered, then one heartbeat round.
    while !h.net.queue.is_empty() {
        h.step_network(0, false);
    }
    h.tick_all();
    while !h.net.queue.is_empty() {
        h.step_network(0, false);
    }
    let applied = h.drain_committed();
    (1..3)
        .map(|i| (acks[i].clone(), applied[i].clone()))
        .collect()
}

/// The decision to keep re-covering the unacked window (instead of
/// pipelining from the last entry sent) rests on this: an append delivered
/// twice, or after a later one, changes nothing — the follower's log is the
/// same, every ack reports the same `match_index`, and commit only advances.
#[test]
fn duplicated_and_reversed_appends_are_idempotent() {
    for k in 1..=8u32 {
        let in_order = replicate(k, |m| m);
        let twice = replicate(k, |m| m.into_iter().flat_map(|m| [m.clone(), m]).collect());
        let reversed_twice = replicate(k, |m| {
            m.into_iter().rev().flat_map(|m| [m.clone(), m]).collect()
        });
        for f in 0..2 {
            let expect: Vec<Payload> = (1..=k).collect();
            assert_eq!(in_order[f].1, expect);
            assert_eq!(twice[f].1, expect, "duplicates changed the log");
            assert_eq!(reversed_twice[f].1, expect, "reordering changed the log");
            // In order, each append acks its own tail; a duplicate repeats
            // the ack of the original.
            let doubled: Vec<u64> = in_order[f].0.iter().flat_map(|&a| [a, a]).collect();
            assert_eq!(twice[f].0, doubled);
            // Newest first: the first append carries everything, and every
            // older one is a held prefix acking the same tail.
            assert_eq!(reversed_twice[f].0, vec![k as u64; 2 * k as usize]);
        }
    }
}
