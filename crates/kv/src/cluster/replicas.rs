//! A node's replicas, by range id.

use std::ops::{Index, IndexMut};

use mr_proto::RangeId;

use crate::replica::Replica;

/// A node's replicas in one slot per range id. Range ids are handed out in
/// sequence, so the slots stay dense: a lookup indexes, where a tree map
/// searched (every delivery, scrape, tick and read reaches its replica this
/// way), and a walk visits the replicas in range order, as that map did.
///
/// Beside each slot, whether its replica is *awake*: whether the Raft tick
/// visits it. An asleep replica's visit would do nothing, and stays so until
/// something marks it awake again (see `maintenance::asleep`). A replica is
/// awake when installed.
#[derive(Default)]
pub struct Replicas {
    slots: Vec<Option<(RangeId, Box<Replica>)>>,
    awake: Vec<bool>,
}

impl Replicas {
    pub fn get(&self, range: &RangeId) -> Option<&Replica> {
        let (_, rep) = self.slots.get(range.0 as usize)?.as_ref()?;
        Some(rep)
    }

    pub fn get_mut(&mut self, range: &RangeId) -> Option<&mut Replica> {
        let (_, rep) = self.slots.get_mut(range.0 as usize)?.as_mut()?;
        Some(rep)
    }

    /// `range`'s replica, marked awake.
    pub fn wake(&mut self, range: &RangeId) -> Option<&mut Replica> {
        let (_, rep) = self.slots.get_mut(range.0 as usize)?.as_mut()?;
        self.awake[range.0 as usize] = true;
        Some(rep)
    }

    pub fn wake_all(&mut self) {
        for (awake, slot) in self.awake.iter_mut().zip(&self.slots) {
            *awake = slot.is_some();
        }
    }

    pub fn is_awake(&self, range: &RangeId) -> bool {
        self.awake.get(range.0 as usize) == Some(&true)
    }

    /// Visit every awake replica, in range order; a replica stays awake
    /// when `visit` returns `true`.
    pub fn visit_awake(&mut self, mut visit: impl FnMut(RangeId, &mut Replica) -> bool) {
        for (awake, slot) in self.awake.iter_mut().zip(&mut self.slots) {
            if let (true, Some((range, rep))) = (*awake, slot) {
                *awake = visit(*range, rep);
            }
        }
    }

    /// Put `rep` in `range`'s slot, awake.
    pub fn insert(&mut self, range: RangeId, rep: Replica) {
        let at = range.0 as usize;
        if self.slots.len() <= at {
            self.slots.resize_with(at + 1, || None);
            self.awake.resize(at + 1, false);
        }
        self.slots[at] = Some((range, Box::new(rep)));
        self.awake[at] = true;
    }

    pub fn remove(&mut self, range: &RangeId) -> Option<Replica> {
        let (_, rep) = self.slots.get_mut(range.0 as usize)?.take()?;
        self.awake[range.0 as usize] = false;
        Some(*rep)
    }

    /// Every replica with its range, in range order.
    pub fn iter(&self) -> impl Iterator<Item = (&RangeId, &Replica)> {
        self.slots.iter().flatten().map(|(id, rep)| (id, &**rep))
    }

    /// Every replica with its range, in range order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&RangeId, &mut Replica)> {
        self.slots
            .iter_mut()
            .flatten()
            .map(|(id, rep)| (&*id, &mut **rep))
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Replica> {
        self.iter_mut().map(|(_, rep)| rep)
    }
}

fn missing(range: &RangeId) -> ! {
    panic!("no replica of {range} on this node")
}

impl Index<&RangeId> for Replicas {
    type Output = Replica;

    fn index(&self, range: &RangeId) -> &Replica {
        self.get(range).unwrap_or_else(|| missing(range))
    }
}

impl IndexMut<&RangeId> for Replicas {
    fn index_mut(&mut self, range: &RangeId) -> &mut Replica {
        self.get_mut(range).unwrap_or_else(|| missing(range))
    }
}
