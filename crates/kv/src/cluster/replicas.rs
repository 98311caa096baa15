//! A node's replicas, by range id.

use std::ops::{Index, IndexMut};

use mr_proto::RangeId;

use crate::replica::Replica;

/// A node's replicas in one slot per range id. Range ids are handed out in
/// sequence, so the slots stay dense: a lookup indexes, where a tree map
/// searched (every delivery, scrape, tick and read reaches its replica this
/// way), and a walk visits the replicas in range order, as that map did.
#[derive(Default)]
pub struct Replicas {
    slots: Vec<Option<(RangeId, Box<Replica>)>>,
    len: usize,
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

    pub fn contains_key(&self, range: &RangeId) -> bool {
        self.get(range).is_some()
    }

    /// Put `rep` in `range`'s slot; the replica it held, if any.
    pub fn insert(&mut self, range: RangeId, rep: Replica) -> Option<Replica> {
        let at = range.0 as usize;
        if self.slots.len() <= at {
            self.slots.resize_with(at + 1, || None);
        }
        let old = self.slots[at].replace((range, Box::new(rep)));
        self.len += usize::from(old.is_none());
        old.map(|(_, rep)| *rep)
    }

    pub fn remove(&mut self, range: &RangeId) -> Option<Replica> {
        let (_, rep) = self.slots.get_mut(range.0 as usize)?.take()?;
        self.len -= 1;
        Some(*rep)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    pub fn keys(&self) -> impl Iterator<Item = &RangeId> {
        self.iter().map(|(id, _)| id)
    }

    pub fn values(&self) -> impl Iterator<Item = &Replica> {
        self.iter().map(|(_, rep)| rep)
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
