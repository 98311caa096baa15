//! MVCC timestamps.

use std::fmt;

use mr_sim::SimDuration;

/// An MVCC timestamp: a wall-clock component in nanoseconds and a logical
/// counter for ordering events within the same nanosecond.
///
/// The `synthetic` flag marks *future-time* timestamps minted by global
/// transactions (§6.2): their wall component is not backed by any physical
/// clock reading, so observers must commit-wait before treating values at
/// such timestamps as linearizable. The flag does not participate in
/// ordering or equality, mirroring CockroachDB.
#[derive(Clone, Copy)]
pub struct Timestamp {
    pub wall: u64,
    pub logical: u32,
    pub synthetic: bool,
}

impl PartialEq for Timestamp {
    fn eq(&self, other: &Self) -> bool {
        self.wall == other.wall && self.logical == other.logical
    }
}
impl Eq for Timestamp {}
impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.wall
            .cmp(&other.wall)
            .then_with(|| self.logical.cmp(&other.logical))
    }
}
impl std::hash::Hash for Timestamp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.wall.hash(state);
        self.logical.hash(state);
    }
}

impl Default for Timestamp {
    fn default() -> Self {
        Timestamp::ZERO
    }
}

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp {
        wall: 0,
        logical: 0,
        synthetic: false,
    };

    pub const MAX: Timestamp = Timestamp {
        wall: u64::MAX,
        logical: u32::MAX,
        synthetic: false,
    };

    pub const fn new(wall: u64, logical: u32) -> Timestamp {
        Timestamp {
            wall,
            logical,
            synthetic: false,
        }
    }

    pub fn is_zero(self) -> bool {
        self.wall == 0 && self.logical == 0
    }

    /// Mark this timestamp as synthetic (future-time).
    pub fn as_synthetic(mut self) -> Timestamp {
        self.synthetic = true;
        self
    }

    /// Smallest timestamp strictly greater than `self`.
    pub fn next(self) -> Timestamp {
        if self.logical == u32::MAX {
            Timestamp {
                wall: self.wall + 1,
                logical: 0,
                synthetic: self.synthetic,
            }
        } else {
            Timestamp {
                wall: self.wall,
                logical: self.logical + 1,
                synthetic: self.synthetic,
            }
        }
    }

    /// Largest timestamp strictly smaller than `self`.
    pub fn prev(self) -> Timestamp {
        if self.logical > 0 {
            Timestamp {
                wall: self.wall,
                logical: self.logical - 1,
                synthetic: self.synthetic,
            }
        } else {
            assert!(self.wall > 0, "prev of zero timestamp");
            Timestamp {
                wall: self.wall - 1,
                logical: u32::MAX,
                synthetic: self.synthetic,
            }
        }
    }

    /// Add a wall-clock duration, preserving logical and synthetic parts.
    pub fn add_duration(self, d: SimDuration) -> Timestamp {
        Timestamp {
            wall: self.wall + d.nanos(),
            logical: self.logical,
            synthetic: self.synthetic,
        }
    }

    /// Forward `self` to at least `other`; keeps the max. The synthetic flag
    /// of the result follows the timestamp that supplied the max (ties keep
    /// a non-synthetic flag if either side is real, as in CRDB).
    pub fn forward(self, other: Timestamp) -> Timestamp {
        match self.cmp(&other) {
            std::cmp::Ordering::Less => other,
            std::cmp::Ordering::Greater => self,
            std::cmp::Ordering::Equal => Timestamp {
                synthetic: self.synthetic && other.synthetic,
                ..self
            },
        }
    }

    pub fn min(self, other: Timestamp) -> Timestamp {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Wall-clock difference `self - earlier`, saturating at zero.
    pub fn wall_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration(self.wall.saturating_sub(earlier.wall))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:09},{}{}",
            self.wall / 1_000_000_000,
            self.wall % 1_000_000_000,
            self.logical,
            if self.synthetic { "?" } else { "" }
        )
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_ignores_synthetic() {
        let a = Timestamp::new(10, 2);
        let b = Timestamp::new(10, 2).as_synthetic();
        assert_eq!(a, b);
        assert!(Timestamp::new(10, 3) > a);
        assert!(Timestamp::new(11, 0) > Timestamp::new(10, u32::MAX));
    }

    #[test]
    fn next_prev_roundtrip() {
        let t = Timestamp::new(5, 7);
        assert_eq!(t.next().prev(), t);
        assert_eq!(t.prev().next(), t);
        let edge = Timestamp::new(5, u32::MAX);
        assert_eq!(edge.next(), Timestamp::new(6, 0));
        assert_eq!(Timestamp::new(6, 0).prev(), edge);
        assert!(t.next() > t);
        assert!(t.prev() < t);
    }

    #[test]
    fn forward_keeps_max_and_merges_synthetic() {
        let real = Timestamp::new(10, 0);
        let synth = Timestamp::new(10, 0).as_synthetic();
        assert!(!real.forward(synth).synthetic);
        assert!(!synth.forward(real).synthetic);
        assert!(synth.forward(synth).synthetic);
        let later = Timestamp::new(20, 0).as_synthetic();
        assert_eq!(real.forward(later), later);
        assert!(real.forward(later).synthetic);
        assert_eq!(later.forward(real), later);
    }

    #[test]
    fn add_duration_and_since() {
        let t = Timestamp::new(1_000_000, 3);
        let t2 = t.add_duration(SimDuration::from_millis(1));
        assert_eq!(t2.wall, 2_000_000);
        assert_eq!(t2.logical, 3);
        assert_eq!(t2.wall_since(t), SimDuration::from_millis(1));
        assert_eq!(t.wall_since(t2), SimDuration::ZERO);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::new(1_500_000_000, 2).as_synthetic();
        assert_eq!(t.to_string(), "1.500000000,2?");
    }
}
