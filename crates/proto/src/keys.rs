//! Keys, values, and spans.
//!
//! Keys are opaque byte strings ordered lexicographically; the SQL layer
//! produces them with an order-preserving tuple encoding. `Bytes` makes
//! clones cheap — keys are shared across intents, lock tables, timestamp
//! caches, and read sets.

use std::fmt;

use bytes::Bytes;

/// An opaque, lexicographically ordered key.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub Bytes);

impl Key {
    pub const MIN: Key = Key(Bytes::new());

    pub fn from_slice(b: &[u8]) -> Key {
        Key(Bytes::copy_from_slice(b))
    }

    pub fn from_vec(v: Vec<u8>) -> Key {
        Key(Bytes::from(v))
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The immediate successor key in lexicographic order (`key ++ 0x00`).
    pub fn next(&self) -> Key {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(0);
        Key(Bytes::from(v))
    }

    /// The end of the span of keys prefixed by `self`: increments the last
    /// byte that can be incremented, truncating trailing `0xff`s. Returns
    /// `None` when the prefix is all `0xff` (its span extends to key-max).
    pub fn prefix_end(&self) -> Option<Key> {
        let mut v = self.0.to_vec();
        while let Some(&last) = v.last() {
            if last == 0xff {
                v.pop();
            } else {
                *v.last_mut().unwrap() += 1;
                return Some(Key(Bytes::from(v)));
            }
        }
        None
    }

    pub fn starts_with(&self, prefix: &Key) -> bool {
        self.0.starts_with(&prefix.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key::from_slice(s.as_bytes())
    }
}

impl From<Vec<u8>> for Key {
    fn from(v: Vec<u8>) -> Key {
        Key::from_vec(v)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/")?;
        for &b in self.0.iter() {
            if (0x20..0x7f).contains(&b) && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        Ok(())
    }
}

/// An opaque value stored under a key.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(pub Bytes);

impl Value {
    pub fn from_slice(b: &[u8]) -> Value {
        Value(Bytes::copy_from_slice(b))
    }

    pub fn from_vec(v: Vec<u8>) -> Value {
        Value(Bytes::from(v))
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::from_slice(s.as_bytes())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Ok(s) = std::str::from_utf8(&self.0) {
            write!(f, "{s:?}")
        } else {
            write!(f, "0x{}", hex(&self.0))
        }
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// A half-open key interval `[start, end)`. An empty `end` means the span
/// has no upper bound (`Span::all`); a point span is `Span::point`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Span {
    pub start: Key,
    pub end: Key,
}

impl Span {
    pub fn point(key: Key) -> Span {
        let end = key.next();
        Span { start: key, end }
    }

    pub fn new(start: Key, end: Key) -> Span {
        Span { start, end }
    }

    /// The span of all keys with the given prefix.
    pub fn prefix(p: Key) -> Span {
        let end = p.prefix_end().unwrap_or_default();
        Span { start: p, end }
    }

    /// The whole keyspace.
    pub fn all() -> Span {
        Span {
            start: Key::MIN,
            end: Key::default(), // empty end = unbounded, see `contains`
        }
    }

    fn unbounded_end(&self) -> bool {
        self.end.is_empty()
    }

    pub fn contains(&self, key: &Key) -> bool {
        key >= &self.start && (self.unbounded_end() || key < &self.end)
    }

    pub fn overlaps(&self, other: &Span) -> bool {
        let self_ends_after_other_starts = self.unbounded_end() || other.start < self.end;
        let other_ends_after_self_starts = other.unbounded_end() || self.start < other.end;
        self_ends_after_other_starts && other_ends_after_self_starts
    }

    pub fn contains_span(&self, other: &Span) -> bool {
        other.start >= self.start
            && (self.unbounded_end() || (!other.unbounded_end() && other.end <= self.end))
    }

    /// The part of `self` inside `bounds` (the two must overlap): the later
    /// start and the earlier bounded end (empty if neither is bounded).
    pub fn clip(&self, bounds: &Span) -> Span {
        let ends = [&self.end, &bounds.end];
        let bounded_ends = ends.into_iter().filter(|end| !end.is_empty());
        let end = bounded_ends.min().unwrap_or(&self.end).clone();
        Span::new((&self.start).max(&bounds.start).clone(), end)
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unbounded_end() {
            write!(f, "[{:?}, +inf)", self.start)
        } else {
            write!(f, "[{:?}, {:?})", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_next_orders_immediately_after() {
        let k = Key::from("abc");
        let n = k.next();
        assert!(n > k);
        assert!(n.starts_with(&k));
        // Nothing fits strictly between k and k.next().
        assert_eq!(n.as_slice(), b"abc\0");
    }

    #[test]
    fn prefix_end_increments() {
        assert_eq!(Key::from("ab").prefix_end().unwrap().as_slice(), b"ac");
        assert_eq!(
            Key::from_slice(b"a\xff").prefix_end().unwrap().as_slice(),
            b"b"
        );
        assert_eq!(Key::from_slice(b"\xff\xff").prefix_end(), None);
    }

    #[test]
    fn prefix_span_contains_exactly_prefixed_keys() {
        let s = Span::prefix(Key::from("ab"));
        assert!(s.contains(&Key::from("ab")));
        assert!(s.contains(&Key::from("abz")));
        assert!(s.contains(&Key::from_slice(b"ab\xff\xff")));
        assert!(!s.contains(&Key::from("ac")));
        assert!(!s.contains(&Key::from("aa")));
    }

    #[test]
    fn point_span() {
        let s = Span::point(Key::from("k"));
        assert!(s.contains(&Key::from("k")));
        assert!(!s.contains(&Key::from("k0")));
        assert!(!s.contains(&Key::from("j")));
    }

    #[test]
    fn span_overlap() {
        let a = Span::new(Key::from("b"), Key::from("d"));
        let b = Span::new(Key::from("c"), Key::from("e"));
        let c = Span::new(Key::from("d"), Key::from("f"));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c)); // half-open: [b,d) and [d,f) don't touch
        assert!(Span::all().overlaps(&a));
        assert!(a.overlaps(&Span::all()));
    }

    #[test]
    fn span_contains_span() {
        let outer = Span::new(Key::from("a"), Key::from("z"));
        let inner = Span::new(Key::from("c"), Key::from("d"));
        assert!(outer.contains_span(&inner));
        assert!(!inner.contains_span(&outer));
        assert!(Span::all().contains_span(&outer));
        assert!(!outer.contains_span(&Span::all()));
    }

    #[test]
    fn all_span_contains_everything() {
        let s = Span::all();
        assert!(s.contains(&Key::MIN));
        assert!(s.contains(&Key::from_slice(b"\xff\xff\xff")));
    }

    #[test]
    fn key_debug_renders_printable_and_hex() {
        assert_eq!(format!("{:?}", Key::from("user1")), "/user1");
        assert_eq!(format!("{:?}", Key::from_slice(b"\x01a")), "/\\x01a");
    }
}
