//! Key and value encodings.
//!
//! Index keys use an order-preserving tuple encoding so that lexicographic
//! byte order matches SQL tuple order (the property range splits and scans
//! rely on). Keys are laid out as:
//!
//! ```text
//! /t<table_id>/<index_id>[/<region>]/<col1>/<col2>/...
//! ```
//!
//! The optional region component is the implicit partitioning prefix of
//! REGIONAL BY ROW tables (§2.3.2): every index of an RBR table is
//! implicitly prefixed by `crdb_region`, which is what lets each partition
//! live in its own range with its own zone configuration.
//!
//! Row values (what the primary index stores) use a simple length-prefixed
//! datum encoding — ordering is irrelevant there.

use mr_proto::{Key, Span, Value};

use crate::types::Datum;

const TAG_NULL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_STRING: u8 = 0x03;
const TAG_UUID: u8 = 0x04;
const TAG_FALSE: u8 = 0x05;
const TAG_TRUE: u8 = 0x06;
const TAG_BYTES: u8 = 0x07;
const TAG_FLOAT: u8 = 0x08;
const TAG_TS: u8 = 0x09;

/// Append the order-preserving encoding of `d` to `out`.
pub fn encode_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(TAG_NULL),
        Datum::Int(i) => {
            out.push(TAG_INT);
            // Flip the sign bit so two's-complement order matches byte order.
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Datum::Timestamp(i) => {
            out.push(TAG_TS);
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Datum::Float(x) => {
            out.push(TAG_FLOAT);
            // IEEE754 total-order trick.
            let bits = x.to_bits();
            let ordered = if bits >> 63 == 0 {
                bits ^ (1 << 63)
            } else {
                !bits
            };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Datum::String(s) | Datum::Region(s) => encode_str(out, s),
        Datum::Bytes(b) => {
            out.push(TAG_BYTES);
            escape_bytes(out, b);
        }
        Datum::Bool(false) => out.push(TAG_FALSE),
        Datum::Bool(true) => out.push(TAG_TRUE),
        Datum::Uuid(u) => {
            out.push(TAG_UUID);
            out.extend_from_slice(&u.to_be_bytes());
        }
    }
}

fn encode_str(out: &mut Vec<u8>, s: &str) {
    out.push(TAG_STRING);
    escape_bytes(out, s.as_bytes());
}

/// `0x00`-terminated byte encoding with `0x00 -> 0x00 0xff` escaping, so no
/// encoded content contains the terminator and prefix order is preserved.
fn escape_bytes(out: &mut Vec<u8>, b: &[u8]) {
    for (i, run) in b.split(|&x| x == 0).enumerate() {
        if i > 0 {
            out.extend_from_slice(&[0, 0xff]);
        }
        out.extend_from_slice(run);
    }
    out.extend_from_slice(&[0, 0]); // double-0 terminator distinguishes from escaped zero
}

/// The length of `d`'s key encoding, not counting the escape byte each
/// `0x00` inside a string or byte string adds.
fn encoded_len(d: &Datum) -> usize {
    match d {
        Datum::Null | Datum::Bool(_) => 1,
        Datum::Int(_) | Datum::Timestamp(_) | Datum::Float(_) => 9,
        Datum::Uuid(_) => 17,
        Datum::String(s) | Datum::Region(s) => s.len() + 3,
        Datum::Bytes(b) => b.len() + 3,
    }
}

/// Decode one datum from `buf`, returning the rest. Inverse of
/// [`encode_datum`] (regions decode as strings; the catalog re-types them).
pub fn decode_datum(buf: &[u8]) -> Option<(Datum, &[u8])> {
    let (&tag, rest) = buf.split_first()?;
    match tag {
        TAG_NULL => Some((Datum::Null, rest)),
        TAG_INT | TAG_TS => {
            let (b, rest) = rest.split_at_checked(8)?;
            let v = (u64::from_be_bytes(b.try_into().ok()?) ^ (1 << 63)) as i64;
            Some((
                if tag == TAG_INT {
                    Datum::Int(v)
                } else {
                    Datum::Timestamp(v)
                },
                rest,
            ))
        }
        TAG_FLOAT => {
            let (b, rest) = rest.split_at_checked(8)?;
            let ordered = u64::from_be_bytes(b.try_into().ok()?);
            let bits = if ordered >> 63 == 1 {
                ordered ^ (1 << 63)
            } else {
                !ordered
            };
            Some((Datum::Float(f64::from_bits(bits)), rest))
        }
        TAG_STRING | TAG_BYTES => {
            let (content, rest) = unescape_bytes(rest)?;
            Some((
                if tag == TAG_STRING {
                    Datum::String(String::from_utf8(content).ok()?)
                } else {
                    Datum::Bytes(content)
                },
                rest,
            ))
        }
        TAG_FALSE => Some((Datum::Bool(false), rest)),
        TAG_TRUE => Some((Datum::Bool(true), rest)),
        TAG_UUID => {
            let (b, rest) = rest.split_at_checked(16)?;
            Some((Datum::Uuid(u128::from_be_bytes(b.try_into().ok()?)), rest))
        }
        _ => None,
    }
}

fn unescape_bytes(buf: &[u8]) -> Option<(Vec<u8>, &[u8])> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == 0 {
            match buf.get(i + 1) {
                Some(&0xff) => {
                    out.push(0);
                    i += 2;
                }
                Some(&0) => return Some((out, &buf[i + 2..])),
                _ => return None,
            }
        } else {
            out.push(buf[i]);
            i += 1;
        }
    }
    None
}

/// Identifier of a table in the catalog.
pub type TableId = u32;
/// Identifier of an index within its table.
pub type IndexId = u32;

/// The key prefix of `(table, index)`.
pub fn index_prefix(table: TableId, index: IndexId) -> Vec<u8> {
    partition_prefix(table, index, None)
}

/// The key prefix of one partition of an implicitly region-partitioned
/// index (RBR tables). `region: None` means the index is unpartitioned.
pub fn partition_prefix(table: TableId, index: IndexId, region: Option<&str>) -> Vec<u8> {
    let mut v = Vec::with_capacity(prefix_len(region));
    prefix_into(&mut v, table, index, region);
    v
}

fn prefix_len(region: Option<&str>) -> usize {
    9 + region.map_or(0, |r| r.len() + 3)
}

/// Append [`partition_prefix`] to `out`.
fn prefix_into(out: &mut Vec<u8>, table: TableId, index: IndexId, region: Option<&str>) {
    out.push(b't');
    out.extend_from_slice(&table.to_be_bytes());
    out.extend_from_slice(&index.to_be_bytes());
    if let Some(r) = region {
        encode_str(out, r); // as `Datum::Region(r)` encodes
    }
}

/// Full index key: partition prefix plus the encoded key columns, in one
/// buffer sized for the whole key.
pub fn index_key<'a>(
    table: TableId,
    index: IndexId,
    region: Option<&str>,
    key_cols: impl IntoIterator<Item = &'a Datum, IntoIter: Clone>,
) -> Key {
    let key_cols = key_cols.into_iter();
    let len = prefix_len(region) + key_cols.clone().map(encoded_len).sum::<usize>();
    let mut v = Vec::with_capacity(len);
    index_key_into(&mut v, table, index, region, key_cols);
    Key::from_vec(v)
}

/// Append the bytes of [`index_key`] to `out`.
pub(crate) fn index_key_into<'a>(
    out: &mut Vec<u8>,
    table: TableId,
    index: IndexId,
    region: Option<&str>,
    key_cols: impl IntoIterator<Item = &'a Datum>,
) {
    prefix_into(out, table, index, region);
    for d in key_cols {
        encode_datum(out, d);
    }
}

/// The span of an entire partition (or the whole index when unpartitioned).
pub fn partition_span(table: TableId, index: IndexId, region: Option<&str>) -> Span {
    Span::prefix(Key::from_vec(partition_prefix(table, index, region)))
}

/// Encode a full row as a stored value (length-prefixed datums).
pub fn encode_row(row: &[Datum]) -> Value {
    let mut v = Vec::with_capacity(row.len() * 8);
    encode_row_into(&mut v, row);
    Value::from_vec(v)
}

/// Append the bytes of [`encode_row`] to `out`.
pub(crate) fn encode_row_into(out: &mut Vec<u8>, row: &[Datum]) {
    for d in row {
        // Length prefix, patched once the datum is encoded behind it.
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        encode_datum(out, d);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }
}

/// Decode a row previously encoded with [`encode_row`].
pub fn decode_row(value: &Value) -> Option<Vec<Datum>> {
    let mut buf = value.as_slice();
    let mut out = Vec::new();
    while !buf.is_empty() {
        let (len, rest) = buf.split_at_checked(4)?;
        let len = u32::from_be_bytes(len.try_into().ok()?) as usize;
        let (one, rest) = rest.split_at_checked(len)?;
        let (d, leftover) = decode_datum(one)?;
        if !leftover.is_empty() {
            return None;
        }
        out.push(d);
        buf = rest;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(d: &Datum) -> Vec<u8> {
        let mut v = Vec::new();
        encode_datum(&mut v, d);
        v
    }

    #[test]
    fn int_encoding_orders() {
        let vals = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        for w in vals.windows(2) {
            assert!(
                enc(&Datum::Int(w[0])) < enc(&Datum::Int(w[1])),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn string_encoding_orders_and_prefixes() {
        assert!(enc(&Datum::String("a".into())) < enc(&Datum::String("b".into())));
        assert!(enc(&Datum::String("a".into())) < enc(&Datum::String("aa".into())));
        // Embedded NULs survive round trips and order correctly.
        let with_nul = Datum::String("a\0b".into());
        let encoded = enc(&with_nul);
        let (d, rest) = decode_datum(&encoded).unwrap();
        assert_eq!(d, with_nul);
        assert!(rest.is_empty());
        assert!(enc(&Datum::String("a\0".into())) < enc(&Datum::String("a\u{1}".into())));
    }

    #[test]
    fn zero_bytes_escape_in_place() {
        let escaped = enc(&Datum::Bytes(vec![0, 1, 0, 0, 2, 0]));
        assert_eq!(
            escaped,
            [TAG_BYTES, 0, 0xff, 1, 0, 0xff, 0, 0xff, 2, 0, 0xff, 0, 0]
        );
        assert_eq!(enc(&Datum::Bytes(vec![])), [TAG_BYTES, 0, 0]);
        assert_eq!(
            enc(&Datum::String("ab".into())),
            [TAG_STRING, b'a', b'b', 0, 0]
        );
    }

    #[test]
    fn float_total_order() {
        let vals = [-1e9, -1.5, -0.0, 0.5, 2.0, 1e18];
        for w in vals.windows(2) {
            assert!(enc(&Datum::Float(w[0])) < enc(&Datum::Float(w[1])));
        }
    }

    #[test]
    fn datum_roundtrip() {
        let ds = [
            Datum::Null,
            Datum::Int(-42),
            Datum::Float(3.25),
            Datum::String("hello".into()),
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Uuid(0xdead_beef_dead_beef_dead_beef_dead_beef),
            Datum::Bytes(vec![0, 1, 2, 0, 255]),
            Datum::Timestamp(123456789),
        ];
        for d in &ds {
            let encoded = enc(d);
            let (got, rest) = decode_datum(&encoded).unwrap();
            assert!(rest.is_empty());
            // Regions decode as strings; none in this list.
            assert_eq!(&got, d);
        }
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![
            Datum::Int(1),
            Datum::String("x".into()),
            Datum::Null,
            Datum::Region("us-east1".into()),
        ];
        let decoded = decode_row(&encode_row(&row)).unwrap();
        // Region columns decode as strings.
        assert_eq!(decoded[0], Datum::Int(1));
        assert_eq!(decoded[1], Datum::String("x".into()));
        assert_eq!(decoded[2], Datum::Null);
        assert_eq!(decoded[3], Datum::String("us-east1".into()));
    }

    #[test]
    fn partition_prefixes_nest() {
        let idx = Key::from_vec(index_prefix(1, 1));
        let part = Key::from_vec(partition_prefix(1, 1, Some("us-east1")));
        assert!(part.starts_with(&idx));
        // The region component is the region datum's own encoding.
        let mut by_datum = index_prefix(1, 1);
        encode_datum(&mut by_datum, &Datum::Region("us-east1".into()));
        assert_eq!(part.as_slice(), by_datum);
        let key = index_key(1, 1, Some("us-east1"), &[Datum::Int(5)]);
        assert!(key.starts_with(&part));
        assert!(partition_span(1, 1, Some("us-east1")).contains(&key));
        assert!(!partition_span(1, 1, Some("us-west1")).contains(&key));
        assert!(partition_span(1, 1, None).contains(&key));
    }

    #[test]
    fn tables_and_indexes_are_disjoint() {
        let a = partition_span(1, 1, None);
        let b = partition_span(1, 2, None);
        let c = partition_span(2, 1, None);
        let ka = index_key(1, 1, None, &[Datum::Int(9)]);
        assert!(a.contains(&ka));
        assert!(!b.contains(&ka));
        assert!(!c.contains(&ka));
        assert!(!a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn multi_column_keys_order_lexicographically() {
        let k1 = index_key(1, 1, None, &[Datum::Int(1), Datum::String("b".into())]);
        let k2 = index_key(1, 1, None, &[Datum::Int(1), Datum::String("c".into())]);
        let k3 = index_key(1, 1, None, &[Datum::Int(2), Datum::String("a".into())]);
        assert!(k1 < k2);
        assert!(k2 < k3);
    }
}
