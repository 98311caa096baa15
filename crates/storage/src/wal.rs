//! Write-ahead log: framed byte records with per-record checksums and an
//! explicit fsync pointer.
//!
//! The WAL is the durability boundary of the storage engine. Every applied
//! Raft entry seals one record; a record is only *durable* once a sync
//! point advances `durable_len` past it. Crash recovery replays exactly the
//! durable prefix: [`Wal::crash`] discards the unsynced tail, and
//! [`replay`] walks the frames, stopping at the first torn or corrupt
//! record (detected by the per-record CRC32) and truncating there rather
//! than replaying garbage.
//!
//! Frame layout (little-endian): `[len: u32][crc32(payload): u32][payload]`.
//! The payloads themselves are encoded by [`codec`] — pure hand-rolled
//! byte encoding, so the round trip is exercised on every simulated apply
//! and every chaos crash, not just in dedicated tests.

use mr_clock::Timestamp;
use mr_proto::{Key, TxnId, TxnMeta, TxnRecord, TxnStatus, Value};

/// One logical operation inside a WAL entry record. Mirrors every mutation
/// the MVCC memtable can take, so replaying the ops of the durable records
/// in order reconstructs the memtable exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Lay down (or overwrite) an intent. `txn.write_ts` is the *final*
    /// forwarded timestamp, so replay installs it verbatim.
    PutIntent {
        key: Key,
        value: Option<Value>,
        txn: TxnMeta,
    },
    /// Promote an intent to a committed version.
    CommitIntent {
        key: Key,
        txn_id: TxnId,
        commit_ts: Timestamp,
    },
    /// Discard an intent.
    AbortIntent { key: Key, txn_id: TxnId },
    /// Upsert a transaction record (coordinator state for recovery).
    TxnRecord { txn_id: TxnId, rec: TxnRecord },
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Full engine image: replay starts here. WAL truncation writes a new
    /// checkpoint as the first record of the fresh log.
    Checkpoint(Vec<u8>),
    /// Ops of one applied Raft entry.
    Entry {
        apply_index: u64,
        closed_ts: Timestamp,
        ops: Vec<WalOp>,
    },
}

/// Remainders of the reflected IEEE 802.3 polynomial, evaluated at compile
/// time (hermetic, no runtime set-up): `CRC_TABLES[0]` is the per-byte table,
/// `CRC_TABLES[k][b]` the remainder of byte `b` followed by `k` zero bytes —
/// what lets eight input bytes fold in one step (slicing-by-8).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3, reflected), eight bytes per step: the eight lookups of
/// a step are independent of each other, where a byte-at-a-time loop chains
/// every lookup on the one before.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    let mut crc = !0u32;
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    !chunks.remainder().iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize]
    })
}

/// Byte codec for WAL payloads and checkpoints.
pub mod codec {
    use super::*;

    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn put_ts(out: &mut Vec<u8>, ts: Timestamp) {
        put_u64(out, ts.wall);
        put_u32(out, ts.logical);
        out.push(ts.synthetic as u8);
    }
    pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
        put_u32(out, b.len() as u32);
        out.extend_from_slice(b);
    }
    pub fn put_key(out: &mut Vec<u8>, k: &Key) {
        put_bytes(out, k.as_slice());
    }
    pub fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
        match v {
            Some(v) => {
                out.push(1);
                put_bytes(out, &v.0);
            }
            None => out.push(0),
        }
    }
    pub fn put_txn_meta(out: &mut Vec<u8>, t: &TxnMeta) {
        put_txn_meta_at(out, t, t.write_ts);
    }
    /// `t` as it stands once its write timestamp is forwarded to `write_ts`.
    fn put_txn_meta_at(out: &mut Vec<u8>, t: &TxnMeta, write_ts: Timestamp) {
        put_u64(out, t.id.0);
        put_key(out, &t.anchor);
        put_ts(out, write_ts);
        put_u32(out, t.epoch);
    }
    fn status_byte(s: TxnStatus) -> u8 {
        match s {
            TxnStatus::Pending => 0,
            TxnStatus::Staging => 1,
            TxnStatus::Committed => 2,
            TxnStatus::Aborted => 3,
        }
    }
    pub fn put_txn_rec(out: &mut Vec<u8>, r: &TxnRecord) {
        out.push(status_byte(r.status));
        put_ts(out, r.commit_ts);
        put_u32(out, r.in_flight.len() as u32);
        for k in &r.in_flight {
            put_key(out, k);
        }
    }

    /// A decode cursor. Every read is bounds-checked; failure means the
    /// record is corrupt (should have been caught by the CRC, but decode
    /// stays defensive).
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct DecodeError;

    impl<'a> Cursor<'a> {
        pub fn new(buf: &'a [u8]) -> Cursor<'a> {
            Cursor { buf, pos: 0 }
        }
        pub fn is_empty(&self) -> bool {
            self.pos >= self.buf.len()
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
            let end = self.pos.checked_add(n).ok_or(DecodeError)?;
            if end > self.buf.len() {
                return Err(DecodeError);
            }
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Ok(s)
        }
        fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
            self.take(N)?.first_chunk().copied().ok_or(DecodeError)
        }
        pub fn u8(&mut self) -> Result<u8, DecodeError> {
            Ok(u8::from_le_bytes(self.array()?))
        }
        pub fn u32(&mut self) -> Result<u32, DecodeError> {
            Ok(u32::from_le_bytes(self.array()?))
        }
        pub fn u64(&mut self) -> Result<u64, DecodeError> {
            Ok(u64::from_le_bytes(self.array()?))
        }
        pub fn ts(&mut self) -> Result<Timestamp, DecodeError> {
            let wall = self.u64()?;
            let logical = self.u32()?;
            let synthetic = self.u8()? != 0;
            let mut t = Timestamp::new(wall, logical);
            t.synthetic = synthetic;
            Ok(t)
        }
        pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
            let n = self.u32()? as usize;
            self.take(n)
        }
        pub fn key(&mut self) -> Result<Key, DecodeError> {
            Ok(Key::from_slice(self.bytes()?))
        }
        pub fn opt_value(&mut self) -> Result<Option<Value>, DecodeError> {
            Ok(match self.u8()? {
                0 => None,
                _ => Some(Value(bytes::Bytes::copy_from_slice(self.bytes()?))),
            })
        }
        pub fn txn_meta(&mut self) -> Result<TxnMeta, DecodeError> {
            let id = TxnId(self.u64()?);
            let anchor = self.key()?;
            let write_ts = self.ts()?;
            let epoch = self.u32()?;
            let mut m = TxnMeta::new(id, anchor, write_ts);
            m.epoch = epoch;
            Ok(m)
        }
        pub fn txn_rec(&mut self) -> Result<TxnRecord, DecodeError> {
            let status = match self.u8()? {
                0 => TxnStatus::Pending,
                1 => TxnStatus::Staging,
                2 => TxnStatus::Committed,
                3 => TxnStatus::Aborted,
                _ => return Err(DecodeError),
            };
            let commit_ts = self.ts()?;
            let n = self.u32()? as usize;
            let mut in_flight = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                in_flight.push(self.key()?);
            }
            Ok(TxnRecord {
                status,
                commit_ts,
                in_flight,
            })
        }
    }

    // One encoder per op kind, taking its parts by reference: the engine
    // encodes each mutation as it happens and never builds an owned `WalOp`.

    /// [`WalOp::PutIntent`] of `txn` laid down at `write_ts`.
    pub fn put_intent_op(
        out: &mut Vec<u8>,
        key: &Key,
        value: &Option<Value>,
        txn: &TxnMeta,
        write_ts: Timestamp,
    ) {
        out.push(0);
        put_key(out, key);
        put_opt_value(out, value);
        put_txn_meta_at(out, txn, write_ts);
    }
    pub fn commit_intent_op(out: &mut Vec<u8>, key: &Key, txn_id: TxnId, commit_ts: Timestamp) {
        out.push(1);
        put_key(out, key);
        put_u64(out, txn_id.0);
        put_ts(out, commit_ts);
    }
    pub fn abort_intent_op(out: &mut Vec<u8>, key: &Key, txn_id: TxnId) {
        out.push(2);
        put_key(out, key);
        put_u64(out, txn_id.0);
    }
    pub fn txn_record_op(out: &mut Vec<u8>, txn_id: TxnId, rec: &TxnRecord) {
        out.push(3);
        put_u64(out, txn_id.0);
        put_txn_rec(out, rec);
    }

    pub fn decode_op(c: &mut Cursor<'_>) -> Result<WalOp, DecodeError> {
        Ok(match c.u8()? {
            0 => WalOp::PutIntent {
                key: c.key()?,
                value: c.opt_value()?,
                txn: c.txn_meta()?,
            },
            1 => WalOp::CommitIntent {
                key: c.key()?,
                txn_id: TxnId(c.u64()?),
                commit_ts: c.ts()?,
            },
            2 => WalOp::AbortIntent {
                key: c.key()?,
                txn_id: TxnId(c.u64()?),
            },
            3 => WalOp::TxnRecord {
                txn_id: TxnId(c.u64()?),
                rec: c.txn_rec()?,
            },
            _ => return Err(DecodeError),
        })
    }

    /// A checkpoint record's payload (`[kind: u8]` + body).
    pub fn put_checkpoint(out: &mut Vec<u8>, image: &[u8]) {
        out.push(0);
        put_bytes(out, image);
    }

    /// Head of an entry record's payload; its `ops` encoded ops follow. Every
    /// field is fixed-width, so the head is the same size whatever it says.
    pub fn put_entry_header(out: &mut Vec<u8>, apply_index: u64, closed_ts: Timestamp, ops: u32) {
        out.push(1);
        put_u64(out, apply_index);
        put_ts(out, closed_ts);
        put_u32(out, ops);
    }

    pub fn decode_record(payload: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            0 => WalRecord::Checkpoint(c.bytes()?.to_vec()),
            1 => {
                let apply_index = c.u64()?;
                let closed_ts = c.ts()?;
                let n = c.u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ops.push(decode_op(&mut c)?);
                }
                WalRecord::Entry {
                    apply_index,
                    closed_ts,
                    ops,
                }
            }
            _ => return Err(DecodeError),
        };
        if !c.is_empty() {
            return Err(DecodeError);
        }
        Ok(rec)
    }
}

/// Outcome of a replay scan over a byte log.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Records decoded from intact frames, in log order.
    pub records: Vec<WalRecord>,
    /// True when the scan stopped early at a torn or corrupt frame. The
    /// torn tail is *not* replayed; [`ReplayOutcome::valid_len`] is where
    /// the log should be truncated.
    pub torn_tail: bool,
    /// Byte length of the intact prefix.
    pub valid_len: usize,
}

/// The little-endian `u32` at the head of `bytes`, if four bytes are there.
fn le_u32(bytes: &[u8]) -> Option<u32> {
    bytes.first_chunk().map(|b| u32::from_le_bytes(*b))
}

/// The intact frame at `pos`: its decoded record and the offset it ends at.
/// `None` for a short frame, a CRC mismatch or an undecodable payload.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let header = bytes.get(pos..)?;
    let (len, crc) = (le_u32(header)? as usize, le_u32(header.get(4..)?)?);
    let end = (pos + 8).checked_add(len)?;
    let payload = bytes.get(pos + 8..end)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((codec::decode_record(payload).ok()?, end))
}

/// Walk `bytes` frame by frame. A short frame, a CRC mismatch, or an
/// undecodable payload ends the scan (torn tail): everything before it is
/// returned, nothing after it is trusted.
pub fn replay(bytes: &[u8]) -> ReplayOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some((rec, end)) = frame_at(bytes, pos) else {
            return ReplayOutcome {
                records,
                torn_tail: true,
                valid_len: pos,
            };
        };
        records.push(rec);
        pos = end;
    }
    ReplayOutcome {
        records,
        torn_tail: false,
        valid_len: pos,
    }
}

/// The per-replica write-ahead log: an append-only byte buffer plus the
/// fsync pointer separating the durable prefix from the volatile tail.
///
/// The entry record of the Raft entry being applied is written in place: its
/// first op opens a frame at the end of the buffer, with room for the frame
/// and entry headers, and every op encodes straight into it
/// ([`Wal::entry_op`]); [`Wal::seal_entry`] fills the headers in. Until then
/// the open frame is no part of the log: reads, syncs and crashes see the
/// sealed records only, and a checkpoint or crash drops it.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    buf: Vec<u8>,
    /// The open entry frame, if an op has been encoded since the last seal.
    open: Option<OpenEntry>,
    /// Bytes at or below this offset survive a crash.
    durable_len: usize,
    /// Total records appended since the last truncation.
    records: u64,
    /// Sim-time (nanos) of the most recent fsync point, and how many syncs
    /// have been issued — the "fsync-point markers" chaos forensics read.
    pub last_sync_nanos: u64,
    pub syncs: u64,
}

/// Where an open entry frame starts, and how many ops are encoded into it.
#[derive(Clone, Copy, Debug)]
struct OpenEntry {
    at: usize,
    ops: u32,
}

impl Wal {
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Frame and append one record, whose payload `write` encodes straight
    /// into the log (the frame header is filled in behind it). Volatile
    /// until the next sync.
    pub fn append(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        debug_assert!(self.open.is_none(), "a record appended inside an entry");
        let frame = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        write(&mut self.buf);
        self.close_frame(frame);
    }

    /// The buffer the next op of the entry being applied is encoded into:
    /// the end of the log, inside the entry's open frame.
    pub fn entry_op(&mut self) -> &mut Vec<u8> {
        self.open_entry().ops += 1;
        &mut self.buf
    }

    /// Seal the open entry frame — an empty one if no op was encoded — into
    /// the record of Raft entry `apply_index`. Volatile until the next sync.
    pub fn seal_entry(&mut self, apply_index: u64, closed_ts: Timestamp) {
        let OpenEntry { at, ops } = *self.open_entry();
        self.open = None;
        // Write the head behind the ops and move it over the placeholder
        // (the same size: every field is fixed-width).
        let end = self.buf.len();
        codec::put_entry_header(&mut self.buf, apply_index, closed_ts, ops);
        self.buf.copy_within(end.., at + 8);
        self.buf.truncate(end);
        self.close_frame(at);
    }

    /// The open entry frame, opened at the end of the log with placeholder
    /// headers if there is none.
    fn open_entry(&mut self) -> &mut OpenEntry {
        let at = self.buf.len();
        if self.open.is_none() {
            self.buf.extend_from_slice(&[0; 8]);
            codec::put_entry_header(&mut self.buf, 0, Timestamp::ZERO, 0);
        }
        self.open.get_or_insert(OpenEntry { at, ops: 0 })
    }

    /// Fill in the header of the frame at `frame`, which runs to the end of
    /// the buffer.
    fn close_frame(&mut self, frame: usize) {
        let payload = &self.buf[frame + 8..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        self.buf[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
    }

    /// Drop the open entry frame, if any: its ops never reach the log.
    fn drop_open(&mut self) {
        if let Some(open) = self.open.take() {
            self.buf.truncate(open.at);
        }
    }

    /// Advance the fsync pointer to the end of the sealed records, marking
    /// the point in sim-time.
    pub fn sync(&mut self, now_nanos: u64) {
        self.durable_len = self.len();
        self.last_sync_nanos = now_nanos;
        self.syncs += 1;
    }

    /// Simulate the crash: the unsynced tail, and any open entry, is gone.
    pub fn crash(&mut self) {
        self.drop_open();
        self.buf.truncate(self.durable_len);
    }

    /// Replace the entire log with a single (durable) checkpoint record. An
    /// open entry is dropped: the checkpoint holds what its ops did.
    pub fn reset_to_checkpoint(&mut self, image: &[u8], now_nanos: u64) {
        self.open = None;
        self.buf.clear();
        self.records = 0;
        self.append(|out| codec::put_checkpoint(out, image));
        self.sync(now_nanos);
    }

    /// The sealed records.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len()]
    }
    pub fn len(&self) -> usize {
        self.open.map_or(self.buf.len(), |open| open.at)
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
    pub fn durable_len(&self) -> usize {
        self.durable_len
    }
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Test hook: crash with the durability horizon forced to `len` bytes
    /// (simulates a torn write ending mid-frame).
    pub fn crash_at(&mut self, len: usize) {
        self.drop_open();
        self.buf.truncate(len.min(self.buf.len()));
        self.durable_len = self.buf.len();
    }

    /// Test hook: flip one bit of the log in place (media corruption).
    pub fn flip_bit(&mut self, offset: usize, bit: u8) {
        self.buf[offset] ^= 1 << (bit % 8);
    }

    /// Byte offsets of every frame boundary in the current log, including
    /// 0 and the final length — the crash points the recovery test sweeps.
    pub fn frame_boundaries(&self) -> Vec<usize> {
        let bytes = self.bytes();
        let mut out = vec![0];
        let mut pos = 0usize;
        while let Some(len) = bytes.get(pos..pos + 8).and_then(le_u32) {
            let end = pos + 8 + len as usize;
            if end > bytes.len() {
                break;
            }
            out.push(end);
            pos = end;
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::codec::*;
    use super::*;

    fn encode_op(out: &mut Vec<u8>, op: &WalOp) {
        match op {
            WalOp::PutIntent { key, value, txn } => {
                put_intent_op(out, key, value, txn, txn.write_ts)
            }
            WalOp::CommitIntent {
                key,
                txn_id,
                commit_ts,
            } => commit_intent_op(out, key, *txn_id, *commit_ts),
            WalOp::AbortIntent { key, txn_id } => abort_intent_op(out, key, *txn_id),
            WalOp::TxnRecord { txn_id, rec } => txn_record_op(out, *txn_id, rec),
        }
    }

    /// Record-level encoder, the inverse of [`codec::decode_record`]: what
    /// the write path, which streams the same bytes piece by piece, is
    /// checked against.
    pub(crate) fn encode_record(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        match rec {
            WalRecord::Checkpoint(image) => put_checkpoint(&mut out, image),
            WalRecord::Entry {
                apply_index,
                closed_ts,
                ops,
            } => {
                put_entry_header(&mut out, *apply_index, *closed_ts, ops.len() as u32);
                for op in ops {
                    encode_op(&mut out, op);
                }
            }
        }
        out
    }

    fn append(wal: &mut Wal, rec: &WalRecord) {
        wal.append(|out| out.extend_from_slice(&encode_record(rec)));
    }

    fn entry(i: u64, key: &str) -> WalRecord {
        WalRecord::Entry {
            apply_index: i,
            closed_ts: Timestamp::new(i * 10, 1),
            ops: vec![WalOp::CommitIntent {
                key: Key::from(key),
                txn_id: TxnId(i),
                commit_ts: Timestamp::new(i * 10, 2),
            }],
        }
    }

    /// The bitwise definition the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut random = |len: usize| -> Vec<u8> {
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            };
            (0..len).map(|_| next()).collect()
        };
        // Every length that ends before, on and after an eight-byte step,
        // from every alignment of the slice's start.
        let buf = random(8 + 64);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "offset {offset} len {len}"
                );
            }
        }
        let big = random(1 << 20);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
        assert_eq!(crc32(&big[3..]), crc32_bitwise(&big[3..]));
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let mut meta = TxnMeta::new(TxnId(7), Key::from("a"), Timestamp::new(5, 3));
        meta.epoch = 2;
        let mut future = Timestamp::new(99, 0);
        future.synthetic = true;
        let ops = vec![
            WalOp::PutIntent {
                key: Key::from("k1"),
                value: Some(Value::from("v1")),
                txn: meta.clone(),
            },
            WalOp::PutIntent {
                key: Key::from("k2"),
                value: None,
                txn: meta,
            },
            WalOp::CommitIntent {
                key: Key::from("k1"),
                txn_id: TxnId(7),
                commit_ts: future,
            },
            WalOp::AbortIntent {
                key: Key::from("k2"),
                txn_id: TxnId(7),
            },
            WalOp::TxnRecord {
                txn_id: TxnId(7),
                rec: TxnRecord {
                    status: TxnStatus::Staging,
                    commit_ts: Timestamp::new(8, 0),
                    in_flight: vec![Key::from("k1"), Key::from("k2")],
                },
            },
        ];
        let rec = WalRecord::Entry {
            apply_index: 42,
            closed_ts: Timestamp::new(40, 0),
            ops,
        };
        let bytes = encode_record(&rec);
        let back = codec::decode_record(&bytes).unwrap();
        assert_eq!(back, rec);
        // The synthetic flag must survive (it is excluded from Timestamp
        // equality, so check it explicitly).
        if let WalRecord::Entry { ops, .. } = &back {
            if let WalOp::CommitIntent { commit_ts, .. } = &ops[2] {
                assert!(commit_ts.synthetic);
            } else {
                panic!("op order changed");
            }
        }
    }

    #[test]
    fn replay_stops_at_crc_mismatch() {
        let mut wal = Wal::new();
        for i in 1..=3 {
            append(&mut wal, &entry(i, "k"));
        }
        wal.sync(100);
        // Flip a payload byte of the last record.
        let boundaries = wal.frame_boundaries();
        let corrupt_at = boundaries[boundaries.len() - 2] + 10;
        wal.buf[corrupt_at] ^= 0xff;
        let out = replay(wal.bytes());
        assert!(out.torn_tail);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.valid_len, boundaries[boundaries.len() - 2]);
    }

    #[test]
    fn crash_discards_unsynced_tail() {
        let mut wal = Wal::new();
        append(&mut wal, &entry(1, "a"));
        wal.sync(50);
        append(&mut wal, &entry(2, "b"));
        // No sync: record 2 is volatile.
        wal.crash();
        let out = replay(wal.bytes());
        assert!(!out.torn_tail);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0], entry(1, "a"));
        assert_eq!(wal.syncs, 1);
        assert_eq!(wal.last_sync_nanos, 50);
    }

    #[test]
    fn torn_mid_frame_truncates_cleanly() {
        let mut wal = Wal::new();
        append(&mut wal, &entry(1, "a"));
        append(&mut wal, &entry(2, "b"));
        let cut = wal.frame_boundaries()[1] + 5; // mid-second-frame
        wal.crash_at(cut);
        let out = replay(wal.bytes());
        assert!(out.torn_tail);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.valid_len, wal.frame_boundaries()[1]);
    }

    #[test]
    fn reset_to_checkpoint_restarts_log() {
        let mut wal = Wal::new();
        append(&mut wal, &entry(1, "a"));
        wal.sync(10);
        wal.reset_to_checkpoint(&[1, 2, 3], 20);
        let out = replay(wal.bytes());
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0], WalRecord::Checkpoint(vec![1, 2, 3]));
        assert_eq!(wal.durable_len(), wal.len());
    }
}
