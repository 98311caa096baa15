//! Per-range load telemetry: exponentially-decayed rates over sim-time.
//!
//! The hot-range detector (and, next, the load-based allocator) needs
//! *recent* load, not lifetime totals: a range that served a burst an hour
//! ago must cool off. Each range tracks its read QPS, write QPS, write
//! bytes, and request latency as **decayed counters** with a configurable
//! half-life: a sample recorded `h` half-lives ago contributes `2^-h` of
//! its original weight, so the decayed sum divided by the mean lifetime of
//! a sample (`half_life / ln 2`) estimates the instantaneous rate.
//!
//! Determinism rules (same-seed runs must export identical bytes):
//!
//! * time comes from the simulator only, never wall clock;
//! * samples recorded at the *same sim-instant* accumulate in an integer
//!   `pending` bucket and only fold into the float accumulator when time
//!   advances — so same-tick recording order cannot perturb the result
//!   (integer addition is exact and commutative; float addition is not
//!   associative);
//! * exports round to integers (milli-QPS, bytes/sec, nanoseconds).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::export::JsonWriter;
use bytes::Bytes;
use mr_sim::{SimDuration, SimTime};

/// ln(2): converts a decayed sum into a rate (see [`DecayedCounter::rate`]).
const LN_2: f64 = std::f64::consts::LN_2;

/// A counter whose weight decays exponentially with sim-time.
///
/// `decayed_sum(now)` is `Σ nᵢ · 2^-((now - tᵢ) / half_life)` over every
/// recorded sample `(tᵢ, nᵢ)`, computed incrementally in O(1) per record.
#[derive(Clone, Debug)]
pub struct DecayedCounter {
    half_life: SimDuration,
    /// Decayed sum as of `as_of`, excluding `pending`.
    value: f64,
    /// Samples recorded at exactly `as_of`, not yet folded into `value`
    /// (kept integer so same-tick order cannot change the result).
    pending: u64,
    as_of: SimTime,
}

impl DecayedCounter {
    pub fn new(half_life: SimDuration) -> DecayedCounter {
        assert!(half_life > SimDuration::ZERO, "half-life must be positive");
        DecayedCounter {
            half_life,
            value: 0.0,
            pending: 0,
            as_of: SimTime(0),
        }
    }

    fn decay_factor(&self, from: SimTime, to: SimTime) -> f64 {
        debug_assert!(to >= from);
        let dt = (to.0 - from.0) as f64;
        (-(dt / self.half_life.nanos() as f64)).exp2()
    }

    /// Fold pending samples and decay the accumulator up to `now`.
    fn settle(&mut self, now: SimTime) {
        if now <= self.as_of {
            return;
        }
        self.value = (self.value + self.pending as f64) * self.decay_factor(self.as_of, now);
        self.pending = 0;
        self.as_of = now;
    }

    /// Record `n` units at `now`. Sim-time never goes backwards; a sample
    /// stamped earlier than the last one is clamped to it.
    pub fn add(&mut self, now: SimTime, n: u64) {
        self.settle(now);
        self.pending += n;
    }

    /// The decayed sum at `now` (read-only; does not fold).
    pub fn decayed_sum(&self, now: SimTime) -> f64 {
        let now = now.max(self.as_of);
        (self.value + self.pending as f64) * self.decay_factor(self.as_of, now)
    }

    /// Estimated rate in units/second at `now`.
    ///
    /// A steady stream of `r` units/sec sustained for many half-lives
    /// converges to a decayed sum of `r · half_life / ln 2`, so dividing by
    /// that mean sample lifetime recovers `r`.
    pub fn rate(&self, now: SimTime) -> f64 {
        let hl_secs = self.half_life.nanos() as f64 / 1e9;
        self.decayed_sum(now) * LN_2 / hl_secs
    }

    /// Rate in milli-units/second, rounded to an integer for exports.
    pub fn rate_milli(&self, now: SimTime) -> u64 {
        (self.rate(now) * 1000.0).round() as u64
    }
}

/// Cap on per-range sampled request keys kept for split-point estimation.
/// A bounded ring of the most recent keys is enough: the split trigger only
/// needs a load-weighted median, not a full histogram.
pub const KEY_SAMPLE_CAP: usize = 64;

/// Load state of one range.
#[derive(Clone, Debug)]
struct RangeLoad {
    reads: DecayedCounter,
    writes: DecayedCounter,
    write_bytes: DecayedCounter,
    /// Decayed latency mass (nanoseconds) and sample count; their ratio is
    /// a decayed mean request latency.
    latency_nanos: DecayedCounter,
    latency_count: DecayedCounter,
    /// Ring of recently-requested keys (raw bytes, shared with the request
    /// that carried them), newest last. Feeds
    /// [`LoadRecorder::split_key_suggestion`].
    key_samples: std::collections::VecDeque<Bytes>,
    /// Decayed request rate per gateway region, indexed by region (a
    /// region that sent nothing has no counter). Feeds
    /// [`LoadRecorder::dominant_region`] (lease rebalancing).
    gateway: Vec<Option<DecayedCounter>>,
}

impl RangeLoad {
    fn new(half_life: SimDuration) -> RangeLoad {
        RangeLoad {
            reads: DecayedCounter::new(half_life),
            writes: DecayedCounter::new(half_life),
            write_bytes: DecayedCounter::new(half_life),
            latency_nanos: DecayedCounter::new(half_life),
            latency_count: DecayedCounter::new(half_life),
            key_samples: std::collections::VecDeque::new(),
            gateway: Vec::new(),
        }
    }
}

/// Point-in-time load of one range, integer-valued for exports. Sorted
/// hottest-first by [`LoadRecorder::hot_ranges`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeLoadSnapshot {
    pub range: u64,
    /// Total decayed QPS (reads + writes), in milli-queries/sec.
    pub qps_milli: u64,
    pub read_qps_milli: u64,
    pub write_qps_milli: u64,
    /// Decayed write throughput in bytes/sec.
    pub write_bytes_per_sec: u64,
    /// Decayed mean request latency in nanoseconds (0 when no samples).
    pub mean_latency_nanos: u64,
}

impl RangeLoadSnapshot {
    /// The snapshot's members, into an object the caller has open.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field("range", self.range);
        w.field("qps_milli", self.qps_milli);
        w.field("read_qps_milli", self.read_qps_milli);
        w.field("write_qps_milli", self.write_qps_milli);
        w.field("write_bytes_per_sec", self.write_bytes_per_sec);
        w.field("mean_latency_nanos", self.mean_latency_nanos);
    }
}

#[derive(Debug)]
struct LoadInner {
    half_life: SimDuration,
    ranges: BTreeMap<u64, RangeLoad>,
}

/// Per-range load recorder. Cloning shares the underlying store (the
/// cluster records, the SQL layer and benches query).
#[derive(Clone, Debug)]
pub struct LoadRecorder {
    inner: Rc<RefCell<LoadInner>>,
}

/// Default decay half-life: long enough that a scrape-interval of samples
/// doesn't thrash the ranking, short enough that a range cools within a
/// minute of a burst ending.
pub const DEFAULT_HALF_LIFE: SimDuration = SimDuration::from_secs(10);

impl Default for LoadRecorder {
    fn default() -> Self {
        LoadRecorder::new(DEFAULT_HALF_LIFE)
    }
}

impl LoadRecorder {
    pub fn new(half_life: SimDuration) -> LoadRecorder {
        LoadRecorder {
            inner: Rc::new(RefCell::new(LoadInner {
                half_life,
                ranges: BTreeMap::new(),
            })),
        }
    }

    pub fn half_life(&self) -> SimDuration {
        self.inner.borrow().half_life
    }

    fn with_range<R>(&self, range: u64, f: impl FnOnce(&mut RangeLoad) -> R) -> R {
        let mut inner = self.inner.borrow_mut();
        let hl = inner.half_life;
        f(inner
            .ranges
            .entry(range)
            .or_insert_with(|| RangeLoad::new(hl)))
    }

    /// One read request evaluated on `range` at `now`.
    pub fn record_read(&self, now: SimTime, range: u64) {
        self.with_range(range, |r| r.reads.add(now, 1));
    }

    /// One write request carrying `bytes` of payload evaluated on `range`.
    pub fn record_write(&self, now: SimTime, range: u64, bytes: u64) {
        self.with_range(range, |r| {
            r.writes.add(now, 1);
            r.write_bytes.add(now, bytes);
        });
    }

    /// One request against `range` completed with this gateway-observed
    /// round-trip latency.
    pub fn record_latency(&self, now: SimTime, range: u64, nanos: u64) {
        self.with_range(range, |r| {
            r.latency_nanos.add(now, nanos);
            r.latency_count.add(now, 1);
        });
    }

    /// One request against `range`, addressed at `key`, sent through a
    /// gateway in `region`: the gateway region's demand (lease rebalancing)
    /// and the key, kept in a bounded ring ([`KEY_SAMPLE_CAP`]) so the split
    /// trigger can estimate the load median without unbounded memory.
    pub fn record_request(&self, now: SimTime, range: u64, region: u32, key: Bytes) {
        self.with_range(range, |r| {
            let hl = r.reads.half_life;
            let at = region as usize;
            if r.gateway.len() <= at {
                r.gateway.resize(at + 1, None);
            }
            let counter = r.gateway[at].get_or_insert_with(|| DecayedCounter::new(hl));
            counter.add(now, 1);
            if r.key_samples.len() == KEY_SAMPLE_CAP {
                r.key_samples.pop_front();
            }
            r.key_samples.push_back(key);
        });
    }

    /// Suggested split key for `range`: the median of the *distinct* keys
    /// sampled recently, never the smallest one (so a valid suggestion is
    /// always strictly above the lowest sampled key — the caller still
    /// validates it against the range's actual span). `None` until at least
    /// two distinct keys have been sampled.
    pub fn split_key_suggestion(&self, range: u64) -> Option<Bytes> {
        let inner = self.inner.borrow();
        let r = inner.ranges.get(&range)?;
        let mut distinct: Vec<&Bytes> = r.key_samples.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() < 2 {
            return None;
        }
        Some(distinct[(distinct.len() / 2).max(1)].clone())
    }

    /// Decayed request rate per gateway region (milli-QPS), ascending by
    /// region index.
    pub fn region_qps_milli(&self, now: SimTime, range: u64) -> Vec<(u32, u64)> {
        let inner = self.inner.borrow();
        match inner.ranges.get(&range) {
            Some(r) => (r.gateway.iter().enumerate())
                .filter_map(|(reg, c)| Some((reg as u32, c.as_ref()?.rate_milli(now))))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The gateway region generating the most load on `range`, with its
    /// share of the total in milli (0..=1000). Ties break toward the lower
    /// region index; `None` when no gateway traffic has been recorded.
    pub fn dominant_region(&self, now: SimTime, range: u64) -> Option<(u32, u64)> {
        let rates = self.region_qps_milli(now, range);
        let total: u64 = rates.iter().map(|(_, q)| q).sum();
        if total == 0 {
            return None;
        }
        let (reg, best) = rates
            .iter()
            .copied()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        Some((reg, best * 1000 / total))
    }

    /// Forget a range (dropped / merged away / re-keyed by a split).
    pub fn forget_range(&self, range: u64) {
        self.inner.borrow_mut().ranges.remove(&range);
    }

    /// Number of ranges with recorded load.
    pub fn len(&self) -> usize {
        self.inner.borrow().ranges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decayed load of one range at `now`.
    pub fn snapshot_range(&self, now: SimTime, range: u64) -> Option<RangeLoadSnapshot> {
        let inner = self.inner.borrow();
        inner.ranges.get(&range).map(|r| snap(now, range, r))
    }

    /// Every range's decayed load at `now`, hottest (highest total QPS)
    /// first; ties break toward the lower range id so the ranking is total.
    pub fn hot_ranges(&self, now: SimTime) -> Vec<RangeLoadSnapshot> {
        let inner = self.inner.borrow();
        let mut out: Vec<RangeLoadSnapshot> = inner
            .ranges
            .iter()
            .map(|(&id, r)| snap(now, id, r))
            .collect();
        out.sort_by(|a, b| b.qps_milli.cmp(&a.qps_milli).then(a.range.cmp(&b.range)));
        out
    }

    /// Deterministic JSON export of the hottest `limit` ranges at `now`.
    pub fn export_json(&self, now: SimTime, limit: usize) -> String {
        let mut w = JsonWriter::default();
        w.arr();
        for (i, s) in self.hot_ranges(now).iter().take(limit).enumerate() {
            w.obj_inline().field("rank", i + 1);
            s.write_fields(&mut w);
            w.end();
        }
        w.end();
        w.finish()
    }
}

fn snap(now: SimTime, id: u64, r: &RangeLoad) -> RangeLoadSnapshot {
    let read = r.reads.rate_milli(now);
    let write = r.writes.rate_milli(now);
    let count = r.latency_count.decayed_sum(now);
    let mean_latency = if count > 0.0 {
        (r.latency_nanos.decayed_sum(now) / count).round() as u64
    } else {
        0
    };
    RangeLoadSnapshot {
        range: id,
        qps_milli: read + write,
        read_qps_milli: read,
        write_qps_milli: write,
        write_bytes_per_sec: r.write_bytes.rate(now).round() as u64,
        mean_latency_nanos: mean_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime(SimDuration::from_secs(s).nanos())
    }

    #[test]
    fn steady_rate_converges() {
        let mut c = DecayedCounter::new(SimDuration::from_secs(10));
        // 50 events/sec for 60 seconds (6 half-lives: <2% from steady state).
        for ms in (0..60_000).step_by(20) {
            c.add(SimTime(SimDuration::from_millis(ms).nanos()), 1);
        }
        let rate = c.rate(secs(60));
        assert!((rate - 50.0).abs() / 50.0 < 0.05, "rate {rate} != ~50");
    }

    #[test]
    fn idle_decay_halves_per_half_life() {
        let mut c = DecayedCounter::new(SimDuration::from_secs(10));
        c.add(secs(0), 1000);
        let s0 = c.decayed_sum(secs(0));
        let s1 = c.decayed_sum(secs(10));
        let s2 = c.decayed_sum(secs(20));
        assert!((s1 / s0 - 0.5).abs() < 1e-9);
        assert!((s2 / s1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn same_tick_order_independent() {
        let t = secs(5);
        let build = |ns: &[u64]| {
            let mut c = DecayedCounter::new(SimDuration::from_secs(10));
            c.add(secs(1), 7);
            for &n in ns {
                c.add(t, n);
            }
            c.decayed_sum(secs(9)).to_bits()
        };
        assert_eq!(build(&[1, 2, 3]), build(&[3, 2, 1]));
        assert_eq!(build(&[6]), build(&[1, 2, 3]));
    }

    #[test]
    fn hot_ranking_orders_by_qps_then_id() {
        let lr = LoadRecorder::new(SimDuration::from_secs(10));
        for _ in 0..10 {
            lr.record_read(secs(1), 7);
        }
        lr.record_write(secs(1), 3, 100);
        lr.record_write(secs(1), 9, 100);
        let hot = lr.hot_ranges(secs(1));
        assert_eq!(hot[0].range, 7);
        // Ranges 3 and 9 tie on QPS; the lower id ranks first.
        assert_eq!((hot[1].range, hot[2].range), (3, 9));
        assert!(hot[0].read_qps_milli > 0);
        assert!(hot[1].write_bytes_per_sec > 0);
        let json = lr.export_json(secs(1), 2);
        assert!(json.contains("\"rank\": 1, \"range\": 7"));
        assert!(!json.contains("\"range\": 9"));
    }

    #[test]
    fn split_suggestion_is_median_never_lowest() {
        let lr = LoadRecorder::new(SimDuration::from_secs(10));
        let sample =
            |k: &str| lr.record_request(secs(1), 1, 0, Bytes::copy_from_slice(k.as_bytes()));
        let suggestion = || lr.split_key_suggestion(1).map(|k| k.to_vec());
        assert!(suggestion().is_none());
        sample("a");
        sample("a");
        // One distinct key: no usable split point yet.
        assert!(suggestion().is_none());
        sample("b");
        assert_eq!(suggestion(), Some(b"b".to_vec()));
        for k in ["c", "d", "e"] {
            sample(k);
        }
        // Distinct sorted keys a..e: the median is c.
        assert_eq!(suggestion(), Some(b"c".to_vec()));
        // The ring is bounded: ancient samples eventually fall out.
        for i in 0..KEY_SAMPLE_CAP {
            sample(&format!("z{i:03}"));
        }
        assert!(suggestion().unwrap().starts_with(b"z"));
    }

    #[test]
    fn dominant_region_tracks_gateway_share() {
        let lr = LoadRecorder::new(SimDuration::from_secs(10));
        assert!(lr.dominant_region(secs(1), 1).is_none());
        for _ in 0..9 {
            lr.record_request(secs(1), 1, 2, Bytes::new());
        }
        lr.record_request(secs(1), 1, 0, Bytes::new());
        let (reg, share) = lr.dominant_region(secs(1), 1).unwrap();
        assert_eq!(reg, 2);
        assert_eq!(share, 900);
        let rates = lr.region_qps_milli(secs(1), 1);
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].0, 0);
        // Ties break toward the lower region index.
        let lr2 = LoadRecorder::new(SimDuration::from_secs(10));
        lr2.record_request(secs(1), 7, 1, Bytes::new());
        lr2.record_request(secs(1), 7, 3, Bytes::new());
        assert_eq!(lr2.dominant_region(secs(1), 7).unwrap().0, 1);
    }

    #[test]
    fn latency_mean_decays_toward_recent_samples() {
        let lr = LoadRecorder::new(SimDuration::from_secs(10));
        lr.record_latency(secs(0), 1, 1_000_000);
        // Much later, a faster sample dominates the decayed mean.
        lr.record_latency(secs(100), 1, 1_000);
        let s = lr.snapshot_range(secs(100), 1).unwrap();
        assert!(s.mean_latency_nanos < 3_000, "{}", s.mean_latency_nanos);
    }
}
