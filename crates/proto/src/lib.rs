//! Shared protocol types for the multi-region KV stack.
//!
//! This crate is the vocabulary spoken between the transaction coordinator,
//! range replicas, and the SQL executor: keys and spans, transaction
//! metadata, request/response payloads, and the error taxonomy that drives
//! retries, redirects, refreshes, and restarts.

pub mod error;
pub mod keys;
pub mod request;
pub mod txn;

pub use error::KvError;
pub use keys::{Key, Span, Value};
pub use request::{ReadCtx, Request, Response, RoutingPolicy};
pub use txn::{TxnId, TxnMeta, TxnRecord, TxnStatus};

use std::fmt;

/// Identifier of a Range (a contiguous shard of the keyspace).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeId(pub u64);

impl fmt::Debug for RangeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rng{}", self.0)
    }
}
impl fmt::Display for RangeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
