//! MVCC storage engine.
//!
//! Each range replica applies committed Raft commands to an [`Engine`]: a
//! multi-version key-value map with write intents, kept in a memtable over
//! immutable sorted runs and made durable by a WAL. [`Engine`] is the one
//! MVCC API; it implements the read/write rules the paper's transaction
//! machinery relies on:
//!
//! * reads at a timestamp observe the latest committed version at or below
//!   that timestamp, report conflicting intents, and detect committed values
//!   inside the reader's *uncertainty interval* (§6.1);
//! * writes lay down provisional *intents* that act as exclusive locks until
//!   the transaction resolves them (commit promotes the intent to a
//!   committed version, possibly at a higher timestamp; abort discards it);
//! * refreshes validate that a span saw no new commits in a timestamp
//!   window, allowing transactions to ratchet their timestamp forward
//!   without restarting (§5.1.1, §6.2).
//!
//! The [`TsCache`] tracks the maximum timestamp at which each key has been
//! read, so leaseholders can forward writes above prior reads and preserve
//! serializability.

pub mod gc;
pub mod lsm;
pub mod mvcc;
pub mod tscache;
pub mod wal;

pub use gc::{gc_threshold, ProtectedTimestamps};
pub use lsm::{Engine, EngineStats, MaintainReport, RecoveryError, RecoveryInfo, SortedRun};
pub use mvcc::{Intent, MvccError, PutOutcome, ReadOutcome, Version, VersionChain};
pub use tscache::TsCache;
pub use wal::{Wal, WalOp, WalRecord};
