//! # atlas-log
//!
//! The durability layer of the networked runtime: a **segmented write-ahead
//! log** ([`Wal`]) plus an atomic **snapshot store** ([`SnapshotStore`]).
//! Together they give a replica everything it needs to survive a crash and
//! restart under the same identifier:
//!
//! * every protocol-relevant input (client submission, peer message) is
//!   appended to the WAL *before* the protocol processes it, so a restarted
//!   replica can replay its inputs and deterministically reconstruct the
//!   state its peers observed;
//! * periodically the replica serializes its full state into a snapshot and
//!   truncates the log prefix the snapshot covers, bounding replay time and
//!   disk usage.
//!
//! This crate is deliberately **payload-agnostic**: records are opaque byte
//! strings, and `atlas-runtime` defines what goes inside them (see its
//! `journal` module). Following Blanchard et al. (self-stabilizing Paxos) and
//! Whittaker et al. (compartmentalization), recovery machinery is engineered
//! as its own component instead of being woven through the protocol hot path.
//!
//! ## On-disk layout
//!
//! ```text
//! <data-dir>/
//!   wal/wal-<first-index>.seg     append-only record segments
//!   snap-<next-index>.bin         snapshots (highest index wins)
//! ```
//!
//! Each WAL record is framed as
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//!
//! Records are **staged** into one buffer ([`Wal::stage_with`] frames them
//! in place) and written together: one [`Wal::flush`] is one `write(2)`,
//! however many records it carries. On replay, a **torn final record**
//! (fewer bytes on disk than the header promises — the signature of a crash
//! mid-write; the complete records of the same flush before it survive) is
//! discarded and the file truncated back to the last complete record; a
//! **CRC mismatch on a complete record** means silent corruption and fails
//! loudly instead of being papered over.
//!
//! ## Flush policy
//!
//! [`FlushPolicy`] controls fsync batching ([`Wal::sync_if`], after a
//! flush): `Always` fsyncs every flush (maximum durability, slowest),
//! `EveryN(n)` amortizes one fsync over `n` records, and `OsBuffered` never
//! fsyncs explicitly — data survives process crashes (the OS holds the
//! pages) but not host power loss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod snapshot;
mod temp;
mod wal;

pub use snapshot::SnapshotStore;
pub use temp::TempDir;
pub use wal::{FlushPolicy, Record, Wal};
