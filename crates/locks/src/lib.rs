//! # sprwl-locks — read-write-lock baselines and lock-elision machinery
//!
//! The four schemes the SpRWL paper compares against, implemented from
//! scratch over the [`htm_sim`] substrate:
//!
//! * **Pessimistic RWLocks** — [`PthreadRwLock`] (mutex + condvar counters,
//!   like glibc; the paper's `RWL`) and [`BrLock`] (per-thread "big reader"
//!   locks, once used in the Linux kernel).
//! * **HTM lock elision** — [`Tle`] (plain transactional lock elision of a
//!   single global lock) and [`RwLe`] (hardware read-write lock elision,
//!   the POWER8-only baseline that runs readers uninstrumented and writers
//!   as HTM/rollback-only transactions with a quiescence wait).
//! * The shared [`RwSync`] interface, the single-global-lock fallback
//!   ([`GlobalLock`], [`VersionedLock`]), retry policies, and the
//!   commit/abort/latency bookkeeping every implementation reports
//!   ([`SessionStats`]).
//!
//! SpRWL itself lives in the `sprwl` crate and implements the same
//! [`RwSync`] trait, so benchmarks and applications can swap
//! implementations freely.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod api;
pub mod brlock;
pub mod policy;
pub mod pthread_rw;
pub mod rwle;
pub mod sgl;
pub mod spin;
pub mod stats;
pub mod tle;

pub use api::{LockThread, RwSync, SectionBody, SectionId};
pub use brlock::BrLock;
pub use policy::RetryPolicy;
pub use pthread_rw::PthreadRwLock;
pub use rwle::RwLe;
pub use sgl::{GlobalLock, VersionedLock, ABORT_LOCKED, ABORT_READER};
pub use spin::SpinMutex;
pub use stats::{
    AbortCause, CommitMode, ConflictLine, ConflictTable, LatencyRecorder, Reservoir, Role,
    SessionStats,
};
pub use tle::Tle;
