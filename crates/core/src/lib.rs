//! # sprwl — Speculative Read-Write Locks
//!
//! A from-scratch Rust reproduction of **SpRWL** (Issa, Romano, Lopes:
//! *“Speculative Read Write Locks”*, Middleware ’18): an HTM-based
//! read-write lock whose **readers run uninstrumented** — outside any
//! hardware transaction — and are therefore immune to HTM capacity limits
//! and interrupt-induced aborts, while writers execute speculatively and
//! commit only in the absence of active readers.
//!
//! ## How it works (paper §3)
//!
//! * **Base algorithm** — readers announce themselves in a per-thread
//!   `state` array (one cache line each) with a fence; writers, running as
//!   hardware transactions, scan that array *at commit time* and abort if
//!   any reader is active. Strong isolation closes the race: a reader's
//!   announcement store dooms any writer that already scanned.
//! * **Reader synchronization** — readers defer to active writers
//!   (fairness: a newly arrived reader can never abort an already-running
//!   writer) and join already-waiting readers to align their start times.
//! * **Writer synchronization** — a writer aborted by readers delays its
//!   retry so its re-execution finishes `δ` after the last reader's
//!   predicted end, maximizing overlap while still committing cleanly.
//! * **Optimizations (§3.4)** — readers optimistically try HTM first;
//!   SNZI-based reader tracking (one line in the writer's read-set instead
//!   of one per thread); and the §3.3 versioned-SGL anti-starvation
//!   extension the authors describe but omit.
//!
//! The lock implements [`sprwl_locks::RwSync`], the same interface as every
//! baseline in `sprwl-locks`, so it is a drop-in replacement.
//!
//! ## Example
//!
//! ```
//! use htm_sim::{Htm, HtmConfig};
//! use sprwl::SpRwl;
//! use sprwl_locks::{LockThread, RwSync, SectionId};
//!
//! let htm = Htm::new(HtmConfig::default(), 4096);
//! let lock = SpRwl::with_defaults(&htm);
//! let cell = htm.memory().alloc(1).cell(0);
//!
//! let mut t = LockThread::new(htm.thread(0));
//! lock.write_section(&mut t, SectionId(0), &mut |a| {
//!     let v = a.read(cell)?;
//!     a.write(cell, v + 1)?;
//!     Ok(v + 1)
//! });
//! let seen = lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell));
//! assert_eq!(seen, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod admission;
mod composed;
pub mod config;
pub mod estimator;
mod lock;
mod reader;
pub mod reader_table;
mod stretch;
mod writer;

pub use composed::{InnerMode, SpRwlPair};
pub use config::{ReaderTracking, Scheduling, SprwlConfig};
pub use estimator::DurationEstimator;
pub use lock::SpRwl;
