//! # htm-sim — a software-simulated best-effort hardware transactional memory
//!
//! This crate is the hardware substrate for the reproduction of
//! *“Speculative Read Write Locks”* (Issa, Romano, Lopes — Middleware ’18).
//! The paper evaluates SpRWL on Intel Broadwell (TSX/RTM) and IBM POWER8
//! HTM; neither is available here, so the substrate is simulated in
//! software with the semantics the paper’s algorithms rely on:
//!
//! * **Write buffering** — stores issued inside a transaction are invisible
//!   to every other thread until the transaction commits, and become visible
//!   to transactional *and* non-transactional code on commit.
//! * **Eager conflict detection with strong isolation** — a
//!   *non-transactional* store to a cache line inside a transaction’s
//!   read- or write-set immediately dooms that transaction (the
//!   “requester wins” policy of real coherence-based HTMs). This is the
//!   property that makes SpRWL’s uninstrumented readers safe.
//! * **Best-effort capacity limits** — read- and write-sets are tracked at
//!   cache-line granularity and bounded by a configurable
//!   [`CapacityProfile`] ([`CapacityProfile::BROADWELL_SIM`] and
//!   [`CapacityProfile::POWER8_SIM`] mirror the asymmetric/symmetric limits
//!   of the two evaluation platforms).
//! * **Abort causes** — conflict, capacity (read/write), explicit
//!   (`xabort`-style, with an 8-bit-like user code), and injected
//!   “timer interrupt” aborts for failure testing.
//! * **POWER8 extras** — rollback-only transactions (no read-set) and
//!   suspend/resume, which the RW-LE *baseline* requires. SpRWL itself
//!   never uses them; that asymmetry is one of the paper’s points.
//!
//! Memory is modelled as a flat array of 64-bit cells ([`SimMemory`])
//! grouped into cache lines of [`CELLS_PER_LINE`] cells. All shared state
//! that must participate in conflict detection (application data, SpRWL’s
//! `state` array, the fallback lock, the SNZI root) lives in cells;
//! transactional code accesses them through [`Tx`], uninstrumented code
//! through [`Direct`], and both implement [`MemAccess`] so data structures
//! can be written once.
//!
//! ## Quick example
//!
//! ```
//! use htm_sim::{Htm, HtmConfig, TxKind};
//!
//! let htm = Htm::new(HtmConfig::default(), 1024);
//! let cell = htm.memory().alloc(1).cell(0);
//! let mut ctx = htm.thread(0);
//! let committed = ctx.txn(TxKind::Htm, |tx| {
//!     let v = tx.read(cell)?;
//!     tx.write(cell, v + 1)?;
//!     Ok(v + 1)
//! });
//! assert_eq!(committed.unwrap(), 1);
//! assert_eq!(htm.direct(0).load(cell), 1);
//! ```
//!
//! ## Fidelity caveats (deliberate, documented)
//!
//! Commit is not a single hardware-atomic event: the committing transaction
//! moves to a `Committing` state, flushes its write buffer, then becomes
//! `Committed`. Untracked accesses that hit a line owned by a `Committing`
//! transaction spin until the flush completes, so a single untracked read is
//! always atomic. A *sequence* of untracked reads may interleave with a
//! commit exactly as it may on real hardware. Torn multi-cell snapshots are
//! only observable by protocols that fail to prevent racing readers — which
//! is precisely the bug class the SpRWL test-suite hunts for.

// `deny`, not `forbid`, so that `huge_pages` can allow its `madvise` call.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod access;
pub mod clock;
pub mod config;
mod directory;
mod huge_pages;
pub mod memory;
pub mod registry;
pub mod sched;
mod slots;
pub mod stats;
pub mod tx;
mod util;

pub use access::{AccessMode, Direct, MemAccess, Suspended};
pub use config::{CapacityProfile, HtmConfig, SchedulerKind};
pub use memory::{CellId, LineId, Region, SimMemory, CELLS_PER_LINE};
pub use registry::SlotRegistry;
pub use sched::{
    DecisionRecord, DetScheduler, OsScheduler, SchedulePolicy, SchedulePolicyKind, Scheduler,
    YieldKind,
};
pub use stats::ThreadStats;
pub use tx::{Abort, ConflictInfo, Htm, ThreadCtx, Tx, TxKind, TxResult};
