//! # sprwl-repro — reproduction of “Speculative Read Write Locks”
//! (Issa, Romano, Lopes — Middleware ’18)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`htm`] (`htm-sim`) | the simulated best-effort HTM substrate |
//! | [`snzi`] | the scalable non-zero indicator (Ellen et al.) |
//! | [`locks`] (`sprwl-locks`) | the `RwSync` interface, SGL machinery and the paper's four baselines (RWL, BRLock, TLE, RW-LE) |
//! | [`sprwl`] | the paper's contribution: SpRWL and its variants |
//! | [`workloads`] | the hashmap micro-benchmark and the TPC-C port |
//! | [`mod@bench`] | the measurement pipeline: the paper's figures and the baselines as `BENCH_*.json` documents |
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use sprwl_repro::prelude::*;
//!
//! // A simulated-HTM runtime with 4 hardware threads.
//! let htm = Htm::new(HtmConfig { max_threads: 4, ..HtmConfig::default() }, 4096);
//! let lock = SpRwl::with_defaults(&htm);
//! let cell = htm.memory().alloc(1).cell(0);
//!
//! std::thread::scope(|s| {
//!     for tid in 0..4 {
//!         let (htm, lock) = (&htm, &lock);
//!         s.spawn(move || {
//!             let mut t = LockThread::new(htm.thread(tid));
//!             for _ in 0..100 {
//!                 lock.write_section(&mut t, SectionId(0), &mut |a| {
//!                     let v = a.read(cell)?;
//!                     a.write(cell, v + 1)?;
//!                     Ok(v)
//!                 });
//!             }
//!         });
//!     }
//! });
//! assert_eq!(htm.direct(0).load(cell), 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use htm_sim as htm;
pub use snzi;
pub use sprwl;
pub use sprwl_bench as bench;
pub use sprwl_locks as locks;
pub use sprwl_workloads as workloads;

/// The common imports for applications and examples.
pub mod prelude {
    pub use htm_sim::{
        clock, Abort, AccessMode, CapacityProfile, CellId, Direct, Htm, HtmConfig, MemAccess,
        Region, SimMemory, TxKind, TxResult,
    };
    pub use snzi::Snzi;
    pub use sprwl::{ReaderHtm, ReaderTracking, Scheduling, SpRwl, SprwlConfig};
    pub use sprwl_locks::{
        AbortCause, BrLock, CommitMode, GlobalLock, LockThread, PthreadRwLock, RetryPolicy, Role,
        RwLe, RwSync, SectionId, SessionStats, Tle,
    };
    pub use sprwl_workloads::{HashmapSpec, Mix, SimHashMap, SortedList};
}
