//! The unified memory-access abstraction.
//!
//! Workload code (hashmap, TPC-C) is written once against [`MemAccess`] and
//! then executed either inside a hardware transaction ([`crate::Tx`]) or
//! uninstrumented ([`Direct`]) — exactly the duality SpRWL exploits: the
//! same read-only critical section body runs speculatively for writers and
//! uninstrumented for readers.

use crate::directory::UntrackedKind;
use crate::memory::{CellId, LineId};
use crate::sched::YieldKind;
use crate::tx::{Htm, Tx, TxResult};
use crate::util::{IdMap, IdSet};

/// How an accessor touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Inside a plain hardware transaction.
    Transactional,
    /// Inside a rollback-only transaction (writes tracked, reads not).
    RotTransactional,
    /// Non-transactional, uninstrumented access with strong-isolation
    /// side effects.
    Untracked,
}

/// A uniform interface over transactional and untracked memory access.
///
/// All methods are fallible so transactional implementations can signal
/// aborts; untracked implementations never fail, but sharing the signature
/// lets data-structure code be written once with `?`.
pub trait MemAccess {
    /// Reads a cell.
    ///
    /// # Errors
    ///
    /// Transactional implementations return [`crate::Abort`] on conflicts,
    /// capacity overflow, explicit aborts or injected interrupts.
    fn read(&mut self, cell: CellId) -> TxResult<u64>;

    /// Writes a cell.
    ///
    /// # Errors
    ///
    /// As for [`MemAccess::read`].
    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()>;

    /// The mode this accessor runs in (lets workloads record footprints or
    /// assert expectations in tests).
    fn mode(&self) -> AccessMode;
}

impl MemAccess for Tx<'_> {
    fn read(&mut self, cell: CellId) -> TxResult<u64> {
        Tx::read(self, cell)
    }

    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        Tx::write(self, cell, val)
    }

    fn mode(&self) -> AccessMode {
        match self.kind() {
            crate::TxKind::Htm => AccessMode::Transactional,
            crate::TxKind::Rot => AccessMode::RotTransactional,
        }
    }
}

/// Untracked (non-transactional) memory accessor for one thread.
///
/// Every store dooms transactions holding the target line (strong
/// isolation); every load waits out in-flight commit flushes and, if
/// configured, dooms speculative writers of the line. Obtain via
/// [`Htm::direct`] or [`crate::ThreadCtx::direct`].
#[derive(Debug, Clone, Copy)]
pub struct Direct<'h> {
    htm: &'h Htm,
    tid: u32,
}

impl<'h> Direct<'h> {
    pub(crate) fn new(htm: &'h Htm, tid: u32) -> Self {
        Self { htm, tid }
    }

    /// The thread id this accessor is bound to.
    pub fn tid(&self) -> usize {
        self.tid as usize
    }

    /// The owning runtime.
    pub fn htm(&self) -> &'h Htm {
        self.htm
    }

    /// Non-transactional load with full coherence semantics.
    pub fn load(&self, cell: CellId) -> u64 {
        self.htm.yield_point(self.tid, YieldKind::Access);
        let line = self.htm.mem_ref().line_of(cell);
        self.htm.dir_ref().untracked_op(
            line,
            UntrackedKind::Read,
            self.htm.config().reads_doom_writers,
            self.tid,
            self.htm.table_ref(),
            || self.htm.mem_ref().raw_load(cell),
        )
    }

    /// Non-transactional store; dooms every transaction holding the line
    /// (the strong-isolation property SpRWL's readers rely on).
    pub fn store(&self, cell: CellId, val: u64) {
        self.htm.yield_point(self.tid, YieldKind::Access);
        let line = self.htm.mem_ref().line_of(cell);
        self.htm.dir_ref().untracked_op(
            line,
            UntrackedKind::Write,
            true,
            self.tid,
            self.htm.table_ref(),
            || self.htm.mem_ref().raw_store(cell, val),
        );
    }

    /// Non-transactional compare-and-swap. Returns the previous value as
    /// `Ok` on success, `Err` on mismatch (like
    /// [`std::sync::atomic::AtomicU64::compare_exchange`]).
    pub fn compare_exchange(&self, cell: CellId, current: u64, new: u64) -> Result<u64, u64> {
        self.htm.yield_point(self.tid, YieldKind::Access);
        let line = self.htm.mem_ref().line_of(cell);
        self.htm.dir_ref().untracked_op(
            line,
            UntrackedKind::Write,
            true,
            self.tid,
            self.htm.table_ref(),
            || self.htm.mem_ref().raw_cas(cell, current, new),
        )
    }

    /// Non-transactional fetch-and-add; returns the previous value.
    pub fn fetch_add(&self, cell: CellId, delta: u64) -> u64 {
        self.htm.yield_point(self.tid, YieldKind::Access);
        let line = self.htm.mem_ref().line_of(cell);
        self.htm.dir_ref().untracked_op(
            line,
            UntrackedKind::Write,
            true,
            self.tid,
            self.htm.table_ref(),
            || loop {
                let cur = self.htm.mem_ref().raw_load(cell);
                if self
                    .htm
                    .mem_ref()
                    .raw_cas(cell, cur, cur.wrapping_add(delta))
                    .is_ok()
                {
                    return cur;
                }
            },
        )
    }
}

/// Accessor handed to [`crate::Tx::suspend`] closures: non-transactional
/// access with POWER8 suspended-mode semantics.
///
/// Loads of lines the suspended transaction itself wrote return the
/// buffered (speculative) values, matching POWER8's L1-resident speculative
/// state. Stores behave like any untracked store — including dooming the
/// suspended transaction itself if they touch its footprint, which is how
/// the hardware reacts to self-conflicting suspended stores.
#[derive(Debug)]
pub struct Suspended<'a> {
    pub(crate) htm: &'a Htm,
    pub(crate) me: crate::slots::Owner,
    pub(crate) write_lines: &'a IdSet<LineId>,
    pub(crate) write_buf: &'a IdMap<u32, u64>,
}

impl Suspended<'_> {
    /// Suspended-mode load; sees the suspended transaction's own buffered
    /// stores.
    pub fn load(&self, cell: CellId) -> u64 {
        self.htm.yield_point(self.me.tid, YieldKind::Access);
        let line = self.htm.mem_ref().line_of(cell);
        if self.write_lines.contains(&line) {
            // Own speculatively-written line: serve from the write buffer
            // (or the pre-transaction value for untouched cells on it).
            return match self.write_buf.get(&cell.0) {
                Some(&v) => v,
                None => self.htm.mem_ref().raw_load(cell),
            };
        }
        self.htm.dir_ref().untracked_op(
            line,
            UntrackedKind::Read,
            self.htm.config().reads_doom_writers,
            self.me.tid,
            self.htm.table_ref(),
            || self.htm.mem_ref().raw_load(cell),
        )
    }

    /// Suspended-mode store; dooms every transaction holding the line —
    /// including the suspended transaction itself if the line is in its
    /// own footprint.
    pub fn store(&self, cell: CellId, val: u64) {
        self.htm.yield_point(self.me.tid, YieldKind::Access);
        let line = self.htm.mem_ref().line_of(cell);
        self.htm.dir_ref().untracked_op(
            line,
            UntrackedKind::Write,
            true,
            self.me.tid,
            self.htm.table_ref(),
            || self.htm.mem_ref().raw_store(cell, val),
        );
    }

    /// The thread id of the suspended transaction's owner.
    pub fn tid(&self) -> usize {
        self.me.tid as usize
    }

    /// The owning runtime.
    pub fn htm(&self) -> &Htm {
        self.htm
    }
}

impl MemAccess for Suspended<'_> {
    fn read(&mut self, cell: CellId) -> TxResult<u64> {
        Ok(Suspended::load(self, cell))
    }

    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        Suspended::store(self, cell, val);
        Ok(())
    }

    fn mode(&self) -> AccessMode {
        AccessMode::Untracked
    }
}

impl MemAccess for Direct<'_> {
    fn read(&mut self, cell: CellId) -> TxResult<u64> {
        Ok(self.load(cell))
    }

    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        self.store(cell, val);
        Ok(())
    }

    fn mode(&self) -> AccessMode {
        AccessMode::Untracked
    }
}
