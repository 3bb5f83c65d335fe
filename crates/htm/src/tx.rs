//! The transaction engine: [`Htm`] runtime, per-thread contexts and the
//! [`Tx`] handle passed to transactional closures.

use std::sync::Arc;

use crate::access::{Direct, Suspended};
use crate::config::{CapacityProfile, HtmConfig, SchedulerKind};
use crate::directory::Directory;
use crate::memory::{CellId, LineId, SimMemory, CELLS_PER_LINE};
use crate::registry::SlotRegistry;
use crate::sched::{self, DetScheduler, OsScheduler, Scheduler, YieldKind};
use crate::slots::{
    Owner, TxTable, ST_ACTIVE, ST_COMMITTED, ST_COMMITTING, ST_DOOMED, ST_INACTIVE, ST_SUSPENDED,
};
use crate::stats::ThreadStats;
use crate::util::{IdMap, IdSet, XorShift64};

/// Why a transaction attempt failed.
///
/// Mirrors the abort classes of real best-effort HTMs. The lock layer maps
/// [`Abort::Explicit`] codes onto algorithm-level causes (e.g. SpRWL's
/// "writer found an active reader at commit").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Abort {
    /// Data conflict with a concurrent thread (transactional or untracked).
    Conflict,
    /// The read-set exceeded the capacity profile.
    CapacityRead,
    /// The write-set exceeded the capacity profile.
    CapacityWrite,
    /// The program requested an abort (`xabort`-style) with a user code.
    Explicit(u32),
    /// An injected timer interrupt / context switch hit the transaction.
    Interrupt,
}

impl Abort {
    /// Whether this abort is a capacity overflow (read or write side).
    /// Typical retry policies fall back to the lock immediately on capacity
    /// aborts because retrying cannot help.
    pub fn is_capacity(self) -> bool {
        matches!(self, Abort::CapacityRead | Abort::CapacityWrite)
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::Conflict => write!(f, "data conflict"),
            Abort::CapacityRead => write!(f, "read-set capacity exceeded"),
            Abort::CapacityWrite => write!(f, "write-set capacity exceeded"),
            Abort::Explicit(code) => write!(f, "explicit abort (code {code})"),
            Abort::Interrupt => write!(f, "interrupt"),
        }
    }
}

impl std::error::Error for Abort {}

/// Attribution of a conflict abort: which cache line the conflict was
/// detected on and which peer thread won it. Populated on a best-effort
/// basis — dooms race, so a [`Abort::Conflict`] can occasionally go
/// unattributed — and consumed via [`ThreadCtx::last_conflict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConflictInfo {
    /// The contended cache line.
    pub line: LineId,
    /// The peer thread id that doomed (or outlived) this transaction.
    pub peer: u32,
}

/// Result type threaded through transactional closures; `Err` aborts the
/// attempt.
pub type TxResult<T> = Result<T, Abort>;

/// Which flavour of hardware transaction to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// A plain best-effort hardware transaction (reads and writes tracked).
    Htm,
    /// A POWER8-style rollback-only transaction: writes are buffered and
    /// tracked, reads are *not* tracked (they behave like untracked reads).
    /// Only available on capacity profiles with
    /// [`CapacityProfile::supports_rot`].
    Rot,
}

/// The simulated HTM runtime: memory, conflict directory and transaction
/// table. One instance per experiment; share by reference (scoped threads)
/// or `Arc`.
#[derive(Debug)]
pub struct Htm {
    mem: SimMemory,
    dir: Directory,
    table: TxTable,
    cfg: HtmConfig,
    registry: SlotRegistry,
    /// The execution substrate: owns interleaving decisions and the clock
    /// (see [`crate::sched`]).
    sched: Arc<dyn Scheduler>,
    /// Whether a yield point can do anything. A free-running scheduler
    /// that does not shake returns from every yield at once, so
    /// [`Htm::yield_point`] skips the call.
    yields: bool,
}

impl Htm {
    /// Creates a runtime with `memory_cells` cells of simulated memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`HtmConfig::validate`]).
    pub fn new(cfg: HtmConfig, memory_cells: usize) -> Self {
        cfg.validate().expect("invalid HtmConfig");
        let registry = SlotRegistry::new(cfg.max_threads);
        let yields = cfg.scheduler != SchedulerKind::Os || cfg.sched_shake_prob > 0.0;
        let sched: Arc<dyn Scheduler> = match &cfg.scheduler {
            SchedulerKind::Os => Arc::new(OsScheduler::new(cfg.sched_shake_prob, cfg.seed)),
            SchedulerKind::Deterministic { policy } => {
                Arc::new(DetScheduler::with_policy(policy.build(), cfg.max_threads))
            }
        };
        Self {
            mem: SimMemory::new(memory_cells),
            dir: Directory::new(memory_cells.div_ceil(CELLS_PER_LINE as usize)),
            table: TxTable::new(cfg.max_threads),
            cfg,
            registry,
            sched,
            yields,
        }
    }

    /// A point where the interleaving may change: hands `tid`'s event to
    /// the scheduler, unless the scheduler would do nothing there.
    #[inline]
    pub(crate) fn yield_point(&self, tid: u32, kind: YieldKind) {
        if self.yields {
            self.sched.yield_point(tid, kind);
        }
    }

    /// The execution substrate this runtime schedules through.
    pub fn scheduler(&self) -> &Arc<dyn Scheduler> {
        &self.sched
    }

    /// The simulated memory (for allocation and `peek`).
    pub fn memory(&self) -> &SimMemory {
        &self.mem
    }

    /// The active configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Claims the per-thread context for hardware thread `tid`.
    ///
    /// Claiming registers the calling OS thread with the runtime's
    /// [`Scheduler`] and binds it thread-locally, so [`crate::clock`]
    /// reads and waits route through the scheduler until the context
    /// drops. Under [`SchedulerKind::Deterministic`] registration is a
    /// start barrier: the call blocks until all
    /// [`HtmConfig::max_threads`] contexts have been claimed (from
    /// distinct OS threads) and the schedule policy first selects this one.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range or already claimed (contexts are
    /// exclusive; they release their slot on drop).
    pub fn thread(&self, tid: usize) -> ThreadCtx<'_> {
        assert!(
            tid < self.cfg.max_threads,
            "tid {tid} out of range (max_threads = {})",
            self.cfg.max_threads
        );
        assert!(
            self.registry.claim(tid),
            "thread context {tid} is already claimed"
        );
        self.claimed_ctx(tid)
    }

    /// Claims *some* free per-thread context, picking the slot dynamically
    /// (sharded scan, see [`crate::registry`]). This is the entry point for
    /// thread pools that grow and shrink at runtime: callers need not
    /// pre-assign stable hardware-thread ids.
    ///
    /// # Panics
    ///
    /// Panics if every context is claimed.
    pub fn acquire_thread(&self) -> ThreadCtx<'_> {
        let tid = self
            .registry
            .acquire()
            .expect("no free thread contexts (all slots claimed)");
        self.claimed_ctx(tid)
    }

    /// Shared tail of [`Htm::thread`]/[`Htm::acquire_thread`]: the slot is
    /// already claimed; register with the scheduler and build the context.
    fn claimed_ctx(&self, tid: usize) -> ThreadCtx<'_> {
        self.sched.register(tid as u32);
        sched::bind(Arc::clone(&self.sched), tid as u32);
        ThreadCtx {
            htm: self,
            tid: tid as u32,
            epoch: 0,
            rng: XorShift64::new(self.cfg.seed ^ ((tid as u64 + 1) << 17)),
            stats: ThreadStats::new(),
            last_conflict: None,
            footprint: Footprint::default(),
        }
    }

    /// Number of currently claimed per-thread contexts.
    pub fn active_threads(&self) -> usize {
        self.registry.active()
    }

    /// Whether hardware thread `tid`'s context is currently claimed.
    pub fn thread_claimed(&self, tid: usize) -> bool {
        self.registry.is_claimed(tid)
    }

    /// An untracked (non-transactional) accessor for thread `tid`.
    ///
    /// Unlike [`Htm::thread`], this does not claim exclusivity — untracked
    /// accessors carry no state — but the `tid` should match the calling
    /// thread so self-conflicts resolve sensibly.
    pub fn direct(&self, tid: usize) -> Direct<'_> {
        Direct::new(self, tid as u32)
    }

    pub(crate) fn mem_ref(&self) -> &SimMemory {
        &self.mem
    }

    pub(crate) fn dir_ref(&self) -> &Directory {
        &self.dir
    }

    pub(crate) fn table_ref(&self) -> &TxTable {
        &self.table
    }

    /// Number of thread slots.
    pub fn max_threads(&self) -> usize {
        self.table.len()
    }
}

/// Per-thread handle for running transactions. Claim one per OS thread via
/// [`Htm::thread`].
#[derive(Debug)]
pub struct ThreadCtx<'h> {
    htm: &'h Htm,
    tid: u32,
    epoch: u64,
    rng: XorShift64,
    /// Raw substrate statistics for this thread.
    pub stats: ThreadStats,
    /// Attribution of the most recent [`Abort::Conflict`], if the doomer
    /// left one. Reset at every transaction begin.
    last_conflict: Option<ConflictInfo>,
    /// The current attempt's read set, write set and write buffer, reused
    /// across attempts so a transaction allocates only when it outgrows
    /// every earlier one.
    footprint: Footprint,
}

/// What one transaction attempt has tracked: the lines it read and wrote,
/// and its buffered stores (cell index → value).
#[derive(Debug, Default)]
struct Footprint {
    read_lines: IdSet<LineId>,
    write_lines: IdSet<LineId>,
    write_buf: IdMap<u32, u64>,
}

impl Footprint {
    /// Empties all three collections, keeping their capacity.
    fn clear(&mut self) {
        self.read_lines.clear();
        self.write_lines.clear();
        self.write_buf.clear();
    }
}

impl Drop for ThreadCtx<'_> {
    fn drop(&mut self) {
        sched::unbind();
        self.htm.sched.deregister(self.tid);
        self.htm.registry.release(self.tid as usize);
    }
}

impl<'h> ThreadCtx<'h> {
    /// This context's hardware thread id.
    pub fn tid(&self) -> usize {
        self.tid as usize
    }

    /// The owning runtime.
    pub fn htm(&self) -> &'h Htm {
        self.htm
    }

    /// An untracked accessor bound to this thread id.
    pub fn direct(&self) -> Direct<'h> {
        Direct::new(self.htm, self.tid)
    }

    /// Attribution of the most recent conflict abort, if the winning side
    /// recorded one: the contended line and the peer thread. Best-effort
    /// (dooms race); reset at every [`ThreadCtx::txn`] call.
    pub fn last_conflict(&self) -> Option<ConflictInfo> {
        self.last_conflict
    }

    /// Runs **one attempt** of a hardware transaction. Retry policies live
    /// a layer above (see `sprwl-locks`); call `txn` again to retry.
    ///
    /// The closure receives a [`Tx`] for transactional reads/writes and
    /// must propagate its `Err`s (aborts) outward. On `Ok`, the engine
    /// attempts to commit; the commit itself can still fail with
    /// [`Abort::Conflict`] if the transaction was doomed in flight.
    ///
    /// # Errors
    ///
    /// Any [`Abort`]: conflict, capacity, explicit or injected interrupt.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`TxKind::Rot`] on a capacity profile without
    /// ROT support (programming error — RW-LE must only be instantiated on
    /// POWER8-like profiles, exactly as in the paper).
    pub fn txn<R>(
        &mut self,
        kind: TxKind,
        f: impl FnOnce(&mut Tx<'_>) -> TxResult<R>,
    ) -> Result<R, Abort> {
        if kind == TxKind::Rot {
            assert!(
                self.htm.cfg.capacity.supports_rot(),
                "rollback-only transactions are a POWER8-only feature; \
                 profile `{}` does not support them",
                self.htm.cfg.capacity.name
            );
        }
        self.epoch += 1;
        let me = Owner {
            tid: self.tid,
            epoch: self.epoch,
        };
        self.htm.yield_point(self.tid, YieldKind::TxBegin);
        self.htm.table.begin(me.tid, me.epoch);
        self.stats.on_begin(kind);
        self.last_conflict = None;

        self.footprint.clear();
        let result = f(&mut Tx {
            htm: self.htm,
            me,
            kind,
            fp: &mut self.footprint,
            rng: &mut self.rng,
        });

        let Footprint {
            read_lines,
            write_lines,
            write_buf,
        } = &self.footprint;
        let table = &self.htm.table;
        let outcome = match result {
            Ok(value) => {
                if table.try_transition(me.tid, me.epoch, ST_ACTIVE, ST_COMMITTING) {
                    // Commit point passed: flush buffered writes, then
                    // advertise `Committed` so untracked accesses waiting on
                    // the flush can proceed, then clean the directory.
                    for (&cell, &val) in write_buf {
                        self.htm.mem.raw_store(CellId(cell), val);
                    }
                    table.set(me.tid, me.epoch, ST_COMMITTED);
                    self.htm
                        .dir
                        .release(me, read_lines.iter(), write_lines.iter());
                    table.set(me.tid, me.epoch, ST_INACTIVE);
                    self.stats.on_commit(kind);
                    // The commit window itself (Committing → flush →
                    // Committed) deliberately contains no yield point:
                    // peers observing `Committing` spin it out holding a
                    // line word's lock bit, which a serialized scheduler
                    // could never resolve if a switch landed inside.
                    self.htm.yield_point(self.tid, YieldKind::TxCommit);
                    return Ok(value);
                }
                Err(Abort::Conflict)
            }
            Err(cause) => Err(cause),
        };

        // Abort path: mark dead (idempotent wrt concurrent dooming), clean
        // the directory, release the slot.
        table.set(me.tid, me.epoch, ST_DOOMED);
        self.htm
            .dir
            .release(me, read_lines.iter(), write_lines.iter());
        table.set(me.tid, me.epoch, ST_INACTIVE);
        let cause = outcome.as_ref().err().copied().expect("abort path");
        // Consume the doomer's attribution note (always, so it cannot leak
        // into a later epoch); expose it only for genuine conflict aborts.
        let note = table.take_conflict(me);
        if cause == Abort::Conflict {
            self.last_conflict = note.map(|(line, peer)| ConflictInfo {
                line: LineId(line),
                peer,
            });
        }
        self.stats.on_abort(cause);
        self.htm.yield_point(self.tid, YieldKind::TxAbort);
        outcome
    }
}

/// Handle for transactional memory accesses, passed to the closure of
/// [`ThreadCtx::txn`]. All methods return [`TxResult`]; propagate errors
/// with `?` so aborts unwind the attempt.
#[derive(Debug)]
pub struct Tx<'a> {
    htm: &'a Htm,
    me: Owner,
    kind: TxKind,
    fp: &'a mut Footprint,
    rng: &'a mut XorShift64,
}

impl Tx<'_> {
    #[inline]
    fn check_alive(&mut self) -> TxResult<()> {
        // Yield before the doom check: a peer scheduled here may conflict
        // with (and doom) this transaction, which the check then observes —
        // the interleavings a real context switch would expose.
        self.htm.yield_point(self.me.tid, YieldKind::TxAccess);
        if self.htm.table.is_doomed(self.me) {
            return Err(Abort::Conflict);
        }
        if self.rng.hit(self.htm.cfg.interrupt_prob) {
            return Err(Abort::Interrupt);
        }
        Ok(())
    }

    fn capacity(&self) -> &CapacityProfile {
        &self.htm.cfg.capacity
    }

    /// The transaction flavour this handle runs under.
    pub fn kind(&self) -> TxKind {
        self.kind
    }

    /// Distinct cache lines currently in the read-set (ROTs always report 0).
    pub fn read_footprint(&self) -> usize {
        self.fp.read_lines.len()
    }

    /// Distinct cache lines currently in the write-set.
    pub fn write_footprint(&self) -> usize {
        self.fp.write_lines.len()
    }

    /// Transactionally reads a cell.
    ///
    /// Reads-own-writes: returns the buffered value if this transaction
    /// already wrote the cell. In [`TxKind::Rot`] mode the read is
    /// untracked (no read-set entry, no capacity cost) exactly like POWER8
    /// rollback-only transactions.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if doomed;
    /// [`Abort::CapacityRead`] on footprint overflow; [`Abort::Interrupt`]
    /// under failure injection.
    pub fn read(&mut self, cell: CellId) -> TxResult<u64> {
        self.check_alive()?;
        if let Some(&v) = self.fp.write_buf.get(&cell.0) {
            return Ok(v);
        }
        let line = self.htm.mem.line_of(cell);
        match self.kind {
            TxKind::Htm => {
                if !self.fp.read_lines.contains(&line) && !self.fp.write_lines.contains(&line) {
                    self.htm.dir.acquire_read(line, self.me, &self.htm.table);
                    self.fp.read_lines.insert(line);
                    if self.fp.read_lines.len() > self.capacity().read_lines {
                        return Err(Abort::CapacityRead);
                    }
                }
                Ok(self.htm.mem.raw_load(cell))
            }
            TxKind::Rot => {
                // POWER8 ROT reads are untracked; they still participate in
                // coherence, so they conflict with other transactions'
                // speculative writes.
                if self.fp.write_lines.contains(&line) {
                    return Ok(self.htm.mem.raw_load(cell));
                }
                let htm = self.htm;
                Ok(htm.dir.untracked_op(
                    line,
                    crate::directory::UntrackedKind::Read,
                    self.me.tid,
                    &htm.table,
                    || htm.mem.raw_load(cell),
                ))
            }
        }
    }

    /// Transactionally writes a cell (buffered until commit).
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`], [`Abort::CapacityWrite`] or [`Abort::Interrupt`]
    /// as for [`Tx::read`].
    pub fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        self.check_alive()?;
        let line = self.htm.mem.line_of(cell);
        if !self.fp.write_lines.contains(&line) {
            self.htm.dir.acquire_write(line, self.me, &self.htm.table);
            self.fp.write_lines.insert(line);
            let cap = match self.kind {
                TxKind::Htm => self.capacity().write_lines,
                TxKind::Rot => self.capacity().rot_write_lines,
            };
            if self.fp.write_lines.len() > cap {
                return Err(Abort::CapacityWrite);
            }
        }
        self.fp.write_buf.insert(cell.0, val);
        Ok(())
    }

    /// Explicitly aborts the transaction with `code` (like `xabort imm8`).
    ///
    /// # Errors
    ///
    /// Always returns `Err(Abort::Explicit(code))` — written as a `Result`
    /// so call sites can `return tx.abort(code)`.
    pub fn abort<T>(&self, code: u32) -> TxResult<T> {
        Err(Abort::Explicit(code))
    }

    /// POWER8-style suspend/resume: runs `f` *outside* the transaction
    /// (accesses inside `f` are non-transactional), then resumes. A
    /// conflict that dooms the suspended transaction surfaces at resume,
    /// exactly like the hardware. Mirroring POWER8's L1-resident
    /// speculative state, suspended loads of lines this transaction wrote
    /// *do* observe the buffered values, and suspended stores that touch
    /// the transaction's own footprint doom it.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the transaction was doomed before suspension
    /// or while suspended.
    ///
    /// # Panics
    ///
    /// Panics if the capacity profile lacks POWER8's suspend/resume.
    pub fn suspend<R>(&mut self, f: impl FnOnce(&Suspended<'_>) -> R) -> TxResult<R> {
        assert!(
            self.htm.cfg.capacity.supports_rot(),
            "suspend/resume is a POWER8-only feature; profile `{}` lacks it",
            self.htm.cfg.capacity.name
        );
        let table = &self.htm.table;
        if !table.try_transition(self.me.tid, self.me.epoch, ST_ACTIVE, ST_SUSPENDED) {
            return Err(Abort::Conflict);
        }
        let s = Suspended {
            htm: self.htm,
            me: self.me,
            write_lines: &self.fp.write_lines,
            write_buf: &self.fp.write_buf,
        };
        let r = f(&s);
        if !table.try_transition(self.me.tid, self.me.epoch, ST_SUSPENDED, ST_ACTIVE) {
            return Err(Abort::Conflict);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulePolicyKind;

    fn yields(scheduler: SchedulerKind, sched_shake_prob: f64) -> bool {
        let cfg = HtmConfig {
            max_threads: 2,
            scheduler,
            sched_shake_prob,
            ..HtmConfig::default()
        };
        Htm::new(cfg, 64).yields
    }

    #[test]
    fn only_a_free_running_scheduler_without_shake_skips_yield_points() {
        assert!(!yields(SchedulerKind::Os, 0.0));
        for shake in [0.02, 0.05, 1.0] {
            assert!(yields(SchedulerKind::Os, shake), "shake {shake}");
        }
        assert!(yields(SchedulerKind::deterministic(1), 0.0));
        let delays = SchedulerKind::Deterministic {
            policy: SchedulePolicyKind::DelayBounded { delays: vec![] },
        };
        assert!(yields(delays, 0.0));
    }
}
