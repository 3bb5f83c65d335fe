//! The SpRWL lock object: shared metadata, fallback-lock plumbing and the
//! commit-time reader check. The read- and write-path algorithms live in
//! [`crate::reader`] and [`crate::writer`].

use std::sync::atomic::{AtomicU64, Ordering};

use htm_sim::{CellId, Direct, Htm, SimMemory, Tx, TxResult};
use sprwl_locks::{GlobalLock, LockThread, RwSync, SectionBody, SectionId, VersionedLock};

use crate::config::{SprwlConfig, MAX_SECTIONS};
use crate::estimator::DurationEstimator;
use crate::reader_table::{ReaderReg, ReaderTable};

/// `state[i]` values (Alg. 1 of the paper).
pub(crate) const STATE_EMPTY: u64 = 0;
pub(crate) const STATE_READER: u64 = 1;
pub(crate) const STATE_WRITER: u64 = 2;

/// "no thread / no version" sentinel in the scheduling arrays.
pub(crate) const NONE: u64 = u64::MAX;

#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct Slot(pub AtomicU64);

impl Slot {
    pub(crate) fn new(v: u64) -> Self {
        Self(AtomicU64::new(v))
    }

    #[inline]
    pub(crate) fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    #[inline]
    pub(crate) fn store(&self, v: u64) {
        self.0.store(v, Ordering::SeqCst)
    }
}

fn slots(n: usize, init: u64) -> Box<[Slot]> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, || Slot::new(init));
    v.into_boxed_slice()
}

/// The single-global-lock fallback, plain or versioned (§3.3 extension).
#[derive(Debug)]
pub(crate) enum Fallback {
    Plain(GlobalLock),
    Versioned(VersionedLock),
}

impl Fallback {
    pub(crate) fn is_locked_peek(&self, mem: &SimMemory) -> bool {
        match self {
            Fallback::Plain(gl) => gl.is_locked_peek(mem),
            Fallback::Versioned(vl) => vl.is_locked_peek(mem),
        }
    }

    pub(crate) fn wait_until_free(&self, mem: &SimMemory) {
        let mut w = htm_sim::clock::SpinWait::new();
        while self.is_locked_peek(mem) {
            w.snooze();
        }
    }

    /// `(version, locked)`; plain locks report version 0.
    pub(crate) fn peek(&self, mem: &SimMemory) -> (u64, bool) {
        match self {
            Fallback::Plain(gl) => (0, gl.is_locked_peek(mem)),
            Fallback::Versioned(vl) => vl.peek(mem),
        }
    }

    pub(crate) fn subscribe(&self, tx: &mut Tx<'_>) -> TxResult<()> {
        match self {
            Fallback::Plain(gl) => gl.subscribe(tx),
            Fallback::Versioned(vl) => vl.subscribe(tx),
        }
    }

    /// Blocking acquire; returns the held version (0 for plain locks).
    pub(crate) fn acquire(&self, d: &Direct<'_>) -> u64 {
        match self {
            Fallback::Plain(gl) => {
                gl.acquire(d);
                0
            }
            Fallback::Versioned(vl) => vl.acquire(d),
        }
    }

    pub(crate) fn release(&self, d: &Direct<'_>) {
        match self {
            Fallback::Plain(gl) => gl.release(d),
            Fallback::Versioned(vl) => vl.release(d),
        }
    }
}

/// Speculative Read-Write Lock (the paper's contribution).
///
/// Writers execute as hardware transactions and may only commit when no
/// reader is active; readers execute **uninstrumented**, outside any
/// transaction, protected by strong isolation (their state announcement
/// dooms any in-flight writer that already checked for readers). Two
/// scheduling schemes — reader synchronization and writer synchronization —
/// plus the §3.4 optimizations are selected by [`SprwlConfig`].
///
/// `SpRwl` implements [`RwSync`], so it is a drop-in replacement for the
/// baseline read-write locks in `sprwl-locks`.
#[derive(Debug)]
pub struct SpRwl {
    pub(crate) cfg: SprwlConfig,
    pub(crate) n: usize,
    pub(crate) fallback: Fallback,
    /// Writer-writer gate for the ROT stretching rung. A rollback-only
    /// transaction tracks no reads, so a concurrent writer committing into
    /// its read set goes undetected — the one hazard the HTM cannot close
    /// for us. The gate restores serializability *among speculative
    /// writers*: a stretched ROT holds it for the rung's duration and
    /// plain HTM writers subscribe it (the untracked acquire dooms them,
    /// exactly like the SGL). Only ROTs ever write the gate, so the
    /// subscription costs nothing while no ROT is in flight. Readers never
    /// touch it — they stay uninstrumented, protected by the ROT's
    /// buffered writes and the suspended commit-time flag check. Never
    /// consulted while `cfg.stretch` is off.
    pub(crate) rot_gate: GlobalLock,
    /// Fallback-completion epoch, closing the ROT's remaining writer
    /// hazard: a ticket holder that acquires, writes in place and releases
    /// entirely inside the ROT's execution window is invisible both to the
    /// gate (fallback writers don't take it) and to the ROT's commit-time
    /// lock peek (the lock is free again by then). Every fallback section
    /// bumps this word *before* releasing the ticket; the ROT snapshots it
    /// before starting and re-checks it from suspended state, so any
    /// in-place write that overlapped the window forces an explicit abort.
    /// The cell is never subscribed — bumping it dooms no one.
    pub(crate) rot_epoch: CellId,
    /// Every reader-tracking structure writers consult — the per-thread
    /// state flags, the SNZI and the BRAVO bias machinery — behind one
    /// abstraction (see [`crate::reader_table`]).
    pub(crate) readers: ReaderTable,
    /// Writers' expected end times (`clock_w`).
    pub(crate) clock_w: Box<[Slot]>,
    /// Readers' expected end times (`clock_r`).
    pub(crate) clock_r: Box<[Slot]>,
    /// Which writer each waiting reader is waiting for (`waiting_for`).
    pub(crate) waiting_for: Box<[Slot]>,
    /// First fallback-lock version each blocked reader observed (§3.3).
    pub(crate) waiting_version: Box<[Slot]>,
    pub(crate) est: DurationEstimator,
    /// Per-section skip budget for the predictive readers-try-HTM variant
    /// (§3.4): non-zero means "this section recently overflowed capacity;
    /// go straight to the uninstrumented path".
    pub(crate) htm_skip: Box<[Slot]>,
    /// Per-section stretching rung a capacity-pressured section *starts*
    /// at (0 = direct HTM, 1 = ROT, 2 = split). Escalated in place by the
    /// write path when a rung overflows; reset to 0 when a probe of the
    /// direct rung commits. All-zero (and never consulted) while
    /// `cfg.stretch` is off.
    pub(crate) stretch_level: Box<[Slot]>,
    /// Per-section probe schedule of a section stuck on a stretched rung:
    /// the countdown to its next direct-rung probe (low half) and the
    /// current backoff (high half; see [`crate::writer`]).
    pub(crate) stretch_probe: Box<[Slot]>,
}

/// How many executions a capacity-doomed section skips its optimistic HTM
/// attempt before probing hardware again.
pub(crate) const HTM_PROBE_WINDOW: u64 = 64;

impl SpRwl {
    /// Creates an SpRWL instance sized for `htm.max_threads()` threads.
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn new(htm: &Htm, cfg: SprwlConfig) -> Self {
        Self::with_threads(htm, cfg, htm.max_threads())
            .expect("htm.max_threads() is always a valid thread count")
    }

    /// Creates an SpRWL instance sized for exactly `n` threads — thread ids
    /// `0..n` may enter sections; anything else is rejected up front with a
    /// clear error at section entry instead of an index panic deep inside a
    /// scheduling scan.
    ///
    /// # Errors
    ///
    /// Returns a description when `n` is zero or exceeds the HTM
    /// instance's registered thread capacity.
    pub fn with_threads(htm: &Htm, cfg: SprwlConfig, n: usize) -> Result<Self, String> {
        if n == 0 {
            return Err("SpRWL needs at least one thread slot (n = 0)".into());
        }
        if n > htm.max_threads() {
            return Err(format!(
                "SpRWL sized for {n} threads, but the HTM instance registers only {} \
                 thread contexts",
                htm.max_threads()
            ));
        }
        let mem = htm.memory();
        let fallback = if cfg.versioned_sgl {
            Fallback::Versioned(VersionedLock::new(mem))
        } else {
            Fallback::Plain(GlobalLock::new(mem))
        };
        let readers = ReaderTable::new(mem, n, cfg.reader_tracking);
        let est = DurationEstimator::new(MAX_SECTIONS);
        let htm_skip = slots(MAX_SECTIONS, 0);
        Ok(Self {
            n,
            fallback,
            rot_gate: GlobalLock::new(mem),
            rot_epoch: mem.alloc_line_aligned(1).cell(0),
            readers,
            clock_w: slots(n, 0),
            clock_r: slots(n, 0),
            waiting_for: slots(n, NONE),
            waiting_version: slots(n, NONE),
            est,
            htm_skip,
            stretch_level: slots(MAX_SECTIONS, 0),
            stretch_probe: slots(MAX_SECTIONS, 0),
            cfg,
        })
    }

    /// Rejects a thread id outside the registered range with a clear
    /// message (called at every section entry).
    #[inline]
    pub(crate) fn check_tid(&self, tid: usize) {
        assert!(
            tid < self.n,
            "thread id {tid} out of range: this SpRWL instance is sized for {} threads \
             (construct it with SpRwl::with_threads to size it explicitly)",
            self.n
        );
    }

    /// With the default (paper) configuration.
    pub fn with_defaults(htm: &Htm) -> Self {
        Self::new(htm, SprwlConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &SprwlConfig {
        &self.cfg
    }

    /// The duration estimator (exposed for tests and diagnostics).
    pub fn estimator(&self) -> &DurationEstimator {
        &self.est
    }

    // ---- shared helpers ----

    /// `check_for_readers()` (Alg. 1): run inside the writer's transaction
    /// just before commit. Aborts with `ABORT_READER` if any concurrent
    /// reader is active. In `Flags` mode this subscribes every thread's
    /// state line; in `Snzi` mode a single line; in `Bravo` mode two (the
    /// bias word and the SNZI root).
    pub(crate) fn check_for_readers(&self, tx: &mut Tx<'_>, me: usize) -> TxResult<()> {
        if self.cfg.debug_skip_commit_reader_check {
            // Test-only fault injection: pretend no reader is ever active,
            // re-opening the torn-read window the explorer hunts for.
            return Ok(());
        }
        self.readers.check_at_commit(tx, me)
    }

    /// Whether any reader other than `me` is currently active (untracked
    /// probe; used by the fallback path's `wait_for_readers`).
    pub(crate) fn any_reader_active(&self, d: &Direct<'_>, me: usize) -> bool {
        self.readers.any_active(d, me)
    }

    /// `wait_for_readers()` (Alg. 1): the fallback writer, already holding
    /// the global lock, waits for every active reader to drain.
    pub(crate) fn wait_for_readers(&self, d: &Direct<'_>, me: usize) {
        let mut w = htm_sim::clock::SpinWait::new();
        while self.any_reader_active(d, me) {
            w.snooze();
        }
    }

    /// Announces this thread as an active reader (see
    /// [`ReaderTable::arrive`] for the per-mode protocol and ordering
    /// arguments).
    pub(crate) fn flag_reader(&self, d: &Direct<'_>, tid: usize) -> ReaderReg {
        self.readers.arrive(d, tid)
    }

    /// Withdraws the reader announcement (balancing whatever `flag_reader`
    /// registered, even across a bias revocation).
    pub(crate) fn unflag_reader(&self, d: &Direct<'_>, tid: usize, reg: ReaderReg) {
        self.readers.depart(d, tid, reg)
    }

    // ---- white-box test hooks (versioned-SGL bypass, §3.3) ----

    /// Test hook: acquire the fallback lock directly, as a fallback writer
    /// would; returns the held version (0 for a plain SGL).
    #[doc(hidden)]
    pub fn debug_fallback_acquire(&self, d: &Direct<'_>) -> u64 {
        self.fallback.acquire(d)
    }

    /// Test hook: release the fallback lock acquired through
    /// [`SpRwl::debug_fallback_acquire`].
    #[doc(hidden)]
    pub fn debug_fallback_release(&self, d: &Direct<'_>) {
        self.fallback.release(d)
    }

    /// Test hook: the fallback lock's `(version, locked)` snapshot.
    #[doc(hidden)]
    pub fn debug_fallback_peek(&self, mem: &SimMemory) -> (u64, bool) {
        self.fallback.peek(mem)
    }

    /// Test hook: the BRAVO bias word (0 = off, 1 = on, 2 = revoking).
    /// Only meaningful under [`ReaderTracking::Bravo`].
    #[doc(hidden)]
    pub fn debug_bias_state(&self, mem: &SimMemory) -> u64 {
        self.readers.bias_state(mem)
    }

    /// Test hook: the per-section stretching rung (0 = direct, 1 = ROT,
    /// 2 = split) the write path would start at.
    #[doc(hidden)]
    pub fn debug_stretch_level(&self, sec: SectionId) -> u64 {
        self.stretch_level[sec.index()].load()
    }

    /// Test hook: the §3.3 registration slot for `tid` (`u64::MAX` = none).
    #[doc(hidden)]
    pub fn debug_waiting_version(&self, tid: usize) -> u64 {
        self.waiting_version[tid].load()
    }

    /// Test hook: whether a fallback writer holding `my_version` would
    /// still defer to a reader registered under an earlier version — the
    /// non-blocking probe behind `wait_for_bypassing_readers` (§3.3).
    #[doc(hidden)]
    pub fn debug_any_senior_bypasser(&self, my_version: u64) -> bool {
        (0..self.n).any(|i| {
            let v = self.waiting_version[i].load();
            v != NONE && v < my_version
        })
    }
}

impl RwSync for SpRwl {
    fn name(&self) -> &'static str {
        "SpRWL"
    }

    fn read_section(&self, t: &mut LockThread<'_>, sec: SectionId, f: SectionBody<'_>) -> u64 {
        self.do_read(t, sec, f)
    }

    fn write_section(&self, t: &mut LockThread<'_>, sec: SectionId, f: SectionBody<'_>) -> u64 {
        self.do_write(t, sec, f)
    }

    fn check_quiescent(&self, mem: &SimMemory) -> Result<(), String> {
        self.readers
            .check_quiescent(mem)
            .map_err(|e| format!("SpRWL: {e}"))?;
        if self.fallback.is_locked_peek(mem) {
            return Err("SpRWL: fallback lock still held at quiescence".into());
        }
        for i in 0..self.n {
            if self.waiting_for[i].load() != NONE {
                return Err(format!(
                    "SpRWL: waiting_for[{i}] still registered at quiescence"
                ));
            }
            if self.waiting_version[i].load() != NONE {
                return Err(format!(
                    "SpRWL: waiting_version[{i}] still registered at quiescence"
                ));
            }
            let cw = self.clock_w[i].load();
            if cw != 0 {
                return Err(format!(
                    "SpRWL: clock_w[{i}] is {cw} (stale end-time advert) at quiescence"
                ));
            }
            let cr = self.clock_r[i].load();
            if cr != 0 {
                return Err(format!(
                    "SpRWL: clock_r[{i}] is {cr} (stale end-time advert) at quiescence"
                ));
            }
        }
        Ok(())
    }
}
