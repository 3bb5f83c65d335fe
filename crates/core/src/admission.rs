//! Non-blocking reader/writer admission — the building blocks async
//! front-ends (e.g. `sprwl-server`'s future-based guards) compose instead
//! of the blocking [`crate::reader`]/[`crate::writer`] loops.
//!
//! The blocking read path (Alg. 1) is a loop of *announce → check → enter
//! or withdraw-and-wait*. [`SpRwl::try_enter_read`] is exactly one
//! iteration of that loop with the wait removed: it either admits the
//! caller (announcement published, [`ReaderReg`] returned) or withdraws the
//! announcement and returns `None`, so a failed attempt never leaves a
//! reader flag, SNZI arrival, or BRAVO visible-table slot behind. That
//! withdraw-before-defer ordering is the same one that makes
//! reader/fallback-writer deadlock impossible in the blocking path (§3.3) —
//! an async poll that parked while still announced could block a fallback
//! writer's `wait_for_readers` drain forever.
//!
//! One piece of state *does* survive a failed attempt on purpose: the §3.3
//! versioned-SGL registration in `waiting_version[tid]`. It is the
//! anti-starvation ticket — a reader that keeps re-polling must keep its
//! first-observed fallback version or it can be starved by back-to-back
//! fallback writers forever. A caller that *abandons* the acquire (drops a
//! pending future) must clear the ticket with
//! [`SpRwl::cancel_read_admission`], or `check_quiescent` will report the
//! stale registration and fallback writers will keep deferring to a reader
//! that no longer exists.

use htm_sim::{Direct, SimMemory};

use crate::lock::{SpRwl, NONE};
use crate::reader_table::ReaderReg;

impl SpRwl {
    /// One non-blocking reader-admission attempt (one iteration of the
    /// Alg. 1 announce/check loop). On success the reader is announced and
    /// may run its uninstrumented section; balance with
    /// [`SpRwl::exit_read`]. On failure nothing is announced (any §3.3
    /// version registration persists — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when `tid` is outside the range this lock was sized for.
    pub fn try_enter_read(&self, d: &Direct<'_>, tid: usize, mem: &SimMemory) -> Option<ReaderReg> {
        self.check_tid(tid);
        let reg = self.flag_reader(d, tid);
        if self.reader_may_proceed(tid, mem) {
            Some(reg)
        } else {
            self.unflag_reader(d, tid, reg);
            None
        }
    }

    /// Withdraws a reader admission obtained from
    /// [`SpRwl::try_enter_read`] (the async analogue of the blocking
    /// path's section exit).
    pub fn exit_read(&self, d: &Direct<'_>, tid: usize, reg: ReaderReg) {
        self.unflag_reader(d, tid, reg);
    }

    /// Abandons an in-progress (not yet admitted) read acquire: clears the
    /// §3.3 versioned-SGL registration a failed [`SpRwl::try_enter_read`]
    /// may have left so fallback writers stop deferring to this thread and
    /// quiescence checks pass. Idempotent; a no-op when nothing was
    /// registered. Must NOT be called while an admission is held — the
    /// announcement itself is withdrawn by [`SpRwl::exit_read`].
    pub fn cancel_read_admission(&self, tid: usize) {
        self.check_tid(tid);
        self.waiting_version[tid].store(NONE);
    }

    /// Whether this thread currently holds a §3.3 versioned-SGL
    /// registration (a pending acquire's anti-starvation ticket).
    pub fn read_admission_pending(&self, tid: usize) -> bool {
        self.check_tid(tid);
        self.waiting_version[tid].load() != NONE
    }

    /// Non-blocking writer-admission probe: `true` when the fallback lock
    /// is free, i.e. a `write_section` started now would not immediately
    /// park behind a fallback writer. Purely advisory — it registers
    /// nothing, so a caller that polls it and walks away leaves no state —
    /// and racy by nature: the answer can be stale by the time the writer
    /// starts, which is fine because `write_section` re-checks under its
    /// own protocol. Async front-ends use it to park `write()` futures on
    /// a wake-list instead of spinning inside the blocking path.
    pub fn write_admission_open(&self, mem: &SimMemory) -> bool {
        !self.fallback.is_locked_peek(mem)
    }

    /// Debug probe: whether any reader other than `me` is currently
    /// announced (what a fallback writer's reader drain would see).
    pub fn debug_any_reader_active(&self, d: &Direct<'_>, me: usize) -> bool {
        self.any_reader_active(d, me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SprwlConfig;
    use htm_sim::{Htm, HtmConfig};
    use sprwl_locks::RwSync;

    fn htm(threads: usize) -> Htm {
        Htm::new(
            HtmConfig {
                max_threads: threads,
                ..HtmConfig::default()
            },
            4096,
        )
    }

    fn versioned_cfg() -> SprwlConfig {
        SprwlConfig {
            versioned_sgl: true,
            ..SprwlConfig::default()
        }
    }

    #[test]
    fn try_enter_read_admits_on_an_idle_lock_and_exits_clean() {
        let htm = htm(2);
        let lock = SpRwl::with_defaults(&htm);
        let mem = htm.memory();
        let d = htm.direct(0);
        let reg = lock.try_enter_read(&d, 0, mem).expect("idle lock admits");
        lock.exit_read(&d, 0, reg);
        lock.check_quiescent(mem).expect("clean after exit");
    }

    #[test]
    fn try_enter_read_fails_clean_under_a_fallback_writer() {
        let htm = htm(2);
        let lock = SpRwl::new(&htm, versioned_cfg());
        let mem = htm.memory();
        let writer = htm.direct(1);
        lock.debug_fallback_acquire(&writer);
        let d = htm.direct(0);
        assert!(lock.try_enter_read(&d, 0, mem).is_none());
        // The failed attempt left no announcement: the fallback writer's
        // reader drain sees nobody.
        assert!(!lock.debug_any_reader_active(&writer, 1));
        lock.debug_fallback_release(&writer);
        // The versioned registration is the anti-starvation ticket;
        // cancelling clears it.
        assert!(lock.read_admission_pending(0));
        lock.cancel_read_admission(0);
        assert!(!lock.read_admission_pending(0));
        lock.check_quiescent(mem).expect("clean after cancel");
    }

    #[test]
    fn abandoned_acquire_without_cancel_fails_quiescence() {
        let htm = htm(2);
        let lock = SpRwl::new(&htm, versioned_cfg());
        let mem = htm.memory();
        let writer = htm.direct(1);
        lock.debug_fallback_acquire(&writer);
        let d = htm.direct(0);
        assert!(lock.try_enter_read(&d, 0, mem).is_none());
        lock.debug_fallback_release(&writer);
        let err = lock.check_quiescent(mem).unwrap_err();
        assert!(err.contains("waiting_version"), "{err}");
        lock.cancel_read_admission(0);
        lock.check_quiescent(mem).expect("clean after cancel");
    }

    #[test]
    fn versioned_ticket_admits_after_a_writer_turn() {
        let htm = htm(2);
        let lock = SpRwl::new(&htm, versioned_cfg());
        let mem = htm.memory();
        let writer = htm.direct(1);
        let d = htm.direct(0);
        lock.debug_fallback_acquire(&writer);
        assert!(lock.try_enter_read(&d, 0, mem).is_none(), "registers");
        lock.debug_fallback_release(&writer);
        // A second writer turn advances the version past the registration:
        // the reader bypasses even while the lock is held (§3.3).
        lock.debug_fallback_acquire(&writer);
        let reg = lock
            .try_enter_read(&d, 0, mem)
            .expect("senior ticket bypasses the junior fallback holder");
        lock.exit_read(&d, 0, reg);
        lock.debug_fallback_release(&writer);
        lock.check_quiescent(mem).expect("clean");
    }

    #[test]
    fn write_admission_probe_tracks_the_fallback_word() {
        let htm = htm(2);
        let lock = SpRwl::with_defaults(&htm);
        let mem = htm.memory();
        assert!(lock.write_admission_open(mem));
        let d = htm.direct(0);
        lock.debug_fallback_acquire(&d);
        assert!(!lock.write_admission_open(mem));
        lock.debug_fallback_release(&d);
        assert!(lock.write_admission_open(mem));
    }

    #[test]
    fn bravo_admission_round_trip_keeps_the_bias_machinery_balanced() {
        let htm = htm(2);
        let lock = SpRwl::new(&htm, SprwlConfig::with_bravo());
        let mem = htm.memory();
        let d = htm.direct(0);
        for _ in 0..3 {
            let reg = lock.try_enter_read(&d, 0, mem).expect("admits");
            lock.exit_read(&d, 0, reg);
        }
        lock.check_quiescent(mem)
            .expect("bias word, SNZI and visible table all balanced");
    }
}
