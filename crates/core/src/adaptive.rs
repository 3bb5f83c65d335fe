//! Self-tuning reader tracking — the paper's §5 future work, implemented.
//!
//! Fig. 6 shows that SNZI-based reader tracking wins for long readers
//! (one line in the writer's commit-time read-set instead of one per
//! thread) but loses for short readers (O(log n) arrive/depart overhead).
//! The authors propose "self-tuning techniques to automatically
//! enable/disable the use of SNZI"; this module provides exactly that as
//! [`crate::ReaderTracking::Adaptive`].
//!
//! ## Soundness argument
//!
//! Readers *always* maintain their per-thread state flag (the scheduling
//! scans need it in every mode), so a commit-time **flags scan is correct
//! in every mode**. The SNZI query is correct iff every currently active
//! reader also registered in the SNZI. Hence:
//!
//! * switching **to flags** is instantaneous — active SNZI-era readers
//!   also hold their flags, so writers that scan see them;
//! * switching **to SNZI** goes through a transition state: new readers
//!   start registering in the SNZI immediately, writers keep scanning
//!   flags, and the switch completes only after every reader that was
//!   active at the start of the transition has drained (each is waited on
//!   at most once, with a timeout that safely aborts the transition).
//!
//! The mode word lives in simulated memory and is read inside writer
//! transactions, so a concurrent mode switch dooms in-flight writers —
//! they simply retry under the new mode.

use htm_sim::{clock, Direct, SimMemory};
use sprwl_locks::LockThread;

use crate::lock::{SpRwl, STATE_READER};

/// Mode-word values.
const MODE_FLAGS: u64 = 0;
pub(crate) const MODE_SNZI: u64 = 1;
pub(crate) const MODE_TRANS_TO_SNZI: u64 = 2;

/// Reader-to-writer duration ratio above which SNZI is engaged.
const RATIO_HI: u64 = 8;
/// Ratio below which the tracker reverts to flags.
const RATIO_LO: u64 = 2;
/// Minimum interval between switches, ns (hysteresis).
const SWITCH_COOLDOWN_NS: u64 = 5_000_000;
/// How long the transition waits for one pre-transition reader, ns.
const DRAIN_TIMEOUT_NS: u64 = 2_000_000;

/// What a reader registered with — returned by `flag_reader`, consumed by
/// `unflag_reader`, so departures always balance arrivals even across mode
/// switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderReg {
    pub(crate) in_snzi: bool,
    /// Bravo fast path: the visible-table slot this reader published in.
    pub(crate) vslot: Option<usize>,
    /// Bravo: whether this arrival re-armed the bias word (traced).
    pub(crate) rearmed: bool,
}

impl ReaderReg {
    pub(crate) fn flags() -> Self {
        Self {
            in_snzi: false,
            vslot: None,
            rearmed: false,
        }
    }

    pub(crate) fn snzi() -> Self {
        Self {
            in_snzi: true,
            vslot: None,
            rearmed: false,
        }
    }

    pub(crate) fn bravo_visible(vslot: usize, rearmed: bool) -> Self {
        Self {
            in_snzi: false,
            vslot: Some(vslot),
            rearmed,
        }
    }

    pub(crate) fn bravo_snzi(rearmed: bool) -> Self {
        Self {
            in_snzi: true,
            vslot: None,
            rearmed,
        }
    }
}

impl SpRwl {
    /// The current tracking mode word (static modes never consult it).
    pub(crate) fn mode(&self, mem: &SimMemory) -> u64 {
        self.readers.mode(mem)
    }

    /// Records per-role durations and, on the sampling thread, evaluates
    /// the switching policy. Called at the end of every critical section.
    pub(crate) fn adapt_after_section(&self, t: &mut LockThread<'_>, is_reader: bool, dur: u64) {
        if self.readers.mode_cell.is_none() || t.tid() != 0 {
            return;
        }
        let slot = if is_reader {
            &self.avg_read_ns
        } else {
            &self.avg_write_ns
        };
        let old = slot.load();
        slot.store(if old == 0 { dur } else { (dur + 3 * old) / 4 }.max(1));
        self.maybe_switch(t);
    }

    fn maybe_switch(&self, t: &mut LockThread<'_>) {
        let now = clock::now();
        if now.saturating_sub(self.last_switch_ns.load()) < SWITCH_COOLDOWN_NS {
            return;
        }
        let read = self.avg_read_ns.load();
        let write = self.avg_write_ns.load().max(1);
        if read == 0 {
            return;
        }
        let ratio = read / write;
        let mem = t.ctx.htm().memory();
        let mode = self.mode(mem);
        let d = t.ctx.direct();
        if mode == MODE_FLAGS && ratio >= RATIO_HI {
            self.last_switch_ns.store(now);
            self.switch_to_snzi(&d, t.tid(), mem);
        } else if mode == MODE_SNZI && ratio <= RATIO_LO {
            self.last_switch_ns.store(now);
            // Instantaneous and safe: flags are always maintained.
            let cell = self.readers.mode_cell.expect("adaptive");
            let _ = d.compare_exchange(cell, MODE_SNZI, MODE_FLAGS);
        }
    }

    /// Flags → SNZI: enter the transition state, drain pre-transition
    /// readers (bounded per reader), then complete — or roll back on
    /// timeout, which is always safe because writers scan flags throughout
    /// the transition.
    fn switch_to_snzi(&self, d: &Direct<'_>, me: usize, mem: &SimMemory) {
        let cell = self.readers.mode_cell.expect("adaptive");
        if d.compare_exchange(cell, MODE_FLAGS, MODE_TRANS_TO_SNZI)
            .is_err()
        {
            return;
        }
        // Wait (once each, with a deadline) for readers that might predate
        // the transition and therefore hold only flags.
        let deadline = clock::now() + DRAIN_TIMEOUT_NS;
        for i in 0..self.n {
            if i == me {
                continue;
            }
            let mut spin = clock::SpinWait::new();
            while mem.peek(self.readers.state[i]) == STATE_READER && clock::now() < deadline {
                spin.snooze();
            }
            if mem.peek(self.readers.state[i]) == STATE_READER {
                // Timed out: roll the transition back (safe — writers have
                // been scanning flags all along) and try again later.
                let _ = d.compare_exchange(cell, MODE_TRANS_TO_SNZI, MODE_FLAGS);
                return;
            }
        }
        let _ = d.compare_exchange(cell, MODE_TRANS_TO_SNZI, MODE_SNZI);
    }

    /// Diagnostic: whether the adaptive tracker currently queries the SNZI
    /// at commit time.
    pub fn snzi_engaged(&self, mem: &SimMemory) -> bool {
        match self.cfg.reader_tracking {
            crate::config::ReaderTracking::Flags => false,
            crate::config::ReaderTracking::Snzi => true,
            crate::config::ReaderTracking::Adaptive => self.mode(mem) == MODE_SNZI,
            // Bravo always queries the SNZI at commit (it is the backstop);
            // the bias word is the extra, cheaper structure on top.
            crate::config::ReaderTracking::Bravo => true,
        }
    }
}
