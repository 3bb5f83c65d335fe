//! The per-thread transaction status table.
//!
//! Every simulated hardware thread owns one slot whose word packs
//! `(epoch << 3) | state`. The epoch increments at each transaction begin,
//! so a doom or conflict note aimed at one transaction can never land on a
//! *later* transaction from the same thread (ABA protection). All
//! cross-thread transitions go through CAS; the owning thread's transitions
//! race only with dooming.
//!
//! State machine (self = owning thread, any = any thread):
//!
//! ```text
//!  Inactive --self--> Active --self CAS--> Committing --self--> Committed --self--> Inactive
//!                      |  ^ \--self CAS--> Suspended --self CAS--> Active
//!                      |  |                    |
//!                      +--any CAS--> Doomed <--+ (any CAS)
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use crate::memory::LineId;
use crate::util::Pad;

pub(crate) const ST_INACTIVE: u64 = 0;
pub(crate) const ST_ACTIVE: u64 = 1;
pub(crate) const ST_SUSPENDED: u64 = 2;
pub(crate) const ST_COMMITTING: u64 = 3;
pub(crate) const ST_COMMITTED: u64 = 4;
pub(crate) const ST_DOOMED: u64 = 5;

const STATE_MASK: u64 = 0b111;

#[inline]
pub(crate) fn pack(epoch: u64, state: u64) -> u64 {
    (epoch << 3) | state
}

#[inline]
pub(crate) fn state_of(word: u64) -> u64 {
    word & STATE_MASK
}

#[inline]
pub(crate) fn epoch_of(word: u64) -> u64 {
    word >> 3
}

/// Identity of one transaction instance: which thread, which epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Owner {
    pub tid: u32,
    pub epoch: u64,
}

/// Result of a doom attempt on an owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoomOutcome {
    /// The victim is now (or already was) `Doomed`.
    Dead,
    /// The owner already passed its commit point; the caller must wait for
    /// the flush to complete before touching the line.
    Committing,
    /// The slot now belongs to a different epoch or is inactive/committed —
    /// the holder is done with the line; treat the line as unowned.
    Stale,
}

// Doom-attribution sidecar packing: `|valid:1|epoch_lo:12|peer:19|line:32|`.
// The epoch tag lets the victim reject notes left over from an earlier
// transaction of its own (the doom itself may have been Stale); 12 bits are
// plenty since a wrapped collision only mislabels a diagnostic.
const DI_VALID: u64 = 1 << 63;
const DI_EPOCH_BITS: u64 = 12;
const DI_PEER_BITS: u64 = 19;
const DI_EPOCH_MASK: u64 = (1 << DI_EPOCH_BITS) - 1;
const DI_PEER_MASK: u64 = (1 << DI_PEER_BITS) - 1;

#[inline]
fn pack_doom_info(epoch: u64, peer: u32, line: u32) -> u64 {
    DI_VALID
        | ((epoch & DI_EPOCH_MASK) << (32 + DI_PEER_BITS))
        | ((peer as u64 & DI_PEER_MASK) << 32)
        | line as u64
}

#[derive(Debug)]
pub(crate) struct TxTable {
    slots: Box<[Pad<AtomicU64>]>,
    /// Conflict attribution, one word per thread: who doomed this thread's
    /// current transaction, and over which line. Written by the doomer
    /// *before* its doom CAS so the victim observing `Doomed` always finds
    /// the note; epoch-tagged so stale notes are rejected.
    doom_info: Box<[Pad<AtomicU64>]>,
}

impl TxTable {
    pub(crate) fn new(n: usize) -> Self {
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || Pad(AtomicU64::new(pack(0, ST_INACTIVE))));
        let mut d = Vec::with_capacity(n);
        d.resize_with(n, || Pad(AtomicU64::new(0)));
        Self {
            slots: v.into_boxed_slice(),
            doom_info: d.into_boxed_slice(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, tid: u32) -> &AtomicU64 {
        &self.slots[tid as usize].0
    }

    #[inline]
    pub(crate) fn load(&self, tid: u32) -> u64 {
        self.slot(tid).load(Ordering::SeqCst)
    }

    /// Owning thread: begin a new transaction at `epoch`. Clears any
    /// leftover conflict note so an untaken one can never alias a later
    /// epoch with the same low bits.
    pub(crate) fn begin(&self, tid: u32, epoch: u64) {
        self.doom_info[tid as usize].0.store(0, Ordering::SeqCst);
        self.slot(tid)
            .store(pack(epoch, ST_ACTIVE), Ordering::SeqCst);
    }

    /// Owning thread: unconditional transition (used for
    /// Committing→Committed→Inactive and the abort path, where no other
    /// thread may legally CAS the word any more except redundant dooming).
    pub(crate) fn set(&self, tid: u32, epoch: u64, state: u64) {
        self.slot(tid).store(pack(epoch, state), Ordering::SeqCst);
    }

    /// Owning thread: CAS `from`→`to` at `epoch`; `false` means a doomer won.
    pub(crate) fn try_transition(&self, tid: u32, epoch: u64, from: u64, to: u64) -> bool {
        self.slot(tid)
            .compare_exchange(
                pack(epoch, from),
                pack(epoch, to),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Whether the owning thread's current transaction has been doomed.
    #[inline]
    pub(crate) fn is_doomed(&self, owner: Owner) -> bool {
        let w = self.load(owner.tid);
        epoch_of(w) == owner.epoch && state_of(w) == ST_DOOMED
    }

    /// Any thread: try to doom `victim`. See [`DoomOutcome`].
    pub(crate) fn doom(&self, victim: Owner) -> DoomOutcome {
        let slot = self.slot(victim.tid);
        loop {
            let w = slot.load(Ordering::SeqCst);
            if epoch_of(w) != victim.epoch {
                return DoomOutcome::Stale;
            }
            match state_of(w) {
                ST_ACTIVE | ST_SUSPENDED => {
                    if slot
                        .compare_exchange(
                            w,
                            pack(victim.epoch, ST_DOOMED),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return DoomOutcome::Dead;
                    }
                    // Lost a race; re-read and decide again.
                }
                ST_DOOMED => return DoomOutcome::Dead,
                ST_COMMITTING => return DoomOutcome::Committing,
                _ => return DoomOutcome::Stale,
            }
        }
    }

    /// Records who is about to doom `victim` and over which line, for
    /// conflict attribution. Must be called *before* the doom CAS: the
    /// victim reads the note only after observing `Doomed`, so store-then-CAS
    /// (both SeqCst) guarantees the note is visible by then. A lost doom
    /// race leaves a note tagged with the victim's epoch, which
    /// [`Self::take_conflict`] rejects once the victim moves on.
    pub(crate) fn note_doom(&self, victim: Owner, line: LineId, peer: u32) {
        self.doom_info[victim.tid as usize]
            .0
            .store(pack_doom_info(victim.epoch, peer, line.0), Ordering::SeqCst);
    }

    /// Owning thread: consumes the conflict note for its current
    /// transaction, returning `(line, peer)` if a doomer attributed one.
    /// Clears the note either way.
    pub(crate) fn take_conflict(&self, me: Owner) -> Option<(u32, u32)> {
        let w = self.doom_info[me.tid as usize].0.swap(0, Ordering::SeqCst);
        if w & DI_VALID == 0 {
            return None;
        }
        if (w >> (32 + DI_PEER_BITS)) & DI_EPOCH_MASK != me.epoch & DI_EPOCH_MASK {
            return None;
        }
        Some((w as u32, ((w >> 32) & DI_PEER_MASK) as u32))
    }

    /// Spin until `owner` is no longer in the `Committing` state (i.e. its
    /// write-buffer flush finished or the epoch moved on). Used by untracked
    /// accesses to give single-cell reads commit atomicity.
    pub(crate) fn wait_while_committing(&self, owner: Owner) {
        let mut wait = crate::clock::SpinWait::new();
        loop {
            let w = self.load(owner.tid);
            if epoch_of(w) != owner.epoch || state_of(w) != ST_COMMITTING {
                return;
            }
            wait.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        for epoch in [0u64, 1, 77, 1 << 40] {
            for st in [ST_INACTIVE, ST_ACTIVE, ST_DOOMED] {
                let w = pack(epoch, st);
                assert_eq!(epoch_of(w), epoch);
                assert_eq!(state_of(w), st);
            }
        }
    }

    #[test]
    fn doom_active_succeeds() {
        let t = TxTable::new(2);
        t.begin(0, 7);
        let o = Owner { tid: 0, epoch: 7 };
        assert_eq!(t.doom(o), DoomOutcome::Dead);
        assert!(t.is_doomed(o));
    }

    #[test]
    fn doom_stale_epoch_is_noop() {
        let t = TxTable::new(2);
        t.begin(0, 8);
        let o = Owner { tid: 0, epoch: 7 };
        assert_eq!(t.doom(o), DoomOutcome::Stale);
        assert!(!t.is_doomed(Owner { tid: 0, epoch: 8 }));
    }

    #[test]
    fn doom_committing_reports_committing() {
        let t = TxTable::new(1);
        t.begin(0, 3);
        assert!(t.try_transition(0, 3, ST_ACTIVE, ST_COMMITTING));
        assert_eq!(t.doom(Owner { tid: 0, epoch: 3 }), DoomOutcome::Committing);
    }

    #[test]
    fn commit_cas_fails_after_doom() {
        let t = TxTable::new(1);
        t.begin(0, 3);
        assert_eq!(t.doom(Owner { tid: 0, epoch: 3 }), DoomOutcome::Dead);
        assert!(!t.try_transition(0, 3, ST_ACTIVE, ST_COMMITTING));
    }

    #[test]
    fn suspended_can_be_doomed() {
        let t = TxTable::new(1);
        t.begin(0, 1);
        assert!(t.try_transition(0, 1, ST_ACTIVE, ST_SUSPENDED));
        assert_eq!(t.doom(Owner { tid: 0, epoch: 1 }), DoomOutcome::Dead);
        // resume must now fail
        assert!(!t.try_transition(0, 1, ST_SUSPENDED, ST_ACTIVE));
    }

    #[test]
    fn doom_note_round_trips() {
        let t = TxTable::new(4);
        t.begin(1, 9);
        let victim = Owner { tid: 1, epoch: 9 };
        t.note_doom(victim, LineId(1234), 3);
        assert_eq!(t.doom(victim), DoomOutcome::Dead);
        assert_eq!(t.take_conflict(victim), Some((1234, 3)));
        // Consumed: a second take finds nothing.
        assert_eq!(t.take_conflict(victim), None);
    }

    #[test]
    fn stale_doom_note_is_rejected() {
        let t = TxTable::new(4);
        t.begin(1, 9);
        t.note_doom(Owner { tid: 1, epoch: 9 }, LineId(7), 0);
        // Victim moved on before reading the note.
        t.begin(1, 10);
        assert_eq!(t.take_conflict(Owner { tid: 1, epoch: 10 }), None);
    }

    #[test]
    fn doom_note_packs_wide_values() {
        let t = TxTable::new(2);
        let victim = Owner {
            tid: 0,
            epoch: (1 << 40) + 5,
        };
        t.note_doom(victim, LineId(u32::MAX), 0x7_FFFF);
        assert_eq!(t.take_conflict(victim), Some((u32::MAX, 0x7_FFFF)));
    }

    #[test]
    fn wait_while_committing_returns_when_committed() {
        let t = std::sync::Arc::new(TxTable::new(1));
        t.begin(0, 2);
        assert!(t.try_transition(0, 2, ST_ACTIVE, ST_COMMITTING));
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            t2.set(0, 2, ST_COMMITTED);
        });
        t.wait_while_committing(Owner { tid: 0, epoch: 2 });
        assert_eq!(state_of(t.load(0)), ST_COMMITTED);
        h.join().unwrap();
    }
}
