//! The conflict directory: a sharded map from cache line to the set of
//! transactions currently holding it, plus one *held* byte per line.
//!
//! This plays the role of the cache-coherence protocol extensions real HTMs
//! use for conflict detection. Each line entry records at most one
//! transactional *writer* and any number of transactional *readers*.
//! Accesses resolve conflicts eagerly:
//!
//! * transactional accesses under [`ConflictPolicy::RequesterWins`] doom the
//!   current holder(s) (coherence requests always win in hardware);
//! * **untracked** stores doom every transaction holding the line — this is
//!   the strong-isolation property SpRWL's uninstrumented readers depend on;
//! * untracked accesses that find the holder mid-commit spin until the
//!   write-buffer flush finishes, which makes single-cell untracked accesses
//!   atomic with respect to commits;
//! * an untracked read of a line that no transaction holds reads the
//!   line's held byte and nothing else — no shard lock, no shard state —
//!   as a load of an unheld line costs one load on real HTM.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU8, Ordering};

use parking_lot::Mutex;

use crate::config::ConflictPolicy;
use crate::memory::LineId;
use crate::slots::{DoomOutcome, Owner, TxTable};
use crate::tx::Abort;
use crate::util::{fib_hash, IdMap};

#[derive(Debug, Default)]
struct LineEntry {
    writer: Option<Owner>,
    readers: Readers,
}

impl LineEntry {
    fn is_empty(&self) -> bool {
        self.writer.is_none() && self.readers.as_slice().is_empty()
    }
}

/// How many transactional readers a line entry stores without allocating.
const INLINE_READERS: usize = 2;

/// A line's transactional readers, in the order a `Vec` given the same
/// pushes and removals would keep them (responder-wins blames the first
/// live one). The first [`INLINE_READERS`] live in the entry itself, so
/// registering and releasing a read allocate nothing; one more reader
/// moves them all to a `Vec`, which stays until the entry is removed.
#[derive(Debug)]
enum Readers {
    Inline {
        len: u8,
        slots: [Owner; INLINE_READERS],
    },
    Spilled(Vec<Owner>),
}

impl Default for Readers {
    fn default() -> Self {
        const NOBODY: Owner = Owner { tid: 0, epoch: 0 };
        Readers::Inline {
            len: 0,
            slots: [NOBODY; INLINE_READERS],
        }
    }
}

impl Readers {
    fn as_slice(&self) -> &[Owner] {
        match self {
            Readers::Inline { len, slots } => &slots[..usize::from(*len)],
            Readers::Spilled(v) => v,
        }
    }

    fn push(&mut self, r: Owner) {
        match self {
            Readers::Inline { len, slots } if usize::from(*len) < INLINE_READERS => {
                slots[usize::from(*len)] = r;
                *len += 1;
            }
            Readers::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_READERS);
                spilled.extend_from_slice(slots);
                spilled.push(r);
                *self = Readers::Spilled(spilled);
            }
            Readers::Spilled(v) => v.push(r),
        }
    }

    /// Removes the reader at `i`, moving the last one into its place
    /// (`Vec::swap_remove`).
    fn swap_remove(&mut self, i: usize) {
        match self {
            Readers::Inline { len, slots } => {
                *len -= 1;
                slots.swap(i, usize::from(*len));
            }
            Readers::Spilled(v) => {
                v.swap_remove(i);
            }
        }
    }

    /// Removes `r` if present, keeping the others in order.
    fn remove(&mut self, r: Owner) {
        let Some(i) = self.as_slice().iter().position(|&x| x == r) else {
            return;
        };
        match self {
            Readers::Inline { len, slots } => {
                slots.copy_within(i + 1..usize::from(*len), i);
                *len -= 1;
            }
            Readers::Spilled(v) => {
                v.remove(i);
            }
        }
    }
}

/// log2 of the shard count. Only tracked accesses, untracked stores,
/// untracked reads of held lines and releases lock a shard. Of 64, 256 and
/// 1024 shards, 256 was the most that kept TPC-C's peak RSS within 2 % of
/// 64's: every shard a run touches keeps its small hash table, so 1024 cost
/// about 5 % more RSS than 256 (DESIGN.md §2).
const SHARD_BITS: u32 = 8;
const SHARD_COUNT: usize = 1 << SHARD_BITS;

/// One directory shard, exactly one 64-byte cache line: the lock and the
/// map header travel together, and no two shards share a line, so threads
/// working different shards never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    map: Mutex<IdMap<u32, LineEntry>>,
}

#[derive(Debug)]
pub(crate) struct Directory {
    shards: Box<[Shard]>,
    /// One byte per simulated line: 1 while the line has a map entry, 0
    /// otherwise. Stored (SeqCst, under the line's shard lock) only when
    /// an entry is created or removed. Untracked reads of a line whose
    /// byte is 0 skip the shard entirely.
    held: Box<[AtomicU8]>,
}

/// How an untracked (non-transactional) access behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UntrackedKind {
    Read,
    Write,
}

impl Directory {
    /// A directory for a memory of `lines` cache lines.
    pub(crate) fn new(lines: usize) -> Self {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        shards.resize_with(SHARD_COUNT, Shard::default);
        Self {
            shards: shards.into_boxed_slice(),
            held: (0..lines).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    #[inline]
    fn lock_shard(&self, line: LineId) -> parking_lot::MutexGuard<'_, IdMap<u32, LineEntry>> {
        self.shards[shard_index(line)].map.lock()
    }

    #[inline]
    fn held(&self, line: LineId) -> &AtomicU8 {
        &self.held[line.0 as usize]
    }

    /// `line`'s entry in its (locked) shard `map`, created — and the line's
    /// held byte set — if the line has none.
    fn entry<'m>(&self, map: &'m mut IdMap<u32, LineEntry>, line: LineId) -> &'m mut LineEntry {
        match map.entry(line.0) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.held(line).store(1, Ordering::SeqCst);
                e.insert(LineEntry::default())
            }
        }
    }

    /// Removes `line`'s emptied entry from its (locked) shard `map` and
    /// clears the line's held byte.
    fn remove_entry(&self, map: &mut IdMap<u32, LineEntry>, line: LineId) {
        map.remove(&line.0);
        self.held(line).store(0, Ordering::SeqCst);
    }

    /// Resolves a conflict between `me` and the holder `other`, per policy.
    /// Returns `Ok(())` once the holder is out of the way (doomed, stale or
    /// drained), `Err` if `me` must self-abort. Whichever side loses gets a
    /// conflict-attribution note (line + winning peer) in its slot.
    fn resolve_tx_conflict(
        table: &TxTable,
        policy: ConflictPolicy,
        other: Owner,
        line: LineId,
        me: Owner,
    ) -> Result<(), Abort> {
        match table.doom_or_classify(other, policy, line, me.tid) {
            Ok(DoomOutcome::Dead) | Ok(DoomOutcome::Stale) => Ok(()),
            Ok(DoomOutcome::Committing) => {
                table.wait_while_committing(other);
                Ok(())
            }
            Ok(DoomOutcome::Live) => unreachable!("resolved conflicts never stay live"),
            Err(()) => {
                // ResponderWins: `me` self-aborts; attribute to the holder.
                table.note_doom(me, line, other.tid);
                Err(Abort::Conflict)
            }
        }
    }

    /// Registers `me` as a transactional reader of `line`.
    ///
    /// # Errors
    ///
    /// Fails with [`Abort::Conflict`] under `ResponderWins` when a live
    /// writer holds the line.
    pub(crate) fn acquire_read(
        &self,
        line: LineId,
        me: Owner,
        table: &TxTable,
        policy: ConflictPolicy,
    ) -> Result<(), Abort> {
        let mut map = self.lock_shard(line);
        let entry = self.entry(&mut map, line);
        if let Some(other) = entry.writer {
            if other != me {
                Self::resolve_tx_conflict(table, policy, other, line, me)?;
                entry.writer = None;
            }
        }
        debug_assert!(!entry.readers.as_slice().contains(&me));
        entry.readers.push(me);
        Ok(())
    }

    /// Registers `me` as the transactional writer of `line`, dooming (or
    /// deferring to, per policy) any other holder.
    ///
    /// # Errors
    ///
    /// Fails with [`Abort::Conflict`] under `ResponderWins` when another
    /// live transaction holds the line.
    pub(crate) fn acquire_write(
        &self,
        line: LineId,
        me: Owner,
        table: &TxTable,
        policy: ConflictPolicy,
    ) -> Result<(), Abort> {
        let mut map = self.lock_shard(line);
        let entry = self.entry(&mut map, line);
        if let Some(other) = entry.writer {
            if other != me {
                Self::resolve_tx_conflict(table, policy, other, line, me)?;
                entry.writer = None;
            }
        }
        // Doom / defer to readers other than me.
        let mut i = 0;
        while let Some(&r) = entry.readers.as_slice().get(i) {
            if r == me {
                i += 1;
                continue;
            }
            Self::resolve_tx_conflict(table, policy, r, line, me)?;
            entry.readers.swap_remove(i);
        }
        entry.writer = Some(me);
        Ok(())
    }

    /// Performs an untracked access to `line`: resolves conflicts with
    /// transactional holders, then runs `op` (the raw memory operation)
    /// **while still holding the line's shard lock**, so the operation is
    /// linearized against transactional acquisitions of the same line.
    ///
    /// Untracked writes doom every holder; untracked reads doom a live
    /// transactional writer iff `reads_doom` (strong isolation); both wait
    /// out an in-flight commit so the raw operation happens after the flush.
    /// `doomer` names the accessing thread for conflict attribution.
    pub(crate) fn untracked_op<R>(
        &self,
        line: LineId,
        kind: UntrackedKind,
        reads_doom: bool,
        doomer: u32,
        table: &TxTable,
        op: impl FnOnce() -> R,
    ) -> R {
        // Fast path: an untracked READ of a line whose held byte is 0 cannot
        // conflict with anything. No transaction has registered the line yet
        // (its writes are still buffered, so the read linearizes before the
        // registration), or the last holder released it, which happens
        // after any commit flush. Stores must always take the slow path:
        // their doom of registered holders has to be serialized with
        // registration.
        if kind == UntrackedKind::Read && self.held(line).load(Ordering::SeqCst) == 0 {
            return op();
        }
        let mut map = self.lock_shard(line);
        if let Some(entry) = map.get_mut(&line.0) {
            if let Some(other) = entry.writer {
                let doom_it = kind == UntrackedKind::Write || reads_doom;
                match if doom_it {
                    table.note_doom(other, line, doomer);
                    table.doom(other)
                } else {
                    table.classify(other)
                } {
                    DoomOutcome::Dead | DoomOutcome::Stale => {
                        if doom_it {
                            entry.writer = None;
                        }
                    }
                    DoomOutcome::Committing => {
                        table.wait_while_committing(other);
                        entry.writer = None;
                    }
                    // reads_doom disabled: the writer stays speculative and
                    // the untracked read observes the pre-transaction value,
                    // which is exactly what buffered writes imply.
                    DoomOutcome::Live => {}
                }
            }
            if kind == UntrackedKind::Write {
                for &r in entry.readers.as_slice() {
                    table.note_doom(r, line, doomer);
                    let _ = table.doom(r);
                }
                entry.readers = Readers::default();
            }
            if entry.is_empty() {
                self.remove_entry(&mut map, line);
            }
        }
        op()
    }

    /// Conflict-resolution-only variant of [`Self::untracked_op`].
    #[cfg(test)]
    fn untracked_access(
        &self,
        line: LineId,
        kind: UntrackedKind,
        reads_doom: bool,
        doomer: u32,
        table: &TxTable,
    ) {
        self.untracked_op(line, kind, reads_doom, doomer, table, || ());
    }

    /// Removes `me`'s registrations for the given lines (commit or abort
    /// cleanup). Idempotent: entries already cleared by conflicting accesses
    /// are skipped.
    pub(crate) fn release<'a>(
        &self,
        me: Owner,
        read_lines: impl Iterator<Item = &'a LineId>,
        write_lines: impl Iterator<Item = &'a LineId>,
    ) {
        for &line in read_lines {
            let mut map = self.lock_shard(line);
            if let Some(entry) = map.get_mut(&line.0) {
                entry.readers.remove(me);
                if entry.is_empty() {
                    self.remove_entry(&mut map, line);
                }
            }
        }
        for &line in write_lines {
            let mut map = self.lock_shard(line);
            if let Some(entry) = map.get_mut(&line.0) {
                if entry.writer == Some(me) {
                    entry.writer = None;
                }
                if entry.is_empty() {
                    self.remove_entry(&mut map, line);
                }
            }
        }
    }

    /// Number of lines with live entries (test/debug aid).
    #[cfg(test)]
    pub(crate) fn live_lines(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }
}

/// The shard holding `line`: the top [`SHARD_BITS`] of its Fibonacci hash,
/// so sequentially allocated neighbours land on different shards. The
/// in-shard maps hash with [`crate::util::IdHasher`], which keys off lower
/// bits of the same product.
#[inline]
fn shard_index(line: LineId) -> usize {
    (fib_hash(u64::from(line.0)) >> (64 - SHARD_BITS)) as usize
}

impl TxTable {
    /// Policy-dispatching doom: under `RequesterWins` dooms the holder
    /// (noting `line`/`requester` for attribution first); under
    /// `ResponderWins` reports `Err(())` if the holder is live (the
    /// requester must abort itself), and classifies otherwise.
    fn doom_or_classify(
        &self,
        other: Owner,
        policy: ConflictPolicy,
        line: LineId,
        requester: u32,
    ) -> Result<DoomOutcome, ()> {
        match policy {
            ConflictPolicy::RequesterWins => {
                self.note_doom(other, line, requester);
                Ok(self.doom(other))
            }
            ConflictPolicy::ResponderWins => match self.classify(other) {
                DoomOutcome::Live => Err(()),
                other_state => Ok(other_state),
            },
        }
    }

    /// Non-destructive classification of `other`'s state.
    pub(crate) fn classify(&self, other: Owner) -> DoomOutcome {
        use crate::slots::{epoch_of, state_of, ST_ACTIVE, ST_COMMITTING, ST_DOOMED, ST_SUSPENDED};
        let w = self.load(other.tid);
        if epoch_of(w) != other.epoch {
            return DoomOutcome::Stale;
        }
        match state_of(w) {
            ST_COMMITTING => DoomOutcome::Committing,
            ST_DOOMED => DoomOutcome::Dead,
            ST_ACTIVE | ST_SUSPENDED => DoomOutcome::Live,
            _ => DoomOutcome::Stale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(tid: u32, epoch: u64) -> Owner {
        Owner { tid, epoch }
    }

    #[test]
    fn read_read_sharing_is_conflict_free() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(7);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_read(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(!table.is_doomed(owner(0, 1)));
        assert!(!table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn write_dooms_readers_under_requester_wins() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(3);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(table.is_doomed(owner(0, 1)));
        assert!(!table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn write_self_aborts_under_responder_wins() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(3);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::ResponderWins)
            .unwrap();
        let res = dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::ResponderWins);
        assert_eq!(res, Err(Abort::Conflict));
        assert!(!table.is_doomed(owner(0, 1)), "holder survives");
    }

    #[test]
    fn untracked_write_dooms_readers_and_writer() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(9);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Write, true, 3, &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert!(table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn untracked_read_dooms_writer_only_when_enabled() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(2);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Read, false, 3, &table);
        assert!(!table.is_doomed(owner(0, 1)), "reads_doom disabled");
        dir.untracked_access(line, UntrackedKind::Read, true, 3, &table);
        assert!(table.is_doomed(owner(0, 1)), "strong isolation dooms");
    }

    #[test]
    fn untracked_read_never_dooms_plain_readers() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(4);
        table.begin(0, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Read, true, 3, &table);
        assert!(!table.is_doomed(owner(0, 1)));
    }

    #[test]
    fn requester_wins_attributes_doom_to_requester() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(11);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(table.is_doomed(owner(0, 1)));
        assert_eq!(table.take_conflict(owner(0, 1)), Some((11, 1)));
    }

    #[test]
    fn responder_wins_attributes_self_abort_to_holder() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(3);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table, ConflictPolicy::ResponderWins)
            .unwrap();
        let res = dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::ResponderWins);
        assert_eq!(res, Err(Abort::Conflict));
        assert_eq!(table.take_conflict(owner(1, 1)), Some((3, 0)));
    }

    #[test]
    fn untracked_write_attributes_dooms() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(9);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.untracked_access(line, UntrackedKind::Write, true, 2, &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert_eq!(table.take_conflict(owner(0, 1)), Some((9, 2)));
    }

    #[test]
    fn release_clears_entries() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let r_line = LineId(1);
        let w_line = LineId(2);
        table.begin(0, 1);
        dir.acquire_read(r_line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(w_line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert_eq!(dir.live_lines(), 2);
        dir.release(owner(0, 1), [r_line].iter(), [w_line].iter());
        assert_eq!(dir.live_lines(), 0);
    }

    #[test]
    fn stale_epoch_entries_are_ignored() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(5);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        // Thread 0 moves on to epoch 2 without cleanup (simulating a lost
        // race: cleanup happens later).
        table.begin(0, 2);
        table.begin(1, 1);
        dir.acquire_write(line, owner(1, 1), &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(!table.is_doomed(owner(0, 2)), "new epoch untouched");
    }

    #[test]
    fn reacquiring_own_write_line_is_idempotent() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(6);
        table.begin(0, 1);
        let me = owner(0, 1);
        dir.acquire_write(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(!table.is_doomed(me));
        assert_eq!(dir.live_lines(), 1);
    }

    #[test]
    fn shard_is_exactly_one_cache_line() {
        assert_eq!(std::mem::size_of::<Shard>(), 64);
        assert_eq!(std::mem::align_of::<Shard>(), 64);
    }

    #[test]
    fn lines_sharing_a_shard_spread_over_hash_tags() {
        // hashbrown filters probes on the top 7 hash bits; if those repeated
        // the shard-selecting bits, one shard's lines would all share a tag.
        use std::hash::BuildHasher;
        let build = std::hash::BuildHasherDefault::<crate::util::IdHasher>::default();
        let lines: Vec<u32> = (0..1 << 16)
            .filter(|&l| shard_index(LineId(l)) == 3)
            .collect();
        assert!(lines.len() > 128, "shard 3 got {} lines", lines.len());
        let tags: std::collections::HashSet<u64> =
            lines.iter().map(|&l| build.hash_one(l) >> 57).collect();
        assert!(tags.len() > 100, "only {} distinct tags", tags.len());
    }

    #[test]
    fn ten_thousand_line_transaction_commits_and_releases_every_line() {
        use crate::{CapacityProfile, Htm, HtmConfig, TxKind};
        const LINES: usize = 10_000;
        let htm = Htm::new(
            HtmConfig {
                capacity: CapacityProfile::UNBOUNDED,
                max_threads: 1,
                ..HtmConfig::default()
            },
            (LINES + 1) * 8,
        );
        let region = htm.memory().alloc_line_aligned(LINES * 8);
        let mut ctx = htm.thread(0);
        ctx.txn(TxKind::Htm, |tx| {
            for l in 0..LINES {
                let v = tx.read(region.cell(l * 8))?;
                if l % 2 == 0 {
                    tx.write(region.cell(l * 8 + 1), v + 1)?;
                }
            }
            assert_eq!(
                (tx.read_footprint(), tx.write_footprint()),
                (LINES, LINES / 2)
            );
            assert_eq!(htm.dir_ref().live_lines(), LINES);
            Ok(())
        })
        .unwrap();
        assert_eq!(htm.dir_ref().live_lines(), 0);
        assert_eq!(htm.direct(0).load(region.cell(LINES * 8 - 15)), 1);
    }

    #[test]
    fn reader_then_writer_upgrade_by_same_tx() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(8);
        table.begin(0, 1);
        let me = owner(0, 1);
        dir.acquire_read(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        dir.acquire_write(line, me, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        assert!(
            !table.is_doomed(me),
            "upgrading own line never self-conflicts"
        );
    }

    /// Asserts that each of `lines` has its held byte set exactly when the
    /// directory has an entry for it.
    fn assert_held_matches_entries(dir: &Directory, lines: &[LineId], step: &str) {
        for &line in lines {
            let has_entry = dir.lock_shard(line).contains_key(&line.0);
            assert_eq!(
                dir.held(line).load(Ordering::SeqCst),
                u8::from(has_entry),
                "after {step}: line {}'s held byte disagrees with its entry",
                line.0
            );
        }
    }

    fn held_lines(dir: &Directory) -> usize {
        dir.held
            .iter()
            .filter(|b| b.load(Ordering::SeqCst) != 0)
            .count()
    }

    #[test]
    fn held_byte_is_set_exactly_while_the_line_has_an_entry() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let rw = ConflictPolicy::RequesterWins;
        let lines = [LineId(1), LineId(2), LineId(3), LineId(4)];
        let [read_line, write_line, upgraded, dead_writer_line] = lines;
        let check = |step: &str| assert_held_matches_entries(&dir, &lines, step);
        check("nothing");

        table.begin(0, 1);
        let t0 = owner(0, 1);
        dir.acquire_read(read_line, t0, &table, rw).unwrap();
        check("acquire_read");
        dir.acquire_write(write_line, t0, &table, rw).unwrap();
        check("acquire_write");
        dir.acquire_read(upgraded, t0, &table, rw).unwrap();
        dir.acquire_write(upgraded, t0, &table, rw).unwrap();
        check("same-transaction upgrade");

        // A responder-wins loser leaves the live holder's entry in place.
        table.begin(1, 1);
        let t1 = owner(1, 1);
        let lost = dir.acquire_write(write_line, t1, &table, ConflictPolicy::ResponderWins);
        assert_eq!(lost, Err(Abort::Conflict));
        assert!(!table.is_doomed(t0));
        check("responder-wins self-abort");
        dir.release(t1, [].iter(), [write_line].iter());
        check("release of the loser's write line");

        // An untracked store drains t0 as both reader and writer of the
        // upgraded line.
        dir.untracked_access(upgraded, UntrackedKind::Write, true, 3, &table);
        assert!(table.is_doomed(t0));
        check("untracked write");

        // An untracked read with reads_doom off leaves a dead writer; with
        // it on, it clears the dead writer and the entry goes.
        table.begin(2, 1);
        let t2 = owner(2, 1);
        dir.acquire_write(dead_writer_line, t2, &table, rw).unwrap();
        let _ = table.doom(t2);
        dir.untracked_access(dead_writer_line, UntrackedKind::Read, false, 3, &table);
        check("untracked read leaving a dead writer");
        assert_eq!(dir.held(dead_writer_line).load(Ordering::SeqCst), 1);
        dir.untracked_access(dead_writer_line, UntrackedKind::Read, true, 3, &table);
        check("untracked read clearing a dead writer");
        assert_eq!(dir.held(dead_writer_line).load(Ordering::SeqCst), 0);

        dir.release(
            t0,
            [read_line, upgraded].iter(),
            [write_line, upgraded].iter(),
        );
        check("release of read and write lines");
        dir.release(t2, [].iter(), [dead_writer_line].iter());
        check("release of an already cleared line");
        assert_eq!((dir.live_lines(), held_lines(&dir)), (0, 0));
    }

    #[test]
    fn spilled_readers_are_doomed_blamed_and_released() {
        const READERS: u32 = 4;
        assert!(READERS as usize > INLINE_READERS);
        let line = LineId(5);
        let setup = |policy| {
            let dir = Directory::new(16);
            let table = TxTable::new(8);
            let readers: Vec<Owner> = (0..READERS).map(|t| owner(t, 1)).collect();
            for &r in &readers {
                table.begin(r.tid, 1);
                dir.acquire_read(line, r, &table, policy).unwrap();
            }
            table.begin(READERS, 1);
            (dir, table, readers, owner(READERS, 1))
        };
        let release_all = |dir: &Directory, readers: &[Owner], writer: Owner| {
            for &r in readers {
                dir.release(r, [line].iter(), [].iter());
            }
            dir.release(writer, [].iter(), [line].iter());
            assert_eq!((dir.live_lines(), held_lines(dir)), (0, 0));
        };

        // Requester-wins: the writer dooms all four and is named by each.
        let (dir, table, readers, writer) = setup(ConflictPolicy::RequesterWins);
        dir.acquire_write(line, writer, &table, ConflictPolicy::RequesterWins)
            .unwrap();
        for &r in &readers {
            assert!(table.is_doomed(r), "reader {} survived", r.tid);
            assert_eq!(table.take_conflict(r), Some((line.0, writer.tid)));
        }
        assert!(!table.is_doomed(writer));
        release_all(&dir, &readers, writer);

        // Responder-wins: the writer walks past the dead readers and
        // self-aborts on the one still live, the last to register.
        let (dir, table, readers, writer) = setup(ConflictPolicy::ResponderWins);
        let (dead, live) = readers.split_at(readers.len() - 1);
        for &r in dead {
            let _ = table.doom(r);
        }
        let res = dir.acquire_write(line, writer, &table, ConflictPolicy::ResponderWins);
        assert_eq!(res, Err(Abort::Conflict));
        assert!(!table.is_doomed(live[0]));
        assert_eq!(table.take_conflict(writer), Some((line.0, live[0].tid)));
        release_all(&dir, &readers, writer);

        // An untracked store dooms all four too.
        let (dir, table, readers, writer) = setup(ConflictPolicy::RequesterWins);
        dir.untracked_access(line, UntrackedKind::Write, true, 7, &table);
        for &r in &readers {
            assert!(table.is_doomed(r), "reader {} survived", r.tid);
            assert_eq!(table.take_conflict(r), Some((line.0, 7)));
        }
        assert_eq!((dir.live_lines(), held_lines(&dir)), (0, 0));
        release_all(&dir, &readers, writer);
    }
}
