//! The conflict directory: one 4-byte *line word* per simulated cache line,
//! naming the transactions that hold the line, plus a side map for the
//! lines with more concurrent readers than a word can name.
//!
//! This plays the role of the cache-coherence protocol extensions real HTMs
//! use for conflict detection. As with a line's coherence state, a line's
//! word is the only shared state most accesses to the line touch. A line
//! has at most one transactional *writer* and any number of transactional
//! *readers*. Accesses resolve conflicts eagerly:
//!
//! * transactional accesses doom the conflicting holder(s): the requester
//!   wins, as coherence requests do on Intel's and POWER8's HTMs;
//! * **untracked** stores doom every transaction holding the line — this is
//!   the strong-isolation property SpRWL's uninstrumented readers depend on;
//! * untracked accesses that find the holder mid-commit spin until the
//!   write-buffer flush finishes, which makes single-cell untracked accesses
//!   atomic with respect to commits;
//! * registering on a line that no other thread holds in a conflicting
//!   mode, or releasing a line of at most two readers, is one
//!   compare-exchange on the line's word, and an untracked read of a line
//!   that no transaction holds is one load of it, as a load of an unheld
//!   line costs one load on real HTM.
//!
//! Everything else — dooming or waiting out a foreign holder, a third
//! reader, an untracked store — runs with the word's lock bit set.

use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use crate::memory::LineId;
use crate::slots::{DoomOutcome, Owner, TxTable};
use crate::util::IdMap;

// A line word, from the top bit down: the lock bit, the spilled bit, then
// three holder fields of `TID_BITS` bits, each `tid + 1` or 0 for empty —
// the writer, then the first and the second reader in registration order.
// A word of 0 means no transaction holds the line. While the spilled bit
// is set, the reader fields are 0 and the spill map lists the readers.

/// Set while one thread resolves the line's conflicts or runs an untracked
/// op on it. Every other change to the word waits for it to clear.
const LOCK: u32 = 1 << 31;
/// Set exactly while the spill map holds the line's reader list.
const SPILLED: u32 = 1 << 30;
const TID_BITS: u32 = 10;
const TID_MASK: u32 = (1 << TID_BITS) - 1;
const WRITER_SHIFT: u32 = 2 * TID_BITS;

/// How many transactional readers a line word names. One more moves all of
/// the line's readers to the spill map.
const INLINE_READERS: usize = 2;

// The layout is fixed: the holder fields must fit below the spilled bit,
// and the word's methods name the two reader fields one by one.
const _: () = assert!(INLINE_READERS == 2 && TID_BITS * (1 + INLINE_READERS as u32) <= 30);

/// The most threads a line word can name: a field holds `tid + 1`.
pub(crate) const MAX_THREADS: usize = TID_MASK as usize;

/// The shift of the `i`-th inline reader's field.
#[inline]
const fn reader_shift(i: usize) -> u32 {
    TID_BITS * (INLINE_READERS - 1 - i) as u32
}

/// A line word's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Word(u32);

impl Word {
    #[inline]
    fn locked(self) -> bool {
        self.0 & LOCK != 0
    }

    #[inline]
    fn spilled(self) -> bool {
        self.0 & SPILLED != 0
    }

    /// Whether any transaction holds the line. The lock bit is no holder.
    #[inline]
    fn held(self) -> bool {
        self.0 & !LOCK != 0
    }

    #[inline]
    fn field(self, shift: u32) -> Option<u32> {
        match (self.0 >> shift) & TID_MASK {
            0 => None,
            f => Some(f - 1),
        }
    }

    #[inline]
    fn with_field(self, shift: u32, tid: Option<u32>) -> Self {
        let f = tid.map_or(0, |t| t + 1);
        Word(self.0 & !(TID_MASK << shift) | f << shift)
    }

    #[inline]
    fn writer(self) -> Option<u32> {
        self.field(WRITER_SHIFT)
    }

    #[inline]
    fn reader(self, i: usize) -> Option<u32> {
        self.field(reader_shift(i))
    }

    /// Whether the word can be changed without the lock bit: the word is
    /// unlocked and the reader list is inline.
    #[inline]
    fn fast(self) -> bool {
        self.0 & (LOCK | SPILLED) == 0
    }

    /// `self` with `me` registered as a reader, if that conflicts with
    /// nobody: no other thread writes the line and an inline slot is free.
    /// The readers stay packed at the front, so the first free slot follows
    /// the last reader.
    fn with_reader(self, me: u32) -> Option<Self> {
        if !self.fast() || self.writer().is_some_and(|w| w != me) {
            return None;
        }
        let free = (0..INLINE_READERS).find(|&i| self.reader(i).is_none())?;
        Some(self.with_field(reader_shift(free), Some(me)))
    }

    /// `self` with `me` registered as the writer, if every holder the word
    /// names is `me`.
    fn with_writer(self, me: u32) -> Option<Self> {
        let fields = [WRITER_SHIFT, reader_shift(0), reader_shift(1)];
        if !self.fast()
            || fields
                .iter()
                .any(|&s| self.field(s).is_some_and(|t| t != me))
        {
            return None;
        }
        Some(self.with_field(WRITER_SHIFT, Some(me)))
    }

    /// `self` without `me` among its readers, keeping the others in order.
    fn without_reader(self, me: u32) -> Option<Self> {
        if !self.fast() {
            return None;
        }
        Some(match (self.reader(0), self.reader(1)) {
            (Some(first), second) if first == me => self
                .with_field(reader_shift(0), second)
                .with_field(reader_shift(1), None),
            (_, Some(second)) if second == me => self.with_field(reader_shift(1), None),
            _ => self,
        })
    }

    /// `self` without `me` as its writer.
    fn without_writer(self, me: u32) -> Option<Self> {
        if !self.fast() {
            return None;
        }
        Some(match self.writer() {
            Some(w) if w == me => self.with_field(WRITER_SHIFT, None),
            _ => self,
        })
    }
}

/// A locked line's transactional readers (thread ids), in the order a
/// `Vec` given the same pushes and removals would keep them. Up to
/// [`INLINE_READERS`] come from the word's fields; one more moves them all
/// to a `Vec`, which goes to the spill map at unlock and stays there until
/// the line has no holder.
#[derive(Debug)]
enum Readers {
    Inline {
        len: u8,
        slots: [u32; INLINE_READERS],
    },
    Spilled(Vec<u32>),
}

impl Default for Readers {
    fn default() -> Self {
        Readers::Inline {
            len: 0,
            slots: [0; INLINE_READERS],
        }
    }
}

impl Readers {
    fn as_slice(&self) -> &[u32] {
        match self {
            Readers::Inline { len, slots } => &slots[..usize::from(*len)],
            Readers::Spilled(v) => v,
        }
    }

    fn push(&mut self, tid: u32) {
        match self {
            Readers::Inline { len, slots } if usize::from(*len) < INLINE_READERS => {
                slots[usize::from(*len)] = tid;
                *len += 1;
            }
            Readers::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_READERS);
                spilled.extend_from_slice(slots);
                spilled.push(tid);
                *self = Readers::Spilled(spilled);
            }
            Readers::Spilled(v) => v.push(tid),
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

    /// Removes `tid` if present, keeping the others in order.
    fn remove(&mut self, tid: u32) {
        let Some(i) = self.as_slice().iter().position(|&x| x == tid) else {
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

#[derive(Debug)]
pub(crate) struct Directory {
    /// One word per simulated line.
    words: Box<[AtomicU32]>,
    /// The reader lists of spilled lines. A line's list is read and
    /// written only by the thread holding its word's lock bit. Lines spill
    /// rarely (a third concurrent transactional reader) and are touched
    /// only on the locked path, so one mutex serves them all.
    spill: Mutex<IdMap<u32, Vec<u32>>>,
}

/// How an untracked (non-transactional) access behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UntrackedKind {
    Read,
    Write,
}

/// A line whose word has its lock bit set: its holders, decoded from the
/// word (and the spill map), are edited in place and encoded back when the
/// guard drops, which unlocks the word.
///
/// A thread id in a locked word, or in the spill list of one, names that
/// thread's current transaction: `ThreadCtx::txn` releases every line
/// before it returns, and a release cannot change a locked word. So the
/// holders' epochs come from the [`TxTable`] when they are needed.
#[derive(Debug)]
struct LineGuard<'d> {
    dir: &'d Directory,
    line: LineId,
    writer: Option<u32>,
    readers: Readers,
}

impl Drop for LineGuard<'_> {
    fn drop(&mut self) {
        let mut w = Word(0).with_field(WRITER_SHIFT, self.writer);
        match std::mem::take(&mut self.readers) {
            Readers::Inline { len, slots } => {
                for (i, &tid) in slots[..usize::from(len)].iter().enumerate() {
                    w = w.with_field(reader_shift(i), Some(tid));
                }
            }
            Readers::Spilled(list) => {
                if self.writer.is_some() || !list.is_empty() {
                    self.dir.spill.lock().insert(self.line.0, list);
                    w.0 |= SPILLED;
                }
            }
        }
        // Release pairs with the acquire of whoever next reads the word (a
        // locker's or fast path's compare-exchange, an untracked read's
        // load): it then sees all this section did, such as an untracked
        // op's raw store or the flush of a commit it waited out.
        self.dir.word(self.line).store(w.0, Ordering::Release);
    }
}

impl Directory {
    /// A directory for a memory of `lines` cache lines.
    pub(crate) fn new(lines: usize) -> Self {
        Self {
            words: crate::huge_pages::zeroed_slice(lines, || AtomicU32::new(0)),
            spill: Mutex::default(),
        }
    }

    #[inline]
    fn word(&self, line: LineId) -> &AtomicU32 {
        &self.words[line.0 as usize]
    }

    /// Replaces `line`'s word by `change(word)` with one compare-exchange,
    /// retrying while other fast paths move the word. Returns `false`,
    /// having changed nothing, once `change` declines the current value.
    /// `change` sees only the value, so a word that went away and came
    /// back in between is as good as one that never moved.
    #[inline]
    fn try_fast(&self, line: LineId, change: impl Fn(Word) -> Option<Word>) -> bool {
        let word = self.word(line);
        let mut cur = word.load(Ordering::SeqCst);
        loop {
            let Some(new) = change(Word(cur)) else {
                return false;
            };
            if new.0 == cur {
                return true;
            }
            match word.compare_exchange_weak(cur, new.0, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Sets `line`'s lock bit and decodes its holders. A locked word's
    /// holder runs no yield point before it unlocks, so a serialized run
    /// never waits here, and a free-running thread waits with
    /// `spin_loop` and then OS yields, never through the scheduler.
    fn lock(&self, line: LineId) -> LineGuard<'_> {
        let word = self.word(line);
        let mut spins = 0u32;
        let mut cur = word.load(Ordering::SeqCst);
        let w = loop {
            if Word(cur).locked() {
                spins += 1;
                if spins < 16 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                cur = word.load(Ordering::SeqCst);
                continue;
            }
            match word.compare_exchange_weak(cur, cur | LOCK, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break Word(cur),
                Err(now) => cur = now,
            }
        };
        let readers = if w.spilled() {
            let list = self.spill.lock().remove(&line.0);
            Readers::Spilled(list.expect("a spilled line has a reader list"))
        } else {
            let mut readers = Readers::default();
            for tid in (0..INLINE_READERS).map_while(|i| w.reader(i)) {
                readers.push(tid);
            }
            readers
        };
        LineGuard {
            dir: self,
            line,
            writer: w.writer(),
            readers,
        }
    }

    /// Resolves a conflict on `line` between thread `requester` and the
    /// transaction `holder` runs: the requester wins, so the holder is
    /// doomed, with a conflict-attribution note naming `line` and
    /// `requester`, unless it already committed or moved on. A holder
    /// mid-commit is waited out. Returns once the holder is out of the way.
    fn doom_holder(table: &TxTable, holder: u32, line: LineId, requester: u32) {
        let holder = table.current(holder);
        table.note_doom(holder, line, requester);
        if table.doom(holder) == DoomOutcome::Committing {
            table.wait_while_committing(holder);
        }
    }

    /// Registers `me` as a transactional reader of `line`, dooming another
    /// transaction that writes it.
    pub(crate) fn acquire_read(&self, line: LineId, me: Owner, table: &TxTable) {
        if self.try_fast(line, |w| w.with_reader(me.tid)) {
            return;
        }
        let mut g = self.lock(line);
        if let Some(other) = g.writer {
            if other != me.tid {
                Self::doom_holder(table, other, line, me.tid);
                g.writer = None;
            }
        }
        debug_assert!(!g.readers.as_slice().contains(&me.tid));
        g.readers.push(me.tid);
    }

    /// Registers `me` as the transactional writer of `line`, dooming every
    /// other holder.
    pub(crate) fn acquire_write(&self, line: LineId, me: Owner, table: &TxTable) {
        if self.try_fast(line, |w| w.with_writer(me.tid)) {
            return;
        }
        let mut g = self.lock(line);
        if let Some(other) = g.writer {
            if other != me.tid {
                Self::doom_holder(table, other, line, me.tid);
                g.writer = None;
            }
        }
        // Doom the readers other than me.
        let mut i = 0;
        while let Some(&r) = g.readers.as_slice().get(i) {
            if r == me.tid {
                i += 1;
                continue;
            }
            Self::doom_holder(table, r, line, me.tid);
            g.readers.swap_remove(i);
        }
        g.writer = Some(me.tid);
    }

    /// Performs an untracked access to `line`: resolves conflicts with
    /// transactional holders, then runs `op` (the raw memory operation)
    /// **while the line's word is still locked**, so the operation is
    /// linearized against transactional acquisitions of the same line.
    ///
    /// Untracked writes doom every holder; untracked reads doom a live
    /// transactional writer (strong isolation); both wait out an in-flight
    /// commit so the raw operation happens after the flush.
    /// `doomer` names the accessing thread for conflict attribution.
    pub(crate) fn untracked_op<R>(
        &self,
        line: LineId,
        kind: UntrackedKind,
        doomer: u32,
        table: &TxTable,
        op: impl FnOnce() -> R,
    ) -> R {
        // Fast path: an untracked READ of a line no transaction holds
        // cannot conflict with anything. No transaction has registered the
        // line yet (its writes are still buffered, so the read linearizes
        // before the registration), or the last holder released it, which
        // happens after any commit flush. Stores must always lock: their
        // doom of registered holders has to be serialized with registration.
        if kind == UntrackedKind::Read && !Word(self.word(line).load(Ordering::SeqCst)).held() {
            return op();
        }
        // A store to a line no transaction holds has no holder to doom: it
        // locks the word straight from 0, with a CAS tried before any load
        // of the word, runs the store and unlocks. Building a KV store is
        // almost all such stores, and the locked path's load, decode and
        // re-encode made it about 20 % slower.
        if kind == UntrackedKind::Write {
            let word = self.word(line);
            if word
                .compare_exchange(0, LOCK, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let result = op();
                // Release, as in `LineGuard::drop`.
                word.store(0, Ordering::Release);
                return result;
            }
        }
        let mut g = self.lock(line);
        if let Some(tid) = g.writer {
            Self::doom_holder(table, tid, line, doomer);
            g.writer = None;
        }
        if kind == UntrackedKind::Write {
            for &r in g.readers.as_slice() {
                let r = table.current(r);
                table.note_doom(r, line, doomer);
                let _ = table.doom(r);
            }
            g.readers = Readers::default();
        }
        let result = op();
        drop(g);
        result
    }

    /// Conflict-resolution-only variant of [`Self::untracked_op`].
    #[cfg(test)]
    fn untracked_access(&self, line: LineId, kind: UntrackedKind, doomer: u32, table: &TxTable) {
        self.untracked_op(line, kind, doomer, table, || ());
    }

    /// Removes `me`'s registrations for the given lines (commit or abort
    /// cleanup). Idempotent: registrations already cleared by conflicting
    /// accesses are skipped.
    pub(crate) fn release<'a>(
        &self,
        me: Owner,
        read_lines: impl Iterator<Item = &'a LineId>,
        write_lines: impl Iterator<Item = &'a LineId>,
    ) {
        for &line in read_lines {
            if !self.try_fast(line, |w| w.without_reader(me.tid)) {
                self.lock(line).readers.remove(me.tid);
            }
        }
        for &line in write_lines {
            if !self.try_fast(line, |w| w.without_writer(me.tid)) {
                let mut g = self.lock(line);
                if g.writer == Some(me.tid) {
                    g.writer = None;
                }
            }
        }
    }

    /// Number of lines some transaction holds (test/debug aid).
    #[cfg(test)]
    pub(crate) fn live_lines(&self) -> usize {
        self.words
            .iter()
            .filter(|w| Word(w.load(Ordering::SeqCst)).held())
            .count()
    }
}

impl TxTable {
    /// The transaction `tid` runs now, or ran last. For a thread named in a
    /// locked line word this is the transaction that holds the line (see
    /// [`LineGuard`]).
    fn current(&self, tid: u32) -> Owner {
        Owner {
            tid,
            epoch: crate::slots::epoch_of(self.load(tid)),
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
        dir.acquire_read(line, owner(0, 1), &table);
        dir.acquire_read(line, owner(1, 1), &table);
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
        dir.acquire_read(line, owner(0, 1), &table);
        dir.acquire_write(line, owner(1, 1), &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert!(!table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn untracked_write_dooms_readers_and_writer() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(9);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table);
        dir.acquire_write(line, owner(1, 1), &table);
        dir.untracked_access(line, UntrackedKind::Write, 3, &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert!(table.is_doomed(owner(1, 1)));
    }

    #[test]
    fn untracked_read_dooms_writer() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(2);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table);
        dir.untracked_access(line, UntrackedKind::Read, 3, &table);
        assert!(table.is_doomed(owner(0, 1)), "strong isolation dooms");
    }

    #[test]
    fn untracked_read_never_dooms_plain_readers() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(4);
        table.begin(0, 1);
        dir.acquire_read(line, owner(0, 1), &table);
        dir.untracked_access(line, UntrackedKind::Read, 3, &table);
        assert!(!table.is_doomed(owner(0, 1)));
    }

    #[test]
    fn requester_wins_attributes_doom_to_requester() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(11);
        table.begin(0, 1);
        table.begin(1, 1);
        dir.acquire_read(line, owner(0, 1), &table);
        dir.acquire_write(line, owner(1, 1), &table);
        assert!(table.is_doomed(owner(0, 1)));
        assert_eq!(table.take_conflict(owner(0, 1)), Some((11, 1)));
    }

    #[test]
    fn untracked_write_attributes_dooms() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(9);
        table.begin(0, 1);
        dir.acquire_write(line, owner(0, 1), &table);
        dir.untracked_access(line, UntrackedKind::Write, 2, &table);
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
        dir.acquire_read(r_line, owner(0, 1), &table);
        dir.acquire_write(w_line, owner(0, 1), &table);
        assert_eq!(dir.live_lines(), 2);
        dir.release(owner(0, 1), [r_line].iter(), [w_line].iter());
        assert_eq!(dir.live_lines(), 0);
    }

    #[test]
    fn reacquiring_own_write_line_is_idempotent() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(6);
        table.begin(0, 1);
        let me = owner(0, 1);
        dir.acquire_write(line, me, &table);
        dir.acquire_write(line, me, &table);
        assert!(!table.is_doomed(me));
        assert_eq!(dir.live_lines(), 1);
    }

    #[test]
    fn every_field_names_the_highest_thread_id() {
        let top = MAX_THREADS as u32 - 1;
        let shifts = [WRITER_SHIFT, reader_shift(0), reader_shift(1)];
        for &s in &shifts {
            let w = Word(LOCK | SPILLED).with_field(s, Some(top));
            assert_eq!(w.field(s), Some(top));
            assert!(w.locked() && w.spilled());
            for &other in shifts.iter().filter(|&&o| o != s) {
                assert_eq!(w.field(other), None);
            }
            assert_eq!(w.with_field(s, None), Word(LOCK | SPILLED));
        }
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
        dir.acquire_read(line, me, &table);
        dir.acquire_write(line, me, &table);
        assert!(
            !table.is_doomed(me),
            "upgrading own line never self-conflicts"
        );
    }

    /// `line`'s writer and readers, decoded from its unlocked word and, if
    /// the word says so, the spill map. Asserts the word's invariants on
    /// the way: it is 0 exactly when the line has no holder, and its
    /// spilled bit is set exactly when the spill map holds the line.
    fn holders(dir: &Directory, line: LineId, step: &str) -> (Option<u32>, Vec<u32>) {
        let w = Word(dir.word(line).load(Ordering::SeqCst));
        assert!(!w.locked(), "after {step}: line {} is locked", line.0);
        let listed = dir.spill.lock().get(&line.0).cloned();
        assert_eq!(
            w.spilled(),
            listed.is_some(),
            "after {step}: line {}'s spilled bit disagrees with the spill map",
            line.0
        );
        let readers = match listed {
            Some(list) => {
                assert_eq!((w.reader(0), w.reader(1)), (None, None));
                list
            }
            None => (0..INLINE_READERS).map_while(|i| w.reader(i)).collect(),
        };
        assert_eq!(
            w.0 == 0,
            w.writer().is_none() && readers.is_empty(),
            "after {step}: line {}'s word {:#x} disagrees with its holders",
            line.0,
            w.0
        );
        (w.writer(), readers)
    }

    #[test]
    fn word_is_zero_exactly_while_the_line_has_no_holder() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let lines = [LineId(1), LineId(2), LineId(3), LineId(4)];
        let [read_line, write_line, upgraded, dead_writer_line] = lines;
        let check = |step: &str, expected: [(Option<u32>, &[u32]); 4]| {
            for (&line, (writer, readers)) in lines.iter().zip(expected) {
                assert_eq!(
                    holders(&dir, line, step),
                    (writer, readers.to_vec()),
                    "after {step}: line {}",
                    line.0
                );
            }
        };
        let none = (None, &[][..]);
        check("nothing", [none; 4]);

        table.begin(0, 1);
        let t0 = owner(0, 1);
        dir.acquire_read(read_line, t0, &table);
        check("acquire_read", [(None, &[0]), none, none, none]);
        dir.acquire_write(write_line, t0, &table);
        dir.acquire_read(upgraded, t0, &table);
        dir.acquire_write(upgraded, t0, &table);
        let t0_holds = [(None, &[0][..]), (Some(0), &[]), (Some(0), &[0]), none];
        check("acquire_write and a same-transaction upgrade", t0_holds);

        // Releasing lines a transaction never got touches no other
        // thread's registration.
        table.begin(1, 1);
        let t1 = owner(1, 1);
        dir.release(t1, [read_line].iter(), [write_line, upgraded].iter());
        check("release of lines never acquired", t0_holds);

        // An untracked store drains t0 as both reader and writer of the
        // upgraded line.
        dir.untracked_access(upgraded, UntrackedKind::Write, 3, &table);
        assert!(table.is_doomed(t0));
        check(
            "untracked write",
            [(None, &[0]), (Some(0), &[]), none, none],
        );

        // An untracked read clears a dead writer and the word goes to 0.
        table.begin(2, 1);
        let t2 = owner(2, 1);
        dir.acquire_write(dead_writer_line, t2, &table);
        let _ = table.doom(t2);
        dir.untracked_access(dead_writer_line, UntrackedKind::Read, 3, &table);
        check(
            "untracked read clearing a dead writer",
            [(None, &[0]), (Some(0), &[]), none, none],
        );

        dir.release(
            t0,
            [read_line, upgraded].iter(),
            [write_line, upgraded].iter(),
        );
        check("release of read and write lines", [none; 4]);
        dir.release(t2, [].iter(), [dead_writer_line].iter());
        check("release of an already cleared line", [none; 4]);
        assert_eq!(dir.live_lines(), 0);
    }

    #[test]
    fn spilled_readers_are_doomed_blamed_and_released() {
        const READERS: u32 = 4;
        assert!(READERS as usize > INLINE_READERS);
        let line = LineId(5);
        let setup = || {
            let dir = Directory::new(16);
            let table = TxTable::new(8);
            let readers: Vec<Owner> = (0..READERS).map(|t| owner(t, 1)).collect();
            for &r in &readers {
                table.begin(r.tid, 1);
                dir.acquire_read(line, r, &table);
            }
            assert_eq!(holders(&dir, line, "spill"), (None, vec![0, 1, 2, 3]));
            table.begin(READERS, 1);
            (dir, table, readers, owner(READERS, 1))
        };
        let release_all = |dir: &Directory, readers: &[Owner], writer: Owner| {
            for &r in readers {
                dir.release(r, [line].iter(), [].iter());
            }
            dir.release(writer, [].iter(), [line].iter());
            assert_eq!(holders(dir, line, "release"), (None, vec![]));
        };

        // The writer dooms all four and is named by each.
        let (dir, table, readers, writer) = setup();
        dir.acquire_write(line, writer, &table);
        for &r in &readers {
            assert!(table.is_doomed(r), "reader {} survived", r.tid);
            assert_eq!(table.take_conflict(r), Some((line.0, writer.tid)));
        }
        assert!(!table.is_doomed(writer));
        // The emptied list stays spilled while the writer holds the line.
        assert_eq!(holders(&dir, line, "write"), (Some(writer.tid), vec![]));
        release_all(&dir, &readers, writer);

        // A spilled reader's release keeps the remaining readers' order.
        let (dir, _table, readers, writer) = setup();
        dir.release(readers[1], [line].iter(), [].iter());
        assert_eq!(holders(&dir, line, "release"), (None, vec![0, 2, 3]));
        release_all(&dir, &readers, writer);

        // An untracked store dooms all four too.
        let (dir, table, readers, writer) = setup();
        dir.untracked_access(line, UntrackedKind::Write, 7, &table);
        for &r in &readers {
            assert!(table.is_doomed(r), "reader {} survived", r.tid);
            assert_eq!(table.take_conflict(r), Some((line.0, 7)));
        }
        assert_eq!(holders(&dir, line, "untracked write"), (None, vec![]));
        release_all(&dir, &readers, writer);
    }

    #[test]
    fn untracked_ops_run_while_the_word_is_locked() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let line = LineId(6);
        let locked = || Word(dir.word(line).load(Ordering::SeqCst)).locked();
        dir.untracked_op(line, UntrackedKind::Write, 3, &table, || {
            assert!(locked(), "store to an unheld line");
        });
        table.begin(0, 1);
        dir.acquire_read(line, owner(0, 1), &table);
        dir.untracked_op(line, UntrackedKind::Read, 3, &table, || {
            assert!(locked(), "load of a held line");
        });
        dir.untracked_op(line, UntrackedKind::Write, 3, &table, || {
            assert!(locked(), "store to a held line");
        });
        assert!(!locked());
    }

    /// Holds `line`'s lock bit inside an untracked `kind` op while a second
    /// thread, started inside it, runs `change`, and asserts that `change`
    /// finishes only after the word is unlocked. The 50-ms pause only gives
    /// a `change` that ignores the lock bit time to finish and be caught.
    fn assert_waits_for_the_lock(
        dir: &Directory,
        table: &TxTable,
        line: LineId,
        kind: UntrackedKind,
        change: impl FnOnce() + Send,
    ) {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let (started, done) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|s| {
            dir.untracked_op(line, kind, 3, table, || {
                s.spawn(|| {
                    started.wait();
                    change();
                    done.store(true, Ordering::SeqCst);
                });
                started.wait();
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert!(!done.load(Ordering::SeqCst), "a locked word changed");
            });
        });
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn fast_paths_wait_for_a_locked_word() {
        let dir = Directory::new(16);
        let table = TxTable::new(4);
        let (line, other) = (LineId(2), LineId(3));
        table.begin(0, 1);
        table.begin(1, 1);
        let (t0, t1) = (owner(0, 1), owner(1, 1));
        assert_waits_for_the_lock(&dir, &table, line, UntrackedKind::Write, || {
            dir.acquire_read(line, t0, &table);
        });
        assert_waits_for_the_lock(&dir, &table, other, UntrackedKind::Write, || {
            dir.acquire_write(other, t1, &table);
        });
        assert_eq!(
            (holders(&dir, line, "read"), holders(&dir, other, "write")),
            ((None, vec![0]), (Some(1), vec![]))
        );
        assert_waits_for_the_lock(&dir, &table, line, UntrackedKind::Read, || {
            dir.release(t0, [line].iter(), [].iter());
        });
        // The untracked read of t1's written line dooms t1 (strong
        // isolation), but the word keeps showing t1 until the unlock.
        assert_waits_for_the_lock(&dir, &table, other, UntrackedKind::Read, || {
            dir.release(t1, [].iter(), [other].iter());
        });
        assert!(!table.is_doomed(t0) && table.is_doomed(t1));
        assert_eq!(dir.live_lines(), 0);
    }
}
