//! Hardware Read-Write Lock Elision (RW-LE — Felber, Issa, Matveev,
//! Romano, EuroSys'16): the POWER8-only baseline the paper compares
//! against.
//!
//! Readers run **uninstrumented**, publishing per-thread sequence numbers
//! (odd = inside a read critical section). Writers run speculatively —
//! first as plain HTM transactions, then as rollback-only transactions
//! (ROTs, which track no reads and so fit large write sections) — and,
//! before committing, *suspend* the transaction and wait for every reader
//! that was active at that point to drain (the quiescence phase). Safety
//! against readers that slip in during the race window comes from strong
//! isolation: an uninstrumented read of a line the transaction wrote dooms
//! the transaction.
//!
//! A ROT tracks no reads, so nothing dooms it when another writer commits
//! to a line it has already read; its commit would then lose that update.
//! Writers therefore pass a *writer gate* before their first ROT attempt:
//! the gate is taken untracked and held through the ROT phase and the
//! lock fallback, and HTM-phase writers subscribe to it, so a ROT never
//! runs next to another writer.
//!
//! Both the ROT flavour and suspend/resume exist only on POWER8, which is
//! exactly why RW-LE — unlike SpRWL — cannot run on Intel machines; the
//! constructor enforces the same restriction against the capacity profile.

use std::sync::atomic::{AtomicU64, Ordering};

use htm_sim::clock::{self, SpinWait};
use htm_sim::{Htm, Suspended, TxKind};

use crate::api::{run_untracked, LockThread, RwSync, SectionBody, SectionId};
use crate::policy::RetryPolicy;
use crate::sgl::{GlobalLock, ABORT_LOCKED};
use crate::stats::{AbortCause, CommitMode, Role};

#[derive(Debug)]
#[repr(align(64))]
struct SeqSlot(AtomicU64);

impl Default for SeqSlot {
    fn default() -> Self {
        Self(AtomicU64::new(0))
    }
}

/// The RW-LE elision scheme.
#[derive(Debug)]
pub struct RwLe {
    gl: GlobalLock,
    /// Held by the one writer in its ROT phase or lock fallback.
    gate: GlobalLock,
    seq: Box<[SeqSlot]>,
    htm_policy: RetryPolicy,
    rot_policy: RetryPolicy,
}

impl RwLe {
    /// Creates the scheme for up to `htm.max_threads()` threads.
    ///
    /// # Panics
    ///
    /// Panics if the capacity profile does not support ROTs (RW-LE is
    /// POWER8-only, exactly as in the paper) or the simulated memory is
    /// exhausted.
    pub fn new(htm: &Htm) -> Self {
        assert!(
            htm.config().capacity.supports_rot(),
            "RW-LE requires POWER8 ROTs; profile `{}` lacks them",
            htm.config().capacity.name
        );
        let mut seq = Vec::with_capacity(htm.max_threads());
        seq.resize_with(htm.max_threads(), SeqSlot::default);
        Self {
            gl: GlobalLock::new(htm.memory()),
            gate: GlobalLock::new(htm.memory()),
            seq: seq.into_boxed_slice(),
            htm_policy: RetryPolicy::RWLE_ROT,
            rot_policy: RetryPolicy::RWLE_ROT,
        }
    }

    /// The fallback lock (exposed for tests).
    pub fn global_lock(&self) -> &GlobalLock {
        &self.gl
    }

    /// Quiescence: wait until every reader active *now* (other than `me`)
    /// has finished its current read critical section.
    fn wait_readers_drain(&self, me: usize) {
        let snapshot: Vec<(usize, u64)> = self
            .seq
            .iter()
            .enumerate()
            .filter(|&(tid, s)| tid != me && s.0.load(Ordering::SeqCst) % 2 == 1)
            .map(|(tid, s)| (tid, s.0.load(Ordering::SeqCst)))
            .collect();
        for (tid, seen) in snapshot {
            if seen % 2 == 0 {
                continue;
            }
            let mut wait = SpinWait::new();
            while self.seq[tid].0.load(Ordering::SeqCst) == seen {
                wait.snooze();
            }
        }
    }

    fn quiesce_suspended(&self, s: &Suspended<'_>) -> bool {
        self.wait_readers_drain(s.tid());
        // The global lock is read untracked here (ROTs track no reads), so
        // report its state for an explicit abort instead of relying on
        // subscription dooming.
        !self.gl.is_locked_peek(s.htm().memory())
    }
}

impl RwSync for RwLe {
    fn name(&self) -> &'static str {
        "RW-LE"
    }

    fn read_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        let start = clock::now();
        let tid = t.tid();
        let slot = &self.seq[tid].0;
        loop {
            slot.fetch_add(1, Ordering::SeqCst); // odd: active
            if !self.gl.is_locked_peek(t.ctx.htm().memory()) {
                break;
            }
            // A pessimistic writer holds the lock: withdraw and wait.
            slot.fetch_add(1, Ordering::SeqCst); // even: idle
            self.gl.wait_until_free(t.ctx.htm().memory());
        }
        let r = run_untracked(t, f);
        slot.fetch_add(1, Ordering::SeqCst); // even: idle
        t.stats
            .record_commit(Role::Reader, CommitMode::Unins, clock::now() - start);
        r
    }

    fn write_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        let start = clock::now();
        let mem = t.ctx.htm().memory();

        // Phase 1: plain HTM with lock and gate subscription + quiescence.
        let mut attempts = 0u32;
        loop {
            self.gl.wait_until_free(mem);
            self.gate.wait_until_free(mem);
            attempts += 1;
            let (gl, gate) = (self.gl, self.gate);
            let this = self;
            match t.ctx.txn(TxKind::Htm, |tx| {
                gl.subscribe(tx)?;
                gate.subscribe(tx)?;
                let r = f(tx)?;
                let lock_free = tx.suspend(|s| this.quiesce_suspended(s))?;
                if !lock_free {
                    return tx.abort(ABORT_LOCKED);
                }
                Ok(r)
            }) {
                Ok(r) => {
                    t.stats
                        .record_commit(Role::Writer, CommitMode::Htm, clock::now() - start);
                    return r;
                }
                Err(abort) => {
                    t.stats
                        .record_abort(AbortCause::classify(abort, TxKind::Htm));
                    if !self.htm_policy.should_retry(attempts, abort) {
                        break;
                    }
                }
            }
        }

        // Phase 2: rollback-only transactions (no read-set ⇒ no read
        // capacity, no conflict aborts from reader metadata). Taking the
        // gate dooms every subscribed HTM writer and keeps new ones out
        // until this section commits.
        self.gate.acquire(&t.ctx.direct());
        let mut attempts = 0u32;
        loop {
            self.gl.wait_until_free(mem);
            attempts += 1;
            let this = self;
            match t.ctx.txn(TxKind::Rot, |tx| {
                let r = f(tx)?;
                let lock_free = tx.suspend(|s| this.quiesce_suspended(s))?;
                if !lock_free {
                    return tx.abort(ABORT_LOCKED);
                }
                Ok(r)
            }) {
                Ok(r) => {
                    self.gate.release(&t.ctx.direct());
                    t.stats
                        .record_commit(Role::Writer, CommitMode::Rot, clock::now() - start);
                    return r;
                }
                Err(abort) => {
                    t.stats
                        .record_abort(AbortCause::classify(abort, TxKind::Rot));
                    if !self.rot_policy.should_retry(attempts, abort) {
                        break;
                    }
                }
            }
        }

        // Phase 3: pessimistic fallback — take the lock, wait for readers,
        // run uninstrumented.
        let d = t.ctx.direct();
        self.gl.acquire(&d);
        self.wait_readers_drain(t.tid());
        let r = run_untracked(t, f);
        self.gl.release(&t.ctx.direct());
        self.gate.release(&t.ctx.direct());
        t.stats
            .record_commit(Role::Writer, CommitMode::Gl, clock::now() - start);
        r
    }

    fn check_quiescent(&self, mem: &htm_sim::SimMemory) -> Result<(), String> {
        if self.gl.is_locked_peek(mem) {
            return Err("RW-LE: fallback lock still held at quiescence".into());
        }
        if self.gate.is_locked_peek(mem) {
            return Err("RW-LE: writer gate still held at quiescence".into());
        }
        for (tid, slot) in self.seq.iter().enumerate() {
            let v = slot.0.load(Ordering::SeqCst);
            if v % 2 == 1 {
                return Err(format!(
                    "RW-LE: reader {tid} still registered (seq={v}) at quiescence"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SectionId;
    use htm_sim::{CapacityProfile, HtmConfig};

    fn setup() -> Htm {
        Htm::new(
            HtmConfig {
                capacity: CapacityProfile::POWER8_SIM,
                max_threads: 8,
                ..HtmConfig::default()
            },
            16 * 1024,
        )
    }

    #[test]
    #[should_panic(expected = "POWER8")]
    fn rejects_intel_profiles() {
        let htm = Htm::new(
            HtmConfig {
                capacity: CapacityProfile::BROADWELL_SIM,
                ..HtmConfig::default()
            },
            1024,
        );
        let _ = RwLe::new(&htm);
    }

    #[test]
    fn readers_run_uninstrumented() {
        let htm = setup();
        let rwle = RwLe::new(&htm);
        let region = htm.memory().alloc_line_aligned(8 * 512); // 512 lines >> capacity
        let mut t = LockThread::new(htm.thread(0));
        let r = rwle.read_section(&mut t, SectionId(0), &mut |a| {
            let mut sum = 0;
            for i in 0..512 {
                sum += a.read(region.cell(i * 8))?;
            }
            Ok(sum)
        });
        assert_eq!(r, 0);
        assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Unins), 1);
        assert_eq!(t.stats.total_aborts(), 0, "no speculation on the read path");
    }

    #[test]
    fn small_writers_commit_in_htm() {
        let htm = setup();
        let rwle = RwLe::new(&htm);
        let cell = htm.memory().alloc(1).cell(0);
        let mut t = LockThread::new(htm.thread(0));
        rwle.write_section(&mut t, SectionId(1), &mut |a| {
            let v = a.read(cell)?;
            a.write(cell, v + 1)?;
            Ok(0)
        });
        assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Htm), 1);
        assert_eq!(htm.direct(0).load(cell), 1);
    }

    #[test]
    fn read_heavy_writers_fall_through_to_rots() {
        let htm = setup();
        let rwle = RwLe::new(&htm);
        // 256 lines of reads: over POWER8's 128-line read capacity, so the
        // HTM phase hits capacity and the ROT phase (untracked reads) wins.
        let region = htm.memory().alloc_line_aligned(8 * 256);
        let target = htm.memory().alloc(1).cell(0);
        let mut t = LockThread::new(htm.thread(0));
        rwle.write_section(&mut t, SectionId(2), &mut |a| {
            let mut sum = 0;
            for i in 0..256 {
                sum += a.read(region.cell(i * 8))?;
            }
            a.write(target, sum + 1)?;
            Ok(0)
        });
        assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Rot), 1);
        assert_eq!(t.stats.aborts_of(AbortCause::Capacity), 1);
        assert_eq!(htm.direct(0).load(target), 1);
    }

    #[test]
    fn writer_quiesces_behind_active_reader() {
        let htm = setup();
        let rwle = RwLe::new(&htm);
        let cell = htm.memory().alloc(1).cell(0);
        let reader_inside = std::sync::atomic::AtomicBool::new(false);
        let release_reader = std::sync::atomic::AtomicBool::new(false);
        let writer_done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let (htm_r, rwle_r) = (&htm, &rwle);
            let (ri, rr) = (&reader_inside, &release_reader);
            s.spawn(move || {
                let mut t = LockThread::new(htm_r.thread(0));
                rwle_r.read_section(&mut t, SectionId(0), &mut |a| {
                    ri.store(true, Ordering::SeqCst);
                    while !rr.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    a.read(cell)
                });
            });
            while !reader_inside.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let (htm_w, rwle_w, wd) = (&htm, &rwle, &writer_done);
            s.spawn(move || {
                let mut t = LockThread::new(htm_w.thread(1));
                rwle_w.write_section(&mut t, SectionId(1), &mut |a| {
                    a.write(cell, 7)?;
                    Ok(0)
                });
                wd.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(15));
            assert!(
                !writer_done.load(Ordering::SeqCst),
                "writer committed over an active reader"
            );
            assert_eq!(htm.direct(2).load(cell), 0, "no write visible yet");
            release_reader.store(true, Ordering::SeqCst);
        });
        assert!(writer_done.load(Ordering::SeqCst));
        assert_eq!(htm.direct(2).load(cell), 7);
    }

    #[test]
    fn concurrent_mix_preserves_invariants() {
        const THREADS: usize = 4;
        let htm = setup();
        let rwle = RwLe::new(&htm);
        let cells = htm.memory().alloc(4);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let (htm, rwle, cells) = (&htm, &rwle, &cells);
                s.spawn(move || {
                    let mut t = LockThread::new(htm.thread(tid));
                    for i in 0..150 {
                        if i % 3 == 0 {
                            // Writer: increment all cells by 1 (keeps them equal).
                            rwle.write_section(&mut t, SectionId(1), &mut |a| {
                                for c in 0..4 {
                                    let v = a.read(cells.cell(c))?;
                                    a.write(cells.cell(c), v + 1)?;
                                }
                                Ok(0)
                            });
                        } else {
                            // Reader: all cells must be equal (snapshot).
                            let eq = rwle.read_section(&mut t, SectionId(0), &mut |a| {
                                let v0 = a.read(cells.cell(0))?;
                                let mut ok = 1;
                                for c in 1..4 {
                                    if a.read(cells.cell(c))? != v0 {
                                        ok = 0;
                                    }
                                }
                                Ok(ok)
                            });
                            assert_eq!(eq, 1, "reader saw a torn update");
                        }
                    }
                });
            }
        });
    }
}
