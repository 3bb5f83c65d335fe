//! Plain transactional lock elision (TLE): every critical section —
//! read-only or updating — is attempted as a hardware transaction that
//! subscribes a single global lock; after the retry budget (or immediately
//! on capacity aborts) it falls back to acquiring the lock pessimistically.
//!
//! This is the paper's `TLE` baseline: great when everything fits in HTM,
//! and exactly the scheme whose long-reader collapse motivates SpRWL.

use htm_sim::clock;
use htm_sim::{Htm, TxKind};

use crate::api::{run_untracked, LockThread, RwSync, SectionBody, SectionId};
use crate::policy::RetryPolicy;
use crate::sgl::GlobalLock;
use crate::stats::{AbortCause, CommitMode, Role};

/// Transactional lock elision over a single global lock.
#[derive(Debug)]
pub struct Tle {
    gl: GlobalLock,
}

impl Tle {
    /// Creates the elision scheme, allocating its fallback lock from the
    /// runtime's simulated memory.
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn new(htm: &Htm) -> Self {
        Self {
            gl: GlobalLock::new(htm.memory()),
        }
    }

    /// The fallback lock (exposed for tests).
    pub fn global_lock(&self) -> &GlobalLock {
        &self.gl
    }

    fn section(&self, t: &mut LockThread<'_>, role: Role, f: SectionBody<'_>) -> u64 {
        let start = clock::now();
        let mut attempts = 0u32;
        loop {
            // Wait until the lock is free before (re)trying in hardware —
            // beginning while it is held would abort immediately.
            self.gl.wait_until_free(t.ctx.htm().memory());
            attempts += 1;
            let gl = self.gl;
            match t.ctx.txn(TxKind::Htm, |tx| {
                gl.subscribe(tx)?;
                f(tx)
            }) {
                Ok(r) => {
                    t.stats
                        .record_commit(role, CommitMode::Htm, clock::now() - start);
                    return r;
                }
                Err(abort) => {
                    t.stats
                        .record_abort(AbortCause::classify(abort, TxKind::Htm));
                    if !RetryPolicy::PAPER_DEFAULT.should_retry(attempts, abort) {
                        break;
                    }
                }
            }
        }
        // Pessimistic fallback: take the lock, run uninstrumented.
        let d = t.ctx.direct();
        self.gl.acquire(&d);
        let r = run_untracked(t, f);
        self.gl.release(&t.ctx.direct());
        t.stats
            .record_commit(role, CommitMode::Gl, clock::now() - start);
        r
    }
}

impl RwSync for Tle {
    fn name(&self) -> &'static str {
        "TLE"
    }

    fn read_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        self.section(t, Role::Reader, f)
    }

    fn write_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        self.section(t, Role::Writer, f)
    }

    fn check_quiescent(&self, mem: &htm_sim::SimMemory) -> Result<(), String> {
        if self.gl.is_locked_peek(mem) {
            return Err("TLE: fallback lock still held at quiescence".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SectionId;
    use htm_sim::{CapacityProfile, HtmConfig};

    fn setup(profile: CapacityProfile) -> Htm {
        Htm::new(
            HtmConfig {
                capacity: profile,
                max_threads: 8,
                ..HtmConfig::default()
            },
            8192,
        )
    }

    #[test]
    fn small_sections_commit_in_htm() {
        let htm = setup(CapacityProfile::BROADWELL_SIM);
        let tle = Tle::new(&htm);
        let cell = htm.memory().alloc(1).cell(0);
        let mut t = LockThread::new(htm.thread(0));
        let r = tle.write_section(&mut t, SectionId(0), &mut |a| {
            let v = a.read(cell)?;
            a.write(cell, v + 1)?;
            Ok(v + 1)
        });
        assert_eq!(r, 1);
        assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Htm), 1);
        assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Gl), 0);
    }

    #[test]
    fn oversized_sections_fall_back_to_the_lock() {
        let htm = setup(CapacityProfile::TINY); // 4 read lines
        let tle = Tle::new(&htm);
        let region = htm.memory().alloc_line_aligned(8 * 8);
        let mut t = LockThread::new(htm.thread(0));
        let r = tle.read_section(&mut t, SectionId(0), &mut |a| {
            let mut sum = 0;
            for i in 0..8 {
                sum += a.read(region.cell(i * 8))?;
            }
            Ok(sum)
        });
        assert_eq!(r, 0);
        assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Gl), 1);
        assert_eq!(
            t.stats.aborts_of(AbortCause::Capacity),
            1,
            "immediate fallback"
        );
    }

    #[test]
    fn concurrent_elision_preserves_counter() {
        const THREADS: usize = 4;
        let htm = setup(CapacityProfile::BROADWELL_SIM);
        let tle = Tle::new(&htm);
        let cell = htm.memory().alloc(1).cell(0);
        std::thread::scope(|s| {
            for tid in 0..THREADS {
                let htm = &htm;
                let tle = &tle;
                s.spawn(move || {
                    let mut t = LockThread::new(htm.thread(tid));
                    for _ in 0..200 {
                        tle.write_section(&mut t, SectionId(0), &mut |a| {
                            let v = a.read(cell)?;
                            a.write(cell, v + 1)?;
                            Ok(v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(htm.direct(0).load(cell), (THREADS * 200) as u64);
    }

    #[test]
    fn fallback_holder_excludes_htm_commits() {
        let htm = setup(CapacityProfile::BROADWELL_SIM);
        let tle = Tle::new(&htm);
        let cell = htm.memory().alloc(1).cell(0);
        // Hold the fallback lock; an eliding thread must wait, not commit.
        let holder = htm.direct(1);
        tle.global_lock().acquire(&holder);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let htm_ref = &htm;
            let tle_ref = &tle;
            let done_ref = &done;
            s.spawn(move || {
                let mut t = LockThread::new(htm_ref.thread(0));
                tle_ref.write_section(&mut t, SectionId(0), &mut |a| {
                    a.write(cell, 1)?;
                    Ok(0)
                });
                done_ref.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert!(!done.load(std::sync::atomic::Ordering::SeqCst));
            assert_eq!(htm.direct(2).load(cell), 0);
            tle.global_lock().release(&holder);
        });
        assert!(done.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(htm.direct(2).load(cell), 1);
    }
}
