//! Cross-lock composition: one critical section spanning **two** SpRWL
//! locks guarding disjoint data.
//!
//! Lock-based code regularly nests critical sections ("move a record from
//! table A to table B"), and linearizability is compositional — a history
//! over two linearizable locks must itself be linearizable over the union
//! of their data. [`SpRwlPair`] provides the composed section the torture
//! harness exercises to test exactly that guarantee: the section enters
//! the *outer* lock as a writer and the *inner* lock in either role
//! ([`InnerMode`]), while other threads keep using each lock individually.
//!
//! ## How the composition stays correct
//!
//! **Speculative path.** The whole composed body runs in a single hardware
//! transaction that subscribes *both* fallback locks (any fallback
//! acquisition on either side dooms it) and re-runs the commit-time reader
//! check on the outer lock always and on the inner lock when the section
//! writes the inner bank. Inner-bank *reads* need no flag check: a
//! conflicting inner writer either runs in HTM (the conflict is detected
//! in hardware) or holds the inner fallback (our subscription aborts us).
//!
//! **Fallback path.** Locks are acquired in the fixed global order
//! *outer, then inner*, which rules out cross-lock deadlock among
//! composed sections. For an inner *write* the section takes the inner
//! fallback too, with the same bypassing-reader and active-reader waits a
//! plain fallback writer performs. For an inner *read* it uses the real
//! reader admission protocol (announce, defer to a fallback holder,
//! re-announce): holding the outer fallback while waiting is safe because
//! an inner fallback holder never waits on the outer lock — it only
//! drains *flagged* inner readers, and this section only stays flagged
//! once the inner fallback is free (or the §3.3 version handshake has
//! entitled it to bypass, which the holder honours before executing).

use htm_sim::clock;
use htm_sim::{Htm, SimMemory, TxKind};
use sprwl_locks::{CommitMode, LockThread, RetryPolicy, Role, SectionBody, SectionId};
use sprwl_trace::{EventKind, TraceRole};

use crate::lock::{SpRwl, NONE, STATE_EMPTY, STATE_WRITER};
use crate::reader::note_abort;
use crate::SprwlConfig;

/// The role the composed section takes on the **inner** lock. (On the
/// outer lock it is always a writer.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerMode {
    /// Reader-in-writer nesting: the section only reads the inner bank.
    Read,
    /// Writer-in-writer nesting: the section writes both banks.
    Write,
}

impl InnerMode {
    /// Stable label for diagnostics and torture case names.
    pub fn label(self) -> &'static str {
        match self {
            InnerMode::Read => "read-in-writer",
            InnerMode::Write => "write-in-writer",
        }
    }
}

/// Two SpRWL locks with a composed two-lock critical section.
///
/// The pair owns both locks; plain single-lock sections go straight to
/// [`SpRwlPair::outer`] / [`SpRwlPair::inner`] (they implement
/// [`sprwl_locks::RwSync`] as usual), composed sections through
/// [`SpRwlPair::composed_section`]. Every composed section acquires in
/// the fixed order outer-then-inner.
#[derive(Debug)]
pub struct SpRwlPair {
    /// The lock the composed section enters first, always as a writer.
    pub outer: SpRwl,
    /// The lock the composed section enters second, in either role.
    pub inner: SpRwl,
}

impl SpRwlPair {
    /// Creates the pair over one HTM substrate with per-lock configs.
    pub fn new(htm: &Htm, outer: SprwlConfig, inner: SprwlConfig) -> Self {
        Self {
            outer: SpRwl::new(htm, outer),
            inner: SpRwl::new(htm, inner),
        }
    }

    /// Creates the pair with the paper-default configuration on both locks.
    pub fn with_defaults(htm: &Htm) -> Self {
        Self::new(htm, SprwlConfig::default(), SprwlConfig::default())
    }

    /// Verifies both locks are quiescent (torture oracle hook).
    ///
    /// # Errors
    ///
    /// Describes the first piece of non-quiescent state found, prefixed
    /// with the lock it belongs to.
    pub fn check_quiescent(&self, mem: &SimMemory) -> Result<(), String> {
        use sprwl_locks::RwSync;
        self.outer
            .check_quiescent(mem)
            .map_err(|e| format!("outer: {e}"))?;
        self.inner
            .check_quiescent(mem)
            .map_err(|e| format!("inner: {e}"))
    }

    /// Executes `f` with the outer lock held as a writer and the inner
    /// lock in `inner_mode`, atomically with respect to both locks.
    ///
    /// Records exactly one writer commit in `t.stats` (the composed
    /// section is one atomic step, not two).
    pub fn composed_section(
        &self,
        t: &mut LockThread<'_>,
        sec: SectionId,
        inner_mode: InnerMode,
        f: SectionBody<'_>,
    ) -> u64 {
        let start = clock::now();
        let tid = t.tid();
        let mem = t.ctx.htm().memory();
        t.trace.push(EventKind::SectionBegin {
            role: TraceRole::Writer,
            sec: sec.0,
        });

        // Writer advertisement on each lock we write, so newly arriving
        // readers of that lock defer to us (Alg. 2). Held across retries
        // and the fallback, cleared at commit — as in the plain write path.
        let adv_outer = self.outer.cfg.scheduling.readers_wait();
        if adv_outer {
            self.outer.clock_w[tid].store(self.outer.est.end_time(sec));
            t.ctx
                .direct()
                .store(self.outer.readers.state[tid], STATE_WRITER);
        }
        let adv_inner = inner_mode == InnerMode::Write && self.inner.cfg.scheduling.readers_wait();
        if adv_inner {
            self.inner.clock_w[tid].store(self.inner.est.end_time(sec));
            t.ctx
                .direct()
                .store(self.inner.readers.state[tid], STATE_WRITER);
        }

        let mut attempts = 0u32;
        let committed = loop {
            self.outer.fallback.wait_until_free(mem);
            self.inner.fallback.wait_until_free(mem);
            attempts += 1;
            t.trace.push(EventKind::TxAttempt {
                role: TraceRole::Writer,
                attempt: attempts,
            });
            match t.ctx.txn(TxKind::Htm, |tx| {
                self.outer.fallback.subscribe(tx)?;
                self.inner.fallback.subscribe(tx)?;
                let t0 = clock::now();
                let r = f(tx)?;
                let dur = clock::now() - t0;
                self.outer.check_for_readers(tx, tid)?;
                if inner_mode == InnerMode::Write {
                    self.inner.check_for_readers(tx, tid)?;
                }
                let fp = (tx.read_footprint() as u32, tx.write_footprint() as u32);
                Ok((r, dur, fp))
            }) {
                Ok((r, dur, (read_fp, write_fp))) => {
                    self.outer.est.record(tid, sec, dur);
                    self.adapt_both(t, dur);
                    t.trace.push(EventKind::TxCommit {
                        mode: CommitMode::Htm.label(),
                        read_fp,
                        write_fp,
                    });
                    break Some(r);
                }
                Err(abort) => {
                    note_abort(t, abort, TxKind::Htm);
                    // No δ-timed retry here: the single-lock heuristic
                    // targets *that* lock's last reader, which has no
                    // two-lock analogue. Retry immediately or fall back.
                    if !RetryPolicy::PAPER_DEFAULT.should_retry(attempts, abort) {
                        break None;
                    }
                }
            }
        };

        if let Some(r) = committed {
            if adv_inner {
                t.ctx
                    .direct()
                    .store(self.inner.readers.state[tid], STATE_EMPTY);
                self.inner.clock_w[tid].store(0);
            }
            if adv_outer {
                t.ctx
                    .direct()
                    .store(self.outer.readers.state[tid], STATE_EMPTY);
                self.outer.clock_w[tid].store(0);
            }
            let latency_ns = clock::now() - start;
            t.stats
                .record_commit(Role::Writer, CommitMode::Htm, latency_ns);
            t.trace.push(EventKind::SectionEnd {
                role: TraceRole::Writer,
                sec: sec.0,
                mode: CommitMode::Htm.label(),
                latency_ns,
            });
            return r;
        }

        // Fallback: outer first, then inner — the global order.
        let d = t.ctx.direct();
        let version = self.outer.fallback.acquire(&d);
        t.trace.push(EventKind::FallbackAcquire { version });
        if self.outer.cfg.versioned_sgl {
            self.outer.wait_for_bypassing_readers(version, &mut t.trace);
        }
        self.outer.wait_for_readers(&d, tid);

        let inner_reg = match inner_mode {
            InnerMode::Write => {
                let v = self.inner.fallback.acquire(&d);
                t.trace.push(EventKind::FallbackAcquire { version: v });
                if self.inner.cfg.versioned_sgl {
                    self.inner.wait_for_bypassing_readers(v, &mut t.trace);
                }
                self.inner.wait_for_readers(&d, tid);
                None
            }
            InnerMode::Read => {
                // The genuine reader admission protocol on the inner lock
                // (Alg. 1 / §3.3): announce, defer to a fallback holder,
                // re-announce. See the module docs for why waiting here
                // with the outer fallback held cannot deadlock.
                let reg = loop {
                    let reg = self.inner.flag_reader(&d, tid);
                    let registered = self.inner.waiting_version[tid].load();
                    if self.inner.reader_may_proceed(tid, mem) {
                        if self.inner.cfg.versioned_sgl && registered != NONE {
                            t.trace.push(EventKind::SglBypassEnter { registered });
                        }
                        break reg;
                    }
                    self.inner.unflag_reader(&d, tid, reg);
                    self.inner.reader_wait_for_gl(tid, mem);
                };
                t.trace.push(EventKind::ReaderArrive);
                Some(reg)
            }
        };

        let t0 = clock::now();
        let mut acc = t.ctx.direct();
        let r = f(&mut acc).expect("fallback composed sections cannot abort");
        let dur = clock::now() - t0;
        self.outer.est.record(tid, sec, dur);
        self.adapt_both(t, dur);

        // Teardown in reverse acquisition order; on each lock, withdraw
        // the advertisement *before* releasing (readers woken by the
        // release scan state/clock_w immediately).
        match inner_reg {
            Some(reg) => {
                self.inner.unflag_reader(&d, tid, reg);
                t.trace.push(EventKind::ReaderDepart);
            }
            None => {
                if adv_inner {
                    t.ctx
                        .direct()
                        .store(self.inner.readers.state[tid], STATE_EMPTY);
                    self.inner.clock_w[tid].store(0);
                }
                self.inner.fallback.release(&d);
                t.trace.push(EventKind::FallbackRelease);
            }
        }
        if adv_outer {
            t.ctx
                .direct()
                .store(self.outer.readers.state[tid], STATE_EMPTY);
            self.outer.clock_w[tid].store(0);
        }
        self.outer.fallback.release(&d);
        t.trace.push(EventKind::FallbackRelease);

        let latency_ns = clock::now() - start;
        t.stats
            .record_commit(Role::Writer, CommitMode::Gl, latency_ns);
        t.trace.push(EventKind::SectionEnd {
            role: TraceRole::Writer,
            sec: sec.0,
            mode: CommitMode::Gl.label(),
            latency_ns,
        });
        r
    }

    /// Feed the adaptive policies of both locks — the composed section
    /// occupied both, whatever its inner role.
    fn adapt_both(&self, t: &mut LockThread<'_>, dur: u64) {
        self.outer.adapt_after_section(t, false, dur);
        self.inner.adapt_after_section(t, false, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::HtmConfig;
    use sprwl_locks::RwSync;

    const SEC: SectionId = SectionId(2);

    #[test]
    fn composed_sections_update_both_banks() {
        let htm = Htm::new(HtmConfig::default(), 4096);
        let pair = SpRwlPair::with_defaults(&htm);
        let a = htm.memory().alloc_line_aligned(1).cell(0);
        let b = htm.memory().alloc_line_aligned(1).cell(0);
        let mut t = LockThread::new(htm.thread(0));
        for mode in [InnerMode::Write, InnerMode::Read] {
            pair.composed_section(&mut t, SEC, mode, &mut |m| {
                let va = m.read(a)?;
                m.write(a, va + 1)?;
                let vb = m.read(b)?;
                if mode == InnerMode::Write {
                    m.write(b, vb + 1)?;
                }
                Ok(va * 100 + vb)
            });
        }
        // Exactly one *writer* commit per composed section, never a
        // separate reader commit for the inner entry.
        let writer_commits = t.stats.commits_by(Role::Writer, CommitMode::Htm)
            + t.stats.commits_by(Role::Writer, CommitMode::Gl);
        assert_eq!(writer_commits, 2);
        assert_eq!(t.stats.total_commits(), 2);
        drop(t); // release the thread context before reclaiming tid 0
        let d = htm.thread(0).direct();
        assert_eq!(d.load(a), 2);
        assert_eq!(d.load(b), 1);
        pair.check_quiescent(htm.memory()).expect("quiescent");
    }

    #[test]
    fn composed_fallback_runs_under_both_locks() {
        let htm = Htm::new(HtmConfig::default(), 4096);
        let pair = SpRwlPair::with_defaults(&htm);
        let a = htm.memory().alloc_line_aligned(1).cell(0);
        let b = htm.memory().alloc_line_aligned(1).cell(0);

        // A reader flagged on the outer lock aborts every HTM attempt
        // (commit-time check) until the retry budget forces the composed
        // fallback; it unflags only once it *sees* the fallback acquired,
        // so the path is taken deterministically.
        std::thread::scope(|s| {
            let pair = &pair;
            let htm = &htm;
            s.spawn(move || {
                let ctx = htm.thread(1);
                let d1 = ctx.direct();
                let reg = pair.outer.flag_reader(&d1, 1);
                let mut spin = clock::SpinWait::new();
                while !pair.outer.debug_fallback_peek(htm.memory()).1 {
                    spin.snooze();
                }
                pair.outer.unflag_reader(&d1, 1, reg);
            });
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(0));
                // Only start once the reader flag is up, so every HTM
                // attempt is guaranteed to hit the commit check.
                let mut spin = clock::SpinWait::new();
                while !pair.outer.any_reader_flag_set(htm.memory(), 0) {
                    spin.snooze();
                }
                let r = pair.composed_section(&mut t, SEC, InnerMode::Write, &mut |m| {
                    let va = m.read(a)?;
                    m.write(a, va + 1)?;
                    let vb = m.read(b)?;
                    m.write(b, vb + 1)?;
                    Ok(va + vb)
                });
                assert_eq!(r, 0);
                assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Gl), 1);
            });
        });
        let d = htm.thread(0).direct();
        assert_eq!(d.load(a), 1);
        assert_eq!(d.load(b), 1);
        pair.check_quiescent(htm.memory()).expect("quiescent");
    }

    #[test]
    fn concurrent_plain_and_composed_sections_stay_consistent() {
        let htm = Htm::new(HtmConfig::default(), 8192);
        let pair = SpRwlPair::with_defaults(&htm);
        let a = htm.memory().alloc_line_aligned(1).cell(0);
        let b = htm.memory().alloc_line_aligned(1).cell(0);
        let iters = 60u64;

        std::thread::scope(|s| {
            let pair = &pair;
            let htm = &htm;
            // Composed write-in-writer increments both banks.
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(0));
                for _ in 0..iters {
                    pair.composed_section(&mut t, SEC, InnerMode::Write, &mut |m| {
                        let va = m.read(a)?;
                        m.write(a, va + 1)?;
                        let vb = m.read(b)?;
                        m.write(b, vb + 1)?;
                        Ok(va)
                    });
                }
            });
            // Composed read-in-writer increments outer, checks inner.
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(1));
                for _ in 0..iters {
                    pair.composed_section(&mut t, SEC, InnerMode::Read, &mut |m| {
                        let va = m.read(a)?;
                        m.write(a, va + 1)?;
                        m.read(b)
                    });
                }
            });
            // Plain writer on the inner lock.
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(2));
                for _ in 0..iters {
                    pair.inner.write_section(&mut t, SectionId(1), &mut |m| {
                        let vb = m.read(b)?;
                        m.write(b, vb + 1)?;
                        Ok(vb)
                    });
                }
            });
            // Plain reader on the outer lock.
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(3));
                for _ in 0..iters {
                    pair.outer
                        .read_section(&mut t, SectionId(0), &mut |m| m.read(a));
                }
            });
        });

        let d = htm.thread(0).direct();
        assert_eq!(d.load(a), 2 * iters);
        assert_eq!(d.load(b), 2 * iters);
        pair.check_quiescent(htm.memory()).expect("quiescent");
    }

    #[test]
    fn inner_mode_labels_are_stable() {
        assert_eq!(InnerMode::Read.label(), "read-in-writer");
        assert_eq!(InnerMode::Write.label(), "write-in-writer");
    }
}
