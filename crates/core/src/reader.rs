//! The SpRWL read path: optimistic HTM attempt (§3.4), reader
//! synchronization (§3.2.1, Alg. 2), and the uninstrumented fast path with
//! the fallback-lock handshake (§3.1, Alg. 1).

use htm_sim::clock;
use htm_sim::TxKind;
use sprwl_locks::{AbortCause, CommitMode, LockThread, RetryPolicy, Role, SectionBody, SectionId};
use sprwl_trace::{EventKind, TraceBuffer, TraceRole, NO_LINE, NO_PEER};

use crate::lock::{SpRwl, NONE, STATE_WRITER};

/// Records a speculative abort in both the stats and the trace, pulling
/// conflict attribution (line + peer) out of the thread context when the
/// substrate provided it.
pub(crate) fn note_abort(t: &mut LockThread<'_>, abort: htm_sim::Abort, kind: TxKind) {
    let cause = AbortCause::classify(abort, kind);
    t.stats.record_abort(cause);
    let (line, peer) = match t.ctx.last_conflict() {
        Some(info) => {
            t.stats.record_conflict(info.line.index() as u64, info.peer);
            (info.line.index() as u64, info.peer)
        }
        None => (NO_LINE, NO_PEER),
    };
    t.trace.push(EventKind::TxAbort {
        cause: cause.label(),
        line,
        peer,
    });
}

impl SpRwl {
    pub(crate) fn do_read(
        &self,
        t: &mut LockThread<'_>,
        sec: SectionId,
        f: SectionBody<'_>,
    ) -> u64 {
        let start = clock::now();
        let tid = t.tid();
        self.check_tid(tid);
        let mem = t.ctx.htm().memory();
        t.trace.push(EventKind::SectionBegin {
            role: TraceRole::Reader,
            sec: sec.0,
        });

        // §3.4 optimization: attempt the read section speculatively first.
        // Readers that fit in HTM commit like TLE would; capacity aborts
        // switch to the uninstrumented path immediately. Under the
        // predictive refinement, a section whose last probe overflowed
        // capacity skips hardware for a window of executions.
        if self.cfg.readers_try_htm && self.reader_htm_worth_probing(sec) {
            let mut attempts = 0u32;
            loop {
                self.fallback.wait_until_free(mem);
                attempts += 1;
                t.trace.push(EventKind::TxAttempt {
                    role: TraceRole::Reader,
                    attempt: attempts,
                });
                match t.ctx.txn(TxKind::Htm, |tx| {
                    self.fallback.subscribe(tx)?;
                    let t0 = clock::now();
                    let r = f(tx)?;
                    let fp = (tx.read_footprint() as u32, tx.write_footprint() as u32);
                    Ok((r, clock::now() - t0, fp))
                }) {
                    Ok((r, dur, (read_fp, write_fp))) => {
                        self.est.record(tid, sec, dur);
                        let latency_ns = clock::now() - start;
                        t.stats
                            .record_commit(Role::Reader, CommitMode::Htm, latency_ns);
                        t.trace.push(EventKind::TxCommit {
                            mode: CommitMode::Htm.label(),
                            read_fp,
                            write_fp,
                        });
                        t.trace.push(EventKind::SectionEnd {
                            role: TraceRole::Reader,
                            sec: sec.0,
                            mode: CommitMode::Htm.label(),
                            latency_ns,
                        });
                        return r;
                    }
                    Err(abort) => {
                        note_abort(t, abort, TxKind::Htm);
                        if abort.is_capacity() && self.cfg.adaptive_reader_htm {
                            self.htm_skip[sec.index()].store(crate::lock::HTM_PROBE_WINDOW);
                        }
                        if !RetryPolicy::PAPER_DEFAULT.should_retry(attempts, abort) {
                            break;
                        }
                    }
                }
            }
        }

        // §3.2.1: synchronize with active writers before announcing.
        if self.cfg.scheduling.readers_wait() {
            self.readers_wait(tid, mem, &mut t.trace);
        }
        // §3.2.2: advertise our expected end time so aborted writers can
        // time their retry.
        if self.cfg.scheduling.writers_wait() {
            self.clock_r[tid].store(self.est.end_time(sec));
        }

        // Alg. 1: announce, then defer to a fallback-lock holder if any
        // (withdrawing the announcement first — this ordering is what makes
        // reader/fallback-writer deadlock impossible, §3.3).
        let d = t.ctx.direct();
        let reg = loop {
            let reg = self.flag_reader(&d, tid);
            // A registration left by an earlier admission check means this
            // entry bypasses (or outlived) a fallback-lock holder (§3.3).
            let registered = self.waiting_version[tid].load();
            if self.reader_may_proceed(tid, mem) {
                if self.cfg.versioned_sgl && registered != NONE {
                    t.trace.push(EventKind::SglBypassEnter { registered });
                }
                break reg;
            }
            self.unflag_reader(&d, tid, reg);
            self.reader_wait_for_gl(tid, mem);
        };
        if reg.rearmed {
            // This arrival flipped the BRAVO bias word back on after a
            // revocation cooldown.
            t.trace.push(EventKind::BiasRearm);
        }
        t.trace.push(EventKind::ReaderArrive);

        let t0 = clock::now();
        let mut acc = t.ctx.direct();
        let r = f(&mut acc).expect("uninstrumented read sections cannot abort");
        let dur = clock::now() - t0;

        self.unflag_reader(&d, tid, reg);
        t.trace.push(EventKind::ReaderDepart);
        if self.cfg.scheduling.writers_wait() {
            self.clock_r[tid].store(0);
        }
        self.est.record(tid, sec, dur);
        let latency_ns = clock::now() - start;
        t.stats
            .record_commit(Role::Reader, CommitMode::Unins, latency_ns);
        t.trace.push(EventKind::SectionEnd {
            role: TraceRole::Reader,
            sec: sec.0,
            mode: CommitMode::Unins.label(),
            latency_ns,
        });
        r
    }

    /// Predictive readers-try-HTM (§3.4): `true` when the section should
    /// probe hardware. Capacity-doomed sections decrement a skip budget;
    /// when it drains, one probe is allowed (re-arming on another capacity
    /// abort). Racy decrements are fine — this is a statistical policy.
    fn reader_htm_worth_probing(&self, sec: sprwl_locks::SectionId) -> bool {
        if !self.cfg.adaptive_reader_htm {
            return true;
        }
        let slot = &self.htm_skip[sec.index()];
        let remaining = slot.load();
        if remaining == 0 {
            return true;
        }
        slot.store(remaining - 1);
        false
    }

    /// `Readers_Wait()` (Alg. 2): wait for the active writer expected to
    /// finish last — or join a reader already waiting, aligning reader
    /// start times (the `RSync` refinement over `RWait`).
    fn readers_wait(&self, tid: usize, mem: &htm_sim::SimMemory, trace: &mut TraceBuffer) {
        let mut wait_for: Option<usize> = None;
        let mut joined = false;
        let mut max_end = 0u64;
        for i in 0..self.n {
            if i == tid {
                continue;
            }
            if mem.peek(self.readers.state[i]) == STATE_WRITER {
                let end = self.clock_w[i].load();
                if end >= max_end {
                    max_end = end;
                    wait_for = Some(i);
                }
            } else if self.cfg.scheduling.readers_join() {
                let wf = self.waiting_for[i].load();
                if wf != NONE {
                    // Join the waiting reader: start as soon as it does.
                    wait_for = Some(wf as usize);
                    joined = true;
                    break;
                }
            }
        }
        let Some(w) = wait_for else { return };
        if joined {
            trace.push(EventKind::SchedJoinWaiter { target: w as u32 });
        }
        self.waiting_for[tid].store(w as u64);
        // Bound the wait by the writer's advertised end time plus one
        // refresh (it may start one more section before we sample the flag
        // down). Safety never depends on this wait — it only trades reader
        // latency against writer aborts — and an unbounded poll can starve
        // readers on hosts whose schedulers sample the flag too coarsely
        // to catch the brief flag-down window between back-to-back writes.
        let start = clock::now();
        let advertised_end = self.clock_w[w].load().max(start);
        let section_est = advertised_end - start;
        let deadline = advertised_end + section_est + 10_000;
        trace.push(EventKind::SchedWaitWriter {
            writer: w as u32,
            deadline,
        });
        let mut spin = clock::SpinWait::new();
        while mem.peek(self.readers.state[w]) == STATE_WRITER && clock::now() < deadline {
            spin.snooze();
        }
        self.waiting_for[tid].store(NONE);
    }

    /// Alg. 1 line 29 (plus the §3.3 versioned extension): may an announced
    /// reader enter, or must it defer to a fallback-lock writer?
    pub(crate) fn reader_may_proceed(&self, tid: usize, mem: &htm_sim::SimMemory) -> bool {
        let (version, locked) = self.fallback.peek(mem);
        if !locked {
            self.waiting_version[tid].store(NONE);
            return true;
        }
        if !self.cfg.versioned_sgl {
            return false;
        }
        // Versioned SGL: remember the first version we observed; once the
        // version has advanced past it, we have waited through a full
        // writer turn and may enter — the current holder defers to us (it
        // waits for registered versions smaller than its own before
        // executing, and for our state flag afterwards).
        let registered = self.waiting_version[tid].load();
        if registered == NONE {
            self.waiting_version[tid].store(version);
            false
        } else if version > registered {
            self.waiting_version[tid].store(NONE);
            true
        } else {
            false
        }
    }

    /// Wait until the fallback lock frees (or, versioned, until its version
    /// advances past our registration so we may bypass).
    pub(crate) fn reader_wait_for_gl(&self, tid: usize, mem: &htm_sim::SimMemory) {
        let mut spin = clock::SpinWait::new();
        loop {
            let (version, locked) = self.fallback.peek(mem);
            if !locked {
                return;
            }
            if self.cfg.versioned_sgl {
                let registered = self.waiting_version[tid].load();
                if registered != NONE && version > registered {
                    return;
                }
            }
            spin.snooze();
        }
    }

    /// Test hook: the Alg. 1 admission check (plus §3.3 registration side
    /// effects) exposed for white-box versioned-SGL tests.
    #[doc(hidden)]
    pub fn debug_reader_may_proceed(&self, tid: usize, mem: &htm_sim::SimMemory) -> bool {
        self.reader_may_proceed(tid, mem)
    }

    /// Test hook: the blocking reader-vs-fallback-lock wait exposed for
    /// white-box versioned-SGL tests.
    #[doc(hidden)]
    pub fn debug_reader_wait_for_gl(&self, tid: usize, mem: &htm_sim::SimMemory) {
        self.reader_wait_for_gl(tid, mem)
    }

    /// Test hook: whether this lock's scheduling would make a reader wait
    /// right now (used by scheduling unit tests).
    #[doc(hidden)]
    pub fn would_reader_wait(&self, tid: usize, mem: &htm_sim::SimMemory) -> bool {
        if !self.cfg.scheduling.readers_wait() {
            return false;
        }
        (0..self.n).any(|i| {
            i != tid
                && (mem.peek(self.readers.state[i]) == STATE_WRITER
                    || (self.cfg.scheduling.readers_join() && self.waiting_for[i].load() != NONE))
        })
    }
}
