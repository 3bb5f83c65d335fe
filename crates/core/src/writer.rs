//! The SpRWL write path: speculative execution with the commit-time reader
//! check (§3.1, Alg. 1), writer advertisement for reader synchronization
//! (§3.2.1, Alg. 2), the timed retry of writer synchronization (§3.2.2,
//! Alg. 3), and the single-global-lock fallback (§3.1).

use htm_sim::clock;
use htm_sim::{Abort, TxKind};
use sprwl_locks::{
    CommitMode, LockThread, RetryPolicy, Role, SectionBody, SectionId, ABORT_READER,
};
use sprwl_trace::{EventKind, TraceBuffer, TraceRole};

use crate::lock::{SpRwl, NONE, STATE_EMPTY, STATE_READER, STATE_WRITER};
use crate::reader::note_abort;

impl SpRwl {
    pub(crate) fn do_write(
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
            role: TraceRole::Writer,
            sec: sec.0,
        });

        // Alg. 2: advertise ourselves so newly arriving readers defer to us
        // (fairness: they cannot abort an already-active writer). The flag
        // stays up across retries and the fallback — the paper calls this
        // out explicitly — and is cleared once the section commits.
        let advertise = self.cfg.scheduling.readers_wait();
        if advertise {
            self.clock_w[tid].store(self.est.end_time(sec));
            t.ctx.direct().store(self.readers.state[tid], STATE_WRITER);
        }

        // The speculative loop: retry per the paper's policy, then fall back
        // to the global lock. A capacity abort is not retried.
        let mut attempts = 0u32;
        loop {
            self.fallback.wait_until_free(mem);
            // BRAVO: the commit-time check requires the bias word verifiably
            // OFF inside the transaction, so revoke (untracked, draining the
            // visible-readers table) before attempting. One peek when bias
            // is already off; drain cost proportional to *active* readers.
            if self.cfg.reader_tracking == crate::config::ReaderTracking::Bravo {
                if let Some((occupied, scanned)) = self.readers.revoke_bias(&t.ctx.direct()) {
                    t.trace.push(EventKind::BiasRevoke { occupied, scanned });
                }
            }
            attempts += 1;
            t.trace.push(EventKind::TxAttempt {
                role: TraceRole::Writer,
                attempt: attempts,
            });
            match t.ctx.txn(TxKind::Htm, |tx| {
                self.fallback.subscribe(tx)?;
                let t0 = clock::now();
                let r = f(tx)?;
                let dur = clock::now() - t0;
                // W-checkR: commit only in the absence of active readers.
                self.check_for_readers(tx, tid)?;
                let fp = (tx.read_footprint() as u32, tx.write_footprint() as u32);
                Ok((r, dur, fp))
            }) {
                Ok((r, dur, (read_fp, write_fp))) => {
                    self.est.record(tid, sec, dur);
                    t.trace.push(EventKind::TxCommit {
                        mode: CommitMode::Htm.label(),
                        read_fp,
                        write_fp,
                    });
                    if advertise {
                        t.ctx.direct().store(self.readers.state[tid], STATE_EMPTY);
                        self.clock_w[tid].store(0);
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
                Err(abort) => {
                    note_abort(t, abort, TxKind::Htm);
                    if !RetryPolicy::PAPER_DEFAULT.should_retry(attempts, abort) {
                        break;
                    }
                    // Alg. 3: after a reader-induced abort, delay the retry
                    // so the re-execution finishes δ after the last reader.
                    if self.cfg.scheduling.writers_wait() && abort == Abort::Explicit(ABORT_READER)
                    {
                        self.writer_wait(tid, sec, mem, &mut t.trace);
                        if advertise {
                            // Refresh the advertised end time after the delay.
                            self.clock_w[tid].store(self.est.end_time(sec));
                        }
                    }
                }
            }
        }

        // Fallback: acquire the global lock (dooming subscribed
        // transactions), defer to bypassing readers (§3.3, versioned mode),
        // wait for active readers, then run uninstrumented.
        let d = t.ctx.direct();
        let version = self.fallback.acquire(&d);
        t.trace.push(EventKind::FallbackAcquire { version });
        if self.cfg.versioned_sgl {
            self.wait_for_bypassing_readers(version, &mut t.trace);
        }
        self.wait_for_readers(&d, tid);
        let t0 = clock::now();
        let mut acc = t.ctx.direct();
        let r = f(&mut acc).expect("fallback write sections cannot abort");
        let dur = clock::now() - t0;
        self.est.record(tid, sec, dur);
        // Teardown order matters: lower the WRITER flag and zero the
        // advertised end time *before* releasing the fallback lock. Readers
        // woken by the release immediately scan `state`/`clock_w` in
        // `readers_wait`; with the old order they could observe a stale
        // WRITER flag with a stale end time and spin against it until the
        // deadline expired.
        if advertise {
            t.ctx.direct().store(self.readers.state[tid], STATE_EMPTY);
            self.clock_w[tid].store(0);
        }
        self.fallback.release(&t.ctx.direct());
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

    /// `writer_wait()` (Alg. 3): find the last active reader's advertised
    /// end time and stall so that our re-execution ends δ after it —
    /// maximizing overlap with readers while still committing clean.
    ///
    /// Times (the adverts and the `spin_until` target) are in the calling
    /// thread's scheduler clock — wall nanoseconds under the free-running
    /// scheduler, virtual ticks under the deterministic one, where the
    /// stall resolves instantly by advancing simulated time.
    fn writer_wait(
        &self,
        tid: usize,
        sec: SectionId,
        mem: &htm_sim::SimMemory,
        trace: &mut TraceBuffer,
    ) {
        let mut last_reader_end = 0u64;
        for i in 0..self.n {
            if i == tid {
                continue;
            }
            if mem.peek(self.readers.state[i]) == STATE_READER {
                last_reader_end = last_reader_end.max(self.clock_r[i].load());
            }
        }
        if last_reader_end == 0 {
            return;
        }
        let my_duration = self.est.estimate(sec);
        // δ = half the writer's expected duration: the paper's setting,
        // found best in its preliminary experiments (§3.2.2).
        let delta = my_duration / 2;
        // Start so that (start + my_duration) == last_reader_end + delta.
        let start_at = (last_reader_end + delta).saturating_sub(my_duration);
        trace.push(EventKind::SchedDeltaStart { start_at });
        clock::spin_until(start_at);
    }

    /// §3.3 versioned-SGL writer side: before executing under the lock,
    /// defer to readers that registered while an *earlier* holder was in —
    /// they are entitled to bypass us.
    pub(crate) fn wait_for_bypassing_readers(&self, my_version: u64, trace: &mut TraceBuffer) {
        let mut spin = clock::SpinWait::new();
        let mut noted = false;
        loop {
            let any_senior = (0..self.n).any(|i| {
                let v = self.waiting_version[i].load();
                v != NONE && v < my_version
            });
            if !any_senior {
                return;
            }
            if !noted {
                trace.push(EventKind::SglWaitSenior { my_version });
                noted = true;
            }
            spin.snooze();
        }
    }
}
