//! The SpRWL write path: speculative execution with the commit-time reader
//! check (§3.1, Alg. 1), writer advertisement for reader synchronization
//! (§3.2.1, Alg. 2), the timed retry of writer synchronization (§3.2.2,
//! Alg. 3), and the capacity-stretching ladder for big-footprint writers
//! (POWER8-style rollback-only transactions and transaction splitting;
//! see [`crate::config::SprwlConfig::stretch`] and [`crate::stretch`]).

use htm_sim::clock;
use htm_sim::{Abort, TxKind};
use sprwl_locks::{
    CommitMode, LockThread, RetryPolicy, Role, SectionBody, SectionId, ABORT_LOCKED, ABORT_READER,
};
use sprwl_trace::{EventKind, TraceBuffer, TraceRole};

use crate::lock::{SpRwl, NONE, STATE_EMPTY, STATE_READER, STATE_WRITER};
use crate::reader::note_abort;

/// The stretching ladder's rungs (the per-section sticky level in
/// [`SpRwl::stretch_level`] holds one of these).
const STRETCH_DIRECT: u64 = 0;
const STRETCH_ROT: u64 = 1;
const STRETCH_SPLIT: u64 = 2;

/// Probe backoff of a freshly escalated section: it re-tries the direct
/// rung after this many executions on the stretched rung.
const PROBE_BACKOFF_FLOOR: u32 = 1;
/// Ceiling of the probe backoff: at most one wasted direct attempt per
/// this many executions of a persistently oversized section.
const PROBE_BACKOFF_MAX: u32 = 64;

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

        // Capacity-stretching ladder: the sticky per-section level picks
        // the rung this execution *starts* at; capacity aborts escalate
        // within the execution (direct → ROT → split). Profiles without
        // POWER8's suspend/resume have no ROT rung and go straight to the
        // split. The write path escalates the sticky level in place,
        // §3.4-skip-budget style.
        let stretch = self.cfg.stretch;
        let supports_rot = stretch && t.ctx.htm().config().capacity.supports_rot();
        let mut level = if stretch {
            let l = self.stretch_level[sec.index()].load();
            if l == STRETCH_ROT && !supports_rot {
                STRETCH_SPLIT
            } else {
                l
            }
        } else {
            STRETCH_DIRECT
        };

        // Probe: a sticky stretched rung serializes this section against
        // every other writer, so the section periodically re-tries the
        // direct rung — a shrunken footprint earns its concurrency back,
        // an unchanged one re-escalates on the capacity abort below with
        // its probe backoff doubled. The `stretch_probe` slot packs the
        // countdown to the next probe (low half) and the current backoff
        // (high half); races on it only perturb the probe cadence.
        // Bimodal sections (TPC-C Delivery: footprint tracks the order
        // backlog) probe often and mostly win; persistently big ones
        // converge to one cheap failed probe per `PROBE_BACKOFF_MAX`
        // executions.
        let mut probing = false;
        let sticky_level = level;
        if level != STRETCH_DIRECT {
            let slot = &self.stretch_probe[sec.index()];
            let v = slot.load();
            let countdown = v as u32;
            if countdown == 0 {
                level = STRETCH_DIRECT;
                probing = true;
            } else {
                slot.store(v - 1);
            }
        }

        let mut committed: Option<(u64, CommitMode)> = None;

        // Rung 0: the plain HTM loop (reads and writes both tracked).
        if level == STRETCH_DIRECT {
            let mut attempts = 0u32;
            loop {
                self.fallback.wait_until_free(mem);
                if stretch {
                    // A stretched ROT may be mid-flight with untracked
                    // reads; don't start an attempt that is doomed to
                    // abort on the gate subscription below.
                    self.rot_gate.wait_until_free(mem);
                }
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
                    if stretch {
                        // Subscribe the ROT gate: a stretched writer's
                        // untracked acquire dooms us, so our writes can
                        // never land inside its unmonitored read set.
                        self.rot_gate.subscribe(tx)?;
                    }
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
                        if probing {
                            // The probe committed directly: the footprint
                            // fits again — stop paying the stretched rung
                            // and forget the accumulated backoff.
                            self.stretch_level[sec.index()].store(STRETCH_DIRECT);
                            self.stretch_probe[sec.index()].store(0);
                        }
                        committed = Some((r, CommitMode::Htm));
                        break;
                    }
                    Err(abort) => {
                        note_abort(t, abort, TxKind::Htm);
                        if stretch && abort.is_capacity() {
                            // Retrying cannot help a footprint overflow —
                            // climb to the next rung instead of falling to
                            // the lock. Untracked ROT reads only cure a
                            // *read*-set overflow; a write-set overflow
                            // needs the ROT's write budget to actually be
                            // bigger, otherwise the attempt is doomed and
                            // the section should split immediately.
                            let cap = t.ctx.htm().config().capacity;
                            let rot_helps = supports_rot
                                && (abort == Abort::CapacityRead
                                    || cap.rot_write_lines > cap.write_lines);
                            level = if rot_helps {
                                STRETCH_ROT
                            } else {
                                STRETCH_SPLIT
                            };
                            // A failed probe must not forget what the ladder
                            // already learned: if this section's ROT rung has
                            // overflowed before (sticky level = split), don't
                            // re-run that doomed experiment.
                            level = level.max(sticky_level);
                            self.stretch_level[sec.index()].store(level);
                            // Schedule the next probe: a failed one doubles
                            // the wait (capped), a fresh escalation starts
                            // at the floor.
                            let slot = &self.stretch_probe[sec.index()];
                            let backoff = if probing {
                                ((slot.load() >> 32) as u32)
                                    .saturating_mul(2)
                                    .clamp(PROBE_BACKOFF_FLOOR, PROBE_BACKOFF_MAX)
                            } else {
                                PROBE_BACKOFF_FLOOR
                            };
                            slot.store(u64::from(backoff) | (u64::from(backoff) << 32));
                            break;
                        }
                        if !RetryPolicy::PAPER_DEFAULT.should_retry(attempts, abort) {
                            break;
                        }
                        // Alg. 3: after a reader-induced abort, delay the retry
                        // so the re-execution finishes δ after the last reader.
                        if self.cfg.scheduling.writers_wait()
                            && abort == Abort::Explicit(ABORT_READER)
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
        }

        // Rung 1: rollback-only transaction — reads untracked (zero read
        // capacity), writes buffered against the ROT budget. A ROT cannot
        // subscribe the fallback lock or scan reader flags transactionally
        // (it tracks no reads), so the commit-time checks run from
        // *suspended* state as untracked peeks, aborting explicitly — the
        // RW-LE pattern. The post-check window is closed the same way the
        // paper's strong-isolation argument closes it: the write-set is
        // frozen before suspension, and a reader arriving after the check
        // dooms the ROT the moment it touches a written line, so readers
        // observe all-old or all-new values, never a torn prefix (§6i).
        //
        // Untracked reads leave one hazard the hardware cannot close: a
        // concurrent *writer* committing into this ROT's read set is never
        // detected, so the ROT could commit a snapshot no serial order
        // explains (the torture lincheck catches exactly this). Holding
        // `rot_gate` for the rung's duration restores writer-writer
        // exclusion against speculative peers (plain HTM writers subscribe
        // the gate), and the `rot_epoch` re-check below catches fallback
        // writers that complete inside our window — while readers stay
        // uninstrumented and concurrent.
        if committed.is_none() && level == STRETCH_ROT && supports_rot {
            self.rot_gate.acquire(&t.ctx.direct());
            let mut attempts = 0u32;
            loop {
                self.fallback.wait_until_free(mem);
                // Snapshot the fallback-completion epoch before the
                // transaction begins: any ticket holder finishing inside
                // our window bumps it, and our reads are untracked, so the
                // suspended re-check below is the only way to notice.
                let epoch0 = mem.peek(self.rot_epoch);
                attempts += 1;
                t.trace.push(EventKind::StretchRot { attempt: attempts });
                t.trace.push(EventKind::TxAttempt {
                    role: TraceRole::Writer,
                    attempt: attempts,
                });
                match t.ctx.txn(TxKind::Rot, |tx| {
                    let t0 = clock::now();
                    let r = f(tx)?;
                    let dur = clock::now() - t0;
                    let verdict = tx.suspend(|s| {
                        let m = s.htm().memory();
                        if self.fallback.is_locked_peek(m) || m.peek(self.rot_epoch) != epoch0 {
                            return Some(ABORT_LOCKED);
                        }
                        if !self.cfg.debug_skip_commit_reader_check
                            && self.any_reader_flag_set(m, tid)
                        {
                            return Some(ABORT_READER);
                        }
                        None
                    })?;
                    if let Some(code) = verdict {
                        return tx.abort(code);
                    }
                    Ok((r, dur, tx.write_footprint() as u32))
                }) {
                    Ok((r, dur, write_fp)) => {
                        self.est.record(tid, sec, dur);
                        t.trace.push(EventKind::TxCommit {
                            mode: CommitMode::Rot.label(),
                            read_fp: 0,
                            write_fp,
                        });
                        committed = Some((r, CommitMode::Rot));
                        break;
                    }
                    Err(abort) => {
                        note_abort(t, abort, TxKind::Rot);
                        if abort.is_capacity() {
                            // Overflowed even the stretched budget: split.
                            level = STRETCH_SPLIT;
                            self.stretch_level[sec.index()].store(level);
                            break;
                        }
                        if !RetryPolicy::RWLE_ROT.should_retry(attempts, abort) {
                            break;
                        }
                        if self.cfg.scheduling.writers_wait()
                            && abort == Abort::Explicit(ABORT_READER)
                        {
                            self.writer_wait(tid, sec, mem, &mut t.trace);
                            if advertise {
                                self.clock_w[tid].store(self.est.end_time(sec));
                            }
                        }
                    }
                }
            }
            // Released on every exit — commit, escalation to the split, or
            // an exhausted retry budget. The fallback path below re-takes
            // it, so an escalating writer cannot self-deadlock.
            self.rot_gate.release(&t.ctx.direct());
        }

        if let Some((r, mode)) = committed {
            if advertise {
                t.ctx.direct().store(self.readers.state[tid], STATE_EMPTY);
                self.clock_w[tid].store(0);
            }
            let latency_ns = clock::now() - start;
            t.stats.record_commit(Role::Writer, mode, latency_ns);
            t.trace.push(EventKind::SectionEnd {
                role: TraceRole::Writer,
                sec: sec.0,
                mode: mode.label(),
                latency_ns,
            });
            return r;
        }

        // Fallback: acquire the global lock (dooming subscribed
        // transactions), defer to bypassing readers (§3.3, versioned mode),
        // wait for active readers, then run uninstrumented — either as one
        // direct pass, or (rung 2) split into ordered sub-transactions that
        // each fit the capacity profile's write budget.
        let d = t.ctx.direct();
        let version = self.fallback.acquire(&d);
        t.trace.push(EventKind::FallbackAcquire { version });
        if self.cfg.versioned_sgl {
            self.wait_for_bypassing_readers(version, &mut t.trace);
        }
        self.wait_for_readers(&d, tid);
        let t0 = clock::now();
        let r = if stretch && level == STRETCH_SPLIT {
            let chunk_lines = t.ctx.htm().config().capacity.write_lines;
            crate::stretch::run_split(t, f, chunk_lines)
        } else {
            let mut acc = t.ctx.direct();
            f(&mut acc).expect("fallback write sections cannot abort")
        };
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
        if stretch {
            // Mark our in-place writes for mid-flight ROTs *before* the
            // ticket release makes the lock word look innocent again (see
            // `SpRwl::rot_epoch`). We hold the ticket, so the bump is
            // race-free — and the cell is unsubscribed, so it dooms no
            // speculative writer.
            let d = t.ctx.direct();
            let e = mem.peek(self.rot_epoch);
            d.store(self.rot_epoch, e.wrapping_add(1));
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

    /// Test hook: the commit-time reader check exposed for white-box tests.
    /// Also the ROT rung's suspended reader check: [`ReaderTable::arrive`]
    /// stores the per-thread state flag first under *every* tracking mode,
    /// so this untracked scan is sound regardless of how the plain-HTM
    /// check would have subscribed.
    ///
    /// [`ReaderTable::arrive`]: crate::reader_table::ReaderTable
    #[doc(hidden)]
    pub fn any_reader_flag_set(&self, mem: &htm_sim::SimMemory, me: usize) -> bool {
        (0..self.n).any(|i| i != me && mem.peek(self.readers.state[i]) == STATE_READER)
    }
}
