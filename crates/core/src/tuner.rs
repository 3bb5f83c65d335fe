//! Runtime per-section self-tuning: the online half of the observability
//! loop.
//!
//! The offline contention analyzer (`sprwl-trace`'s `analyze` module)
//! distills a capture into per-section rollups after the fact; this module
//! maintains the same rollups *in process* — a lightweight per-section
//! aggregator fed by the existing abort/commit instrumentation, no trace
//! buffer involved — and turns them into policy adjustments while the
//! workload runs:
//!
//! * **δ-start boost**: a section whose writers keep losing the
//!   commit-time reader check (`AbortCause::Reader` — the join-the-waiter
//!   pattern where synchronized readers repeatedly doom the same writer)
//!   gets extra δ slack, so the delayed retry aims further past the last
//!   reader. The boost doubles under sustained pressure, caps, and decays
//!   once the pressure disappears.
//! * **Reader-HTM demotion**: a section whose attempts chronically
//!   overflow capacity is parked off the optimistic reader-HTM path for a
//!   long window (a stronger form of the §3.4 predictive skip budget).
//! * **Tracking-mode switch**: under `ReaderTracking::Adaptive`, heavy
//!   data-conflict pressure on a section's writers — the signature of
//!   commit-time flag scans colliding with reader announcements — asks the
//!   [`crate::adaptive`] machinery for the flags→SNZI transition, reusing
//!   its drain protocol and hysteresis clock.
//!
//! Every decision is emitted as a [`EventKind::TuneDecision`] trace event
//! *outside* the critical section, so the loop is observable (and, under
//! sampled tracing, never suppressed).
//!
//! Counters are per-section [`Slot`]s updated with racy read-modify-write,
//! like the §3.4 skip budget: this is a statistical policy, and a lost
//! increment merely delays a decision by a few sections. Windows are
//! counted in section completions, not wall time, so deterministic-
//! scheduler runs tune at reproducible points.

use htm_sim::{clock, Abort, TxKind};
use sprwl_locks::{AbortCause, LockThread, SectionId};
use sprwl_trace::EventKind;

use crate::adaptive::{MODE_FLAGS, MODE_SNZI, SWITCH_COOLDOWN_NS};
use crate::lock::{slots, Slot, SpRwl, HTM_PROBE_WINDOW};
use crate::writer::{STRETCH_DIRECT, STRETCH_ROT, STRETCH_SPLIT};

/// Section completions per tuning window.
pub(crate) const TUNE_WINDOW: u64 = 32;
/// Reader/capacity aborts per window that count as pressure.
pub(crate) const PRESSURE_THRESHOLD: u64 = TUNE_WINDOW / 4;
/// Conflict aborts per window that suggest the flags scan itself is hot.
pub(crate) const SCAN_PRESSURE_THRESHOLD: u64 = TUNE_WINDOW / 2;
/// First δ boost, nanoseconds; doubles per pressured window.
pub const DELTA_BOOST_STEP_NS: u64 = 500;
/// δ boost ceiling, nanoseconds.
pub const DELTA_BOOST_MAX_NS: u64 = 50_000;
/// Demotion parks a section off reader HTM for this many executions.
pub(crate) const DEMOTE_WINDOW: u64 = HTM_PROBE_WINDOW * 8;

/// Per-section counters and knobs. Allocated once, sized like the other
/// per-section tables ([`crate::config::MAX_SECTIONS`]).
#[derive(Debug)]
pub(crate) struct SectionTuner {
    /// Completions since the window opened.
    execs: Box<[Slot]>,
    /// `AbortCause::Reader` aborts in the window.
    reader_aborts: Box<[Slot]>,
    /// Capacity(-ROT) aborts in the window.
    capacity_aborts: Box<[Slot]>,
    /// Conflict(-ROT) aborts in the window.
    conflict_aborts: Box<[Slot]>,
    /// BRAVO bias revocations paid by this section's writers in the window.
    revokes: Box<[Slot]>,
    /// The per-section δ-start boost currently in force, nanoseconds.
    delta_boost_ns: Box<[Slot]>,
}

impl SectionTuner {
    pub(crate) fn new(max_sections: usize) -> Self {
        Self {
            execs: slots(max_sections, 0),
            reader_aborts: slots(max_sections, 0),
            capacity_aborts: slots(max_sections, 0),
            conflict_aborts: slots(max_sections, 0),
            revokes: slots(max_sections, 0),
            delta_boost_ns: slots(max_sections, 0),
        }
    }
}

#[inline]
fn bump(slot: &Slot) {
    slot.store(slot.load() + 1);
}

/// Takes a window counter's value and rearms it.
#[inline]
fn take(slot: &Slot) -> u64 {
    let v = slot.load();
    slot.store(0);
    v
}

impl SpRwl {
    /// Feeds one speculative abort into the tuner's per-section window.
    /// Called next to the stats/trace abort recording on both roles' HTM
    /// loops; a no-op unless `cfg.self_tuning` is set.
    #[inline]
    pub(crate) fn tuner_note_abort(&self, sec: SectionId, abort: Abort, kind: TxKind) {
        let Some(tun) = &self.tuner else { return };
        let i = sec.index();
        match AbortCause::classify(abort, kind) {
            AbortCause::Reader => bump(&tun.reader_aborts[i]),
            AbortCause::Capacity | AbortCause::CapacityRot => bump(&tun.capacity_aborts[i]),
            AbortCause::Conflict | AbortCause::ConflictRot => bump(&tun.conflict_aborts[i]),
            _ => {}
        }
    }

    /// Feeds one BRAVO bias revocation (the writer drained the visible-
    /// readers table before even attempting) into the window. Revocations
    /// happen *before* the transaction, so the abort feed never sees them —
    /// without this the bias knob is blind to exactly the cost it is
    /// supposed to manage.
    #[inline]
    pub(crate) fn tuner_note_revoke(&self, sec: SectionId) {
        let Some(tun) = &self.tuner else { return };
        bump(&tun.revokes[sec.index()]);
    }

    /// Closes out one section completion; every `TUNE_WINDOW`-th completion
    /// of a section evaluates its window and may adjust its knobs. Called
    /// after the `SectionEnd` trace event, outside the critical section, so
    /// emitted decisions are never sampled away and never extend a
    /// transaction's footprint.
    pub(crate) fn tuner_after_section(&self, t: &mut LockThread<'_>, sec: SectionId) {
        let Some(tun) = &self.tuner else { return };
        let i = sec.index();
        let execs = tun.execs[i].load() + 1;
        if execs < TUNE_WINDOW {
            tun.execs[i].store(execs);
            return;
        }
        tun.execs[i].store(0);
        let readers = take(&tun.reader_aborts[i]);
        let capacity = take(&tun.capacity_aborts[i]);
        let conflicts = take(&tun.conflict_aborts[i]);
        let revokes = take(&tun.revokes[i]);

        // (a) δ-start: writers on this section keep dying to the reader
        // check → give their timed retry more slack; decay when quiet.
        let boost = tun.delta_boost_ns[i].load();
        if readers >= PRESSURE_THRESHOLD {
            let new = if boost == 0 {
                DELTA_BOOST_STEP_NS
            } else {
                (boost * 2).min(DELTA_BOOST_MAX_NS)
            };
            if new != boost {
                tun.delta_boost_ns[i].store(new);
                t.trace.push(EventKind::TuneDecision {
                    knob: "delta-boost",
                    sec: sec.0,
                    value: new,
                });
            }
        } else if readers == 0 && boost > 0 {
            let new = boost / 2;
            tun.delta_boost_ns[i].store(new);
            t.trace.push(EventKind::TuneDecision {
                knob: "delta-boost",
                sec: sec.0,
                value: new,
            });
        }

        // (b) chronic capacity overflow → park the section off the
        // optimistic reader-HTM path for a long window (reusing the §3.4
        // skip budget the read path already consults).
        if capacity >= PRESSURE_THRESHOLD {
            self.htm_skip[i].store(DEMOTE_WINDOW);
            t.trace.push(EventKind::TuneDecision {
                knob: "htm-skip",
                sec: sec.0,
                value: DEMOTE_WINDOW,
            });
        }

        // (c) adaptive tracking: sustained conflict pressure while scanning
        // flags suggests the commit-time scan itself is the hot set —
        // request the flags→SNZI transition through the existing protocol,
        // honouring its hysteresis clock.
        if self.readers.mode_cell.is_some() && conflicts >= SCAN_PRESSURE_THRESHOLD {
            let now = clock::now();
            if now.saturating_sub(self.last_switch_ns.load()) >= SWITCH_COOLDOWN_NS {
                let mem = t.ctx.htm().memory();
                if self.mode(mem) == MODE_FLAGS {
                    self.last_switch_ns.store(now);
                    let d = t.ctx.direct();
                    self.switch_to_snzi(&d, t.tid(), mem);
                    if self.mode(mem) == MODE_SNZI {
                        t.trace.push(EventKind::TuneDecision {
                            knob: "tracking-mode",
                            sec: sec.0,
                            value: MODE_SNZI,
                        });
                    }
                }
            }
        }

        // (d) BRAVO bias: sustained writer pressure means the bias is
        // hurting — either reader-check aborts keep killing writers, or the
        // writers keep paying the *pre-transaction* revocation drain, which
        // the abort feed never sees (revocations happen before the attempt,
        // so a window could show zero aborts while every writer walks the
        // visible-readers table). Stop readers from re-arming the bias,
        // making `BIAS_OFF` sticky after the next revocation. A fully quiet
        // window — no reader aborts *and* no revocations — hands the fast
        // path back to the readers.
        if self.cfg.reader_tracking == crate::config::ReaderTracking::Bravo {
            let pressured = readers >= PRESSURE_THRESHOLD || revokes >= PRESSURE_THRESHOLD;
            if pressured && self.readers.bias_enabled() {
                self.readers.set_bias_enabled(false);
                t.trace.push(EventKind::TuneDecision {
                    knob: "bravo-bias",
                    sec: sec.0,
                    value: 0,
                });
            } else if readers == 0 && revokes == 0 && !self.readers.bias_enabled() {
                self.readers.set_bias_enabled(true);
                t.trace.push(EventKind::TuneDecision {
                    knob: "bravo-bias",
                    sec: sec.0,
                    value: 1,
                });
            }
        }

        // (e) capacity-stretching escalation: when stretching is on, the
        // tuner owns the per-section sticky rung (direct → ROT → split),
        // escalating under sustained capacity pressure and decaying one
        // rung per fully clean window so a workload phase-change can find
        // its way back to the cheap path. Profiles without suspend/resume
        // have no ROT rung: 0 ↔ 2 directly.
        if self.cfg.stretch.enabled {
            let supports_rot = t.ctx.htm().config().capacity.supports_rot();
            let level = self.stretch_level[i].load();
            let new = if capacity >= PRESSURE_THRESHOLD {
                match level {
                    STRETCH_DIRECT if supports_rot => STRETCH_ROT,
                    STRETCH_DIRECT | STRETCH_ROT => STRETCH_SPLIT,
                    other => other,
                }
            } else if capacity == 0 {
                match level {
                    STRETCH_SPLIT if supports_rot => STRETCH_ROT,
                    STRETCH_SPLIT | STRETCH_ROT => STRETCH_DIRECT,
                    other => other,
                }
            } else {
                level
            };
            if new != level {
                self.stretch_level[i].store(new);
                t.trace.push(EventKind::TuneDecision {
                    knob: "stretch-level",
                    sec: sec.0,
                    value: new,
                });
            }
        }
    }

    /// The δ-start boost currently in force for `sec` (0 when the tuner is
    /// off). Added on top of the configured [`crate::DeltaPolicy`] by the
    /// writer-synchronization wait.
    #[inline]
    pub(crate) fn tuner_delta_boost(&self, sec: SectionId) -> u64 {
        match &self.tuner {
            Some(tun) => tun.delta_boost_ns[sec.index()].load(),
            None => 0,
        }
    }

    /// Test hook: the per-section δ boost the tuner has applied.
    #[doc(hidden)]
    pub fn debug_delta_boost(&self, sec: SectionId) -> u64 {
        self.tuner_delta_boost(sec)
    }

    /// Test hook: the per-section reader-HTM skip budget (shared between
    /// the §3.4 predictive policy and the tuner's demotion).
    #[doc(hidden)]
    pub fn debug_htm_skip(&self, sec: SectionId) -> u64 {
        self.htm_skip[sec.index()].load()
    }
}
