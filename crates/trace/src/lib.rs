//! # sprwl-trace — lock-lifecycle event tracing
//!
//! The paper's evaluation (Figs. 3–7) explains SpRWL's behaviour by
//! *decomposing* it: commit-mode stacks, abort-cause breakdowns, per-role
//! latency. Aggregated counters (`sprwl_locks::SessionStats`-style) can
//! say *how often* a writer aborted; they cannot say *which cache line*
//! conflicted, *which scheduler decision* fired, or *in what order*. This
//! crate records the full critical-section lifecycle as a stream of
//! timestamped events so a misbehaving run can be replayed decision by
//! decision — the same lens BRAVO-style reader-scalability studies rely
//! on.
//!
//! ## Design
//!
//! * **Per-thread, fixed-capacity ring buffers** ([`TraceBuffer`]): each
//!   simulated hardware thread owns its buffer exclusively, so recording is
//!   a wait-free bump-and-store with **zero shared-memory traffic** — the
//!   uninstrumented-reader fast path stays uninstrumented. When the ring
//!   fills, the oldest events are overwritten (postmortems want the last-N
//!   events, not the first-N).
//! * **Near-zero cost when off**: [`TraceConfig::Off`] (the default)
//!   reduces [`TraceBuffer::push`] to one branch on thread-local state.
//! * **Timestamps** come from [`htm_sim::clock`], the same monotonic
//!   nanosecond clock the scheduling layer uses, so trace timelines line up
//!   with `clock_r`/`clock_w` adverts exactly.
//! * **Layering**: this crate sits between `htm-sim` and `sprwl-locks`, so
//!   event payloads use primitive types and `&'static str` labels (e.g.
//!   `AbortCause::label()`), not the lock layer's enums.
//!
//! ## Event taxonomy
//!
//! See [`EventKind`]: transaction lifecycle (`SectionBegin`/`TxAttempt`/
//! `TxCommit`/`TxAbort`/`SectionEnd`), the uninstrumented reader path
//! (`ReaderArrive`/`ReaderDepart`), every scheduler decision SpRWL makes
//! (join-the-waiter, deadline-bounded reader waits, δ-timed writer
//! starts, fallback acquisition, versioned-SGL bypass), and free-form
//! [`EventKind::Mark`]s for harnesses. Conflict aborts carry the
//! conflicting cache line and the peer thread id when the substrate
//! attributed them.
//!
//! ## Exporters
//!
//! [`export`] renders collected [`ThreadTrace`]s as JSONL (one event per
//! line, grep-friendly) or as Chrome trace-event JSON — load the latter in
//! [Perfetto](https://ui.perfetto.dev) to get one track per thread with
//! nested section/attempt slices and abort→retry-commit flow arrows.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analyze;
pub mod export;
pub mod history;
pub mod schedule;

/// Sentinel for "no conflicting line attributed" in [`EventKind::TxAbort`].
pub const NO_LINE: u64 = u64::MAX;

/// Sentinel for "no peer thread attributed" in [`EventKind::TxAbort`].
pub const NO_PEER: u32 = u32::MAX;

/// Whether the traced critical section was requested in read or write mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceRole {
    /// Read-only critical section.
    Reader,
    /// Updating critical section.
    Writer,
}

impl TraceRole {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            TraceRole::Reader => "reader",
            TraceRole::Writer => "writer",
        }
    }
}

/// One lock-lifecycle event. Payload fields are primitives so the crate
/// stays below the lock layer; commit modes and abort causes travel as the
/// `&'static str` labels the stats layer already defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A critical section was requested (before any attempt).
    SectionBegin {
        /// Read or write mode.
        role: TraceRole,
        /// The section id the caller passed to the lock.
        sec: u32,
    },
    /// The critical section completed (whatever the execution mode).
    SectionEnd {
        /// Read or write mode.
        role: TraceRole,
        /// The section id.
        sec: u32,
        /// Commit-mode label (`"HTM"`, `"ROT"`, `"GL"`, `"Unins"`).
        mode: &'static str,
        /// End-to-end latency (request → completion), nanoseconds.
        latency_ns: u64,
    },
    /// One speculative attempt began.
    TxAttempt {
        /// Read or write mode.
        role: TraceRole,
        /// 1-based attempt number within this section execution.
        attempt: u32,
    },
    /// The speculative attempt committed.
    TxCommit {
        /// Commit-mode label (`"HTM"` or `"ROT"`).
        mode: &'static str,
        /// Distinct cache lines in the read-set at commit.
        read_fp: u32,
        /// Distinct cache lines in the write-set at commit.
        write_fp: u32,
    },
    /// The speculative attempt aborted.
    TxAbort {
        /// Abort-cause label (the stats layer's taxonomy, e.g.
        /// `"conflict"`, `"capacity"`, `"reader"`).
        cause: &'static str,
        /// Conflicting cache line index, or [`NO_LINE`] when the substrate
        /// could not attribute the abort.
        line: u64,
        /// Peer thread that owned/doomed the line, or [`NO_PEER`].
        peer: u32,
    },
    /// An uninstrumented reader announced itself (state-flag store and/or
    /// SNZI arrive) and entered its critical section.
    ReaderArrive,
    /// The uninstrumented reader withdrew its announcement.
    ReaderDepart,
    /// Reader synchronization took the join-the-waiter shortcut: instead of
    /// scanning for the last-finishing writer, this reader aligned its
    /// start with the writer `target` another reader already waits for.
    SchedJoinWaiter {
        /// The writer thread id being waited for (inherited from the
        /// joined reader's registration).
        target: u32,
    },
    /// Reader synchronization decided to wait for an active writer
    /// (`Readers_Wait`, Alg. 2), bounded by `deadline`.
    SchedWaitWriter {
        /// The writer thread id expected to finish last.
        writer: u32,
        /// Absolute deadline (ns) bounding the wait.
        deadline: u64,
    },
    /// Writer synchronization (Alg. 3) delayed a reader-aborted writer's
    /// retry so its re-execution ends δ after the last reader.
    SchedDeltaStart {
        /// Absolute instant (ns) the retry was scheduled to start at.
        start_at: u64,
    },
    /// The writer gave up on speculation and acquired the fallback lock.
    FallbackAcquire {
        /// The fallback version held (0 for a plain, unversioned SGL).
        version: u64,
    },
    /// The fallback lock was released.
    FallbackRelease,
    /// §3.3 versioned SGL: a blocked reader's registered version was
    /// overtaken, so it bypassed the current fallback holder and entered.
    SglBypassEnter {
        /// The fallback version the reader had registered under.
        registered: u64,
    },
    /// §3.3 versioned SGL: a fallback writer deferred to senior readers
    /// (registrations with versions older than its own) before executing.
    SglWaitSenior {
        /// The version this writer holds the lock under.
        my_version: u64,
    },
    /// A writer revoked BRAVO reader bias: it flipped the bias word to
    /// `REVOKING`, drained the visible-readers table, and published
    /// `BIAS_OFF` — after which reader tracking falls back to the SNZI.
    BiasRevoke {
        /// Visible-reader slots found occupied (waited on) during the drain
        /// — the *active* readers the revocation actually paid for.
        occupied: u64,
        /// Total visible-reader slots scanned (the table size).
        scanned: u64,
    },
    /// A reader re-armed BRAVO bias (`BIAS_OFF` → `BIAS_ON`) after the
    /// post-revocation cooldown, restoring the single-store reader fast
    /// path.
    BiasRearm,
    /// A thread context was claimed from the dynamic slot registry.
    SlotAcquire {
        /// The hardware-thread slot claimed.
        slot: u32,
    },
    /// A thread context released its slot back to the registry.
    SlotRelease {
        /// The hardware-thread slot released.
        slot: u32,
    },
    /// Free-form harness marker (used by the torture driver to log the
    /// operation stream independently of the lock under test).
    Mark {
        /// Static label naming the marker.
        label: &'static str,
        /// First payload word (meaning is label-defined).
        a: u64,
        /// Second payload word.
        b: u64,
    },
}

impl EventKind {
    /// Stable event-type name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SectionBegin { .. } => "section-begin",
            EventKind::SectionEnd { .. } => "section-end",
            EventKind::TxAttempt { .. } => "tx-attempt",
            EventKind::TxCommit { .. } => "tx-commit",
            EventKind::TxAbort { .. } => "tx-abort",
            EventKind::ReaderArrive => "reader-arrive",
            EventKind::ReaderDepart => "reader-depart",
            EventKind::SchedJoinWaiter { .. } => "sched-join-waiter",
            EventKind::SchedWaitWriter { .. } => "sched-wait-writer",
            EventKind::SchedDeltaStart { .. } => "sched-delta-start",
            EventKind::FallbackAcquire { .. } => "fallback-acquire",
            EventKind::FallbackRelease => "fallback-release",
            EventKind::SglBypassEnter { .. } => "sgl-bypass-enter",
            EventKind::SglWaitSenior { .. } => "sgl-wait-senior",
            EventKind::BiasRevoke { .. } => "bias-revoke",
            EventKind::BiasRearm => "bias-rearm",
            EventKind::SlotAcquire { .. } => "slot-acquire",
            EventKind::SlotRelease { .. } => "slot-release",
            EventKind::Mark { label, .. } => label,
        }
    }
}

/// One recorded event: a nanosecond timestamp from [`htm_sim::clock`] plus
/// the payload. The owning thread is implied by the buffer it sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since process start ([`htm_sim::clock::now`]).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Runtime tracing policy for one thread (and, by convention, a session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// Record nothing. `push` is a single branch on thread-local state.
    #[default]
    Off,
    /// Record into a fixed-capacity ring, overwriting the oldest events.
    Ring {
        /// Maximum events retained per thread (the "last N").
        capacity: usize,
    },
    /// Record a deterministic 1-in-`rate` subset of critical sections into
    /// a fixed-capacity ring. Whole sections are sampled atomically — every
    /// event of a sampled section (attempts, aborts, scheduler decisions)
    /// is kept, every event of an unsampled one is counted and discarded —
    /// so retry chains stay intact and downstream analysis can rescale
    /// counts by `rate`. Events outside any section (harness marks) are
    /// always recorded.
    Sampled {
        /// Record every `rate`-th section (1 = everything).
        rate: u32,
        /// Maximum events retained per thread (the "last N").
        capacity: usize,
    },
}

impl TraceConfig {
    /// Ring-buffer tracing with the given per-thread capacity.
    pub fn ring(capacity: usize) -> Self {
        TraceConfig::Ring {
            capacity: capacity.max(1),
        }
    }

    /// Sampled tracing: every `rate`-th section, `capacity` events retained.
    pub fn sampled(rate: u32, capacity: usize) -> Self {
        TraceConfig::Sampled {
            rate: rate.max(1),
            capacity: capacity.max(1),
        }
    }

    /// Whether this configuration records anything.
    pub fn is_on(&self) -> bool {
        !matches!(self, TraceConfig::Off)
    }

    /// Stable textual form: `off`, `ring:<capacity>`, or
    /// `sampled:<rate>:<capacity>`. Round-trips through [`Self::parse`].
    pub fn label(&self) -> String {
        match self {
            TraceConfig::Off => "off".to_string(),
            TraceConfig::Ring { capacity } => format!("ring:{capacity}"),
            TraceConfig::Sampled { rate, capacity } => format!("sampled:{rate}:{capacity}"),
        }
    }

    /// Parses the [`Self::label`] form (used by the bench CLI and the
    /// torture `TORTURE_TRACE` environment knob). Returns `None` on
    /// malformed input rather than guessing.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("off") {
            return Some(TraceConfig::Off);
        }
        if let Some(cap) = s.strip_prefix("ring:") {
            return cap.parse::<usize>().ok().map(TraceConfig::ring);
        }
        if let Some(rest) = s.strip_prefix("sampled:") {
            let (rate, cap) = rest.split_once(':')?;
            return Some(TraceConfig::sampled(
                rate.parse::<u32>().ok()?,
                cap.parse::<usize>().ok()?,
            ));
        }
        None
    }
}

/// A per-thread, single-writer, fixed-capacity event ring.
///
/// Owned exclusively by its thread: pushes never touch shared memory, so
/// tracing cannot perturb the cache-coherence behaviour under study (no
/// extra conflict aborts, no reader-fast-path traffic). Harvest with
/// [`TraceBuffer::snapshot`] after the thread quiesces.
#[derive(Debug)]
pub struct TraceBuffer {
    tid: u32,
    capacity: usize,
    enabled: bool,
    events: Vec<Event>,
    /// Next overwrite position once the ring is full.
    next: usize,
    /// Events ever pushed (recorded + overwritten).
    total: u64,
    /// Section sampling stride (0 = not sampling, record everything).
    sample_rate: u32,
    /// Whether a section is open (between its begin and end events).
    in_section: bool,
    /// Whether the open section was selected for recording.
    section_sampled: bool,
    /// Events suppressed because their section was not sampled.
    unsampled: u64,
    /// Sections observed (sampled + skipped).
    sections_seen: u64,
    /// Sections selected for recording.
    sections_sampled: u64,
}

impl TraceBuffer {
    /// Creates a buffer for hardware thread `tid` under `cfg`.
    pub fn new(tid: u32, cfg: TraceConfig) -> Self {
        match cfg {
            TraceConfig::Off => Self::disabled(tid),
            TraceConfig::Ring { capacity } => Self {
                capacity: capacity.max(1),
                enabled: true,
                events: Vec::with_capacity(capacity.clamp(1, 4096)),
                ..Self::disabled(tid)
            },
            TraceConfig::Sampled { rate, capacity } => Self {
                capacity: capacity.max(1),
                enabled: true,
                events: Vec::with_capacity(capacity.clamp(1, 4096)),
                sample_rate: rate.max(1),
                ..Self::disabled(tid)
            },
        }
    }

    /// A recording-disabled buffer (allocates nothing).
    pub fn disabled(tid: u32) -> Self {
        Self {
            tid,
            capacity: 0,
            enabled: false,
            events: Vec::new(),
            next: 0,
            total: 0,
            sample_rate: 0,
            in_section: false,
            section_sampled: false,
            unsampled: 0,
            sections_seen: 0,
            sections_sampled: 0,
        }
    }

    /// Whether pushes are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The owning hardware thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Records one event, timestamped now. Wait-free; overwrites the oldest
    /// event once the ring is full; no-op when tracing is off.
    ///
    /// Timestamps come from the recording thread's scheduler clock
    /// (`htm_sim::clock::now`): wall nanoseconds on free-running threads,
    /// virtual time on threads bound to the deterministic scheduler — which
    /// is what makes two same-seed deterministic runs export byte-identical
    /// JSONL. The clock is only consulted *after* the enabled check, so
    /// `TraceConfig::Off` never touches it.
    #[inline]
    pub fn push(&mut self, kind: EventKind) {
        if !self.enabled {
            return;
        }
        // Section-granular sampling: the keep/skip decision is made once at
        // the SectionBegin and applies to every event until the matching
        // SectionEnd, so retry chains are never torn. Suppressed
        // events return before the clock read below — on the deterministic
        // scheduler each `clock::now` advances virtual time, so an
        // unsampled section must not perturb the schedule.
        if self.sample_rate > 0 {
            match kind {
                EventKind::SectionBegin { .. } => {
                    self.section_sampled = self
                        .sections_seen
                        .is_multiple_of(u64::from(self.sample_rate));
                    self.sections_seen += 1;
                    if self.section_sampled {
                        self.sections_sampled += 1;
                    }
                    self.in_section = true;
                    if !self.section_sampled {
                        self.unsampled += 1;
                        return;
                    }
                }
                EventKind::SectionEnd { .. } => {
                    self.in_section = false;
                    if !self.section_sampled {
                        self.unsampled += 1;
                        return;
                    }
                }
                _ => {
                    if self.in_section && !self.section_sampled {
                        self.unsampled += 1;
                        return;
                    }
                }
            }
        }
        let ev = Event {
            ts: htm_sim::clock::now(),
            kind,
        };
        self.total += 1;
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events ever pushed, including those the ring has since overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost so far to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// Events suppressed so far because their section was not sampled
    /// (always 0 outside [`TraceConfig::Sampled`]).
    pub fn unsampled(&self) -> u64 {
        self.unsampled
    }

    /// The retained events in chronological order, plus bookkeeping.
    pub fn snapshot(&self) -> ThreadTrace {
        let mut events = Vec::with_capacity(self.events.len());
        if self.events.len() < self.capacity || self.next == 0 {
            events.extend_from_slice(&self.events);
        } else {
            events.extend_from_slice(&self.events[self.next..]);
            events.extend_from_slice(&self.events[..self.next]);
        }
        ThreadTrace {
            tid: self.tid,
            dropped: self.total - events.len() as u64,
            events,
            sampling: (self.sample_rate > 0).then_some(SampleMeta {
                rate: self.sample_rate,
                sections_seen: self.sections_seen,
                sections_sampled: self.sections_sampled,
                unsampled: self.unsampled,
            }),
        }
    }
}

/// Sampling bookkeeping attached to a [`ThreadTrace`] harvested from a
/// [`TraceConfig::Sampled`] buffer. Lets downstream analysis rescale
/// sampled counts (`seen / sampled`) and detect starved captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleMeta {
    /// The configured stride (every `rate`-th section recorded).
    pub rate: u32,
    /// Sections observed, sampled or not.
    pub sections_seen: u64,
    /// Sections selected for recording.
    pub sections_sampled: u64,
    /// Events suppressed because their section was skipped.
    pub unsampled: u64,
}

/// One thread's harvested trace, in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// The hardware thread id (one Perfetto track each).
    pub tid: u32,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring overwrite (0 when the ring never filled).
    pub dropped: u64,
    /// Sampling metadata when the buffer ran under [`TraceConfig::Sampled`].
    pub sampling: Option<SampleMeta>,
}

impl ThreadTrace {
    /// A trace with no sampling metadata (the common full-capture case).
    pub fn full(tid: u32, events: Vec<Event>, dropped: u64) -> Self {
        Self {
            tid,
            events,
            dropped,
            sampling: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_buffer_records_nothing() {
        let mut b = TraceBuffer::new(3, TraceConfig::Off);
        assert!(!b.is_enabled());
        b.push(EventKind::ReaderArrive);
        b.push(EventKind::ReaderDepart);
        assert!(b.is_empty());
        assert_eq!(b.total_recorded(), 0);
        assert_eq!(b.snapshot().events.len(), 0);
    }

    #[test]
    fn ring_keeps_the_last_n_in_order() {
        let mut b = TraceBuffer::new(0, TraceConfig::ring(4));
        for i in 0..10u32 {
            b.push(EventKind::TxAttempt {
                role: TraceRole::Writer,
                attempt: i,
            });
        }
        let snap = b.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        let attempts: Vec<u32> = snap
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::TxAttempt { attempt, .. } => attempt,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(attempts, vec![6, 7, 8, 9], "oldest overwritten first");
        let mut last = 0;
        for e in &snap.events {
            assert!(e.ts >= last, "timestamps monotone");
            last = e.ts;
        }
    }

    #[test]
    fn partial_ring_snapshot_preserves_order() {
        let mut b = TraceBuffer::new(1, TraceConfig::ring(8));
        b.push(EventKind::ReaderArrive);
        b.push(EventKind::ReaderDepart);
        let snap = b.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events[0].kind, EventKind::ReaderArrive);
        assert_eq!(snap.events[1].kind, EventKind::ReaderDepart);
        assert_eq!(snap.tid, 1);
    }

    #[test]
    fn config_defaults_to_off() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
        assert!(!TraceConfig::Off.is_on());
        assert!(TraceConfig::ring(16).is_on());
        assert!(TraceConfig::sampled(8, 16).is_on());
        // ring(0) clamps to a usable capacity instead of panicking.
        assert_eq!(TraceConfig::ring(0), TraceConfig::Ring { capacity: 1 });
        // sampled(0, 0) likewise clamps both knobs.
        assert_eq!(
            TraceConfig::sampled(0, 0),
            TraceConfig::Sampled {
                rate: 1,
                capacity: 1
            }
        );
    }

    #[test]
    fn config_labels_round_trip() {
        for cfg in [
            TraceConfig::Off,
            TraceConfig::ring(512),
            TraceConfig::sampled(16, 4096),
        ] {
            assert_eq!(TraceConfig::parse(&cfg.label()), Some(cfg));
        }
        assert_eq!(TraceConfig::parse("OFF"), Some(TraceConfig::Off));
        assert_eq!(TraceConfig::parse("ring:"), None);
        assert_eq!(TraceConfig::parse("sampled:4"), None);
        assert_eq!(TraceConfig::parse("sampled:x:4"), None);
        assert_eq!(TraceConfig::parse("firehose"), None);
    }

    fn push_section(b: &mut TraceBuffer, role: TraceRole, sec: u32) {
        b.push(EventKind::SectionBegin { role, sec });
        b.push(EventKind::TxAttempt { role, attempt: 1 });
        b.push(EventKind::TxCommit {
            mode: "HTM",
            read_fp: 1,
            write_fp: 1,
        });
        b.push(EventKind::SectionEnd {
            role,
            sec,
            mode: "HTM",
            latency_ns: 10,
        });
    }

    #[test]
    fn sampling_keeps_whole_sections() {
        let mut b = TraceBuffer::new(0, TraceConfig::sampled(3, 64));
        for i in 0..9 {
            push_section(&mut b, TraceRole::Writer, i % 2);
        }
        let snap = b.snapshot();
        // Sections 0, 3 and 6 are kept — 4 events each, nothing torn.
        assert_eq!(snap.events.len(), 12);
        let meta = snap.sampling.expect("sampled buffer carries meta");
        assert_eq!(meta.rate, 3);
        assert_eq!(meta.sections_seen, 9);
        assert_eq!(meta.sections_sampled, 3);
        assert_eq!(meta.unsampled, 24);
        assert_eq!(snap.dropped, 0);
        // Every kept section begins and ends: begin/end counts balance.
        let begins = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SectionBegin { .. }))
            .count();
        let ends = snap
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SectionEnd { .. }))
            .count();
        assert_eq!((begins, ends), (3, 3));
    }

    #[test]
    fn sampling_is_deterministic_and_first_section_is_kept() {
        let runs: Vec<Vec<Event>> = (0..2)
            .map(|_| {
                let mut b = TraceBuffer::new(0, TraceConfig::sampled(4, 64));
                for i in 0..8 {
                    push_section(&mut b, TraceRole::Reader, i);
                }
                b.snapshot().events
            })
            .collect();
        let kinds = |evs: &[Event]| evs.iter().map(|e| e.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&runs[0]), kinds(&runs[1]));
        assert!(matches!(
            runs[0][0].kind,
            EventKind::SectionBegin { sec: 0, .. }
        ));
    }

    #[test]
    fn sampling_records_out_of_section_events() {
        let mut b = TraceBuffer::new(0, TraceConfig::sampled(1000, 64));
        push_section(&mut b, TraceRole::Writer, 0); // sampled (first)
        push_section(&mut b, TraceRole::Writer, 1); // skipped
        b.push(EventKind::Mark {
            label: "harness-mark",
            a: 1,
            b: 500,
        });
        push_section(&mut b, TraceRole::Writer, 2); // skipped
        let snap = b.snapshot();
        assert!(
            snap.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Mark { .. })),
            "out-of-section events must survive sampling"
        );
        assert_eq!(snap.events.len(), 5);
        assert_eq!(snap.sampling.unwrap().unsampled, 8);
    }

    #[test]
    fn ring_snapshot_has_no_sampling_meta() {
        let mut b = TraceBuffer::new(0, TraceConfig::ring(8));
        b.push(EventKind::ReaderArrive);
        assert_eq!(b.snapshot().sampling, None);
        assert_eq!(b.unsampled(), 0);
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(
            EventKind::SectionBegin {
                role: TraceRole::Reader,
                sec: 0
            }
            .name(),
            "section-begin"
        );
        assert_eq!(
            EventKind::Mark {
                label: "torture-op",
                a: 0,
                b: 0
            }
            .name(),
            "torture-op"
        );
        assert_eq!(TraceRole::Reader.label(), "reader");
        assert_eq!(TraceRole::Writer.label(), "writer");
    }
}
