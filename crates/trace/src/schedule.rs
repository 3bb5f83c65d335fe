//! Decision-trace (schedule) serialization and behaviour fingerprints.
//!
//! The deterministic scheduler records every branch point of a run — who
//! ran, out of whom — as a decision trace. This module gives that trace a
//! stable on-disk form so a violating schedule found by the explorer can
//! be handed back to `DetScheduler` for bit-exact reproduction
//! (`torture explore --replay-schedule <file>`), plus the *behaviour
//! fingerprint* the explorer deduplicates candidate schedules by.
//!
//! # File format
//!
//! A schedule file is line-oriented UTF-8:
//!
//! ```text
//! # sprwl-schedule v1 participants=2
//! # case=explore-injected-reader-bug
//! # base_seed=0x1f2e3d
//! 0 1 1 0 1 ...
//! ```
//!
//! Header lines start with `#`; the first must be the magic line carrying
//! the participant count. Remaining `# key=value` lines are free-form
//! metadata (values may contain anything but newlines, which are escaped).
//! Non-comment lines hold the chosen tids, one per branch point,
//! whitespace-separated across any number of lines. The format is
//! hand-rolled because the workspace is offline (no serde) — and a
//! schedule is just a list of small integers anyway.

use std::fmt::Write as _;

use crate::{EventKind, ThreadTrace};

/// Magic first-line prefix of a schedule file.
const MAGIC: &str = "# sprwl-schedule v1 participants=";

/// A serialized decision trace: enough to re-run one deterministic
/// schedule exactly, plus provenance metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Thread count the schedule was recorded against (replay must match).
    pub participants: u32,
    /// Provenance: case name, seeds, violation detail, trace hash…
    /// ordered `(key, value)` pairs, written as `# key=value` lines.
    pub meta: Vec<(String, String)>,
    /// The chosen tid at each branch point, in order.
    pub decisions: Vec<u32>,
}

impl ScheduleTrace {
    /// An empty schedule for `participants` threads.
    pub fn new(participants: u32) -> Self {
        Self {
            participants,
            meta: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// First metadata value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Appends a metadata pair (later pairs do not overwrite earlier ones;
    /// `get` returns the first).
    pub fn set(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Renders the schedule file.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}{}", self.participants);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "# {k}={}", escape(v));
        }
        for (i, d) in self.decisions.iter().enumerate() {
            let sep = if i % 16 == 15 { '\n' } else { ' ' };
            let _ = write!(out, "{d}{sep}");
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }

    /// Parses a schedule file.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty schedule file")?;
        let participants: u32 = first
            .strip_prefix(MAGIC)
            .ok_or_else(|| format!("bad magic line: {first:?}"))?
            .trim()
            .parse()
            .map_err(|e| format!("bad participant count: {e}"))?;
        let mut st = Self::new(participants);
        for line in lines {
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim_start();
                if let Some((k, v)) = rest.split_once('=') {
                    st.meta.push((k.to_string(), unescape(v)));
                }
                continue;
            }
            for tok in line.split_whitespace() {
                let tid: u32 = tok
                    .parse()
                    .map_err(|e| format!("bad decision {tok:?}: {e}"))?;
                if tid >= participants {
                    return Err(format!(
                        "decision tid {tid} out of range for {participants} participants"
                    ));
                }
                st.decisions.push(tid);
            }
        }
        Ok(st)
    }
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one 64-bit word in, byte by byte.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a string in.
    pub fn push_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self.push(0x5eed); // length-extension guard between fields
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes *what happened* in a run, ignoring *when*: per-thread event
/// kinds and their semantically meaningful payloads, with every
/// virtual-clock-derived field (timestamps, latencies, deadlines, δ start
/// instants) normalized away.
///
/// This is the explorer's dedup key. Raw trace bytes would make every
/// schedule look unique — two interleavings that differ only in where the
/// virtual clock paused produce different timestamps but the same lock
/// behaviour — while the decision trace alone can't tell whether a
/// *different* schedule caused *different* behaviour. Two runs with equal
/// fingerprints executed the same sections in the same per-thread order
/// with the same commit modes, aborts, conflict attributions, and marker
/// payloads.
pub fn behavior_fingerprint(traces: &[ThreadTrace]) -> u64 {
    let mut fp = Fingerprint::new();
    for t in traces {
        fp.push(u64::from(t.tid));
        fp.push(t.events.len() as u64);
        for e in &t.events {
            fp.push_str(e.kind.name());
            match &e.kind {
                EventKind::SectionBegin { role, sec } => {
                    fp.push_str(role.label());
                    fp.push(u64::from(*sec));
                }
                EventKind::SectionEnd {
                    role,
                    sec,
                    mode,
                    latency_ns: _,
                } => {
                    fp.push_str(role.label());
                    fp.push(u64::from(*sec));
                    fp.push_str(mode);
                }
                EventKind::TxAttempt { role, attempt } => {
                    fp.push_str(role.label());
                    fp.push(u64::from(*attempt));
                }
                EventKind::TxCommit {
                    mode,
                    read_fp,
                    write_fp,
                } => {
                    fp.push_str(mode);
                    fp.push(u64::from(*read_fp));
                    fp.push(u64::from(*write_fp));
                }
                EventKind::TxAbort { cause, line, peer } => {
                    fp.push_str(cause);
                    fp.push(*line);
                    fp.push(u64::from(*peer));
                }
                EventKind::SchedJoinWaiter { target } => fp.push(u64::from(*target)),
                EventKind::SchedWaitWriter {
                    writer,
                    deadline: _,
                } => fp.push(u64::from(*writer)),
                EventKind::SchedDeltaStart { start_at: _ } => {}
                EventKind::FallbackAcquire { version } => fp.push(*version),
                EventKind::SglBypassEnter { registered } => fp.push(*registered),
                EventKind::SglWaitSenior { my_version } => fp.push(*my_version),
                EventKind::Mark { label: _, a, b } => {
                    fp.push(*a);
                    fp.push(*b);
                }
                EventKind::BiasRevoke { occupied, scanned } => {
                    fp.push(*occupied);
                    fp.push(*scanned);
                }
                EventKind::SlotAcquire { slot } | EventKind::SlotRelease { slot } => {
                    fp.push(u64::from(*slot));
                }
                EventKind::ReaderArrive
                | EventKind::ReaderDepart
                | EventKind::FallbackRelease
                | EventKind::BiasRearm => {}
            }
        }
    }
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, TraceRole};

    fn sched() -> ScheduleTrace {
        let mut s = ScheduleTrace::new(3);
        s.set("case", "unit-case");
        s.set("detail", "line one\nline two = with equals");
        s.decisions = (0..40).map(|i| i % 3).collect();
        s
    }

    #[test]
    fn schedule_round_trips_through_text() {
        let s = sched();
        let text = s.to_text();
        let back = ScheduleTrace::from_text(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.get("case"), Some("unit-case"));
        assert_eq!(back.get("detail"), Some("line one\nline two = with equals"));
    }

    #[test]
    fn bad_magic_and_out_of_range_tids_are_rejected() {
        assert!(ScheduleTrace::from_text("").is_err());
        assert!(ScheduleTrace::from_text("not a schedule\n").is_err());
        let err =
            ScheduleTrace::from_text("# sprwl-schedule v1 participants=2\n0 1 2\n").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    fn ev(ts: u64, kind: EventKind) -> Event {
        Event { ts, kind }
    }

    #[test]
    fn fingerprint_ignores_time_but_not_behaviour() {
        let base = vec![ThreadTrace::full(
            0,
            vec![
                ev(
                    10,
                    EventKind::SectionBegin {
                        role: TraceRole::Reader,
                        sec: 1,
                    },
                ),
                ev(
                    20,
                    EventKind::SectionEnd {
                        role: TraceRole::Reader,
                        sec: 1,
                        mode: "Unins",
                        latency_ns: 999,
                    },
                ),
            ],
            0,
        )];
        let mut shifted = base.clone();
        shifted[0].events[0].ts = 500;
        shifted[0].events[1].ts = 700;
        if let EventKind::SectionEnd { latency_ns, .. } = &mut shifted[0].events[1].kind {
            *latency_ns = 123_456;
        }
        assert_eq!(
            behavior_fingerprint(&base),
            behavior_fingerprint(&shifted),
            "timestamps and latencies are normalized away"
        );
        let mut other_mode = base.clone();
        if let EventKind::SectionEnd { mode, .. } = &mut other_mode[0].events[1].kind {
            *mode = "GL";
        }
        assert_ne!(
            behavior_fingerprint(&base),
            behavior_fingerprint(&other_mode),
            "a different commit mode is different behaviour"
        );
    }

    #[test]
    fn fingerprint_distinguishes_threads_and_marks() {
        let a = vec![ThreadTrace::full(
            0,
            vec![ev(
                1,
                EventKind::Mark {
                    label: "op",
                    a: 7,
                    b: 9,
                },
            )],
            0,
        )];
        let mut b = a.clone();
        b[0].tid = 1;
        assert_ne!(behavior_fingerprint(&a), behavior_fingerprint(&b));
        let mut c = a.clone();
        if let EventKind::Mark { a: pa, .. } = &mut c[0].events[0].kind {
            *pa = 8;
        }
        assert_ne!(behavior_fingerprint(&a), behavior_fingerprint(&c));
    }
}
