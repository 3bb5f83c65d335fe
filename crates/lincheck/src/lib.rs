//! # sprwl-lincheck — offline linearizability checking for recorded histories
//!
//! The torture harness's end-state oracle (mirror-pair arithmetic,
//! quiescence) catches many synchronization bugs, but it judges only the
//! *final* state: a non-linearizable interleaving that happens to restore
//! the invariants slips through. This crate closes that gap in the
//! Wing–Gong / Porcupine style: it consumes the per-thread operation
//! histories the harness embeds in its `sprwl-trace` event streams and
//! searches for a **linearization** — a single sequential order of all
//! operations that (a) respects each thread's program order, (b) respects
//! real time (an operation that *returned* before another was *invoked*
//! must precede it), and (c) replays correctly against a sequential
//! register-bank model.
//!
//! ## History model
//!
//! An operation ([`Op`]) is an atomic step over a bank of `u64` registers:
//! a set of **reads** `(register, observed value)` plus a set of
//! **increments** `(register, observed old value)` — fetch-and-add by one.
//! This uniformly covers the torture workloads: a read section is all
//! reads, a mirror-pair write section is one increment per pair it spans
//! (the section returns the pre-increment values) plus reads of the pairs
//! it scans; on the KV service a GET is one read and a SET or a per-shard
//! MSET batch one increment per key.
//!
//! ## Timestamps and soundness
//!
//! Each op's `inv` mark is pushed *before* the section is invoked and its
//! `resp` mark *after* it returns, on the recording thread, so the
//! recorded interval **contains** the true execution interval. Both
//! scheduler substrates provide globally comparable timestamps (one
//! process-wide monotonic clock free-running; one global virtual clock
//! deterministic), so `resp(A) < inv(B)` soundly implies A really
//! completed before B began. Widened intervals only *weaken* the
//! real-time order, so the checker can produce false *negatives*
//! (accepting an interleaving tighter timestamps would reject) but never
//! false positives: a `NonLinearizable` verdict is trustworthy.
//!
//! ## Search
//!
//! [`check`] runs an explicit-stack DFS over the pending-operation
//! frontier: at each step, any thread's next unlinearized op whose
//! invocation is not preceded (in real time) by another thread's pending
//! response is a candidate; applying it must match the model. Visited
//! frontiers are memoized — the register bank is a pure function of the
//! per-thread progress vector, so the vector alone is the state key. A
//! configurable node budget turns pathological histories into
//! [`Verdict::Unknown`] instead of a hang.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod checker;
pub mod mutate;
pub mod synth;

pub use checker::{check, CheckConfig, Verdict};

use sprwl_trace::history::{marks_from_jsonl, marks_of, MarkHistory, MarkRecord};
use sprwl_trace::ThreadTrace;

/// The mark labels of the history encoding, shared with every recorder
/// (the torture workers push these; the extractor consumes them).
pub mod labels {
    /// Invocation: pushed before the critical section is entered.
    /// Payload: `a` = per-thread op sequence number, `b` = op kind tag
    /// (free-form, diagnostics only).
    pub const INV: &str = "lin-inv";
    /// One observed read. Payload: `a` = register, `b` = observed value.
    pub const READ: &str = "lin-read";
    /// One observed increment. Payload: `a` = register, `b` = observed
    /// old value (the fetch-and-add return).
    pub const WRITE: &str = "lin-write";
    /// Response: pushed after the critical section returned.
    /// Payload: `a` = per-thread op sequence number, `b` unused.
    pub const RET: &str = "lin-ret";
}

/// One completed operation: an atomic step over the register bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// The recording thread.
    pub tid: u32,
    /// Per-thread sequence number (from the `lin-inv` payload).
    pub seq: u64,
    /// Op-kind tag (from the `lin-inv` payload; diagnostics only).
    pub kind: u64,
    /// Invocation timestamp (at or before the true invocation).
    pub inv: u64,
    /// Response timestamp (at or after the true response).
    pub resp: u64,
    /// Observed reads: `(register, value)`.
    pub reads: Vec<(u32, u64)>,
    /// Observed increments: `(register, old value)`.
    pub incrs: Vec<(u32, u64)>,
}

/// A complete recorded history: each thread's completed operations in
/// program order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// Per-thread operation sequences, in recording order.
    pub threads: Vec<Vec<Op>>,
    /// Events lost to trace-ring overwrite across all threads. Non-zero
    /// means the mark streams have holes, so [`check`] answers
    /// [`Verdict::Unknown`] rather than judge an incomplete history.
    pub dropped_events: u64,
    /// Operations that invoked but never recorded a response (a thread
    /// that stopped mid-run, e.g. on a torture poison bail-out). They are
    /// excluded from the history; excluding a pending op only removes
    /// constraints, so it cannot manufacture a false violation.
    pub truncated_ops: u64,
}

impl History {
    /// Total completed operations.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Number of registers the sequential model needs (max index + 1).
    pub fn num_registers(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .flat_map(|o| o.reads.iter().chain(o.incrs.iter()))
            .map(|&(r, _)| r as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Extracts the history from in-memory traces (e.g.
    /// `CaseArtifacts::traces` from the torture harness).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed mark stream (a nested
    /// `lin-inv`, or an effect/response mark with no open operation in a
    /// thread that lost no events).
    pub fn from_traces(traces: &[ThreadTrace]) -> Result<Self, String> {
        Self::from_marks(&marks_of(traces))
    }

    /// Extracts the history from a JSONL trace dump — the exporter's
    /// output or a torture postmortem file.
    ///
    /// # Errors
    ///
    /// As for [`History::from_traces`], plus JSONL-level parse errors.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        Self::from_marks(&marks_from_jsonl(text)?)
    }

    /// Assembles per-thread op sequences from a normalized mark stream.
    fn from_marks(marks: &MarkHistory) -> Result<Self, String> {
        let mut h = History {
            dropped_events: marks.total_dropped(),
            ..History::default()
        };
        for tid in marks.tids() {
            let lost_events = marks.dropped.iter().any(|&(t, _)| t == tid);
            let stream: Vec<&MarkRecord> = marks.of_thread(tid).collect();
            let (ops, truncated) = thread_ops(tid, &stream, lost_events)?;
            h.truncated_ops += truncated;
            if !ops.is_empty() {
                h.threads.push(ops);
            }
        }
        Ok(h)
    }
}

/// Parses one thread's mark stream into `(completed ops, pending ops
/// dropped)`. `lost_events` means the thread's ring overflowed: orphan
/// effect/response marks at the head of the stream are then expected
/// (their `lin-inv` was overwritten) and skipped; in a complete stream
/// they are an encoding error.
fn thread_ops(
    tid: u32,
    stream: &[&MarkRecord],
    lost_events: bool,
) -> Result<(Vec<Op>, u64), String> {
    let mut ops = Vec::new();
    let mut open: Option<Op> = None;
    for m in stream {
        match m.label.as_str() {
            labels::INV => {
                if open.is_some() {
                    return Err(format!(
                        "thread {tid}: lin-inv (seq {}) while an op is still open",
                        m.a
                    ));
                }
                open = Some(Op {
                    tid,
                    seq: m.a,
                    kind: m.b,
                    inv: m.ts,
                    resp: 0,
                    reads: Vec::new(),
                    incrs: Vec::new(),
                });
            }
            labels::READ | labels::WRITE | labels::RET => match open.as_mut() {
                Some(op) => match m.label.as_str() {
                    labels::READ => op.reads.push((m.a as u32, m.b)),
                    labels::WRITE => op.incrs.push((m.a as u32, m.b)),
                    _ => {
                        op.resp = m.ts;
                        ops.push(open.take().expect("open op"));
                    }
                },
                None if lost_events && ops.is_empty() => {} // truncated head
                None => {
                    return Err(format!(
                        "thread {tid}: {} with no open op in a complete stream",
                        m.label
                    ))
                }
            },
            _ => {} // foreign marks (e.g. "torture-op") interleave freely
        }
    }
    let truncated = u64::from(open.is_some());
    Ok((ops, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprwl_trace::{Event, EventKind};

    fn mark(ts: u64, label: &'static str, a: u64, b: u64) -> Event {
        Event {
            ts,
            kind: EventKind::Mark { label, a, b },
        }
    }

    fn trace(tid: u32, dropped: u64, events: Vec<Event>) -> ThreadTrace {
        ThreadTrace::full(tid, events, dropped)
    }

    #[test]
    fn extracts_complete_ops() {
        let traces = vec![trace(
            0,
            0,
            vec![
                mark(1, labels::INV, 0, 1),
                mark(5, labels::WRITE, 3, 7),
                mark(6, labels::RET, 0, 0),
                mark(8, labels::INV, 1, 0),
                mark(9, labels::READ, 3, 8),
                mark(9, labels::READ, 4, 0),
                mark(10, labels::RET, 1, 0),
            ],
        )];
        let h = History::from_traces(&traces).expect("well-formed");
        assert_eq!(h.total_ops(), 2);
        assert_eq!(h.num_registers(), 5);
        let t = &h.threads[0];
        assert_eq!((t[0].inv, t[0].resp), (1, 6));
        assert_eq!(t[0].incrs, vec![(3, 7)]);
        assert_eq!(t[1].reads, vec![(3, 8), (4, 0)]);
        assert_eq!(h.dropped_events, 0);
    }

    #[test]
    fn pending_tail_op_is_truncated() {
        let traces = vec![trace(
            0,
            0,
            vec![
                mark(1, labels::INV, 0, 1),
                mark(2, labels::RET, 0, 0),
                mark(3, labels::INV, 1, 1), // never returns (poison bail)
            ],
        )];
        let h = History::from_traces(&traces).expect("well-formed");
        assert_eq!(h.total_ops(), 1);
    }

    #[test]
    fn orphan_head_is_tolerated_only_with_drops() {
        let orphan = vec![mark(2, labels::RET, 0, 0), mark(3, labels::INV, 1, 0)];
        assert!(History::from_traces(&[trace(0, 0, orphan.clone())]).is_err());
        let h = History::from_traces(&[trace(0, 4, orphan)]).expect("ring-truncated head");
        assert_eq!(h.total_ops(), 0);
        assert_eq!(h.dropped_events, 4);
    }

    #[test]
    fn nested_inv_is_malformed() {
        let traces = vec![trace(
            0,
            0,
            vec![mark(1, labels::INV, 0, 0), mark(2, labels::INV, 1, 0)],
        )];
        assert!(History::from_traces(&traces).is_err());
    }

    #[test]
    fn foreign_marks_are_ignored() {
        let traces = vec![trace(
            0,
            0,
            vec![
                mark(0, "torture-op", 3, 1),
                mark(1, labels::INV, 0, 1),
                mark(2, labels::RET, 0, 0),
            ],
        )];
        let h = History::from_traces(&traces).expect("well-formed");
        assert_eq!(h.total_ops(), 1);
    }
}
