//! Trace exporters: JSONL (grep-friendly) and Chrome trace-event JSON
//! (Perfetto-loadable).
//!
//! Both formats are written by hand — every payload field is a primitive
//! or a `&'static str` label chosen by this workspace, so no escaping or
//! serialization framework is needed (and none is available offline).
//!
//! The Chrome exporter follows the [trace-event format]: `"B"`/`"E"` pairs
//! turn sections and speculative attempts into nested slices on one track
//! per thread, scheduler decisions and reader arrival/departure become
//! `"i"` instants, and each conflict abort opens a `"s"` flow arrow that
//! lands (`"f"`) on the same thread's next commit so retry chains are
//! visible at a glance. Open the file at <https://ui.perfetto.dev>.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{Event, EventKind, ThreadTrace, NO_LINE, NO_PEER};

/// The `pid` all tracks share (one simulated process).
const PID: u32 = 1;

fn push_kind_fields(out: &mut String, kind: &EventKind) {
    use std::fmt::Write;
    match kind {
        EventKind::SectionBegin { role, sec } => {
            let _ = write!(out, r#""role":"{}","sec":{}"#, role.label(), sec);
        }
        EventKind::SectionEnd {
            role,
            sec,
            mode,
            latency_ns,
        } => {
            let _ = write!(
                out,
                r#""role":"{}","sec":{},"mode":"{}","latency_ns":{}"#,
                role.label(),
                sec,
                mode,
                latency_ns
            );
        }
        EventKind::TxAttempt { role, attempt } => {
            let _ = write!(out, r#""role":"{}","attempt":{}"#, role.label(), attempt);
        }
        EventKind::TxCommit {
            mode,
            read_fp,
            write_fp,
        } => {
            let _ = write!(
                out,
                r#""mode":"{}","read_fp":{},"write_fp":{}"#,
                mode, read_fp, write_fp
            );
        }
        EventKind::TxAbort { cause, line, peer } => {
            let _ = write!(out, r#""cause":"{}""#, cause);
            if *line != NO_LINE {
                let _ = write!(out, r#","line":{}"#, line);
            }
            if *peer != NO_PEER {
                let _ = write!(out, r#","peer":{}"#, peer);
            }
        }
        EventKind::ReaderArrive | EventKind::ReaderDepart | EventKind::FallbackRelease => {}
        EventKind::SchedJoinWaiter { target } => {
            let _ = write!(out, r#""target":{}"#, target);
        }
        EventKind::SchedWaitWriter { writer, deadline } => {
            let _ = write!(out, r#""writer":{},"deadline":{}"#, writer, deadline);
        }
        EventKind::SchedDeltaStart { start_at } => {
            let _ = write!(out, r#""start_at":{}"#, start_at);
        }
        EventKind::FallbackAcquire { version } => {
            let _ = write!(out, r#""version":{}"#, version);
        }
        EventKind::SglBypassEnter { registered } => {
            let _ = write!(out, r#""registered":{}"#, registered);
        }
        EventKind::SglWaitSenior { my_version } => {
            let _ = write!(out, r#""my_version":{}"#, my_version);
        }
        EventKind::BiasRevoke { occupied, scanned } => {
            let _ = write!(out, r#""occupied":{},"scanned":{}"#, occupied, scanned);
        }
        EventKind::BiasRearm => {}
        EventKind::SlotAcquire { slot } | EventKind::SlotRelease { slot } => {
            let _ = write!(out, r#""slot":{}"#, slot);
        }
        EventKind::Mark { label: _, a, b } => {
            let _ = write!(out, r#""a":{},"b":{}"#, a, b);
        }
    }
}

/// Renders traces as JSON Lines: one `{"tid":..,"ts":..,"ev":..,...}`
/// object per line, in per-thread chronological order. Threads with
/// dropped (ring-overwritten) events, or harvested from a sampled buffer,
/// get a leading `trace-meta` line carrying the counters an analyzer
/// needs to rescale or distrust the capture.
pub fn jsonl(traces: &[ThreadTrace]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for t in traces {
        if t.dropped > 0 || t.sampling.is_some() {
            let _ = write!(
                out,
                r#"{{"tid":{},"ev":"trace-meta","dropped":{}"#,
                t.tid, t.dropped
            );
            if let Some(s) = &t.sampling {
                let _ = write!(
                    out,
                    r#","sample_rate":{},"sections_seen":{},"sections_sampled":{},"unsampled":{}"#,
                    s.rate, s.sections_seen, s.sections_sampled, s.unsampled
                );
            }
            out.push_str("}\n");
        }
        for e in &t.events {
            let _ = write!(
                out,
                r#"{{"tid":{},"ts":{},"ev":"{}""#,
                t.tid,
                e.ts,
                e.kind.name()
            );
            let mut fields = String::new();
            push_kind_fields(&mut fields, &e.kind);
            if !fields.is_empty() {
                out.push(',');
                out.push_str(&fields);
            }
            out.push_str("}\n");
        }
    }
    out
}

/// Microseconds with nanosecond precision, as the trace-event format's
/// `ts` field expects.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn chrome_event(
    out: &mut String,
    first: &mut bool,
    ph: char,
    name: &str,
    tid: u32,
    ts: u64,
    extra: &str,
) {
    use std::fmt::Write;
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        r#"{{"name":"{}","ph":"{}","pid":{},"tid":{},"ts":{}{}}}"#,
        name,
        ph,
        PID,
        tid,
        ts_us(ts),
        extra
    );
}

fn args_json(kind: &EventKind) -> String {
    let mut fields = String::new();
    push_kind_fields(&mut fields, kind);
    if fields.is_empty() {
        String::new()
    } else {
        format!(r#","args":{{{}}}"#, fields)
    }
}

/// Which commit events (by per-thread event index) terminate a flow arrow
/// opened by an earlier conflict abort. Pre-scanned so no `"s"` flow event
/// is ever emitted without its matching `"f"` — Perfetto rejects dangling
/// flows.
fn flow_targets(events: &[Event]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut open_abort: Option<usize> = None;
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            EventKind::TxAbort {
                cause: "conflict", ..
            } => open_abort = Some(i),
            EventKind::TxCommit { .. } => {
                if let Some(a) = open_abort.take() {
                    pairs.push((a, i));
                }
            }
            _ => {}
        }
    }
    pairs
}

/// Renders traces as a Chrome trace-event JSON document: one track per
/// thread, nested `section`/`attempt` slices, instant markers for
/// scheduler decisions, and abort→commit flow arrows. Load the result in
/// Perfetto or `chrome://tracing`.
pub fn chrome_trace_json(traces: &[ThreadTrace]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for t in traces {
        // Track metadata: name each tid's track.
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{},"args":{{"name":"thread {}"}}}}"#,
            PID, t.tid, t.tid
        );
        // Sampled tracks carry their rescaling metadata as a second "M"
        // record; viewers that don't know the name simply ignore it.
        if let Some(s) = &t.sampling {
            out.push_str(",\n");
            let _ = write!(
                out,
                r#"{{"name":"sampling","ph":"M","pid":{},"tid":{},"args":{{"rate":{},"sections_seen":{},"sections_sampled":{},"unsampled":{}}}}}"#,
                PID, t.tid, s.rate, s.sections_seen, s.sections_sampled, s.unsampled
            );
        }
        let flows = flow_targets(&t.events);
        let flow_id = |i: usize| -> Option<usize> {
            flows
                .iter()
                .position(|&(a, c)| a == i || c == i)
                .map(|p| p + 1 + (t.tid as usize) * 100_000)
        };
        // Slice stack depth so we never emit an unmatched "E".
        let mut depth: u32 = 0;
        let mut last_ts: u64 = 0;
        for (i, e) in t.events.iter().enumerate() {
            last_ts = e.ts;
            match e.kind {
                EventKind::SectionBegin { role, .. } => {
                    chrome_event(
                        &mut out,
                        &mut first,
                        'B',
                        &format!("{}-section", role.label()),
                        t.tid,
                        e.ts,
                        &args_json(&e.kind),
                    );
                    depth += 1;
                }
                EventKind::TxAttempt { .. } => {
                    chrome_event(
                        &mut out,
                        &mut first,
                        'B',
                        "attempt",
                        t.tid,
                        e.ts,
                        &args_json(&e.kind),
                    );
                    depth += 1;
                }
                EventKind::TxCommit { .. } | EventKind::TxAbort { .. } => {
                    let name = if matches!(e.kind, EventKind::TxCommit { .. }) {
                        "attempt"
                    } else {
                        "attempt(abort)"
                    };
                    if depth > 0 {
                        chrome_event(
                            &mut out,
                            &mut first,
                            'E',
                            name,
                            t.tid,
                            e.ts,
                            &args_json(&e.kind),
                        );
                        depth -= 1;
                    } else {
                        // Ring overwrite ate the matching "B": degrade to an
                        // instant rather than corrupt the slice stack.
                        chrome_event(
                            &mut out,
                            &mut first,
                            'i',
                            e.kind.name(),
                            t.tid,
                            e.ts,
                            &format!(r#","s":"t"{}"#, args_json(&e.kind)),
                        );
                    }
                    if let Some(id) = flow_id(i) {
                        let ph = if matches!(e.kind, EventKind::TxAbort { .. }) {
                            'B'
                        } else {
                            'E'
                        };
                        // Flow arrows: "s" at the abort, "f" (binding to the
                        // enclosing slice end) at the retry's commit.
                        let (fph, bp) = if ph == 'B' {
                            ('s', "")
                        } else {
                            ('f', r#","bp":"e""#)
                        };
                        if !first {
                            out.push_str(",\n");
                        }
                        first = false;
                        let _ = write!(
                            out,
                            r#"{{"name":"retry","ph":"{}","id":{},"pid":{},"tid":{},"ts":{}{}}}"#,
                            fph,
                            id,
                            PID,
                            t.tid,
                            ts_us(e.ts),
                            bp
                        );
                    }
                }
                EventKind::SectionEnd { .. } if depth > 0 => {
                    chrome_event(
                        &mut out,
                        &mut first,
                        'E',
                        "section",
                        t.tid,
                        e.ts,
                        &args_json(&e.kind),
                    );
                    depth -= 1;
                }
                // Orphan end (its begin was overwritten by the ring):
                // demote to an instant so B/E stay balanced.
                EventKind::SectionEnd { .. } => {
                    chrome_event(
                        &mut out,
                        &mut first,
                        'i',
                        e.kind.name(),
                        t.tid,
                        e.ts,
                        &format!(r#","s":"t"{}"#, args_json(&e.kind)),
                    );
                }
                _ => {
                    chrome_event(
                        &mut out,
                        &mut first,
                        'i',
                        e.kind.name(),
                        t.tid,
                        e.ts,
                        &format!(r#","s":"t"{}"#, args_json(&e.kind)),
                    );
                }
            }
        }
        // Close any slices left open (section in flight when the run
        // stopped, or attempt whose outcome fell outside the ring).
        while depth > 0 {
            chrome_event(&mut out, &mut first, 'E', "truncated", t.tid, last_ts, "");
            depth -= 1;
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Writes [`jsonl`] output to `path`.
pub fn write_jsonl_file(path: &std::path::Path, traces: &[ThreadTrace]) -> std::io::Result<()> {
    std::fs::write(path, jsonl(traces))
}

/// Writes [`chrome_trace_json`] output to `path`.
pub fn write_chrome_file(path: &std::path::Path, traces: &[ThreadTrace]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRole;

    fn ev(ts: u64, kind: EventKind) -> Event {
        Event { ts, kind }
    }

    fn sample() -> Vec<ThreadTrace> {
        vec![ThreadTrace::full(
            0,
            vec![
                ev(
                    100,
                    EventKind::SectionBegin {
                        role: TraceRole::Writer,
                        sec: 7,
                    },
                ),
                ev(
                    150,
                    EventKind::TxAttempt {
                        role: TraceRole::Writer,
                        attempt: 1,
                    },
                ),
                ev(
                    200,
                    EventKind::TxAbort {
                        cause: "conflict",
                        line: 42,
                        peer: 3,
                    },
                ),
                ev(
                    250,
                    EventKind::TxAttempt {
                        role: TraceRole::Writer,
                        attempt: 2,
                    },
                ),
                ev(
                    300,
                    EventKind::TxCommit {
                        mode: "HTM",
                        read_fp: 4,
                        write_fp: 2,
                    },
                ),
                ev(
                    320,
                    EventKind::SectionEnd {
                        role: TraceRole::Writer,
                        sec: 7,
                        mode: "HTM",
                        latency_ns: 220,
                    },
                ),
            ],
            0,
        )]
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let s = jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains(r#""ev":"section-begin""#));
        assert!(lines[2].contains(r#""cause":"conflict""#));
        assert!(lines[2].contains(r#""line":42"#));
        assert!(lines[2].contains(r#""peer":3"#));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn jsonl_omits_unattributed_conflicts() {
        let t = vec![ThreadTrace::full(
            1,
            vec![ev(
                5,
                EventKind::TxAbort {
                    cause: "capacity",
                    line: NO_LINE,
                    peer: NO_PEER,
                },
            )],
            0,
        )];
        let s = jsonl(&t);
        assert!(!s.contains("\"line\""));
        assert!(!s.contains("\"peer\""));
    }

    #[test]
    fn jsonl_reports_dropped() {
        let t = vec![ThreadTrace::full(
            2,
            vec![ev(1, EventKind::ReaderArrive)],
            9,
        )];
        let s = jsonl(&t);
        assert!(s.lines().next().unwrap().contains(r#""dropped":9"#));
    }

    #[test]
    fn jsonl_reports_sampling_meta() {
        let t = vec![ThreadTrace {
            tid: 3,
            dropped: 0,
            events: vec![ev(1, EventKind::ReaderArrive)],
            sampling: Some(crate::SampleMeta {
                rate: 16,
                sections_seen: 160,
                sections_sampled: 10,
                unsampled: 600,
            }),
        }];
        let s = jsonl(&t);
        let meta = s.lines().next().unwrap();
        assert!(meta.contains(r#""ev":"trace-meta""#));
        assert!(meta.contains(r#""sample_rate":16"#));
        assert!(meta.contains(r#""sections_seen":160"#));
        assert!(meta.contains(r#""sections_sampled":10"#));
        assert!(meta.contains(r#""unsampled":600"#));
        // The meta line parses as one JSON object per the JSONL contract.
        assert!(meta.starts_with('{') && meta.ends_with('}'));
        // And the chrome exporter carries the same counters as an M record.
        let c = chrome_trace_json(&t);
        assert!(c.contains(r#""name":"sampling","ph":"M""#));
        assert!(c.contains(r#""rate":16"#));
    }

    #[test]
    fn chrome_slices_balance_and_flows_pair() {
        let s = chrome_trace_json(&sample());
        let b = s.matches(r#""ph":"B""#).count();
        let e = s.matches(r#""ph":"E""#).count();
        assert_eq!(b, e, "every B has a matching E:\n{}", s);
        assert_eq!(s.matches(r#""ph":"s""#).count(), 1);
        assert_eq!(s.matches(r#""ph":"f""#).count(), 1);
        assert!(s.contains(r#""displayTimeUnit":"ns""#));
        assert!(s.contains(r#""name":"thread_name""#));
    }

    #[test]
    fn chrome_truncated_ring_still_balances() {
        // Ring overwrite ate the SectionBegin/TxAttempt: the orphan commit
        // must not emit an unmatched "E".
        let t = vec![ThreadTrace::full(
            0,
            vec![
                ev(
                    10,
                    EventKind::TxCommit {
                        mode: "HTM",
                        read_fp: 1,
                        write_fp: 1,
                    },
                ),
                ev(
                    20,
                    EventKind::SectionBegin {
                        role: TraceRole::Reader,
                        sec: 0,
                    },
                ),
            ],
            3,
        )];
        let s = chrome_trace_json(&t);
        let b = s.matches(r#""ph":"B""#).count();
        let e = s.matches(r#""ph":"E""#).count();
        assert_eq!(b, e, "trailing open slice closed, orphan E demoted:\n{}", s);
    }

    #[test]
    fn ts_is_microseconds() {
        assert_eq!(ts_us(1_234_567), "1234.567");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1_000), "1.000");
    }
}
