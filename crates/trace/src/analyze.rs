//! Contention analysis over JSONL trace captures.
//!
//! The exporters answer "what happened on thread T"; production debugging
//! needs the cross-thread view: *which sections fight*, *which cache lines
//! are hot and who hammers them*, *when do readers and writers interfere*,
//! and *how does each section behave* (abort rate, commit-mode mix,
//! latency tail). This module ingests a [`crate::export::jsonl`] capture —
//! full-firehose or [`crate::TraceConfig::Sampled`] — and distills those
//! four views into one machine-readable report the `sprwl-analyze` CLI
//! prints and `scripts/summarize_bench.py` renders.
//!
//! ## Attribution model
//!
//! Events are merged across threads and replayed in timestamp order while
//! tracking each thread's currently open section. A `tx-abort` is charged
//! to the victim's open section; when the substrate attributed a peer
//! thread, the *peer's* open section at that instant completes the
//! conflicting pair. This is the same last-conflict attribution the
//! simulated HTM exposes via `ThreadCtx::last_conflict`, lifted from
//! "thread ↔ thread" to "section ↔ section" — the granularity at which
//! SpRWL's per-section knobs (tracking mode, δ-start, skip budgets) act.
//!
//! ## Sampling soundness
//!
//! A sampled capture records 1-in-N whole sections per thread. Counters
//! derived from recorded events are therefore per-thread underestimates
//! with a known factor: every count this module accumulates is weighted by
//! the recording thread's `sample_rate` from its `trace-meta` line, so the
//! report's counts are unbiased estimates of the full-trace counts.
//! Latency percentiles are computed from the recorded (unweighted)
//! samples: section selection is oblivious to duration, so the sampled
//! distribution estimates the true one. `dropped > 0` (ring overwrite)
//! cannot be corrected the same way and is surfaced verbatim so consumers
//! can distrust truncated captures.

use crate::history::{json_str, json_u64};
use std::collections::BTreeMap;

/// Analysis knobs.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeConfig {
    /// How many conflicting pairs / hot lines to keep (top-K).
    pub top_k: usize,
    /// Interference-timeline resolution (bucket count over the capture).
    pub timeline_buckets: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self {
            top_k: 10,
            timeline_buckets: 24,
        }
    }
}

/// Per-section behaviour rollup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SectionRollup {
    /// Rate-weighted reader executions (section-end events).
    pub reader_execs: u64,
    /// Rate-weighted writer executions.
    pub writer_execs: u64,
    /// Rate-weighted commit-mode counts, by stable mode label.
    pub modes: BTreeMap<String, u64>,
    /// Rate-weighted abort counts, by stable cause label.
    pub aborts: BTreeMap<String, u64>,
    /// Recorded (unweighted) section latencies, nanoseconds.
    latencies: Vec<u64>,
}

impl SectionRollup {
    /// Total rate-weighted executions.
    pub fn execs(&self) -> u64 {
        self.reader_execs + self.writer_execs
    }

    /// Total rate-weighted aborts.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Aborts per completed execution (0 when nothing completed).
    pub fn abort_rate(&self) -> f64 {
        if self.execs() == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / self.execs() as f64
        }
    }

    /// Nearest-rank percentile over the recorded latencies.
    pub fn latency_pct(&self, pct: u64) -> u64 {
        percentile(&self.latencies, pct)
    }
}

fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * pct / 100) as usize]
}

/// One section↔section conflict entry (unordered pair, `a <= b`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairEntry {
    /// Lower section id of the pair.
    pub a: u32,
    /// Higher section id (equal to `a` for self-conflicts).
    pub b: u32,
    /// Rate-weighted conflict count.
    pub count: u64,
    /// Breakdown by abort-cause label.
    pub causes: BTreeMap<String, u64>,
}

/// One hot-cache-line entry with peer attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineEntry {
    /// The conflicting cache line index.
    pub line: u64,
    /// Rate-weighted aborts attributed to this line.
    pub count: u64,
    /// Rate-weighted counts per peer thread that owned/doomed the line.
    pub peers: BTreeMap<u32, u64>,
}

/// Reader/writer interference over time: fixed-width buckets spanning the
/// capture, each counting rate-weighted section starts and aborts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// First timestamp covered.
    pub start_ts: u64,
    /// Bucket width, nanoseconds (0 for an empty/degenerate capture).
    pub bucket_ns: u64,
    /// Reader section starts per bucket.
    pub reader_begins: Vec<u64>,
    /// Writer section starts per bucket.
    pub writer_begins: Vec<u64>,
    /// Writer aborts caused by readers (`cause == "reader"`) per bucket.
    pub reader_caused_aborts: Vec<u64>,
    /// Data-conflict aborts (`cause` starting with `"conflict"`) per bucket.
    pub conflict_aborts: Vec<u64>,
    /// Capacity-overflow aborts (`cause` starting with `"capacity"`, both
    /// plain-HTM and ROT) per bucket.
    pub capacity_aborts: Vec<u64>,
}

/// Per-thread sampling summary lifted from the `trace-meta` lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SamplingSummary {
    /// Threads that recorded under a sampled config.
    pub sampled_threads: u64,
    /// The largest per-thread stride seen.
    pub max_rate: u64,
    /// Total sections observed across sampled threads.
    pub sections_seen: u64,
    /// Total sections recorded across sampled threads.
    pub sections_sampled: u64,
    /// Total events suppressed by sampling.
    pub unsampled: u64,
}

/// The analyzer's output: everything `sprwl-analyze` prints as JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Event lines parsed (excluding `trace-meta`).
    pub events: u64,
    /// Distinct recording threads seen.
    pub threads: u64,
    /// Total ring-overwrite drops across threads (capture truncation).
    pub dropped: u64,
    /// Sampling summary when any thread recorded under `Sampled`.
    pub sampling: Option<SamplingSummary>,
    /// Per-section rollups, keyed by section id.
    pub sections: BTreeMap<u32, SectionRollup>,
    /// Top-K conflicting section pairs, most conflicts first.
    pub top_pairs: Vec<PairEntry>,
    /// Top-K hot cache lines, most aborts first.
    pub line_heat: Vec<LineEntry>,
    /// Reader/writer interference timeline.
    pub timeline: Timeline,
}

impl Report {
    /// Whether the capture contained any section lifecycle at all — the
    /// CLI's exit-1 ("vacuous capture") predicate.
    pub fn has_sections(&self) -> bool {
        !self.sections.is_empty()
    }
}

/// One parsed capture line, reduced to what the replay needs.
#[derive(Debug)]
enum Rec {
    Begin {
        tid: u32,
        ts: u64,
        sec: u32,
        writer: bool,
    },
    End {
        tid: u32,
        ts: u64,
        sec: u32,
        writer: bool,
        mode: String,
        latency: u64,
    },
    Abort {
        tid: u32,
        ts: u64,
        cause: String,
        line: Option<u64>,
        peer: Option<u32>,
    },
    Other {
        tid: u32,
        ts: u64,
    },
}

impl Rec {
    fn ts(&self) -> u64 {
        match self {
            Rec::Begin { ts, .. }
            | Rec::End { ts, .. }
            | Rec::Abort { ts, .. }
            | Rec::Other { ts, .. } => *ts,
        }
    }

    fn tid(&self) -> u32 {
        match self {
            Rec::Begin { tid, .. }
            | Rec::End { tid, .. }
            | Rec::Abort { tid, .. }
            | Rec::Other { tid, .. } => *tid,
        }
    }
}

/// Analyzes a JSONL capture with the given knobs.
///
/// # Errors
///
/// Returns a description of the first malformed line: one that names an
/// `ev` but lacks the fields that event requires. Lines without an `ev`
/// field (postmortem run-metadata headers) are skipped.
pub fn analyze_with(text: &str, cfg: &AnalyzeConfig) -> Result<Report, String> {
    let mut recs: Vec<Rec> = Vec::new();
    let mut rates: BTreeMap<u32, u64> = BTreeMap::new();
    let mut report = Report::default();
    let mut tids: Vec<u32> = Vec::new();

    for (n, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("line {}: {}", n + 1, what);
        let Some(ev) = json_str(line, "ev") else {
            continue; // run-metadata header (postmortems) — no "ev" field
        };
        let tid = json_u64(line, "tid").ok_or_else(|| bad("event without tid"))? as u32;
        if ev == "trace-meta" {
            report.dropped += json_u64(line, "dropped").unwrap_or(0);
            if let Some(rate) = json_u64(line, "sample_rate") {
                rates.insert(tid, rate.max(1));
                let s = report.sampling.get_or_insert_with(SamplingSummary::default);
                s.sampled_threads += 1;
                s.max_rate = s.max_rate.max(rate);
                s.sections_seen += json_u64(line, "sections_seen").unwrap_or(0);
                s.sections_sampled += json_u64(line, "sections_sampled").unwrap_or(0);
                s.unsampled += json_u64(line, "unsampled").unwrap_or(0);
            }
            continue;
        }
        let ts = json_u64(line, "ts").ok_or_else(|| bad("event without ts"))?;
        if !tids.contains(&tid) {
            tids.push(tid);
        }
        report.events += 1;
        let rec = match ev {
            "section-begin" => Rec::Begin {
                tid,
                ts,
                sec: json_u64(line, "sec").ok_or_else(|| bad("section-begin without sec"))? as u32,
                writer: json_str(line, "role") == Some("writer"),
            },
            "section-end" => Rec::End {
                tid,
                ts,
                sec: json_u64(line, "sec").ok_or_else(|| bad("section-end without sec"))? as u32,
                writer: json_str(line, "role") == Some("writer"),
                mode: json_str(line, "mode").unwrap_or("?").to_string(),
                latency: json_u64(line, "latency_ns").unwrap_or(0),
            },
            "tx-abort" => Rec::Abort {
                tid,
                ts,
                cause: json_str(line, "cause").unwrap_or("?").to_string(),
                line: json_u64(line, "line"),
                peer: json_u64(line, "peer").map(|p| p as u32),
            },
            _ => Rec::Other { tid, ts },
        };
        recs.push(rec);
    }
    report.threads = tids.len() as u64;

    // Merge across threads: stable sort keeps the per-thread (causal)
    // order for equal timestamps, so same capture → same report.
    recs.sort_by_key(|r| r.ts());

    let rate = |tid: u32| rates.get(&tid).copied().unwrap_or(1);
    let mut open: BTreeMap<u32, (u32, bool)> = BTreeMap::new(); // tid → (sec, writer)
    let mut pairs: BTreeMap<(u32, u32), (u64, BTreeMap<String, u64>)> = BTreeMap::new();
    let mut lines: BTreeMap<u64, (u64, BTreeMap<u32, u64>)> = BTreeMap::new();

    let (min_ts, max_ts) = recs.iter().fold((u64::MAX, 0u64), |(lo, hi), r| {
        (lo.min(r.ts()), hi.max(r.ts()))
    });
    let buckets = cfg.timeline_buckets.max(1);
    let span = max_ts.saturating_sub(min_ts);
    let bucket_ns = (span / buckets as u64).max(1);
    let mut tl = Timeline {
        start_ts: if recs.is_empty() { 0 } else { min_ts },
        bucket_ns: if recs.is_empty() { 0 } else { bucket_ns },
        reader_begins: vec![0; buckets],
        writer_begins: vec![0; buckets],
        reader_caused_aborts: vec![0; buckets],
        conflict_aborts: vec![0; buckets],
        capacity_aborts: vec![0; buckets],
    };
    let bucket_of = |ts: u64| (((ts - min_ts) / bucket_ns) as usize).min(buckets - 1);

    for r in &recs {
        let w = rate(r.tid());
        match r {
            Rec::Begin {
                tid,
                ts,
                sec,
                writer,
            } => {
                open.insert(*tid, (*sec, *writer));
                let arr = if *writer {
                    &mut tl.writer_begins
                } else {
                    &mut tl.reader_begins
                };
                arr[bucket_of(*ts)] += w;
            }
            Rec::End {
                tid,
                sec,
                writer,
                mode,
                latency,
                ..
            } => {
                open.remove(tid);
                let roll = report.sections.entry(*sec).or_default();
                if *writer {
                    roll.writer_execs += w;
                } else {
                    roll.reader_execs += w;
                }
                *roll.modes.entry(mode.clone()).or_default() += w;
                roll.latencies.push(*latency);
            }
            Rec::Abort {
                tid,
                ts,
                cause,
                line,
                peer,
            } => {
                if cause == "reader" {
                    tl.reader_caused_aborts[bucket_of(*ts)] += w;
                } else if cause.starts_with("conflict") {
                    tl.conflict_aborts[bucket_of(*ts)] += w;
                } else if cause.starts_with("capacity") {
                    tl.capacity_aborts[bucket_of(*ts)] += w;
                }
                let victim = open.get(tid).map(|&(sec, _)| sec);
                if let Some(vsec) = victim {
                    let roll = report.sections.entry(vsec).or_default();
                    *roll.aborts.entry(cause.clone()).or_default() += w;
                    // Peer attribution completes the section↔section pair.
                    if let Some(p) = peer {
                        if let Some(&(psec, _)) = open.get(p) {
                            let key = (vsec.min(psec), vsec.max(psec));
                            let e = pairs.entry(key).or_default();
                            e.0 += w;
                            *e.1.entry(cause.clone()).or_default() += w;
                        }
                    }
                }
                if let Some(l) = line {
                    let e = lines.entry(*l).or_default();
                    e.0 += w;
                    if let Some(p) = peer {
                        *e.1.entry(*p).or_default() += w;
                    }
                }
            }
            Rec::Other { .. } => {}
        }
    }

    for roll in report.sections.values_mut() {
        roll.latencies.sort_unstable();
    }

    // Top-K, ties broken by key so equal-count entries order stably.
    let mut top_pairs: Vec<PairEntry> = pairs
        .into_iter()
        .map(|((a, b), (count, causes))| PairEntry {
            a,
            b,
            count,
            causes,
        })
        .collect();
    top_pairs.sort_by(|x, y| y.count.cmp(&x.count).then((x.a, x.b).cmp(&(y.a, y.b))));
    top_pairs.truncate(cfg.top_k);
    report.top_pairs = top_pairs;

    let mut line_heat: Vec<LineEntry> = lines
        .into_iter()
        .map(|(line, (count, peers))| LineEntry { line, count, peers })
        .collect();
    line_heat.sort_by(|x, y| y.count.cmp(&x.count).then(x.line.cmp(&y.line)));
    line_heat.truncate(cfg.top_k);
    report.line_heat = line_heat;

    report.timeline = tl;
    Ok(report)
}

/// [`analyze_with`] under the default knobs.
pub fn analyze(text: &str) -> Result<Report, String> {
    analyze_with(text, &AnalyzeConfig::default())
}

fn push_count_map<K: std::fmt::Display>(out: &mut String, map: &BTreeMap<K, u64>) {
    use std::fmt::Write;
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", k, v);
    }
    out.push('}');
}

fn push_u64_array(out: &mut String, vals: &[u64]) {
    use std::fmt::Write;
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", v);
    }
    out.push(']');
}

impl Report {
    /// Serializes the report as one pretty-enough JSON document (stable
    /// field and entry order, so equal reports render byte-identically).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": 1,");
        let _ = writeln!(s, "  \"events\": {},", self.events);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"dropped\": {},", self.dropped);
        match &self.sampling {
            Some(m) => {
                let _ = writeln!(
                    s,
                    "  \"sampling\": {{\"sampled_threads\":{},\"max_rate\":{},\"sections_seen\":{},\"sections_sampled\":{},\"unsampled\":{}}},",
                    m.sampled_threads, m.max_rate, m.sections_seen, m.sections_sampled, m.unsampled
                );
            }
            None => {
                let _ = writeln!(s, "  \"sampling\": null,");
            }
        }
        s.push_str("  \"sections\": [\n");
        for (i, (sec, r)) in self.sections.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"sec\":{},\"reader_execs\":{},\"writer_execs\":{},\"abort_rate\":{:.4},\"modes\":",
                sec,
                r.reader_execs,
                r.writer_execs,
                r.abort_rate()
            );
            push_count_map(&mut s, &r.modes);
            s.push_str(",\"aborts\":");
            push_count_map(&mut s, &r.aborts);
            let _ = write!(
                s,
                ",\"latency_ns\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"samples\":{}}}}}",
                r.latency_pct(50),
                r.latency_pct(95),
                r.latency_pct(99),
                r.latencies.len()
            );
            s.push_str(if i + 1 < self.sections.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"top_pairs\": [\n");
        for (i, p) in self.top_pairs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"a\":{},\"b\":{},\"count\":{},\"causes\":",
                p.a, p.b, p.count
            );
            push_count_map(&mut s, &p.causes);
            s.push('}');
            s.push_str(if i + 1 < self.top_pairs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"line_heat\": [\n");
        for (i, l) in self.line_heat.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"line\":{},\"count\":{},\"peers\":",
                l.line, l.count
            );
            push_count_map(&mut s, &l.peers);
            s.push('}');
            s.push_str(if i + 1 < self.line_heat.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        let _ = write!(
            s,
            "  \"timeline\": {{\"start_ts\":{},\"bucket_ns\":{},\"reader_begins\":",
            self.timeline.start_ts, self.timeline.bucket_ns
        );
        push_u64_array(&mut s, &self.timeline.reader_begins);
        s.push_str(",\"writer_begins\":");
        push_u64_array(&mut s, &self.timeline.writer_begins);
        s.push_str(",\"reader_caused_aborts\":");
        push_u64_array(&mut s, &self.timeline.reader_caused_aborts);
        s.push_str(",\"conflict_aborts\":");
        push_u64_array(&mut s, &self.timeline.conflict_aborts);
        s.push_str(",\"capacity_aborts\":");
        push_u64_array(&mut s, &self.timeline.capacity_aborts);
        s.push_str("}\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{export, Event, EventKind, ThreadTrace, TraceRole};

    fn ev(ts: u64, kind: EventKind) -> Event {
        Event { ts, kind }
    }

    /// Two writers fighting over section 0/1 on line 42, one quiet reader.
    fn capture() -> String {
        let t0 = ThreadTrace::full(
            0,
            vec![
                ev(
                    10,
                    EventKind::SectionBegin {
                        role: TraceRole::Writer,
                        sec: 0,
                    },
                ),
                ev(
                    30,
                    EventKind::TxAbort {
                        cause: "conflict",
                        line: 42,
                        peer: 1,
                    },
                ),
                ev(
                    60,
                    EventKind::SectionEnd {
                        role: TraceRole::Writer,
                        sec: 0,
                        mode: "HTM",
                        latency_ns: 50,
                    },
                ),
            ],
            0,
        );
        let t1 = ThreadTrace::full(
            1,
            vec![
                ev(
                    5,
                    EventKind::SectionBegin {
                        role: TraceRole::Writer,
                        sec: 1,
                    },
                ),
                ev(
                    40,
                    EventKind::TxAbort {
                        cause: "reader",
                        line: crate::NO_LINE,
                        peer: crate::NO_PEER,
                    },
                ),
                ev(
                    70,
                    EventKind::SectionEnd {
                        role: TraceRole::Writer,
                        sec: 1,
                        mode: "GL",
                        latency_ns: 65,
                    },
                ),
            ],
            0,
        );
        let t2 = ThreadTrace::full(
            2,
            vec![
                ev(
                    20,
                    EventKind::SectionBegin {
                        role: TraceRole::Reader,
                        sec: 0,
                    },
                ),
                ev(
                    25,
                    EventKind::SectionEnd {
                        role: TraceRole::Reader,
                        sec: 0,
                        mode: "Unins",
                        latency_ns: 5,
                    },
                ),
            ],
            0,
        );
        export::jsonl(&[t0, t1, t2])
    }

    #[test]
    fn attributes_pairs_lines_and_rollups() {
        let r = analyze(&capture()).unwrap();
        assert!(r.has_sections());
        assert_eq!(r.threads, 3);
        assert_eq!(r.events, 8);
        // The conflict abort on tid 0 (open: sec 0) names peer 1 (open:
        // sec 1) → pair (0, 1).
        assert_eq!(r.top_pairs.len(), 1);
        assert_eq!((r.top_pairs[0].a, r.top_pairs[0].b), (0, 1));
        assert_eq!(r.top_pairs[0].count, 1);
        assert_eq!(r.top_pairs[0].causes.get("conflict"), Some(&1));
        // Line heat: line 42 hammered by peer 1.
        assert_eq!(r.line_heat.len(), 1);
        assert_eq!(r.line_heat[0].line, 42);
        assert_eq!(r.line_heat[0].peers.get(&1), Some(&1));
        // Rollups: sec 0 ran a writer and a reader; sec 1 took the
        // reader-caused abort.
        let s0 = &r.sections[&0];
        assert_eq!((s0.reader_execs, s0.writer_execs), (1, 1));
        assert_eq!(s0.modes.get("HTM"), Some(&1));
        assert_eq!(s0.modes.get("Unins"), Some(&1));
        assert_eq!(s0.aborts.get("conflict"), Some(&1));
        let s1 = &r.sections[&1];
        assert_eq!(s1.aborts.get("reader"), Some(&1));
        assert!((s1.abort_rate() - 1.0).abs() < 1e-9);
        // Timeline: one reader begin, two writer begins, one of each abort.
        assert_eq!(r.timeline.reader_begins.iter().sum::<u64>(), 1);
        assert_eq!(r.timeline.writer_begins.iter().sum::<u64>(), 2);
        assert_eq!(r.timeline.reader_caused_aborts.iter().sum::<u64>(), 1);
        assert_eq!(r.timeline.conflict_aborts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn sampled_captures_rescale_counts() {
        // Same capture, but tid 0 recorded at 1-in-8: its counts weigh 8x.
        let mut text = String::from(
            "{\"tid\":0,\"ev\":\"trace-meta\",\"dropped\":0,\"sample_rate\":8,\"sections_seen\":80,\"sections_sampled\":10,\"unsampled\":300}\n",
        );
        text.push_str(&capture());
        let r = analyze(&text).unwrap();
        let m = r.sampling.as_ref().expect("sampling meta surfaced");
        assert_eq!((m.sampled_threads, m.max_rate), (1, 8));
        assert_eq!(m.unsampled, 300);
        // tid 0's writer exec on sec 0 now estimates 8 executions; the
        // unsampled reader exec still counts 1.
        let s0 = &r.sections[&0];
        assert_eq!((s0.reader_execs, s0.writer_execs), (1, 8));
        assert_eq!(r.top_pairs[0].count, 8);
        assert_eq!(r.line_heat[0].count, 8);
    }

    #[test]
    fn report_is_deterministic_and_json_parses_shape() {
        let a = analyze(&capture()).unwrap();
        let b = analyze(&capture()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let j = a.to_json();
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"top_pairs\""));
        assert!(j.contains("\"line_heat\""));
        assert!(j.contains("\"timeline\""));
    }

    #[test]
    fn vacuous_capture_has_no_sections() {
        // Marks only — parses fine, but nothing lifecycle-shaped.
        let text = "{\"tid\":0,\"ts\":1,\"ev\":\"torture-op\",\"a\":1,\"b\":2}\n";
        let r = analyze(text).unwrap();
        assert!(!r.has_sections());
        assert_eq!(r.events, 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(analyze("{\"ts\":1,\"ev\":\"tx-abort\"}\n").is_err());
        assert!(analyze("{\"tid\":1,\"ev\":\"tx-abort\"}\n").is_err());
        // Headers without "ev" are metadata, not errors.
        assert!(analyze("{\"case\":\"demo\"}\n").unwrap().events == 0);
    }
}
