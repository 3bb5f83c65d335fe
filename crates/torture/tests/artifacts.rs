//! Unit tests for the harness's replay plumbing: `first_divergence` (the
//! line-level diff behind every determinism failure message) and
//! `CaseArtifacts` (the raw remains a run leaves behind, and the JSONL
//! export `scripts/diff_traces.py` consumes).

use htm_sim::{HtmConfig, SchedulerKind};
use sprwl::SprwlConfig;
use sprwl_torture::{
    first_divergence, run_case_artifacts, LincheckStatus, LockKind, TortureSpec, Workload,
};

#[test]
fn identical_texts_have_no_divergence() {
    assert_eq!(first_divergence("", ""), None);
    assert_eq!(first_divergence("a\nb\nc", "a\nb\nc"), None);
}

#[test]
fn single_line_mutation_is_located_exactly() {
    let a = "alpha\nbeta\ngamma\ndelta";
    let b = "alpha\nbeta\nGAMMA\ndelta";
    assert_eq!(
        first_divergence(a, b),
        Some((3, "gamma".to_string(), "GAMMA".to_string()))
    );
}

#[test]
fn truncation_diverges_at_the_missing_line() {
    let a = "alpha\nbeta\ngamma";
    let b = "alpha\nbeta";
    let (line, la, lb) = first_divergence(a, b).expect("must diverge");
    assert_eq!(line, 3);
    assert_eq!(la, "gamma");
    assert_eq!(lb, "<end of trace>");
    // Symmetric on the other side.
    let (_, la, lb) = first_divergence(b, a).expect("must diverge");
    assert_eq!((la.as_str(), lb.as_str()), ("<end of trace>", "gamma"));
}

fn small_det_spec() -> TortureSpec {
    TortureSpec {
        name: "artifacts-smoke".into(),
        lock: LockKind::Sprwl(SprwlConfig::default()),
        htm: HtmConfig {
            scheduler: SchedulerKind::deterministic(0xA7F1),
            ..HtmConfig::default()
        },
        threads: 2,
        ops_per_thread: 20,
        pairs: 2,
        write_pct: 50,
        reader_span: 2,
        writer_span: 1,
        writer_scan: 0,
        workload: Workload::Mirror,
        lincheck: true,
        churn: false,
    }
}

#[test]
fn artifacts_expose_the_full_run() {
    let art = run_case_artifacts(&small_det_spec(), 5);
    let summary = art.outcome.as_ref().expect("green run");
    assert_eq!(summary.lincheck, LincheckStatus::Linearizable);
    assert_eq!(art.sched_seed, Some(0xA7F1));
    assert_eq!(art.traces.len(), 2);
    assert_eq!(art.stats.len(), 2);
    assert_eq!(art.pairs_final.len(), 2);
    // Mirror invariant holds in the exposed memory snapshot too.
    for (a, b) in &art.pairs_final {
        assert_eq!(a, b, "mirror pair torn in pairs_final");
    }
    assert_eq!(
        summary.final_increments,
        art.pairs_final.iter().map(|(a, _)| a).sum::<u64>()
    );
}

#[test]
fn trace_jsonl_is_one_valid_object_per_event_in_tid_order() {
    let art = run_case_artifacts(&small_det_spec(), 5);
    let jsonl = art.trace_jsonl();
    assert!(!jsonl.is_empty());
    let mut tids = Vec::new();
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains("\"tid\":"), "line lacks a tid: {line}");
        if let Some(rest) = line.split("\"tid\":").nth(1) {
            let tid: u64 = rest
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap();
            tids.push(tid);
        }
    }
    // Events are grouped per thread, tids ascending across the dump.
    let mut deduped = tids.clone();
    deduped.dedup();
    assert_eq!(deduped, vec![0, 1], "per-thread grouping in tid order");

    // The dump is what the determinism diff runs on: a replay must match.
    let again = run_case_artifacts(&small_det_spec(), 5).trace_jsonl();
    assert_eq!(first_divergence(&jsonl, &again), None);
}
