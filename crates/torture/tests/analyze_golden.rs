//! Analyzer regression tests over a committed golden trace: the contention
//! analyzer's top-conflict pairs, cache-line heat and per-section rollups
//! must stay stable for a pinned capture. A change to the analyzer's
//! attribution or ranking logic shows up here as a concrete number diff,
//! not as silently different reports.
//!
//! The hot-key golden is produced by a deterministic single-pair torture
//! case (every operation contends on one register pair — the torture
//! analogue of the bench hot-key workload). Regenerate after an
//! intentional scheduler/trace change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test analyze_golden
//! ```

use htm_sim::{HtmConfig, SchedulerKind};
use sprwl::SprwlConfig;
use sprwl_torture::{first_divergence, run_case_artifacts, LockKind, TortureSpec, Workload};
use sprwl_trace::analyze::{analyze, AnalyzeConfig, Report};

const HOT_KEY_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/hot_key.trace.jsonl"
);

/// Base seed for the hot-key golden case; arbitrary but fixed forever.
const HOT_KEY_BASE_SEED: u64 = 0x4807_4B31;

/// Single mirror pair, two threads, half writes: every operation lands on
/// the same cells, so the capture is dense with conflict aborts for the
/// analyzer to attribute.
fn hot_key_spec() -> TortureSpec {
    TortureSpec {
        name: "det-golden-hot-key".into(),
        lock: LockKind::Sprwl(SprwlConfig::default()),
        htm: HtmConfig {
            scheduler: SchedulerKind::deterministic(0x4807_5EED),
            ..HtmConfig::default()
        },
        threads: 2,
        ops_per_thread: 40,
        pairs: 1,
        write_pct: 50,
        reader_span: 1,
        writer_span: 1,
        writer_scan: 0,
        workload: Workload::Mirror,
        lincheck: false,
        churn: false,
    }
}

fn hot_key_jsonl() -> String {
    let art = run_case_artifacts(&hot_key_spec(), HOT_KEY_BASE_SEED);
    art.outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("the hot-key golden case must pass the oracle: {e}"));
    art.trace_jsonl()
}

fn load_report(path: &str) -> Report {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "golden file {path} unreadable ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test analyze_golden"
        )
    });
    analyze(&text).expect("golden capture must parse")
}

#[test]
fn hot_key_trace_matches_the_committed_golden_file() {
    let got = hot_key_jsonl();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(HOT_KEY_GOLDEN_PATH, &got).expect("failed to write golden file");
        return;
    }
    let want = std::fs::read_to_string(HOT_KEY_GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "golden file {HOT_KEY_GOLDEN_PATH} unreadable ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test analyze_golden"
        )
    });
    if let Some((line, g, c)) = first_divergence(&want, &got) {
        panic!(
            "hot-key deterministic trace diverged from the golden file at line {line}\n  \
             golden : {g}\n  current: {c}\n\
             If this change is intentional, regenerate with\n  \
             UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test analyze_golden"
        );
    }
}

#[test]
fn analyzer_report_is_stable_on_the_hot_key_golden() {
    let report = load_report(HOT_KEY_GOLDEN_PATH);
    assert!(report.has_sections(), "the capture records whole sections");
    assert_eq!(report.threads, 2);
    assert_eq!(report.sampling, None, "ring capture carries no sampling");

    // With a single mirror pair, all contention concentrates on the
    // reader/writer section pairs and the pair's cache lines. Pin the
    // analyzer's ranked output exactly: these numbers only move if the
    // attribution logic, the golden schedule, or the trace format changes
    // — all reviewable.
    let pairs: Vec<((u32, u32), u64)> = report
        .top_pairs
        .iter()
        .map(|p| ((p.a, p.b), p.count))
        .collect();
    assert_eq!(
        pairs,
        vec![((1, 1), 14), ((0, 1), 5), ((0, 0), 1)],
        "top conflicting section pairs changed"
    );
    let lines: Vec<u64> = report.line_heat.iter().map(|l| l.line).collect();
    assert_eq!(lines, vec![6, 8], "hot cache lines changed");
    // Every abort the analyzer charged is visible in the rollups too.
    let rollup_aborts: u64 = report.sections.values().map(|s| s.total_aborts()).sum();
    let pair_aborts: u64 = report.top_pairs.iter().map(|p| p.count).sum();
    assert!(
        rollup_aborts >= pair_aborts,
        "pair attribution ({pair_aborts}) cannot exceed total aborts ({rollup_aborts})"
    );
}

#[test]
fn analyzer_is_deterministic_over_a_fresh_capture() {
    let text = hot_key_jsonl();
    let cfg = AnalyzeConfig::default();
    let a = sprwl_trace::analyze::analyze_with(&text, &cfg).expect("parses");
    let b = sprwl_trace::analyze::analyze_with(&text, &cfg).expect("parses");
    assert_eq!(a.to_json(), b.to_json(), "same capture, same report");
}
