//! Golden-trace regression test: a small deterministic torture case whose
//! full JSONL event trace is committed to the repository. Any change to
//! the scheduler's picking logic, virtual-clock constants, yield-point
//! placement, or the trace format shows up here as a byte diff — on the
//! exact line where the schedules first diverge — instead of as a silent
//! reshuffling of every "deterministic" run.
//!
//! When a change is *intentional*, regenerate the golden file and review
//! the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test golden_trace
//! ```

use htm_sim::{HtmConfig, SchedulerKind};
use sprwl::SprwlConfig;
use sprwl_torture::{first_divergence, run_case_artifacts, LockKind, TortureSpec, Workload};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/det_smoke.trace.jsonl"
);

/// Base seed for the golden case; arbitrary but fixed forever.
const GOLDEN_BASE_SEED: u64 = 0x601D_7245_CE5E;

/// The pinned case behind the golden file. Small on purpose: big enough
/// to exercise contention, aborts, and both roles; small enough that the
/// committed trace stays reviewable. The history recorder is on, so the
/// golden bytes also pin the `lin-*` mark format the linearizability
/// checker consumes. Each mark's clock read adds one virtual tick, which
/// shifts later timestamps but, on this case, moves no other event.
fn golden_spec() -> TortureSpec {
    TortureSpec {
        name: "det-golden-smoke".into(),
        lock: LockKind::Sprwl(SprwlConfig::default()),
        htm: HtmConfig {
            scheduler: SchedulerKind::deterministic(0x601D_5EED),
            ..HtmConfig::default()
        },
        threads: 2,
        ops_per_thread: 12,
        pairs: 4,
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
fn deterministic_trace_matches_the_committed_golden_file() {
    let spec = golden_spec();
    let art = run_case_artifacts(&spec, GOLDEN_BASE_SEED);
    let summary = art
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("{}: the golden case must pass the oracle: {e}", spec.name));
    assert_eq!(
        summary.lincheck.label(),
        "ok",
        "{}: recorded history must be linearizable",
        spec.name
    );
    let got = art.trace_jsonl();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("failed to write golden file");
        return;
    }

    let want = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "golden file {GOLDEN_PATH} unreadable ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test golden_trace"
        )
    });
    if let Some((line, g, c)) = first_divergence(&want, &got) {
        panic!(
            "{}: deterministic trace diverged from the golden file at line {line}\n  \
             golden : {g}\n  current: {c}\n\
             If this change is intentional, regenerate with\n  \
             UPDATE_GOLDEN=1 cargo test -p sprwl-torture --test golden_trace\n\
             and review the diff (scripts/diff_traces.py shows the full divergence).",
            spec.name
        );
    }
}
