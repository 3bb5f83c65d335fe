//! The harness side of the lincheck exit-code contract: a budget-starved
//! `Unknown` verdict surfaces in the summary's `lin=` column, never as a
//! violation. Lives in its own test binary because it sets
//! `TORTURE_LIN_BUDGET` for the whole process.

use htm_sim::{HtmConfig, SchedulerKind};
use sprwl_torture::{run_case, LincheckStatus, LockKind, TortureSpec, Workload};

fn spec() -> TortureSpec {
    TortureSpec {
        name: "lin-budget-contract".into(),
        lock: LockKind::Sprwl(sprwl::SprwlConfig::default()),
        htm: HtmConfig {
            scheduler: SchedulerKind::deterministic(0),
            sched_shake_prob: 0.0,
            ..HtmConfig::default()
        },
        threads: 2,
        ops_per_thread: 20,
        pairs: 2,
        write_pct: 40,
        reader_span: 2,
        writer_span: 1,
        writer_scan: 0,
        workload: Workload::Mirror,
        lincheck: true,
        churn: false,
    }
}

#[test]
fn starved_budget_reports_unknown_without_failing_the_case() {
    // One node is never enough to linearize a 40-op history.
    std::env::set_var("TORTURE_LIN_BUDGET", "1");
    let starved = run_case(&spec(), 7)
        .expect("an exhausted lincheck budget must stay a verdict, not a violation");
    assert_eq!(starved.lincheck, LincheckStatus::Unknown);
    assert_eq!(starved.lincheck.label(), "unknown");

    // The same run under the default budget is decidable and linearizable
    // — proving the Unknown above really was the budget, not the history.
    std::env::remove_var("TORTURE_LIN_BUDGET");
    let rested = run_case(&spec(), 7).expect("clean lock, clean case");
    assert_eq!(rested.lincheck, LincheckStatus::Linearizable);
    assert_eq!(rested.lincheck.label(), "ok");
}
