//! Property tests tying the linearizability checker to the live harness:
//! every *green* deterministic torture run must record a history the
//! checker accepts, and the verdict must be a pure function of the
//! recorded history — bit-exact replays yield bit-exact verdicts.
//!
//! Seeds are drawn by proptest (replay a failure with `PROPTEST_SEED`);
//! each drawn `(base_seed, schedule_seed)` pair runs the mirror workload
//! with single-pair and two-pair writers and the sharded KV service. A
//! two-pair writer records one op that increments two registers, so the
//! checker's multi-register increments are exercised on live histories.

use htm_sim::{HtmConfig, SchedulerKind};
use proptest::prelude::*;
use sprwl::SprwlConfig;
use sprwl_lincheck::{check, CheckConfig, History, Verdict};
use sprwl_torture::{run_case_artifacts, LincheckStatus, LockKind, TortureSpec, Workload};

/// A small deterministic case: contended enough that sections genuinely
/// interleave (aborts, δ-waits, fallbacks), small enough that 8+ pairs of
/// seeds stay fast. `writer_span` is the mirror pairs each write section
/// increments.
fn det_spec(schedule_seed: u64, workload: Workload, writer_span: usize) -> TortureSpec {
    TortureSpec {
        name: match workload {
            Workload::Mirror => format!("prop-det-mirror-span{writer_span}"),
            Workload::ServerKv => "prop-det-server-kv".into(),
        },
        lock: LockKind::Sprwl(SprwlConfig::default()),
        htm: HtmConfig {
            scheduler: SchedulerKind::deterministic(schedule_seed),
            ..HtmConfig::default()
        },
        threads: 3,
        ops_per_thread: 30,
        pairs: 3,
        write_pct: 50,
        reader_span: 2,
        writer_span,
        writer_scan: 0,
        workload,
        lincheck: true,
        churn: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Green det-matrix-shaped runs record linearizable histories, for
    /// the mirror workload at writer spans 1 and 2 and for the KV service,
    /// across the drawn `(base seed, schedule seed)` pairs.
    #[test]
    fn green_det_histories_check_linearizable(
        base_seed in 1u64..0xFFFF_FFFF,
        schedule_seed in 1u64..0xFFFF_FFFF,
    ) {
        for (workload, writer_span) in [
            (Workload::Mirror, 1),
            (Workload::Mirror, 2),
            (Workload::ServerKv, 1),
        ] {
            let spec = det_spec(schedule_seed, workload, writer_span);
            let art = run_case_artifacts(&spec, base_seed);
            let summary = art.outcome.as_ref().unwrap_or_else(|e| {
                panic!("{}: green run expected, oracle said: {e}", spec.name)
            });
            prop_assert_eq!(summary.lincheck, LincheckStatus::Linearizable);
            // The same conclusion must fall out of the raw artifacts (the
            // path the standalone CLI takes).
            let hist = History::from_traces(&art.traces)
                .unwrap_or_else(|e| panic!("{}: malformed history: {e}", spec.name));
            prop_assert!(hist.total_ops() > 0, "{}: history must be non-empty", spec.name);
            prop_assert_eq!(hist.dropped_events, 0);
            prop_assert_eq!(check(&hist, &CheckConfig::default()), Verdict::Linearizable);
        }
    }

    /// The verdict is deterministic under replay: re-running the same
    /// `(spec, base seed, schedule seed)` triple reproduces the identical
    /// history and hence the identical verdict — including through the
    /// JSONL round-trip a postmortem file would take.
    #[test]
    fn verdict_is_deterministic_under_replay(
        base_seed in 1u64..0xFFFF_FFFF,
        schedule_seed in 1u64..0xFFFF_FFFF,
    ) {
        let spec = det_spec(schedule_seed, Workload::Mirror, 2);
        let a = run_case_artifacts(&spec, base_seed);
        let b = run_case_artifacts(&spec, base_seed);
        let ha = History::from_traces(&a.traces).expect("history a");
        let hb = History::from_jsonl(&b.trace_jsonl()).expect("history b");
        prop_assert_eq!(ha.total_ops(), hb.total_ops());
        let (va, vb) = (
            check(&ha, &CheckConfig::default()),
            check(&hb, &CheckConfig::default()),
        );
        prop_assert_eq!(va.clone(), vb);
        prop_assert_eq!(va, check(&ha, &CheckConfig::default()));
    }
}
