//! End-to-end tests of the schedule-space explorer: the injected
//! ordering bug is found within a bounded frontier, the emitted decision
//! trace replays bit-exactly, the frontier resumes, delay bounding beats
//! an equal budget of random schedule draws on behaviour coverage, and
//! the sharded-KV service runs under delay-bounded schedules too.

use sprwl_torture::explore::{
    explore, explore_random, injected_bug_spec, replay_schedule, ExploreOptions,
};
use sprwl_torture::{det_matrix, LockKind};
use sprwl_trace::schedule::ScheduleTrace;

const BASE_SEED: u64 = 0xE1;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sprwl-explore-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn explorer_finds_the_injected_bug_and_the_schedule_replays_bit_exactly() {
    let spec = injected_bug_spec(2, 12);
    let dir = scratch_dir("bug");
    let opts = ExploreOptions {
        budget: 256,
        max_delays: 2,
        horizon: 64,
        dump_dir: Some(dir.clone()),
        ..ExploreOptions::default()
    };
    let report = explore(&spec, BASE_SEED, &opts);
    let v = report.violation.unwrap_or_else(|| {
        panic!(
            "the weakened commit-time reader check must be caught within \
             {} schedules ({} behaviours seen)",
            report.schedules_run, report.distinct_behaviors
        )
    });
    assert!(
        v.violation.detail.contains("torn"),
        "the injected bug is a torn read, got: {}",
        v.violation.detail
    );

    // The emitted schedule file replays the violation bit-exactly.
    let path = v.schedule_path.expect("schedule file written");
    let st = ScheduleTrace::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(!st.decisions.is_empty());
    let replay = replay_schedule(&spec, BASE_SEED, &st).unwrap();
    assert!(
        replay.reproduced,
        "replay must be bit-exact:\n{}",
        replay.report
    );
    assert!(
        replay.violation.is_some(),
        "replay re-triggers the violation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixed_lock_survives_the_same_frontier() {
    // Sanity for the bugfix framing: the same search that finds the
    // violation with the check disabled finds nothing with it enabled.
    let mut spec = injected_bug_spec(2, 12);
    spec.name = "explore-fixed-lock".into();
    match &mut spec.lock {
        LockKind::Sprwl(cfg) => cfg.debug_skip_commit_reader_check = false,
        other => panic!("unexpected lock kind {other:?}"),
    }
    let opts = ExploreOptions {
        budget: 64,
        ..ExploreOptions::default()
    };
    let report = explore(&spec, BASE_SEED, &opts);
    assert!(
        report.violation.is_none(),
        "commit-time reader check restored => no torn reads: {:?}",
        report.violation
    );
    assert!(report.schedules_run > 1);
}

#[test]
fn frontier_persists_and_resumes() {
    let mut spec = injected_bug_spec(2, 8);
    spec.name = "explore-resume".into();
    match &mut spec.lock {
        LockKind::Sprwl(cfg) => cfg.debug_skip_commit_reader_check = false,
        other => panic!("unexpected lock kind {other:?}"),
    }
    let dir = scratch_dir("resume");
    let frontier = dir.join("frontier.txt");
    let first = explore(
        &spec,
        BASE_SEED,
        &ExploreOptions {
            budget: 5,
            frontier: Some(frontier.clone()),
            ..ExploreOptions::default()
        },
    );
    assert!(!first.resumed);
    assert_eq!(first.schedules_run, 5);

    // Resume with a larger budget: the run counter continues, nothing is
    // re-executed (5 already done + at most 5 more).
    let second = explore(
        &spec,
        BASE_SEED,
        &ExploreOptions {
            budget: 10,
            frontier: Some(frontier.clone()),
            ..ExploreOptions::default()
        },
    );
    assert!(second.resumed);
    assert!(second.schedules_run > 5 && second.schedules_run <= 10);
    assert!(
        second.distinct_behaviors >= first.distinct_behaviors,
        "resumed search only adds behaviours"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delay_bounding_beats_random_draws_on_behaviour_coverage() {
    // The acceptance yardstick: at an equal schedule budget, the d=0..2
    // delay-bounded frontier observes strictly more distinct behaviour
    // fingerprints than random schedule-seed draws on the same case.
    //
    // The case is the smallest one where the two search styles genuinely
    // diverge: one uninstrumented reader against one HTM writer. Uniform
    // random picks preempt every few virtual ticks, so every draw lands
    // in the same finely-mixed corner of schedule space and most draws
    // collapse to the same behaviour; the delay-bounded frontier instead
    // enumerates coarse reorderings (run one thread long, switch once or
    // twice) that a random walk reaches with probability ~2^-k. Fully
    // deterministic: both sides derive from the fixed base seed.
    let mut spec = injected_bug_spec(2, 1);
    spec.name = "explore-coverage".into();
    spec.pairs = 1;
    match &mut spec.lock {
        LockKind::Sprwl(cfg) => cfg.debug_skip_commit_reader_check = false,
        other => panic!("unexpected lock kind {other:?}"),
    }
    let opts = ExploreOptions {
        budget: 16,
        max_delays: 2,
        horizon: 64,
        ..ExploreOptions::default()
    };
    let det = explore(&spec, 0xA, &opts);
    assert!(det.violation.is_none());
    let rnd = explore_random(&spec, 0xA, det.schedules_run);
    assert_eq!(rnd.schedules_run, det.schedules_run, "equal budgets");
    assert!(
        det.distinct_behaviors > rnd.distinct_behaviors,
        "delay bounding must beat random: {} vs {} distinct behaviours \
         over {} schedules",
        det.distinct_behaviors,
        rnd.distinct_behaviors,
        det.schedules_run
    );
}

#[test]
fn explorer_drives_the_sharded_kv_service() {
    // The service parks its futures on scheduler yield points, so it runs
    // under any deterministic policy, the explorer's delay-bounded one
    // included, not only a seeded one.
    let spec = det_matrix(2, 12)
        .into_iter()
        .find(|s| s.name == "det-server-kv-snzi")
        .expect("the det matrix has a server-kv case");
    let opts = ExploreOptions {
        budget: 64,
        ..ExploreOptions::default()
    };
    let report = explore(&spec, BASE_SEED, &opts);
    assert!(
        report.violation.is_none(),
        "the service under delay-bounded schedules: {:?}",
        report.violation
    );
    assert_eq!(report.schedules_run, 64);
}
