//! Systematic schedule-space exploration over the deterministic scheduler.
//!
//! One seeded PRNG stream samples interleavings blindly; this module
//! *searches* them. The explorer enumerates delay-bounded schedules
//! (CHESS-style: the canonical non-preemptive schedule plus at most `d`
//! forced preemptions, for growing `d`), runs every candidate through the
//! ordinary torture pipeline ([`crate::run_case_artifacts`]: oracle +
//! lincheck verdicts), deduplicates candidates by *behaviour fingerprint*
//! (what happened, with virtual-clock noise normalized away), and persists
//! its frontier so a search can resume where it stopped.
//!
//! On a violation it emits the scheduler's recorded **decision trace** as
//! a schedule file ([`sprwl_trace::schedule::ScheduleTrace`]): the exact
//! sequence of branch-point choices, replayable bit-exactly with
//! `torture explore --replay-schedule <file>` — a stronger artifact than a
//! schedule seed, because it reproduces a schedule found by *any* policy.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use htm_sim::{SchedulePolicyKind, SchedulerKind};
use sprwl_trace::schedule::{behavior_fingerprint, Fingerprint, ScheduleTrace};

use crate::{
    fnv1a, mix64, write_postmortem, CaseArtifacts, LockKind, TortureSpec, Violation, Workload,
};

/// Bounds and knobs for one [`explore`] run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Total schedules to execute before giving up (counting schedules
    /// already recorded in a resumed frontier).
    pub budget: usize,
    /// Maximum delays per schedule (the delay bound `d`).
    pub max_delays: usize,
    /// Delays are only inserted at branch points before this index —
    /// bounds the fan-out on long runs.
    pub horizon: usize,
    /// Persist/resume the search frontier at this path.
    pub frontier: Option<PathBuf>,
    /// Where to write the violating schedule file (`TORTURE_DUMP_DIR`,
    /// else the OS temp dir, when unset).
    pub dump_dir: Option<PathBuf>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            budget: 256,
            max_delays: 2,
            horizon: 64,
            frontier: None,
            dump_dir: None,
        }
    }
}

/// A violation found by the explorer, with its replay artifact.
#[derive(Debug)]
pub struct ExploreViolation {
    /// The violation, postmortem plumbing included.
    pub violation: Violation,
    /// The delay vector of the violating schedule.
    pub delays: Vec<u64>,
    /// Where the decision-trace schedule file was written (`None` only if
    /// the write failed; the violation itself is never suppressed).
    pub schedule_path: Option<PathBuf>,
}

/// Outcome of one [`explore`] run.
#[derive(Debug)]
pub struct ExploreReport {
    /// The case explored.
    pub case: String,
    /// Schedules executed, lifetime of the frontier (resumed runs count).
    pub schedules_run: usize,
    /// Distinct behaviour fingerprints observed.
    pub distinct_behaviors: usize,
    /// Whether the frontier was resumed from disk.
    pub resumed: bool,
    /// The first violation found, if any.
    pub violation: Option<ExploreViolation>,
}

/// Outcome of an [`explore_random`] comparison run.
#[derive(Debug)]
pub struct RandomExploreReport {
    /// Schedules executed (one per drawn seed).
    pub schedules_run: usize,
    /// Distinct behaviour fingerprints observed.
    pub distinct_behaviors: usize,
    /// The first violating schedule seed, if any.
    pub violating_seed: Option<u64>,
}

/// Outcome of a [`replay_schedule`] run.
#[derive(Debug)]
pub struct ReplayReport {
    /// The replay reproduced the recorded run bit-exactly: no decision
    /// divergence, identical trace bytes, identical verdict.
    pub reproduced: bool,
    /// Human-readable comparison (always filled in).
    pub report: String,
    /// The violation the replay re-triggered, if any.
    pub violation: Option<String>,
}

/// The search frontier: BFS over delay vectors, plus everything needed to
/// resume — executed candidates, pending candidates, seen fingerprints.
#[derive(Debug, Default)]
struct Frontier {
    queue: VecDeque<Vec<u64>>,
    /// Candidates ever enqueued (executed or pending) — the dedup set.
    enqueued: HashSet<Vec<u64>>,
    /// Candidates already executed (skipped on resume).
    done: HashSet<Vec<u64>>,
    behaviors: HashSet<u64>,
    schedules_run: usize,
}

/// The first line of a frontier file, before the case name.
const FRONTIER_MAGIC: &str = "# sprwl-frontier v2 case=";

fn delays_to_str(d: &[u64]) -> String {
    if d.is_empty() {
        "-".to_string()
    } else {
        d.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn delays_from_str(s: &str) -> Result<Vec<u64>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| t.parse().map_err(|e| format!("bad delay {t:?}: {e}")))
        .collect()
}

impl Frontier {
    fn to_text(&self, case: &str) -> String {
        let mut out = format!("{FRONTIER_MAGIC}{case}\n# run={}\n", self.schedules_run);
        for b in &self.behaviors {
            let _ = writeln!(out, "b {b:016x}");
        }
        for d in &self.done {
            let _ = writeln!(out, "d {}", delays_to_str(d));
        }
        for q in &self.queue {
            let _ = writeln!(out, "q {}", delays_to_str(q));
        }
        out
    }

    fn from_text(text: &str, case: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty frontier file")?;
        let got_case = first
            .strip_prefix(FRONTIER_MAGIC)
            .ok_or_else(|| format!("first line {first:?} is not {FRONTIER_MAGIC:?}<case>"))?;
        if got_case != case {
            return Err(format!(
                "frontier belongs to case {got_case:?}, not {case:?}"
            ));
        }
        let mut f = Frontier::default();
        for line in lines {
            if let Some(run) = line.strip_prefix("# run=") {
                f.schedules_run = run.trim().parse().map_err(|e| format!("bad run: {e}"))?;
            } else if let Some(rest) = line.strip_prefix("b ") {
                f.behaviors.insert(
                    u64::from_str_radix(rest.trim(), 16)
                        .map_err(|e| format!("bad fingerprint: {e}"))?,
                );
            } else if let Some(rest) = line.strip_prefix("d ") {
                let d = delays_from_str(rest.trim())?;
                f.enqueued.insert(d.clone());
                f.done.insert(d);
            } else if let Some(rest) = line.strip_prefix("q ") {
                let q = delays_from_str(rest.trim())?;
                f.enqueued.insert(q.clone());
                f.queue.push_back(q);
            }
        }
        Ok(f)
    }
}

/// The dedup key for one executed candidate: per-thread behaviour (event
/// kinds and semantic payloads, timestamps normalized away) plus the final
/// mirror-pair memory state.
fn artifacts_fingerprint(art: &CaseArtifacts) -> u64 {
    let mut fp = Fingerprint::new();
    fp.push(behavior_fingerprint(&art.traces));
    for &(a, b) in &art.pairs_final {
        fp.push(a);
        fp.push(b);
    }
    fp.finish()
}

/// Runs one delay-vector candidate through the standard torture pipeline.
fn run_candidate(spec: &TortureSpec, base_seed: u64, delays: &[u64]) -> CaseArtifacts {
    let mut spec = spec.clone();
    spec.htm.scheduler = SchedulerKind::Deterministic {
        policy: SchedulePolicyKind::DelayBounded {
            delays: delays.to_vec(),
        },
    };
    crate::run_case_artifacts(&spec, base_seed)
}

/// Serializes the violating run's decision trace next to the postmortems.
fn write_schedule_file(
    spec: &TortureSpec,
    base_seed: u64,
    art: &CaseArtifacts,
    delays: &[u64],
    detail: &str,
    dump_dir: Option<&Path>,
) -> Option<PathBuf> {
    let mut st = ScheduleTrace::new(spec.threads as u32);
    st.decisions = art.schedule.iter().map(|d| d.chosen).collect();
    st.set("case", &spec.name);
    st.set("base_seed", &format!("{base_seed:#x}"));
    st.set("case_seed", &format!("{:#x}", art.case_seed));
    st.set("ops_per_thread", &spec.ops_per_thread.to_string());
    st.set("delays", &delays_to_str(delays));
    st.set("detail", detail);
    st.set("trace_fnv", &format!("{:016x}", fnv1a(&art.trace_jsonl())));
    st.set(
        "behavior_fp",
        &format!("{:016x}", artifacts_fingerprint(art)),
    );
    let dir = dump_dir
        .map(Path::to_path_buf)
        .or_else(|| std::env::var_os("TORTURE_DUMP_DIR").map(PathBuf::from))
        .unwrap_or_else(std::env::temp_dir);
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "torture-explore-{}-{:016x}.schedule.txt",
        spec.name, art.case_seed
    ));
    std::fs::write(&path, st.to_text()).ok().map(|()| path)
}

/// Enumerates delay-bounded schedules for `spec` until a violation, the
/// budget, or frontier exhaustion.
///
/// Candidates are explored breadth-first over delay vectors (so all of
/// `d = 0`, then `d = 1`, …): each executed schedule spawns children that
/// add one delay at a branch point after its last delay (keeping vectors
/// sorted kills permutation duplicates).
///
/// # Panics
///
/// Panics on harness misconfiguration (invalid spec), never on lock bugs,
/// and on a frontier file [`try_explore`] refuses.
pub fn explore(spec: &TortureSpec, base_seed: u64, opts: &ExploreOptions) -> ExploreReport {
    try_explore(spec, base_seed, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`explore`], with a frontier file that cannot be resumed reported
/// instead of panicking.
///
/// # Errors
///
/// Describes an `opts.frontier` file that exists but is not a frontier
/// of this format version, or belongs to another case.
pub fn try_explore(
    spec: &TortureSpec,
    base_seed: u64,
    opts: &ExploreOptions,
) -> Result<ExploreReport, String> {
    let mut frontier = Frontier::default();
    let mut resumed = false;
    if let Some(path) = &opts.frontier {
        if let Ok(text) = std::fs::read_to_string(path) {
            frontier = Frontier::from_text(&text, &spec.name)
                .map_err(|e| format!("cannot resume frontier {}: {e}", path.display()))?;
            resumed = true;
        }
    }
    if frontier.enqueued.is_empty() {
        frontier.queue.push_back(Vec::new());
        frontier.enqueued.insert(Vec::new());
    }

    let mut violation = None;
    while violation.is_none() && frontier.schedules_run < opts.budget {
        let Some(delays) = frontier.queue.pop_front() else {
            break;
        };
        if frontier.done.contains(&delays) {
            continue;
        }
        let art = run_candidate(spec, base_seed, &delays);
        frontier.schedules_run += 1;
        frontier.done.insert(delays.clone());
        frontier.behaviors.insert(artifacts_fingerprint(&art));

        if let Err(detail) = &art.outcome {
            let mut v = Violation {
                case: spec.name.clone(),
                seed: art.case_seed,
                base_seed,
                sched_seed: None,
                detail: format!(
                    "{detail}\n  found by explore at delays [{}]",
                    delays_to_str(&delays)
                ),
                trace: crate::worker_trace(spec).label(),
                postmortem: None,
            };
            v.postmortem = write_postmortem(&v, &art.traces);
            let schedule_path = write_schedule_file(
                spec,
                base_seed,
                &art,
                &delays,
                detail,
                opts.dump_dir.as_deref(),
            );
            violation = Some(ExploreViolation {
                violation: v,
                delays,
                schedule_path,
            });
            break;
        }

        // Spawn children: one more delay, strictly after the last one (a
        // repeated delay at the same branch just rotates further through
        // the same runnable set — with two runnable threads that lands
        // back on the baseline choice, a pure duplicate), within the
        // horizon and this run's actual branch count.
        if delays.len() < opts.max_delays {
            let first = delays.last().map(|d| d + 1).unwrap_or(0);
            let limit = (art.schedule.len() as u64).min(opts.horizon as u64);
            for p in first..limit {
                let mut child = delays.clone();
                child.push(p);
                if frontier.enqueued.insert(child.clone()) {
                    frontier.queue.push_back(child);
                }
            }
        }
    }

    if let Some(path) = &opts.frontier {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, frontier.to_text(&spec.name)) {
            eprintln!("explore: cannot persist frontier {}: {e}", path.display());
        }
    }

    Ok(ExploreReport {
        case: spec.name.clone(),
        schedules_run: frontier.schedules_run,
        distinct_behaviors: frontier.behaviors.len(),
        resumed,
        violation,
    })
}

/// The comparison baseline: `budget` schedules drawn from random schedule
/// seeds (the pre-explorer behaviour), same dedup key. This is what the
/// acceptance criterion measures delay bounding against.
pub fn explore_random(spec: &TortureSpec, base_seed: u64, budget: usize) -> RandomExploreReport {
    let mut behaviors = HashSet::new();
    let mut violating_seed = None;
    let mut schedules_run = 0;
    for i in 0..budget {
        let seed = mix64(base_seed ^ fnv1a(&spec.name) ^ (0xD1CE + i as u64));
        let mut spec2 = spec.clone();
        spec2.htm.scheduler = SchedulerKind::deterministic(seed);
        let art = crate::run_case_artifacts(&spec2, base_seed);
        schedules_run += 1;
        behaviors.insert(artifacts_fingerprint(&art));
        if art.outcome.is_err() && violating_seed.is_none() {
            violating_seed = Some(seed);
            break;
        }
    }
    RandomExploreReport {
        schedules_run,
        distinct_behaviors: behaviors.len(),
        violating_seed,
    }
}

/// Re-executes a recorded schedule file and verifies bit-exact
/// reproduction: the decision trace must be consumed without divergence,
/// the replayed run's trace bytes must hash identically, and the verdict
/// must match the recorded one.
///
/// The spec must describe the same case the schedule was recorded from
/// (same name, thread count, and ops; the file carries them as metadata).
///
/// # Errors
///
/// Returns a description when the schedule file does not match the spec.
pub fn replay_schedule(
    spec: &TortureSpec,
    base_seed: u64,
    st: &ScheduleTrace,
) -> Result<ReplayReport, String> {
    if let Some(case) = st.get("case") {
        if case != spec.name {
            return Err(format!(
                "schedule was recorded from case {case:?}, not {:?}",
                spec.name
            ));
        }
    }
    if st.participants != spec.threads as u32 {
        return Err(format!(
            "schedule has {} participants, spec has {} threads",
            st.participants, spec.threads
        ));
    }
    if let Some(ops) = st.get("ops_per_thread") {
        if ops != spec.ops_per_thread.to_string() {
            return Err(format!(
                "schedule was recorded at ops_per_thread={ops}, spec has {}",
                spec.ops_per_thread
            ));
        }
    }
    let recorded_base: u64 = match st.get("base_seed") {
        Some(s) => {
            let s = s.trim();
            let parsed = s
                .strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| s.parse());
            parsed.map_err(|e| format!("bad base_seed in schedule: {e}"))?
        }
        None => base_seed,
    };

    let mut spec2 = spec.clone();
    spec2.htm.scheduler = SchedulerKind::Deterministic {
        policy: SchedulePolicyKind::Replay {
            decisions: st.decisions.clone().into(),
        },
    };
    let art = crate::run_case_artifacts(&spec2, recorded_base);

    let mut report = String::new();
    let mut reproduced = true;
    match &art.sched_divergence {
        None => {
            let _ = writeln!(
                report,
                "schedule: {} recorded decisions consumed faithfully",
                st.decisions.len()
            );
        }
        Some(d) => {
            reproduced = false;
            let _ = writeln!(report, "schedule DIVERGED: {d}");
        }
    }
    if let Some(want) = st.get("trace_fnv") {
        let got = format!("{:016x}", fnv1a(&art.trace_jsonl()));
        if want == got {
            let _ = writeln!(report, "trace: bit-exact (fnv {got})");
        } else {
            reproduced = false;
            let _ = writeln!(report, "trace: DIFFERS (recorded {want}, replayed {got})");
        }
    }
    let violation = art.outcome.as_ref().err().cloned();
    match (st.get("detail"), &violation) {
        (Some(want), Some(got)) if want == got => {
            let _ = writeln!(
                report,
                "verdict: re-triggered the recorded violation: {got}"
            );
        }
        (Some(want), Some(got)) => {
            reproduced = false;
            let _ = writeln!(
                report,
                "verdict: violated DIFFERENTLY\n  recorded: {want}\n  replayed: {got}"
            );
        }
        (Some(want), None) => {
            reproduced = false;
            let _ = writeln!(
                report,
                "verdict: replay PASSED the oracle (recorded violation: {want})"
            );
        }
        (None, Some(got)) => {
            let _ = writeln!(report, "verdict: violation: {got}");
        }
        (None, None) => {
            let _ = writeln!(report, "verdict: clean run");
        }
    }
    Ok(ReplayReport {
        reproduced,
        report,
        violation,
    })
}

/// The seeded ordering-bug workload the CI smoke hunts: SpRWL with its
/// commit-time reader check disabled (a test-only fault injection —
/// see `SprwlConfig::debug_skip_commit_reader_check`), uninstrumented
/// readers, and a tiny hot bank. Under the non-preemptive baseline the
/// bug is invisible; one well-placed preemption between a reader's two
/// mirror reads makes a committing writer tear the pair.
pub fn injected_bug_spec(threads: usize, ops_per_thread: usize) -> TortureSpec {
    let mut cfg = sprwl::SprwlConfig::no_sched();
    cfg.debug_skip_commit_reader_check = true;
    TortureSpec {
        name: "explore-injected-reader-bug".into(),
        lock: LockKind::Sprwl(cfg),
        htm: htm_sim::HtmConfig {
            scheduler: SchedulerKind::deterministic(0),
            sched_shake_prob: 0.0,
            ..htm_sim::HtmConfig::default()
        },
        threads,
        ops_per_thread,
        pairs: 2,
        write_pct: 50,
        reader_span: 2,
        writer_span: 1,
        writer_scan: 0,
        workload: Workload::Mirror,
        lincheck: false,
        churn: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_round_trips_through_text() {
        let mut f = Frontier::default();
        f.queue.push_back(vec![1, 4]);
        f.queue.push_back(Vec::new());
        f.enqueued.insert(vec![1, 4]);
        f.enqueued.insert(Vec::new());
        f.enqueued.insert(vec![7]);
        f.done.insert(vec![7]);
        f.behaviors.insert(0xDEAD_BEEF);
        f.schedules_run = 3;
        let text = f.to_text("case-x");
        let back = Frontier::from_text(&text, "case-x").unwrap();
        assert_eq!(back.schedules_run, 3);
        assert_eq!(back.behaviors, f.behaviors);
        assert_eq!(back.done, f.done);
        assert_eq!(back.enqueued, f.enqueued);
        assert_eq!(back.queue.len(), 2);
        assert!(Frontier::from_text(&text, "other-case").is_err());
        let v1 = "# sprwl-frontier v1 case=case-x\n# run=3 pruned=2\n";
        assert!(Frontier::from_text(v1, "case-x").is_err(), "v1 is refused");
    }

    #[test]
    fn delays_round_trip() {
        assert_eq!(delays_from_str("-").unwrap(), Vec::<u64>::new());
        assert_eq!(delays_from_str("0,3,3").unwrap(), vec![0, 3, 3]);
        assert_eq!(delays_to_str(&[0, 3, 3]), "0,3,3");
        assert_eq!(delays_to_str(&[]), "-");
    }
}
