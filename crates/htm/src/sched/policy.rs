//! Schedule policies: *who runs next* at a deterministic decision point.
//!
//! [`super::DetScheduler`] serializes execution and, at every point where
//! more than one thread could run, asks a [`SchedulePolicy`] to choose the
//! successor. Splitting the *mechanism* (serialization, virtual clock,
//! blocking) from the *policy* (the choice) is what turns the deterministic
//! scheduler from a replay tool into a search tool: the same substrate can
//! sample interleavings blindly ([`RandomPolicy`], the original behaviour),
//! enumerate them systematically ([`DelayBoundedPolicy`], CHESS-style
//! iterative delay bounding), or re-execute one recorded interleaving
//! exactly ([`ReplayPolicy`]).
//!
//! # Decision traces
//!
//! The scheduler records every *branch point* — a pick with two or more
//! runnable threads — as a [`DecisionRecord`] (the chosen tid). The
//! sequence of records is the **decision trace**: together with the
//! workload seed and configuration it pins the entire run, so a
//! decision trace is a stronger replay artifact than a schedule seed (it
//! reproduces a schedule found by *any* policy, not just a PRNG stream).
//! Forced picks (exactly one runnable thread) are not recorded: they carry
//! no information, and skipping them keeps traces short and replay robust.

use std::fmt;
use std::sync::Arc;

use super::YieldKind;
use crate::util::XorShift64;

/// Why the scheduler is picking a successor.
///
/// Policies may use this to shape their baseline (e.g. hand the CPU over on
/// condition-wait steps so spin loops cannot livelock a non-preemptive
/// baseline); [`RandomPolicy`] ignores it entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickReason {
    /// The start barrier released (first pick of the run).
    Start,
    /// A thread deregistered while holding the virtual CPU.
    Exit,
    /// A yield point of the given kind.
    Yield(YieldKind),
    /// The current thread blocked on a timed wait.
    TimedWait,
}

/// One recorded branch point: which thread was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecisionRecord {
    /// The tid the policy selected.
    pub chosen: u32,
}

/// A scheduling policy for [`super::DetScheduler`].
///
/// `choose` is called at **every** pick — including forced ones with a
/// single runnable thread — so stateful policies (PRNG streams) consume
/// their state identically whether or not the pick is a real branch. The
/// returned index must be `< runnable.len()`; the scheduler clamps
/// defensively. `runnable` is always non-empty and sorted ascending.
pub trait SchedulePolicy: Send + fmt::Debug {
    /// Chooses the index of the next thread to run within `runnable`.
    fn choose(&mut self, runnable: &[u32], reason: PickReason) -> usize;

    /// For replaying policies: a description of the first point where the
    /// live run stopped matching the recorded trace, if any.
    fn divergence(&self) -> Option<String> {
        None
    }
}

/// The original behaviour: a seeded PRNG picks uniformly among the
/// runnable threads. Bit-compatible with the pre-policy `DetScheduler`
/// (the PRNG is consulted at every pick, forced or not, so existing
/// `(seed, sched_seed)` replays and golden traces are unaffected).
#[derive(Debug)]
pub struct RandomPolicy {
    rng: XorShift64,
}

impl RandomPolicy {
    /// A policy drawing from the given schedule seed.
    pub fn new(schedule_seed: u64) -> Self {
        Self {
            rng: XorShift64::new(schedule_seed),
        }
    }
}

impl SchedulePolicy for RandomPolicy {
    fn choose(&mut self, runnable: &[u32], _reason: PickReason) -> usize {
        (self.rng.next_u64() % runnable.len() as u64) as usize
    }
}

/// Position of the first runnable tid strictly greater than `t`, wrapping
/// to 0 — the cyclic successor in tid order.
fn next_after(runnable: &[u32], t: u32) -> usize {
    runnable.iter().position(|&x| x > t).unwrap_or(0)
}

/// CHESS-style iterative delay bounding.
///
/// The baseline is the canonical **non-preemptive** schedule: keep running
/// the current thread until it blocks, exits, or reaches a condition-wait
/// step ([`YieldKind::Snooze`], which hands the CPU to the next thread in
/// tid order — a spinning thread can never starve the thread it waits on).
/// A *delay* at branch step `i` rotates the choice at the `i`-th branch
/// point one position past the baseline; `d` delays therefore inject at
/// most `d` preemptions. Enumerating delay vectors at increasing budgets
/// `d = 0, 1, 2, …` covers the schedule space systematically, and small
/// budgets already expose most ordering bugs (the empirical claim of the
/// CHESS line of work).
#[derive(Debug)]
pub struct DelayBoundedPolicy {
    /// Branch-step indices to delay at, ascending; repeated indices rotate
    /// further at the same point.
    delays: Vec<u64>,
    /// Branch points seen so far (forced picks do not count).
    step: u64,
    /// The thread chosen at the previous pick.
    last: Option<u32>,
}

impl DelayBoundedPolicy {
    /// A policy with the given delay vector (need not be sorted).
    pub fn new(mut delays: Vec<u64>) -> Self {
        delays.sort_unstable();
        Self {
            delays,
            step: 0,
            last: None,
        }
    }
}

impl SchedulePolicy for DelayBoundedPolicy {
    fn choose(&mut self, runnable: &[u32], reason: PickReason) -> usize {
        if runnable.len() == 1 {
            self.last = Some(runnable[0]);
            return 0;
        }
        let base = match self.last {
            // A condition-wait step must hand over: the awaited condition
            // can only change if someone else runs.
            Some(l) if reason == PickReason::Yield(YieldKind::Snooze) => next_after(runnable, l),
            Some(l) => runnable
                .iter()
                .position(|&x| x == l)
                .unwrap_or_else(|| next_after(runnable, l)),
            None => 0,
        };
        let rotations = self.delays.iter().filter(|&&d| d == self.step).count();
        let idx = (base + rotations) % runnable.len();
        self.step += 1;
        self.last = Some(runnable[idx]);
        idx
    }
}

/// Replays a recorded decision trace exactly.
///
/// Each branch point consumes one recorded tid; forced picks consume
/// nothing (they were not recorded). If the recorded tid is not runnable,
/// or the trace runs out at a branch point, the policy notes the first
/// divergence and falls back to the lowest runnable tid so the run can
/// still complete (a diverged replay is a diagnosis, not a deadlock).
#[derive(Debug)]
pub struct ReplayPolicy {
    decisions: Arc<[u32]>,
    pos: usize,
    diverged: Option<String>,
}

impl ReplayPolicy {
    /// A policy replaying the given branch-point choices.
    pub fn new(decisions: Arc<[u32]>) -> Self {
        Self {
            decisions,
            pos: 0,
            diverged: None,
        }
    }

    /// Recorded decisions consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl SchedulePolicy for ReplayPolicy {
    fn choose(&mut self, runnable: &[u32], _reason: PickReason) -> usize {
        if runnable.len() == 1 {
            return 0;
        }
        let step = self.pos;
        let want = self.decisions.get(step).copied();
        self.pos += 1;
        match want {
            Some(t) => match runnable.iter().position(|&x| x == t) {
                Some(i) => i,
                None => {
                    if self.diverged.is_none() {
                        self.diverged = Some(format!(
                            "branch {step}: recorded tid {t} is not runnable \
                             (runnable set {runnable:?})"
                        ));
                    }
                    0
                }
            },
            None => {
                if self.diverged.is_none() {
                    self.diverged = Some(format!(
                        "branch {step}: recorded trace exhausted \
                         (runnable set {runnable:?})"
                    ));
                }
                0
            }
        }
    }

    fn divergence(&self) -> Option<String> {
        self.diverged.clone()
    }
}

/// Data-only policy description, so a policy can travel inside
/// [`crate::HtmConfig`] (which must stay `Clone + Eq + Hash`-able for spec
/// matrices and test tables).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SchedulePolicyKind {
    /// Seeded uniform-random picking ([`RandomPolicy`]).
    Random {
        /// The schedule seed.
        seed: u64,
    },
    /// Non-preemptive baseline plus the given delay vector
    /// ([`DelayBoundedPolicy`]).
    DelayBounded {
        /// Branch-step indices to delay at.
        delays: Vec<u64>,
    },
    /// Exact replay of a recorded decision trace ([`ReplayPolicy`]).
    Replay {
        /// Chosen tids, one per branch point.
        decisions: Arc<[u32]>,
    },
}

impl SchedulePolicyKind {
    /// Instantiates the policy object.
    pub fn build(&self) -> Box<dyn SchedulePolicy> {
        match self {
            SchedulePolicyKind::Random { seed } => Box::new(RandomPolicy::new(*seed)),
            SchedulePolicyKind::DelayBounded { delays } => {
                Box::new(DelayBoundedPolicy::new(delays.clone()))
            }
            SchedulePolicyKind::Replay { decisions } => {
                Box::new(ReplayPolicy::new(Arc::clone(decisions)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_policy_matches_legacy_modulo_pick() {
        // The pre-policy scheduler computed `rng.next_u64() % len` at every
        // pick; the policy must reproduce that stream bit-for-bit.
        let mut p = RandomPolicy::new(99);
        let mut rng = XorShift64::new(99);
        for len in [1usize, 3, 2, 4, 1, 2] {
            let runnable: Vec<u32> = (0..len as u32).collect();
            let want = (rng.next_u64() % len as u64) as usize;
            assert_eq!(p.choose(&runnable, PickReason::Start), want);
        }
    }

    #[test]
    fn delay_bounded_baseline_is_non_preemptive() {
        let mut p = DelayBoundedPolicy::new(vec![]);
        let r = [0u32, 1, 2];
        // First pick: lowest tid.
        assert_eq!(p.choose(&r, PickReason::Start), 0);
        // Plain yields keep the current thread running.
        for _ in 0..5 {
            assert_eq!(p.choose(&r, PickReason::Yield(YieldKind::Access)), 0);
        }
        // A snooze hands over to the next tid in order.
        assert_eq!(p.choose(&r, PickReason::Yield(YieldKind::Snooze)), 1);
        assert_eq!(p.choose(&r, PickReason::Yield(YieldKind::Access)), 1);
    }

    #[test]
    fn delays_rotate_past_the_baseline() {
        let mut p = DelayBoundedPolicy::new(vec![1]);
        let r = [0u32, 1];
        assert_eq!(p.choose(&r, PickReason::Start), 0, "branch 0: baseline");
        assert_eq!(
            p.choose(&r, PickReason::Yield(YieldKind::Access)),
            1,
            "branch 1 is delayed: rotate to the other thread"
        );
        assert_eq!(
            p.choose(&r, PickReason::Yield(YieldKind::Access)),
            1,
            "after the preemption, thread 1 is the sticky current thread"
        );
    }

    #[test]
    fn forced_picks_do_not_consume_delay_steps() {
        let mut p = DelayBoundedPolicy::new(vec![0]);
        assert_eq!(p.choose(&[2], PickReason::Start), 0, "forced");
        // The first *branch* point is still step 0 and gets the delay.
        assert_eq!(p.choose(&[1, 2], PickReason::Yield(YieldKind::Access)), 0);
        // Baseline would stick with tid 2 (index 1); the delay rotated one
        // past it, landing on tid 1 (index 0).
    }

    #[test]
    fn replay_follows_the_recorded_trace_and_flags_divergence() {
        let mut p = ReplayPolicy::new(vec![1u32, 0].into());
        assert_eq!(p.choose(&[0, 1], PickReason::Start), 1);
        assert_eq!(p.choose(&[9], PickReason::Exit), 0, "forced, not consumed");
        assert_eq!(p.choose(&[0, 2], PickReason::TimedWait), 0);
        assert!(p.divergence().is_none());
        // Trace exhausted at a real branch: diverged, falls back to 0.
        assert_eq!(p.choose(&[0, 1], PickReason::Start), 0);
        assert!(p.divergence().unwrap().contains("exhausted"));
    }

    #[test]
    fn replay_divergence_on_non_runnable_tid() {
        let mut p = ReplayPolicy::new(vec![5u32].into());
        assert_eq!(p.choose(&[0, 1], PickReason::Start), 0);
        let d = p.divergence().unwrap();
        assert!(d.contains("tid 5"), "{d}");
    }

    #[test]
    fn policy_kind_builds_matching_policies() {
        let k = SchedulePolicyKind::DelayBounded { delays: vec![2, 0] };
        let mut p = k.build();
        assert_eq!(p.choose(&[0, 1], PickReason::Start), 1, "delay at step 0");
        let r = SchedulePolicyKind::Replay {
            decisions: vec![1u32].into(),
        };
        let mut p = r.build();
        assert_eq!(p.choose(&[0, 1], PickReason::Start), 1);
    }
}
