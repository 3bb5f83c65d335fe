//! The deterministic serialized scheduler: one thread at a time, a
//! [`SchedulePolicy`] picking who runs next, and a virtual clock driven
//! purely by simulator events.

use parking_lot::{Condvar, Mutex};

use super::policy::{DecisionRecord, PickReason, RandomPolicy, SchedulePolicy};
use super::{Scheduler, YieldKind};

/// Virtual nanoseconds a yield point costs. Large enough that timed waits
/// (δ-starts, reader deadlines) resolve within a few dozen events, small
/// enough that durations estimated from the virtual clock stay plausible.
const YIELD_TICK: u64 = 25;

/// Virtual nanoseconds a bare clock read costs. Strictly positive so the
/// clock is strictly monotonic and every `while now() < deadline` loop
/// terminates even if the scheduler never switches threads.
const NOW_TICK: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// No thread registered (or it deregistered).
    Absent,
    /// Registered and eligible to be scheduled.
    Runnable,
    /// Registered but waiting for the virtual clock to reach a deadline.
    Blocked(u64),
}

#[derive(Debug)]
struct DetState {
    threads: Vec<Slot>,
    registered: usize,
    /// The start barrier has released: every participant arrived once.
    started: bool,
    /// The one thread allowed to run (`None` before start / after the
    /// last deregistration).
    current: Option<u32>,
    vclock: u64,
    policy: Box<dyn SchedulePolicy>,
    /// Reused across picks: collecting the runnable set is the hottest
    /// loop of every deterministic run, so it must not allocate each time.
    scratch: Vec<u32>,
    /// Every branch point (two or more runnable threads) of the run so
    /// far, in order.
    decisions: Vec<DecisionRecord>,
}

impl DetState {
    /// Picks the next thread to run. Sleepers whose deadline the virtual
    /// clock has already passed are woken first (they became schedulable
    /// the moment time caught up with them, even if other threads kept the
    /// CPU busy meanwhile); when every registered thread is blocked on a
    /// timer, the clock jumps to the earliest deadline (the all-asleep
    /// rule of discrete-event simulation). Returns `None` only when no
    /// threads are registered at all.
    fn pick(&mut self, reason: PickReason) -> Option<u32> {
        loop {
            for s in &mut self.threads {
                if matches!(s, Slot::Blocked(d) if *d <= self.vclock) {
                    *s = Slot::Runnable;
                }
            }
            self.scratch.clear();
            for (i, s) in self.threads.iter().enumerate() {
                if *s == Slot::Runnable {
                    self.scratch.push(i as u32);
                }
            }
            if !self.scratch.is_empty() {
                let i = self
                    .policy
                    .choose(&self.scratch, reason)
                    .min(self.scratch.len() - 1);
                let chosen = self.scratch[i];
                if self.scratch.len() > 1 {
                    self.decisions.push(DecisionRecord { chosen });
                }
                return Some(chosen);
            }
            let earliest = self
                .threads
                .iter()
                .filter_map(|s| match s {
                    Slot::Blocked(d) => Some(*d),
                    _ => None,
                })
                .min()?;
            self.vclock = self.vclock.max(earliest);
        }
    }

    fn participates(&self, tid: u32) -> bool {
        self.started
            && (tid as usize) < self.threads.len()
            && self.threads[tid as usize] != Slot::Absent
    }
}

/// A fully serialized cooperative scheduler.
///
/// Exactly one simulated thread runs at any moment; at every yield point
/// the running thread hands control to a successor chosen by the
/// installed [`SchedulePolicy`] (a seeded PRNG by default), so the
/// complete interleaving — and therefore every event trace, every
/// conflict, every abort — is a pure function of
/// `(workload seed, config, policy)`. Every branch point is recorded as a
/// [`DecisionRecord`], available through [`Scheduler::decision_trace`]
/// for exact replay.
///
/// Time is virtual: a counter that advances by `NOW_TICK` (1) per clock
/// read and `YIELD_TICK` (25) per yield, and jumps forward when every
/// thread is blocked on a timed wait. Wall time never enters the
/// simulation.
///
/// # Contract
///
/// * Exactly `participants` OS threads must each claim one
///   [`crate::ThreadCtx`]; registration blocks until all have arrived
///   (a start barrier that erases OS spawn-order nondeterminism), so
///   claiming fewer contexts than `participants` deadlocks by design.
/// * After the barrier releases, a context released mid-run may be
///   re-claimed (dynamic thread churn): the re-registrant joins the
///   running schedule at its next pick instead of re-arming the barrier,
///   even when every other participant has already deregistered.
/// * The start barrier is a **first-wave device**: it never re-arms, not
///   even when every participant has deregistered. A scheduler reused for
///   a second full wave of registrations therefore does not erase that
///   wave's spawn-order nondeterminism — build a fresh scheduler (and a
///   fresh `Htm`, as the in-repo harnesses do) per run.
/// * Participating threads must not block on OS primitives the scheduler
///   cannot see (condvars, channels, `std::sync::Barrier`) while they hold
///   the virtual CPU — spin-and-snooze waits, which route through
///   [`crate::clock::SpinWait`], are the supported shape. The stock
///   mutex-and-condvar `PthreadRwLock` baseline is therefore excluded
///   from deterministic torture runs.
/// * Non-participating threads (e.g. a harness main thread doing setup
///   before workers spawn, or inspecting memory after they join) bypass
///   the scheduler entirely: their yield points are no-ops and their clock
///   reads fall back to wall time.
#[derive(Debug)]
pub struct DetScheduler {
    inner: Mutex<DetState>,
    cv: Condvar,
    participants: usize,
}

impl DetScheduler {
    /// Creates a scheduler expecting exactly `participants` threads, with
    /// the classic seeded-PRNG picking policy.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn new(schedule_seed: u64, participants: usize) -> Self {
        Self::with_policy(Box::new(RandomPolicy::new(schedule_seed)), participants)
    }

    /// Creates a scheduler driven by an arbitrary [`SchedulePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn with_policy(policy: Box<dyn SchedulePolicy>, participants: usize) -> Self {
        assert!(participants > 0, "a schedule needs at least one thread");
        Self {
            inner: Mutex::new(DetState {
                threads: vec![Slot::Absent; participants],
                registered: 0,
                started: false,
                current: None,
                vclock: 0,
                policy,
                scratch: Vec::with_capacity(participants),
                decisions: Vec::new(),
            }),
            cv: Condvar::new(),
            participants,
        }
    }

    /// The virtual clock, without advancing it (tests, reporting).
    pub fn vclock(&self) -> u64 {
        self.inner.lock().vclock
    }
}

impl Scheduler for DetScheduler {
    /// Blocks until every participant has registered *and* the seeded
    /// picker selects this thread for the first time. Once the start
    /// barrier has released, later registrants (mid-run churn: a thread
    /// released its context and claimed a fresh one) simply become
    /// runnable and wait for their next pick — including restarting the
    /// schedule when every other participant already left.
    fn register(&self, tid: u32) {
        let mut st = self.inner.lock();
        let i = tid as usize;
        assert!(
            i < self.participants,
            "tid {tid} out of range for a {}-thread deterministic schedule",
            self.participants
        );
        assert!(
            st.threads[i] == Slot::Absent,
            "thread {tid} registered twice"
        );
        st.threads[i] = Slot::Runnable;
        st.registered += 1;
        if st.registered == self.participants && !st.started {
            st.started = true;
            st.current = st.pick(PickReason::Start);
            self.cv.notify_all();
        } else if st.started && st.current.is_none() {
            // Everyone else deregistered while this thread was between
            // contexts; the schedule must restart or it waits forever.
            st.current = st.pick(PickReason::Start);
            self.cv.notify_all();
        }
        while !(st.started && st.current == Some(tid)) {
            self.cv.wait(&mut st);
        }
    }

    fn deregister(&self, tid: u32) {
        let mut st = self.inner.lock();
        let i = tid as usize;
        if i >= st.threads.len() || st.threads[i] == Slot::Absent {
            return;
        }
        st.threads[i] = Slot::Absent;
        st.registered -= 1;
        if st.registered == 0 {
            // `started` stays set: the start barrier is a first-wave
            // device (it erases OS spawn-order nondeterminism), and a
            // churning thread that re-registers after everyone else left
            // must rejoin the run, not wait for a full house again.
            st.current = None;
        } else if st.current == Some(tid) {
            st.current = st.pick(PickReason::Exit);
        }
        self.cv.notify_all();
    }

    fn yield_point(&self, tid: u32, kind: YieldKind) {
        let mut st = self.inner.lock();
        if !st.participates(tid) || st.current != Some(tid) {
            // Setup/teardown accesses from non-participants run unserialized.
            return;
        }
        st.vclock += YIELD_TICK;
        let next = st
            .pick(PickReason::Yield(kind))
            .expect("the yielding thread is runnable");
        if next != tid {
            st.current = Some(next);
            self.cv.notify_all();
            while st.current != Some(tid) {
                self.cv.wait(&mut st);
            }
        }
    }

    fn now(&self) -> u64 {
        let mut st = self.inner.lock();
        st.vclock += NOW_TICK;
        st.vclock
    }

    fn wait_until(&self, tid: u32, deadline_ns: u64) {
        let mut st = self.inner.lock();
        if !st.participates(tid) || st.current != Some(tid) {
            return;
        }
        if st.vclock >= deadline_ns {
            st.vclock += YIELD_TICK; // an expired wait degrades to a yield
        } else {
            st.threads[tid as usize] = Slot::Blocked(deadline_ns);
        }
        let next = st
            .pick(PickReason::TimedWait)
            .expect("someone is schedulable");
        if next != tid {
            st.current = Some(next);
            self.cv.notify_all();
            while st.current != Some(tid) {
                self.cv.wait(&mut st);
            }
        }
        debug_assert_eq!(st.threads[tid as usize], Slot::Runnable);
        debug_assert!(st.vclock >= deadline_ns, "woken before the deadline");
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn decision_trace(&self) -> Option<Vec<DecisionRecord>> {
        Some(self.inner.lock().decisions.clone())
    }

    fn schedule_divergence(&self) -> Option<String> {
        self.inner.lock().policy.divergence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_runs_without_blocking() {
        let s = DetScheduler::new(1, 1);
        s.register(0);
        let t0 = s.now();
        s.yield_point(0, YieldKind::Access);
        assert!(s.now() > t0);
        s.wait_until(0, t0 + 1_000_000);
        assert!(s.vclock() >= t0 + 1_000_000, "clock jumped over the wait");
        s.deregister(0);
    }

    fn state(threads: Vec<Slot>, vclock: u64, seed: u64) -> DetState {
        let registered = threads.iter().filter(|s| **s != Slot::Absent).count();
        DetState {
            threads,
            registered,
            started: true,
            current: None,
            vclock,
            policy: Box::new(RandomPolicy::new(seed)),
            scratch: Vec::new(),
            decisions: Vec::new(),
        }
    }

    #[test]
    fn pick_stream_is_a_pure_function_of_the_seed() {
        let run = |seed: u64| {
            let mut st = state(vec![Slot::Runnable; 4], 0, seed);
            (0..64)
                .map(|_| st.pick(PickReason::Start).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds, different schedules");
    }

    #[test]
    fn all_blocked_jumps_to_earliest_deadline() {
        let mut st = state(vec![Slot::Blocked(500), Slot::Blocked(300)], 100, 3);
        assert_eq!(
            st.pick(PickReason::TimedWait),
            Some(1),
            "only thread 1 unblocks at t=300"
        );
        assert_eq!(st.vclock, 300);
        assert_eq!(st.threads[0], Slot::Blocked(500), "0 still asleep");
    }

    #[test]
    fn branch_points_are_recorded_and_forced_picks_are_not() {
        let mut st = state(vec![Slot::Runnable, Slot::Runnable], 0, 11);
        let first = st.pick(PickReason::Start).unwrap();
        assert_eq!(st.decisions.len(), 1, "two runnable threads: a branch");
        assert_eq!(st.decisions[0].chosen, first);
        st.threads[0] = Slot::Absent;
        st.pick(PickReason::Exit).unwrap();
        assert_eq!(st.decisions.len(), 1, "forced pick records nothing");
    }

    #[test]
    fn replayed_decision_trace_reproduces_the_pick_stream() {
        let mut st = state(vec![Slot::Runnable; 3], 0, 77);
        let picks: Vec<u32> = (0..32)
            .map(|_| st.pick(PickReason::Start).unwrap())
            .collect();
        let decisions: Vec<u32> = st.decisions.iter().map(|d| d.chosen).collect();
        let mut replay = state(vec![Slot::Runnable; 3], 0, 0);
        replay.policy = Box::new(super::super::policy::ReplayPolicy::new(decisions.into()));
        let replayed: Vec<u32> = (0..32)
            .map(|_| replay.pick(PickReason::Start).unwrap())
            .collect();
        assert_eq!(picks, replayed);
        assert!(replay.policy.divergence().is_none());
    }

    #[test]
    fn churned_thread_rejoins_the_running_schedule() {
        let s = Arc::new(DetScheduler::new(3, 2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let churner = {
            let (s, log) = (Arc::clone(&s), Arc::clone(&log));
            std::thread::spawn(move || {
                s.register(0);
                for _ in 0..10 {
                    log.lock().push(0u32);
                    s.yield_point(0, YieldKind::Access);
                }
                // Mid-run churn: leave and come back.
                s.deregister(0);
                s.register(0);
                for _ in 0..10 {
                    log.lock().push(0u32);
                    s.yield_point(0, YieldKind::Access);
                }
                s.deregister(0);
            })
        };
        let steady = {
            let (s, log) = (Arc::clone(&s), Arc::clone(&log));
            std::thread::spawn(move || {
                s.register(1);
                for _ in 0..30 {
                    log.lock().push(1u32);
                    s.yield_point(1, YieldKind::Access);
                }
                s.deregister(1);
            })
        };
        churner.join().unwrap();
        steady.join().unwrap();
        assert_eq!(log.lock().len(), 50, "every iteration of both ran");
    }

    #[test]
    fn reregistration_after_everyone_left_does_not_deadlock() {
        let s = Arc::new(DetScheduler::new(5, 2));
        let b = Arc::new(std::sync::Barrier::new(2));
        let churner = {
            let (s, b) = (Arc::clone(&s), Arc::clone(&b));
            std::thread::spawn(move || {
                s.register(0);
                s.yield_point(0, YieldKind::Access);
                s.deregister(0);
                // Wait (off-schedule) until thread 1 has fully exited, so
                // the re-registration below finds an empty schedule.
                b.wait();
                s.register(0);
                s.yield_point(0, YieldKind::Access);
                s.deregister(0);
            })
        };
        let other = {
            let (s, b) = (Arc::clone(&s), Arc::clone(&b));
            std::thread::spawn(move || {
                s.register(1);
                for _ in 0..5 {
                    s.yield_point(1, YieldKind::Access);
                }
                s.deregister(1);
                b.wait();
            })
        };
        churner.join().unwrap();
        other.join().unwrap();
    }

    #[test]
    fn two_threads_serialize_through_the_barrier() {
        let s = Arc::new(DetScheduler::new(42, 2));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mk = |tid: u32| {
            let (s, log) = (Arc::clone(&s), Arc::clone(&log));
            std::thread::spawn(move || {
                s.register(tid);
                for _ in 0..50 {
                    log.lock().push(tid);
                    s.yield_point(tid, YieldKind::Access);
                }
                s.deregister(tid);
            })
        };
        let (a, b) = (mk(0), mk(1));
        a.join().unwrap();
        b.join().unwrap();
        let log = log.lock();
        assert_eq!(log.len(), 100);
        assert!(log.contains(&0) && log.contains(&1), "both threads ran");
    }

    #[test]
    fn same_seed_reproduces_the_same_interleaving() {
        let run = |seed: u64| {
            let s = Arc::new(DetScheduler::new(seed, 2));
            let log = Arc::new(Mutex::new(Vec::new()));
            let mk = |tid: u32| {
                let (s, log) = (Arc::clone(&s), Arc::clone(&log));
                std::thread::spawn(move || {
                    s.register(tid);
                    for _ in 0..40 {
                        log.lock().push(tid);
                        s.yield_point(tid, YieldKind::Access);
                    }
                    s.deregister(tid);
                })
            };
            let (a, b) = (mk(0), mk(1));
            a.join().unwrap();
            b.join().unwrap();
            Arc::try_unwrap(log).unwrap().into_inner()
        };
        assert_eq!(run(7), run(7), "the interleaving is seed-determined");
    }
}
