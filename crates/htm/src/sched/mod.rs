//! The pluggable execution substrate: every scheduling-relevant event in
//! the simulator — tracked and untracked memory accesses, transaction
//! begin/commit/abort, condition waits, timed waits and clock reads —
//! routes through a [`Scheduler`] object instead of hitting the OS (or the
//! wall clock) directly.
//!
//! Two implementations ship:
//!
//! * [`OsScheduler`] — free-running OS threads. Yield points are no-ops
//!   unless `sched_shake_prob` asks for seeded random perturbation (the
//!   free-running torture matrix sets it), timed waits spin on the wall
//!   clock, and `now()` is wall time.
//! * [`DetScheduler`] — a fully serialized cooperative scheduler: exactly
//!   one simulated thread runs at a time, the next runnable thread is
//!   picked by a [`SchedulePolicy`] at every yield point (a seeded PRNG by
//!   default), and time is a virtual counter advanced only by simulator
//!   events. The same `(workload seed, config, policy)` triple therefore
//!   produces a byte-identical event trace on every run.
//!
//! # Thread binding
//!
//! Free functions like [`crate::clock::now`] and [`crate::clock::spin_until`]
//! cannot take a scheduler argument without churning every signature in the
//! workspace, so claiming a [`crate::ThreadCtx`] *binds* the calling OS
//! thread to its runtime's scheduler through a thread-local. Bound threads
//! read the scheduler clock and wait through the scheduler; unbound threads
//! (harness main threads, plain unit tests) keep the historical wall-clock
//! behaviour. The binding is released when the context drops.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

mod det;
mod os;
mod policy;

pub use det::DetScheduler;
pub use os::OsScheduler;
pub use policy::{
    DecisionRecord, DelayBoundedPolicy, PickReason, RandomPolicy, ReplayPolicy, SchedulePolicy,
    SchedulePolicyKind,
};

/// Why a yield point was reached. Schedulers may weight or filter decisions
/// by kind; both built-in implementations currently treat every kind the
/// same, but the taxonomy keeps traces and future policies honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YieldKind {
    /// A tracked (transactional) memory access.
    TxAccess,
    /// An untracked memory access (`Direct` or suspended-mode).
    Access,
    /// A transaction is about to begin.
    TxBegin,
    /// A transaction just committed.
    TxCommit,
    /// A transaction attempt just aborted.
    TxAbort,
    /// One step of a condition wait ([`crate::clock::SpinWait::snooze`]).
    Snooze,
}

/// The execution substrate: owns thread interleaving and the clock.
///
/// Implementations must be safe to call from any participating thread. The
/// simulator calls [`Scheduler::yield_point`] at every event where a real
/// machine could context-switch; a scheduler may run other threads, inject
/// delays, or do nothing there.
pub trait Scheduler: fmt::Debug + Send + Sync {
    /// Announces that OS thread `tid` joined the simulation (called from
    /// [`crate::Htm::thread`]). Serializing schedulers may block here until
    /// every expected participant has arrived and it is `tid`'s turn.
    fn register(&self, tid: u32);

    /// Announces that `tid` left the simulation (context dropped).
    fn deregister(&self, tid: u32);

    /// A point where the interleaving may change. No-op for threads that
    /// never registered (e.g. a harness main thread doing setup).
    fn yield_point(&self, tid: u32, kind: YieldKind);

    /// The scheduler clock, in nanoseconds. Wall time for free-running
    /// schedulers, virtual time for deterministic ones. Deterministic
    /// clocks must advance on every read so bounded waits terminate.
    fn now(&self) -> u64;

    /// Blocks `tid` until [`Scheduler::now`] reaches `deadline_ns`.
    fn wait_until(&self, tid: u32, deadline_ns: u64);

    /// Whether this scheduler serializes execution and virtualizes time.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// The decision trace of the run so far — one [`DecisionRecord`] per
    /// branch point — for schedulers that record one. `None` for
    /// free-running schedulers (the OS made the choices, invisibly).
    fn decision_trace(&self) -> Option<Vec<DecisionRecord>> {
        None
    }

    /// For replaying schedulers: where (if anywhere) the live run stopped
    /// matching the recorded schedule. `None` means faithful so far.
    fn schedule_divergence(&self) -> Option<String> {
        None
    }
}

/// The calling thread's scheduler binding (see module docs).
struct Binding {
    sched: Arc<dyn Scheduler>,
    tid: u32,
}

thread_local! {
    static BOUND: RefCell<Option<Binding>> = const { RefCell::new(None) };
}

/// Binds the calling OS thread to `sched` as simulated thread `tid`.
/// Overwrites any previous binding (last claim wins).
pub(crate) fn bind(sched: Arc<dyn Scheduler>, tid: u32) {
    BOUND.with(|b| *b.borrow_mut() = Some(Binding { sched, tid }));
}

/// Clears the calling thread's binding (context drop).
pub(crate) fn unbind() {
    BOUND.with(|b| *b.borrow_mut() = None);
}

/// Scheduler-clock read for bound threads; `None` when unbound.
#[inline]
pub(crate) fn bound_now() -> Option<u64> {
    BOUND.with(|b| b.borrow().as_ref().map(|bind| bind.sched.now()))
}

/// Routes a timed wait through the bound scheduler. Returns `false` when
/// the thread is unbound (caller falls back to the wall-clock spin).
#[inline]
pub(crate) fn bound_wait_until(deadline_ns: u64) -> bool {
    BOUND.with(|b| match b.borrow().as_ref() {
        Some(bind) => {
            bind.sched.wait_until(bind.tid, deadline_ns);
            true
        }
        None => false,
    })
}

/// Routes one condition-wait step through the bound scheduler **if** it is
/// deterministic (a serialized scheduler must hand the CPU over, or the
/// awaited condition can never change). Returns `false` when the caller
/// should do the classic spin/yield escalation instead.
#[inline]
pub(crate) fn bound_snooze() -> bool {
    BOUND.with(|b| match b.borrow().as_ref() {
        Some(bind) if bind.sched.is_deterministic() => {
            bind.sched.yield_point(bind.tid, YieldKind::Snooze);
            true
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbound_thread_reports_no_binding() {
        assert!(bound_now().is_none());
        assert!(!bound_wait_until(123));
        assert!(!bound_snooze());
    }

    #[test]
    fn binding_routes_clock_reads_and_waits() {
        let sched: Arc<dyn Scheduler> = Arc::new(DetScheduler::new(7, 1));
        sched.register(0);
        bind(Arc::clone(&sched), 0);
        let a = bound_now().expect("bound");
        let b = bound_now().expect("bound");
        assert!(b > a, "deterministic clock advances on every read");
        assert!(bound_wait_until(b + 1_000_000));
        assert!(
            bound_now().unwrap() >= b + 1_000_000,
            "wait jumped the clock"
        );
        assert!(bound_snooze(), "det scheduler handles snoozes");
        unbind();
        assert!(bound_now().is_none());
        sched.deregister(0);
    }

    #[test]
    fn os_bound_snooze_falls_back_to_spinning() {
        let sched: Arc<dyn Scheduler> = Arc::new(OsScheduler::new(0.0, 1));
        bind(Arc::clone(&sched), 0);
        assert!(!bound_snooze(), "free-running mode keeps the classic spin");
        assert!(bound_now().is_some());
        unbind();
    }
}
