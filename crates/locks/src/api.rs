//! The common interface all read-write synchronization schemes implement.
//!
//! A *critical section* is a closure over [`htm_sim::MemAccess`]; the same
//! closure body can therefore run speculatively (inside a hardware
//! transaction), uninstrumented, or under a pessimistic lock — whichever
//! execution mode the scheme chooses. This mirrors how SpRWL elides
//! existing lock-based code without changing it.

use htm_sim::{MemAccess, SimMemory, ThreadCtx, TxResult};
use sprwl_trace::{TraceBuffer, TraceConfig};

use crate::stats::SessionStats;

/// Identifies a critical-section *kind* for duration statistics.
///
/// SpRWL's scheduling layer estimates per-section durations (the paper has
/// programmers pass a unique id to the lock/unlock API; a compiler could
/// derive it from the call site). Use one id per distinct critical-section
/// body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SectionId(pub u32);

impl SectionId {
    /// The raw id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A critical-section body: re-runnable (it may be retried many times) and
/// abortable (`Err` propagates a hardware abort).
///
/// The `u64` return value travels back through [`RwSync`]; pack richer
/// results into simulated memory or fold them into the word.
pub type SectionBody<'b> = &'b mut dyn FnMut(&mut dyn MemAccess) -> TxResult<u64>;

/// Per-thread state bundle: the HTM thread context plus this thread's
/// statistics and (optional) lock-lifecycle trace. Create one per OS
/// thread, pass it to every section call.
#[derive(Debug)]
pub struct LockThread<'h> {
    /// The simulated hardware-thread context.
    pub ctx: ThreadCtx<'h>,
    /// Commit/abort/latency bookkeeping for this thread.
    pub stats: SessionStats,
    /// Lock-lifecycle event ring (disabled by default; see
    /// [`LockThread::with_trace`]). Owned by this thread only, so
    /// recording adds no shared-memory traffic.
    pub trace: TraceBuffer,
}

impl<'h> LockThread<'h> {
    /// Bundles a thread context with fresh statistics and tracing off.
    pub fn new(ctx: ThreadCtx<'h>) -> Self {
        Self::with_trace(ctx, TraceConfig::Off)
    }

    /// Bundles a thread context with fresh statistics and the given
    /// tracing policy.
    pub fn with_trace(ctx: ThreadCtx<'h>, trace: TraceConfig) -> Self {
        let tid = ctx.tid() as u32;
        Self {
            ctx,
            stats: SessionStats::default(),
            trace: TraceBuffer::new(tid, trace),
        }
    }

    /// The simulated hardware thread id.
    pub fn tid(&self) -> usize {
        self.ctx.tid()
    }
}

/// A read-write synchronization scheme: protects critical sections with
/// reader-reader concurrency and (scheme-dependent) speculation.
///
/// Object-safe on purpose: benchmark harnesses iterate over
/// `&dyn RwSync` to compare schemes.
pub trait RwSync: Sync {
    /// Short human-readable name used in benchmark output (e.g. `"TLE"`).
    fn name(&self) -> &'static str;

    /// Executes `f` as a *read* critical section.
    ///
    /// The implementation decides the execution mode (speculative,
    /// uninstrumented, pessimistic) and records the outcome in `t.stats`.
    fn read_section(&self, t: &mut LockThread<'_>, sec: SectionId, f: SectionBody<'_>) -> u64;

    /// Executes `f` as a *write* critical section.
    fn write_section(&self, t: &mut LockThread<'_>, sec: SectionId, f: SectionBody<'_>) -> u64;

    /// Oracle hook for stress harnesses: verifies the scheme is *quiescent*
    /// — no reader or writer registered anywhere, every internal lock free.
    /// Only meaningful while no thread is inside a section; the torture
    /// harness calls it after joining all worker threads to catch leaked
    /// registrations (unbalanced SNZI arrives, stale flags, a fallback lock
    /// never released).
    ///
    /// The default implementation checks nothing; schemes override it to
    /// expose their invariants.
    ///
    /// # Errors
    ///
    /// A description of the first piece of non-quiescent state found.
    fn check_quiescent(&self, mem: &SimMemory) -> Result<(), String> {
        let _ = mem;
        Ok(())
    }
}

/// Convenience: run an untracked (never-aborting) body and unwrap.
pub(crate) fn run_untracked(t: &mut LockThread<'_>, f: SectionBody<'_>) -> u64 {
    let mut d = t.ctx.direct();
    f(&mut d).expect("untracked critical sections cannot abort")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_id_roundtrip() {
        assert_eq!(SectionId(7).index(), 7);
        assert_eq!(SectionId(7), SectionId(7));
        assert_ne!(SectionId(7), SectionId(8));
    }

    #[test]
    fn lock_thread_exposes_tid() {
        let htm = htm_sim::Htm::new(htm_sim::HtmConfig::default(), 64);
        let t = LockThread::new(htm.thread(3));
        assert_eq!(t.tid(), 3);
    }
}
