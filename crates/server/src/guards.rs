//! Future-based guard acquisition over one shard's [`SpRwl`].
//!
//! The blocking lock parks waiters inside `read_section`/`write_section`
//! by spinning; a service front-end instead wants *futures* that resolve
//! when admission opens, parking the worker on the shard's [`WakeList`]
//! meanwhile. Two invariants make the futures safe to drop at any point
//! (async callers cancel by dropping):
//!
//! * **Never pend while announced.** A [`ReadFuture`] poll is one
//!   admit-or-withdraw attempt ([`SpRwl::try_enter_read`]): if it cannot
//!   enter it has already unflagged itself before returning `Pending`, so
//!   a dropped future never strands a reader flag, SNZI arrival, or BRAVO
//!   visible-table slot that would wedge a fallback writer's reader drain.
//!   The only cross-poll state is the §3.3 versioned-SGL anti-starvation
//!   ticket, and [`ReadFuture::drop`] clears it via
//!   [`SpRwl::cancel_read_admission`] when the future dies unresolved.
//! * **Register, then re-check.** Both futures register their waker and
//!   then retry once before pending, closing the race where the writer
//!   notified the wake-list between the failed attempt and the
//!   registration.
//!
//! A [`WriteFuture`] registers nothing at all — it resolves when the
//! fallback lock looks free ([`SpRwl::write_admission_open`]) and the
//! caller then runs the ordinary synchronous `write_section`, which
//! re-arbitrates under the lock's own protocol. Dropping it mid-acquire
//! is trivially safe.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use htm_sim::Direct;
use sprwl::reader_table::ReaderReg;
use sprwl::SpRwl;
use sprwl_locks::{LockThread, SectionBody, SectionId};

use crate::wake::WakeList;

/// One shard's lock plus the wake-list its pending acquirers park on.
#[derive(Debug)]
pub struct ShardLock {
    lock: SpRwl,
    wake: WakeList,
}

impl ShardLock {
    /// Wraps a shard lock with an empty wake-list.
    pub fn new(lock: SpRwl) -> Self {
        Self {
            lock,
            wake: WakeList::new(),
        }
    }

    /// The underlying lock (quiescence checks, debug probes).
    pub fn lock(&self) -> &SpRwl {
        &self.lock
    }

    /// The shard's wake-list (tests and introspection).
    pub fn wake(&self) -> &WakeList {
        &self.wake
    }

    /// A future resolving to an uninstrumented-read admission on this
    /// shard. Cancel by dropping, at any point.
    pub fn read<'a, 'h>(&'a self, d: Direct<'h>, tid: usize) -> ReadFuture<'a, 'h> {
        ReadFuture {
            shard: self,
            d,
            tid,
            resolved: false,
        }
    }

    /// A future resolving when a write section started now would not park
    /// behind a fallback writer. Purely advisory (see module docs); follow
    /// it with [`ShardLock::write_section`].
    pub fn write_ready<'a, 'h>(&'a self, d: Direct<'h>) -> WriteFuture<'a, 'h> {
        WriteFuture { shard: self, d }
    }

    /// Runs a write critical section and then wakes every parked future —
    /// completing a writer is the only event that changes admission state,
    /// so this is the single notify point of the front-end.
    pub fn write_section(&self, t: &mut LockThread<'_>, sec: SectionId, f: SectionBody<'_>) -> u64 {
        use sprwl_locks::RwSync;
        let r = self.lock.write_section(t, sec, f);
        self.wake.notify_all();
        r
    }
}

/// A pending read admission on one shard. Resolves to a [`ReadGuard`].
#[derive(Debug)]
pub struct ReadFuture<'a, 'h> {
    shard: &'a ShardLock,
    d: Direct<'h>,
    tid: usize,
    resolved: bool,
}

impl<'a, 'h> Future for ReadFuture<'a, 'h> {
    type Output = ReadGuard<'a, 'h>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mem = this.d.htm().memory();
        let mut admit = this.shard.lock.try_enter_read(&this.d, this.tid, mem);
        if admit.is_none() {
            this.shard.wake.register(cx.waker());
            admit = this.shard.lock.try_enter_read(&this.d, this.tid, mem);
        }
        match admit {
            Some(reg) => {
                this.resolved = true;
                Poll::Ready(ReadGuard {
                    shard: this.shard,
                    d: this.d,
                    tid: this.tid,
                    reg: Some(reg),
                })
            }
            None => Poll::Pending,
        }
    }
}

impl Drop for ReadFuture<'_, '_> {
    fn drop(&mut self) {
        if !self.resolved {
            // A pending poll may have left the §3.3 anti-starvation ticket
            // registered; clear it or fallback writers keep deferring to a
            // reader that no longer exists (and quiescence checks fail).
            self.shard.lock.cancel_read_admission(self.tid);
        }
    }
}

/// An admitted uninstrumented reader; the section runs through
/// [`ReadGuard::access`] and ends when the guard drops.
#[derive(Debug)]
pub struct ReadGuard<'a, 'h> {
    shard: &'a ShardLock,
    d: Direct<'h>,
    tid: usize,
    reg: Option<ReaderReg>,
}

impl<'h> ReadGuard<'_, 'h> {
    /// Direct (uninstrumented) memory access for the section body; it
    /// implements [`htm_sim::MemAccess`], so shared structures take it
    /// unchanged.
    pub fn access(&self) -> Direct<'h> {
        self.d
    }
}

impl Drop for ReadGuard<'_, '_> {
    fn drop(&mut self) {
        if let Some(reg) = self.reg.take() {
            self.shard.lock.exit_read(&self.d, self.tid, reg);
        }
    }
}

/// A pending writer-admission probe on one shard. Resolves to `()`; run
/// the write section afterwards.
#[derive(Debug)]
pub struct WriteFuture<'a, 'h> {
    shard: &'a ShardLock,
    d: Direct<'h>,
}

impl Future for WriteFuture<'_, '_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mem = this.d.htm().memory();
        if this.shard.lock.write_admission_open(mem) {
            return Poll::Ready(());
        }
        this.shard.wake.register(cx.waker());
        if this.shard.lock.write_admission_open(mem) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}
