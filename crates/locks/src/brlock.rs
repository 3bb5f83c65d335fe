//! The Big Reader Lock (BRLock), as once used in the Linux kernel: readers
//! take only their own per-thread mutex (no shared-line traffic on the read
//! path); writers take a global mutex and then *every* per-thread mutex.

use htm_sim::clock;

use crate::api::{run_untracked, LockThread, RwSync, SectionBody, SectionId};
use crate::spin::SpinMutex;
use crate::stats::{CommitMode, Role};

/// Pads a per-thread mutex to a cache line to avoid false sharing.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedMutex(SpinMutex);

/// Big Reader Lock for a fixed set of threads.
#[derive(Debug)]
pub struct BrLock {
    global: SpinMutex,
    per_thread: Box<[PaddedMutex]>,
}

impl BrLock {
    /// Creates a BRLock for `n_threads` participants.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads` is zero.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "BRLock needs at least one thread");
        let mut v = Vec::with_capacity(n_threads);
        v.resize_with(n_threads, PaddedMutex::default);
        Self {
            global: SpinMutex::new(),
            per_thread: v.into_boxed_slice(),
        }
    }

    /// Number of per-thread slots.
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// Shared acquisition: the caller's own per-thread mutex.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn read_lock(&self, tid: usize) {
        assert!(tid < self.per_thread.len(), "BRLock tid {tid} out of range");
        self.per_thread[tid].0.lock();
    }

    /// Shared release.
    pub fn read_unlock(&self, tid: usize) {
        self.per_thread[tid].0.unlock();
    }

    /// Exclusive acquisition: global mutex, then every per-thread mutex in
    /// index order (a total order, so writers cannot deadlock).
    pub fn write_lock(&self) {
        self.global.lock();
        for m in self.per_thread.iter() {
            m.0.lock();
        }
    }

    /// Exclusive release (reverse order).
    pub fn write_unlock(&self) {
        for m in self.per_thread.iter().rev() {
            m.0.unlock();
        }
        self.global.unlock();
    }
}

impl RwSync for BrLock {
    fn name(&self) -> &'static str {
        "BRLock"
    }

    fn read_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        let start = clock::now();
        self.read_lock(t.tid());
        let r = run_untracked(t, f);
        self.read_unlock(t.tid());
        t.stats
            .record_commit(Role::Reader, CommitMode::Gl, clock::now() - start);
        r
    }

    fn write_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        let start = clock::now();
        self.write_lock();
        let r = run_untracked(t, f);
        self.write_unlock();
        t.stats
            .record_commit(Role::Writer, CommitMode::Gl, clock::now() - start);
        r
    }

    fn check_quiescent(&self, _mem: &htm_sim::SimMemory) -> Result<(), String> {
        if self.global.is_locked() {
            return Err("BRLock: global mutex still held at quiescence".into());
        }
        for (tid, m) in self.per_thread.iter().enumerate() {
            if m.0.is_locked() {
                return Err(format!(
                    "BRLock: per-thread mutex {tid} still held at quiescence"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_use_disjoint_mutexes() {
        let l = BrLock::new(4);
        l.read_lock(0);
        l.read_lock(1); // no interference
        l.read_unlock(0);
        l.read_unlock(1);
    }

    #[test]
    fn writer_excludes_all_readers() {
        let l = std::sync::Arc::new(BrLock::new(3));
        let data = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        {
            let l = l.clone();
            let data = data.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    l.write_lock();
                    let v = data.load(std::sync::atomic::Ordering::Relaxed);
                    data.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                    l.write_unlock();
                }
            }));
        }
        for tid in 0..3 {
            let l = l.clone();
            let data = data.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    l.read_lock(tid);
                    let _ = data.load(std::sync::atomic::Ordering::Relaxed);
                    l.read_unlock(tid);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(data.load(std::sync::atomic::Ordering::Relaxed), 300);
    }

    #[test]
    fn concurrent_writers_serialize() {
        let l = std::sync::Arc::new(BrLock::new(2));
        let data = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let l = l.clone();
            let data = data.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    l.write_lock();
                    let v = data.load(std::sync::atomic::Ordering::Relaxed);
                    data.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                    l.write_unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(data.load(std::sync::atomic::Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_tid_panics() {
        BrLock::new(2).read_lock(5);
    }
}
