//! A pthread-style read-write lock: two counters protected by an internal
//! mutex, with condition variables for blocking — the `RWL` baseline of the
//! paper's evaluation.
//!
//! Like the classic glibc implementation, the lock prefers readers (a
//! stream of readers can starve writers).

use parking_lot::{Condvar, Mutex};

use htm_sim::clock;

use crate::api::{run_untracked, LockThread, RwSync, SectionBody, SectionId};
use crate::stats::{CommitMode, Role};

#[derive(Debug, Default)]
struct State {
    active_readers: u32,
    writer_active: bool,
    writers_waiting: u32,
}

/// Mutex-and-condvar read-write lock (`pthread_rwlock_t` work-alike).
#[derive(Debug, Default)]
pub struct PthreadRwLock {
    state: Mutex<State>,
    readers_cv: Condvar,
    writers_cv: Condvar,
}

impl PthreadRwLock {
    /// Creates a reader-preferring lock (the glibc default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the lock in shared mode: readers enter whenever no writer
    /// is *active*, even past waiting writers.
    pub fn read_lock(&self) {
        let mut st = self.state.lock();
        while st.writer_active {
            self.readers_cv.wait(&mut st);
        }
        st.active_readers += 1;
    }

    /// Releases a shared acquisition.
    ///
    /// # Panics
    ///
    /// Panics if no reader holds the lock.
    pub fn read_unlock(&self) {
        let mut st = self.state.lock();
        assert!(st.active_readers > 0, "read_unlock without read_lock");
        st.active_readers -= 1;
        if st.active_readers == 0 && st.writers_waiting > 0 {
            self.writers_cv.notify_one();
        }
    }

    /// Acquires the lock exclusively.
    pub fn write_lock(&self) {
        let mut st = self.state.lock();
        st.writers_waiting += 1;
        while st.writer_active || st.active_readers > 0 {
            self.writers_cv.wait(&mut st);
        }
        st.writers_waiting -= 1;
        st.writer_active = true;
    }

    /// Releases an exclusive acquisition.
    ///
    /// # Panics
    ///
    /// Panics if no writer holds the lock.
    pub fn write_unlock(&self) {
        let mut st = self.state.lock();
        assert!(st.writer_active, "write_unlock without write_lock");
        st.writer_active = false;
        if st.writers_waiting > 0 {
            self.writers_cv.notify_one();
        }
        self.readers_cv.notify_all();
    }
}

impl RwSync for PthreadRwLock {
    fn name(&self) -> &'static str {
        "RWL"
    }

    fn read_section(&self, t: &mut LockThread<'_>, _sec: SectionId, f: SectionBody<'_>) -> u64 {
        let start = clock::now();
        self.read_lock();
        let r = run_untracked(t, f);
        self.read_unlock();
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
        let st = self.state.lock();
        if st.active_readers != 0 {
            return Err(format!(
                "RWL: {} active reader(s) leaked at quiescence",
                st.active_readers
            ));
        }
        if st.writer_active {
            return Err("RWL: writer still active at quiescence".into());
        }
        if st.writers_waiting != 0 {
            return Err(format!(
                "RWL: {} writer(s) still queued at quiescence",
                st.writers_waiting
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_share_writers_exclude() {
        let l = PthreadRwLock::new();
        l.read_lock();
        l.read_lock(); // second reader enters
        l.read_unlock();
        l.read_unlock();
        l.write_lock();
        l.write_unlock();
    }

    #[test]
    #[should_panic(expected = "read_unlock without read_lock")]
    fn unbalanced_read_unlock_panics() {
        PthreadRwLock::new().read_unlock();
    }

    #[test]
    fn writers_are_mutually_exclusive_with_readers() {
        let l = std::sync::Arc::new(PthreadRwLock::new());
        let shared = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let l = l.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    l.write_lock();
                    let v = shared.load(std::sync::atomic::Ordering::Relaxed);
                    shared.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                    l.write_unlock();
                }
            }));
        }
        for _ in 0..2 {
            let l = l.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    l.read_lock();
                    let _ = shared.load(std::sync::atomic::Ordering::Relaxed);
                    l.read_unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(std::sync::atomic::Ordering::Relaxed), 1000);
    }
}
