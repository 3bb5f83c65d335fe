//! White-box tests for the §3.3 versioned-SGL reader-bypass protocol.
//!
//! The extension the paper sketches (and omits): a reader that finds the
//! fallback lock held registers the version it observed; once the version
//! has advanced past its registration — one full writer turn has passed —
//! the reader is admitted *even though the lock is held again*, and the
//! new holder defers to it before executing. These tests drive the
//! protocol step by step through the `debug_*` hooks, then end-to-end
//! with real threads.

use std::sync::atomic::{AtomicU64, Ordering};

use htm_sim::{Htm, HtmConfig};
use sprwl::{ReaderHtm, SpRwl, SprwlConfig};
use sprwl_locks::{LockThread, RwSync, SectionId};

const NONE: u64 = u64::MAX;

fn htm(threads: usize) -> Htm {
    Htm::new(
        HtmConfig {
            max_threads: threads,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

fn versioned_cfg() -> SprwlConfig {
    SprwlConfig {
        versioned_sgl: true,
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::default()
    }
}

#[test]
fn reader_registers_under_held_lock_and_bypasses_next_holder() {
    let h = htm(4);
    let lock = SpRwl::new(&h, versioned_cfg());
    let writer_a = h.direct(0);
    let writer_b = h.direct(1);
    const READER: usize = 2;

    // Unlocked: the reader may proceed, registering nothing.
    assert!(lock.debug_reader_may_proceed(READER, h.memory()));
    assert_eq!(lock.debug_waiting_version(READER), NONE);

    // Fallback writer A takes the lock; the reader must defer, and its
    // first failed admission check registers the observed version.
    let v1 = lock.debug_fallback_acquire(&writer_a);
    assert!(!lock.debug_reader_may_proceed(READER, h.memory()));
    assert_eq!(lock.debug_waiting_version(READER), v1);

    // Re-checking under the same holder neither admits nor re-registers.
    assert!(!lock.debug_reader_may_proceed(READER, h.memory()));
    assert_eq!(lock.debug_waiting_version(READER), v1);

    // A releases; B acquires version v1+1. A senior registration (v1 < v2)
    // now exists, so B — were it a real fallback writer — must defer.
    lock.debug_fallback_release(&writer_a);
    let v2 = lock.debug_fallback_acquire(&writer_b);
    assert!(v2 > v1, "versions must advance across acquisitions");
    assert!(lock.debug_any_senior_bypasser(v2));

    // The reader's version has been passed: it is admitted while the lock
    // is HELD, and the registration clears — B stops deferring.
    assert!(lock.debug_reader_may_proceed(READER, h.memory()));
    assert_eq!(lock.debug_waiting_version(READER), NONE);
    assert!(!lock.debug_any_senior_bypasser(v2));

    lock.debug_fallback_release(&writer_b);
}

#[test]
fn reader_wait_for_gl_returns_on_version_advance_not_release() {
    let h = htm(4);
    let lock = SpRwl::new(&h, versioned_cfg());
    let writer_a = h.direct(0);
    const READER: usize = 2;

    let v1 = lock.debug_fallback_acquire(&writer_a);
    assert!(!lock.debug_reader_may_proceed(READER, h.memory()));
    assert_eq!(lock.debug_waiting_version(READER), v1);

    // Hand the lock straight to a second holder from another thread while
    // the reader blocks in `reader_wait_for_gl`: the wait must end as soon
    // as the version advances past the registration, even though the lock
    // never goes free from the reader's point of view.
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            lock.debug_reader_wait_for_gl(READER, h.memory());
        });
        let writer_b = h.direct(1);
        lock.debug_fallback_release(&writer_a);
        let v2 = lock.debug_fallback_acquire(&writer_b);
        assert!(v2 > v1);
        waiter.join().expect("reader wait deadlocked");
        // The reader is now admitted under the held lock.
        assert!(lock.debug_reader_may_proceed(READER, h.memory()));
        lock.debug_fallback_release(&writer_b);
    });
}

#[test]
fn plain_sgl_never_admits_under_held_lock() {
    let cfg = SprwlConfig {
        versioned_sgl: false,
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::default()
    };
    let h = htm(4);
    let lock = SpRwl::new(&h, cfg);
    let writer = h.direct(0);
    const READER: usize = 2;

    lock.debug_fallback_acquire(&writer);
    // However often the plain-SGL reader re-checks, it stays out and
    // registers nothing.
    for _ in 0..3 {
        assert!(!lock.debug_reader_may_proceed(READER, h.memory()));
        assert_eq!(lock.debug_waiting_version(READER), NONE);
    }
    lock.debug_fallback_release(&writer);
    assert!(lock.debug_reader_may_proceed(READER, h.memory()));
}

/// End-to-end: a stream of fallback writers cannot starve readers when the
/// versioned SGL is on. Writers are driven through the real write path
/// under the TINY capacity profile, whose 4-line read budget cannot even
/// hold the commit-time reader scan — every writer capacity-aborts and
/// takes the fallback lock immediately.
#[test]
fn readers_make_progress_through_a_fallback_writer_stream() {
    use htm_sim::CapacityProfile;

    let cfg = SprwlConfig {
        versioned_sgl: true,
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::default()
    };
    let h = Htm::new(
        HtmConfig {
            max_threads: 4,
            capacity: CapacityProfile::TINY,
            ..HtmConfig::default()
        },
        64 * 1024,
    );
    let lock = SpRwl::new(&h, cfg);
    let cell = h.memory().alloc_line_aligned(1).cell(0);
    let reads_done = AtomicU64::new(0);
    let writes_done = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Two writer threads keep the fallback lock hot.
        for tid in 0..2 {
            let (lock, h, reads_done, writes_done) = (&lock, &h, &reads_done, &writes_done);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                while reads_done.load(Ordering::SeqCst) < 50 {
                    lock.write_section(&mut t, SectionId(1), &mut |acc| {
                        let v = acc.read(cell)?;
                        acc.write(cell, v + 1)?;
                        Ok(v)
                    });
                    writes_done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // Two reader threads must finish 50 sections despite the stream.
        for tid in 2..4 {
            let (lock, h, reads_done) = (&lock, &h, &reads_done);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                for _ in 0..25 {
                    lock.read_section(&mut t, SectionId(0), &mut |acc| acc.read(cell));
                    reads_done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });

    assert!(reads_done.load(Ordering::SeqCst) >= 50);
    assert!(writes_done.load(Ordering::SeqCst) > 0);
    lock.check_quiescent(h.memory())
        .expect("lock must be quiescent after the run");
}
