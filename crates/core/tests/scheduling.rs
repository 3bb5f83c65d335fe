//! White-box tests of the scheduling machinery: duration estimation
//! feeding end-time advertisement, reader joining, writer-wait timing and
//! the §3.4 predictive reader-HTM policy.

use htm_sim::{clock, CapacityProfile, Htm, HtmConfig};
use sprwl::{SpRwl, SprwlConfig};
use sprwl_locks::{AbortCause, CommitMode, LockThread, Role, RwSync, SectionId};

fn htm(threads: usize) -> Htm {
    Htm::new(
        HtmConfig {
            max_threads: threads,
            capacity: CapacityProfile::POWER8_SIM,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

/// Busy work of a roughly known duration inside a critical section.
fn spin_for(ns: u64) {
    let end = clock::now() + ns;
    while clock::now() < end {
        std::hint::spin_loop();
    }
}

#[test]
fn estimator_learns_section_durations_through_the_lock() {
    let h = htm(1);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            ..SprwlConfig::default()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0)); // thread 0 samples
    for _ in 0..16 {
        lock.read_section(&mut t, SectionId(3), &mut |a| {
            spin_for(200_000); // ~200 µs
            a.read(cell)
        });
    }
    let est = lock.estimator().duration(SectionId(3));
    assert!(
        (100_000..1_000_000).contains(&est),
        "estimate should be near 200µs, got {est}ns"
    );
}

#[test]
fn non_sampling_threads_do_not_pollute_estimates() {
    let h = htm(2);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            ..SprwlConfig::default()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    {
        let mut t0 = LockThread::new(h.thread(0));
        lock.read_section(&mut t0, SectionId(5), &mut |a| {
            spin_for(100_000);
            a.read(cell)
        });
    }
    assert_eq!(lock.estimator().sampler(), Some(0), "thread 0 claimed it");
    let claimed = lock.estimator().duration(SectionId(5));
    let mut t1 = LockThread::new(h.thread(1)); // not the sampler
    for _ in 0..8 {
        lock.read_section(&mut t1, SectionId(5), &mut |a| {
            spin_for(800_000); // much longer; would visibly move the EWMA
            a.read(cell)
        });
    }
    assert_eq!(lock.estimator().duration(SectionId(5)), claimed);
}

#[test]
fn first_section_thread_is_promoted_when_thread_zero_coordinates() {
    // Thread 0 exists but never enters a section (a coordinator): the
    // estimator promotes the first thread that does, instead of running
    // blind forever.
    let h = htm(2);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            ..SprwlConfig::default()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    let _coordinator = h.thread(0); // claimed, but does no lock work
    let mut t1 = LockThread::new(h.thread(1));
    for _ in 0..8 {
        lock.read_section(&mut t1, SectionId(5), &mut |a| {
            spin_for(100_000);
            a.read(cell)
        });
    }
    assert_eq!(lock.estimator().sampler(), Some(1));
    let est = lock.estimator().duration(SectionId(5));
    assert!(est > 0, "the promoted sampler's estimates are recorded");
}

#[test]
fn predictive_reader_htm_probes_then_backs_off() {
    let h = htm(1);
    let lock = SpRwl::with_defaults(&h); // adaptive_reader_htm on
    let big = h.memory().alloc_line_aligned(8 * 300);
    let mut t = LockThread::new(h.thread(0));
    let long_read = |t: &mut LockThread<'_>| {
        lock.read_section(t, SectionId(2), &mut |a| {
            let mut s = 0;
            for i in 0..300 {
                s += a.read(big.cell(i * 8))?;
            }
            Ok(s)
        });
    };
    // First execution probes HTM and hits capacity; the next ~63 go
    // straight to the uninstrumented path with no further aborts.
    for _ in 0..32 {
        long_read(&mut t);
    }
    assert_eq!(
        t.stats.aborts_of(AbortCause::Capacity),
        1,
        "exactly one capacity probe within the skip window"
    );
    assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Unins), 32);
}

#[test]
fn always_probe_policy_pays_a_capacity_abort_per_read() {
    let h = htm(1);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            adaptive_reader_htm: false,
            ..SprwlConfig::default()
        },
    );
    let big = h.memory().alloc_line_aligned(8 * 300);
    let mut t = LockThread::new(h.thread(0));
    for _ in 0..8 {
        lock.read_section(&mut t, SectionId(2), &mut |a| {
            let mut s = 0;
            for i in 0..300 {
                s += a.read(big.cell(i * 8))?;
            }
            Ok(s)
        });
    }
    assert_eq!(
        t.stats.aborts_of(AbortCause::Capacity),
        8,
        "the literal paper policy probes every time"
    );
}

#[test]
fn writer_advertises_and_clears_its_end_time_flag() {
    let h = htm(2);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    // During the section the writer flag must be visible to another thread.
    let seen_writer = std::sync::atomic::AtomicBool::new(false);
    lock.write_section(&mut t, SectionId(1), &mut |a| {
        seen_writer.store(
            lock.would_reader_wait(1, h.memory()),
            std::sync::atomic::Ordering::SeqCst,
        );
        a.write(cell, 1)?;
        Ok(0)
    });
    assert!(
        seen_writer.load(std::sync::atomic::Ordering::SeqCst),
        "a reader polling during the write section must see the writer"
    );
    assert!(
        !lock.would_reader_wait(1, h.memory()),
        "the flag must be cleared after the section"
    );
}

#[test]
fn nosched_readers_never_wait_for_writers() {
    let h = htm(2);
    let lock = SpRwl::new(&h, SprwlConfig::no_sched());
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    lock.write_section(&mut t, SectionId(1), &mut |a| {
        // Even mid-write, NoSched reports no reader wait.
        assert!(!lock.would_reader_wait(1, h.memory()));
        a.write(cell, 1)?;
        Ok(0)
    });
}

#[test]
fn reader_join_aligns_start_times() {
    // RSync's join: while a reader is parked waiting for a writer, a second
    // reader must join it (observable as both entering promptly once the
    // writer finishes — and as zero reader aborts of the writer).
    let h = htm(3);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            ..SprwlConfig::rsync()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    let in_write = std::sync::atomic::AtomicBool::new(false);
    let release = std::sync::atomic::AtomicBool::new(false);
    let entered = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        let (lk, hh, iw, rel) = (&lock, &h, &in_write, &release);
        s.spawn(move || {
            let mut t = LockThread::new(hh.thread(0));
            lk.write_section(&mut t, SectionId(1), &mut |a| {
                iw.store(true, std::sync::atomic::Ordering::SeqCst);
                while !rel.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                a.write(cell, 1)?;
                Ok(0)
            });
        });
        while !in_write.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for tid in 1..3 {
            let (lk, hh, ent) = (&lock, &h, &entered);
            s.spawn(move || {
                let mut t = LockThread::new(hh.thread(tid));
                lk.read_section(&mut t, SectionId(0), &mut |a| {
                    ent.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    a.read(cell)
                });
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        release.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    assert_eq!(entered.load(std::sync::atomic::Ordering::SeqCst), 2);
    assert_eq!(h.direct(0).load(cell), 1);
}
