//! Liveness and fairness: the §3.3 guarantees — no reader/writer
//! deadlock, fallback writers cannot wait forever behind a reader stream,
//! and (with the versioned-SGL extension) readers cannot starve behind a
//! stream of fallback writers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sprwl_repro::htm::SchedulerKind;
use sprwl_repro::prelude::*;

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

/// A write section too large for HTM — every execution lands on the SGL.
fn big_write(lock: &SpRwl, t: &mut LockThread<'_>, region: &Region) {
    lock.write_section(t, SectionId(1), &mut |a| {
        for i in 0..200 {
            let v = a.read(region.cell(i * 8))?;
            a.write(region.cell(i * 8), v + 1)?;
        }
        Ok(0)
    });
}

#[test]
fn fallback_writer_completes_against_a_constant_reader_stream() {
    // §3.3: a writer that acquired the SGL waits for each reader at most
    // once, so it finishes even while readers keep arriving.
    const READERS: usize = 3;
    let h = htm(READERS + 1);
    let lock = SpRwl::with_defaults(&h);
    let region = h.memory().alloc_line_aligned(200 * 8);
    let cell = h.memory().alloc(1).cell(0);
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for tid in 0..READERS {
            let (h, lock, wd) = (&h, &lock, &writer_done);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                while !wd.load(Ordering::SeqCst) {
                    lock.read_section(&mut t, SectionId(0), &mut |a| a.read(cell));
                }
            });
        }
        let (h, lock, region, wd) = (&h, &lock, &region, &writer_done);
        s.spawn(move || {
            let mut t = LockThread::new(h.thread(READERS));
            big_write(lock, &mut t, region);
            assert_eq!(
                t.stats.commits_by(Role::Writer, CommitMode::Gl),
                1,
                "the oversized writer must have used the fallback"
            );
            wd.store(true, Ordering::SeqCst);
        });
        // Watchdog: the writer must finish well within the test timeout.
        let start = Instant::now();
        while !writer_done.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "fallback writer starved by readers"
            );
            std::thread::yield_now();
        }
    });
}

#[test]
fn versioned_sgl_lets_readers_through_a_writer_stream() {
    // The §3.3 anti-starvation extension: under a constant stream of
    // fallback writers, a reader waits for at most ~one full writer turn.
    const WRITERS: usize = 2;
    let h = htm(WRITERS + 1);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            versioned_sgl: true,
            reader_htm: ReaderHtm::Direct,
            ..SprwlConfig::default()
        },
    );
    let region = h.memory().alloc_line_aligned(200 * 8);
    let cell = h.memory().alloc(1).cell(0);
    let stop = AtomicBool::new(false);
    let reads_done = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let (h, lock, region, stop) = (&h, &lock, &region, &stop);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(w));
                while !stop.load(Ordering::SeqCst) {
                    big_write(lock, &mut t, region);
                }
            });
        }
        let (h, lock, stop, rd) = (&h, &lock, &stop, &reads_done);
        s.spawn(move || {
            let mut t = LockThread::new(h.thread(WRITERS));
            for _ in 0..25 {
                lock.read_section(&mut t, SectionId(0), &mut |a| a.read(cell));
                rd.fetch_add(1, Ordering::SeqCst);
            }
            stop.store(true, Ordering::SeqCst);
        });
        let start = Instant::now();
        while !stop.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "reader starved behind fallback writers: only {} reads",
                reads_done.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
    });
    assert_eq!(reads_done.load(Ordering::SeqCst), 25);
}

/// Three eager uninstrumented readers loop over eight cells while one
/// writer runs 50 increments of all eight, under the deterministic
/// scheduler with `schedule_seed`. Checks that every increment landed
/// exactly once and returns the writer's HTM commits.
fn writer_htm_commits(scheduling: Scheduling, schedule_seed: u64) -> u64 {
    const READERS: usize = 3;
    let h = Htm::new(
        HtmConfig {
            max_threads: READERS + 1,
            capacity: CapacityProfile::POWER8_SIM,
            scheduler: SchedulerKind::deterministic(schedule_seed),
            ..HtmConfig::default()
        },
        64 * 1024,
    );
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            scheduling,
            reader_htm: ReaderHtm::Direct,
            ..SprwlConfig::default()
        },
    );
    let cells = h.memory().alloc_line_aligned(8 * 8);
    let stop = AtomicBool::new(false);

    let htm_commits = std::thread::scope(|s| {
        for tid in 0..READERS {
            let (h, lock, cells, stop) = (&h, &lock, &cells, &stop);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                while !stop.load(Ordering::SeqCst) {
                    lock.read_section(&mut t, SectionId(0), &mut |a| {
                        let mut sum = 0;
                        for i in 0..8 {
                            sum += a.read(cells.cell(i * 8))?;
                        }
                        Ok(sum)
                    });
                }
            });
        }
        let (h, lock, cells, stop) = (&h, &lock, &cells, &stop);
        s.spawn(move || {
            let mut t = LockThread::new(h.thread(READERS));
            for _ in 0..50 {
                lock.write_section(&mut t, SectionId(1), &mut |a| {
                    for i in 0..8 {
                        let v = a.read(cells.cell(i * 8))?;
                        a.write(cells.cell(i * 8), v + 1)?;
                    }
                    Ok(0)
                });
            }
            stop.store(true, Ordering::SeqCst);
            t.stats.commits_by(Role::Writer, CommitMode::Htm)
        })
        .join()
        .expect("writer thread")
    });
    // All 50 increments applied exactly once to every cell.
    let d = h.direct(0);
    for i in 0..8 {
        assert_eq!(d.load(cells.cell(i * 8)), 50);
    }
    htm_commits
}

#[test]
fn reader_synchronization_is_fair_to_writers() {
    // Alg. 2's fairness property: once a writer is active (flag up), a
    // newly arriving reader waits rather than dooming it — so a writer
    // surrounded by eager readers still commits in HTM. The §3.1 base
    // algorithm is the control: its readers never wait, so on the same
    // schedules the writer keeps losing its commit-time reader check and
    // falls back, which shows the bound discriminates. (The scheduler's
    // PRNG sets the seed's low bit, so seeds 2 and 3 replay one schedule.)
    for seed in 1..=4 {
        let full = writer_htm_commits(Scheduling::Full, seed);
        assert!(
            full >= 25,
            "schedule seed {seed}: writer starved: only {full}/50 HTM commits"
        );
        let nosched = writer_htm_commits(Scheduling::NoSched, seed);
        assert!(
            nosched < 25,
            "schedule seed {seed}: {nosched}/50 HTM commits without reader \
             synchronization, so the fairness bound does not discriminate"
        );
    }
}

#[test]
fn no_deadlock_between_readers_and_fallback_writers_under_churn() {
    // Hammer the exact interleaving §3.3 proves deadlock-free: readers
    // flag/unflag around the SGL check while writers cycle the SGL.
    const THREADS: usize = 4;
    let h = htm(THREADS);
    let lock = SpRwl::with_defaults(&h);
    let region = h.memory().alloc_line_aligned(200 * 8);
    let cell = h.memory().alloc(1).cell(0);
    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (h, lock, region, done) = (&h, &lock, &region, &done);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                for i in 0..40 {
                    if (tid + i) % 2 == 0 {
                        big_write(lock, &mut t, region);
                    } else {
                        lock.read_section(&mut t, SectionId(0), &mut |a| a.read(cell));
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), THREADS as u64);
}
