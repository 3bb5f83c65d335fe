//! White-box and black-box correctness tests for SpRWL: uninstrumented
//! readers, commit-time reader checks, fallback interplay, fairness.

use htm_sim::{CapacityProfile, Htm, HtmConfig};
use sprwl::{SpRwl, SprwlConfig};
use sprwl_locks::{AbortCause, CommitMode, LockThread, Role, RwSync, SectionId};

fn htm(profile: CapacityProfile, threads: usize) -> Htm {
    Htm::new(
        HtmConfig {
            capacity: profile,
            max_threads: threads,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

const SEC_R: SectionId = SectionId(0);
const SEC_W: SectionId = SectionId(1);

#[test]
fn writes_become_visible_to_readers() {
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    lock.write_section(&mut t, SEC_W, &mut |a| {
        a.write(cell, 99)?;
        Ok(0)
    });
    let v = lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    assert_eq!(v, 99);
}

#[test]
fn small_writers_commit_in_htm() {
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    for _ in 0..10 {
        lock.write_section(&mut t, SEC_W, &mut |a| {
            let v = a.read(cell)?;
            a.write(cell, v + 1)?;
            Ok(0)
        });
    }
    assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Htm), 10);
    assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Gl), 0);
}

#[test]
fn short_readers_use_the_optimistic_htm_path() {
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    for _ in 0..10 {
        lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    }
    assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Htm), 10);
    assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Unins), 0);
}

#[test]
fn long_readers_run_uninstrumented() {
    let h = htm(CapacityProfile::POWER8_SIM, 4); // 128-line read capacity
    let lock = SpRwl::with_defaults(&h);
    let region = h.memory().alloc_line_aligned(8 * 400); // 400 lines
    let mut t = LockThread::new(h.thread(0));
    let sum = lock.read_section(&mut t, SEC_R, &mut |a| {
        let mut s = 0;
        for i in 0..400 {
            s += a.read(region.cell(i * 8))?;
        }
        Ok(s)
    });
    assert_eq!(sum, 0);
    assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Unins), 1);
    assert_eq!(
        t.stats.aborts_of(AbortCause::Capacity),
        1,
        "one capacity abort, then straight to uninstrumented"
    );
}

#[test]
fn no_htm_first_goes_straight_to_uninstrumented() {
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            ..SprwlConfig::default()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    assert_eq!(t.stats.commits_by(Role::Reader, CommitMode::Unins), 1);
    assert_eq!(t.stats.total_aborts(), 0);
}

#[test]
fn writer_aborts_on_active_reader_then_falls_back() {
    // Pin a reader's state flag (white-box via a parked reader thread) and
    // observe that a writer cannot commit in HTM.
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            // NoSched so the writer doesn't simply wait for the reader.
            ..SprwlConfig::no_sched()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    let reader_in = std::sync::atomic::AtomicBool::new(false);
    let release = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (lk, hr, ri, rel) = (&lock, &h, &reader_in, &release);
        s.spawn(move || {
            let mut t = LockThread::new(hr.thread(1));
            lk.read_section(&mut t, SEC_R, &mut |a| {
                ri.store(true, std::sync::atomic::Ordering::SeqCst);
                while !rel.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                a.read(cell)
            });
        });
        while !reader_in.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Writer: every HTM attempt must hit the reader check; it ends up
        // in the GL fallback, which waits for the reader — so release the
        // reader after a moment.
        let (lk, hw) = (&lock, &h);
        let wt = s.spawn(move || {
            let mut t = LockThread::new(hw.thread(2));
            lk.write_section(&mut t, SEC_W, &mut |a| {
                a.write(cell, 5)?;
                Ok(0)
            });
            t
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(h.direct(3).load(cell), 0, "writer must not commit yet");
        release.store(true, std::sync::atomic::Ordering::SeqCst);
        let t = wt.join().unwrap();
        assert!(
            t.stats.aborts_of(AbortCause::Reader) >= 1,
            "reader-induced aborts must be classified"
        );
        assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Gl), 1);
    });
    assert_eq!(h.direct(3).load(cell), 5);
}

#[test]
fn reader_arriving_mid_writer_dooms_it_before_commit() {
    // Strong isolation: reader announcement between the writer's check and
    // its commit must doom the writer. We simulate by flagging a reader
    // from inside the writer's transaction after the body ran.
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::new(&h, SprwlConfig::no_sched());
    let cell = h.memory().alloc(1).cell(0);
    let reader_in = std::sync::atomic::AtomicBool::new(false);
    let writer_tried = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // A writer that spins inside its critical section until the reader
        // has announced — so the announcement happens mid-transaction.
        let (lk, hw, ri, wt_flag) = (&lock, &h, &reader_in, &writer_tried);
        s.spawn(move || {
            let mut t = LockThread::new(hw.thread(1));
            let mut first_attempt = true;
            lk.write_section(&mut t, SEC_W, &mut |a| {
                a.write(cell, 1)?;
                if first_attempt {
                    first_attempt = false;
                    wt_flag.store(true, std::sync::atomic::Ordering::SeqCst);
                    while !ri.load(std::sync::atomic::Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                Ok(0)
            });
            // The first attempt must have aborted (conflict or reader);
            // stats prove speculation failed at least once.
            assert!(t.stats.total_aborts() >= 1);
        });
        while !writer_tried.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let (lk, hr, ri) = (&lock, &h, &reader_in);
        s.spawn(move || {
            let mut t = LockThread::new(hr.thread(2));
            lk.read_section(&mut t, SEC_R, &mut |a| {
                ri.store(true, std::sync::atomic::Ordering::SeqCst);
                a.read(cell)
            });
        });
    });
    assert_eq!(h.direct(3).load(cell), 1, "writer eventually committed");
}

#[test]
fn reader_defers_to_fallback_writer() {
    let h = htm(CapacityProfile::BROADWELL_SIM, 4);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);

    // Occupy the fallback lock directly (as a GL writer would).
    // White-box: use the lock's write path with a body too big for HTM.
    let big = h.memory().alloc_line_aligned(8 * 200); // 200 write lines >> 64
    let writer_in = std::sync::atomic::AtomicBool::new(false);
    let release = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (lk, hw, wi, rel) = (&lock, &h, &writer_in, &release);
        s.spawn(move || {
            let mut t = LockThread::new(hw.thread(1));
            lk.write_section(&mut t, SEC_W, &mut |a| {
                for i in 0..200 {
                    a.write(big.cell(i * 8), 1)?;
                }
                a.write(cell, 42)?;
                wi.store(true, std::sync::atomic::Ordering::SeqCst);
                while !rel.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(0)
            });
            assert_eq!(t.stats.commits_by(Role::Writer, CommitMode::Gl), 1);
        });
        while !writer_in.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Reader must not observe the GL writer's in-progress stores as a
        // torn snapshot: it waits for the lock, then sees everything.
        let (lk, hr) = (&lock, &h);
        let rt = s.spawn(move || {
            let mut t = LockThread::new(hr.thread(2));
            // Disable the HTM-first path for this check via a long read.
            lk.read_section(&mut t, SEC_R, &mut |a| {
                let mut sum = a.read(cell)?;
                for i in 0..200 {
                    sum += a.read(big.cell(i * 8))?;
                }
                Ok(sum)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        release.store(true, std::sync::atomic::Ordering::SeqCst);
        let sum = rt.join().unwrap();
        assert_eq!(sum, 242, "reader saw the complete fallback write");
    });
}

#[test]
fn concurrent_bank_audit_never_sees_torn_snapshots() {
    bank_audit(SprwlConfig::default());
}

#[test]
fn concurrent_bank_audit_no_sched() {
    bank_audit(SprwlConfig::no_sched());
}

#[test]
fn concurrent_bank_audit_rwait() {
    bank_audit(SprwlConfig::rwait());
}

#[test]
fn concurrent_bank_audit_rsync() {
    bank_audit(SprwlConfig::rsync());
}

#[test]
fn concurrent_bank_audit_snzi() {
    bank_audit(SprwlConfig::with_snzi());
}

#[test]
fn concurrent_bank_audit_versioned_sgl() {
    bank_audit(SprwlConfig {
        versioned_sgl: true,
        ..SprwlConfig::default()
    });
}

/// The core safety property, hammered concurrently: uninstrumented readers
/// must always observe money-conserving snapshots while writers transfer.
fn bank_audit(cfg: SprwlConfig) {
    const THREADS: usize = 4;
    const ACCOUNTS: usize = 24; // 24 lines with padding below
    const OPS: usize = 250;
    const TOTAL: u64 = ACCOUNTS as u64 * 100;

    let h = htm(CapacityProfile::POWER8_SIM, THREADS);
    let lock = SpRwl::new(&h, cfg);
    // One account per line so the audit's read-set has many lines; with
    // POWER8 capacity it still fits HTM, so scale: audits read every
    // account twice through different strides to defeat caching tricks.
    let accounts: Vec<_> = (0..ACCOUNTS)
        .map(|_| h.memory().alloc_line_aligned(1).cell(0))
        .collect();
    {
        let d = h.direct(0);
        for &c in &accounts {
            d.store(c, 100);
        }
    }
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (lk, hh, accounts) = (&lock, &h, &accounts);
            s.spawn(move || {
                let mut t = LockThread::new(hh.thread(tid));
                let mut seed = 0x9E37_79B9u64.wrapping_mul(tid as u64 + 1) | 1;
                let mut next = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                for op in 0..OPS {
                    if op % 3 == 0 {
                        let from = (next() as usize) % ACCOUNTS;
                        let to = (next() as usize) % ACCOUNTS;
                        lk.write_section(&mut t, SEC_W, &mut |a| {
                            let f = a.read(accounts[from])?;
                            if f == 0 || from == to {
                                return Ok(0);
                            }
                            let v = a.read(accounts[to])?;
                            a.write(accounts[from], f - 1)?;
                            a.write(accounts[to], v + 1)?;
                            Ok(1)
                        });
                    } else {
                        let sum = lk.read_section(&mut t, SEC_R, &mut |a| {
                            let mut s = 0;
                            for &c in accounts.iter() {
                                s += a.read(c)?;
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, TOTAL, "torn read snapshot");
                    }
                }
            });
        }
    });
    let d = h.direct(0);
    let total: u64 = accounts.iter().map(|&c| d.load(c)).sum();
    assert_eq!(total, TOTAL);
}
