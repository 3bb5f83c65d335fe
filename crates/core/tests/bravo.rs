//! BRAVO-biased reader admission: bias lifecycle (arm → revoke → cooldown
//! → re-arm), writer safety against bias-era readers, and the
//! explicit-thread-count constructor's boundary checks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use htm_sim::{CapacityProfile, Htm, HtmConfig};
use sprwl::{SpRwl, SprwlConfig};
use sprwl_locks::{LockThread, RwSync, SectionId};

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

/// Bravo config with optimistic reader HTM off, so reads take the
/// uninstrumented path and actually exercise the bias machinery.
fn bravo_cfg() -> SprwlConfig {
    SprwlConfig {
        readers_try_htm: false,
        ..SprwlConfig::with_bravo()
    }
}

const SEC_R: SectionId = SectionId(0);
const SEC_W: SectionId = SectionId(1);

const BIAS_OFF: u64 = 0;
const BIAS_ON: u64 = 1;

#[test]
fn bravo_starts_with_bias_armed() {
    let h = htm(2);
    let lock = SpRwl::new(&h, SprwlConfig::with_bravo());
    assert_eq!(lock.debug_bias_state(h.memory()), BIAS_ON);
}

#[test]
fn writer_revokes_bias_and_reader_rearms_after_cooldown() {
    let h = htm(2);
    let lock = SpRwl::new(&h, bravo_cfg());
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));

    // A committing writer must have revoked bias (OFF is required in its
    // transactional read-set).
    lock.write_section(&mut t, SEC_W, &mut |a| {
        let v = a.read(cell)?;
        a.write(cell, v + 1).map(|_| v)
    });
    assert_eq!(lock.debug_bias_state(h.memory()), BIAS_OFF);

    // Inside the cooldown readers stay off the fast path; eventually one
    // re-arms the bias.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while lock.debug_bias_state(h.memory()) != BIAS_ON {
        assert!(
            std::time::Instant::now() < deadline,
            "no reader re-armed bias within 5s of the revocation cooldown"
        );
        lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    }
    assert_eq!(lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell)), 1);
    lock.check_quiescent(h.memory()).unwrap();
}

/// Concurrency smoke: bias-era readers must never overlap a committed
/// writer's critical section. The writer flips a canary to an invalid state
/// and back inside its section; readers assert they never observe it.
#[test]
fn bravo_readers_never_observe_torn_writer_state() {
    const THREADS: usize = 4;
    const OPS: usize = 400;
    let h = Arc::new(htm(THREADS));
    let lock = Arc::new(SpRwl::new(&h, bravo_cfg()));
    let cells = h.memory().alloc_padded(2);
    let stop = Arc::new(AtomicBool::new(false));

    let mut join = Vec::new();
    for tid in 0..THREADS {
        let h = Arc::clone(&h);
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        let cells = cells.clone();
        join.push(std::thread::spawn(move || {
            let mut t = LockThread::new(h.thread(tid));
            if tid == 0 {
                for i in 0..OPS {
                    lock.write_section(&mut t, SEC_W, &mut |a| {
                        let v = a.read(cells[0])?;
                        a.write(cells[0], v + 1)?;
                        a.write(cells[1], v + 1)?;
                        Ok(v)
                    });
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
                stop.store(true, Ordering::SeqCst);
            } else {
                let (c0, c1) = (cells[0], cells[1]);
                while !stop.load(Ordering::SeqCst) {
                    // Pack both cells into one u64 so the section interface
                    // can return the snapshot for checking outside.
                    let packed = lock.read_section(&mut t, SEC_R, &mut |a| {
                        let x = a.read(c0)?;
                        let y = a.read(c1)?;
                        Ok((x << 32) | (y & 0xFFFF_FFFF))
                    });
                    assert_eq!(
                        packed >> 32,
                        packed & 0xFFFF_FFFF,
                        "reader observed a torn writer update under BRAVO"
                    );
                }
            }
        }));
    }
    for j in join {
        j.join().unwrap();
    }
    assert_eq!(h.direct(0).load(cells[0]), OPS as u64);
    lock.check_quiescent(h.memory()).unwrap();
}

// ---- explicit-thread-count boundary checks (SpRwl::with_threads) ----

#[test]
fn with_threads_rejects_zero_and_oversubscription() {
    let h = htm(4);
    let err = SpRwl::with_threads(&h, SprwlConfig::default(), 0).unwrap_err();
    assert!(err.contains("at least one"), "unhelpful error: {err}");
    let err = SpRwl::with_threads(&h, SprwlConfig::default(), 5).unwrap_err();
    assert!(
        err.contains("5 threads") && err.contains('4'),
        "error should name both counts: {err}"
    );
    // The boundary itself is fine.
    assert!(SpRwl::with_threads(&h, SprwlConfig::default(), 4).is_ok());
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_tid_fails_fast_with_a_clear_message() {
    let h = htm(4);
    // Lock sized for 2 threads on a 4-context HTM: tid 3 is registered with
    // the HTM but outside the lock's range — it must be rejected at section
    // entry, not deep inside a scheduling scan.
    let lock = SpRwl::with_threads(&h, SprwlConfig::default(), 2).unwrap();
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(3));
    lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
}
