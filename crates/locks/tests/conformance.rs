//! A conformance suite every `RwSync` implementation must pass: lost-update
//! freedom, snapshot atomicity for readers, progress under mixed load, and
//! sane statistics. The same checks run against each scheme in this crate
//! (SpRWL runs them too, from its own crate's tests).

use htm_sim::{CapacityProfile, Htm, HtmConfig};
use sprwl_locks::{BrLock, LockThread, PthreadRwLock, RwLe, RwSync, SectionId, Tle};

const THREADS: usize = 4;
const SLOTS: usize = 8;
const OPS: usize = 250;

fn htm() -> Htm {
    Htm::new(
        HtmConfig {
            max_threads: THREADS,
            capacity: CapacityProfile::POWER8_SIM,
            ..HtmConfig::default()
        },
        16 * 1024,
    )
}

/// Builds each scheme under test (SpRWL variants are covered in `sprwl`'s
/// own test-suite; this file is about the baselines).
fn schemes(h: &Htm) -> Vec<Box<dyn RwSync>> {
    vec![
        Box::new(PthreadRwLock::new()),
        Box::new(BrLock::new(THREADS)),
        Box::new(Tle::new(h)),
        Box::new(RwLe::new(h)),
    ]
}

/// The conformance body: transfers + audits; panics on any violation.
fn exercise(h: &Htm, lock: &dyn RwSync) {
    let slots = h.memory().alloc_line_aligned(SLOTS * 8);
    let d0 = h.direct(0);
    for i in 0..SLOTS {
        d0.store(slots.cell(i * 8), 100);
    }
    let total = SLOTS as u64 * 100;
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (h, slots) = (h, &slots);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                let mut x = (tid as u64 + 1) | 1;
                let mut rnd = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for op in 0..OPS {
                    if op % 3 == 0 {
                        let from = (rnd() as usize) % SLOTS;
                        let to = (rnd() as usize) % SLOTS;
                        lock.write_section(&mut t, SectionId(1), &mut |a| {
                            let f = a.read(slots.cell(from * 8))?;
                            if f == 0 || from == to {
                                return Ok(0);
                            }
                            let v = a.read(slots.cell(to * 8))?;
                            a.write(slots.cell(from * 8), f - 1)?;
                            a.write(slots.cell(to * 8), v + 1)?;
                            Ok(1)
                        });
                    } else {
                        let sum = lock.read_section(&mut t, SectionId(0), &mut |a| {
                            let mut sum = 0;
                            for i in 0..SLOTS {
                                sum += a.read(slots.cell(i * 8))?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, total, "{}: torn reader snapshot", lock.name());
                    }
                }
                assert!(
                    t.stats.total_commits() > 0,
                    "{}: thread made no progress",
                    lock.name()
                );
            });
        }
    });
    let final_total: u64 = (0..SLOTS).map(|i| d0.load(slots.cell(i * 8))).sum();
    assert_eq!(final_total, total, "{}: money not conserved", lock.name());
}

#[test]
fn all_baselines_pass_the_conformance_suite() {
    let h = htm();
    for lock in schemes(&h) {
        exercise(&h, &*lock);
    }
}

#[test]
fn read_sections_return_section_values() {
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    h.direct(0).store(cell, 42);
    for lock in schemes(&h) {
        let mut t = LockThread::new(h.thread(0));
        let v = lock.read_section(&mut t, SectionId(0), &mut |a| a.read(cell));
        assert_eq!(v, 42, "{}", lock.name());
        let w = lock.write_section(&mut t, SectionId(1), &mut |a| {
            let v = a.read(cell)?;
            a.write(cell, v + 1)?;
            Ok(v + 1)
        });
        assert_eq!(w, 43, "{}", lock.name());
        h.direct(0).store(cell, 42); // reset for the next scheme
    }
}

#[test]
fn names_are_stable_and_distinct() {
    let h = htm();
    let names: Vec<&'static str> = schemes(&h).iter().map(|l| l.name()).collect();
    let unique: std::collections::HashSet<_> = names.iter().collect();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate scheme names: {names:?}"
    );
    for n in names {
        assert!(!n.is_empty());
    }
}

#[test]
fn latencies_are_recorded_for_both_roles() {
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    for lock in schemes(&h) {
        let mut t = LockThread::new(h.thread(0));
        lock.read_section(&mut t, SectionId(0), &mut |a| a.read(cell));
        lock.write_section(&mut t, SectionId(1), &mut |a| a.write(cell, 1).map(|_| 0));
        assert_eq!(t.stats.reader_latency.count, 1, "{}", lock.name());
        assert_eq!(t.stats.writer_latency.count, 1, "{}", lock.name());
        assert_eq!(t.stats.total_commits(), 2, "{}", lock.name());
    }
}
