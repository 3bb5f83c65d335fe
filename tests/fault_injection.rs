//! Failure injection: timer-interrupt aborts (the OS-scheduling events
//! that plague real HTM) must never break safety — schemes fall back and
//! invariants hold. This exercises exactly the robustness SpRWL claims for
//! its readers: they run uninstrumented, so injection cannot touch them.

use std::time::Duration;

use sprwl_repro::bench::{run_hashmap_point, LockKind, Measured, SweepMode, UNIFORM_KEYS};
use sprwl_repro::prelude::*;
use sprwl_trace::TraceConfig;

fn noisy(threads: usize, interrupt_prob: f64) -> HtmConfig {
    HtmConfig {
        max_threads: threads,
        capacity: CapacityProfile::POWER8_SIM,
        interrupt_prob,
        ..HtmConfig::default()
    }
}

fn spec() -> HashmapSpec {
    HashmapSpec {
        buckets: 64,
        population: 1024,
        key_space: 2048,
        lookups_per_read: 5,
        update_pct: 30,
    }
}

fn run_noisy(kind: &LockKind, interrupt_prob: f64) -> Measured {
    run_hashmap_point(
        noisy(3, interrupt_prob),
        kind,
        UNIFORM_KEYS,
        &spec(),
        55,
        &SweepMode::Wall {
            warmup: Duration::ZERO,
            duration: Duration::from_millis(80),
        },
        TraceConfig::Off,
    )
}

#[test]
fn sprwl_survives_heavy_interrupt_injection() {
    let report = run_noisy(&LockKind::Sprwl(SprwlConfig::default()), 0.02);
    assert!(report.stats.total_commits() > 0);
    // Writers are speculative, so injection must show up...
    assert!(
        report.stats.aborts_of(AbortCause::Interrupt) > 0,
        "2% per-access injection must cause interrupt aborts"
    );
}

#[test]
fn tle_survives_heavy_interrupt_injection() {
    let report = run_noisy(&LockKind::Tle, 0.02);
    assert!(report.stats.total_commits() > 0);
    assert!(report.stats.aborts_of(AbortCause::Interrupt) > 0);
}

#[test]
fn rwle_survives_heavy_interrupt_injection() {
    let report = run_noisy(&LockKind::RwLe, 0.02);
    assert!(report.stats.total_commits() > 0);
}

#[test]
fn uninstrumented_readers_are_immune_to_injection() {
    // Force readers straight to the uninstrumented path: with HTM probing
    // off, reader commits must be injection-free even at brutal rates.
    let cfg = SprwlConfig {
        readers_try_htm: false,
        ..SprwlConfig::default()
    };
    let report = run_noisy(&LockKind::Sprwl(cfg), 0.10);
    let unins = report.stats.commits_by(Role::Reader, CommitMode::Unins);
    let htm_reads = report.stats.commits_by(Role::Reader, CommitMode::Htm);
    assert!(unins > 0, "readers made progress");
    assert_eq!(htm_reads, 0, "no reader ever entered a transaction");
}

#[test]
fn sprwl_under_injection_keeps_bank_invariant() {
    const THREADS: usize = 3;
    const SLOTS: usize = 12;
    let htm = Htm::new(noisy(THREADS, 0.05), 8192);
    let lock = SpRwl::with_defaults(&htm);
    let slots = htm.memory().alloc_line_aligned(SLOTS * 8);
    for i in 0..SLOTS {
        htm.memory().init_store(slots.cell(i * 8), 50);
    }
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (htm, lock, slots) = (&htm, &lock, &slots);
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(tid));
                let mut x = tid as u64 * 77 + 1;
                let mut rnd = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for op in 0..150 {
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
                            let mut s = 0;
                            for i in 0..SLOTS {
                                s += a.read(slots.cell(i * 8))?;
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, SLOTS as u64 * 50, "torn read under injection");
                    }
                }
            });
        }
    });
    let total: u64 = (0..SLOTS)
        .map(|i| htm.direct(0).load(slots.cell(i * 8)))
        .sum();
    assert_eq!(total, SLOTS as u64 * 50);
}
