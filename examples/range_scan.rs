//! The paper's opening motivation, reduced to its essence: a sorted list
//! where readers run **range queries** (long traversals, far beyond HTM
//! capacity) while writers insert and remove single keys.
//!
//! With SpRWL the scans run uninstrumented and still see atomic snapshots:
//! we verify that every scan of the full list observes a consistent
//! length/sum pair while writers churn.
//!
//! Run with: `cargo run --release --example range_scan`

use std::sync::atomic::{AtomicU64, Ordering};

use sprwl_repro::prelude::*;
use sprwl_repro::workloads::SortedList;

const THREADS: usize = 4;
const INITIAL: u64 = 512;
const SEC_SCAN: SectionId = SectionId(0);
const SEC_UPDATE: SectionId = SectionId(1);

fn main() {
    let htm = Htm::new(
        HtmConfig {
            max_threads: THREADS,
            capacity: CapacityProfile::POWER8_SIM,
            ..HtmConfig::default()
        },
        SortedList::cells_needed(4096, THREADS) + 1024,
    );
    let lock = SpRwl::with_defaults(&htm);
    let list = SortedList::new(htm.memory(), 4096, THREADS);
    {
        let mut setup = htm.direct(0);
        list.populate(&mut setup, INITIAL)
            .expect("setup cannot abort");
    }

    let scans = AtomicU64::new(0);
    let updates = AtomicU64::new(0);
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (htm, lock, list, scans, updates) = (&htm, &lock, &list, &scans, &updates);
                s.spawn(move || {
                    let mut t = LockThread::new(htm.thread(tid));
                    let mut x = ((tid as u64 + 1) * 0xA5A5_5A5A) | 1;
                    let mut rnd = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    for op in 0..800 {
                        if op % 5 == 0 {
                            // Writer: move a key (remove odd, insert odd+2k).
                            let k = rnd() % (INITIAL * 2);
                            let do_insert = rnd() % 2 == 0;
                            lock.write_section(&mut t, SEC_UPDATE, &mut |a| {
                                // Keep an invariant the scans can check:
                                // only odd keys are ever inserted/removed,
                                // so even keys (the initial population)
                                // always remain — length ≥ INITIAL.
                                let key = k | 1;
                                if do_insert {
                                    list.insert(a, tid, key, 1)?;
                                } else {
                                    list.remove(a, tid, key)?;
                                }
                                Ok(0)
                            });
                            updates.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // Reader: full-range scan (way over capacity).
                            let (len, _keysum) = {
                                let mut out = (0, 0);
                                lock.read_section(&mut t, SEC_SCAN, &mut |a| {
                                    out = list.checksum(a)?;
                                    Ok(out.0)
                                });
                                out
                            };
                            assert!(
                                len >= INITIAL,
                                "initial even keys must never disappear (saw {len})"
                            );
                            scans.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    t.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });

    let mut merged = SessionStats::default();
    for r in &reports {
        merged.merge(r);
    }
    println!(
        "range_scan: {} full-list scans, {} updates across {THREADS} threads",
        scans.load(Ordering::Relaxed),
        updates.load(Ordering::Relaxed)
    );
    println!(
        "  scans ran uninstrumented: {} Unins vs {} HTM reader commits",
        merged.commits_by(Role::Reader, CommitMode::Unins),
        merged.commits_by(Role::Reader, CommitMode::Htm),
    );
    println!(
        "  writers: {} HTM, {} fallback; reader-induced aborts: {}",
        merged.commits_by(Role::Writer, CommitMode::Htm),
        merged.commits_by(Role::Writer, CommitMode::Gl),
        merged.aborts_of(AbortCause::Reader),
    );
    println!(
        "  p99 scan latency: {:.1} µs (mean {:.1} µs)",
        merged.reader_latency.sampled_percentile_ns(99.0) as f64 / 1_000.0,
        merged.reader_latency.mean_ns() as f64 / 1_000.0,
    );
}
