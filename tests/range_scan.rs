//! Integration test mirroring the `range_scan` example: full-list range
//! scans (far beyond HTM capacity) stay snapshot-atomic while writers
//! churn, for SpRWL, its SNZI variant and the base algorithm.

use sprwl_repro::prelude::*;
use sprwl_repro::workloads::SortedList;

const THREADS: usize = 3;
const INITIAL: u64 = 256;

fn run_with(cfg: SprwlConfig) {
    let htm = Htm::new(
        HtmConfig {
            max_threads: THREADS,
            capacity: CapacityProfile::POWER8_SIM,
            ..HtmConfig::default()
        },
        SortedList::cells_needed(2048, THREADS) + 1024,
    );
    let lock = SpRwl::new(&htm, cfg);
    let list = SortedList::new(htm.memory(), 2048, THREADS);
    {
        let mut setup = htm.direct(0);
        list.populate(&mut setup, INITIAL).unwrap();
    }
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (htm, lock, list) = (&htm, &lock, &list);
            s.spawn(move || {
                let mut t = LockThread::new(htm.thread(tid));
                let mut x = (tid as u64 + 1) | 1;
                let mut rnd = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                for op in 0..200 {
                    if op % 4 == 0 {
                        // Writers only touch odd keys; even keys persist.
                        let key = (rnd() % (INITIAL * 2)) | 1;
                        let insert = rnd() % 2 == 0;
                        lock.write_section(&mut t, SectionId(1), &mut |a| {
                            if insert {
                                list.insert(a, tid, key, 1)?;
                            } else {
                                list.remove(a, tid, key)?;
                            }
                            Ok(0)
                        });
                    } else {
                        let mut len = 0;
                        lock.read_section(&mut t, SectionId(0), &mut |a| {
                            // checksum() panics internally on order
                            // violations — the strongest torn-read canary.
                            let (l, _sum) = list.checksum(a)?;
                            len = l;
                            Ok(l)
                        });
                        assert!(len >= INITIAL, "even keys vanished: {len}");
                    }
                }
            });
        }
    });
    // Final structural verification.
    let mut d = htm.direct(0);
    let (len, _) = list.checksum(&mut d).unwrap();
    assert!(len >= INITIAL);
    for k in 0..INITIAL {
        assert!(
            list.get(&mut d, k * 2).unwrap().is_some(),
            "initial key {} missing",
            k * 2
        );
    }
}

#[test]
fn range_scans_are_atomic_under_default_sprwl() {
    run_with(SprwlConfig::default());
}

#[test]
fn range_scans_are_atomic_under_snzi_tracking() {
    run_with(SprwlConfig::with_snzi());
}

#[test]
fn range_scans_are_atomic_under_base_algorithm() {
    run_with(SprwlConfig::no_sched());
}
