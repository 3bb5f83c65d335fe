//! Property-based integration tests: randomized op sequences, randomized
//! scheme configurations, always the same invariants.

use proptest::prelude::*;
use sprwl_repro::prelude::*;

/// Arbitrary SpRWL configuration over every knob but `stretch`, which
/// acts only on capacity aborts that these small sections never take.
fn sprwl_config() -> impl Strategy<Value = SprwlConfig> {
    (
        prop_oneof![
            Just(Scheduling::NoSched),
            Just(Scheduling::RWait),
            Just(Scheduling::RSync),
            Just(Scheduling::Full),
        ],
        prop_oneof![
            Just(ReaderTracking::Flags),
            Just(ReaderTracking::Snzi),
            Just(ReaderTracking::Bravo),
        ],
        any::<bool>(), // readers_try_htm
        any::<bool>(), // adaptive_reader_htm
        any::<bool>(), // versioned_sgl
    )
        .prop_map(
            |(scheduling, tracking, try_htm, adaptive, versioned)| SprwlConfig {
                scheduling,
                reader_tracking: tracking,
                readers_try_htm: try_htm,
                adaptive_reader_htm: adaptive,
                versioned_sgl: versioned,
                ..SprwlConfig::default()
            },
        )
}

/// One logical operation of the generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Transfer 1 unit between two slots (write critical section).
    Transfer(u8, u8),
    /// Audit the conserved total (read critical section).
    Audit,
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Transfer(a, b)),
            Just(Op::Audit),
        ],
        1..max,
    )
}

const SLOTS: usize = 10;
const TOTAL: u64 = SLOTS as u64 * 40;

fn run_ops(lock: &SpRwl, h: &Htm, slots: &Region, per_thread: &[Vec<Op>]) {
    std::thread::scope(|s| {
        for (tid, my_ops) in per_thread.iter().enumerate() {
            let (lock, h) = (lock, h);
            s.spawn(move || {
                let mut t = LockThread::new(h.thread(tid));
                for op in my_ops {
                    match *op {
                        Op::Transfer(a, b) => {
                            let from = a as usize % SLOTS;
                            let to = b as usize % SLOTS;
                            lock.write_section(&mut t, SectionId(1), &mut |acc| {
                                let f = acc.read(slots.cell(from * 8))?;
                                if f == 0 || from == to {
                                    return Ok(0);
                                }
                                let v = acc.read(slots.cell(to * 8))?;
                                acc.write(slots.cell(from * 8), f - 1)?;
                                acc.write(slots.cell(to * 8), v + 1)?;
                                Ok(1)
                            });
                        }
                        Op::Audit => {
                            let sum = lock.read_section(&mut t, SectionId(0), &mut |acc| {
                                let mut sum = 0;
                                for i in 0..SLOTS {
                                    sum += acc.read(slots.cell(i * 8))?;
                                }
                                Ok(sum)
                            });
                            assert_eq!(sum, TOTAL, "torn audit snapshot");
                        }
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any configuration, any interleaving: audits see conserved totals,
    /// and the final state conserves the total too.
    #[test]
    fn conservation_under_arbitrary_configs(
        cfg in sprwl_config(),
        t0 in ops(40),
        t1 in ops(40),
        t2 in ops(40),
    ) {
        let h = Htm::new(
            HtmConfig {
                max_threads: 3,
                capacity: CapacityProfile::POWER8_SIM,
                ..HtmConfig::default()
            },
            16 * 1024,
        );
        let lock = SpRwl::new(&h, cfg);
        let slots = h.memory().alloc_line_aligned(SLOTS * 8);
        for i in 0..SLOTS {
            h.memory().init_store(slots.cell(i * 8), 40);
        }
        run_ops(&lock, &h, &slots, &[t0, t1, t2]);
        let total: u64 = (0..SLOTS).map(|i| h.direct(0).load(slots.cell(i * 8))).sum();
        prop_assert_eq!(total, TOTAL);
    }

    /// Same property under failure injection.
    #[test]
    fn conservation_under_interrupt_injection(
        prob in 0.0f64..0.05,
        t0 in ops(30),
        t1 in ops(30),
    ) {
        let h = Htm::new(
            HtmConfig {
                max_threads: 2,
                capacity: CapacityProfile::POWER8_SIM,
                interrupt_prob: prob,
                ..HtmConfig::default()
            },
            16 * 1024,
        );
        let lock = SpRwl::with_defaults(&h);
        let slots = h.memory().alloc_line_aligned(SLOTS * 8);
        for i in 0..SLOTS {
            h.memory().init_store(slots.cell(i * 8), 40);
        }
        run_ops(&lock, &h, &slots, &[t0, t1]);
        let total: u64 = (0..SLOTS).map(|i| h.direct(0).load(slots.cell(i * 8))).sum();
        prop_assert_eq!(total, TOTAL);
    }

    /// The hashmap behaves like a map whatever lock protects it: sequential
    /// model equivalence after a concurrent run over disjoint key ranges.
    #[test]
    fn hashmap_stays_a_map_under_concurrency(seed in any::<u64>()) {
        let spec = HashmapSpec {
            buckets: 32,
            population: 0,
            key_space: 1 << 16,
            lookups_per_read: 3,
            update_pct: 50,
        };
        let h = Htm::new(
            HtmConfig {
                max_threads: 3,
                capacity: CapacityProfile::POWER8_SIM,
                ..HtmConfig::default()
            },
            spec.cells_needed(3),
        );
        let lock = SpRwl::with_defaults(&h);
        let map = spec.build(h.memory(), 3);
        std::thread::scope(|s| {
            for tid in 0..3usize {
                let (h, lock, map) = (&h, &lock, &map);
                s.spawn(move || {
                    let mut t = LockThread::new(h.thread(tid));
                    let mut x = seed ^ ((tid as u64 + 1) << 32) | 1;
                    let mut rnd = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
                    for k in 0..40u64 {
                        let key = (tid as u64) << 32 | k;
                        let tid_v = tid;
                        lock.write_section(&mut t, SectionId(1), &mut |a| {
                            map.insert(a, tid_v, key, key + 1)?;
                            Ok(0)
                        });
                        if rnd() % 4 == 0 {
                            lock.write_section(&mut t, SectionId(1), &mut |a| {
                                map.delete(a, tid_v, key)?;
                                Ok(0)
                            });
                        }
                    }
                });
            }
        });
        // Sequential check: every surviving key maps to key+1.
        let mut d = h.direct(0);
        for tid in 0..3u64 {
            for k in 0..40u64 {
                let key = tid << 32 | k;
                if let Some(v) = map.lookup(&mut d, key).unwrap() {
                    prop_assert_eq!(v, key + 1);
                }
            }
        }
    }
}
