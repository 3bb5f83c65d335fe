//! Criterion micro-benchmarks of the primitives: uncontended section
//! overhead per scheme, raw HTM transaction cost (one access and a
//! TPC-C-sized footprint, alone and next to a second thread), a
//! Stock-Level-sized untracked scan (alone and next to that second thread),
//! a chase of dependent untracked loads across a 64 MiB memory, the TPC-C
//! Stock-Level and New-Order bodies on their own, SNZI operations, and the
//! duration estimator.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use htm_sim::{CapacityProfile, Direct, Htm, HtmConfig, Region, Tx, TxKind, TxResult};
use snzi::Snzi;
use sprwl::SpRwl;
use sprwl_locks::{BrLock, LockThread, PthreadRwLock, RwSync, SectionId, Tle};

fn htm() -> Htm {
    Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: 8,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

fn bench_raw_htm(c: &mut Criterion) {
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    let mut ctx = h.thread(0);
    c.bench_function("htm/txn-1r1w", |b| {
        b.iter(|| {
            ctx.txn(TxKind::Htm, |tx| {
                let v = tx.read(cell)?;
                tx.write(cell, v + 1)
            })
            .unwrap()
        })
    });
    let d = h.direct(1);
    c.bench_function("htm/untracked-load", |b| b.iter(|| d.load(cell)));
    c.bench_function("htm/untracked-store", |b| b.iter(|| d.store(cell, 1)));
    c.bench_function("htm/peek", |b| b.iter(|| h.memory().peek(cell)));
}

/// A TPC-C-sized transaction body: 40 tracked reads of 40 distinct lines,
/// with a read-modify-write on every fourth (10 writes).
fn txn_40r10w(tx: &mut Tx<'_>, region: Region) -> TxResult<()> {
    for line in 0..40 {
        let cell = region.cell(line * 8);
        let v = tx.read(cell)?;
        if line % 4 == 0 {
            tx.write(cell, v + 1)?;
        }
    }
    Ok(())
}

/// About the number of lines an uninstrumented Stock-Level body loads.
const SCAN_LINES: usize = 320;

/// One untracked load from each of `SCAN_LINES` lines.
fn untracked_scan(d: &Direct<'_>, region: Region) -> u64 {
    (0..SCAN_LINES)
        .map(|line| d.load(region.cell(line * 8)))
        .sum()
}

/// Per-access cost at a real footprint on the POWER8 profile, then the same
/// while a partner thread runs the same shape on its own lines for the whole
/// measurement: the two share no line, so any slowdown is simulator
/// contention, not conflicts. The untracked scan is measured the same two
/// ways, next to the same partner.
fn bench_footprint(c: &mut Criterion) {
    let h = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::POWER8_SIM,
            max_threads: 2,
            ..HtmConfig::default()
        },
        4096,
    );
    let mine = h.memory().alloc_line_aligned(40 * 8);
    let partners = h.memory().alloc_line_aligned(40 * 8);
    let scanned = h.memory().alloc_line_aligned(SCAN_LINES * 8);
    let mut ctx = h.thread(0);
    let d = ctx.direct();
    c.bench_function("htm/txn-40r10w", |b| {
        b.iter(|| ctx.txn(TxKind::Htm, |tx| txn_40r10w(tx, mine)).unwrap())
    });
    c.bench_function("htm/untracked-scan-320", |b| {
        b.iter(|| untracked_scan(&d, scanned))
    });
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut partner = h.thread(1);
            while !stop.load(Ordering::Relaxed) {
                partner
                    .txn(TxKind::Htm, |tx| txn_40r10w(tx, partners))
                    .unwrap();
            }
        });
        c.bench_function("htm/txn-40r10w-2thr", |b| {
            b.iter(|| ctx.txn(TxKind::Htm, |tx| txn_40r10w(tx, mine)).unwrap())
        });
        c.bench_function("htm/untracked-scan-320-2thr", |b| {
            b.iter(|| untracked_scan(&d, scanned))
        });
        stop.store(true, Ordering::Relaxed);
    });
}

/// Lines in a 64 MiB memory: 16,384 pages of 4 KiB, far more than a
/// second-level TLB maps.
const CHASE_LINES: usize = (64 << 20) / 64;

/// Dependent untracked loads over a seeded random cycle through every line
/// of a 64 MiB memory: each load's line comes from the one before, so no
/// two loads overlap and nearly each one misses the caches and the TLB, as
/// a step of the KV store's hash-chain walk does.
fn bench_untracked_chase(c: &mut Criterion) {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let cells = CHASE_LINES * 8;
    let h = Htm::new(
        HtmConfig {
            max_threads: 1,
            ..HtmConfig::default()
        },
        cells,
    );
    let lines = h.memory().alloc(cells);
    // Sattolo's shuffle: a uniformly random single cycle through the lines.
    let mut next: Vec<usize> = (0..CHASE_LINES).collect();
    let mut rng = StdRng::seed_from_u64(26);
    for i in (1..CHASE_LINES).rev() {
        next.swap(i, rng.gen_range(0..i));
    }
    for (line, &to) in next.iter().enumerate() {
        h.memory().init_store(lines.cell(line * 8), to as u64);
    }
    let d = h.direct(0);
    let mut line = 0;
    c.bench_function("htm/untracked-chase-64mib", |b| {
        b.iter(|| line = d.load(lines.cell(line * 8)) as usize)
    });
}

/// The section bodies behind `tpcc-power8`, without a lock: one
/// Stock-Level through `Direct` (the uninstrumented reader) and one
/// New-Order attempt in a hardware transaction, on the benchmark's
/// 2-warehouse POWER8-sim database, cycling through inputs drawn up front.
/// Stock-Level runs first, so it scans the loader's orders on both builds.
fn bench_tpcc(c: &mut Criterion) {
    use rand::{rngs::StdRng, SeedableRng};
    use sprwl_workloads::tpcc::{gen_new_order, gen_stock_level, TpccDb, TpccScale};

    const INPUTS: usize = 64;
    let scale = TpccScale::with_warehouses(2);
    let h = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::POWER8_SIM,
            max_threads: 2,
            ..HtmConfig::default()
        },
        scale.cells_needed(),
    );
    let db = TpccDb::new(h.memory(), scale);
    let mut rng = StdRng::seed_from_u64(7);
    let stock_levels: Vec<_> = (0..INPUTS)
        .map(|i| gen_stock_level(&mut rng, &scale, i as u32 % 2))
        .collect();
    let new_orders: Vec<_> = (0..INPUTS)
        .map(|i| gen_new_order(&mut rng, &scale, i as u32 % 2, i as u64))
        .collect();
    let mut ctx = h.thread(0);
    let mut d = ctx.direct();
    let mut next = 0;
    c.bench_function("tpcc/stock-level-direct", |b| {
        b.iter(|| {
            next = (next + 1) % INPUTS;
            db.stock_level(&mut d, &stock_levels[next]).unwrap()
        })
    });
    c.bench_function("tpcc/new-order-txn", |b| {
        b.iter(|| {
            next = (next + 1) % INPUTS;
            ctx.txn(TxKind::Htm, |tx| db.new_order(tx, &new_orders[next]))
                .unwrap()
        })
    });
}

fn bench_sections(c: &mut Criterion) {
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    let mut group = c.benchmark_group("uncontended-write-section");
    let locks: Vec<(&str, Box<dyn RwSync>)> = vec![
        ("SpRWL", Box::new(SpRwl::with_defaults(&h))),
        ("TLE", Box::new(Tle::new(&h))),
        ("RWL", Box::new(PthreadRwLock::new())),
        ("BRLock", Box::new(BrLock::new(8))),
    ];
    for (name, lock) in &locks {
        let mut t = LockThread::new(h.thread(0));
        group.bench_function(name, |b| {
            b.iter(|| {
                lock.write_section(&mut t, SectionId(0), &mut |a| {
                    let v = a.read(cell)?;
                    a.write(cell, v + 1)?;
                    Ok(v)
                })
            })
        });
        drop(t);
    }
    group.finish();

    let mut group = c.benchmark_group("uncontended-read-section");
    for (name, lock) in &locks {
        let mut t = LockThread::new(h.thread(0));
        group.bench_function(name, |b| {
            b.iter(|| lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell)))
        });
        drop(t);
    }
    group.finish();
}

fn bench_snzi(c: &mut Criterion) {
    let h = htm();
    let snzi = Snzi::new(h.memory(), 8);
    let d = h.direct(0);
    c.bench_function("snzi/arrive-depart", |b| {
        b.iter(|| {
            snzi.arrive(&d, 3);
            snzi.depart(&d, 3);
        })
    });
    snzi.arrive(&d, 1); // keep the tree warm: re-arrivals stay leaf-local
    c.bench_function("snzi/arrive-depart-warm", |b| {
        b.iter(|| {
            snzi.arrive(&d, 1);
            snzi.depart(&d, 1);
        })
    });
    c.bench_function("snzi/query", |b| b.iter(|| snzi.query_untracked(&d)));
}

/// The zero-cost-when-off claim, measured: the same uncontended SpRWL
/// sections with tracing disabled (`LockThread::new`), with a live ring
/// (`with_trace`), and the raw push cost. The "off" and plain-`new`
/// numbers must stay within noise of each other.
fn bench_trace_overhead(c: &mut Criterion) {
    use sprwl_trace::{EventKind, TraceBuffer, TraceConfig};
    let h = htm();
    let cell = h.memory().alloc(1).cell(0);
    let lock = SpRwl::with_defaults(&h);
    let mut group = c.benchmark_group("trace-overhead/read-section");
    {
        let mut t = LockThread::new(h.thread(0));
        group.bench_function("off", |b| {
            b.iter(|| lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell)))
        });
    }
    {
        let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(4096));
        group.bench_function("ring-4096", |b| {
            b.iter(|| lock.read_section(&mut t, SectionId(1), &mut |a| a.read(cell)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("trace-overhead/push");
    let mut off = TraceBuffer::disabled(0);
    group.bench_function("disabled", |b| {
        b.iter(|| {
            off.push(EventKind::ReaderArrive);
        })
    });
    let mut on = TraceBuffer::new(0, TraceConfig::ring(4096));
    group.bench_function("ring", |b| {
        b.iter(|| {
            on.push(EventKind::ReaderArrive);
        })
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let est = sprwl::DurationEstimator::new(8);
    c.bench_function("estimator/record", |b| {
        b.iter(|| est.record(0, SectionId(2), 1234))
    });
    c.bench_function("estimator/end-time", |b| {
        b.iter(|| est.end_time(SectionId(2)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(400)).warm_up_time(std::time::Duration::from_millis(150));
    targets = bench_raw_htm, bench_footprint, bench_untracked_chase, bench_tpcc, bench_sections, bench_snzi, bench_trace_overhead, bench_estimator
}
criterion_main!(benches);
