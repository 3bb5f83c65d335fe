//! Multi-threaded stress tests: atomicity and isolation under real
//! concurrency.

use htm_sim::{Abort, CapacityProfile, Htm, HtmConfig, TxKind};

fn retry<R>(
    ctx: &mut htm_sim::ThreadCtx<'_>,
    kind: TxKind,
    mut f: impl FnMut(&mut htm_sim::Tx<'_>) -> htm_sim::TxResult<R>,
) -> R {
    loop {
        match ctx.txn(kind, |tx| f(tx)) {
            Ok(v) => return v,
            Err(Abort::CapacityRead | Abort::CapacityWrite) => {
                panic!("test transactions must fit capacity")
            }
            Err(_) => std::thread::yield_now(),
        }
    }
}

#[test]
fn concurrent_counter_increments_are_not_lost() {
    const THREADS: usize = 4;
    const INCS: u64 = 500;
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            max_threads: THREADS,
            ..HtmConfig::default()
        },
        64,
    );
    let counter = htm.memory().alloc(1).cell(0);
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let htm = &htm;
            s.spawn(move || {
                let mut ctx = htm.thread(tid);
                for _ in 0..INCS {
                    retry(&mut ctx, TxKind::Htm, |tx| {
                        let v = tx.read(counter)?;
                        tx.write(counter, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(htm.direct(0).load(counter), THREADS as u64 * INCS);
}

#[test]
fn transactional_bank_conserves_money() {
    // Random transfers between accounts; transactional readers audit the
    // total. Any atomicity violation shows up as a wrong audit sum.
    const THREADS: usize = 4;
    const ACCOUNTS: usize = 32;
    const OPS: usize = 400;
    const TOTAL: u64 = ACCOUNTS as u64 * 100;

    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            max_threads: THREADS,
            ..HtmConfig::default()
        },
        4096,
    );
    let accounts = htm.memory().alloc(ACCOUNTS);
    {
        let d = htm.direct(0);
        for i in 0..ACCOUNTS {
            d.store(accounts.cell(i), 100);
        }
    }

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let htm = &htm;
            s.spawn(move || {
                let mut ctx = htm.thread(tid);
                let mut seed = (tid as u64 + 1) * 0x9E37_79B9;
                let mut next = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                for op in 0..OPS {
                    if op % 5 == 0 {
                        // Auditor: transactional snapshot of all accounts.
                        let sum = retry(&mut ctx, TxKind::Htm, |tx| {
                            let mut sum = 0u64;
                            for i in 0..ACCOUNTS {
                                sum += tx.read(accounts.cell(i))?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, TOTAL, "torn snapshot observed");
                    } else {
                        let from = (next() as usize) % ACCOUNTS;
                        let to = (next() as usize) % ACCOUNTS;
                        let amt = next() % 10;
                        retry(&mut ctx, TxKind::Htm, |tx| {
                            let f = tx.read(accounts.cell(from))?;
                            if f < amt {
                                return Ok(());
                            }
                            let t = tx.read(accounts.cell(to))?;
                            tx.write(accounts.cell(from), f - amt)?;
                            if to != from {
                                tx.write(accounts.cell(to), t + amt)?;
                            } else {
                                tx.write(accounts.cell(to), f)?;
                            }
                            Ok(())
                        });
                    }
                }
            });
        }
    });

    let d = htm.direct(0);
    let total: u64 = (0..ACCOUNTS).map(|i| d.load(accounts.cell(i))).sum();
    assert_eq!(total, TOTAL);
}

#[test]
fn untracked_single_cell_reads_are_atomic_under_commits() {
    // A writer transaction repeatedly overwrites a cell with values whose
    // low and high halves must match; untracked readers must never see a
    // mixed value (single-cell commit atomicity).
    const ROUNDS: u64 = 2_000;
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            max_threads: 2,
            ..HtmConfig::default()
        },
        64,
    );
    let cell = htm.memory().alloc(1).cell(0);
    std::thread::scope(|s| {
        let htm_w = &htm;
        s.spawn(move || {
            let mut ctx = htm_w.thread(0);
            for i in 1..=ROUNDS {
                let val = (i << 32) | i;
                // The untracked reader below dooms this writer whenever it
                // reads the line mid-transaction, so retry on doom.
                loop {
                    if ctx.txn(TxKind::Htm, |tx| tx.write(cell, val)).is_ok() {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
        let htm_r = &htm;
        s.spawn(move || {
            let d = htm_r.direct(1);
            for _ in 0..ROUNDS {
                let v = d.load(cell);
                assert_eq!(v >> 32, v & 0xFFFF_FFFF, "torn single-cell read");
            }
        });
    });
}

#[test]
fn writer_doomed_by_untracked_store_never_commits_its_buffer() {
    // Repeatedly race a transactional read-modify-write against untracked
    // stores; the final value must always reflect a linearizable history
    // (tx adds 2 to even values only; untracked store resets to odd).
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            max_threads: 2,
            ..HtmConfig::default()
        },
        64,
    );
    let cell = htm.memory().alloc(1).cell(0);
    std::thread::scope(|s| {
        let h0 = &htm;
        s.spawn(move || {
            let mut ctx = h0.thread(0);
            for _ in 0..1_000 {
                let _ = ctx.txn(TxKind::Htm, |tx| {
                    let v = tx.read(cell)?;
                    if v % 2 == 0 {
                        tx.write(cell, v + 2)?;
                    }
                    Ok(())
                });
            }
        });
        let h1 = &htm;
        s.spawn(move || {
            let d = h1.direct(1);
            for _ in 0..1_000 {
                let v = d.load(cell);
                d.store(cell, v + 1); // flip parity either way
            }
        });
    });
    // No assertion on the exact value — the invariant is that every tx
    // commit was based on a non-stale read. A lost doom would let a tx
    // commit v+2 over an untracked v+1, producing an odd->even jump the
    // tx path forbids; detecting it requires history checking, which the
    // bank test covers. Here we just require termination and sane state.
    let v = htm.direct(0).load(cell);
    assert!(v <= 4_000);
}

#[test]
fn many_threads_alloc_and_use_disjoint_regions() {
    // Each thread owns whole lines, so threads never meet on a line (only,
    // at most, on a host cache line of line words): no multi-line
    // transaction may ever abort on a conflict.
    const THREADS: usize = 8;
    const LINES: usize = 6;
    const ROUNDS: u64 = 1_000;
    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            max_threads: THREADS,
            ..HtmConfig::default()
        },
        THREADS * (LINES + 1) * 8,
    );
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let htm = &htm;
            s.spawn(move || {
                let region = htm.memory().alloc_line_aligned(LINES * 8);
                let mut ctx = htm.thread(tid);
                for _ in 0..ROUNDS {
                    retry(&mut ctx, TxKind::Htm, |tx| {
                        for l in 0..LINES {
                            let v = tx.read(region.cell(l * 8))?;
                            tx.write(region.cell(l * 8), v + 1)?;
                            tx.write(region.cell(l * 8 + 7), (tid * 100 + l) as u64)?;
                        }
                        Ok(())
                    });
                }
                assert_eq!(ctx.stats.aborts_conflict, 0, "thread {tid}");
                assert_eq!(ctx.stats.commits(), ROUNDS);
                let d = htm.direct(tid);
                for l in 0..LINES {
                    assert_eq!(d.load(region.cell(l * 8)), ROUNDS);
                    assert_eq!(d.load(region.cell(l * 8 + 7)), (tid * 100 + l) as u64);
                }
            });
        }
    });
}

#[test]
fn contended_line_words_keep_audits_transfers_and_untracked_adds_exact() {
    // Six threads on the four lines of eight accounts. Audits read every
    // account, yielding the CPU between lines, so a line often has three
    // or more concurrent readers and spills. Transfers move money between
    // accounts and rewrite a counter that shares line 0 with two accounts,
    // so an untracked fetch_add of the counter that fails to doom a
    // transfer holding the line is lost when the transfer commits.
    const THREADS: usize = 6;
    const LINES: usize = 4;
    const PER_LINE: usize = 2;
    const ACCOUNTS: usize = LINES * PER_LINE;
    const OPS: usize = 300;
    const TOTAL: u64 = ACCOUNTS as u64 * 100;

    let htm = Htm::new(
        HtmConfig {
            capacity: CapacityProfile::UNBOUNDED,
            max_threads: THREADS,
            ..HtmConfig::default()
        },
        (LINES + 1) * 8,
    );
    let region = htm.memory().alloc_line_aligned(LINES * 8);
    let account = |i: usize| region.cell(i / PER_LINE * 8 + i % PER_LINE);
    let counter = region.cell(7);
    {
        let d = htm.direct(0);
        for i in 0..ACCOUNTS {
            d.store(account(i), 100);
        }
    }
    let adds = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (htm, adds) = (&htm, &adds);
            s.spawn(move || {
                let mut ctx = htm.thread(tid);
                let mut seed = (tid as u64 + 1) * 0x9E37_79B9;
                let mut next = move || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                for op in 0..OPS {
                    match (op + tid) % 3 {
                        0 => {
                            let sum = retry(&mut ctx, TxKind::Htm, |tx| {
                                let mut sum = 0;
                                for i in 0..ACCOUNTS {
                                    if i % PER_LINE == 0 {
                                        std::thread::yield_now();
                                    }
                                    sum += tx.read(account(i))?;
                                }
                                Ok(sum)
                            });
                            assert_eq!(sum, TOTAL, "torn audit");
                        }
                        1 => {
                            let from = account(next() as usize % ACCOUNTS);
                            let to = account(next() as usize % ACCOUNTS);
                            let amt = next() % 10;
                            retry(&mut ctx, TxKind::Htm, |tx| {
                                let c = tx.read(counter)?;
                                tx.write(counter, c)?;
                                let f = tx.read(from)?;
                                if f < amt || from == to {
                                    return Ok(());
                                }
                                let t = tx.read(to)?;
                                tx.write(from, f - amt)?;
                                tx.write(to, t + amt)
                            });
                        }
                        _ => {
                            ctx.direct().fetch_add(counter, 1);
                            adds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let d = htm.direct(0);
    let total: u64 = (0..ACCOUNTS).map(|i| d.load(account(i))).sum();
    assert_eq!(total, TOTAL, "money not conserved");
    assert_eq!(
        d.load(counter),
        adds.load(std::sync::atomic::Ordering::Relaxed),
        "an untracked fetch_add was lost"
    );
}
