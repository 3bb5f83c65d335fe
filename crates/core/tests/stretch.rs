//! White-box coverage of the capacity-stretching ladder
//! (`SprwlConfig::stretch`): oversized writers escalate direct → ROT →
//! split instead of pinning the global lock per execution, the sticky
//! per-section rung remembers the escalation, the direct-rung probe finds
//! the way back with exponential backoff, and the trace shows `stretch-*`
//! events for each rung.

use htm_sim::{CapacityProfile, Htm, HtmConfig, MemAccess, Region, TxResult};
use sprwl::{DeltaPolicy, SpRwl, SprwlConfig};
use sprwl_locks::{AbortCause, CommitMode, LockThread, RwSync, SectionId};
use sprwl_trace::{ThreadTrace, TraceConfig};

const SEC_W: SectionId = SectionId(0);
const SEC_R: SectionId = SectionId(1);

fn htm(profile: CapacityProfile) -> Htm {
    Htm::new(
        HtmConfig {
            capacity: profile,
            max_threads: 4,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

fn stretch_cfg() -> SprwlConfig {
    SprwlConfig {
        stretch: true,
        readers_try_htm: false,
        delta: DeltaPolicy::Zero,
        ..SprwlConfig::default()
    }
}

fn count_events(trace: &ThreadTrace, name: &str) -> usize {
    trace
        .events
        .iter()
        .filter(|e| e.kind.name() == name)
        .count()
}

/// POWER8: a writer whose *read* footprint overflows the HTM budget but
/// whose write-set fits the ROT budget must land on the ROT rung — reads
/// are untracked there, so the stretched transaction commits in hardware
/// instead of falling to the lock.
#[test]
fn oversized_reader_footprint_commits_via_rot_on_power8() {
    let h = htm(CapacityProfile::POWER8_SIM);
    let lock = SpRwl::new(&h, stretch_cfg());
    // 200 read lines > the 128-line HTM budget; 4 write lines ≤ the ROT
    // write budget.
    let cells = h.memory().alloc_line_aligned(200 * 8);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(4096));
    for round in 0..3u64 {
        let sum = lock.write_section(&mut t, SEC_W, &mut |a| {
            let mut acc = 0u64;
            for i in 0..200 {
                acc = acc.wrapping_add(a.read(cells.cell(i * 8))?);
            }
            for i in 0..4 {
                a.write(cells.cell(i * 8), round + 1)?;
            }
            Ok(acc)
        });
        let _ = sum;
    }
    assert_eq!(
        lock.debug_stretch_level(SEC_W),
        1,
        "the first capacity abort must sticky-escalate the section to ROT"
    );
    // Execution 1 pays the probe (HTM capacity abort, then ROT); later
    // executions start on the ROT rung directly.
    assert_eq!(t.stats.commits_in(CommitMode::Rot), 3);
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 0);
    let trace = t.trace.snapshot();
    assert!(count_events(&trace, "stretch-rot") >= 3);
    assert_eq!(count_events(&trace, "stretch-split"), 0);
    let seen = lock.read_section(&mut t, SEC_R, &mut |a| a.read(cells.cell(0)));
    assert_eq!(seen, 3);
}

/// TINY: a write-set that overflows even the ROT budget must be split into
/// chunked sub-transactions under the fallback ticket, with the writes all
/// landing and the chunk cadence visible in the trace.
#[test]
fn oversized_write_set_splits_on_tiny() {
    let h = htm(CapacityProfile::TINY);
    let lock = SpRwl::new(&h, stretch_cfg());
    // 6 write lines: > HTM budget (2) and > ROT budget (2); auto chunking
    // uses the profile's write budget → ⌈6/2⌉ = 3 chunks.
    let cells = h.memory().alloc_line_aligned(64);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(4096));
    lock.write_section(&mut t, SEC_W, &mut |a| {
        for i in 0..6 {
            a.write(cells.cell(i * 8), 100 + i as u64)?;
        }
        // Read-own-writes through the split buffer.
        assert_eq!(a.read(cells.cell(0))?, 100);
        Ok(0)
    });
    assert_eq!(
        lock.debug_stretch_level(SEC_W),
        2,
        "overflowing the ROT budget must sticky-escalate to the split rung"
    );
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 1);
    let trace = t.trace.snapshot();
    assert_eq!(count_events(&trace, "stretch-split"), 1);
    assert!(
        count_events(&trace, "stretch-chunk") >= 3,
        "6 lines over 2-line chunks must flush at least 3 sub-transactions"
    );
    // Second execution starts on the split rung: no HTM/ROT probe aborts.
    let aborts_before = t.stats.total_aborts();
    lock.write_section(&mut t, SEC_W, &mut |a| {
        for i in 0..6 {
            a.write(cells.cell(i * 8), 200 + i as u64)?;
        }
        Ok(0)
    });
    assert_eq!(
        t.stats.total_aborts(),
        aborts_before,
        "a split-rung execution must not pay speculative probe aborts"
    );
    for i in 0..6 {
        let v = lock.read_section(&mut t, SEC_R, &mut |a| a.read(cells.cell(i * 8)));
        assert_eq!(v, 200 + i as u64);
    }
}

/// Broadwell has no suspend/resume: the ladder must skip the ROT rung and
/// go straight from the capacity abort to the split.
#[test]
fn broadwell_skips_rot_rung() {
    let h = htm(CapacityProfile::BROADWELL_SIM);
    let lock = SpRwl::new(&h, stretch_cfg());
    // 70 write lines > the 64-line write budget.
    let cells = h.memory().alloc_line_aligned(70 * 8);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(4096));
    lock.write_section(&mut t, SEC_W, &mut |a| {
        for i in 0..70 {
            a.write(cells.cell(i * 8), 7)?;
        }
        Ok(0)
    });
    assert_eq!(lock.debug_stretch_level(SEC_W), 2);
    let trace = t.trace.snapshot();
    assert_eq!(
        count_events(&trace, "stretch-rot"),
        0,
        "no ROT rung without suspend/resume support"
    );
    assert_eq!(count_events(&trace, "stretch-split"), 1);
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 1);
}

/// With stretching off (the default), a capacity abort still means the
/// plain uninstrumented fallback — no sticky level, no stretch events.
/// Guards the seed behaviour the ladder is layered over.
#[test]
fn stretch_off_keeps_capacity_writers_on_plain_fallback() {
    let h = htm(CapacityProfile::TINY);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            readers_try_htm: false,
            delta: DeltaPolicy::Zero,
            ..SprwlConfig::default()
        },
    );
    let cells = h.memory().alloc_line_aligned(64);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(4096));
    for _ in 0..4 {
        lock.write_section(&mut t, SEC_W, &mut |a| {
            for i in 0..6 {
                a.write(cells.cell(i * 8), 1)?;
            }
            Ok(0)
        });
    }
    assert_eq!(lock.debug_stretch_level(SEC_W), 0);
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 4);
    let trace = t.trace.snapshot();
    assert_eq!(count_events(&trace, "stretch-rot"), 0);
    assert_eq!(count_events(&trace, "stretch-split"), 0);
}

/// `SprwlConfig::stretching()` is the documented way to turn the ladder on.
#[test]
fn stretching_constructor_enables_the_ladder() {
    assert!(SprwlConfig::stretching().stretch);
    assert!(!SprwlConfig::default().stretch);
}

/// The probe is the only way back from a stretched rung. On Broadwell a
/// 70-line section escalates to the split rung; once its body shrinks to
/// one line, the next execution still runs on the sticky rung (the probe
/// countdown starts at the backoff floor of 1), and the one after probes
/// the direct rung, commits in HTM and resets the sticky level. (TINY
/// cannot show this: the fallback, the ROT gate and the reader flags
/// alone overflow its 4-line read budget on every direct attempt.)
#[test]
fn shrunken_section_probes_back_to_the_direct_rung() {
    let h = htm(CapacityProfile::BROADWELL_SIM);
    let lock = SpRwl::new(&h, stretch_cfg());
    let cells = h.memory().alloc_line_aligned(70 * 8);
    let mut t = LockThread::new(h.thread(0));
    let write = |t: &mut LockThread<'_>, lines: usize| {
        lock.write_section(t, SEC_W, &mut |a| {
            for i in 0..lines {
                a.write(cells.cell(i * 8), 1)?;
            }
            Ok(0)
        });
    };
    write(&mut t, 70);
    assert_eq!(lock.debug_stretch_level(SEC_W), 2);
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 1);

    write(&mut t, 1);
    assert_eq!(
        t.stats.commits_in(CommitMode::Gl),
        2,
        "the execution after the escalation must stay on the sticky rung"
    );
    assert_eq!(t.stats.commits_in(CommitMode::Htm), 0);
    assert_eq!(lock.debug_stretch_level(SEC_W), 2);

    write(&mut t, 1);
    assert_eq!(
        t.stats.commits_in(CommitMode::Htm),
        1,
        "the probe must commit the shrunken body in HTM"
    );
    assert_eq!(t.stats.commits_in(CommitMode::Gl), 2);
    assert_eq!(lock.debug_stretch_level(SEC_W), 0);
}

/// Runs `body` over 200 line-aligned cells as section `SEC_W`, 200
/// times, and returns the (1-based) executions whose direct-rung attempt
/// capacity-aborted.
fn direct_capacity_aborts(
    profile: CapacityProfile,
    body: fn(&mut dyn MemAccess, &Region) -> TxResult<u64>,
) -> Vec<u32> {
    let h = htm(profile);
    let lock = SpRwl::new(&h, stretch_cfg());
    let cells = h.memory().alloc_line_aligned(200 * 8);
    let mut t = LockThread::new(h.thread(0));
    let mut hits = Vec::new();
    for exec in 1..=200 {
        let before = t.stats.aborts_of(AbortCause::Capacity);
        lock.write_section(&mut t, SEC_W, &mut |a| body(a, &cells));
        match t.stats.aborts_of(AbortCause::Capacity) - before {
            0 => {}
            1 => hits.push(exec),
            n => panic!("execution {exec} paid {n} direct-rung capacity aborts"),
        }
    }
    hits
}

/// A section that never shrinks pays one failed probe per backoff: the
/// backoff starts at 1 execution, doubles on every failed probe and caps
/// at 64, so 200 executions pay exactly nine direct-rung capacity aborts.
/// The same schedule holds whether the stretched rung is the split (TINY,
/// a 6-line write set) or the ROT (POWER8, a 200-line read set).
#[test]
fn failed_probes_back_off_exponentially_up_to_the_cap() {
    const SCHEDULE: [u32; 9] = [1, 3, 6, 11, 20, 37, 70, 135, 200];
    let split = direct_capacity_aborts(CapacityProfile::TINY, |a, cells| {
        for i in 0..6 {
            a.write(cells.cell(i * 8), 1)?;
        }
        Ok(0)
    });
    assert_eq!(split, SCHEDULE, "split-rung probe schedule");
    let rot = direct_capacity_aborts(CapacityProfile::POWER8_SIM, |a, cells| {
        let mut acc = 0u64;
        for i in 0..200 {
            acc = acc.wrapping_add(a.read(cells.cell(i * 8))?);
        }
        a.write(cells.cell(0), acc)?;
        Ok(acc)
    });
    assert_eq!(rot, SCHEDULE, "ROT-rung probe schedule");
}
