//! Black-box checks that SpRWL's instrumentation records the lifecycle
//! events the trace crate defines — and records nothing when tracing is
//! off.

use htm_sim::{CapacityProfile, Htm, HtmConfig};
use sprwl::{ReaderHtm, SpRwl, SprwlConfig};
use sprwl_locks::{LockThread, RwSync, SectionId};
use sprwl_trace::{EventKind, TraceConfig, TraceRole};

fn htm(threads: usize) -> Htm {
    Htm::new(
        HtmConfig {
            capacity: CapacityProfile::BROADWELL_SIM,
            max_threads: threads,
            ..HtmConfig::default()
        },
        64 * 1024,
    )
}

const SEC_R: SectionId = SectionId(0);
const SEC_W: SectionId = SectionId(1);

fn kinds(t: &LockThread<'_>) -> Vec<&'static str> {
    t.trace
        .snapshot()
        .events
        .iter()
        .map(|e| e.kind.name())
        .collect()
}

#[test]
fn reader_sections_trace_begin_arrive_depart_end() {
    let h = htm(2);
    let lock = SpRwl::new(
        &h,
        SprwlConfig {
            reader_htm: ReaderHtm::Direct,
            ..SprwlConfig::default()
        },
    );
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(64));
    lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    let ks = kinds(&t);
    assert_eq!(
        ks,
        vec![
            "section-begin",
            "reader-arrive",
            "reader-depart",
            "section-end"
        ],
        "uninstrumented reader lifecycle"
    );
    let snap = t.trace.snapshot();
    match snap.events[0].kind {
        EventKind::SectionBegin { role, sec } => {
            assert_eq!(role, TraceRole::Reader);
            assert_eq!(sec, SEC_R.0);
        }
        ref k => panic!("unexpected first event {k:?}"),
    }
    match snap.events[3].kind {
        EventKind::SectionEnd { mode, .. } => assert_eq!(mode, "Unins"),
        ref k => panic!("unexpected last event {k:?}"),
    }
}

#[test]
fn htm_reader_traces_attempt_and_commit_with_footprint() {
    let h = htm(2);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(64));
    lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    let snap = t.trace.snapshot();
    let commit = snap
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::TxCommit { mode, read_fp, .. } => Some((mode, read_fp)),
            _ => None,
        })
        .expect("HTM probe committed");
    assert_eq!(commit.0, "HTM");
    assert!(commit.1 >= 1, "one line read");
    assert!(kinds(&t).contains(&"tx-attempt"));
}

#[test]
fn writer_sections_trace_the_speculative_lifecycle() {
    let h = htm(2);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::with_trace(h.thread(0), TraceConfig::ring(64));
    lock.write_section(&mut t, SEC_W, &mut |a| {
        a.write(cell, 7)?;
        Ok(0)
    });
    let ks = kinds(&t);
    assert_eq!(ks[0], "section-begin");
    assert!(ks.contains(&"tx-attempt"));
    assert!(ks.contains(&"tx-commit"));
    assert_eq!(*ks.last().unwrap(), "section-end");
    let snap = t.trace.snapshot();
    match snap.events.last().unwrap().kind {
        EventKind::SectionEnd { role, mode, .. } => {
            assert_eq!(role, TraceRole::Writer);
            assert_eq!(mode, "HTM");
        }
        ref k => panic!("unexpected last event {k:?}"),
    }
}

#[test]
fn tracing_off_records_nothing() {
    let h = htm(2);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let mut t = LockThread::new(h.thread(0));
    lock.write_section(&mut t, SEC_W, &mut |a| {
        a.write(cell, 1)?;
        Ok(0)
    });
    lock.read_section(&mut t, SEC_R, &mut |a| a.read(cell));
    assert!(t.trace.is_empty());
    assert_eq!(t.trace.total_recorded(), 0);
}

#[test]
fn contended_counter_traces_conflict_attributed_aborts() {
    const THREADS: usize = 4;
    let h = htm(THREADS);
    let lock = SpRwl::with_defaults(&h);
    let cell = h.memory().alloc(1).cell(0);
    let traces = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let h = &h;
                let lock = &lock;
                s.spawn(move || {
                    let mut t = LockThread::with_trace(h.thread(tid), TraceConfig::ring(4096));
                    for _ in 0..300 {
                        lock.write_section(&mut t, SEC_W, &mut |a| {
                            let v = a.read(cell)?;
                            a.write(cell, v + 1)?;
                            Ok(0)
                        });
                    }
                    t.trace.snapshot()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(
        h.direct(0).load(cell),
        (THREADS * 300) as u64,
        "counter intact"
    );
    // The attributed lines depend on where the substrate detects the
    // conflict (counter line, state flags, lock word); what must hold is
    // that an abort names its line exactly when it names the peer that
    // won it, the pair `sprwl-analyze` builds its hot-line table from.
    for tr in &traces {
        for e in &tr.events {
            if let EventKind::TxAbort { line, peer, .. } = e.kind {
                assert_eq!(
                    line == sprwl_trace::NO_LINE,
                    peer == sprwl_trace::NO_PEER,
                    "thread {}: abort on line {line} names peer {peer}",
                    tr.tid
                );
            }
        }
    }
}
