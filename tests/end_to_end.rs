//! Full-stack integration tests: every synchronization scheme driving the
//! real workloads over the simulated HTM, with invariants audited.

use std::time::Duration;

use sprwl_repro::bench::{
    point_htm, run_hashmap_point, run_tpcc_point, LockKind, Measured, SweepMode, UNIFORM_KEYS,
};
use sprwl_repro::prelude::*;
use sprwl_repro::workloads::tpcc::TpccScale;
use sprwl_trace::TraceConfig;

/// A wall-clock window of `ms` milliseconds, no warmup.
fn wall(ms: u64) -> SweepMode {
    SweepMode::Wall {
        warmup: Duration::ZERO,
        duration: Duration::from_millis(ms),
    }
}

/// One hashmap point on a fresh runtime, uniform keys, tracing off.
fn hashmap(
    profile: CapacityProfile,
    spec: &HashmapSpec,
    kind: &LockKind,
    threads: usize,
    seed: u64,
    ms: u64,
) -> Measured {
    run_hashmap_point(
        point_htm(&profile, threads),
        kind,
        UNIFORM_KEYS,
        spec,
        seed,
        &wall(ms),
        TraceConfig::Off,
    )
}

/// Committed sections per wall second.
fn throughput(m: &Measured) -> f64 {
    m.stats.total_commits() as f64 / m.elapsed_s
}

fn all_schemes() -> Vec<LockKind> {
    vec![
        LockKind::Sprwl(SprwlConfig::no_sched()),
        LockKind::Sprwl(SprwlConfig::rwait()),
        LockKind::Sprwl(SprwlConfig::rsync()),
        LockKind::Sprwl(SprwlConfig::full()),
        LockKind::Sprwl(SprwlConfig::with_snzi()),
        LockKind::Sprwl(SprwlConfig {
            versioned_sgl: true,
            ..SprwlConfig::default()
        }),
        LockKind::Tle,
        LockKind::RwLe,
        LockKind::Rwl,
        LockKind::BrLock,
    ]
}

#[test]
fn every_scheme_runs_the_hashmap_workload() {
    let profile = CapacityProfile::POWER8_SIM;
    let spec = HashmapSpec {
        buckets: 64,
        population: 2048,
        key_space: 4096,
        lookups_per_read: 5,
        update_pct: 30,
    };
    for kind in all_schemes() {
        if !kind.supports(&profile) {
            continue;
        }
        let report = hashmap(profile, &spec, &kind, 3, 99, 60);
        assert!(
            report.stats.total_commits() > 0,
            "{} made no progress",
            kind.name()
        );
    }
}

#[test]
fn every_scheme_preserves_tpcc_consistency() {
    let profile = CapacityProfile::POWER8_SIM;
    let scale = TpccScale {
        warehouses: 2,
        customers_per_district: 32,
        items: 256,
        ..TpccScale::default()
    };
    for kind in all_schemes() {
        if !kind.supports(&profile) {
            continue;
        }
        // The point audits W_YTD = Σ D_YTD and the delivery queues after
        // its run, panicking with the lock's name on a violation.
        let report = run_tpcc_point(
            point_htm(&profile, 3),
            &kind,
            scale,
            &Mix::PAPER,
            100,
            &wall(60),
        );
        assert!(report.stats.total_commits() > 0, "{}", kind.name());
    }
}

#[test]
fn sprwl_readers_go_uninstrumented_tle_readers_take_the_lock() {
    // The paper's central contrast, end to end.
    let profile = CapacityProfile::POWER8_SIM;
    let spec = HashmapSpec::paper(&profile, true, 10);
    let sprwl_rep = hashmap(
        profile,
        &spec,
        &LockKind::Sprwl(SprwlConfig::full()),
        2,
        17,
        120,
    );
    let tle_rep = hashmap(profile, &spec, &LockKind::Tle, 2, 17, 120);

    let sprwl_unins = sprwl_rep.stats.commits_by(Role::Reader, CommitMode::Unins);
    let sprwl_reads = sprwl_unins + sprwl_rep.stats.commits_by(Role::Reader, CommitMode::Htm);
    assert!(
        sprwl_unins as f64 > 0.8 * sprwl_reads as f64,
        "SpRWL long readers should be overwhelmingly uninstrumented: {sprwl_unins}/{sprwl_reads}"
    );

    let tle_gl = tle_rep.stats.commits_by(Role::Reader, CommitMode::Gl);
    let tle_reads = tle_gl + tle_rep.stats.commits_by(Role::Reader, CommitMode::Htm);
    assert!(
        tle_gl as f64 > 0.8 * tle_reads as f64,
        "TLE long readers should collapse onto the lock: {tle_gl}/{tle_reads}"
    );
    assert!(
        tle_rep.stats.aborts_of(AbortCause::Capacity) > 0,
        "TLE must be hitting capacity aborts"
    );
}

#[test]
fn sprwl_outperforms_tle_on_long_reader_workloads() {
    // The headline direction (magnitudes are host-dependent; see
    // EXPERIMENTS.md): SpRWL must beat TLE clearly on the 10%-update
    // long-reader mix.
    let profile = CapacityProfile::POWER8_SIM;
    let spec = HashmapSpec::paper(&profile, true, 10);
    let sprwl_rep = hashmap(
        profile,
        &spec,
        &LockKind::Sprwl(SprwlConfig::full()),
        4,
        18,
        150,
    );
    let tle_rep = hashmap(profile, &spec, &LockKind::Tle, 4, 18, 150);
    assert!(
        throughput(&sprwl_rep) > 1.5 * throughput(&tle_rep),
        "SpRWL ({:.0} tx/s) should clearly beat TLE ({:.0} tx/s)",
        throughput(&sprwl_rep),
        throughput(&tle_rep)
    );
}

#[test]
fn short_reader_workloads_keep_sprwl_close_to_tle() {
    // Fig. 4's story: when readers fit in HTM, SpRWL must not collapse —
    // the paper reports TLE peaks ≤30% above SpRWL. Allow generous slack
    // for the simulated substrate.
    let profile = CapacityProfile::POWER8_SIM;
    let spec = HashmapSpec::paper(&profile, false, 50);
    let sprwl_rep = hashmap(
        profile,
        &spec,
        &LockKind::Sprwl(SprwlConfig::full()),
        2,
        19,
        150,
    );
    let tle_rep = hashmap(profile, &spec, &LockKind::Tle, 2, 19, 150);
    assert!(
        throughput(&sprwl_rep) > 0.5 * throughput(&tle_rep),
        "SpRWL ({:.0}) fell too far behind TLE ({:.0}) on short readers",
        throughput(&sprwl_rep),
        throughput(&tle_rep)
    );
}

#[test]
fn rwle_writer_latency_exceeds_sprwl_under_long_readers() {
    // The paper's Fig. 3 commentary: RW-LE's quiescence makes writers wait
    // for active readers, inflating writer latency versus SpRWL.
    let profile = CapacityProfile::POWER8_SIM;
    let spec = HashmapSpec::paper(&profile, true, 10);
    let sprwl_rep = hashmap(
        profile,
        &spec,
        &LockKind::Sprwl(SprwlConfig::full()),
        4,
        20,
        150,
    );
    let rwle_rep = hashmap(profile, &spec, &LockKind::RwLe, 4, 20, 150);
    assert!(
        rwle_rep.stats.writer_latency.mean_ns() > sprwl_rep.stats.writer_latency.mean_ns(),
        "RW-LE writer latency ({}) should exceed SpRWL's ({})",
        rwle_rep.stats.writer_latency.mean_ns(),
        sprwl_rep.stats.writer_latency.mean_ns()
    );
}
