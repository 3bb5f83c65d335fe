//! Every synchronization scheme in the repository, one table: the four
//! SpRWL ablation variants, the SNZI variant, and every baseline, all
//! running the same workload through the same `RwSync` interface.
//!
//! Run with: `cargo run --release --example lock_shootout [update_pct]`

use std::time::Duration;

use sprwl_repro::bench::{
    point_htm, run_hashmap_point, BenchPoint, LockKind, SweepMode, UNIFORM_KEYS,
};
use sprwl_repro::prelude::*;
use sprwl_trace::TraceConfig;

fn main() {
    let update_pct: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    assert!(update_pct <= 100, "update percentage must be 0..=100");

    let threads = 4;
    let profile = CapacityProfile::POWER8_SIM;
    let spec = HashmapSpec::paper(&profile, true, update_pct);
    let window = SweepMode::Wall {
        warmup: Duration::from_millis(30),
        duration: Duration::from_millis(300),
    };

    println!(
        "Lock shootout: hashmap, 10-lookup readers, {update_pct}% updates, \
         {threads} threads, profile {}\n",
        profile.name
    );
    println!("{}", BenchPoint::header());

    let contenders: Vec<LockKind> = vec![
        LockKind::Sprwl(SprwlConfig::no_sched()),
        LockKind::Sprwl(SprwlConfig::rwait()),
        LockKind::Sprwl(SprwlConfig::rsync()),
        LockKind::Sprwl(SprwlConfig::full()),
        LockKind::Sprwl(SprwlConfig::with_snzi()),
        LockKind::Tle,
        LockKind::RwLe,
        LockKind::Rwl,
        LockKind::BrLock,
    ];

    let mut best: Option<BenchPoint> = None;
    for kind in &contenders {
        if !kind.supports(&profile) {
            continue;
        }
        let p = run_hashmap_point(
            point_htm(&profile, threads),
            kind,
            UNIFORM_KEYS,
            &spec,
            13,
            &window,
            TraceConfig::Off,
        )
        .point(&format!("hashmap-long-u{update_pct}"), &kind.name());
        println!("{}", p.row());
        if best.as_ref().is_none_or(|b| p.throughput > b.throughput) {
            best = Some(p);
        }
    }
    if let Some(p) = best {
        println!(
            "\nFastest on this host: {} at {:.0} tx/s",
            p.lock, p.throughput
        );
    }
}
