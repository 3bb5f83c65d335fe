//! The motivating scenario from the paper's introduction: a concurrent map
//! whose read operations are long (range-scan-like, multiple lookups per
//! critical section) and therefore exceed HTM capacity. SpRWL runs those
//! readers uninstrumented; plain lock elision (TLE) keeps falling back to
//! the global lock.
//!
//! Run with: `cargo run --release --example concurrent_map`

use std::time::Duration;

use sprwl_repro::bench::{
    point_htm, run_hashmap_point, BenchPoint, LockKind, SweepMode, UNIFORM_KEYS,
};
use sprwl_repro::prelude::*;
use sprwl_trace::TraceConfig;

fn main() {
    let profile = CapacityProfile::POWER8_SIM;
    let threads = 4;
    let spec = HashmapSpec::paper(
        &profile, /* long readers */ true, /* 10% updates */ 10,
    );
    let window = SweepMode::Wall {
        warmup: Duration::from_millis(40),
        duration: Duration::from_millis(400),
    };

    println!("Concurrent hashmap, 10-lookup readers, 10% updates, {threads} threads");
    println!(
        "(each read critical section overflows the {} capacity profile)\n",
        profile.name
    );
    println!("{}", BenchPoint::header());

    for kind in [
        LockKind::Sprwl(SprwlConfig::default()),
        LockKind::Tle,
        LockKind::Rwl,
        LockKind::BrLock,
    ] {
        let m = run_hashmap_point(
            point_htm(&profile, threads),
            &kind,
            UNIFORM_KEYS,
            &spec,
            7,
            &window,
            TraceConfig::Off,
        );
        println!("{}", m.point("hashmap-long-u10", &kind.name()).row());
    }

    println!(
        "\nReading the table: SpRWL's readers commit in the `Unin%` column \
         (uninstrumented — immune to capacity limits), while TLE's land in \
         `GL%` (serialized on the fallback lock after capacity aborts). \
         That column is the paper's whole point."
    );
}
