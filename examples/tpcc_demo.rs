//! TPC-C under SpRWL (the paper's §4.2 experiment, example-sized): runs
//! the standard mix for a moment, prints throughput plus the commit-mode
//! breakdown, and verifies the database's consistency conditions.
//!
//! Run with: `cargo run --release --example tpcc_demo`

use std::time::Duration;

use sprwl_repro::bench::{point_htm, run_tpcc_point, BenchPoint, LockKind, SweepMode};
use sprwl_repro::prelude::*;
use sprwl_repro::workloads::tpcc::TpccScale;

fn main() {
    let threads = 4;
    let profile = CapacityProfile::POWER8_SIM;
    let scale = TpccScale::with_warehouses(threads as u32);
    let window = SweepMode::Wall {
        warmup: Duration::from_millis(40),
        duration: Duration::from_millis(400),
    };

    println!(
        "TPC-C: {} warehouses, mix = Stock-Level 31% / Delivery 4% / \
         Order-Status 4% / Payment 43% / New-Order 18%\n",
        scale.warehouses
    );
    println!("{}", BenchPoint::header());

    for kind in [
        LockKind::Sprwl(SprwlConfig::default()),
        LockKind::Sprwl(SprwlConfig::with_snzi()),
        LockKind::Tle,
        LockKind::RwLe,
        LockKind::Rwl,
    ] {
        // TPC-C consistency conditions must hold whatever the lock: the
        // point audits them after its run and panics on a violation.
        let m = run_tpcc_point(
            point_htm(&profile, threads),
            &kind,
            scale,
            &Mix::PAPER,
            11,
            &window,
        );
        println!("{}", m.point("tpcc-paper", &kind.name()).row());
    }
    println!("\nAll consistency audits passed (W_YTD == Σ D_YTD, delivery queues sane).");
}
