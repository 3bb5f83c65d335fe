//! Capacity-category sweep: big-footprint writers across capacity
//! profiles.
//!
//! Two workloads whose *writers* overflow HTM budgets — TPC-C under the
//! delivery-pressure mix ([`Mix::DELIVERY_SWEEP`]) and the sorted-list
//! range-scan ([`RangeScanSpec::capacity_sweep`]) — run under the paper's
//! default SpRWL over every capacity profile in {broadwell-sim,
//! power8-sim, tiny}. The commit modes and abort causes per profile show
//! how much of each workload the footprint pushes onto the global lock.
//!
//! Capacity sweeps are deterministic-only, like the server category: fixed
//! work on the serialized scheduler, measured on the virtual clock, so the
//! same flags produce a bit-identical `BENCH_capacity_<date>.json` on any
//! host. The profile is carried in each workload name
//! (`tpcc-delivery@power8-sim`) rather than the document header, since one
//! document spans all three profiles; the header uses the sentinel
//! `capacity` the way server documents use `service`.

use htm_sim::CapacityProfile;
use rand::Rng;
use sprwl::SprwlConfig;
use sprwl_locks::SectionId;
use sprwl_trace::TraceConfig;
use sprwl_workloads::tpcc::TpccScale;
use sprwl_workloads::{Mix, RangeScanSpec};

use crate::results::{BenchPoint, BenchResults, Hardware, SCHEMA_MINOR, SCHEMA_VERSION};
use crate::sweep::{point_htm, run_tpcc_point, run_workers, LockKind, SweepMode};

/// Read sections of the range-scan workload.
pub const SEC_RANGE_READ: SectionId = SectionId(0);
/// Write sections of the range-scan workload (the big-footprint writer).
pub const SEC_RANGE_WRITE: SectionId = SectionId(1);

/// Grid description for one capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacitySweepConfig {
    /// Capacity profiles to sweep (each becomes a `@<name>` workload
    /// suffix).
    pub profiles: Vec<CapacityProfile>,
    /// Worker threads per point.
    pub threads: usize,
    /// Workload seed (thread `i` draws from `seed ^ ((i + 1) << 24)`).
    pub seed: u64,
    /// Deterministic-scheduler seed.
    pub schedule_seed: u64,
    /// Measured operations per thread.
    pub ops_per_thread: usize,
    /// Results-document category (file name `BENCH_<category>_<date>.json`).
    pub category: String,
}

impl Default for CapacitySweepConfig {
    fn default() -> Self {
        Self {
            profiles: vec![
                CapacityProfile::BROADWELL_SIM,
                CapacityProfile::POWER8_SIM,
                CapacityProfile::TINY,
            ],
            threads: 2,
            seed: 42,
            schedule_seed: 7,
            ops_per_thread: 240,
            category: "capacity".to_string(),
        }
    }
}

impl CapacitySweepConfig {
    /// Fixed work on the serialized scheduler, no warmup.
    fn mode(&self) -> SweepMode {
        SweepMode::Det {
            warmup_ops: 0,
            ops_per_thread: self.ops_per_thread,
            schedule_seed: self.schedule_seed,
        }
    }
}

/// The TPC-C scale of the capacity sweep: the district count is raised
/// past the spec's 10 so a full-work Delivery (one order per district,
/// backlog guaranteed by [`Mix::DELIVERY_SWEEP`]) overflows even POWER8's
/// 128-line write budget, and the tables are otherwise shrunk to keep
/// serialized det runs fast.
///
/// One warehouse **per thread**: the capacity sweep isolates the footprint
/// axis, and a shared warehouse drowns it — at the default scale writers
/// conflict-abort on the hot district rows long before their read/write
/// sets reach the HTM budget, so every point degenerates to the same
/// conflict-driven fallback numbers. Home-warehouse partitioning (plus
/// TPC-C's 15% remote payments for residual sharing) lets big deliveries
/// actually hit the capacity wall the sweep measures.
pub fn capacity_tpcc_scale(threads: usize) -> TpccScale {
    TpccScale {
        warehouses: threads as u32,
        districts: 16,
        customers_per_district: 48,
        items: 256,
        order_ring: 96,
        initial_orders: 24,
    }
}

/// One TPC-C delivery-pressure point: fixed ops under the det scheduler,
/// audited by [`run_tpcc_point`].
fn tpcc_delivery_point(
    cfg: &CapacitySweepConfig,
    profile: CapacityProfile,
    kind: &LockKind,
) -> BenchPoint {
    run_tpcc_point(
        point_htm(&profile, cfg.threads),
        kind,
        capacity_tpcc_scale(cfg.threads),
        &Mix::DELIVERY_SWEEP,
        cfg.seed,
        &cfg.mode(),
    )
    .point(&format!("tpcc-delivery@{}", profile.name), &kind.name())
}

/// One range-scan point: long range readers, back-half range writers.
fn range_scan_point(
    cfg: &CapacitySweepConfig,
    profile: CapacityProfile,
    kind: &LockKind,
) -> BenchPoint {
    let spec = RangeScanSpec::capacity_sweep();
    let mode = cfg.mode();
    let htm = mode.runtime(
        point_htm(&profile, cfg.threads),
        spec.cells_needed(cfg.threads),
    );
    let lock = kind.build(&htm);
    let list = spec.build(htm.memory(), cfg.threads);
    let m = run_workers(&htm, cfg.seed, &mode, TraceConfig::Off, |ctx| {
        let rng = &mut ctx.rng;
        if rng.gen_range(0..100u32) < spec.update_pct {
            let (lo, hi) = spec.write_window(rng);
            lock.write_section(ctx.t, SEC_RANGE_WRITE, &mut |a| {
                list.range_update(a, lo, hi, 1)
            });
        } else {
            let (lo, hi) = spec.read_window(rng);
            lock.read_section(ctx.t, SEC_RANGE_READ, &mut |a| {
                list.range_sum(a, lo, hi).map(|(count, sum)| count ^ sum)
            });
        }
    });
    // Range updates only touch values; the key structure must checksum
    // exactly as populated.
    let mut d = htm.direct(0);
    let (len, _) = list
        .checksum(&mut d)
        .expect("untracked checksum cannot abort");
    assert_eq!(
        len, spec.population,
        "range-scan@{}: list structure corrupt",
        profile.name
    );
    m.point(&format!("range-scan@{}", profile.name), &kind.name())
}

/// Runs the full (profile × workload) grid and assembles the results
/// document.
///
/// # Panics
///
/// Panics when a point fails its workload's own invariants (TPC-C audits,
/// list checksum) — a det point violating either is a harness bug and must
/// not produce a silently-wrong document.
pub fn run_capacity_sweep(cfg: &CapacitySweepConfig, date: &str, git_commit: &str) -> BenchResults {
    let kind = LockKind::Sprwl(SprwlConfig::default());
    let mut points = Vec::new();
    for &profile in &cfg.profiles {
        points.push(tpcc_delivery_point(cfg, profile, &kind));
        points.push(range_scan_point(cfg, profile, &kind));
    }

    let mut params = std::collections::BTreeMap::new();
    params.insert("seed".to_string(), cfg.seed.to_string());
    params.insert("schedule_seed".to_string(), cfg.schedule_seed.to_string());
    params.insert("ops_per_thread".to_string(), cfg.ops_per_thread.to_string());
    params.insert("threads".to_string(), cfg.threads.to_string());
    let profiles: Vec<&str> = cfg.profiles.iter().map(|p| p.name).collect();
    params.insert("profiles".to_string(), crate::sweep::join(&profiles));

    BenchResults {
        schema_version: SCHEMA_VERSION,
        schema_minor: SCHEMA_MINOR,
        category: cfg.category.clone(),
        date: date.to_string(),
        git_commit: git_commit.to_string(),
        mode: "det".to_string(),
        capacity_profile: "capacity".to_string(),
        hardware: Hardware::probe(),
        params,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CapacitySweepConfig {
        CapacitySweepConfig {
            profiles: vec![CapacityProfile::POWER8_SIM],
            threads: 2,
            ops_per_thread: 160,
            ..CapacitySweepConfig::default()
        }
    }

    #[test]
    fn grid_covers_both_workloads() {
        let r = run_capacity_sweep(&tiny(), "2026-08-09", "test");
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.category, "capacity");
        assert_eq!(r.capacity_profile, "capacity");
        for wl in ["tpcc-delivery@power8-sim", "range-scan@power8-sim"] {
            let p = r
                .points
                .iter()
                .find(|p| p.workload == wl && p.lock == "SpRWL")
                .unwrap_or_else(|| panic!("missing point {wl}"));
            assert!(p.commits > 0);
        }
    }

    #[test]
    fn document_is_deterministic_and_round_trips() {
        let cfg = tiny();
        let a = run_capacity_sweep(&cfg, "2026-08-09", "test");
        let b = run_capacity_sweep(&cfg, "2026-08-09", "test");
        assert_eq!(a, b, "det capacity sweep must be bit-reproducible");
        let json = a.to_json();
        let back = BenchResults::from_json(&json).expect("parses");
        assert_eq!(a, back);
        assert_eq!(json, back.to_json());
        assert_eq!(back.file_name(), "BENCH_capacity_2026-08-09.json");
    }
}
