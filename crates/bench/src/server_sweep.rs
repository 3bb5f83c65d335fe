//! Server-category sweep: the sharded async KV service of `sprwl-server`
//! driven over a (key distribution × shard count × tracking × worker
//! count) grid on the deterministic scheduler.
//!
//! Unlike the lock-level grids in [`crate::sweep`], every point here is a
//! whole *service* run — hashed routing, per-shard [`sprwl::SpRwl`]s,
//! future-based acquisition, redis-shaped traffic — so the emitted
//! `BENCH_server_<date>.json` additionally carries the per-point
//! [`ShardStat`] breakdown (commits / aborts / commit-mode per shard).
//! Server sweeps are deterministic-only: the service parks futures on
//! wake-lists and measures on the virtual clock, so the same flags produce
//! a bit-identical document on any host, which is what `bench-compare`
//! diffs in CI.

use sprwl::ReaderTracking;
use sprwl_locks::CommitMode;
use sprwl_server::{run_det, ServerConfig, ServerRun};
use sprwl_trace::TraceConfig;
use sprwl_workloads::redis::{KeyDist, RedisSpec};

use crate::results::{BenchPoint, BenchResults, Hardware, ShardStat, SCHEMA_MINOR, SCHEMA_VERSION};

/// Grid description for one server sweep.
#[derive(Debug, Clone)]
pub struct ServerSweepConfig {
    /// Shard counts to sweep (the `#sN` suffix of each workload name).
    pub shard_counts: Vec<usize>,
    /// Worker-pool sizes to sweep (the point's `threads` axis).
    pub workers: Vec<usize>,
    /// Reader-tracking flavours (the point's `lock` axis).
    pub trackings: Vec<ReaderTracking>,
    /// Key-popularity distributions, as `(label, dist)` pairs.
    pub key_dists: Vec<(String, KeyDist)>,
    /// Distinct keys per run (kept small so det runs stay fast; the
    /// generator itself is exercised at service scale in its own tests).
    pub keyspace: u64,
    /// Workload seed (worker `i` draws from `seed ^ ((i + 1) << 24)`).
    pub seed: u64,
    /// Deterministic-scheduler seed.
    pub schedule_seed: u64,
    /// Per-worker warmup operations (stats discarded).
    pub warmup_ops: usize,
    /// Per-worker measured operations.
    pub ops_per_worker: usize,
    /// Results-document category (file name `BENCH_<category>_<date>.json`).
    pub category: String,
}

impl Default for ServerSweepConfig {
    fn default() -> Self {
        Self {
            shard_counts: vec![2, 4],
            workers: vec![2, 4],
            trackings: vec![ReaderTracking::Snzi, ReaderTracking::Bravo],
            key_dists: vec![
                ("uniform".to_string(), KeyDist::Uniform),
                ("zipf".to_string(), KeyDist::Zipfian { theta: 0.99 }),
            ],
            keyspace: 2048,
            seed: 42,
            schedule_seed: 7,
            warmup_ops: 32,
            ops_per_worker: 300,
            category: "server".to_string(),
        }
    }
}

/// The lock label a tracking flavour is reported under, matching the
/// names `bench-sweep --locks` already accepts for the lock-level grids.
pub fn tracking_label(t: ReaderTracking) -> &'static str {
    match t {
        ReaderTracking::Flags => "SpRWL",
        ReaderTracking::Snzi => "SNZI",
        ReaderTracking::Bravo => "BRAVO",
    }
}

/// Digests one finished service run into a results point, per-shard
/// breakdown attached.
pub fn server_point(workload: &str, lock: &str, run: &ServerRun, workers: usize) -> BenchPoint {
    let mut point = BenchPoint::from_stats(workload, lock, workers, &run.merged, run.elapsed_s);
    point.shards = run
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| ShardStat {
            shard: i as u64,
            commits: s.stats.total_commits(),
            aborts: s.stats.total_aborts(),
            commit_mode: CommitMode::ALL.map(|m| s.stats.commits_in(m)),
        })
        .collect();
    point
}

/// Runs the full grid and assembles the results document.
///
/// # Panics
///
/// Panics when a run fails its own post-run invariants (quiescence or
/// store/increment conservation) — a det service run violating either is
/// a harness bug and must not produce a silently-wrong document.
pub fn run_server_sweep(cfg: &ServerSweepConfig, date: &str, git_commit: &str) -> BenchResults {
    let mut points = Vec::new();
    for (dist_label, dist) in &cfg.key_dists {
        for &shards in &cfg.shard_counts {
            for tracking in &cfg.trackings {
                for &workers in &cfg.workers {
                    let server = ServerConfig {
                        shards,
                        workers,
                        warmup_ops: cfg.warmup_ops,
                        ops_per_worker: cfg.ops_per_worker,
                        seed: cfg.seed,
                        schedule_seed: cfg.schedule_seed,
                        spec: RedisSpec {
                            keyspace: cfg.keyspace,
                            key_dist: *dist,
                            ..RedisSpec::service_default()
                        },
                        tracking: *tracking,
                        trace: TraceConfig::Off,
                        lin_marks: false,
                        ..ServerConfig::smoke()
                    };
                    let run = run_det(&server);
                    run.quiescence
                        .as_ref()
                        .unwrap_or_else(|e| panic!("server point not quiescent: {e}"));
                    run.check_conservation()
                        .unwrap_or_else(|e| panic!("server point broke conservation: {e}"));
                    points.push(server_point(
                        &format!("redis-{dist_label}#s{shards}"),
                        tracking_label(*tracking),
                        &run,
                        workers,
                    ));
                }
            }
        }
    }

    let mut params = std::collections::BTreeMap::new();
    params.insert("seed".to_string(), cfg.seed.to_string());
    params.insert("schedule_seed".to_string(), cfg.schedule_seed.to_string());
    params.insert("ops_per_worker".to_string(), cfg.ops_per_worker.to_string());
    params.insert("warmup_ops".to_string(), cfg.warmup_ops.to_string());
    params.insert("keyspace".to_string(), cfg.keyspace.to_string());

    BenchResults {
        schema_version: SCHEMA_VERSION,
        schema_minor: SCHEMA_MINOR,
        category: cfg.category.clone(),
        date: date.to_string(),
        git_commit: git_commit.to_string(),
        mode: "det".to_string(),
        capacity_profile: "service".to_string(),
        hardware: Hardware::probe(),
        params,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerSweepConfig {
        ServerSweepConfig {
            shard_counts: vec![2, 4],
            workers: vec![2],
            trackings: vec![ReaderTracking::Snzi, ReaderTracking::Bravo],
            key_dists: vec![("uniform".to_string(), KeyDist::Uniform)],
            keyspace: 512,
            ops_per_worker: 96,
            warmup_ops: 8,
            ..ServerSweepConfig::default()
        }
    }

    #[test]
    fn grid_covers_shards_and_trackings_with_shard_breakdowns() {
        let r = run_server_sweep(&tiny(), "2026-08-09", "test");
        assert_eq!(r.points.len(), 4);
        assert_eq!(r.category, "server");
        for p in &r.points {
            let shards: usize = p.workload.rsplit("#s").next().unwrap().parse().unwrap();
            assert_eq!(p.shards.len(), shards);
            assert!(p.commits > 0);
            // The shard tallies decompose the merged point exactly.
            let total: u64 = p.shards.iter().map(|s| s.commits).sum();
            assert_eq!(total, p.commits);
        }
        assert!(r.points.iter().any(|p| p.lock == "SNZI"));
        assert!(r.points.iter().any(|p| p.lock == "BRAVO"));
    }

    #[test]
    fn document_is_deterministic_and_round_trips() {
        let cfg = tiny();
        let a = run_server_sweep(&cfg, "2026-08-09", "test");
        let b = run_server_sweep(&cfg, "2026-08-09", "test");
        assert_eq!(a, b, "det server sweep must be bit-reproducible");
        let json = a.to_json();
        let back = BenchResults::from_json(&json).expect("parses");
        assert_eq!(a, back);
        assert_eq!(json, back.to_json());
        assert_eq!(back.file_name(), "BENCH_server_2026-08-09.json");
    }
}
