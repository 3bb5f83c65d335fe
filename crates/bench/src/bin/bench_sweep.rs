//! `bench-sweep` — runs a thread-sweep grid and writes one
//! `BENCH_<category>_<date>.json` results document.
//!
//! ```text
//! bench-sweep [--det | --wall]
//!             [--threads 1,2,4] [--seed 42]
//!             [--ops 1500] [--warmup-ops 150] [--schedule-seed 7]   (det)
//!             [--secs 0.25] [--warmup-secs 0.05]                    (wall)
//!             [--locks SpRWL,TLE,RWL] [--workloads read-only,...]
//!             [--fill 1024,4096,16384]
//!             [--profile broadwell-sim | power8-sim]
//!             [--trace off|ring:CAP|sampled:RATE:CAP]...
//!             [--capture FILE.jsonl|FILE.json]
//!             [--server [--shards 2,4]] [--capacity] [--figure NAME]
//!             [--category sweep] [--out DIR]
//!             [--date YYYY-MM-DD] [--commit HASH]
//! ```
//!
//! `--det` (the default) measures fixed work on the deterministic
//! scheduler's virtual clock: the document is bit-identical for the same
//! flags on any host, which is what makes it diffable in CI via
//! `bench-compare`. `--wall` races a wall-clock window instead. `--date`
//! and `--commit` override the provenance stamps (the defaults probe the
//! system clock and `git rev-parse`).
//!
//! `--trace` (repeatable) adds a tracing policy to the sweep grid; with
//! more than one policy each point's workload name is suffixed
//! `@<policy>`, so one document holds e.g. `off` next to `sampled:64:4096`
//! numbers for overhead comparison. `--capture` re-runs the grid's last
//! (workload, lock, threads) point under the last `--trace` policy and
//! writes its per-thread traces: Chrome trace-event JSON (load it in
//! Perfetto) when the path ends in `.json`, JSONL (feed it to
//! `sprwl-analyze`) otherwise.
//!
//! `--server` switches to the service grid: the `sprwl-server` sharded
//! async KV store under redis-shaped load, swept over `--shards N,N` ×
//! tracking flavours × `--threads` worker counts. Server sweeps are
//! deterministic-only (`--wall` is rejected); `--locks` restricts the
//! tracking flavours (`SpRWL`, `SNZI`, `BRAVO` — defaults to SNZI and
//! BRAVO), and the emitted category defaults to `server`.
//!
//! `--capacity` switches to the capacity grid: big-footprint writers
//! (TPC-C under the delivery-pressure mix, sorted-list range scans) across
//! every capacity profile (broadwell-sim, power8-sim, tiny — or just the
//! one named by `--profile`), each measured with plain SpRWL and with the
//! capacity-stretching ladder on. Capacity sweeps are deterministic-only;
//! the last `--threads` entry is the worker count, and the emitted
//! category defaults to `capacity`.
//!
//! A `--threads` entry that `htm_sim::HtmConfig::validate` refuses (above
//! 1023) exits 2 with one line on stderr.
//!
//! `--figure NAME` runs one of the paper's figures as a fixed grid
//! (`fig3` … `fig7`, or `ablation`; see `sprwl_bench::figures`) over the
//! `--threads` sweep, wall-clock only (`--secs`, `--warmup-secs`). The grid
//! is fixed, so `--figure` exits 2 next to any flag that picks another grid
//! or reshapes this one: `--det`, `--ops`, `--warmup-ops`, `--schedule-seed`,
//! `--server`, `--shards`, `--capacity`, `--locks`, `--workloads`, `--fill`,
//! `--profile`, `--trace` or `--capture`. The emitted category defaults to
//! the figure name.

use std::collections::HashSet;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use sprwl::{ReaderTracking, SprwlConfig};
use sprwl_bench::results::{git_commit, today};
use sprwl_bench::server_sweep::{run_server_sweep, ServerSweepConfig};
use sprwl_bench::sweep::{point_htm, run_hashmap_point, run_sweep, SweepConfig, SweepMode};
use sprwl_bench::{run_figure, BenchPoint, BenchResults, LockKind, FIGURES};
use sprwl_trace::TraceConfig;
use sprwl_workloads::SweepWorkload;

fn parse_lock(name: &str) -> Option<LockKind> {
    Some(match name {
        "SpRWL" => LockKind::Sprwl(SprwlConfig::default()),
        "SNZI" => LockKind::Sprwl(SprwlConfig::with_snzi()),
        "BRAVO" => LockKind::Sprwl(SprwlConfig::with_bravo()),
        "TLE" => LockKind::Tle,
        "RW-LE" => LockKind::RwLe,
        "RWL" => LockKind::Rwl,
        "BRLock" => LockKind::BrLock,
        _ => return None,
    })
}

/// The flags `--figure` refuses: each picks another grid, or reshapes or
/// re-times the figure's fixed one.
const NOT_WITH_FIGURE: [&str; 13] = [
    "--det",
    "--ops",
    "--warmup-ops",
    "--schedule-seed",
    "--server",
    "--shards",
    "--capacity",
    "--locks",
    "--workloads",
    "--fill",
    "--profile",
    "--trace",
    "--capture",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-sweep [--det|--wall] [--threads N,N,..] [--seed N] \
         [--ops N] [--warmup-ops N] [--schedule-seed N] [--secs F] [--warmup-secs F] \
         [--locks A,B,..] [--workloads A,B,..] [--fill N,N,..] [--profile NAME] \
         [--trace off|ring:CAP|sampled:RATE:CAP].. [--capture FILE.jsonl|FILE.json] \
         [--server] [--shards N,N,..] [--capacity] [--figure NAME] \
         [--category NAME] [--out DIR] [--date YYYY-MM-DD] [--commit HASH]"
    );
    ExitCode::from(2)
}

/// Prints the document's table and writes it into `out_dir`.
fn emit(results: &BenchResults, out_dir: &Path) -> ExitCode {
    println!(
        "# {} @ {} ({}, {}, {} points)",
        results.file_name(),
        results.git_commit,
        results.mode,
        results.capacity_profile,
        results.points.len()
    );
    println!("{}", BenchPoint::header());
    for p in &results.points {
        println!("{}", p.row());
    }
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let path = out_dir.join(results.file_name());
    if let Err(e) = std::fs::write(&path, results.to_json()) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    ExitCode::SUCCESS
}

/// The tracking flavour a `--locks` name selects under `--server`, if any.
fn parse_tracking(name: &str) -> Option<ReaderTracking> {
    Some(match name {
        "SpRWL" => ReaderTracking::Flags,
        "SNZI" => ReaderTracking::Snzi,
        "BRAVO" => ReaderTracking::Bravo,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let mut cfg = SweepConfig::default();
    let mut det = true;
    let mut ops = 1500usize;
    let mut warmup_ops = 150usize;
    let mut schedule_seed = 7u64;
    let mut secs = 0.25f64;
    let mut warmup_secs = 0.05f64;
    let mut out_dir = std::path::PathBuf::from(".");
    let mut date = today();
    let mut commit = git_commit();
    let mut trace_axis: Vec<(String, TraceConfig)> = Vec::new();
    let mut capture_path: Option<std::path::PathBuf> = None;
    let mut server = false;
    let mut capacity = false;
    let mut shards: Vec<usize> = vec![2, 4];
    let mut locks_raw: Option<String> = None;
    let mut figure: Option<String> = None;
    // Every flag given, for the checks that depend on what was asked for
    // rather than on the value it left behind.
    let mut seen = HashSet::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        seen.insert(a.clone());
        // The flag's value, or a usage error.
        macro_rules! take {
            ($flag:expr) => {
                match args.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("error: {} needs a value", $flag);
                        return usage();
                    }
                }
            };
        }
        macro_rules! parse_val {
            ($flag:expr, $ty:ty) => {{
                let v = take!($flag);
                match v.parse::<$ty>() {
                    Ok(p) => p,
                    Err(_) => {
                        eprintln!("error: bad value {v:?} for {}", $flag);
                        return usage();
                    }
                }
            }};
        }
        // A comma-separated list of positive integers.
        macro_rules! parse_list {
            ($flag:expr, $ty:ty) => {{
                let v = take!($flag);
                let parsed: Result<Vec<$ty>, _> =
                    v.split(',').map(|t| t.trim().parse::<$ty>()).collect();
                match parsed {
                    Ok(l) if !l.is_empty() && l.iter().all(|&n| n >= 1) => l,
                    _ => {
                        eprintln!("error: bad list {v:?} for {}", $flag);
                        return usage();
                    }
                }
            }};
        }
        match a.as_str() {
            "--det" => det = true,
            "--wall" => det = false,
            "--server" => server = true,
            "--capacity" => capacity = true,
            "--figure" => figure = Some(take!("--figure")),
            "--shards" => shards = parse_list!("--shards", usize),
            "--seed" => cfg.seed = parse_val!("--seed", u64),
            "--ops" => ops = parse_val!("--ops", usize),
            "--warmup-ops" => warmup_ops = parse_val!("--warmup-ops", usize),
            "--schedule-seed" => schedule_seed = parse_val!("--schedule-seed", u64),
            "--secs" => secs = parse_val!("--secs", f64),
            "--warmup-secs" => warmup_secs = parse_val!("--warmup-secs", f64),
            "--threads" => cfg.threads = parse_list!("--threads", usize),
            // Deferred: the same flag names lock schemes for the
            // lock-level grid and tracking flavours under --server.
            "--locks" => locks_raw = Some(take!("--locks")),
            "--fill" => cfg.fill_levels = parse_list!("--fill", u64),
            "--workloads" => {
                let v = take!("--workloads");
                let mut ws = Vec::new();
                for name in v.split(',') {
                    match SweepWorkload::parse(name.trim()) {
                        Some(w) => ws.push(w),
                        None => {
                            eprintln!(
                                "error: unknown workload {name:?} (expected read-only, \
                                 independent-write, hot-key or mixed-90-10)"
                            );
                            return usage();
                        }
                    }
                }
                cfg.workloads = ws;
            }
            "--profile" => {
                let v = take!("--profile");
                cfg.profile = match v.as_str() {
                    "broadwell-sim" => htm_sim::CapacityProfile::BROADWELL_SIM,
                    "power8-sim" => htm_sim::CapacityProfile::POWER8_SIM,
                    "tiny" => htm_sim::CapacityProfile::TINY,
                    _ => {
                        eprintln!("error: unknown profile {v:?}");
                        return usage();
                    }
                };
            }
            "--trace" => {
                let v = take!("--trace");
                match TraceConfig::parse(&v) {
                    Some(tc) => trace_axis.push((v, tc)),
                    None => {
                        eprintln!(
                            "error: bad trace policy {v:?} (expected off, ring:CAP or \
                             sampled:RATE:CAP)"
                        );
                        return usage();
                    }
                }
            }
            "--capture" => capture_path = Some(take!("--capture").into()),
            "--category" => cfg.category = take!("--category"),
            "--out" => out_dir = take!("--out").into(),
            "--date" => date = take!("--date"),
            "--commit" => commit = take!("--commit"),
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown flag {other:?}");
                return usage();
            }
        }
    }

    if let Some(e) = cfg
        .threads
        .iter()
        .find_map(|&n| point_htm(&cfg.profile, n).validate().err())
    {
        eprintln!("error: --threads: {e}");
        return ExitCode::from(2);
    }

    let category_set = seen.contains("--category");
    let wall_requested = seen.contains("--wall");
    if let Some(name) = figure {
        if let Some(flag) = NOT_WITH_FIGURE.iter().find(|f| seen.contains(**f)) {
            eprintln!("error: --figure runs a fixed wall-clock grid and takes no {flag}");
            return ExitCode::from(2);
        }
        let Some(mut results) = run_figure(
            &name,
            &cfg.threads,
            cfg.seed,
            Duration::from_secs_f64(warmup_secs),
            Duration::from_secs_f64(secs),
            &date,
            &commit,
        ) else {
            eprintln!(
                "error: unknown figure {name:?} (expected one of {})",
                FIGURES.join(", ")
            );
            return usage();
        };
        if category_set {
            results.category = cfg.category.clone();
        }
        return emit(&results, &out_dir);
    }

    if capacity {
        if server {
            eprintln!("error: --capacity and --server are mutually exclusive grids");
            return ExitCode::from(2);
        }
        if wall_requested {
            eprintln!(
                "error: --capacity is deterministic-only (fixed work on the virtual \
                 clock makes the document diffable in CI); drop --wall"
            );
            return ExitCode::from(2);
        }
        if capture_path.is_some() {
            eprintln!("error: --capture applies to the lock-level grid, not --capacity");
            return ExitCode::from(2);
        }
        let mut ccfg = sprwl_bench::CapacitySweepConfig {
            seed: cfg.seed,
            schedule_seed,
            threads: *cfg.threads.last().expect("thread list is never empty"),
            ..sprwl_bench::CapacitySweepConfig::default()
        };
        if seen.contains("--ops") {
            ccfg.ops_per_thread = ops;
        }
        if seen.contains("--profile") {
            ccfg.profiles = vec![cfg.profile];
        }
        if category_set {
            ccfg.category = cfg.category.clone();
        }
        let results = sprwl_bench::run_capacity_sweep(&ccfg, &date, &commit);
        return emit(&results, &out_dir);
    }

    if server {
        if wall_requested {
            eprintln!(
                "error: --server is deterministic-only (the service parks futures on \
                 wake-lists and measures on the virtual clock); drop --wall"
            );
            return ExitCode::from(2);
        }
        if capture_path.is_some() {
            eprintln!("error: --capture applies to the lock-level grid, not --server");
            return ExitCode::from(2);
        }
        let mut scfg = ServerSweepConfig {
            shard_counts: shards,
            workers: cfg.threads.clone(),
            seed: cfg.seed,
            schedule_seed,
            warmup_ops,
            ops_per_worker: ops,
            ..ServerSweepConfig::default()
        };
        if category_set {
            scfg.category = cfg.category.clone();
        }
        if let Some(raw) = &locks_raw {
            let mut trackings = Vec::new();
            for name in raw.split(',') {
                match parse_tracking(name.trim()) {
                    Some(t) => trackings.push(t),
                    None => {
                        eprintln!(
                            "error: unknown tracking {name:?} under --server (expected \
                             SpRWL, SNZI or BRAVO)"
                        );
                        return usage();
                    }
                }
            }
            scfg.trackings = trackings;
        }
        let results = run_server_sweep(&scfg, &date, &commit);
        return emit(&results, &out_dir);
    }

    if let Some(raw) = &locks_raw {
        let mut locks = Vec::new();
        for name in raw.split(',') {
            match parse_lock(name.trim()) {
                Some(l) => locks.push(l),
                None => {
                    eprintln!(
                        "error: unknown lock {name:?} (expected SpRWL, SNZI, BRAVO, \
                         TLE, RW-LE, RWL or BRLock)"
                    );
                    return usage();
                }
            }
        }
        cfg.locks = locks;
    }

    if det {
        for l in &cfg.locks {
            if !l.det_compatible() {
                eprintln!(
                    "note: skipping {} under --det (it parks on OS primitives the serialized \
                     scheduler cannot see); use --wall to measure it",
                    l.name()
                );
            }
        }
    }
    cfg.mode = if det {
        SweepMode::Det {
            warmup_ops,
            ops_per_thread: ops,
            schedule_seed,
        }
    } else {
        SweepMode::Wall {
            warmup: Duration::from_secs_f64(warmup_secs),
            duration: Duration::from_secs_f64(secs),
        }
    };

    if !trace_axis.is_empty() {
        cfg.traces = trace_axis;
    }

    let results = run_sweep(&cfg, &date, &commit);
    let code = emit(&results, &out_dir);
    if code != ExitCode::SUCCESS {
        return code;
    }

    // One more pass over the grid's last point, traces harvested, for
    // offline analysis (`sprwl-analyze`). Deterministic mode re-produces
    // the exact run the document measured.
    if let Some(capture) = capture_path {
        let Some((label, trace)) = cfg.traces.last() else {
            unreachable!("cfg.traces is never empty");
        };
        if matches!(trace, TraceConfig::Off) {
            eprintln!("note: capturing with trace policy `off` — the capture will be vacuous");
        }
        let det = matches!(cfg.mode, SweepMode::Det { .. });
        let lock = cfg
            .locks
            .iter()
            .rev()
            .find(|l| l.supports(&cfg.profile) && (!det || l.det_compatible()));
        let (Some(lock), Some(&workload), Some(&threads)) =
            (lock, cfg.workloads.last(), cfg.threads.last())
        else {
            eprintln!("error: --capture needs at least one runnable grid point");
            return ExitCode::from(2);
        };
        let traces = run_hashmap_point(
            point_htm(&cfg.profile, threads),
            lock,
            workload,
            &workload.spec(),
            cfg.seed,
            &cfg.mode,
            *trace,
        )
        .traces;
        let written = if capture.extension().is_some_and(|e| e == "json") {
            sprwl_trace::export::write_chrome_file(&capture, &traces)
        } else {
            sprwl_trace::export::write_jsonl_file(&capture, &traces)
        };
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", capture.display());
            return ExitCode::from(2);
        }
        println!(
            "captured {} ({} {:?} x{threads}, trace {label})",
            capture.display(),
            lock.name(),
            workload.name(),
        );
    }
    ExitCode::SUCCESS
}
