//! Command-line driver for the torture matrix.
//!
//! ```text
//! cargo run -p sprwl-torture --release -- \
//!     [--threads N] [--ops N] [--seed S] [--filter SUBSTR] [--det] [--sched-seed S]
//! ```
//!
//! Runs every case in the default matrix (optionally filtered by name
//! substring), prints a per-case summary line, and exits 1 if any oracle
//! violation is found. `TORTURE_SEED` overrides the base seed the same way
//! it does for the test suite.
//!
//! Bad input exits 2 with one line on stderr: a flag value that does not
//! parse or is missing, a count of 0 (`--threads`, `--ops`, and under
//! `explore` also `--budget` and `--random`), a thread count
//! `htm_sim::HtmConfig::validate` refuses (above 1023), a `--filter` that
//! matches no case (a run that checks nothing is not a pass), or an
//! `explore --frontier` file that is not a frontier of this version.
//!
//! `--det` switches to the deterministic matrix (serialized scheduler,
//! bit-exact replay); `--sched-seed S` pins the schedule seed for every
//! deterministic case, equivalent to setting `TORTURE_SCHED_SEED`.
//!
//! # `torture explore`
//!
//! Systematic schedule-space search instead of seed sampling:
//!
//! ```text
//! torture explore --inject-bug [--budget N] [--max-delays N] [--horizon N]
//!                 [--frontier FILE] [--dump-dir DIR]
//!                 [--seed S] [--threads N] [--ops N] [--expect-violation]
//! torture explore --case SUBSTR ...        # explore a det-matrix case
//! torture explore --random N ...           # random-draw comparison run
//! torture explore --replay-schedule FILE   # bit-exact replay of a trace
//! ```
//!
//! `--inject-bug` runs the seeded ordering bug (SpRWL with its commit-time
//! reader check disabled — the CI smoke target). On a violation the
//! decision trace is written as a schedule file and announced on a
//! `schedule: <path>` line; feed it back with `--replay-schedule` to
//! reproduce the run bit-exactly. `--expect-violation` inverts the exit
//! code so the smoke test fails when the injected bug is *not* found.

use sprwl_torture::explore::{
    explore_random, injected_bug_spec, replay_schedule, try_explore, ExploreOptions,
};
use sprwl_torture::{base_seed, default_matrix, det_matrix, run_case, TortureSpec};
use sprwl_trace::schedule::ScheduleTrace;

/// Prints `torture: <msg>` and exits 2, the usage-error status.
fn usage_error(msg: &str) -> ! {
    eprintln!("torture: {msg}");
    std::process::exit(2);
}

/// The value following `flag`, parsed, if the flag is present. A missing
/// or unparsable value is a usage error.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(v) = args.get(i + 1) else {
        usage_error(&format!("{flag} needs a value"));
    };
    Some(
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("bad value {v:?} for {flag}"))),
    )
}

/// A count flag (`--threads`, `--ops`, `--budget`, `--random`), if
/// present. 0 is a usage error: it would run nothing or cannot run at all.
fn count_flag(args: &[String], flag: &str) -> Option<usize> {
    let n = parse_flag(args, flag)?;
    if n == 0 {
        usage_error(&format!("{flag} must be at least 1"));
    }
    Some(n)
}

/// `--threads`: a count flag the simulator's config must also accept.
fn threads_flag(args: &[String], default: usize) -> usize {
    let n = count_flag(args, "--threads").unwrap_or(default);
    let cfg = htm_sim::HtmConfig {
        max_threads: n,
        ..htm_sim::HtmConfig::default()
    };
    if let Err(e) = cfg.validate() {
        usage_error(&format!("--threads: {e}"));
    }
    n
}

/// Resolves the spec an `explore` invocation operates on.
fn explore_spec(args: &[String], threads: usize, ops: usize) -> TortureSpec {
    if args.iter().any(|a| a == "--inject-bug") {
        return injected_bug_spec(threads, ops);
    }
    let Some(case) = parse_flag::<String>(args, "--case") else {
        eprintln!("torture explore: need --inject-bug, --case SUBSTR, or --replay-schedule FILE");
        std::process::exit(2);
    };
    det_matrix(threads, ops)
        .into_iter()
        .find(|s| s.name.contains(case.as_str()))
        .unwrap_or_else(|| {
            eprintln!("torture explore: no det-matrix case matches {case:?}");
            std::process::exit(2);
        })
}

fn explore_main(args: &[String]) -> ! {
    let threads = threads_flag(args, 2);
    let ops = count_flag(args, "--ops").unwrap_or(12);
    let seed: u64 = parse_flag(args, "--seed").unwrap_or_else(base_seed);

    if let Some(path) = parse_flag::<String>(args, "--replay-schedule") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("torture explore: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let st = ScheduleTrace::from_text(&text).unwrap_or_else(|e| {
            eprintln!("torture explore: malformed schedule {path}: {e}");
            std::process::exit(2);
        });
        // Rebuild the spec the schedule was recorded from: the injected-bug
        // case is synthesized, everything else comes from the det matrix.
        let rec_ops = st
            .get("ops_per_thread")
            .and_then(|v| v.parse().ok())
            .unwrap_or(ops);
        let rec_threads = st.participants as usize;
        let spec = match st.get("case") {
            Some(name) if name == injected_bug_spec(rec_threads, rec_ops).name => {
                injected_bug_spec(rec_threads, rec_ops)
            }
            Some(name) => det_matrix(rec_threads, rec_ops)
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| {
                    eprintln!("torture explore: schedule is from unknown case {name:?}");
                    std::process::exit(2);
                }),
            None => explore_spec(args, rec_threads, rec_ops),
        };
        match replay_schedule(&spec, seed, &st) {
            Ok(rep) => {
                print!("{}", rep.report);
                if rep.reproduced {
                    println!("replay: bit-exact reproduction of {path}");
                    std::process::exit(0);
                }
                eprintln!("replay: NOT reproduced");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("torture explore: {e}");
                std::process::exit(2);
            }
        }
    }

    if let Some(budget) = count_flag(args, "--random") {
        let spec = explore_spec(args, threads, ops);
        let rep = explore_random(&spec, seed, budget);
        println!(
            "explore-random: case {} seed {seed:#x}: {} schedule(s), {} distinct behaviour(s)",
            spec.name, rep.schedules_run, rep.distinct_behaviors
        );
        if let Some(s) = rep.violating_seed {
            println!("violating sched_seed: {s:#x}");
            std::process::exit(1);
        }
        std::process::exit(0);
    }

    let spec = explore_spec(args, threads, ops);
    let d = ExploreOptions::default();
    let opts = ExploreOptions {
        budget: count_flag(args, "--budget").unwrap_or(d.budget),
        max_delays: parse_flag(args, "--max-delays").unwrap_or(d.max_delays),
        horizon: parse_flag(args, "--horizon").unwrap_or(d.horizon),
        frontier: parse_flag::<String>(args, "--frontier").map(Into::into),
        dump_dir: parse_flag::<String>(args, "--dump-dir").map(Into::into),
    };
    let t = std::time::Instant::now();
    let report = try_explore(&spec, seed, &opts).unwrap_or_else(|e| usage_error(&e));
    println!(
        "explore: case {} seed {seed:#x}: {} schedule(s), {} distinct behaviour(s){}, {:.1}ms",
        report.case,
        report.schedules_run,
        report.distinct_behaviors,
        if report.resumed { ", resumed" } else { "" },
        t.elapsed().as_secs_f64() * 1e3,
    );
    let expect = args.iter().any(|a| a == "--expect-violation");
    match report.violation {
        Some(v) => {
            eprintln!("FAIL {}", v.violation);
            if let Some(p) = &v.schedule_path {
                println!("schedule: {}", p.display());
            }
            std::process::exit(if expect { 0 } else { 1 });
        }
        None => {
            if expect {
                eprintln!(
                    "explore: expected a violation but the frontier came up clean \
                     ({} schedules)",
                    report.schedules_run
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("explore") {
        explore_main(&args[1..]);
    }
    let threads = threads_flag(&args, 4);
    let ops = count_flag(&args, "--ops").unwrap_or(250);
    let seed: u64 = parse_flag(&args, "--seed").unwrap_or_else(base_seed);
    let filter: Option<String> = parse_flag(&args, "--filter");
    let det = args.iter().any(|a| a == "--det");
    if let Some(s) = parse_flag::<String>(&args, "--sched-seed") {
        // The library resolves schedule seeds through the env var (which
        // accepts decimal or 0x-hex), so the flag just forwards the raw
        // value — test-suite replays and binary replays share one
        // mechanism, including the error message for malformed seeds.
        std::env::set_var("TORTURE_SCHED_SEED", s);
    }

    let mut matrix = if det {
        det_matrix(threads, ops)
    } else {
        default_matrix(threads, ops)
    };
    if let Some(f) = &filter {
        matrix.retain(|spec| spec.name.contains(f.as_str()));
        if matrix.is_empty() {
            usage_error(&format!("no case matches --filter {f:?}"));
        }
    }
    let mut failures = 0usize;
    let t_all = std::time::Instant::now();
    for spec in &matrix {
        let t_case = std::time::Instant::now();
        match run_case(spec, seed) {
            Ok(s) => println!(
                "ok   {:<28} {:>6} ops  r={:<6} w={:<6} spec={:<6} aborts={:<6} lin={:<7} {:>7.1}ms",
                spec.name,
                spec.total_ops(),
                s.reader_commits,
                s.writer_commits,
                s.speculative_commits,
                s.aborts,
                s.lincheck.label(),
                t_case.elapsed().as_secs_f64() * 1e3,
            ),
            Err(v) => {
                failures += 1;
                eprintln!("FAIL {} ({:.1}ms)", v, t_case.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    println!(
        "torture: {} case(s), {failures} violation(s), base seed {seed:#x}, {:.1}ms total",
        matrix.len(),
        t_all.elapsed().as_secs_f64() * 1e3
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
