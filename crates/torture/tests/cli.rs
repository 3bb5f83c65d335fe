//! The `torture` binary's exit-code contract on bad input: one line on
//! stderr and exit 2 — never a panic (101), and never a vacuous exit 0 from
//! a run that checked nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

use sprwl_torture::det_matrix;
use sprwl_torture::explore::{explore, ExploreOptions};

fn torture(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_torture"))
        .args(args)
        .output()
        .expect("spawn the torture binary")
}

fn assert_usage_error(args: &[&str], expected: &str) {
    let out = torture(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "torture {args:?}; stderr: {stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "torture {args:?}; stderr: {stderr}"
    );
    assert!(
        stderr.contains(expected),
        "torture {args:?}: stderr {stderr:?} lacks {expected:?}"
    );
    assert!(out.stdout.is_empty(), "torture {args:?} ran something");
}

#[test]
fn unparsable_flag_values_exit_2() {
    assert_usage_error(&["--threads", "abc"], r#"bad value "abc" for --threads"#);
    assert_usage_error(&["--seed", "0xZZ"], "--seed");
    // `explore` shares the flag parser.
    assert_usage_error(&["explore", "--inject-bug", "--budget", "many"], "--budget");
}

#[test]
fn a_flag_without_its_value_exits_2() {
    assert_usage_error(&["--ops"], "--ops needs a value");
}

#[test]
fn zero_threads_or_ops_exit_2() {
    assert_usage_error(&["--threads", "0"], "--threads must be at least 1");
    assert_usage_error(&["--ops", "0"], "--ops must be at least 1");
    assert_usage_error(&["--det", "--ops", "0"], "--ops must be at least 1");
    assert_usage_error(&["explore", "--inject-bug", "--threads", "0"], "--threads");
}

#[test]
fn explore_budgets_of_zero_exit_2() {
    assert_usage_error(
        &["explore", "--case", "det-tle", "--budget", "0"],
        "--budget must be at least 1",
    );
    assert_usage_error(
        &["explore", "--case", "det-tle", "--random", "0"],
        "--random must be at least 1",
    );
}

/// A file under the test target's scratch directory holding `text`.
fn scratch_file(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write the scratch file");
    path
}

#[test]
fn a_frontier_file_of_another_format_exits_2() {
    let garbage = scratch_file("garbage.frontier", "not a frontier\n");
    let v1 = scratch_file(
        "v1.frontier",
        "# sprwl-frontier v1 case=det-tle\n# run=3 pruned=2\nq -\n",
    );
    for path in [garbage, v1] {
        let path = path.to_str().expect("utf-8 path");
        let args = ["explore", "--case", "det-tle", "--frontier", path];
        assert_usage_error(&args, "cannot resume frontier");
        assert_usage_error(&args, "is not \"# sprwl-frontier v2 case=\"");
    }
}

/// The `N schedule(s), M distinct behaviour(s)` counts of an `explore`
/// summary line.
fn explore_counts(stdout: &str) -> (usize, usize) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("explore: "))
        .unwrap_or_else(|| panic!("no summary line in {stdout:?}"));
    let count = |unit: &str| -> usize {
        let head = &line[..line.find(unit).unwrap_or_else(|| panic!("{line}"))];
        let n = head.rsplit(' ').next().expect("a count before the unit");
        n.parse().unwrap_or_else(|_| panic!("{line}"))
    };
    (count(" schedule(s)"), count(" distinct behaviour(s)"))
}

#[test]
fn explore_flags_left_unset_take_the_library_defaults() {
    let out = torture(&[
        "explore",
        "--case",
        "det-tle",
        "--threads",
        "2",
        "--ops",
        "3",
        "--seed",
        "7",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let spec = det_matrix(2, 3)
        .into_iter()
        .find(|s| s.name.contains("det-tle"))
        .expect("a det-tle case");
    let lib = explore(&spec, 7, &ExploreOptions::default());
    assert_eq!(
        explore_counts(&stdout),
        (lib.schedules_run, lib.distinct_behaviors),
        "{stdout}"
    );
}

#[test]
fn more_threads_than_the_simulator_supports_exit_2() {
    let limit = "--threads: max_threads is 1024, above the limit of 1023 threads";
    assert_usage_error(&["--threads", "1024"], limit);
    assert_usage_error(&["--det", "--threads", "1024"], limit);
    assert_usage_error(&["explore", "--inject-bug", "--threads", "1024"], limit);
}

#[test]
fn a_filter_matching_no_case_exits_2() {
    assert_usage_error(&["--filter", "no-such-case"], "no case matches");
    assert_usage_error(&["--det", "--filter", "no-such-case"], "no case matches");
}

#[test]
fn a_valid_filtered_run_exits_0() {
    let args = [
        "--det",
        "--filter",
        "det-server",
        "--threads",
        "2",
        "--ops",
        "20",
    ];
    let out = torture(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "torture {args:?}; stdout: {stdout}; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(" 0 violation(s)"), "{stdout}");
}
