//! The `torture` binary's exit-code contract on bad input: one line on
//! stderr and exit 2 — never a panic (101), and never a vacuous exit 0 from
//! a run that checked nothing.

use std::process::{Command, Output};

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
