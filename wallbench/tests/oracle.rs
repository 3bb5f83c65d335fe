//! The benchmark's exit contract: a clean run prints a correct result line,
//! and a system corrupted after the run fails the end-of-run check with a
//! non-zero exit and no result line.

use std::process::{Command, Output};

fn wallbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn run(workload: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    args.extend_from_slice(extra);
    wallbench(&args)
}

#[test]
fn clean_run_ends_with_a_correct_result_line() {
    let out = run("tpcc-power8", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with(r#"{"correct": true, "attempted": "#),
        "{last}"
    );
    for name in [
        "throughput_ops_s",
        "read_p99_us",
        "write_p50_us",
        "setup_s",
        "peak_rss_mib",
    ] {
        assert!(
            last.contains(&format!(r#""{name}": {{"value": "#)),
            "{name} missing: {last}"
        );
    }
}

#[test]
fn injected_faults_fail_the_end_of_run_check() {
    // TPC-C leaks a reader admission (quiescence); KV adds an increment no
    // client committed (conservation).
    for workload in ["tpcc-power8", "kv-get-uniform"] {
        let out = run(workload, &["--inject-fault"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{workload}: {stderr}");
        assert!(
            stderr.contains("end-of-run check failed"),
            "{workload}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains(r#""correct""#),
            "{workload} printed a result line"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "kv-set-zipf",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "kv-set-zipf",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "kv-set-zipf",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "kv-set-zipf", "--seed", "1", "--seconds", "1"],
    ] {
        let out = wallbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
