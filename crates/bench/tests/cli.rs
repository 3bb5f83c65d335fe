//! `bench-sweep --figure`: a known figure writes its document; a figure
//! next to a flag that reshapes or re-times the grid, or an unknown name,
//! is a usage error (exit 2) that runs nothing. `--locks` names only the
//! paper's schemes (under `--server`, only the three reader trackings),
//! `--threads` stays within the simulator's limit, and a run that would
//! measure nothing (no ops, no window) exits 2 instead of writing zeros.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_sweep(args: &[&str], out: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-sweep"))
        .args(args)
        .args(["--out", out.to_str().expect("utf-8 path")])
        .args(["--date", "2026-01-02", "--commit", "test"])
        .output()
        .expect("bench-sweep runs")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn figure_writes_its_document() {
    let out = out_dir("figure-fig5");
    let run = bench_sweep(
        &[
            "--figure",
            "fig5",
            "--wall",
            "--threads",
            "1",
            "--secs",
            "0.01",
        ],
        &out,
    );
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = std::fs::read_to_string(out.join("BENCH_fig5_2026-01-02.json"))
        .expect("BENCH_fig5 document written");
    let r = sprwl_bench::BenchResults::from_json(&doc).expect("parses");
    assert_eq!(r.mode, "wall");
    assert_eq!(r.points.len(), 5, "TLE plus four scheduling variants");
}

#[test]
fn figure_refuses_grid_shaping_flags_and_unknown_names() {
    let out = out_dir("figure-refused");
    for extra in [
        &["--figure", "fig5", "--det"][..],
        &["--figure", "fig5", "--server"],
        &["--figure", "fig5", "--capacity"],
        &["--figure", "fig5", "--locks", "TLE"],
        &["--figure", "fig5", "--ops", "400"],
        &["--figure", "fig5", "--warmup-ops", "10"],
        &["--figure", "fig5", "--schedule-seed", "3"],
        &["--figure", "fig5", "--shards", "2"],
        &["--figure", "fig9"],
    ] {
        let run = bench_sweep(extra, &out);
        assert_eq!(run.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("error:"), "{extra:?}: {stderr}");
    }
    assert!(!out.exists(), "a refused figure must write nothing");
}

#[test]
fn locks_outside_the_paper_set_are_unknown() {
    let out = out_dir("locks-refused");
    for lock in ["PF-RWL", "BRLock+bias"] {
        let run = bench_sweep(&["--det", "--locks", lock], &out);
        assert_eq!(run.status.code(), Some(2), "{lock}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("error: unknown lock"), "{lock}: {stderr}");
    }
    assert!(!out.exists(), "an unknown lock must write nothing");
}

#[test]
fn server_rejects_unknown_tracking_names() {
    let out = out_dir("tracking-refused");
    let run = bench_sweep(&["--server", "--locks", "SpRWL-adaptive"], &out);
    assert_eq!(run.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains(
            "error: unknown tracking \"SpRWL-adaptive\" under --server \
             (expected SpRWL, SNZI or BRAVO)"
        ),
        "{stderr}"
    );
    assert!(!out.exists(), "an unknown tracking must write nothing");
}

#[test]
fn threads_above_the_simulator_limit_exit_2_with_one_line() {
    let out = out_dir("threads-refused");
    let limit = "error: --threads: max_threads is 1024, above the limit of 1023 threads";
    for args in [
        &["--det", "--threads", "1024"][..],
        &["--wall", "--threads", "2,1024"],
        &["--server", "--threads", "1024"],
        &["--capacity", "--threads", "1024"],
        &["--figure", "fig5", "--threads", "1024"],
    ] {
        let run = bench_sweep(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(limit), "{args:?}: {stderr}");
    }
    assert!(!out.exists(), "a refused thread count must write nothing");
}

#[test]
fn runs_that_measure_nothing_exit_2_with_one_line() {
    let out = out_dir("empty-runs-refused");
    for (args, flag) in [
        (&["--wall", "--threads", "1", "--secs", "-1"][..], "--secs"),
        (&["--wall", "--threads", "1", "--secs", "0"], "--secs"),
        (&["--wall", "--threads", "1", "--secs", "inf"], "--secs"),
        (&["--wall", "--threads", "1", "--secs", "NaN"], "--secs"),
        (
            &["--figure", "fig5", "--threads", "1", "--secs", "-1"],
            "--secs",
        ),
        (
            &["--wall", "--threads", "1", "--warmup-secs", "-0.5"],
            "--warmup-secs",
        ),
        (&["--det", "--threads", "1", "--ops", "0"], "--ops"),
        (&["--server", "--threads", "2", "--ops", "0"], "--ops"),
    ] {
        let run = bench_sweep(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag} must be")),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !out.exists(),
        "a run that measures nothing must write nothing"
    );
}
