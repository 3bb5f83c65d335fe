//! Exit-code contract of the `lincheck` binary. CI and the torture
//! harness both branch on these codes, so they are pinned here:
//! 0 = linearizable, 1 = non-linearizable, 2 = unknown (budget,
//! incomplete history, or no operations), 3 = usage/extraction error. In particular a
//! budget-starved `Unknown` (2) must never be conflated with a real
//! violation (1) — a gate that treats "any non-zero" as "bug found"
//! would pass vacuously the day the budget is too small.

use std::path::PathBuf;
use std::process::Command;

use sprwl_lincheck::mutate::Mutation;

fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../torture/tests/golden/det_smoke.trace.jsonl")
}

fn run(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_lincheck"))
        .args(args)
        .output()
        .expect("spawn lincheck")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn linearizable_history_exits_zero() {
    let g = golden();
    assert_eq!(run(&[g.to_str().unwrap()]), 0);
}

#[test]
fn injected_mutation_exits_one() {
    let g = golden();
    for m in Mutation::ALL {
        assert_eq!(
            run(&[g.to_str().unwrap(), "--mutate", m.name()]),
            1,
            "--mutate {} must be judged non-linearizable",
            m.name()
        );
    }
}

#[test]
fn starved_budget_exits_two_not_one() {
    let g = golden();
    assert_eq!(
        run(&[g.to_str().unwrap(), "--max-nodes", "1"]),
        2,
        "a budget-starved verdict is Unknown, never a violation"
    );
    // And starving the budget of a *mutated* history must also answer
    // Unknown: the checker cannot have proven a violation in one node.
    assert_eq!(
        run(&[
            g.to_str().unwrap(),
            "--mutate",
            "drop-commit",
            "--max-nodes",
            "1"
        ]),
        2
    );
}

#[test]
fn a_history_without_operations_exits_two() {
    // Parses, but records nothing to check: not a pass.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let empty = dir.join("empty.trace.jsonl");
    std::fs::write(&empty, "").unwrap();
    assert_eq!(run(&[empty.to_str().unwrap()]), 2, "an empty file");
    let meta_only = dir.join("meta-only.trace.jsonl");
    std::fs::write(
        &meta_only,
        "{\"tid\":0,\"ev\":\"trace-meta\",\"dropped\":0}\n",
    )
    .unwrap();
    assert_eq!(run(&[meta_only.to_str().unwrap()]), 2, "no lin-* marks");
}

#[test]
fn usage_errors_exit_three() {
    assert_eq!(run(&[]), 3, "no trace path");
    assert_eq!(run(&["--bogus-flag"]), 3, "unknown flag");
    assert_eq!(run(&["/nonexistent/trace.jsonl"]), 3, "unreadable file");
    let g = golden();
    assert_eq!(
        run(&[g.to_str().unwrap(), "--max-nodes", "not-a-number"]),
        3,
        "malformed flag value"
    );
}
