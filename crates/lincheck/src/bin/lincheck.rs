//! Standalone checker: judge a recorded JSONL history (an exporter dump or
//! a torture postmortem file) from the command line.
//!
//! ```text
//! lincheck <trace.jsonl> [--max-nodes N]
//!          [--mutate drop-commit|swap-commits|duplicate-read] [--mutate-seed S]
//! ```
//!
//! Exit status: 0 linearizable, 1 non-linearizable, 2 unknown
//! (incomplete history, budget exhausted, or no operations at all: a
//! history that records nothing proves nothing), 3 usage or extraction
//! error.
//!
//! `--mutate` corrupts the extracted history with one seeded mutation
//! before checking — the documented way to watch the checker catch an
//! injected bug on a real recorded history.

use std::process::ExitCode;

use sprwl_lincheck::mutate::{self, Mutation};
use sprwl_lincheck::{check, CheckConfig, History, Verdict};

fn usage() -> ExitCode {
    eprintln!(
        "usage: lincheck <trace.jsonl> [--max-nodes N] \
         [--mutate drop-commit|swap-commits|duplicate-read] [--mutate-seed S]"
    );
    ExitCode::from(3)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut cfg = CheckConfig::default();
    let mut mutation: Option<Mutation> = None;
    let mut mutate_seed = 0u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-nodes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.max_nodes = n,
                None => return usage(),
            },
            "--mutate" => match args.next().as_deref().and_then(Mutation::parse) {
                Some(m) => mutation = Some(m),
                None => return usage(),
            },
            "--mutate-seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => mutate_seed = s,
                None => return usage(),
            },
            "-h" | "--help" => return usage(),
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lincheck: cannot read {path}: {e}");
            return ExitCode::from(3);
        }
    };
    let mut hist = match History::from_jsonl(&text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("lincheck: malformed history in {path}: {e}");
            return ExitCode::from(3);
        }
    };
    eprintln!(
        "lincheck: {} ops across {} threads, {} registers, {} dropped events, {} truncated ops",
        hist.total_ops(),
        hist.threads.len(),
        hist.num_registers(),
        hist.dropped_events,
        hist.truncated_ops,
    );
    if let Some(m) = mutation {
        match mutate::apply(&hist, m, mutate_seed) {
            Some(bad) => {
                eprintln!(
                    "lincheck: injected mutation {} (seed {mutate_seed})",
                    m.name()
                );
                hist = bad;
            }
            None => {
                eprintln!(
                    "lincheck: mutation {} found no eligible site in this history",
                    m.name()
                );
                return ExitCode::from(3);
            }
        }
    }
    let verdict = if hist.total_ops() == 0 {
        Verdict::Unknown("the history has no operations to check".into())
    } else {
        check(&hist, &cfg)
    };
    println!("{verdict}");
    match verdict {
        Verdict::Linearizable => ExitCode::SUCCESS,
        Verdict::NonLinearizable(_) => ExitCode::from(1),
        Verdict::Unknown(_) => ExitCode::from(2),
    }
}
