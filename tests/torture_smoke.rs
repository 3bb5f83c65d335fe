//! Tier-1 smoke slice of the torture matrix: a fast cross-section of lock
//! kinds and fault axes so every `cargo test` run exercises the oracle.
//! The full acceptance matrix lives in `sprwl-torture`'s own test suite
//! (`cargo test -p sprwl-torture`); replay any failure it reports with
//! `TORTURE_SEED=<seed>`.

use sprwl_torture::{base_seed, default_matrix, run_case};

#[test]
fn torture_smoke_cross_section() {
    let seed = base_seed();
    let matrix = default_matrix(2, 100);
    let picks = [
        "sprwl-flags-full",
        "sprwl-snzi-nosched",
        "sprwl-versioned-int5",
        "sprwl-full-tiny-capacity",
        "tle",
        "brlock",
    ];
    for name in picks {
        let spec = matrix
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("case {name} missing from matrix"));
        if let Err(v) = run_case(spec, seed) {
            panic!("{v}");
        }
    }
}
