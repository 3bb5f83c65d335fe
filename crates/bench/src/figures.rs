//! The paper's evaluation as fixed `bench-sweep --figure NAME` grids.
//!
//! Figs. 3–7 of Issa, Romano and Lopes (Middleware '18) and the
//! design-choice ablations are each a list of [`FigurePoint`]s. They run
//! through the same worker loop ([`crate::sweep::run_workers`]), point
//! digest ([`BenchPoint`]) and JSON writer as every other category, and
//! emit `BENCH_<figure>_<date>.json`.
//!
//! Figures run wall-clock windows only. At paper scale the deterministic
//! scheduler serializes every simulated access: one Fig. 3 point at 8
//! threads takes minutes of host time for a few hundred ops per thread.
//!
//! One document spans up to two capacity profiles, so every workload name
//! ends in `@<profile>` (as the capacity documents do), names its shape
//! and parameter before it (`hashmap-long-u10@power8-sim` is the
//! 10-lookup hashmap at 10 % updates), and the document header carries
//! the sentinel profile `figure`.

use std::time::Duration;

use htm_sim::{CapacityProfile, ConflictPolicy, HtmConfig};
use sprwl::SprwlConfig;
use sprwl_trace::TraceConfig;
use sprwl_workloads::tpcc::TpccScale;
use sprwl_workloads::{HashmapSpec, Mix};

use crate::results::{BenchPoint, BenchResults, Hardware, SCHEMA_MINOR, SCHEMA_VERSION};
use crate::sweep::{
    mode_params, point_htm, run_hashmap_point, run_tpcc_point, LockKind, SweepMode, UNIFORM_KEYS,
};

/// Every figure `bench-sweep --figure` accepts.
pub const FIGURES: [&str; 6] = ["fig3", "fig4", "fig5", "fig6", "fig7", "ablation"];

/// The workload one figure point runs.
#[derive(Debug, Clone, Copy)]
pub enum FigureLoad {
    /// The §4.1 hashmap with uniform keys.
    Hashmap(HashmapSpec),
    /// TPC-C (§4.2) under the paper's mix.
    Tpcc(TpccScale),
}

/// One point of a figure grid.
#[derive(Debug, Clone)]
pub struct FigurePoint {
    /// Workload name, `<shape>@<profile>`.
    pub workload: String,
    /// Lock label: the paper's legend, or the ablation arm.
    pub label: String,
    /// The scheme under test.
    pub lock: LockKind,
    /// Runtime template: capacity profile, worker count (`max_threads`)
    /// and, for the conflict-policy ablation, the policy.
    pub htm: HtmConfig,
    /// What the workers run.
    pub load: FigureLoad,
}

impl FigurePoint {
    fn new(
        workload: &str,
        profile: &CapacityProfile,
        lock: LockKind,
        threads: usize,
        load: FigureLoad,
    ) -> Self {
        Self {
            workload: format!("{workload}@{}", profile.name),
            label: lock.name(),
            lock,
            htm: point_htm(profile, threads),
            load,
        }
    }

    /// The point with an ablation-arm label.
    fn labelled(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
}

/// The two capacity profiles Figs. 3, 4 and 7 compare.
const PROFILES: [CapacityProfile; 2] =
    [CapacityProfile::BROADWELL_SIM, CapacityProfile::POWER8_SIM];

/// Appends one point per (lock, thread count) of `workload` on `profile`.
fn sweep(
    pts: &mut Vec<FigurePoint>,
    workload: &str,
    profile: &CapacityProfile,
    locks: &[LockKind],
    threads: &[usize],
    load: FigureLoad,
) {
    for lock in locks {
        for &n in threads {
            pts.push(FigurePoint::new(workload, profile, lock.clone(), n, load));
        }
    }
}

/// The grid of figure `name` over the thread sweep `threads`, or `None`
/// for a name not in [`FIGURES`]. Fig. 6 and the ablations run at the
/// largest thread count only; Fig. 7 sizes its warehouses to it.
///
/// # Panics
///
/// Panics on an empty thread list.
pub fn figure_points(name: &str, threads: &[usize]) -> Option<Vec<FigurePoint>> {
    let max = *threads.iter().max().expect("thread list is never empty");
    let mut pts = Vec::new();
    match name {
        // Hashmap, 10-lookup readers (over HTM capacity) or 1-lookup
        // readers (fitting it), 10/50/90 % updates, both profiles.
        "fig3" | "fig4" => {
            let long = name == "fig3";
            let shape = if long { "long" } else { "short" };
            for profile in &PROFILES {
                for upd in [10u32, 50, 90] {
                    let load = FigureLoad::Hashmap(HashmapSpec::paper(profile, long, upd));
                    let workload = format!("hashmap-{shape}-u{upd}");
                    let locks = LockKind::paper_set(profile);
                    sweep(&mut pts, &workload, profile, &locks, threads, load);
                }
            }
        }
        // The scheduling ablation (§4.1.1) against TLE, Broadwell-sim.
        "fig5" => {
            let profile = CapacityProfile::BROADWELL_SIM;
            let load = FigureLoad::Hashmap(HashmapSpec::paper(&profile, true, 10));
            let locks = [
                LockKind::Tle,
                LockKind::Sprwl(SprwlConfig::no_sched()),
                LockKind::Sprwl(SprwlConfig::rwait()),
                LockKind::Sprwl(SprwlConfig::rsync()),
                LockKind::Sprwl(SprwlConfig::full()),
            ];
            sweep(
                &mut pts,
                "hashmap-long-u10",
                &profile,
                &locks,
                threads,
                load,
            );
        }
        // Reader tracking over the reader size, POWER8-sim, 50 % updates:
        // the paper's flags/SNZI pair plus BRAVO.
        "fig6" => {
            let profile = CapacityProfile::POWER8_SIM;
            let locks = [
                SprwlConfig::full(),
                SprwlConfig::with_snzi(),
                SprwlConfig::with_bravo(),
            ]
            .map(LockKind::Sprwl);
            for lookups in [1usize, 2, 5, 10, 25, 50] {
                let load = FigureLoad::Hashmap(HashmapSpec {
                    lookups_per_read: lookups,
                    ..HashmapSpec::paper(&profile, true, 50)
                });
                let workload = format!("hashmap-l{lookups}-u50");
                sweep(&mut pts, &workload, &profile, &locks, &[max], load);
            }
        }
        // TPC-C, warehouses = the largest thread count, both profiles.
        "fig7" => {
            let load = FigureLoad::Tpcc(TpccScale::with_warehouses(max as u32));
            for profile in &PROFILES {
                let mut locks = LockKind::paper_set(profile);
                locks.push(LockKind::Sprwl(SprwlConfig::with_snzi()));
                let workload = format!("tpcc-paper-w{max}");
                sweep(&mut pts, &workload, profile, &locks, threads, load);
            }
        }
        "ablation" => pts = ablation_points(max),
        _ => return None,
    }
    Some(pts)
}

/// The three knob sweeps beyond the paper's own: Broadwell-sim, 10 %
/// updates, long readers (and short ones for the readers-try-HTM knob).
fn ablation_points(threads: usize) -> Vec<FigurePoint> {
    let profile = CapacityProfile::BROADWELL_SIM;
    let long = FigureLoad::Hashmap(HashmapSpec::paper(&profile, true, 10));
    let short = FigureLoad::Hashmap(HashmapSpec::paper(&profile, false, 10));
    let arm = |workload: &str, load: FigureLoad, label: &str, cfg: SprwlConfig| {
        FigurePoint::new(workload, &profile, LockKind::Sprwl(cfg), threads, load).labelled(label)
    };
    let d = SprwlConfig::default;
    let mut pts = Vec::new();
    // 1. Readers-try-HTM-first: off, predictive, always.
    for (workload, load) in [
        ("reader-htm-long-u10", long),
        ("reader-htm-short-u10", short),
    ] {
        for (try_htm, adaptive, label) in [
            (false, false, "direct"),
            (true, true, "adaptive"),
            (true, false, "always"),
        ] {
            let cfg = SprwlConfig {
                readers_try_htm: try_htm,
                adaptive_reader_htm: adaptive,
                ..d()
            };
            pts.push(arm(workload, load, label, cfg));
        }
    }
    // 2. The versioned SGL (reader anti-starvation).
    for (on, label) in [(false, "plain-sgl"), (true, "versioned-sgl")] {
        let cfg = SprwlConfig {
            versioned_sgl: on,
            ..d()
        };
        pts.push(arm("sgl-long-u10", long, label, cfg));
    }
    // 3. The substrate's conflict policy.
    for (policy, label) in [
        (ConflictPolicy::RequesterWins, "requester-wins"),
        (ConflictPolicy::ResponderWins, "responder-wins"),
    ] {
        let mut p = arm("conflict-policy-long-u10", long, label, d());
        p.htm.conflict_policy = policy;
        pts.push(p);
    }
    pts
}

/// Runs figure `name` with a `warmup` then `duration` wall-clock window
/// per point and assembles its results document (category = the figure
/// name). `None` for a name not in [`FIGURES`].
///
/// # Panics
///
/// Panics when a TPC-C point fails its consistency audits, and on an
/// empty thread list.
pub fn run_figure(
    name: &str,
    threads: &[usize],
    seed: u64,
    warmup: Duration,
    duration: Duration,
    date: &str,
    git_commit: &str,
) -> Option<BenchResults> {
    let mode = SweepMode::Wall { warmup, duration };
    let points: Vec<BenchPoint> = figure_points(name, threads)?
        .into_iter()
        .map(|p| {
            let m = match &p.load {
                FigureLoad::Hashmap(spec) => run_hashmap_point(
                    p.htm,
                    &p.lock,
                    UNIFORM_KEYS,
                    spec,
                    seed,
                    &mode,
                    TraceConfig::Off,
                ),
                FigureLoad::Tpcc(scale) => {
                    run_tpcc_point(p.htm, &p.lock, *scale, &Mix::PAPER, seed, &mode)
                }
            };
            m.point(&p.workload, &p.label)
        })
        .collect();
    Some(BenchResults {
        schema_version: SCHEMA_VERSION,
        schema_minor: SCHEMA_MINOR,
        category: name.to_string(),
        date: date.to_string(),
        git_commit: git_commit.to_string(),
        mode: mode.label().to_string(),
        capacity_profile: "figure".to_string(),
        hardware: Hardware::probe(),
        params: mode_params(&mode, seed, threads),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: [usize; 4] = [1, 2, 4, 8];

    fn grid(name: &str) -> Vec<FigurePoint> {
        figure_points(name, &SWEEP).expect("known figure")
    }

    /// Distinct values of `f` over the grid, in first-seen order.
    fn distinct<T: PartialEq>(pts: &[FigurePoint], f: impl Fn(&FigurePoint) -> T) -> Vec<T> {
        let mut out = Vec::new();
        for p in pts {
            let v = f(p);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn spec(p: &FigurePoint) -> HashmapSpec {
        match &p.load {
            FigureLoad::Hashmap(s) => *s,
            FigureLoad::Tpcc(_) => panic!("{} is not a hashmap point", p.workload),
        }
    }

    #[test]
    fn lock_kind_names_match_paper_legends() {
        assert_eq!(LockKind::Tle.name(), "TLE");
        assert_eq!(LockKind::RwLe.name(), "RW-LE");
        assert_eq!(LockKind::Rwl.name(), "RWL");
        assert_eq!(LockKind::BrLock.name(), "BRLock");
        assert_eq!(LockKind::Sprwl(SprwlConfig::default()).name(), "SpRWL");
        assert_eq!(LockKind::Sprwl(SprwlConfig::with_snzi()).name(), "SNZI");
        assert_eq!(LockKind::Sprwl(SprwlConfig::with_bravo()).name(), "BRAVO");
        assert_eq!(LockKind::Sprwl(SprwlConfig::no_sched()).name(), "NoSched");
        assert_eq!(LockKind::Sprwl(SprwlConfig::rwait()).name(), "RWait");
        assert_eq!(LockKind::Sprwl(SprwlConfig::rsync()).name(), "RSync");
    }

    #[test]
    fn paper_set_includes_rwle_only_on_power8() {
        let b: Vec<String> = LockKind::paper_set(&CapacityProfile::BROADWELL_SIM)
            .iter()
            .map(|k| k.name())
            .collect();
        let p: Vec<String> = LockKind::paper_set(&CapacityProfile::POWER8_SIM)
            .iter()
            .map(|k| k.name())
            .collect();
        assert!(!b.contains(&"RW-LE".to_string()));
        assert!(p.contains(&"RW-LE".to_string()));
        for required in ["TLE", "RWL", "BRLock", "SpRWL"] {
            assert!(b.contains(&required.to_string()), "{required} missing");
            assert!(p.contains(&required.to_string()), "{required} missing");
        }
    }

    #[test]
    fn figs_3_and_4_sweep_both_profiles_three_update_ratios_and_every_thread_count() {
        for (name, lookups, shape) in [("fig3", 10, "long"), ("fig4", 1, "short")] {
            let pts = grid(name);
            // 3 ratios × (4 Broadwell locks + 5 POWER8 locks) × 4 counts.
            assert_eq!(pts.len(), 3 * 9 * 4, "{name}");
            assert_eq!(
                distinct(&pts, |p| p.workload.clone()),
                [
                    "broadwell-sim",
                    "broadwell-sim",
                    "broadwell-sim",
                    "power8-sim",
                    "power8-sim",
                    "power8-sim"
                ]
                .iter()
                .zip([10, 50, 90, 10, 50, 90])
                .map(|(prof, u)| format!("hashmap-{shape}-u{u}@{prof}"))
                .collect::<Vec<_>>()
            );
            assert_eq!(distinct(&pts, |p| p.htm.max_threads), SWEEP);
            assert_eq!(distinct(&pts, |p| spec(p).lookups_per_read), [lookups]);
            assert_eq!(distinct(&pts, |p| spec(p).update_pct), [10, 50, 90]);
            for p in &pts {
                let rwle = p.label == "RW-LE";
                assert_eq!(rwle, p.lock.name() == "RW-LE");
                assert!(p.lock.supports(&p.htm.capacity), "{}", p.label);
                if rwle {
                    assert!(p.workload.ends_with("@power8-sim"));
                }
            }
            assert_eq!(
                distinct(&pts, |p| p.label.clone()),
                ["TLE", "RWL", "BRLock", "SpRWL", "RW-LE"]
            );
        }
    }

    #[test]
    fn fig5_is_the_scheduling_ablation_against_tle_on_broadwell() {
        let pts = grid("fig5");
        assert_eq!(
            distinct(&pts, |p| p.label.clone()),
            ["TLE", "NoSched", "RWait", "RSync", "SpRWL"]
        );
        assert_eq!(
            distinct(&pts, |p| p.workload.clone()),
            ["hashmap-long-u10@broadwell-sim"]
        );
        assert_eq!(distinct(&pts, |p| p.htm.max_threads), SWEEP);
        assert_eq!(
            spec(&pts[0]),
            HashmapSpec::paper(&pts[0].htm.capacity, true, 10)
        );
    }

    #[test]
    fn fig6_sweeps_reader_size_at_the_largest_thread_count_with_bravo_added() {
        let pts = grid("fig6");
        assert_eq!(pts.len(), 6 * 3);
        assert_eq!(
            distinct(&pts, |p| p.label.clone()),
            ["SpRWL", "SNZI", "BRAVO"]
        );
        assert_eq!(distinct(&pts, |p| p.htm.max_threads), [8]);
        assert_eq!(
            distinct(&pts, |p| spec(p).lookups_per_read),
            [1, 2, 5, 10, 25, 50]
        );
        assert_eq!(distinct(&pts, |p| spec(p).update_pct), [50]);
        assert_eq!(distinct(&pts, |p| p.htm.capacity.name), ["power8-sim"]);
        assert_eq!(pts[0].workload, "hashmap-l1-u50@power8-sim");
    }

    #[test]
    fn fig7_runs_tpcc_with_warehouses_at_the_largest_thread_count_plus_snzi() {
        let pts = grid("fig7");
        assert_eq!(pts.len(), (5 + 6) * 4);
        assert_eq!(
            distinct(&pts, |p| p.workload.clone()),
            ["tpcc-paper-w8@broadwell-sim", "tpcc-paper-w8@power8-sim"]
        );
        assert_eq!(distinct(&pts, |p| p.htm.max_threads), SWEEP);
        for p in &pts {
            match p.load {
                FigureLoad::Tpcc(scale) => assert_eq!(scale.warehouses, 8),
                FigureLoad::Hashmap(_) => panic!("fig7 is TPC-C only"),
            }
        }
        let power8: Vec<String> = pts
            .iter()
            .filter(|p| p.workload.ends_with("@power8-sim"))
            .map(|p| p.label.clone())
            .collect();
        for label in ["TLE", "RW-LE", "RWL", "BRLock", "SpRWL", "SNZI"] {
            assert!(power8.contains(&label.to_string()), "{label} missing");
        }
        assert!(!pts
            .iter()
            .any(|p| p.label == "RW-LE" && p.workload.ends_with("@broadwell-sim")));
    }

    #[test]
    fn ablation_covers_the_three_knobs_at_the_largest_thread_count() {
        let pts = grid("ablation");
        assert_eq!(
            distinct(&pts, |p| p.workload.clone()),
            [
                "reader-htm-long-u10",
                "reader-htm-short-u10",
                "sgl-long-u10",
                "conflict-policy-long-u10"
            ]
            .map(|w| format!("{w}@broadwell-sim"))
        );
        assert_eq!(pts.len(), 6 + 2 + 2);
        assert_eq!(distinct(&pts, |p| p.htm.max_threads), [8]);
        let responder = pts.iter().find(|p| p.label == "responder-wins").unwrap();
        assert_eq!(responder.htm.conflict_policy, ConflictPolicy::ResponderWins);
        let keys = distinct(&pts, |p| (p.workload.clone(), p.label.clone()));
        assert_eq!(keys.len(), pts.len(), "point keys must be unique");
    }

    #[test]
    fn unknown_figures_have_no_grid() {
        assert!(figure_points("fig9", &SWEEP).is_none());
        for name in FIGURES {
            assert!(figure_points(name, &[2]).is_some(), "{name}");
        }
    }

    #[test]
    fn a_figure_runs_into_a_wall_document() {
        let r = run_figure(
            "fig5",
            &[1],
            42,
            Duration::ZERO,
            Duration::from_millis(5),
            "2026-08-09",
            "test",
        )
        .expect("fig5 exists");
        assert_eq!(r.file_name(), "BENCH_fig5_2026-08-09.json");
        assert_eq!(r.mode, "wall");
        assert_eq!(r.capacity_profile, "figure");
        assert_eq!(r.points.len(), 5);
        assert!(r.points.iter().all(|p| p.commits > 0));
        assert_eq!(BenchResults::from_json(&r.to_json()).expect("parses"), r);
    }
}
