//! Configuration of the simulated HTM: capacity profiles, failure
//! injection, the execution substrate.

/// Read/write-set capacity limits, in cache lines.
///
/// Real HTMs track transactional footprints in cache structures of very
/// different shapes: Intel Broadwell tolerates roughly 4 MB of reads but
/// only ~22 KB of writes, while POWER8 caps both at 8 KB. The simulated
/// profiles keep that *asymmetry* (Broadwell: reads ≫ writes; POWER8:
/// small and symmetric) while scaling absolute numbers down ×64 so that
/// the paper’s workloads overflow/fit at laptop-scale populations. The
/// workload sizes in `sprwl-workloads` are chosen against these profiles;
/// see DESIGN.md §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapacityProfile {
    /// Human-readable profile name (used in benchmark output).
    pub name: &'static str,
    /// Maximum distinct cache lines a hardware transaction may read.
    pub read_lines: usize,
    /// Maximum distinct cache lines a hardware transaction may write.
    pub write_lines: usize,
    /// Maximum distinct lines a rollback-only transaction (ROT) may write.
    /// ROTs do not track reads at all, which is exactly why RW-LE uses them.
    /// 0 on a platform without ROTs (see [`supports_rot`](Self::supports_rot)).
    pub rot_write_lines: usize,
}

impl CapacityProfile {
    /// Intel Broadwell-like: large read capacity, much smaller write
    /// capacity, and no ROTs.
    pub const BROADWELL_SIM: CapacityProfile = CapacityProfile {
        name: "broadwell-sim",
        read_lines: 512,
        write_lines: 64,
        rot_write_lines: 0,
    };

    /// IBM POWER8-like: small, symmetric 8 KB-equivalent capacity.
    pub const POWER8_SIM: CapacityProfile = CapacityProfile {
        name: "power8-sim",
        read_lines: 128,
        write_lines: 128,
        rot_write_lines: 128,
    };

    /// Effectively unbounded — for tests that must not hit capacity.
    pub const UNBOUNDED: CapacityProfile = CapacityProfile {
        name: "unbounded",
        read_lines: usize::MAX,
        write_lines: usize::MAX,
        rot_write_lines: usize::MAX,
    };

    /// A deliberately tiny profile for capacity-abort unit tests.
    pub const TINY: CapacityProfile = CapacityProfile {
        name: "tiny",
        read_lines: 4,
        write_lines: 2,
        rot_write_lines: 2,
    };

    /// Whether this profile supports rollback-only transactions and
    /// suspend/resume (the POWER8-only features RW-LE needs): whether it
    /// has a ROT write budget at all.
    ///
    /// [`BROADWELL_SIM`](Self::BROADWELL_SIM) has none, mirroring the
    /// paper’s point that RW-LE cannot run on Intel machines at all.
    pub fn supports_rot(&self) -> bool {
        self.rot_write_lines > 0
    }
}

/// Which execution substrate drives the simulated threads (see
/// [`crate::sched`]).
///
/// Not `Copy` since [`SchedulerKind::Deterministic`] can carry an
/// arbitrarily long delay vector or decision trace; clone freely, the
/// payloads are small or refcounted.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Free-running OS threads ([`crate::sched::OsScheduler`]), with the
    /// wall clock and optional seeded schedule shake
    /// ([`HtmConfig::sched_shake_prob`]). Default.
    #[default]
    Os,
    /// Fully serialized cooperative scheduling
    /// ([`crate::sched::DetScheduler`]): one thread runs at a time, picked
    /// at every yield point by `policy`, over a virtual clock. The same
    /// `(seed, config, policy)` triple replays bit-exactly.
    ///
    /// Requires exactly [`HtmConfig::max_threads`] claimed thread contexts
    /// (registration is a start barrier), and participants must not block
    /// on OS primitives outside the scheduler's view.
    Deterministic {
        /// Who runs next: a seeded PRNG stream
        /// ([`SchedulerKind::deterministic`]), a delay-bounded enumeration
        /// step or an exact decision-trace replay.
        policy: crate::sched::SchedulePolicyKind,
    },
}

impl SchedulerKind {
    /// The deterministic scheduler picking from a PRNG seeded with
    /// `schedule_seed` (independent of the workload seed so the two axes
    /// can be swept separately).
    pub const fn deterministic(schedule_seed: u64) -> Self {
        SchedulerKind::Deterministic {
            policy: crate::sched::SchedulePolicyKind::Random {
                seed: schedule_seed,
            },
        }
    }
}

/// Full configuration for an [`crate::Htm`] instance.
#[derive(Debug, Clone)]
pub struct HtmConfig {
    /// Number of simulated hardware threads (size of the transaction table).
    pub max_threads: usize,
    /// Capacity limits.
    pub capacity: CapacityProfile,
    /// Probability that any single transactional access triggers a
    /// spurious “timer interrupt” abort (context-switch/IRQ model).
    /// `0.0` disables injection.
    pub interrupt_prob: f64,
    /// Probability that a yield point under [`SchedulerKind::Os`] injects
    /// a short seeded-random delay (a spin or an OS-thread yield) to
    /// perturb the interleaving ([`crate::sched::OsScheduler`]). It is the
    /// free-running torture matrix's perturbation, so each seed explores a
    /// different interleaving family on real threads. Ignored under the
    /// deterministic scheduler, which controls the schedule exactly.
    /// `0.0` disables (the default; yield points are then skipped).
    pub sched_shake_prob: f64,
    /// Seed for the per-thread injection PRNGs (deterministic tests).
    pub seed: u64,
    /// The execution substrate ([`SchedulerKind::Os`] by default).
    pub scheduler: SchedulerKind,
}

impl Default for HtmConfig {
    fn default() -> Self {
        Self {
            max_threads: 64,
            capacity: CapacityProfile::BROADWELL_SIM,
            interrupt_prob: 0.0,
            sched_shake_prob: 0.0,
            seed: 0x5eed,
            scheduler: SchedulerKind::Os,
        }
    }
}

impl HtmConfig {
    /// Convenience constructor: default config with the given capacity
    /// profile.
    pub fn with_capacity(capacity: CapacityProfile) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: zero threads or
    /// more than 1023 (the conflict directory names a thread in 10 bits of
    /// a cache line's word) or an out-of-range probability.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_threads == 0 {
            return Err("max_threads must be at least 1".into());
        }
        if self.max_threads > crate::directory::MAX_THREADS {
            return Err(format!(
                "max_threads is {}, above the limit of {} threads",
                self.max_threads,
                crate::directory::MAX_THREADS
            ));
        }
        if !(0.0..=1.0).contains(&self.interrupt_prob) {
            return Err("interrupt_prob must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.sched_shake_prob) {
            return Err("sched_shake_prob must be within [0, 1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        HtmConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_threads_is_rejected() {
        let cfg = HtmConfig {
            max_threads: 0,
            ..HtmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn thread_counts_past_the_directory_limit_are_rejected() {
        let with = |max_threads| HtmConfig {
            max_threads,
            ..HtmConfig::default()
        };
        with(1023).validate().unwrap();
        let err = with(1024).validate().unwrap_err();
        assert_eq!(err, "max_threads is 1024, above the limit of 1023 threads");
    }

    #[test]
    fn bad_probability_is_rejected() {
        let cfg = HtmConfig {
            interrupt_prob: 1.5,
            ..HtmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn scheduler_defaults_to_free_running() {
        assert_eq!(HtmConfig::default().scheduler, SchedulerKind::Os);
        let det = HtmConfig {
            scheduler: SchedulerKind::deterministic(1),
            ..HtmConfig::default()
        };
        det.validate().unwrap();
    }

    #[test]
    fn policy_scheduler_is_valid_and_cloneable() {
        let cfg = HtmConfig {
            scheduler: SchedulerKind::Deterministic {
                policy: crate::sched::SchedulePolicyKind::DelayBounded { delays: vec![0, 3] },
            },
            ..HtmConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.scheduler.clone(), cfg.scheduler);
    }

    #[test]
    fn profiles_mirror_platform_asymmetry() {
        let b = CapacityProfile::BROADWELL_SIM;
        let p = CapacityProfile::POWER8_SIM;
        assert!(b.read_lines > b.write_lines, "Broadwell reads >> writes");
        assert_eq!(p.read_lines, p.write_lines, "POWER8 symmetric");
        assert!(!b.supports_rot(), "no ROTs on Intel");
        assert!(p.supports_rot(), "ROTs on POWER8");
    }

    #[test]
    fn rot_support_is_the_rot_budget_not_the_name() {
        let custom = CapacityProfile {
            name: "custom",
            read_lines: 32,
            write_lines: 16,
            rot_write_lines: 16,
        };
        assert!(custom.supports_rot(), "any name with a ROT budget");
        let no_rots = CapacityProfile {
            rot_write_lines: 0,
            ..CapacityProfile::POWER8_SIM
        };
        assert!(
            !no_rots.supports_rot(),
            "a zero budget, even named power8-sim"
        );
    }
}
