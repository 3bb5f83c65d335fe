//! SpRWL configuration: scheduling variants, reader tracking, optimizations.

/// Which of the paper's scheduling schemes are active.
///
/// These are exactly the variants of the §4.1.1 ablation (Fig. 5):
/// `NoSched` < `RWait` < `RSync` < `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheduling {
    /// §3.1 base algorithm only: writers check for readers at commit;
    /// no waiting on either side.
    NoSched,
    /// Readers wait for the active writer predicted to finish last, but do
    /// not join other waiting readers.
    RWait,
    /// Full reader synchronization (§3.2.1): waiting readers are joined by
    /// newcomers, aligning reader start times.
    RSync,
    /// Reader synchronization + writer synchronization (§3.2.2): aborted
    /// writers delay their retry to finish δ after the last active reader.
    /// The paper's default.
    #[default]
    Full,
}

impl Scheduling {
    /// Whether readers wait for active writers at all.
    pub fn readers_wait(self) -> bool {
        !matches!(self, Scheduling::NoSched)
    }

    /// Whether waiting readers are joined by newly arrived readers.
    pub fn readers_join(self) -> bool {
        matches!(self, Scheduling::RSync | Scheduling::Full)
    }

    /// Whether writers delay retries after reader-induced aborts.
    pub fn writers_wait(self) -> bool {
        matches!(self, Scheduling::Full)
    }

    /// Label used in benchmark output (paper's variant names).
    pub fn label(self) -> &'static str {
        match self {
            Scheduling::NoSched => "NoSched",
            Scheduling::RWait => "RWait",
            Scheduling::RSync => "RSync",
            Scheduling::Full => "SpRWL",
        }
    }
}

/// How writers detect concurrent active readers at commit time (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReaderTracking {
    /// Scan the per-thread `state` array: O(threads) cache lines in the
    /// writer's transactional read-set. The paper's default.
    #[default]
    Flags,
    /// Query a scalable non-zero indicator: one cache line in the read-set,
    /// at the cost of O(log threads) reader arrival/departure overhead.
    Snzi,
    /// Self-tuning (the paper's §5 future work): start with flags, switch
    /// to SNZI when readers dwarf writers, and back — with a sound
    /// transition protocol (see [`crate::adaptive`]).
    Adaptive,
    /// BRAVO-style biased admission (Dice & Kogan): while bias is armed,
    /// readers publish with a single CAS into a hashed visible-readers
    /// table and writers' commit-time read-set is two lines (bias word +
    /// SNZI root); writers revoke bias by draining the table — cost
    /// proportional to *active* readers, not registered threads. The SNZI
    /// is the backstop when bias is off (see [`crate::reader_table`]).
    Bravo,
}

/// The δ slack of the writer-synchronization scheme (§3.2.2): a delayed
/// writer aims to finish δ cycles after the last active reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeltaPolicy {
    /// δ = half the writer's expected duration — the paper's default,
    /// found best in their preliminary experiments.
    #[default]
    HalfWriterDuration,
    /// δ = 0: maximize reader/writer overlap, risking more reader aborts.
    Zero,
    /// A fixed δ in nanoseconds (for the δ-sweep ablation).
    FixedNs(u64),
}

impl DeltaPolicy {
    /// Resolves δ for a writer whose estimated duration is `writer_ns`.
    pub fn resolve(self, writer_ns: u64) -> u64 {
        match self {
            DeltaPolicy::HalfWriterDuration => writer_ns / 2,
            DeltaPolicy::Zero => 0,
            DeltaPolicy::FixedNs(ns) => ns,
        }
    }
}

/// Distinct [`sprwl_locks::SectionId`]s a lock tracks: the duration
/// estimator and every per-section table are this long.
pub const MAX_SECTIONS: usize = 64;

/// Full SpRWL configuration.
#[derive(Debug, Clone)]
pub struct SprwlConfig {
    /// Scheduling variant (ablation: Fig. 5).
    pub scheduling: Scheduling,
    /// Commit-time reader detection (ablation: Fig. 6).
    pub reader_tracking: ReaderTracking,
    /// §3.4: readers optimistically try HTM before going uninstrumented.
    pub readers_try_htm: bool,
    /// §3.4's predictive refinement ("one could use the online statistics
    /// … to predict a priori whether certain readers are likely to incur
    /// capacity exceptions and run them directly using the uninstrumented
    /// execution path"): after a capacity abort, a section skips its
    /// optimistic HTM attempts for a window of executions before probing
    /// again. Without real hardware the probe-everything policy would pay
    /// the simulator's (much higher) per-access instrumentation cost on
    /// every long read, so the predictive variant is the default here.
    pub adaptive_reader_htm: bool,
    /// δ slack for writer synchronization.
    pub delta: DeltaPolicy,
    /// §3.3: use a versioned SGL so readers cannot starve behind a stream
    /// of fallback writers (the extension the authors describe but omit).
    pub versioned_sgl: bool,
    /// Sample critical-section durations on every thread instead of only
    /// thread 0 (the paper samples a single thread to cut overhead).
    pub sample_all_threads: bool,
    /// §3.4: readers park with a timed wait (using the writer's advertised
    /// end time) instead of polling the writer's state flag.
    pub timed_reader_wait: bool,
    /// Capacity stretching for big-footprint writers (DESIGN §6i): the
    /// POWER8 capacity-stretching techniques — rollback-only transactions,
    /// suspend/resume, transaction splitting — applied to SpRWL's write
    /// path. With it off, a writer whose footprint overflows the capacity
    /// profile falls straight to the global lock on every execution. With
    /// it on, a section escalates on capacity aborts through a ladder:
    ///
    /// 1. **direct** — the plain HTM attempt (reads and writes tracked);
    /// 2. **ROT** — a rollback-only transaction: reads untracked, writes
    ///    buffered, the commit-time reader check run from *suspended*
    ///    state, retried under RW-LE's ROT budget
    ///    ([`sprwl_locks::RetryPolicy::RWLE_ROT`]);
    /// 3. **split** — the body runs once under the fallback ticket, its
    ///    writes flushed as ordered sub-transactions of the profile's HTM
    ///    write budget.
    ///
    /// The rung a section starts at is sticky per section; a section
    /// stuck on a stretched rung re-probes the direct rung with
    /// exponential backoff. Profiles without suspend/resume
    /// ([`htm_sim::CapacityProfile::supports_rot`]) skip the ROT rung. Off
    /// by default: stretching changes commit modes and trace shapes,
    /// which golden traces and static baselines don't expect.
    pub stretch: bool,
    /// **Test-only fault injection**: skip the commit-time reader check
    /// (`check_for_readers`), deliberately re-introducing the torn-read
    /// window SpRWL's W-checkR step exists to close. Exists so the
    /// schedule-space explorer has a real ordering bug to find; never
    /// enable outside of tests.
    #[doc(hidden)]
    pub debug_skip_commit_reader_check: bool,
}

impl Default for SprwlConfig {
    fn default() -> Self {
        Self {
            scheduling: Scheduling::Full,
            reader_tracking: ReaderTracking::Flags,
            readers_try_htm: true,
            adaptive_reader_htm: true,
            delta: DeltaPolicy::HalfWriterDuration,
            versioned_sgl: false,
            sample_all_threads: false,
            timed_reader_wait: false,
            stretch: false,
            debug_skip_commit_reader_check: false,
        }
    }
}

impl SprwlConfig {
    /// The §3.1 base algorithm (`NoSched` in Fig. 5): no scheduling, no
    /// optimistic reader HTM.
    pub fn no_sched() -> Self {
        Self {
            scheduling: Scheduling::NoSched,
            readers_try_htm: false,
            ..Self::default()
        }
    }

    /// The `RWait` ablation variant.
    pub fn rwait() -> Self {
        Self {
            scheduling: Scheduling::RWait,
            readers_try_htm: false,
            ..Self::default()
        }
    }

    /// The `RSync` ablation variant.
    pub fn rsync() -> Self {
        Self {
            scheduling: Scheduling::RSync,
            readers_try_htm: false,
            ..Self::default()
        }
    }

    /// The full algorithm (paper default).
    pub fn full() -> Self {
        Self::default()
    }

    /// The full algorithm with SNZI reader tracking.
    pub fn with_snzi() -> Self {
        Self {
            reader_tracking: ReaderTracking::Snzi,
            ..Self::default()
        }
    }

    /// The full algorithm with BRAVO-biased reader admission (SNZI as the
    /// revocation backstop).
    pub fn with_bravo() -> Self {
        Self {
            reader_tracking: ReaderTracking::Bravo,
            ..Self::default()
        }
    }

    /// The full algorithm with self-tuning reader tracking (§5 future
    /// work: automatically enable/disable SNZI).
    pub fn adaptive() -> Self {
        Self {
            reader_tracking: ReaderTracking::Adaptive,
            ..Self::default()
        }
    }

    /// The full algorithm with capacity stretching for writers on.
    pub fn stretching() -> Self {
        Self {
            stretch: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_hierarchy() {
        assert!(!Scheduling::NoSched.readers_wait());
        assert!(Scheduling::RWait.readers_wait());
        assert!(!Scheduling::RWait.readers_join());
        assert!(Scheduling::RSync.readers_join());
        assert!(!Scheduling::RSync.writers_wait());
        assert!(Scheduling::Full.writers_wait());
    }

    #[test]
    fn delta_resolution() {
        assert_eq!(DeltaPolicy::HalfWriterDuration.resolve(1000), 500);
        assert_eq!(DeltaPolicy::Zero.resolve(1000), 0);
        assert_eq!(DeltaPolicy::FixedNs(42).resolve(1000), 42);
    }

    #[test]
    fn variant_constructors_match_ablation_names() {
        assert_eq!(SprwlConfig::no_sched().scheduling.label(), "NoSched");
        assert_eq!(SprwlConfig::rwait().scheduling.label(), "RWait");
        assert_eq!(SprwlConfig::rsync().scheduling.label(), "RSync");
        assert_eq!(SprwlConfig::full().scheduling.label(), "SpRWL");
        assert_eq!(
            SprwlConfig::with_snzi().reader_tracking,
            ReaderTracking::Snzi
        );
        assert_eq!(
            SprwlConfig::with_bravo().reader_tracking,
            ReaderTracking::Bravo
        );
    }
}
