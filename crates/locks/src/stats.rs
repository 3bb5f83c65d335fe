//! Commit-mode, abort-cause and latency bookkeeping — the same breakdowns
//! the paper's evaluation plots (commits: HTM/ROT/GL/Unins; aborts:
//! conflict/capacity/explicit/reader, with ROT variants; per-role latency).

use htm_sim::{Abort, TxKind};

use crate::sgl::{ABORT_LOCKED, ABORT_READER};

/// Whether a critical section was requested in read or write mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Read-only critical section (a *reader*).
    Reader,
    /// Updating critical section (a *writer*).
    Writer,
}

/// How a critical section ultimately committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitMode {
    /// Successfully committed as a plain hardware transaction.
    Htm,
    /// Successfully committed as a rollback-only transaction (POWER8).
    Rot,
    /// Executed under the pessimistic fallback (the global lock) — or, for
    /// purely pessimistic schemes, under the lock itself.
    Gl,
    /// Executed uninstrumented (SpRWL and RW-LE readers).
    Unins,
}

impl CommitMode {
    /// All modes, in the order the paper's plots stack them.
    pub const ALL: [CommitMode; 4] = [
        CommitMode::Htm,
        CommitMode::Rot,
        CommitMode::Gl,
        CommitMode::Unins,
    ];

    /// Stable index into counter arrays.
    pub fn index(self) -> usize {
        match self {
            CommitMode::Htm => 0,
            CommitMode::Rot => 1,
            CommitMode::Gl => 2,
            CommitMode::Unins => 3,
        }
    }

    /// Label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            CommitMode::Htm => "HTM",
            CommitMode::Rot => "ROT",
            CommitMode::Gl => "GL",
            CommitMode::Unins => "Unins",
        }
    }
}

/// Why a speculative attempt aborted, in the paper's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Data conflict in a plain HTM transaction.
    Conflict,
    /// Capacity overflow in a plain HTM transaction.
    Capacity,
    /// Explicit abort (fallback lock observed taken, application logic).
    Explicit,
    /// SpRWL-specific: a writer found an active reader at commit time.
    Reader,
    /// Data conflict in a rollback-only transaction.
    ConflictRot,
    /// Capacity overflow in a rollback-only transaction.
    CapacityRot,
    /// Injected timer interrupt.
    Interrupt,
}

impl AbortCause {
    /// All causes, in plot order.
    pub const ALL: [AbortCause; 7] = [
        AbortCause::Conflict,
        AbortCause::Capacity,
        AbortCause::Explicit,
        AbortCause::Reader,
        AbortCause::ConflictRot,
        AbortCause::CapacityRot,
        AbortCause::Interrupt,
    ];

    /// Stable index into counter arrays.
    pub fn index(self) -> usize {
        match self {
            AbortCause::Conflict => 0,
            AbortCause::Capacity => 1,
            AbortCause::Explicit => 2,
            AbortCause::Reader => 3,
            AbortCause::ConflictRot => 4,
            AbortCause::CapacityRot => 5,
            AbortCause::Interrupt => 6,
        }
    }

    /// Label used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::Conflict => "conflict",
            AbortCause::Capacity => "capacity",
            AbortCause::Explicit => "explicit",
            AbortCause::Reader => "reader",
            AbortCause::ConflictRot => "conflict-rot",
            AbortCause::CapacityRot => "capacity-rot",
            AbortCause::Interrupt => "interrupt",
        }
    }

    /// Maps a substrate abort to the paper's taxonomy, given the
    /// transaction kind it occurred under.
    pub fn classify(abort: Abort, kind: TxKind) -> AbortCause {
        match (abort, kind) {
            (Abort::Conflict, TxKind::Htm) => AbortCause::Conflict,
            (Abort::Conflict, TxKind::Rot) => AbortCause::ConflictRot,
            (Abort::CapacityRead | Abort::CapacityWrite, TxKind::Htm) => AbortCause::Capacity,
            (Abort::CapacityRead | Abort::CapacityWrite, TxKind::Rot) => AbortCause::CapacityRot,
            (Abort::Explicit(ABORT_READER), _) => AbortCause::Reader,
            (Abort::Explicit(ABORT_LOCKED), _) => AbortCause::Explicit,
            (Abort::Explicit(_), _) => AbortCause::Explicit,
            (Abort::Interrupt, _) => AbortCause::Interrupt,
        }
    }
}

/// Capacity of the per-recorder latency [`Reservoir`].
const RESERVOIR_CAP: usize = 512;

/// Fixed-capacity uniform sample of a latency stream (algorithm R), for
/// percentile estimates — the `BENCH_*.json` results pipeline reports
/// these.
///
/// Replacement decisions come from a self-contained xorshift64 generator
/// seeded with a fixed constant, so two runs that record the same sample
/// sequence (e.g. under the deterministic scheduler) produce bit-identical
/// reservoirs, and merging is reproducible too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
    rng: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Self {
            samples: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Reservoir {
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Records one sample (kept with probability `cap / seen`).
    pub fn record(&mut self, ns: u64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(ns);
        } else {
            let j = self.next() % self.seen;
            if (j as usize) < RESERVOIR_CAP {
                self.samples[j as usize] = ns;
            }
        }
    }

    /// Total samples offered (not the retained count).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of retained samples (≤ the reservoir capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the reservoir holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank `p`-th percentile (0 < p ≤ 100) over the retained
    /// sample, in nanoseconds; 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Merges another reservoir into this one: retained samples are pooled
    /// and deterministically subsampled back down to capacity. Per-thread
    /// streams of similar length (the benchmark harness's case) keep
    /// near-uniform weight; wildly unequal streams are approximated.
    pub fn merge(&mut self, other: &Reservoir) {
        self.seen += other.seen;
        self.samples.extend_from_slice(&other.samples);
        while self.samples.len() > RESERVOIR_CAP {
            let j = (self.next() % self.samples.len() as u64) as usize;
            self.samples.swap_remove(j);
        }
    }
}

/// Streaming latency aggregate: count, sum, max, plus a uniform reservoir
/// sample for percentile estimates — all in nanoseconds.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LatencyRecorder {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
    /// Uniform subsample of the stream for percentile estimates.
    pub reservoir: Reservoir,
}

impl LatencyRecorder {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.reservoir.record(ns);
    }

    /// Reservoir-sampled `p`-th percentile: nearest-rank over the retained
    /// uniform subsample — exact while the stream fits the reservoir,
    /// a sampling estimate beyond it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 100]`.
    pub fn sampled_percentile_ns(&self, p: f64) -> u64 {
        self.reservoir.percentile_ns(p)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Merges another recorder into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.reservoir.merge(&other.reservoir);
    }
}

/// One contended cache line's aggregate in a [`ConflictTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictLine {
    /// The cache line index (as attributed by the substrate).
    pub line: u64,
    /// How many conflict aborts were attributed to this line.
    pub count: u64,
    /// The peer thread id attributed most recently.
    pub last_peer: u32,
}

/// Per-line conflict-abort aggregation: which cache lines this session's
/// conflict aborts were attributed to, and by whom. The evaluation's
/// "which line is hot" question, answered without a full trace.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ConflictTable {
    lines: std::collections::HashMap<u64, (u64, u32)>,
}

impl ConflictTable {
    /// Records one attributed conflict abort.
    pub fn record(&mut self, line: u64, peer: u32) {
        let e = self.lines.entry(line).or_insert((0, peer));
        e.0 += 1;
        e.1 = peer;
    }

    /// The `k` most contended lines, most aborts first (ties by line index
    /// for deterministic output).
    pub fn top_k(&self, k: usize) -> Vec<ConflictLine> {
        let mut v: Vec<ConflictLine> = self
            .lines
            .iter()
            .map(|(&line, &(count, last_peer))| ConflictLine {
                line,
                count,
                last_peer,
            })
            .collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.line.cmp(&b.line)));
        v.truncate(k);
        v
    }

    /// Total attributed conflict aborts.
    pub fn total(&self) -> u64 {
        self.lines.values().map(|&(c, _)| c).sum()
    }

    /// Whether any conflict has been attributed.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Merges another table into this one (cross-thread aggregation).
    pub fn merge(&mut self, other: &ConflictTable) {
        for (&line, &(count, peer)) in &other.lines {
            let e = self.lines.entry(line).or_insert((0, peer));
            e.0 += count;
        }
    }
}

/// Per-thread statistics for one benchmark session: commit-mode breakdown
/// per role, abort-cause breakdown, per-role latency, and per-line
/// conflict attribution.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SessionStats {
    reader_commits: [u64; 4],
    writer_commits: [u64; 4],
    aborts: [u64; 7],
    /// Reader critical-section latency (lock request → unlock).
    pub reader_latency: LatencyRecorder,
    /// Writer critical-section latency (lock request → unlock).
    pub writer_latency: LatencyRecorder,
    /// Which cache lines conflict aborts were attributed to.
    pub conflict_lines: ConflictTable,
    /// Trace events lost to ring-buffer wrap-around (see
    /// `LockThread::fold_trace_counters`).
    pub trace_dropped: u64,
    /// Events suppressed by sampled tracing (not lost — deliberately
    /// unrecorded; rescale with the capture's sampling metadata).
    pub trace_unsampled: u64,
}

impl SessionStats {
    /// Records a committed critical section: role, mode, end-to-end latency.
    pub fn record_commit(&mut self, role: Role, mode: CommitMode, latency_ns: u64) {
        match role {
            Role::Reader => {
                self.reader_commits[mode.index()] += 1;
                self.reader_latency.record(latency_ns);
            }
            Role::Writer => {
                self.writer_commits[mode.index()] += 1;
                self.writer_latency.record(latency_ns);
            }
        }
    }

    /// Records one speculative abort.
    pub fn record_abort(&mut self, cause: AbortCause) {
        self.aborts[cause.index()] += 1;
    }

    /// Records the attribution of a conflict abort: the contended cache
    /// line and the peer thread that won it.
    pub fn record_conflict(&mut self, line: u64, peer: u32) {
        self.conflict_lines.record(line, peer);
    }

    /// Commits of `mode` across both roles.
    pub fn commits_in(&self, mode: CommitMode) -> u64 {
        self.reader_commits[mode.index()] + self.writer_commits[mode.index()]
    }

    /// Commits of `mode` for one role.
    pub fn commits_by(&self, role: Role, mode: CommitMode) -> u64 {
        match role {
            Role::Reader => self.reader_commits[mode.index()],
            Role::Writer => self.writer_commits[mode.index()],
        }
    }

    /// Total committed critical sections.
    pub fn total_commits(&self) -> u64 {
        self.reader_commits.iter().sum::<u64>() + self.writer_commits.iter().sum::<u64>()
    }

    /// Aborts of `cause`.
    pub fn aborts_of(&self, cause: AbortCause) -> u64 {
        self.aborts[cause.index()]
    }

    /// Total aborts of any cause.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Fraction of speculative attempts that aborted (0 when idle).
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.total_commits() + self.total_aborts();
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / attempts as f64
        }
    }

    /// Merges `other` into `self` (cross-thread aggregation).
    pub fn merge(&mut self, other: &SessionStats) {
        for i in 0..4 {
            self.reader_commits[i] += other.reader_commits[i];
            self.writer_commits[i] += other.writer_commits[i];
        }
        for i in 0..7 {
            self.aborts[i] += other.aborts[i];
        }
        self.reader_latency.merge(&other.reader_latency);
        self.writer_latency.merge(&other.writer_latency);
        self.conflict_lines.merge(&other.conflict_lines);
        self.trace_dropped += other.trace_dropped;
        self.trace_unsampled += other.trace_unsampled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_the_paper_taxonomy() {
        assert_eq!(
            AbortCause::classify(Abort::Conflict, TxKind::Htm),
            AbortCause::Conflict
        );
        assert_eq!(
            AbortCause::classify(Abort::Conflict, TxKind::Rot),
            AbortCause::ConflictRot
        );
        assert_eq!(
            AbortCause::classify(Abort::CapacityRead, TxKind::Htm),
            AbortCause::Capacity
        );
        assert_eq!(
            AbortCause::classify(Abort::CapacityWrite, TxKind::Rot),
            AbortCause::CapacityRot
        );
        assert_eq!(
            AbortCause::classify(Abort::Explicit(ABORT_READER), TxKind::Htm),
            AbortCause::Reader
        );
        assert_eq!(
            AbortCause::classify(Abort::Explicit(ABORT_LOCKED), TxKind::Htm),
            AbortCause::Explicit
        );
        assert_eq!(
            AbortCause::classify(Abort::Interrupt, TxKind::Htm),
            AbortCause::Interrupt
        );
    }

    #[test]
    fn commit_bookkeeping_by_role_and_mode() {
        let mut s = SessionStats::default();
        s.record_commit(Role::Reader, CommitMode::Unins, 100);
        s.record_commit(Role::Reader, CommitMode::Unins, 300);
        s.record_commit(Role::Writer, CommitMode::Htm, 50);
        assert_eq!(s.commits_by(Role::Reader, CommitMode::Unins), 2);
        assert_eq!(s.commits_by(Role::Writer, CommitMode::Htm), 1);
        assert_eq!(s.commits_in(CommitMode::Unins), 2);
        assert_eq!(s.total_commits(), 3);
        assert_eq!(s.reader_latency.mean_ns(), 200);
        assert_eq!(s.reader_latency.max_ns, 300);
        assert_eq!(s.writer_latency.count, 1);
    }

    #[test]
    fn abort_ratio_and_merge() {
        let mut a = SessionStats::default();
        a.record_commit(Role::Writer, CommitMode::Htm, 10);
        a.record_abort(AbortCause::Conflict);
        a.record_abort(AbortCause::Reader);
        assert!((a.abort_ratio() - 2.0 / 3.0).abs() < 1e-9);

        let mut b = SessionStats::default();
        b.record_commit(Role::Reader, CommitMode::Gl, 20);
        b.record_abort(AbortCause::Capacity);
        a.merge(&b);
        assert_eq!(a.total_commits(), 2);
        assert_eq!(a.total_aborts(), 3);
        assert_eq!(a.aborts_of(AbortCause::Capacity), 1);
    }

    #[test]
    fn latency_recorder_defaults() {
        let l = LatencyRecorder::default();
        assert_eq!(l.mean_ns(), 0);
        assert_eq!(l.count, 0);
        assert_eq!(l.sampled_percentile_ns(99.0), 0);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut l = LatencyRecorder::default();
        // 99 fast samples of 1 µs, one slow 1 ms outlier.
        for _ in 0..99 {
            l.record(1_000);
        }
        l.record(1_000_000);
        assert_eq!(l.sampled_percentile_ns(50.0), 1_000);
        assert_eq!(
            l.sampled_percentile_ns(99.0),
            1_000,
            "p99 should ignore the outlier"
        );
        assert_eq!(l.sampled_percentile_ns(100.0), 1_000_000, "p100 is the max");
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let mut l = LatencyRecorder::default();
        l.record(0);
        l.record(u64::MAX / 2);
        assert_eq!(l.count, 2);
        assert_eq!(l.sampled_percentile_ns(50.0), 0);
        assert_eq!(l.sampled_percentile_ns(100.0), u64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        LatencyRecorder::default().sampled_percentile_ns(0.0);
    }

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = Reservoir::default();
        for ns in 1..=100u64 {
            r.record(ns);
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.seen(), 100);
        assert_eq!(r.percentile_ns(50.0), 50);
        assert_eq!(r.percentile_ns(99.0), 99);
        assert_eq!(r.percentile_ns(100.0), 100);
        assert_eq!(Reservoir::default().percentile_ns(50.0), 0);
    }

    #[test]
    fn reservoir_subsamples_deterministically_past_capacity() {
        let run = || {
            let mut r = Reservoir::default();
            for i in 0..10_000u64 {
                r.record(i % 1_000);
            }
            r
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same stream, same reservoir");
        assert_eq!(a.len(), RESERVOIR_CAP);
        assert_eq!(a.seen(), 10_000);
        // The stream is uniform over 0..1000; the sampled median should
        // land well inside the middle half.
        let p50 = a.percentile_ns(50.0);
        assert!((250..=750).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn reservoir_merge_is_deterministic_and_pools_samples() {
        let mk = |lo: u64, n: u64| {
            let mut r = Reservoir::default();
            for i in 0..n {
                r.record(lo + i);
            }
            r
        };
        let mut a = mk(0, 400);
        a.merge(&mk(10_000, 400));
        let mut b = mk(0, 400);
        b.merge(&mk(10_000, 400));
        assert_eq!(a, b, "merge must be reproducible");
        assert_eq!(a.seen(), 800);
        assert_eq!(a.len(), RESERVOIR_CAP);
        // Both halves survive the subsample.
        assert!(a.percentile_ns(25.0) < 10_000);
        assert!(a.percentile_ns(90.0) >= 10_000);
    }

    #[test]
    fn sampled_percentiles_flow_through_the_recorder() {
        let mut l = LatencyRecorder::default();
        for ns in [100u64, 200, 300, 400] {
            l.record(ns);
        }
        assert_eq!(l.sampled_percentile_ns(50.0), 200);
        assert_eq!(l.sampled_percentile_ns(100.0), 400);
        let mut o = LatencyRecorder::default();
        o.record(1_000);
        l.merge(&o);
        assert_eq!(l.reservoir.seen(), 5);
        assert_eq!(l.sampled_percentile_ns(100.0), 1_000);
    }

    #[test]
    fn conflict_table_tracks_top_lines() {
        let mut t = ConflictTable::default();
        assert!(t.is_empty());
        t.record(5, 1);
        t.record(5, 2);
        t.record(9, 0);
        assert_eq!(t.total(), 3);
        let top = t.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].line, 5);
        assert_eq!(top[0].count, 2);
        assert_eq!(top[0].last_peer, 2, "most recent peer wins");
        assert_eq!(top[1].line, 9);

        let mut u = ConflictTable::default();
        u.record(9, 3);
        u.record(9, 3);
        t.merge(&u);
        assert_eq!(t.top_k(1)[0].line, 9, "merge re-ranks");
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn session_stats_surface_conflict_attribution() {
        let mut s = SessionStats::default();
        s.record_conflict(42, 7);
        s.record_conflict(42, 7);
        let mut o = SessionStats::default();
        o.record_conflict(8, 1);
        s.merge(&o);
        assert_eq!(s.conflict_lines.total(), 3);
        assert_eq!(s.conflict_lines.top_k(1)[0].line, 42);
    }

    #[test]
    fn mode_and_cause_indices_are_bijective() {
        for (i, m) in CommitMode::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert!(!m.label().is_empty());
        }
        for (i, c) in AbortCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
        }
    }
}
