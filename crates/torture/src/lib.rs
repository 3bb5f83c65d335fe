//! Deterministic concurrency-torture harness for every [`RwSync`]
//! implementation in the workspace.
//!
//! # How it works
//!
//! Each *case* ([`TortureSpec`]) drives one lock implementation with a
//! fixed number of randomized-but-reproducible reader/writer operations
//! over a bank of **mirror pairs** in simulated memory: cells `A[p]` and
//! `B[p]` start equal and every writer increments both inside one write
//! critical section. The pair structure turns every synchronization bug
//! into an observable arithmetic fact:
//!
//! * **torn read** — a reader (or an entering writer) observes
//!   `A[p] != B[p]`: it saw the middle of someone's write section;
//! * **lost update** — at the end, `A[p]` is smaller than the number of
//!   committed writer operations on `p`: two writers overlapped;
//! * **ghost update** — `A[p]` is larger: an aborted speculative attempt
//!   leaked its buffered writes;
//! * **leaked registration** — after all threads joined, the lock's own
//!   [`RwSync::check_quiescent`] oracle finds a raised reader flag, an
//!   unbalanced SNZI arrive, a held fallback lock, or a stale scheduling
//!   advert;
//! * **miscounted stats** — a thread's [`SessionStats`] disagree with the
//!   operations it actually issued (commits ≠ ops, or the per-cause abort
//!   counts do not sum to the abort total).
//!
//! Violations are reported **only** through values returned from
//! *committed* critical sections and through post-run memory inspection,
//! never from inside speculative attempts — an aborted transaction's
//! sights are allowed to be arbitrary, so they must not poison the oracle.
//!
//! # Determinism and replay
//!
//! All randomness — per-thread operation sequences, HTM interrupt
//! injection, and the simulator's schedule perturbation — derives from
//! the case seed. A violation prints that seed; replay it with
//!
//! ```text
//! TORTURE_SEED=0x<seed> cargo test -p sprwl-torture
//! ```
//!
//! (or pass `--seed` to the `torture` binary). Under the free-running
//! scheduler, OS thread interleavings are of course not replayed
//! bit-for-bit, but every checked invariant must hold under *any*
//! interleaving, and the seeded schedule shake
//! ([`htm_sim::HtmConfig::sched_shake_prob`]) explores different
//! interleaving families per seed.
//!
//! Cases run under [`htm_sim::SchedulerKind::Deterministic`] (the
//! [`det_matrix`]) go further: the simulator serializes every thread
//! through explicit yield points and picks the next runnable thread from
//! a seeded PRNG, so the *entire interleaving* is a pure function of
//! `(schedule seed, case seed, spec)`. The runner derives a per-case
//! schedule seed from the case seed (override it with
//! `TORTURE_SCHED_SEED`, same syntax as `TORTURE_SEED`); a violation
//! prints both, and replaying with both re-executes the exact
//! interleaving that failed — bit-identical per-thread event traces
//! included. When a deterministic case fails, the runner immediately
//! re-runs it and appends a determinism note to the report: either
//! confirmation that the replay was bit-exact and re-triggered the same
//! violation, or the first trace line where the two runs diverged (see
//! [`first_divergence`]), which indicates a thread blocking outside the
//! scheduler's view.
//!
//! Workers trace into a postmortem ring by default; `TORTURE_TRACE`
//! (`off`, `ring:CAP` or `sampled:RATE:CAP`, the
//! [`TraceConfig::parse`] grammar) overrides the policy for
//! non-history cases — lincheck cases always keep the full ring their
//! oracle needs. The active policy is recorded in every violation and
//! postmortem dump, and in the replay command when the override drove it,
//! so a replayed run traces exactly like the failing one.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use htm_sim::clock::SpinWait;
use htm_sim::{Htm, HtmConfig, SchedulePolicyKind, SchedulerKind, CELLS_PER_LINE};
use sprwl::{ReaderHtm, SprwlConfig};
use sprwl_lincheck::{check, labels, CheckConfig, History, Verdict};
use sprwl_locks::{CommitMode, LockThread, Role, RwSync, SectionId, SessionStats};
use sprwl_server::ServerConfig as KvServerConfig;
use sprwl_trace::{export, EventKind, ThreadTrace, TraceBuffer, TraceConfig};
use sprwl_workloads::redis::RedisSpec;

pub mod explore;

/// Sentinel returned from a critical section that observed a torn mirror
/// pair. Legitimate section results (pair counters and their partial sums)
/// stay far below this for any feasible iteration count.
const POISON: u64 = u64::MAX;

/// Section ids used by the torture workload (the duration estimator keys
/// its per-section statistics on these).
const SEC_READ: SectionId = SectionId(0);
const SEC_WRITE: SectionId = SectionId(1);

/// Default base seed when `TORTURE_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0x0070_D70C_AB1E_5EED;

/// Stateless splitmix64 step — the harness's only source of randomness.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a case name, for deriving per-case seeds from the base seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// A tiny deterministic per-thread PRNG (splitmix64 stream).
#[derive(Debug)]
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    #[inline]
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }
}

/// Salt mixed into a case seed to derive its default schedule seed, so the
/// two seeded streams (workload randomness vs. thread interleaving) never
/// collide even though both descend from the same case seed.
const SCHED_SALT: u64 = 0x5EED_5C8E_D01E_D00D;

/// Parses a `u64` env-var value, decimal or `0x…` hex.
fn parse_seed_var(name: &str) -> Option<u64> {
    let s = std::env::var(name).ok()?;
    let s = s.trim();
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    Some(parsed.unwrap_or_else(|_| panic!("{name} {s:?} is not a u64")))
}

/// The base seed for this process: `TORTURE_SEED` (decimal or `0x…` hex)
/// if set, [`DEFAULT_SEED`] otherwise.
pub fn base_seed() -> u64 {
    parse_seed_var("TORTURE_SEED").unwrap_or(DEFAULT_SEED)
}

/// The schedule-seed override for deterministic cases: `TORTURE_SCHED_SEED`
/// (decimal or `0x…` hex) if set. When absent, each deterministic case
/// derives its schedule seed from its case seed, so a plain `TORTURE_SEED`
/// replay already reproduces the interleaving; the override exists to pin
/// the schedule while varying the workload seed (or vice versa).
pub fn sched_seed_override() -> Option<u64> {
    parse_seed_var("TORTURE_SCHED_SEED")
}

/// The schedule seed a deterministic case runs under when
/// `TORTURE_SCHED_SEED` is not set: a salted mix of the case seed.
pub fn derived_sched_seed(case_seed: u64) -> u64 {
    mix64(case_seed ^ SCHED_SALT)
}

/// The worker trace-policy override: `TORTURE_TRACE` in the
/// [`TraceConfig::parse`] grammar (`off`, `ring:CAP`, `sampled:RATE:CAP`).
/// `None` when unset.
///
/// # Panics
///
/// Panics on a malformed value — same contract as the seed vars: a typo'd
/// knob must not silently run the default configuration.
pub fn trace_override() -> Option<TraceConfig> {
    let s = std::env::var("TORTURE_TRACE").ok()?;
    Some(
        TraceConfig::parse(&s).unwrap_or_else(|| {
            panic!("TORTURE_TRACE {s:?} is not off, ring:CAP or sampled:RATE:CAP")
        }),
    )
}

/// Compares two JSONL trace dumps line by line and returns the first
/// divergence as `(1-based line number, line from a, line from b)`, or
/// `None` if the dumps are byte-identical. A side that ran out of lines
/// reports `"<end of trace>"`. This is the in-process twin of
/// `scripts/diff_traces.py`.
pub fn first_divergence(a: &str, b: &str) -> Option<(usize, String, String)> {
    const END: &str = "<end of trace>";
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut n = 0usize;
    loop {
        n += 1;
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                return Some((
                    n,
                    x.unwrap_or(END).to_string(),
                    y.unwrap_or(END).to_string(),
                ))
            }
        }
    }
}

/// Which lock implementation a torture case exercises: the benchmarks'
/// catalogue, so a case and a bench point name the same five schemes.
pub use sprwl_bench::LockKind;

/// The operation shape a torture case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The classic single-lock mirror-pair workload.
    Mirror,
    /// The whole `sprwl-server` sharded async KV service end-to-end:
    /// hashed key routing over [`TortureSpec::pairs`] shards (one SpRWL
    /// each), future-based guard acquisition parked on wake-lists, and
    /// redis-shaped GET/SET/MSET traffic. "Pair" `p` of the oracle is
    /// shard `p`'s store: its final counter sum must equal the committed
    /// increments every worker routed there. Requires
    /// [`LockKind::Sprwl`] (its `reader_tracking` configures every shard)
    /// and a deterministic scheduler.
    ServerKv,
}

/// One torture case: a lock, a fault model, and a workload shape.
#[derive(Debug, Clone)]
pub struct TortureSpec {
    /// Case name (drives the per-case seed and appears in reports).
    pub name: String,
    /// The lock under test.
    pub lock: LockKind,
    /// HTM fault model (capacity, conflict policy, interrupt injection,
    /// schedule shake). `max_threads` and `seed` are overwritten by the
    /// runner.
    pub htm: HtmConfig,
    /// Worker threads.
    pub threads: usize,
    /// Operations (critical sections) issued per thread.
    pub ops_per_thread: usize,
    /// Mirror pairs in the shared bank (shards, for server-kv cases).
    pub pairs: usize,
    /// Percentage (0–100) of operations that are writes.
    pub write_pct: u32,
    /// Mirror pairs each read section scans.
    pub reader_span: usize,
    /// Mirror pairs each write section increments (default 1). The oracle
    /// and the lincheck history both treat the spanned increments as one
    /// atomic multi-register op, so a torn pair — or a reader observing a
    /// half-applied span — is a verdict, not noise.
    pub writer_span: usize,
    /// Extra mirror pairs each write section *reads* (observing them into
    /// the lincheck history) before its increments, clamped so the scan
    /// window never overlaps the increment window (default 0). This is
    /// the read-heavy writer shape of the paper's long traversals: with
    /// `alloc_padded` banks a scan of `s` pairs adds `2s` read-only lines
    /// to the writer's footprint without growing its write set, which is
    /// precisely what overflows the HTM budget while still fitting the
    /// ROT budget — the shape the `rwle-rot` cases exercise.
    pub writer_scan: usize,
    /// The operation shape (mirror pairs or the sharded KV service).
    pub workload: Workload,
    /// Record a `lin-*` operation history in each worker's trace and run
    /// the offline linearizability checker as a second verdict after the
    /// end-state oracle. Enlarges the per-thread trace ring so the whole
    /// history fits.
    pub lincheck: bool,
    /// Mid-case dynamic thread churn: halfway through its op quota each
    /// worker releases its claimed thread context back to the registry
    /// and re-acquires a (possibly different) slot before continuing —
    /// the dynamic-registration torture axis. The quiescence oracle then
    /// also requires every context to be released after the workers join.
    /// Mirror workload only.
    pub churn: bool,
}

impl TortureSpec {
    /// Total operations this case issues across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads * self.ops_per_thread
    }
}

/// An invariant violation, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The case that failed.
    pub case: String,
    /// The seed the case ran under (already case-derived).
    pub seed: u64,
    /// The base seed the run started from (what `TORTURE_SEED` replays).
    pub base_seed: u64,
    /// The schedule seed, when the case ran under the deterministic
    /// scheduler (what `TORTURE_SCHED_SEED` replays). `None` for
    /// free-running cases, whose interleavings are not replayable.
    pub sched_seed: Option<u64>,
    /// What the oracle saw.
    pub detail: String,
    /// The trace policy the workers ran under, in [`TraceConfig::label`]
    /// form (e.g. `ring:512`, `sampled:64:512`) — recorded so the
    /// postmortem's coverage (full tail vs. 1-in-N sections) is part of
    /// the failure report, and so a replay can re-trace identically.
    pub trace: String,
    /// Where the per-thread event-trace postmortem was dumped (JSONL; the
    /// first line is run metadata with the replay command), if the dump
    /// could be written.
    pub postmortem: Option<std::path::PathBuf>,
}

impl Violation {
    /// The exact shell prefix + command that replays this violation. For
    /// deterministic cases it pins both seeds, so the replay re-executes
    /// the failing interleaving bit-for-bit. When a `TORTURE_TRACE`
    /// override shaped this run's tracing, the prefix pins that too.
    pub fn replay_cmd(&self) -> String {
        let trace_prefix = if std::env::var_os("TORTURE_TRACE").is_some() {
            format!("TORTURE_TRACE={} ", self.trace)
        } else {
            String::new()
        };
        match self.sched_seed {
            Some(s) => format!(
                "{trace_prefix}TORTURE_SEED={:#x} TORTURE_SCHED_SEED={s:#x} cargo test -p sprwl-torture",
                self.base_seed
            ),
            None => format!(
                "{trace_prefix}TORTURE_SEED={:#x} cargo test -p sprwl-torture",
                self.base_seed
            ),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "torture violation in case `{}`: {}\n  replay with: {}\n  (case seed {:#x})",
            self.case,
            self.detail,
            self.replay_cmd(),
            self.seed
        )?;
        if let Some(p) = &self.postmortem {
            write!(f, "\n  postmortem trace: {}", p.display())?;
        }
        Ok(())
    }
}

/// Events each torture worker keeps in its postmortem ring: deep enough to
/// cover the tail of a run (the marks plus the lock's own lifecycle
/// events), small enough to stay off the workload's critical path.
const POSTMORTEM_RING: usize = 512;

/// Dumps the per-thread traces next to a violation: one JSONL file whose
/// first line is run metadata (including the replay command), then every
/// thread's chronological events. Directory: `TORTURE_DUMP_DIR` if set,
/// the OS temp directory otherwise. Returns `None` if the write failed —
/// a postmortem must never turn a violation report into a panic.
fn write_postmortem(v: &Violation, traces: &[ThreadTrace]) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("TORTURE_DUMP_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let path = dir.join(format!(
        "torture-{}-{:016x}.postmortem.jsonl",
        v.case, v.seed
    ));
    let sched = match v.sched_seed {
        Some(s) => format!("\"{s:#x}\""),
        None => "null".to_string(),
    };
    let mut body = format!(
        "{{\"case\":{:?},\"detail\":{:?},\"base_seed\":\"{:#x}\",\"case_seed\":\"{:#x}\",\"sched_seed\":{},\"trace\":{:?},\"replay\":{:?},\"threads\":{}}}\n",
        v.case,
        v.detail,
        v.base_seed,
        v.seed,
        sched,
        v.trace,
        v.replay_cmd(),
        traces.len()
    );
    body.push_str(&export::jsonl(traces));
    std::fs::write(&path, body).ok().map(|()| path)
}

/// What the linearizability checker concluded about a clean run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LincheckStatus {
    /// The case did not record a history (`lincheck: false`).
    #[default]
    NotRun,
    /// A linearization of the recorded history exists.
    Linearizable,
    /// The checker could not decide (incomplete history or node budget).
    Unknown,
}

impl LincheckStatus {
    /// Short label for report lines.
    pub fn label(self) -> &'static str {
        match self {
            LincheckStatus::NotRun => "off",
            LincheckStatus::Linearizable => "ok",
            LincheckStatus::Unknown => "unknown",
        }
    }
}

/// Aggregate outcome of a clean run (for reporting and smoke assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Committed read sections.
    pub reader_commits: u64,
    /// Committed write sections.
    pub writer_commits: u64,
    /// Sections that committed in hardware (HTM or ROT).
    pub speculative_commits: u64,
    /// Aborted speculative attempts (all causes).
    pub aborts: u64,
    /// Sum of all mirror-pair counters at the end of the run.
    pub final_increments: u64,
    /// The linearizability checker's verdict on the recorded history (a
    /// non-linearizable history never reaches a summary — it is a
    /// violation).
    pub lincheck: LincheckStatus,
}

/// Per-thread output collected after the workers join.
#[derive(Debug)]
struct ThreadOut {
    incr: Vec<u64>,
    reader_ops: u64,
    writer_ops: u64,
    torn: Option<String>,
    stats: SessionStats,
    trace: ThreadTrace,
}

/// Trace-ring capacity for a worker: history-recording cases need the
/// *whole* run to fit (inv/effect/ret marks plus the lock's own lifecycle
/// events, with a generous per-op allowance for retries), postmortem-only
/// cases just keep a tail.
fn worker_ring(spec: &TortureSpec) -> usize {
    if spec.lincheck {
        spec.ops_per_thread * 96 + POSTMORTEM_RING
    } else {
        POSTMORTEM_RING
    }
}

/// The trace policy torture workers run under: the `TORTURE_TRACE`
/// override when set, the default postmortem ring otherwise. History
/// (lincheck) cases always keep the full ring — their oracle consumes the
/// complete `lin-*` mark stream, which sampling (or `off`) would starve.
fn worker_trace(spec: &TortureSpec) -> TraceConfig {
    if spec.lincheck {
        return TraceConfig::ring(worker_ring(spec));
    }
    trace_override().unwrap_or_else(|| TraceConfig::ring(worker_ring(spec)))
}

/// Mid-case context churn: tears the worker's [`LockThread`] down
/// (releasing its registry slot and deregistering from the scheduler) and
/// rebuilds it on a freshly acquired — possibly different — slot,
/// carrying the accumulated stats and trace across. The gap between
/// release and re-acquire runs off-schedule; surviving that window is
/// exactly what the dynamic-registration machinery is for.
///
/// The release waits until every worker has claimed its first context
/// (`claimed` reaches `threads`): a slot freed earlier could be taken by
/// this re-acquire before its own worker's fixed-slot claim, which would
/// then find it taken.
fn churn_ctx<'h>(
    mut t: LockThread<'h>,
    htm: &'h Htm,
    claimed: &AtomicUsize,
    threads: usize,
) -> LockThread<'h> {
    let mut wait = SpinWait::new();
    while claimed.load(Ordering::SeqCst) < threads {
        wait.snooze();
    }
    let old = t.tid() as u32;
    t.trace.push(EventKind::SlotRelease { slot: old });
    let stats = std::mem::take(&mut t.stats);
    let trace = std::mem::replace(&mut t.trace, TraceBuffer::disabled(old));
    drop(t);
    let mut t = LockThread::with_trace(htm.acquire_thread(), TraceConfig::Off);
    t.stats = stats;
    t.trace = trace;
    let new = t.tid() as u32;
    t.trace.push(EventKind::SlotAcquire { slot: new });
    t
}

#[allow(clippy::too_many_arguments)]
fn worker(
    lock: &dyn RwSync,
    htm: &Htm,
    spec: &TortureSpec,
    bank_a: &[htm_sim::CellId],
    bank_b: &[htm_sim::CellId],
    case_seed: u64,
    tid: usize,
    claimed: &AtomicUsize,
) -> ThreadOut {
    // Every worker keeps an event ring so an oracle violation can dump the
    // tail of what each thread was doing — the lock's own lifecycle events
    // (for the instrumented schemes) plus one mark per issued op — and, for
    // lincheck cases, the full `lin-*` operation history.
    let mut t = LockThread::with_trace(htm.thread(tid), worker_trace(spec));
    claimed.fetch_add(1, Ordering::SeqCst);
    let mut rng = Prng::new(mix64(case_seed ^ ((tid as u64 + 1) << 32)));
    let mut incr = vec![0u64; spec.pairs];
    let mut reader_ops = 0u64;
    let mut writer_ops = 0u64;
    let mut torn = None;
    let lin = spec.lincheck;
    let mut obs: Vec<(usize, u64)> = Vec::with_capacity(spec.pairs);
    let mut scan_obs: Vec<(usize, u64)> = Vec::with_capacity(spec.pairs);

    for seq in 0..spec.ops_per_thread as u64 {
        if spec.churn && seq > 0 && seq == spec.ops_per_thread as u64 / 2 {
            t = churn_ctx(t, htm, claimed, spec.threads);
        }
        let is_write = rng.next() % 100 < u64::from(spec.write_pct);
        let p = (rng.next() as usize) % spec.pairs;
        t.trace.push(EventKind::Mark {
            label: "torture-op",
            a: p as u64,
            b: u64::from(is_write),
        });
        if is_write {
            let span = spec.writer_span.min(spec.pairs).max(1);
            let scan = spec.writer_scan.min(spec.pairs - span);
            if lin {
                // Invocation mark *before* the section call, so the
                // recorded interval contains the true one.
                t.trace.push(EventKind::Mark {
                    label: labels::INV,
                    a: seq,
                    b: 1,
                });
            }
            let r = lock.write_section(&mut t, SEC_WRITE, &mut |acc| {
                // The side buffers are reset at the top of every attempt,
                // so after the call they hold exactly the *committed*
                // attempt's observations (aborted attempts never return).
                obs.clear();
                scan_obs.clear();
                // Scan phase: read-only pairs disjoint from the increment
                // window, torn-checked like any reader.
                for k in 0..scan {
                    let i = (p + span + k) % spec.pairs;
                    let a = acc.read(bank_a[i])?;
                    let b = acc.read(bank_b[i])?;
                    if a != b {
                        return Ok(POISON);
                    }
                    scan_obs.push((i, a));
                }
                for k in 0..span {
                    let i = (p + k) % spec.pairs;
                    let a = acc.read(bank_a[i])?;
                    let b = acc.read(bank_b[i])?;
                    acc.write(bank_a[i], a + 1)?;
                    acc.write(bank_b[i], b + 1)?;
                    if a != b {
                        return Ok(POISON);
                    }
                    obs.push((i, a));
                }
                Ok(0)
            });
            if r == POISON {
                // No lin-ret: the op stays pending and the extractor drops
                // it (the case is already failing the end-state oracle).
                torn = Some(format!("writer {tid} entered on torn pair near {p}"));
                break;
            }
            if lin {
                // Mirror pair `i` is register `i` of the sequential model,
                // and the section is one op: a read per scanned pair and a
                // fetch-and-add per spanned pair, at the committed values.
                for &(i, v) in &scan_obs {
                    t.trace.push(EventKind::Mark {
                        label: labels::READ,
                        a: i as u64,
                        b: v,
                    });
                }
                for &(i, v) in &obs {
                    t.trace.push(EventKind::Mark {
                        label: labels::WRITE,
                        a: i as u64,
                        b: v,
                    });
                }
                t.trace.push(EventKind::Mark {
                    label: labels::RET,
                    a: seq,
                    b: 0,
                });
            }
            for k in 0..span {
                incr[(p + k) % spec.pairs] += 1;
            }
            writer_ops += 1;
        } else {
            let span = spec.reader_span.min(spec.pairs).max(1);
            let start = (rng.next() as usize) % spec.pairs;
            if lin {
                t.trace.push(EventKind::Mark {
                    label: labels::INV,
                    a: seq,
                    b: 0,
                });
            }
            let r = lock.read_section(&mut t, SEC_READ, &mut |acc| {
                // The side buffer is reset at the top of every attempt, so
                // after the call it holds exactly the *committed* attempt's
                // observations (retried attempts overwrite it).
                obs.clear();
                let mut sum = 0u64;
                for k in 0..span {
                    let i = (start + k) % spec.pairs;
                    let a = acc.read(bank_a[i])?;
                    let b = acc.read(bank_b[i])?;
                    if a != b {
                        return Ok(POISON);
                    }
                    obs.push((i, a));
                    sum = sum.wrapping_add(a);
                }
                Ok(sum)
            });
            if r == POISON {
                torn = Some(format!("reader {tid} saw a torn pair near {start}"));
                break;
            }
            if lin {
                for &(i, v) in &obs {
                    t.trace.push(EventKind::Mark {
                        label: labels::READ,
                        a: i as u64,
                        b: v,
                    });
                }
                t.trace.push(EventKind::Mark {
                    label: labels::RET,
                    a: seq,
                    b: 0,
                });
            }
            reader_ops += 1;
        }
    }

    ThreadOut {
        incr,
        reader_ops,
        writer_ops,
        torn,
        trace: t.trace.snapshot(),
        stats: t.stats,
    }
}

/// Everything a finished case execution leaves behind, owned (no borrows
/// of the torn-down `Htm`), so the runner can execute a case twice and
/// compare the remains byte for byte.
#[derive(Debug)]
struct CaseRun {
    outs: Vec<ThreadOut>,
    /// Final `(A[p], B[p])` cell values per mirror pair.
    pairs_final: Vec<(u64, u64)>,
    /// Outcome of the lock's own post-run invariant check.
    quiescence: Result<(), String>,
    /// The scheduler's recorded decision trace (deterministic runs only;
    /// empty under the free-running scheduler).
    schedule: Vec<htm_sim::DecisionRecord>,
    /// Where a replaying policy stopped matching its recorded schedule.
    sched_divergence: Option<String>,
}

impl CaseRun {
    fn traces(&self) -> Vec<ThreadTrace> {
        self.outs.iter().map(|o| o.trace.clone()).collect()
    }
}

/// Derives the per-case HTM configuration from a spec and base seed:
/// thread count and workload seed are overwritten, and deterministic cases
/// get their schedule seed resolved (`TORTURE_SCHED_SEED` override, else a
/// nonzero seed pinned in the spec, else derivation from the case seed).
/// Returns `(config, case_seed, sched_seed)`.
fn resolve_case(spec: &TortureSpec, base_seed: u64) -> (HtmConfig, u64, Option<u64>) {
    let case_seed = mix64(base_seed ^ fnv1a(&spec.name));
    let mut cfg = spec.htm.clone();
    cfg.max_threads = spec.threads;
    cfg.seed = case_seed;
    let sched_seed = match &cfg.scheduler {
        SchedulerKind::Deterministic {
            policy: SchedulePolicyKind::Random { seed },
        } => {
            // Priority: env override > a nonzero seed pinned in the spec >
            // per-case derivation. The matrices leave the spec seed at 0 so
            // every case explores its own interleaving family per base seed.
            let s = sched_seed_override().unwrap_or(if *seed != 0 {
                *seed
            } else {
                derived_sched_seed(case_seed)
            });
            cfg.scheduler = SchedulerKind::deterministic(s);
            Some(s)
        }
        // The explorer's delay-bounded and replay schedules are
        // deterministic but not seed-addressed: their replay artifact is
        // the decision trace.
        SchedulerKind::Deterministic { .. } | SchedulerKind::Os => None,
    };
    (cfg, case_seed, sched_seed)
}

/// Whether a resolved case config serializes execution (any deterministic
/// scheduler, seeded or policy-driven).
fn is_serialized(cfg: &HtmConfig) -> bool {
    !matches!(cfg.scheduler, SchedulerKind::Os)
}

/// Builds the simulator, runs the workers, and collects everything the
/// oracle needs as owned data. Infallible: violations are *judged* later
/// by [`judge_case`], never during execution.
fn execute_case(
    spec: &TortureSpec,
    htm_cfg: &HtmConfig,
    case_seed: u64,
    build: &dyn Fn(&Htm) -> Box<dyn RwSync>,
) -> CaseRun {
    htm_cfg.validate().expect("torture case HtmConfig invalid");
    match spec.workload {
        Workload::Mirror => execute_mirror(spec, htm_cfg, case_seed, build),
        Workload::ServerKv => execute_server(spec, htm_cfg, case_seed),
    }
}

fn execute_mirror(
    spec: &TortureSpec,
    htm_cfg: &HtmConfig,
    case_seed: u64,
    build: &dyn Fn(&Htm) -> Box<dyn RwSync>,
) -> CaseRun {
    let cells = (2 * spec.pairs + 8 * spec.threads + 128) * CELLS_PER_LINE as usize;
    let htm = Htm::new(htm_cfg.clone(), cells);
    let lock = build(&htm);
    let bank_a = htm.memory().alloc_padded(spec.pairs);
    let bank_b = htm.memory().alloc_padded(spec.pairs);
    let claimed = AtomicUsize::new(0);

    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|tid| {
                let (lock, htm, bank_a, bank_b) = (&*lock, &htm, &bank_a[..], &bank_b[..]);
                let claimed = &claimed;
                s.spawn(move || worker(lock, htm, spec, bank_a, bank_b, case_seed, tid, claimed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("torture worker panicked"))
            .collect()
    });

    let mem = htm.memory();
    let pairs_final = (0..spec.pairs)
        .map(|p| (mem.peek(bank_a[p]), mem.peek(bank_b[p])))
        .collect();
    let quiescence = lock
        .check_quiescent(mem)
        .map_err(|e| e.to_string())
        .and_then(|()| check_slots_released(&htm));
    let schedule = htm.scheduler().decision_trace().unwrap_or_default();
    let sched_divergence = htm.scheduler().schedule_divergence();
    CaseRun {
        outs,
        pairs_final,
        quiescence,
        schedule,
        sched_divergence,
    }
}

/// Sharded-KV service execution: drives the entire `sprwl-server` stack
/// under this case's fault model and deterministic scheduler (a resolved
/// schedule seed, or the explorer's delay-bounded or replay policy; the
/// service parks futures on scheduler yield points), then maps
/// the run onto the oracle's shape. Shard `p` plays mirror pair `p`:
/// `pairs_final[p]` holds the shard's final counter sum on both sides and
/// each worker's `incr[p]` its committed increments routed there, so a
/// store/increment imbalance surfaces through the same lost/ghost-update
/// check as mirror-bank divergence. Worker stats, quiescence (shard locks
/// plus slot release), the decision trace, and the recorded `lin-*`
/// history all feed the shared judges unchanged.
fn execute_server(spec: &TortureSpec, htm_cfg: &HtmConfig, case_seed: u64) -> CaseRun {
    let LockKind::Sprwl(lock_cfg) = &spec.lock else {
        panic!(
            "server-kv torture case `{}` requires LockKind::Sprwl",
            spec.name
        );
    };
    // Mirror `write_pct` onto the redis mix: the non-GET share splits
    // 3:1 between single-key SETs and multi-key MSETs.
    let write_pct = spec.write_pct.min(90);
    let mut server = KvServerConfig {
        shards: spec.pairs,
        workers: spec.threads,
        warmup_ops: 8,
        ops_per_worker: spec.ops_per_thread,
        seed: case_seed,
        // Unread: `run_det_with` runs `htm_cfg`'s scheduler, whichever
        // policy picks its threads.
        schedule_seed: 0,
        spec: RedisSpec {
            keyspace: spec.pairs as u64 * 64,
            get_pct: 100 - write_pct,
            set_pct: write_pct - write_pct / 4,
            mset_keys: 3,
            ..RedisSpec::service_default()
        },
        tracking: lock_cfg.reader_tracking,
        buckets_per_shard: 32,
        payload_cells: 16,
        trace: TraceConfig::Off,
        lin_marks: spec.lincheck,
    };
    server.trace = if spec.lincheck {
        server.lin_ring()
    } else {
        worker_trace(spec)
    };
    let run = sprwl_server::run_det_with(&server, htm_cfg.clone());

    let pairs_final: Vec<(u64, u64)> = run
        .dump
        .iter()
        .map(|shard| {
            let sum: u64 = shard.iter().map(|&(_, v)| v).sum();
            (sum, sum)
        })
        .collect();
    let mut traces = run.traces.into_iter();
    let outs: Vec<ThreadOut> = run
        .worker_stats
        .into_iter()
        .zip(run.worker_increments)
        .map(|(stats, incr)| {
            let reader_ops: u64 = CommitMode::ALL
                .iter()
                .map(|&m| stats.commits_by(Role::Reader, m))
                .sum();
            let writer_ops: u64 = CommitMode::ALL
                .iter()
                .map(|&m| stats.commits_by(Role::Writer, m))
                .sum();
            ThreadOut {
                incr,
                reader_ops,
                writer_ops,
                torn: None,
                stats,
                trace: traces.next().expect("one trace per service worker"),
            }
        })
        .collect();
    CaseRun {
        outs,
        pairs_final,
        quiescence: run.quiescence,
        schedule: run.schedule,
        sched_divergence: run.sched_divergence,
    }
}

/// The slot-registry leg of the quiescence oracle: after every worker has
/// joined (dropping its `ThreadCtx`, churned or not), no thread context
/// may remain claimed — a leftover claim is a leaked registration.
fn check_slots_released(htm: &Htm) -> Result<(), String> {
    match htm.active_threads() {
        0 => Ok(()),
        n => Err(format!(
            "{n} thread context(s) still claimed after all workers joined"
        )),
    }
}

/// The oracle: checks every invariant against a finished run and returns
/// either the aggregate summary or the first violation's detail string.
fn check_case(run: &CaseRun) -> Result<RunSummary, String> {
    // 1. Torn reads observed by committed sections.
    for o in &run.outs {
        if let Some(t) = &o.torn {
            return Err(format!("torn read: {t}"));
        }
    }

    // 2. Mirror pairs at rest: banks must match, and each counter must
    //    equal the number of committed writer operations on that pair
    //    (fewer = lost update, more = leaked speculative write).
    let mut final_increments = 0u64;
    for (p, &(a, b)) in run.pairs_final.iter().enumerate() {
        if a != b {
            return Err(format!("pair {p} torn at rest: A={a}, B={b}"));
        }
        let expected: u64 = run.outs.iter().map(|o| o.incr[p]).sum();
        if a != expected {
            let kind = if a < expected {
                "lost update"
            } else {
                "ghost update"
            };
            return Err(format!(
                "{kind} on pair {p}: counter {a}, committed increments {expected}"
            ));
        }
        final_increments += a;
    }

    // 3. Quiescence: the lock's own post-run invariants.
    if let Err(e) = &run.quiescence {
        return Err(format!("quiescence check failed: {e}"));
    }

    // 4. Stats accounting: commits match the operations each thread
    //    issued, and per-cause abort counts sum to the abort total.
    let mut summary = RunSummary {
        final_increments,
        ..RunSummary::default()
    };
    for (tid, o) in run.outs.iter().enumerate() {
        let reader_commits: u64 = CommitMode::ALL
            .iter()
            .map(|&m| o.stats.commits_by(Role::Reader, m))
            .sum();
        let writer_commits: u64 = CommitMode::ALL
            .iter()
            .map(|&m| o.stats.commits_by(Role::Writer, m))
            .sum();
        if reader_commits != o.reader_ops {
            return Err(format!(
                "thread {tid}: {reader_commits} reader commits recorded for {} reader ops",
                o.reader_ops
            ));
        }
        if writer_commits != o.writer_ops {
            return Err(format!(
                "thread {tid}: {writer_commits} writer commits recorded for {} writer ops",
                o.writer_ops
            ));
        }
        if o.stats.total_commits() != o.reader_ops + o.writer_ops {
            return Err(format!(
                "thread {tid}: total_commits {} != ops issued {}",
                o.stats.total_commits(),
                o.reader_ops + o.writer_ops
            ));
        }
        let by_cause: u64 = sprwl_locks::AbortCause::ALL
            .iter()
            .map(|&c| o.stats.aborts_of(c))
            .sum();
        if by_cause != o.stats.total_aborts() {
            return Err(format!(
                "thread {tid}: per-cause aborts {by_cause} != total_aborts {}",
                o.stats.total_aborts()
            ));
        }
        summary.reader_commits += reader_commits;
        summary.writer_commits += writer_commits;
        summary.speculative_commits +=
            o.stats.commits_in(CommitMode::Htm) + o.stats.commits_in(CommitMode::Rot);
        summary.aborts += o.stats.total_aborts();
    }

    Ok(summary)
}

/// Runs the linearizability checker over a finished run's recorded
/// history. `TORTURE_LIN_BUDGET` overrides the node budget — the hook the
/// exit-code-contract tests use to force the `Unknown` path (which must
/// stay a *verdict*, never a violation).
fn lincheck_verdict(run: &CaseRun) -> Result<Verdict, String> {
    let traces = run.traces();
    let hist = History::from_traces(&traces)
        .map_err(|e| format!("lincheck: malformed recorded history: {e}"))?;
    let mut cfg = CheckConfig::default();
    if let Some(budget) = parse_seed_var("TORTURE_LIN_BUDGET") {
        cfg.max_nodes = budget;
    }
    Ok(check(&hist, &cfg))
}

/// The full verdict on a finished run: the end-state oracle first, then —
/// for history-recording cases — the linearizability checker as a second,
/// independent judge. A non-linearizable history is a violation even when
/// every end-state invariant holds (that is the checker's whole point);
/// when the oracle already failed, the checker's verdict is appended to
/// the detail as corroborating evidence.
fn judge_case(spec: &TortureSpec, run: &CaseRun) -> Result<RunSummary, String> {
    let oracle = check_case(run);
    if !spec.lincheck {
        return oracle;
    }
    match oracle {
        Ok(mut summary) => {
            match lincheck_verdict(run)? {
                Verdict::Linearizable => summary.lincheck = LincheckStatus::Linearizable,
                Verdict::Unknown(_) => summary.lincheck = LincheckStatus::Unknown,
                Verdict::NonLinearizable(d) => {
                    return Err(format!("non-linearizable history: {d}"))
                }
            }
            Ok(summary)
        }
        Err(mut detail) => {
            let verdict = match lincheck_verdict(run) {
                Ok(v) => v.to_string(),
                Err(e) => e,
            };
            detail.push_str(&format!("\n  lincheck verdict: {verdict}"));
            Err(detail)
        }
    }
}

/// Compares a deterministic case's original failing run against its
/// immediate in-process replay and renders the verdict that gets appended
/// to the violation detail: bit-exact (the replay command will re-trigger
/// the bug) or the first trace divergence (something escaped the
/// scheduler's control, which is itself a harness bug worth chasing).
fn determinism_note(
    first: &CaseRun,
    second: &CaseRun,
    second_detail: Option<&str>,
    first_detail: &str,
) -> String {
    let a = export::jsonl(&first.traces());
    let b = export::jsonl(&second.traces());
    let outcome = match second_detail {
        Some(d) if d == first_detail => "re-triggered the same violation".to_string(),
        Some(d) => format!("violated differently: {d}"),
        None => "passed the oracle".to_string(),
    };
    match first_divergence(&a, &b) {
        None => format!(
            "\n  determinism: in-process replay was bit-exact ({} trace lines) and {outcome}",
            a.lines().count()
        ),
        Some((n, la, lb)) => format!(
            "\n  determinism: in-process replay DIVERGED at trace line {n} (and {outcome})\n    first : {la}\n    second: {lb}\n    (a thread is blocking or timing outside the scheduler's view)"
        ),
    }
}

/// Runs one torture case under the given base seed and checks every
/// invariant the oracle knows about.
///
/// Deterministic cases that fail are immediately re-executed with the same
/// seeds and the violation report gains a determinism note: bit-exact
/// replay confirmation, or the first trace divergence.
///
/// # Errors
///
/// The first [`Violation`] found, with replay instructions.
///
/// # Panics
///
/// Panics on harness misconfiguration (invalid [`HtmConfig`], a worker
/// thread panicking) — not on lock bugs, which are reported as `Err`.
// A `Violation` is constructed at most once per case, on the cold path
// that ends it — boxing it would complicate every consumer for nothing.
#[allow(clippy::result_large_err)]
pub fn run_case(spec: &TortureSpec, base_seed: u64) -> Result<RunSummary, Violation> {
    run_case_with(spec, base_seed, &|htm| spec.lock.build(htm))
}

/// Like [`run_case`], but instantiates the lock through `build` instead of
/// [`TortureSpec::lock`] — the hook the harness's own self-tests use to
/// feed a deliberately broken lock through the oracle and prove the oracle
/// catches it.
///
/// # Errors
///
/// The first [`Violation`] found, with replay instructions.
///
/// # Panics
///
/// As for [`run_case`].
#[allow(clippy::result_large_err)]
pub fn run_case_with(
    spec: &TortureSpec,
    base_seed: u64,
    build: &dyn Fn(&Htm) -> Box<dyn RwSync>,
) -> Result<RunSummary, Violation> {
    let (htm_cfg, case_seed, sched_seed) = resolve_case(spec, base_seed);
    let run = execute_case(spec, &htm_cfg, case_seed, build);
    match judge_case(spec, &run) {
        Ok(summary) => Ok(summary),
        Err(mut detail) => {
            if is_serialized(&htm_cfg) {
                let rerun = execute_case(spec, &htm_cfg, case_seed, build);
                let rerun_detail = judge_case(spec, &rerun).err();
                detail.push_str(&determinism_note(
                    &run,
                    &rerun,
                    rerun_detail.as_deref(),
                    &detail,
                ));
            }
            let mut v = Violation {
                case: spec.name.clone(),
                seed: case_seed,
                base_seed,
                sched_seed,
                detail,
                trace: worker_trace(spec).label(),
                postmortem: None,
            };
            v.postmortem = write_postmortem(&v, &run.traces());
            Err(v)
        }
    }
}

/// Everything a case leaves behind, owned and comparable: the raw material
/// for determinism assertions (run a case twice, require equality) and for
/// golden-trace regression tests.
#[derive(Debug, Clone)]
pub struct CaseArtifacts {
    /// The seed the case ran under (already case-derived).
    pub case_seed: u64,
    /// The resolved schedule seed for deterministic cases, `None` otherwise.
    pub sched_seed: Option<u64>,
    /// Per-thread event traces (ring-buffered tails, in tid order).
    pub traces: Vec<ThreadTrace>,
    /// Per-thread session statistics, in tid order.
    pub stats: Vec<SessionStats>,
    /// Final `(A[p], B[p])` cell values per mirror pair.
    pub pairs_final: Vec<(u64, u64)>,
    /// What the oracle concluded: the summary, or the violation detail.
    pub outcome: Result<RunSummary, String>,
    /// The scheduler's recorded decision trace — one entry per branch
    /// point. Empty for free-running cases. This is the replay artifact
    /// the explorer serializes on a violation.
    pub schedule: Vec<htm_sim::DecisionRecord>,
    /// For replayed schedules: where the live run stopped matching the
    /// recorded decision trace (`None` = faithful, the bit-exactness
    /// precondition).
    pub sched_divergence: Option<String>,
}

impl CaseArtifacts {
    /// The per-thread traces as one JSONL dump (what the golden-trace test
    /// commits and what `scripts/diff_traces.py` consumes).
    pub fn trace_jsonl(&self) -> String {
        export::jsonl(&self.traces)
    }
}

/// Runs a case and returns everything it left behind instead of judging
/// it. Two calls with the same `(spec, base_seed, TORTURE_SCHED_SEED)`
/// under the deterministic scheduler must produce equal artifacts — that
/// is the bit-exactness contract the determinism tests enforce.
pub fn run_case_artifacts(spec: &TortureSpec, base_seed: u64) -> CaseArtifacts {
    let (htm_cfg, case_seed, sched_seed) = resolve_case(spec, base_seed);
    let run = execute_case(spec, &htm_cfg, case_seed, &|htm| spec.lock.build(htm));
    let outcome = judge_case(spec, &run);
    CaseArtifacts {
        case_seed,
        sched_seed,
        traces: run.traces(),
        stats: run.outs.iter().map(|o| o.stats.clone()).collect(),
        pairs_final: run.pairs_final.clone(),
        outcome,
        schedule: run.schedule.clone(),
        sched_divergence: run.sched_divergence.clone(),
    }
}

/// The SpRWL variants the acceptance matrix must cover:
/// {Flags, Snzi, Bravo} × {NoSched, Full}.
pub fn sprwl_matrix_configs() -> Vec<(String, SprwlConfig)> {
    use sprwl::{ReaderTracking, Scheduling};
    let mut out = Vec::new();
    for (sname, sched) in [("nosched", Scheduling::NoSched), ("full", Scheduling::Full)] {
        for (tname, tracking) in [
            ("flags", ReaderTracking::Flags),
            ("snzi", ReaderTracking::Snzi),
            ("bravo", ReaderTracking::Bravo),
        ] {
            let cfg = SprwlConfig {
                scheduling: sched,
                reader_tracking: tracking,
                ..SprwlConfig::default()
            };
            out.push((format!("sprwl-{tname}-{sname}"), cfg));
        }
    }
    out
}

/// The default torture matrix: every SpRWL acceptance variant at full
/// depth, the §3.3 versioned-SGL variant, every baseline lock, and the
/// fault-axis sweeps (interrupts, tiny and POWER8 capacity, schedule
/// shake).
///
/// `ops_per_thread` scales the whole matrix; with `threads = 4`,
/// `ops_per_thread = 250` gives the 1000-iteration acceptance floor per
/// lock configuration.
pub fn default_matrix(threads: usize, ops_per_thread: usize) -> Vec<TortureSpec> {
    use htm_sim::CapacityProfile;

    let base = |name: &str, lock: LockKind, htm: HtmConfig| TortureSpec {
        name: name.to_owned(),
        lock,
        htm,
        threads,
        ops_per_thread,
        pairs: 8,
        write_pct: 30,
        reader_span: 4,
        writer_span: 1,
        writer_scan: 0,
        workload: Workload::Mirror,
        lincheck: false,
        churn: false,
    };
    let quiet = HtmConfig::default();
    let shaken = HtmConfig {
        sched_shake_prob: 0.02,
        ..HtmConfig::default()
    };

    let mut m = Vec::new();

    // Acceptance grid: {Flags, Snzi, Bravo} × {NoSched, Full}, with
    // schedule shake on so seeds explore different interleaving families.
    // The paper-default cell also records its operation history, so the
    // linearizability checker judges an OS-scheduled run, not only the
    // serialized ones of the deterministic matrix.
    for (name, cfg) in sprwl_matrix_configs() {
        let mut spec = base(&name, LockKind::Sprwl(cfg), shaken.clone());
        spec.lincheck = name == "sprwl-flags-full";
        m.push(spec);
    }

    // §3.3 versioned SGL under writer-heavy load (fallback pressure).
    let versioned = SprwlConfig {
        versioned_sgl: true,
        ..SprwlConfig::default()
    };
    let mut spec = base(
        "sprwl-versioned-sgl",
        LockKind::Sprwl(versioned),
        shaken.clone(),
    );
    spec.write_pct = 70;
    m.push(spec);

    // Force the uninstrumented reader path (flag/unflag, Readers_Wait,
    // commit-time W-checkR aborts): with HTM probing on, the tiny torture
    // sections otherwise all fit in hardware.
    let unins_readers = SprwlConfig {
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::default()
    };
    m.push(base(
        "sprwl-unins-readers",
        LockKind::Sprwl(unins_readers.clone()),
        shaken.clone(),
    ));

    // BRAVO bias with uninstrumented readers: the bias word, the visible
    // table and the revocation drain sit on every reader/writer path
    // (with HTM probing on, short readers commit speculatively and never
    // touch the bias machinery).
    let bravo_unins = SprwlConfig {
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::with_bravo()
    };
    m.push(base(
        "sprwl-bravo-unins-readers",
        LockKind::Sprwl(bravo_unins.clone()),
        shaken.clone(),
    ));

    // Mid-case register/run/deregister: every worker swaps its thread
    // context halfway through, under the trackers with per-thread state
    // (BRAVO visible slots, reader state array) and the per-thread mutexes
    // of the big-reader lock.
    for (name, lock) in [
        ("churn-sprwl-bravo", LockKind::Sprwl(bravo_unins.clone())),
        (
            "churn-sprwl-snzi",
            LockKind::Sprwl(SprwlConfig::with_snzi()),
        ),
        ("churn-brlock", LockKind::BrLock),
    ] {
        let mut spec = base(name, lock, shaken.clone());
        spec.churn = true;
        m.push(spec);
    }

    // Versioned SGL with uninstrumented readers *and* interrupt injection:
    // interrupts exhaust writer retry budgets, driving real fallback
    // acquisitions — the only way the §3.3 bypass protocol runs in anger.
    let versioned_unins = SprwlConfig {
        versioned_sgl: true,
        ..unins_readers
    };
    m.push(base(
        "sprwl-versioned-int5",
        LockKind::Sprwl(versioned_unins),
        HtmConfig {
            interrupt_prob: 0.05,
            ..shaken.clone()
        },
    ));

    // Fault axes on the paper-default SpRWL configuration. The interrupt
    // cases check their recorded history too: injected aborts push writers
    // onto the fallback path, where a stale read would surface.
    for (tag, interrupt_prob) in [("int1", 0.01), ("int5", 0.05)] {
        let mut spec = base(
            &format!("sprwl-full-{tag}"),
            LockKind::Sprwl(SprwlConfig::default()),
            HtmConfig {
                interrupt_prob,
                ..shaken.clone()
            },
        );
        spec.lincheck = true;
        m.push(spec);
    }
    m.push(base(
        "sprwl-full-tiny-capacity",
        LockKind::Sprwl(SprwlConfig::default()),
        HtmConfig {
            capacity: CapacityProfile::TINY,
            ..shaken.clone()
        },
    ));
    m.push(base(
        "sprwl-full-power8",
        LockKind::Sprwl(SprwlConfig::default()),
        HtmConfig {
            capacity: CapacityProfile::POWER8_SIM,
            ..shaken.clone()
        },
    ));

    // Baselines: same workload, same oracle.
    m.push(base("tle", LockKind::Tle, shaken.clone()));
    m.push(base(
        "tle-int5",
        LockKind::Tle,
        HtmConfig {
            interrupt_prob: 0.05,
            ..shaken.clone()
        },
    ));
    m.push(base(
        "rwle-power8",
        LockKind::RwLe,
        HtmConfig {
            capacity: CapacityProfile::POWER8_SIM,
            ..shaken.clone()
        },
    ));
    // Read-heavy writers on TINY overflow the HTM read budget, so every
    // writer runs as a ROT: the rung whose untracked reads the writer
    // gate protects from a concurrent writer's commit.
    let mut rwle_rot = base(
        "rwle-rot",
        LockKind::RwLe,
        HtmConfig {
            capacity: CapacityProfile::TINY,
            ..shaken
        },
    );
    rwle_rot.writer_scan = 4;
    m.push(rwle_rot);
    m.push(base("brlock", LockKind::BrLock, quiet.clone()));
    m.push(base("pthread-rw", LockKind::Rwl, quiet));

    m
}

/// The deterministic torture matrix: the same lock coverage as
/// [`default_matrix`] but serialized under
/// [`SchedulerKind::Deterministic`], so every case's interleaving is a
/// pure function of its seeds and violations replay bit-for-bit.
///
/// Each spec leaves `schedule_seed` at 0, which tells the runner to derive
/// a per-case seed (see [`derived_sched_seed`]); `TORTURE_SCHED_SEED` or a
/// nonzero spec seed pin it instead. Schedule shake is off — the deterministic
/// scheduler ignores it, and its job (exploring interleaving families per
/// seed) is done by the schedule seed itself.
///
/// `pthread-rw` is deliberately absent: [`LockKind::Rwl`] blocks on a
/// real OS condvar the scheduler cannot see, which would deadlock a fully
/// serialized schedule (see [`LockKind::det_compatible`]). It keeps its
/// coverage in the free-running matrix.
pub fn det_matrix(threads: usize, ops_per_thread: usize) -> Vec<TortureSpec> {
    use htm_sim::CapacityProfile;

    let det = HtmConfig {
        scheduler: SchedulerKind::deterministic(0),
        sched_shake_prob: 0.0,
        ..HtmConfig::default()
    };
    // Every deterministic case records its operation history and runs the
    // linearizability checker as a second verdict — the interleaving is a
    // pure function of the seeds, so the history (and the verdict) is too.
    let base = |name: String, lock: LockKind, htm: HtmConfig| TortureSpec {
        name,
        lock,
        htm,
        threads,
        ops_per_thread,
        pairs: 8,
        write_pct: 30,
        reader_span: 4,
        writer_span: 1,
        writer_scan: 0,
        workload: Workload::Mirror,
        lincheck: true,
        churn: false,
    };

    let mut m = Vec::new();

    for (name, cfg) in sprwl_matrix_configs() {
        m.push(base(
            format!("det-{name}"),
            LockKind::Sprwl(cfg),
            det.clone(),
        ));
    }

    let versioned = SprwlConfig {
        versioned_sgl: true,
        ..SprwlConfig::default()
    };
    let mut spec = base(
        "det-sprwl-versioned-sgl".into(),
        LockKind::Sprwl(versioned),
        det.clone(),
    );
    spec.write_pct = 70;
    m.push(spec);

    let unins_readers = SprwlConfig {
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::default()
    };
    m.push(base(
        "det-sprwl-unins-readers".into(),
        LockKind::Sprwl(unins_readers),
        det.clone(),
    ));

    let bravo_unins = SprwlConfig {
        reader_htm: ReaderHtm::Direct,
        ..SprwlConfig::with_bravo()
    };
    m.push(base(
        "det-sprwl-bravo-unins-readers".into(),
        LockKind::Sprwl(bravo_unins.clone()),
        det.clone(),
    ));

    // Mid-case register/run/deregister under the serialized scheduler —
    // the dynamic-registration acceptance cases. The churn gap itself
    // runs off-schedule (a deregistered thread is invisible to the
    // scheduler), so these cases assert invariants, not bit-exactness.
    for (name, lock) in [
        ("det-churn-sprwl-bravo", LockKind::Sprwl(bravo_unins)),
        (
            "det-churn-sprwl-snzi",
            LockKind::Sprwl(SprwlConfig::with_snzi()),
        ),
        ("det-churn-brlock", LockKind::BrLock),
    ] {
        let mut spec = base(name.into(), lock, det.clone());
        spec.churn = true;
        m.push(spec);
    }

    // Fault axes stay meaningful under determinism: interrupt injection
    // and capacity pressure both draw from seeded streams, so a failing
    // seed replays the same aborts at the same points.
    m.push(base(
        "det-sprwl-full-int5".into(),
        LockKind::Sprwl(SprwlConfig::default()),
        HtmConfig {
            interrupt_prob: 0.05,
            ..det.clone()
        },
    ));
    m.push(base(
        "det-sprwl-full-tiny-capacity".into(),
        LockKind::Sprwl(SprwlConfig::default()),
        HtmConfig {
            capacity: CapacityProfile::TINY,
            ..det.clone()
        },
    ));

    m.push(base("det-tle".into(), LockKind::Tle, det.clone()));
    m.push(base(
        "det-rwle-power8".into(),
        LockKind::RwLe,
        HtmConfig {
            capacity: CapacityProfile::POWER8_SIM,
            ..det.clone()
        },
    ));
    let mut rwle_rot = base(
        "det-rwle-rot".into(),
        LockKind::RwLe,
        HtmConfig {
            capacity: CapacityProfile::TINY,
            ..det.clone()
        },
    );
    rwle_rot.writer_scan = 4;
    m.push(rwle_rot);
    m.push(base("det-brlock".into(), LockKind::BrLock, det.clone()));

    // The sharded async KV service end-to-end (`sprwl-server`): hashed
    // routing over per-shard SpRWLs, future-based acquisition, redis
    // GET/SET/MSET traffic — judged by the shared oracle (per-shard
    // conservation, quiescence, slot release, stats accounting) plus the
    // linearizability checker over the recorded per-op history.
    for (name, cfg) in [
        ("det-server-kv-snzi", SprwlConfig::with_snzi()),
        ("det-server-kv-bravo", SprwlConfig::with_bravo()),
        (
            "det-server-kv-int5",
            SprwlConfig {
                reader_htm: ReaderHtm::Direct,
                versioned_sgl: true,
                ..SprwlConfig::default()
            },
        ),
    ] {
        let htm = if name.ends_with("int5") {
            HtmConfig {
                interrupt_prob: 0.05,
                ..det.clone()
            }
        } else {
            det.clone()
        };
        let mut spec = base(name.into(), LockKind::Sprwl(cfg), htm);
        spec.workload = Workload::ServerKv;
        spec.pairs = 4; // shard count
        m.push(spec);
    }

    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_case_seeds_differ_and_are_stable() {
        let a1 = mix64(1 ^ fnv1a("case-a"));
        let a2 = mix64(1 ^ fnv1a("case-a"));
        let b = mix64(1 ^ fnv1a("case-b"));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn violation_display_carries_replay_seed() {
        let v = Violation {
            case: "demo".into(),
            seed: 0xABCD,
            base_seed: 0x1234,
            sched_seed: None,
            detail: "something broke".into(),
            trace: "ring:512".into(),
            postmortem: None,
        };
        let s = v.to_string();
        assert!(s.contains("TORTURE_SEED=0x1234"), "{s}");
        assert!(!s.contains("TORTURE_SCHED_SEED"), "{s}");
        assert!(s.contains("demo"), "{s}");
        let with_dump = Violation {
            postmortem: Some(std::path::PathBuf::from("/tmp/x.jsonl")),
            ..v.clone()
        };
        let s = with_dump.to_string();
        assert!(s.contains("postmortem trace: /tmp/x.jsonl"), "{s}");
        let det = Violation {
            sched_seed: Some(0xBEEF),
            ..v
        };
        let s = det.to_string();
        assert!(
            s.contains("TORTURE_SEED=0x1234 TORTURE_SCHED_SEED=0xbeef"),
            "{s}"
        );
    }

    #[test]
    fn first_divergence_finds_the_first_differing_line() {
        assert_eq!(first_divergence("a\nb\nc", "a\nb\nc"), None);
        assert_eq!(
            first_divergence("a\nb\nc", "a\nX\nc"),
            Some((2, "b".into(), "X".into()))
        );
        assert_eq!(
            first_divergence("a\nb", "a"),
            Some((2, "b".into(), "<end of trace>".into()))
        );
        assert_eq!(first_divergence("", ""), None);
    }

    #[test]
    fn derived_sched_seed_is_stable_and_distinct_from_case_seed() {
        let c = mix64(1 ^ fnv1a("case-a"));
        assert_eq!(derived_sched_seed(c), derived_sched_seed(c));
        assert_ne!(derived_sched_seed(c), c);
    }

    #[test]
    fn det_matrix_serializes_every_case_and_skips_pthread() {
        let m = det_matrix(2, 10);
        assert!(!m.is_empty());
        for spec in &m {
            assert!(
                matches!(spec.htm.scheduler, SchedulerKind::Deterministic { .. }),
                "{} is not deterministic",
                spec.name
            );
            assert!(
                spec.lock.det_compatible(),
                "{} blocks on a real condvar",
                spec.name
            );
            assert!(spec.name.starts_with("det-"), "{}", spec.name);
        }
    }

    #[test]
    fn matrix_covers_acceptance_grid() {
        let m = default_matrix(4, 10);
        for want in [
            "sprwl-flags-nosched",
            "sprwl-flags-full",
            "sprwl-snzi-nosched",
            "sprwl-snzi-full",
            "sprwl-bravo-nosched",
            "sprwl-bravo-full",
        ] {
            assert!(m.iter().any(|s| s.name == want), "matrix missing {want}");
        }
    }

    #[test]
    fn free_running_matrix_checks_histories() {
        let checked: Vec<String> = default_matrix(4, 10)
            .into_iter()
            .filter(|s| s.lincheck)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            checked,
            ["sprwl-flags-full", "sprwl-full-int1", "sprwl-full-int5"]
        );
    }

    #[test]
    fn matrices_cover_dynamic_thread_churn() {
        for (matrix, prefix) in [
            (default_matrix(4, 10), "churn-"),
            (det_matrix(4, 10), "det-churn-"),
        ] {
            let churned: Vec<&str> = matrix
                .iter()
                .filter(|s| s.churn)
                .map(|s| s.name.as_str())
                .collect();
            assert!(!churned.is_empty(), "no churn cases with prefix {prefix}");
            for name in churned {
                assert!(name.starts_with(prefix), "{name} misnamed");
            }
        }
    }

    #[test]
    fn single_thread_case_is_clean_and_deterministic() {
        let spec = TortureSpec {
            name: "unit-single".into(),
            lock: LockKind::Sprwl(SprwlConfig::default()),
            htm: HtmConfig::default(),
            threads: 1,
            ops_per_thread: 200,
            pairs: 4,
            write_pct: 50,
            reader_span: 4,
            writer_span: 1,
            writer_scan: 0,
            workload: Workload::Mirror,
            lincheck: true,
            churn: false,
        };
        let a = run_case(&spec, 7).expect("single-threaded run must be clean");
        let b = run_case(&spec, 7).expect("single-threaded run must be clean");
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(a.reader_commits + a.writer_commits, 200);
    }
}
