//! The measurement pipeline behind the `bench-sweep` binary.
//!
//! Every measured point in the crate — the thread-sweep grids here, the
//! capacity and server categories, the paper's figures
//! ([`crate::figures`]) and the facade's tests and examples — runs its
//! workers through [`run_workers`], which has one loop per run mode:
//!
//! * **wall** — free-running OS threads race a wall-clock deadline
//!   (warmup seconds, then measured seconds). The numbers depend on the
//!   host; use for local perf hunting and the paper's figures.
//! * **det** — the deterministic serialized scheduler with fixed work per
//!   thread and the virtual clock as the measured window. Throughput,
//!   latency percentiles and abort counts are bit-identical for the same
//!   `(seed, schedule_seed, config, workload)` on any host, which is what
//!   lets CI diff two result files without noise margins swallowing real
//!   regressions.
//!
//! The thread-sweep grid itself runs (workload × lock × thread-count)
//! points over the hashmap micro-benchmark and packs them into one
//! schema-versioned [`BenchResults`] document.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use htm_sim::{clock, CapacityProfile, Htm, HtmConfig, SchedulerKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprwl::{SpRwl, SprwlConfig};
use sprwl_locks::{BrLock, LockThread, PthreadRwLock, RwLe, RwSync, SectionId, SessionStats, Tle};
use sprwl_trace::{ThreadTrace, TraceConfig};
use sprwl_workloads::spec::{hashmap_read_cs, hashmap_write_cs, TpccTxKind};
use sprwl_workloads::tpcc::{self, TpccDb, TpccScale};
use sprwl_workloads::{HashmapSpec, Mix, SimHashMap, SweepWorkload};

use crate::results::{BenchPoint, BenchResults, Hardware, SCHEMA_MINOR, SCHEMA_VERSION};

/// Hashmap read sections.
pub const SEC_HASH_READ: SectionId = SectionId(0);
/// Hashmap write sections.
pub const SEC_HASH_WRITE: SectionId = SectionId(1);
/// TPC-C sections are 2 + transaction-kind index.
pub const SEC_TPCC_BASE: u32 = 2;

/// The key draw of the paper's §4.1 hashmap: uniform read and write keys
/// (the draw [`SweepWorkload::Mixed90_10`] uses; [`run_hashmap_point`] takes
/// the update ratio and reader size from the spec, not the workload).
pub const UNIFORM_KEYS: SweepWorkload = SweepWorkload::Mixed90_10;

/// Which synchronization scheme to run: SpRWL and the paper's four
/// baselines. The torture harness runs its cases over the same list.
#[derive(Debug, Clone)]
pub enum LockKind {
    /// SpRWL with the given configuration.
    Sprwl(SprwlConfig),
    /// Plain transactional lock elision.
    Tle,
    /// Hardware read-write lock elision (POWER8 profiles only).
    RwLe,
    /// pthread-style read-write lock.
    Rwl,
    /// Big-reader lock.
    BrLock,
}

impl LockKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            LockKind::Sprwl(cfg) => match (cfg.scheduling, cfg.reader_tracking) {
                (s, sprwl::ReaderTracking::Flags) => s.label().to_string(),
                (sprwl::Scheduling::Full, sprwl::ReaderTracking::Snzi) => "SNZI".to_string(),
                (s, sprwl::ReaderTracking::Snzi) => format!("{}+SNZI", s.label()),
                (sprwl::Scheduling::Full, sprwl::ReaderTracking::Bravo) => "BRAVO".to_string(),
                (s, sprwl::ReaderTracking::Bravo) => format!("{}+BRAVO", s.label()),
            },
            LockKind::Tle => "TLE".into(),
            LockKind::RwLe => "RW-LE".into(),
            LockKind::Rwl => "RWL".into(),
            LockKind::BrLock => "BRLock".into(),
        }
    }

    /// Whether the scheme can run on the given capacity profile (RW-LE is
    /// POWER8-only, exactly as in the paper).
    pub fn supports(&self, profile: &CapacityProfile) -> bool {
        match self {
            LockKind::RwLe => profile.supports_rot(),
            _ => true,
        }
    }

    /// Whether the scheme can run under
    /// [`htm_sim::SchedulerKind::Deterministic`]. [`LockKind::Rwl`] cannot:
    /// it parks waiters on a real OS condvar the serialized scheduler
    /// cannot see, which deadlocks the schedule token (the torture
    /// harness's det matrix excludes it for the same reason). Every other
    /// scheme spins through scheduler-visible yield points.
    pub fn det_compatible(&self) -> bool {
        !matches!(self, LockKind::Rwl)
    }

    /// Instantiates the scheme over a runtime.
    pub fn build(&self, htm: &Htm) -> Box<dyn RwSync> {
        match self {
            LockKind::Sprwl(cfg) => Box::new(SpRwl::new(htm, cfg.clone())),
            LockKind::Tle => Box::new(Tle::new(htm)),
            LockKind::RwLe => Box::new(RwLe::new(htm)),
            LockKind::Rwl => Box::new(PthreadRwLock::new()),
            LockKind::BrLock => Box::new(BrLock::new(htm.max_threads())),
        }
    }

    /// The set of schemes the paper compares on a profile (Fig. 3/4/7).
    pub fn paper_set(profile: &CapacityProfile) -> Vec<LockKind> {
        let mut v = vec![
            LockKind::Tle,
            LockKind::Rwl,
            LockKind::BrLock,
            LockKind::Sprwl(SprwlConfig::default()),
        ];
        if profile.supports_rot() {
            v.insert(1, LockKind::RwLe);
        }
        v
    }
}

/// Per-worker state handed to the op closure.
pub struct WorkerCtx<'a, 'h> {
    /// The thread's lock/stat bundle.
    pub t: &'a mut LockThread<'h>,
    /// The thread's RNG (deterministic per seed/tid).
    pub rng: StdRng,
    /// Reusable key buffer for workloads that pre-draw a batch of keys per
    /// critical section. Allocating inside the timed loop would bill
    /// allocator time to the reported latency, so ops `clear()` and refill
    /// this instead.
    pub scratch: Vec<u64>,
}

impl std::fmt::Debug for WorkerCtx<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("tid", &self.t.tid())
            .finish()
    }
}

impl<'a, 'h> WorkerCtx<'a, 'h> {
    /// Thread `tid` draws from `seed ^ ((tid + 1) << 24)`.
    fn new(t: &'a mut LockThread<'h>, seed: u64, tid: usize) -> Self {
        Self {
            t,
            rng: StdRng::seed_from_u64(seed ^ ((tid as u64 + 1) << 24)),
            scratch: Vec::with_capacity(64),
        }
    }
}

/// How a point's workers are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Timed window on free-running OS threads.
    Wall {
        /// Warmup phase (discarded).
        warmup: Duration,
        /// Measured window.
        duration: Duration,
    },
    /// Fixed work per thread under the deterministic serialized scheduler,
    /// measured on the virtual clock — wall-clock-free and bit-identical
    /// across runs and hosts.
    Det {
        /// Operations per thread discarded as warmup.
        warmup_ops: usize,
        /// Operations per thread in the measured window.
        ops_per_thread: usize,
        /// Seed of the schedule PRNG (independent of the workload seed).
        schedule_seed: u64,
    },
}

impl SweepMode {
    /// The `mode` string recorded in the results document.
    pub fn label(&self) -> &'static str {
        match self {
            SweepMode::Wall { .. } => "wall",
            SweepMode::Det { .. } => "det",
        }
    }

    /// A runtime from the template `htm` with `cells` of simulated
    /// memory, under this mode's scheduler: the OS for wall, the
    /// serialized scheduler for det.
    pub fn runtime(&self, htm: HtmConfig, cells: usize) -> Htm {
        let scheduler = match *self {
            SweepMode::Wall { .. } => SchedulerKind::Os,
            SweepMode::Det { schedule_seed, .. } => SchedulerKind::deterministic(schedule_seed),
        };
        Htm::new(HtmConfig { scheduler, ..htm }, cells)
    }
}

/// What one run of the worker loop measured.
#[derive(Debug)]
pub struct Measured {
    /// Worker threads.
    pub threads: usize,
    /// Merged per-thread statistics of the measured window.
    pub stats: SessionStats,
    /// Measured-window length: wall seconds under [`SweepMode::Wall`],
    /// virtual seconds under [`SweepMode::Det`].
    pub elapsed_s: f64,
    /// Per-thread trace snapshots in thread order (no events when tracing
    /// is off).
    pub traces: Vec<ThreadTrace>,
}

impl Measured {
    /// Digests the run into a results point.
    pub fn point(&self, workload: &str, lock: &str) -> BenchPoint {
        BenchPoint::from_stats(workload, lock, self.threads, &self.stats, self.elapsed_s)
    }
}

/// Runs `op` on every one of the runtime's `max_threads` workers, warmup
/// first (its statistics discarded), then the measured window `mode`
/// describes. Each worker records into a private ring sized by `trace`;
/// the ring's loss counters are folded into the merged statistics.
///
/// Wall mode runs on whatever scheduler the runtime has. Det mode is the
/// only shape a [`SchedulerKind::Deterministic`] runtime can run, but it
/// also runs fixed work on free-running threads.
pub fn run_workers(
    htm: &Htm,
    seed: u64,
    mode: &SweepMode,
    trace: TraceConfig,
    op: impl Fn(&mut WorkerCtx<'_, '_>) + Sync,
) -> Measured {
    match *mode {
        SweepMode::Wall { warmup, duration } => run_wall(htm, seed, warmup, duration, trace, op),
        SweepMode::Det {
            warmup_ops,
            ops_per_thread,
            ..
        } => run_det(htm, seed, warmup_ops, ops_per_thread, trace, op),
    }
}

/// Wall mode: warmup seconds (stats discarded), then a measured window
/// bracketed by the coordinator on the wall clock.
fn run_wall(
    htm: &Htm,
    seed: u64,
    warmup: Duration,
    duration: Duration,
    trace: TraceConfig,
    op: impl Fn(&mut WorkerCtx<'_, '_>) + Sync,
) -> Measured {
    let threads = htm.max_threads();
    let barrier = Barrier::new(threads + 1);
    // With no warmup every op is measured: the stats reset precedes each
    // worker's first op.
    let warmed = AtomicBool::new(warmup.is_zero());
    let stop = AtomicBool::new(false);
    let mut stats = SessionStats::default();
    let mut traces = Vec::with_capacity(threads);
    let mut elapsed_s = 0.0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (barrier, warmed, stop, op) = (&barrier, &warmed, &stop, &op);
                s.spawn(move || {
                    let mut t = LockThread::with_trace(htm.thread(tid), trace);
                    let mut ctx = WorkerCtx::new(&mut t, seed, tid);
                    barrier.wait();
                    while !warmed.load(Ordering::Relaxed) {
                        op(&mut ctx);
                    }
                    ctx.t.stats = SessionStats::default();
                    while !stop.load(Ordering::Relaxed) {
                        op(&mut ctx);
                    }
                    (t.stats, t.trace.snapshot())
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(warmup);
        warmed.store(true, Ordering::Relaxed);
        let t0 = clock::wall_now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        // The window ends when the stop flag is raised, not after every
        // worker has been joined and merged: workers do at most one
        // trailing op each after the flip, which is noise; joining and
        // merging latency reservoirs is not.
        elapsed_s = (clock::wall_now() - t0) as f64 / 1e9;
        for h in handles {
            let (st, tr) = h.join().expect("worker panicked");
            stats.merge(&st);
            traces.push(tr);
        }
    });
    Measured {
        threads,
        stats,
        elapsed_s: elapsed_s.max(1e-9),
        traces,
    }
}

/// Det mode: fixed warmup + measured op quotas per thread, with the
/// measured window bracketed by each worker on `clock::now` (the virtual
/// clock under a deterministic scheduler).
///
/// The OS start barrier comes *before* each worker claims its
/// [`htm_sim::ThreadCtx`]: claiming registers the thread with the
/// scheduler, and the deterministic scheduler serializes from the moment
/// the last participant registers — a worker parked on an OS barrier
/// after registering would hold the schedule token forever.
fn run_det(
    htm: &Htm,
    seed: u64,
    warmup_ops: usize,
    ops_per_thread: usize,
    trace: TraceConfig,
    op: impl Fn(&mut WorkerCtx<'_, '_>) + Sync,
) -> Measured {
    let threads = htm.max_threads();
    let barrier = Barrier::new(threads);
    let mut stats = SessionStats::default();
    let mut traces = Vec::with_capacity(threads);
    let mut start = u64::MAX;
    let mut end = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (barrier, op) = (&barrier, &op);
                s.spawn(move || {
                    barrier.wait();
                    let mut t = LockThread::with_trace(htm.thread(tid), trace);
                    let mut ctx = WorkerCtx::new(&mut t, seed, tid);
                    for _ in 0..warmup_ops {
                        op(&mut ctx);
                    }
                    ctx.t.stats = SessionStats::default();
                    let v0 = clock::now();
                    for _ in 0..ops_per_thread {
                        op(&mut ctx);
                    }
                    let v1 = clock::now();
                    (t.stats, v0, v1, t.trace.snapshot())
                })
            })
            .collect();
        for h in handles {
            let (st, v0, v1, tr) = h.join().expect("worker panicked");
            stats.merge(&st);
            start = start.min(v0);
            end = end.max(v1);
            traces.push(tr);
        }
    });
    Measured {
        threads,
        stats,
        elapsed_s: ((end.saturating_sub(start)) as f64 / 1e9).max(1e-9),
        traces,
    }
}

/// One operation of the hashmap workload: a write section with the key
/// draw's write-key distribution, or a read section of `lookups_per_read`
/// draws from its read-key distribution. `threads` carves the per-thread
/// key ranges of [`SweepWorkload::IndependentWrite`].
fn hashmap_op(
    keys: SweepWorkload,
    spec: &HashmapSpec,
    threads: usize,
    lock: &dyn RwSync,
    map: &SimHashMap,
    ctx: &mut WorkerCtx<'_, '_>,
) {
    let WorkerCtx { t, rng, scratch } = ctx;
    if rng.gen_range(0..100u32) < spec.update_pct {
        let tid = t.tid();
        let key = keys.write_key(rng, tid, threads, spec.key_space);
        let insert = rng.gen_bool(0.5);
        lock.write_section(t, SEC_HASH_WRITE, &mut |a| {
            hashmap_write_cs(map, a, tid, key, insert)
        });
    } else {
        scratch.clear();
        scratch.extend((0..spec.lookups_per_read).map(|_| keys.read_key(rng, spec.key_space)));
        lock.read_section(t, SEC_HASH_READ, &mut |a| hashmap_read_cs(map, a, scratch));
    }
}

/// One TPC-C transaction drawn from `mix`, run against the worker's home
/// warehouse (`tid % warehouses`): read-only kinds as read sections,
/// updates as write sections, each kind on its own section id.
fn tpcc_op(lock: &dyn RwSync, db: &TpccDb, mix: &Mix, ctx: &mut WorkerCtx<'_, '_>) {
    let scale = db.scale();
    let rng = &mut ctx.rng;
    let w = (ctx.t.tid() as u32) % scale.warehouses;
    let kind = Mix::pick(mix, rng.gen_range(0..100));
    let sec = SectionId(
        SEC_TPCC_BASE
            + match kind {
                TpccTxKind::StockLevel => 0,
                TpccTxKind::Delivery => 1,
                TpccTxKind::OrderStatus => 2,
                TpccTxKind::Payment => 3,
                TpccTxKind::NewOrder => 4,
            },
    );
    let now = clock::now();
    match kind {
        TpccTxKind::StockLevel => {
            let inp = tpcc::gen_stock_level(rng, scale, w);
            lock.read_section(ctx.t, sec, &mut |a| db.stock_level(a, &inp));
        }
        TpccTxKind::OrderStatus => {
            let inp = tpcc::gen_order_status(rng, scale, w);
            lock.read_section(ctx.t, sec, &mut |a| db.order_status(a, &inp));
        }
        TpccTxKind::Payment => {
            let inp = tpcc::gen_payment(rng, scale, w);
            lock.write_section(ctx.t, sec, &mut |a| db.payment(a, &inp));
        }
        TpccTxKind::NewOrder => {
            let inp = tpcc::gen_new_order(rng, scale, w, now);
            lock.write_section(ctx.t, sec, &mut |a| db.new_order(a, &inp));
        }
        TpccTxKind::Delivery => {
            let inp = tpcc::gen_delivery(rng, w, now);
            lock.write_section(ctx.t, sec, &mut |a| db.delivery(a, &inp));
        }
    }
}

/// Fails loudly instead of deadlocking the serialized schedule.
fn assert_runnable(lock_kind: &LockKind, mode: &SweepMode) {
    assert!(
        matches!(mode, SweepMode::Wall { .. }) || lock_kind.det_compatible(),
        "{} parks on OS primitives and would deadlock the deterministic scheduler",
        lock_kind.name()
    );
}

/// One hashmap point: a fresh runtime from `htm` (its `max_threads` is the
/// worker count; `mode` picks the scheduler) and a populated map, then
/// the hashmap op under [`run_workers`].
///
/// # Panics
///
/// Panics when asked to run a det-incompatible lock in
/// [`SweepMode::Det`] (see [`LockKind::det_compatible`]).
pub fn run_hashmap_point(
    htm: HtmConfig,
    lock_kind: &LockKind,
    keys: SweepWorkload,
    spec: &HashmapSpec,
    seed: u64,
    mode: &SweepMode,
    trace: TraceConfig,
) -> Measured {
    assert_runnable(lock_kind, mode);
    let threads = htm.max_threads;
    let htm = mode.runtime(htm, spec.cells_needed(threads));
    let map = spec.build(htm.memory(), threads);
    let lock = lock_kind.build(&htm);
    run_workers(&htm, seed, mode, trace, |ctx| {
        hashmap_op(keys, spec, threads, lock.as_ref(), &map, ctx)
    })
}

/// One TPC-C point: a fresh runtime from `htm` (as in
/// [`run_hashmap_point`]) and database, the TPC-C op under
/// [`run_workers`], then the database's consistency audits.
///
/// # Panics
///
/// Panics when an audit fails (`W_YTD = Σ D_YTD`, delivery-queue sanity)
/// — a point violating either must not produce a silently-wrong number —
/// and on the det-compatibility rule of [`run_hashmap_point`].
pub fn run_tpcc_point(
    htm: HtmConfig,
    lock_kind: &LockKind,
    scale: TpccScale,
    mix: &Mix,
    seed: u64,
    mode: &SweepMode,
) -> Measured {
    assert_runnable(lock_kind, mode);
    let threads = htm.max_threads;
    let htm = mode.runtime(htm, scale.cells_needed() + 64 * threads * 8);
    let lock = lock_kind.build(&htm);
    let db = TpccDb::new(htm.memory(), scale);
    let m = run_workers(&htm, seed, mode, TraceConfig::Off, |ctx| {
        tpcc_op(lock.as_ref(), &db, mix, ctx)
    });
    let name = lock_kind.name();
    assert!(
        db.audit_ytd(htm.memory()),
        "TPC-C under {name}: W_YTD != Σ D_YTD"
    );
    assert!(
        db.audit_order_queues(htm.memory()),
        "TPC-C under {name}: delivery queues corrupt"
    );
    m
}

/// Full description of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Simulated-HTM capacity profile.
    pub profile: CapacityProfile,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Workload PRNG seed.
    pub seed: u64,
    /// Run mode.
    pub mode: SweepMode,
    /// Lock schemes to compare.
    pub locks: Vec<LockKind>,
    /// Workloads to run.
    pub workloads: Vec<SweepWorkload>,
    /// Tracing policies to sweep, as `(label, config)` pairs. With more
    /// than one entry each point's workload name is suffixed `@label`, so
    /// a single results document can hold e.g. `off` next to `sampled`
    /// numbers for overhead comparisons.
    pub traces: Vec<(String, TraceConfig)>,
    /// Fill levels (map populations) to sweep — the latency-vs-data-size
    /// axis. Empty means each workload's default spec; non-empty overrides
    /// the population (key space scales with it, buckets stay fixed so
    /// chains lengthen) and suffixes each point's workload name
    /// `#fill<population>`.
    pub fill_levels: Vec<u64>,
    /// Result category (names the output file).
    pub category: String,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            profile: CapacityProfile::BROADWELL_SIM,
            threads: vec![1, 2, 4],
            seed: 42,
            mode: SweepMode::Det {
                warmup_ops: 150,
                ops_per_thread: 1500,
                schedule_seed: 7,
            },
            // BRLock, not RWL, is the default pessimistic baseline: the
            // default mode is deterministic and RWL parks on an OS condvar
            // the serialized scheduler cannot see (see
            // [`LockKind::det_compatible`]).
            locks: vec![
                LockKind::Sprwl(sprwl::SprwlConfig::default()),
                LockKind::Tle,
                LockKind::BrLock,
            ],
            workloads: SweepWorkload::ALL.to_vec(),
            traces: vec![("off".to_string(), TraceConfig::Off)],
            fill_levels: Vec::new(),
            category: "sweep".to_string(),
        }
    }
}

/// The runtime template of a sweep point: `profile` with `threads`
/// workers (the point runners set the scheduler from the mode).
pub fn point_htm(profile: &CapacityProfile, threads: usize) -> HtmConfig {
    HtmConfig {
        capacity: *profile,
        max_threads: threads,
        ..HtmConfig::default()
    }
}

/// The run parameters every document records: the seed, the mode's
/// window, and the thread list.
pub(crate) fn mode_params(
    mode: &SweepMode,
    seed: u64,
    threads: &[usize],
) -> std::collections::BTreeMap<String, String> {
    let mut params = std::collections::BTreeMap::new();
    params.insert("seed".to_string(), seed.to_string());
    match *mode {
        SweepMode::Wall { warmup, duration } => {
            params.insert("warmup_s".to_string(), format!("{}", warmup.as_secs_f64()));
            params.insert("secs".to_string(), format!("{}", duration.as_secs_f64()));
        }
        SweepMode::Det {
            warmup_ops,
            ops_per_thread,
            schedule_seed,
        } => {
            params.insert("warmup_ops".to_string(), warmup_ops.to_string());
            params.insert("ops_per_thread".to_string(), ops_per_thread.to_string());
            params.insert("schedule_seed".to_string(), schedule_seed.to_string());
        }
    }
    params.insert("threads".to_string(), join(threads));
    params
}

/// Comma-joins a list for the `params` map.
pub(crate) fn join<T: ToString>(items: &[T]) -> String {
    items
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs the whole grid and assembles the results document.
///
/// `date` and `git_commit` are provenance strings stamped into the
/// document (see [`crate::results::today`] and
/// [`crate::results::git_commit`]); they are parameters rather than
/// probed here so deterministic tests can pin them.
pub fn run_sweep(cfg: &SweepConfig, date: &str, git_commit: &str) -> BenchResults {
    let mut params = mode_params(&cfg.mode, cfg.seed, &cfg.threads);
    let trace_labels: Vec<&str> = cfg.traces.iter().map(|(l, _)| l.as_str()).collect();
    params.insert("traces".to_string(), join(&trace_labels));
    if !cfg.fill_levels.is_empty() {
        params.insert("fills".to_string(), join(&cfg.fill_levels));
    }
    // The fill axis: `None` is the workload's own spec; `Some(p)` overrides
    // the population (and scales the key space) and tags the point.
    let fills: Vec<Option<u64>> = if cfg.fill_levels.is_empty() {
        vec![None]
    } else {
        cfg.fill_levels.iter().copied().map(Some).collect()
    };
    let mut points = Vec::new();
    let det = matches!(cfg.mode, SweepMode::Det { .. });
    for workload in &cfg.workloads {
        for lock in &cfg.locks {
            if !lock.supports(&cfg.profile) || (det && !lock.det_compatible()) {
                continue;
            }
            for &threads in &cfg.threads {
                for fill in &fills {
                    let mut spec = workload.spec();
                    let mut name = workload.name().to_string();
                    if let Some(population) = *fill {
                        spec.population = population;
                        spec.key_space = population * 2;
                        name = format!("{name}#fill{population}");
                    }
                    for (trace_label, trace) in &cfg.traces {
                        let m = run_hashmap_point(
                            point_htm(&cfg.profile, threads),
                            lock,
                            *workload,
                            &spec,
                            cfg.seed,
                            &cfg.mode,
                            *trace,
                        );
                        let name = if cfg.traces.len() > 1 {
                            format!("{name}@{trace_label}")
                        } else {
                            name.clone()
                        };
                        points.push(m.point(&name, &lock.name()));
                    }
                }
            }
        }
    }
    BenchResults {
        schema_version: SCHEMA_VERSION,
        schema_minor: SCHEMA_MINOR,
        category: cfg.category.clone(),
        date: date.to_string(),
        git_commit: git_commit.to_string(),
        mode: cfg.mode.label().to_string(),
        capacity_profile: cfg.profile.name.to_string(),
        hardware: Hardware::probe(),
        params,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One (workload, lock, threads) point of the sweep grid with its
    /// default spec and tracing off.
    fn run_sweep_point(
        profile: &CapacityProfile,
        lock_kind: &LockKind,
        workload: SweepWorkload,
        threads: usize,
        seed: u64,
        mode: &SweepMode,
    ) -> BenchPoint {
        run_hashmap_point(
            point_htm(profile, threads),
            lock_kind,
            workload,
            &workload.spec(),
            seed,
            mode,
            TraceConfig::Off,
        )
        .point(workload.name(), &lock_kind.name())
    }

    fn det_mode() -> SweepMode {
        SweepMode::Det {
            warmup_ops: 50,
            ops_per_thread: 300,
            schedule_seed: 7,
        }
    }

    fn wall(ms: u64) -> SweepMode {
        SweepMode::Wall {
            warmup: Duration::ZERO,
            duration: Duration::from_millis(ms),
        }
    }

    fn fixed_work(ops_per_thread: usize) -> SweepMode {
        SweepMode::Det {
            warmup_ops: 0,
            ops_per_thread,
            schedule_seed: 0,
        }
    }

    #[test]
    fn rwle_is_gated_to_power8_like_profiles() {
        assert!(!LockKind::RwLe.supports(&CapacityProfile::BROADWELL_SIM));
        assert!(LockKind::RwLe.supports(&CapacityProfile::POWER8_SIM));
        assert!(LockKind::Tle.supports(&CapacityProfile::BROADWELL_SIM));
    }

    #[test]
    fn det_loop_completes_fixed_work_free_running() {
        let htm = Htm::new(point_htm(&CapacityProfile::BROADWELL_SIM, 2), 1024);
        let cell = htm.memory().alloc(1).cell(0);
        let lock = Tle::new(&htm);
        let m = run_workers(&htm, 1, &fixed_work(40), TraceConfig::Off, |ctx| {
            lock.write_section(ctx.t, SectionId(0), &mut |a| {
                let v = a.read(cell)?;
                a.write(cell, v + 1)?;
                Ok(v)
            });
        });
        assert_eq!(m.stats.total_commits(), 80, "2 threads x 40 ops");
        assert_eq!(htm.direct(0).load(cell), 80);
        assert_eq!(m.traces.len(), 2);
    }

    #[test]
    fn det_loop_is_bit_identical_under_the_deterministic_scheduler() {
        let point = || {
            let mode = SweepMode::Det {
                warmup_ops: 0,
                ops_per_thread: 50,
                schedule_seed: 42,
            };
            let htm = mode.runtime(point_htm(&CapacityProfile::BROADWELL_SIM, 2), 1024);
            let cell = htm.memory().alloc(1).cell(0);
            let lock = SpRwl::with_defaults(&htm);
            let m = run_workers(&htm, 7, &mode, TraceConfig::ring(256), |ctx| {
                if ctx.rng.gen_bool(0.5) {
                    lock.write_section(ctx.t, SectionId(0), &mut |a| {
                        let v = a.read(cell)?;
                        a.write(cell, v + 1)?;
                        Ok(v)
                    });
                } else {
                    lock.read_section(ctx.t, SectionId(1), &mut |a| a.read(cell));
                }
            });
            (m.stats, m.traces)
        };
        let (s1, t1) = point();
        let (s2, t2) = point();
        assert_eq!(
            s1.total_commits(),
            100,
            "every section commits exactly once"
        );
        assert_eq!(s1, s2, "stats must replay bit-identically");
        assert_eq!(t1, t2, "traces must replay bit-identically");
    }

    #[test]
    fn wall_loop_measures_its_window_and_returns_per_thread_traces() {
        let htm = Htm::new(point_htm(&CapacityProfile::BROADWELL_SIM, 2), 1024);
        let cell = htm.memory().alloc(1).cell(0);
        let lock = SpRwl::with_defaults(&htm);
        let m = run_workers(&htm, 1, &wall(30), TraceConfig::ring(128), |ctx| {
            lock.write_section(ctx.t, SectionId(0), &mut |a| {
                let v = a.read(cell)?;
                a.write(cell, v + 1)?;
                Ok(v)
            });
        });
        assert!(m.stats.total_commits() > 0);
        assert!(m.elapsed_s > 0.02);
        // No warmup: every commit lands in the measured window.
        assert_eq!(htm.direct(0).load(cell), m.stats.total_commits());
        assert_eq!(m.traces.len(), 2);
        for tr in &m.traces {
            assert!(!tr.events.is_empty(), "tid {} recorded nothing", tr.tid);
        }
        // Off yields empty traces.
        let off = run_workers(&htm, 1, &wall(5), TraceConfig::Off, |ctx| {
            lock.write_section(ctx.t, SectionId(0), &mut |a| a.read(cell));
        });
        assert!(off.traces.iter().all(|tr| tr.events.is_empty()));
    }

    #[test]
    fn tpcc_point_audits_hold() {
        let scale = TpccScale {
            warehouses: 1,
            customers_per_district: 16,
            items: 64,
            ..TpccScale::default()
        };
        for (kind, mode) in [
            (LockKind::Tle, wall(25)),
            (LockKind::Sprwl(SprwlConfig::default()), det_mode()),
        ] {
            // The audits run inside the point and panic on a violation.
            let m = run_tpcc_point(
                point_htm(&CapacityProfile::POWER8_SIM, 2),
                &kind,
                scale,
                &Mix::PAPER,
                5,
                &mode,
            );
            assert!(m.stats.total_commits() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn det_sweep_points_are_bit_identical_across_runs() {
        for workload in [SweepWorkload::HotKey, SweepWorkload::ReadOnly] {
            let run = || {
                run_sweep_point(
                    &CapacityProfile::BROADWELL_SIM,
                    &LockKind::Sprwl(sprwl::SprwlConfig::default()),
                    workload,
                    2,
                    42,
                    &det_mode(),
                )
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "{workload:?} point must be deterministic");
            assert!(a.commits > 0);
        }
    }

    #[test]
    fn det_sweep_measures_the_post_warmup_window_only() {
        let p = run_sweep_point(
            &CapacityProfile::BROADWELL_SIM,
            &LockKind::Tle,
            SweepWorkload::Mixed90_10,
            2,
            42,
            &det_mode(),
        );
        // Every measured op commits exactly once eventually; warmup ops
        // must not leak into the counters.
        assert_eq!(p.commits, 2 * 300);
        assert!(p.throughput > 0.0);
        assert!(p.elapsed_s > 0.0);
    }

    #[test]
    fn wall_sweep_smoke() {
        let p = run_sweep_point(
            &CapacityProfile::BROADWELL_SIM,
            &LockKind::Rwl,
            SweepWorkload::Mixed90_10,
            2,
            42,
            &SweepMode::Wall {
                warmup: Duration::from_millis(5),
                duration: Duration::from_millis(30),
            },
        );
        assert!(p.commits > 0);
        assert!(p.throughput > 0.0);
    }

    #[test]
    fn read_only_workload_records_no_writer_latency() {
        let p = run_sweep_point(
            &CapacityProfile::BROADWELL_SIM,
            &LockKind::Tle,
            SweepWorkload::ReadOnly,
            1,
            42,
            &det_mode(),
        );
        assert_eq!(p.writer.samples, 0);
        assert!(p.reader.samples > 0);
    }

    #[test]
    fn det_sweep_skips_locks_that_park_on_os_primitives() {
        let cfg = SweepConfig {
            threads: vec![1],
            locks: vec![LockKind::Rwl, LockKind::Tle],
            workloads: vec![SweepWorkload::ReadOnly],
            mode: det_mode(),
            ..SweepConfig::default()
        };
        let r = run_sweep(&cfg, "2026-08-09", "abc1234");
        let locks: Vec<&str> = r.points.iter().map(|p| p.lock.as_str()).collect();
        assert_eq!(
            locks,
            vec!["TLE"],
            "RWL would deadlock the serialized schedule"
        );
    }

    #[test]
    #[should_panic(expected = "deadlock the deterministic scheduler")]
    fn det_point_with_an_os_blocking_lock_fails_loudly() {
        run_sweep_point(
            &CapacityProfile::BROADWELL_SIM,
            &LockKind::Rwl,
            SweepWorkload::ReadOnly,
            2,
            42,
            &det_mode(),
        );
    }

    #[test]
    fn fill_axis_tags_points_and_records_params() {
        let cfg = SweepConfig {
            threads: vec![1],
            locks: vec![LockKind::Tle],
            workloads: vec![SweepWorkload::ReadOnly],
            fill_levels: vec![1024, 4096],
            mode: SweepMode::Det {
                warmup_ops: 10,
                ops_per_thread: 60,
                schedule_seed: 7,
            },
            category: "fill".to_string(),
            ..SweepConfig::default()
        };
        let r = run_sweep(&cfg, "2026-08-09", "abc1234");
        assert_eq!(r.params["fills"], "1024,4096");
        let names: Vec<&str> = r.points.iter().map(|p| p.workload.as_str()).collect();
        assert_eq!(names, vec!["read-only#fill1024", "read-only#fill4096"]);
        assert_eq!(r.file_name(), "BENCH_fill_2026-08-09.json");
        // A fuller map means longer chains, hence more work per lookup —
        // both points must still commit all their measured ops.
        for p in &r.points {
            assert_eq!(p.commits, 60);
        }
    }

    #[test]
    fn run_sweep_covers_the_grid_and_stamps_provenance() {
        let cfg = SweepConfig {
            threads: vec![1, 2],
            locks: vec![LockKind::Tle],
            workloads: vec![SweepWorkload::ReadOnly, SweepWorkload::HotKey],
            mode: det_mode(),
            ..SweepConfig::default()
        };
        let r = run_sweep(&cfg, "2026-08-09", "abc1234");
        assert_eq!(r.points.len(), 4);
        assert_eq!(r.mode, "det");
        assert_eq!(r.capacity_profile, "broadwell-sim");
        assert_eq!(r.file_name(), "BENCH_sweep_2026-08-09.json");
        assert_eq!(r.params["schedule_seed"], "7");
        // And it round-trips through the serializer.
        let back = BenchResults::from_json(&r.to_json()).expect("parses");
        assert_eq!(r, back);
    }
}
