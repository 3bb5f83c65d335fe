//! The deterministic service driver: a worker pool pushing redis-shaped
//! traffic through the sharded store over the async front-end.
//!
//! Everything a run produces — per-thread traces, per-shard statistics,
//! the final store contents — is a pure function of `(ServerConfig)`
//! under the deterministic scheduler: worker RNGs are seeded from
//! `(seed, worker index)`, workers claim fixed scheduler slots, latencies
//! come off the virtual clock, and the `Reservoir` percentile sampler is
//! itself deterministic. Two runs from the same config are byte-identical;
//! that is what the end-to-end tests and the CI smoke assert.

use std::sync::Barrier;

use htm_sim::{clock, Htm, HtmConfig, SchedulerKind};
use sprwl::{ReaderTracking, SpRwl, SprwlConfig};
use sprwl_locks::{CommitMode, LockThread, Role, RwSync, SectionId, SessionStats};
use sprwl_trace::{EventKind, ThreadTrace, TraceConfig};
use sprwl_workloads::redis::{RedisGen, RedisOp, RedisSpec};

use crate::exec::block_on;
use crate::guards::ShardLock;
use crate::kv::KvShard;
use crate::router::shard_of;

/// Section id for every shard's write sections (one section kind: a
/// KV bump batch).
pub const SEC_KV_WRITE: SectionId = SectionId(40);

/// `lin-*` mark labels (mirrors `sprwl_lincheck::labels`; the server crate
/// records histories without depending on the checker).
const LIN_INV: &str = "lin-inv";
const LIN_READ: &str = "lin-read";
const LIN_WRITE: &str = "lin-write";
const LIN_RET: &str = "lin-ret";

/// Full description of one deterministic service run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (one [`SpRwl`] + [`KvShard`] each).
    pub shards: usize,
    /// Worker-pool size (simulated hardware threads; each drives its own
    /// futures).
    pub workers: usize,
    /// Per-worker warmup operations (stats discarded, store effects kept).
    pub warmup_ops: usize,
    /// Per-worker measured operations.
    pub ops_per_worker: usize,
    /// Workload seed: worker `i` draws from `seed ^ ((i + 1) << 24)`.
    pub seed: u64,
    /// Deterministic-scheduler seed.
    pub schedule_seed: u64,
    /// The redis-shaped traffic description.
    pub spec: RedisSpec,
    /// Reader-tracking flavour for every shard lock (`Snzi`, `Bravo`, …).
    pub tracking: ReaderTracking,
    /// Hash buckets per shard.
    pub buckets_per_shard: usize,
    /// Payload scratch cells per shard (0 disables payload pressure).
    pub payload_cells: usize,
    /// Per-thread trace policy. Lin-mark runs need a ring large enough for
    /// every mark of every op ([`ServerConfig::lin_ring`] sizes one).
    pub trace: TraceConfig,
    /// Record `lin-*` operation histories for the linearizability checker.
    pub lin_marks: bool,
}

impl ServerConfig {
    /// A small, fast configuration for tests and CI smokes: 4 shards,
    /// 2 workers, a 512-key uniform 80/15/5 GET/SET/MSET mix.
    pub fn smoke() -> Self {
        let spec = RedisSpec {
            keyspace: 512,
            get_pct: 80,
            set_pct: 15,
            mset_keys: 4,
            ..RedisSpec::service_default()
        };
        Self {
            shards: 4,
            workers: 2,
            warmup_ops: 32,
            ops_per_worker: 256,
            seed: 42,
            schedule_seed: 7,
            spec,
            tracking: ReaderTracking::Snzi,
            buckets_per_shard: 64,
            payload_cells: 64,
            trace: TraceConfig::Off,
            lin_marks: false,
        }
    }

    /// A trace ring large enough for every event of a lin-mark run
    /// (marks + lock lifecycle events, with slack for retries).
    pub fn lin_ring(&self) -> TraceConfig {
        TraceConfig::ring((self.warmup_ops + self.ops_per_worker) * 96 + 512)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("need at least one shard".into());
        }
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.buckets_per_shard == 0 {
            return Err("need at least one bucket per shard".into());
        }
        self.spec.validate()
    }

    /// Per-shard key capacity: routing is hashed, so no shard sees more
    /// than a modest multiple of its fair share (capped at the keyspace).
    fn shard_capacity(&self) -> u32 {
        let fair = self.spec.keyspace as usize / self.shards + 1;
        (fair * 2 + 256).min(self.spec.keyspace as usize) as u32
    }

    /// Simulated cells the whole service needs.
    fn cells_needed(&self) -> usize {
        let per_shard = KvShard::cells_needed(
            self.buckets_per_shard,
            self.shard_capacity(),
            self.workers,
            self.payload_cells,
        );
        // Each SpRwl allocates its own control cells (fallback word,
        // reader table, bias word); 64 lines of slack per shard covers
        // every tracking flavour, plus global slack.
        self.shards * (per_shard + 512) + 4096
    }
}

/// Aggregated outcome of one shard across every worker.
#[derive(Debug, Default)]
pub struct ShardTotals {
    /// Commit/abort/latency bookkeeping for every section routed here.
    pub stats: SessionStats,
    /// Committed key increments (SET = 1, MSET = one per distinct key).
    pub increments: u64,
}

/// Everything a deterministic service run produces.
#[derive(Debug)]
pub struct ServerRun {
    /// Per-worker trace snapshots (empty when tracing is off).
    pub traces: Vec<ThreadTrace>,
    /// Per-shard totals, indexed by shard.
    pub shards: Vec<ShardTotals>,
    /// All shards and workers merged (the service-level point).
    pub merged: SessionStats,
    /// Measured virtual seconds (first worker start → last worker end).
    pub elapsed_s: f64,
    /// Final store contents per shard: `(key, value)` sorted by key.
    pub dump: Vec<Vec<(u64, u64)>>,
    /// Post-run invariant sweep: every shard lock quiescent, every
    /// scheduler slot released.
    pub quiescence: Result<(), String>,
    /// Per-worker stats (all shards plus leftovers merged), indexed by
    /// worker. External oracles (the torture harness) consume these.
    pub worker_stats: Vec<SessionStats>,
    /// Per-worker committed increments, indexed `[worker][shard]`
    /// (warmup included — these balance against [`ServerRun::dump`]).
    pub worker_increments: Vec<Vec<u64>>,
    /// The deterministic scheduler's recorded decision trace.
    pub schedule: Vec<htm_sim::DecisionRecord>,
    /// Where a replaying schedule policy stopped matching, if anywhere.
    pub sched_divergence: Option<String>,
}

impl ServerRun {
    /// Conservation oracle: each shard's final counters must sum to
    /// exactly the committed increments routed there.
    ///
    /// # Errors
    ///
    /// Describes the first shard whose totals do not balance.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (s, (dump, totals)) in self.dump.iter().zip(&self.shards).enumerate() {
            let stored: u64 = dump.iter().map(|&(_, v)| v).sum();
            if stored != totals.increments {
                return Err(format!(
                    "shard {s}: store holds {stored} increments but workers committed {}",
                    totals.increments
                ));
            }
        }
        Ok(())
    }
}

/// One shard's lock + store.
struct ShardUnit {
    lock: ShardLock,
    kv: KvShard,
}

/// Runs the service under the deterministic scheduler. See the module
/// docs for the reproducibility contract.
///
/// # Panics
///
/// Panics on an invalid config or if a worker panics.
pub fn run_det(cfg: &ServerConfig) -> ServerRun {
    run_det_with(
        cfg,
        HtmConfig {
            scheduler: SchedulerKind::deterministic(cfg.schedule_seed),
            ..HtmConfig::default()
        },
    )
}

/// Like [`run_det`], but layered over a caller-supplied simulator
/// configuration — fault model (capacity, interrupt injection) and
/// schedule policy included. The thread count is overridden to the
/// worker-pool size; the scheduler must already be deterministic, and it
/// replaces [`ServerConfig::schedule_seed`], which only [`run_det`]
/// reads.
///
/// # Panics
///
/// Panics on an invalid config, a free-running (OS) scheduler, or if a
/// worker panics.
pub fn run_det_with(cfg: &ServerConfig, htm_base: HtmConfig) -> ServerRun {
    cfg.validate().expect("invalid server config");
    assert!(
        !matches!(htm_base.scheduler, SchedulerKind::Os),
        "the service driver is deterministic-only: its wake parking is a \
         scheduler yield point, which the OS scheduler cannot replay"
    );
    let htm = Htm::new(
        HtmConfig {
            max_threads: cfg.workers,
            ..htm_base
        },
        cfg.cells_needed(),
    );
    let lock_cfg = SprwlConfig {
        reader_tracking: cfg.tracking,
        versioned_sgl: true,
        ..SprwlConfig::default()
    };
    let shards: Vec<ShardUnit> = (0..cfg.shards)
        .map(|_| ShardUnit {
            lock: ShardLock::new(SpRwl::new(&htm, lock_cfg.clone())),
            kv: KvShard::new(
                htm.memory(),
                cfg.buckets_per_shard,
                cfg.shard_capacity(),
                cfg.workers,
                cfg.payload_cells,
            ),
        })
        .collect();

    let barrier = Barrier::new(cfg.workers);
    let mut per_shard: Vec<ShardTotals> = (0..cfg.shards).map(|_| ShardTotals::default()).collect();
    let mut merged = SessionStats::default();
    let mut traces = Vec::new();
    let mut worker_stats = Vec::with_capacity(cfg.workers);
    let mut worker_increments = Vec::with_capacity(cfg.workers);
    let mut virt_start = u64::MAX;
    let mut virt_end = 0u64;
    let htm_ref = &htm;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|tid| {
                let barrier = &barrier;
                let shards = &shards;
                scope.spawn(move || worker(cfg, htm_ref, shards, barrier, tid))
            })
            .collect();
        // Joined in spawn order, so per-worker vectors index by tid.
        for h in handles {
            let out = h.join().expect("service worker panicked");
            let mut mine = SessionStats::default();
            for (agg, got) in per_shard.iter_mut().zip(&out.shard_stats) {
                agg.stats.merge(got);
                merged.merge(got);
                mine.merge(got);
            }
            for (agg, &got) in per_shard.iter_mut().zip(&out.increments) {
                agg.increments += got;
            }
            merged.merge(&out.leftover);
            mine.merge(&out.leftover);
            worker_stats.push(mine);
            worker_increments.push(out.increments);
            virt_start = virt_start.min(out.v0);
            virt_end = virt_end.max(out.v1);
            traces.extend(out.trace);
        }
    });

    let mem = htm.memory();
    let mut dump: Vec<Vec<(u64, u64)>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    for key in 0..cfg.spec.keyspace {
        let s = shard_of(key, cfg.shards);
        if let Some(v) = shards[s].kv.peek(mem, key) {
            dump[s].push((key, v));
        }
    }

    let mut quiescence = Ok(());
    for (s, unit) in shards.iter().enumerate() {
        if let Err(e) = unit.lock.lock().check_quiescent(mem) {
            quiescence = Err(format!("shard {s}: {e}"));
            break;
        }
    }
    if quiescence.is_ok() && htm.active_threads() != 0 {
        quiescence = Err(format!(
            "{} scheduler slots still claimed after join",
            htm.active_threads()
        ));
    }

    let schedule = htm.scheduler().decision_trace().unwrap_or_default();
    let sched_divergence = htm.scheduler().schedule_divergence();
    ServerRun {
        traces,
        shards: per_shard,
        merged,
        elapsed_s: ((virt_end.saturating_sub(virt_start)) as f64 / 1e9).max(1e-9),
        dump,
        quiescence,
        worker_stats,
        worker_increments,
        schedule,
        sched_divergence,
    }
}

/// What one worker hands back to the aggregator.
struct WorkerOut {
    shard_stats: Vec<SessionStats>,
    increments: Vec<u64>,
    leftover: SessionStats,
    v0: u64,
    v1: u64,
    trace: Option<ThreadTrace>,
}

fn worker(
    cfg: &ServerConfig,
    htm: &Htm,
    shards: &[ShardUnit],
    barrier: &Barrier,
    tid: usize,
) -> WorkerOut {
    // The barrier runs *before* the scheduler-slot claim: the claims form
    // the deterministic scheduler's first registration wave, which must
    // not interleave with op execution.
    barrier.wait();
    let mut t = LockThread::with_trace(htm.thread(tid), cfg.trace);
    let mut gen = RedisGen::new(cfg.spec.clone(), cfg.seed ^ ((tid as u64 + 1) << 24));
    let mut st = WorkerState {
        shard_stats: (0..cfg.shards).map(|_| SessionStats::default()).collect(),
        increments: vec![0u64; cfg.shards],
        obs: Vec::with_capacity(cfg.spec.mset_keys + 1),
        seq: 0,
        lin: cfg.lin_marks,
    };
    for _ in 0..cfg.warmup_ops {
        service_op(gen.next_op(), cfg.shards, shards, &mut t, &mut st);
    }
    // Measurement starts here: scrap warmup stats, keep warmup *effects*
    // (the increments counter keeps counting — conservation is over the
    // whole run, not the measured window).
    for s in &mut st.shard_stats {
        *s = SessionStats::default();
    }
    t.stats = SessionStats::default();
    let v0 = clock::now();
    for _ in 0..cfg.ops_per_worker {
        service_op(gen.next_op(), cfg.shards, shards, &mut t, &mut st);
    }
    let v1 = clock::now();
    let trace = cfg.trace.is_on().then(|| t.trace.snapshot());
    WorkerOut {
        shard_stats: st.shard_stats,
        increments: st.increments,
        leftover: t.stats,
        v0,
        v1,
        trace,
    }
}

/// Per-worker mutable op state.
struct WorkerState {
    /// Stats bucketed by the shard each section ran on.
    shard_stats: Vec<SessionStats>,
    /// Committed key increments per shard (warmup included).
    increments: Vec<u64>,
    /// Committed-attempt observation buffer for MSET lin marks.
    obs: Vec<(u64, u64)>,
    /// Per-thread lin-op sequence number.
    seq: u64,
    lin: bool,
}

/// Executes one redis op end-to-end through the async front-end.
fn service_op(
    op: RedisOp,
    n_shards: usize,
    shards: &[ShardUnit],
    t: &mut LockThread<'_>,
    st: &mut WorkerState,
) {
    match op {
        RedisOp::Get { key } => {
            let s = shard_of(key, n_shards);
            if st.lin {
                t.trace.push(EventKind::Mark {
                    label: LIN_INV,
                    a: st.seq,
                    b: 0,
                });
            }
            let start = clock::now();
            let tid = t.tid();
            let guard = block_on(shards[s].lock.read(t.ctx.direct(), tid));
            let mut a = guard.access();
            let val = shards[s]
                .kv
                .get(&mut a, key)
                .expect("direct reads never abort")
                .unwrap_or(0);
            drop(guard);
            let latency = clock::now().saturating_sub(start);
            // The async read path bypasses `read_section`, so it records
            // its own commit: always uninstrumented, per the paper.
            st.shard_stats[s].record_commit(Role::Reader, CommitMode::Unins, latency);
            if st.lin {
                t.trace.push(EventKind::Mark {
                    label: LIN_READ,
                    a: key,
                    b: val,
                });
                t.trace.push(EventKind::Mark {
                    label: LIN_RET,
                    a: st.seq,
                    b: 0,
                });
                st.seq += 1;
            }
        }
        RedisOp::Set { key, payload_bytes } => {
            let s = shard_of(key, n_shards);
            write_batch(s, &[key], payload_bytes, 1, shards, t, st);
        }
        RedisOp::MSet {
            mut keys,
            payload_bytes,
        } => {
            // One write section per shard touched, keys deduped: each
            // sub-batch is an independent lin op (at most one effect per
            // register per op), and no two shard locks are ever held at
            // once, so cross-shard MSETs cannot deadlock.
            keys.sort_unstable();
            keys.dedup();
            let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); n_shards];
            for key in keys {
                by_shard[shard_of(key, n_shards)].push(key);
            }
            for (s, batch) in by_shard.iter().enumerate() {
                if !batch.is_empty() {
                    write_batch(s, batch, payload_bytes, 2, shards, t, st);
                }
            }
        }
    }
}

/// One write section on shard `s`: bump every key in `batch`, with lin
/// marks describing the committed attempt.
fn write_batch(
    s: usize,
    batch: &[u64],
    payload_bytes: u32,
    kind: u64,
    shards: &[ShardUnit],
    t: &mut LockThread<'_>,
    st: &mut WorkerState,
) {
    if st.lin {
        t.trace.push(EventKind::Mark {
            label: LIN_INV,
            a: st.seq,
            b: kind,
        });
    }
    // Park until a write looks admittable, then run the synchronous
    // section (which re-arbitrates under the lock's own protocol).
    block_on(shards[s].lock.write_ready(t.ctx.direct()));
    let tid = t.tid();
    let kv = &shards[s].kv;
    let obs = &mut st.obs;
    // Route this section's bookkeeping into the shard's stats bucket.
    std::mem::swap(&mut t.stats, &mut st.shard_stats[s]);
    shards[s].lock.write_section(t, SEC_KV_WRITE, &mut |a| {
        // Reset at the top of every attempt so the buffer holds exactly
        // the committed attempt's observations.
        obs.clear();
        for &key in batch {
            let old = kv.bump(a, tid, key, payload_bytes)?;
            obs.push((key, old));
        }
        Ok(batch.len() as u64)
    });
    std::mem::swap(&mut t.stats, &mut st.shard_stats[s]);
    st.increments[s] += batch.len() as u64;
    if st.lin {
        for &(key, old) in st.obs.iter() {
            t.trace.push(EventKind::Mark {
                label: LIN_WRITE,
                a: key,
                b: old,
            });
        }
        t.trace.push(EventKind::Mark {
            label: LIN_RET,
            a: st.seq,
            b: 0,
        });
        st.seq += 1;
    }
}

/// Splits lin-marked traces into per-shard histories: every `lin-inv …
/// lin-ret` block lands in the shard its registers route to (ops never
/// span shards by construction — MSETs are split into per-shard sections
/// before marking). The result feeds `sprwl_lincheck::History::from_traces`
/// one shard at a time, giving a per-shard linearizability verdict.
///
/// # Panics
///
/// Panics when a block carries no effect mark (malformed recording).
pub fn split_lin_traces(traces: &[ThreadTrace], n_shards: usize) -> Vec<Vec<ThreadTrace>> {
    let mut out: Vec<Vec<ThreadTrace>> = (0..n_shards).map(|_| Vec::new()).collect();
    for tr in traces {
        let mut per_shard_events: Vec<Vec<sprwl_trace::Event>> =
            (0..n_shards).map(|_| Vec::new()).collect();
        let mut block: Vec<sprwl_trace::Event> = Vec::new();
        let mut in_block = false;
        for ev in &tr.events {
            let label = match ev.kind {
                EventKind::Mark { label, .. } => label,
                _ => continue,
            };
            match label {
                LIN_INV => {
                    block.clear();
                    block.push(*ev);
                    in_block = true;
                }
                LIN_READ | LIN_WRITE if in_block => block.push(*ev),
                LIN_RET if in_block => {
                    block.push(*ev);
                    let reg = block
                        .iter()
                        .find_map(|e| match e.kind {
                            EventKind::Mark {
                                label: LIN_READ | LIN_WRITE,
                                a,
                                ..
                            } => Some(a),
                            _ => None,
                        })
                        .expect("lin block with no effect mark");
                    per_shard_events[shard_of(reg, n_shards)].append(&mut block);
                    in_block = false;
                }
                // Orphan effect/response marks (ring overwrote the inv):
                // drop them here; the per-shard `dropped` count below tells
                // the checker the history is incomplete anyway.
                _ => {}
            }
        }
        for (s, events) in per_shard_events.into_iter().enumerate() {
            if !events.is_empty() || tr.dropped > 0 {
                out[s].push(ThreadTrace::full(tr.tid, events, tr.dropped));
            }
        }
    }
    out
}
