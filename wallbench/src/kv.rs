//! The sharded KV workloads: `sprwl-server`'s shards driven by
//! redis-shaped traffic.
//!
//! `sprwl_server::run_det` only runs under the deterministic scheduler, so
//! the ops here compose the server's public pieces the same way
//! `service_op` does: versioned SGL on, `write_ready` before every
//! `ShardLock::write_section`, and an MSET deduped and split into one write
//! section per shard.

use htm_sim::{Htm, HtmConfig};
use sprwl::{ReaderTracking, SpRwl, SprwlConfig};
use sprwl_locks::{LockThread, RwSync};
use sprwl_server::service::SEC_KV_WRITE;
use sprwl_server::{shard_of, KvShard, ShardLock};
use sprwl_workloads::redis::KeyDist;
use sprwl_workloads::{RedisGen, RedisOp, RedisSpec};

use crate::drive::{Outcome, Workload, CLIENTS};
use crate::span::{Probe, SpanKind};

pub const SHARDS: usize = 4;
/// Hash chains per shard: about four keys per chain once the store is
/// preloaded, so a GET walks a short chain.
const BUCKETS_PER_SHARD: usize = 1 << 16;
/// Payload scratch cells per shard, as in `ServerConfig::smoke`.
const PAYLOAD_CELLS: usize = 64;

/// redis-benchmark's default shape: 90 % GET, 9 % SET, 1 % 4-key MSET,
/// 3-byte payloads, uniform over a million keys.
pub fn get_uniform() -> RedisSpec {
    RedisSpec::service_default()
}

/// Write-heavy and skewed: 50 % GET, 40 % SET, 10 % MSET over zipfian
/// (θ = 0.99) keys.
pub fn set_zipf() -> RedisSpec {
    RedisSpec {
        get_pct: 50,
        set_pct: 40,
        key_dist: KeyDist::Zipfian { theta: 0.99 },
        ..RedisSpec::service_default()
    }
}

struct Shard {
    lock: ShardLock,
    kv: KvShard,
}

/// The store: one `SpRwl` and one `KvShard` per shard, every key preloaded.
pub struct KvSystem {
    htm: Htm,
    shards: Vec<Shard>,
    keyspace: u64,
    /// Keys preloaded into each shard (each holds counter 1 afterwards).
    preloaded: [u64; SHARDS],
}

impl KvSystem {
    /// Builds the runtime, locks and shards, and preloads every key.
    pub fn build(keyspace: u64) -> Self {
        // Shard capacity and arena size as `ServerConfig` computes them.
        let fair = keyspace as usize / SHARDS + 1;
        let capacity = (fair * 2 + 256).min(keyspace as usize) as u32;
        let per_shard = KvShard::cells_needed(BUCKETS_PER_SHARD, capacity, CLIENTS, PAYLOAD_CELLS);
        let htm = Htm::new(
            HtmConfig {
                max_threads: CLIENTS,
                ..HtmConfig::default()
            },
            SHARDS * (per_shard + 512) + 4096,
        );
        let cfg = SprwlConfig {
            reader_tracking: ReaderTracking::Bravo,
            versioned_sgl: true,
            ..SprwlConfig::default()
        };
        let shards: Vec<Shard> = (0..SHARDS)
            .map(|_| Shard {
                lock: ShardLock::new(SpRwl::new(&htm, cfg.clone())),
                kv: KvShard::new(
                    htm.memory(),
                    BUCKETS_PER_SHARD,
                    capacity,
                    CLIENTS,
                    PAYLOAD_CELLS,
                ),
            })
            .collect();
        let mut preloaded = [0; SHARDS];
        let mut d = htm.direct(0);
        for key in 0..keyspace {
            let s = shard_of(key, SHARDS);
            shards[s]
                .kv
                .bump(&mut d, 0, key, 0)
                .expect("untracked writes never abort");
            preloaded[s] += 1;
        }
        Self {
            htm,
            shards,
            keyspace,
            preloaded,
        }
    }
}

/// One client's generator and oracle.
pub struct KvClient {
    gen: RedisGen,
    /// The last counter value this client read or wrote, per key. Counters
    /// only grow, so a later read must never see less. They stay far below
    /// 2^32 in any run, and 32 bits halve this oracle's share of the
    /// process's memory.
    last: Vec<u32>,
    /// Committed increments per shard, warm-up included (the store's
    /// conservation balance is over the whole run).
    increments: [u64; SHARDS],
    /// Keys and old values seen by the committed attempt of a write.
    obs: Vec<(u64, u64)>,
}

impl KvClient {
    pub fn new(spec: &RedisSpec, seed: u64, tid: usize) -> Self {
        Self {
            gen: RedisGen::new(spec.clone(), seed ^ ((tid as u64 + 1) << 24)),
            last: vec![0; spec.keyspace as usize],
            increments: [0; SHARDS],
            obs: Vec::with_capacity(spec.mset_keys),
        }
    }

    fn saw(&mut self, key: u64, value: u64) -> bool {
        let last = &mut self.last[key as usize];
        let ok = value >= u64::from(*last);
        *last = u32::try_from(value).unwrap_or(u32::MAX);
        ok
    }
}

impl KvSystem {
    /// One write section on shard `s` bumping every key of `batch`.
    fn write_batch<P: Probe>(
        &self,
        t: &mut LockThread<'_>,
        c: &mut KvClient,
        s: usize,
        batch: &[u64],
        payload_bytes: u32,
        p: &mut P,
    ) -> bool {
        let shard = &self.shards[s];
        p.admit(SpanKind::WriteReady, shard.lock.write_ready(t.ctx.direct()));
        let tid = t.tid();
        let obs = &mut c.obs;
        let id = p.open(SpanKind::ShardWrite);
        shard.lock.write_section(t, SEC_KV_WRITE, &mut |a| {
            p.body(SpanKind::Body, a, |a| {
                // Reset every attempt: keep only the committed attempt's view.
                obs.clear();
                for &key in batch {
                    obs.push((key, shard.kv.bump(a, tid, key, payload_bytes)?));
                }
                Ok(batch.len() as u64)
            })
        });
        p.close(id);
        c.increments[s] += batch.len() as u64;
        let mut ok = true;
        for &(key, old) in &c.obs {
            let last = &mut c.last[key as usize];
            ok &= old >= u64::from(*last);
            *last = u32::try_from(old + 1).unwrap_or(u32::MAX);
        }
        ok
    }
}

impl Workload for KvSystem {
    type Client = KvClient;
    type Op = RedisOp;

    fn htm(&self) -> &Htm {
        &self.htm
    }

    fn next_op(&self, c: &mut KvClient) -> RedisOp {
        c.gen.next_op()
    }

    fn run<P: Probe>(
        &self,
        t: &mut LockThread<'_>,
        c: &mut KvClient,
        op: RedisOp,
        p: &mut P,
    ) -> Outcome {
        match op {
            RedisOp::Get { key } => {
                let shard = &self.shards[shard_of(key, SHARDS)];
                let tid = t.tid();
                let guard = p.admit(SpanKind::ReadAdmit, shard.lock.read(t.ctx.direct(), tid));
                let mut a = guard.access();
                let val = p
                    .body(SpanKind::KvGet, &mut a, |a| shard.kv.get(a, key))
                    .expect("direct reads never abort");
                let id = p.open(SpanKind::ReadRelease);
                drop(guard);
                p.close(id);
                Outcome {
                    write: false,
                    ok: val.is_some_and(|v| c.saw(key, v)),
                }
            }
            RedisOp::Set { key, payload_bytes } => Outcome {
                write: true,
                ok: self.write_batch(t, c, shard_of(key, SHARDS), &[key], payload_bytes, p),
            },
            RedisOp::MSet {
                mut keys,
                payload_bytes,
            } => {
                // Deduped, then one section per shard in shard order; no two
                // shard locks are ever held at once.
                keys.sort_unstable_by_key(|&k| (shard_of(k, SHARDS), k));
                keys.dedup();
                let mut ok = true;
                for batch in keys.chunk_by(|&a, &b| shard_of(a, SHARDS) == shard_of(b, SHARDS)) {
                    let s = shard_of(batch[0], SHARDS);
                    ok &= self.write_batch(t, c, s, batch, payload_bytes, p);
                }
                Outcome { write: true, ok }
            }
        }
    }

    fn verify(&self, clients: &[KvClient]) -> Result<(), String> {
        let mem = self.htm.memory();
        let mut stored = [0u64; SHARDS];
        for key in 0..self.keyspace {
            let s = shard_of(key, SHARDS);
            stored[s] += self.shards[s]
                .kv
                .peek(mem, key)
                .ok_or_else(|| format!("key {key} vanished from shard {s}"))?;
        }
        for (s, (shard, &held)) in self.shards.iter().zip(&stored).enumerate() {
            let committed =
                self.preloaded[s] + clients.iter().map(|c| c.increments[s]).sum::<u64>();
            if held != committed {
                return Err(format!(
                    "shard {s}: store holds {held} but {committed} increments were committed"
                ));
            }
            shard
                .lock
                .lock()
                .check_quiescent(mem)
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        Ok(())
    }

    fn inject_fault(&self) {
        // An increment no client committed: conservation must catch it.
        let s = shard_of(0, SHARDS);
        let mut d = self.htm.direct(0);
        self.shards[s]
            .kv
            .bump(&mut d, 0, 0, 0)
            .expect("untracked writes never abort");
    }
}
