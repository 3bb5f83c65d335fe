//! Workload specifications: the knobs §4 of the paper sweeps, scaled to
//! the simulated capacity profiles.

use htm_sim::{CapacityProfile, MemAccess, TxResult};

use crate::hashmap::SimHashMap;
use crate::sortedlist::SortedList;

/// Shape of the hashmap micro-benchmark.
///
/// The paper populates 5000-bucket tables with 8 M (Broadwell) / 3 M
/// (POWER8) items so that 10-lookup readers overflow HTM capacity while
/// 1-lookup readers fit. Our populations are scaled ×~128 down together
/// with the capacity profiles (DESIGN.md §2), preserving the same
/// fits/overflows relations:
///
/// * long readers (10 lookups): footprint > read capacity on both profiles;
/// * short readers (1 lookup): footprint < read capacity on both profiles;
/// * writers (1 insert/delete): always fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashmapSpec {
    /// Bucket count (paper: 5000; scaled: 512).
    pub buckets: usize,
    /// Initial items (half of `key_space`, the random-walk equilibrium).
    pub population: u64,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// Lookups per read critical section (paper: 1 or 10).
    pub lookups_per_read: usize,
    /// Percentage of write critical sections (paper: 10/50/90).
    pub update_pct: u32,
}

impl HashmapSpec {
    /// The paper's configuration for a given capacity profile and reader
    /// size.
    pub fn paper(profile: &CapacityProfile, long_readers: bool, update_pct: u32) -> Self {
        let buckets = 512;
        // Average chain length ≈ population / buckets; chosen per profile
        // so 10-lookup readers overflow and 1-lookup readers fit.
        let population: u64 = match profile.name {
            "power8-sim" => 24 * 1024,
            _ => 64 * 1024,
        };
        Self {
            buckets,
            population,
            key_space: population * 2,
            lookups_per_read: if long_readers { 10 } else { 1 },
            update_pct,
        }
    }

    /// Slab capacity with drift headroom.
    pub fn slab_capacity(&self) -> u32 {
        (self.key_space + self.key_space / 8) as u32
    }

    /// Simulated-memory cells this workload needs (plus harness slack).
    pub fn cells_needed(&self, n_threads: usize) -> usize {
        SimHashMap::cells_needed(self.buckets, self.slab_capacity(), n_threads) + 4096
    }

    /// Builds and populates the map (call before spawning threads).
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn build(&self, mem: &htm_sim::SimMemory, n_threads: usize) -> SimHashMap {
        let map = SimHashMap::new(mem, self.buckets, self.slab_capacity(), n_threads);
        // Populate even keys: exactly `population` present, spread across
        // the key space so lookups hit ~50%.
        let mut setup = InitAccess { mem };
        map.populate(&mut setup, (0..self.population).map(|k| k * 2))
            .expect("untracked population cannot abort");
        map
    }
}

/// Setup-time accessor: raw init stores, raw peeks (single-threaded only).
struct InitAccess<'m> {
    mem: &'m htm_sim::SimMemory,
}

impl MemAccess for InitAccess<'_> {
    fn read(&mut self, cell: htm_sim::CellId) -> TxResult<u64> {
        Ok(self.mem.peek(cell))
    }

    fn write(&mut self, cell: htm_sim::CellId, val: u64) -> TxResult<()> {
        self.mem.init_store(cell, val);
        Ok(())
    }

    fn mode(&self) -> htm_sim::AccessMode {
        htm_sim::AccessMode::Untracked
    }
}

/// Executes one read critical section: look up each key, return hit count.
///
/// # Errors
///
/// Propagates transactional aborts.
pub fn hashmap_read_cs(map: &SimHashMap, a: &mut dyn MemAccess, keys: &[u64]) -> TxResult<u64> {
    let mut hits = 0;
    for &k in keys {
        if map.lookup(a, k)?.is_some() {
            hits += 1;
        }
    }
    Ok(hits)
}

/// Executes one write critical section: insert or delete `key`.
///
/// # Errors
///
/// Propagates transactional aborts.
pub fn hashmap_write_cs(
    map: &SimHashMap,
    a: &mut dyn MemAccess,
    tid: usize,
    key: u64,
    insert: bool,
) -> TxResult<u64> {
    Ok(if insert {
        map.insert(a, tid, key, key ^ 0xF00D)? as u64
    } else {
        map.delete(a, tid, key)? as u64
    })
}

/// Size of the contended key set in [`SweepWorkload::HotKey`].
pub const HOT_KEY_SET: u64 = 16;

/// Fraction (percent) of hot-key draws that hit the hot set.
pub const HOT_KEY_PCT: u32 = 90;

/// The four workload shapes of the thread-sweep concurrency harness (the
/// `BENCH_*.json` results pipeline): each isolates one scaling regime of a
/// read-write lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepWorkload {
    /// 100 % readers, uniform keys — the embarrassingly-parallel ceiling;
    /// SpRWL's uninstrumented readers should scale linearly here.
    ReadOnly,
    /// 100 % writers, each thread confined to its own disjoint key
    /// partition — write throughput without data conflicts, isolating
    /// lock-protocol overhead (writer admission, commit-time reader scan).
    IndependentWrite,
    /// Mixed readers/writers all hammering a tiny hot key set — the
    /// conflict-dominated regime where abort handling and scheduling earn
    /// their keep.
    HotKey,
    /// The classic 90 % read / 10 % write mix over uniform keys.
    Mixed90_10,
}

impl SweepWorkload {
    /// All four shapes, in reporting order.
    pub const ALL: [SweepWorkload; 4] = [
        SweepWorkload::ReadOnly,
        SweepWorkload::IndependentWrite,
        SweepWorkload::HotKey,
        SweepWorkload::Mixed90_10,
    ];

    /// Stable name used in `BENCH_*.json` points and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            SweepWorkload::ReadOnly => "read-only",
            SweepWorkload::IndependentWrite => "independent-write",
            SweepWorkload::HotKey => "hot-key",
            SweepWorkload::Mixed90_10 => "mixed-90-10",
        }
    }

    /// Parses a [`Self::name`] back (CLI flags).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Percentage of write critical sections.
    pub fn update_pct(self) -> u32 {
        match self {
            SweepWorkload::ReadOnly => 0,
            SweepWorkload::IndependentWrite => 100,
            SweepWorkload::HotKey => 20,
            SweepWorkload::Mixed90_10 => 10,
        }
    }

    /// Lookups per read critical section.
    pub fn lookups_per_read(self) -> usize {
        match self {
            SweepWorkload::ReadOnly => 8,
            SweepWorkload::IndependentWrite => 1,
            SweepWorkload::HotKey => 2,
            SweepWorkload::Mixed90_10 => 4,
        }
    }

    /// The hashmap shape backing a sweep point — deliberately smaller than
    /// the paper's figure configurations so deterministic (serialized)
    /// sweeps stay fast, while readers still fit HTM capacity and the
    /// hot-key set still spans several buckets.
    pub fn spec(self) -> HashmapSpec {
        HashmapSpec {
            buckets: 256,
            population: 4 * 1024,
            key_space: 8 * 1024,
            lookups_per_read: self.lookups_per_read(),
            update_pct: self.update_pct(),
        }
    }

    /// Draws the key for one lookup of a read critical section.
    pub fn read_key<R: rand::Rng>(self, rng: &mut R, key_space: u64) -> u64 {
        match self {
            SweepWorkload::HotKey => hot_or_uniform(rng, key_space),
            _ => rng.gen_range(0..key_space),
        }
    }

    /// Draws the key for a write critical section. `tid`/`threads` carve
    /// the disjoint per-thread partitions of
    /// [`SweepWorkload::IndependentWrite`].
    pub fn write_key<R: rand::Rng>(
        self,
        rng: &mut R,
        tid: usize,
        threads: usize,
        key_space: u64,
    ) -> u64 {
        match self {
            SweepWorkload::IndependentWrite => {
                let span = (key_space / threads as u64).max(1);
                let lo = span * tid as u64;
                lo + rng.gen_range(0..span)
            }
            SweepWorkload::HotKey => hot_or_uniform(rng, key_space),
            _ => rng.gen_range(0..key_space),
        }
    }
}

/// `HOT_KEY_PCT` % of draws land in the hot set, the rest are uniform.
fn hot_or_uniform<R: rand::Rng>(rng: &mut R, key_space: u64) -> u64 {
    if rng.gen_range(0..100u32) < HOT_KEY_PCT {
        rng.gen_range(0..HOT_KEY_SET.min(key_space))
    } else {
        rng.gen_range(0..key_space)
    }
}

/// Shape of the range-scan workload over a [`SortedList`]: long range
/// readers (the paper's motivating traversal) mixed with *big-footprint
/// range writers* — each write critical section traverses the list and
/// bumps every value in a key window, so its read-set grows with the
/// window position while its write-set stays bounded by the window size.
/// On POWER8-like profiles the traversal overflows the plain HTM read
/// budget but the write-set fits a rollback-only transaction (RW-LE's
/// writer path); on TINY nothing fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeScanSpec {
    /// Slab capacity (nodes).
    pub capacity: u32,
    /// Initial population: even keys `0, 2, …, 2·(population−1)`.
    pub population: u64,
    /// Keys a read critical section's range query spans.
    pub scan_keys: u64,
    /// Keys a write critical section's range update spans.
    pub update_keys: u64,
    /// Percentage of write critical sections.
    pub update_pct: u32,
}

impl RangeScanSpec {
    /// The capacity-sweep configuration: 1024 nodes (≈ 384 cache lines of
    /// traversal, past the POWER8 128-line read budget by construction),
    /// 32-key update windows anchored in the back half of the list so
    /// every writer's traversal overflows plain HTM while its write-set
    /// fits the POWER8 ROT budget.
    pub fn capacity_sweep() -> Self {
        Self {
            capacity: 1536,
            population: 1024,
            scan_keys: 256,
            update_keys: 32,
            update_pct: 20,
        }
    }

    /// Largest valid key (population is `0, 2, …`).
    pub fn max_key(&self) -> u64 {
        (self.population - 1) * 2
    }

    /// Simulated-memory cells this workload needs (plus harness slack).
    pub fn cells_needed(&self, n_threads: usize) -> usize {
        SortedList::cells_needed(self.capacity, n_threads) + 4096
    }

    /// Builds and populates the list (call before spawning threads).
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn build(&self, mem: &htm_sim::SimMemory, n_threads: usize) -> SortedList {
        let list = SortedList::new(mem, self.capacity, n_threads);
        let mut setup = InitAccess { mem };
        list.populate(&mut setup, self.population)
            .expect("untracked population cannot abort");
        list
    }

    /// Draws a write window `[lo, hi]` anchored in the back half of the
    /// key space, so the traversal to reach it reads at least half the
    /// list — the big-footprint writer shape.
    pub fn write_window<R: rand::Rng>(&self, rng: &mut R) -> (u64, u64) {
        let half = self.max_key() / 2;
        let lo = half + rng.gen_range(0..half.max(1));
        (lo, lo + self.update_keys * 2)
    }

    /// Draws a read window `[lo, hi]` uniformly over the key space.
    pub fn read_window<R: rand::Rng>(&self, rng: &mut R) -> (u64, u64) {
        let lo = rng.gen_range(0..self.max_key().max(1));
        (lo, lo + self.scan_keys * 2)
    }
}

/// The TPC-C transaction mix the paper uses (percent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Stock-Level (read-only, long).
    pub stock_level: u32,
    /// Delivery (update).
    pub delivery: u32,
    /// Order-Status (read-only).
    pub order_status: u32,
    /// Payment (update, short).
    pub payment: u32,
    /// New-Order (update, long-ish).
    pub new_order: u32,
}

impl Mix {
    /// The paper's mix: Stock-Level 31 %, Delivery 4 %, Order-Status 4 %,
    /// Payment 43 %, New-Order 18 % (≈35 % read-only).
    pub const PAPER: Mix = Mix {
        stock_level: 31,
        delivery: 4,
        order_status: 4,
        payment: 43,
        new_order: 18,
    };

    /// The delivery-pressure mix of the capacity sweep: New-Order dominates
    /// so every district keeps a backlog of undelivered orders, and each
    /// (rarer) Delivery then walks *all* districts doing full work — the
    /// biggest write footprint TPC-C can produce, overflowing the POWER8
    /// budgets once the sweep's scale raises the district count.
    pub const DELIVERY_SWEEP: Mix = Mix {
        stock_level: 4,
        delivery: 3,
        order_status: 2,
        payment: 15,
        new_order: 76,
    };

    /// Sum of the shares (must be 100).
    pub fn total(&self) -> u32 {
        self.stock_level + self.delivery + self.order_status + self.payment + self.new_order
    }

    /// Picks a transaction type from a uniform draw in `0..100`.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not sum to 100 or `roll >= 100`.
    pub fn pick(&self, roll: u32) -> TpccTxKind {
        assert_eq!(self.total(), 100, "mix must sum to 100");
        assert!(roll < 100);
        let mut r = roll;
        for (share, kind) in [
            (self.stock_level, TpccTxKind::StockLevel),
            (self.delivery, TpccTxKind::Delivery),
            (self.order_status, TpccTxKind::OrderStatus),
            (self.payment, TpccTxKind::Payment),
            (self.new_order, TpccTxKind::NewOrder),
        ] {
            if r < share {
                return kind;
            }
            r -= share;
        }
        unreachable!("mix sums to 100")
    }
}

/// The five TPC-C transaction profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpccTxKind {
    /// Warehouse-wide stock scan below a threshold (read-only, long).
    StockLevel,
    /// Deliver the oldest undelivered orders of every district (update).
    Delivery,
    /// A customer's latest order and its lines (read-only).
    OrderStatus,
    /// Record a customer payment (update, short).
    Payment,
    /// Place a 5–15-line order (update).
    NewOrder,
}

impl TpccTxKind {
    /// Whether this profile is read-only (runs as a read critical section).
    pub fn is_read_only(self) -> bool {
        matches!(self, TpccTxKind::StockLevel | TpccTxKind::OrderStatus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_sums_to_100() {
        assert_eq!(Mix::PAPER.total(), 100);
    }

    #[test]
    fn delivery_sweep_mix_sums_to_100_and_feeds_delivery() {
        let m = Mix::DELIVERY_SWEEP;
        assert_eq!(m.total(), 100);
        // New-Order must outpace Delivery by a wide margin so districts
        // keep a backlog and every delivery does full-footprint work.
        assert!(m.new_order >= 10 * m.delivery / 2);
        assert!(m.delivery > 0);
    }

    #[test]
    fn range_scan_spec_builds_and_windows_stay_in_range() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = RangeScanSpec {
            capacity: 64,
            population: 32,
            scan_keys: 8,
            update_keys: 4,
            update_pct: 20,
        };
        let htm = htm_sim::Htm::new(htm_sim::HtmConfig::default(), spec.cells_needed(4));
        let list = spec.build(htm.memory(), 4);
        let mut d = htm.direct(0);
        let (len, _) = list.checksum(&mut d).unwrap();
        assert_eq!(len, 32);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let (lo, hi) = spec.write_window(&mut rng);
            assert!(lo >= spec.max_key() / 2, "writer anchored in back half");
            assert!(hi > lo);
            let (rlo, rhi) = spec.read_window(&mut rng);
            assert!(rlo <= spec.max_key() && rhi > rlo);
        }
    }

    #[test]
    fn capacity_sweep_spec_overflows_power8_reads_but_fits_rot_writes() {
        let spec = RangeScanSpec::capacity_sweep();
        // ~3 cells per node → traversing half the list touches well past
        // the 128-line POWER8 read budget…
        let half_traversal_lines = (spec.population / 2) * 3 / 8;
        assert!(half_traversal_lines > 128, "{half_traversal_lines}");
        // …while the update window's write-set fits the ROT budget.
        assert!(spec.update_keys < 128);
    }

    #[test]
    fn mix_pick_boundaries() {
        let m = Mix::PAPER;
        assert_eq!(m.pick(0), TpccTxKind::StockLevel);
        assert_eq!(m.pick(30), TpccTxKind::StockLevel);
        assert_eq!(m.pick(31), TpccTxKind::Delivery);
        assert_eq!(m.pick(34), TpccTxKind::Delivery);
        assert_eq!(m.pick(35), TpccTxKind::OrderStatus);
        assert_eq!(m.pick(38), TpccTxKind::OrderStatus);
        assert_eq!(m.pick(39), TpccTxKind::Payment);
        assert_eq!(m.pick(81), TpccTxKind::Payment);
        assert_eq!(m.pick(82), TpccTxKind::NewOrder);
        assert_eq!(m.pick(99), TpccTxKind::NewOrder);
    }

    #[test]
    fn read_only_classification() {
        assert!(TpccTxKind::StockLevel.is_read_only());
        assert!(TpccTxKind::OrderStatus.is_read_only());
        assert!(!TpccTxKind::Payment.is_read_only());
        assert!(!TpccTxKind::NewOrder.is_read_only());
        assert!(!TpccTxKind::Delivery.is_read_only());
    }

    #[test]
    fn sweep_workload_names_round_trip() {
        for w in SweepWorkload::ALL {
            assert_eq!(SweepWorkload::parse(w.name()), Some(w));
        }
        assert_eq!(SweepWorkload::parse("nope"), None);
        assert_eq!(SweepWorkload::ReadOnly.update_pct(), 0);
        assert_eq!(SweepWorkload::IndependentWrite.update_pct(), 100);
    }

    #[test]
    fn independent_write_partitions_are_disjoint() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let w = SweepWorkload::IndependentWrite;
        let key_space = 8 * 1024;
        let threads = 4;
        let span = key_space / threads as u64;
        for tid in 0..threads {
            let mut rng = StdRng::seed_from_u64(9 + tid as u64);
            for _ in 0..200 {
                let k = w.write_key(&mut rng, tid, threads, key_space);
                assert!(
                    (span * tid as u64..span * (tid as u64 + 1)).contains(&k),
                    "tid {tid} escaped its partition: {k}"
                );
            }
        }
    }

    #[test]
    fn hot_key_draws_concentrate_on_the_hot_set() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let w = SweepWorkload::HotKey;
        let mut rng = StdRng::seed_from_u64(3);
        let n = 2_000;
        let hot = (0..n)
            .filter(|_| w.read_key(&mut rng, 8 * 1024) < HOT_KEY_SET)
            .count();
        // ~90 % + the uniform tail's tiny contribution; 1 % floor noise.
        assert!(
            (n * 80 / 100..=n * 98 / 100).contains(&hot),
            "hot fraction {hot}/{n}"
        );
        let uniform = SweepWorkload::Mixed90_10;
        let mut rng = StdRng::seed_from_u64(3);
        let hot_uniform = (0..n)
            .filter(|_| uniform.read_key(&mut rng, 8 * 1024) < HOT_KEY_SET)
            .count();
        assert!(hot_uniform < n / 10, "uniform draws are not concentrated");
    }

    #[test]
    fn sweep_specs_are_buildable() {
        for w in SweepWorkload::ALL {
            let spec = w.spec();
            assert_eq!(spec.update_pct, w.update_pct());
            assert!(spec.key_space >= 2 * spec.population);
            assert!(spec.cells_needed(8) > 0);
        }
    }

    #[test]
    fn hashmap_spec_scales_with_profile() {
        let b = HashmapSpec::paper(&CapacityProfile::BROADWELL_SIM, true, 10);
        let p = HashmapSpec::paper(&CapacityProfile::POWER8_SIM, true, 10);
        assert!(b.population > p.population, "Broadwell holds more items");
        assert_eq!(b.lookups_per_read, 10);
        assert_eq!(
            HashmapSpec::paper(&CapacityProfile::BROADWELL_SIM, false, 10).lookups_per_read,
            1
        );
    }

    #[test]
    fn build_populates_even_keys() {
        let spec = HashmapSpec {
            buckets: 16,
            population: 100,
            key_space: 200,
            lookups_per_read: 1,
            update_pct: 10,
        };
        let htm = htm_sim::Htm::new(htm_sim::HtmConfig::default(), spec.cells_needed(4));
        let map = spec.build(htm.memory(), 4);
        let mut d = htm.direct(0);
        assert!(map.lookup(&mut d, 2).unwrap().is_some());
        assert!(map.lookup(&mut d, 3).unwrap().is_none());
    }
}
