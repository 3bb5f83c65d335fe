//! A sorted singly-linked list with range queries — the paper's
//! introduction motivates SpRWL with "long read-only operations, such as
//! range queries and long traversals", and this structure is their purest
//! form: a range query traverses a prefix of the list (unbounded
//! footprint), while inserts and removes touch a handful of nodes.
//!
//! Like the hashmap, everything lives in simulated memory so footprints
//! drive real capacity aborts.

use htm_sim::{MemAccess, Region, SimMemory, TxResult};

use crate::alloc::{NodeRef, Slab};

/// Node layout: `[next, key, value]`.
const F_NEXT: u32 = 0;
const F_KEY: u32 = 1;
const F_VALUE: u32 = 2;
const NODE_CELLS: u32 = 3;

/// A sorted linked list (ascending keys, no duplicates) in simulated
/// memory.
#[derive(Debug)]
pub struct SortedList {
    /// Head pointer cell (encoded `NodeRef`).
    head: Region,
    slab: Slab,
    n_threads: usize,
}

impl SortedList {
    /// Creates an empty list with room for `capacity` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the simulated memory is exhausted.
    pub fn new(mem: &SimMemory, capacity: u32, n_threads: usize) -> Self {
        let head = mem.alloc_line_aligned(1);
        mem.init_store(head.cell(0), 0);
        Self {
            head,
            slab: Slab::new(mem, NODE_CELLS, capacity, n_threads),
            n_threads,
        }
    }

    /// Cells needed for a list of the given capacity (for sizing memory).
    pub fn cells_needed(capacity: u32, n_threads: usize) -> usize {
        16 + capacity as usize * NODE_CELLS as usize + 8 + n_threads * 8 + 64
    }

    /// Inserts `key → value` keeping order; updates in place on duplicate.
    /// Returns `true` if a new node was linked (false on update or slab
    /// exhaustion).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn insert(
        &self,
        a: &mut dyn MemAccess,
        tid: usize,
        key: u64,
        value: u64,
    ) -> TxResult<bool> {
        let head = self.head.cell(0);
        let mut prev: Option<NodeRef> = None;
        let mut cur = NodeRef::decode(a.read(head)?);
        while let Some(node) = cur {
            let k = a.read(self.slab.cell(node, F_KEY))?;
            if k == key {
                a.write(self.slab.cell(node, F_VALUE), value)?;
                return Ok(false);
            }
            if k > key {
                break;
            }
            prev = Some(node);
            cur = NodeRef::decode(a.read(self.slab.cell(node, F_NEXT))?);
        }
        let Some(node) = self.slab.alloc(a, tid, self.n_threads)? else {
            return Ok(false);
        };
        a.write(self.slab.cell(node, F_KEY), key)?;
        a.write(self.slab.cell(node, F_VALUE), value)?;
        let next_enc = match cur {
            Some(n) => n.encode(),
            None => 0,
        };
        a.write(self.slab.cell(node, F_NEXT), next_enc)?;
        match prev {
            None => a.write(head, node.encode())?,
            Some(p) => a.write(self.slab.cell(p, F_NEXT), node.encode())?,
        }
        Ok(true)
    }

    /// Removes `key`; returns `true` when present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn remove(&self, a: &mut dyn MemAccess, tid: usize, key: u64) -> TxResult<bool> {
        let head = self.head.cell(0);
        let mut prev: Option<NodeRef> = None;
        let mut cur = NodeRef::decode(a.read(head)?);
        while let Some(node) = cur {
            let k = a.read(self.slab.cell(node, F_KEY))?;
            if k > key {
                return Ok(false);
            }
            let next = a.read(self.slab.cell(node, F_NEXT))?;
            if k == key {
                match prev {
                    None => a.write(head, next)?,
                    Some(p) => a.write(self.slab.cell(p, F_NEXT), next)?,
                }
                self.slab.free(a, tid, node)?;
                return Ok(true);
            }
            prev = Some(node);
            cur = NodeRef::decode(next);
        }
        Ok(false)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn get(&self, a: &mut dyn MemAccess, key: u64) -> TxResult<Option<u64>> {
        let mut cur = NodeRef::decode(a.read(self.head.cell(0))?);
        while let Some(node) = cur {
            let k = a.read(self.slab.cell(node, F_KEY))?;
            if k == key {
                return Ok(Some(a.read(self.slab.cell(node, F_VALUE))?));
            }
            if k > key {
                return Ok(None);
            }
            cur = NodeRef::decode(a.read(self.slab.cell(node, F_NEXT))?);
        }
        Ok(None)
    }

    /// Range query: sums the values of keys in `[lo, hi]` and counts them.
    /// This is the long traversal of the paper's motivation — its
    /// footprint grows with the range and quickly exceeds HTM capacity.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn range_sum(&self, a: &mut dyn MemAccess, lo: u64, hi: u64) -> TxResult<(u64, u64)> {
        let mut cur = NodeRef::decode(a.read(self.head.cell(0))?);
        let mut count = 0;
        let mut sum = 0;
        while let Some(node) = cur {
            let k = a.read(self.slab.cell(node, F_KEY))?;
            if k > hi {
                break;
            }
            if k >= lo {
                count += 1;
                sum += a.read(self.slab.cell(node, F_VALUE))?;
            }
            cur = NodeRef::decode(a.read(self.slab.cell(node, F_NEXT))?);
        }
        Ok((count, sum))
    }

    /// Range update: adds `delta` to the value of every key in `[lo, hi]`,
    /// returning the number of nodes updated. This is the big-footprint
    /// *writer* of the paper's motivation mirrored onto the write path: the
    /// traversal's read-set grows with `hi` (overflowing plain HTM read
    /// budgets) while the write-set is bounded by the window — exactly the
    /// shape a rollback-only transaction absorbs (reads untracked, writes
    /// within the ROT budget).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn range_update(
        &self,
        a: &mut dyn MemAccess,
        lo: u64,
        hi: u64,
        delta: u64,
    ) -> TxResult<u64> {
        let mut cur = NodeRef::decode(a.read(self.head.cell(0))?);
        let mut updated = 0;
        while let Some(node) = cur {
            let k = a.read(self.slab.cell(node, F_KEY))?;
            if k > hi {
                break;
            }
            if k >= lo {
                let v = a.read(self.slab.cell(node, F_VALUE))?;
                a.write(self.slab.cell(node, F_VALUE), v.wrapping_add(delta))?;
                updated += 1;
            }
            cur = NodeRef::decode(a.read(self.slab.cell(node, F_NEXT))?);
        }
        Ok(updated)
    }

    /// Full-list checksum: `(length, Σ keys)`. Keys must come out in
    /// strictly ascending order or the structure is corrupt.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts; panics on ordering violations
    /// (structure corruption, which tests hunt for).
    pub fn checksum(&self, a: &mut dyn MemAccess) -> TxResult<(u64, u64)> {
        let mut cur = NodeRef::decode(a.read(self.head.cell(0))?);
        let mut last: Option<u64> = None;
        let mut len = 0;
        let mut sum = 0;
        while let Some(node) = cur {
            let k = a.read(self.slab.cell(node, F_KEY))?;
            assert!(last.is_none_or(|l| l < k), "list order violated");
            last = Some(k);
            len += 1;
            sum += k;
            cur = NodeRef::decode(a.read(self.slab.cell(node, F_NEXT))?);
        }
        Ok((len, sum))
    }

    /// Pre-populates with even keys `0, 2, …` (single-threaded setup).
    ///
    /// # Errors
    ///
    /// Never fails with an untracked accessor.
    ///
    /// # Panics
    ///
    /// Panics if the slab cannot hold `n` nodes.
    pub fn populate(&self, a: &mut dyn MemAccess, n: u64) -> TxResult<()> {
        // Insert descending so each insert is O(1) at the head.
        for i in (0..n).rev() {
            let added = self.insert(a, 0, i * 2, i)?;
            assert!(added, "slab exhausted during population");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_sim::{CapacityProfile, Htm, HtmConfig, TxKind};

    fn setup(cap: u32) -> (Htm, SortedList) {
        let htm = Htm::new(
            HtmConfig {
                max_threads: 4,
                capacity: CapacityProfile::UNBOUNDED,
                ..HtmConfig::default()
            },
            SortedList::cells_needed(cap, 4) + 1024,
        );
        let list = SortedList::new(htm.memory(), cap, 4);
        (htm, list)
    }

    #[test]
    fn insert_keeps_order() {
        let (htm, list) = setup(64);
        let mut d = htm.direct(0);
        for k in [5u64, 1, 9, 3, 7] {
            assert!(list.insert(&mut d, 0, k, k * 10).unwrap());
        }
        let (len, sum) = list.checksum(&mut d).unwrap();
        assert_eq!(len, 5);
        assert_eq!(sum, 25);
        assert_eq!(list.get(&mut d, 3).unwrap(), Some(30));
        assert_eq!(list.get(&mut d, 4).unwrap(), None);
    }

    #[test]
    fn duplicate_insert_updates() {
        let (htm, list) = setup(8);
        let mut d = htm.direct(0);
        assert!(list.insert(&mut d, 0, 4, 1).unwrap());
        assert!(!list.insert(&mut d, 0, 4, 2).unwrap());
        assert_eq!(list.get(&mut d, 4).unwrap(), Some(2));
        assert_eq!(list.checksum(&mut d).unwrap().0, 1);
    }

    #[test]
    fn remove_head_middle_tail() {
        let (htm, list) = setup(16);
        let mut d = htm.direct(0);
        for k in 0..6u64 {
            list.insert(&mut d, 0, k, k).unwrap();
        }
        assert!(list.remove(&mut d, 0, 0).unwrap()); // head
        assert!(list.remove(&mut d, 0, 3).unwrap()); // middle
        assert!(list.remove(&mut d, 0, 5).unwrap()); // tail
        assert!(!list.remove(&mut d, 0, 9).unwrap());
        let (len, sum) = list.checksum(&mut d).unwrap();
        assert_eq!((len, sum), (3, 1 + 2 + 4));
    }

    #[test]
    fn range_sum_respects_bounds() {
        let (htm, list) = setup(32);
        let mut d = htm.direct(0);
        for k in 0..10u64 {
            list.insert(&mut d, 0, k, 1).unwrap();
        }
        assert_eq!(list.range_sum(&mut d, 3, 6).unwrap(), (4, 4));
        assert_eq!(list.range_sum(&mut d, 0, 9).unwrap(), (10, 10));
        assert_eq!(list.range_sum(&mut d, 20, 30).unwrap(), (0, 0));
        assert_eq!(list.range_sum(&mut d, 6, 3).unwrap(), (0, 0));
    }

    #[test]
    fn range_update_adds_delta_within_bounds() {
        let (htm, list) = setup(32);
        let mut d = htm.direct(0);
        for k in 0..10u64 {
            list.insert(&mut d, 0, k, 100).unwrap();
        }
        assert_eq!(list.range_update(&mut d, 3, 6, 5).unwrap(), 4);
        assert_eq!(list.get(&mut d, 2).unwrap(), Some(100));
        assert_eq!(list.get(&mut d, 3).unwrap(), Some(105));
        assert_eq!(list.get(&mut d, 6).unwrap(), Some(105));
        assert_eq!(list.get(&mut d, 7).unwrap(), Some(100));
        assert_eq!(list.range_update(&mut d, 20, 30, 1).unwrap(), 0);
        // Keys are untouched; only values move.
        let (len, sum) = list.checksum(&mut d).unwrap();
        assert_eq!((len, sum), (10, 45));
    }

    #[test]
    fn matches_btreemap_model() {
        let (htm, list) = setup(256);
        let mut d = htm.direct(0);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 0x1234_5678u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..1500 {
            let k = rnd() % 64;
            match rnd() % 3 {
                0 => {
                    let v = rnd();
                    list.insert(&mut d, 0, k, v).unwrap();
                    model.insert(k, v);
                }
                1 => {
                    assert_eq!(
                        list.remove(&mut d, 0, k).unwrap(),
                        model.remove(&k).is_some()
                    );
                }
                _ => {
                    assert_eq!(list.get(&mut d, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        let (len, _) = list.checksum(&mut d).unwrap();
        assert_eq!(len as usize, model.len());
    }

    #[test]
    fn long_range_queries_overflow_htm_capacity() {
        let htm = Htm::new(
            HtmConfig {
                max_threads: 2,
                capacity: CapacityProfile::POWER8_SIM,
                ..HtmConfig::default()
            },
            SortedList::cells_needed(2048, 2) + 1024,
        );
        let list = SortedList::new(htm.memory(), 2048, 2);
        let mut setup_acc = htm.direct(0);
        list.populate(&mut setup_acc, 1024).unwrap();
        let mut ctx = htm.thread(0);
        let err = ctx
            .txn(TxKind::Htm, |tx| list.range_sum(tx, 0, u64::MAX))
            .unwrap_err();
        assert_eq!(err, htm_sim::Abort::CapacityRead);
    }

    #[test]
    fn aborted_insert_leaves_structure_intact() {
        let (htm, list) = setup(16);
        let mut d = htm.direct(0);
        for k in [2u64, 6] {
            list.insert(&mut d, 0, k, k).unwrap();
        }
        let mut ctx = htm.thread(0);
        let _ = ctx.txn(TxKind::Htm, |tx| {
            list.insert(tx, 0, 4, 4)?;
            tx.abort::<()>(1)
        });
        let (len, sum) = list.checksum(&mut d).unwrap();
        assert_eq!((len, sum), (2, 8), "aborted insert leaked");
    }
}
