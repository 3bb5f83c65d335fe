//! The simulated shared memory: a flat array of 64-bit cells grouped into
//! cache lines.
//!
//! Everything that must participate in HTM conflict detection — application
//! data, SpRWL’s reader-state array, the fallback lock, the SNZI root —
//! lives in [`SimMemory`] cells. Conflict detection and capacity accounting
//! operate at [`LineId`] (cache line) granularity, exactly like the
//! coherence-based HTMs being modelled.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// 64-bit cells per simulated cache line: 64-byte lines, as on the
/// paper's Broadwell and POWER8 machines.
pub const CELLS_PER_LINE: u32 = 8;

/// `log2(CELLS_PER_LINE)`: a cell's line index is a shift.
const LINE_SHIFT: u32 = CELLS_PER_LINE.trailing_zeros();
const _: () = assert!(CELLS_PER_LINE.is_power_of_two());

/// Index of a single 64-bit cell in a [`SimMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index, mainly useful for debugging output.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a simulated cache line (a group of [`CELLS_PER_LINE`]
/// consecutive cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub(crate) u32);

impl LineId {
    /// The raw index, mainly useful for debugging output.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous range of cells handed out by [`SimMemory::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    start: u32,
    len: u32,
}

impl Region {
    /// The `i`-th cell of the region.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn cell(&self, i: usize) -> CellId {
        assert!(
            i < self.len as usize,
            "region index {i} out of {}",
            self.len
        );
        CellId(self.start + i as u32)
    }

    /// Number of cells in the region.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the region holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splits the region at `mid`, returning `[0, mid)` and `[mid, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `mid > self.len()`.
    pub fn split_at(&self, mid: usize) -> (Region, Region) {
        assert!(mid <= self.len as usize);
        (
            Region {
                start: self.start,
                len: mid as u32,
            },
            Region {
                start: self.start + mid as u32,
                len: self.len - mid as u32,
            },
        )
    }

    /// Iterates over all cells of the region.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.len).map(move |i| CellId(self.start + i))
    }
}

/// The flat simulated memory.
///
/// Cells hold `u64` values and are addressed by [`CellId`]; richer data
/// (records, strings) is encoded across multiple cells by the workload
/// layer. Allocation is a simple monotone bump pointer — the simulation
/// never frees memory at this level (workloads run their own free lists on
/// top, which keeps allocator state *inside* the transactional domain, as
/// it is on real hardware).
#[derive(Debug)]
pub struct SimMemory {
    cells: Box<[AtomicU64]>,
    next_free: AtomicU32,
}

impl SimMemory {
    /// Creates a memory of `capacity_cells` zero-initialised cells.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_cells` exceeds `u32::MAX`.
    pub fn new(capacity_cells: usize) -> Self {
        assert!(capacity_cells <= u32::MAX as usize, "memory too large");
        Self {
            cells: crate::huge_pages::zeroed_slice(capacity_cells, || AtomicU64::new(0)),
            next_free: AtomicU32::new(0),
        }
    }

    /// Total number of cells.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Number of cells still available to [`alloc`](Self::alloc).
    pub fn remaining(&self) -> usize {
        self.capacity() - self.next_free.load(Ordering::Relaxed) as usize
    }

    /// The cache line containing `cell`.
    #[inline]
    pub fn line_of(&self, cell: CellId) -> LineId {
        LineId(cell.0 >> LINE_SHIFT)
    }

    /// Allocates `n` consecutive cells.
    ///
    /// # Panics
    ///
    /// Panics if the memory is exhausted; simulation setups size memory
    /// up front, so running out indicates a mis-sized experiment.
    pub fn alloc(&self, n: usize) -> Region {
        let n32 = u32::try_from(n).expect("allocation too large");
        let start = self.next_free.fetch_add(n32, Ordering::Relaxed);
        assert!(
            (start as usize) + n <= self.capacity(),
            "simulated memory exhausted: wanted {n} cells, {} remain",
            self.capacity().saturating_sub(start as usize)
        );
        Region { start, len: n32 }
    }

    /// Allocates `n` cells, each alone on its own cache line (the padded
    /// per-thread array layout SpRWL uses for its `state` array).
    ///
    /// Returns the cells, one per line, in order.
    ///
    /// # Panics
    ///
    /// Panics if the memory is exhausted.
    pub fn alloc_padded(&self, n: usize) -> Vec<CellId> {
        (0..n).map(|_| self.alloc_line_aligned(1).cell(0)).collect()
    }

    /// Allocates a region that starts on a line boundary and occupies whole
    /// lines (`n` cells rounded up).
    ///
    /// # Panics
    ///
    /// Panics if the memory is exhausted.
    pub fn alloc_line_aligned(&self, n: usize) -> Region {
        let cpl = CELLS_PER_LINE as usize;
        // Over-allocate enough to realign, then carve the aligned window.
        let raw = self.alloc(n + cpl - 1 + (cpl - n % cpl) % cpl);
        let misalign = raw.start as usize % cpl;
        let skip = if misalign == 0 { 0 } else { cpl - misalign };
        Region {
            start: raw.start + skip as u32,
            len: n as u32,
        }
    }

    // ---- raw cell access (crate-internal; public code must go through
    // `Tx`/`Direct` so conflict detection stays sound) ----

    #[inline]
    pub(crate) fn raw_load(&self, cell: CellId) -> u64 {
        self.cells[cell.0 as usize].load(Ordering::SeqCst)
    }

    #[inline]
    pub(crate) fn raw_store(&self, cell: CellId, val: u64) {
        self.cells[cell.0 as usize].store(val, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn raw_cas(&self, cell: CellId, current: u64, new: u64) -> Result<u64, u64> {
        self.cells[cell.0 as usize].compare_exchange(
            current,
            new,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
    }

    /// Initialization-time store that bypasses conflict detection.
    ///
    /// For single-threaded setup (populating tables, building free lists)
    /// **before** any transaction runs. Using it while transactions are
    /// live would violate strong isolation — use [`crate::Direct`] then.
    #[inline]
    pub fn init_store(&self, cell: CellId, val: u64) {
        self.raw_store(cell, val);
    }

    /// A *coherence read without conflict side effects*: a plain atomic load
    /// that neither dooms conflicting transactions nor waits for in-flight
    /// commits.
    ///
    /// This is only sound for spin loops on cells that are **never written
    /// transactionally** (e.g. SpRWL’s reader-state flags, which only their
    /// owner thread stores, non-transactionally). For anything else use
    /// [`crate::Direct`].
    #[inline]
    pub fn peek(&self, cell: CellId) -> u64 {
        self.raw_load(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotone_and_disjoint() {
        let m = SimMemory::new(100);
        let a = m.alloc(10);
        let b = m.alloc(5);
        assert_eq!(a.len(), 10);
        let a_last = a.cell(9).index();
        let b_first = b.cell(0).index();
        assert!(b_first > a_last);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_past_capacity_panics() {
        let m = SimMemory::new(16);
        m.alloc(17);
    }

    #[test]
    fn line_mapping_groups_cells() {
        let m = SimMemory::new(64);
        let r = m.alloc(16);
        assert_eq!(m.line_of(r.cell(0)), m.line_of(r.cell(7)));
        assert_ne!(m.line_of(r.cell(7)), m.line_of(r.cell(8)));
        for c in r.iter() {
            assert_eq!(m.line_of(c).index(), c.index() / CELLS_PER_LINE as usize);
        }
    }

    #[test]
    fn padded_alloc_puts_each_cell_on_its_own_line() {
        let m = SimMemory::new(1024);
        m.alloc(3); // misalign on purpose
        let cells = m.alloc_padded(5);
        let mut lines: Vec<_> = cells.iter().map(|&c| m.line_of(c)).collect();
        lines.dedup();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn line_aligned_alloc_starts_on_boundary() {
        let m = SimMemory::new(1024);
        m.alloc(5);
        let r = m.alloc_line_aligned(8);
        assert_eq!(r.cell(0).index() % 8, 0);
        assert_eq!(m.line_of(r.cell(0)), m.line_of(r.cell(7)));
    }

    #[test]
    fn region_split_and_iter() {
        let m = SimMemory::new(64);
        let r = m.alloc(10);
        let (a, b) = r.split_at(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 6);
        assert_eq!(r.iter().count(), 10);
        assert_eq!(a.iter().last(), Some(a.cell(3)));
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn region_bounds_are_checked() {
        let m = SimMemory::new(64);
        let r = m.alloc(4);
        let _ = r.cell(4);
    }

    #[test]
    fn cells_start_zeroed_and_peek_reads_raw() {
        let m = SimMemory::new(8);
        let r = m.alloc(8);
        for c in r.iter() {
            assert_eq!(m.peek(c), 0);
        }
        m.raw_store(r.cell(2), 77);
        assert_eq!(m.peek(r.cell(2)), 77);
    }

    #[test]
    fn raw_cas_success_and_failure() {
        let m = SimMemory::new(8);
        let c = m.alloc(1).cell(0);
        assert_eq!(m.raw_cas(c, 0, 5), Ok(0));
        assert_eq!(m.raw_cas(c, 0, 9), Err(5));
        assert_eq!(m.peek(c), 5);
    }

    /// A memory large enough to hold whole 2 MiB pages gets transparent
    /// huge pages under the cell array, and still reads all zeros.
    #[cfg(target_os = "linux")]
    #[test]
    fn large_memory_is_backed_by_huge_pages() {
        let thp = "/sys/kernel/mm/transparent_hugepage/enabled";
        match std::fs::read_to_string(thp) {
            Err(e) => return eprintln!("skipped: cannot read {thp}: {e}"),
            Ok(mode) if mode.contains("[never]") => {
                return eprintln!("skipped: {thp} selects [never]")
            }
            Ok(_) => {}
        }
        let m = SimMemory::new(64 << 20 >> 3);
        for i in (0..m.capacity()).step_by(m.capacity() / 64) {
            assert_eq!(m.peek(CellId(i as u32)), 0, "cell {i}");
        }
        let middle = &m.cells[m.capacity() / 2] as *const AtomicU64 as usize;
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut in_mapping = false;
        let huge_kb = smaps.lines().find_map(|line| {
            let range = line.split(' ').next().unwrap();
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    in_mapping = (lo..hi).contains(&middle);
                    return None;
                }
            }
            let kb = line.strip_prefix("AnonHugePages:")?;
            in_mapping.then(|| kb.trim().trim_end_matches(" kB").parse::<u64>().unwrap())
        });
        let huge_kb = huge_kb.expect("no smaps mapping holds the cell array");
        assert!(huge_kb > 0, "the cell array's mapping has no huge pages");
    }

    #[test]
    fn remaining_tracks_allocations() {
        let m = SimMemory::new(100);
        assert_eq!(m.remaining(), 100);
        m.alloc(30);
        assert_eq!(m.remaining(), 70);
    }
}
