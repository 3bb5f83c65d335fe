//! Allocation of the arrays that grow with the simulated memory:
//! [`SimMemory`](crate::SimMemory)'s cells and the conflict directory's
//! line words.
//!
//! Every untracked access loads a line word and then a cell, both at a
//! randomly placed line. On 4 KiB pages a memory of tens of megabytes
//! spans far more pages than the TLB holds, so nearly every access pays a
//! page walk: a cost of the simulator's page size, not of the protocol
//! being measured. [`zeroed_slice`] asks the kernel to back the
//! allocation's 2 MiB-aligned interior with transparent huge pages
//! *before* the zero-fill first touches it, so each 2 MiB range faults in
//! as one huge page. Advice given after the first touch would be left to
//! the kernel's slow background collapse.
//!
//! The advice is only a hint. Where the kernel has no transparent huge
//! pages, or they are set to `never`, or the target is not Linux, the
//! memory stays on base pages, and an allocation too small to hold an
//! aligned 2 MiB range gets no advice at all. Contents, layout and the
//! line mapping are the same either way.

use std::ops::Range;

/// The transparent huge page size on x86-64 (and on aarch64 with 4 KiB
/// base pages).
const HUGE_PAGE: usize = 2 << 20;

/// `len` values made by `zero`, in an allocation whose 2 MiB-aligned
/// interior is advised for transparent huge pages before it is filled.
pub(crate) fn zeroed_slice<T>(len: usize, zero: impl FnMut() -> T) -> Box<[T]> {
    let mut v = Vec::with_capacity(len);
    advise_huge_pages(&mut v);
    v.resize_with(len, zero);
    v.into_boxed_slice()
}

/// The whole 2 MiB pages inside the `len` bytes at address `start`: from
/// the first 2 MiB boundary at or after `start` to the last one at or
/// before its end. `None` when that holds no whole huge page.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn huge_page_interior(start: usize, len: usize) -> Option<Range<usize>> {
    let first = start.next_multiple_of(HUGE_PAGE);
    let last = (start + len) / HUGE_PAGE * HUGE_PAGE;
    (first < last).then_some(first..last)
}

/// Advises the whole 2 MiB pages of `v`'s allocation for transparent
/// huge pages.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
fn advise_huge_pages<T>(v: &mut Vec<T>) {
    use std::ffi::{c_int, c_void};

    // The C library that `std` links on Linux provides `madvise`.
    unsafe extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;

    let bytes = v.capacity() * std::mem::size_of::<T>();
    let Some(range) = huge_page_interior(v.as_mut_ptr() as usize, bytes) else {
        return;
    };
    // SAFETY: `range` is 2 MiB-aligned, so page-aligned, and lies inside
    // the live allocation of `v`, which the caller owns and borrows
    // mutably here, so nothing else uses it. `MADV_HUGEPAGE` only changes
    // how the kernel backs those pages; it changes no contents. A failure
    // (no THP support) leaves base pages, so the result is ignored.
    unsafe {
        madvise(range.start as *mut c_void, range.len(), MADV_HUGEPAGE);
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages<T>(_v: &mut Vec<T>) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_covers_exactly_the_whole_huge_pages() {
        const H: usize = HUGE_PAGE;
        // Shorter than a huge page: no advice, aligned or not.
        assert_eq!(huge_page_interior(4 * H, H - 1), None);
        assert_eq!(huge_page_interior(4 * H + 16, H - 1), None);
        // Longer than a huge page but holding no whole aligned one.
        assert_eq!(huge_page_interior(H + 4096, H + 4096), None);
        // Unaligned: from the first boundary after the start to the last
        // one before the end.
        assert_eq!(huge_page_interior(5 * H + 16, 10 * H), Some(6 * H..15 * H));
        // Aligned: the whole range.
        assert_eq!(huge_page_interior(4 * H, 3 * H), Some(4 * H..7 * H));
    }
}
