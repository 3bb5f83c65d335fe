//! TPC-C table layouts over simulated memory.
//!
//! Rows are fixed-width arrays of 64-bit fields, line-aligned so that
//! transactional footprints count one cache line per row touched — the
//! same granularity real HTM sees. Monetary amounts are in cents, tax
//! rates in basis points; strings (names, addresses) carry no behaviour
//! and are not materialized.

use htm_sim::{CellId, Region, SimMemory, CELLS_PER_LINE};

/// A fixed-width table: `rows × fields`, row stride rounded up to whole
/// cache lines.
#[derive(Debug)]
pub(crate) struct Table {
    region: Region,
    stride: u32,
    fields: u32,
    rows: u32,
}

impl Table {
    pub(crate) fn new(mem: &SimMemory, rows: u32, fields: u32) -> Self {
        let stride = Self::stride(fields);
        let region = mem.alloc_line_aligned(rows as usize * stride as usize);
        Self {
            region,
            stride,
            fields,
            rows,
        }
    }

    /// Cells a table of `rows × fields` needs, with a line of slack for
    /// alignment.
    pub(crate) fn cells_for(rows: u32, fields: u32) -> usize {
        rows as usize * Self::stride(fields) as usize + CELLS_PER_LINE as usize
    }

    /// A row's width in cells: `fields` rounded up to whole lines.
    fn stride(fields: u32) -> u32 {
        fields.div_ceil(CELLS_PER_LINE) * CELLS_PER_LINE
    }

    #[inline]
    pub(crate) fn cell(&self, row: u32, field: u32) -> CellId {
        debug_assert!(row < self.rows, "row {row} out of {}", self.rows);
        debug_assert!(field < self.fields, "field {field} out of {}", self.fields);
        self.region
            .cell(row as usize * self.stride as usize + field as usize)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn rows(&self) -> u32 {
        self.rows
    }
}

// ---- field indices ----

/// WAREHOUSE: year-to-date balance (cents).
pub(crate) const W_YTD: u32 = 0;
/// WAREHOUSE: tax rate (basis points).
pub(crate) const W_TAX: u32 = 1;
pub(crate) const W_FIELDS: u32 = 2;

/// DISTRICT: next order id to assign.
pub(crate) const D_NEXT_O_ID: u32 = 0;
/// DISTRICT: oldest undelivered order id (the NEW-ORDER queue head).
pub(crate) const D_NEXT_DELIV_O_ID: u32 = 1;
/// DISTRICT: year-to-date balance (cents).
pub(crate) const D_YTD: u32 = 2;
/// DISTRICT: tax rate (basis points).
pub(crate) const D_TAX: u32 = 3;
pub(crate) const D_FIELDS: u32 = 4;

/// CUSTOMER: balance, offset-encoded (`BALANCE_OFFSET` + cents) so credits
/// and debits stay in unsigned arithmetic.
pub(crate) const C_BALANCE: u32 = 0;
/// CUSTOMER: year-to-date payment total (cents).
pub(crate) const C_YTD_PAYMENT: u32 = 1;
/// CUSTOMER: number of payments.
pub(crate) const C_PAYMENT_CNT: u32 = 2;
/// CUSTOMER: number of deliveries.
pub(crate) const C_DELIVERY_CNT: u32 = 3;
/// CUSTOMER: discount (basis points).
pub(crate) const C_DISCOUNT: u32 = 4;
/// CUSTOMER: the customer's most recent order id (0 = none).
pub(crate) const C_LAST_ORDER: u32 = 5;
pub(crate) const C_FIELDS: u32 = 6;

/// Balance offset keeping customer balances unsigned.
pub(crate) const BALANCE_OFFSET: u64 = 1 << 40;

/// ITEM: price (cents).
pub(crate) const I_PRICE: u32 = 0;
/// ITEM: data signature (for the 1 % "unused/original" flag).
pub(crate) const I_DATA: u32 = 1;
pub(crate) const I_FIELDS: u32 = 2;

/// STOCK: quantity on hand.
pub(crate) const S_QUANTITY: u32 = 0;
/// STOCK: year-to-date quantity sold.
pub(crate) const S_YTD: u32 = 1;
/// STOCK: orders that touched this stock.
pub(crate) const S_ORDER_CNT: u32 = 2;
/// STOCK: remote orders that touched this stock.
pub(crate) const S_REMOTE_CNT: u32 = 3;
pub(crate) const S_FIELDS: u32 = 4;

/// ORDER: order id (to detect ring-slot reuse).
pub(crate) const O_ID: u32 = 0;
/// ORDER: ordering customer.
pub(crate) const O_C_ID: u32 = 1;
/// ORDER: carrier (0 = undelivered).
pub(crate) const O_CARRIER_ID: u32 = 2;
/// ORDER: number of order lines (5–15).
pub(crate) const O_OL_CNT: u32 = 3;
/// ORDER: entry timestamp.
pub(crate) const O_ENTRY_D: u32 = 4;
pub(crate) const O_FIELDS: u32 = 5;

/// ORDER-LINE: item id.
pub(crate) const OL_I_ID: u32 = 0;
/// ORDER-LINE: supplying warehouse.
pub(crate) const OL_SUPPLY_W_ID: u32 = 1;
/// ORDER-LINE: quantity.
pub(crate) const OL_QUANTITY: u32 = 2;
/// ORDER-LINE: amount (cents).
pub(crate) const OL_AMOUNT: u32 = 3;
/// ORDER-LINE: delivery timestamp (0 = undelivered).
pub(crate) const OL_DELIVERY_D: u32 = 4;
pub(crate) const OL_FIELDS: u32 = 5;

/// Maximum order lines per order (TPC-C: 15).
pub(crate) const MAX_OL: u32 = 15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_line_aligned_and_disjoint() {
        let mem = SimMemory::new(4096);
        let t = Table::new(&mem, 10, 5);
        assert_eq!(t.rows(), 10);
        let a = t.cell(0, 0);
        let b = t.cell(1, 0);
        assert_ne!(mem.line_of(a), mem.line_of(b), "rows share a line");
        assert_eq!(mem.line_of(t.cell(3, 0)), mem.line_of(t.cell(3, 4)));
    }

    #[test]
    fn wide_rows_span_multiple_lines() {
        let mem = SimMemory::new(4096);
        let t = Table::new(&mem, 4, 12); // 12 fields -> 2 lines stride
        assert_ne!(mem.line_of(t.cell(0, 0)), mem.line_of(t.cell(0, 11)));
        assert_ne!(mem.line_of(t.cell(0, 11)), mem.line_of(t.cell(1, 0)));
    }

    #[test]
    fn cells_for_matches_actual_allocation() {
        let mem = SimMemory::new(100_000);
        let before = mem.remaining();
        let _t = Table::new(&mem, 100, 5);
        let used = before - mem.remaining();
        assert!(used <= Table::cells_for(100, 5));
    }
}
