//! The five TPC-C transaction profiles, written once against
//! [`htm_sim::MemAccess`] so they run speculatively, uninstrumented or
//! under a pessimistic lock — whatever the enclosing `RwSync` scheme picks.

use htm_sim::{MemAccess, TxResult};

use super::input::{
    CustomerSelect, DeliveryInput, NewOrderInput, OrderStatusInput, PaymentInput, StockLevelInput,
};
use super::schema::*;
use super::TpccDb;

/// How many of a district's most recent orders Stock-Level scans.
const STOCK_LEVEL_ORDERS: u64 = 20;

/// Slots in Stock-Level's item set: a power of two at least twice the most
/// items one call can insert, so linear probes stay short.
const ITEM_SET_SLOTS: usize =
    (2 * STOCK_LEVEL_ORDERS as usize * MAX_OL as usize).next_power_of_two();

/// Stock-Level's "counted already?" set of item ids, on the stack: open
/// addressing with Fibonacci hashing and linear probing. Item ids start at
/// 1, so 0 marks an empty slot. It never fills: one call inserts at most
/// `STOCK_LEVEL_ORDERS * MAX_OL` items.
struct ItemSet([u32; ITEM_SET_SLOTS]);

impl ItemSet {
    fn new() -> Self {
        Self([0; ITEM_SET_SLOTS])
    }

    /// Adds `item` (at least 1); returns whether it was absent.
    #[inline]
    fn insert(&mut self, item: u32) -> bool {
        debug_assert_ne!(item, 0, "0 marks an empty slot");
        let mask = ITEM_SET_SLOTS - 1;
        let mut slot =
            (item.wrapping_mul(0x9E37_79B9) >> (32 - ITEM_SET_SLOTS.trailing_zeros())) as usize;
        loop {
            match self.0[slot] {
                0 => {
                    self.0[slot] = item;
                    return true;
                }
                held if held == item => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

impl TpccDb {
    /// Resolves a customer selection: direct id, or the spec's
    /// median-of-matches last-name rule via the immutable name index.
    fn resolve_customer(&self, w: u32, d: u32, select: CustomerSelect) -> Option<u32> {
        match select {
            CustomerSelect::ById(c) => Some(c),
            CustomerSelect::ByLastName(code) => self.customer_by_last_name(w, d, code),
        }
    }

    /// New-Order (update, ~45 reads + ~35 writes): assigns the next order
    /// id, inserts the order and its 5–15 lines, updates stock.
    ///
    /// Returns the order total in cents (0 for the spec's 1 % rollbacks,
    /// which are detected before any write and leave no trace).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn new_order(&self, a: &mut dyn MemAccess, inp: &NewOrderInput) -> TxResult<u64> {
        // The spec's invalid-item case aborts the transaction; validating
        // items first (reads only) lets the rollback leave no trace even
        // on the uninstrumented path.
        if inp.rollback {
            for l in &inp.lines {
                let _ = a.read(self.item.cell(l.item - 1, I_PRICE))?;
            }
            return Ok(0);
        }
        let w_tax = a.read(self.warehouse.cell(inp.w, W_TAX))?;
        let dr = self.d_row(inp.w, inp.d);
        let d_tax = a.read(self.district.cell(dr, D_TAX))?;
        let o_id = a.read(self.district.cell(dr, D_NEXT_O_ID))?;
        a.write(self.district.cell(dr, D_NEXT_O_ID), o_id + 1)?;

        let or = self.o_row(inp.w, inp.d, o_id);
        a.write(self.orders.cell(or, O_ID), o_id)?;
        a.write(self.orders.cell(or, O_C_ID), inp.c as u64)?;
        a.write(self.orders.cell(or, O_CARRIER_ID), 0)?;
        a.write(self.orders.cell(or, O_OL_CNT), inp.lines.len() as u64)?;
        a.write(self.orders.cell(or, O_ENTRY_D), inp.entry_d)?;

        let mut total = 0u64;
        for (idx, l) in inp.lines.iter().enumerate() {
            let price = a.read(self.item.cell(l.item - 1, I_PRICE))?;
            let s = self.s_row(l.supply_w, l.item);
            let qty = a.read(self.stock.cell(s, S_QUANTITY))?;
            let new_qty = if qty >= l.quantity as u64 + 10 {
                qty - l.quantity as u64
            } else {
                qty + 91 - l.quantity as u64
            };
            a.write(self.stock.cell(s, S_QUANTITY), new_qty)?;
            let ytd = a.read(self.stock.cell(s, S_YTD))?;
            a.write(self.stock.cell(s, S_YTD), ytd + l.quantity as u64)?;
            let cnt = a.read(self.stock.cell(s, S_ORDER_CNT))?;
            a.write(self.stock.cell(s, S_ORDER_CNT), cnt + 1)?;
            if l.supply_w != inp.w {
                let rc = a.read(self.stock.cell(s, S_REMOTE_CNT))?;
                a.write(self.stock.cell(s, S_REMOTE_CNT), rc + 1)?;
            }
            let amount = price * l.quantity as u64;
            total += amount;
            let olr = self.ol_row(or, idx as u32);
            a.write(self.order_lines.cell(olr, OL_I_ID), l.item as u64)?;
            a.write(
                self.order_lines.cell(olr, OL_SUPPLY_W_ID),
                l.supply_w as u64,
            )?;
            a.write(self.order_lines.cell(olr, OL_QUANTITY), l.quantity as u64)?;
            a.write(self.order_lines.cell(olr, OL_AMOUNT), amount)?;
            a.write(self.order_lines.cell(olr, OL_DELIVERY_D), 0)?;
        }

        let cr = self.c_row(inp.w, inp.d, inp.c);
        let discount = a.read(self.customer.cell(cr, C_DISCOUNT))?;
        a.write(self.customer.cell(cr, C_LAST_ORDER), o_id)?;
        // total × (1 + w_tax + d_tax) × (1 − discount), in basis points.
        let taxed = total * (10_000 + w_tax + d_tax) / 10_000;
        Ok(taxed * (10_000 - discount) / 10_000)
    }

    /// Payment (update, short): warehouse/district YTD, customer balance.
    /// Returns the customer's new balance (offset-encoded).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn payment(&self, a: &mut dyn MemAccess, inp: &PaymentInput) -> TxResult<u64> {
        let w_ytd = a.read(self.warehouse.cell(inp.w, W_YTD))?;
        a.write(self.warehouse.cell(inp.w, W_YTD), w_ytd + inp.amount)?;
        let dr = self.d_row(inp.w, inp.d);
        let d_ytd = a.read(self.district.cell(dr, D_YTD))?;
        a.write(self.district.cell(dr, D_YTD), d_ytd + inp.amount)?;

        let Some(c) = self.resolve_customer(inp.c_w, inp.c_d, inp.select) else {
            // No customer bears that last name in the district: the
            // payment applies only the warehouse/district legs (the spec
            // guarantees a match at full scale; at reduced scale we keep
            // YTD consistency and return 0).
            return Ok(0);
        };
        let cr = self.c_row(inp.c_w, inp.c_d, c);
        let bal = a.read(self.customer.cell(cr, C_BALANCE))?;
        let new_bal = bal - inp.amount;
        a.write(self.customer.cell(cr, C_BALANCE), new_bal)?;
        let ytd = a.read(self.customer.cell(cr, C_YTD_PAYMENT))?;
        a.write(self.customer.cell(cr, C_YTD_PAYMENT), ytd + inp.amount)?;
        let cnt = a.read(self.customer.cell(cr, C_PAYMENT_CNT))?;
        a.write(self.customer.cell(cr, C_PAYMENT_CNT), cnt + 1)?;
        Ok(new_bal)
    }

    /// Order-Status (read-only): the customer's balance plus their latest
    /// order's lines. Returns `balance + Σ line amounts` as a checksum.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn order_status(&self, a: &mut dyn MemAccess, inp: &OrderStatusInput) -> TxResult<u64> {
        let Some(c) = self.resolve_customer(inp.w, inp.d, inp.select) else {
            return Ok(0);
        };
        let cr = self.c_row(inp.w, inp.d, c);
        let bal = a.read(self.customer.cell(cr, C_BALANCE))?;
        let o_id = a.read(self.customer.cell(cr, C_LAST_ORDER))?;
        if o_id == 0 {
            return Ok(bal);
        }
        let or = self.o_row(inp.w, inp.d, o_id);
        if a.read(self.orders.cell(or, O_ID))? != o_id {
            // The ring slot was reclaimed by a newer order.
            return Ok(bal);
        }
        let n = a.read(self.orders.cell(or, O_OL_CNT))?;
        let mut sum = 0;
        for l in 0..n.min(MAX_OL as u64) as u32 {
            sum += a.read(self.order_lines.cell(self.ol_row(or, l), OL_AMOUNT))?;
        }
        Ok(bal + sum)
    }

    /// Delivery (update): delivers the oldest undelivered order of every
    /// district — sets the carrier, stamps the lines, credits the customer.
    /// Returns the number of orders delivered.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn delivery(&self, a: &mut dyn MemAccess, inp: &DeliveryInput) -> TxResult<u64> {
        let mut delivered = 0;
        for d in 0..self.scale.districts {
            let dr = self.d_row(inp.w, d);
            let next_deliv = a.read(self.district.cell(dr, D_NEXT_DELIV_O_ID))?;
            let next_o = a.read(self.district.cell(dr, D_NEXT_O_ID))?;
            if next_deliv >= next_o {
                continue; // no undelivered orders in this district
            }
            let or = self.o_row(inp.w, d, next_deliv);
            if a.read(self.orders.cell(or, O_ID))? != next_deliv {
                // Slot reclaimed before delivery caught up: skip past it.
                a.write(self.district.cell(dr, D_NEXT_DELIV_O_ID), next_deliv + 1)?;
                continue;
            }
            a.write(self.orders.cell(or, O_CARRIER_ID), inp.carrier as u64)?;
            let n = a.read(self.orders.cell(or, O_OL_CNT))?;
            let mut sum = 0;
            for l in 0..n.min(MAX_OL as u64) as u32 {
                let olr = self.ol_row(or, l);
                sum += a.read(self.order_lines.cell(olr, OL_AMOUNT))?;
                a.write(self.order_lines.cell(olr, OL_DELIVERY_D), inp.delivery_d)?;
            }
            let c = a.read(self.orders.cell(or, O_C_ID))? as u32;
            let cr = self.c_row(inp.w, d, c);
            let bal = a.read(self.customer.cell(cr, C_BALANCE))?;
            a.write(self.customer.cell(cr, C_BALANCE), bal + sum)?;
            let cnt = a.read(self.customer.cell(cr, C_DELIVERY_CNT))?;
            a.write(self.customer.cell(cr, C_DELIVERY_CNT), cnt + 1)?;
            a.write(self.district.cell(dr, D_NEXT_DELIV_O_ID), next_deliv + 1)?;
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Stock-Level (read-only, **long**): scans the last 20 orders of a
    /// district and counts distinct items whose stock is below the
    /// threshold. Its footprint — hundreds of cache lines — is exactly the
    /// kind of reader that overflows HTM capacity and motivates SpRWL.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn stock_level(&self, a: &mut dyn MemAccess, inp: &StockLevelInput) -> TxResult<u64> {
        let dr = self.d_row(inp.w, inp.d);
        let next_o = a.read(self.district.cell(dr, D_NEXT_O_ID))?;
        let first = next_o.saturating_sub(STOCK_LEVEL_ORDERS).max(1);
        let mut seen = ItemSet::new();
        let mut low = 0;
        for o_id in first..next_o {
            let or = self.o_row(inp.w, inp.d, o_id);
            if a.read(self.orders.cell(or, O_ID))? != o_id {
                continue; // reclaimed slot
            }
            let n = a.read(self.orders.cell(or, O_OL_CNT))?;
            for l in 0..n.min(MAX_OL as u64) as u32 {
                let item = a.read(self.order_lines.cell(self.ol_row(or, l), OL_I_ID))? as u32;
                if item == 0 || !seen.insert(item) {
                    continue;
                }
                let qty = a.read(self.stock.cell(self.s_row(inp.w, item), S_QUANTITY))?;
                if qty < inp.threshold {
                    low += 1;
                }
            }
        }
        Ok(low)
    }
}

#[cfg(test)]
mod tests {
    use super::super::input::*;
    use super::super::schema::*;
    use super::super::{TpccDb, TpccScale};
    #[allow(unused_imports)]
    use super::CustomerSelect as _;
    use htm_sim::{CapacityProfile, Htm, HtmConfig};
    use rand::{Rng, SeedableRng};

    fn setup(warehouses: u32) -> (Htm, TpccDb) {
        let scale = TpccScale::with_warehouses(warehouses);
        let htm = Htm::new(
            HtmConfig {
                max_threads: 8,
                capacity: CapacityProfile::UNBOUNDED,
                ..HtmConfig::default()
            },
            scale.cells_needed(),
        );
        let db = TpccDb::new(htm.memory(), scale);
        (htm, db)
    }

    #[test]
    fn loaded_database_is_consistent() {
        let (htm, db) = setup(2);
        assert!(db.audit_ytd(htm.memory()));
        assert!(db.audit_order_queues(htm.memory()));
    }

    #[test]
    fn payment_maintains_ytd_consistency() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let inp = gen_payment(&mut rng, db.scale(), 0);
            db.payment(&mut d, &inp).unwrap();
        }
        assert!(db.audit_ytd(htm.memory()));
    }

    #[test]
    fn new_order_assigns_sequential_ids_and_totals() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut totals = 0;
        for _ in 0..30 {
            let mut inp = gen_new_order(&mut rng, db.scale(), 0, 7);
            inp.rollback = false;
            totals += db.new_order(&mut d, &inp).unwrap();
        }
        assert!(totals > 0);
        assert!(db.audit_order_queues(htm.memory()));
    }

    #[test]
    fn rollback_new_orders_leave_no_trace() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let before: Vec<u64> = (0..db.scale().districts)
            .map(|dd| {
                htm.memory().peek(
                    db.district
                        .cell(db.d_row(0, dd), super::super::schema::D_NEXT_O_ID),
                )
            })
            .collect();
        let mut inp = gen_new_order(&mut rng, db.scale(), 0, 7);
        inp.rollback = true;
        assert_eq!(db.new_order(&mut d, &inp).unwrap(), 0);
        let after: Vec<u64> = (0..db.scale().districts)
            .map(|dd| {
                htm.memory().peek(
                    db.district
                        .cell(db.d_row(0, dd), super::super::schema::D_NEXT_O_ID),
                )
            })
            .collect();
        assert_eq!(before, after, "rolled-back order consumed an id");
    }

    #[test]
    fn payment_by_last_name_hits_the_median_match() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        // Find a code with at least one match in district 0.
        let code = (0..super::super::NAME_CODES)
            .find(|&code| db.customer_by_last_name(0, 0, code).is_some())
            .expect("some code must match");
        let c = db.customer_by_last_name(0, 0, code).unwrap();
        let inp = PaymentInput {
            w: 0,
            d: 0,
            c_w: 0,
            c_d: 0,
            select: CustomerSelect::ByLastName(code),
            amount: 1000,
        };
        let bal_before = htm.memory().peek(
            db.customer
                .cell(db.c_row(0, 0, c), super::super::schema::C_BALANCE),
        );
        db.payment(&mut d, &inp).unwrap();
        let bal_after = htm.memory().peek(
            db.customer
                .cell(db.c_row(0, 0, c), super::super::schema::C_BALANCE),
        );
        assert_eq!(bal_before - bal_after, 1000, "median match was debited");
        assert!(db.audit_ytd(htm.memory()));
    }

    #[test]
    fn name_index_is_consistent_with_codes() {
        let (_htm, db) = setup(1);
        for code in 0..super::super::NAME_CODES {
            if let Some(c) = db.customer_by_last_name(0, 3, code) {
                assert_eq!(db.last_name_code(c), code);
            }
        }
        // Every customer is reachable through their own code's list.
        for c in 1..=db.scale().customers_per_district {
            let code = db.last_name_code(c);
            assert!(
                db.customer_by_last_name(0, 0, code).is_some(),
                "customer {c}'s code {code} has no matches"
            );
        }
    }

    #[test]
    fn order_status_reads_the_last_order() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut inp = gen_new_order(&mut rng, db.scale(), 0, 7);
        inp.rollback = false;
        db.new_order(&mut d, &inp).unwrap();
        let os = OrderStatusInput {
            w: 0,
            d: inp.d,
            select: super::super::input::CustomerSelect::ById(inp.c),
        };
        let checksum = db.order_status(&mut d, &os).unwrap();
        assert!(checksum > 0);
    }

    #[test]
    fn delivery_credits_customers_and_advances_the_queue() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Create undelivered orders in every district.
        for dd in 0..db.scale().districts {
            let mut inp = gen_new_order(&mut rng, db.scale(), 0, 7);
            inp.d = dd;
            inp.rollback = false;
            db.new_order(&mut d, &inp).unwrap();
        }
        let delivered = db.delivery(&mut d, &gen_delivery(&mut rng, 0, 8)).unwrap();
        assert_eq!(delivered, db.scale().districts as u64);
        // A second delivery finds nothing new.
        let again = db.delivery(&mut d, &gen_delivery(&mut rng, 0, 9)).unwrap();
        assert_eq!(again, 0);
        assert!(db.audit_order_queues(htm.memory()));
    }

    #[test]
    fn stock_level_counts_low_stock_items() {
        let (htm, db) = setup(1);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let inp = gen_stock_level(&mut rng, db.scale(), 0);
        let low = db.stock_level(&mut d, &inp).unwrap();
        // The loader seeds quantities in 10..=100 and thresholds are
        // 10..=20, so the count is bounded by the distinct items scanned.
        assert!(low <= 20 * super::super::schema::MAX_OL as u64);
        let _ = htm;
    }

    #[test]
    fn item_set_answers_like_a_hash_set() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for max_item in [8, 300, 1024, u32::MAX] {
            let mut set = super::ItemSet::new();
            let mut reference = std::collections::HashSet::new();
            // As many inserts as one Stock-Level call can make.
            for _ in 0..super::STOCK_LEVEL_ORDERS * MAX_OL as u64 {
                let item = rng.gen_range(1..=max_item);
                assert_eq!(set.insert(item), reference.insert(item), "item {item}");
            }
        }
    }

    /// Reads through `Direct`, recording every cell; Stock-Level never
    /// writes.
    struct Recording<'h> {
        direct: htm_sim::Direct<'h>,
        reads: Vec<htm_sim::CellId>,
    }

    impl htm_sim::MemAccess for Recording<'_> {
        fn read(&mut self, cell: htm_sim::CellId) -> htm_sim::TxResult<u64> {
            self.reads.push(cell);
            Ok(self.direct.load(cell))
        }

        fn write(&mut self, cell: htm_sim::CellId, _: u64) -> htm_sim::TxResult<()> {
            panic!("Stock-Level wrote {cell:?}")
        }

        fn mode(&self) -> htm_sim::AccessMode {
            htm_sim::AccessMode::Untracked
        }
    }

    /// Stock-Level's body as it was with a `Vec` for its distinct items,
    /// plus a count of the repeated items it skipped.
    fn stock_level_by_vec_scan(
        db: &TpccDb,
        a: &mut dyn htm_sim::MemAccess,
        inp: &StockLevelInput,
    ) -> (u64, usize) {
        let dr = db.d_row(inp.w, inp.d);
        let next_o = a.read(db.district.cell(dr, D_NEXT_O_ID)).unwrap();
        let first = next_o.saturating_sub(20).max(1);
        let mut seen: Vec<u32> = Vec::new();
        let (mut low, mut repeats) = (0, 0);
        for o_id in first..next_o {
            let or = db.o_row(inp.w, inp.d, o_id);
            if a.read(db.orders.cell(or, O_ID)).unwrap() != o_id {
                continue;
            }
            let n = a.read(db.orders.cell(or, O_OL_CNT)).unwrap();
            for l in 0..n.min(MAX_OL as u64) as u32 {
                let cell = db.order_lines.cell(db.ol_row(or, l), OL_I_ID);
                let item = a.read(cell).unwrap() as u32;
                if item == 0 || seen.contains(&item) {
                    repeats += usize::from(item != 0);
                    continue;
                }
                seen.push(item);
                let qty = a.read(db.stock.cell(db.s_row(inp.w, item), S_QUANTITY));
                if qty.unwrap() < inp.threshold {
                    low += 1;
                }
            }
        }
        (low, repeats)
    }

    #[test]
    fn stock_level_reads_and_counts_exactly_as_the_vec_scan() {
        let (htm, db) = setup(2);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let record = || Recording {
            direct: htm.direct(0),
            reads: Vec::new(),
        };
        let (mut read_diffs, mut count_diffs, mut repeats) = (0, 0, 0);
        let calls = 300;
        for round in 0..calls {
            // Ten New-Orders and one Delivery between scans: 3000 orders
            // over 20 districts wrap every 64-order ring at least twice.
            for _ in 0..10 {
                let w = rng.gen_range(0..2);
                let inp = gen_new_order(&mut rng, db.scale(), w, round);
                db.new_order(&mut d, &inp).unwrap();
            }
            let w = (round % 2) as u32;
            db.delivery(&mut d, &gen_delivery(&mut rng, w, round))
                .unwrap();
            let inp = gen_stock_level(&mut rng, db.scale(), w);
            let (mut got, mut want) = (record(), record());
            let low = db.stock_level(&mut got, &inp).unwrap();
            let (want_low, skipped) = stock_level_by_vec_scan(&db, &mut want, &inp);
            read_diffs += usize::from(got.reads != want.reads);
            count_diffs += usize::from(low != want_low);
            repeats += skipped;
        }
        assert_eq!(
            (read_diffs, count_diffs),
            (0, 0),
            "calls of {calls} whose (read sequence, count) differ from the Vec scan"
        );
        // Not vacuous: items repeated within 20 orders, and every ring
        // wrapped.
        assert!(repeats > calls as usize, "only {repeats} repeated items");
        for dr in 0..2 * db.scale().districts {
            let next_o = htm.memory().peek(db.district.cell(dr, D_NEXT_O_ID));
            assert!(
                next_o > 2 * db.scale().order_ring as u64,
                "district row {dr}"
            );
        }
    }

    #[test]
    fn stock_level_footprint_exceeds_htm_capacity() {
        // The motivating property: Stock-Level overflows both simulated
        // capacity profiles when run as a hardware transaction.
        let scale = TpccScale::with_warehouses(1);
        let htm = Htm::new(
            HtmConfig {
                max_threads: 2,
                capacity: CapacityProfile::POWER8_SIM,
                ..HtmConfig::default()
            },
            scale.cells_needed(),
        );
        let db = TpccDb::new(htm.memory(), scale);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let inp = gen_stock_level(&mut rng, db.scale(), 0);
        let mut ctx = htm.thread(0);
        let err = ctx
            .txn(htm_sim::TxKind::Htm, |tx| db.stock_level(tx, &inp))
            .unwrap_err();
        assert_eq!(err, htm_sim::Abort::CapacityRead);
    }

    #[test]
    fn mixed_workload_preserves_invariants() {
        let (htm, db) = setup(2);
        let mut d = htm.direct(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        use sprwl_workloads_mix_shim::*;
        run_mix(&htm, &db, &mut d, &mut rng, 300);
        assert!(db.audit_ytd(htm.memory()));
        assert!(db.audit_order_queues(htm.memory()));
    }

    /// Local helper emulating the harness's transaction dispatch.
    mod sprwl_workloads_mix_shim {
        use super::super::super::{input::*, TpccDb};
        use crate::spec::{Mix, TpccTxKind};
        use htm_sim::Htm;
        use rand::Rng;

        pub fn run_mix(
            htm: &Htm,
            db: &TpccDb,
            d: &mut htm_sim::Direct<'_>,
            rng: &mut impl Rng,
            ops: usize,
        ) {
            let _ = htm;
            for _ in 0..ops {
                let w = rng.gen_range(0..db.scale().warehouses);
                match Mix::PAPER.pick(rng.gen_range(0..100)) {
                    TpccTxKind::StockLevel => {
                        let i = gen_stock_level(rng, db.scale(), w);
                        db.stock_level(d, &i).unwrap();
                    }
                    TpccTxKind::Delivery => {
                        let i = gen_delivery(rng, w, 1);
                        db.delivery(d, &i).unwrap();
                    }
                    TpccTxKind::OrderStatus => {
                        let i = gen_order_status(rng, db.scale(), w);
                        db.order_status(d, &i).unwrap();
                    }
                    TpccTxKind::Payment => {
                        let i = gen_payment(rng, db.scale(), w);
                        db.payment(d, &i).unwrap();
                    }
                    TpccTxKind::NewOrder => {
                        let i = gen_new_order(rng, db.scale(), w, 1);
                        db.new_order(d, &i).unwrap();
                    }
                }
            }
        }
    }
}
