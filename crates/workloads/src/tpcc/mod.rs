//! An in-memory TPC-C port over simulated memory (§4.2 of the paper).
//!
//! All nine logical tables are materialized as fixed-width field arrays
//! (the `schema` module); ORDER / ORDER-LINE live in per-district ring buffers and
//! the NEW-ORDER queue is the `[D_NEXT_DELIV_O_ID, D_NEXT_O_ID)` window of
//! each district — behaviourally the per-district FIFO the spec describes.
//! HISTORY rows carry no behaviour and are folded into running counters.
//!
//! As in the paper, the whole database is protected by **one read-write
//! lock**: Stock-Level and Order-Status run as read critical sections,
//! New-Order / Payment / Delivery as write critical sections. Stock-Level
//! scans 20 orders' lines plus their stock rows — the long read-only
//! transaction whose HTM-capacity overflow motivates SpRWL.

pub mod input;
mod schema;
mod txns;

use htm_sim::SimMemory;

use schema::*;

pub use input::{
    gen_delivery, gen_new_order, gen_order_status, gen_payment, gen_stock_level, CustomerSelect,
    DeliveryInput, NewOrderInput, OrderLineInput, OrderStatusInput, PaymentInput, StockLevelInput,
};

/// Scaled-down TPC-C population parameters.
///
/// The spec's 100 k items / 3 k customers per district are scaled by the
/// same ×~128 factor as the capacity profiles, preserving which
/// transactions fit in HTM (Payment, New-Order) and which overflow
/// (Stock-Level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccScale {
    /// Warehouses (the paper sets this to the maximum thread count).
    pub warehouses: u32,
    /// Districts per warehouse (spec: 10).
    pub districts: u32,
    /// Customers per district (spec: 3000; scaled).
    pub customers_per_district: u32,
    /// Catalogue items (spec: 100 000; scaled).
    pub items: u32,
    /// Order-ring capacity per district (old orders are reclaimed).
    pub order_ring: u32,
    /// Orders pre-loaded per district (delivered; seeds Stock-Level scans).
    pub initial_orders: u32,
}

impl Default for TpccScale {
    fn default() -> Self {
        Self {
            warehouses: 1,
            districts: 10,
            customers_per_district: 96,
            items: 1024,
            order_ring: 64,
            initial_orders: 30,
        }
    }
}

impl TpccScale {
    /// A scale with the given warehouse count and defaults elsewhere.
    pub fn with_warehouses(warehouses: u32) -> Self {
        Self {
            warehouses,
            ..Self::default()
        }
    }

    /// Simulated-memory cells a database of this scale needs.
    pub fn cells_needed(&self) -> usize {
        let w = self.warehouses;
        let wd = w * self.districts;
        Table::cells_for(w, W_FIELDS)
            + Table::cells_for(wd, D_FIELDS)
            + Table::cells_for(wd * self.customers_per_district, C_FIELDS)
            + Table::cells_for(self.items, I_FIELDS)
            + Table::cells_for(w * self.items, S_FIELDS)
            + Table::cells_for(wd * self.order_ring, O_FIELDS)
            + Table::cells_for(wd * self.order_ring * MAX_OL, OL_FIELDS)
            + 4096
    }
}

/// Number of distinct last-name codes (the spec's 1000-value last-name
/// space collapsed to its selectivity-relevant cardinality at our scale).
pub const NAME_CODES: u32 = 100;

/// The TPC-C database.
#[derive(Debug)]
pub struct TpccDb {
    scale: TpccScale,
    warehouse: Table,
    district: Table,
    customer: Table,
    item: Table,
    stock: Table,
    orders: Table,
    order_lines: Table,
    /// Immutable secondary index: customers of each district grouped by
    /// last-name code, sorted by id — names never change in TPC-C, so the
    /// index lives outside the transactional domain, like a precompiled
    /// index structure.
    name_index: Vec<Vec<u32>>,
}

impl TpccDb {
    /// Allocates and populates a database (single-threaded setup).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate scale or if the simulated memory is
    /// exhausted.
    pub fn new(mem: &SimMemory, scale: TpccScale) -> Self {
        assert!(scale.warehouses >= 1 && scale.districts >= 1);
        assert!(scale.initial_orders <= scale.order_ring);
        let wd = scale.warehouses * scale.districts;
        let mut db = Self {
            warehouse: Table::new(mem, scale.warehouses, W_FIELDS),
            district: Table::new(mem, wd, D_FIELDS),
            customer: Table::new(mem, wd * scale.customers_per_district, C_FIELDS),
            item: Table::new(mem, scale.items, I_FIELDS),
            stock: Table::new(mem, scale.warehouses * scale.items, S_FIELDS),
            orders: Table::new(mem, wd * scale.order_ring, O_FIELDS),
            order_lines: Table::new(mem, wd * scale.order_ring * MAX_OL, OL_FIELDS),
            name_index: Vec::new(),
            scale,
        };
        db.load(mem);
        db.build_name_index();
        db
    }

    /// Deterministic last-name code of a customer (immutable attribute).
    pub fn last_name_code(&self, c: u32) -> u32 {
        // A multiplicative scramble so codes are spread, deterministic and
        // independent of district.
        (c.wrapping_mul(2654435761)) % NAME_CODES
    }

    fn build_name_index(&mut self) {
        let wd = self.scale.warehouses * self.scale.districts;
        let mut index = vec![Vec::new(); (wd * NAME_CODES) as usize];
        for dr in 0..wd {
            for c in 1..=self.scale.customers_per_district {
                let code = self.last_name_code(c);
                index[(dr * NAME_CODES + code) as usize].push(c);
            }
        }
        self.name_index = index;
    }

    /// The spec's select-by-last-name rule: take the customer at position
    /// ⌈n/2⌉ (median) of the name-sorted match list; `None` when no
    /// customer of that district bears the name.
    pub fn customer_by_last_name(&self, w: u32, d: u32, code: u32) -> Option<u32> {
        let matches =
            &self.name_index[(self.d_row(w, d) * NAME_CODES + code % NAME_CODES) as usize];
        if matches.is_empty() {
            None
        } else {
            Some(matches[matches.len() / 2])
        }
    }

    /// The scale this database was built with.
    pub fn scale(&self) -> &TpccScale {
        &self.scale
    }

    // ---- row indexing ----

    pub(crate) fn d_row(&self, w: u32, d: u32) -> u32 {
        debug_assert!(w < self.scale.warehouses && d < self.scale.districts);
        w * self.scale.districts + d
    }

    pub(crate) fn c_row(&self, w: u32, d: u32, c: u32) -> u32 {
        debug_assert!((1..=self.scale.customers_per_district).contains(&c));
        self.d_row(w, d) * self.scale.customers_per_district + (c - 1)
    }

    pub(crate) fn s_row(&self, w: u32, i: u32) -> u32 {
        debug_assert!((1..=self.scale.items).contains(&i));
        w * self.scale.items + (i - 1)
    }

    /// Ring slot of order `o_id` in district `(w, d)`.
    pub(crate) fn o_row(&self, w: u32, d: u32, o_id: u64) -> u32 {
        self.d_row(w, d) * self.scale.order_ring + (o_id % self.scale.order_ring as u64) as u32
    }

    pub(crate) fn ol_row(&self, o_row: u32, line: u32) -> u32 {
        debug_assert!(line < MAX_OL);
        o_row * MAX_OL + line
    }

    // ---- population (TPC-C clause 4.3, scaled) ----

    fn load(&self, mem: &SimMemory) {
        let sc = &self.scale;
        let mut seed = 0x7C0F_FEE5u64;
        let mut rnd = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for i in 1..=sc.items {
            self.item
                .cell(i - 1, I_PRICE)
                .pipe(|c| mem.init_store(c, 100 + rnd(9901))); // $1.00–$100.00
            self.item
                .cell(i - 1, I_DATA)
                .pipe(|c| mem.init_store(c, rnd(10_000)));
        }
        for w in 0..sc.warehouses {
            mem.init_store(self.warehouse.cell(w, W_YTD), 0);
            mem.init_store(self.warehouse.cell(w, W_TAX), rnd(2001)); // 0–20.00 %
            for i in 1..=sc.items {
                let s = self.s_row(w, i);
                mem.init_store(self.stock.cell(s, S_QUANTITY), 10 + rnd(91));
                mem.init_store(self.stock.cell(s, S_YTD), 0);
                mem.init_store(self.stock.cell(s, S_ORDER_CNT), 0);
                mem.init_store(self.stock.cell(s, S_REMOTE_CNT), 0);
            }
            for d in 0..sc.districts {
                let dr = self.d_row(w, d);
                mem.init_store(self.district.cell(dr, D_YTD), 0);
                mem.init_store(self.district.cell(dr, D_TAX), rnd(2001));
                for c in 1..=sc.customers_per_district {
                    let cr = self.c_row(w, d, c);
                    mem.init_store(self.customer.cell(cr, C_BALANCE), BALANCE_OFFSET);
                    mem.init_store(self.customer.cell(cr, C_YTD_PAYMENT), 0);
                    mem.init_store(self.customer.cell(cr, C_PAYMENT_CNT), 0);
                    mem.init_store(self.customer.cell(cr, C_DELIVERY_CNT), 0);
                    mem.init_store(self.customer.cell(cr, C_DISCOUNT), rnd(5001)); // 0–50 %
                    mem.init_store(self.customer.cell(cr, C_LAST_ORDER), 0);
                }
                // Seed delivered orders so Stock-Level has lines to scan.
                for o_id in 1..=sc.initial_orders as u64 {
                    let or = self.o_row(w, d, o_id);
                    let n_lines = 5 + rnd(11) as u32;
                    let c_id = 1 + rnd(sc.customers_per_district as u64);
                    mem.init_store(self.orders.cell(or, O_ID), o_id);
                    mem.init_store(self.orders.cell(or, O_C_ID), c_id);
                    mem.init_store(self.orders.cell(or, O_CARRIER_ID), 1 + rnd(10));
                    mem.init_store(self.orders.cell(or, O_OL_CNT), n_lines as u64);
                    mem.init_store(self.orders.cell(or, O_ENTRY_D), 0);
                    for l in 0..n_lines {
                        let olr = self.ol_row(or, l);
                        mem.init_store(
                            self.order_lines.cell(olr, OL_I_ID),
                            1 + rnd(sc.items as u64),
                        );
                        mem.init_store(self.order_lines.cell(olr, OL_SUPPLY_W_ID), w as u64);
                        mem.init_store(self.order_lines.cell(olr, OL_QUANTITY), 1 + rnd(10));
                        mem.init_store(self.order_lines.cell(olr, OL_AMOUNT), rnd(10_000));
                        mem.init_store(self.order_lines.cell(olr, OL_DELIVERY_D), 1);
                    }
                    mem.init_store(
                        self.customer
                            .cell(self.c_row(w, d, c_id as u32), C_LAST_ORDER),
                        o_id,
                    );
                }
                mem.init_store(
                    self.district.cell(dr, D_NEXT_O_ID),
                    sc.initial_orders as u64 + 1,
                );
                mem.init_store(
                    self.district.cell(dr, D_NEXT_DELIV_O_ID),
                    sc.initial_orders as u64 + 1,
                );
            }
        }
    }

    // ---- consistency probes (TPC-C clause 3.3, used by tests) ----

    /// Consistency condition 1: `W_YTD == Σ D_YTD` for every warehouse.
    pub fn audit_ytd(&self, mem: &SimMemory) -> bool {
        (0..self.scale.warehouses).all(|w| {
            let w_ytd = mem.peek(self.warehouse.cell(w, W_YTD));
            let d_sum: u64 = (0..self.scale.districts)
                .map(|d| mem.peek(self.district.cell(self.d_row(w, d), D_YTD)))
                .sum();
            w_ytd == d_sum
        })
    }

    /// Consistency condition 2-ish: `D_NEXT_DELIV_O_ID <= D_NEXT_O_ID`.
    pub fn audit_order_queues(&self, mem: &SimMemory) -> bool {
        (0..self.scale.warehouses).all(|w| {
            (0..self.scale.districts).all(|d| {
                let dr = self.d_row(w, d);
                mem.peek(self.district.cell(dr, D_NEXT_DELIV_O_ID))
                    <= mem.peek(self.district.cell(dr, D_NEXT_O_ID))
            })
        })
    }
}

/// Tiny pipe helper for the loader.
trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}

impl<T> Pipe for T {}
