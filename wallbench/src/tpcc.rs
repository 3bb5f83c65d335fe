//! The TPC-C workload: the paper's transaction mix under one `SpRwl` with
//! its default configuration, on the POWER8-like capacity profile.

use htm_sim::{CapacityProfile, Htm, HtmConfig, MemAccess, TxResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprwl::{SpRwl, SprwlConfig};
use sprwl_locks::{LockThread, RwSync, SectionId};
use sprwl_workloads::spec::TpccTxKind;
use sprwl_workloads::tpcc::{
    self, DeliveryInput, NewOrderInput, OrderStatusInput, PaymentInput, StockLevelInput, TpccDb,
    TpccScale,
};
use sprwl_workloads::Mix;

use crate::drive::{Outcome, Workload, CLIENTS};
use crate::span::{Probe, SpanKind};

/// Stock-Level scans the lines of 20 orders of at most 15 lines each, so it
/// can never count more low-stock items than this.
const MAX_LOW_STOCK: u64 = 20 * 15;

/// One warehouse per client, as in the paper.
pub fn scale() -> TpccScale {
    TpccScale::with_warehouses(CLIENTS as u32)
}

/// The runtime, the one lock and the populated tables.
pub struct TpccSystem {
    htm: Htm,
    lock: SpRwl,
    db: TpccDb,
}

impl TpccSystem {
    pub fn build() -> Self {
        let scale = scale();
        let htm = Htm::new(
            HtmConfig {
                max_threads: CLIENTS,
                capacity: CapacityProfile::POWER8_SIM,
                ..HtmConfig::default()
            },
            // The lock's own cells need a few lines per thread on top.
            scale.cells_needed() + 64 * CLIENTS * 8,
        );
        let lock = SpRwl::new(&htm, SprwlConfig::default());
        let db = TpccDb::new(htm.memory(), scale);
        Self { htm, lock, db }
    }
}

/// A transaction with its inputs, drawn before it runs so that every retry
/// replays the same inputs.
pub enum TpccOp {
    StockLevel(StockLevelInput),
    OrderStatus(OrderStatusInput),
    Payment(PaymentInput),
    NewOrder(NewOrderInput),
    Delivery(DeliveryInput),
}

pub struct TpccClient {
    rng: StdRng,
    scale: TpccScale,
    warehouse: u32,
    /// Entry and delivery timestamps: the client's op count.
    now: u64,
}

impl TpccClient {
    pub fn new(seed: u64, tid: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ ((tid as u64 + 1) << 24)),
            scale: scale(),
            warehouse: tid as u32,
            now: 0,
        }
    }
}

/// One section id per transaction profile, so the lock keeps a duration
/// estimate for each.
fn section(kind: TpccTxKind) -> SectionId {
    SectionId(match kind {
        TpccTxKind::StockLevel => 2,
        TpccTxKind::Delivery => 3,
        TpccTxKind::OrderStatus => 4,
        TpccTxKind::Payment => 5,
        TpccTxKind::NewOrder => 6,
    })
}

impl TpccSystem {
    fn section<P: Probe>(
        &self,
        t: &mut LockThread<'_>,
        kind: TpccTxKind,
        p: &mut P,
        mut f: impl FnMut(&mut dyn MemAccess) -> TxResult<u64>,
    ) -> u64 {
        let read = kind.is_read_only();
        let id = p.open(if read {
            SpanKind::ReadSection
        } else {
            SpanKind::WriteSection
        });
        let mut body = |a: &mut dyn MemAccess| p.body(SpanKind::Body, a, &mut f);
        let r = if read {
            self.lock.read_section(t, section(kind), &mut body)
        } else {
            self.lock.write_section(t, section(kind), &mut body)
        };
        p.close(id);
        r
    }
}

impl Workload for TpccSystem {
    type Client = TpccClient;
    type Op = TpccOp;

    fn htm(&self) -> &Htm {
        &self.htm
    }

    fn next_op(&self, c: &mut TpccClient) -> TpccOp {
        c.now += 1;
        let (rng, sc, w) = (&mut c.rng, &c.scale, c.warehouse);
        match Mix::PAPER.pick(rng.gen_range(0..100)) {
            TpccTxKind::StockLevel => TpccOp::StockLevel(tpcc::gen_stock_level(rng, sc, w)),
            TpccTxKind::OrderStatus => TpccOp::OrderStatus(tpcc::gen_order_status(rng, sc, w)),
            TpccTxKind::Payment => TpccOp::Payment(tpcc::gen_payment(rng, sc, w)),
            TpccTxKind::NewOrder => TpccOp::NewOrder(tpcc::gen_new_order(rng, sc, w, c.now)),
            TpccTxKind::Delivery => TpccOp::Delivery(tpcc::gen_delivery(rng, w, c.now)),
        }
    }

    fn run<P: Probe>(
        &self,
        t: &mut LockThread<'_>,
        c: &mut TpccClient,
        op: TpccOp,
        p: &mut P,
    ) -> Outcome {
        let db = &self.db;
        let (write, ok) = match op {
            TpccOp::StockLevel(inp) => {
                let low = self.section(t, TpccTxKind::StockLevel, p, |a| db.stock_level(a, &inp));
                (false, low <= MAX_LOW_STOCK)
            }
            TpccOp::OrderStatus(inp) => {
                self.section(t, TpccTxKind::OrderStatus, p, |a| db.order_status(a, &inp));
                (false, true)
            }
            TpccOp::Payment(inp) => {
                self.section(t, TpccTxKind::Payment, p, |a| db.payment(a, &inp));
                (true, true)
            }
            TpccOp::NewOrder(inp) => {
                let total = self.section(t, TpccTxKind::NewOrder, p, |a| db.new_order(a, &inp));
                // Every item costs at least $1.00, so only the spec's
                // rolled-back orders total zero.
                (true, (total == 0) == inp.rollback)
            }
            TpccOp::Delivery(inp) => {
                let delivered = self.section(t, TpccTxKind::Delivery, p, |a| db.delivery(a, &inp));
                (true, delivered <= u64::from(c.scale.districts))
            }
        };
        Outcome { write, ok }
    }

    fn verify(&self, _: &[TpccClient]) -> Result<(), String> {
        let mem = self.htm.memory();
        if !self.db.audit_ytd(mem) {
            return Err("TPC-C consistency: W_YTD != sum of D_YTD".into());
        }
        if !self.db.audit_order_queues(mem) {
            return Err("TPC-C consistency: a district delivered past its next order".into());
        }
        self.lock.check_quiescent(mem)
    }

    fn inject_fault(&self) {
        // A reader admission that is never withdrawn: the lock is left
        // non-quiescent.
        let d = self.htm.direct(0);
        let _leaked = self.lock.try_enter_read(&d, 0, self.htm.memory());
    }
}
