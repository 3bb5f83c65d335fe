//! The reader admission/tracking table — every structure writers consult
//! to detect active readers, behind one abstraction.
//!
//! Historically the lock object owned three loose pieces (the per-thread
//! `state` flag array, the optional SNZI, the adaptive mode word) and the
//! read/write paths dispatched on [`ReaderTracking`] inline. This module
//! gathers them into [`ReaderTable`] and adds the fourth tracking scheme,
//! **BRAVO-style biased admission** (Dice & Kogan, arXiv 1810.01553),
//! composed with the SNZI as its revocation backstop:
//!
//! * While **bias is armed** (`BIAS_ON`), an arriving reader publishes
//!   itself with a *single CAS* into a hashed visible-readers table —
//!   one padded cache line, no SNZI tree walk, no shared counter — and
//!   re-checks the bias word. O(1) arrival regardless of thread count.
//! * A **writer** must observe `BIAS_OFF` *inside its transaction* to
//!   commit. When bias is armed it first **revokes**: CAS the bias word
//!   `ON → REVOKING` (untracked, outside the transaction), wait for every
//!   occupied visible slot to drain, then publish `OFF`. The drain cost is
//!   proportional to *active* readers (occupied slots), not registered
//!   threads; the commit-time read-set is two lines (bias word + SNZI
//!   root) instead of one per registered thread.
//! * With **bias off**, readers fall back to the SNZI; after a cooldown
//!   they may re-arm bias with a CAS, whose untracked store dooms any
//!   subscribed in-flight writer — the same strong-isolation argument that
//!   makes the uninstrumented readers safe in the first place.
//!
//! ## Soundness of the three-state bias word
//!
//! SpRWL has no writer mutual exclusion on the speculative path, so a
//! plain on/off bias bit would be unsound: a writer could read `off`
//! in-transaction and commit while a bias-era reader (visible-table only,
//! not in the SNZI) is still inside its critical section. The `REVOKING`
//! state closes that window — `OFF` is only ever published by a revoker
//! that has *finished draining* the visible table, so "bias read `OFF`
//! inside the transaction" implies "no bias-era reader is active", and the
//! SNZI query covers everyone else. A reader whose publish CAS races the
//! revocation re-checks the bias word (SeqCst total order: it either sees
//! `ON`, in which case the revoker's later drain scan waits on its slot,
//! or sees the transition and withdraws to the SNZI).
//!
//! Per-thread state flags are still maintained in **every** mode: the
//! scheduling scans (`readers_wait`, `writer_wait`) peek them outside
//! transactions, and they keep the adaptive drain protocol sound.

use htm_sim::{clock, CellId, Direct, SimMemory, Tx, TxResult};
use snzi::Snzi;
use sprwl_locks::ABORT_READER;

use crate::adaptive::{ReaderReg, MODE_SNZI, MODE_TRANS_TO_SNZI};
use crate::config::ReaderTracking;
use crate::lock::{Slot, STATE_EMPTY, STATE_READER};

/// Bias word values (Bravo tracking only).
pub(crate) const BIAS_OFF: u64 = 0;
pub(crate) const BIAS_ON: u64 = 1;
pub(crate) const BIAS_REVOKING: u64 = 2;

/// Base re-arm cooldown after a revocation, ns. Short enough that
/// read-dominated phases re-bias quickly; long enough that a writer burst
/// revokes once, not per writer.
pub(crate) const BIAS_REARM_COOLDOWN_NS: u64 = 200_000;

/// Ceiling for the adaptive re-arm cooldown, ns (see [`ReaderTable::revoke_bias`]).
pub(crate) const BIAS_REARM_COOLDOWN_MAX_NS: u64 = 20_000_000;

/// Geometric growth factor of the re-arm cooldown while armed phases keep
/// dying young.
const BIAS_BACKOFF_FACTOR: u64 = 4;

/// An armed phase that survived at least this long (ns) before a writer
/// tore it down served a genuine read-dominated stretch: the next
/// revocation starts over from the base cooldown. Shorter-lived phases
/// mean writer traffic is steady and re-arming was wasted work — the
/// cooldown multiplies by [`BIAS_BACKOFF_FACTOR`].
const BIAS_ARMED_WORTH_NS: u64 = 1_000_000;

/// Visible-readers table slots per registered thread (then rounded up to a
/// power of two). Oversizing keeps hash collisions — which demote a reader
/// to the SNZI path — rare.
const VISIBLE_SLOTS_PER_THREAD: usize = 4;

/// Every reader-tracking structure writers consult, plus the per-thread
/// state flags the scheduling scans peek.
#[derive(Debug)]
pub(crate) struct ReaderTable {
    pub(crate) n: usize,
    pub(crate) tracking: ReaderTracking,
    /// Per-thread state flags (⊥/READER/WRITER), each on its own simulated
    /// cache line so writers' commit-time scans conflict only with the
    /// owner's announcements.
    pub(crate) state: Vec<CellId>,
    /// SNZI: sole tracking in `Snzi` mode, switch target in `Adaptive`,
    /// revocation backstop in `Bravo`.
    pub(crate) snzi: Option<Snzi>,
    /// Adaptive tracking: the mode word, in simulated memory so writers
    /// subscribe to it. `None` for non-adaptive tracking.
    pub(crate) mode_cell: Option<CellId>,
    /// Bravo: the cell holding the three-state bias word — the SNZI
    /// root, whose client-tag bits carry the bias so writers subscribe to
    /// bias and backstop count in a single line.
    bias_cell: Option<CellId>,
    /// Bravo: the hashed visible-readers table, one padded line per slot.
    /// A slot holds `tid + 1`, or 0 when free.
    visible: Vec<CellId>,
    /// Earliest instant (ns) readers may re-arm bias after a revocation.
    rearm_at: Slot,
    /// The adaptive re-arm cooldown currently in force, ns: multiplies by
    /// [`BIAS_BACKOFF_FACTOR`] whenever an armed phase dies younger than
    /// [`BIAS_ARMED_WORTH_NS`] (up to [`BIAS_REARM_COOLDOWN_MAX_NS`]),
    /// resets to the base when one survives — see [`Self::revoke_bias`].
    rearm_cooldown_ns: Slot,
    /// Instant (ns) a reader last re-armed the bias.
    rearmed_at: Slot,
}

impl ReaderTable {
    /// Allocates the tracking structures for `n` threads in `mem`.
    pub(crate) fn new(mem: &SimMemory, n: usize, tracking: ReaderTracking) -> Self {
        let snzi = match tracking {
            ReaderTracking::Flags => None,
            ReaderTracking::Snzi | ReaderTracking::Adaptive | ReaderTracking::Bravo => {
                Some(Snzi::new(mem, n))
            }
        };
        let mode_cell = match tracking {
            ReaderTracking::Adaptive => Some(mem.alloc_line_aligned(1).cell(0)),
            _ => None,
        };
        let (bias_cell, visible) = match tracking {
            ReaderTracking::Bravo => {
                // The bias word lives in the SNZI root's client-tag bits
                // (see crate `snzi`): the writer's commit-time check —
                // "bias verifiably OFF and no backstop readers" — is then
                // one subscribed line and one compare against zero, the
                // same footprint as plain SNZI tracking.
                let cell = snzi.as_ref().expect("bravo snzi backstop").root_cell();
                mem.init_store(cell, BIAS_ON << snzi::ROOT_TAG_SHIFT);
                let slots = (n.max(1) * VISIBLE_SLOTS_PER_THREAD).next_power_of_two();
                (Some(cell), mem.alloc_padded(slots))
            }
            _ => (None, Vec::new()),
        };
        Self {
            n,
            tracking,
            state: mem.alloc_padded(n),
            snzi,
            mode_cell,
            bias_cell,
            visible,
            rearm_at: Slot::new(0),
            rearm_cooldown_ns: Slot::new(BIAS_REARM_COOLDOWN_NS),
            rearmed_at: Slot::new(0),
        }
    }

    /// The visible-table slot thread `tid` hashes to (Fibonacci hashing —
    /// the table length is a power of two).
    #[inline]
    fn vslot_of(&self, tid: usize) -> usize {
        ((tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.visible.len() - 1)
    }

    /// The adaptive mode word (callers guarantee adaptive tracking).
    pub(crate) fn mode(&self, mem: &SimMemory) -> u64 {
        match self.mode_cell {
            Some(cell) => mem.peek(cell),
            None => unreachable!("mode() is only called in adaptive tracking"),
        }
    }

    /// Untracked peek of the Bravo bias word (callers guarantee Bravo).
    pub(crate) fn bias_state(&self, mem: &SimMemory) -> u64 {
        snzi::root_tag(mem.peek(self.bias_cell.expect("bravo tracking")))
    }

    /// Announces thread `tid` as an active reader. The untracked store to
    /// the state line (and/or the SNZI root / bias word, depending on
    /// mode) is what dooms in-flight writers that already passed their
    /// reader check — the paper's strong-isolation argument.
    pub(crate) fn arrive(&self, d: &Direct<'_>, tid: usize) -> ReaderReg {
        // The state flag is always maintained: the scheduling scans (which
        // run outside transactions) use it to find reader end times, and it
        // keeps a flags scan correct in every tracking mode — the key to
        // sound adaptive switching.
        //
        // Ordering matters in adaptive mode: the flag is stored *before*
        // the mode is sampled. In the SeqCst total order, either this store
        // precedes the transition controller's drain scan (which then waits
        // for us), or our mode sample follows its mode CAS (and we register
        // in the SNZI too). Sampling first would open a window where a
        // reader is visible in neither structure the writers check.
        d.store(self.state[tid], STATE_READER);
        match self.tracking {
            ReaderTracking::Flags => ReaderReg::flags(),
            ReaderTracking::Snzi => {
                self.snzi.as_ref().expect("snzi tracking").arrive(d, tid);
                ReaderReg::snzi()
            }
            ReaderTracking::Adaptive => {
                let mode = self.mode(d.htm().memory());
                if mode == MODE_SNZI || mode == MODE_TRANS_TO_SNZI {
                    self.snzi.as_ref().expect("snzi tracking").arrive(d, tid);
                    ReaderReg::snzi()
                } else {
                    ReaderReg::flags()
                }
            }
            ReaderTracking::Bravo => self.arrive_bravo(d, tid),
        }
    }

    /// Bravo arrival: single-CAS publish while bias is armed, SNZI
    /// backstop otherwise (with an opportunistic re-arm after cooldown).
    fn arrive_bravo(&self, d: &Direct<'_>, tid: usize) -> ReaderReg {
        let mem = d.htm().memory();
        let bias = self.bias_cell.expect("bravo tracking");
        let mut rearmed = false;
        let word = mem.peek(bias);
        let mut bias_on = snzi::root_tag(word) == BIAS_ON;
        if !bias_on
            && snzi::root_tag(word) == BIAS_OFF
            && clock::now() >= self.rearm_at.load()
            && d.compare_exchange(bias, word, snzi::with_root_tag(word, BIAS_ON))
                .is_ok()
        {
            // Re-armed: the untracked store dooms subscribed in-flight
            // writers, so none can commit against our fast-path publish.
            // (Opportunistic single-shot CAS: losing to concurrent backstop
            // count traffic just means no re-arm this arrival.)
            self.rearmed_at.store(clock::now());
            rearmed = true;
            bias_on = true;
        }
        if bias_on {
            let slot = self.vslot_of(tid);
            if d.compare_exchange(self.visible[slot], 0, tid as u64 + 1)
                .is_ok()
            {
                if snzi::root_tag(mem.peek(bias)) == BIAS_ON {
                    // Published under an armed bias: any revocation that
                    // starts after this point must drain our slot.
                    return ReaderReg::bravo_visible(slot, rearmed);
                }
                // A revocation began between our publish and the re-check;
                // its drain scan may already have passed our slot. Withdraw
                // and fall back to the SNZI, which the writer also checks.
                d.store(self.visible[slot], 0);
            }
        }
        self.snzi
            .as_ref()
            .expect("bravo snzi backstop")
            .arrive(d, tid);
        ReaderReg::bravo_snzi(rearmed)
    }

    /// Withdraws the reader announcement (balancing whatever `arrive`
    /// registered, even across a mode switch or bias revocation).
    pub(crate) fn depart(&self, d: &Direct<'_>, tid: usize, reg: ReaderReg) {
        d.store(self.state[tid], STATE_EMPTY);
        if let Some(slot) = reg.vslot {
            d.store(self.visible[slot], 0);
        }
        if reg.in_snzi {
            self.snzi.as_ref().expect("snzi tracking").depart(d, tid);
        }
    }

    /// The commit-time reader check (W-checkR), run inside the writer's
    /// transaction just before commit. Aborts with [`ABORT_READER`] if any
    /// concurrent reader is (or may be) active.
    pub(crate) fn check_at_commit(&self, tx: &mut Tx<'_>, me: usize) -> TxResult<()> {
        let use_snzi = match self.tracking {
            ReaderTracking::Flags => false,
            ReaderTracking::Snzi => true,
            ReaderTracking::Adaptive => {
                // Subscribing the mode word means a concurrent switch dooms
                // this transaction — it retries under the new mode.
                let mode = tx.read(self.mode_cell.expect("adaptive"))?;
                mode == MODE_SNZI
            }
            ReaderTracking::Bravo => {
                // Commit requires bias verifiably OFF *in the read-set*:
                // only a revoker that fully drained the visible table
                // publishes OFF, so no bias-era reader can be active. The
                // bias tag shares the SNZI root word with the backstop
                // count, so one subscribed line and one compare against
                // zero covers both — the exact footprint of plain SNZI
                // tracking, independent of the registered thread count.
                let word = self
                    .snzi
                    .as_ref()
                    .expect("bravo snzi backstop")
                    .query_word(tx)?;
                if word != 0 {
                    return tx.abort(ABORT_READER);
                }
                return Ok(());
            }
        };
        if use_snzi {
            if self.snzi.as_ref().expect("snzi tracking").query(tx)? {
                return tx.abort(ABORT_READER);
            }
            return Ok(());
        }
        // Flags scan: correct in every mode, since readers always maintain
        // their state flags.
        for i in 0..self.n {
            if i != me && tx.read(self.state[i])? == STATE_READER {
                return tx.abort(ABORT_READER);
            }
        }
        Ok(())
    }

    /// Whether any reader other than `me` is currently active (untracked
    /// probe; used by the fallback path's `wait_for_readers`).
    pub(crate) fn any_active(&self, d: &Direct<'_>, me: usize) -> bool {
        let mem = d.htm().memory();
        match self.tracking {
            ReaderTracking::Snzi => self
                .snzi
                .as_ref()
                .expect("snzi tracking")
                .query_untracked(d),
            ReaderTracking::Bravo => {
                self.snzi
                    .as_ref()
                    .expect("bravo snzi backstop")
                    .query_untracked(d)
                    || self.visible.iter().any(|&c| mem.peek(c) != 0)
            }
            // Flags are maintained in every mode, so the scan is always
            // correct (and runs outside transactions, so it costs no
            // footprint).
            ReaderTracking::Flags | ReaderTracking::Adaptive => (0..self.n)
                .filter(|&i| i != me)
                .any(|i| mem.peek(self.state[i]) == STATE_READER),
        }
    }

    /// Bravo revocation, run **untracked** by a writer before its
    /// speculative attempts (and by the fallback path): flips bias
    /// `ON → REVOKING`, waits for every occupied visible slot to drain,
    /// then publishes `OFF` and starts the re-arm cooldown.
    ///
    /// Returns `(occupied, scanned)` drain statistics when a revocation
    /// actually ran, `None` when bias was already off. The drain cost —
    /// the only O(·) work on the writer side — is proportional to occupied
    /// slots (*active* readers), never to registered threads: empty slots
    /// cost one peek each and the table is a fixed small multiple of the
    /// thread count.
    pub(crate) fn revoke_bias(&self, d: &Direct<'_>) -> Option<(u64, u64)> {
        let bias = self.bias_cell.expect("bravo tracking");
        let mem = d.htm().memory();
        // Win the revocation, or wait out one already in flight: the
        // winner's drain covers every joiner, so a joiner re-scanning the
        // table would only multiply the cost. The CAS retries only while
        // the tag is ON — backstop count traffic on the shared root word
        // can fail a CAS without changing the tag.
        loop {
            let w = mem.peek(bias);
            match snzi::root_tag(w) {
                BIAS_OFF => return None,
                BIAS_REVOKING => {
                    let mut spin = clock::SpinWait::new();
                    while snzi::root_tag(mem.peek(bias)) == BIAS_REVOKING {
                        spin.snooze();
                    }
                    // The winner published OFF (or a reader has already
                    // re-armed; the caller's next cycle handles that).
                    return None;
                }
                _ => {
                    if d.compare_exchange(bias, w, snzi::with_root_tag(w, BIAS_REVOKING))
                        .is_ok()
                    {
                        break;
                    }
                }
            }
        }
        let mut occupied = 0u64;
        for &slot in &self.visible {
            if mem.peek(slot) != 0 {
                occupied += 1;
                let mut spin = clock::SpinWait::new();
                while mem.peek(slot) != 0 {
                    spin.snooze();
                }
            }
        }
        // Adaptive cooldown, keyed to how long the armed phase survived:
        // a re-arm torn down almost immediately bought the readers nothing
        // — writer traffic is steady, so the cooldown grows geometrically
        // and the thrash rate decays. An armed phase that lived long
        // enough served a read-dominated stretch, and the next revocation
        // starts over from the base cooldown.
        let now = clock::now();
        let armed_ns = now.saturating_sub(self.rearmed_at.load());
        let next = if armed_ns < BIAS_ARMED_WORTH_NS {
            (self.rearm_cooldown_ns.load() * BIAS_BACKOFF_FACTOR).min(BIAS_REARM_COOLDOWN_MAX_NS)
        } else {
            BIAS_REARM_COOLDOWN_NS
        };
        self.rearm_cooldown_ns.store(next);
        self.rearm_at.store(now + next);
        // CAS, not store: never stomp a re-armer's `ON` back to `OFF`
        // without a drain between them. Retried only while the tag still
        // reads REVOKING (count traffic can fail the CAS spuriously).
        loop {
            let w = mem.peek(bias);
            if snzi::root_tag(w) != BIAS_REVOKING {
                break;
            }
            if d.compare_exchange(bias, w, snzi::with_root_tag(w, BIAS_OFF))
                .is_ok()
            {
                break;
            }
        }
        Some((occupied, self.visible.len() as u64))
    }

    /// Quiescence invariants of the tracking structures: all state flags
    /// down, the SNZI balanced, the visible table empty, no revocation in
    /// flight.
    pub(crate) fn check_quiescent(&self, mem: &SimMemory) -> Result<(), String> {
        for i in 0..self.n {
            let s = mem.peek(self.state[i]);
            if s != STATE_EMPTY {
                return Err(format!("state[{i}] is {s} (not EMPTY) at quiescence"));
            }
        }
        if let Some(snzi) = &self.snzi {
            snzi.check_balanced(mem)?;
        }
        for (i, &slot) in self.visible.iter().enumerate() {
            let v = mem.peek(slot);
            if v != 0 {
                return Err(format!(
                    "visible[{i}] still holds reader {} at quiescence",
                    v - 1
                ));
            }
        }
        if let Some(bias) = self.bias_cell {
            if snzi::root_tag(mem.peek(bias)) == BIAS_REVOKING {
                return Err("bias revocation still in flight at quiescence".into());
            }
        }
        Ok(())
    }
}
