//! Capacity stretching for big-footprint writers: the split rung.
//!
//! The POWER8 capacity-stretching techniques give SpRWL writers a ladder
//! past the per-profile footprint limits (see
//! [`crate::config::SprwlConfig::stretch`]). The first stretched rung — the
//! rollback-only transaction with its suspended commit check — lives in
//! [`crate::writer`] next to the plain HTM loop it mirrors. This module
//! holds the final rung: **transaction splitting**, for write-sets that
//! overflow even the ROT budget.
//!
//! A split writer executes under its fallback ticket, with bypassing and
//! active readers already drained, so the region is exclusive: new readers
//! defer to the held lock (Alg. 1 line 29) and other writers spin on it.
//! Inside that region the section body runs **once** against a
//! [`SplitAccess`] buffer that never lets the speculative write-set exceed
//! the capacity profile: writes accumulate per chunk and each full chunk
//! is flushed as one ordered sub-transaction. Readers stay uninstrumented
//! throughout — they never observe a torn prefix because none can enter
//! between chunks while the ticket is held (the same §3.1/§3.3 argument
//! that makes the plain fallback safe).
//!
//! Chunk flushes replay buffered `(cell, value)` pairs, which is
//! idempotent, so a flush that aborts (an injected interrupt, or the
//! transient window where a just-doomed peer still holds a line) simply
//! retries; after [`SPLIT_CHUNK_RETRIES`] it falls through to an untracked
//! replay — safe for the same exclusivity reason.

use std::collections::{HashMap, HashSet};

use htm_sim::{AccessMode, CellId, LineId, MemAccess, ThreadCtx, TxKind, TxResult};
use sprwl_locks::{AbortCause, LockThread, SectionBody, SessionStats};
use sprwl_trace::{EventKind, TraceBuffer};

/// Sub-transaction attempts per chunk before the untracked-replay valve.
pub(crate) const SPLIT_CHUNK_RETRIES: u32 = 3;

/// The chunking write buffer a split writer's section body runs against.
///
/// Reads are served from the pending buffer (read-own-writes) or an
/// untracked load; writes accumulate until they span `chunk_lines`
/// distinct cache lines, then flush as one sub-transaction.
pub(crate) struct SplitAccess<'a, 'h> {
    ctx: &'a mut ThreadCtx<'h>,
    trace: &'a mut TraceBuffer,
    stats: &'a mut SessionStats,
    /// Distinct cache lines per sub-transaction (≤ the profile's HTM
    /// write budget, so a flush cannot capacity-abort).
    chunk_lines: usize,
    /// Buffered writes of the current chunk, in first-write order;
    /// rewrites update in place so replay order stays deterministic.
    pending: Vec<(CellId, u64)>,
    index_of: HashMap<CellId, usize>,
    lines: HashSet<LineId>,
    /// Chunks flushed so far (the `stretch-chunk` index).
    chunks: u32,
}

impl SplitAccess<'_, '_> {
    /// Flushes the buffered chunk as one sub-transaction (untracked replay
    /// after [`SPLIT_CHUNK_RETRIES`] failed attempts); no-op when empty.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let writes = std::mem::take(&mut self.pending);
        self.index_of.clear();
        let n_lines = self.lines.len() as u32;
        self.lines.clear();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match self.ctx.txn(TxKind::Htm, |tx| {
                for &(cell, val) in &writes {
                    tx.write(cell, val)?;
                }
                Ok(())
            }) {
                Ok(()) => break,
                Err(abort) => {
                    self.stats
                        .record_abort(AbortCause::classify(abort, TxKind::Htm));
                    if attempts >= SPLIT_CHUNK_RETRIES {
                        // The ticketed region is exclusive, so an untracked
                        // replay is just as atomic from any observer's view.
                        let d = self.ctx.direct();
                        for &(cell, val) in &writes {
                            d.store(cell, val);
                        }
                        break;
                    }
                }
            }
        }
        self.trace.push(EventKind::StretchChunk {
            index: self.chunks,
            lines: n_lines,
        });
        self.chunks += 1;
    }
}

impl MemAccess for SplitAccess<'_, '_> {
    fn read(&mut self, cell: CellId) -> TxResult<u64> {
        if let Some(&i) = self.index_of.get(&cell) {
            return Ok(self.pending[i].1);
        }
        Ok(self.ctx.direct().load(cell))
    }

    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        if let Some(&i) = self.index_of.get(&cell) {
            self.pending[i].1 = val;
            return Ok(());
        }
        let line = self.ctx.htm().memory().line_of(cell);
        self.index_of.insert(cell, self.pending.len());
        self.pending.push((cell, val));
        self.lines.insert(line);
        if self.lines.len() >= self.chunk_lines {
            self.flush();
        }
        Ok(())
    }

    fn mode(&self) -> AccessMode {
        AccessMode::Untracked
    }
}

/// Runs one write-section body split into ordered sub-transactions.
///
/// Caller contract: the fallback ticket is held and both bypassing and
/// active readers have been drained (the region is exclusive). Returns the
/// body's result and the number of chunks flushed; emits one
/// `stretch-chunk` event per flush and the closing `stretch-split`.
pub(crate) fn run_split(t: &mut LockThread<'_>, f: SectionBody<'_>, chunk_lines: usize) -> u64 {
    let LockThread { ctx, stats, trace } = t;
    let mut acc = SplitAccess {
        ctx,
        trace,
        stats,
        chunk_lines: chunk_lines.max(1),
        pending: Vec::new(),
        index_of: HashMap::new(),
        lines: HashSet::new(),
        chunks: 0,
    };
    let r = f(&mut acc).expect("split write sections cannot abort");
    acc.flush();
    let chunks = acc.chunks;
    acc.trace.push(EventKind::StretchSplit { chunks });
    r
}
