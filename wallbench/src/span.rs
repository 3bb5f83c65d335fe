//! Request spans for the traced run, recorded from the benchmark's own code
//! around each call into the system.
//!
//! Every op's code is written once against [`Probe`]. The untraced run uses
//! [`NoProbe`], whose methods compile to the bare calls. The traced run uses
//! a [`Tracer`] per client, which keeps spans for one request in every
//! [`SAMPLE_EVERY`]: a root span for the op, a child span around each public
//! call, and one span per section-body attempt carrying the accessor's
//! [`AccessMode`] and the number of accesses it made. When a sampled request
//! ends, each span's self time (its duration minus what its children cover)
//! is folded into a [`LayerAgg`], and the spans are kept, up to
//! [`KEEP_SPANS`] per client, for writing out at exit.

use std::future::Future;
use std::io::Write;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

use htm_sim::{AccessMode, CellId, MemAccess, TxResult};
use sprwl_server::block_on;

/// One request in this many is traced.
pub const SAMPLE_EVERY: u64 = 8;

/// Spans each client keeps for the dump written at exit.
pub const KEEP_SPANS: usize = 1 << 15;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole op, as the client sees it.
    Op,
    /// `block_on(ShardLock::read(..))`.
    ReadAdmit,
    /// `KvShard::get` under the read guard.
    KvGet,
    /// Dropping the `ReadGuard` (`SpRwl::exit_read`).
    ReadRelease,
    /// `block_on(ShardLock::write_ready(..))`.
    WriteReady,
    /// `ShardLock::write_section`.
    ShardWrite,
    /// `SpRwl::read_section`.
    ReadSection,
    /// `SpRwl::write_section`.
    WriteSection,
    /// One attempt of a section body.
    Body,
}

/// Number of [`SpanKind`]s (`Body` is the last).
pub const KINDS: usize = SpanKind::Body as usize + 1;

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::ReadAdmit => "server.read_admit",
            SpanKind::KvGet => "kv.get",
            SpanKind::ReadRelease => "server.read_release",
            SpanKind::WriteReady => "server.write_ready",
            SpanKind::ShardWrite => "server.write_section",
            SpanKind::ReadSection => "sprwl.read_section",
            SpanKind::WriteSection => "sprwl.write_section",
            SpanKind::Body => "body",
        }
    }
}

/// Parent index of a request's root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id, shared by every span of one request.
    pub req: u64,
    /// Index of the parent span within the request, or [`ROOT`].
    pub parent: u32,
    pub kind: SpanKind,
    /// The accessor's mode, for spans that run a body.
    pub mode: Option<AccessMode>,
    /// Accesses made (bodies) or `Pending` polls (admissions).
    pub n: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of one request: its duration minus the part of
/// its interval that the union of its children's intervals covers.
/// `scratch` is reused between calls.
pub fn self_times(spans: &[Span], out: &mut Vec<u64>, scratch: &mut Vec<(u64, u64)>) {
    out.clear();
    for (i, p) in spans.iter().enumerate() {
        scratch.clear();
        scratch.extend(
            spans
                .iter()
                .filter(|c| c.parent == i as u32)
                .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
                .filter(|(s, e)| s < e),
        );
        scratch.sort_unstable();
        let (mut covered, mut reach) = (0, p.start_ns);
        for &(s, e) in scratch.iter() {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        out.push(p.dur() - covered);
    }
}

/// Totals over every span of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindAgg {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Sum of [`Span::n`].
    pub n: u64,
    /// Spans with a non-zero [`Span::n`].
    pub nonzero: u64,
}

impl KindAgg {
    fn add(&mut self, s: &Span, self_ns: u64) {
        self.spans += 1;
        self.total_ns += s.dur();
        self.self_ns += self_ns;
        self.n += u64::from(s.n);
        self.nonzero += u64::from(s.n > 0);
    }

    pub fn merge(&mut self, o: &KindAgg) {
        self.spans += o.spans;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.n += o.n;
        self.nonzero += o.nonzero;
    }
}

/// Per-layer totals over every sampled request.
#[derive(Debug, Default, Clone)]
pub struct LayerAgg {
    pub kinds: [KindAgg; KINDS],
    /// Body-attempt spans, by the kind of their parent.
    pub bodies_under: [KindAgg; KINDS],
    /// Spans that ran a body transactionally (plain or rollback-only).
    pub tracked: KindAgg,
    /// Spans that ran a body uninstrumented.
    pub untracked: KindAgg,
}

impl LayerAgg {
    pub fn fold(&mut self, spans: &[Span], self_ns: &[u64]) {
        for (s, &own) in spans.iter().zip(self_ns) {
            self.kinds[s.kind as usize].add(s, own);
            if s.kind == SpanKind::Body && s.parent != ROOT {
                self.bodies_under[spans[s.parent as usize].kind as usize].add(s, own);
            }
            match s.mode {
                Some(AccessMode::Untracked) => self.untracked.add(s, own),
                Some(_) => self.tracked.add(s, own),
                None => {}
            }
        }
    }

    pub fn merge(&mut self, o: &LayerAgg) {
        for (a, b) in self.kinds.iter_mut().zip(&o.kinds) {
            a.merge(b);
        }
        for (a, b) in self.bodies_under.iter_mut().zip(&o.bodies_under) {
            a.merge(b);
        }
        self.tracked.merge(&o.tracked);
        self.untracked.merge(&o.untracked);
    }
}

/// The hooks an op's code calls around each call into the system.
pub trait Probe {
    fn begin_request(&mut self);
    fn end_request(&mut self);
    /// Forgets everything recorded so far (end of warm-up).
    fn reset(&mut self);
    fn open(&mut self, kind: SpanKind) -> u32;
    fn close(&mut self, id: u32);
    /// Runs one body attempt (or a body-like read) on `a`.
    fn body<R>(
        &mut self,
        kind: SpanKind,
        a: &mut dyn MemAccess,
        f: impl FnOnce(&mut dyn MemAccess) -> R,
    ) -> R;
    /// Drives an admission future to completion.
    fn admit<F: Future + Unpin>(&mut self, kind: SpanKind, fut: F) -> F::Output;
}

/// Records nothing.
#[derive(Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn begin_request(&mut self) {}
    #[inline(always)]
    fn end_request(&mut self) {}
    #[inline(always)]
    fn reset(&mut self) {}
    #[inline(always)]
    fn open(&mut self, _: SpanKind) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    #[inline(always)]
    fn body<R>(
        &mut self,
        _: SpanKind,
        a: &mut dyn MemAccess,
        f: impl FnOnce(&mut dyn MemAccess) -> R,
    ) -> R {
        f(a)
    }
    #[inline(always)]
    fn admit<F: Future + Unpin>(&mut self, _: SpanKind, fut: F) -> F::Output {
        block_on(fut)
    }
}

/// Forwards every access and counts it.
struct Counting<'a> {
    inner: &'a mut dyn MemAccess,
    n: u32,
}

impl MemAccess for Counting<'_> {
    fn read(&mut self, cell: CellId) -> TxResult<u64> {
        self.n += 1;
        self.inner.read(cell)
    }

    fn write(&mut self, cell: CellId, val: u64) -> TxResult<()> {
        self.n += 1;
        self.inner.write(cell, val)
    }

    fn mode(&self) -> AccessMode {
        self.inner.mode()
    }
}

/// Counts the polls of the wrapped future that returned `Pending`.
struct PollCount<'a, F> {
    fut: F,
    pending: &'a mut u32,
}

impl<F: Future + Unpin> Future for PollCount<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = &mut *self;
        let r = Pin::new(&mut this.fut).poll(cx);
        if r.is_pending() {
            *this.pending += 1;
        }
        r
    }
}

/// One client's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    tid: u64,
    seq: u64,
    sampled: bool,
    req: Vec<Span>,
    open: Vec<u32>,
    selfs: Vec<u64>,
    scratch: Vec<(u64, u64)>,
    pub agg: LayerAgg,
    pub kept: Vec<Span>,
    /// Sampled requests whose spans did not fit in `kept`.
    pub dropped: u64,
}

impl Tracer {
    pub fn new(origin: Instant, tid: usize) -> Self {
        Self {
            origin,
            tid: tid as u64,
            seq: 0,
            sampled: false,
            req: Vec::with_capacity(64),
            open: Vec::with_capacity(8),
            selfs: Vec::with_capacity(64),
            scratch: Vec::with_capacity(64),
            agg: LayerAgg::default(),
            kept: Vec::with_capacity(KEEP_SPANS),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Probe for Tracer {
    fn begin_request(&mut self) {
        self.seq += 1;
        self.sampled = self.seq.is_multiple_of(SAMPLE_EVERY);
        if self.sampled {
            self.req.clear();
            self.open.clear();
            self.open(SpanKind::Op);
        }
    }

    fn end_request(&mut self) {
        if !self.sampled {
            return;
        }
        self.close(0);
        self.sampled = false;
        self_times(&self.req, &mut self.selfs, &mut self.scratch);
        self.agg.fold(&self.req, &self.selfs);
        if self.kept.len() + self.req.len() <= KEEP_SPANS {
            self.kept.extend_from_slice(&self.req);
        } else {
            self.dropped += 1;
        }
    }

    fn reset(&mut self) {
        self.agg = LayerAgg::default();
        self.kept.clear();
        self.dropped = 0;
    }

    fn open(&mut self, kind: SpanKind) -> u32 {
        if !self.sampled {
            return 0;
        }
        let id = self.req.len() as u32;
        self.req.push(Span {
            req: self.tid << 48 | self.seq,
            parent: self.open.last().copied().unwrap_or(ROOT),
            kind,
            mode: None,
            n: 0,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        if !self.sampled {
            return;
        }
        let end = self.now();
        self.req[id as usize].end_ns = end;
        self.open.pop();
    }

    fn body<R>(
        &mut self,
        kind: SpanKind,
        a: &mut dyn MemAccess,
        f: impl FnOnce(&mut dyn MemAccess) -> R,
    ) -> R {
        if !self.sampled {
            return f(a);
        }
        let mode = a.mode();
        let id = self.open(kind);
        let mut counting = Counting { inner: a, n: 0 };
        let r = f(&mut counting);
        self.close(id);
        let span = &mut self.req[id as usize];
        span.mode = Some(mode);
        span.n = counting.n;
        r
    }

    fn admit<F: Future + Unpin>(&mut self, kind: SpanKind, fut: F) -> F::Output {
        if !self.sampled {
            return block_on(fut);
        }
        let id = self.open(kind);
        let mut pending = 0;
        let out = block_on(PollCount {
            fut,
            pending: &mut pending,
        });
        self.close(id);
        self.req[id as usize].n = pending;
        out
    }
}

/// Writes the kept spans as tab-separated lines, one span per line.
pub fn write_spans(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "req\tparent\tkind\tmode\tn\tstart_ns\tend_ns")?;
    for s in tracers.iter().flat_map(|t| &t.kept) {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let mode = match s.mode {
            Some(AccessMode::Transactional) => "tx",
            Some(AccessMode::RotTransactional) => "rot",
            Some(AccessMode::Untracked) => "direct",
            None => "-",
        };
        writeln!(
            w,
            "{:x}\t{parent}\t{}\t{mode}\t{}\t{}\t{}",
            s.req,
            s.kind.name(),
            s.n,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 1,
            parent,
            kind,
            mode: None,
            n: 0,
            start_ns,
            end_ns,
        }
    }

    fn selfs(spans: &[Span]) -> Vec<u64> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        self_times(spans, &mut out, &mut scratch);
        out
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0,100) ⊃ write [10,90) ⊃ bodies [20,40) and [50,80).
        let tree = [
            span(ROOT, SpanKind::Op, 0, 100),
            span(0, SpanKind::WriteSection, 10, 90),
            span(1, SpanKind::Body, 20, 40),
            span(1, SpanKind::Body, 50, 80),
        ];
        assert_eq!(selfs(&tree), vec![20, 30, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // Children [5,30) and [20,40) overlap; [90,130) runs past the
        // parent's end; [200,210) lies outside it entirely.
        let tree = [
            span(ROOT, SpanKind::Op, 0, 100),
            span(0, SpanKind::ReadAdmit, 5, 30),
            span(0, SpanKind::KvGet, 20, 40),
            span(0, SpanKind::ReadRelease, 90, 130),
            span(0, SpanKind::ReadRelease, 200, 210),
        ];
        // Covered: [5,40) + [90,100) = 45.
        assert_eq!(selfs(&tree)[0], 55);
    }

    #[test]
    fn childless_span_is_all_self() {
        assert_eq!(selfs(&[span(ROOT, SpanKind::Op, 7, 19)]), vec![12]);
    }

    #[test]
    fn fold_attributes_bodies_and_modes() {
        let mut tree = [
            span(ROOT, SpanKind::Op, 0, 100),
            span(0, SpanKind::ReadSection, 0, 100),
            span(1, SpanKind::Body, 10, 30),
            span(1, SpanKind::Body, 40, 90),
        ];
        tree[2].mode = Some(AccessMode::Transactional);
        tree[2].n = 4;
        tree[3].mode = Some(AccessMode::Untracked);
        tree[3].n = 10;
        let mut agg = LayerAgg::default();
        agg.fold(&tree, &selfs(&tree));
        let under = agg.bodies_under[SpanKind::ReadSection as usize];
        assert_eq!((under.spans, under.total_ns), (2, 70));
        assert_eq!(agg.kinds[SpanKind::ReadSection as usize].self_ns, 30);
        assert_eq!((agg.tracked.total_ns, agg.tracked.n), (20, 4));
        assert_eq!((agg.untracked.total_ns, agg.untracked.n), (50, 10));
    }

    #[test]
    fn tracer_samples_whole_requests_and_shares_their_id() {
        let mut t = Tracer::new(Instant::now(), 1);
        let htm = htm_sim::Htm::new(htm_sim::HtmConfig::default(), 64);
        let cell = htm.memory().alloc(1).cell(0);
        for _ in 0..2 * SAMPLE_EVERY {
            t.begin_request();
            let id = t.open(SpanKind::WriteSection);
            let mut d = htm.direct(0);
            t.body(SpanKind::Body, &mut d, |a| a.write(cell, 1))
                .unwrap();
            t.close(id);
            t.end_request();
        }
        assert_eq!(t.agg.kinds[SpanKind::Op as usize].spans, 2);
        assert_eq!(t.kept.len(), 6);
        assert!(t.kept[..3].iter().all(|s| s.req == t.kept[0].req));
        assert_ne!(t.kept[0].req, t.kept[3].req);
        assert_eq!(t.agg.untracked.n, 2, "one counted access per body");
    }
}
