//! The closed-loop load shared by every workload.
//!
//! [`CLIENTS`] client threads each issue their next op as soon as the
//! previous one returns, as redis-benchmark clients do. The coordinating
//! thread sleeps through a discarded warm-up and then the measured window;
//! an op counts when it completes inside the window.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use htm_sim::{Htm, ThreadStats};
use sprwl_locks::{LockThread, SessionStats};

use crate::hist::Hist;
use crate::span::Probe;

/// Closed-loop clients, one per CPU of the 2-CPU host the benchmark was
/// sized on.
pub const CLIENTS: usize = 2;

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// Ticks per second of the counters in `/proc/stat` (`USER_HZ`, which Linux
/// fixes at 100 on every architecture it exports the file on).
const USER_HZ: u64 = 100;

/// Nanoseconds the hypervisor has stolen from this machine's CPUs so far,
/// on average per CPU, from the `steal` column of `/proc/stat`.
pub fn stolen_ns_per_cpu() -> u64 {
    let stat =
        std::fs::read_to_string("/proc/stat").expect("the benchmark needs /proc/stat (Linux)");
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .expect("/proc/stat starts with the summed cpu line, steal in its 8th column");
    let cpus = stat
        .lines()
        .filter(|l| {
            l.strip_prefix("cpu")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count()
        .max(1);
    ticks * (1_000_000_000 / USER_HZ) / cpus as u64
}

/// Nanoseconds the calling thread has held a CPU, from the kernel's
/// scheduler statistics. In a virtual machine this excludes the time the
/// hypervisor stole the virtual CPU for other tenants.
pub fn thread_cpu_ns() -> u64 {
    // The kernel brings a running thread's total up to date only at
    // scheduling events; yielding is one.
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("the benchmark needs /proc/thread-self/schedstat (Linux)");
    stat.split_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .expect("schedstat starts with the on-CPU time in ns")
}

/// How one op went, as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub write: bool,
    /// The op's result passed the client's correctness check.
    pub ok: bool,
}

/// A system under test plus the traffic its clients send.
pub trait Workload: Sync {
    /// Per-client state: the op generator and the client's oracle.
    type Client: Send;
    type Op;

    fn htm(&self) -> &Htm;
    fn next_op(&self, c: &mut Self::Client) -> Self::Op;
    fn run<P: Probe>(
        &self,
        t: &mut LockThread<'_>,
        c: &mut Self::Client,
        op: Self::Op,
        p: &mut P,
    ) -> Outcome;
    /// End-of-run invariants of the store or tables and the locks, checked
    /// after every client has stopped (the caller checks the runtime).
    fn verify(&self, clients: &[Self::Client]) -> Result<(), String>;
    /// Corrupts the system behind the clients' backs, so that [`verify`]
    /// must fail (tests the oracle).
    ///
    /// [`verify`]: Workload::verify
    fn inject_fault(&self);
}

/// What one client measured in the window.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    /// Time the client held a CPU during the window.
    pub cpu_ns: u64,
    pub reads: Hist,
    pub writes: Hist,
    /// The lock layer's commit and abort counts.
    pub stats: SessionStats,
    /// The HTM substrate's begin, commit and abort counts.
    pub htm: ThreadStats,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.cpu_ns += o.cpu_ns;
        self.reads.merge(&o.reads);
        self.writes.merge(&o.writes);
        self.stats.merge(&o.stats);
        self.htm.merge(&o.htm);
    }
}

/// One measured window and the clients' merged tally.
#[derive(Debug)]
pub struct Window {
    pub seconds: f64,
    /// Of `seconds`, how long the hypervisor stole each CPU, on average.
    pub stolen_s: f64,
    pub tally: Tally,
}

impl Window {
    /// Ops per wall-clock second.
    pub fn wall_throughput(&self) -> f64 {
        self.tally.ops as f64 / self.seconds
    }

    /// The window less the time the hypervisor stole from each CPU.
    fn unstolen_s(&self) -> f64 {
        (self.seconds - self.stolen_s).max(f64::MIN_POSITIVE)
    }

    /// Ops per wall-clock second the host left to the machine. Only stolen
    /// time is taken out: a client that blocks, parks or sleeps still
    /// counts as busy, so a change that makes clients wait shows here.
    pub fn throughput(&self) -> f64 {
        self.tally.ops as f64 / self.unstolen_s()
    }

    /// The share of the unstolen window the clients spent on a CPU: close
    /// to 1 while they spin, lower when they block or other processes take
    /// the CPUs.
    pub fn on_cpu_share(&self) -> f64 {
        self.tally.cpu_ns as f64 / 1e9 / (CLIENTS as f64 * self.unstolen_s())
    }
}

fn client<W: Workload, P: Probe>(
    w: &W,
    tid: usize,
    c: &mut W::Client,
    p: &mut P,
    phase: &AtomicU8,
) -> Tally {
    let mut t = LockThread::new(w.htm().thread(tid));
    let mut tally = Tally::default();
    let mut measuring = false;
    loop {
        let op = w.next_op(c);
        p.begin_request();
        let start = Instant::now();
        let out = w.run(&mut t, c, op, p);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        p.end_request();
        // The phase flag publishes no data, so a relaxed load is enough.
        match phase.load(Ordering::Relaxed) {
            WARMUP => {}
            STOP => break,
            _ => {
                if !measuring {
                    // Program counters cover the window only.
                    measuring = true;
                    tally.cpu_ns = thread_cpu_ns();
                    t.stats = SessionStats::default();
                    t.ctx.stats = ThreadStats::default();
                    p.reset();
                }
                tally.ops += 1;
                tally.failed += u64::from(!out.ok);
                if out.write {
                    tally.writes.record(ns);
                } else {
                    tally.reads.record(ns);
                }
            }
        }
    }
    tally.cpu_ns = thread_cpu_ns() - tally.cpu_ns;
    tally.stats = std::mem::take(&mut t.stats);
    tally.htm = std::mem::take(&mut t.ctx.stats);
    tally
}

/// Runs every client through `warmup` and then a `window`-long measured
/// phase, one probe per client.
pub fn run_window<W: Workload, P: Probe + Send>(
    w: &W,
    clients: &mut [W::Client],
    probes: &mut [P],
    warmup: Duration,
    window: Duration,
) -> Window {
    let phase = AtomicU8::new(WARMUP);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(probes.iter_mut())
            .enumerate()
            .map(|(tid, (c, p))| {
                let phase = &phase;
                s.spawn(move || client(w, tid, c, p, phase))
            })
            .collect();
        std::thread::sleep(warmup);
        phase.store(MEASURE, Ordering::Relaxed);
        let start = Instant::now();
        let stolen = stolen_ns_per_cpu();
        std::thread::sleep(window);
        phase.store(STOP, Ordering::Relaxed);
        let seconds = start.elapsed().as_secs_f64();
        let stolen_s = (stolen_ns_per_cpu() - stolen) as f64 / 1e9;
        let mut tally = Tally::default();
        for h in handles {
            tally.merge(&h.join().expect("client thread panicked"));
        }
        Window {
            seconds,
            stolen_s,
            tally,
        }
    })
}

/// Builds the system `times` times, dropping all but the last build, and
/// returns the last one with the median build time in seconds of CPU (a
/// build never sleeps, so this is its wall-clock time less what the host
/// stole).
pub fn timed_setups<T>(times: usize, build: impl Fn() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = thread_cpu_ns();
        last = Some(build());
        secs.push((thread_cpu_ns() - start) as f64 / 1e9);
    }
    (last.expect("built at least once"), median(&mut secs))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
