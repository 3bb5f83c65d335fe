//! wallbench — wall-clock benchmark of the sharded KV service and TPC-C
//! over SpRWL.
//!
//! ```text
//! wallbench --workload <kv-get-uniform|kv-set-zipf|tpcc-power8> --seed <n>
//!           --seconds <n> --trace <0|1> [--inject-fault]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one measured window.
//! With `--trace 1` it measures an untraced window and then a traced one on
//! the same system, each half as long, and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object, and a failed end-of-run
//! check exits with code 1 instead. See `README.md` for the design.

#![forbid(unsafe_code)]

mod drive;
mod hist;
mod kv;
mod report;
mod span;
mod tpcc;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{run_window, timed_setups, Window, Workload, CLIENTS};
use report::Metric;
use span::{NoProbe, Tracer};

const USAGE: &str = "usage: wallbench --workload <kv-get-uniform|kv-set-zipf|tpcc-power8> \
                     --seed <n> --seconds <n> --trace <0|1> [--inject-fault]";

/// Discarded before each window, so duration estimates, BRAVO bias and the
/// readers-try-HTM skip budget settle.
const WARMUP: Duration = Duration::from_secs(1);

/// Builds per run whose median is `setup_s`. A KV build takes about half a
/// second; a TPC-C build about half a millisecond, so it gets more.
const KV_SETUPS: usize = 3;
const TPCC_SETUPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    KvGetUniform,
    KvSetZipf,
    TpccPower8,
}

impl Name {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "kv-get-uniform" => Some(Name::KvGetUniform),
            "kv-set-zipf" => Some(Name::KvSetZipf),
            "tpcc-power8" => Some(Name::TpccPower8),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Name::KvGetUniform => "kv-get-uniform",
            Name::KvSetZipf => "kv-set-zipf",
            Name::TpccPower8 => "tpcc-power8",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Name,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject_fault: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut inject_fault = false;
        while let Some(flag) = it.next() {
            if flag == "--inject-fault" {
                inject_fault = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Name::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => match number()? {
                    n @ 1..=3600 => seconds = Some(n),
                    _ => return Err(format!("--seconds {value} outside 1..=3600")),
                },
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("bad value {value:?} for --trace")),
                },
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            inject_fault,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Name::KvGetUniform | Name::KvSetZipf => {
            let spec = if args.workload == Name::KvGetUniform {
                kv::get_uniform()
            } else {
                kv::set_zipf()
            };
            let clients = (0..CLIENTS)
                .map(|tid| kv::KvClient::new(&spec, args.seed, tid))
                .collect();
            bench(
                &args,
                KV_SETUPS,
                || kv::KvSystem::build(spec.keyspace),
                clients,
            )
        }
        Name::TpccPower8 => {
            let clients = (0..CLIENTS)
                .map(|tid| tpcc::TpccClient::new(args.seed, tid))
                .collect();
            bench(&args, TPCC_SETUPS, tpcc::TpccSystem::build, clients)
        }
    }
}

/// Sets the system up `setups` times, runs the window(s), checks the
/// end-of-run invariants and prints the report.
fn bench<W: Workload>(
    args: &Args,
    setups: usize,
    build: impl Fn() -> W,
    mut clients: Vec<W::Client>,
) -> ExitCode {
    let (system, setup_s) = timed_setups(setups, build);
    // A traced invocation splits its time between an untraced baseline
    // window and the traced window.
    let window = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    let plain = run_window(
        &system,
        &mut clients,
        &mut [NoProbe, NoProbe],
        WARMUP,
        window,
    );
    let traced = args.trace.then(|| {
        let origin = Instant::now();
        let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|tid| Tracer::new(origin, tid)).collect();
        let w = run_window(&system, &mut clients, &mut tracers, WARMUP, window);
        (w, tracers)
    });
    if args.inject_fault {
        system.inject_fault();
    }
    let checked = system
        .verify(&clients)
        .and_then(|()| match system.htm().active_threads() {
            0 => Ok(()),
            n => Err(format!("{n} thread contexts still claimed after the run")),
        });
    if let Err(e) = checked {
        eprintln!("wallbench: end-of-run check failed: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "wallbench {} seed={} seconds={} trace={} clients={CLIENTS} cpus={}",
        args.workload.label(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let windows: Vec<&Window> = std::iter::once(&plain)
        .chain(traced.as_ref().map(|(w, _)| w))
        .collect();
    let attempted: u64 = windows.iter().map(|w| w.tally.ops).sum();
    let failed: u64 = windows.iter().map(|w| w.tally.failed).sum();
    println!(
        "failed_op_frac {} ratio ({failed} of {attempted} ops failed a check)",
        report::ratio(failed, attempted)
    );
    let metrics: Vec<Metric> = match &traced {
        None => match report::end_to_end(&plain, setup_s, setups) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("wallbench: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some((w, tracers)) => {
            let path = report::spans_path(args.workload.label(), args.seed);
            match span::write_spans(&path, tracers) {
                Ok(()) => println!(
                    "spans written to {} ({} spans kept, {} sampled requests did not fit)",
                    path.display(),
                    tracers.iter().map(|t| t.kept.len()).sum::<usize>(),
                    tracers.iter().map(|t| t.dropped).sum::<u64>()
                ),
                Err(e) => eprintln!("wallbench: could not write {}: {e}", path.display()),
            }
            report::per_layer(&plain, w, tracers)
        }
    };
    for m in &metrics {
        println!("{} {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!("{}", report::json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
