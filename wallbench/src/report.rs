//! Turns measured windows into named metrics and prints the result line.

use std::path::PathBuf;

use sprwl_locks::{AbortCause, CommitMode, Role, SessionStats};

use crate::drive::Window;
use crate::hist::Hist;
use crate::span::{KindAgg, LayerAgg, SpanKind, Tracer, SAMPLE_EVERY};

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample counts behind the value, for the human-readable lines.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn percentile_us(name: &'static str, h: &Hist, p: f64) -> Metric {
    let beyond = h.count() - h.rank(p);
    metric(
        name,
        h.percentile(p) / 1e3,
        "us",
        format!("n={} samples, {beyond} above", h.count()),
    )
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

pub fn end_to_end(w: &Window, setup_s: f64, setups: usize) -> Result<Vec<Metric>, String> {
    let t = &w.tally;
    Ok(vec![
        metric(
            "throughput_ops_s",
            w.throughput(),
            "ops/s",
            format!(
                "{} ops in {:.3} s less {:.3} s stolen per CPU; {:.0} ops/s over the whole \
                 window; clients on a CPU {:.1} % of the unstolen time",
                t.ops,
                w.seconds,
                w.stolen_s,
                w.wall_throughput(),
                100.0 * w.on_cpu_share()
            ),
        ),
        percentile_us("read_p50_us", &t.reads, 50.0),
        percentile_us("read_p99_us", &t.reads, 99.0),
        percentile_us("write_p50_us", &t.writes, 50.0),
        percentile_us("write_p99_us", &t.writes, 99.0),
        metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {setups} set-ups"),
        ),
        metric(
            "peak_rss_mib",
            peak_rss_mib()?,
            "MiB",
            "VmHWM at exit".into(),
        ),
    ])
}

fn commits(s: &SessionStats, role: Role) -> u64 {
    CommitMode::ALL.iter().map(|&m| s.commits_by(role, m)).sum()
}

fn mean_ns(a: &KindAgg) -> (f64, String) {
    (ratio(a.total_ns, a.spans), format!("n={} spans", a.spans))
}

pub fn per_layer(plain: &Window, traced: &Window, tracers: &[Tracer]) -> Vec<Metric> {
    let mut agg = LayerAgg::default();
    for t in tracers {
        agg.merge(&t.agg);
    }
    let kind = |k: SpanKind| agg.kinds[k as usize];
    let under = |k: SpanKind| agg.bodies_under[k as usize];
    let mut writes = kind(SpanKind::ShardWrite);
    writes.merge(&kind(SpanKind::WriteSection));
    let mut write_bodies = under(SpanKind::ShardWrite);
    write_bodies.merge(&under(SpanKind::WriteSection));
    let reads = kind(SpanKind::ReadSection);
    let admit = kind(SpanKind::ReadAdmit);
    let requests = kind(SpanKind::Op).spans;

    let s = &traced.tally.stats;
    let wc = commits(s, Role::Writer);
    let rc = commits(s, Role::Reader);
    let ops = traced.tally.ops;
    let capacity = s.aborts_of(AbortCause::Capacity) + s.aborts_of(AbortCause::CapacityRot);
    let htm = &traced.tally.htm;

    let ns = |name, (v, note): (f64, String)| metric(name, v, "ns", note);
    let frac = |name, num: u64, den: u64, what: &str| {
        metric(
            name,
            ratio(num, den),
            "ratio",
            format!("{num} / {den} {what}"),
        )
    };
    let per_op = |name, n: u64| {
        metric(
            name,
            ratio(n, requests),
            "accesses/op",
            format!("{n} accesses / {requests} sampled ops"),
        )
    };
    let self_ns = |name, a: KindAgg| {
        metric(
            name,
            ratio(a.self_ns, a.spans),
            "ns",
            format!("n={} spans", a.spans),
        )
    };
    vec![
        ns("server.get_admit_ns", mean_ns(&admit)),
        frac(
            "server.get_parked_frac",
            admit.nonzero,
            admit.spans,
            "sampled GETs parked",
        ),
        ns(
            "server.get_release_ns",
            mean_ns(&kind(SpanKind::ReadRelease)),
        ),
        ns(
            "server.write_ready_ns",
            mean_ns(&kind(SpanKind::WriteReady)),
        ),
        ns("kv.get_ns", mean_ns(&kind(SpanKind::KvGet))),
        ns("kv.bump_attempt_ns", mean_ns(&under(SpanKind::ShardWrite))),
        self_ns("sprwl.write_self_ns", writes),
        self_ns("sprwl.read_self_ns", reads),
        frac(
            "sprwl.write_attempts_per_commit",
            write_bodies.spans,
            writes.spans,
            "body attempts per sampled write section",
        ),
        frac(
            "sprwl.read_attempts_per_commit",
            under(SpanKind::ReadSection).spans,
            reads.spans,
            "body attempts per sampled read section",
        ),
        frac(
            "sprwl.aborts_reader_per_write",
            s.aborts_of(AbortCause::Reader),
            wc,
            "reader aborts per write commit",
        ),
        frac(
            "sprwl.aborts_conflict_per_write",
            s.aborts_of(AbortCause::Conflict),
            wc,
            "conflict aborts per write commit",
        ),
        frac(
            "sprwl.aborts_capacity_per_op",
            capacity,
            ops,
            "capacity aborts per op",
        ),
        frac(
            "sprwl.write_gl_frac",
            s.commits_by(Role::Writer, CommitMode::Gl),
            wc,
            "write commits under the fallback lock",
        ),
        frac(
            "sprwl.read_unins_frac",
            s.commits_by(Role::Reader, CommitMode::Unins),
            rc,
            "read-section commits uninstrumented",
        ),
        frac(
            "htm.tx_commit_frac",
            htm.commits(),
            htm.begins(),
            "transactions committed",
        ),
        metric(
            "htm.tracked_access_ns",
            ratio(agg.tracked.total_ns, agg.tracked.n),
            "ns",
            format!(
                "{} ns over {} accesses",
                agg.tracked.total_ns, agg.tracked.n
            ),
        ),
        metric(
            "htm.untracked_access_ns",
            ratio(agg.untracked.total_ns, agg.untracked.n),
            "ns",
            format!(
                "{} ns over {} accesses",
                agg.untracked.total_ns, agg.untracked.n
            ),
        ),
        per_op("htm.tracked_accesses_per_op", agg.tracked.n),
        per_op("htm.untracked_accesses_per_op", agg.untracked.n),
        ns("tpcc.read_body_ns", mean_ns(&under(SpanKind::ReadSection))),
        ns(
            "tpcc.write_body_ns",
            mean_ns(&under(SpanKind::WriteSection)),
        ),
        metric(
            "trace.overhead_frac",
            1.0 - traced.throughput() / plain.throughput(),
            "ratio",
            format!(
                "{:.0} traced vs {:.0} untraced ops/s, 1 op in {SAMPLE_EVERY} traced",
                traced.throughput(),
                plain.throughput()
            ),
        ),
    ]
}

/// Where the traced run's spans go: the build directory, which is ignored
/// by version control.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("wallbench/target"), PathBuf::from);
    dir.join(format!("spans-{workload}-{seed}.tsv"))
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_finite_numbers() {
        let m = [
            metric("a", 1.5, "ms", String::new()),
            metric("b", f64::NAN, "s", String::new()),
        ];
        assert_eq!(
            json(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 0.0, "unit": "s"}}}"#
        );
    }
}
