//! Schema-versioned benchmark results (`BENCH_<category>_<date>.json`)
//! and the regression comparison behind the `bench-compare` binary.
//!
//! The layout follows the continuous-benchmark pipelines of
//! strata-benchmarks-style repos: every run emits one self-describing JSON
//! document carrying the schema version, provenance (git commit, date,
//! hardware, capacity profile, run mode), the workload parameters, and one
//! point per (workload, lock, threads) with throughput, abort rate, the
//! commit-mode breakdown and reservoir-sampled latency percentiles.
//! `bench-compare` diffs two such documents point-by-point against
//! per-metric thresholds.
//!
//! The build environment is offline (no serde), so serialization is
//! hand-rolled: [`BenchResults::to_json`] emits and a minimal recursive-
//! descent parser ([`BenchResults::from_json`]) reads it back. Floats are
//! formatted with Rust's shortest-round-trip formatting, so serialize →
//! parse → serialize is byte-stable and `serialize → parse` compares equal
//! under [`PartialEq`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sprwl_locks::{AbortCause, CommitMode, LatencyRecorder, SessionStats};

/// The schema version this module reads and writes. Bump on any change to
/// the JSON layout; `bench-compare` refuses to diff mismatched versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The schema *minor* version: bumped for purely additive growth (new
/// optional fields, new categories) that old documents simply lack.
/// Minor 1 added the `schema_minor` field itself, the `server` category,
/// and the optional per-point `shards` breakdown. Documents without the
/// field read as minor 0; documents with a *larger* minor than this
/// build's are refused (they may carry fields we would silently drop),
/// but `bench-compare` never gates on the minor — old baselines stay
/// comparable.
pub const SCHEMA_MINOR: u64 = 1;

/// Per-shard breakdown of one server-category point: integer commit and
/// abort tallies for the sections routed to one shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardStat {
    /// Shard index.
    pub shard: u64,
    /// Committed sections routed here (reads and writes).
    pub commits: u64,
    /// Aborted speculative attempts routed here.
    pub aborts: u64,
    /// Commits per mode, in [`CommitMode::ALL`] order (HTM/ROT/GL/Unins).
    pub commit_mode: [u64; 4],
}

/// Latency digest of one role (reader or writer) at one point, ns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_ns: u64,
    /// Reservoir-sampled p50 (nearest rank over a uniform subsample).
    pub p50_ns: u64,
    /// Reservoir-sampled p95.
    pub p95_ns: u64,
    /// Reservoir-sampled p99.
    pub p99_ns: u64,
    /// Observed maximum.
    pub max_ns: u64,
    /// Number of sections recorded (not the retained reservoir size).
    pub samples: u64,
}

impl LatencySummary {
    /// Digests a harness latency recorder.
    pub fn from_recorder(rec: &LatencyRecorder) -> Self {
        Self {
            mean_ns: rec.mean_ns(),
            p50_ns: rec.sampled_percentile_ns(50.0),
            p95_ns: rec.sampled_percentile_ns(95.0),
            p99_ns: rec.sampled_percentile_ns(99.0),
            max_ns: rec.max_ns,
            samples: rec.count,
        }
    }
}

/// One measured benchmark point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Workload name (e.g. `read-only`, `hot-key`).
    pub workload: String,
    /// Lock scheme label (e.g. `SpRWL`, `TLE`).
    pub lock: String,
    /// Worker threads.
    pub threads: u64,
    /// Committed critical sections per second — per *virtual* second in
    /// deterministic mode, making the number host-independent.
    pub throughput: f64,
    /// Measured-window length in seconds: virtual seconds in deterministic
    /// mode (wall-clock-free), wall seconds otherwise.
    pub elapsed_s: f64,
    /// Total committed critical sections in the measured window.
    pub commits: u64,
    /// Abort rate, percent of speculative attempts.
    pub abort_pct: f64,
    /// Percent of commits per mode, in [`CommitMode::ALL`] order
    /// (HTM/ROT/GL/Unins).
    pub commit_mode_pct: [f64; 4],
    /// Abort counts per cause, in [`AbortCause::ALL`] order.
    pub aborts: [u64; 7],
    /// Reader-latency digest.
    pub reader: LatencySummary,
    /// Writer-latency digest.
    pub writer: LatencySummary,
    /// Per-shard breakdown (server category only; empty elsewhere and
    /// omitted from the JSON when empty — a schema-minor-1 addition).
    pub shards: Vec<ShardStat>,
}

impl BenchPoint {
    /// Builds a point from merged harness statistics.
    pub fn from_stats(
        workload: &str,
        lock: &str,
        threads: usize,
        stats: &SessionStats,
        elapsed_s: f64,
    ) -> Self {
        let total = stats.total_commits().max(1) as f64;
        let mode_pct = CommitMode::ALL.map(|m| 100.0 * stats.commits_in(m) as f64 / total);
        Self {
            workload: workload.to_string(),
            lock: lock.to_string(),
            threads: threads as u64,
            throughput: stats.total_commits() as f64 / elapsed_s.max(1e-9),
            elapsed_s,
            commits: stats.total_commits(),
            abort_pct: 100.0 * stats.abort_ratio(),
            commit_mode_pct: mode_pct,
            aborts: AbortCause::ALL.map(|c| stats.aborts_of(c)),
            reader: LatencySummary::from_recorder(&stats.reader_latency),
            writer: LatencySummary::from_recorder(&stats.writer_latency),
            shards: Vec::new(),
        }
    }

    /// The identity a point is paired under when diffing two result files.
    pub fn key(&self) -> String {
        format!("{}/{}/t{}", self.workload, self.lock, self.threads)
    }

    /// One human-readable table row.
    pub fn row(&self) -> String {
        format!(
            "{:<18} {:<9} {:>3}  {:>12.0}  {:>6.1}%  {:>4.0}% {:>4.0}% {:>4.0}% {:>4.0}%  rd {:>6}/{:>6}/{:>6}us  wr {:>6}/{:>6}/{:>6}us",
            self.workload,
            self.lock,
            self.threads,
            self.throughput,
            self.abort_pct,
            self.commit_mode_pct[0],
            self.commit_mode_pct[1],
            self.commit_mode_pct[2],
            self.commit_mode_pct[3],
            self.reader.p50_ns / 1_000,
            self.reader.p95_ns / 1_000,
            self.reader.p99_ns / 1_000,
            self.writer.p50_ns / 1_000,
            self.writer.p95_ns / 1_000,
            self.writer.p99_ns / 1_000,
        )
    }

    /// Header matching [`BenchPoint::row`].
    pub fn header() -> String {
        format!(
            "{:<18} {:<9} {:>3}  {:>12}  {:>7}  {:>5} {:>5} {:>5} {:>5}  {:<24}  {:<24}",
            "workload",
            "lock",
            "thr",
            "tx/s",
            "abort%",
            "HTM%",
            "ROT%",
            "GL%",
            "Unin%",
            "rd p50/p95/p99",
            "wr p50/p95/p99"
        )
    }
}

/// Host provenance recorded alongside the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Hardware {
    /// `available_parallelism` of the measuring host.
    pub host_threads: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl Hardware {
    /// Probes the current host.
    pub fn probe() -> Self {
        Self {
            host_threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// One `BENCH_<category>_<date>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResults {
    /// Always [`SCHEMA_VERSION`] for documents this module writes.
    pub schema_version: u64,
    /// Always [`SCHEMA_MINOR`] for documents this module writes; 0 for
    /// documents predating the field.
    pub schema_minor: u64,
    /// Result category — the `<category>` of the file name.
    pub category: String,
    /// Capture date, `YYYY-MM-DD`.
    pub date: String,
    /// Git commit the numbers were measured at (`unknown` outside a repo).
    pub git_commit: String,
    /// `det` (virtual clock, fixed work) or `wall` (timed window).
    pub mode: String,
    /// Simulated capacity profile name (e.g. `broadwell-sim`).
    pub capacity_profile: String,
    /// Measuring host.
    pub hardware: Hardware,
    /// Free-form workload parameters (seed, ops per thread, warmup, …).
    pub params: BTreeMap<String, String>,
    /// The measured points.
    pub points: Vec<BenchPoint>,
}

impl BenchResults {
    /// The canonical file name for this document.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}_{}.json", self.category, self.date)
    }

    /// Serializes to pretty-printed JSON (stable field order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096 + self.points.len() * 512);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"schema_minor\": {},", self.schema_minor);
        let _ = writeln!(s, "  \"category\": {},", json_string(&self.category));
        let _ = writeln!(s, "  \"date\": {},", json_string(&self.date));
        let _ = writeln!(s, "  \"git_commit\": {},", json_string(&self.git_commit));
        let _ = writeln!(s, "  \"mode\": {},", json_string(&self.mode));
        let _ = writeln!(
            s,
            "  \"capacity_profile\": {},",
            json_string(&self.capacity_profile)
        );
        let _ = writeln!(
            s,
            "  \"hardware\": {{\"host_threads\": {}, \"os\": {}, \"arch\": {}}},",
            self.hardware.host_threads,
            json_string(&self.hardware.os),
            json_string(&self.hardware.arch)
        );
        s.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", json_string(k), json_string(v));
        }
        s.push_str("},\n");
        s.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str("    {");
            let _ = write!(
                s,
                "\"workload\": {}, \"lock\": {}, \"threads\": {}, ",
                json_string(&p.workload),
                json_string(&p.lock),
                p.threads
            );
            let _ = write!(
                s,
                "\"throughput\": {}, \"elapsed_s\": {}, \"commits\": {}, \"abort_pct\": {},",
                json_f64(p.throughput),
                json_f64(p.elapsed_s),
                p.commits,
                json_f64(p.abort_pct)
            );
            s.push_str("\n     \"commit_mode_pct\": {");
            for (j, m) in CommitMode::ALL.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "\"{}\": {}",
                    m.label().to_ascii_lowercase(),
                    json_f64(p.commit_mode_pct[j])
                );
            }
            s.push_str("},\n     \"aborts\": {");
            for (j, c) in AbortCause::ALL.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\": {}", c.label(), p.aborts[j]);
            }
            s.push_str("},\n");
            for (role, l) in [("reader", &p.reader), ("writer", &p.writer)] {
                let _ = write!(
                    s,
                    "     \"{role}_latency_ns\": {{\"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"samples\": {}}}",
                    l.mean_ns, l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns, l.samples
                );
                if role == "reader" {
                    s.push_str(",\n");
                }
            }
            if !p.shards.is_empty() {
                s.push_str(",\n     \"shards\": [");
                for (j, sh) in p.shards.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(
                        s,
                        "{{\"shard\": {}, \"commits\": {}, \"aborts\": {}, \"commit_mode\": {{",
                        sh.shard, sh.commits, sh.aborts
                    );
                    for (k, m) in CommitMode::ALL.iter().enumerate() {
                        if k > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(
                            s,
                            "\"{}\": {}",
                            m.label().to_ascii_lowercase(),
                            sh.commit_mode[k]
                        );
                    }
                    s.push_str("}}");
                }
                s.push(']');
            }
            s.push('}');
            if i + 1 < self.points.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a document produced by [`BenchResults::to_json`] (or any
    /// JSON matching the schema).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let obj = v.as_obj("document")?;
        let schema_version = obj.u64_field("schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (this tool reads {SCHEMA_VERSION})"
            ));
        }
        // Minor versions are additive: older documents (field absent ⇒ 0)
        // read fine, but a *newer* minor may carry fields this build would
        // silently drop, so refuse it.
        let schema_minor = match obj.get("schema_minor") {
            Some(_) => obj.u64_field("schema_minor")?,
            None => 0,
        };
        if schema_minor > SCHEMA_MINOR {
            return Err(format!(
                "unsupported schema_minor {schema_minor} (this tool reads up to {SCHEMA_MINOR}; \
                 upgrade to read this document)"
            ));
        }
        let hardware_v = obj.field("hardware")?;
        let hw = hardware_v.as_obj("hardware")?;
        let params_v = obj.field("params")?;
        let mut params = BTreeMap::new();
        for (k, v) in &params_v.as_obj("params")?.0 {
            params.insert(k.clone(), v.as_str("params value")?.to_string());
        }
        let mut points = Vec::new();
        for (i, pv) in obj.field("points")?.as_arr("points")?.iter().enumerate() {
            points.push(Self::point_from_json(pv).map_err(|e| format!("points[{i}]: {e}"))?);
        }
        Ok(Self {
            schema_version,
            schema_minor,
            category: obj.str_field("category")?,
            date: obj.str_field("date")?,
            git_commit: obj.str_field("git_commit")?,
            mode: obj.str_field("mode")?,
            capacity_profile: obj.str_field("capacity_profile")?,
            hardware: Hardware {
                host_threads: hw.u64_field("host_threads")?,
                os: hw.str_field("os")?,
                arch: hw.str_field("arch")?,
            },
            params,
            points,
        })
    }

    fn point_from_json(v: &Json) -> Result<BenchPoint, String> {
        let obj = v.as_obj("point")?;
        let modes = obj.field("commit_mode_pct")?;
        let modes = modes.as_obj("commit_mode_pct")?;
        let mut commit_mode_pct = [0.0; 4];
        for (j, m) in CommitMode::ALL.iter().enumerate() {
            commit_mode_pct[j] = modes.f64_field(&m.label().to_ascii_lowercase())?;
        }
        let aborts_v = obj.field("aborts")?;
        let aborts_o = aborts_v.as_obj("aborts")?;
        let mut aborts = [0u64; 7];
        for (j, c) in AbortCause::ALL.iter().enumerate() {
            aborts[j] = aborts_o.u64_field(c.label())?;
        }
        let latency = |role: &str| -> Result<LatencySummary, String> {
            let lv = obj.field(&format!("{role}_latency_ns"))?;
            let lo = lv.as_obj("latency")?;
            Ok(LatencySummary {
                mean_ns: lo.u64_field("mean")?,
                p50_ns: lo.u64_field("p50")?,
                p95_ns: lo.u64_field("p95")?,
                p99_ns: lo.u64_field("p99")?,
                max_ns: lo.u64_field("max")?,
                samples: lo.u64_field("samples")?,
            })
        };
        let mut shards = Vec::new();
        if let Some(sv) = obj.get("shards") {
            for shv in sv.as_arr("shards")?.iter() {
                let sho = shv.as_obj("shard stat")?;
                let cm = sho.field("commit_mode")?;
                let cm = cm.as_obj("commit_mode")?;
                let mut commit_mode = [0u64; 4];
                for (k, m) in CommitMode::ALL.iter().enumerate() {
                    commit_mode[k] = cm.u64_field(&m.label().to_ascii_lowercase())?;
                }
                shards.push(ShardStat {
                    shard: sho.u64_field("shard")?,
                    commits: sho.u64_field("commits")?,
                    aborts: sho.u64_field("aborts")?,
                    commit_mode,
                });
            }
        }
        Ok(BenchPoint {
            workload: obj.str_field("workload")?,
            lock: obj.str_field("lock")?,
            threads: obj.u64_field("threads")?,
            throughput: obj.f64_field("throughput")?,
            elapsed_s: obj.f64_field("elapsed_s")?,
            commits: obj.u64_field("commits")?,
            abort_pct: obj.f64_field("abort_pct")?,
            commit_mode_pct,
            aborts,
            reader: latency("reader")?,
            writer: latency("writer")?,
            shards,
        })
    }
}

/// Escapes and quotes a JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` with shortest-round-trip precision (always with a
/// decimal point or exponent, so it reads back as a float).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no Inf/NaN; degrade to 0 rather than emit garbage.
        "0.0".to_string()
    }
}

/// A parsed JSON value (minimal recursive-descent parser; the offline
/// build has no serde).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (u64 fields must fit in 2^53, which bench counts do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(JsonObj),
}

/// Key-value pairs of a JSON object, in document order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObj(pub Vec<(String, Json)>);

impl JsonObj {
    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn str_field(&self, key: &str) -> Result<String, String> {
        Ok(self.field(key)?.as_str(key)?.to_string())
    }

    fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key)?.as_f64(key)
    }

    fn u64_field(&self, key: &str) -> Result<u64, String> {
        let v = self.field(key)?.as_f64(key)?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("field {key:?} is not a non-negative integer: {v}"));
        }
        Ok(v as u64)
    }
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn as_obj(&self, what: &str) -> Result<&JsonObj, String> {
        match self {
            Json::Obj(o) => Ok(o),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut obj = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(JsonObj(obj)));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                obj.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(JsonObj(obj)));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed for this schema's
                        // ASCII field names; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Per-metric regression thresholds for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Maximum tolerated relative throughput drop (e.g. `0.10` = −10 %).
    pub throughput_drop: f64,
    /// Maximum tolerated abort-rate rise, in percentage points.
    pub abort_rise_pp: f64,
    /// Maximum tolerated relative p99 latency rise (e.g. `0.50` = +50 %).
    pub p99_rise: f64,
    /// p99 rises below this absolute floor (ns) are never flagged — keeps
    /// near-zero baselines from tripping on scheduling noise.
    pub p99_floor_ns: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            throughput_drop: 0.10,
            abort_rise_pp: 5.0,
            p99_rise: 0.50,
            p99_floor_ns: 2_000,
        }
    }
}

/// One metric of one point that crossed its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The point key ([`BenchPoint::key`]).
    pub key: String,
    /// Metric name (`throughput`, `abort_pct`, `reader_p99`, `writer_p99`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Signed relative change, percent (positive = increase).
    pub delta_pct: f64,
}

impl Regression {
    /// Human-readable one-liner.
    pub fn describe(&self) -> String {
        format!(
            "REGRESSION {:<32} {:<12} {:>14.1} -> {:>14.1}  ({:+.1}%)",
            self.key, self.metric, self.baseline, self.candidate, self.delta_pct
        )
    }
}

/// Outcome of diffing two result documents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompareReport {
    /// Points present in both documents (paired by [`BenchPoint::key`]).
    pub matched: usize,
    /// Threshold violations, in document order.
    pub regressions: Vec<Regression>,
    /// Throughput improvements beyond the same threshold (informational).
    pub improvements: usize,
    /// Keys of baseline points absent from the candidate.
    pub missing_in_candidate: Vec<String>,
    /// Keys of candidate points absent from the baseline.
    pub new_in_candidate: Vec<String>,
}

/// Diffs `candidate` against `baseline` with the given thresholds.
///
/// # Errors
///
/// Fails when the documents carry different schema versions, modes, or
/// capacity profiles — numbers measured under different rules must not be
/// silently compared.
pub fn compare(
    baseline: &BenchResults,
    candidate: &BenchResults,
    th: &Thresholds,
) -> Result<CompareReport, String> {
    if baseline.schema_version != candidate.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{} vs candidate v{}",
            baseline.schema_version, candidate.schema_version
        ));
    }
    if baseline.mode != candidate.mode {
        return Err(format!(
            "mode mismatch: baseline {:?} vs candidate {:?} (det and wall numbers are not comparable)",
            baseline.mode, candidate.mode
        ));
    }
    if baseline.capacity_profile != candidate.capacity_profile {
        return Err(format!(
            "capacity profile mismatch: {:?} vs {:?}",
            baseline.capacity_profile, candidate.capacity_profile
        ));
    }
    let mut report = CompareReport::default();
    let rel = |base: f64, cand: f64| {
        if base.abs() < 1e-12 {
            0.0
        } else {
            100.0 * (cand - base) / base
        }
    };
    for bp in &baseline.points {
        let Some(cp) = candidate.points.iter().find(|c| c.key() == bp.key()) else {
            report.missing_in_candidate.push(bp.key());
            continue;
        };
        report.matched += 1;
        if cp.throughput < bp.throughput * (1.0 - th.throughput_drop) {
            report.regressions.push(Regression {
                key: bp.key(),
                metric: "throughput".into(),
                baseline: bp.throughput,
                candidate: cp.throughput,
                delta_pct: rel(bp.throughput, cp.throughput),
            });
        } else if cp.throughput > bp.throughput * (1.0 + th.throughput_drop) {
            report.improvements += 1;
        }
        if cp.abort_pct > bp.abort_pct + th.abort_rise_pp {
            report.regressions.push(Regression {
                key: bp.key(),
                metric: "abort_pct".into(),
                baseline: bp.abort_pct,
                candidate: cp.abort_pct,
                delta_pct: cp.abort_pct - bp.abort_pct,
            });
        }
        for (metric, b, c) in [
            ("reader_p99", &bp.reader, &cp.reader),
            ("writer_p99", &bp.writer, &cp.writer),
        ] {
            if b.samples == 0 || c.samples == 0 {
                continue;
            }
            let risen = c.p99_ns as f64 > b.p99_ns as f64 * (1.0 + th.p99_rise);
            let above_floor = c.p99_ns > b.p99_ns + th.p99_floor_ns;
            if risen && above_floor {
                report.regressions.push(Regression {
                    key: bp.key(),
                    metric: metric.into(),
                    baseline: b.p99_ns as f64,
                    candidate: c.p99_ns as f64,
                    delta_pct: rel(b.p99_ns as f64, c.p99_ns as f64),
                });
            }
        }
    }
    for cp in &candidate.points {
        if !baseline.points.iter().any(|b| b.key() == cp.key()) {
            report.new_in_candidate.push(cp.key());
        }
    }
    Ok(report)
}

/// `YYYY-MM-DD` for a Unix timestamp (days-to-civil per Howard Hinnant's
/// `civil_from_days`), for naming `BENCH_*` files without a date crate.
pub fn civil_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Today's date (`YYYY-MM-DD`) from the system clock.
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_date(secs)
}

/// The current git commit: `BENCH_GIT_COMMIT` env override, else the
/// short hash of `HEAD` in the working directory, with `-dirty` appended
/// when a tracked file differs from `HEAD`, else `"unknown"`.
pub fn git_commit() -> String {
    if let Ok(c) = std::env::var("BENCH_GIT_COMMIT") {
        if !c.is_empty() {
            return c;
        }
    }
    git_commit_in(std::path::Path::new("."))
}

/// [`git_commit`] for the repository at `dir`, without the override.
/// `git diff --quiet HEAD` exits 1 when a tracked file differs, staged or
/// not; untracked files do not count.
fn git_commit_in(dir: &std::path::Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(dir)
            .output()
            .ok()
    };
    let Some(hash) = git(&["rev-parse", "--short", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    let dirty = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.code() == Some(1));
    if dirty {
        format!("{hash}-dirty")
    } else {
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> BenchResults {
        let mut params = BTreeMap::new();
        params.insert("seed".to_string(), "42".to_string());
        params.insert("ops_per_thread".to_string(), "1500".to_string());
        BenchResults {
            schema_version: SCHEMA_VERSION,
            schema_minor: SCHEMA_MINOR,
            category: "sweep".into(),
            date: "2026-08-09".into(),
            git_commit: "abc1234".into(),
            mode: "det".into(),
            capacity_profile: "broadwell-sim".into(),
            hardware: Hardware {
                host_threads: 8,
                os: "linux".into(),
                arch: "x86_64".into(),
            },
            params,
            points: vec![
                BenchPoint {
                    workload: "read-only".into(),
                    lock: "SpRWL".into(),
                    threads: 4,
                    throughput: 123_456.789,
                    elapsed_s: 0.0485,
                    commits: 6_000,
                    abort_pct: 1.25,
                    commit_mode_pct: [10.0, 0.0, 5.0, 85.0],
                    aborts: [1, 2, 3, 4, 5, 6, 7],
                    reader: LatencySummary {
                        mean_ns: 900,
                        p50_ns: 800,
                        p95_ns: 2_000,
                        p99_ns: 3_000,
                        max_ns: 9_999,
                        samples: 5_400,
                    },
                    writer: LatencySummary::default(),
                    shards: Vec::new(),
                },
                BenchPoint {
                    workload: "hot-key".into(),
                    lock: "TLE".into(),
                    threads: 2,
                    throughput: 55_000.0,
                    elapsed_s: 0.1,
                    commits: 5_500,
                    abort_pct: 20.5,
                    commit_mode_pct: [60.0, 0.0, 40.0, 0.0],
                    aborts: [100, 0, 20, 0, 0, 0, 1],
                    reader: LatencySummary {
                        mean_ns: 1_500,
                        p50_ns: 1_200,
                        p95_ns: 4_000,
                        p99_ns: 8_000,
                        max_ns: 20_000,
                        samples: 4_000,
                    },
                    writer: LatencySummary {
                        mean_ns: 2_500,
                        p50_ns: 2_000,
                        p95_ns: 6_000,
                        p99_ns: 11_000,
                        max_ns: 40_000,
                        samples: 1_500,
                    },
                    shards: vec![
                        ShardStat {
                            shard: 0,
                            commits: 3_000,
                            aborts: 80,
                            commit_mode: [1_800, 0, 1_200, 0],
                        },
                        ShardStat {
                            shard: 1,
                            commits: 2_500,
                            aborts: 41,
                            commit_mode: [1_500, 0, 1_000, 0],
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample_results();
        let json = r.to_json();
        let back = BenchResults::from_json(&json).expect("parses");
        assert_eq!(r, back);
        // And serialize → parse → serialize is byte-stable.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn file_name_follows_the_convention() {
        assert_eq!(sample_results().file_name(), "BENCH_sweep_2026-08-09.json");
    }

    #[test]
    fn parser_accepts_foreign_formatting() {
        // Whitespace, reordered keys, exponents and escapes — what an
        // external tool (python json.dump) might emit.
        let r = sample_results();
        let mut doc = r.to_json();
        doc = doc.replace("\"seed\": \"42\"", "\"seed\":\t\"42\"");
        doc = doc.replace("123456.789", "1.23456789e5");
        let back = BenchResults::from_json(&doc).expect("parses");
        assert_eq!(back.points[0].throughput, 123_456.789);
        assert!(BenchResults::from_json("{nope").is_err());
        assert!(BenchResults::from_json("[]").is_err());
        let wrong_version = doc.replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = BenchResults::from_json(&wrong_version).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn newer_schema_minor_is_refused_and_absent_minor_reads_as_zero() {
        let doc = sample_results().to_json();
        // A document from a *future* build carries fields we would silently
        // drop — refuse it.
        let future = doc.replace(
            &format!("\"schema_minor\": {SCHEMA_MINOR}"),
            "\"schema_minor\": 99",
        );
        let err = BenchResults::from_json(&future).unwrap_err();
        assert!(err.contains("schema_minor"), "{err}");

        // A pre-minor document (field absent) is minor 0 and parses fine —
        // old committed baselines stay readable and comparable.
        let legacy = doc.replace(&format!("  \"schema_minor\": {SCHEMA_MINOR},\n"), "");
        let back = BenchResults::from_json(&legacy).expect("legacy doc parses");
        assert_eq!(back.schema_minor, 0);
        // compare() never gates on the minor: additive fields can't change
        // the meaning of shared metrics.
        let rep = compare(&back, &sample_results(), &Thresholds::default()).unwrap();
        assert!(rep.regressions.is_empty());
    }

    #[test]
    fn per_shard_stats_round_trip_and_are_optional() {
        let r = sample_results();
        let json = r.to_json();
        // Point 0 has no shard stats: the key must be absent entirely so
        // pre-minor readers of server-free documents see no new keys.
        assert_eq!(json.matches("\"shards\"").count(), 1);
        let back = BenchResults::from_json(&json).expect("parses");
        assert_eq!(back.points[0].shards, Vec::new());
        assert_eq!(back.points[1].shards.len(), 2);
        assert_eq!(back.points[1].shards[1].commits, 2_500);
        assert_eq!(back.points[1].shards[0].commit_mode, [1_800, 0, 1_200, 0]);
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        let v = Json::parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v, Json::Str("a\"b\\c\nA".to_string()));
    }

    #[test]
    fn self_compare_is_clean() {
        let r = sample_results();
        let rep = compare(&r, &r, &Thresholds::default()).unwrap();
        assert_eq!(rep.matched, 2);
        assert!(rep.regressions.is_empty());
        assert!(rep.missing_in_candidate.is_empty());
        assert!(rep.new_in_candidate.is_empty());
    }

    #[test]
    fn injected_throughput_regression_is_flagged_and_noise_is_not() {
        let base = sample_results();
        let mut bad = base.clone();
        bad.points[0].throughput *= 0.5;
        let rep = compare(&base, &bad, &Thresholds::default()).unwrap();
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].metric, "throughput");
        assert!(rep.regressions[0].delta_pct < -40.0);

        let mut noisy = base.clone();
        noisy.points[0].throughput *= 0.98; // within the default 10 %
        noisy.points[1].abort_pct += 2.0; // within the default 5 pp
        let rep = compare(&base, &noisy, &Thresholds::default()).unwrap();
        assert!(rep.regressions.is_empty(), "{:?}", rep.regressions);
    }

    #[test]
    fn abort_and_p99_regressions_are_flagged() {
        let base = sample_results();
        let mut bad = base.clone();
        bad.points[1].abort_pct += 10.0;
        bad.points[1].writer.p99_ns *= 3;
        let rep = compare(&base, &bad, &Thresholds::default()).unwrap();
        let metrics: Vec<&str> = rep.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"abort_pct"), "{metrics:?}");
        assert!(metrics.contains(&"writer_p99"), "{metrics:?}");
        // Tiny absolute p99 wobbles under the floor never trip.
        let mut wobble = base.clone();
        wobble.points[0].reader.p99_ns += 1_500; // 50 %+, but under floor+base
        let th = Thresholds {
            p99_floor_ns: 2_000,
            ..Thresholds::default()
        };
        let rep = compare(&base, &wobble, &th).unwrap();
        assert!(rep.regressions.is_empty(), "{:?}", rep.regressions);
    }

    #[test]
    fn incompatible_documents_refuse_to_compare() {
        let base = sample_results();
        let mut wall = base.clone();
        wall.mode = "wall".into();
        assert!(compare(&base, &wall, &Thresholds::default())
            .unwrap_err()
            .contains("mode mismatch"));
        let mut other_profile = base.clone();
        other_profile.capacity_profile = "power8-sim".into();
        assert!(compare(&base, &other_profile, &Thresholds::default()).is_err());
        let mut v2 = base.clone();
        v2.schema_version = 2;
        assert!(compare(&base, &v2, &Thresholds::default()).is_err());
    }

    #[test]
    fn missing_and_new_points_are_reported() {
        let base = sample_results();
        let mut cand = base.clone();
        let dropped = cand.points.remove(1);
        let rep = compare(&base, &cand, &Thresholds::default()).unwrap();
        assert_eq!(rep.matched, 1);
        assert_eq!(rep.missing_in_candidate, vec![dropped.key()]);
        let rep = compare(&cand, &base, &Thresholds::default()).unwrap();
        assert_eq!(rep.new_in_candidate, vec![dropped.key()]);
    }

    #[test]
    fn civil_date_matches_known_days() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(86_400), "1970-01-02");
        // 2026-08-09 00:00:00 UTC.
        assert_eq!(civil_date(1_786_233_600), "2026-08-09");
        // Leap day.
        assert_eq!(civil_date(1_709_164_800), "2024-02-29");
    }

    #[test]
    fn point_row_and_key_are_stable() {
        let p = &sample_results().points[0];
        assert_eq!(p.key(), "read-only/SpRWL/t4");
        assert!(p.row().contains("read-only"));
        assert!(BenchPoint::header().contains("abort%"));
    }

    #[test]
    fn git_commit_marks_a_modified_tree_dirty() {
        let dir = std::env::temp_dir().join(format!("sprwl-git-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let ok = std::process::Command::new("git")
                .args(["-c", "user.name=t", "-c", "user.email=t@t"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .current_dir(&dir)
                .output()
                .unwrap()
                .status
                .success();
            assert!(ok, "git {args:?} failed");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("tracked.txt"), "one\n").unwrap();
        git(&["add", "tracked.txt"]);
        git(&["commit", "-q", "-m", "one"]);
        let clean = git_commit_in(&dir);
        assert!(
            !clean.is_empty() && clean.chars().all(|c| c.is_ascii_hexdigit()),
            "a clean tree stamps the bare hash, got {clean:?}"
        );
        std::fs::write(dir.join("untracked.txt"), "new\n").unwrap();
        assert_eq!(git_commit_in(&dir), clean, "untracked files do not count");
        std::fs::write(dir.join("tracked.txt"), "two\n").unwrap();
        assert_eq!(git_commit_in(&dir), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
