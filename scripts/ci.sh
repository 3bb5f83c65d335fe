#!/usr/bin/env bash
# Full CI gate: formatting, doc paths, lints, rustdoc, tier-1 build, the
# workspace tests, torture smokes, and the bench pipeline (det baselines
# regenerated point for point, every paper figure emitted once).
# Everything runs offline against the in-workspace dependency shims.
set -euo pipefail
cd "$(dirname "$0")/.."

# Torture postmortems (oracle violations and non-linearizable histories)
# land in a known directory so CI can upload them as build artifacts on
# failure instead of losing them in the OS temp dir.
export TORTURE_DUMP_DIR="${TORTURE_DUMP_DIR:-$PWD/target/torture-dumps}"
mkdir -p "$TORTURE_DUMP_DIR"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> docs name only files that exist"
# A backticked path under crates/, scripts/, examples/, results/ or
# wallbench/ in the user-facing docs must match at least one file:
# `<date>` placeholders and `*` match anything, `{a,b}` lists alternatives.
python3 - README.md DESIGN.md EXPERIMENTS.md results/SCHEMA.md <<'EOF'
import glob, re, sys
missing = []
for doc in sys.argv[1:]:
    text = open(doc).read()
    for m in re.finditer(r"`((?:crates|scripts|examples|results|wallbench)/[^`\s]*)", text):
        path = re.sub(r"<[^>]*>", "*", m.group(1))
        alts = re.search(r"\{([^}]*)\}", path)
        pats = [path[:alts.start()] + a + path[alts.end():] for a in alts.group(1).split(",")] if alts else [path]
        for pat in pats:
            if not glob.glob(pat):
                line = text.count("\n", 0, m.start()) + 1
                missing.append(f"{doc}:{line}: `{pat}` does not exist")
if missing:
    sys.exit("\n".join(missing))
print("every path the docs name exists")
EOF

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> unsafe code stays at its one audited site"
# htm-sim denies unsafe code and allows one `madvise` call in
# `huge_pages.rs`, whose SAFETY comment clippy's
# `undocumented_unsafe_blocks` requires above. Every other crate root keeps
# forbidding it, and no other source file may use the keyword at all (the
# `src/bin` crate roots carry no `forbid` of their own).
for root in crates/*/src/lib.rs src/lib.rs wallbench/src/main.rs; do
    if [ "$root" != crates/htm/src/lib.rs ] && ! grep -qx '#!\[forbid(unsafe_code)\]' "$root"; then
        echo "$root: lost #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done
UNSAFE_FILES=$(grep -rlw --include='*.rs' --exclude-dir=target unsafe \
    crates src tests examples wallbench shims | grep -vx crates/htm/src/huge_pages.rs || true)
if [ -n "$UNSAFE_FILES" ]; then
    echo "unsafe outside crates/htm/src/huge_pages.rs:" >&2
    # shellcheck disable=SC2086 # one path per word
    grep -Hnw unsafe $UNSAFE_FILES >&2
    exit 1
fi
echo "unsafe only in crates/htm/src/huge_pages.rs"

echo "==> cargo doc (workspace, no deps, warnings as errors)"
# A doc link to a deleted or private item is a warning, so it fails here
# instead of surfacing only when someone builds the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tests: cargo test -q --workspace (tier-1's root package and every crate)"
cargo test -q --offline --workspace

echo "==> htm-sim tests at optimized speed (directory and engine concurrency)"
# The same tests again, interleaving at the speed the benchmarks run.
cargo test -q --release --offline -p htm-sim

echo "==> torture smoke (full matrix, reduced depth)"
cargo run -q --release --offline -p sprwl-torture -- --threads 2 --ops 100

echo "==> torture with preempted lock holders (4x the host's two CPUs)"
# Eight free-running threads on two CPUs: the OS preempts threads while
# they hold a conflict-directory line word's lock bit, and the others
# must wait it out.
cargo run -q --release --offline -p sprwl-torture -- --threads 8 --ops 250

echo "==> deterministic torture smoke (serialized scheduler, incl. mid-run thread churn cases)"
cargo run -q --release --offline -p sprwl-torture -- --det --threads 2 --ops 100

echo "==> torture usage smoke (bad input exits 2, never a panic or a vacuous pass)"
for bad in "--threads abc" "--threads 0" "--threads 1024" "--ops 0" \
    "--filter no-such-case" "explore --inject-bug --budget many"; do
    rc=0
    # shellcheck disable=SC2086 # each case is a word-split argument list
    cargo run -q --release --offline -p sprwl-torture -- $bad > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "torture $bad: expected exit 2 (usage error), got $rc" >&2
        exit 1
    fi
done

echo "==> wallbench (its tests, then a 2-s run of each BENCHMARK.json workload)"
# The benchmark's workloads at full size on free-running threads: they
# drive htm-sim's lock-free untracked reads far harder than the torture
# smoke does. Each run ends with its workload's audits (TPC-C consistency,
# the KV monotonic oracle, per-shard conservation) and must exit 0
# reporting "correct": true.
cargo test -q --release --offline --manifest-path wallbench/Cargo.toml
WALL_WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for wl in $WALL_WORKLOADS; do
    WALL_OUT=$(cargo run -q --release --offline --manifest-path wallbench/Cargo.toml -- \
        --workload "$wl" --seed 1 --seconds 2 --trace 0)
    printf '%s\n' "$WALL_OUT" | tail -n 1 | python3 -c '
import json, sys
doc = json.load(sys.stdin)
wl, correct, failed = sys.argv[1], doc["correct"], doc["failed"]
if correct is not True or failed != 0:
    sys.exit("wallbench %s: correct=%s failed=%s" % (wl, correct, failed))
print("wallbench %s: correct, %d ops" % (wl, doc["attempted"]))
' "$wl"
done

echo "==> bench_pairs smoke (one build against itself: runs pass their checks, no gain claimed)"
# The same binary on both sides of 2 alternating 1-s pairs: every run must
# pass its end-of-run checks, and no metric may be judged a gain (the rule
# needs 10 pairs).
WALLBENCH_BIN="${CARGO_TARGET_DIR:-wallbench/target}/release/wallbench"
PAIRS_OUT=$(python3 scripts/bench_pairs.py "$WALLBENCH_BIN" \
    "$WALLBENCH_BIN" --workload tpcc-power8 --first-seed 1 \
    --pairs 2 --seconds 1)
printf '%s\n' "$PAIRS_OUT"
printf '%s\n' "$PAIRS_OUT" | grep -qx "claimed gains: none"

echo "==> lincheck smoke (checker accepts the committed cross-lock golden history)"
CROSS_GOLDEN=crates/torture/tests/golden/det_cross_smoke.trace.jsonl
cargo run -q --release --offline -p sprwl-lincheck -- "$CROSS_GOLDEN" > /dev/null
# An injected bug must flip the verdict to exactly exit 1 (non-linearizable).
# "Any non-zero" is not good enough: exit 2 means the checker gave up
# (budget/incomplete history), and a gate that confuses the two passes
# vacuously the day the budget is too small for the golden history.
rc=0
cargo run -q --release --offline -p sprwl-lincheck -- "$CROSS_GOLDEN" \
    --mutate drop-commit > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "lincheck mutate smoke: expected exit 1 (violation), got $rc" >&2
    exit 1
fi
# And a starved budget must answer exit 2 (unknown), not a violation.
rc=0
cargo run -q --release --offline -p sprwl-lincheck -- "$CROSS_GOLDEN" \
    --max-nodes 1 > /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "lincheck budget smoke: expected exit 2 (unknown), got $rc" >&2
    exit 1
fi

echo "==> explore smoke (injected bug found by schedule search, then replayed bit-exactly)"
# The weakened commit-time reader check must be caught within a bounded
# frontier; the violating decision trace lands in TORTURE_DUMP_DIR (so CI
# uploads it as an artifact) and must replay bit-exactly.
EXPLORE_OUT=$(cargo run -q --release --offline -p sprwl-torture -- explore \
    --inject-bug --budget 256 --seed 225 --expect-violation)
echo "$EXPLORE_OUT"
SCHEDULE=$(printf '%s\n' "$EXPLORE_OUT" | sed -n 's/^schedule: //p')
test -s "$SCHEDULE"
cargo run -q --release --offline -p sprwl-torture -- explore \
    --replay-schedule "$SCHEDULE"

echo "==> diff_traces smoke (identical -> 0, divergence -> 1)"
python3 scripts/diff_traces.py "$CROSS_GOLDEN" "$CROSS_GOLDEN" > /dev/null
head -n -1 "$CROSS_GOLDEN" > target/truncated-golden.jsonl
if python3 scripts/diff_traces.py "$CROSS_GOLDEN" target/truncated-golden.jsonl > /dev/null; then
    echo "diff_traces.py failed to flag a truncated trace" >&2
    exit 1
fi
rm -f target/truncated-golden.jsonl

echo "==> bench pipeline smoke (BENCH_*.json emit + compare exit-code contract)"
BENCH_SMOKE_DIR=target/bench-smoke
rm -rf "$BENCH_SMOKE_DIR"
mkdir -p "$BENCH_SMOKE_DIR"
bench_sweep() { cargo run -q --release --offline -p sprwl-bench --bin bench-sweep -- "$@"; }
bench_compare() { cargo run -q --release --offline -p sprwl-bench --bin bench-compare -- "$@"; }
# Deterministic documents reproduce bit-exactly, so a regenerated baseline
# must carry the committed `points` unchanged: a change to det behaviour
# regenerates its baseline in the same commit. bench-compare runs first in
# each gate so a mismatch also names the metrics that moved.
same_points() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
committed, current = (json.load(open(p))["points"] for p in sys.argv[1:3])
if committed != current:
    moved = sum(a != b for a, b in zip(committed, current))
    sys.exit(f"{sys.argv[2]}: {moved} point(s) differ from {sys.argv[1]} "
             f"({len(current)} vs {len(committed)} points); regenerate the "
             "baseline if the det behaviour change is intended")
print(f"points identical to {sys.argv[1]}")
EOF
}
echo "==> trace smoke (a --capture path ending in .json gets a non-empty Chrome trace)"
rm -f target/trace-smoke.json
bench_sweep --wall --threads 2 --secs 0.05 --warmup-secs 0.01 --locks SpRWL \
    --workloads mixed-90-10 --trace ring:65536 --capture target/trace-smoke.json \
    --category tracesmoke --out "$BENCH_SMOKE_DIR" > /dev/null
test -s target/trace-smoke.json
python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["traceEvents"]' \
    target/trace-smoke.json

echo "==> figure smoke (every --figure writes a document the summarizer renders)"
for fig in fig3 fig4 fig5 fig6 fig7 ablation; do
    bench_sweep --figure "$fig" --wall --threads 2 --secs 0.02 --warmup-secs 0.01 \
        --out "$BENCH_SMOKE_DIR/figures" > /dev/null
    python3 scripts/summarize_bench.py "$BENCH_SMOKE_DIR"/figures/BENCH_"$fig"_*.json > /dev/null
done

# A small deterministic grid must emit a parsable, summarizable document.
bench_sweep --det --threads 1,2 --ops 400 --warmup-ops 50 --locks SpRWL,TLE \
    --workloads read-only,hot-key --category smoke --out "$BENCH_SMOKE_DIR" > /dev/null
SMOKE_JSON=$(ls "$BENCH_SMOKE_DIR"/BENCH_smoke_*.json)
python3 scripts/summarize_bench.py "$SMOKE_JSON" > /dev/null
# Self-diff is clean (exit 0)...
bench_compare "$SMOKE_JSON" "$SMOKE_JSON" > /dev/null
# ...and an injected throughput regression fails with exactly exit 1.
# "Any non-zero" is not good enough: exit 2 means the documents never got
# compared (parse/schema error) and exit 3 means nothing matched — a gate
# that confuses those with a regression verdict passes vacuously the day
# the schema drifts.
python3 - "$SMOKE_JSON" "$BENCH_SMOKE_DIR/regressed.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["points"]:
    p["throughput"] *= 0.4
json.dump(doc, open(sys.argv[2], "w"))
EOF
rc=0
bench_compare "$SMOKE_JSON" "$BENCH_SMOKE_DIR/regressed.json" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "bench-compare regression smoke: expected exit 1, got $rc" >&2
    exit 1
fi

echo "==> trace-overhead smoke (sampled tracing within 3% of off) + analyzer contract"
# Two single-policy sweeps over an identical deterministic grid produce
# documents with identical point keys, so bench-compare can bound the
# sampled policy's throughput cost against tracing-off directly. The
# deterministic virtual clock makes the 3% bound tight-but-stable: any
# drift here is sampling bookkeeping on the hot path, not host noise.
bench_sweep --det --threads 2 --ops 600 --warmup-ops 50 --locks SpRWL \
    --workloads mixed-90-10,hot-key --trace off \
    --category traceoff --out "$BENCH_SMOKE_DIR" > /dev/null
bench_sweep --det --threads 2 --ops 600 --warmup-ops 50 --locks SpRWL \
    --workloads mixed-90-10,hot-key --trace sampled:64:4096 \
    --capture "$BENCH_SMOKE_DIR/capture.jsonl" \
    --category tracesampled --out "$BENCH_SMOKE_DIR" > /dev/null
bench_compare "$BENCH_SMOKE_DIR"/BENCH_traceoff_*.json \
    "$BENCH_SMOKE_DIR"/BENCH_tracesampled_*.json \
    --throughput-drop-pct 3 --abort-rise-pp 5 --p99-rise-pct 50
# The committed two-policy document regenerates point for point.
TRACE_BASELINE=$(ls results/BENCH_trace_overhead_*.json | head -n 1)
bench_sweep --det --threads 1,2,4 --ops 1500 --warmup-ops 150 --schedule-seed 7 --seed 42 \
    --locks SpRWL --workloads mixed-90-10,hot-key --trace off --trace sampled:64:4096 \
    --category trace_overhead --out "$BENCH_SMOKE_DIR/trace-overhead-current" > /dev/null
TRACE_CURRENT=$(ls "$BENCH_SMOKE_DIR"/trace-overhead-current/BENCH_trace_overhead_*.json)
bench_compare "$TRACE_BASELINE" "$TRACE_CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
same_points "$TRACE_BASELINE" "$TRACE_CURRENT"
# sprwl-analyze exit contract: 0 = report with sections. The report is a
# workflow artifact; the summarizer renders its top-conflict table.
sprwl_analyze() { cargo run -q --release --offline -p sprwl-trace --bin sprwl-analyze -- "$@"; }
sprwl_analyze "$BENCH_SMOKE_DIR/capture.jsonl" --out "$BENCH_SMOKE_DIR/analyze-report.json"
python3 scripts/summarize_bench.py "$BENCH_SMOKE_DIR/analyze-report.json"
# ...1 = vacuous capture (parses, but no section lifecycles): the gate
# must distinguish "empty" from "broken" — a sampling or export bug that
# empties every capture would otherwise pass as a quiet success.
printf '{"tid":0,"ev":"trace-meta","dropped":0}\n' > "$BENCH_SMOKE_DIR/vacuous.jsonl"
rc=0
sprwl_analyze "$BENCH_SMOKE_DIR/vacuous.jsonl" > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "sprwl-analyze vacuous smoke: expected exit 1, got $rc" >&2
    exit 1
fi
# ...and 2 = unusable input (missing file, malformed line).
rc=0
sprwl_analyze "$BENCH_SMOKE_DIR/no-such-capture.jsonl" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "sprwl-analyze IO smoke: expected exit 2, got $rc" >&2
    exit 1
fi

echo "==> bravo-vs-snzi bench smoke (biased admission holds the SNZI baseline)"
# Same deterministic grid under the two reader-tracking policies. BRAVO's
# committed claim is "never worse than plain SNZI": with the bias word in
# the SNZI root's tag bits the writer's commit check costs the same line,
# and the adaptive re-arm backoff keeps revocation thrash off the
# writer-pressure shapes. Rewriting the SNZI document's lock labels lets
# bench-compare pair the points, so the thresholds read "BRAVO may not
# collapse against SNZI" on both the read-dominated and contended shapes.
bench_sweep --det --threads 2,4 --ops 800 --warmup-ops 80 --locks SNZI \
    --workloads read-only,hot-key --category snzibase --out "$BENCH_SMOKE_DIR" > /dev/null
bench_sweep --det --threads 2,4 --ops 800 --warmup-ops 80 --locks BRAVO \
    --workloads read-only,hot-key --category bravocand --out "$BENCH_SMOKE_DIR" > /dev/null
python3 - "$BENCH_SMOKE_DIR"/BENCH_snzibase_*.json "$BENCH_SMOKE_DIR/snzi-as-bravo.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for p in doc["points"]:
    p["lock"] = "BRAVO"
json.dump(doc, open(sys.argv[2], "w"))
EOF
bench_compare "$BENCH_SMOKE_DIR/snzi-as-bravo.json" "$BENCH_SMOKE_DIR"/BENCH_bravocand_*.json \
    --throughput-drop-pct 10 --abort-rise-pp 10 --p99-rise-pct 100

echo "==> det server smoke (sharded async KV service: emit twice, byte-identical, self-compare clean)"
# The whole service — hashed routing, per-shard SpRWLs, async guard
# futures, redis-shaped traffic — must produce a byte-identical document
# for the same flags: that is the determinism contract the end-to-end
# test stack (tests/server_det.rs) asserts, re-checked here through the
# real binary.
bench_sweep --server --shards 2,4 --threads 2 --ops 200 --warmup-ops 16 \
    --category serversmoke --out "$BENCH_SMOKE_DIR/srv-a" > /dev/null
bench_sweep --server --shards 2,4 --threads 2 --ops 200 --warmup-ops 16 \
    --category serversmoke --out "$BENCH_SMOKE_DIR/srv-b" > /dev/null
cmp "$BENCH_SMOKE_DIR"/srv-a/BENCH_serversmoke_*.json \
    "$BENCH_SMOKE_DIR"/srv-b/BENCH_serversmoke_*.json
bench_compare "$BENCH_SMOKE_DIR"/srv-a/BENCH_serversmoke_*.json \
    "$BENCH_SMOKE_DIR"/srv-b/BENCH_serversmoke_*.json > /dev/null
python3 scripts/summarize_bench.py "$BENCH_SMOKE_DIR"/srv-a/BENCH_serversmoke_*.json > /dev/null

echo "==> server baseline gate (regenerate the committed service grid, loose thresholds)"
SERVER_BASELINE=$(ls results/BENCH_server_*.json | head -n 1)
bench_sweep --server --shards 2,4 --threads 2,4 --ops 400 --warmup-ops 40 \
    --schedule-seed 7 --seed 42 --out "$BENCH_SMOKE_DIR/server-current" > /dev/null
SERVER_CURRENT=$(ls "$BENCH_SMOKE_DIR"/server-current/BENCH_server_*.json)
bench_compare "$SERVER_BASELINE" "$SERVER_CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
same_points "$SERVER_BASELINE" "$SERVER_CURRENT"
python3 scripts/summarize_bench.py "$SERVER_CURRENT" > /dev/null

echo "==> capacity baseline gate (big-footprint writers: the stretching ladder must keep winning)"
# Regenerate the committed capacity document (deterministic: byte-identical
# for identical flags) and gate the stretching claim three ways.
CAP_BASELINE=$(ls results/BENCH_capacity_*.json | head -n 1)
bench_sweep --capacity --threads 2 --ops 240 --schedule-seed 7 --seed 42 \
    --out "$BENCH_SMOKE_DIR/capacity-current" > /dev/null
CAP_CURRENT=$(ls "$BENCH_SMOKE_DIR"/capacity-current/BENCH_capacity_*.json)
# 1. Drift against the committed baseline: loose thresholds, then the
#    exact-points check.
bench_compare "$CAP_BASELINE" "$CAP_CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
same_points "$CAP_BASELINE" "$CAP_CURRENT"
# 2. Stretching-on vs stretching-off through bench-compare: relabel the
#    off arm's points so they pair with the stretch arm's, then require
#    the ladder not to cost throughput at loose thresholds. The abort
#    threshold stays loose on purpose — ROT retries trade cheap
#    speculative aborts for lock-serialized fallbacks, so total abort%
#    may rise while capacity aborts and throughput both improve.
python3 - "$CAP_CURRENT" "$BENCH_SMOKE_DIR/capacity-off-as-stretch.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["points"] = [p for p in doc["points"] if p["lock"] == "SpRWL"]
for p in doc["points"]:
    p["lock"] = "SpRWL+stretch"
json.dump(doc, open(sys.argv[2], "w"))
EOF
bench_compare "$BENCH_SMOKE_DIR/capacity-off-as-stretch.json" "$CAP_CURRENT" \
    --throughput-drop-pct 20 --abort-rise-pp 30 --p99-rise-pct 400
# 3. The strict claim the document is committed for: on every
#    (workload, profile) pair the stretch arm's writer capacity aborts
#    (plain + ROT) are strictly lower, and on the POWER8 points — the
#    profile whose ROT/suspend machinery the ladder targets — throughput
#    is no worse.
python3 - "$CAP_CURRENT" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
pts = {(p["workload"], p["lock"]): p for p in doc["points"]}
caps = lambda p: p["aborts"]["capacity"] + p["aborts"]["capacity-rot"]
bad = []
for (wl, lock), off in sorted(pts.items()):
    if lock != "SpRWL":
        continue
    on = pts.get((wl, "SpRWL+stretch"))
    if on is None:
        bad.append(f"{wl}: stretch arm missing")
    elif caps(on) >= caps(off):
        bad.append(f"{wl}: capacity aborts {caps(on)} !< {caps(off)}")
    elif "power8" in wl and on["throughput"] < off["throughput"]:
        bad.append(
            f"{wl}: stretch throughput {on['throughput']:.0f} < {off['throughput']:.0f}"
        )
if bad:
    sys.exit("capacity gate: " + "; ".join(bad))
print("capacity gate: stretching strictly cuts capacity aborts on every point")
EOF
python3 scripts/summarize_bench.py "$CAP_CURRENT" > /dev/null

echo "==> perf baseline gate (regenerate the committed grid, compare with loose thresholds)"
# The committed baseline is deterministic (virtual clock, fixed work), so
# point-for-point drift here is caused by code changes, not host speed.
# Thresholds are loose on purpose: the gate catches collapses (a lock
# serializing, speculation dying), not percent-level tuning.
BASELINE=$(ls results/BENCH_sweep_*.json | head -n 1)
bench_sweep --det --threads 1,2,4 --ops 1500 --warmup-ops 150 --schedule-seed 7 --seed 42 \
    --locks SpRWL,TLE,BRLock --workloads read-only,independent-write,hot-key,mixed-90-10 \
    --category sweep --out "$BENCH_SMOKE_DIR/current" > /dev/null
CURRENT=$(ls "$BENCH_SMOKE_DIR"/current/BENCH_sweep_*.json)
bench_compare "$BASELINE" "$CURRENT" \
    --throughput-drop-pct 40 --abort-rise-pp 25 --p99-rise-pct 400
same_points "$BASELINE" "$CURRENT"
python3 scripts/summarize_bench.py "$CURRENT" > /dev/null

echo "CI gate passed."
