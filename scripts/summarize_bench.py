#!/usr/bin/env python3
"""Summarizes benchmark captures into the comparison tables EXPERIMENTS.md
embeds. Two input shapes, both JSON:

* ``BENCH_*.json`` — a schema-versioned results document from
  ``bench-sweep`` (see ``results/SCHEMA.md``), including the paper's
  figures (``bench-sweep --figure NAME``).
* an ``sprwl-analyze`` report (detected by its ``top_pairs`` key) —
  rendered as the top-conflict/line-heat tables.

Usage: ``summarize_bench.py FILE.json``
"""
import collections
import json
import sys


def summarize_json(doc: dict) -> None:
    if doc.get("schema_version") != 1:
        sys.exit(f"unsupported schema_version {doc.get('schema_version')!r}")
    hw = doc.get("hardware", {})
    print(
        f"BENCH_{doc['category']}_{doc['date']} @ {doc['git_commit']} "
        f"({doc['mode']}, {doc['capacity_profile']}, "
        f"{hw.get('os', '?')}/{hw.get('arch', '?')}, "
        f"{len(doc['points'])} points)"
    )
    if doc.get("params"):
        print("params: " + ", ".join(f"{k}={v}" for k, v in sorted(doc["params"].items())))

    groups = collections.defaultdict(dict)
    for p in doc["points"]:
        groups[(p["workload"], p["threads"])][p["lock"]] = p
    for (workload, threads) in sorted(groups, key=str):
        locks = groups[(workload, threads)]
        best = max(locks.items(), key=lambda kv: kv[1]["throughput"])
        line = " | ".join(
            f"{name} {p['throughput'] / 1e3:.0f}k" for name, p in sorted(locks.items())
        )
        print(f"{workload} thr={threads}: {line}  [best: {best[0]}]")
    # Capacity-sweep rows: wherever a workload carries both stretch arms,
    # print the before/after contrast the capacity documents exist for —
    # writer capacity aborts (plain + ROT) and the throughput delta of
    # turning the stretching ladder on.
    for (workload, threads) in sorted(groups, key=str):
        locks = groups[(workload, threads)]
        off, on = locks.get("SpRWL"), locks.get("SpRWL+stretch")
        if not off or not on:
            continue

        def caps(p):
            return p["aborts"].get("capacity", 0) + p["aborts"].get("capacity-rot", 0)

        delta = (on["throughput"] / max(off["throughput"], 1e-9) - 1) * 100
        print(
            f"  stretch {workload} thr={threads}: capacity aborts "
            f"{caps(off)} -> {caps(on)}, tx/s {delta:+.1f}%"
        )
    for (workload, threads) in sorted(groups, key=str):
        cells = []
        for name, p in sorted(groups[(workload, threads)].items()):
            lat = p["reader_latency_ns"]
            if lat["samples"] == 0:
                continue
            cells.append(
                f"{name} {lat['p50'] / 1e3:.0f}/{lat['p95'] / 1e3:.0f}/{lat['p99'] / 1e3:.0f}"
            )
        if cells:
            print(f"  rd lat us p50/p95/p99 {workload} thr={threads}: " + " | ".join(cells))
    # Per-shard rows (schema minor >= 1, server-category points). A point
    # without a `shards` array — every pre-minor-1 document — prints nothing.
    for (workload, threads) in sorted(groups, key=str):
        for name, p in sorted(groups[(workload, threads)].items()):
            shards = p.get("shards")
            if not shards:
                continue
            cells = []
            for sh in shards:
                modes = "/".join(
                    str(sh["commit_mode"][m]) for m in ("htm", "rot", "gl", "unins")
                )
                cells.append(f"s{sh['shard']} {sh['commits']}c {sh['aborts']}a [{modes}]")
            print(
                f"  shards {workload} {name} thr={threads}: " + " | ".join(cells)
            )


def summarize_analyzer(doc: dict) -> None:
    """Renders an ``sprwl-analyze`` contention report as the tables
    EXPERIMENTS.md §7f embeds: top conflicting section pairs, cache-line
    heat with peer attribution, per-section rollups, tune decisions."""
    if doc.get("schema_version") != 1:
        sys.exit(f"unsupported analyzer schema_version {doc.get('schema_version')!r}")
    samp = doc.get("sampling")
    scale = ""
    if samp:
        scale = (
            f", sampled 1/{samp['max_rate']}"
            f" ({samp['sections_sampled']}/{samp['sections_seen']} sections kept)"
        )
    print(
        f"analyzer report: {doc['events']} events, {doc['threads']} threads, "
        f"{doc['dropped']} dropped{scale}"
    )
    if doc["top_pairs"]:
        print("top conflicting section pairs:")
        for p in doc["top_pairs"]:
            causes = ", ".join(f"{k}={v}" for k, v in sorted(p["causes"].items()))
            print(f"  sec {p['a']} x sec {p['b']}: {p['count']} aborts ({causes})")
    else:
        print("top conflicting section pairs: none")
    if doc["line_heat"]:
        print("hottest cache lines:")
        for ln in doc["line_heat"]:
            peers = ", ".join(
                f"tid{t}={n}"
                for t, n in sorted(ln["peers"].items(), key=lambda kv: (-kv[1], kv[0]))
            )
            print(f"  line {ln['line']}: {ln['count']} conflicts (winners: {peers})")
    for s in doc["sections"]:
        lat = s["latency_ns"]
        modes = ", ".join(f"{k}:{v}" for k, v in sorted(s["modes"].items()))
        print(
            f"  sec {s['sec']}: {s['reader_execs']}r/{s['writer_execs']}w execs, "
            f"abort rate {100 * s['abort_rate']:.1f}%, modes [{modes}], "
            f"lat p50/p99 {lat['p50']}/{lat['p99']}ns"
        )
    for d in doc.get("tune_decisions", []):
        print(
            f"  tune @{d['ts']} tid{d['tid']}: {d['knob']} sec {d['sec']} -> {d['value']}"
        )


def main(path: str) -> None:
    doc = json.load(open(path, encoding="utf-8"))
    if "top_pairs" in doc:
        summarize_analyzer(doc)
    else:
        summarize_json(doc)


if __name__ == "__main__":
    try:
        if len(sys.argv) != 2:
            sys.exit("usage: summarize_bench.py FILE.json")
        main(sys.argv[1])
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe early.
        sys.stderr.close()
        sys.exit(0)
