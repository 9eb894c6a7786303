#!/usr/bin/env python3
"""Benchmark-regression gate for the deck CI.

Compares a bench run's machine-readable JSON (the block between the
``--- json ---`` / ``--- end json ---`` markers of bench_* stdout, or a bare
JSON file) against a checked-in baseline under bench/baselines/. The gate is
deliberately restricted to *deterministic* quality metrics — certificate
sizes, CONGEST round counts, sketch copies consumed — which are seeded and
therefore reproduce exactly across machines; wall-clock fields are stripped
from baselines and never gated.

A run fails the gate when
  * any gated metric exceeds its baseline by more than --tolerance
    (default 10%),
  * any exact metric differs from its baseline at all, up or down
    (identity counters such as engine rounds/messages),
  * any boolean correctness field in the run is false, or
  * a baseline row has no matching row in the run (coverage shrank).

Refreshing a baseline after an intentional change:
  ./build/bench_f7_sketch > f7.out
  scripts/check_bench_regression.py --write-baseline f7.out bench/baselines/f7_sketch.json

Refreshing *every* gated baseline in one go (after building the benches):
  scripts/check_bench_regression.py --update-baselines --build-dir build
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

JSON_BEGIN = "--- json ---"
JSON_END = "--- end json ---"

# Per-bench gate configuration: which fields identify a row, which
# deterministic metrics must not regress (increase) beyond tolerance, and
# which ("exact", optional) must reproduce the baseline value exactly.
GATES = {
    "f1_2ecss_rounds": {
        "key": ("family", "n"),
        "metrics": ("rounds",),
    },
    "f7_sketch": {
        "key": ("family", "n", "k"),
        "metrics": ("m_certificate", "rounds_sparsified"),
    },
    "f8_shard": {
        "key": ("n", "k", "shards"),
        "metrics": ("m_certificate", "sketch_copies_used"),
    },
    # Recovery identity values: the certificate size and the copies recovery
    # reads are fixed by the seed, so any drift — up or down — is a recovery
    # change, not noise.
    "f9_recovery": {
        "key": ("n", "k", "mode", "threads"),
        "metrics": (),
        "exact": ("m_certificate", "sketch_copies_used"),
    },
    "f10_transport": {
        "key": ("n", "k", "mode", "workers"),
        "metrics": ("peak_coordinator_bytes", "m_certificate"),
    },
    "t1_2ecss_quality": {
        "key": ("family", "n"),
        "metrics": ("ratio_vs_lb",),
    },
    "t2_kecss_quality": {
        "key": ("k", "n", "weights"),
        "metrics": ("ratio_vs_lb",),
    },
    "t3_3ecss_quality": {
        "key": ("family", "n"),
        "metrics": ("ratio_vs_lb",),
    },
    "t5_weighted_3ecss": {
        "key": ("n",),
        "metrics": ("ratio_sec54_vs_lb", "ratio_sec4_vs_lb", "rounds_sec54"),
    },
    # Engine scaling: rounds/messages are identity counters — every backend
    # and unit count must reproduce them exactly, so any drift fails.
    "f11_engine": {
        "key": ("engine", "units", "n"),
        "metrics": (),
        "exact": ("rounds", "messages"),
    },
    # Gated entirely through row presence and boolean flags: within_bound
    # per hook, plus the obs-on/off engine-invariance row.
    "f12_obs_overhead": {
        "key": ("case",),
        "metrics": (),
    },
    # Failover cost: checkpoint traffic must not balloon, and every row's
    # identical_to_seq / output_2_edge_connected flag must hold (a kill that
    # perturbs the output fails the gate).
    "f13_failover": {
        "key": ("case", "interval", "workers", "frame"),
        "metrics": ("rounds", "messages", "checkpoint_bytes"),
    },
    # Continuous serving: every row's certificate must stay bit-identical to
    # the one-shot pipeline (identical_to_oneshot flag) and the certificate /
    # sketch-copy telemetry is deterministic, so it must reproduce exactly;
    # latency and throughput are volatile and never gated.
    "f14_serve": {
        "key": ("case", "policy", "point"),
        "metrics": (),
        "exact": ("m_certificate", "copies_used"),
    },
    # Batched apply: every row's bank must stay bit-identical to the
    # per-update reference loop (bank_identical_to_scalar flag) and the
    # encoded bank size is deterministic; throughput and the speedup over
    # the per-update loop are host-dependent and never gated.
    "f15_apply": {
        "key": ("n", "batch"),
        "metrics": ("bank_bytes",),
    },
    # Net-engine round wire cost: coordinator wire bytes are deterministic
    # per config and must not regress; every row must stay bit-identical to
    # the sequential engine and never exceed its fixed-format cost, and the
    # document-level delta_reduction_ok flag enforces the >= 5x
    # frontier-sparse reduction (fixed-format bytes over wire bytes, one
    # run). Wall time per round is host-dependent and never gated.
    "f16_round_wire": {
        "key": ("workload",),
        "metrics": ("wire_bytes",),
        "exact": ("rounds", "messages"),
    },
}

# Bench invocation behind each gated baseline, for --update-baselines:
# binary name plus the arguments the CI gate runs it with (baselines must be
# refreshed under the exact configuration the gate replays).
BINARIES = {
    "f1_2ecss_rounds": ("bench_f1_2ecss_rounds",),
    "f7_sketch": ("bench_f7_sketch",),
    "f8_shard": ("bench_f8_shard",),
    "f9_recovery": ("bench_f9_recovery",),
    "f10_transport": ("bench_f10_transport",),
    "t1_2ecss_quality": ("bench_t1_2ecss_quality", "--smoke"),
    "t2_kecss_quality": ("bench_t2_kecss_quality", "--smoke"),
    "t3_3ecss_quality": ("bench_t3_3ecss_quality", "--smoke"),
    "t5_weighted_3ecss": ("bench_t5_weighted_3ecss", "--smoke"),
    "f11_engine": ("bench_f11_engine",),
    "f12_obs_overhead": ("bench_f12_obs_overhead",),
    "f13_failover": ("bench_f13_failover",),
    "f14_serve": ("bench_f14_serve",),
    "f15_apply": ("bench_f15_apply",),
    "f16_round_wire": ("bench_f16_round_wire",),
}

# Wall-clock / host-dependent fields, stripped when writing baselines.
VOLATILE = ("ingest_ms", "halves_per_sec", "speedup_vs_1shard",
            "recover_ms", "speedup_vs_1thread", "sample_failure_rate",
            "ship_ms", "wall_ms",
            "bare_ns_per_op", "hook_ns_per_op", "overhead_ns_per_op",
            "updates_per_sec", "query_ms", "p50_query_ms", "p99_query_ms",
            "speedup_vs_update_loop", "wall_ms_per_round")


def extract_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if JSON_BEGIN in text:
        text = text.split(JSON_BEGIN, 1)[1].split(JSON_END, 1)[0]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path}: cannot parse bench JSON: {e}")
    if "bench" not in doc or "rows" not in doc:
        sys.exit(f"error: {path}: not a bench document (missing 'bench'/'rows')")
    return doc


def row_key(row: dict, fields: tuple) -> tuple:
    return tuple(row.get(f) for f in fields)


def check(run: dict, baseline: dict, tolerance: float) -> int:
    name = run["bench"]
    if baseline["bench"] != name:
        print(f"FAIL: bench mismatch: run is '{name}', baseline is '{baseline['bench']}'")
        return 1
    if name not in GATES:
        sys.exit(f"error: no gate configuration for bench '{name}'")
    gate = GATES[name]

    failures = 0
    run_rows = {row_key(r, gate["key"]): r for r in run["rows"]}

    for field, value in run.items():
        if isinstance(value, bool) and not value:
            print(f"FAIL: {name}: document flag '{field}' is false")
            failures += 1

    for base_row in baseline["rows"]:
        key = row_key(base_row, gate["key"])
        label = ", ".join(f"{f}={v}" for f, v in zip(gate["key"], key))
        cur = run_rows.get(key)
        if cur is None:
            print(f"FAIL: {name}: row ({label}) present in baseline but missing from run")
            failures += 1
            continue
        for field, value in cur.items():
            if isinstance(value, bool) and not value:
                print(f"FAIL: {name}: ({label}): correctness flag '{field}' is false")
                failures += 1
        for metric in gate["metrics"]:
            base_val = base_row.get(metric)
            cur_val = cur.get(metric)
            if base_val is None or cur_val is None:
                print(f"FAIL: {name}: ({label}): metric '{metric}' missing "
                      f"(baseline={base_val}, run={cur_val})")
                failures += 1
                continue
            limit = base_val * (1.0 + tolerance)
            if cur_val > limit:
                print(f"FAIL: {name}: ({label}): {metric} regressed "
                      f"{base_val} -> {cur_val} (limit {limit:.2f})")
                failures += 1
            elif cur_val < base_val:
                print(f"info: {name}: ({label}): {metric} improved {base_val} -> {cur_val}")
        for metric in gate.get("exact", ()):
            base_val = base_row.get(metric)
            cur_val = cur.get(metric)
            if base_val is None or cur_val is None or cur_val != base_val:
                print(f"FAIL: {name}: ({label}): exact metric '{metric}' changed "
                      f"(baseline={base_val}, run={cur_val})")
                failures += 1

    if failures == 0:
        exact = ", ".join(gate.get("exact", ()))
        print(f"OK: {name}: {len(baseline['rows'])} rows within {tolerance:.0%} of baseline"
              + (f", {exact} exact" if exact else ""))
    return 1 if failures else 0


def write_baseline(run: dict, out_path: str) -> None:
    doc = dict(run)
    doc["rows"] = [{k: v for k, v in row.items() if k not in VOLATILE} for row in run["rows"]]
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote baseline {out_path}: {len(doc['rows'])} rows")


def update_baselines(build_dir: str, baseline_dir: str) -> int:
    """Convenience mode: run every gated bench binary and rewrite its
    baseline. Fails if a binary is missing (build it first) or exits
    nonzero (a correctness flag tripped — never bless a broken run)."""
    import tempfile

    failures = 0
    for name, invocation in sorted(BINARIES.items()):
        binary, args = invocation[0], list(invocation[1:])
        exe = os.path.join(build_dir, binary)
        if not os.path.exists(exe):
            print(f"FAIL: {exe} not built — run `cmake --build {build_dir} --target {binary}`")
            failures += 1
            continue
        proc = subprocess.run([exe] + args, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"FAIL: {binary} exited {proc.returncode} — not writing a baseline from a "
                  f"failing run")
            failures += 1
            continue
        with tempfile.NamedTemporaryFile("w", suffix=".out", delete=False) as f:
            f.write(proc.stdout)
            capture = f.name
        try:
            write_baseline(extract_doc(capture), os.path.join(baseline_dir, f"{name}.json"))
        finally:
            os.unlink(capture)
    return 1 if failures else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("run", nargs="?", help="bench stdout capture or bare JSON document")
    p.add_argument("baseline", nargs="?",
                   help="checked-in baseline JSON (or output path with --write-baseline)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="allowed fractional increase per gated metric (default 0.10)")
    p.add_argument("--write-baseline", action="store_true",
                   help="write/refresh the baseline from the run instead of checking")
    p.add_argument("--update-baselines", action="store_true",
                   help="run every gated bench from --build-dir and rewrite all baselines")
    p.add_argument("--build-dir", default="build",
                   help="build directory holding bench binaries (--update-baselines)")
    p.add_argument("--baseline-dir", default="bench/baselines",
                   help="directory of checked-in baselines (--update-baselines)")
    args = p.parse_args()

    if args.update_baselines:
        if args.run or args.baseline:
            p.error("--update-baselines takes no run/baseline arguments")
        return update_baselines(args.build_dir, args.baseline_dir)
    if not args.run or not args.baseline:
        p.error("run and baseline are required unless --update-baselines is given")

    run = extract_doc(args.run)
    if args.write_baseline:
        write_baseline(run, args.baseline)
        return 0
    return check(run, extract_doc(args.baseline), args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
