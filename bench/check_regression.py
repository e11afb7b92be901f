#!/usr/bin/env python3
"""Bench-regression gate: compare fresh BENCH_*.json snapshots to baselines.

Usage:
    check_regression.py BASELINE FRESH [--tolerance 0.25] [--min-seconds 0.005]
                        [--update]

Compares a freshly produced ``BENCH_parallel.json`` or ``BENCH_metrics.json``
(both emitted by ``bench_table4_ablation_timing``; the metrics file needs
``NERGLOB_METRICS=1``) against the checked-in baseline under
``bench/baselines/`` and exits non-zero on a regression.

Machine portability: every snapshot embeds ``calibration_seconds`` — the wall
time of a fixed serial FMA loop measured by the same binary in the same run
(``bench::CalibrationSeconds()``). All timings are divided by their own
file's calibration before comparison, so the gate measures slowdown relative
to the machine's scalar speed, not absolute seconds. A GEMM or stage that got
algorithmically slower still shows up, because the calibration loop does not
use the code under test.

Checks applied:
  * BENCH_parallel.json — ``deterministic`` must be true; per-thread-count
    ``local_seconds``/``global_seconds`` (normalized) must not exceed the
    baseline by more than ``--tolerance``.
  * BENCH_metrics.json — the five pipeline stage histograms
    (local_ner, mention_extraction, phrase_embed, cluster, classify) must be
    present with nonzero counts; their wall-time sums plus ``gemm.wall_seconds``
    (normalized) are compared like above.
  * BENCH_streaming.json (schema ``nerglob.streaming.v1``) —
    ``cold_start.load_ok`` must be true;
    the per-batch walls (batch5/batch50) and the cold-start save/load
    seconds are compared (normalized) like above. ``cold_start.bundle_bytes``
    is compared un-normalized: the on-disk ``.ngb`` artifact must not grow
    past the baseline by more than ``--tolerance`` at the same scale.
  * BENCH_kernels.json (schema ``nerglob.kernels.v1``) — ``parity_ok``
    must be true (generic and AVX2 tiers bit-identical on the bench
    shapes) and ``allocs.arena_allocs_per_message`` must be exactly 0
    (the steady-state zero-allocation contract). When the fresh run's
    host has real AVX2 (``cpu_avx2`` and ``built_with_avx2``),
    ``gemm_d64_speedup`` must stay at or above ``--min-gemm-speedup``.
    Per-kernel generic/avx2 seconds are compared (normalized) like above.
  * BENCH_serve.json (schema ``nerglob.serve.v2``) — ``deterministic``
    must be true (concurrent serving byte-identical to single-threaded
    replay). When the fresh run's host reports at least 8
    ``hardware_threads``, ``speedup_8x8_over_1x1`` must stay at or above
    ``--min-serve-speedup`` (scaling gives nothing on a 1-core CI box, so
    the floor is hardware-gated like the kernels speedup). The per-point
    ``serve_<sessions>x<shards>.wall_seconds`` timings are compared
    (normalized) like above.
  * BENCH_cache.json (schema ``nerglob.cache.v1``) —
    ``bit_identical_cache`` and ``bit_identical_dedup`` must be true
    (encode-cache hits and intra-batch dedup byte-identical to the
    uncached/un-deduped reference path; these gates are never
    hardware-conditional), and the duplication-factor-4 sweep point's
    ``speedup_steady`` must stay at or above ``--min-cache-speedup``
    (also unconditional: a steady-state hit skips the whole forward
    pass regardless of core count). The per-factor
    ``cache_f<factor>.{baseline,dedup,cold,steady}_seconds`` timings
    are compared (normalized) like above, but with a raised noise floor
    (>= 0.02s) — they are single EncodeMany passes, small enough that a
    scheduler hiccup on a shared runner is a >25% outlier.

Entries whose *baseline* raw time is below ``--min-seconds`` are skipped:
they sit at clock-noise level and would make the gate flaky.

``--update`` rewrites the baseline from the fresh file instead of comparing
(use after an intentional perf change; commit the result).
"""

import argparse
import json
import shutil
import sys

REQUIRED_STAGES = (
    "local_ner",
    "mention_extraction",
    "phrase_embed",
    "cluster",
    "classify",
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def calibration(doc, path):
    cal = doc.get("calibration_seconds", 0.0)
    if not isinstance(cal, (int, float)) or cal <= 0.0:
        sys.exit(f"ERROR: {path} has no positive calibration_seconds")
    return float(cal)


def parallel_timings(doc):
    """{(threads, key): seconds} from a BENCH_parallel.json sweep."""
    out = {}
    for point in doc.get("sweep", []):
        threads = point.get("threads")
        for key in ("local_seconds", "global_seconds"):
            if key in point:
                out[(threads, key)] = float(point[key])
    return out


def metrics_timings(doc, path):
    """{name: histogram sum seconds} for the gated stage + gemm histograms."""
    metrics = doc.get("metrics", {})
    histograms = metrics.get("histograms", {})
    out = {}
    missing = []
    for stage in REQUIRED_STAGES:
        name = f"stage.{stage}.wall_seconds"
        hist = histograms.get(name)
        if hist is None or hist.get("count", 0) == 0:
            missing.append(name)
        else:
            out[name] = float(hist["sum"])
    if missing:
        sys.exit(
            f"ERROR: {path} is missing populated stage histograms: "
            + ", ".join(missing)
        )
    gemm = histograms.get("gemm.wall_seconds")
    if gemm is None or gemm.get("count", 0) == 0:
        sys.exit(f"ERROR: {path} is missing a populated gemm.wall_seconds")
    out["gemm.wall_seconds"] = float(gemm["sum"])
    return out


def streaming_timings(doc, path):
    """{name: seconds} for the gated BENCH_streaming.json entries."""
    cold = doc.get("cold_start", {})
    if cold.get("load_ok") is not True:
        sys.exit(f"FAIL: {path} reports cold_start.load_ok=false")
    out = {}
    for key in ("batch5_seconds", "batch50_seconds"):
        if key in doc:
            out[key] = float(doc[key])
    for key in ("retrain_seconds", "bundle_save_seconds", "bundle_load_seconds"):
        if key in cold:
            out[f"cold_start.{key}"] = float(cold[key])
    return out


def kernels_timings(doc, path, min_gemm_speedup):
    """{name: seconds} for BENCH_kernels.json, after its hard gates."""
    if doc.get("parity_ok") is not True:
        sys.exit(f"FAIL: {path} reports parity_ok=false (tiers diverged)")
    allocs = doc.get("allocs", {})
    per_message = allocs.get("arena_allocs_per_message")
    if per_message != 0:
        sys.exit(
            f"FAIL: {path} reports arena_allocs_per_message={per_message} "
            "(steady-state streaming must not grow the scratch arena)"
        )
    if doc.get("cpu_avx2") and doc.get("built_with_avx2"):
        speedup = float(doc.get("gemm_d64_speedup", 0.0))
        if speedup < min_gemm_speedup:
            sys.exit(
                f"FAIL: {path} gemm_d64_speedup={speedup:.2f}x is below the "
                f"{min_gemm_speedup:.2f}x floor on an AVX2-capable host"
            )
    # On hosts without real AVX2 the avx2 table aliases the generic one, so
    # its timings are meaningless against an AVX2 baseline — compare only
    # generic_seconds there (the set intersection drops the avx2 entries).
    keys = ("generic_seconds", "avx2_seconds")
    if not (doc.get("cpu_avx2") and doc.get("built_with_avx2")):
        keys = ("generic_seconds",)
    out = {}
    for entry in doc.get("kernels", []):
        name = entry.get("name")
        for key in keys:
            if name and key in entry:
                out[f"{name}.{key}"] = float(entry[key])
    return out


def serve_timings(doc, path, min_serve_speedup):
    """{name: seconds} for BENCH_serve.json, after its hard gates."""
    if doc.get("deterministic") is not True:
        sys.exit(
            f"FAIL: {path} reports deterministic=false (concurrent serving "
            "diverged from single-threaded replay)"
        )
    # The throughput floor only means something with real cores to scale
    # across; a 1-core container legitimately reports ~1x.
    if doc.get("hardware_threads", 0) >= 8:
        speedup = float(doc.get("speedup_8x8_over_1x1", 0.0))
        if speedup < min_serve_speedup:
            sys.exit(
                f"FAIL: {path} speedup_8x8_over_1x1={speedup:.2f}x is below "
                f"the {min_serve_speedup:.2f}x floor on a >=8-thread host"
            )
    out = {}
    for point in doc.get("matrix", []):
        sessions = point.get("sessions")
        shards = point.get("shards")
        if sessions is None or shards is None or "wall_seconds" not in point:
            continue
        out[f"serve_{sessions}x{shards}.wall_seconds"] = float(point["wall_seconds"])
    for key in ("p50_latency_seconds", "p99_latency_seconds"):
        if key in doc:
            out[key] = float(doc[key])
    return out


def cache_timings(doc, path, min_cache_speedup):
    """{name: seconds} for BENCH_cache.json, after its hard gates."""
    if doc.get("bit_identical_cache") is not True:
        sys.exit(
            f"FAIL: {path} reports bit_identical_cache=false (a cache hit "
            "diverged from the uncached reference encode)"
        )
    if doc.get("bit_identical_dedup") is not True:
        sys.exit(
            f"FAIL: {path} reports bit_identical_dedup=false (intra-batch "
            "dedup diverged from the per-slot reference encode)"
        )
    out = {}
    factor4_speedup = None
    for point in doc.get("sweep", []):
        factor = point.get("factor")
        if factor is None:
            continue
        if factor == 4:
            factor4_speedup = float(point.get("speedup_steady", 0.0))
        for key in ("baseline_seconds", "dedup_seconds", "cold_seconds",
                    "steady_seconds"):
            if key in point:
                out[f"cache_f{factor}.{key}"] = float(point[key])
    if factor4_speedup is None:
        sys.exit(f"ERROR: {path} has no duplication-factor-4 sweep point")
    # Unconditional floor: steady-state hits skip the entire forward pass,
    # so the win does not depend on core count the way the serve floors do.
    if factor4_speedup < min_cache_speedup:
        sys.exit(
            f"FAIL: {path} speedup_steady={factor4_speedup:.2f}x at "
            f"duplication factor 4 is below the {min_cache_speedup:.2f}x floor"
        )
    return out


def check_bundle_bytes(base_doc, fresh_doc, tolerance):
    """Size gate: the saved artifact must not grow past the baseline."""
    base = base_doc.get("cold_start", {}).get("bundle_bytes", 0)
    fresh = fresh_doc.get("cold_start", {}).get("bundle_bytes", 0)
    if base <= 0 or fresh <= 0:
        sys.exit("ERROR: snapshots are missing a positive cold_start.bundle_bytes")
    ratio = fresh / base
    verdict = "ok"
    if ratio > 1.0 + tolerance:
        verdict = "REGRESSION"
    print(
        f"{'cold_start.bundle_bytes':<44} {base:>9} {fresh:>9} "
        f"{ratio:>7.2f}  {verdict}"
    )
    return [] if verdict == "ok" else [("cold_start.bundle_bytes", ratio)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="max allowed relative slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        help="skip entries whose baseline raw time is below this (noise floor)",
    )
    parser.add_argument(
        "--min-gemm-speedup",
        type=float,
        default=1.5,
        help="kernels kind: minimum gemm_d64_speedup on AVX2-capable hosts",
    )
    parser.add_argument(
        "--min-serve-speedup",
        type=float,
        default=2.0,
        help="serve kind: minimum speedup_8x8_over_1x1 on >=8-thread hosts",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=2.0,
        help="cache kind: minimum steady-state speedup at duplication factor 4",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baseline with the fresh snapshot and exit",
    )
    args = parser.parse_args()

    if args.update:
        shutil.copyfile(args.fresh, args.baseline)
        print(f"baseline updated: {args.fresh} -> {args.baseline}")
        return 0

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)

    def kind(doc):
        schema = str(doc.get("schema", ""))
        if schema.startswith("nerglob.streaming"):
            return "streaming"
        if schema.startswith("nerglob.kernels"):
            return "kernels"
        if schema.startswith("nerglob.serve"):
            return "serve"
        if schema.startswith("nerglob.cache"):
            return "cache"
        return "metrics" if "metrics" in doc else "parallel"

    if kind(base_doc) != kind(fresh_doc):
        sys.exit("ERROR: baseline and fresh snapshots are different kinds")

    if kind(fresh_doc) == "parallel" and fresh_doc.get("deterministic") is not True:
        sys.exit("FAIL: fresh BENCH_parallel.json reports deterministic=false")

    base_cal = calibration(base_doc, args.baseline)
    fresh_cal = calibration(fresh_doc, args.fresh)

    if kind(fresh_doc) == "streaming":
        base = streaming_timings(base_doc, args.baseline)
        fresh = streaming_timings(fresh_doc, args.fresh)
    elif kind(fresh_doc) == "kernels":
        base = kernels_timings(base_doc, args.baseline, args.min_gemm_speedup)
        fresh = kernels_timings(fresh_doc, args.fresh, args.min_gemm_speedup)
    elif kind(fresh_doc) == "serve":
        base = serve_timings(base_doc, args.baseline, args.min_serve_speedup)
        fresh = serve_timings(fresh_doc, args.fresh, args.min_serve_speedup)
    elif kind(fresh_doc) == "cache":
        base = cache_timings(base_doc, args.baseline, args.min_cache_speedup)
        fresh = cache_timings(fresh_doc, args.fresh, args.min_cache_speedup)
    elif kind(fresh_doc) == "metrics":
        base = metrics_timings(base_doc, args.baseline)
        fresh = metrics_timings(fresh_doc, args.fresh)
    else:
        base = parallel_timings(base_doc)
        fresh = parallel_timings(fresh_doc)

    shared = sorted(set(base) & set(fresh), key=str)
    if not shared:
        sys.exit("ERROR: no comparable timing entries between the snapshots")

    # The cache bench's load-bearing gates (bit-identity, the factor-4
    # steady-state speedup floor) are enforced inside cache_timings and are
    # within-run, so scheduler noise cannot flip them. Its raw per-entry
    # times are single EncodeMany passes — ~5ms at CI scale, where one
    # scheduler hiccup on a shared runner is a >25% outlier even min-of-N —
    # so cross-run comparison only carries signal well above the default
    # noise floor.
    min_seconds = args.min_seconds
    if kind(fresh_doc) == "cache":
        min_seconds = max(min_seconds, 0.02)

    failures = []
    print(f"{'entry':<44} {'base':>9} {'fresh':>9} {'ratio':>7}  verdict")
    if kind(fresh_doc) == "streaming":
        failures += check_bundle_bytes(base_doc, fresh_doc, args.tolerance)
    for key in shared:
        label = key if isinstance(key, str) else f"threads={key[0]} {key[1]}"
        if base[key] < min_seconds:
            print(
                f"{label:<44} {base[key]:>9.4f} {fresh[key]:>9.4f} "
                f"{'-':>7}  skipped (below noise floor)"
            )
            continue
        ratio = (fresh[key] / fresh_cal) / (base[key] / base_cal)
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append((label, ratio))
        elif ratio < 1.0 - args.tolerance:
            verdict = "faster (consider --update)"
        print(
            f"{label:<44} {base[key]:>9.4f} {fresh[key]:>9.4f} "
            f"{ratio:>7.2f}  {verdict}"
        )

    if failures:
        print(
            f"\nFAIL: {len(failures)} entr{'y' if len(failures) == 1 else 'ies'} "
            f"slower than baseline by more than {args.tolerance:.0%}:"
        )
        for label, ratio in failures:
            print(f"  {label}: {ratio:.2f}x normalized")
        return 1
    print("\nPASS: no timing regression beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
