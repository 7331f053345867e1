#!/usr/bin/env python3
"""Validates a bench_json report's obs metrics, with optional regression
gating against a previous report.

Usage: check_bench_metrics.py REPORT.json [--baseline PREV.json]
                                          [--max-regress FRACTION]

Fails (exit 1) unless the report parses as JSON and every instance carries
a non-empty `metrics` block: positive `total_work` and a span tree with at
least one child under the root.

When an instance carries a `refine` A/B block (schemas v3-v10), its
invariant flags must hold: `engines_match` (incremental and naive engines
produced identical encodings) and `parallel_matches_sequential` (thread
count does not change results).

When an instance carries `eval_ab` / `enc_ab` blocks (schemas v4-v10) or an
`mv_ab` block (schemas v6-v10), their `matches` flag must hold (flat/legacy
engines and cache-on/off runs are bit-identical) and every leg must report
a positive `work` alongside its `wall_ms` — the wall-per-work fields those
legs were judged on.

Schema v11 dropped the `refine`, `eval_ab`, `enc_ab` and `mv_ab` legs
together with the engine selectors they raced (the legacy cover engine and
the naive refine engine); the checks above skip reports without the blocks
and still apply to the checked-in `BENCH_pr4`-`BENCH_pr10` reports that
carry them.

When the report carries a `serve_ab` block per instance and a `serve`
totals block (schema v5+), the warm leg must be bit-identical to the cold
leg (`matches` per instance, `mismatches == 0` in totals) and the shared
global cache must actually serve the warm run: `totals.serve.warm_hit_rate`
must be at least 0.9. A daemon whose cache warmth does not carry across
requests fails here, not in production.

When the report carries a `sat_ab` block per instance and a `totals.sat`
block (schema v7+), every non-skipped instance must hold a proven optimum
that cross-checks against the independent exact evaluator, with no
heuristic reporting a cost below it; the totals must show zero mismatches
and `proved == checked`.

When the report carries `kernel_ab` blocks and a `totals.kernel` block
(schemas v8-v9; v10 dropped the leg together with the kernel backends, and
the check skips reports without it), the Wide and Scalar kernel-backend
legs must be bit-identical
(`matches` per instance, `mismatches == 0` in totals) and the aggregate
`speedup_per_work` must be at least 1.0 — the wide backend may never be
slower per unit work than the scalar baseline. The speedup gate only
applies when the aggregate scalar leg is large enough to measure
(KERNEL_MIN_WALL_MS); smoke-sized aggregates gate on bit-identity alone.

When the report carries a top-level `stream` block (schema v9+, the
huge-tier streaming-store A/B), its invariants must hold: zero record
mismatches across the memoryless/cold/warm legs, warm store hit rate at
least 0.9, and peak live instances within the pipeline's configured bound.
The warm-over-cold speedup must be at least 5x, but only when the cold leg
is large enough to measure (STREAM_MIN_WALL_MS) — smoke-sized runs gate on
the invariants alone. A stream-only report (`--tier huge`) legitimately
has an empty `instances` list; the stream block is then required.

With `--baseline`, every (instance, encoder) pair present in both reports
is compared on `work` — the deterministic obs counter total, immune to
machine noise unlike wall time. The check fails if any pair's work grew by
more than `--max-regress` (default 0.20, i.e. +20%). Zero overlapping
pairs is a failure: a baseline of another tier (different instance names)
would otherwise pass while comparing nothing. When
both reports carry a `totals.sat` block, each encoder's `total_gap` to the
proven optima must additionally not grow at all — the corpus and the
optima are deterministic, so any growth is a real heuristic regression.
"""

import json
import sys


def parse_args(argv):
    report = None
    baseline = None
    max_regress = 0.20
    it = iter(argv)
    for arg in it:
        if arg == "--baseline":
            baseline = next(it, None)
            if baseline is None:
                raise ValueError("--baseline needs a file")
        elif arg == "--max-regress":
            val = next(it, None)
            if val is None:
                raise ValueError("--max-regress needs a fraction")
            max_regress = float(val)
        elif report is None:
            report = arg
        else:
            raise ValueError(f"unexpected argument {arg!r}")
    if report is None:
        raise ValueError("missing REPORT.json")
    return report, baseline, max_regress


def check_metrics(instances):
    for inst in instances:
        name = inst.get("name", "?")
        metrics = inst.get("metrics")
        if not isinstance(metrics, dict):
            return f"{name}: missing metrics block"
        if metrics.get("total_work", 0) <= 0:
            return f"{name}: total_work is zero"
        spans = metrics.get("spans", {})
        if not spans.get("children"):
            return f"{name}: empty span tree"
    return None


def check_refine(instances):
    for inst in instances:
        name = inst.get("name", "?")
        refine = inst.get("refine")
        if refine is None:
            continue
        if not refine.get("engines_match"):
            return f"{name}: refine engines disagree (incremental vs naive)"
        if not refine.get("parallel_matches_sequential"):
            return f"{name}: refine results depend on thread count"
        if not refine.get("runs"):
            return f"{name}: refine block has no runs"
    return None


def check_ab(instances):
    for inst in instances:
        name = inst.get("name", "?")
        for label in ("eval_ab", "enc_ab", "mv_ab", "kernel_ab"):
            ab = inst.get(label)
            if ab is None:
                continue
            if not ab.get("matches"):
                return f"{name}: {label} legs disagree (engine/cache mismatch)"
            legs = ab.get("legs")
            if not legs:
                return f"{name}: {label} block has no legs"
            for leg in legs:
                if leg.get("work", 0) <= 0:
                    return f"{name}: {label} leg {leg.get('engine')} has no work"
                if "wall_ms" not in leg:
                    return f"{name}: {label} leg {leg.get('engine')} missing wall_ms"
            hits = sum(leg.get("cache_hits", 0) for leg in legs)
            misses = sum(leg.get("cache_misses", 0) for leg in legs)
            if hits + misses <= 0:
                return f"{name}: {label} records no minimize calls"
    return None


def check_serve(report):
    """Schema v5 gate: the warm (shared global cache) leg must be
    bit-identical to the cold leg and must actually hit the cache."""
    instances = report.get("instances", [])
    seen = False
    for inst in instances:
        name = inst.get("name", "?")
        ab = inst.get("serve_ab")
        if ab is None:
            continue
        seen = True
        if not ab.get("matches"):
            return f"{name}: serve_ab warm leg diverged from cold leg"
        if ab.get("warm_hits", 0) + ab.get("warm_misses", 0) <= 0:
            return f"{name}: serve_ab warm leg recorded no minimize calls"
    if not seen:
        return None
    totals = report.get("totals", {}).get("serve")
    if not isinstance(totals, dict):
        return "serve_ab instances present but no totals.serve block"
    if totals.get("mismatches", 1) != 0:
        return f"totals.serve reports {totals.get('mismatches')} mismatches"
    rate = totals.get("warm_hit_rate", 0.0)
    if rate < 0.9:
        return (f"totals.serve.warm_hit_rate {rate:.3f} < 0.90 — the global "
                f"cache is not warming across runs")
    return None


def check_sat(report):
    """Schema v7 gate: inside the oracle's size guard the optimum must be
    proved and cross-checked, and every heuristic must sit at or above it."""
    instances = report.get("instances", [])
    seen = False
    for inst in instances:
        name = inst.get("name", "?")
        ab = inst.get("sat_ab")
        if ab is None:
            continue
        seen = True
        if ab.get("skipped"):
            continue
        if not ab.get("proved"):
            return f"{name}: sat_ab optimum was not proved (UNSAT step missing)"
        if not ab.get("oracle_matches_exact"):
            return (f"{name}: sat witness cost disagrees with the exact "
                    f"evaluator — the CNF compiler and Table I diverge")
        optimum = ab.get("optimum", 0)
        for g in ab.get("gaps", []):
            if g.get("gap", -1) < 0 or g.get("exact_cost", 0) < optimum:
                return (f"{name}: encoder {g.get('name')} reports cost "
                        f"{g.get('exact_cost')} below the proven optimum "
                        f"{optimum}")
        if not ab.get("matches"):
            return f"{name}: sat_ab mismatch"
    if not seen:
        return None
    totals = report.get("totals", {}).get("sat")
    if not isinstance(totals, dict):
        return "sat_ab instances present but no totals.sat block"
    if totals.get("mismatches", 1) != 0:
        return f"totals.sat reports {totals.get('mismatches')} mismatches"
    if totals.get("proved") != totals.get("checked"):
        return (f"totals.sat proved {totals.get('proved')} != checked "
                f"{totals.get('checked')} — some optimum is unproven")
    return None


# Below this much aggregate scalar-leg wall time the kernel A/B speedup is
# scheduler noise, not signal: a smoke run's handful of two-word instances
# totals a few milliseconds and jitters ±2% either side of parity. The
# checked-in large-tier reports (BENCH_pr9.json: >100 ms per leg) are what
# the speedup gate is for; bit-identity (mismatches == 0) is gated always.
KERNEL_MIN_WALL_MS = 25.0


def check_kernel(report):
    """Schema v8 gate: the Wide and Scalar kernel backends must be
    bit-identical on every instance (cost and work), and in aggregate the
    Wide backend's wall-per-work must not regress below Scalar's. The gate
    is on the totals, not per instance: tiny instances sit at parity (a
    couple of one/two-word minimize calls have nothing to vectorize) and
    their sub-millisecond legs are scheduler noise. The speedup check only
    applies when the aggregate is large enough to be signal (see
    KERNEL_MIN_WALL_MS)."""
    instances = report.get("instances", [])
    if not any(inst.get("kernel_ab") for inst in instances):
        return None
    totals = report.get("totals", {}).get("kernel")
    if not isinstance(totals, dict):
        return "kernel_ab instances present but no totals.kernel block"
    if totals.get("mismatches", 1) != 0:
        return f"totals.kernel reports {totals.get('mismatches')} mismatches"
    if totals.get("scalar_uncached_wall_ms", 0.0) < KERNEL_MIN_WALL_MS:
        return None
    speedup = totals.get("speedup_per_work", 0.0)
    if speedup < 1.0:
        return (f"totals.kernel.speedup_per_work {speedup:.3f} < 1.00 — the "
                f"wide kernel backend is slower per unit work than scalar")
    return None


# Below this much cold-leg wall time the stream A/B speedup is I/O and
# scheduler noise: a smoke-sized huge-tier run finishes both legs in a few
# milliseconds. The checked-in full runs are what the 5x gate is for; the
# structural invariants (mismatches, hit rate, peak-live bound) are gated
# always.
STREAM_MIN_WALL_MS = 50.0


def check_stream(report):
    """Schema v9 gate: the huge-tier streaming-store A/B. The store must
    never change a record, must actually answer the warm leg, and the
    pipeline's bounded-memory tripwire must hold."""
    stream = report.get("stream")
    if stream is None:
        return None
    if stream.get("mismatches", 1) != 0:
        return (f"stream reports {stream.get('mismatches')} record mismatches "
                f"across the memoryless/cold/warm legs")
    rate = stream.get("hit_rate", 0.0)
    if rate < 0.9:
        return (f"stream.hit_rate {rate:.3f} < 0.90 — the result store is "
                f"not answering the warm leg")
    peak = stream.get("peak_live", 1 << 60)
    bound = stream.get("live_bound", 0)
    if peak > bound:
        return (f"stream.peak_live {peak} exceeds live_bound {bound} — the "
                f"pipeline is not bounded-memory")
    legs = {leg.get("name"): leg for leg in stream.get("legs", [])}
    for name in ("memoryless", "cold", "warm"):
        if name not in legs:
            return f"stream block is missing the {name} leg"
    cold_wall = legs["cold"].get("wall_ms", 0.0)
    if cold_wall < STREAM_MIN_WALL_MS:
        return None
    speedup = stream.get("speedup", 0.0)
    if speedup < 5.0:
        return (f"stream.speedup {speedup:.2f} < 5.00 — a warm store run is "
                f"not paying for itself")
    return None


def sat_gap_map(report):
    totals = report.get("totals", {}).get("sat")
    if not isinstance(totals, dict):
        return {}
    return {g.get("name", "?"): g.get("total_gap", 0)
            for g in totals.get("gaps", [])}


def work_map(report):
    out = {}
    for inst in report.get("instances", []):
        for enc in inst.get("encoders", []):
            out[(inst.get("name", "?"), enc.get("name", "?"))] = enc.get("work", 0)
    return out


def check_baseline(report, baseline_path, max_regress):
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    old = work_map(baseline)
    new = work_map(report)
    matched = 0
    for key, old_work in sorted(old.items()):
        if key not in new or old_work <= 0:
            continue
        matched += 1
        limit = old_work * (1.0 + max_regress)
        if new[key] > limit:
            inst, enc = key
            return (
                f"{inst}/{enc}: work regressed {old_work} -> {new[key]} "
                f"(limit {limit:.0f}, +{max_regress:.0%})",
                matched,
            )
    # Optimality gaps are deterministic (fixed corpus, proven optima), so
    # any growth at all is a genuine heuristic regression — no tolerance.
    old_gaps = sat_gap_map(baseline)
    new_gaps = sat_gap_map(report)
    for enc, old_gap in sorted(old_gaps.items()):
        if enc in new_gaps and new_gaps[enc] > old_gap:
            return (
                f"{enc}: optimality gap regressed {old_gap} -> "
                f"{new_gaps[enc]} vs baseline's proven optima",
                matched,
            )
    return None, matched


def main() -> int:
    try:
        report_path, baseline_path, max_regress = parse_args(sys.argv[1:])
    except ValueError as e:
        print(f"usage: check_bench_metrics.py REPORT.json [--baseline PREV.json]"
              f" [--max-regress FRACTION] ({e})", file=sys.stderr)
        return 2
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)

    instances = report.get("instances", [])
    if not instances and report.get("stream") is None:
        print("check_bench_metrics: no instances in report", file=sys.stderr)
        return 1

    for check in (check_metrics, check_refine, check_ab):
        err = check(instances)
        if err:
            print(f"check_bench_metrics: {err}", file=sys.stderr)
            return 1
    for check in (check_serve, check_sat, check_kernel, check_stream):
        err = check(report)
        if err:
            print(f"check_bench_metrics: {err}", file=sys.stderr)
            return 1

    matched = None
    if baseline_path is not None:
        err, matched = check_baseline(report, baseline_path, max_regress)
        if err:
            print(f"check_bench_metrics: {err}", file=sys.stderr)
            return 1
        if matched == 0:
            print("check_bench_metrics: no overlapping (instance, encoder) "
                  f"pairs with the baseline {baseline_path}", file=sys.stderr)
            return 1

    refined = sum(1 for i in instances if i.get("refine"))
    msg = (f"check_bench_metrics: OK ({len(instances)} instances, "
           f"{refined} with refine A/B, "
           f"work {[i['metrics']['total_work'] for i in instances]}")
    serve = report.get("totals", {}).get("serve")
    if serve:
        msg += (f", serve warm hit rate {serve.get('warm_hit_rate', 0):.0%}"
                f" @ {serve.get('speedup', 0):.2f}x")
    sat = report.get("totals", {}).get("sat")
    if sat:
        msg += (f", sat proved {sat.get('proved', 0)}/{sat.get('checked', 0)}"
                f" optima (total {sat.get('total_optimum', 0)})")
    kern = report.get("totals", {}).get("kernel")
    if kern:
        msg += f", kernel wide {kern.get('speedup_per_work', 0):.2f}x scalar"
    stream = report.get("stream")
    if stream:
        msg += (f", stream warm {stream.get('speedup', 0):.2f}x cold"
                f" @ {stream.get('hit_rate', 0):.0%} hits"
                f" (peak live {stream.get('peak_live', 0)}"
                f"/{stream.get('live_bound', 0)})")
    if matched is not None:
        msg += f", {matched} baseline pairs within +{max_regress:.0%}"
    print(msg + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
