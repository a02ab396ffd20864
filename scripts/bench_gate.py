#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh (quick-mode) BENCH_dst.json
against the committed full-window record and fail when any tracked
series regresses past the tolerance.

Usage:

    scripts/bench_gate.py CURRENT.json BASELINE.json [--tolerance 0.8]

Quick-mode rates are noisy (short measurement windows, shared CI
runners), so the default tolerance is deliberately loose: a series must
fall below ``tolerance x baseline`` — a >20% drop — to fail the gate.
The gate catches cliffs (a lost fast path, an accidental debug build,
a serialization bug in the sweep engine), not percent-level drift; the
committed BENCH_dst.json refreshed on perf PRs is the precise record.

Series whose id starts with ``allocs_per_schedule`` invert the rule:
they record steady-state heap allocations per schedule (DESIGN.md
§8.10), which is *lower*-is-better and deterministic (no measurement
noise), so the bound is tight — the series fails when the current
value exceeds ``alloc-ceiling x baseline`` (default 1.1x). A new
allocation in the simulation hot path moves this immediately; noise
cannot.

Series present in only one file are reported but never fail the gate:
the committed baseline may trail a freshly added series, and a renamed
series should fail review, not CI.

Rates are only comparable on the same seed window (the workload mix
changes with the window — see EXPERIMENTS.md); if both files carry a
``seed_window`` stanza and they disagree, the gate refuses to compare
rather than emitting false verdicts.

Rates are also only comparable on the same host: going from one core
to two moves a single universe's rate by far more than the tolerance.
Unless both files carry the same ``host`` stanza (``cores``, ``arch``),
the gate checks the deterministic ``allocs_per_schedule`` series alone
and reports every rate series as not comparable.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench gate: cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly measured BENCH json (quick mode)")
    ap.add_argument("baseline", help="committed BENCH json (full window)")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.8,
        help="fail a series below tolerance x baseline rate (default 0.8)",
    )
    ap.add_argument(
        "--alloc-ceiling",
        type=float,
        default=1.1,
        help="fail an allocs_per_schedule series above "
        "alloc-ceiling x baseline (default 1.1)",
    )
    args = ap.parse_args()

    cur = load(args.current)
    base = load(args.baseline)

    cur_win = cur.get("seed_window")
    base_win = base.get("seed_window")
    if cur_win is not None and base_win is not None and cur_win != base_win:
        sys.exit(
            f"bench gate: seed windows differ (current {cur_win}, "
            f"baseline {base_win}); rates are not comparable — refresh the "
            f"committed BENCH_dst.json on the new window first"
        )

    cur_host = cur.get("host")
    base_host = base.get("host")
    same_host = cur_host is not None and cur_host == base_host
    if not same_host:
        print(
            f"bench gate: hosts differ (current {cur_host}, baseline "
            f"{base_host}); gating allocs_per_schedule only, rates are "
            f"not comparable"
        )

    cur_results = cur.get("results", {})
    base_results = base.get("results", {})

    failed = []
    gated = 0
    for series in sorted(base_results):
        if series not in cur_results:
            print(f"  skip  {series}: not in current run")
            continue
        b = base_results[series]["rate"]
        c = cur_results[series]["rate"]
        ratio = c / b if b > 0 else float("inf")
        allocs = series.startswith("allocs_per_schedule")
        if not allocs and not same_host:
            print(f"  n/c   {series}: {c:.1f} vs baseline {b:.1f} (other host)")
            continue
        gated += 1
        if allocs:
            # Lower-is-better, deterministic: tight ceiling.
            ceiling = args.alloc_ceiling * b
            bad = c > ceiling
            verdict = "FAIL" if bad else "ok"
            print(
                f"  {verdict:>4}  {series}: {c:.1f} vs baseline {b:.1f} "
                f"({ratio:.2f}x, ceiling {ceiling:.1f})"
            )
        else:
            floor = args.tolerance * b
            bad = c < floor
            verdict = "FAIL" if bad else "ok"
            print(
                f"  {verdict:>4}  {series}: {c:.1f} vs baseline {b:.1f} "
                f"({ratio:.2f}x, floor {floor:.1f})"
            )
        if bad:
            failed.append(series)
    for series in sorted(set(cur_results) - set(base_results)):
        print(f"  skip  {series}: not in baseline")

    if failed:
        sys.exit(
            f"bench gate: {len(failed)} series regressed (throughput floor "
            f"{args.tolerance}x, alloc ceiling {args.alloc_ceiling}x): "
            f"{', '.join(failed)}"
        )
    print(f"bench gate: all {gated} gated series within tolerance")


if __name__ == "__main__":
    main()
