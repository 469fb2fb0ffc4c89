"""Measure what one query call costs, and size the query batches from it.

    PYTHONPATH=src python3 perfbench/size_query.py [--target-ms 150] [--seed 1]

Run from the root of an mwkit checkout.  For every (operation, ring, kind)
case of the query workload it times a probe batch, best of seven, and
prints the cost of one call.  The batch size of each case is the target
case time divided by that cost, so every case takes about the same time:
the query workload's percentiles then sit in one cluster of cases, not in
a gap between cheap and dear ones that a new seed's inputs can move them
across.  It prints the sizes as ``QUERY_BATCH`` for ``workloads.py``, then
each case's time at the sizes in use.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PROBE = {"class_equal": 200, "torsion_exponent": 200, "eval_in_ring": 20, "product": 20}


def per_case_ms(seed: int, built: dict, batches: dict, repeats: int = 7) -> dict:
    """(ring, kind, operation) -> ms of one case at ``batches``, at its fastest.

    The cases run round-robin, so a burst of load on a shared machine
    slows one sample of many cases instead of every sample of one.
    """
    cases = workloads.query_cases(seed, built, batches)
    best = {}
    for _ in range(repeats):
        for case in cases:
            t0 = time.perf_counter()
            case.run()
            seconds = time.perf_counter() - t0
            best[case.key] = min(best.get(case.key, seconds), seconds)
    out = {}
    for key, seconds in best.items():
        op, rest = key.split(" ", 2)[1:]
        spec, kind = rest.rsplit(" ", 1)
        out[spec, kind, op] = 1000 * seconds
    return out


def _table(title: str, ms: dict, pairs, scale=lambda op, value: value) -> None:
    print(title)
    print(f"{'ring kind':24s}" + "".join(f"{op:>18s}" for op in workloads.QUERY_OPS))
    for spec, kind in pairs:
        print(f"{spec + ' ' + kind:24s}" + "".join(
            f"{scale(op, ms[spec, kind, op]):18.1f}" for op in workloads.QUERY_OPS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--target-ms", type=float, default=150.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    built = workloads.build_presentations()
    pairs = list(built)
    probe = per_case_ms(args.seed, built, {pair: PROBE for pair in pairs})
    _table(f"per-call cost, microseconds (best of 7 over a probe batch of {PROBE}):",
           probe, pairs, lambda op, value: 1000 * value / PROBE[op])
    print(f"\nbatch sizes for a case time of {args.target_ms:g} ms:")
    print("QUERY_BATCH = {")
    for spec, kind in pairs:
        sizes = {op: max(1, round(args.target_ms * PROBE[op] / probe[spec, kind, op]))
                 for op in workloads.QUERY_OPS}
        print(f"    ({spec!r}, {kind!r}): {sizes},".replace("'", '"'))
    print("}")

    now = per_case_ms(args.seed, built, workloads.QUERY_BATCH)
    _table("\ncase time, ms, at the QUERY_BATCH in use:", now, pairs)
    times = sorted(now.values())
    print(f"  median {times[len(times) // 2]:.1f} ms, range {times[0]:.1f}-{times[-1]:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
