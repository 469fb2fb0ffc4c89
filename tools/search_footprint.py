"""Measure what a state of the prover's search costs, in time and memory.

    PYTHONPATH=src python3 tools/search_footprint.py [--max-states 10000]

Run from the root of an mwkit checkout.  For each of the three searches
that end on their state budget (the ``budget`` list of
``tests/prove_golden.json``) it runs ``kmwterm.search`` twice at
``--max-states``: once timed, and once under ``tracemalloc`` for the peak
of the bytes allocated while it runs.  One line per search prints the
states it reached, the seconds of the timed run, states per second and
the traced peak in bytes per state.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

from mwkit import kmwterm
from mwkit.termparse import parse_identity

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "prove_golden.json"


def footprint(identity, mode: str, max_states: int) -> tuple[int, float, int]:
    """(states, seconds, traced peak bytes) of one search."""
    cfg = kmwterm.ProveConfig(max_states=max_states)
    gc.collect()
    t0 = time.perf_counter()
    states = kmwterm.search(identity, mode, cfg).states
    seconds = time.perf_counter() - t0
    gc.collect()
    tracemalloc.start()
    try:
        kmwterm.search(identity, mode, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return states, seconds, peak


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-states", type=int, default=10000,
                        help="the state budget of each search (default 10000)")
    args = parser.parse_args(argv)
    budget = json.loads(GOLDEN.read_text(encoding="utf-8"))["budget"]
    print(f"{'identity':<22} {'mode':<15} {'states':>8} {'seconds':>8} {'states/s':>9} "
          f"{'bytes/state':>11}")
    for case in budget:
        identity = parse_identity(case["identity"], case["hyp"])
        states, seconds, peak = footprint(identity, case["mode"], args.max_states)
        print(f"{case['identity']:<22} {case['mode']:<15} {states:>8} {seconds:>8.3f} "
              f"{states / seconds:>9.0f} {peak / states:>11.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
