"""Measure what a group-ring vector costs in memory.

    PYTHONPATH=src python3 tools/vector_footprint.py --ring Z/29 [--count 20000]

Run from the root of an mwkit checkout.  It builds ``--count`` random
vectors on ``--ring`` from the seed ``SEED``, as the benchmark's ``query``
inputs are made: each is a vector on a random support of 1 to |U| units,
plus zero to two vectors on random supports of 1 to 4 units, with
coefficients drawn from -3..3 without 0.  It prints the keys per vector, the bytes per vector
counted by ``sys.getsizeof`` over each distinct instance and referent of
an instance other than its ring and its class, the bytes per vector that
``tracemalloc`` traces while they are built and still held after, and the
collections of each garbage-collector generation while they are built.
It reads vectors through public names and ``gc.get_referents`` only, so it
runs on any layout of ``GroupRingVector``.  A vector holds about |U|/2
keys of 16 bytes each, so keep ``--count`` small on a large ring: on
Z/65521, ``--count 20`` takes about 11 MB.  A ring spec that is missing or
does not parse prints ``error: ...`` on stderr, with exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import tracemalloc

from mwkit.errors import InputError
from mwkit.finring import parse_ring_spec
from mwkit.gwring import GroupRingVector

COEFFICIENTS = (-3, -2, -1, 1, 2, 3)
SEED = 1


def build(ring, count: int) -> list:
    """``count`` seeded vectors on ring, each a sum of vectors on random supports."""
    units = ring.units()
    rng = random.Random(SEED)

    def on_support(size: int) -> GroupRingVector:
        return GroupRingVector(ring, {u: rng.choice(COEFFICIENTS) for u in rng.sample(units, size)})

    vectors = [None] * count
    for i in range(count):
        x = on_support(rng.randint(1, len(units)))
        for _ in range(rng.randint(0, 2)):
            x = x + on_support(rng.randint(1, min(4, len(units))))
        vectors[i] = x
    return vectors


def footprint(ring, count: int) -> tuple[float, float, float, list[int]]:
    """(keys, getsizeof bytes, traced bytes) per vector, and collections per generation."""
    ring.units()  # the unit list and index are the ring's, not the vectors'
    gc.collect()
    before = [s["collections"] for s in gc.get_stats()]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vectors = build(ring, count)
        traced = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    collections = [s["collections"] - b for s, b in zip(gc.get_stats(), before)]
    seen = {id(ring), id(GroupRingVector)}
    size = 0
    for x in vectors:
        for obj in (x, *gc.get_referents(x)):
            if id(obj) not in seen:
                seen.add(id(obj))
                size += sys.getsizeof(obj)
    keys = sum(len(x.coeffs) for x in vectors)
    return keys / count, size / count, traced / count, collections


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring", help="the ring spec, such as Z/29")
    parser.add_argument("--count", type=int, default=20000,
                        help="the number of vectors (default 20000)")
    args = parser.parse_args(argv)
    if args.ring is None:
        print("error: no ring given (--ring SPEC)", file=sys.stderr)
        return 1
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return 1
    try:
        ring = parse_ring_spec(args.ring)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    keys, size, traced, collections = footprint(ring, args.count)
    print(f"ring {ring.spec_string()}, {args.count} vectors")
    print(f"keys/vector {keys:.1f}")
    print(f"bytes/vector (getsizeof) {size:.0f}")
    print(f"bytes/vector (tracemalloc) {traced:.0f}")
    print(f"collections (gen 0/1/2) {'/'.join(map(str, collections))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
