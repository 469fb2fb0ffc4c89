"""Ring facts the benchmark knows without asking mwkit.

Parses the ring spec forms the workloads use (Z/n, GF(p^k), GR(p^e,k),
prod(...)) into cardinality, number of units and field order, so answers
can be checked against the mathematics instead of against mwkit itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RingFacts:
    card: int
    n_units: int
    field_order: Optional[int]  # q when the ring is the field F_q


def _prime_power(text: str) -> tuple[int, int]:
    base, _, exp = text.partition("^")
    n, k = int(base), int(exp or 1)
    p = next(d for d in range(2, n + 1) if n % d == 0)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{text} is not a prime power")
    return p, e * k


def _split_top(text: str) -> list[str]:
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    return parts + [cur]


def facts(spec: str) -> RingFacts:
    spec = spec.strip()
    if spec.startswith("Z/"):
        n = int(spec[2:])
        phi, m, d = n, n, 2
        while d * d <= m:
            if m % d == 0:
                phi -= phi // d
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            phi -= phi // m
        return RingFacts(n, phi, n if phi == n - 1 else None)
    if spec.startswith("GF("):
        p, k = _prime_power(spec[3:-1].split(";")[0])
        return RingFacts(p**k, p**k - 1, p**k)
    if spec.startswith("GR("):
        pe, k = _split_top(spec[3:-1].split(";")[0])
        p, e = _prime_power(pe)
        k = int(k)
        return RingFacts(p ** (e * k), p ** (e * k) - p ** ((e - 1) * k),
                         p**k if e == 1 else None)
    if spec.startswith("prod("):
        parts = [facts(s) for s in _split_top(spec[5:-1])]
        card = n_units = 1
        for f in parts:
            card *= f.card
            n_units *= f.n_units
        return RingFacts(card, n_units, None)
    raise ValueError(f"unknown ring spec {spec!r}")
