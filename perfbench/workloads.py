"""The four workloads: their cases, inputs and answer checks.

A case is one timed unit of work.  ``run`` calls mwkit the way a user
does (``cli.main`` with stdout captured, or the public library calls) and
returns the answer's parsed fields; ``check`` returns the problems found by
checks that need no reference (the mathematics gives the answer).  Cases
with a reference key are also compared with ``reference.json``, answers
recorded from mwkit 0.1.0.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from rings import facts

HERE = Path(__file__).resolve().parent
FAMILY_FILE = "perfbench/table_family.txt"  # relative to the checkout root, where the benchmark runs

WORKLOADS = ("present", "arith", "prove", "query")

PRESENT_ARGV = [
    ["gw", "--ring", "Z/25", "--kind", "reduced"],
    ["gw", "--ring", "prod(Z/5,Z/7)", "--kind", "reduced"],
    ["gw", "--ring", "GF(2^5)", "--kind", "reduced"],
    ["gw", "--ring", "Z/37", "--kind", "reduced"],
    ["gw", "--ring", "GR(4,3)", "--kind", "reduced"],
    ["gw", "--ring", "Z/29", "--kind", "hopf"],
    ["gw", "--ring", "GF(3^3)", "--kind", "hopf"],
    ["gw", "--ring", "prod(Z/3,Z/11)", "--kind", "hopf"],
    ["compare", "--ring", "GF(2^4)"],
    ["compare", "--ring", "Z/49"],
    ["table", "--family", FAMILY_FILE],
]

ARITH_ARGV = [
    ["sumsq", "--ring", "Z/127"],
    ["sumsq", "--ring", "Z/197"],
    ["sumsq", "--ring", "GF(2^8)"],
    ["sumsq", "--ring", "GR(9,2)"],
    ["sumsq", "--ring", "prod(Z/5,GF(2^4))"],
    ["validate", "--ring", "Z/11"],
    ["validate", "--ring", "Z/13"],
    ["validate", "--ring", "GF(3^2)"],
    ["ringinfo", "--ring", "GF(2^12)"],
    ["ringinfo", "--ring", "prod(GF(2^6),Z/61)"],
]

# (identity, mode, hypotheses): the acceptance corpus plus two more
PROVE_CORPUS = [
    ("eta eps = eta", "hopf", ""),
    ("eps eta = eta", "hopf", ""),
    ("eps^2 = 1", "hopf", ""),
    ("<a*b> = <a><b>", "hopf", ""),
    ("<a> + <-a> = <1> + <-1>", "hopf", ""),
    ("eta h = 0", "hopf", ""),
    ("<-1> h = h", "hopf", ""),
    ("h^2 = 2 h", "hopf", ""),
    ("<a> + <1-a> = 1 + <a*(1-a)>", "hopf-steinberg", "unit(a),unit(1-a)"),
    ("<a*b^2> = <a>", "reduced", ""),
    ("<a><b><c> = <a*b*c>", "hopf", ""),
    ("<a*b> + <a*c> = <a>(<b> + <c>)", "hopf", ""),
]

# searches that end on the state budget, run through the library
BUDGET_STATES = 10000
BUDGET_SEARCHES = [
    ("[a][-a] = 0", "unit(a),unit(1-a)"),
    ("[a][a] = [a][-1]", "unit(a),unit(1-a)"),
    ("[a][b] = eps [b][a]", ""),
]

QUERY_RINGS = ("Z/13", "GR(4,2)", "Z/25", "prod(Z/5,Z/7)", "Z/29")
QUERY_KINDS = ("reduced", "hopf")
QUERY_OPS = ("class_equal", "torsion_exponent", "eval_in_ring", "product")
# batch size of each (ring, kind) and operation, so that every query case
# takes about 100 ms (size_query.py measures it; README.md has the table)
QUERY_BATCH = {
    ("Z/13", "reduced"): {"class_equal": 4087, "torsion_exponent": 9735, "eval_in_ring": 190, "product": 331},
    ("Z/13", "hopf"): {"class_equal": 3987, "torsion_exponent": 9523, "eval_in_ring": 161, "product": 349},
    ("GR(4,2)", "reduced"): {"class_equal": 4288, "torsion_exponent": 9217, "eval_in_ring": 45, "product": 165},
    ("GR(4,2)", "hopf"): {"class_equal": 4148, "torsion_exponent": 9124, "eval_in_ring": 52, "product": 162},
    ("Z/25", "reduced"): {"class_equal": 2463, "torsion_exponent": 5133, "eval_in_ring": 216, "product": 140},
    ("Z/25", "hopf"): {"class_equal": 2462, "torsion_exponent": 4937, "eval_in_ring": 200, "product": 136},
    ("prod(Z/5,Z/7)", "reduced"): {"class_equal": 2017, "torsion_exponent": 3419, "eval_in_ring": 70, "product": 33},
    ("prod(Z/5,Z/7)", "hopf"): {"class_equal": 1944, "torsion_exponent": 3633, "eval_in_ring": 80, "product": 31},
    ("Z/29", "reduced"): {"class_equal": 1550, "torsion_exponent": 2636, "eval_in_ring": 180, "product": 72},
    ("Z/29", "hopf"): {"class_equal": 1551, "torsion_exponent": 3067, "eval_in_ring": 186, "product": 71},
}
RELATION_POOL = 40


@dataclass
class Case:
    key: str
    run: Callable[[], object]
    check: Callable[[object], list] = lambda answer: []
    reference: bool = True
    proved: Optional[Callable[[object], bool]] = None
    inputs: object = None  # the generated inputs of a query case


# ---------------------------------------------------------------------------
# CLI cases


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of one CLI call; its diagnostics are discarded."""
    from mwkit import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _sha(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


TABLE_FIELDS = ("ring", "n_units", "minus_one_exponent", "hopf_rank", "hopf_torsion",
                "reduced_rank", "reduced_torsion", "plus_rank", "minus_rank", "comparison",
                "error")


def parse_answer(command: str, code: int, text: str):
    """Keep the answer fields of a report, so added report fields do not count."""
    if code != 0 and command != "prove":
        return {"code": code}
    data = json.loads(text)
    if command == "gw":
        keep = ("rank", "torsion", "minus_one_is_one", "split", "presentation_comparison")
    elif command == "compare":
        keep = ("extra_relations_implied", "witness")
    elif command == "sumsq":
        keep = ("minus_one_exponent", "exponents", "witnesses", "unreachable")
    elif command == "validate":
        keep = ("lattices_equal", "rank", "torsion")
    elif command == "prove":
        keep = ("status", "checked")
    elif command == "ringinfo":
        return {"code": code, "cardinality": data["cardinality"],
                "characteristic": data["characteristic"], "n_units": data["n_units"],
                "units_sha256": _sha(data["units"]),
                "unit_squares_sha256": _sha(data["unit_squares"])}
    elif command == "table":
        return {"code": code,
                "rows": [{k: row[k] for k in TABLE_FIELDS if k in row} for row in data]}
    else:
        raise ValueError(command)
    out = {"code": code}
    out.update({k: data.get(k) for k in keep})
    return out


def _field_problems(spec: str, rank, torsion, comparison, minus_one_exp="skip") -> list:
    """Independent facts for a field F_q, q >= 4."""
    q = facts(spec).field_order
    if q is None or q < 4:
        return []
    problems = []
    want_torsion = [2] if q % 2 else []
    if rank is not None and (rank, list(torsion)) != (1, want_torsion):
        problems.append(f"{spec}: rank/torsion {rank}/{torsion}, expected 1/{want_torsion}")
    if comparison is not None and comparison is not True:
        problems.append(f"{spec}: comparison {comparison}, expected true")
    if minus_one_exp != "skip":
        want = 0 if q % 2 == 0 or q % 4 == 1 else 1
        if minus_one_exp != want:
            problems.append(f"{spec}: -1 has exponent {minus_one_exp}, expected {want}")
    return problems


def check_cli(argv, answer) -> list:
    command = argv[0]
    if answer.get("code") != 0:
        return [f"exit code {answer.get('code')}"]
    spec = argv[argv.index("--ring") + 1] if "--ring" in argv else None
    if command == "gw":
        return _field_problems(spec, answer["rank"], answer["torsion"],
                               answer["presentation_comparison"])
    if command == "compare":
        return _field_problems(spec, None, None, answer["extra_relations_implied"])
    if command == "sumsq":
        return _field_problems(spec, None, None, None, answer["minus_one_exponent"])
    if command == "validate":
        if (answer["lattices_equal"], answer["rank"], answer["torsion"]) != (True, 1, [2]):
            return [f"{spec}: validate gave {answer}"]
        return []
    if command == "ringinfo":
        f = facts(spec)
        if (answer["cardinality"], answer["n_units"]) != (f.card, f.n_units):
            return [f"{spec}: cardinality/units {answer['cardinality']}/{answer['n_units']}"]
        return []
    if command == "table":
        problems = []
        for row in answer["rows"]:
            problems += _field_problems(row["ring"], row["reduced_rank"],
                                        row["reduced_torsion"], row["comparison"],
                                        row["minus_one_exponent"])
            problems += _field_problems(row["ring"], row["hopf_rank"], row["hopf_torsion"], None)
        return problems
    return []


def cli_case(argv) -> Case:
    def run():
        code, text = run_cli(argv)
        return parse_answer(argv[0], code, text)

    return Case(" ".join(argv), run, lambda answer: check_cli(argv, answer))


# ---------------------------------------------------------------------------
# prove


def _prove_argv(text, mode, hyp):
    return ["prove", text, "--mode", mode] + (["--hyp", hyp] if hyp else [])


def corpus_case() -> Case:
    def run():
        results = []
        for text, mode, hyp in PROVE_CORPUS:
            code, out = run_cli(_prove_argv(text, mode, hyp))
            results.append(dict(identity=text, **parse_answer("prove", code, out)))
        return {"results": results}

    def check(answer):
        # every certificate must replay: the CLI reports check_proof's verdict
        return [f"{r['identity']}: {r}" for r in answer["results"]
                if (r["code"], r["status"], r["checked"]) != (0, "proved", True)]

    return Case("prove corpus", run, check,
                proved=lambda answer: not check(answer))


def budget_case(text: str, hyp: str) -> Case:
    def run():
        from mwkit import kmwterm, termparse

        identity = termparse.parse_identity(text, hyp)
        proof = kmwterm.prove(identity, "hopf-steinberg",
                              kmwterm.ProveConfig(max_states=BUDGET_STATES))
        checked = bool(kmwterm.check_proof(proof)) if proof is not None else None
        return {"status": "unknown" if proof is None else "proved", "checked": checked}

    def check(answer):
        if answer["status"] == "proved" and answer["checked"] is not True:
            return [f"{text}: certificate rejected by check_proof"]
        return []

    return Case(f"prove-budget {text} | {hyp}", run, check,
                proved=lambda answer: answer["status"] == "proved" and answer["checked"])


# ---------------------------------------------------------------------------
# query: seeded reads against prebuilt lattices


def build_presentations() -> dict:
    from mwkit import finring, gwring

    built = {}
    for spec in QUERY_RINGS:
        ring = finring.make_ring(spec)
        for kind in QUERY_KINDS:
            built[(spec, kind)] = gwring.present(ring, kind)
    return built


def _vec(ring, pairs):
    from mwkit.gwring import GroupRingVector

    coeffs: dict = {}
    for c, u in pairs:
        coeffs[u] = coeffs.get(u, 0) + c
    return GroupRingVector(ring, coeffs)


def _random_vec(rng, ring, units, size=None):
    """Support of any size up to |U|, so queries meet every pivot of the
    lattice; of exactly ``size`` units when given."""
    size = size or rng.randint(1, len(units))
    return _vec(ring, [(rng.choice((-3, -2, -1, 1, 2, 3)), u)
                       for u in rng.sample(units, size)])


def relation(rng, ring, units, kind):
    """A random unit translate of a family (i)-(iii) row, built here, not by mwkit."""
    one, minus_one = ring.one, -ring.one
    families = ("i", "ii", "iii") if kind == "reduced" else ("ii", "iii")
    fam = rng.choice(families)
    a = rng.choice(units)
    if fam == "iii":
        for _ in range(20):
            b = rng.choice(units)
            s = a + b
            if s.is_unit():
                terms = [(1, a), (1, b), (-1, s), (-1, s * a * b)]
                break
        else:
            fam = "ii"
    if fam == "ii":
        terms = [(1, a), (1, -a), (-1, one), (-1, minus_one)]
    elif fam == "i":
        b = rng.choice(units)
        terms = [(1, a * b * b), (-1, a)]
    u = rng.choice(units)
    return _vec(ring, [(c, u * t) for c, t in terms])


def random_relation(rng, pool):
    """A small integer combination of rows drawn from a pool of ``relation`` rows."""
    from mwkit.gwring import GroupRingVector

    r = GroupRingVector.zero(pool[0].ring)
    for _ in range(rng.randint(1, 3)):
        r = r + rng.choice((-2, -1, 1, 2)) * rng.choice(pool)
    return r


def _augmentation(x) -> int:
    return sum(x.coeffs.values())


def _convolve(x, y) -> dict:
    out: dict = {}
    for u, cu in x.coeffs.items():
        for v, cv in y.coeffs.items():
            w = u * v
            out[w] = out.get(w, 0) + cu * cv
    return {k: c for k, c in out.items() if c}


def _prime_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


VARS = ("a", "b", "c")


def _random_term(rng, ring, units):
    """A degree-0 term sum c_i prod_j <m_ij>, its assignment, and its value in Z[U]."""
    from mwkit import kmwterm as km

    values = {v: rng.choice(units) for v in VARS}
    term = km.zero()
    expected: dict = {}
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice((-2, -1, 1, 2, 3))
        prod_term = km.integer(1)
        prod_val = ring.one
        for _ in range(rng.randint(1, 3)):
            unit, val = km.UNIT_ONE, ring.one
            for v in rng.sample(VARS, rng.randint(1, 2)):
                e = rng.choice((1, -1))
                unit = unit * km.uvar(v) ** e
                val = val * (values[v] if e == 1 else values[v].inverse())
            if rng.random() < 0.3:
                unit, val = -unit, -val
            prod_term = prod_term * km.angle(unit)
            prod_val = prod_val * val
        term = term + coeff * prod_term
        expected[prod_val] = expected.get(prod_val, 0) + coeff
    return term, values, {k: c for k, c in expected.items() if c}


def query_cases(seed: int, built: dict, batches: Optional[dict] = None) -> list:
    """Generate every query case's inputs; untimed, outside any trace.

    ``batches`` maps (ring, kind) to each operation's batch size."""
    batches = batches or QUERY_BATCH
    from mwkit import gwring, kmwterm

    cases = []
    for (spec, kind), p in built.items():
        batch = batches[spec, kind]
        ring, units = p.ring, p.units
        tag = f"{spec} {kind}"
        rng = random.Random(f"{seed}:{tag}")
        pool = [relation(rng, ring, units, kind) for _ in range(RELATION_POOL)]

        pairs = []
        for _ in range(batch["class_equal"]):
            x = _random_vec(rng, ring, units)
            y = x + random_relation(rng, pool)
            same = rng.random() < 0.5
            if not same:  # augmentation differs by one, so the classes differ
                y = y + _vec(ring, [(1, rng.choice(units))])
            pairs.append((x, y, same))

        def run_ce(p=p, pairs=pairs):
            return [p.class_equal(x, y) for x, y, _ in pairs]

        def check_ce(answer, pairs=pairs):
            bad = sum(a != want for a, (_, _, want) in zip(answer, pairs))
            return [f"{bad} class_equal answers wrong"] if bad else []

        xs = []
        for _ in range(batch["torsion_exponent"]):
            x = _random_vec(rng, ring, units)
            if rng.random() < 0.5:  # augmentation 0: a torsion class when the rank is 1
                x = x - _augmentation(x) * _vec(ring, [(1, rng.choice(units))])
            xs.append(x)

        def run_te(p=p, xs=xs):
            return [p.torsion_exponent(x) for x in xs]

        def check_te(answer, p=p, xs=xs):
            zero = gwring.GroupRingVector.zero(p.ring)
            exponent = p.torsion[-1] if p.torsion else 1
            bad = 0
            for order, x in zip(answer, xs):
                if order is None:
                    ok = (_augmentation(x) != 0
                          or not p.class_equal(exponent * x, zero))
                else:
                    ok = (_augmentation(x) == 0 and exponent % order == 0
                          and p.class_equal(order * x, zero)
                          and not any(p.class_equal((order // q) * x, zero)
                                      for q in _prime_factors(order)))
                bad += not ok
            return [f"{bad} torsion exponents wrong"] if bad else []

        terms = [_random_term(rng, ring, units) for _ in range(batch["eval_in_ring"])]

        def run_ev(ring=ring, terms=terms):
            return [kmwterm.eval_in_ring(t, ring, values).coeffs for t, values, _ in terms]

        def check_ev(answer, terms=terms):
            bad = sum(got != want for got, (_, _, want) in zip(answer, terms))
            return [f"{bad} evaluations wrong"] if bad else []

        triples = []
        for _ in range(batch["product"]):
            # half of U in each factor: a product costs |supp x| * |supp y|, and
            # free sizes would make a case's cost swing with the seed
            half = (len(units) + 1) // 2
            x, y = _random_vec(rng, ring, units, half), _random_vec(rng, ring, units, half)
            triples.append((x, y, y + random_relation(rng, pool)))

        def run_pr(p=p, triples=triples):
            out = []
            for x, y, y2 in triples:
                z = gwring.mul(x, y)
                out.append((z.coeffs, p.class_equal(z, gwring.mul(x, y2))))
            return out

        def check_pr(answer, triples=triples):
            # the product is the convolution, and it descends to the quotient
            bad = sum(coeffs != _convolve(x, y) or not descends
                      for (coeffs, descends), (x, y, _) in zip(answer, triples))
            return [f"{bad} products wrong"] if bad else []

        cases += [
            Case(f"query class_equal {tag}", run_ce, check_ce, False, inputs=pairs),
            Case(f"query torsion_exponent {tag}", run_te, check_te, False, inputs=xs),
            Case(f"query eval_in_ring {tag}", run_ev, check_ev, False, inputs=terms),
            Case(f"query product {tag}", run_pr, check_pr, False, inputs=triples),
        ]
    return cases


# ---------------------------------------------------------------------------


def fixed_cases(workload: str) -> list:
    if workload == "present":
        return [cli_case(a) for a in PRESENT_ARGV]
    if workload == "arith":
        return [cli_case(a) for a in ARITH_ARGV]
    if workload == "prove":
        return [corpus_case()] + [budget_case(t, h) for t, h in BUDGET_SEARCHES]
    raise ValueError(f"unknown workload {workload!r}")


def ordered(cases: list, seed: int) -> list:
    cases = list(cases)
    random.Random(seed).shuffle(cases)
    return cases


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def problems(case: Case, answer, reference: dict) -> list:
    """Everything wrong with an answer: reference mismatch plus failed checks."""
    out = []
    if case.reference:
        want = reference.get(case.key)
        got = json.loads(json.dumps(answer))
        if want is None:
            out.append("no reference answer")
        elif got != want:
            out.append("differs from the reference answer")
    return out + case.check(answer)
