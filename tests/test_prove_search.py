"""The prover search against the search it replaced, its guards, and why an
Unknown ended.

``oracle_prove`` (``tests/prove_oracle.py``) keys states by ``Term.key``,
keeps no letter table and works out R1's ``1 - a`` at every adjacent pair.
``kmwterm.search`` must create the same states in the same order and return
the same certificate.
"""

import random
from collections import Counter

import pytest

from mwkit import kmwterm as km
from mwkit.termparse import parse_identity

from prove_oracle import oracle_prove
from test_kmwterm import BUDGET, CORPUS


def _run_logged(search, ident, mode, cfg):
    """What ``search`` returns, and the text of each state it creates, in order."""
    states = []

    class LoggedNode(km._Node):
        def __init__(self, term, parent, step):
            super().__init__(term, parent, step)
            states.append(str(term))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_Node", LoggedNode)
        result = search(ident, mode, cfg)
    return result, states


def _assert_same_search(ident, mode, cfg):
    """The search's result and states, once they equal the oracle's."""
    result, states = _run_logged(km.search, ident, mode, cfg)
    oracle, oracle_states = _run_logged(oracle_prove, ident, mode, cfg)
    assert states == oracle_states
    assert result.proof == oracle
    if oracle is not None:
        assert result.proof.to_json() == oracle.to_json()
    return result, states


@pytest.mark.parametrize("text,mode,hyp", CORPUS)
def test_search_matches_the_oracle_on_the_corpus(text, mode, hyp):
    result, _ = _assert_same_search(parse_identity(text, hyp), mode, km.ProveConfig())
    assert result.proof is not None


@pytest.mark.parametrize("text,mode,hyp", BUDGET)
def test_search_matches_the_oracle_on_the_budget_searches(text, mode, hyp):
    result, states = _assert_same_search(parse_identity(text, hyp), mode,
                                         km.ProveConfig(max_states=2000))
    assert result.reason == "max_states" and len(states) == 2001


# letters in a and b; 1-a needs the unit(1-a) hypothesis every identity carries
_LETTERS = ["a", "b", "-1", "-a", "a*b", "a/b", "b^2", "a^-1", "1-a", "a*(1-a)"]

# identities that hold, so that some random cases end in a proof
_TEMPLATES = [
    ("<{x}*{y}> = <{x}><{y}>", "hopf"),
    ("<{x}> + <-{x}> = <1> + <-1>", "hopf"),
    ("[{x}*{y}] = [{x}] + [{y}] + eta [{x}][{y}]", "hopf"),
    ("<{x}*{y}^2> = <{x}>", "reduced"),
    ("<{x}> [{y}] = [{x}*{y}] - [{x}]", "hopf"),
    ("[a][1-a] + [{x}][{y}] = [{x}][{y}]", "hopf-steinberg"),
]


def _random_identity(rng):
    """Text and mode of an identity in a and b: an instance of a template
    that holds, or two random sides of degree 0, 1 or 2."""
    x, y = (f"({rng.choice(_LETTERS)})" for _ in range(2))
    if rng.random() < 0.5:
        template, mode = rng.choice(_TEMPLATES)
        return template.format(x=x, y=y), mode
    degree = rng.choice([0, 1, 2])

    def word():
        if degree == 0:
            return " ".join(f"<{rng.choice(_LETTERS)}>" for _ in range(rng.randint(1, 2)))
        return " ".join(f"[{rng.choice(_LETTERS)}]" for _ in range(degree))

    def side():
        text = ""
        for i in range(rng.randint(1, 3)):
            sign = "" if i == 0 else rng.choice([" + ", " - "])
            coeff = rng.choice(["", "", "2 "])
            text += f"{sign}{coeff}{word()}"
        return text

    return f"{side()} = {side()}", rng.choice(["hopf", "hopf-steinberg", "reduced"])


def test_search_matches_the_oracle_on_random_identities():
    rng = random.Random(1414)
    reasons = Counter()
    for _ in range(60):
        text, mode = _random_identity(rng)
        ident = parse_identity(text, "unit(a),unit(1-a)")
        cfg = km.ProveConfig(max_depth=rng.choice([2, 3, 4]), max_states=150)
        result, _ = _assert_same_search(ident, mode, cfg)
        reasons[result.reason] += 1
    # both outcomes, and both budgets, are compared
    assert reasons[None] >= 10 and reasons["max_states"] and reasons["max_depth"], reasons


# ---------------------------------------------------------------------------
# guards on the 10k-state budget searches


@pytest.mark.parametrize("text,mode,hyp", BUDGET)
def test_budget_search_compares_letters_by_identity(text, mode, hyp):
    ident = parse_identity(text, hyp)
    calls = Counter()
    unit_eq, one_minus, term_key = km.Unit.__eq__, km.one_minus, km.Term.key

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    terms = []

    class LoggedNode(km._Node):
        def __init__(self, term, parent, step):
            super().__init__(term, parent, step)
            terms.append(term)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_Node", LoggedNode)
        mp.setattr(km.Unit, "__eq__", counted("eq", unit_eq))
        mp.setattr(km, "one_minus", counted("one_minus", one_minus))
        mp.setattr(km.Term, "key", counted("key", term_key))
        result = km.search(ident, mode, km.ProveConfig(max_states=10000))
    assert result.proof is None and result.reason == "max_states"
    letters = set().union(*(t.letters() for t in terms))
    # equal letters are one object, so lookups rarely reach Unit.__eq__
    assert calls["eq"] <= 3000, calls
    # 1 - a is worked out once per letter, not once per adjacent pair
    assert calls["one_minus"] <= len(letters), (calls, len(letters))
    # states are keyed by their incremental hash, not by Term.key
    assert calls["key"] == 0, calls


# ---------------------------------------------------------------------------
# why a search ended


def test_search_names_the_state_budget():
    text, mode, hyp = BUDGET[0]
    result = km.search(parse_identity(text, hyp), mode, km.ProveConfig(max_states=500))
    assert (result.proof, result.reason, result.states) == (None, "max_states", 501)


def test_search_names_the_depth_budget():
    result = km.search(parse_identity("<a> = <-1>"), "hopf", km.ProveConfig(max_depth=2))
    assert (result.proof, result.reason) == (None, "max_depth")
    assert 2 < result.states <= km.ProveConfig().max_states


def test_search_names_an_exhausted_frontier():
    # neither eta nor 0 has a move in hopf mode
    result = km.search(parse_identity("eta = 0"), "hopf")
    assert (result.proof, result.reason, result.states) == (None, "frontier_exhausted", 2)


def test_search_proof_has_no_reason():
    ident = parse_identity("<a*b> = <a><b>")
    result = km.search(ident, "hopf")
    assert result.reason is None and result.proof == km.prove(ident, "hopf")
    assert result.proof.steps and result.states >= 2
    trivial = km.search(parse_identity("<a> = <a>"), "hopf")
    assert (trivial.proof.steps, trivial.reason, trivial.states) == ((), None, 1)
