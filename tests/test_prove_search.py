"""The prover search against the search it replaced, its guards, and why an
Unknown ended.

``oracle_prove`` (``tests/prove_oracle.py``) runs on ``Unit`` letters, keys
states by ``Term.key``, keeps no letter table and works out R1's ``1 - a``
at every adjacent pair.  ``kmwterm.search`` must create the same states in
the same order and return the same certificate.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import prove_oracle
from mwkit import kmwterm as km
from mwkit.termparse import parse_identity

from prove_oracle import oracle_prove
from test_kmwterm import BUDGET, CORPUS


def logged_search(ident, mode, cfg):
    """What ``kmwterm.search`` returns, and the decoded text of each state
    it creates, in order."""
    created, tables = [], []

    class LoggedNode(km._Node):
        def __init__(self, words, parent, step):
            super().__init__(words, parent, step)
            created.append(words)

    class LoggedLetters(km._Letters):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_Node", LoggedNode)
        mp.setattr(km, "_Letters", LoggedLetters)
        result = km.search(ident, mode, cfg)
    states = []
    for words in created:
        # decoded through Term.__str__, which the frontier order must match
        text = str(tables[0].term(words))
        assert tables[0].text(words) == text
        states.append(text)
    return result, states


def _oracle_logged(ident, mode, cfg):
    """What ``oracle_prove`` returns, and the text of each state it creates."""
    states = []

    class LoggedNode(prove_oracle._Node):
        def __init__(self, term, parent, step):
            super().__init__(term, parent, step)
            states.append(str(term))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prove_oracle, "_Node", LoggedNode)
        result = oracle_prove(ident, mode, cfg)
    return result, states


def _assert_same_search(ident, mode, cfg):
    """The search's result and states, once they equal the oracle's."""
    result, states = logged_search(ident, mode, cfg)
    oracle, oracle_states = _oracle_logged(ident, mode, cfg)
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
    unit_eq, unit_hash = km.Unit.__eq__, km.Unit.__hash__
    one_minus, term_key = km.one_minus, km.Term.key

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    states = []

    class LoggedNode(km._Node):
        def __init__(self, words, parent, step):
            super().__init__(words, parent, step)
            states.append(words)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_Node", LoggedNode)
        mp.setattr(km.Unit, "__eq__", counted("eq", unit_eq))
        mp.setattr(km.Unit, "__hash__", counted("hash", unit_hash))
        mp.setattr(km, "one_minus", counted("one_minus", one_minus))
        mp.setattr(km.Term, "key", counted("key", term_key))
        result = km.search(ident, mode, km.ProveConfig(max_states=10000))
    assert result.proof is None and result.reason == "max_states"
    letters = {i for words in states for _, brs in words for i in brs}
    # states hold integer letters, so only the letter table hashes a unit
    # (about 390k calls when the states held units)
    assert calls["hash"] <= 30000, calls
    # equal letters are one letter, so lookups rarely reach Unit.__eq__
    assert calls["eq"] <= 3000, calls
    # 1 - a is worked out once per letter, not once per adjacent pair
    assert calls["one_minus"] <= len(letters), (calls, len(letters))
    # states are keyed by their incremental hash, not by Term.key
    assert calls["key"] == 0, calls


_DIGESTS = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from mwkit import kmwterm as km
from mwkit.termparse import parse_identity
from test_kmwterm import BUDGET, CORPUS
from test_prove_search import logged_search
out = {"corpus": [km.prove(parse_identity(t, h), m).to_json() for t, m, h in CORPUS]}
text, mode, hyp = BUDGET[0]
_, states = logged_search(parse_identity(text, hyp), mode, km.ProveConfig(max_states=2000))
out["states"] = hashlib.sha256("\\n".join(states).encode()).hexdigest()
print(json.dumps(out))
"""


def test_search_does_not_depend_on_the_hash_seed():
    tests_dir = str(Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=str(Path(km.__file__).resolve().parents[1]))
    outputs = []
    for seed in ("2718", "31415"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", _DIGESTS, tests_dir], capture_output=True,
                             env=env, timeout=120, check=True, text=True)
        outputs.append(json.loads(out.stdout))
    text, mode, hyp = BUDGET[0]
    _, states = logged_search(parse_identity(text, hyp), mode, km.ProveConfig(max_states=2000))
    here = {"corpus": [km.prove(parse_identity(t, h), m).to_json() for t, m, h in CORPUS],
            "states": hashlib.sha256("\n".join(states).encode()).hexdigest()}
    assert outputs == [here, here]


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
