"""The prover search against the search it replaced, its guards, and why an
Unknown ended.

``oracle_prove`` (``tests/prove_oracle.py``) runs on ``Unit`` letters, keys
states by ``Term.key``, keeps no letter table and works out R1's ``1 - a``
at every adjacent pair.  ``kmwterm.search`` must create the same states in
the same order and return the same certificate.
"""

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import prove_oracle
from mwkit import kmwterm as km
from mwkit.termparse import parse_identity, parse_unit

from prove_oracle import oracle_candidate_units, oracle_instance, oracle_prove
from test_kmwterm import BUDGET, CORPUS


def search_nodes(ident, mode, cfg):
    """What ``kmwterm.search`` returns, each node it creates, in order, and
    its letter table (None when the search made none)."""
    nodes, tables = [], []

    def logged_node(node):
        nodes.append(node)
        return node

    class LoggedLetters(km._Letters):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_Node", logged_node)
        mp.setattr(km, "_Letters", LoggedLetters)
        result = km.search(ident, mode, cfg)
    return result, nodes, (tables[0] if tables else None)


def replay_states(ident, nodes, letters):
    """The words dict (on word ids) of each of a search's nodes.

    A node holds its parent, its move and its hash, not its words, so each
    state is rebuilt by a replay on ``Term``s that shares no code with the
    search's ``_hash_count`` and ``_apply``: the start and the goal are the
    identity's sides, and a child is its parent's term plus its move's
    core, decoded to units and embedded by ``_embed``.  Each replayed state
    is then looked up in the letter table, which fails unless the search
    interned every word of it, and its hash from scratch must be the hash
    the search kept for it.
    """
    roots = iter([km.normalize(ident.lhs), km.normalize(ident.rhs)])
    terms, created = {}, []
    for node in nodes:
        parent, move, node_hash = node
        if parent is None:
            term = next(roots)
        else:
            (_, _, _, core), coeff, pe, pl, pr = move
            unit = letters.units.__getitem__
            core_term = km.Term({(e, tuple(map(unit, brs))): c for (e, brs), c in core.items()})
            term = terms[id(parent)] + km._embed(core_term, pe, tuple(map(unit, pl)),
                                                 tuple(map(unit, pr)), coeff)
        terms[id(node)] = term
        letter = letters.ids.__getitem__
        words = {letters.word_ids[(e, tuple(map(letter, brs)))]: c
                 for (e, brs), c in term.words.items()}
        assert node_hash == km._words_hash(words)
        created.append(words)
    return created


def search_states(ident, mode, cfg):
    """What ``kmwterm.search`` returns, the words dict (on word ids) of each
    state it creates, in order (``replay_states``), and its letter table
    (None when the search made none)."""
    result, nodes, letters = search_nodes(ident, mode, cfg)
    return result, replay_states(ident, nodes, letters), letters


def logged_search(ident, mode, cfg):
    """What ``kmwterm.search`` returns, and the decoded text of each state
    it creates, in order."""
    result, created, letters = search_states(ident, mode, cfg)
    states = []
    for words in created:
        # decoded through Term.__str__, which the frontier order must match
        text = str(letters.term(words))
        assert letters.text(words) == text
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
# state maps keyed by the state hash


@pytest.mark.parametrize("text,mode,hyp,max_states",
                         [case + (km.ProveConfig().max_states,) for case in CORPUS]
                         + [BUDGET[0] + (2000,)])
def test_search_with_every_state_hash_equal_matches_the_oracle(text, mode, hyp, max_states):
    """Every state hashes to 0, so each lookup after the first finds another
    state under its hash and falls back to the key of its words."""
    hash_count = km._hash_count
    exact_keys = Counter()

    def counted_frozenset(items):
        exact_keys["calls"] += 1
        return frozenset(items)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_words_hash", lambda words: 0)
        mp.setattr(km, "_hash_count", lambda *args: (0, hash_count(*args)[1]))
        mp.setattr(km, "frozenset", counted_frozenset, raising=False)
        result, states = _assert_same_search(parse_identity(text, hyp), mode,
                                             km.ProveConfig(max_states=max_states))
    # states with equal hashes stay distinct states: all of them but the
    # child that meets the other side are different terms
    meeting = result.proof is not None
    assert len(set(states)) == len(states) - meeting
    assert result.states == len(states) - meeting
    # each map holds a state under hash 0 from the start, so every child
    # looked itself up by its words
    assert exact_keys["calls"] >= len(states) - 2, (exact_keys, len(states))
    if not meeting:
        assert result.reason == "max_states" and len(states) == 2001


# ---------------------------------------------------------------------------
# candidate units


def test_candidate_units_match_the_oracle():
    rng = random.Random(2828)
    idents = [parse_identity(t, h) for t, _, h in CORPUS + BUDGET]
    idents += [parse_identity(_random_identity(rng)[0], "unit(a),unit(1-a)") for _ in range(40)]
    a, b = km.uvar("a"), km.uvar("b")
    hint_sets = [(), (a * b,), (km.one_minus(a), -b), (km.uint(3), a.inverse(), b * b)]
    compared = 0
    for i, ident in enumerate(idents):
        hints = hint_sets[i % len(hint_sets)]
        for depth, cap in ((km.CLOSURE_DEPTH, km.MAX_CANDIDATES), (2, km.MAX_CANDIDATES), (1, 16)):
            ordered, cands = km.candidate_units(ident, hints, depth, cap)
            want, want_set = oracle_candidate_units(ident, hints, depth, cap)
            assert [u.key() for u in ordered] == [u.key() for u in want], (str(ident), hints)
            assert cands == want_set
            compared += 1
    assert compared == 3 * len(idents)


def _golden_identities():
    """(text, mode, hypotheses) of each ``prove`` case of ``prove_golden.json``."""
    cases = json.loads((Path(__file__).parent / "prove_golden.json").read_text())["cases"]
    out = []
    for argv in (case["argv"] for case in cases):
        options = dict(zip(argv[2::2], argv[3::2]))
        out.append((argv[1], options["--mode"], options.get("--hyp", "")))
    return out


def test_rational_letters_are_the_constants_candidate_units_can_form():
    # the constants a search forms, as read off candidate_units: a rational
    # letter is +-1, a constant of the identity, its hypotheses or hints (the
    # contents of their units and of the sums nested in them), a product or
    # quotient of two of those, or 1 - u for a rational candidate u (R1's
    # partner, so 2 from u = -1).  Budget searches run to 10k states.  A
    # counter-model in a ring where all of these are units rules out every
    # proof the search can find.
    cases = [(t, m, h, (), 50000) for t, m, h in CORPUS + _golden_identities()]
    cases += [(t, m, h, (), 10000) for t, m, h in BUDGET]
    # hints with constants of their own
    cases += [("[a][a] = [a][-1]", "hopf-steinberg", "unit(a),unit(1-a)", ("3", "1/2"), 10000),
              ("<a*b> = <a><b>", "hopf", "", ("3",), 10000)]
    formed = set()
    for text, mode, hyp, hints, max_states in cases:
        ident, hints = parse_identity(text, hyp), tuple(map(parse_unit, hints))
        _, _, letters = search_nodes(ident, mode, km.ProveConfig(max_states=max_states,
                                                                 hint_units=hints))
        units = ident.lhs.letters() | ident.rhs.letters() | set(ident.hypotheses) | set(hints)
        base = {content for u in units for content, _ in km.unit_parts(u)} | {1, -1}
        rational_cands = [letters.units[x].content for x in letters.cands
                          if not letters.units[x].factors]
        allowed = (base | {x * y for x in base for y in base} | {x / y for x in base for y in base}
                   | {1 - u for u in rational_cands})
        rational = {u.content for u in letters.units if not u.factors}
        assert rational <= allowed, (text, hints, rational - allowed)
        if not hints:
            formed |= rational
    # so a hint-free search on these identities forms only the constants +-1 and 2
    assert formed == {1, -1, 2}


# ---------------------------------------------------------------------------
# axiom cores written down on letters


def _r1_instances(letters):
    """The R1 instances a letter table's memo of R1 partners holds."""
    return [partner[1] for partner in letters.r1.values() if partner is not None]


def _built_instances(letters):
    """Every axiom instance a letter table's memos hold."""
    out = [letters.r4]
    out += [inst for split in letters.splits.values() for inst in split]
    out += list(letters.merges.values()) + _r1_instances(letters)
    out += [inst for inst in letters.roots.values() if inst is not None]
    return out


# each memo of a letter table, with the name of its builder
_MEMOS = {"ids": "_new_letter", "pieces": "_pieces", "splits": "r2_splits",
          "merges": "r2_merge", "r1": "r1_partner", "roots": "r5_root"}


def counted_search(ident, mode, cfg):
    """What ``kmwterm.search`` returns, and for each memo of its letter
    table, the memo and the keys its builder was called with, in order."""
    built = {name: [] for name in _MEMOS}

    def counted(name, build):
        def wrapper(self, key):
            built[name].append(key)
            return build(self, key)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name, builder in _MEMOS.items():
            mp.setattr(km._Letters, builder, counted(name, getattr(km._Letters, builder)))
        result, _, letters = search_nodes(ident, mode, cfg)
    return result, {name: (getattr(letters, name), keys) for name, keys in built.items()}


def test_each_memo_key_is_built_once_and_afresh_per_search():
    sizes = Counter()
    for text, mode, hyp in CORPUS + BUDGET:
        ident, cfg = parse_identity(text, hyp), km.ProveConfig(max_states=2000)
        result, first = counted_search(ident, mode, cfg)
        # the same search again, in the same process, builds every table again
        again, second = counted_search(ident, mode, cfg)
        assert again == result
        for name in _MEMOS:
            memo, keys = first[name]
            # each key is built once, at its first lookup: the builder's
            # calls are the table's keys, in the order the table holds them
            assert keys == list(memo), (text, name)
            memo2, keys2 = second[name]
            assert memo2 is not memo and keys2 == keys, (text, name)
            sizes[name] += len(memo)
    # every table is filled by some search
    assert all(sizes[name] for name in _MEMOS), sizes


def test_a_search_frees_its_letter_table_when_it_returns():
    # the memos refer to their builders weakly, so the table is in no
    # reference cycle and goes when the search returns, with no collection
    tables = []

    class WatchedLetters(km._Letters):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(weakref.ref(self))

    ident = parse_identity("[a][-a] = 0", "unit(a),unit(1-a)")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km, "_Letters", WatchedLetters)
        gc.disable()
        try:
            result = km.search(ident, "hopf-steinberg", km.ProveConfig(max_states=2000))
            alive = [ref() is not None for ref in tables]
        finally:
            gc.enable()
    assert result.reason == "max_states" and alive == [False]


def _assert_oracle_cores(letters, instances):
    for inst in instances:
        oracle = oracle_instance(letters, *inst[:3])
        # dict order included: _apply appends new words in the core's order
        assert list(inst[3].items()) == list(oracle[3].items()), inst


def test_letter_cores_match_the_schema_instances():
    kinds = Counter()
    for text, mode, hyp in CORPUS + BUDGET:
        _, _, letters = search_states(parse_identity(text, hyp), mode,
                                      km.ProveConfig(max_states=10000))
        instances = _built_instances(letters)
        _assert_oracle_cores(letters, instances)
        kinds.update(inst[:2] for inst in instances)
    # every kind of core is compared, R2 in both directions
    assert set(kinds) == {("R2", "forward"), ("R2", "backward"), ("R1", "forward"),
                          ("R4", "forward"), ("R5", "forward")}, kinds


def _table(*units, declared=frozenset()):
    return km._Letters([km.UNIT_ONE, km.UNIT_MINUS_ONE, *units], declared)


def test_letter_cores_on_hand_cases():
    a, b = km.uvar("a"), km.uvar("b")
    letters = _table(a, b, a.inverse(), a * a, a * b)
    x = letters.letter(a)
    # R2 forward on (a, a): [a] and [a] merge into 2[a]
    splits = letters.r2_splits(letters.letter(a * a))
    square = [inst for inst in splits if inst[2] == (x, x)]
    assert square and square[0][3] == {(0, (x,)): 2, (1, (x, x)): 1,
                                       (0, (letters.letter(a * a),)): -1}
    # R2 backward on (a, a^-1): [a a^-1] = [1] is dropped
    merge = letters.r2_merge((x, letters.letter(a.inverse())))
    assert len(merge[3]) == 3 and all(c == -1 for c in merge[3].values())
    # R2 backward on (a, a): -2[a]
    twice = letters.r2_merge((x, x))
    _assert_oracle_cores(letters, splits + [merge, twice, letters.r4])
    assert letters.r4[3] == {(2, (letters.minus_one,)): -1, (1, ()): -2}

    # R1 under unit(a),unit(1-a)
    ident = parse_identity("[a][1-a] = 0", "unit(a),unit(1-a)")
    result, _, letters = search_states(ident, "hopf-steinberg", km.ProveConfig())
    assert [s.axiom for s in result.proof.steps] == ["R1"] and km.check_proof(result.proof)
    assert _r1_instances(letters)
    _assert_oracle_cores(letters, _r1_instances(letters))

    # R5 in reduced mode
    result, _, letters = search_states(parse_identity("eta [a^2] = 0"), "reduced",
                                       km.ProveConfig())
    assert [s.axiom for s in result.proof.steps] == ["R5"] and km.check_proof(result.proof)
    roots = [inst for inst in letters.roots.values() if inst is not None]
    assert roots
    _assert_oracle_cores(letters, roots)


@pytest.mark.parametrize("text,mode,hyp", CORPUS + BUDGET)
def test_search_builds_no_schema_instance(text, mode, hyp):
    ident = parse_identity(text, hyp)
    cfg = km.ProveConfig(max_states=10000)
    expected = km.search(ident, mode, cfg)

    def refuse(self, binding):
        raise AssertionError(f"search built {self.name} through AxiomSchema.build")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km.AxiomSchema, "build", refuse)
        result = km.search(ident, mode, cfg)
    assert result == expected
    # the certificate still replays through AxiomSchema.build
    if result.proof is not None:
        assert km.check_proof(result.proof)


def test_letter_texts_render_as_terms():
    a, b = km.uvar("a"), km.uvar("b")
    letters = _table(a, b, km.one_minus(a))
    x, y, z = (letters.letter(u) for u in (a, b, km.one_minus(a)))

    def ids(words):
        # the words dict on the table's word ids, in the same order
        return {letters.word(w): c for w, c in words.items()}

    cases = [{}]
    for c in (1, -1, 2, -3):
        # the constant word sorts before eta[a] and after eta
        cases += [{(0, ()): c, (1, (x,)): 1}, {(1, (x,)): -1, (0, ()): c},
                  {(1, ()): 1, (0, ()): c}, {(0, ()): c}]
    cases += [{(1, ()): 1}, {(3, ()): 1}, {(3, ()): -1, (1, ()): 2}, {(1, ()): -1, (0, (z,)): 1}]
    cases += [{(0, (x,)): 2}, {(0, (x,)): -2}, {(0, (x, y)): 2, (0, (y,)): -2, (2, (x, z)): 1},
              {(0, (y, x)): -2, (0, (x,)): 2}]
    cases = [ids(words) for words in cases]
    for words in cases:
        assert letters.text(words) == str(letters.term(words)), words
    # and again, from the pieces stored on the first pass
    for words in cases:
        assert letters.text(words) == str(letters.term(words)), words
    assert letters.text({}) == "0"
    assert letters.text(ids({(1, (x,)): 1, (0, ()): -3})) == "-3 + eta [a]"
    assert letters.text(ids({(0, ()): 1, (1, ()): -1})) == "-eta + 1"
    assert letters.text(ids({(3, ()): 1, (0, (x,)): -2})) == "eta^3 - 2 [a]"
    assert letters.text(ids({(0, (x, y)): -2, (0, (x,)): 2})) == "2 [a] - 2 [a] [b]"


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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km.Unit, "__eq__", counted("eq", unit_eq))
        mp.setattr(km.Unit, "__hash__", counted("hash", unit_hash))
        mp.setattr(km, "one_minus", counted("one_minus", one_minus))
        mp.setattr(km.Term, "key", counted("key", term_key))
        result, nodes, table = search_nodes(ident, mode, km.ProveConfig(max_states=10000))
    # the states are replayed after the count, which covers the search only
    states = replay_states(ident, nodes, table)
    assert result.proof is None and result.reason == "max_states"
    letters = {i for words in states for w in words for i in table.word_list[w][1]}
    # states hold integer letters, so only the letter table hashes a unit
    # (about 390k calls when the states held units)
    assert calls["hash"] <= 30000, calls
    # equal letters are one letter, so lookups rarely reach Unit.__eq__
    assert calls["eq"] <= 3000, calls
    # 1 - a is worked out once per letter, not once per adjacent pair
    assert calls["one_minus"] <= len(letters), (calls, len(letters))
    # states are keyed by their incremental hash, not by Term.key
    assert calls["key"] == 0, calls


@pytest.mark.parametrize("text,mode,hyp", BUDGET)
def test_budget_search_states_are_on_word_ids(text, mode, hyp):
    result, states, letters = search_states(parse_identity(text, hyp), mode,
                                            km.ProveConfig(max_states=10000))
    assert result.reason == "max_states" and len(states) == 10001
    table = letters.word_list
    # every key of every state is an int that indexes the word table
    assert all(type(w) is int and 0 <= w < len(table) for words in states for w in words)
    # the table holds each distinct word once, and each word on letters
    assert letters.word_ids == {word: i for i, word in enumerate(table)}
    assert len(letters.word_ids) == len(table)
    assert all(type(e) is int and type(brs) is tuple and all(type(x) is int for x in brs)
               for e, brs in table)


@pytest.mark.parametrize("text,mode,hyp", BUDGET)
def test_budget_search_builds_the_words_of_few_states(text, mode, hyp, monkeypatch):
    # a child is kept as its parent, move and hash; its words are built when
    # its frontier is sorted, when it is expanded and when its hash meets a
    # state of either map (2,211-2,671 builds; each child was built once
    # when a node held its words)
    calls = []
    apply = km._apply
    monkeypatch.setattr(km, "_apply", lambda *args: calls.append(1) or apply(*args))
    result = km.search(parse_identity(text, hyp), mode, km.ProveConfig(max_states=10000))
    assert result.reason == "max_states" and result.states == 10001
    assert len(calls) < result.states / 3, len(calls)


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


@pytest.mark.parametrize("n_brackets,applied", [(17, 34), (21, 0)])
def test_search_refuses_every_child_of_a_start_over_the_word_bound(n_brackets, applied,
                                                                   monkeypatch):
    # max_term_words is 16: each child of 17 brackets is counted and then
    # refused, and a core too short to bring 21 brackets to 16 words is
    # refused before the child is counted
    calls = []
    hash_count = km._hash_count
    monkeypatch.setattr(km, "_hash_count", lambda *args: calls.append(1) or hash_count(*args))
    text = " + ".join(f"[{c}]" for c in "abcdefghijklmnopqrstu"[:n_brackets]) + " = 0"
    result = km.search(parse_identity(text), "hopf")
    assert km.ProveConfig().max_term_words == 16
    assert (result.proof, result.reason, result.states) == (None, "frontier_exhausted", 2)
    assert len(calls) == applied


def test_search_proof_has_no_reason():
    ident = parse_identity("<a*b> = <a><b>")
    result = km.search(ident, "hopf")
    assert result.reason is None and result.proof == km.prove(ident, "hopf")
    assert result.proof.steps and result.states >= 2
    trivial = km.search(parse_identity("<a> = <a>"), "hopf")
    assert (trivial.proof.steps, trivial.reason, trivial.states) == ((), None, 1)
