"""The prover search that ``mwkit.kmwterm.search`` replaced, kept for tests only.

``oracle_prove`` is the bidirectional search as it ran on ``Unit`` letters,
before the search kept a letter table: every state is a ``Term`` keyed by
``Term.key()`` (a frozenset of its words, so every letter of every child is
hashed again), letters are compared through ``Unit.__eq__`` wherever equal
letters are distinct objects, and R1's ``one_minus`` and its declared-sums
check run once per adjacent pair of every expanded term.  It visits the
same states in the same order as ``kmwterm.search`` and returns the same
certificate.  It shares no search code with ``kmwterm``: its frontier order
renders each term through ``Term.__str__``, and it stitches its certificate
from its own terms.

Nodes are built through this module's ``_Node``, looked up at each call,
so a test can log the states the oracle creates by patching it.

``oracle_instance`` builds an axiom instance on a search's letter table the
way the search did before it wrote its cores down on letters: through
``AxiomSchema.build`` and ``Term`` arithmetic, then re-lettered.

``oracle_candidate_units`` is the candidate closure as it was before it
computed each unit's inverse once per round: it inverts both units of every
pair.  ``oracle_prove`` draws its candidates from it.
"""

from dataclasses import dataclass
from typing import Optional

from mwkit.kmwterm import (
    AXIOMS,
    CLOSURE_DEPTH,
    MAX_CANDIDATES,
    Identity,
    Proof,
    ProofStep,
    ProveConfig,
    ProverMode,
    Term,
    UnitExprError,
    axioms,
    UNIT_MINUS_ONE,
    UNIT_ONE,
    _unit_complexity,
    normalize,
    one_minus,
)


def oracle_instance(letters, axiom: str, direction: str, binding: tuple) -> tuple:
    """The instance of ``axiom`` on the letters ``binding`` of the letter
    table ``letters``: ``(axiom, direction, binding, core)``, with the core
    built through the schema on the decoded units and lettered by the table."""
    schema = AXIOMS[axiom]
    lhs, rhs, _ = schema.build(dict(zip(schema.params, map(letters.units.__getitem__, binding))))
    diff = rhs - lhs if direction == "forward" else lhs - rhs
    letter = letters.letter
    core = {(e, tuple(map(letter, brs))): c for (e, brs), c in diff.words.items()}
    return (axiom, direction, binding, core)


def oracle_candidate_units(identity: Identity, hints, depth: int, cap: int):
    """Subterm units of the problem plus hints, closed to bounded depth
    under inverse, negation, literal square roots, products and quotients."""
    base = {UNIT_ONE, UNIT_MINUS_ONE}
    base |= set(identity.lhs.letters()) | set(identity.rhs.letters())
    base |= set(identity.hypotheses) | set(hints)
    cur = set(base)
    for _ in range(depth):
        new = set()
        for u in cur:
            new.add(u.inverse())
            new.add(-u)
            r = u.sqrt_or_none()
            if r is not None:
                new.add(r)
        pool = sorted(cur, key=_unit_complexity)
        for i, u in enumerate(pool):
            for v in pool[i:]:
                new.add(u * v)
                new.add(u * v.inverse())
                new.add(v * u.inverse())
        cur |= new
        if len(cur) > cap:
            cur = set(sorted(cur, key=_unit_complexity)[:cap])
    ordered = sorted(cur, key=_unit_complexity)
    return ordered, set(ordered)


def _r2_splits(m, cands, cand_set) -> list:
    """The pairs (x, y) of candidates, neither of them 1, with x * y = m."""
    out = []
    for x in cands:
        if x.is_one:
            continue
        y = m * x.inverse()
        if y.is_one or y not in cand_set:
            continue
        out.append((x, y))
    return out


def _moves(term: Term, schemas, cands, cand_set, declared_sums, splits: dict):
    """All anchored exact-coefficient moves applicable to a term."""
    out = []
    schema_names = {s.name for s in schemas}
    for (s, brs), coeff in term.words.items():
        if "R2" in schema_names:
            for i, m in enumerate(brs):
                left, right = brs[:i], brs[i + 1 :]
                split = splits.get(m)
                if split is None:
                    split = splits[m] = _r2_splits(m, cands, cand_set)
                for x, y in split:
                    out.append(("R2", "forward", {"a": x, "b": y}, coeff, (s, left, right)))
            if s >= 1:
                for i in range(len(brs) - 1):
                    binding = {"a": brs[i], "b": brs[i + 1]}
                    out.append(("R2", "backward", binding, coeff, (s - 1, brs[:i], brs[i + 2 :])))
        if "R4" in schema_names:
            if s >= 2:
                for i, m in enumerate(brs):
                    if m.is_minus_one:
                        out.append(("R4", "forward", {}, coeff, (s - 2, brs[:i], brs[i + 1 :])))
            if s >= 1 and coeff % 2 == 0:
                for cut in range(len(brs) + 1):
                    out.append(("R4", "forward", {}, coeff // 2, (s - 1, brs[:cut], brs[cut:])))
        if "R1" in schema_names:
            for i in range(len(brs) - 1):
                a = brs[i]
                try:
                    m = one_minus(a)
                except UnitExprError:
                    continue
                if brs[i + 1] == m and (m.sum_atoms() | a.sum_atoms()) <= declared_sums:
                    out.append(("R1", "forward", {"a": a}, coeff, (s, brs[:i], brs[i + 2 :])))
        if "R5" in schema_names and s >= 1:
            for i, m in enumerate(brs):
                r = m.sqrt_or_none()
                if r is not None and not r.is_one:
                    out.append(("R5", "forward", {"a": r}, coeff, (s - 1, brs[:i], brs[i + 1 :])))
    return out


def _core(move, cores: dict) -> Term:
    """The axiom difference a move adds, memoised in ``cores``."""
    axiom, direction, binding = move[:3]
    key = (axiom, direction, tuple(sorted(binding.items())))
    core = cores.get(key)
    if core is None:
        lhs, rhs, _ = AXIOMS[axiom].build(binding)
        core = cores[key] = rhs - lhs if direction == "forward" else lhs - rhs
    return core


def _apply(term: Term, core: Term, pos_eta: int, left: tuple, right: tuple,
           coeff: int) -> Term:
    """``term + _embed(core, pos_eta, left, right, coeff)``, built in one pass."""
    out = dict(term.words)
    for (e, brs), c in core.words.items():
        w = (e + pos_eta, left + brs + right)
        c2 = out.get(w, 0) + c * coeff
        if c2:
            out[w] = c2
        else:
            del out[w]
    t = Term.__new__(Term)
    t.words = out
    return t


@dataclass
class _Node:
    term: Term
    parent: Optional["_Node"]
    step: Optional[tuple]  # (axiom, direction, binding, coeff, pos)


def _frontier_order(node: _Node):
    return (len(node.term.words), str(node.term))


def _path(node: _Node) -> list:
    out = []
    while node.parent is not None:
        out.append((node.parent.term, node.step, node.term))
        node = node.parent
    out.reverse()
    return out


def _stitch(identity, mode, left_node, right_node) -> Proof:
    steps = []
    for before, move, after in _path(left_node):
        axiom, direction, binding, coeff, (pe, pl, pr) = move
        steps.append(ProofStep(axiom, direction, binding, coeff, pe, pl, pr, before, after))
    for before, move, after in reversed(_path(right_node)):
        axiom, direction, binding, coeff, (pe, pl, pr) = move
        flipped = "backward" if direction == "forward" else "forward"
        steps.append(ProofStep(axiom, flipped, binding, coeff, pe, pl, pr, after, before))
    return Proof(identity, mode, tuple(steps))


def oracle_prove(identity: Identity, mode, config: Optional[ProveConfig] = None) -> Optional[Proof]:
    """Bidirectional bounded search; a Proof on success, None for Unknown."""
    cfg = config or ProveConfig()
    cfg.validate()
    mode = ProverMode.coerce(mode)
    schemas = axioms(mode)
    declared = identity.declared_sum_atoms()

    start = normalize(identity.lhs)
    goal = normalize(identity.rhs)
    if start == goal:
        return Proof(identity, mode, ())
    cands, cand_set = oracle_candidate_units(identity, cfg.hint_units, CLOSURE_DEPTH,
                                             MAX_CANDIDATES)

    left = {start.key(): _Node(start, None, None)}
    right = {goal.key(): _Node(goal, None, None)}
    frontier_l = [left[start.key()]]
    frontier_r = [right[goal.key()]]
    depth_total = 0
    states = 2
    cores: dict = {}
    splits: dict = {}

    while (frontier_l or frontier_r) and depth_total < cfg.max_depth:
        if frontier_l and (not frontier_r or len(frontier_l) <= len(frontier_r)):
            own, other, frontier, from_left = left, right, frontier_l, True
        else:
            own, other, frontier, from_left = right, left, frontier_r, False
        next_frontier = []
        for node in sorted(frontier, key=_frontier_order):
            for move in _moves(node.term, schemas, cands, cand_set, declared, splits):
                core = _core(move, cores)
                if len(node.term.words) - len(core.words) > cfg.max_term_words:
                    continue
                coeff, (pe, pl, pr) = move[3:]
                t2 = _apply(node.term, core, pe, pl, pr, coeff)
                if len(t2.words) > cfg.max_term_words:
                    continue
                k2 = t2.key()
                if k2 in own:
                    continue
                child = _Node(t2, node, move)
                if k2 in other:
                    meet = other[k2]
                    if from_left:
                        return _stitch(identity, mode, child, meet)
                    return _stitch(identity, mode, meet, child)
                own[k2] = child
                next_frontier.append(child)
                states += 1
                if states > cfg.max_states:
                    return None
        if from_left:
            frontier_l = next_frontier
        else:
            frontier_r = next_frontier
        depth_total += 1
    return None
