"""The graded term algebra on eta and unit symbols [a], with a bounded prover.

Terms are integer combinations of words over the alphabet {eta, [u]} where u
is a formal unit expression.  Two rewrite rules are baked into the canonical
form rather than applied by the prover: eta commutes with every symbol, so
words are kept eta-fronted as (eta_count, symbol sequence), and [1] = 0, so
any word containing the symbol of 1 is the zero summand and is dropped.

The remaining relations are rewrite schemas:

    R1  [a][1-a] = 0                (a and 1-a units; steinberg modes only)
    R2  [ab] = [a] + [b] + eta[a][b]
    R4  eta^2[-1] + 2 eta = 0       (eta times the hyperbolic element)
    R5  eta[a^2] = 0                (reduced mode only)

Degree-0 abbreviations expand at construction time: <u> = eta[u] + 1,
eps = -eta[-1] - 1, h = eta[-1] + 2.

Unit expressions live in the free abelian group on variables, opaque sum
atoms and ring constants, with exact rational content.  A sum expression is
only meaningful under a hypothesis asserting it is a unit; identities track
their hypothesis set and the prover refuses sums it cannot justify.

The prover runs a bidirectional breadth-first search whose moves add an
exact multiple of an instantiated axiom difference inside a word context.
Every step of the returned certificate is independently replayable by
``check_proof``.  A ``None`` result means Unknown, never disproved;
``search`` also names the budget that ended an Unknown.

The search spends its time looking up terms, whose keys are tuples of
units.  A ``Unit`` therefore hashes once, at construction; library-internal
term arithmetic builds terms from words that are already normal without
re-checking them; and one search builds each axiom instance once, and
works out R2's candidate splits and R1's ``1 - a`` once per letter.  The search also keeps a letter table: every letter that
enters one of its terms is swapped for the first equal unit it has seen,
so its lookups compare letters by identity.  Each state is keyed by its
words and a hash that is a sum over its words, which a move updates for
the words it changes only.  These memos live in the call, not in the
module, and ``check_proof`` shares none of them: it rebuilds every
instance from the certificate and compares structurally.

The search also orders each frontier by the rendered text of its terms, so
a ``Unit`` keeps its text after its first render, and a child term is built
from its parent's words in one pass (``_apply``) instead of through an
intermediate term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

from .finring import Ring, RingElement
from .gwring import GroupRingVector

VAR = "var"
CONST = "const"
SUM = "sum"


class UnitExprError(ValueError):
    """A unit expression could not be formed (e.g. a sum collapsed to zero)."""


class IdentityError(ValueError):
    """An identity is malformed: inhomogeneous or with unjustified sums."""


class EvalError(ValueError):
    """A term or unit expression cannot be evaluated in the given ring."""


class ConfigError(ValueError):
    """A prover limit is out of range."""


# ---------------------------------------------------------------------------
# unit expressions


def _frac_key(fr: Fraction):
    return (fr.numerator, fr.denominator)


def _atom_key(atom):
    tag = atom[0]
    if tag == VAR:
        return (0, atom[1])
    if tag == CONST:
        el = atom[1]
        return (1, el.ring.spec_string(), str(el))
    return (2, tuple((_frac_key(c), _factors_key(f)) for c, f in atom[1]))


def _factors_key(factors):
    return tuple((_atom_key(a), e) for a, e in factors)


@dataclass(frozen=True, slots=True)
class Unit:
    """Canonical unit expression: rational content times a sorted monomial.

    The hash is computed once, at construction: words and term keys are
    tuples of units, and the prover hashes them on every state lookup.  The
    text is stored by the first ``render_unit`` call: the prover renders
    every frontier term to order the frontier.
    """

    content: Fraction
    factors: tuple  # ((atom, nonzero int exponent), ...) sorted by atom key
    _hash: int = field(init=False, repr=False, compare=False)
    _text: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.content, self.factors)))
        object.__setattr__(self, "_text", None)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Unit):
            return NotImplemented
        return (self._hash == other._hash and self.content == other.content
                and self.factors == other.factors)

    def __reduce__(self):
        # rebuild through the constructor: a pickled hash of str atoms is
        # stale in a process with another PYTHONHASHSEED (the text is
        # rendered again on demand)
        return (Unit, (self.content, self.factors))

    def key(self):
        return (_frac_key(self.content), _factors_key(self.factors))

    @property
    def is_one(self) -> bool:
        return not self.factors and self.content == 1

    @property
    def is_minus_one(self) -> bool:
        return self.content == -1 and not self.factors

    def __mul__(self, other: "Unit") -> "Unit":
        fmap = dict(self.factors)
        for a, e in other.factors:
            fmap[a] = fmap.get(a, 0) + e
        return _make_unit(self.content * other.content, fmap)

    def __truediv__(self, other: "Unit") -> "Unit":
        return self * other.inverse()

    def inverse(self) -> "Unit":
        return _make_unit(1 / self.content, {a: -e for a, e in self.factors})

    def __neg__(self) -> "Unit":
        return _make_unit(-self.content, dict(self.factors))

    def __add__(self, other: "Unit") -> "Unit":
        return usum([self, other])

    def __sub__(self, other: "Unit") -> "Unit":
        return usum([self, -other])

    def __pow__(self, n: int) -> "Unit":
        if n == 0:
            return UNIT_ONE
        out = _make_unit(self.content**n, {a: e * n for a, e in self.factors})
        return out

    def sqrt_or_none(self) -> Optional["Unit"]:
        """Literal square root, when the content and all exponents allow it."""
        num, den = self.content.numerator, self.content.denominator
        if num < 0:
            return None
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        if any(e % 2 for _, e in self.factors):
            return None
        return _make_unit(Fraction(rn, rd), {a: e // 2 for a, e in self.factors})

    def sum_atoms(self) -> frozenset:
        return frozenset(_factors_sum_atoms(self.factors))

    def __str__(self):
        return render_unit(self)

    __repr__ = __str__


def _factors_sum_atoms(factors) -> set:
    out = set()
    for a, _ in factors:
        if a[0] == SUM:
            out.add(a)
            for _, f in a[1]:
                out |= _factors_sum_atoms(f)
    return out


def _make_unit(content: Fraction, fmap: dict) -> Unit:
    if content == 0:
        raise UnitExprError("zero is not a unit expression")
    consts: dict = {}
    clean: dict = {}
    for atom, e in fmap.items():
        if e == 0:
            continue
        if atom[0] == CONST:
            el = atom[1]
            prev = consts.get(el.ring, el.ring.one)
            consts[el.ring] = prev * (el**e)
        else:
            clean[atom] = e
    for ring, el in consts.items():
        if el != ring.one:
            clean[(CONST, el)] = clean.get((CONST, el), 0) + 1
    factors = tuple(sorted(clean.items(), key=lambda t: _atom_key(t[0])))
    return Unit(Fraction(content), factors)


UNIT_ONE = Unit(Fraction(1), ())
UNIT_MINUS_ONE = Unit(Fraction(-1), ())


def uvar(name: str) -> Unit:
    return Unit(Fraction(1), (((VAR, name), 1),))


def uint(n: int) -> Unit:
    if n == 0:
        raise UnitExprError("zero is not a unit expression")
    return Unit(Fraction(n), ())


def uconst(el: RingElement) -> Unit:
    if not el.is_unit():
        raise UnitExprError(f"{el} is not a unit of {el.ring.spec_string()}")
    if el == el.ring.one:
        return UNIT_ONE
    return Unit(Fraction(1), (((CONST, el), 1),))


def usum(parts: Sequence[Unit]) -> Unit:
    """Sum of unit expressions, canonical as an opaque primitive sum atom.

    An addend that is itself a scaled sum atom (and nothing else) is
    expanded, so nested expressions like 1 - (1 - a) flatten back to a.
    Products such as a*(1-a) keep the inner sum opaque.
    """
    merged: dict = {}
    work = list(parts)
    while work:
        u = work.pop()
        if len(u.factors) == 1 and u.factors[0][0][0] == SUM and u.factors[0][1] == 1:
            for c, f in u.factors[0][0][1]:
                work.append(Unit(u.content * c, f))
            continue
        merged[u.factors] = merged.get(u.factors, Fraction(0)) + u.content
    addends = [(c, f) for f, c in merged.items() if c != 0]
    if not addends:
        raise UnitExprError("unit expression sums to zero")
    if len(addends) == 1:
        c, f = addends[0]
        return Unit(c, f)
    addends.sort(key=lambda t: _factors_key(t[1]))
    g = Fraction(
        gcd(*(abs(c.numerator) for c, _ in addends)),
        lcm(*(c.denominator for c, _ in addends)),
    )
    if addends[0][0] < 0:
        g = -g
    atom = (SUM, tuple((c / g, f) for c, f in addends))
    return Unit(g, ((atom, 1),))


def one_minus(u: Unit) -> Unit:
    return usum([UNIT_ONE, -u])


def render_unit(u: Unit) -> str:
    """Render in the identity-language uexpr syntax (with ^ exponents).

    The text is stored on the unit, so each unit renders once.
    """
    text = u._text
    if text is None:
        text = _render_text(u)
        object.__setattr__(u, "_text", text)
    return text


def _render_text(u: Unit) -> str:
    """The text ``render_unit`` stores, rendered afresh on each call."""

    def atom_str(atom) -> str:
        if atom[0] == VAR:
            return atom[1]
        if atom[0] == CONST:
            return f"#{atom[1]}"
        parts = []
        for c, f in atom[1]:
            mono = _render_text(Unit(abs(c), f))
            parts.append(("-" if c < 0 else "+") + mono)
        body = "".join(parts)
        return "(" + (body[1:] if body.startswith("+") else body) + ")"

    num_factors = [(a, e) for a, e in u.factors if e > 0]
    den_factors = [(a, -e) for a, e in u.factors if e < 0]
    num, den = u.content.numerator, u.content.denominator
    pieces = []
    if abs(num) != 1 or not num_factors:
        pieces.append(str(abs(num)))
    for a, e in num_factors:
        pieces.append(atom_str(a) if e == 1 else f"{atom_str(a)}^{e}")
    text = "*".join(pieces)
    if num < 0:
        text = "-" + text
    if den != 1:
        text += f"/{den}"
    for a, e in den_factors:
        text += "/" + (atom_str(a) if e == 1 else f"{atom_str(a)}^{e}")
    return text


def eval_unit(u: Unit, ring: Ring, assignment: dict) -> RingElement:
    num, den = u.content.numerator, u.content.denominator
    acc = ring.from_int(num)
    if den != 1:
        acc = acc * ring.from_int(den).inverse()
    for atom, e in u.factors:
        acc = acc * (_eval_atom(atom, ring, assignment) ** e)
    return acc


def _eval_atom(atom, ring: Ring, assignment: dict) -> RingElement:
    if atom[0] == VAR:
        name = atom[1]
        if name not in assignment:
            raise EvalError(f"assignment is missing the unit variable {name!r}")
        val = ring.coerce(assignment[name])
        if not val.is_unit():
            raise EvalError(f"assignment maps {name!r} to the non-unit {val}")
        return val
    if atom[0] == CONST:
        el = atom[1]
        if el.ring != ring:
            raise EvalError("ring constant belongs to a different ring")
        return el
    total = ring.zero
    for c, f in atom[1]:
        total = total + eval_unit(Unit(c, f), ring, assignment)
    return total


# ---------------------------------------------------------------------------
# terms

Word = tuple  # (eta_count, tuple[Unit, ...])


class Term:
    """Integer combination of eta-fronted words; always in normal form."""

    __slots__ = ("words",)

    def __init__(self, words: Optional[dict] = None):
        self.words: dict = {}
        if words:
            for w, c in words.items():
                if c and not any(u.is_one for u in w[1]):
                    self.words[w] = self.words.get(w, 0) + c
                    if not self.words[w]:
                        del self.words[w]

    @classmethod
    def _of(cls, words: dict) -> "Term":
        """A term from words already in normal form: drops zero coefficients only.

        For internal arithmetic whose words concatenate normal words, so
        no letter can be the unit 1.
        """
        t = cls.__new__(cls)
        t.words = {w: c for w, c in words.items() if c}
        return t

    def key(self):
        return frozenset(self.words.items())

    def is_zero(self) -> bool:
        return not self.words

    def __eq__(self, other):
        return isinstance(other, Term) and self.words == other.words

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other: "Term") -> "Term":
        out = dict(self.words)
        for w, c in other.words.items():
            out[w] = out.get(w, 0) + c
        return Term._of(out)

    def __neg__(self) -> "Term":
        return Term._of({w: -c for w, c in self.words.items()})

    def __sub__(self, other: "Term") -> "Term":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "Term":
        if not isinstance(scalar, int):
            return NotImplemented
        return Term._of({w: scalar * c for w, c in self.words.items()})

    def __mul__(self, other) -> "Term":
        if isinstance(other, int):
            return self.__rmul__(other)
        out: dict = {}
        for (e1, b1), c1 in self.words.items():
            for (e2, b2), c2 in other.words.items():
                w = (e1 + e2, b1 + b2)
                out[w] = out.get(w, 0) + c1 * c2
        return Term._of(out)

    def __pow__(self, n: int) -> "Term":
        if n < 0:
            raise ValueError("negative powers of terms are not defined")
        acc = integer(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def homogeneous_degree(self) -> Optional[int]:
        """Common degree of all words; None for the zero term.

        Raises IdentityError when words of different degrees are mixed.
        """
        deg = None
        for (e, brs) in self.words:
            d = len(brs) - e
            if deg is None:
                deg = d
            elif d != deg:
                raise IdentityError("term mixes words of different degrees")
        return deg

    def letters(self) -> frozenset:
        out = set()
        for (_, brs) in self.words:
            out.update(brs)
        return frozenset(out)

    def sum_atoms(self) -> frozenset:
        out = set()
        for u in self.letters():
            out |= u.sum_atoms()
        return frozenset(out)

    def __str__(self):
        if not self.words:
            return "0"
        # by degree, eta power, then the rendered letters; each letter renders once
        words = sorted(
            (((len(brs) - e, e, tuple(render_unit(u) for u in brs)), c)
             for (e, brs), c in self.words.items()),
            key=lambda t: t[0],
        )
        rendered = []
        for (_, e, letters), c in words:
            bits = []
            if e == 1:
                bits.append("eta")
            elif e > 1:
                bits.append(f"eta^{e}")
            bits.extend(f"[{r}]" for r in letters)
            if not bits:
                bits = [str(abs(c))]
                coeff = ""
            else:
                coeff = "" if abs(c) == 1 else f"{abs(c)} "
            rendered.append(("- " if c < 0 else "+ ") + coeff + " ".join(bits))
        text = " ".join(rendered)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


def zero() -> Term:
    return Term()


def integer(n: int) -> Term:
    return Term({(0, ()): n}) if n else Term()


def eta(power: int = 1) -> Term:
    return Term({(power, ()): 1})


def bracket(u: Unit) -> Term:
    """The symbol [u]; [1] is the zero term."""
    if u.is_one:
        return Term()
    return Term({(0, (u,)): 1})


def angle(u: Unit) -> Term:
    """<u> = eta [u] + 1."""
    return eta() * bracket(u) + integer(1)


def epsilon() -> Term:
    """eps = -<-1> = -eta[-1] - 1."""
    return -angle(UNIT_MINUS_ONE)


def hyperbolic() -> Term:
    """h = eta[-1] + 2 = 1 + <-1>."""
    return eta() * bracket(UNIT_MINUS_ONE) + integer(2)


def normalize(t: Term) -> Term:
    """Re-canonicalize a term; idempotent and linear by construction."""
    return Term(dict(t.words))


# ---------------------------------------------------------------------------
# identities


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    hypotheses: tuple = ()
    name: str = ""

    def __post_init__(self):
        dl = self.lhs.homogeneous_degree()
        dr = self.rhs.homogeneous_degree()
        if dl is not None and dr is not None and dl != dr:
            raise IdentityError(f"sides have different degrees ({dl} vs {dr})")
        declared = self.declared_sum_atoms()
        for side in (self.lhs, self.rhs):
            missing = side.sum_atoms() - declared
            if missing:
                raise IdentityError(
                    "sum expressions need a unit(...) hypothesis: "
                    + ", ".join(sorted(render_unit(Unit(Fraction(1), ((a, 1),))) for a in missing))
                )

    def declared_sum_atoms(self) -> frozenset:
        out = set()
        for h in self.hypotheses:
            out |= h.sum_atoms()
        return frozenset(out)

    def degree(self) -> Optional[int]:
        d = self.lhs.homogeneous_degree()
        return d if d is not None else self.rhs.homogeneous_degree()

    def variables(self) -> tuple[str, ...]:
        names = set()

        def scan_unit(u: Unit):
            for a, _ in u.factors:
                if a[0] == VAR:
                    names.add(a[1])
                elif a[0] == SUM:
                    for c, f in a[1]:
                        scan_unit(Unit(c, f))

        for side in (self.lhs, self.rhs):
            for u in side.letters():
                scan_unit(u)
        for h in self.hypotheses:
            scan_unit(h)
        return tuple(sorted(names))

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


# ---------------------------------------------------------------------------
# axiom schemas


class ProverMode(str, enum.Enum):
    HOPF = "hopf"
    HOPF_STEINBERG = "hopf-steinberg"
    REDUCED = "reduced"

    @classmethod
    def coerce(cls, mode) -> "ProverMode":
        if isinstance(mode, cls):
            return mode
        return cls(str(mode).lower())


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    params: tuple[str, ...]
    modes: frozenset
    description: str

    def build(self, binding: dict) -> tuple[Term, Term, tuple[Unit, ...]]:
        """Instantiate to (lhs, rhs, units whose unit-ness the instance needs)."""
        if set(binding) != set(self.params):
            raise ValueError(f"{self.name} expects bindings for {self.params}")
        if self.name == "R1":
            a = binding["a"]
            m = one_minus(a)
            return bracket(a) * bracket(m), zero(), (a, m)
        if self.name == "R2":
            a, b = binding["a"], binding["b"]
            return (
                bracket(a * b),
                bracket(a) + bracket(b) + eta() * bracket(a) * bracket(b),
                (a, b),
            )
        if self.name == "R4":
            return eta(2) * bracket(UNIT_MINUS_ONE) + 2 * eta(), zero(), ()
        if self.name == "R5":
            a = binding["a"]
            return eta() * bracket(a * a), zero(), (a,)
        raise ValueError(f"unknown axiom {self.name}")


_ALL_MODES = frozenset({ProverMode.HOPF, ProverMode.HOPF_STEINBERG, ProverMode.REDUCED})
_STEINBERG_MODES = frozenset({ProverMode.HOPF_STEINBERG, ProverMode.REDUCED})

AXIOMS = {
    "R1": AxiomSchema("R1", ("a",), _STEINBERG_MODES, "[a][1-a] = 0"),
    "R2": AxiomSchema("R2", ("a", "b"), _ALL_MODES, "[ab] = [a] + [b] + eta[a][b]"),
    "R4": AxiomSchema("R4", (), _ALL_MODES, "eta^2[-1] + 2 eta = 0"),
    "R5": AxiomSchema("R5", ("a",), frozenset({ProverMode.REDUCED}), "eta[a^2] = 0"),
}


def axioms(mode) -> list[AxiomSchema]:
    """Rewrite schemas active in a mode (eta-commutation and [1] = 0 are
    handled by normalization, not rewriting)."""
    mode = ProverMode.coerce(mode)
    order = ["R2", "R4", "R1", "R5"]
    return [AXIOMS[n] for n in order if mode in AXIOMS[n].modes]


# ---------------------------------------------------------------------------
# the prover


@dataclass(frozen=True)
class ProveConfig:
    max_depth: int = 12
    max_term_words: int = 16
    hint_units: tuple = ()
    closure_depth: int = 1
    max_candidates: int = 64
    max_states: int = 50000

    def validate(self):
        for fld in ("max_depth", "max_term_words", "closure_depth", "max_candidates", "max_states"):
            if getattr(self, fld) <= 0 and fld != "closure_depth":
                raise ConfigError(f"config limit {fld} must be positive")
        if self.closure_depth < 0:
            raise ConfigError("config limit closure_depth must be nonnegative")


@dataclass(frozen=True)
class ProofStep:
    axiom: str
    direction: str  # "forward" rewrites schema lhs -> rhs
    binding: dict
    coeff: int
    pos_eta: int
    pos_left: tuple
    pos_right: tuple
    before: Term
    after: Term

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "direction": self.direction,
            "pos": {
                "eta": self.pos_eta,
                "left": [render_unit(u) for u in self.pos_left],
                "right": [render_unit(u) for u in self.pos_right],
                "coeff": self.coeff,
            },
            "instance": {k: render_unit(v) for k, v in sorted(self.binding.items())},
        }


@dataclass(frozen=True)
class Proof:
    identity: Identity
    mode: ProverMode
    steps: tuple

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failed_step: Optional[int] = None
    message: str = ""

    def __bool__(self):
        return self.ok


def _embed(core: Term, pos_eta: int, left: tuple, right: tuple, coeff: int) -> Term:
    """coeff * eta^pos_eta * left core right; left and right must hold no unit 1."""
    out: dict = {}
    for (e, brs), c in core.words.items():
        w = (e + pos_eta, left + brs + right)
        out[w] = out.get(w, 0) + c * coeff
    return Term._of(out)


def _words_hash(words: dict) -> int:
    """The hash of a state: the sum of ``hash((word, coeff))`` over its words.

    A sum does not depend on the order of the words, and a change to one
    word changes one summand, so ``_apply`` keeps it up to date.
    """
    return sum(map(hash, words.items()))


def _apply(term: Term, term_hash: int, core: Term, pos_eta: int, left: tuple,
           right: tuple, coeff: int) -> tuple[Term, int]:
    """``term + _embed(core, pos_eta, left, right, coeff)``, built in one
    pass, and its ``_words_hash`` given the term's, ``term_hash``.

    The parent's dict is copied once (a dict copy keeps the stored hashes)
    and the embedded words are added in place, so only the core's words are
    hashed, and only their summands of the hash change: the old item's is
    subtracted and the new one's added.  Words and their order are those of
    the two-step sum: existing words update in place, a word whose
    coefficient reaches 0 drops out, and new words follow in the core's
    order.  Distinct core words embed to distinct words, and ``coeff`` and
    the core's coefficients are nonzero, so a word that reaches 0 is one
    of the term's.
    """
    out = dict(term.words)
    h = term_hash
    for (e, brs), c in core.words.items():
        w = (e + pos_eta, left + brs + right)
        c1 = out.get(w, 0)
        c2 = c1 + c * coeff
        if c1:
            h -= hash((w, c1))
        if c2:
            out[w] = c2
            h += hash((w, c2))
        else:
            del out[w]
    t = Term.__new__(Term)
    t.words = out
    return t, h


def _step_delta(step: ProofStep) -> Term:
    schema = AXIOMS[step.axiom]
    lhs, rhs, _ = schema.build(step.binding)
    core = rhs - lhs if step.direction == "forward" else lhs - rhs
    # a certificate's positions are input, so the delta is re-normalised
    return normalize(_embed(core, step.pos_eta, step.pos_left, step.pos_right, step.coeff))


@dataclass
class _Node:
    term: Term
    parent: Optional["_Node"]
    step: Optional[tuple]  # (axiom, direction, binding, coeff, pos)


def _unit_complexity(u: Unit) -> tuple:
    size = abs(u.content.numerator) + u.content.denominator
    for a, e in u.factors:
        size += 2 * abs(e)
        if a[0] == SUM:
            size += 4 * len(a[1])
    return (size, _frac_key(u.content), _factors_key(u.factors))


def candidate_units(identity: Identity, hints: Sequence[Unit], depth: int, cap: int):
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


_UNSET = object()


class _Letters:
    """One search's letter table, and the move memos keyed by its letters.

    ``canon`` swaps a unit for the first equal unit the table has seen
    (hash-consing, for one search only).  Every letter that enters a search
    term passes through it: the letters of the start and goal, the
    candidates, and the letters of each axiom instance when it is built.
    So the letters of every search term are shared objects, and every
    lookup of a word, state or instance meets identical letters and takes
    the identity fast path instead of ``Unit.__eq__``.  The table and the
    memos belong to one ``search`` call and go with it; ``Unit`` itself is
    unchanged, and ``check_proof`` reads none of this.
    """

    def __init__(self, cands: Sequence[Unit], declared_sums: frozenset):
        self.table: dict = {}
        self.declared = declared_sums
        cands = [self.canon(u) for u in cands]
        self.cand_set = set(cands)
        # the candidates other than 1 with their inverses, for R2's splits
        self.inverses = [(x, x.inverse()) for x in cands if not x.is_one]
        self.splits: dict = {}  # letter m -> R2 splits (x, y) of m
        self.steinberg: dict = {}  # letter a -> 1 - a for R1, or None
        self.cores: dict = {}  # (axiom, direction, *binding values) -> instance difference

    def canon(self, u: Unit) -> Unit:
        return self.table.setdefault(u, u)

    def term(self, t: Term) -> Term:
        """``t`` with its letters swapped for the table's; words keep their order."""
        canon = self.canon
        return Term._of({(e, tuple(map(canon, brs))): c for (e, brs), c in t.words.items()})

    def r2_splits(self, m: Unit) -> list:
        """The pairs (x, y) of candidates, neither of them 1, with x * y = m."""
        out = []
        table, cand_set = self.table, self.cand_set
        for x, x_inv in self.inverses:
            y = m * x_inv
            if y.is_one:
                continue
            y = table.get(y)
            if y is not None and y in cand_set:
                out.append((x, y))
        self.splits[m] = out
        return out

    def steinberg_partner(self, a: Unit) -> Optional[Unit]:
        """1 - a when [a][1-a] is an R1 instance whose sums the identity
        declares, else None."""
        try:
            m = one_minus(a)
        except UnitExprError:
            m = None
        else:
            m = self.canon(m) if (m.sum_atoms() | a.sum_atoms()) <= self.declared else None
        self.steinberg[a] = m
        return m

    def core(self, move) -> Term:
        """The axiom difference a move adds, built once per instance."""
        axiom, direction, binding = move[:3]
        # _moves binds a before b, so the values name the instance
        key = (axiom, direction, *binding.values())
        core = self.cores.get(key)
        if core is None:
            lhs, rhs, _ = AXIOMS[axiom].build(binding)
            core = self.cores[key] = self.term(rhs - lhs if direction == "forward" else lhs - rhs)
        return core


def _moves(term: Term, schema_names, letters: _Letters):
    """All anchored exact-coefficient moves applicable to a term.

    ``letters`` holds the search's per-letter memos: R2's splits and R1's
    ``1 - a`` are each worked out once per letter.  The term's letters are
    the table's, so a letter equals R1's ``1 - a`` exactly when it is that
    object.
    """
    out = []
    splits, steinberg = letters.splits, letters.steinberg
    for (s, brs), coeff in term.words.items():
        if "R2" in schema_names:
            for i, m in enumerate(brs):
                left, right = brs[:i], brs[i + 1 :]
                split = splits.get(m)
                if split is None:
                    split = letters.r2_splits(m)
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
                m = steinberg.get(a, _UNSET)
                if m is _UNSET:
                    m = letters.steinberg_partner(a)
                if m is not None and brs[i + 1] is m:
                    out.append(("R1", "forward", {"a": a}, coeff, (s, brs[:i], brs[i + 2 :])))
        if "R5" in schema_names and s >= 1:
            for i, m in enumerate(brs):
                r = m.sqrt_or_none()
                if r is not None and not r.is_one:
                    out.append(("R5", "forward", {"a": r}, coeff, (s - 1, brs[:i], brs[i + 1 :])))
    return out


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


def _frontier_order(node: _Node):
    return (len(node.term.words), str(node.term))


def _entry_order(entry):
    return _frontier_order(entry[0])


class _StateKey:
    """A search state as a key of the left and right maps.

    It holds the state's words dict and their ``_words_hash``, which
    ``_apply`` keeps up to date from the parent's, so no lookup re-hashes
    the state's letters.  Two keys are equal exactly when their words dicts
    are, so a hash collision never merges two states.
    """

    __slots__ = ("words", "hash")

    def __init__(self, words: dict, words_hash: int):
        self.words = words
        self.hash = words_hash

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.words == other.words


@dataclass(frozen=True)
class SearchResult:
    """What a search ended with.

    ``proof`` is the certificate, or None for Unknown.  ``reason`` is None
    with a proof; otherwise it names the budget that ended the search:
    ``"max_states"``, ``"max_depth"``, or ``"frontier_exhausted"`` when
    neither side had a term left to expand.  ``states`` counts the distinct
    terms the search reached, the start and goal included.
    """

    proof: Optional[Proof]
    reason: Optional[str]
    states: int


def prove(identity: Identity, mode, config: Optional[ProveConfig] = None) -> Optional[Proof]:
    """Bidirectional bounded search; a Proof on success, None for Unknown."""
    return search(identity, mode, config).proof


def search(identity: Identity, mode, config: Optional[ProveConfig] = None) -> SearchResult:
    """The search behind ``prove``, with the budget that ended an Unknown.

    Each state is kept beside its ``_words_hash`` (in the frontier) and
    under its ``_StateKey`` (in the maps); its letters are those of the
    search's letter table (``_Letters``).
    """
    cfg = config or ProveConfig()
    cfg.validate()
    mode = ProverMode.coerce(mode)
    schema_names = {s.name for s in axioms(mode)}

    start = normalize(identity.lhs)
    goal = normalize(identity.rhs)
    if start == goal:
        return SearchResult(Proof(identity, mode, ()), None, 1)
    cands, _ = candidate_units(
        identity, cfg.hint_units, cfg.closure_depth, cfg.max_candidates
    )
    # the letter table and the per-letter memos of this search only; shared
    # with no other search and not with check_proof
    letters = _Letters(cands, identity.declared_sum_atoms())
    start, goal = letters.term(start), letters.term(goal)

    start_node, goal_node = _Node(start, None, None), _Node(goal, None, None)
    start_hash, goal_hash = _words_hash(start.words), _words_hash(goal.words)
    left = {_StateKey(start.words, start_hash): start_node}
    right = {_StateKey(goal.words, goal_hash): goal_node}
    frontier_l = [(start_node, start_hash)]
    frontier_r = [(goal_node, goal_hash)]
    max_words = cfg.max_term_words
    depth_total = 0
    states = 2

    while (frontier_l or frontier_r) and depth_total < cfg.max_depth:
        if frontier_l and (not frontier_r or len(frontier_l) <= len(frontier_r)):
            own, other, frontier, from_left = left, right, frontier_l, True
        else:
            own, other, frontier, from_left = right, left, frontier_r, False
        next_frontier = []
        for node, term_hash in sorted(frontier, key=_entry_order):
            term = node.term
            n_words = len(term.words)
            for move in _moves(term, schema_names, letters):
                core = letters.core(move)
                # each word of the core cancels at most one word of the term
                if n_words - len(core.words) > max_words:
                    continue
                coeff, (pe, pl, pr) = move[3:]
                t2, h2 = _apply(term, term_hash, core, pe, pl, pr, coeff)
                if len(t2.words) > max_words:
                    continue
                k2 = _StateKey(t2.words, h2)
                if k2 in own:
                    continue
                child = _Node(t2, node, move)
                meet = other.get(k2)
                if meet is not None:
                    if from_left:
                        return SearchResult(_stitch(identity, mode, child, meet), None, states)
                    return SearchResult(_stitch(identity, mode, meet, child), None, states)
                own[k2] = child
                next_frontier.append((child, h2))
                states += 1
                if states > cfg.max_states:
                    return SearchResult(None, "max_states", states)
        if from_left:
            frontier_l = next_frontier
        else:
            frontier_r = next_frontier
        depth_total += 1
    reason = "max_depth" if frontier_l or frontier_r else "frontier_exhausted"
    return SearchResult(None, reason, states)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _malformed(step: ProofStep) -> Optional[str]:
    """Why a step's fields cannot form a rewrite, or None when they can.

    A certificate is input: a negative eta position would multiply an axiom
    by eta^-1, and a field of the wrong type would crash the replay.
    """
    if not isinstance(step, ProofStep):
        return f"{type(step).__name__} is not a proof step"
    if not isinstance(step.axiom, str):
        return f"axiom {step.axiom!r} is not a name"
    if not (_is_int(step.pos_eta) and step.pos_eta >= 0):
        return f"eta position {step.pos_eta!r} is not a non-negative integer"
    if not (_is_int(step.coeff) and step.coeff != 0):
        return f"coefficient {step.coeff!r} is not a nonzero integer"
    if not isinstance(step.binding, dict):
        return "binding is not a dict"
    for k, v in step.binding.items():
        if not isinstance(v, Unit):
            return f"binding {k!r} is not a unit expression"
    for side in (step.pos_left, step.pos_right):
        if not (isinstance(side, tuple) and all(isinstance(u, Unit) for u in side)):
            return "a position is not a tuple of unit expressions"
    if not (isinstance(step.before, Term) and isinstance(step.after, Term)):
        return "a step's before or after is not a term"
    return None


def check_proof(proof: Proof) -> CheckReport:
    """Replay a certificate independently of the search that produced it.

    A step whose fields cannot form a rewrite is refused, never replayed.
    """
    identity = proof.identity
    try:
        mode = ProverMode.coerce(proof.mode)
    except ValueError:
        return CheckReport(False, None, f"unknown mode {proof.mode!r}")
    allowed = {s.name for s in axioms(mode)}
    declared = identity.declared_sum_atoms()
    current = normalize(identity.lhs)
    for i, step in enumerate(proof.steps):
        bad = _malformed(step)
        if bad is not None:
            return CheckReport(False, i, f"malformed step: {bad}")
        if step.axiom not in AXIOMS:
            return CheckReport(False, i, f"unknown axiom {step.axiom}")
        if step.axiom not in allowed:
            return CheckReport(False, i, f"axiom {step.axiom} not allowed in mode {mode.value}")
        if step.direction not in ("forward", "backward"):
            return CheckReport(False, i, f"bad direction {step.direction!r}")
        if step.before != current:
            return CheckReport(False, i, "step does not chain from the previous term")
        schema = AXIOMS[step.axiom]
        try:
            _, _, required = schema.build(step.binding)
        except (ValueError, UnitExprError) as exc:
            return CheckReport(False, i, f"bad instance: {exc}")
        for u in required + tuple(step.binding.values()):
            if not u.sum_atoms() <= declared:
                return CheckReport(False, i, f"instance unit {render_unit(u)} has an undeclared sum")
        after = step.before + _step_delta(step)
        if after != step.after:
            return CheckReport(False, i, "recomputed step result disagrees")
        current = step.after
    if current != normalize(identity.rhs):
        return CheckReport(False, None, "proof does not end at the right-hand side")
    return CheckReport(True)


# ---------------------------------------------------------------------------
# numeric evaluation in a presented ring


def eval_in_ring(t: Term, ring: Ring, assignment: dict) -> GroupRingVector:
    """Evaluate a degree-0 term into Z[R^x] via eta[u] = <u> - <1>.

    Every word must have equal eta and symbol counts, i.e. be a product of
    expanded angle generators; other terms are rejected.  Each distinct
    letter is evaluated once; a word's product of (<v_i> - <1>) is expanded
    over the subsets of its brackets on coordinates, and the whole term is
    summed on unit indices.
    """
    index, coord_mul = ring.unit_coords_index(), ring._mul
    one = ring.one.coords
    values: dict = {}  # letter -> coordinates of its unit value
    acc: dict = {}
    for (e, brs), c in t.words.items():
        if e != len(brs):
            raise EvalError("term is not in the degree-0 span of angle generators")
        prod = {one: c}
        for u in brs:
            v = values.get(u)
            if v is None:
                val = eval_unit(u, ring, assignment)
                if not val.is_unit():
                    raise EvalError(f"symbol argument {render_unit(u)} evaluates to the non-unit {val}")
                v = values[u] = val.coords
            nxt: dict = {}
            for w, cw in prod.items():
                nxt[w] = nxt.get(w, 0) - cw
                wv = coord_mul(w, v)
                nxt[wv] = nxt.get(wv, 0) + cw
            prod = nxt
        for w, cw in prod.items():
            k = index[w]
            acc[k] = acc.get(k, 0) + cw
    units = ring.units()
    return GroupRingVector._of(ring, {units[k]: c for k, c in acc.items() if c})
