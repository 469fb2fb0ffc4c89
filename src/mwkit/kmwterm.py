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

Unit expressions live in the free abelian group on variables and opaque sum
atoms, with exact rational content.  A ring element enters only through the
assignment of ``eval_unit`` or ``eval_in_ring``, which binds it to a
variable.  A sum expression is only meaningful under a hypothesis asserting
it is a unit; identities track their hypothesis set and the prover refuses
sums it cannot justify.

The prover runs a bidirectional breadth-first search whose moves add an
exact multiple of an instantiated axiom difference inside a word context.
Every step of the returned certificate is independently replayable by
``check_proof``.  A ``None`` result means Unknown, never disproved;
``search`` also names the budget that ended an Unknown.

The search spends its time looking up terms.  It runs on integer letters
and word ids: a letter table gives each distinct letter of the search a
small int, and each distinct word ``(eta_count, tuple[int, ...])`` a small
int too.  Every axiom instance is a plain dict from words on letters to
coefficients, and the start, the goal and every state are plain dicts from
word ids to coefficients, so hashing a word never calls back into Python,
and a child hashes each word it embeds once, to intern it.  One search
builds each axiom instance once, and works out R2's candidate splits, R1's
``1 - a``, R4's ``-1`` and R5's square root once per letter: each of the
letter table's per-search tables is a ``_Memo``, a dict that builds a
key's value on its first lookup and stores it, so the move loop reads
every table with no miss branch of its own.  An instance's core is
written down on the letters the move already knows,
with no ``Term`` arithmetic; R2 backward takes one unit product, for the
letter of ``ab``.  Each state is keyed by a hash that is a sum over its
(word id, coefficient) pairs, which a move updates for the words it changes
only (``_hash_count``), and by its words only when another state has the
same hash.  A child is kept as its parent, its move and that hash; its
words are built from its parent's in one pass (``_apply``) only when the
search reads them.  Each frontier is ordered by the rendered text of its
terms, by the renderer ``Term.__str__`` uses, from text pieces that the
letter table renders once per word and search.  Only the
certificate is decoded back to units and terms.  These memos live in the
call, not in the module, and ``check_proof`` shares none of them: it
rebuilds every instance from the certificate through
``AxiomSchema.build`` and compares structurally.
"""

from __future__ import annotations

import enum
import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Optional, Sequence

from .errors import InputError
from .finring import Ring, RingElement
from .gwring import GroupRingVector

VAR = "var"
SUM = "sum"


class UnitExprError(InputError):
    """A unit expression could not be formed (e.g. a sum collapsed to zero)."""


class IdentityError(InputError):
    """An identity is malformed: inhomogeneous or with unjustified sums."""


class EvalError(InputError):
    """A term or unit expression cannot be evaluated in the given ring."""


class ConfigError(InputError):
    """A prover limit is out of range."""


# ---------------------------------------------------------------------------
# unit expressions


def _frac_key(fr: Fraction):
    return (fr.numerator, fr.denominator)


def _atom_key(atom):
    if atom[0] == VAR:
        return (0, atom[1])
    return (2, tuple((_frac_key(c), _factors_key(f)) for c, f in atom[1]))


def _factors_key(factors):
    return tuple((_atom_key(a), e) for a, e in factors)


@dataclass(frozen=True, slots=True)
class Unit:
    """Canonical unit expression: rational content times a sorted monomial.

    The hash is computed once, at construction: a term's words are tuples
    of units, hashed on every lookup.
    """

    content: Fraction
    factors: tuple  # ((atom, nonzero int exponent), ...) sorted by atom key
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # hash(Fraction(n)) == hash(n), and an int hashes in C, a Fraction
        # in Python
        content = self.content
        if content.denominator == 1:
            content = content.numerator
        object.__setattr__(self, "_hash", hash((content, self.factors)))

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
        # stale in a process with another PYTHONHASHSEED
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
        if not isinstance(other, Unit):
            return NotImplemented
        fmap = dict(self.factors)
        for a, e in other.factors:
            fmap[a] = fmap.get(a, 0) + e
        return _make_unit(self.content * other.content, fmap)

    def __truediv__(self, other: "Unit") -> "Unit":
        if not isinstance(other, Unit):
            return NotImplemented
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
        return frozenset(a for _, factors in unit_parts(self) for a, _ in factors if a[0] == SUM)

    def __str__(self):
        return render_unit(self)

    __repr__ = __str__


def unit_parts(u: Unit):
    """Each (content, factors) pair of a unit and of the sums nested in it."""
    work = [(u.content, u.factors)]
    while work:
        content, factors = work.pop()
        yield content, factors
        for atom, _ in factors:
            if atom[0] == SUM:
                work.extend(atom[1])


def _make_unit(content: Fraction, fmap: dict) -> Unit:
    if content == 0:
        raise UnitExprError("zero is not a unit expression")
    factors = tuple(sorted((t for t in fmap.items() if t[1]), key=lambda t: _atom_key(t[0])))
    return Unit(content if type(content) is Fraction else Fraction(content), factors)


UNIT_ONE = Unit(Fraction(1), ())
UNIT_MINUS_ONE = Unit(Fraction(-1), ())


def uvar(name: str) -> Unit:
    return Unit(Fraction(1), (((VAR, name), 1),))


def uint(n: int) -> Unit:
    if n == 0:
        raise UnitExprError("zero is not a unit expression")
    return Unit(Fraction(n), ())


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
    """Render in the identity-language uexpr syntax (with ^ exponents)."""

    def atom_str(atom) -> str:
        if atom[0] == VAR:
            return atom[1]
        parts = []
        for c, f in atom[1]:
            mono = render_unit(Unit(abs(c), f))
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
    """The value of u in ring; EvalError when u divides by a non-unit."""
    return RingElement(ring, _unit_coords(u, ring, assignment))


def _unit_coords(u: Unit, ring: Ring, assignment: dict):
    """Coordinates of the value of u in ring, computed on coordinates.

    The atoms are evaluated first, in order; then the content's numerator
    is multiplied by its denominator to the power -1 and by each atom to
    its power, by ``Ring._pow``.  Only a negative power inverts its base, and
    EvalError refuses one that is not a unit.
    """
    num, den = u.content.numerator, u.content.denominator
    parts = [(ring._from_int(den), -1)] if den != 1 else []
    parts += [(_atom_coords(atom, ring, assignment), e) for atom, e in u.factors]
    mul = ring._mul
    acc = ring._from_int(num)
    for x, e in parts:
        if e < 0:
            inverse = ring._inverse_or_none(x)
            if inverse is None:
                raise EvalError(f"{render_unit(u)} divides by {RingElement(ring, x)}, "
                                f"a non-unit of {ring.spec_string()}")
            x, e = inverse, -e
        acc = mul(acc, ring._pow(x, e))
    return acc


def _atom_coords(atom, ring: Ring, assignment: dict):
    if atom[0] == VAR:
        name = atom[1]
        if name not in assignment:
            raise EvalError(f"assignment is missing the unit variable {name!r}")
        val = ring.coerce(assignment[name])
        if not val.is_unit():
            raise EvalError(f"assignment maps {name!r} to the non-unit {val}")
        return val.coords
    add = ring._add
    total = ring._zero_coords()
    for c, f in atom[1]:
        total = add(total, _unit_coords(Unit(c, f), ring, assignment))
    return total


# ---------------------------------------------------------------------------
# terms

Word = tuple  # (eta_count, tuple[Unit, ...])


class Term:
    """Integer combination of eta-fronted words; always in normal form."""

    __slots__ = ("words",)

    def __init__(self, words: Optional[dict] = None):
        # a dict holds each word once, so dropping zeros and [1] normalises
        # it; operator.index refuses a coefficient that is not an integer
        self.words: dict = {w: c for w, c in zip(words, map(operator.index, words.values()))
                            if c and not any(u.is_one for u in w[1])} if words else {}

    def key(self):
        return frozenset(self.words.items())

    def is_zero(self) -> bool:
        return not self.words

    def __eq__(self, other):
        return isinstance(other, Term) and self.words == other.words

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other: "Term") -> "Term":
        if not isinstance(other, Term):
            return NotImplemented
        out = dict(self.words)
        for w, c in other.words.items():
            out[w] = out.get(w, 0) + c
        return Term(out)

    def __neg__(self) -> "Term":
        return Term({w: -c for w, c in self.words.items()})

    def __sub__(self, other: "Term") -> "Term":
        if not isinstance(other, Term):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar: int) -> "Term":
        if not isinstance(scalar, int):
            return NotImplemented
        return Term({w: scalar * c for w, c in self.words.items()})

    def __mul__(self, other) -> "Term":
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, Term):
            return NotImplemented
        out: dict = {}
        for (e1, b1), c1 in self.words.items():
            for (e2, b2), c2 in other.words.items():
                w = (e1 + e2, b1 + b2)
                out[w] = out.get(w, 0) + c1 * c2
        return Term(out)

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
        return _render_words(self.words, _unit_word_pieces)

    __repr__ = __str__


def _word_pieces(word: Word, letter_text) -> tuple:
    """The text pieces of a word: its sort key (degree, eta power, letter
    texts) and its body, ``letter_text`` giving each letter's text.

    The body is the word without its coefficient, "" for the constant word.
    """
    e, brs = word
    letters = tuple(map(letter_text, brs))
    bits = [] if e == 0 else ["eta" if e == 1 else f"eta^{e}"]
    bits.extend(f"[{r}]" for r in letters)
    return (len(brs) - e, e, letters), " ".join(bits)


def _unit_word_pieces(word: Word) -> tuple:
    """``_word_pieces`` of a word on ``Unit`` letters, rendered afresh."""
    return _word_pieces(word, render_unit)


def _render_words(words: dict, word_pieces) -> str:
    """The text of the term with these words, ``word_pieces`` giving each word's
    ``_word_pieces``.

    ``Term.__str__`` passes ``_unit_word_pieces``; the search passes its
    letter table's store of pieces for words on integer letters, so both
    render alike.
    """
    if not words:
        return "0"
    # by degree, eta power, then the rendered letters (the body follows from them)
    ordered = sorted(zip(map(word_pieces, words), words.values()), key=itemgetter(0))
    rendered = []
    for (_, body), c in ordered:
        if not body:
            body = str(abs(c))
        elif c != 1 and c != -1:
            body = f"{abs(c)} {body}"
        rendered.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(rendered)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


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


def _require_declared(atoms: frozenset, declared: frozenset):
    """Raise IdentityError naming the sum atoms that ``declared`` lacks."""
    missing = atoms - declared
    if missing:
        raise IdentityError(
            "sum expressions need a unit(...) hypothesis: "
            + ", ".join(sorted(render_unit(Unit(Fraction(1), ((a, 1),))) for a in missing))
        )


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term
    hypotheses: tuple = ()

    def __post_init__(self):
        dl = self.lhs.homogeneous_degree()
        dr = self.rhs.homogeneous_degree()
        if dl is not None and dr is not None and dl != dr:
            raise IdentityError(f"sides have different degrees ({dl} vs {dr})")
        declared = self.declared_sum_atoms()
        for side in (self.lhs, self.rhs):
            _require_declared(side.sum_atoms(), declared)

    def declared_sum_atoms(self) -> frozenset:
        out = set()
        for h in self.hypotheses:
            out |= h.sum_atoms()
        return frozenset(out)

    def degree(self) -> Optional[int]:
        d = self.lhs.homogeneous_degree()
        return d if d is not None else self.rhs.homogeneous_degree()

    def variables(self) -> tuple[str, ...]:
        units = self.lhs.letters() | self.rhs.letters() | set(self.hypotheses)
        return tuple(sorted({a[1] for u in units for _, factors in unit_parts(u)
                             for a, _ in factors if a[0] == VAR}))

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


# the rounds of closure and the number of units ``candidate_units`` keeps
CLOSURE_DEPTH = 1
MAX_CANDIDATES = 64


@dataclass(frozen=True)
class ProveConfig:
    max_depth: int = 12
    max_term_words: int = 16
    hint_units: tuple = ()
    max_states: int = 50000

    def validate(self):
        for fld in ("max_depth", "max_term_words", "max_states"):
            value = getattr(self, fld)
            if not _is_int(value):
                raise ConfigError(f"config limit {fld} must be an integer, not {type(value).__name__}")
            if value <= 0:
                raise ConfigError(f"config limit {fld} must be positive")
        if not isinstance(self.hint_units, (tuple, list)):
            raise ConfigError("config hint_units must be a tuple or list of unit expressions")
        for u in self.hint_units:
            if not isinstance(u, Unit):
                raise ConfigError(f"config hint {u!r} is not a unit expression")


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
    """coeff * eta^pos_eta * left core right, in normal form."""
    out: dict = {}
    for (e, brs), c in core.words.items():
        w = (e + pos_eta, left + brs + right)
        out[w] = out.get(w, 0) + c * coeff
    return Term(out)


def _words_hash(words: dict) -> int:
    """The hash of a state: the sum of ``hash((word, coeff))`` over its
    words.  In the search the words are word ids, so the summands hash ints.

    A sum does not depend on the order of the words, and a change to one
    word changes one summand, so ``_hash_count`` keeps it up to date.
    """
    return sum(map(hash, words.items()))


def _hash_count(words: dict, words_hash: int, core: dict, pos_eta: int, left: tuple,
                right: tuple, coeff: int, letters: "_Letters") -> tuple[int, int]:
    """The ``_words_hash`` and the word count of ``words`` plus
    ``coeff * eta^pos_eta * left core right``, given the hash of ``words``,
    in one pass over the core and without building the sum.

    ``words`` is a words dict on the word ids of the letter table
    ``letters``; ``core`` is an instance's core, on its letters.  Each
    embedded word is built once and interned, which hashes it once; the
    lookup and the summands of the hash then work on its id, and only the
    changed words' summands change: the old item's is subtracted and the
    new one's added.  Distinct core words embed to distinct words, and
    ``coeff`` and the core's coefficients are nonzero, so a word is added
    when it is not in ``words`` and dropped when its coefficient reaches 0.
    """
    h, n_words = words_hash, len(words)
    get = words.get
    # interned inline, as _Letters.word does, without a method call per word
    table = letters.word_list
    intern = letters.word_ids.setdefault
    n = len(table)  # the id of the next new word
    for (e, brs), c in core.items():
        word = (e + pos_eta, left + brs + right)
        w = intern(word, n)
        if w == n:
            table.append(word)
            n += 1
        c1 = get(w, 0)
        c2 = c1 + c * coeff
        if c1:
            h -= hash((w, c1))
            if not c2:
                n_words -= 1
        else:
            n_words += 1
        if c2:
            h += hash((w, c2))
    return h, n_words


def _apply(words: dict, core: dict, pos_eta: int, left: tuple, right: tuple, coeff: int,
           letters: "_Letters") -> dict:
    """The words of ``words`` plus ``coeff * eta^pos_eta * left core right``,
    built in one pass.

    ``words`` and the result are words dicts on the word ids of the letter
    table ``letters``; ``core`` is an instance's core, on its letters, and
    ``_hash_count`` has interned each word it embeds.  The parent's dict is
    copied once and the embedded words are added in place.  Words and their
    order are those of the two-step sum ``term + _embed(...)``: existing
    words update in place, a word whose coefficient reaches 0 drops out,
    and new words follow in the core's order.
    """
    out = dict(words)
    ids = letters.word_ids
    for (e, brs), c in core.items():
        w = ids[(e + pos_eta, left + brs + right)]
        c2 = out.get(w, 0) + c * coeff
        if c2:
            out[w] = c2
        else:
            del out[w]
    return out


def _step_delta(step: ProofStep) -> Term:
    schema = AXIOMS[step.axiom]
    lhs, rhs, _ = schema.build(step.binding)
    core = rhs - lhs if step.direction == "forward" else lhs - rhs
    return _embed(core, step.pos_eta, step.pos_left, step.pos_right, step.coeff)


# A search node is a plain tuple (parent, move, hash): the node it was
# reached from (None for the start and the goal), the move that made it,
# (instance, coeff, pos_eta, left, right), or None, and the state's
# ``_words_hash``.  It holds no words: the search builds a node's words dict
# from its parent's and its move when it needs them, and keeps those of a
# node it expands or meets.  The search builds each node through this name,
# so a test can log the states a search creates by patching it.
_Node = tuple


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
        pool = sorted(cur, key=_unit_complexity)
        # each unit's inverse once per round, not once per pair
        inverses = [u.inverse() for u in pool]
        new = set(inverses)
        for u in pool:
            new.add(-u)
            r = u.sqrt_or_none()
            if r is not None:
                new.add(r)
        for i, (u, u_inv) in enumerate(zip(pool, inverses)):
            for v, v_inv in zip(pool[i:], inverses[i:]):
                new.add(u * v)
                new.add(u * v_inv)
                new.add(v * u_inv)
        cur |= new
        if len(cur) > cap:
            cur = set(sorted(cur, key=_unit_complexity)[:cap])
    ordered = sorted(cur, key=_unit_complexity)
    return ordered, set(ordered)


class _Memo(dict):
    """A dict that fills a missing key on its first lookup: it stores
    ``build(key)`` under the key and returns it.

    ``build`` is a method of the object that holds the memo, and the memo
    refers to it weakly, so the two form no reference cycle: a search's
    tables are freed when the search returns, not at a later collection.
    """

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = weakref.WeakMethod(build)

    def __missing__(self, key):
        out = self[key] = self.build()(key)
        return out


class _Letters:
    """One search's letter and word table, and the move memos keyed by its
    letters.

    The table gives each distinct letter of the search a small int, in
    first-seen order, and keeps per int the first equal unit it saw and
    that unit's rendered text.  Every letter that enters a search term goes
    through it: the letters of the start and goal, the candidates, and the
    product, partner or root that a move needs.  It gives each distinct
    word ``(eta_count, tuple of letters)`` a small int too, its word id, in
    first-seen order, and keeps the word of each id.  The search's terms
    are words dicts from word ids to coefficients, so looking a word up in
    a term, and hashing or comparing a term, work on ints and never call
    into ``Unit``; ``term`` decodes one back to a ``Term`` for the
    certificate.

    An axiom instance is ``(axiom, direction, binding, core)``: the
    binding's letters in the schema's parameter order, and the difference
    the instance adds as a dict from words on letters (not word ids: a move
    embeds them in a context first) to coefficients.  Each core is
    written down on the letters the move already knows, with its words in
    the order of the schema's ``Term``-built difference (``_apply`` appends
    new words in that order); no ``AxiomSchema.build`` runs.

    Every per-search table is a ``_Memo``, filled by its builder on a key's
    first lookup: the letter of each unit (``ids``), the text pieces of
    each word id the search renders (``pieces``, so a word is rendered once
    per search), and the memos that map letters to the instances of their
    moves (``splits``, ``merges``, ``r1``, ``roots``).  A builder returns
    its value and stores nothing; its memo stores it, so each key is built
    once, at its first lookup.  The table and the memos belong to one
    ``search`` call and go with it; ``Unit`` is unchanged, and
    ``check_proof`` reads none of this.
    """

    def __init__(self, cands: Sequence[Unit], declared_sums: frozenset):
        self.units: list = []  # letter -> the first equal unit seen
        self.texts: list = []  # letter -> render_unit of that unit
        self.ids = _Memo(self._new_letter)  # unit -> its letter
        # the int of a unit, given to it the first time an equal unit comes
        self.letter = self.ids.__getitem__
        self.word_ids: dict = {}  # word (eta_count, letters) -> its word id
        self.word_list: list = []  # word id -> its word
        self.pieces = _Memo(self._pieces)  # word id -> its _word_pieces
        self.declared = declared_sums
        cands = [self.letter(u) for u in cands]
        self.cands = set(cands)
        # the candidates other than 1 with their inverses, for R2's splits
        self.inverses = [(x, self.units[x].inverse()) for x in cands if not self.units[x].is_one]
        self.splits = _Memo(self.r2_splits)  # letter m -> R2 forward instances splitting m
        self.merges = _Memo(self.r2_merge)  # letters (a, b) -> the R2 backward instance on them
        self.r1 = _Memo(self.r1_partner)  # letter a -> (1 - a, the R1 instance on a), or None
        self.roots = _Memo(self.r5_root)  # letter m -> R5 instance on the square root of m, or None
        self.minus_one = self.letter(UNIT_MINUS_ONE)
        # R4 forward: -eta^2[-1] - 2 eta
        self.r4 = ("R4", "forward", (), {(2, (self.minus_one,)): -1, (1, ()): -2})

    def _new_letter(self, u: Unit) -> int:
        self.units.append(u)
        self.texts.append(render_unit(u))
        return len(self.units) - 1

    def _pieces(self, word: int) -> tuple:
        return _word_pieces(self.word_list[word], self.texts.__getitem__)

    def word(self, word: tuple) -> int:
        """The id of ``word``, on the table's letters, given to it the first
        time it comes."""
        n = len(self.word_list)
        i = self.word_ids.setdefault(word, n)
        if i == n:
            self.word_list.append(word)
        return i

    def words(self, t: Term) -> dict:
        """``t``'s words as word ids, in ``t``'s order."""
        letter, word = self.letter, self.word
        return {word((e, tuple(map(letter, brs)))): c for (e, brs), c in t.words.items()}

    def term(self, words: dict) -> Term:
        """The term of a words dict on the table's word ids, in its order."""
        units, table = self.units, self.word_list
        out = {}
        for i, c in words.items():
            e, brs = table[i]
            out[(e, tuple(units[x] for x in brs))] = c
        return Term(out)

    def text(self, words: dict) -> str:
        """``str(self.term(words))``, rendered from the stored word pieces."""
        return _render_words(words, self.pieces.__getitem__)

    def r2_splits(self, m: int) -> list:
        """The R2 forward instances on candidates (x, y), neither of them 1,
        with x * y = m."""
        out = []
        u, ids, cands = self.units[m], self.ids, self.cands
        for x, x_inv in self.inverses:
            y = u * x_inv
            if y.is_one:
                continue
            # looked up, not interned: a split needs a candidate y
            y = ids.get(y)
            if y is not None and y in cands:
                # [x] + [y] + eta[x][y] - [m]; m is neither x nor y
                core = {(0, (x,)): 2} if x == y else {(0, (x,)): 1, (0, (y,)): 1}
                core[(1, (x, y))] = 1
                core[(0, (m,))] = -1
                out.append(("R2", "forward", (x, y), core))
        return out

    def r2_merge(self, pair: tuple) -> tuple:
        """The R2 backward instance on the adjacent letters ``pair``, neither of them 1."""
        a, b = pair
        ab = self.units[a] * self.units[b]
        # [ab] - [a] - [b] - eta[a][b], with no [ab] when ab = 1; ab is
        # neither a nor b
        core = {} if ab.is_one else {(0, (self.letter(ab),)): 1}
        if a == b:
            core[(0, (a,))] = -2
        else:
            core[(0, (a,))] = -1
            core[(0, (b,))] = -1
        core[(1, pair)] = -1
        return ("R2", "backward", pair, core)

    def r1_partner(self, a: int) -> Optional[tuple]:
        """``(1 - a, the R1 instance on a)`` when [a][1-a] is an R1 instance
        whose sums the identity declares, else None."""
        u = self.units[a]
        try:
            m = one_minus(u)
        except UnitExprError:
            return None
        if not (m.sum_atoms() | u.sum_atoms()) <= self.declared:
            return None
        m = self.letter(m)
        # -[a][1-a]
        return m, ("R1", "forward", (a,), {(0, (a, m)): -1})

    def r5_root(self, m: int) -> Optional[tuple]:
        """The R5 instance on the literal square root of m, when it is not 1."""
        r = self.units[m].sqrt_or_none()
        if r is None or r.is_one:
            return None
        # -eta[r^2], and r^2 is m
        return ("R5", "forward", (self.letter(r),), {(1, (m,)): -1})


def _moves(words: dict, schema_names, letters: _Letters) -> list:
    """All anchored exact-coefficient moves applicable to a search term.

    A move is ``(instance, coeff, pos_eta, left, right)``: it adds ``coeff``
    times the instance's core at eta power ``pos_eta`` between the letters
    ``left`` and ``right``.  ``words`` is on ``letters``' word ids.  Each
    instance is read from ``letters``' memos, which build it on its first
    lookup, so it is built once per search.
    """
    out = []
    append = out.append
    table = letters.word_list
    r1, r2, r4, r5 = (name in schema_names for name in ("R1", "R2", "R4", "R5"))
    splits, merges, partners, roots = letters.splits, letters.merges, letters.r1, letters.roots
    minus_one, r4_instance = letters.minus_one, letters.r4
    for w, coeff in words.items():
        s, brs = table[w]
        if r2:
            for i, m in enumerate(brs):
                split = splits[m]
                if split:
                    left, right = brs[:i], brs[i + 1 :]
                    for inst in split:
                        append((inst, coeff, s, left, right))
            if s >= 1:
                for i in range(len(brs) - 1):
                    append((merges[brs[i : i + 2]], coeff, s - 1, brs[:i], brs[i + 2 :]))
        if r4:
            if s >= 2:
                for i, m in enumerate(brs):
                    if m == minus_one:
                        append((r4_instance, coeff, s - 2, brs[:i], brs[i + 1 :]))
            if s >= 1 and coeff % 2 == 0:
                for cut in range(len(brs) + 1):
                    append((r4_instance, coeff // 2, s - 1, brs[:cut], brs[cut:]))
        if r1:
            for i in range(len(brs) - 1):
                partner = partners[brs[i]]
                if partner is not None and brs[i + 1] == partner[0]:
                    append((partner[1], coeff, s, brs[:i], brs[i + 2 :]))
        if r5 and s >= 1:
            for i, m in enumerate(brs):
                inst = roots[m]
                if inst is not None:
                    append((inst, coeff, s - 1, brs[:i], brs[i + 1 :]))
    return out


def _path(node: tuple, node_words) -> list:
    """The steps ``(before, move, after)`` from the root of ``node`` to it,
    ``node_words`` giving each node's words dict (built on demand)."""
    out = []
    parent, move, _ = node
    while parent is not None:
        out.append((node_words(parent), move, node_words(node)))
        node = parent
        parent, move, _ = node
    out.reverse()
    return out


def _stitch(identity, mode, letters: _Letters, node_words, left_node, right_node) -> Proof:
    """The certificate of the path through two meeting nodes: the moves'
    letters decoded back to units and their states back to terms."""
    unit = letters.units.__getitem__

    def step(move, direction, before, after):
        (axiom, _, binding, _), coeff, pe, pl, pr = move
        return ProofStep(axiom, direction, dict(zip(AXIOMS[axiom].params, map(unit, binding))),
                         coeff, pe, tuple(map(unit, pl)), tuple(map(unit, pr)),
                         letters.term(before), letters.term(after))

    steps = [step(move, move[0][1], before, after)
             for before, move, after in _path(left_node, node_words)]
    for before, move, after in reversed(_path(right_node, node_words)):
        flipped = "backward" if move[0][1] == "forward" else "forward"
        steps.append(step(move, flipped, after, before))
    return Proof(identity, mode, tuple(steps))


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

    A hint whose sums the hypotheses do not declare is refused with
    ``IdentityError``.  Each state is a words dict on the word ids of the
    search's letter table (``_Letters``).  A child is kept as a ``_Node``:
    its parent, its move and its ``_words_hash``, which ``_hash_count``
    works out with the child's word count, for the word bound, without
    building its words.  Its words are built (``_apply`` on its parent's)
    only when its frontier is sorted for expansion, when its hash meets a
    state of either map, or when it lies on the certificate's path; they
    are kept once it is expanded or met, and a budget search builds them
    for about a quarter of its states.  Word ids are interned in the order
    children are reached, so the states, their order and the certificate
    are those of a search that built every child's words.  The left
    and right maps key each node by its hash; a state whose hash another
    state of the map already holds is keyed by ``frozenset`` of its words
    instead, so two different states are never merged.  Each frontier is
    expanded in the order of its terms' word counts, then their text.
    """
    cfg = config or ProveConfig()
    cfg.validate()
    mode = ProverMode.coerce(mode)
    schema_names = {s.name for s in axioms(mode)}
    declared = identity.declared_sum_atoms()
    for hint in cfg.hint_units:
        _require_declared(hint.sum_atoms(), declared)

    start = normalize(identity.lhs)
    goal = normalize(identity.rhs)
    if start == goal:
        return SearchResult(Proof(identity, mode, ()), None, 1)
    cands, _ = candidate_units(identity, cfg.hint_units, CLOSURE_DEPTH, MAX_CANDIDATES)
    # the letter table and the per-letter memos of this search only; shared
    # with no other search and not with check_proof
    letters = _Letters(cands, declared)
    start, goal = letters.words(start), letters.words(goal)
    text = letters.text
    # id of a node -> its words dict, for the nodes whose words are kept;
    # only nodes that stay in a map enter it, so no id is reused
    built: dict = {}

    def node_words(node, keep=True) -> dict:
        """The words of ``node``: kept ones, or built from its parent's
        (kept, as the parent was expanded) and kept when ``keep``."""
        words = built.get(id(node))
        if words is None:
            parent, (inst, coeff, pe, pl, pr), _ = node
            words = _apply(built[id(parent)], inst[3], pe, pl, pr, coeff, letters)
            if keep:
                built[id(node)] = words
        return words

    def frontier_order(node):
        # not kept: a budget can end a frontier's expansion after a few of
        # its nodes, and an expanded node builds its words again
        words = node_words(node, keep=False)
        return (len(words), text(words))

    start_node = _Node((None, None, _words_hash(start)))
    goal_node = _Node((None, None, _words_hash(goal)))
    built[id(start_node)], built[id(goal_node)] = start, goal
    left, right = {start_node[2]: start_node}, {goal_node[2]: goal_node}
    frontier_l, frontier_r = [start_node], [goal_node]
    max_words = cfg.max_term_words
    depth_total = 0
    states = 2

    while (frontier_l or frontier_r) and depth_total < cfg.max_depth:
        if frontier_l and (not frontier_r or len(frontier_l) <= len(frontier_r)):
            own, other, frontier, from_left = left, right, frontier_l, True
        else:
            own, other, frontier, from_left = right, left, frontier_r, False
        next_frontier = []
        for node in sorted(frontier, key=frontier_order):
            words = node_words(node)
            words_hash = node[2]
            n_words = len(words)
            for move in _moves(words, schema_names, letters):
                inst, coeff, pe, pl, pr = move
                core = inst[3]
                # each word of the core cancels at most one word of the term
                if n_words - len(core) > max_words:
                    continue
                h2, n2 = _hash_count(words, words_hash, core, pe, pl, pr, coeff, letters)
                if n2 > max_words:
                    continue
                # the child's words are built only when its hash meets a
                # node of either map; a node under h2 with other words
                # means a collision: then the state is keyed by its words
                w2 = None
                known = own.get(h2)
                if known is not None:
                    w2 = _apply(words, core, pe, pl, pr, coeff, letters)
                    if node_words(known) == w2 or frozenset(w2.items()) in own:
                        continue
                child = _Node((node, move, h2))
                meet = other.get(h2)
                if meet is not None:
                    if w2 is None:
                        w2 = _apply(words, core, pe, pl, pr, coeff, letters)
                    if node_words(meet) != w2:
                        meet = other.get(frozenset(w2.items()))
                if w2 is not None:
                    built[id(child)] = w2
                if meet is not None:
                    pair = (child, meet) if from_left else (meet, child)
                    return SearchResult(_stitch(identity, mode, letters, node_words, *pair),
                                        None, states)
                own[h2 if known is None else frozenset(w2.items())] = child
                next_frontier.append(child)
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

    A certificate without an identity or a sequence of steps, or a step
    whose fields cannot form a rewrite, is refused, never replayed.
    """
    identity = proof.identity
    if not isinstance(identity, Identity):
        return CheckReport(False, None, f"malformed certificate: {type(identity).__name__} "
                                        "is not an identity")
    if not isinstance(proof.steps, (tuple, list)):
        return CheckReport(False, None, f"malformed certificate: steps are a "
                                        f"{type(proof.steps).__name__}, not a tuple or list")
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
    letter is evaluated once, on coordinates; a word's product of
    (<v_i> - <1>) is expanded over the subsets of its brackets on
    coordinates, and the whole term is summed on unit indices.
    """
    index, coord_mul = ring.unit_index_by_coords(), ring._mul
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
                v = _unit_coords(u, ring, assignment)
                if v not in index:  # a unit exactly when it is indexed
                    raise EvalError(f"symbol argument {render_unit(u)} evaluates to "
                                    f"the non-unit {RingElement(ring, v)}")
                values[u] = v
            nxt: dict = {}
            for w, cw in prod.items():
                nxt[w] = nxt.get(w, 0) - cw
                wv = coord_mul(w, v)
                nxt[wv] = nxt.get(wv, 0) + cw
            prod = nxt
        for w, cw in prod.items():
            k = index[w]
            acc[k] = acc.get(k, 0) + cw
    return GroupRingVector._of_sums(ring, acc)
