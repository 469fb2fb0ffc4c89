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

The search spends its time looking up terms.  It runs on integer letters:
a letter table gives each distinct letter of the search a small int, and
the start, the goal, every state and every axiom instance are plain dicts
from words ``(eta_count, tuple[int, ...])`` to coefficients, so hashing a
word never calls back into Python.  One search builds each axiom instance
once, and works out R2's candidate splits, R1's ``1 - a``, R4's ``-1`` and
R5's square root once per letter.  Each state is keyed by its words and a
hash that is a sum over its words, which a move updates for the words it
changes only; a child is built from its parent's words in one pass
(``_apply``).  Each frontier is ordered by the rendered text of its terms,
rendered from the letter table's texts by the renderer ``Term.__str__``
uses.  Only the certificate is decoded back to units and terms.  These
memos live in the call, not in the module, and ``check_proof`` shares none
of them: it rebuilds every instance from the certificate and compares
structurally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import itemgetter
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

    The hash is computed once, at construction: a term's words are tuples
    of units, hashed on every lookup.  The text is stored by the first
    ``render_unit`` call, so rendering a term renders each letter once.
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
        return _render_words(self.words, render_unit)

    __repr__ = __str__


def _render_words(words: dict, letter_text) -> str:
    """The text of the term with these words, ``letter_text`` giving each letter's.

    ``Term.__str__`` passes ``render_unit``; the search passes its letter
    table's texts for words on integer letters, so both render alike.
    """
    if not words:
        return "0"
    # by degree, eta power, then the rendered letters
    ordered = sorted(
        (((len(brs) - e, e, tuple(map(letter_text, brs))), c) for (e, brs), c in words.items()),
        key=itemgetter(0),
    )
    rendered = []
    for (_, e, letters), c in ordered:
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
    name: str = ""

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
            value = getattr(self, fld)
            if not _is_int(value):
                raise ConfigError(f"config limit {fld} must be an integer, not {type(value).__name__}")
            if value <= 0 and fld != "closure_depth":
                raise ConfigError(f"config limit {fld} must be positive")
        if self.closure_depth < 0:
            raise ConfigError("config limit closure_depth must be nonnegative")
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


def _apply(words: dict, words_hash: int, core: dict, pos_eta: int, left: tuple,
           right: tuple, coeff: int) -> tuple[dict, int]:
    """The words of ``words`` plus ``coeff * eta^pos_eta * left core right``,
    built in one pass, and their ``_words_hash`` given that of ``words``.

    Both are words dicts on the search's integer letters.  The parent's dict
    is copied once (a dict copy keeps the stored hashes) and the embedded
    words are added in place, so only the core's words are hashed, and only
    their summands of the hash change: the old item's is subtracted and the
    new one's added.  Words and their order are those of the two-step sum
    ``term + _embed(...)``: existing words update in place, a word whose
    coefficient reaches 0 drops out, and new words follow in the core's
    order.  Distinct core words embed to distinct words, and ``coeff`` and
    the core's coefficients are nonzero, so a word that reaches 0 is one
    of the parent's.
    """
    out = dict(words)
    h = words_hash
    for (e, brs), c in core.items():
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
    return out, h


def _step_delta(step: ProofStep) -> Term:
    schema = AXIOMS[step.axiom]
    lhs, rhs, _ = schema.build(step.binding)
    core = rhs - lhs if step.direction == "forward" else lhs - rhs
    # a certificate's positions are input, so the delta is re-normalised
    return normalize(_embed(core, step.pos_eta, step.pos_left, step.pos_right, step.coeff))


@dataclass(slots=True)
class _Node:
    words: dict  # the state, on the search's integer letters
    parent: Optional["_Node"]
    step: Optional[tuple]  # the move that made it: (instance, coeff, pos_eta, left, right)


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

    The table gives each distinct letter of the search a small int, in
    first-seen order, and keeps per int the first equal unit it saw and
    that unit's rendered text.  Every letter that enters a search term goes
    through it: the letters of the start and goal, the candidates, and the
    letters of each axiom instance when it is built.  So the search's terms
    are words dicts on ints, and hashing or comparing them never calls into
    ``Unit``; ``term`` decodes one back to a ``Term`` for the certificate.

    An axiom instance is ``(axiom, direction, binding, core)``: the
    binding's letters in the schema's parameter order, and the difference
    the instance adds as a words dict, built once.  The memos map letters to
    the instances of their moves.  The table and the memos belong to one
    ``search`` call and go with it; ``Unit`` is unchanged, and
    ``check_proof`` reads none of this.
    """

    def __init__(self, cands: Sequence[Unit], declared_sums: frozenset):
        self.ids: dict = {}  # unit -> its letter
        self.units: list = []  # letter -> the first equal unit seen
        self.texts: list = []  # letter -> render_unit of that unit
        self.declared = declared_sums
        cands = [self.letter(u) for u in cands]
        self.cands = set(cands)
        # the candidates other than 1 with their inverses, for R2's splits
        self.inverses = [(x, self.units[x].inverse()) for x in cands if not self.units[x].is_one]
        self.splits: dict = {}  # letter m -> R2 forward instances splitting m
        self.merges: dict = {}  # letters (a, b) -> the R2 backward instance on them
        self.steinberg: dict = {}  # letter a -> 1 - a for R1, or None
        self.r1: dict = {}  # letter a -> the R1 instance on a
        self.roots: dict = {}  # letter m -> R5 instance on the square root of m, or None
        self.minus_one = self.letter(UNIT_MINUS_ONE)
        self.r4 = self.instance("R4", "forward", ())

    def letter(self, u: Unit) -> int:
        """The int of ``u``, given to it the first time an equal unit comes."""
        i = self.ids.get(u)
        if i is None:
            i = self.ids[u] = len(self.units)
            self.units.append(u)
            self.texts.append(render_unit(u))
        return i

    def words(self, t: Term) -> dict:
        """``t``'s words on the table's letters, in ``t``'s order."""
        letter = self.letter
        return {(e, tuple(map(letter, brs))): c for (e, brs), c in t.words.items()}

    def term(self, words: dict) -> Term:
        """The term of a words dict on the table's letters, in its order."""
        units = self.units
        return Term._of({(e, tuple(units[i] for i in brs)): c for (e, brs), c in words.items()})

    def text(self, words: dict) -> str:
        """``str(self.term(words))``, rendered from the table's texts."""
        return _render_words(words, self.texts.__getitem__)

    def instance(self, axiom: str, direction: str, binding: tuple) -> tuple:
        """The instance of ``axiom`` on the letters ``binding``, its core built."""
        schema = AXIOMS[axiom]
        lhs, rhs, _ = schema.build(dict(zip(schema.params, map(self.units.__getitem__, binding))))
        core = self.words(rhs - lhs if direction == "forward" else lhs - rhs)
        return (axiom, direction, binding, core)

    def r2_splits(self, m: int) -> list:
        """The R2 forward instances on candidates (x, y), neither of them 1,
        with x * y = m."""
        out = []
        u, ids, cands = self.units[m], self.ids, self.cands
        for x, x_inv in self.inverses:
            y = u * x_inv
            if y.is_one:
                continue
            y = ids.get(y)
            if y is not None and y in cands:
                out.append(self.instance("R2", "forward", (x, y)))
        self.splits[m] = out
        return out

    def steinberg_partner(self, a: int) -> Optional[int]:
        """1 - a when [a][1-a] is an R1 instance whose sums the identity
        declares, else None."""
        u = self.units[a]
        try:
            m = one_minus(u)
        except UnitExprError:
            m = None
        else:
            m = self.letter(m) if (m.sum_atoms() | u.sum_atoms()) <= self.declared else None
        self.steinberg[a] = m
        return m

    def r5_root(self, m: int) -> Optional[tuple]:
        """The R5 instance on the literal square root of m, when it is not 1."""
        r = self.units[m].sqrt_or_none()
        out = None
        if r is not None and not r.is_one:
            out = self.instance("R5", "forward", (self.letter(r),))
        self.roots[m] = out
        return out


def _moves(words: dict, schema_names, letters: _Letters) -> list:
    """All anchored exact-coefficient moves applicable to a search term.

    A move is ``(instance, coeff, pos_eta, left, right)``: it adds ``coeff``
    times the instance's core at eta power ``pos_eta`` between the letters
    ``left`` and ``right``.  Each instance comes from ``letters``' memos, so
    it is built once per search.
    """
    out = []
    append = out.append
    r1, r2, r4, r5 = (name in schema_names for name in ("R1", "R2", "R4", "R5"))
    splits, merges = letters.splits, letters.merges
    steinberg, r1_instances, roots = letters.steinberg, letters.r1, letters.roots
    minus_one, r4_instance = letters.minus_one, letters.r4
    for (s, brs), coeff in words.items():
        if r2:
            for i, m in enumerate(brs):
                split = splits.get(m)
                if split is None:
                    split = letters.r2_splits(m)
                if split:
                    left, right = brs[:i], brs[i + 1 :]
                    for inst in split:
                        append((inst, coeff, s, left, right))
            if s >= 1:
                for i in range(len(brs) - 1):
                    pair = brs[i : i + 2]
                    inst = merges.get(pair)
                    if inst is None:
                        inst = merges[pair] = letters.instance("R2", "backward", pair)
                    append((inst, coeff, s - 1, brs[:i], brs[i + 2 :]))
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
                a = brs[i]
                m = steinberg.get(a, _UNSET)
                if m is _UNSET:
                    m = letters.steinberg_partner(a)
                if m is not None and brs[i + 1] == m:
                    inst = r1_instances.get(a)
                    if inst is None:
                        inst = r1_instances[a] = letters.instance("R1", "forward", (a,))
                    append((inst, coeff, s, brs[:i], brs[i + 2 :]))
        if r5 and s >= 1:
            for i, m in enumerate(brs):
                inst = roots.get(m, _UNSET)
                if inst is _UNSET:
                    inst = letters.r5_root(m)
                if inst is not None:
                    append((inst, coeff, s - 1, brs[:i], brs[i + 1 :]))
    return out


def _path(node: _Node) -> list:
    out = []
    while node.parent is not None:
        out.append((node.parent.words, node.step, node.words))
        node = node.parent
    out.reverse()
    return out


def _stitch(identity, mode, letters: _Letters, left_node, right_node) -> Proof:
    """The certificate of the path through two meeting nodes: the moves'
    letters decoded back to units and their states back to terms."""
    unit = letters.units.__getitem__

    def step(move, direction, before, after):
        (axiom, _, binding, _), coeff, pe, pl, pr = move
        return ProofStep(axiom, direction, dict(zip(AXIOMS[axiom].params, map(unit, binding))),
                         coeff, pe, tuple(map(unit, pl)), tuple(map(unit, pr)),
                         letters.term(before), letters.term(after))

    steps = [step(move, move[0][1], before, after) for before, move, after in _path(left_node)]
    for before, move, after in reversed(_path(right_node)):
        flipped = "backward" if move[0][1] == "forward" else "forward"
        steps.append(step(move, flipped, after, before))
    return Proof(identity, mode, tuple(steps))


class _StateKey:
    """A search state as a key of the left and right maps.

    It holds the state's words dict and their ``_words_hash``, which
    ``_apply`` keeps up to date from the parent's, so no lookup re-hashes
    the state's words.  Two keys are equal exactly when their words dicts
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

    A hint whose sums the hypotheses do not declare is refused with
    ``IdentityError``.  Each state is a words dict on the letters of the
    search's letter table (``_Letters``), kept beside its ``_words_hash``
    (in the frontier) and under its ``_StateKey`` (in the maps).  Each
    frontier is expanded in the order of its terms' word counts, then
    their text.
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
    cands, _ = candidate_units(
        identity, cfg.hint_units, cfg.closure_depth, cfg.max_candidates
    )
    # the letter table and the per-letter memos of this search only; shared
    # with no other search and not with check_proof
    letters = _Letters(cands, declared)
    start, goal = letters.words(start), letters.words(goal)
    text = letters.text

    def frontier_order(entry):
        words = entry[0].words
        return (len(words), text(words))

    start_node, goal_node = _Node(start, None, None), _Node(goal, None, None)
    start_hash, goal_hash = _words_hash(start), _words_hash(goal)
    left = {_StateKey(start, start_hash): start_node}
    right = {_StateKey(goal, goal_hash): goal_node}
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
        for node, words_hash in sorted(frontier, key=frontier_order):
            words = node.words
            n_words = len(words)
            for move in _moves(words, schema_names, letters):
                inst, coeff, pe, pl, pr = move
                core = inst[3]
                # each word of the core cancels at most one word of the term
                if n_words - len(core) > max_words:
                    continue
                w2, h2 = _apply(words, words_hash, core, pe, pl, pr, coeff)
                if len(w2) > max_words:
                    continue
                k2 = _StateKey(w2, h2)
                if k2 in own:
                    continue
                child = _Node(w2, node, move)
                meet = other.get(k2)
                if meet is not None:
                    pair = (child, meet) if from_left else (meet, child)
                    return SearchResult(_stitch(identity, mode, letters, *pair), None, states)
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
