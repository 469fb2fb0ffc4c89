"""mwkit: exact computer algebra for symbol relations over finite rings.

The package computes with three interlocking gadgets:

* finite commutative rings (``finring``) and their unit groups,
* finitely presented abelian groups over the integers (``presab``),
  used to present the degree-zero rings Z[R^x]/I (``gwring``) and to
  cross-check them against a brute-force quadratic form oracle (``qform``),
* the graded term algebra on the Hopf element eta and symbols [a],
  with a bounded, certificate-producing equational prover (``kmwterm``).

Everything is exact integer arithmetic; there is no floating point anywhere.
"""

__version__ = "0.1.0"

from .finring import (
    GaloisField,
    GaloisRing,
    ProductRing,
    RingError,
    Zmod,
    make_ring,
    parse_ring_spec,
)
from .gwring import GwPresentedRing, PresentationKind, build_relations, compare_presentations, present
from .sumsq import minus_one_exponent, unit_square_closure

# the command-line front end loads with the package, so that in a process
# that calls ``cli.main`` more than once the first call costs what the later
# ones do; ``qform`` and the prover modules still load only when a
# subcommand needs them
from . import cli

__all__ = [
    "GaloisField",
    "GaloisRing",
    "GwPresentedRing",
    "PresentationKind",
    "ProductRing",
    "RingError",
    "Zmod",
    "build_relations",
    "compare_presentations",
    "make_ring",
    "minus_one_exponent",
    "parse_ring_spec",
    "present",
    "unit_square_closure",
    "__version__",
]
