import pytest

from mwkit.gwring import PresentationKind, present

try:
    from hypothesis import settings
except ImportError:  # hypothesis comes with the `test` extra
    pass
else:
    # every property test replays the same examples and writes no example
    # database into the checkout; each test sets only its max_examples
    settings.register_profile("mwkit", derandomize=True, deadline=None, database=None)
    settings.load_profile("mwkit")

# Every ring here has at most 256 elements, so structural laws are checked
# exhaustively.  The presentation family is the whole list.
RING_SPECS = [
    "Z/4", "Z/8", "Z/9", "Z/12", "Z/16", "Z/25",
    "GF(2^1)", "Z/3", "GF(2^2)", "Z/5", "Z/7", "GF(3^2)", "Z/11", "Z/13",
    "GR(4,2)", "GR(4,3)",
]

GW_SPECS = list(RING_SPECS)

ODD_FIELD_SPECS = ["Z/3", "Z/5", "Z/7", "GF(3^2)", "Z/11", "Z/13"]


def build_ring(spec):
    from mwkit.finring import parse_ring_spec

    return parse_ring_spec(spec)


@pytest.fixture(scope="session")
def ring_family():
    return [build_ring(s) for s in RING_SPECS]


@pytest.fixture(scope="session")
def gw_family():
    return [build_ring(s) for s in GW_SPECS]


@pytest.fixture(scope="session")
def odd_fields():
    return [build_ring(s) for s in ODD_FIELD_SPECS]


@pytest.fixture(scope="session")
def presented():
    """Memoized presentation factory shared across the suite."""
    cache = {}

    def get(ring, kind):
        kind = PresentationKind.coerce(kind)
        key = (ring.spec_string(), kind)
        if key not in cache:
            cache[key] = present(ring, kind)
        return cache[key]

    return get
