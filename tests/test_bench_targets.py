"""The benchmark's traced boundaries name code that exists.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its ``_targets()``
by reading ``owner.__dict__[attr]``, so a boundary that was renamed,
removed or moved to a base class only shows when a traced run fails.
This test reads the list without installing a trace.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_defined_by_its_owner():
    targets = _load_tracing()._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert not missing, missing
