"""Spans and call counters wrapped around mwkit's public functions.

The wrapping lives entirely in the benchmark: each target function or
method is replaced by a wrapper that records a span (case id, span id,
parent span id, thread, name, start, end, info) into an in-memory list, and
every mwkit module namespace that imported the original name is patched
too, so ``cli.present`` and ``qform.build_relations`` are traced like
``gwring.present``.  ``info`` carries a count read from the call's
arguments or result (rows kept, lattice rank, rounds, ...), so counts are
taken at the same boundaries as the spans.

Start and end are readings of the CPU clock of the span's own thread
(``time.thread_time``).  ``table`` runs its rings on a thread pool, and
under the GIL those threads take turns: a wall-clock span on one of them
would also cover the others' work.  mwkit is CPU-bound, so a span's
thread CPU time is the work done inside it, wherever it runs.

Ring arithmetic is far too hot for spans; ``CallCounter`` counts
``Ring.mul``, ``Ring.add`` and ``Ring.inverse_or_none`` in a separate pass,
so its cost never lands in a span's self time.
"""

from __future__ import annotations

import itertools
import sys
import threading
from threading import get_ident
from contextlib import contextmanager
from time import thread_time


def _module_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mwkit" or name.startswith("mwkit."))]


class _Patcher:
    """Replace attributes and put the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, new)
            self._undo.append((owner, attr, old))
            return
        for mod in _module_namespaces():
            for name, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, name, new)
                    self._undo.append((mod, name, old))

    def restore(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def _targets():
    """(owner, attribute, span name, info) for every traced boundary.

    ``info(args, result)`` returns the number stored with the span, or is
    None when the span carries no count.
    """
    from mwkit import cli, finring, gwring, kmwterm, presab, qform, sumsq, termparse

    def n_rows(args, result):
        return len(result)

    def grew(args, result):
        return 1 if result else 0

    def quotient_info(args, result):
        rows = args[1]
        entry = max((abs(x) for row in rows for x in row), default=0)
        return (result.ambient - result.rank, entry)

    def closure_info(args, result):
        return (result.rounds, len(result.exponent_of))

    def n_candidates(args, result):
        return len(result[0])

    return [
        (cli, "main", "cli.main", None),
        (termparse, "parse_identity", "termparse.parse", None),
        (termparse, "parse_term", "termparse.parse", None),
        (termparse, "parse_unit", "termparse.parse", None),
        (termparse, "parse_hypotheses", "termparse.parse", None),
        (finring.Ring, "units", "finring.units", None),
        (gwring, "present", "gwring.present", None),
        (gwring, "build_relations", "gwring.build_relations", n_rows),
        (gwring, "compare_presentations", "gwring.compare", None),
        (gwring.GwPresentedRing, "invert_two_split", "gwring.split", None),
        (gwring.GwPresentedRing, "class_equal", "gwring.class_equal", None),
        (gwring.GwPresentedRing, "torsion_exponent", "gwring.torsion_exponent", None),
        (presab.ZLattice, "add", "presab.insert", grew),
        (presab.ZLattice, "contains", "presab.contains", None),
        (presab, "quotient", "presab.quotient", quotient_info),
        (presab.SnfPresentation, "element_order", "presab.element_order", None),
        (sumsq, "unit_square_closure", "sumsq.closure", closure_info),
        (qform, "oracle_lattice", "qform.oracle", None),
        (qform, "isometric", "qform.isometric", None),
        (qform, "cross_validate", "qform.cross_validate", None),
        (kmwterm, "candidate_units", "kmwterm.candidates", n_candidates),
        (kmwterm, "prove", "kmwterm.prove", None),
        (kmwterm, "check_proof", "kmwterm.check", None),
        (kmwterm, "eval_in_ring", "kmwterm.eval", None),
    ]


class _Instrument:
    """Wrappers that ``install`` puts in place and ``uninstall`` removes."""

    _patcher: _Patcher

    def install(self) -> None:
        raise NotImplementedError

    def uninstall(self) -> None:
        self._patcher.restore()

    @contextmanager
    def suspended(self):
        """Run the body on mwkit's own functions, e.g. to check answers."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()


class Tracer(_Instrument):
    """Record spans at the wrapped boundaries while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.case = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patcher = _Patcher()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name: str, info):
        spans, ids, main_stack, stack_of = self.spans, self._ids, self._main_stack, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            # a span opened on a pool thread belongs to the main-thread span that started the pool
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            thread = get_ident()
            sid = next(ids)
            stack.append(sid)
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = thread_time()
                stack.pop()
                spans.append((self.case, sid, parent, thread, name, t0, t1, None))
                raise
            t1 = thread_time()
            stack.pop()
            spans.append((self.case, sid, parent, thread, name, t0, t1,
                          info(args, result) if info else None))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, info in _targets():
            self._patcher.replace(owner, attr, self._wrap(owner.__dict__[attr], name, info))


class CallCounter(_Instrument):
    """Count ring operations, with no spans."""

    OPS = {"mul": "finring.mul_calls", "add": "finring.add_calls",
           "inverse_or_none": "finring.inverse_calls"}

    def __init__(self):
        self._counts = {op: itertools.count() for op in self.OPS}
        self._patcher = _Patcher()

    def install(self) -> None:
        from mwkit.finring import Ring

        for op, counter in self._counts.items():
            self._patcher.replace(Ring, op, self._wrap(Ring.__dict__[op], counter))

    @staticmethod
    def _wrap(fn, counter):
        tick = counter.__next__  # one C call, so pool threads cannot lose a count

        def counted(self, *args):
            tick()
            return fn(self, *args)

        return counted

    def counts(self) -> dict:
        # reading an itertools.count advances it, so read a copy
        return {metric: int(repr(self._counts[op])[6:-1])
                for op, metric in self.OPS.items()}


# ---------------------------------------------------------------------------
# deriving per-layer metrics from spans


# span fields
CASE, SPAN, PARENT, THREAD, NAME, START, END, INFO = range(8)
FIELDS = ["case", "span", "parent", "thread", "name", "start", "end", "info"]


def self_times(spans) -> dict:
    """Span id -> its CPU time minus that of its children on the same thread.

    A child on another thread (a pool worker) spends another thread's CPU
    time, so it is not taken out of its parent's.  Children on one thread
    run one after another, so their times do not overlap.
    """
    out = {s[SPAN]: s[END] - s[START] for s in spans}
    thread_of = {s[SPAN]: s[THREAD] for s in spans}
    for s in spans:
        if s[PARENT] in out and thread_of[s[PARENT]] == s[THREAD]:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _outermost(spans, name: str):
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s[SPAN]: s for s in spans}
    for s in spans:
        if s[NAME] != name:
            continue
        p = by_id.get(s[PARENT])
        while p is not None and p[NAME] != name:
            p = by_id.get(p[PARENT])
        if p is None:
            yield s


# metric -> (span name, "incl" for outermost inclusive time or "self")
TIME_METRICS = {
    "finring.units_s": ("finring.units", "incl"),
    "gwring.relations_s": ("gwring.build_relations", "incl"),
    "gwring.split_s": ("gwring.split", "incl"),
    "gwring.compare_s": ("gwring.compare", "self"),
    "gwring.class_equal_s": ("gwring.class_equal", "incl"),
    "gwring.torsion_exponent_s": ("gwring.torsion_exponent", "incl"),
    "presab.insert_s": ("presab.insert", "incl"),
    "presab.contains_s": ("presab.contains", "incl"),
    "presab.quotient_s": ("presab.quotient", "self"),
    "presab.element_order_s": ("presab.element_order", "incl"),
    "sumsq.closure_s": ("sumsq.closure", "incl"),
    "qform.oracle_s": ("qform.oracle", "incl"),
    "qform.cross_validate_s": ("qform.cross_validate", "self"),
    "kmwterm.candidates_s": ("kmwterm.candidates", "incl"),
    "kmwterm.prove_s": ("kmwterm.prove", "self"),
    "kmwterm.check_s": ("kmwterm.check", "incl"),
    "kmwterm.eval_s": ("kmwterm.eval", "incl"),
    "termparse.parse_s": ("termparse.parse", "incl"),
    "cli.self_s": ("cli.main", "self"),
}


def layer_metrics(spans) -> dict:
    """Per-layer CPU times (s) and counts from one traced pass."""
    selfs = self_times(spans)
    out = {}
    for metric, (name, how) in TIME_METRICS.items():
        if how == "self":
            out[metric] = sum(selfs[s[SPAN]] for s in spans if s[NAME] == name)
        else:
            out[metric] = sum(s[END] - s[START] for s in _outermost(spans, name))

    def named(name):
        return [s for s in spans if s[NAME] == name]

    inserts = named("presab.insert")
    quotient_ids = {s[SPAN] for s in named("presab.quotient")}
    out["presab.quotient_insert_s"] = sum(s[END] - s[START] for s in inserts
                                          if s[PARENT] in quotient_ids)
    out["presab.insert_calls"] = len(inserts)
    out["presab.insert_grew"] = sum(s[INFO] or 0 for s in inserts)
    out["presab.insert_useful"] = out["presab.insert_grew"] / len(inserts) if inserts else 0.0
    quotients = [s[INFO] for s in named("presab.quotient") if s[INFO]]
    out["presab.lattice_rank"] = sum(q[0] for q in quotients)
    out["presab.max_entry"] = max((q[1] for q in quotients), default=0)
    out["presab.contains_calls"] = len(named("presab.contains"))
    out["gwring.rows_kept"] = sum(s[INFO] or 0 for s in named("gwring.build_relations"))
    out["gwring.class_equal_calls"] = len(named("gwring.class_equal"))
    closures = [s[INFO] for s in named("sumsq.closure") if s[INFO]]
    out["sumsq.rounds"] = sum(c[0] for c in closures)
    out["sumsq.reached"] = sum(c[1] for c in closures)
    out["qform.isometric_calls"] = len(named("qform.isometric"))
    out["kmwterm.candidates"] = sum(s[INFO] or 0 for s in named("kmwterm.candidates"))
    return out
