"""Host speed probes, so case times from a shared machine can be compared.

The benchmark was built on a 2-vCPU VM that shares its host.  There the
speed of any fixed piece of Python swings by up to 1.5x for seconds to
minutes at a time, so a raw case time says as much about the neighbours as
about mwkit.  A probe runs a fixed piece of pure-Python work of the kind
mwkit does (small tuples, dict lookups, int arithmetic) and times it; its
reading tracks the host's speed at that moment.

``SpeedProbe.timed(fn)`` runs ``fn`` with probes taken just before, just
after, and every ``interval`` seconds of process CPU time inside it (on
``SIGPROF``).  The time the probes inside take is subtracted from the
case's wall time, and the rest is scaled to the reference speed:

    normalised = (wall - probe time) * REFERENCE_PROBE_S / mean(readings)

so a case reads the seconds it would take on a host where one probe takes
``REFERENCE_PROBE_S``, about a typical probe on the VM the benchmark was
built on.  A change to mwkit moves ``wall`` and leaves the readings alone.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
from time import perf_counter, thread_time

REFERENCE_PROBE_S = 0.0005
PROBE_INTERVAL_S = 0.05  # of process CPU time
_SUBRUNS = 3


def _work() -> int:
    table: dict = {}
    acc = 1
    for i in range(400):
        key = (i * 7919 % 61, i & 7)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + key[0] * key[1]) % 1000003
        pair = tuple(sorted((acc % 13, key[0], key[1])))
        if pair in table:
            acc += 1
    return acc + len(table)


def probe_reading() -> float:
    """CPU seconds of one run of the probe work: the best of a few runs
    taken back to back, so an interrupt during one of them does not count.

    Probes are timed on their own thread's CPU clock.  ``table`` works on a
    thread pool, and a probe on the main thread can lose the GIL to a pool
    thread half way; on a wall clock that pool thread's work would be read
    as a slow host, and taken out of the case as probe time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_SUBRUNS):
            t0 = thread_time()
            _work()
            best = min(best, thread_time() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


_thread_start = threading.Thread.start


def _start_with_sigprof_blocked(self, *args, **kwargs):
    """Start a thread that never takes ``SIGPROF``.

    The kernel sends the profiling timer's signal to a thread that is
    running, and CPython runs Python signal handlers only on the main
    thread.  While ``table``'s pool threads work, the main thread sleeps in
    a lock wait that only a signal sent to it breaks, so without this the
    probes would wait for the whole case.  A thread inherits its signal
    mask from the thread that starts it.
    """
    old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
    try:
        return _thread_start(self, *args, **kwargs)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


class SpeedProbe:
    """Probe readings around, and with an interval also inside, timed work.

    With ``interval`` None the probe reads only before and after, which
    keeps it out of the spans of a traced pass.
    """

    def __init__(self, interval: float | None = PROBE_INTERVAL_S):
        self.interval = interval
        self._inside: list[tuple[float, float]] = []  # (reading, seconds spent)
        self._busy = False

    def _on_prof(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = thread_time()
            reading = probe_reading()
            self._inside.append((reading, thread_time() - t0))
        finally:
            self._busy = False

    def install(self) -> None:
        if self.interval:
            signal.signal(signal.SIGPROF, self._on_prof)
            threading.Thread.start = _start_with_sigprof_blocked

    def start(self) -> None:
        self._inside = []
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> tuple[list, float]:
        """Readings taken since ``start`` and the seconds they took."""
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, 0)
        inside = self._inside
        return [r for r, _ in inside], sum(spent for _, spent in inside)

    def timed(self, fn):
        """(result, raw seconds, normalised seconds).

        Raises what ``fn`` raises; the timer is stopped on every path.
        """
        before = probe_reading()
        self.start()
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            t1 = perf_counter()
            inside, spent = self.stop()
        raw = t1 - t0 - spent
        return result, raw, normalise(raw, [before] + inside + [probe_reading()])


def normalise(raw: float, readings: list) -> float:
    return raw * REFERENCE_PROBE_S / statistics.fmean(readings)
