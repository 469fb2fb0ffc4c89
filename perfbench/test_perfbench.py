"""Self-tests of the benchmark: checker, tracing arithmetic, seeding.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy

import pytest

import workloads
from speed import REFERENCE_PROBE_S, SpeedProbe, normalise
from tracing import CallCounter, Tracer, layer_metrics, self_times
from mwkit import finring, gwring


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def small_built():
    """Presentations of two query rings, enough to exercise every query case kind."""
    built = {}
    for spec in ("Z/13", "Z/25"):
        ring = finring.make_ring(spec)
        for kind in workloads.QUERY_KINDS:
            built[(spec, kind)] = gwring.present(ring, kind)
    return built


def _case(key):
    cases = {c.key: c for w in ("present", "arith", "prove") for c in workloads.fixed_cases(w)}
    return cases[key]


def test_reference_answers_pass_their_checks(reference):
    for workload in ("present", "arith", "prove"):
        for case in workloads.fixed_cases(workload):
            assert workloads.problems(case, reference[case.key], reference) == [], case.key


@pytest.mark.parametrize("key, corrupt", [
    ("validate --ring Z/11", lambda a: a.update(rank=2)),
    ("gw --ring GF(2^5) --kind reduced", lambda a: a.update(torsion=[2])),
    ("sumsq --ring Z/127", lambda a: a.update(minus_one_exponent=0)),
    ("compare --ring GF(2^4)", lambda a: a.update(extra_relations_implied=False)),
    ("table --family perfbench/table_family.txt",
     lambda a: a["rows"][3].update(minus_one_exponent=0)),
    ("prove corpus", lambda a: a["results"][4].update(checked=False)),
])
def test_checker_flags_a_corrupted_answer(reference, key, corrupt):
    answer = copy.deepcopy(reference[key])
    corrupt(answer)
    found = workloads.problems(_case(key), answer, reference)
    assert "differs from the reference answer" in found
    assert len(found) >= 2, "the independent check should catch it too"


def test_checker_flags_corrupted_query_answers(small_built):
    for case in workloads.query_cases(1, small_built):
        answer = case.run()
        assert case.check(answer) == [], case.key
        bad = copy.deepcopy(answer)
        if "class_equal" in case.key:
            bad[0] = not bad[0]
        elif "torsion_exponent" in case.key:
            bad[0] = 7 if bad[0] is None else None
        elif "eval_in_ring" in case.key:
            bad[0] = {}
        else:
            bad[0] = (bad[0][0], False)
        assert case.check(bad), case.key


def test_self_times_of_a_nested_trace_add_up_to_the_root():
    spans = [  # (case, id, parent, thread, name, start, end, info)
        (1, 1, None, 1, "root", 0.0, 10.0, None),
        (1, 2, 1, 1, "a", 1.0, 4.0, None),
        (1, 3, 2, 1, "a.inner", 2.0, 3.0, None),
        (1, 4, 1, 1, "b", 5.0, 9.0, None),
        (1, 5, 4, 1, "b.inner", 5.5, 7.0, None),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 2.5, 5: 1.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_of_a_two_thread_trace():
    # the main thread's span waits while two pool threads work, each on its own CPU clock
    spans = [
        (1, 1, None, 1, "root", 0.0, 1.0, None),
        (1, 2, 1, 1, "main.child", 0.2, 0.7, None),
        (1, 3, 1, 2, "pool", 0.0, 3.0, None),
        (1, 4, 3, 2, "pool.inner", 1.0, 2.0, None),
        (1, 5, 1, 3, "pool", 0.0, 2.0, None),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 0.5, 2: 0.5, 3: 2.0, 4: 1.0, 5: 2.0})
    assert sum(selfs.values()) == pytest.approx(1.0 + 3.0 + 2.0)


def test_spans_on_pool_threads_count_each_thread_once():
    """Two busy threads share the GIL; their spans must not cover each other's work."""
    import time
    from concurrent.futures import ThreadPoolExecutor

    def busy():
        s = 0
        for i in range(300_000):
            s += i % 7
        return s

    tracer = Tracer()
    traced = tracer._wrap(busy, "busy", None)
    cpu0 = time.process_time()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda _: traced(), range(4)))
    cpu = time.process_time() - cpu0
    total = sum(s[6] - s[5] for s in tracer.spans)
    assert len(tracer.spans) == 4 and len({s[3] for s in tracer.spans}) == 2
    assert 0.5 * cpu < total <= 1.05 * cpu + 0.01


def test_seeds_change_query_inputs_and_case_order_and_answers_check(small_built):
    one = workloads.ordered(workloads.query_cases(1, small_built), 1)
    two = workloads.ordered(workloads.query_cases(2, small_built), 2)
    assert [c.key for c in one] != [c.key for c in two]
    by_key = {c.key: c for c in two}
    for case in one:
        assert case.inputs != by_key[case.key].inputs or case.key.startswith("query eval"), case.key
    for case in one + two:
        assert case.check(case.run()) == [], case.key
    present = [c.key for c in workloads.fixed_cases("present")]
    assert [c.key for c in workloads.ordered(workloads.fixed_cases("present"), 1)] != \
        [c.key for c in workloads.ordered(workloads.fixed_cases("present"), 2)]
    assert sorted(present) == sorted(c.key for c in workloads.ordered(
        workloads.fixed_cases("present"), 3))


def _traced_present(spec):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.case = 1
        p = gwring.present(finring.make_ring(spec), "reduced")
        p.class_equal(p.angle(p.ring.one), p.angle(p.ring.one))
    finally:
        tracer.uninstall()
    return tracer.spans


def test_tracer_patches_every_namespace_and_restores_it():
    original = gwring.build_relations
    spans = _traced_present("Z/7")
    assert gwring.build_relations is original
    from mwkit import qform

    assert qform.build_relations is original
    names = {s[4] for s in spans}
    assert {"gwring.present", "gwring.build_relations", "presab.insert",
            "presab.quotient", "gwring.class_equal", "presab.contains"} <= names
    by_id = {s[1]: s for s in spans}
    build = next(s for s in spans if s[4] == "gwring.build_relations")
    assert by_id[build[2]][4] == "gwring.present"


def test_counts_repeat_exactly():
    first = layer_metrics(_traced_present("Z/11"))
    second = layer_metrics(_traced_present("Z/11"))
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["gwring.rows_kept"] > 0 and first["presab.insert_calls"] > 0

    totals = []
    for _ in range(2):
        counter = CallCounter()
        counter.install()
        try:
            gwring.present(finring.make_ring("Z/11"), "hopf")
        finally:
            counter.uninstall()
        totals.append(counter.counts())
    assert totals[0] == totals[1] and totals[0]["finring.mul_calls"] > 0


def test_a_hung_case_times_out_and_the_next_case_runs(monkeypatch):
    import signal
    import threading
    import time

    import worker

    def hang():
        while True:
            time.sleep(0.01)

    monkeypatch.setattr(threading.Thread, "start", threading.Thread.start)
    probe = SpeedProbe()
    probe.install()
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        status, answer, _, seconds, _ = worker.run_case(workloads.Case("hang", hang), 0.2, probe)
        assert (status, answer) == ("timeout", None) and seconds < 2
        status, answer, _, _, _ = worker.run_case(workloads.Case("next", lambda: 42), 5, probe)
        assert (status, answer) == ("ok", 42)
    finally:
        signal.signal(signal.SIGALRM, old)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def test_times_scale_with_probe_readings():
    assert normalise(2.0, [REFERENCE_PROBE_S, REFERENCE_PROBE_S]) == pytest.approx(2.0)
    # a host at half speed: probes read twice the reference, so the case counts half
    assert normalise(2.0, [2 * REFERENCE_PROBE_S]) == pytest.approx(1.0)


def test_probes_inside_a_case_are_left_out_of_its_time(monkeypatch):
    import signal
    import threading
    import time

    def busy():
        s, end = 0, time.process_time() + 0.3
        while time.process_time() < end:
            s += 1
        return s

    monkeypatch.setattr(threading.Thread, "start", threading.Thread.start)
    probe = SpeedProbe(interval=0.01)
    probe.install()
    try:
        t0 = time.perf_counter()
        result, raw, seconds = probe.timed(busy)
        wall = time.perf_counter() - t0
        readings = probe._inside
    finally:
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
    assert result > 0 and len(readings) >= 5
    spent = sum(s for _, s in readings)
    assert raw <= wall - spent + 1e-6 and seconds > 0


def test_probes_run_while_pool_threads_work(monkeypatch):
    """table's main thread sleeps on its pool; the probes must still run."""
    import signal
    import threading
    import time
    from concurrent.futures import ThreadPoolExecutor

    def busy(_):
        end = time.thread_time() + 0.3
        while time.thread_time() < end:
            pass

    monkeypatch.setattr(threading.Thread, "start", threading.Thread.start)
    probe = SpeedProbe(interval=0.01)
    probe.install()
    try:
        probe.start()
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(busy, range(2)))
        readings, _ = probe.stop()
    finally:
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
    assert len(readings) >= 10  # 0.6 s of CPU at one probe per 10 ms
