"""One pass of one workload, in a process of its own.

Run by ``run.py``; prints one JSON object on stdout.  Modes:

  setup    import mwkit and make the inputs, then stop (a set-up sample)
  plain    set up, then time every case; no instrumentation
  traced   as plain, with spans at every layer boundary (see tracing.py)
  counted  as plain, counting ring operations only

Every time is taken raw and normalised to the reference host speed with
speed probes (see speed.py): in setup and plain mode probes also run inside
the timed work, in traced and counted mode only before and after each case,
so no probe lands in a span.

Every case of the workload runs once per process, so no state cached by
an earlier call of the same command on the same ring can help it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import PROBE_INTERVAL_S, SpeedProbe, normalise, probe_reading  # noqa: E402


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout


def run_case(case, timeout_s: float, probe: SpeedProbe):
    """(status, answer, raw seconds, normalised seconds, detail); status is
    ok, timeout or error.  A failed case keeps its raw time as both."""
    answer, detail = None, ""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        answer, raw, seconds = probe.timed(case.run)
        status = "ok"
    except CaseTimeout:
        status = "timeout"
    except Exception:
        status, detail = "error", traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status != "ok":
        raw = seconds = time.perf_counter() - t0
    return status, answer, raw, seconds, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "traced", "counted"], required=True)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--case-timeout", type=float, required=True)
    ap.add_argument("--spans", help="where the traced mode writes its spans")
    args = ap.parse_args(argv)

    # one core for the whole pass: table's pool threads then hand the GIL
    # over on one core, as the probes see it, and do not move between cores
    # of a shared host that may run at different speeds (on two cores its
    # normalised time varied by 5%, on one by 1.5%)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe(PROBE_INTERVAL_S if args.mode in ("setup", "plain") else None)
    probe.install()
    t0 = time.perf_counter()
    first = probe_reading()
    first_cost = time.perf_counter() - t0
    probe.start()
    import mwkit

    src = Path.cwd() / "src"
    if Path(mwkit.__file__).resolve().parent != (src / "mwkit").resolve():
        print(f"error: imported mwkit from {mwkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import FIELDS, CallCounter, Tracer, layer_metrics

    instrument = None
    if args.mode == "traced":
        instrument = Tracer()
    elif args.mode == "counted":
        instrument = CallCounter()
    if instrument:
        instrument.install()

    def untimed():
        return instrument.suspended() if instrument else nullcontext()

    if args.workload == "query":
        built = workloads.build_presentations()
        with untimed():
            cases = workloads.query_cases(args.seed, built)
    else:
        cases = workloads.fixed_cases(args.workload)
    cases = workloads.ordered(cases, args.seed)
    readings, spent = probe.stop()
    setup_raw = time.monotonic() - args.launched - first_cost - spent
    result = {"setup_raw_s": setup_raw,
              "setup_s": normalise(setup_raw, [first] + readings + [probe_reading()])}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    with untimed():
        reference = workloads.load_reference()
    # the inputs and answers the benchmark holds are not the program's garbage:
    # keep them out of the collections that run inside timed calls
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _on_alarm)
    records, proved = [], 0
    for i, case in enumerate(cases, 1):
        if isinstance(instrument, Tracer):
            instrument.case = i
        gc.collect()
        status, answer, raw, seconds, detail = run_case(case, args.case_timeout, probe)
        problems = []
        if status == "ok":
            with untimed():
                problems = workloads.problems(case, answer, reference)
                proved += bool(case.proved and case.proved(answer))
        else:
            problems = [status]
            print(f"{case.key}: {status}\n{detail}", file=sys.stderr)
        records.append({"key": case.key, "seconds": seconds, "raw_s": raw,
                        "status": status, "problems": problems})

    result.update(
        pass_s=sum(r["seconds"] for r in records),
        pass_raw_s=sum(r["raw_s"] for r in records),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cases=records,
        proved=proved,
    )
    if isinstance(instrument, Tracer):
        instrument.uninstall()
        result["layers"] = layer_metrics(instrument.spans)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": FIELDS, "spans": instrument.spans}, fh)
    elif isinstance(instrument, CallCounter):
        instrument.uninstall()
        result["layers"] = instrument.counts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
