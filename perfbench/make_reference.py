"""Record the reference answers of every fixed case into reference.json.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of an mwkit checkout whose answers are trusted.  The file
holds parsed answer fields, not report bytes, so a report that gains a
field still matches.  Query answers are not recorded: the query workload's
inputs change with the seed and its answers are checked from the
mathematics alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for workload in ("present", "arith", "prove"):
        for case in workloads.fixed_cases(workload):
            answer = case.run()
            problems = case.check(answer)
            if problems:
                print(f"{case.key}: {problems}", file=sys.stderr)
                return 1
            reference[case.key] = json.loads(json.dumps(answer))
            print(case.key, file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
