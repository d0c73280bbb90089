"""Record the expected outputs of every catalogue instance in ``expected.json``.

    python3 perfbench/record.py [WORKLOAD ...]

For each instance this runs the workload's CLI calls once, and keeps the
per-step counts, the (birth_step, death_step) multiset, the report digests and
the traced work counters.  Before it keeps them it confirms them with
references the timed path does not use:

* ``compare --strict --cap 1``: the classical route (one barcode per step at
  scale cap 1, enough for the scale-1 births) and the time-filtration deaths
  must agree with the deformed report;
* ``snv_counts_oracle`` per-step counts, for the workloads that use it;
* the correctness gate itself must pass on the recorded outputs.

Re-run it only when a change alters report bytes or counters on purpose, and
say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import import_program

import_program()

import gates  # noqa: E402
from spans import Tracer, instance_counts, traced_solve  # noqa: E402
from workloads import WORKLOADS, call_argv, make_instance, run_cli, solve  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORK = HERE.parent / ".perfbench_work" / "record"


def record_instance(workload, index: int) -> dict:
    instance = make_instance(workload, index, WORK / workload.name / str(index))
    calls = solve(workload, instance)
    for call in calls:
        if call.code != 0:
            raise SystemExit(
                f"{workload.name} {index}: {call.argv[0]} exited {call.code}\n{call.stderr}"
            )
    docs = [json.loads(c.stdout) for c in calls]
    doc = next(d for d in docs if d["mode"] == "deformed")

    compare = ("compare", "--strict", "--cap", "1")
    classical = run_cli(call_argv(workload, instance, compare))
    if classical.code != 0:
        raise SystemExit(
            f"{workload.name} {index}: classical route disagrees\n{classical.stderr}"
        )
    oracle = gates.oracle_counts(instance, workload.prime) if workload.oracle else None

    tracer = Tracer()
    traced_solve(tracer, workload, instance, 0)
    entry = {
        "counts": doc["per_step_counts"],
        "intervals": gates.intervals(doc),
        "digests": [c.digest for c in calls],
        "counters": instance_counts(tracer.spans, 0),
    }
    problems = gates.check(workload, instance, calls, entry, oracle)
    if problems:
        raise SystemExit(f"{workload.name} {index}: " + "; ".join(problems))
    return entry


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    try:
        for name in names or list(WORKLOADS):
            workload = WORKLOADS[name]
            expected[name] = {}
            for index in range(workload.catalogue):
                entry = expected[name][str(index)] = record_instance(workload, index)
                print(f"{name} {index}: {entry['counts']}", flush=True)
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
