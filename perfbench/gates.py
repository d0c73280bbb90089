"""Correctness gate: every report is checked against references that the
timed path does not produce.

* per-step counts against ``snv_counts_oracle`` (dense ranks) where it is
  affordable, and against the recorded expectations everywhere;
* the (birth_step, death_step) multiset against the recorded expectations,
  which ``record.py`` confirmed with the classical route;
* every representative is a 1-cycle mod p whose edges exist at its birth
  value, computed from the generator's own distances and labels;
* ``compare --strict`` and ``--stability`` report no discrepancy.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import numpy as np

from snvrips.distance import DistanceSpace, TimeLabels
from snvrips.oracle import snv_counts_oracle

from workloads import CallResult, Instance, Workload


def offset_base(m: int) -> int:
    """Smallest power of ten above m, the deformation's unit."""
    return 10 ** len(str(m)) if m else 1


def horizon(instance: Instance) -> int:
    return max(instance.labels.values())


def _distinct_sequences(instance: Instance) -> tuple[list[str], dict[str, list[str]]]:
    """Ids kept after merging identical sequences (least id kept), and each
    kept id's group."""
    by_seq: dict[str, list[str]] = {}
    for rid in sorted(instance.sequences):
        by_seq.setdefault(instance.sequences[rid], []).append(rid)
    groups = {members[0]: members for members in by_seq.values()}
    return sorted(groups), groups


def oracle_input(instance: Instance) -> tuple[DistanceSpace, TimeLabels]:
    """The space the oracle checks, built from the generator's truth.

    For sequences, identical sequences are merged and the space is cut to the
    2-core of the unit-distance graph (points are dropped while they have at
    most one unit neighbour).  Every 1-cycle and every triangle of the scale-1
    complex of any step lies inside that core, so the per-step H_1 counts are
    unchanged, and the oracle's O(n^3) triangle scan stays small.
    """
    m = horizon(instance)
    if instance.sequences is None:
        ids = tuple(f"p{i}" for i in range(len(instance.dist)))
        return DistanceSpace(ids, instance.dist), TimeLabels(m, instance.labels)
    kept, groups = _distinct_sequences(instance)
    codes = np.array(
        [np.frombuffer(instance.sequences[k].encode(), np.uint8) for k in kept]
    )
    ham = np.array([(codes != row).sum(axis=1) for row in codes])
    unit = ham == 1
    core = np.ones(len(kept), dtype=bool)
    while True:
        leaves = core & (unit[:, core].sum(axis=1) <= 1)
        if not leaves.any():
            break
        core &= ~leaves
    keep = np.nonzero(core)[0]
    ids = tuple(kept[k] for k in keep)
    labels = {k: min(instance.labels[r] for r in groups[k]) for k in ids}
    return DistanceSpace(ids, ham[np.ix_(keep, keep)]), TimeLabels(m, labels)


def oracle_counts(instance: Instance, p: int) -> list[int]:
    """Per-step SNV counts by dense elimination, independent of the engine."""
    space, labels = oracle_input(instance)
    return snv_counts_oracle(space, labels, p)


class _Truth:
    """Distances and labels of the reported points, from the generator."""

    def __init__(self, instance: Instance, doc: dict, problems: list[str]):
        self.instance = instance
        merges = doc["dedup_merges"]
        if instance.sequences is None:
            if merges:
                problems.append(f"matrix input reported merges {merges}")
            self.label = dict(instance.labels)
            return
        kept, groups = _distinct_sequences(instance)
        if doc["point_ids"] != kept:
            problems.append("reported points are not the distinct sequences")
        expected = {r: k for k, members in groups.items() for r in members if r != k}
        if merges != expected:
            problems.append("reported dedup merges differ from the identical sequences")
        self.label = {k: min(instance.labels[r] for r in groups[k]) for k in kept}

    def distance(self, a: str, b: str) -> int:
        if self.instance.sequences is None:
            return int(self.instance.dist[int(a[1:]), int(b[1:])])
        sa, sb = self.instance.sequences[a], self.instance.sequences[b]
        return sum(x != y for x, y in zip(sa, sb))


def _representative_problems(bar: dict, truth: _Truth, base: int, p: int) -> list[str]:
    rep = bar["representative"]
    where = f"bar born at {bar['birth_value']}"
    if not rep:
        return [f"{where}: empty representative"]
    problems = []
    boundary: Counter = Counter()
    seen = set()
    for a, b, coeff in rep:
        if (a, b) in seen or a == b or coeff % p == 0:
            problems.append(f"{where}: bad edge entry {[a, b, coeff]}")
        seen.add((a, b))
        if a not in truth.label or b not in truth.label:
            problems.append(f"{where}: edge {a}-{b} names an unknown point")
            continue
        value = base * truth.distance(a, b) + max(truth.label[a], truth.label[b])
        if value > bar["birth_value"]:
            problems.append(f"{where}: edge {a}-{b} enters at {value}, after the birth")
        boundary[b] += coeff
        boundary[a] -= coeff
    if any(v % p for v in boundary.values()):
        problems.append(f"{where}: representative is not a cycle mod {p}")
    return problems


def intervals(doc: dict) -> list[list[int | None]]:
    """The report's (birth_step, death_step) pairs in a canonical order."""
    pairs = [[b["birth_step"], b["death_step"]] for b in doc["bars"]]
    return sorted(pairs, key=lambda t: (t[0], float("inf") if t[1] is None else t[1]))


def _deformed_problems(
    doc: dict,
    workload: Workload,
    instance: Instance,
    expected: dict,
    oracle_counts: list[int] | None,
) -> list[str]:
    problems: list[str] = []
    m = horizon(instance)
    if doc["m"] != m or doc["p"] != workload.prime:
        return [f"report has m={doc['m']} p={doc['p']}; want m={m} p={workload.prime}"]
    counts = doc["per_step_counts"]
    if counts != expected["counts"]:
        problems.append(f"per-step counts {counts} != recorded {expected['counts']}")
    if oracle_counts is not None and counts != oracle_counts:
        problems.append(f"per-step counts {counts} != oracle {oracle_counts}")
    if intervals(doc) != expected["intervals"]:
        problems.append("(birth_step, death_step) multiset differs from the recorded one")
    alive = [
        sum(
            b["birth_step"] <= i and (b["death_step"] is None or i < b["death_step"])
            for b in doc["bars"]
        )
        for i in range(m + 1)
    ]
    if alive != counts:
        problems.append(f"bars alive per step {alive} != reported counts {counts}")

    base = offset_base(m)
    truth = _Truth(instance, doc, problems)
    for bar in doc["bars"]:
        if bar["birth_value"] != base + bar["birth_step"]:
            problems.append(
                f"birth value {bar['birth_value']} is not step {bar['birth_step']}"
            )
        death, value = bar["death_step"], bar["death_value"]
        if death is not None and value != base + death:
            problems.append(f"death value {value} is not step {death}")
        if death is None and value is not None and value <= base + m:
            problems.append(f"death value {value} inside the horizon but no death step")
        problems += _representative_problems(bar, truth, base, workload.prime)

    if "stability" in doc:
        stab = doc["stability"]
        if not stab["ok"] or stab["violations"]:
            problems.append(f"stability violations: {stab['violations'][:3]}")
    return problems


def check(
    workload: Workload,
    instance: Instance,
    calls: list[CallResult],
    expected: dict,
    oracle_counts: list[int] | None = None,
) -> list[str]:
    """Problems found in one instance's outputs; empty means correct."""
    problems = [
        f"{c.argv[0]} exited {c.code}: {c.stderr.strip()[-400:]}"
        for c in calls
        if c.code != 0
    ]
    if problems:
        return problems
    for call in calls:
        try:
            doc = json.loads(call.stdout)
        except json.JSONDecodeError as exc:
            problems.append(f"{call.argv[0]} printed no JSON report: {exc}")
            continue
        if doc.get("mode") == "correspondence":
            if doc["discrepancies"] or not all(doc["per_step_counts_match"]):
                problems.append(f"compare discrepancies: {doc['discrepancies'][:3]}")
        elif doc.get("mode") == "deformed":
            problems += _deformed_problems(
                doc, workload, instance, expected, oracle_counts
            )
        else:
            problems.append(f"{call.argv[0]} printed a report of mode {doc.get('mode')!r}")
    return problems


class Gate:
    """Checks every solve, and counts attempts, failures and digest changes."""

    def __init__(
        self, workload: Workload, instances: dict[int, Instance], expected: dict
    ) -> None:
        self.workload = workload
        self.instances = instances
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digest_changes = 0
        # oracle counts by catalogue index; the traced run fills it as it goes
        self.oracle: dict[int, list[int]] = {}
        self._first: dict[int, list[str]] = {}

    def record(self, index: int, calls: list[CallResult]) -> None:
        expected = self.expected[str(index)]
        if self.workload.oracle and index not in self.oracle:
            self.oracle[index] = oracle_counts(self.instances[index], self.workload.prime)
        self.attempted += 1
        problems = check(
            self.workload, self.instances[index], calls, expected, self.oracle.get(index)
        )
        outputs = [c.stdout for c in calls]
        if self._first.setdefault(index, outputs) != outputs:
            problems.append("report bytes differ from an earlier solve of the same input")
        self.digest_changes += sum(
            c.digest != digest for c, digest in zip(calls, expected["digests"])
        )
        if problems:
            self.failed += 1
            for line in problems:
                print(f"FAILED instance {index}: {line}", file=sys.stderr)
