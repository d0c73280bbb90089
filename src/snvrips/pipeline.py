"""End-to-end SNV cycle extraction: classical per-step runs vs one deformed run.

The classical pipeline computes one Rips barcode per time step and keeps the
bars born at scale 1.  The deformed pipeline folds time labels into the
distances, computes a single barcode capped at 2N-1 (which resolves the whole
first scale block [N, N+m]), and reads each bar's birth/death step off its
scaled values.  A death at or beyond 2N can only happen at scale >= 2, so the
class survives every step up to the horizon; the first block is all that SNV
membership needs.

Per-step runs cannot see deaths, so the verdict, ``correspondence``, reads
only their per-step counts (``classical_counts`` gives them with no
representative) and checks the deformed death steps with
``stability_report``: one sweep over the thresholds kappa(0..m) tests the
chain the engine returned for every bar against an echelon that the
reduction never touched.  The emitted id representatives are
checked by acceptance criterion 6 and by the benchmark gate.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .distance import (
    DistanceSpace,
    ScaleSchedule,
    SequenceSpace,
    TimeLabels,
    as_natural,
    check_horizon,
)

# deform is no longer read here; it stays importable under this module
# because perfbench/spans.py traces it by this name.
from .distance import deform  # noqa: F401
from .errors import InputError
from .persistence import Bar, Chain, barcode_h1, nonzero_sweep, pair_h1
from .rips import Edges, FilteredComplex, build_rips

Representative = tuple[tuple[str, str, int], ...]

CLASSICAL_NOTE = (
    "classical mode: representatives are extracted independently per step; "
    "a cycle surviving from one step to the next is not matched across steps"
)


@dataclass(frozen=True)
class SnvBar:
    """An SNV cycle with its step interval and underlying scale values.

    ``death_step`` is None when the class is alive through the horizon; in
    classical mode bars are per-step only and never carry a death step.
    Membership is half-open: the cycle belongs to step i iff
    birth_step <= i < death_step.
    """

    birth_step: int
    death_step: int | None
    birth_value: int
    death_value: int | None
    representative: Representative

    def __post_init__(self) -> None:
        if self.death_step is not None and not self.birth_step < self.death_step:
            raise ValueError(
                f"death step {self.death_step} not after birth step {self.birth_step}"
            )

    def alive_at(self, i: int) -> bool:
        return self.birth_step <= i and (self.death_step is None or i < self.death_step)


@dataclass
class SnvReport:
    mode: str
    m: int
    p: int
    per_step_counts: list[int]
    bars: list[SnvBar]
    point_ids: tuple[str, ...]
    cap: int | None = None
    caps_by_step: list[int] | None = None
    merges: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # In-memory context, not serialized: the inputs and, for a deformed report,
    # its complex and each bar's chain (in bars order, keyed by edge rank in it).
    space: DistanceSpace | None = None
    labels: TimeLabels | None = None
    filtered_complex: FilteredComplex | None = None
    chains: list[Chain] | None = None


@dataclass
class CorrespondenceReport:
    """Outcome of checking the deformed run against classical ground truth."""

    m: int
    p: int
    per_step_counts_match: list[bool]
    matched_deaths: list[tuple[int, int]]
    discrepancies: list[str]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass
class StabilityRow:
    birth_step: int
    last_alive_step: int
    member_by_step: tuple[bool, ...]
    nonzero_by_step: tuple[bool, ...]


@dataclass
class StabilityReport:
    m: int
    rows: list[StabilityRow]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class BenchmarkResult:
    n_points: int
    m: int
    p: int
    repetitions: int
    classical_seconds: list[float]
    deformed_seconds: list[float]
    classical_median_seconds: float
    deformed_median_seconds: float
    ratio_classical_over_deformed: float
    correspondence_clean: bool


def _snv_bar(
    cplx: FilteredComplex,
    point_ids: tuple[str, ...],
    bar: Bar,
    birth_step: int,
    death_step: int | None,
) -> SnvBar:
    """An SNV bar from a barcode bar, its chain's edges named by point id in
    rank order."""
    chain = bar.representative
    ranks = sorted(chain)
    ends = cplx.faces[0][ranks].tolist()  # edge (i, j) is stored as (j, i)
    named = tuple((point_ids[a], point_ids[b], chain[r]) for r, (b, a) in zip(ranks, ends))
    return SnvBar(birth_step, death_step, bar.birth_value, bar.death_value, named)


def _classical_cap(cap: int | str | None) -> int | None:
    """A classical cap as a natural number >= 1, or None for each step's full
    diameter (``None`` or ``"full"``); below 1 the scale-1 births are
    unobservable."""
    cap = None if cap in (None, "full") else as_natural(cap, "cap")
    if cap is not None and cap < 1:
        raise InputError(f"classical cap must be >= 1, got {cap}")
    return cap


def _step_complexes(
    space: DistanceSpace, labels: TimeLabels, cap: int | None
) -> Iterator[tuple[int, int, FilteredComplex]]:
    """Each block [start, end) of steps that share a point set, with its
    complex capped at ``cap``, or at the block's own diameter for None.

    Every block is built on all n points from the edges of one list,
    ``space.edges(cap)``, whose ends are both present; an absent point is
    an isolated vertex, with no H_1.
    """
    lab = labels.vector(space.point_ids)
    i, j, h = space.edges(space.diameter_bound() if cap is None else cap)
    late = np.maximum(lab[i], lab[j])  # the first step that has the edge
    for start, end in labels.step_blocks(space.point_ids):
        inside = late <= start
        step_cap = int(h[inside].max(initial=0)) if cap is None else cap
        yield start, end, build_rips(Edges(space.n, i[inside], j[inside], h[inside]), step_cap)


def classical_snv(
    space: DistanceSpace,
    labels: TimeLabels,
    p: int = 2,
    cap: int | str | None = None,
) -> SnvReport:
    """One barcode per time step; bars born at scale 1 are the SNV cycles.

    Steps between two consecutive labels share one point set, so each block
    is computed once (``_step_complexes``) and its bars repeated with each
    step as birth step.  ``cap`` defaults to each step's full diameter,
    which ``"full"`` also means (the report's cap is then None, and the edge
    list holds every pair); an explicit cap must be >= 1.
    """
    cap = _classical_cap(cap)
    caps_by_step: list[int] = []
    counts: list[int] = []
    bars: list[SnvBar] = []
    for start, end, cplx in _step_complexes(space, labels, cap):
        step_bars = [
            _snv_bar(cplx, space.point_ids, bar, start, None)
            for bar in barcode_h1(cplx, p).bars
            if bar.birth_value == 1
        ]
        caps_by_step += [cplx.cap] * (end - start)
        counts += [len(step_bars)] * (end - start)
        bars += [replace(b, birth_step=k) for k in range(start, end) for b in step_bars]
    return SnvReport(
        mode="classical",
        m=labels.m,
        p=p,
        per_step_counts=counts,
        bars=bars,
        point_ids=space.point_ids,
        cap=cap,
        caps_by_step=caps_by_step,
        notes=[CLASSICAL_NOTE],
        space=space,
        labels=labels,
    )


def classical_counts(
    space: DistanceSpace,
    labels: TimeLabels,
    p: int = 2,
    cap: int | str | None = None,
) -> list[int]:
    """``classical_snv(space, labels, p, cap).per_step_counts`` with no
    representative: each block of steps counts, from ``pair_h1`` alone, its
    finite pairs and essential edges born at scale 1.  At cap 1 that is every
    essential edge."""
    counts: list[int] = []
    for start, end, cplx in _step_complexes(space, labels, _classical_cap(cap)):
        pairs, essential, _, finite = pair_h1(cplx, p)
        births = cplx.values[0][[pairs[t] for t in finite] + essential]
        counts += [int(np.count_nonzero(births == 1))] * (end - start)
    return counts


def deformed_snv(
    space: DistanceSpace,
    labels: TimeLabels,
    p: int = 2,
    cap: int | str | None = None,
) -> SnvReport:
    """Single-barcode SNV extraction from the time-deformed distance matrix.

    Default cap 2N-1 resolves exactly the first scale block; pass ``"full"``
    (or an explicit value) to resolve the complete barcode instead.  An
    explicit cap below N+m is rejected: it would cut the first block short.
    ``ScaleSchedule(m).step_of`` decodes both ends of a bar: bars born in
    [N, N+m] become SNV bars with birth_step = birth - N, and a death value
    beyond N+m means the class is alive through the horizon.

    The deformation only re-values pairs, and N*h + max(D) <= cap needs
    h <= cap // N.  So the complex is built from ``space.edges(cap // N)``
    (every pair for ``"full"``) with no deformed matrix: at the default cap,
    the lower-star filtration of the unit-distance graph.
    """
    base = check_horizon(space, labels.m)
    lab = labels.vector(space.point_ids)
    schedule = ScaleSchedule(labels.m)
    cap = cap if cap in (None, "full") else as_natural(cap, "cap")
    if cap is None:
        cap = schedule.kappa(labels.m + 1) - 1
    elif cap != "full" and cap < schedule.kappa(labels.m):
        raise InputError(
            f"deformed cap {cap} is below N+m = {schedule.kappa(labels.m)}; "
            "it would cut off the first scale block [N, N+m]"
        )
    i, j, h = space.edges(space.diameter_bound() if cap == "full" else cap // base)
    value = base * h + np.maximum(lab[i], lab[j])
    cap_value = int(value.max(initial=0)) if cap == "full" else int(cap)
    kept = value <= cap_value
    cplx = build_rips(Edges(space.n, i[kept], j[kept], value[kept]), cap_value)
    barcode = barcode_h1(cplx, p)

    bars, chains = [], []
    for bar in barcode.bars:
        birth_step = schedule.step_of(bar.birth_value)
        if birth_step is None:
            continue
        chains.append(bar.representative)
        death = bar.death_value  # at or after the birth, so at or above N
        death_step = None if death is None else schedule.step_of(death)
        bars.append(_snv_bar(cplx, space.point_ids, bar, birth_step, death_step))

    return SnvReport(
        mode="deformed",
        m=labels.m,
        p=p,
        per_step_counts=alive_counts(bars, labels.m),
        bars=bars,
        point_ids=space.point_ids,
        cap=cap_value,
        space=space,
        labels=labels,
        filtered_complex=cplx,
        chains=chains,
    )


def alive_counts(bars: list[SnvBar], m: int) -> list[int]:
    """|SNV_i| for i = 0..m: bars with birth_step <= i < death_step, from a
    difference array over the bars' (birth, death) steps."""
    delta = [0] * (m + 2)
    for bar in bars:
        delta[bar.birth_step] += 1
        delta[m + 1 if bar.death_step is None else bar.death_step] -= 1
    return list(accumulate(delta[:-1]))


def verify_correspondence(
    classical: SnvReport, deformed: SnvReport
) -> CorrespondenceReport:
    """Check the deformed run against classical computations of the same data:
    the reports must share their points, distances, labels, horizon and
    prime, and ``correspondence`` gives the verdict on the classical counts.
    Two sequence spaces are compared by their codes, so neither builds its
    Hamming matrix."""
    if classical.mode != "classical" or deformed.mode != "deformed":
        raise InputError("verify_correspondence needs a classical and a deformed report")
    if (
        classical.point_ids != deformed.point_ids
        or classical.m != deformed.m
        or classical.p != deformed.p
    ):
        raise InputError("reports were computed over different inputs")
    if classical.space is None or deformed.space is None:
        raise InputError("reports are missing their input context")
    if not _same_distances(classical.space, deformed.space):
        raise InputError("reports were computed over different distance matrices")
    if classical.labels.by_id != deformed.labels.by_id:
        raise InputError("reports were computed over different time labels")
    return correspondence(classical.per_step_counts, deformed)


def _same_distances(a: DistanceSpace, b: DistanceSpace) -> bool:
    """Whether two spaces over the same ids are the same input: equal codes
    for two sequence spaces, else equal matrices."""
    if a is b:
        return True
    if isinstance(a, SequenceSpace) and isinstance(b, SequenceSpace):
        return np.array_equal(a.codes, b.codes)
    return np.array_equal(a.dist, b.dist)


def correspondence(counts: list[int], deformed: SnvReport) -> CorrespondenceReport:
    """The verdict on a deformed run, given the classical per-step ``counts``
    of the same input.

    Two checks: per-step count equality |SNV_i| = |SNV*_i|, and every deformed
    bar's step interval against the homology of its representative, tested by
    ``stability_report`` with an echelon of its own.  A bar whose class is
    nonzero exactly on its interval has a confirmed death step; each step where
    membership and homology disagree is a discrepancy naming the bar and the
    step.  The correspondence predicts there are none.
    """
    if len(counts) != deformed.m + 1:
        raise InputError(f"{len(counts)} classical counts for {deformed.m + 1} deformed steps")
    df_counts = deformed.per_step_counts
    counts_match = [a == b for a, b in zip(counts, df_counts, strict=True)]
    discrepancies = [
        f"step {i}: classical count {counts[i]} != deformed count {df_counts[i]}"
        for i, same in enumerate(counts_match)
        if not same
    ]

    stability = stability_report(deformed)
    discrepancies += stability.violations
    matched = sorted(
        (bar.birth_step, bar.death_step)
        for bar, row in zip(deformed.bars, stability.rows)
        if bar.death_step is not None and row.member_by_step == row.nonzero_by_step
    )
    return CorrespondenceReport(deformed.m, deformed.p, counts_match, matched, discrepancies)


def stability_report(report: SnvReport) -> StabilityReport:
    """Per-bar lifespans and the step-by-step homology-membership table.

    For each bar and each step i from its birth onward, checks whether its
    representative is homologically nonzero in the deformed complex at
    threshold kappa(i); the result must coincide with half-open interval
    membership.  One ``nonzero_sweep`` over kappa(0..m) tests the chains the
    engine returned (``report.chains``); the emitted id representatives are
    checked by acceptance criterion 6 and by the benchmark gate.
    """
    if report.mode != "deformed":
        raise InputError("stability_report needs a deformed-mode report")
    m = report.m
    schedule = ScaleSchedule(m)
    nonzero_rows = nonzero_sweep(
        report.filtered_complex,
        report.chains,
        np.arange(schedule.kappa(0), schedule.kappa(m) + 1),
        report.p,
    )
    rows = []
    violations: list[str] = []
    for k, (bar, nonzero) in enumerate(zip(report.bars, nonzero_rows)):
        member = tuple(bar.alive_at(i) for i in range(m + 1))
        last_alive = (bar.death_step - 1) if bar.death_step is not None else m
        rows.append(StabilityRow(bar.birth_step, last_alive, member, tuple(nonzero)))
        for i in range(bar.birth_step, m + 1):
            if member[i] != nonzero[i]:
                violations.append(
                    f"bar {k}: membership at step {i} is {member[i]} but its class "
                    f"is {'nonzero' if nonzero[i] else 'zero'} there"
                )
    return StabilityReport(m, rows, violations)


def benchmark(
    space: DistanceSpace,
    labels: TimeLabels,
    p: int = 2,
    repetitions: int = 1,
) -> BenchmarkResult:
    """Median wall-clock of m+1 classical runs vs the single deformed run.

    The classical side stops each step at scale 1, where the SNV cycles are
    born, as a per-step Rips run with a threshold does.  Reports the ratio
    and runs the correspondence check once; no performance threshold is
    asserted.
    """
    repetitions = as_natural(repetitions, "repetitions")
    if repetitions < 1:
        raise InputError(f"repetitions must be >= 1, got {repetitions}")
    classical_times = []
    deformed_times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        classical = classical_snv(space, labels, p, cap=1)
        t1 = time.perf_counter()
        deformed = deformed_snv(space, labels, p)
        t2 = time.perf_counter()
        classical_times.append(t1 - t0)
        deformed_times.append(t2 - t1)

    verdict = correspondence(classical.per_step_counts, deformed)
    classical_median = statistics.median(classical_times)
    deformed_median = statistics.median(deformed_times)
    return BenchmarkResult(
        n_points=space.n,
        m=labels.m,
        p=p,
        repetitions=repetitions,
        classical_seconds=classical_times,
        deformed_seconds=deformed_times,
        classical_median_seconds=classical_median,
        deformed_median_seconds=deformed_median,
        ratio_classical_over_deformed=classical_median / max(deformed_median, 1e-12),
        correspondence_clean=verdict.ok,
    )
