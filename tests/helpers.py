"""Hand-checked fixture instances shared across the test modules."""

from dataclasses import replace
from itertools import combinations

import numpy as np

from snvrips import (
    DistanceSpace,
    FilteredComplex,
    RandomInstanceSpec,
    Simplex,
    TimeLabels,
    random_instance,
)
from snvrips.pipeline import SnvReport
from snvrips.rips import boundary_column


def square_space() -> DistanceSpace:
    # 4-cycle with unit sides and diagonals 2: one H_1 class, born 1, dead 2
    dist = np.array(
        [
            [0, 1, 2, 1],
            [1, 0, 1, 2],
            [2, 1, 0, 1],
            [1, 2, 1, 0],
        ]
    )
    return DistanceSpace(("a", "b", "c", "d"), dist)


def square_labels(m: int = 0) -> TimeLabels:
    return TimeLabels(m, {"a": 0, "b": 0, "c": 0, "d": 0})


def unit_triangle() -> DistanceSpace:
    dist = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    return DistanceSpace(("x", "y", "z"), dist)


def apex_square() -> tuple[DistanceSpace, TimeLabels]:
    """Square present at step 0; an apex arriving at step 1 fills its cycle."""
    dist = np.array(
        [
            [0, 1, 2, 1, 1],
            [1, 0, 1, 2, 1],
            [2, 1, 0, 1, 1],
            [1, 2, 1, 0, 1],
            [1, 1, 1, 1, 0],
        ]
    )
    space = DistanceSpace(("a", "b", "c", "d", "e"), dist)
    labels = TimeLabels(1, {"a": 0, "b": 0, "c": 0, "d": 0, "e": 1})
    return space, labels


def suite_instance(seed: int) -> tuple[DistanceSpace, TimeLabels, int]:
    """Deterministic spread: n in 5..10, m in 0..4, d_max in 2..4, p in {2,3}.

    d_max starts at 2 so the scale-1 graph is a genuine random graph; with
    d_max = 1 every pair is an edge and H_1 is trivially zero.
    """
    spec = RandomInstanceSpec(
        seed=seed, n=5 + seed % 6, m=seed % 5, d_max=2 + (seed // 2) % 3
    )
    space, labels = random_instance(spec)
    return space, labels, 2 if seed % 2 == 0 else 3


def all_triples_rips(dist, cap: int) -> FilteredComplex:
    """Reference Rips complex: tests every vertex pair and triple against the
    cap, and finds each face's rank by its vertex tuple."""
    d = np.asarray(dist, dtype=np.int64)
    n = d.shape[0]
    rows = d.tolist()
    simplices = [Simplex((i,), 0) for i in range(n)]
    for i, j in combinations(range(n), 2):
        if rows[i][j] <= cap:
            simplices.append(Simplex((i, j), rows[i][j]))
    for i, j, k in combinations(range(n), 3):
        value = max(rows[i][j], rows[i][k], rows[j][k])
        if value <= cap:
            simplices.append(Simplex((i, j, k), value))
    simplices.sort(key=lambda s: (s.value, len(s.vertices), s.vertices))
    index = {s.vertices: pos for pos, s in enumerate(simplices)}
    by_dim = tuple(
        np.array([pos for pos, s in enumerate(simplices) if s.dim == k], dtype=np.int64)
        for k in range(3)
    )
    rank = {simplices[pos].vertices: r for ps in by_dim for r, pos in enumerate(ps)}
    faces = tuple(
        np.array(
            [
                [rank[s.vertices[:drop] + s.vertices[drop + 1 :]] for drop in range(k + 1)]
                for s in simplices
                if s.dim == k
            ],
            dtype=np.int64,
        ).reshape(-1, k + 1)
        for k in (1, 2)
    )
    diameter = int(d.max()) if n >= 2 else 0
    return FilteredComplex(simplices, cap, n, diameter, index, by_dim, faces)


def corrupted_copy(report: SnvReport, bar_index: int = 0) -> SnvReport:
    """Copy of a deformed report with one bar's death shifted by a step.

    Detector fuel: verify_correspondence must flag the result.
    """
    bars = list(report.bars)
    bar = bars[bar_index]
    if bar.death_step is not None:
        death = bar.death_step + 1 if bar.death_step < report.m else None
        shifted = replace(bar, death_step=death)
    elif bar.birth_step < report.m:
        shifted = replace(bar, death_step=bar.birth_step + 1)
    else:
        raise ValueError("bar spans a single step at the horizon; nothing to shift")
    bars[bar_index] = shifted
    counts = [sum(b.alive_at(i) for b in bars) for i in range(report.m + 1)]
    return replace(report, bars=bars, per_step_counts=counts)


def chain_boundary(cplx: FilteredComplex, chain: dict[int, int], p: int) -> dict[int, int]:
    """The boundary of a chain keyed by position, mod p."""
    acc: dict[int, int] = {}
    for pos, coeff in chain.items():
        for row, val in boundary_column(cplx, pos, p).items():
            nv = (acc.get(row, 0) + coeff * val) % p
            if nv:
                acc[row] = nv
            else:
                acc.pop(row, None)
    return acc


def standard_reduction(columns: list[dict[int, int]], p: int) -> list[dict[int, int]]:
    """Reference reduction over F_p: every column, left to right, is reduced
    against the earlier column owning its lowest row until that row is free
    or the column is zero.  Columns and rows are positions; there is no
    clearing, no cohomology and no apparent pair."""
    reduced: list[dict[int, int]] = []
    owner: dict[int, int] = {}  # lowest row -> column
    for j, column in enumerate(columns):
        col = {row: c % p for row, c in column.items() if c % p}
        while col:
            low = max(col)
            k = owner.get(low)
            if k is None:
                owner[low] = j
                break
            c = col[low] * pow(reduced[k][low], p - 2, p) % p
            for row, val in reduced[k].items():
                col[row] = (col.get(row, 0) - c * val) % p
                if not col[row]:
                    del col[row]
        reduced.append(col)
    return reduced
