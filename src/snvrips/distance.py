"""Distance spaces, time labels, and the time-offset distance deformation.

Points carry a natural-number semimetric ``h`` and a first-appearance step
``D(x)`` in ``{0, ..., m}``.  With ``N`` the smallest power of ten exceeding
``m``, the deformation folds time into distance: a pair at distance ``h``
whose later endpoint appeared at step ``d`` gets deformed distance
``h + d/N``.  Everything is stored as integers in units of ``1/N``
(``scaled = N*h + d``) so that threshold comparisons are bit-exact; a float
representation could move a simplex across a scale threshold and corrupt the
per-step correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

INT64_MAX = int(np.iinfo(np.int64).max)


def hamming(a: Sequence, b: Sequence) -> int:
    """Number of positions where two equal-length sequences differ."""
    if len(a) != len(b):
        raise InputError(
            f"hamming distance needs equal-length sequences, got lengths {len(a)} and {len(b)}"
        )
    return sum(x != y for x, y in zip(a, b))


def time_offset_base(m: int) -> int:
    """Smallest power of ten strictly greater than the horizon m."""
    if m < 0:
        raise InputError(f"time horizon must be non-negative, got {m}")
    base = 1
    while m >= base:
        base *= 10
    return base


@dataclass(frozen=True)
class DistanceSpace:
    """A finite set of named points with a natural-valued semimetric.

    The matrix must be symmetric with zero diagonal and off-diagonal entries
    >= 1; zero-distance pairs are expected to have been merged beforehand
    (see :func:`dedupe_zero_distance`).
    """

    point_ids: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.point_ids)
        object.__setattr__(self, "point_ids", ids)
        d = np.asarray(self.dist, dtype=np.int64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] != len(ids):
            raise InputError(
                f"{len(ids)} point ids but a {d.shape[0]}x{d.shape[1]} matrix"
            )
        if len(set(ids)) != len(ids):
            raise InputError("point ids must be pairwise distinct")
        if d.size:
            if (d < 0).any():
                raise InputError("distances must be non-negative integers")
            if np.diagonal(d).any():
                raise InputError("distance matrix must have a zero diagonal")
            if not np.array_equal(d, d.T):
                raise InputError("distance matrix must be symmetric")
            off = ~np.eye(d.shape[0], dtype=bool)
            if (d[off] == 0).any():
                raise InputError(
                    "distinct points at distance 0 are not allowed; merge them first"
                )
        object.__setattr__(self, "dist", d)

    @property
    def n(self) -> int:
        return len(self.point_ids)

    def diameter(self) -> int:
        """Largest pairwise distance (0 for fewer than two points)."""
        return int(self.dist.max()) if self.n >= 2 else 0


@dataclass(frozen=True)
class TimeLabels:
    """First-appearance step D(x) for each point, with horizon m.

    Step ``i`` consists of the points with label <= i; empty early steps are
    allowed.
    """

    m: int
    by_id: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.m < 0:
            raise InputError(f"time horizon must be non-negative, got {self.m}")
        if self.m > INT64_MAX:
            raise InputError(f"time horizon {self.m} exceeds int64")
        by_id = dict(self.by_id)
        for pid, label in by_id.items():
            if not 0 <= label <= self.m:
                raise InputError(
                    f"time label {label} for point {pid!r} outside {{0, ..., {self.m}}}"
                )
        object.__setattr__(self, "by_id", by_id)

    def of(self, point_id: str) -> int:
        try:
            return self.by_id[point_id]
        except KeyError:
            raise InputError(f"no time label for point {point_id!r}") from None

    def extended(self, horizon: int | None) -> TimeLabels:
        """The same labels over horizon ``horizon``; None keeps m."""
        if horizon is None:
            return self
        if horizon < self.m:
            raise InputError(
                f"horizon {horizon} is below m = {self.m}; it may only extend the series"
            )
        return TimeLabels(horizon, self.by_id)

    def vector(self, point_ids: Sequence[str]) -> np.ndarray:
        """Labels aligned with the given id order; errors on a missing point."""
        return np.array([self.of(pid) for pid in point_ids], dtype=np.int64)

    def step_blocks(self, point_ids: Sequence[str]) -> list[tuple[int, int]]:
        """Half-open step ranges [s, e) covering 0..m over which the point set
        {label <= i} stays that of step s: one block per distinct label, plus
        the empty steps before the first."""
        starts = sorted({0, *self.vector(point_ids).tolist()})
        return list(zip(starts, starts[1:] + [self.m + 1]))


@dataclass(frozen=True)
class ScaleSchedule:
    """Scale thresholds for reading per-step homology off the deformed matrix.

    Index i = -1 maps to 0 (vertices only).  For i >= 0, with
    q = i div (m+1) and r = i mod (m+1), the threshold is (q+1)*N + r, where
    N = ``time_offset_base(m)``: the first block [N, N+m] sweeps the time
    steps at unit distance, the next block repeats them at distance 2, and
    so on.
    """

    m: int

    @property
    def base(self) -> int:
        return time_offset_base(self.m)

    def kappa(self, i: int) -> int:
        if i < -1:
            raise InputError(f"schedule index must be >= -1, got {i}")
        if i == -1:
            return 0
        q, r = divmod(i, self.m + 1)
        return (q + 1) * self.base + r

    def step_of(self, scaled_value: int) -> int | None:
        """Time step of a birth or death value in the first block [N, N+m],
        else None: a value N+i belongs to step i."""
        if scaled_value < 0:
            raise InputError(f"scaled value must be non-negative, got {scaled_value}")
        if self.base <= scaled_value <= self.base + self.m:
            return scaled_value - self.base
        return None


def check_horizon(space: DistanceSpace, m: int) -> int:
    """The offset base N for horizon m, once N*max(h, 1) + m fits in int64.

    That sum bounds every deformed value and N itself.  Raises InputError
    otherwise, so an input ``deform`` cannot represent is rejected by every
    subcommand rather than wrapped around or looped over step by step.
    """
    base = time_offset_base(m)
    h = max(space.diameter(), 1)
    if base * h + m > INT64_MAX:
        raise InputError(
            f"deformed distances overflow int64: N*max(h, 1) + m = "
            f"{base}*{h} + {m} exceeds {INT64_MAX}"
        )
    return base


def deform(space: DistanceSpace, labels: TimeLabels) -> np.ndarray:
    """The int64 matrix N*h(x,y) + max(D(x), D(y)), zero on the diagonal, in
    ``space.point_ids`` order: time labels folded into the distances as exact
    1/N offsets.  See ``check_horizon`` for the int64 bound."""
    base = check_horizon(space, labels.m)
    lab = labels.vector(space.point_ids)
    scaled = base * space.dist + np.maximum.outer(lab, lab)
    if scaled.size:
        np.fill_diagonal(scaled, 0)
    return scaled


def dedupe_zero_distance(
    point_ids: Sequence[str], dist: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray, dict[str, str]]:
    """Merge points at pairwise distance 0.

    Each zero-distance group keeps its lexicographically least id, and the
    groups are ordered by that id.  Distances between merged groups are the
    minimum over cross pairs.  Returns ``(ids, matrix, merges)`` where
    ``merges`` maps each dropped id to the id it was merged into; the caller
    derives the kept points' time labels from ``merges``.
    """
    ids = list(point_ids)
    d = np.asarray(dist, dtype=np.int64)
    n = len(ids)
    zi, zj = np.nonzero(np.triu(d == 0, k=1))
    if not zi.size:
        return tuple(ids), d, {}

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(zi.tolist(), zj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    # Keep groups ordered by their lexicographically least member id.
    members = sorted(groups.values(), key=lambda g: min(ids[i] for i in g))
    kept_ids = []
    merges: dict[str, str] = {}
    for g in members:
        keep = min(g, key=lambda i: ids[i])
        kept_ids.append(ids[keep])
        for i in g:
            if i != keep:
                merges[ids[i]] = ids[keep]

    # Cross-group minima: reduce the group-sorted matrix over row blocks, then
    # over column blocks, and mirror the upper triangle.
    order = [i for g in members for i in g]
    starts = np.cumsum([0] + [len(g) for g in members[:-1]])
    sub = d[np.ix_(order, order)]
    new = np.minimum.reduceat(np.minimum.reduceat(sub, starts, axis=0), starts, axis=1)
    new = np.triu(new, k=1)
    return tuple(kept_ids), new + new.T, merges


def build_space_from_sequences(
    records: Sequence[tuple[str, Sequence]],
) -> tuple[DistanceSpace, dict[str, str]]:
    """Pairwise Hamming distance space from (id, sequence) records.

    Identical sequences are merged (lexicographically least id kept); the
    returned dict reports dropped id -> kept id.
    """
    if not records:
        raise InputError("no sequence records given")
    ids = [rid for rid, _ in records]
    if len(set(ids)) != len(ids):
        dup = next(rid for i, rid in enumerate(ids) if rid in ids[:i])
        raise InputError(f"duplicate sequence id {dup!r}")
    ref_id, ref_seq = records[0]
    for rid, seq in records[1:]:
        if len(seq) != len(ref_seq):
            raise InputError(
                f"sequences must have equal length: {ref_id!r} has {len(ref_seq)}, "
                f"{rid!r} has {len(seq)}"
            )
    n = len(records)
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = hamming(records[i][1], records[j][1])
    ids2, d2, merges = dedupe_zero_distance(ids, d)
    return DistanceSpace(ids2, d2), merges
