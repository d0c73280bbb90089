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

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

INT64_MAX = int(np.iinfo(np.int64).max)


@lru_cache(maxsize=None, typed=True)
def check_prime(p: int) -> None:
    """Reject a p that is no int prime, or whose (p-1)^2 overflows the oracle's
    int64 residue products.  Cached, by type too since 3.0 == 3."""
    if not isinstance(p, int):
        raise InputError(f"p must be a prime number of type int, got {p!r}")
    if p > 1 and (p - 1) ** 2 > INT64_MAX:
        raise InputError(f"the prime p must satisfy (p-1)^2 < 2^63, got {p}")
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise InputError(f"p must be a prime number, got {p}")


def as_integer(value, what: str) -> int:
    """``value`` as an int through ``operator.index``: a numpy integer passes,
    and a float or a str raises InputError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def as_natural(value, what: str) -> int:
    """``as_integer``, and a negative raises InputError too."""
    value = as_integer(value, what)
    if value < 0:
        raise InputError(f"{what} must be non-negative, got {value}")
    return value


def time_offset_base(m: int) -> int:
    """Smallest power of ten strictly greater than the horizon m."""
    m = as_natural(m, "time horizon")
    base = 1
    while m >= base:
        base *= 10
    return base


@dataclass(frozen=True, eq=False)
class DistanceSpace:
    """A finite set of named points with a natural-valued semimetric.

    The matrix must be symmetric with zero diagonal and off-diagonal entries
    >= 1, stored as int64; another dtype is cast only where the cast changes
    no value.  Zero-distance pairs are expected to have been merged
    beforehand (see :func:`dedupe_zero_distance`).
    """

    point_ids: tuple[str, ...]
    dist: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ids = tuple(self.point_ids)
        object.__setattr__(self, "point_ids", ids)
        d = np.asarray(self.dist)
        if d.dtype != np.int64:  # accept only what an int64 cast leaves as it is
            with np.errstate(invalid="ignore"):
                try:
                    cast = d.astype(np.int64)
                except (TypeError, ValueError, OverflowError):
                    cast = None
            if cast is None or d.dtype.kind not in "biufO" or not (cast == d).all():
                raise InputError("distances must be integers within int64")
            d = cast
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
            # the diagonal holds n of the zeros, so any more lie off it
            if np.count_nonzero(d == 0) > d.shape[0]:
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

    def diameter_bound(self) -> int:
        """An upper bound on the diameter that is cheap to find: here the
        diameter itself."""
        return self.diameter()

    def edges(self, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs i < j at distance <= h, in row-major order, with their
        distances: the only source of edges for every complex built."""
        i, j = np.nonzero(np.triu(self.dist <= h, k=1))
        return i, j, self.dist[i, j]


# Elements compared at once by the Hamming kernels, so memory stays bounded
# however many rows share a bucket.
_BLOCK = 1 << 20


def hamming_matrix(codes: np.ndarray) -> np.ndarray:
    """The n x n int64 Hamming matrix of the rows of ``codes``, in row blocks."""
    n, length = codes.shape
    dist = np.empty((n, n), dtype=np.int64)
    rows = max(1, _BLOCK // max(n * length, 1))
    for start in range(0, n, rows):
        block = codes[start : start + rows, None, :] != codes[None, :, :]
        dist[start : start + rows] = block.sum(axis=2, dtype=np.int64)
    return dist


def later_pairs(later: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Each position p = start, start + 1, ... paired with each of the
    ``later[p - start]`` positions right after it, as two index arrays in
    (p, partner) order."""
    first = np.repeat(np.arange(start, start + later.size), later)
    # the k-th pair of p takes the partner p + 1 + k
    before = np.cumsum(later) - later
    second = np.repeat(np.arange(start + 1, start + later.size + 1) - before, later)
    second += np.arange(second.size)
    return first, second


def _bucket_pairs(key: np.ndarray, width: int):
    """The pairs a < b of rows with equal ``key`` rows, in chunks of about
    ``_BLOCK // width`` pairs.

    Rows are grouped by key with a stable sort, so within a group they
    ascend, and each row pairs with the later rows of its group."""
    n = len(key)
    if key.shape[1]:
        bucket = np.unique(key, axis=0, return_inverse=True)[1].ravel()
    else:
        bucket = np.zeros(n, dtype=np.int64)
    rows = np.argsort(bucket, kind="stable")
    grouped = bucket[rows]
    later = np.searchsorted(grouped, grouped, side="right") - np.arange(n) - 1
    before = np.concatenate(([0], np.cumsum(later)))  # pairs of earlier rows
    budget = max(1, _BLOCK // max(width, 1))
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + budget, "right")) - 1)
        first, second = later_pairs(later[lo:hi], lo)
        yield rows[first], rows[second]
        lo = hi


class SequenceSpace(DistanceSpace):
    """Distinct aligned sequences under the Hamming distance.

    ``codes`` holds one row of character codes per point, in ``point_ids``
    order, and no two rows are equal.  The n x n matrix ``dist`` is built on
    first read, in row blocks.  Routes that need only the unit-distance pairs
    never read it: they take them from ``edges(1)`` and the int64 bound from
    the sequence length.
    """

    def __init__(self, point_ids: Sequence[str], codes: np.ndarray) -> None:
        ids = tuple(point_ids)
        if not isinstance(codes, np.ndarray) or codes.ndim != 2 or len(codes) != len(ids):
            raise InputError(f"{len(ids)} point ids need a 2-D array with a row of codes each")
        if len(set(ids)) != len(ids):
            raise InputError("point ids must be pairwise distinct")
        object.__setattr__(self, "point_ids", ids)
        object.__setattr__(self, "codes", codes)

    @cached_property
    def dist(self) -> np.ndarray:
        return hamming_matrix(self.codes)

    def diameter_bound(self) -> int:
        """The sequence length, which no Hamming distance exceeds."""
        return self.codes.shape[1]

    def edges(self, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs i < j at Hamming distance <= h, in row-major order, with
        their distances; at h = 1 with no n x n array.

        By pigeonhole, two rows at distance 1 agree exactly on one of their
        two halves.  So the rows are bucketed by each half, and only pairs in
        a bucket are compared, on the other half.  Any other h reads ``dist``."""
        if h != 1:
            return super().edges(h)
        n, length = self.codes.shape
        half = length // 2
        found_i, found_j = [], []
        for key, rest in (
            (self.codes[:, :half], self.codes[:, half:]),
            (self.codes[:, half:], self.codes[:, :half]),
        ):
            for a, b in _bucket_pairs(key, rest.shape[1]):
                unit = (rest[a] != rest[b]).sum(axis=1) == 1
                found_i.append(a[unit])
                found_j.append(b[unit])
        i = np.concatenate(found_i, dtype=np.int64)
        j = np.concatenate(found_j, dtype=np.int64)
        order = np.argsort(i * n + j)
        return i[order], j[order], np.ones(i.size, dtype=np.int64)


@dataclass(frozen=True)
class TimeLabels:
    """First-appearance step D(x) for each point, with horizon m.

    Step ``i`` consists of the points with label <= i; empty early steps are
    allowed.
    """

    m: int
    by_id: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", as_natural(self.m, "time horizon"))
        if self.m > INT64_MAX:
            raise InputError(f"time horizon {self.m} exceeds int64")
        by_id = {pid: as_natural(label, "time label") for pid, label in self.by_id.items()}
        for pid, label in by_id.items():
            if label > self.m:
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
        if (horizon := as_natural(horizon, "horizon")) < self.m:
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", as_natural(self.m, "time horizon"))

    @cached_property
    def base(self) -> int:
        return time_offset_base(self.m)

    def kappa(self, i: int) -> int:
        i = as_integer(i, "schedule index")
        if i < -1:
            raise InputError(f"schedule index must be >= -1, got {i}")
        if i == -1:
            return 0
        q, r = divmod(i, self.m + 1)
        return (q + 1) * self.base + r

    def step_of(self, scaled_value: int) -> int | None:
        """Time step of a birth or death value in the first block [N, N+m],
        else None: a value N+i belongs to step i."""
        scaled_value = as_natural(scaled_value, "scaled value")
        if self.base <= scaled_value <= self.base + self.m:
            return scaled_value - self.base
        return None


def check_horizon(space: DistanceSpace, m: int) -> int:
    """The offset base N of ``ScaleSchedule(m)``, once N*max(h, 1) + m fits in
    int64 for h the space's cheap diameter bound (for sequences, their length).

    That sum bounds every deformed value and N itself.  No exact diameter is
    sought past the bound: a sequence length that fits in memory overflows
    it only from m of about 10^12, and every subcommand builds lists of
    m + 1 entries.  Raises InputError otherwise, so an input ``deform``
    cannot represent is rejected by every subcommand rather than wrapped
    around or looped over step by step.
    """
    schedule = ScaleSchedule(m)
    base, h = schedule.base, max(space.diameter_bound(), 1)
    if base * h + schedule.m > INT64_MAX:
        raise InputError(
            f"deformed distances overflow int64: N*max(h, 1) + m = "
            f"{base}*{h} + {schedule.m} exceeds {INT64_MAX}"
        )
    return base


def deform(space: DistanceSpace, labels: TimeLabels) -> np.ndarray:
    """The int64 matrix N*h(x,y) + max(D(x), D(y)), zero on the diagonal, in
    ``space.point_ids`` order (``check_horizon`` bounds it): the definition by
    which ``deformed_snv`` re-values its edges, kept as the tests' reference."""
    base = check_horizon(space, labels.m)
    lab = labels.vector(space.point_ids)
    scaled = base * space.dist + np.maximum.outer(lab, lab)
    if scaled.size:
        np.fill_diagonal(scaled, 0)
    return scaled


def dedupe_zero_distance(
    point_ids: Sequence[str], group: np.ndarray
) -> tuple[tuple[str, ...], np.ndarray, dict[str, str]]:
    """Merge the points of each zero-distance group; the one merge rule of
    both parsers.

    ``group[k]`` names point k's group: points at distance 0, closed under
    chains of such pairs.  Each group keeps its lexicographically least id.
    With no merge the points keep their order; otherwise the kept points are
    ordered by id.  Returns ``(ids, slot, merges)``: ``slot[k]`` is the
    position in ``ids`` of point k's kept point, and ``merges`` maps each
    dropped id to the id it was merged into; the caller derives the kept
    points' time labels from ``merges``.
    """
    ids = list(point_ids)
    n = len(ids)
    kind = np.unique(np.asarray(group), return_inverse=True)[1].ravel()
    if kind.size != n:
        raise InputError(f"{n} point ids but {kind.size} group entries")
    if kind.size == 0 or kind.max() + 1 == n:
        return tuple(ids), np.arange(n), {}
    # points in id order: the first point met of each group is its kept one,
    # and the groups are met in the order of their kept ids
    least: dict[int, int] = {}
    kind_of = kind.tolist()
    for k in sorted(range(n), key=ids.__getitem__):
        least.setdefault(kind_of[k], k)
    position = np.empty(len(least), dtype=np.int64)
    position[list(least)] = np.arange(len(least))
    slot = position[kind]
    kept = tuple(ids[k] for k in least.values())
    merges = {}
    into = slot.tolist()
    for k in np.argsort(slot, kind="stable").tolist():  # by kept point, then file
        if ids[k] != kept[into[k]]:
            merges[ids[k]] = kept[into[k]]
    return kept, slot, merges


def joins(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the k x 2 array of pairs of points 0..n-1, taken in order: whether
    each pair joins two groups of the pairs before it, and each point's
    group, named by one member.

    The joining pairs are the minimum spanning forest with pair k weighing k,
    which distinct weights make unique, so Borůvka's rounds find the same
    ones a union-find in pair order marks.  Each round drops the pairs inside
    a group, takes each group's first pair out of it, hooks the group to the
    group at that pair's other end, and merges the hooked groups by pointer
    jumping.  Two groups that took the same pair hook each other; the one
    with the smaller name stays the root."""
    ends = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    joined = np.zeros(len(ends), dtype=bool)
    label = np.arange(n)
    rank, a, b = np.arange(len(ends)), ends[:, 0], ends[:, 1]
    while True:
        a, b = label[a], label[b]
        outward = a != b
        rank, a, b = rank[outward], a[outward], b[outward]
        if not rank.size:
            return joined, label
        # pairs stay in rank order, so a group's lowest position is its first pair
        first = np.full(n, rank.size)
        np.minimum.at(first, a, np.arange(rank.size))
        np.minimum.at(first, b, np.arange(rank.size))
        group = np.flatnonzero(first < rank.size)
        k = first[group]
        joined[rank[k]] = True
        other = a[k] + b[k] - group
        label[group] = other
        mutual = (label[other] == group) & (group < other)
        label[group[mutual]] = group[mutual]
        while not np.array_equal(up := label[label[group]], label[group]):
            label[group] = up
        label = label[label]


def group_zero_distance(dist: np.ndarray) -> np.ndarray:
    """Each point's group under chains of distance-0 pairs, named by one
    member: the labels ``joins`` gives the zero entries of the upper
    triangle."""
    d = np.asarray(dist)
    return joins(np.argwhere(np.triu(d == 0, k=1)), len(d))[1]


def merge_distances(dist: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """The matrix between merged points: the minimum over cross pairs of two
    groups, where ``slot`` maps each point to its merged position."""
    d = np.asarray(dist, dtype=np.int64)
    if np.array_equal(slot, np.arange(len(d))):
        return d
    # reduce the group-sorted matrix over row blocks, then over column
    # blocks, and mirror the upper triangle
    order = np.argsort(slot, kind="stable")
    starts = np.searchsorted(slot[order], np.arange(slot.max() + 1))
    sub = d[np.ix_(order, order)]
    new = np.minimum.reduceat(np.minimum.reduceat(sub, starts, axis=0), starts, axis=1)
    new = np.triu(new, k=1)
    return new + new.T


def _encode(sequences: Sequence[str]) -> np.ndarray:
    """Equal-length strings as an n x L array of character codes: uint8 for
    ASCII text, else uint32 code points."""
    text = "".join(sequences)
    if text.isascii():
        flat = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        flat = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return flat.reshape(len(sequences), len(sequences[0]))


def build_space_from_sequences(
    records: Sequence[tuple[str, str]],
) -> tuple[SequenceSpace, dict[str, str]]:
    """Hamming distance space from (id, sequence) records.

    Identical sequences are merged by ``dedupe_zero_distance``
    (lexicographically least id kept); the returned dict reports dropped id
    -> kept id.  No distance is computed here: see ``SequenceSpace``.
    """
    if not records:
        raise InputError("no sequence records given")
    ids = [rid for rid, _ in records]
    seen: set[str] = set()
    for rid in ids:
        if rid in seen:
            raise InputError(f"duplicate sequence id {rid!r}")
        seen.add(rid)
    ref_id, ref_seq = records[0]
    for rid, seq in records[1:]:
        if len(seq) != len(ref_seq):
            raise InputError(
                f"sequences must have equal length: {ref_id!r} has {len(ref_seq)}, "
                f"{rid!r} has {len(seq)}"
            )
    rows, row_of = np.unique(
        _encode([seq for _, seq in records]), axis=0, return_inverse=True
    )
    ids2, slot, merges = dedupe_zero_distance(ids, row_of)
    kept_row = np.empty(len(ids2), dtype=np.int64)
    kept_row[slot] = row_of.ravel()
    return SequenceSpace(ids2, rows[kept_row]), merges
