"""Hand-checked fixture instances shared across the test modules."""

from dataclasses import replace
from itertools import combinations
from typing import NamedTuple

import numpy as np

from snvrips import (
    Barcode,
    DistanceSpace,
    Edges,
    FilteredComplex,
    InputError,
    RandomInstanceSpec,
    TimeLabels,
    barcode_h1,
    build_rips,
    random_instance,
)
from snvrips.distance import INT64_MAX
from snvrips.rips import Simplex, boundary_matrix
from snvrips.pipeline import SnvBar, SnvReport


def count_alive(barcode: Barcode, v: int) -> int:
    """Bars with birth <= v < death; the open end counts as alive."""
    return sum(
        b.birth_value <= v and (b.death_value is None or v < b.death_value)
        for b in barcode.bars
    )


def hamming(a, b) -> int:
    """Reference Hamming distance: positions where two equal-length
    sequences differ, one pair of letters at a time."""
    if len(a) != len(b):
        raise InputError(
            f"hamming distance needs equal-length sequences, got lengths {len(a)} and {len(b)}"
        )
    return sum(x != y for x, y in zip(a, b))


def matrix_edges(dist, cap: int) -> Edges:
    """Reference edge list: the pairs of a symmetric matrix with zero diagonal
    at or below cap, read off the dense matrix."""
    d = np.asarray(dist, dtype=np.int64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if d.size and (np.diagonal(d).any() or not np.array_equal(d, d.T)):
        raise ValueError("distance matrix must be symmetric with zero diagonal")
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    i, j = np.nonzero(np.triu(d <= cap, k=1))
    return Edges(d.shape[0], i, j, d[i, j])


def matrix_rips(dist, cap: int) -> FilteredComplex:
    """``build_rips`` over the pairs of a matrix at or below cap."""
    return build_rips(matrix_edges(dist, cap), cap)


def restrict_to_step(space: DistanceSpace, labels: TimeLabels, i: int) -> DistanceSpace:
    """Reference step space: the induced sub-distance-space on the points with
    label <= i, copied out of the dense matrix."""
    if not 0 <= i <= labels.m:
        raise InputError(f"step {i} outside {{0, ..., {labels.m}}}")
    lab = labels.vector(space.point_ids)
    keep = [k for k in range(space.n) if lab[k] <= i]
    ids = tuple(space.point_ids[k] for k in keep)
    sub = space.dist[np.ix_(keep, keep)] if keep else np.zeros((0, 0), dtype=np.int64)
    return DistanceSpace(ids, sub)


def classical_step(space: DistanceSpace, labels: TimeLabels, i: int, p: int, cap=None):
    """Reference classical step i: its cap (the step's diameter when cap is
    None) and its bars born at scale 1, from the dense step matrix."""
    sub = restrict_to_step(space, labels, i)
    step_cap = sub.diameter() if cap is None else cap
    cplx = matrix_rips(sub.dist, step_cap)
    bars = [
        SnvBar(
            i,
            None,
            bar.birth_value,
            bar.death_value,
            ids_of_chain(cplx, sub.point_ids, bar.representative),
        )
        for bar in barcode_h1(cplx, p).bars
        if bar.birth_value == 1
    ]
    return step_cap, bars


def ids_of_chain(cplx: FilteredComplex, point_ids, chain: dict[int, int]):
    """A chain keyed by edge rank as (id, id, coefficient) edges in rank
    order, the ends read from the simplex list."""
    edges = edges_of(cplx)
    return tuple(
        (point_ids[a], point_ids[b], chain[r])
        for r in sorted(chain)
        for a, b in [edges[r].vertices]
    )


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


class Reference(NamedTuple):
    """A filtered complex in the builder's terms, as the reference computes
    it: ``values`` and ``faces`` by rank, ``simplices`` in filtration order."""

    simplices: list[Simplex]
    values: tuple[np.ndarray, ...]
    faces: tuple[np.ndarray, ...]


def all_triples_rips(dist, cap: int) -> Reference:
    """Reference Rips complex: tests every vertex pair and triple against the
    cap, sorts the whole complex by (value, dimension, vertex tuple), and
    finds each face's rank by its vertex tuple."""
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
    ranked = [[s for s in simplices if s.dim == k] for k in range(3)]
    rank = {s.vertices: r for group in ranked for r, s in enumerate(group)}
    faces = tuple(
        np.array(
            [
                [rank[s.vertices[:drop] + s.vertices[drop + 1 :]] for drop in range(k + 1)]
                for s in ranked[k]
            ],
            dtype=np.int64,
        ).reshape(-1, k + 1)
        for k in (1, 2)
    )
    values = tuple(np.array([s.value for s in ranked[k]], dtype=np.int64) for k in (1, 2))
    return Reference(simplices, values, faces)


def brute_force_dedupe(point_ids, dist):
    """Reference zero-distance merge: a union-find over every pair at distance
    0, and each cross-group distance as the minimum over its pairs, one pair
    at a time.  Kept ids are sorted only when something merged."""
    ids = list(point_ids)
    d = np.asarray(dist, dtype=np.int64)
    n = len(ids)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(n), 2):
        if d[i, j] == 0:
            parent[find(j)] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    if len(groups) == n:
        return tuple(ids), d, {}
    members = sorted(groups.values(), key=lambda g: min(ids[i] for i in g))
    kept = [min(g, key=lambda i: ids[i]) for g in members]
    merges = {ids[i]: ids[k] for g, k in zip(members, kept) for i in g if i != k}
    new = np.zeros((len(members), len(members)), dtype=np.int64)
    for a, b in combinations(range(len(members)), 2):
        new[a, b] = new[b, a] = min(int(d[i, j]) for i in members[a] for j in members[b])
    return tuple(ids[k] for k in kept), new, merges


def read_lower_triangle(text: str, n: int) -> np.ndarray:
    """Reference matrix reader: one ``int`` per ``split()`` cell of each
    non-blank line, mirrored into an n x n matrix.  Raises InputError with the
    parser's text for the first fault: the row count, then line by line its
    cell count, then each cell in order."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if len(rows) != n - 1:
        raise InputError(f"matrix has {len(rows)} rows but {n} time entries need {n - 1}")
    full = np.zeros((n, n), dtype=np.int64)
    for k, cells in enumerate(rows, start=1):
        if len(cells) != k:
            raise InputError(f"matrix line {k}: expected {k} entries, got {len(cells)}")
        for c, cell in enumerate(cells):
            try:
                value = int(cell)
            except ValueError:
                raise InputError(f"matrix line {k}: {cell!r} is not an integer") from None
            if value < 0:
                raise InputError(f"matrix line {k}: negative distance {value}")
            if value > INT64_MAX:
                raise InputError(f"matrix line {k}: distance {value} exceeds int64")
            full[k, c] = full[c, k] = value
    return full


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


def position(cplx: FilteredComplex, vertices: tuple[int, ...]) -> int:
    """The position of the simplex with these vertices, by a scan."""
    return next(pos for pos, s in enumerate(cplx.simplices) if s.vertices == vertices)


def edges_of(cplx: FilteredComplex) -> list[Simplex]:
    """The edges of a complex in rank order, read off the simplex list."""
    return [s for s in cplx.simplices if s.dim == 1]


def rank(cplx: FilteredComplex, vertices: tuple[int, int]) -> int:
    """The rank of the edge with these vertices, by a scan."""
    return next(r for r, s in enumerate(edges_of(cplx)) if s.vertices == vertices)


def chain_of_ids(cplx: FilteredComplex, point_ids, representative) -> dict[int, int]:
    """An id-labelled representative as a chain keyed by edge rank, by scans."""
    index = {pid: i for i, pid in enumerate(point_ids)}
    return {
        rank(cplx, tuple(sorted((index[a], index[b])))): coeff
        for a, b, coeff in representative
    }


def chain_boundary(cplx: FilteredComplex, chain: dict[int, int], p: int) -> dict[int, int]:
    """The boundary of a 1-chain keyed by edge rank, as a 0-chain keyed by
    vertex, mod p.  Faces come from each edge's vertex pair (face k drops
    vertex k, sign (-1)^k), not from the builder's face ranks."""
    edges = edges_of(cplx)
    acc: dict[int, int] = {}
    for r, coeff in chain.items():
        verts = edges[r].vertices
        for drop in range(2):
            (row,) = verts[:drop] + verts[drop + 1 :]
            val = 1 if drop % 2 == 0 else p - 1
            nv = (acc.get(row, 0) + coeff * val) % p
            if nv:
                acc[row] = nv
            else:
                acc.pop(row, None)
    return acc


def subtract(dst: dict[int, int], src: dict[int, int], c: int, p: int) -> None:
    """dst -= c * src over F_p, in place, dropping the entries that vanish."""
    for row, val in src.items():
        dst[row] = (dst.get(row, 0) - c * val) % p
        if not dst[row]:
            del dst[row]


def standard_reduction(columns: list[dict[int, int]], p: int):
    """Reference reduction over F_p with basis tracking, R = D*V: every
    column, left to right, is reduced against the earlier column owning its
    lowest row until that row is free or the column is zero, and each
    addition is repeated on its V column, which starts as the unit column.
    Columns and rows are indices in filtration order, such as positions or
    the ranks of one dimension; there is no clearing, no cohomology and no
    apparent pair.  Returns (R, V) as lists of columns."""
    reduced: list[dict[int, int]] = []
    basis: list[dict[int, int]] = []
    owner: dict[int, int] = {}  # lowest row -> column
    for j, column in enumerate(columns):
        col = {row: c % p for row, c in column.items() if c % p}
        v = {j: 1}
        while col:
            low = max(col)
            k = owner.get(low)
            if k is None:
                owner[low] = j
                break
            c = col[low] * pow(reduced[k][low], p - 2, p) % p
            subtract(col, reduced[k], c, p)
            subtract(v, basis[k], c, p)
        reduced.append(col)
        basis.append(v)
    return reduced, basis


def standard_view(cplx: FilteredComplex, p: int):
    """What ``reduce_with_basis`` must return, and the H_0 deaths, from
    ``standard_reduction`` of each dimension's columns in rank order:
    (pairs, death columns, the set of H_0-death edges, each essential edge's
    V column).

    This is the reduction of the whole complex in filtration order, split in
    two: a column's rows lie one dimension below it, so columns of different
    dimensions never share a low, and within a dimension filtration order is
    rank order.  An essential edge is one whose column reduces to zero and
    that no triangle kills; its V column is a cycle born at that edge."""
    (edges, basis), (triangles, _) = (
        standard_reduction(cols, p) for cols in boundary_matrix(cplx, p)
    )
    deaths = {t: col for t, col in enumerate(triangles) if col}
    pairs = {t: max(col) for t, col in deaths.items()}
    h0 = {e for e, col in enumerate(edges) if col}
    killed = set(pairs.values())
    cycles = {e: v for e, v in enumerate(basis) if e not in h0 and e not in killed}
    return pairs, deaths, h0, cycles


def h0_edges(cplx: FilteredComplex, result) -> set[int]:
    """The edges an engine result neither pairs with a triangle nor gives a
    cycle: its H_0 deaths."""
    n_edges = len(cplx.faces[0])
    return set(range(n_edges)) - set(result.pairs.values()) - result.cycles.keys()


def reference_forest_cycles(
    ends: list[list[int]], cleared: list[bool], essential: list[int], n_points: int, p: int
) -> dict[int, dict[int, int]]:
    """Each essential edge -> its forest cycle, as the engine found it before
    it rooted only the forest's own vertices: a neighbour list and a root
    for every point, isolated or not.  ``ends[e]`` lists edge e's vertices
    higher first; the cycle is the edge at 1 plus the forest path between its
    ends, each edge at 1 when walked from its lower to its higher end."""
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(n_points)]
    for e, ((j, i), dead) in enumerate(zip(ends, cleared)):
        if dead:
            neighbours[i].append((j, e))
            neighbours[j].append((i, e))
    parent, via, depth = [-1] * n_points, [-1] * n_points, [-1] * n_points
    for root in range(n_points):
        if depth[root] < 0:
            depth[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for w, e in neighbours[u]:
                    if depth[w] < 0:
                        parent[w], via[w], depth[w] = u, e, depth[u] + 1
                        stack.append(w)

    cycles = {}
    for e in reversed(essential):
        a, b = ends[e]
        cycle = {e: 1}
        while a != b:
            if depth[a] >= depth[b]:
                cycle[via[a]] = 1 if a < parent[a] else p - 1
                a = parent[a]
            else:
                cycle[via[b]] = 1 if parent[b] < b else p - 1
                b = parent[b]
        cycles[e] = cycle
    return cycles
