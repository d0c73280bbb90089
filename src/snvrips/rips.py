"""Vietoris-Rips filtered complexes of dimension <= 2 over an edge list.

``build_rips`` is the one builder.  It takes a graph's edges in row-major
order (``Edges``: i < j, keys i*n + j ascending) with a value each, and
returns the clique complex up to dimension 2.  Every pipeline complex is
built from ``DistanceSpace.edges(h)``, the pairs at distance <= h: the
deformed run re-values them, and each classical step keeps those whose ends
are both present, so a cap of 1 needs no n x n matrix.  Triangles are the
closed wedges: each pair of higher neighbours (j, k) of a vertex i whose
closing edge ``searchsorted`` finds among the edge keys, all at once in
numpy, so no vertex triple outside the graph is ever examined.  A
triangle's value and its face ranks come from its three edge indices.

Simplices are ordered by (value, dimension, vertex tuple) with one stable
sort by value over arrays already in (dim, vertex) order; the order is total
and face-respecting, so downstream matrix reduction is deterministic.  The complex is stored as arrays in that order: each
simplex's value, and its vertices padded with -1 to three columns.  The
builder also gives each edge and triangle its faces as ranks (a simplex's
rank counts the simplices of its dimension before it).  These arrays are the
only boundary representation: every reader of a face, the reduction
included, uses them.  The list of ``Simplex`` tuples is a lazy view built on
first access; no solve reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distance import later_pairs


class Simplex(NamedTuple):
    vertices: tuple[int, ...]
    value: int

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass
class FilteredComplex:
    """Simplices in filtration order as arrays, with each simplex's faces as
    ranks.

    ``values[pos]`` is the value of the simplex at filtration position pos,
    and ``vertices[pos]`` its vertices in ascending order, padded with -1 to
    three columns; both are int64.  ``simplices`` is the same complex as a
    list of ``Simplex`` tuples, built on first access and then cached; no
    solve reads it.

    ``cap`` is inclusive: no simplex has value > cap.  Once the cap reaches
    the matrix's largest entry the filtration is fully resolved, and open
    bars are genuinely infinite rather than merely open at the cap.

    ``by_dim[d][r]`` is the position of the rank-r simplex of dimension d.
    ``faces[d - 1][r]`` holds the ranks of that d-simplex's faces in boundary
    order, for d = 1, 2: face k drops vertex k and has sign (-1)^k, so edge
    (i, j) has the vertices j, i and triangle (i, j, k) the edges (j, k),
    (i, k), (i, j).  A vertex's rank is its index.
    """

    values: np.ndarray
    vertices: np.ndarray
    cap: int
    n_points: int
    by_dim: tuple[np.ndarray, np.ndarray, np.ndarray]
    faces: tuple[np.ndarray, np.ndarray]

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def simplices(self) -> list[Simplex]:
        dims = (self.vertices >= 0).sum(axis=1).tolist()
        return [
            Simplex(tuple(row[:k]), value)
            for row, k, value in zip(self.vertices.tolist(), dims, self.values.tolist())
        ]


class Edges(NamedTuple):
    """A graph on the vertices 0..n-1: edge k joins i[k] < j[k] at value[k].
    Edges are listed in row-major order, so the keys i*n + j ascend."""

    n: int
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray


def _triangles(edges: Edges, keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every triangle (i, j, k) of the graph as the indices of its edges
    (i, j), (i, k) and (j, k).

    Vertex i's edges to higher vertices are one run of the row-major list,
    so each wedge (i, j), (i, k) with j < k pairs an edge with a later edge
    of its run; ``searchsorted`` finds the closing edge (j, k) among the
    edge keys, if the graph has it.  ``later_pairs`` walks each run in
    order, so the triangles come out lexicographically, which the builder's
    sort relies on.  The wedge arrays are freed on return, before the
    builder sorts."""
    n, ei, ej, _ = edges
    ij, ik = later_pairs(np.searchsorted(ei, ei, side="right") - np.arange(ei.size) - 1)
    want = ej[ij] * n
    want += ej[ik]
    jk = np.searchsorted(keys, want)
    np.minimum(jk, keys.size - 1, out=jk)
    found = keys[jk] == want
    return ij[found], ik[found], jk[found]


def build_rips(edges: Edges, cap: int) -> FilteredComplex:
    """The clique complex of ``edges`` in dimension <= 2, filtered by value.

    Vertices enter at value 0, an edge at its value, a triangle at the max
    of its three edge values.  The edges must be row-major (``Edges``) with
    values in [0, cap]; any other list raises ValueError.
    """
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    n, ei, ej, ev = edges
    keys = ei * n + ej
    if ei.size and not (
        0 <= ei.min() and (ei < ej).all() and ej.max() < n
        and (keys[1:] > keys[:-1]).all() and 0 <= ev.min() <= ev.max() <= cap
    ):
        raise ValueError(f"edges must be row-major, i < j < n, values in [0, {cap}]")
    ij, ik, jk = _triangles(edges, keys)
    ti, tj, tk = ei[ij], ej[ij], ej[ik]
    tv = np.maximum(np.maximum(ev[ij], ev[ik]), ev[jk])

    value = np.concatenate((np.zeros(n, dtype=np.int64), ev, tv))
    dim = np.repeat([0, 1, 2], [n, ei.size, ti.size])
    pad = np.full(n + ei.size, -1, dtype=np.int64)
    v0 = np.concatenate((np.arange(n, dtype=np.int64), ei, ti))
    v1 = np.concatenate((pad[:n], ej, tj))
    v2 = np.concatenate((pad, tk))
    # the arrays are in (dim, v0, v1, v2) order: vertices by index, edges
    # row-major, triangles as _triangles emits them, lexicographically
    order = np.argsort(value, kind="stable")

    # Ranks: edges and triangles, each in filtration order, as indices into
    # the edge list and the triangle arrays.
    by_dim = tuple(np.flatnonzero(dim[order] == k) for k in range(3))
    edge_at = order[by_dim[1]] - n
    tri_at = order[by_dim[2]] - n - ei.size
    edge_rank = np.empty(ei.size, dtype=np.int64)
    edge_rank[edge_at] = np.arange(ei.size)
    faces = (
        np.column_stack((ej, ei))[edge_at],
        edge_rank[np.column_stack((jk, ik, ij))[tri_at]],
    )

    vertices = np.column_stack((v0, v1, v2))[order]
    return FilteredComplex(value[order], vertices, cap, n, by_dim, faces)


def boundary_matrix(cplx: FilteredComplex, p: int) -> list[dict[int, int]]:
    """One sparse column per simplex in filtration order, mod p, faces in
    boundary order."""
    columns: list[dict[int, int]] = [{} for _ in range(len(cplx))]
    for d in (1, 2):
        signs = [1 if k % 2 == 0 else p - 1 for k in range(d + 1)]
        face_pos = cplx.by_dim[d - 1][cplx.faces[d - 1]].tolist()
        for pos, faces in zip(cplx.by_dim[d].tolist(), face_pos):
            columns[pos] = dict(zip(faces, signs))
    return columns
