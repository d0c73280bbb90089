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

Each dimension is stored by rank, the order of one stable sort by value:
edges arrive row-major and triangles lexicographically, so ties keep vertex
order.  Each edge and triangle lists its faces as ranks, and these arrays
are the only boundary representation: every reader of a face, the
reduction and ``boundary_matrix`` included, uses them.  Merged, the ranks
give the filtration order (value, dimension, vertex tuple), total and
face-respecting; the list of ``Simplex`` tuples in that order is the one
positional view, built on first access, and no solve reads it.
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
    """Edges and triangles by rank, each with its value and its faces as
    ranks.

    A simplex's rank counts the simplices of its dimension before it in
    filtration order, and a vertex's rank is its index.  ``values[d - 1][r]``
    is the value of the rank-r simplex of dimension d, for d = 1, 2, in
    ascending order; vertices enter at 0.  ``faces[d - 1][r]`` holds the
    ranks of its faces in boundary order: face k drops vertex k and has sign
    (-1)^k, so edge (i, j) has the vertices j, i and triangle (i, j, k) the
    edges (j, k), (i, k), (i, j).  All four arrays are int64.

    ``cap`` is inclusive: no simplex has value > cap.  Once the cap reaches
    the matrix's largest entry the filtration is fully resolved, and open
    bars are genuinely infinite rather than merely open at the cap.

    ``simplices`` is the complex as a list of ``Simplex`` tuples in the
    filtration order (value, dimension, vertex tuple), which merges the
    ranks.  It is built on first access and then cached; no solve reads it.
    """

    values: tuple[np.ndarray, np.ndarray]
    cap: int
    n_points: int
    faces: tuple[np.ndarray, np.ndarray]

    @cached_property
    def simplices(self) -> list[Simplex]:
        n, (edge_faces, tri_faces), (ev, tv) = self.n_points, self.faces, self.values
        ends = edge_faces[:, ::-1]  # edge (i, j) lists the vertices j, i
        corners = np.column_stack((ends[tri_faces[:, 2]], edge_faces[tri_faces[:, 1], 0]))
        rows = [[v] for v in range(n)] + ends.tolist() + corners.tolist()
        values = [0] * n + ev.tolist() + tv.tolist()
        # vertices first; an edge after the triangles below it, a triangle after edges <= it
        positions = [
            *range(n),
            *(n + np.arange(ev.size) + np.searchsorted(tv, ev, "left")).tolist(),
            *(n + np.arange(tv.size) + np.searchsorted(ev, tv, "right")).tolist(),
        ]
        out: list = [None] * len(positions)
        for pos, row, value in zip(positions, rows, values):
            out[pos] = Simplex(tuple(row), value)
        return out


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
    found = np.flatnonzero(keys[jk] == want)
    return ij[found], ik[found], jk[found]


def build_rips(edges: Edges, cap: int) -> FilteredComplex:
    """The clique complex of ``edges`` in dimension <= 2, filtered by value.

    Vertices enter at value 0, an edge at its value, a triangle at the max
    of its three edge values.  The cap must be an integer and the edges
    integer arrays in row-major order (``Edges``) with values in [0, cap];
    any other input raises ValueError.
    """
    if not isinstance(cap, (int, np.integer)) or cap < 0:
        raise ValueError(f"cap must be a non-negative integer, got {cap!r}")
    n, *arrays = edges
    if not all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in arrays):
        raise ValueError("edge arrays must have an integer dtype")
    ei, ej, ev = (a.astype(np.int64, copy=False) for a in arrays)
    keys = ei * n + ej
    if ei.size and not (
        0 <= ei.min() and (ei < ej).all() and ej.max() < n
        and (keys[1:] > keys[:-1]).all() and 0 <= ev.min() <= ev.max() <= cap
    ):
        raise ValueError(f"edges must be row-major, i < j < n, values in [0, {cap}]")
    ij, ik, jk = _triangles(Edges(n, ei, ej, ev), keys)
    tv = np.maximum(np.maximum(ev[ij], ev[ik]), ev[jk])

    # ranks: a stable sort by value per dimension keeps ties in vertex order;
    # over keys of 16 bits or fewer it is a radix sort
    narrow = np.min_scalar_type(cap)
    edge_at = np.argsort(ev.astype(narrow), kind="stable")
    tri_at = np.argsort(tv.astype(narrow), kind="stable")
    edge_rank = np.empty(ei.size, dtype=np.int64)
    edge_rank[edge_at] = np.arange(ei.size)
    faces = (
        np.column_stack((ej, ei))[edge_at],
        edge_rank[np.column_stack((jk, ik, ij))[tri_at]],
    )
    return FilteredComplex((ev[edge_at], tv[tri_at]), cap, n, faces)


def boundary_matrix(cplx: FilteredComplex, p: int) -> tuple[list[dict], list[dict]]:
    """The edge columns and the triangle columns, each by rank, mod p: rows
    are face ranks in boundary order, face k with sign (-1)^k."""
    return tuple([dict(zip(row, (1, p - 1, 1))) for row in f.tolist()] for f in cplx.faces)
