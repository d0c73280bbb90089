"""Vietoris-Rips filtered complexes of dimension <= 2 over integer matrices.

The complex is the clique complex of the edge graph {d <= cap}: edges come
from the upper triangle of the thresholded matrix, and the triangles through
vertex i are the edges among i's higher-numbered neighbours, so no vertex
triple outside the graph is ever examined.  Simplices are ordered by (value,
dimension, vertex tuple) with one lexsort; the order is total and
face-respecting, so downstream matrix reduction is deterministic.  The
complex is stored as arrays in that order: each simplex's value, and its
vertices padded with -1 to three columns.  The builder also gives each edge
and triangle its faces as ranks (a simplex's rank counts the simplices of
its dimension before it), found with ``searchsorted`` on edge keys.  These
arrays are the only boundary representation: every reader of a face, the
reduction included, uses them.  The list of ``Simplex`` tuples is a lazy
view built on first access; no solve reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .distance import DistanceSpace, TimeLabels
from .errors import InputError


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


def build_rips(dist, cap: int) -> FilteredComplex:
    """All simplices of dimension <= 2 whose pairwise distances are <= cap.

    Vertices enter at value 0, an edge at its distance, a triangle at the max
    of its three edge values.  Triangles are the 3-cliques of the edge graph:
    for each vertex i, the edges among its higher-numbered neighbours.
    """
    d = np.asarray(dist, dtype=np.int64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if d.size and (np.diagonal(d).any() or not np.array_equal(d, d.T)):
        raise ValueError("distance matrix must be symmetric with zero diagonal")
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")

    n = d.shape[0]
    adj = np.triu(d <= cap, k=1)
    ei, ej = np.nonzero(adj)
    tri = [np.zeros((0, 3), dtype=np.int64)]
    for i in range(n):
        up = np.flatnonzero(adj[i])
        if up.size >= 2:
            # adj is strictly upper triangular and up ascending, so the
            # sub-adjacency is too: each (a, b) is one triangle (i, up[a], up[b])
            a, b = np.nonzero(adj[np.ix_(up, up)])
            tri.append(np.column_stack((np.full(a.size, i), up[a], up[b])))
    ti, tj, tk = np.concatenate(tri).T
    tv = np.maximum(np.maximum(d[ti, tj], d[ti, tk]), d[tj, tk])

    value = np.concatenate((np.zeros(n, dtype=np.int64), d[ei, ej], tv))
    dim = np.repeat([0, 1, 2], [n, ei.size, ti.size])
    pad = np.full(n + ei.size, -1, dtype=np.int64)
    v0 = np.concatenate((np.arange(n, dtype=np.int64), ei, ti))
    v1 = np.concatenate((pad[:n], ej, tj))
    v2 = np.concatenate((pad, tk))
    order = np.lexsort((v2, v1, v0, dim, value))

    # Ranks: edges and triangles, each in filtration order, as indices into
    # (ei, ej) and (ti, tj, tk).  np.nonzero lists edges in row-major order,
    # so their keys i * n + j ascend and searchsorted finds each face.
    by_dim = tuple(np.flatnonzero(dim[order] == k) for k in range(3))
    edge_at = order[by_dim[1]] - n
    tri_at = order[by_dim[2]] - n - ei.size
    edge_rank = np.empty(ei.size, dtype=np.int64)
    edge_rank[edge_at] = np.arange(ei.size)
    face_keys = np.column_stack((tj * n + tk, ti * n + tk, ti * n + tj))[tri_at]
    faces = (
        np.column_stack((ej, ei))[edge_at],
        edge_rank[np.searchsorted(ei * n + ej, face_keys)],
    )

    vertices = np.column_stack((v0, v1, v2))[order]
    return FilteredComplex(value[order], vertices, cap, n, by_dim, faces)


def restrict_to_step(space: DistanceSpace, labels: TimeLabels, i: int) -> DistanceSpace:
    """Induced sub-distance-space on the points with label <= i."""
    if not 0 <= i <= labels.m:
        raise InputError(f"step {i} outside {{0, ..., {labels.m}}}")
    lab = labels.vector(space.point_ids)
    keep = [k for k in range(space.n) if lab[k] <= i]
    ids = tuple(space.point_ids[k] for k in keep)
    sub = space.dist[np.ix_(keep, keep)] if keep else np.zeros((0, 0), dtype=np.int64)
    return DistanceSpace(ids, sub)


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
