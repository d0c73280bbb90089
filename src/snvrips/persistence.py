"""Persistent homology in dimension 1 over F_p with representative cycles.

One engine finds the H_1 pairs by cohomology and the representatives by
homology; both give the same pairs (de Silva, Morozov & Vejdemo-Johansson,
*Dualities in persistent (co)homology*, 2011).  It reads the boundaries
straight from the builder's face arrays, ``FilteredComplex.faces``: each edge
and triangle lists its faces as ranks (a simplex's rank counts the simplices
of its dimension before it), and face k has sign (-1)^k, so no boundary
matrix is built, as in Ripser.  It runs three passes:

1. The union-find ``distance.joins`` over the edges, in filtration order,
   marks the H_0 deaths: the edges that join two components.  No H_1 class
   is born at them, so their coboundaries are cleared.
2. The other edge coboundaries are reduced in reverse filtration order, with
   triangle rows, so a column's pivot is its oldest triangle.  A pivot that
   no column owns yet is taken at once, an apparent pair (Bauer, *Ripser*,
   2021); most columns pair with no addition.  A pivot pairs an edge with
   the triangle that kills its class, and a column that reduces to zero is an
   essential class.
3. Homology gives the representatives.  ``_death_columns`` reduces the
   death triangles of the printed bars, ``Pairing.finite``, and every column
   they read: zero-length pairs are never reduced.  Reducing a column left to
   right only ever adds the reduced columns of the earlier triangles that own
   its intermediate lows, and the cohomology pairs name each owner in advance
   (the triangle that kills that edge), so each listed column is reduced with
   an explicit stack of owners not yet reduced, and every reduced column is
   the one the full left-to-right reduction makes.  A reduced death column
   is a cycle whose youngest edge is the birth edge.  An essential edge's
   cycle is its V column (R = D*V) in a left-to-right reduction of the edge
   boundaries, where only H_0 deaths own pivots: the edge plus a chain on
   their spanning forest.  A chain on a forest is fixed by its boundary, so
   ``_forest_cycles`` walks the forest path between the edge's ends and no
   edge boundary is reduced.

``pair_h1`` runs passes 1 and 2 alone, for callers that need only the pairs;
``barcode_h1`` builds on the same call.

Rows are face ranks, and the cohomology pass numbers its triangle rows
backwards, so every pass takes a column's highest row as its pivot.  ``p``
picks only the column kernel, which owns the inner loop of every reduction
here: over F_2 a column is a Python int bitset (pivot ``bit_length() - 1``,
addition by XOR), over other primes a dict keyed by rank.  Every chain is
keyed by edge rank.

``nonzero_sweep`` checks the deaths from outside, with the same kernel: it
grows its own echelon of triangle boundaries once over ascending thresholds,
and reports whether each 1-chain lies outside that span at each threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .distance import as_integer, check_prime, joins
from .errors import InputError

# boundary_matrix is no longer read here; it stays importable under this
# module because perfbench/spans.py traces it by this name.
from .rips import FilteredComplex, boundary_matrix  # noqa: F401

Chain = dict[int, int]


@dataclass(frozen=True)
class Bar:
    """One H_1 bar: [birth_value, death_value), death None when the class is
    still alive at the filtration cap."""

    birth_value: int
    death_value: int | None
    representative: Chain


@dataclass
class Barcode:
    bars: list[Bar]


def _axpy(dst: Chain, src: Chain, c: int, p: int) -> None:  # dst -= c * src (mod p)
    for row, val in src.items():
        nv = (dst.get(row, 0) - c * val) % p
        if nv:
            dst[row] = nv
        else:
            dst.pop(row, None)


def _f2_column(rows: list[int], vals: list[int]) -> int:
    col = 0
    for row in rows:
        col |= 1 << row
    return col


def _f2_reduce(col: int, owner_of, p: int) -> int:
    while col:
        owner = owner_of(col.bit_length() - 1)
        if owner is None:
            break
        col ^= owner
    return col


def _f2_chain(bits: int) -> Chain:
    """The F_2 chain whose set bits are its ranks, ascending."""
    chain = {}
    while bits:
        low = bits & -bits
        chain[low.bit_length() - 1] = 1
        bits ^= low
    return chain


def _fp_owner(col: Chain, low: int, p: int) -> Chain:  # a fresh copy, 1 at its low
    inv = pow(col[low], p - 2, p)
    return {row: val * inv % p for row, val in col.items()}


def _fp_reduce(col: Chain, owner_of, p: int) -> Chain:
    while col:
        low = max(col)
        owner = owner_of(low)
        if owner is None:
            break
        c, a = col[low], owner[low]  # an owner scaled to 1 needs no inverse
        _axpy(col, owner, c if a == 1 else c * pow(a, p - 2, p) % p, p)
    return col


class _Kernel(NamedTuple):
    """The column operations of F_p.  ``reduce`` adds multiples of the column
    ``owner_of(low)`` until the column's highest row has no owner or it is
    zero, and returns it."""

    column: Callable  # (rows, coefficients) -> column
    low: Callable  # nonzero column -> its highest row
    reduce: Callable  # (column, owner_of, p) -> column
    chain: Callable  # column -> Chain, keyed by rank
    owner: Callable  # (column, low, p) -> the column an echelon keeps
    p: int = 2
    signs: tuple[int, ...] = (1, 1, 1)  # face k has sign (-1)^k; an edge takes two


_F2 = _Kernel(_f2_column, lambda col: col.bit_length() - 1, _f2_reduce, _f2_chain, lambda c, *_: c)
_FP = _Kernel(lambda rows, vals: dict(zip(rows, vals)), max, _fp_reduce, dict, _fp_owner)


def _kernel(p: int) -> _Kernel:
    return _F2 if p == 2 else _FP._replace(p=p, signs=(1, p - 1, 1))


def _death_columns(
    tri_faces: np.ndarray, pairs: dict[int, int], wanted: list[int], kernel: _Kernel
) -> dict[int, Any]:
    """Each wanted death triangle -> its reduced column, a cycle whose youngest
    edge is the one the triangle kills.  The columns it reads are reduced first:
    an intermediate low's owner is the triangle that kills that edge, and
    owners not yet reduced wait on a stack, as chains can be thousands long."""
    killer = {e: t for t, e in pairs.items()}
    signs = kernel.signs
    deaths: dict[int, Any] = {}
    pivots: dict[int, Any] = {}  # killed edge -> reduced column
    for t in wanted:
        stack = [] if t in deaths else [(t, kernel.column(tri_faces[t].tolist(), signs))]
        while stack:
            s, col = stack.pop()
            col = kernel.reduce(col, pivots.get, kernel.p)
            low = kernel.low(col)
            if low == pairs[s]:
                deaths[s] = col
                pivots[low] = col
            else:  # an earlier triangle owns this low: reduce it first
                u = killer[low]
                stack += [(s, col), (u, kernel.column(tri_faces[u].tolist(), signs))]
    return {t: deaths[t] for t in wanted}


@dataclass
class _Reduction:
    """The engine's output in ranks, death columns in the kernel's form
    (``Chain``s, and every death column, from ``reduce_with_basis``)."""

    pairs: dict[int, int]  # death triangle -> the edge whose class it kills
    deaths: dict[int, Any]  # positive-length death triangle -> reduced column
    cycles: dict[int, Chain]  # essential edge -> its forest cycle


def _pair_by_cohomology(
    tri_faces: np.ndarray, cleared: list[bool], kernel: _Kernel
) -> tuple[dict[int, int], list[int]]:
    """Reduce the uncleared edge coboundaries, youngest edge first; ``cleared``
    holds one entry per edge.

    Coboundary rows are triangle ranks numbered backwards, so a column's
    highest row is its oldest triangle.  Returns the pairs (triangle -> edge)
    and the edges whose coboundary reduces to zero, youngest first.
    """
    n_tri, n_edges = len(tri_faces), len(cleared)
    # the transpose: edge e's coboundary rows are co_rows[co_ptr[e]:co_ptr[e+1]],
    # descending, because a stable sort keeps each edge's triangles ascending;
    # slot k of the raveled faces is face k % 3 of triangle k // 3
    faces = tri_faces.ravel()
    # a stable sort of keys of 16 bits or fewer is a radix sort
    order = np.argsort(faces.astype(np.min_scalar_type(n_edges)), kind="stable")
    co_rows = n_tri - 1 - order // 3
    co_vals = np.array(kernel.signs)[order % 3]
    del order
    sizes = np.bincount(faces, minlength=n_edges)
    co_ptr = np.concatenate(([0], np.cumsum(sizes)))
    first = np.full(n_edges, -1)  # each coboundary's highest row, -1 if empty
    first[sizes > 0] = co_rows[co_ptr[:-1][sizes > 0]]

    def coboundary(e: int):
        a, b = co_ptr[e : e + 2].tolist()
        return kernel.column(co_rows[a:b].tolist(), co_vals[a:b].tolist())

    owner: dict[int, int] = {}  # pivot row -> edge
    reduced: dict[int, Any] = {}  # edge -> column, when it took an addition

    def owner_of(row: int):
        e = owner.get(row)
        return None if e is None else reduced.get(e) or coboundary(e)

    essential = []
    for e, row in zip(range(n_edges - 1, -1, -1), reversed(first.tolist())):
        if cleared[e]:
            continue
        if row < 0:
            essential.append(e)
        elif row not in owner:
            owner[row] = e  # apparent: the pivot is free before any addition
        else:
            col = kernel.reduce(coboundary(e), owner_of, kernel.p)
            if col:
                owner[kernel.low(col)] = e
                reduced[e] = col
            else:
                essential.append(e)
    return {n_tri - 1 - row: e for row, e in owner.items()}, essential


def _forest_cycles(
    edge_faces: np.ndarray, cleared: list[bool], essential: list[int], n_points: int, p: int
) -> dict[int, Chain]:
    """Each essential edge (j, i) -> its cycle: the edge at 1 plus the path
    from j to i in the forest of the cleared edges, each edge walked from its
    lower end to its higher end at 1 and the other way at p - 1.  Edge e's
    vertices are ``edge_faces[e]``, higher first, as the builder stores them.
    Only the vertices of forest edges are visited: an essential edge closes
    a cycle, so both its ends are among them."""
    if not essential:
        return {}
    forest = np.flatnonzero(cleared)
    neighbours: dict[int, list[tuple[int, int]]] = {}
    for e, (j, i) in zip(forest.tolist(), edge_faces[forest].tolist()):
        neighbours.setdefault(i, []).append((j, e))
        neighbours.setdefault(j, []).append((i, e))
    # root each tree at its lowest vertex: parent, the edge to it, and depth
    parent, via, depth = [-1] * n_points, [-1] * n_points, [-1] * n_points
    for root in sorted(neighbours):
        if depth[root] < 0:
            depth[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for w, e in neighbours[u]:
                    if depth[w] < 0:
                        parent[w], via[w], depth[w] = u, e, depth[u] + 1
                        stack.append(w)

    cycles = {}
    oldest_first = essential[::-1]
    for e, (a, b) in zip(oldest_first, edge_faces[oldest_first].tolist()):
        cycle = {e: 1}  # walk up from both ends until they meet
        while a != b:
            if depth[a] >= depth[b]:
                cycle[via[a]] = 1 if a < parent[a] else p - 1
                a = parent[a]
            else:
                cycle[via[b]] = 1 if parent[b] < b else p - 1
                b = parent[b]
        cycles[e] = cycle
    return cycles


class Pairing(NamedTuple):
    """Passes 1 and 2 of the module notes, in ranks; no representative."""

    pairs: dict[int, int]  # death triangle -> the edge whose class it kills
    essential: list[int]  # edges whose class never dies, youngest first
    cleared: list[bool]  # per edge: it joins two components, an H_0 death
    finite: list[int]  # death triangles, ascending, entering after their edge


def pair_h1(cplx: FilteredComplex, p: int) -> Pairing:
    """The H_1 pairing of a filtered complex over F_p: ``distance.joins``
    marks the H_0 deaths, and ``_pair_by_cohomology`` pairs the other edges.
    Every edge is cleared, paired or essential.  ``finite`` lists the pairs
    of positive length, the ones a barcode keeps."""
    check_prime(p)
    edge_faces, tri_faces = cplx.faces
    cleared = joins(edge_faces.tolist(), cplx.n_points)[0]
    pairs, essential = _pair_by_cohomology(tri_faces, cleared, _kernel(p))
    tri = np.fromiter(pairs, dtype=np.int64, count=len(pairs))
    edge = np.fromiter(pairs.values(), dtype=np.int64, count=len(pairs))
    edge_value, tri_value = cplx.values
    finite = np.sort(tri[edge_value[edge] < tri_value[tri]]).tolist()
    return Pairing(pairs, essential, cleared, finite)


def _reduce(cplx: FilteredComplex, p: int) -> _Reduction:
    """Pairs by cohomology, representatives by homology and by the forest;
    see the module notes."""
    pairs, essential, cleared, finite = pair_h1(cplx, p)
    # reduce the death columns of the bars a report prints, and the ones they read
    deaths = _death_columns(cplx.faces[1], pairs, finite, _kernel(p))
    cycles = _forest_cycles(cplx.faces[0], cleared, essential, cplx.n_points, p)
    return _Reduction(pairs, deaths, cycles)


def reduce_with_basis(cplx: FilteredComplex, p: int) -> _Reduction:
    """The pairs, every death column and the essential cycles, as ``Chain``s
    that read as in a left-to-right reduction of each dimension.  Kept for
    the tests and for the name the benchmark's tracer patches."""
    kernel = _kernel(p)
    core = _reduce(cplx, p)
    deaths = _death_columns(cplx.faces[1], core.pairs, sorted(core.pairs), kernel)
    return _Reduction(core.pairs, {t: kernel.chain(c) for t, c in deaths.items()}, core.cycles)


def barcode_h1(cplx: FilteredComplex, p: int) -> Barcode:
    """H_1 barcode of a filtered complex, with a representative per bar,
    keyed by edge rank.

    Zero-length pairs (birth == death) are discarded, and their death
    columns are never reduced unless a printed bar's column reads them.
    """
    core = _reduce(cplx, p)
    chain = _kernel(p).chain
    # read only the kept bars' values, as Python ints
    edge_value, tri_value = cplx.values
    deaths = tri_value[list(core.deaths)].tolist()
    births = edge_value[[core.pairs[t] for t in core.deaths] + list(core.cycles)].tolist()
    bars = [Bar(b, d, chain(col)) for b, d, col in zip(births, deaths, core.deaths.values())]
    bars += [Bar(b, None, c) for b, c in zip(births[len(deaths) :], core.cycles.values())]

    # a kept bar dies after its birth, so a death value is never 0
    big = cplx.cap + 1
    bars.sort(key=lambda b: (b.birth_value, b.death_value or big, max(b.representative)))
    return Barcode(bars)


def nonzero_sweep(
    cplx: FilteredComplex,
    chains: list[Chain],
    thresholds: Sequence[int] | np.ndarray,
    p: int,
) -> list[list[bool]]:
    """Whether each 1-chain is homologically nonzero at each threshold.

    Entry [k][i] is True iff chain k is outside the span of the boundaries of
    the triangles with value <= thresholds[i].  Chain k is tested from the
    first threshold at or above the value of its youngest edge with a nonzero
    coefficient, where every edge of it is present, and reads False before.
    Its residue against one echelon of triangle boundaries, grown in rank
    order, is carried from one threshold to the next: a residue reduced
    against a smaller span stays valid as the span grows.
    """
    check_prime(p)
    thresholds = np.asarray(thresholds)
    if (np.diff(thresholds) < 0).any():
        raise ValueError("thresholds must be ascending")
    if not chains:
        return []
    (_, tri_faces), (edge_value, tri_value) = cplx.faces, cplx.values
    kernel = _kernel(p)
    # triangles are in value order: those below thresholds[i] are a prefix
    stops = np.searchsorted(tri_value, thresholds, "right").tolist()
    residues = []
    for chain in chains:
        residue = {}
        for rank, coeff in chain.items():
            if not 0 <= (rank := as_integer(rank, "chain entry")) < len(edge_value):
                raise InputError(f"chain entry {rank} is not an edge rank")
            if coeff := as_integer(coeff, "chain coefficient") % p:
                residue[rank] = coeff
        residues.append(kernel.column(list(residue), list(residue.values())))
    # values ascend with rank, so a chain's youngest edge enters last
    entry = [edge_value[kernel.low(r)] if r else 0 for r in residues]
    starts = np.searchsorted(thresholds, entry).tolist()

    # faces are read one triangle at a time: the sweep may stop long before the last
    echelon: dict[int, Any] = {}  # pivot row -> its column, as kernel.owner keeps it
    nonzero = [[False] * len(stops) for _ in chains]
    done = 0
    for i, stop in enumerate(stops):
        for t in range(done, stop):
            col = kernel.reduce(kernel.column(tri_faces[t].tolist(), kernel.signs), echelon.get, p)
            if col:
                low = kernel.low(col)
                echelon[low] = kernel.owner(col, low, p)
        done = stop
        for k, residue in enumerate(residues):
            if i >= starts[k]:
                residues[k] = residue = kernel.reduce(residue, echelon.get, p)
                nonzero[k][i] = bool(residue)
    return nonzero
