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
3. Homology gives the representatives.  ``_death_columns`` reduces a list
   of death triangles, the ones of the printed bars, and every column they
   read: zero-length pairs are never reduced.  Reducing a column left to
   right only ever adds the reduced columns of the earlier triangles that own
   its intermediate lows, and the cohomology pairs name each owner in advance
   (the triangle that kills that edge), so each listed column is reduced with
   an explicit stack of owners not yet reduced, and every reduced column is
   the one the full left-to-right reduction makes.  A reduced death column
   is a cycle whose youngest edge is the birth edge.  The edges that pair
   with no triangle are reduced with basis tracking (V in R = D*V), and an
   essential edge's V column is its cycle.

Rows are face ranks, and the cohomology pass numbers its triangle rows
backwards, so every pass takes a column's highest row as its pivot.  ``p``
picks only the column kernel, which owns the inner loop: over F_2 a column
is a Python int bitset (pivot ``bit_length() - 1``, addition by XOR), over
other primes a dict keyed by rank.

``nonzero_sweep`` checks the deaths from outside: over the same face ranks it
grows its own echelon of triangle boundaries once over ascending thresholds,
and reports whether each 1-chain lies outside that span at each threshold.

Every chain is keyed by edge rank, but for ``reduce_with_basis``: the engine's
output keyed by filtration position, a view kept for the tests and for the
name the benchmark's tracer patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .distance import check_prime, joins
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


@dataclass
class ReductionResult:
    """Output of the column reduction.

    ``pairing`` maps each dimension-2 column with nonzero reduction to the row
    index of its lowest entry (the paired edge).  ``cycle_basis`` maps each
    dimension-1 column whose reduction is zero to a 1-cycle created when that
    edge enters.  ``reduced`` holds every column's reduced form.
    """

    pairing: dict[int, int] = field(default_factory=dict)
    cycle_basis: dict[int, Chain] = field(default_factory=dict)
    reduced: list[Chain] = field(default_factory=list)


def _axpy(dst: Chain, src: Chain, c: int, p: int) -> None:
    # dst -= c * src (mod p)
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


def _f2_reduce(col: int, v: int | None, owner_of, p: int):
    while col:
        owner = owner_of(col.bit_length() - 1)
        if owner is None:
            break
        col ^= owner[0]
        if v is not None:
            v ^= owner[1]
    return col, v


def _f2_chain(bits: int) -> Chain:
    """The F_2 chain whose set bits are its ranks, ascending."""
    chain = {}
    while bits:
        low = bits & -bits
        chain[low.bit_length() - 1] = 1
        bits ^= low
    return chain


def _fp_column(rows: list[int], vals: list[int]) -> Chain:
    return dict(zip(rows, vals))


def _fp_reduce(col: Chain, v: Chain | None, owner_of, p: int):
    while col:
        low = max(col)
        owner = owner_of(low)
        if owner is None:
            break
        c = col[low] * pow(owner[0][low], p - 2, p) % p
        _axpy(col, owner[0], c, p)
        if v is not None:
            _axpy(v, owner[1], c, p)
    return col, v


class _Kernel(NamedTuple):
    """The column operations of F_p.  ``reduce`` adds ``owner_of(low)``
    = (column, V) to the column until its highest row has no owner or it is
    zero, and returns (column, V); V is tracked when it is given."""

    column: Callable  # (rows, coefficients) -> column
    low: Callable  # nonzero column -> its highest row
    reduce: Callable  # (column, V or None, owner_of, p) -> (column, V)
    chain: Callable  # column -> Chain, keyed by rank
    p: int = 2
    signs: tuple[int, ...] = (1, 1, 1)  # face k has sign (-1)^k; an edge takes two


_F2 = _Kernel(_f2_column, lambda col: col.bit_length() - 1, _f2_reduce, _f2_chain)
_FP = _Kernel(_fp_column, max, _fp_reduce, dict)


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
    pivots: dict[int, tuple] = {}  # killed edge -> (reduced column, None)
    for t in wanted:
        stack = [] if t in deaths else [(t, kernel.column(tri_faces[t].tolist(), signs))]
        while stack:
            s, col = stack.pop()
            col, _ = kernel.reduce(col, None, pivots.get, kernel.p)
            low = kernel.low(col)
            if low == pairs[s]:
                deaths[s] = col
                pivots[low] = (col, None)
            else:  # an earlier triangle owns this low: reduce it first
                u = killer[low]
                stack += [(s, col), (u, kernel.column(tri_faces[u].tolist(), signs))]
    return {t: deaths[t] for t in wanted}


@dataclass
class _Reduction:
    """The engine's output in ranks, columns in the kernel's form."""

    pairs: dict[int, int]  # death triangle -> the edge whose class it kills
    deaths: dict[int, Any]  # positive-length death triangle -> reduced column
    h0: dict[int, Any]  # H_0-death edge -> reduced column
    cycles: dict[int, Any]  # essential edge -> V column, a cycle


def _pair_by_cohomology(
    tri_faces: np.ndarray, n_edges: int, cleared: list[bool], kernel: _Kernel
) -> tuple[dict[int, int], list[int]]:
    """Reduce the uncleared edge coboundaries, youngest edge first.

    Coboundary rows are triangle ranks numbered backwards, so a column's
    highest row is its oldest triangle.  Returns the pairs (triangle -> edge)
    and the edges whose coboundary reduces to zero, youngest first.
    """
    n_tri = len(tri_faces)
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
        if e is None:
            return None
        col = reduced.get(e)
        return (coboundary(e) if col is None else col), None

    essential = []
    for e, row in zip(range(n_edges - 1, -1, -1), reversed(first.tolist())):
        if cleared[e]:
            continue
        if row < 0:
            essential.append(e)
        elif row not in owner:
            owner[row] = e  # apparent: the pivot is free before any addition
        else:
            col, _ = kernel.reduce(coboundary(e), None, owner_of, kernel.p)
            if col:
                owner[kernel.low(col)] = e
                reduced[e] = col
            else:
                essential.append(e)
    return {n_tri - 1 - row: e for row, e in owner.items()}, essential


def _reduce(cplx: FilteredComplex, p: int) -> _Reduction:
    """Pairs by cohomology, representatives by homology; see the module notes."""
    kernel = _kernel(p)
    edge_faces, tri_faces = cplx.faces
    cleared = joins(edge_faces.tolist(), cplx.n_points)[0]
    pairs, essential = _pair_by_cohomology(tri_faces, len(edge_faces), cleared, kernel)

    # reduce the death columns of the bars a report prints, and the ones they read
    tri = np.fromiter(pairs, dtype=np.int64, count=len(pairs))
    edge = np.fromiter(pairs.values(), dtype=np.int64, count=len(pairs))
    edge_value, tri_value = cplx.values
    printed = np.sort(tri[edge_value[edge] < tri_value[tri]]).tolist()
    deaths = _death_columns(tri_faces, pairs, printed, kernel)

    pivots = {}
    h0_columns, cycles = {}, {}
    order = sorted(essential + [e for e, dead in enumerate(cleared) if dead])
    is_essential = set(essential)
    for e, rows in zip(order, edge_faces[order].tolist()):
        unit = kernel.column([e], [1])
        col, v = kernel.reduce(kernel.column(rows, kernel.signs), unit, pivots.get, p)
        if e in is_essential:
            cycles[e] = v
        else:
            pivots[kernel.low(col)] = (col, v)
            h0_columns[e] = col
    return _Reduction(pairs, deaths, h0_columns, cycles)


def reduce_with_basis(cplx: FilteredComplex, p: int) -> ReductionResult:
    """The engine's output on a complex, keyed by filtration position.

    A view of ``_reduce`` kept for the tests and for the benchmark tracer,
    which patches this name; no solve calls it.  It maps the engine's ranks
    to positions through ``cplx.by_dim``.  Every column reads as in the
    left-to-right algorithm, although the engine pairs by cohomology and
    reduces only the death triangles and the edges that are not paired; here
    ``_death_columns`` reduces the column of every death triangle.  A paired
    edge's cycle_basis entry is its triangle's reduced column: a cycle whose
    youngest edge is that edge.
    """
    core = _reduce(cplx, p)
    deaths = _death_columns(cplx.faces[1], core.pairs, sorted(core.pairs), _kernel(p))
    chain = _kernel(p).chain
    edge_pos, tri_pos = (a.tolist() for a in cplx.by_dim[1:])

    def at(col) -> Chain:  # a 1-chain keyed by edge position
        return {edge_pos[r]: c for r, c in chain(col).items()}

    reduced: list[Chain] = [{} for _ in range(len(cplx))]
    for e, col in core.h0.items():
        reduced[edge_pos[e]] = chain(col)  # a vertex's position is its rank
    for t, col in deaths.items():
        reduced[tri_pos[t]] = at(col)
    pairing = {tri_pos[t]: edge_pos[e] for t, e in core.pairs.items()}
    cycle_basis = {edge_pos[e]: at(v) for e, v in core.cycles.items()}
    for tri, edge in pairing.items():
        cycle_basis[edge] = dict(reduced[tri])
    return ReductionResult(pairing, cycle_basis, reduced)


def barcode_h1(cplx: FilteredComplex, p: int) -> Barcode:
    """H_1 barcode of a filtered complex, with a representative per bar,
    keyed by edge rank.

    Zero-length pairs (birth == death) are discarded, and their death
    columns are never reduced unless a printed bar's column reads them.
    """
    check_prime(p)
    core = _reduce(cplx, p)
    chain = _kernel(p).chain
    edge_value, tri_value = (a.tolist() for a in cplx.values)

    bars = [
        Bar(edge_value[core.pairs[tri]], tri_value[tri], chain(col))
        for tri, col in core.deaths.items()
    ]
    for edge, cycle in core.cycles.items():
        bars.append(Bar(edge_value[edge], None, chain(cycle)))

    big = cplx.cap + 1
    bars.sort(
        key=lambda b: (
            b.birth_value,
            big if b.death_value is None else b.death_value,
            max(b.representative),
        )
    )
    return Barcode(bars)


def nonzero_sweep(
    cplx: FilteredComplex,
    chains: list[Chain],
    thresholds: Sequence[int] | np.ndarray,
    p: int,
    starts: list[int],
) -> list[list[bool]]:
    """Whether each 1-chain is homologically nonzero at each threshold.

    Entry [k][i] is True iff chain k is outside the span of the boundaries of
    the triangles with value <= thresholds[i]; chain k is tested from
    thresholds[starts[k]] on, where every edge of it must be present, and
    reads False before.  Chains are keyed by edge rank and reduced against
    one echelon of triangle boundaries, grown in rank order; each residue is
    carried from one threshold to the next, since a residue reduced against
    a smaller span stays valid as the span grows.
    """
    check_prime(p)
    thresholds = np.asarray(thresholds)
    if (np.diff(thresholds) < 0).any():
        raise ValueError("thresholds must be ascending")
    if len(starts) != len(chains):
        raise ValueError(f"{len(chains)} chains but {len(starts)} starts")
    if not chains:
        return []
    thresholds = thresholds.tolist()
    (edge_faces, tri_faces), (edge_value, tri_value) = cplx.faces, cplx.values
    residues: list[Chain] = []
    for chain, start in zip(chains, starts):
        residue = {}
        for rank, coeff in chain.items():
            if not 0 <= rank < len(edge_value):
                raise InputError(f"chain entry {rank} is not an edge rank")
            value = int(edge_value[rank])
            if start < len(thresholds) and value > thresholds[start]:
                edge = tuple(edge_faces[rank, ::-1].tolist())
                raise InputError(
                    f"edge {edge} enters at value {value}, "
                    f"after scale {thresholds[start]}"
                )
            if coeff % p:
                residue[rank] = coeff % p
        residues.append(residue)

    # faces are read one triangle at a time: the sweep may stop long before the last
    tri_value = tri_value.tolist()
    echelon: dict[int, Chain] = {}  # pivot row -> normalized column
    nonzero = [[False] * len(thresholds) for _ in chains]
    t = 0
    for i, v in enumerate(thresholds):
        while t < len(tri_value) and tri_value[t] <= v:
            col = dict(zip(tri_faces[t].tolist(), (1, p - 1, 1)))
            low = _free_low(col, echelon, p)
            if low is not None:
                inv = pow(col[low], p - 2, p)
                echelon[low] = {r: val * inv % p for r, val in col.items()}
            t += 1
        for k, residue in enumerate(residues):
            if i >= starts[k]:
                nonzero[k][i] = _free_low(residue, echelon, p) is not None
    return nonzero


def _free_low(col: Chain, echelon: dict[int, Chain], p: int) -> int | None:
    """Reduce ``col`` in place against the echelon; its lowest row owned by no
    pivot, or None once it is zero."""
    while col:
        low = max(col)
        owner = echelon.get(low)
        if owner is None:
            return low
        _axpy(col, owner, col[low], p)
    return None
