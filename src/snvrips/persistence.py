"""Persistent homology in dimension 1 over F_p with representative cycles.

One engine finds the H_1 pairs by cohomology and the representatives by
homology; both give the same pairs (de Silva, Morozov & Vejdemo-Johansson,
*Dualities in persistent (co)homology*, 2011).  It reads boundaries as face
ranks (a simplex's rank counts the simplices of its dimension before it) and
runs three passes:

1. A union-find over the edges, in filtration order, marks the H_0 deaths:
   the edges that join two components.  No H_1 class is born at them, so
   their coboundaries are cleared.
2. The other edge coboundaries are reduced in reverse filtration order, with
   triangle rows, so a column's pivot is its oldest triangle.  A pivot that
   no column owns yet is taken at once, an apparent pair (Bauer, *Ripser*,
   2021); most columns pair with no addition.  A pivot pairs an edge with
   the triangle that kills its class, and a column that reduces to zero is an
   essential class.
3. Homology gives the representatives.  Only the death triangles are
   reduced, in filtration order: a column that reduces to zero never becomes
   a pivot, so skipping the others leaves every reduced column as the full
   left-to-right reduction makes it.  A reduced death column is a cycle whose
   youngest edge is the birth edge.  The edges that pair with no triangle
   are reduced with basis tracking (V in R = D*V), and an essential edge's V
   column is its cycle.

Rows are face ranks, and the cohomology pass numbers its triangle rows
backwards, so every pass takes a column's highest row as its pivot.  ``p``
picks only the column kernel, which owns the inner loop: over F_2 a column
is a Python int bitset (pivot ``bit_length() - 1``, addition by XOR), over
other primes a dict keyed by rank.

``nonzero_sweep`` checks the deaths from outside: it keeps its own echelon
of triangle boundaries, grown once over ascending thresholds, and reports
whether each given 1-chain lies outside that span at each threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import InputError

# boundary_matrix is no longer read here; it stays importable under this
# module because perfbench/spans.py traces it by this name.
from .rips import FilteredComplex, boundary_column, boundary_matrix  # noqa: F401

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

    def count_alive(self, v: int) -> int:
        """Bars with birth <= v < death; the open end counts as alive."""
        return sum(
            b.birth_value <= v and (b.death_value is None or v < b.death_value)
            for b in self.bars
        )


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


def _f2_column(rows: list[int], vals: list[int], p: int) -> int:
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


def _f2_chain(bits: int, positions: list[int]) -> Chain:
    """The F_2 chain whose set bits are ranks into ``positions``, ascending."""
    chain = {}
    while bits:
        low = bits & -bits
        chain[positions[low.bit_length() - 1]] = 1
        bits ^= low
    return chain


def _fp_column(rows: list[int], vals: list[int], p: int) -> Chain:
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


def _fp_chain(col: Chain, positions: list[int]) -> Chain:
    return {positions[k]: c for k, c in col.items()}


class _Kernel(NamedTuple):
    """The column operations of one field.  ``reduce`` adds ``owner_of(low)``
    = (column, V) to the column until its highest row has no owner or it is
    zero, and returns (column, V); V is tracked when it is given."""

    column: Callable  # (rows, coefficients, p) -> column
    unit: Callable  # rank -> the column with a single 1 at that rank
    low: Callable  # nonzero column -> its highest row
    reduce: Callable  # (column, V or None, owner_of, p) -> (column, V)
    chain: Callable  # (column, positions) -> Chain


_F2 = _Kernel(
    _f2_column, lambda r: 1 << r, lambda col: col.bit_length() - 1, _f2_reduce, _f2_chain
)
_FP = _Kernel(_fp_column, lambda r: {r: 1}, max, _fp_reduce, _fp_chain)


def _kernel(p: int) -> _Kernel:
    return _F2 if p == 2 else _FP


@dataclass(frozen=True)
class _Columns:
    """Sparse columns, compressed: column k has rows ``rows[ptr[k]:ptr[k+1]]``
    with nonzero coefficients mod p ``vals`` in the same slots."""

    ptr: np.ndarray
    rows: np.ndarray
    vals: np.ndarray

    @classmethod
    def of_faces(cls, faces: np.ndarray, p: int) -> _Columns:
        """Boundaries from face ranks in boundary order: signs alternate."""
        count, width = faces.shape
        signs = [1 if k % 2 == 0 else p - 1 for k in range(width)]
        ptr = np.arange(0, count * width + 1, width)
        return cls(ptr, faces.ravel(), np.tile(signs, count))

    @classmethod
    def of_chains(cls, chains: list[Chain], rank: list[int], p: int) -> _Columns:
        """Columns from chains keyed by position, rows mapped through ``rank``."""
        ptr, rows, vals = [0], [], []
        for chain in chains:
            for pos, c in chain.items():
                if c % p:
                    rows.append(rank[pos])
                    vals.append(c % p)
            ptr.append(len(rows))
        return cls(*(np.array(a, dtype=np.int64) for a in (ptr, rows, vals)))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def column(self, k: int, kernel: _Kernel, p: int):
        """Column ``k`` in the kernel's form."""
        a, b = self.ptr[k : k + 2].tolist()
        return kernel.column(self.rows[a:b].tolist(), self.vals[a:b].tolist(), p)

    def take(self, ks: list[int], kernel: _Kernel, p: int) -> list:
        """Columns ``ks`` in the kernel's form, gathered in one numpy step."""
        ks = np.asarray(ks, dtype=np.int64)
        starts = self.ptr[ks]
        sizes = self.ptr[ks + 1] - starts
        ends = np.cumsum(sizes)
        slots = np.arange(ends[-1] if len(ks) else 0) + np.repeat(starts - ends + sizes, sizes)
        rows, vals = self.rows[slots].tolist(), self.vals[slots].tolist()
        bounds = zip([0] + ends.tolist(), ends.tolist())
        return [kernel.column(rows[a:b], vals[a:b], p) for a, b in bounds]


@dataclass
class _Reduction:
    """The engine's output in ranks, columns in the kernel's form."""

    pairs: dict[int, int]  # death triangle -> the edge whose class it kills
    deaths: dict[int, Any]  # death triangle -> reduced column, a cycle
    h0: dict[int, Any]  # H_0-death edge -> reduced column
    cycles: dict[int, Any]  # essential edge -> V column, a cycle


def _h0_deaths(edges: _Columns, n_vertices: int, p: int) -> list[bool]:
    """Whether each edge joins two components of the edges before it, by
    union-find: an edge column c*(u - w) is then independent of theirs."""
    ptr, rows, vals = (a.tolist() for a in (edges.ptr, edges.rows, edges.vals))
    root = list(range(n_vertices))
    deaths = []
    for e in range(len(edges)):
        a, b = ptr[e], ptr[e + 1]
        if a == b:
            deaths.append(False)
            continue
        if b - a != 2 or (vals[a] + vals[a + 1]) % p:
            raise ValueError(f"edge column {e} is not a multiple of an edge boundary")
        u, w = rows[a], rows[a + 1]
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        while root[w] != w:
            root[w] = root[root[w]]
            w = root[w]
        deaths.append(u != w)
        root[u] = w
    return deaths


def _pair_by_cohomology(
    triangles: _Columns, n_edges: int, cleared: list[bool], kernel: _Kernel, p: int
) -> tuple[dict[int, int], list[int]]:
    """Reduce the uncleared edge coboundaries, youngest edge first.

    Coboundary rows are triangle ranks numbered backwards, so a column's
    highest row is its oldest triangle.  Returns the pairs (triangle -> edge)
    and the edges whose coboundary reduces to zero, youngest first.
    """
    n_tri = len(triangles)
    # the transpose: edge e's coboundary rows are co_rows[co_ptr[e]:co_ptr[e+1]],
    # descending, because a stable sort keeps each edge's triangles ascending
    order = np.argsort(triangles.rows, kind="stable")
    co_rows = (n_tri - 1 - np.repeat(np.arange(n_tri), np.diff(triangles.ptr)))[order]
    co_vals = triangles.vals[order]
    del order
    sizes = np.bincount(triangles.rows, minlength=n_edges)
    co_ptr = np.concatenate(([0], np.cumsum(sizes)))
    first = np.full(n_edges, -1)  # each coboundary's highest row, -1 if empty
    first[sizes > 0] = co_rows[co_ptr[:-1][sizes > 0]]
    coboundaries = _Columns(co_ptr, co_rows, co_vals)

    owner: dict[int, int] = {}  # pivot row -> edge
    reduced: dict[int, Any] = {}  # edge -> column, when it took an addition

    def owner_of(row: int):
        e = owner.get(row)
        if e is None:
            return None
        col = reduced.get(e)
        return (coboundaries.column(e, kernel, p) if col is None else col), None

    essential = []
    for e, row in zip(range(n_edges - 1, -1, -1), reversed(first.tolist())):
        if cleared[e]:
            continue
        if row < 0:
            essential.append(e)
        elif row not in owner:
            owner[row] = e  # apparent: the pivot is free before any addition
        else:
            col, _ = kernel.reduce(coboundaries.column(e, kernel, p), None, owner_of, p)
            if col:
                owner[kernel.low(col)] = e
                reduced[e] = col
            else:
                essential.append(e)
    return {n_tri - 1 - row: e for row, e in owner.items()}, essential


def _reduce(n_vertices: int, edges: _Columns, triangles: _Columns, p: int) -> _Reduction:
    """Pairs by cohomology, representatives by homology; see the module notes."""
    kernel = _kernel(p)
    cleared = _h0_deaths(edges, n_vertices, p)
    pairs, essential = _pair_by_cohomology(triangles, len(edges), cleared, kernel, p)

    pivots: dict[int, tuple] = {}
    deaths = {}
    order = sorted(pairs)
    for t, col in zip(order, triangles.take(order, kernel, p)):
        col, _ = kernel.reduce(col, None, pivots.get, p)
        pivots[kernel.low(col)] = (col, None)
        deaths[t] = col

    pivots = {}
    h0_columns, cycles = {}, {}
    order = sorted(essential + [e for e, dead in enumerate(cleared) if dead])
    is_essential = set(essential)
    for e, col in zip(order, edges.take(order, kernel, p)):
        col, v = kernel.reduce(col, kernel.unit(e), pivots.get, p)
        if e in is_essential:
            cycles[e] = v
        else:
            pivots[kernel.low(col)] = (col, v)
            h0_columns[e] = col
    return _Reduction(pairs, deaths, h0_columns, cycles)


def reduce_with_basis(
    columns: list[Chain],
    dims: list[int],
    p: int,
) -> ReductionResult:
    """Reduce the boundary columns of a filtered complex over F_p.

    Columns come in a face-respecting filtration order and are keyed by
    position; ``dims`` gives each column's dimension, at most 2.  An edge
    column must be empty or a multiple of u - w.  Every column reduces as in
    the left-to-right algorithm: the engine pairs by cohomology and reduces
    only the death triangles and the edges that are not paired.  A paired
    edge's cycle_basis entry is its triangle's reduced column: a cycle whose
    youngest edge is that edge.
    """
    if len(dims) != len(columns):
        raise ValueError("columns and dims must have equal length")
    # by_dim[d][r] is the position of the rank-r column of dimension d
    by_dim: tuple[list[int], ...] = ([], [], [])
    rank = []
    for j, d in enumerate(dims):
        rank.append(len(by_dim[d]))
        by_dim[d].append(j)
    edges, triangles = (
        _Columns.of_chains([columns[j] for j in by_dim[d]], rank, p) for d in (1, 2)
    )
    core = _reduce(len(by_dim[0]), edges, triangles, p)

    chain = _kernel(p).chain
    vertex_pos, edge_pos, tri_pos = by_dim
    reduced: list[Chain] = [{} for _ in columns]
    for e, col in core.h0.items():
        reduced[edge_pos[e]] = chain(col, vertex_pos)
    for t, col in core.deaths.items():
        reduced[tri_pos[t]] = chain(col, edge_pos)
    pairing = {tri_pos[t]: edge_pos[e] for t, e in core.pairs.items()}
    cycle_basis = {edge_pos[e]: chain(v, edge_pos) for e, v in core.cycles.items()}
    for tri, edge in pairing.items():
        cycle_basis[edge] = dict(reduced[tri])
    return ReductionResult(pairing, cycle_basis, reduced)


def barcode_h1(cplx: FilteredComplex, p: int) -> Barcode:
    """H_1 barcode of a filtered complex, with a representative per bar.

    Zero-length pairs (birth == death) are discarded before their
    representatives are read.
    """
    core = _reduce(
        cplx.n_points,
        _Columns.of_faces(cplx.faces[0], p),
        _Columns.of_faces(cplx.faces[1], p),
        p,
    )
    chain = _kernel(p).chain
    simplices = cplx.simplices
    edge_pos, tri_pos = cplx.by_dim[1].tolist(), cplx.by_dim[2]

    bars = []
    for tri, edge in core.pairs.items():
        birth = simplices[edge_pos[edge]].value
        death = simplices[tri_pos[tri]].value
        if birth < death:
            bars.append(Bar(birth, death, chain(core.deaths[tri], edge_pos)))
    for edge, cycle in core.cycles.items():
        bars.append(Bar(simplices[edge_pos[edge]].value, None, chain(cycle, edge_pos)))

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
    thresholds: Sequence[int],
    p: int,
    starts: list[int],
) -> list[list[bool]]:
    """Whether each 1-chain is homologically nonzero at each threshold.

    Entry [k][i] is True iff chain k is outside the span of the boundaries of
    the triangles with value <= thresholds[i]; chain k is tested from
    thresholds[starts[k]] on, where every edge of it must be present, and
    reads False before.  One echelon of triangle boundaries grows in
    filtration order over the ascending thresholds, and each chain's residue
    is carried from one threshold to the next: a residue reduced against a
    smaller span stays valid as the span grows.
    """
    if any(a > b for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be ascending")
    residues: list[Chain] = []
    for chain, start in zip(chains, starts):
        residue = {}
        for pos, coeff in chain.items():
            s = cplx.simplices[pos]
            if s.dim != 1:
                raise InputError(f"chain entry at position {pos} is not an edge")
            if start < len(thresholds) and s.value > thresholds[start]:
                raise InputError(
                    f"edge {s.vertices} enters at value {s.value}, "
                    f"after scale {thresholds[start]}"
                )
            if coeff % p:
                residue[pos] = coeff % p
        residues.append(residue)

    echelon: dict[int, Chain] = {}  # pivot row -> normalized column
    nonzero = [[False] * len(thresholds) for _ in chains]
    pos = 0
    for i, v in enumerate(thresholds):
        while pos < len(cplx.simplices) and cplx.simplices[pos].value <= v:
            if cplx.simplices[pos].dim == 2:
                col = boundary_column(cplx, pos, p)
                low = _free_low(col, echelon, p)
                if low is not None:
                    inv = pow(col[low], p - 2, p)
                    echelon[low] = {r: val * inv % p for r, val in col.items()}
            pos += 1
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
