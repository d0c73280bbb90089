"""Persistent homology in dimension 1 over F_p with representative cycles.

Left-to-right column reduction of the simplicial boundary matrix, processed
by decreasing dimension so the clearing shortcut always applies: once a
triangle column pairs with an edge row, that edge's own column is known to
reduce to zero and is skipped.  Basis columns (V in R = D*V) are tracked for
edge columns so that every bar comes with an explicit 1-cycle:

* a (edge, triangle) pair contributes the triangle's reduced column, a cycle
  whose youngest edge is the birth edge;
* an unpaired cycle-creating edge contributes its tracked V column.

Homology (not cohomology) reduction is used precisely because the
representatives are needed downstream.

One driver serves every prime.  Rows are face ranks within their own
dimension (edge rows of a triangle column are edge ranks, not global
positions), and ``p`` picks only the column kernel, which owns the inner
loop: over F_2 a column is a Python int bitset (low = ``bit_length() - 1``,
addition and V-tracking by XOR), over other primes a dict keyed by rank.

``nonzero_sweep`` checks that reduction's deaths from outside: it keeps its
own echelon of triangle boundaries, grown once over ascending thresholds, and
reports whether each given 1-chain lies outside that span at each threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .rips import FilteredComplex, boundary_column, boundary_matrix

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


# A kernel reduces one column against ``pivots`` (low rank -> (column, V))
# and returns (column, V); V is tracked when the column's own rank r is given.
def _f2_reduce(column: Chain, rank: list[int], r: int | None, pivots: dict, p: int):
    col = 0
    for face in column:
        col |= 1 << rank[face]
    v = 0 if r is None else 1 << r
    while col:
        low = col.bit_length() - 1
        owner = pivots.get(low)
        if owner is None:
            pivots[low] = (col, v)
            break
        col ^= owner[0]
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


def _fp_reduce(column: Chain, rank: list[int], r: int | None, pivots: dict, p: int):
    col = {rank[face]: c for face, c in column.items()}
    v = None if r is None else {r: 1}
    while col:
        low = max(col)
        owner = pivots.get(low)
        if owner is None:
            pivots[low] = (col, v)
            break
        c = col[low] * pow(owner[0][low], p - 2, p) % p
        _axpy(col, owner[0], c, p)
        if v is not None:
            _axpy(v, owner[1], c, p)
    return col, v


def _fp_chain(col: Chain, positions: list[int]) -> Chain:
    return {positions[k]: c for k, c in col.items()}


def reduce_with_basis(
    columns: list[Chain],
    dims: list[int],
    p: int,
) -> ReductionResult:
    """Reduce boundary columns (given in a face-respecting order) over F_p.

    Columns are processed by decreasing dimension; within a dimension in
    filtration order.  Column j is repeatedly reduced against the earlier
    column owning its lowest row until the row is free or the column is zero.
    Edge columns already paired as lows of reduced triangle columns are always
    skipped (clearing), and their cycle_basis entry is taken from the paired
    triangle's reduced column: a cycle whose youngest edge is that edge.
    Rows are face ranks within their own dimension; ``p`` picks the column
    kernel, F_2 bitsets or F_p dicts.
    """
    if len(dims) != len(columns):
        raise ValueError("columns and dims must have equal length")
    reduce_column, to_chain = (_f2_reduce, _f2_chain) if p == 2 else (_fp_reduce, _fp_chain)
    # by_dim[d][r] is the global position of the rank-r simplex of dimension d
    by_dim: tuple[list[int], ...] = ([], [], [])
    rank = []
    for j, d in enumerate(dims):
        rank.append(len(by_dim[d]))
        by_dim[d].append(j)

    reduced: list[Chain] = [{} for _ in columns]
    pairing: dict[int, int] = {}
    cycle_basis: dict[int, Chain] = {}
    cleared: set[int] = set()  # edge ranks paired with a triangle
    for d in (2, 1):
        own, faces = by_dim[d], by_dim[d - 1]
        pivots: dict = {}  # low rank -> (column, V column)
        for r, j in enumerate(own):
            if d == 1 and r in cleared:
                continue
            col, v = reduce_column(columns[j], rank, r if d == 1 else None, pivots, p)
            if col:
                reduced[j] = to_chain(col, faces)
                if d == 2:
                    pairing[j] = max(reduced[j])
                    cleared.add(rank[pairing[j]])
            elif d == 1:
                cycle_basis[j] = to_chain(v, own)

    for tri, edge in pairing.items():
        cycle_basis[edge] = dict(reduced[tri])
    return ReductionResult(pairing, cycle_basis, reduced)


def barcode_h1(cplx: FilteredComplex, p: int) -> Barcode:
    """H_1 barcode of a filtered complex, with a representative per bar.

    Zero-length pairs (birth == death) are discarded.
    """
    dims = [s.dim for s in cplx.simplices]
    result = reduce_with_basis(boundary_matrix(cplx, p), dims, p)
    value = [s.value for s in cplx.simplices]

    bars = []
    paired_edges = set()
    for tri, edge in result.pairing.items():
        paired_edges.add(edge)
        if value[edge] < value[tri]:
            bars.append(Bar(value[edge], value[tri], dict(result.reduced[tri])))
    for edge, chain in result.cycle_basis.items():
        if edge not in paired_edges:
            bars.append(Bar(value[edge], None, dict(chain)))

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
    thresholds: list[int],
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
