import sys

import numpy as np
import pytest

from snvrips import (
    InputError,
    barcode_h1,
    betti1_bruteforce,
    deform,
    nonzero_sweep,
    time_offset_base,
)
from snvrips.oracle import RandomInstanceSpec, random_instance
from snvrips.persistence import Chain, _reduce, reduce_with_basis
from snvrips.rips import Edges, build_rips

from helpers import (
    chain_boundary,
    count_alive,
    edges_of,
    h0_edges,
    matrix_rips,
    rank,
    square_space,
    standard_view,
    suite_instance,
    unit_triangle,
)


def nonzero_at(chain: Chain, cplx, v: int, p: int) -> bool:
    return nonzero_sweep(cplx, [chain], [v], p)[0][0]


def bar_multiset(barcode):
    return sorted((b.birth_value, b.death_value or -1) for b in barcode.bars)


def test_single_edge_is_unpaired_and_creates_nothing():
    cplx = matrix_rips(np.array([[0, 2], [2, 0]]), cap=2)
    result = reduce_with_basis(cplx, 2)
    assert result.pairs == {} and result.deaths == {}
    assert result.cycles == {}
    assert barcode_h1(cplx, 2).bars == []


def test_triangle_reduction_by_hand():
    # edge ranks 0-2, triangle rank 0; all simplices at value 1
    cplx = matrix_rips(unit_triangle().dist, cap=1)
    result = reduce_with_basis(cplx, 2)
    assert result.pairs == {0: 2}  # the triangle kills the cycle its last edge made
    assert result.cycles == {}  # no edge is essential
    assert result.deaths == {0: {0: 1, 1: 1, 2: 1}}
    # equal birth and death: the bar is dropped
    assert barcode_h1(cplx, 2).bars == []


def test_square_barcode():
    cplx = matrix_rips(square_space().dist, cap=2)
    barcode = barcode_h1(cplx, 2)
    assert len(barcode.bars) == 1
    bar = barcode.bars[0]
    assert (bar.birth_value, bar.death_value) == (1, 2)
    edges = {edges_of(cplx)[r].vertices for r in bar.representative}
    assert edges == {(0, 1), (0, 3), (1, 2), (2, 3)}  # the four sides
    assert cplx.cap >= square_space().diameter()  # fully resolved: open bars are infinite
    assert count_alive(barcode, 1) == 1
    assert count_alive(barcode, 2) == 0


def test_square_capped_below_diameter():
    cplx = matrix_rips(square_space().dist, cap=1)
    barcode = barcode_h1(cplx, 2)
    assert len(barcode.bars) == 1
    bar = barcode.bars[0]
    assert bar.birth_value == 1 and bar.death_value is None
    assert cplx.cap < square_space().diameter()  # open at the cap, not genuinely infinite
    edges = {edges_of(cplx)[r].vertices for r in bar.representative}
    assert edges == {(0, 1), (0, 3), (1, 2), (2, 3)}


def test_two_points_empty_barcode():
    cplx = matrix_rips(np.array([[0, 1], [1, 0]]), cap=1)
    assert barcode_h1(cplx, 2).bars == []


def fan(n: int, cap: int):
    """The n-gon 0..n-1 at value 1, fanned from vertex 0 by chords at value 2,
    built at cap; and the value of every edge of the fan."""
    value = {(i, i + 1): 1 for i in range(n - 1)} | {(0, n - 1): 1}
    value |= {(0, i): 2 for i in range(2, n - 1)}
    i, j = np.array(sorted(e for e, v in value.items() if v <= cap)).T
    return build_rips(Edges(n, i, j, np.array([value[e] for e in zip(i, j)])), cap), value


def test_fan_death_column_reads_a_chain_of_thousands_of_columns():
    # the one bar's death column adds every chord's column, one after another
    n = 3000
    assert n > sys.getrecursionlimit()
    cplx, value = fan(n, 2)
    assert len(cplx.faces[1]) == n - 2
    (bar,) = barcode_h1(cplx, 2).bars
    assert (bar.birth_value, bar.death_value) == (1, 2)
    # edge (i, j) lists its vertices as j, i
    edges = {tuple(cplx.faces[0][r, ::-1].tolist()) for r in bar.representative}
    assert edges == {e for e, v in value.items() if v == 1}
    assert set(bar.representative.values()) == {1}


def test_zero_length_pairs_reduce_no_death_column():
    # one classical block at cap 1: every edge and triangle enters at 1
    space, _ = random_instance(RandomInstanceSpec(seed=0, n=30, m=0, d_max=2))
    cplx = matrix_rips(space.dist, cap=1)
    for p in (2, 3):
        core = _reduce(cplx, p)
        assert core.pairs and not core.deaths
        assert all(bar.death_value is None for bar in barcode_h1(cplx, p).bars)


def test_cycle_basis_chains_are_cycles_keyed_by_their_youngest_edge():
    for seed in range(12):
        space, labels, p = suite_instance(seed)
        for matrix, cap in (
            (space.dist, space.diameter()),
            (deform(space, labels), 2 * time_offset_base(labels.m) - 1),
        ):
            cplx = matrix_rips(matrix, cap=cap)
            result = reduce_with_basis(cplx, p)
            # every cleared edge (paired with a triangle) has a cycle too: the
            # triangle's reduced column
            assert result.deaths.keys() == result.pairs.keys()
            cycles = {result.pairs[t]: col for t, col in result.deaths.items()}
            for edge, chain in (cycles | result.cycles).items():
                assert max(chain) == edge  # ranks follow filtration order
                assert chain_boundary(cplx, chain, p) == {}


def test_representatives_are_cycles_born_at_their_birth():
    for seed in range(12):
        space, labels, p = suite_instance(seed)
        cplx = matrix_rips(space.dist, cap=space.diameter())
        edges = edges_of(cplx)
        for bar in barcode_h1(cplx, p).bars:
            assert chain_boundary(cplx, bar.representative, p) == {}
            assert all(v % p for v in bar.representative.values())
            born = max(edges[r].value for r in bar.representative)
            assert born == bar.birth_value


def test_alive_counts_match_dense_oracle():
    for seed in range(25):
        space, labels, p = suite_instance(seed)
        cplx = matrix_rips(space.dist, cap=space.diameter())
        barcode = barcode_h1(cplx, p)
        for v in range(space.diameter() + 1):
            assert count_alive(barcode, v) == betti1_bruteforce(space.dist, v, p)


def test_alive_counts_match_oracle_on_deformed_matrix():
    for seed in range(15):
        space, labels, p = suite_instance(seed)
        scaled = deform(space, labels)
        cap = 2 * time_offset_base(labels.m) - 1
        barcode = barcode_h1(matrix_rips(scaled, cap=cap), p)
        for v in range(cap + 1):
            assert count_alive(barcode, v) == betti1_bruteforce(scaled, v, p)


def test_finite_bars_die_exactly_at_death():
    for seed in range(12):
        space, labels, p = suite_instance(seed)
        cplx = matrix_rips(space.dist, cap=space.diameter())
        bars = [b for b in barcode_h1(cplx, p).bars if b.death_value is not None]
        for bar in bars:
            thresholds = [bar.death_value - 1, bar.death_value]
            row = nonzero_sweep(cplx, [bar.representative], thresholds, p)[0]
            assert row == [True, False]


def test_class_is_nonzero_on_square():
    cplx = matrix_rips(square_space().dist, cap=2)
    bar = barcode_h1(cplx, 2).bars[0]
    assert nonzero_at(bar.representative, cplx, 1, 2)
    assert not nonzero_at(bar.representative, cplx, 2, 2)
    assert not nonzero_at({}, cplx, 1, 2)
    # a coefficient that vanishes mod p is the zero chain
    edge = next(iter(bar.representative))
    assert not nonzero_at({edge: 2}, cplx, 1, 2)
    # one sweep carries the residue across thresholds; a chain reads False
    # before its edges enter at 1
    rep = bar.representative
    assert nonzero_sweep(cplx, [rep, rep], [0, 1, 2], 2) == [[False, True, False]] * 2


def test_class_check_rejects_absent_edges():
    cplx = matrix_rips(square_space().dist, cap=2)
    diagonal = rank(cplx, (0, 2))
    # a chain is tested from the threshold where its youngest edge enters
    assert not nonzero_at({diagonal: 1}, cplx, 1, 2)
    assert nonzero_sweep(cplx, [{diagonal: 1}], [1, 2], 2) == [[False, True]]
    for outside in (-1, len(cplx.faces[0])):
        with pytest.raises(InputError, match=f"chain entry {outside} is not an edge"):
            nonzero_at({outside: 1}, cplx, 1, 2)
    # a rank is checked like a coefficient: a float or a str is bad input
    for word in (1.5, "1"):
        with pytest.raises(InputError, match="chain entry must be an integer"):
            nonzero_at({word: 1}, cplx, 1, 2)
    with pytest.raises(ValueError, match="ascending"):
        nonzero_sweep(cplx, [], [2, 1], 2)


@pytest.mark.parametrize("p", [2, 3])
def test_numpy_ranks_sweep_as_their_ints(p):
    # 14 points give 91 edges, so ranks reach past one 64-bit word
    rng = np.random.default_rng(5)
    d = rng.integers(1, 5, (14, 14))
    d = np.triu(d, 1) + np.triu(d, 1).T
    cplx = matrix_rips(d, cap=4)
    chains = [bar.representative for bar in barcode_h1(cplx, p).bars]
    chains.append({r: r % 4 - 1 for r in range(60, 91, 3)})
    assert max(max(c) for c in chains) >= 64
    as_numpy = [{np.int64(r): np.int64(c) for r, c in chain.items()} for chain in chains]
    rows = nonzero_sweep(cplx, chains, range(5), p)
    assert nonzero_sweep(cplx, as_numpy, range(5), p) == rows


def test_mod_3_coefficients():
    cplx = matrix_rips(unit_triangle().dist, cap=1)
    result = reduce_with_basis(cplx, 3)
    assert result.pairs == {0: 2}
    chain = result.deaths[0]
    assert chain_boundary(cplx, chain, 3) == {}
    assert set(chain.values()) <= {1, 2}


def test_signs_over_f3():
    # square sides (0,1), (0,3), (1,2), (2,3) at edge ranks 0-3:
    # over F_3 the side (0,3) runs against the others, so it carries -1 = 2
    cycle = {0: 1, 1: 2, 2: 1, 3: 1}
    for cap in (1, 2):
        cplx = matrix_rips(square_space().dist, cap=cap)
        bars = barcode_h1(cplx, 3).bars
        assert [bar.representative for bar in bars] == [cycle]
    # at cap 2 the triangle (0,2,3) kills it, after one addition of (0,1,2)
    # scaled by 2
    cplx = matrix_rips(square_space().dist, cap=2)
    result = reduce_with_basis(cplx, 3)
    assert result.pairs == {0: 4, 1: 5, 2: 3}
    assert result.deaths[2] == {0: 1, 1: 2, 2: 1, 3: 1}
    assert result.deaths[0] == {2: 1, 4: 2, 0: 1}  # (1,2) - (0,2) + (0,1)


def run_both(cplx, p):
    return reduce_with_basis(cplx, p), standard_view(cplx, p)


def test_empty_complex():
    for n in (0, 1):
        cplx = matrix_rips(np.zeros((n, n), dtype=np.int64), cap=0)
        for p in (2, 3):
            result, view = run_both(cplx, p)
            assert (result.pairs, result.deaths, result.cycles) == ({},) * 3
            assert h0_edges(cplx, result) == set()
            assert view == ({}, {}, set(), {})
            assert barcode_h1(cplx, p).bars == []


def test_edges_without_triangles_are_all_essential():
    # the 2x3 grid 0-1-2 over 3-4-5 at cap 1: two squares and no triangle
    grid = {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    d = np.full((6, 6), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in grid:
        d[i, j] = d[j, i] = 1
    cplx = matrix_rips(d, cap=1)
    closing = {rank(cplx, (3, 4)), rank(cplx, (4, 5))}
    # in rank order the other five edges join components: the spanning tree
    # 0-1, 0-3, 1-2, 1-4, 2-5, so (3, 4) closes the left square and (4, 5)
    # the right one
    squares = {
        rank(cplx, (3, 4)): {(0, 1), (0, 3), (1, 4), (3, 4)},
        rank(cplx, (4, 5)): {(1, 2), (1, 4), (2, 5), (4, 5)},
    }
    edges = edges_of(cplx)
    for p in (2, 3):
        result, (pairs, deaths, h0, cycles) = run_both(cplx, p)
        assert result.pairs == pairs == {}
        assert result.deaths == deaths == {}
        # each cycle is its edge's V column, and the five tree edges are the
        # H_0 deaths of the standard reduction
        assert result.cycles == cycles
        assert set(cycles) == closing
        assert h0_edges(cplx, result) == h0 == set(range(7)) - closing
        for edge, chain in result.cycles.items():
            assert {edges[r].vertices for r in chain} == squares[edge]
            assert max(chain) == edge
            assert chain_boundary(cplx, chain, p) == {}
        bars = barcode_h1(cplx, p).bars
        assert [(b.birth_value, b.death_value) for b in bars] == [(1, None)] * 2


def test_coboundary_that_needs_an_addition():
    # edges (0,3), (2,3) enter at 1, (0,1), (1,2) at 2 and (0,2), (1,3) at 3
    # (edge ranks 0-5); all four triangles at 3 (triangle ranks 0-3).  The
    # class born at (1,2) has (0,1,2) as its oldest coface, which the younger
    # edge (0,2) already took as an apparent pair; so its coboundary takes an
    # addition, and it pairs with (0,2,3) instead.
    d = np.array([[0, 2, 3, 1], [2, 0, 2, 3], [3, 2, 0, 1], [1, 3, 1, 0]])
    cplx = matrix_rips(d, cap=3)
    triangles = [s.vertices for s in cplx.simplices if s.dim == 2]
    assert (rank(cplx, (1, 2)), rank(cplx, (0, 2))) == (3, 4)
    assert (triangles[0], triangles[2]) == ((0, 1, 2), (0, 2, 3))
    for p in (2, 3):
        result, (pairs, deaths, h0, cycles) = run_both(cplx, p)
        assert result.pairs == pairs == {0: 4, 1: 5, 2: 3}
        assert (result.deaths, result.cycles) == (deaths, cycles) == (deaths, {})
        # the edges that join the four vertices: (0,3), (2,3), (0,1)
        assert h0_edges(cplx, result) == h0 == {0, 1, 2}
        assert chain_boundary(cplx, result.deaths[2], p) == {}
        bars = barcode_h1(cplx, p).bars
        assert [(b.birth_value, b.death_value) for b in bars] == [(2, 3)]


def test_fields_agree_when_oracle_does():
    for seed in range(15):
        space, labels, _ = suite_instance(seed)
        d = space.dist
        cplx = matrix_rips(d, cap=space.diameter())
        oracle_same = all(
            betti1_bruteforce(d, v, 2) == betti1_bruteforce(d, v, 3)
            for v in range(space.diameter() + 1)
        )
        if oracle_same:
            assert bar_multiset(barcode_h1(cplx, 2)) == bar_multiset(barcode_h1(cplx, 3))


def test_barcode_is_deterministic():
    space, labels, p = suite_instance(4)
    cplx = matrix_rips(space.dist, cap=space.diameter())
    assert barcode_h1(cplx, p).bars == barcode_h1(cplx, p).bars


def test_polygon_cycle_walks_thousands_of_forest_edges():
    # the fan below its chords is the n-gon; in rank order its forest is the
    # path 1-2-...-(n-2) hung from 0 next to the edge (0, n-1), so the cycle
    # of the last edge (n-2, n-1) walks n-1 forest edges, most on one side
    n = 3000
    cplx, _ = fan(n, 1)
    assert len(cplx.faces[1]) == 0
    last = rank(cplx, (n - 2, n - 1))
    for p in (2, 3):
        result, (pairs, deaths, h0, cycles) = run_both(cplx, p)
        assert result.cycles == cycles
        assert list(cycles) == [last]
        assert len(cycles[last]) == n
        # over F_3 the edge (0, n-1) runs against the rest of the rim
        assert [r for r, c in cycles[last].items() if c != 1] == (
            [rank(cplx, (0, n - 1))] if p == 3 else []
        )
        assert h0_edges(cplx, result) == h0
        (bar,) = barcode_h1(cplx, p).bars
        assert (bar.birth_value, bar.death_value) == (1, None)
        assert bar.representative == cycles[last]


def test_forest_of_several_components_gives_each_its_own_cycle():
    # a square, a pentagon, a 2x3 grid (two squares), a path and a lone
    # vertex on shuffled vertices, so that their trees interleave in vertex
    # order; other pairs are 2 apart, and at cap 1 there is no triangle
    shapes = [
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
        [(0, 1), (1, 2)],
        [],
    ]
    sizes = [4, 5, 6, 3, 1]
    n = sum(sizes)
    label = np.random.default_rng(3).permutation(n).tolist()
    d = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    component = {}
    offset = 0
    for k, (size, shape) in enumerate(zip(sizes, shapes)):
        for v in range(size):
            component[label[offset + v]] = k
        for a, b in shape:
            d[label[offset + a], label[offset + b]] = d[label[offset + b], label[offset + a]] = 1
        offset += size
    cplx = matrix_rips(d, cap=1)
    edges = edges_of(cplx)
    assert len(cplx.faces[1]) == 0
    for p in (2, 3):
        result, (pairs, deaths, h0, cycles) = run_both(cplx, p)
        assert result.cycles == cycles
        assert h0_edges(cplx, result) == h0
        assert len(h0) == n - len(sizes)  # a spanning tree per component
        # one essential edge in the square and in the pentagon, two in the grid
        owners = sorted(component[edges[e].vertices[0]] for e in cycles)
        assert owners == [0, 1, 2, 2]
        for edge, chain in cycles.items():
            assert {component[v] for r in chain for v in edges[r].vertices} == {
                component[edges[edge].vertices[0]]
            }
            assert chain_boundary(cplx, chain, p) == {}
        assert len(barcode_h1(cplx, p).bars) == 4


def test_class_check_rejects_a_fractional_coefficient():
    cplx = matrix_rips(square_space().dist, cap=2)
    with pytest.raises(InputError, match="chain coefficient must be an integer, got 1.5"):
        nonzero_at({0: 1.5}, cplx, 1, 3)
    # an integer of numpy's passes
    assert not nonzero_at({0: np.int64(3)}, cplx, 1, 3)
