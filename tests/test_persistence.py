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
from snvrips.rips import Edges, boundary_matrix, build_rips

from helpers import (
    chain_boundary,
    count_alive,
    matrix_rips,
    position,
    square_space,
    standard_reduction,
    suite_instance,
    unit_triangle,
)


def nonzero_at(chain: Chain, cplx, v: int, p: int) -> bool:
    return nonzero_sweep(cplx, [chain], [v], p, [0])[0][0]


def bar_multiset(barcode):
    return sorted((b.birth_value, b.death_value or -1) for b in barcode.bars)


def test_single_edge_is_unpaired_and_creates_nothing():
    cplx = matrix_rips(np.array([[0, 2], [2, 0]]), cap=2)
    result = reduce_with_basis(cplx, 2)
    assert result.pairing == {}
    assert result.cycle_basis == {}
    assert barcode_h1(cplx, 2).bars == []


def test_triangle_reduction_by_hand():
    # positions: 0-2 vertices, 3-5 edges, 6 triangle; all simplices at value 1
    cplx = matrix_rips(unit_triangle().dist, cap=1)
    result = reduce_with_basis(cplx, 2)
    assert result.pairing == {6: 5}  # the triangle kills the cycle its last edge made
    assert set(result.cycle_basis) == {5}
    assert result.cycle_basis[5] == {3: 1, 4: 1, 5: 1}
    # equal birth and death: the bar is dropped
    assert barcode_h1(cplx, 2).bars == []


def test_square_barcode():
    cplx = matrix_rips(square_space().dist, cap=2)
    barcode = barcode_h1(cplx, 2)
    assert len(barcode.bars) == 1
    bar = barcode.bars[0]
    assert (bar.birth_value, bar.death_value) == (1, 2)
    edges = {cplx.simplices[pos].vertices for pos in bar.representative}
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
    edges = {cplx.simplices[pos].vertices for pos in bar.representative}
    assert edges == {(0, 1), (0, 3), (1, 2), (2, 3)}


def test_two_points_empty_barcode():
    cplx = matrix_rips(np.array([[0, 1], [1, 0]]), cap=1)
    assert barcode_h1(cplx, 2).bars == []


def test_fan_death_column_reads_a_chain_of_thousands_of_columns():
    # the n-gon 0..n-1 at value 1, fanned from vertex 0 by chords at value 2:
    # the one bar's death column adds every chord's column, one after another
    n = 3000
    assert n > sys.getrecursionlimit()
    value = {(i, i + 1): 1 for i in range(n - 1)} | {(0, n - 1): 1}
    value |= {(0, i): 2 for i in range(2, n - 1)}
    i, j = np.array(sorted(value)).T
    cplx = build_rips(Edges(n, i, j, np.array([value[e] for e in zip(i, j)])), 2)
    assert len(cplx.by_dim[2]) == n - 2
    (bar,) = barcode_h1(cplx, 2).bars
    assert (bar.birth_value, bar.death_value) == (1, 2)
    edges = {tuple(cplx.vertices[pos, :2].tolist()) for pos in bar.representative}
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
            # every cleared edge (paired with a triangle) has a cycle too
            assert set(result.pairing.values()) <= set(result.cycle_basis)
            for edge, chain in result.cycle_basis.items():
                assert max(chain) == edge  # positions follow filtration order
                assert chain_boundary(cplx, chain, p) == {}


def test_representatives_are_cycles_born_at_their_birth():
    for seed in range(12):
        space, labels, p = suite_instance(seed)
        cplx = matrix_rips(space.dist, cap=space.diameter())
        for bar in barcode_h1(cplx, p).bars:
            assert chain_boundary(cplx, bar.representative, p) == {}
            assert all(v % p for v in bar.representative.values())
            born = max(cplx.simplices[pos].value for pos in bar.representative)
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
            row = nonzero_sweep(cplx, [bar.representative], thresholds, p, [0])[0]
            assert row == [True, False]


def test_class_is_nonzero_on_square():
    cplx = matrix_rips(square_space().dist, cap=2)
    bar = barcode_h1(cplx, 2).bars[0]
    assert nonzero_at(bar.representative, cplx, 1, 2)
    assert not nonzero_at(bar.representative, cplx, 2, 2)
    assert not nonzero_at({}, cplx, 1, 2)
    # a coefficient that vanishes mod p is the zero chain
    pos = next(iter(bar.representative))
    assert not nonzero_at({pos: 2}, cplx, 1, 2)
    # one sweep carries the residue across thresholds; a chain reads False
    # before its start
    rep = bar.representative
    assert nonzero_sweep(cplx, [rep, rep], [1, 2], 2, [0, 1]) == [
        [True, False],
        [False, False],
    ]


def test_class_check_rejects_absent_edges():
    cplx = matrix_rips(square_space().dist, cap=2)
    diagonal = position(cplx, (0, 2))
    with pytest.raises(InputError, match="enters at value 2"):
        nonzero_at({diagonal: 1}, cplx, 1, 2)
    # the edge is present at every threshold where its chain is tested
    assert nonzero_sweep(cplx, [{diagonal: 1}], [1, 2], 2, [1]) == [[False, True]]
    vertex = position(cplx, (0,))
    with pytest.raises(InputError, match="not an edge"):
        nonzero_at({vertex: 1}, cplx, 1, 2)
    with pytest.raises(ValueError, match="ascending"):
        nonzero_sweep(cplx, [], [2, 1], 2, [])


def test_nonzero_sweep_needs_one_start_per_chain():
    cplx = matrix_rips(square_space().dist, cap=2)
    rep = barcode_h1(cplx, 2).bars[0].representative
    with pytest.raises(ValueError, match="2 chains but 1 starts"):
        nonzero_sweep(cplx, [rep, rep], [1], 2, [0])
    with pytest.raises(ValueError, match="0 chains but 1 starts"):
        nonzero_sweep(cplx, [], [1], 2, [0])


def test_mod_3_coefficients():
    cplx = matrix_rips(unit_triangle().dist, cap=1)
    result = reduce_with_basis(cplx, 3)
    assert result.pairing == {6: 5}
    chain = result.cycle_basis[5]
    assert chain_boundary(cplx, chain, 3) == {}
    assert set(chain.values()) <= {1, 2}


def test_signs_over_f3():
    # square sides (0,1), (0,3), (1,2), (2,3) at positions 4-7: over F_3 the
    # side (0,3) runs against the others, so it carries -1 = 2
    cycle = {4: 1, 5: 2, 6: 1, 7: 1}
    for cap in (1, 2):
        cplx = matrix_rips(square_space().dist, cap=cap)
        bars = barcode_h1(cplx, 3).bars
        assert [bar.representative for bar in bars] == [cycle]
    # at cap 2 the triangle (0,2,3) kills it, after one addition of (0,1,2)
    # scaled by 2
    cplx = matrix_rips(square_space().dist, cap=2)
    result = reduce_with_basis(cplx, 3)
    assert result.pairing == {10: 8, 11: 9, 12: 7}
    assert result.reduced[12] == cycle
    assert result.reduced[10] == {6: 1, 8: 2, 4: 1}  # (1,2) - (0,2) + (0,1)


def run_both(cplx, p):
    return reduce_with_basis(cplx, p), standard_reduction(boundary_matrix(cplx, p), p)


def test_empty_complex():
    for n in (0, 1):
        cplx = matrix_rips(np.zeros((n, n), dtype=np.int64), cap=0)
        for p in (2, 3):
            result = reduce_with_basis(cplx, p)
            assert (result.pairing, result.cycle_basis) == ({}, {})
            assert result.reduced == [{}] * n
            assert barcode_h1(cplx, p).bars == []


def test_edges_without_triangles_are_all_essential():
    # the 2x3 grid 0-1-2 over 3-4-5 at cap 1: two squares and no triangle
    grid = {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    d = np.full((6, 6), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in grid:
        d[i, j] = d[j, i] = 1
    cplx = matrix_rips(d, cap=1)
    closing = {position(cplx, (3, 4)), position(cplx, (4, 5))}
    for p in (2, 3):
        result, reduced = run_both(cplx, p)
        assert result.pairing == {}
        assert set(result.cycle_basis) == closing
        for edge, chain in result.cycle_basis.items():
            assert max(chain) == edge and chain_boundary(cplx, chain, p) == {}
        # the five spanning-tree edges keep their reduced columns
        assert result.reduced == reduced
        assert sum(1 for col in result.reduced if col) == 5
        bars = barcode_h1(cplx, p).bars
        assert [(b.birth_value, b.death_value) for b in bars] == [(1, None)] * 2


def test_coboundary_that_needs_an_addition():
    # edges (0,3), (2,3) enter at 1, (0,1), (1,2) at 2 and (0,2), (1,3) at 3
    # (positions 4-9); all four triangles at 3 (positions 10-13).  The class
    # born at (1,2) has (0,1,2) as its oldest coface, which the younger edge
    # (0,2) already took as an apparent pair; so its coboundary takes an
    # addition, and it pairs with (0,2,3) instead.
    d = np.array([[0, 2, 3, 1], [2, 0, 2, 3], [3, 2, 0, 1], [1, 3, 1, 0]])
    cplx = matrix_rips(d, cap=3)
    named = {pos: cplx.simplices[pos].vertices for pos in (7, 8, 10, 12)}
    assert named == {7: (1, 2), 8: (0, 2), 10: (0, 1, 2), 12: (0, 2, 3)}
    for p in (2, 3):
        result, reduced = run_both(cplx, p)
        assert result.pairing == {10: 8, 11: 9, 12: 7}
        assert result.reduced == reduced
        assert chain_boundary(cplx, result.reduced[12], p) == {}
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
