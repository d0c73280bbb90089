import numpy as np
import pytest

from snvrips import DistanceSpace, InputError
from snvrips.rips import Edges, Simplex, boundary_matrix, build_rips

from helpers import (
    apex_square,
    matrix_rips,
    position,
    restrict_to_step,
    square_labels,
    square_space,
    suite_instance,
    unit_triangle,
)


def test_unit_triangle_complex():
    cplx = matrix_rips(unit_triangle().dist, cap=1)
    assert [s.vertices for s in cplx.simplices] == [
        (0,), (1,), (2,),
        (0, 1), (0, 2), (1, 2),
        (0, 1, 2),
    ]
    assert [s.value for s in cplx.simplices] == [0, 0, 0, 1, 1, 1, 1]
    # the list is a view of the arrays: vertices padded with -1, values
    assert cplx.vertices.tolist() == [
        [0, -1, -1], [1, -1, -1], [2, -1, -1],
        [0, 1, -1], [0, 2, -1], [1, 2, -1],
        [0, 1, 2],
    ]
    assert cplx.values.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert position(cplx, (0, 2)) == 4


def test_two_points_cap_zero():
    d = np.array([[0, 3], [3, 0]])
    cplx = matrix_rips(d, cap=0)
    assert [s.vertices for s in cplx.simplices] == [(0,), (1,)]


def test_square_complex_values():
    cplx = matrix_rips(square_space().dist, cap=2)
    edge_values = {s.vertices: s.value for s in cplx.simplices if s.dim == 1}
    assert edge_values == {
        (0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1,
        (0, 2): 2, (1, 3): 2,
    }
    # every triangle needs a diagonal, so all enter at 2
    tri_values = {s.value for s in cplx.simplices if s.dim == 2}
    assert tri_values == {2}
    assert sum(s.dim == 2 for s in cplx.simplices) == 4


def test_cap_is_inclusive():
    cplx = matrix_rips(square_space().dist, cap=1)
    assert sum(s.dim == 1 for s in cplx.simplices) == 4  # the four sides
    assert sum(s.dim == 2 for s in cplx.simplices) == 0


def test_simplex_order_is_value_dim_lex():
    space, _ = apex_square()
    cplx = matrix_rips(space.dist, cap=2)
    keys = [(s.value, s.dim, s.vertices) for s in cplx.simplices]
    assert keys == sorted(keys)
    # a triangle never precedes its faces
    for pos, s in enumerate(cplx.simplices):
        if s.dim == 2:
            for drop in range(3):
                face = s.vertices[:drop] + s.vertices[drop + 1 :]
                assert position(cplx, face) < pos


def test_lower_cap_complex_is_prefix_of_higher():
    for seed in range(10):
        space, labels, _ = suite_instance(seed)
        full = matrix_rips(space.dist, cap=space.diameter())
        for cap in range(space.diameter()):
            part = matrix_rips(space.dist, cap=cap)
            assert part.simplices == full.simplices[: len(part)]


def test_build_rips_rejects_bad_input():
    d = unit_triangle().dist
    with pytest.raises(ValueError, match="cap"):
        matrix_rips(d, cap=-1)
    with pytest.raises(ValueError, match="square"):
        matrix_rips(np.zeros((2, 3)), cap=1)
    with pytest.raises(InputError, match="square"):
        DistanceSpace(("a", "b"), np.zeros((2, 3)))


def edge_list(n, i, j, value):
    return Edges(n, *(np.array(a, dtype=np.int64) for a in (i, j, value)))


def test_build_rips_rejects_edges_it_would_build_wrongly():
    # the triangle graph in row-major order has its triangle
    triangle = build_rips(edge_list(3, [0, 0, 1], [1, 2, 2], [1, 1, 1]), 1)
    assert len(triangle.by_dim[2]) == 1
    # the empty graph is row-major: n isolated vertices
    assert len(build_rips(edge_list(3, [], [], []), 0)) == 3
    bad = [
        (3, [1, 0, 0], [2, 1, 2], [1, 1, 1]),  # out of row-major order
        (3, [0, 0, 2], [1, 2, 1], [1, 1, 1]),  # i > j, keys still ascending
        (3, [0, 0, 1], [1, 1, 2], [1, 1, 1]),  # a repeated edge
        (3, [0, 1], [1, 1], [1, 1]),  # a loop
        (3, [-1, 0], [1, 1], [1, 1]),  # a vertex below 0
        (3, [0, 1], [1, 3], [1, 1]),  # a vertex beyond n - 1
        (4, [0, 0, 1, 2], [1, 3, 2, 3], [1, 1, 1, 5]),  # a value above the cap
        (3, [0], [1], [-1]),  # a negative value
    ]
    for args in bad:
        with pytest.raises(ValueError, match="row-major"):
            build_rips(edge_list(*args), 2)


def test_boundary_of_edge_and_triangle():
    # positions: 0-2 vertices, 3-5 edges (0,1), (0,2), (1,2), 6 the triangle;
    # face k drops vertex k and has sign (-1)^k, listed in that order
    cplx = matrix_rips(unit_triangle().dist, cap=1)
    for p in (2, 3):
        assert [list(col.items()) for col in boundary_matrix(cplx, p)] == [
            [], [], [],
            [(1, 1), (0, p - 1)],
            [(2, 1), (0, p - 1)],
            [(2, 1), (1, p - 1)],
            [(5, 1), (4, p - 1), (3, 1)],
        ]


def test_boundary_of_boundary_is_zero():
    for seed in range(8):
        space, labels, p = suite_instance(seed)
        cplx = matrix_rips(space.dist, cap=space.diameter())
        cols = boundary_matrix(cplx, p)
        for pos, s in enumerate(cplx.simplices):
            if s.dim != 2:
                continue
            acc: dict[int, int] = {}
            for face_pos, coeff in cols[pos].items():
                for vert_pos, face_coeff in cols[face_pos].items():
                    acc[vert_pos] = (acc.get(vert_pos, 0) + coeff * face_coeff) % p
            assert all(v == 0 for v in acc.values())


def test_restrict_to_step():
    space, labels = apex_square()
    sub0 = restrict_to_step(space, labels, 0)
    assert sub0.point_ids == ("a", "b", "c", "d")
    assert np.array_equal(sub0.dist, space.dist[:4, :4])
    sub1 = restrict_to_step(space, labels, 1)
    assert sub1.point_ids == space.point_ids
    with pytest.raises(InputError, match="outside"):
        restrict_to_step(space, labels, 2)
    with pytest.raises(InputError, match="outside"):
        restrict_to_step(space, labels, -1)


def test_restrict_can_be_empty():
    space = square_space()
    labels = square_labels()
    # shift every label to 1 under horizon 1: step 0 has no points
    from snvrips import TimeLabels

    late = TimeLabels(1, {pid: 1 for pid in space.point_ids})
    sub = restrict_to_step(space, late, 0)
    assert sub.point_ids == ()
    assert sub.n == 0


def test_simplex_dim_property():
    assert Simplex((3,), 0).dim == 0
    assert Simplex((1, 2), 4).dim == 1
    assert Simplex((0, 1, 2), 4).dim == 2
