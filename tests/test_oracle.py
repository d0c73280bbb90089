import numpy as np
import pytest

from snvrips import (
    InputError,
    RandomInstanceSpec,
    betti1_bruteforce,
    random_instance,
    snv_counts_oracle,
)
from snvrips.oracle import rank_mod_p

from helpers import apex_square, square_labels, square_space, unit_triangle


def test_rank_mod_p_known_values():
    assert rank_mod_p(np.eye(4, dtype=int), 2) == 4
    assert rank_mod_p(np.zeros((3, 5), dtype=int), 3) == 0
    assert rank_mod_p(np.zeros((0, 4), dtype=int), 2) == 0
    assert rank_mod_p(np.array([[2]]), 2) == 0  # 2 is 0 mod 2
    assert rank_mod_p(np.array([[2]]), 3) == 1
    assert rank_mod_p(np.array([[1, 1], [1, 1]]), 5) == 1
    # [[1, 1], [1, -1]] is singular mod 2 but regular mod 3
    assert rank_mod_p(np.array([[1, 1], [1, -1]]), 2) == 1
    assert rank_mod_p(np.array([[1, 1], [1, -1]]), 3) == 2


def test_rank_mod_p_matches_rational_rank():
    # entries in {0, 1} on <= 6x6: every nonzero minor is < 251 in absolute
    # value, so the rank over F_251 equals the rank over the rationals
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        mat = rng.integers(0, 2, size=(rows, cols))
        assert rank_mod_p(mat, 251) == np.linalg.matrix_rank(mat)


def test_rank_mod_p_exact_at_the_largest_allowed_prime():
    # rank <= 2 products of small matrices: the rational rank, which any prime
    # this large must reproduce unless an int64 product wraps
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    rng = np.random.default_rng(5)
    for _ in range(50):
        mat = rng.integers(-3, 4, size=(4, 2)) @ rng.integers(-3, 4, size=(2, 4))
        assert rank_mod_p(mat, p) == np.linalg.matrix_rank(mat)


def test_rank_mod_p_rejects_int64_overflowing_prime():
    with pytest.raises(ValueError, match="overflows int64"):
        rank_mod_p(np.eye(2, dtype=int), 4294967311)


def test_rank_transpose_invariance():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(20):
            mat = rng.integers(0, p, size=(5, 7))
            assert rank_mod_p(mat, p) == rank_mod_p(mat.T, p)
            assert rank_mod_p(np.hstack([mat, mat]), p) == rank_mod_p(mat, p)


def test_betti1_square_and_triangle():
    square = square_space().dist
    assert betti1_bruteforce(square, 0, 2) == 0  # no edges yet
    assert betti1_bruteforce(square, 1, 2) == 1  # the 4-cycle
    assert betti1_bruteforce(square, 2, 2) == 0  # diagonals fill it
    assert betti1_bruteforce(unit_triangle().dist, 1, 2) == 0
    for p in (2, 3, 5):
        assert betti1_bruteforce(square, 1, p) == 1


def test_betti1_pentagon():
    n = 5
    d = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i in range(n):
        j = (i + 1) % n
        d[i, j] = d[j, i] = 1
    assert betti1_bruteforce(d, 1, 2) == 1
    assert betti1_bruteforce(d, 2, 2) == 0


def test_betti1_theta_graph():
    # two hubs joined by three length-2 paths: beta_1 = 2
    d = np.full((5, 5), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for mid in (2, 3, 4):
        d[0, mid] = d[mid, 0] = 1
        d[1, mid] = d[mid, 1] = 1
    assert betti1_bruteforce(d, 1, 2) == 2
    assert betti1_bruteforce(d, 1, 3) == 2


def test_betti1_additive_over_components():
    square = square_space().dist
    two = np.full((8, 8), 3, dtype=np.int64)
    two[:4, :4] = square
    two[4:, 4:] = square
    assert betti1_bruteforce(two, 1, 2) == 2


def test_snv_counts_oracle():
    space, labels = apex_square()
    assert snv_counts_oracle(space, labels, 2) == [1, 0]
    assert snv_counts_oracle(space, labels, 3) == [1, 0]
    assert snv_counts_oracle(square_space(), square_labels(), 2) == [1]


def test_random_instance_is_deterministic():
    spec = RandomInstanceSpec(seed=42, n=8, m=3, d_max=4)
    space1, labels1 = random_instance(spec)
    space2, labels2 = random_instance(spec)
    assert np.array_equal(space1.dist, space2.dist)
    assert labels1.by_id == labels2.by_id
    assert space1.point_ids == tuple(f"p{i}" for i in range(8))


def test_random_instance_bounds():
    space, labels = random_instance(RandomInstanceSpec(seed=3, n=10, m=4, d_max=3))
    off = space.dist[~np.eye(10, dtype=bool)]
    assert off.min() >= 1 and off.max() <= 3
    assert all(0 <= v <= 4 for v in labels.by_id.values())
    assert labels.m == 4


def test_random_instance_rejects_bad_spec():
    with pytest.raises(InputError, match="n="):
        random_instance(RandomInstanceSpec(seed=0, n=0, m=2, d_max=2))
    with pytest.raises(InputError, match="d_max"):
        random_instance(RandomInstanceSpec(seed=0, n=3, m=2, d_max=0))
    with pytest.raises(InputError, match="d_max"):
        random_instance(RandomInstanceSpec(seed=0, n=3, m=2, d_max=2**63))
    with pytest.raises(InputError, match="m must"):
        random_instance(RandomInstanceSpec(seed=0, n=3, m=-1, d_max=2))
    with pytest.raises(InputError, match="m must"):
        random_instance(RandomInstanceSpec(seed=0, n=3, m=2**63, d_max=2))
    with pytest.raises(InputError, match="seed"):
        random_instance(RandomInstanceSpec(seed=-1, n=3, m=2, d_max=2))
