"""Property tests: the clique builder against the all-triples reference, and
barcode alive-counts against dense Betti numbers over several primes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snvrips import barcode_h1, build_rips
from snvrips.oracle import betti1_bruteforce

from helpers import all_triples_rips


@st.composite
def symmetric_matrices(draw, max_n: int = 12, max_value: int = 6):
    """Symmetric matrices with zero diagonal and off-diagonal entries >= 1."""
    n = draw(st.integers(0, max_n))
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(st.integers(1, max_value), min_size=pairs, max_size=pairs))
    d = np.zeros((n, n), dtype=np.int64)
    d[np.triu_indices(n, k=1)] = upper
    return d + d.T


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices(), st.integers(0, 7))
def test_clique_builder_matches_all_triples_reference(d, cap):
    diameter = int(d.max()) if d.shape[0] >= 2 else 0
    below_all = int(d[d > 0].min()) - 1 if diameter else 0
    for c in (cap, 0, below_all, diameter):
        built, reference = build_rips(d, c), all_triples_rips(d, c)
        assert built.simplices == reference.simplices
        assert built.index == reference.index
        assert built.diameter == reference.diameter


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_n=9, max_value=4), st.sampled_from([2, 3, 5, 7]))
def test_alive_counts_match_dense_betti(d, p):
    diameter = int(d.max()) if d.shape[0] >= 2 else 0
    barcode = barcode_h1(build_rips(d, diameter), p)
    for v in range(diameter + 1):
        assert barcode.count_alive(v) == betti1_bruteforce(d, v, p)
