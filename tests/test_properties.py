"""Property tests: the clique builder against the all-triples reference,
barcode alive-counts against dense Betti numbers over several primes, and the
homology sweep against dense ranks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snvrips import barcode_h1, build_rips, nonzero_sweep
from snvrips.oracle import betti1_bruteforce, rank_mod_p

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


def dense_boundaries(cplx, triangles, edge_row, p) -> np.ndarray:
    """Dense d_2 columns of the given triangles, rows indexed by ``edge_row``."""
    mat = np.zeros((len(edge_row), len(triangles)), dtype=np.int64)
    for k, pos in enumerate(triangles):
        i, j, l = cplx.simplices[pos].vertices
        mat[edge_row[(j, l)], k] = 1
        mat[edge_row[(i, l)], k] = p - 1
        mat[edge_row[(i, j)], k] = 1
    return mat


@settings(max_examples=100, deadline=None)
@given(
    symmetric_matrices(max_n=8, max_value=4),
    st.sampled_from([2, 3, 5, 7]),
    st.data(),
)
def test_nonzero_sweep_matches_dense_rank(d, p, data):
    diameter = int(d.max()) if d.shape[0] >= 2 else 0
    cplx = build_rips(d, diameter)
    edges = [s.vertices for s in cplx.simplices if s.dim == 1]
    edge_row = {e: r for r, e in enumerate(edges)}
    triangles = [pos for pos, s in enumerate(cplx.simplices) if s.dim == 2]

    # bar representatives, sums of triangle boundaries (cycles that die when
    # their youngest triangle enters) and arbitrary edge chains
    chains = [bar.representative for bar in barcode_h1(cplx, p).bars]
    coeff = st.integers(0, p - 1)
    if triangles:
        for _ in range(data.draw(st.integers(0, 3))):
            picks = data.draw(st.lists(st.sampled_from(triangles), max_size=3))
            column = dense_boundaries(cplx, picks, edge_row, p)
            weights = [data.draw(coeff) for _ in picks]
            total = column @ np.array(weights, dtype=np.int64) % p
            chains.append(
                {cplx.position(edges[r]): int(c) for r, c in enumerate(total) if c}
            )
    if edges:
        for _ in range(data.draw(st.integers(0, 2))):
            picks = data.draw(st.lists(st.sampled_from(edges), max_size=4, unique=True))
            chains.append({cplx.position(e): data.draw(coeff) for e in picks})

    thresholds = list(range(diameter + 1))
    starts = [max((cplx.simplices[pos].value for pos in c), default=0) for c in chains]
    got = nonzero_sweep(cplx, chains, thresholds, p, starts)
    for chain, start, row in zip(chains, starts, got):
        vector = np.zeros((len(edges), 1), dtype=np.int64)
        for pos, c in chain.items():
            vector[edge_row[cplx.simplices[pos].vertices], 0] = c
        for v in thresholds:
            if v < start:
                assert not row[v]
                continue
            present = [t for t in triangles if cplx.simplices[t].value <= v]
            span = dense_boundaries(cplx, present, edge_row, p)
            raises = rank_mod_p(np.hstack((span, vector)), p) > rank_mod_p(span, p)
            assert row[v] == raises, (chain, v)
