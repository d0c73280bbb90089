"""Brute-force ground truth: dense Betti-1 ranks and a seeded instance generator.

Deliberately independent of the filtration and reduction modules: simplices
are re-enumerated here and ranks come from dense Gaussian elimination mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distance import INT64_MAX, DistanceSpace, TimeLabels, check_prime
from .errors import InputError


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of a dense integer matrix over F_p by int64 row elimination."""
    if (p - 1) ** 2 > INT64_MAX:
        raise ValueError(f"(p-1)^2 overflows int64 for p={p}")  # residue products
    a = (np.asarray(mat, dtype=np.int64) % p).copy()
    if a.size == 0:
        return 0
    n_rows, n_cols = a.shape
    rank = 0
    for c in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), p - 2, p) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != rank]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[rank])) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def betti1_bruteforce(dist, v: int, p: int) -> int:
    """dim H_1 at scale v: (#edges - rank d1) - rank d2, all matrices dense."""
    check_prime(p)
    d = np.asarray(dist, dtype=np.int64)
    n = d.shape[0]
    edges = [(i, j) for i, j in combinations(range(n), 2) if d[i, j] <= v]
    edge_pos = {e: k for k, e in enumerate(edges)}
    triangles = [
        (i, j, k)
        for i, j, k in combinations(range(n), 3)
        if max(d[i, j], d[i, k], d[j, k]) <= v
    ]

    d1 = np.zeros((n, len(edges)), dtype=np.int64)
    for k, (i, j) in enumerate(edges):
        d1[j, k] = 1
        d1[i, k] = p - 1
    d2 = np.zeros((len(edges), len(triangles)), dtype=np.int64)
    for k, (i, j, l) in enumerate(triangles):
        d2[edge_pos[(j, l)], k] = 1
        d2[edge_pos[(i, l)], k] = p - 1
        d2[edge_pos[(i, j)], k] = 1

    return (len(edges) - rank_mod_p(d1, p)) - rank_mod_p(d2, p)


@dataclass
class OracleReport:
    """Per-step cycle counts from ``snv_counts_oracle`` alone."""

    m: int
    p: int
    per_step_counts: list[int]


def snv_counts_oracle(space: DistanceSpace, labels: TimeLabels, p: int) -> list[int]:
    """Per step i: dim H_1 of the step's point set at scale 1.

    With all off-diagonal distances >= 1 no edge exists below scale 1, so
    every scale-1 homology class is born in the first filtration step and the
    count equals the number of SNV cycles.
    """
    lab = labels.vector(space.point_ids)
    counts = []
    # steps between two consecutive labels share a point set: one rank per block
    for start, end in labels.step_blocks(space.point_ids):
        keep = np.nonzero(lab <= start)[0]
        sub = space.dist[np.ix_(keep, keep)]
        counts += [betti1_bruteforce(sub, 1, p)] * (end - start)
    return counts


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Seeded parameters for a reproducible random instance."""

    seed: int
    n: int
    m: int
    d_max: int


def random_instance(spec: RandomInstanceSpec) -> tuple[DistanceSpace, TimeLabels]:
    """Symmetric matrix with entries uniform in {1, ..., d_max}, labels uniform
    in {0, ..., m}; bit-for-bit deterministic in the seed.

    Distances need not satisfy the triangle inequality, and are never 0 off
    the diagonal, so deduplication never triggers on generated instances.
    """
    if spec.n < 1:
        raise InputError(f"need at least one point, got n={spec.n}")
    if spec.n**2 > INT64_MAX // 8:
        raise InputError(f"n={spec.n} is too large for an n x n int64 matrix")
    if not 1 <= spec.d_max <= INT64_MAX:
        raise InputError(f"d_max must be in 1..{INT64_MAX}, got {spec.d_max}")
    if not 0 <= spec.m <= INT64_MAX:
        raise InputError(f"m must be in 0..{INT64_MAX}, got {spec.m}")
    if spec.seed < 0:
        raise InputError(f"seed must be >= 0, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)
    draw = rng.integers(1, spec.d_max + 1, size=(spec.n, spec.n))
    upper = np.triu(draw, 1)
    dist = upper + upper.T
    label_values = rng.integers(0, spec.m + 1, size=spec.n)
    ids = tuple(f"p{i}" for i in range(spec.n))
    space = DistanceSpace(ids, dist)
    labels = TimeLabels(spec.m, {pid: int(v) for pid, v in zip(ids, label_values)})
    return space, labels
