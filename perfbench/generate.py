"""Seeded input generators for the benchmark.

Every generator is a pure function of its seed and writes plain files that
the ``snvrips`` command line reads; the program sees nothing else.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

BASES = "ACGT"
DUPLICATE_SHARE = 0.05
RECOMBINANT_SHARE = 0.25


def evolve_sequences(
    seed: int, n: int, length: int, m: int
) -> tuple[list[tuple[str, str]], dict[str, int]]:
    """A seeded mutation tree with single-crossover recombinants.

    Sequence k is drawn after sequences 0..k-1 exist: an exact copy of one of
    them (DUPLICATE_SHARE), a recombinant of two of them cut at one crossover
    site (RECOMBINANT_SHARE), or otherwise a copy of one with a single
    substitution.  Time labels follow generation order, split evenly over the
    steps 0..m, so step i holds the first (i+1)/(m+1) of the sequences.
    """
    rng = np.random.default_rng([seed, 0x5E9])
    seqs = [rng.integers(0, 4, size=length, dtype=np.int8)]
    for _ in range(1, n):
        draw = rng.random()
        if draw < DUPLICATE_SHARE:
            child = seqs[rng.integers(len(seqs))].copy()
        elif draw < DUPLICATE_SHARE + RECOMBINANT_SHARE:
            a, b = rng.integers(len(seqs), size=2)
            cut = int(rng.integers(1, length))
            child = np.concatenate([seqs[a][:cut], seqs[b][cut:]])
        else:
            child = seqs[rng.integers(len(seqs))].copy()
            site = int(rng.integers(length))
            child[site] = (child[site] + rng.integers(1, 4)) % 4
        seqs.append(child)
    width = len(str(n - 1))
    records = [
        (f"s{k:0{width}d}", "".join(BASES[b] for b in seq)) for k, seq in enumerate(seqs)
    ]
    times = {rid: k * (m + 1) // n for k, (rid, _) in enumerate(records)}
    return records, times


def write_sequences(
    records: list[tuple[str, str]], times: dict[str, int], directory: Path
) -> tuple[Path, Path]:
    """Write FASTA and a tab-separated id/time table; return both paths."""
    fasta = directory / "seqs.fa"
    meta = directory / "meta.tsv"
    fasta.write_text("".join(f">{rid}\n{seq}\n" for rid, seq in records))
    rows = "".join(f"{rid}\t{times[rid]}\n" for rid, _ in records)
    meta.write_text("id\ttime\n" + rows)
    return fasta, meta


def write_matrix(
    dist: np.ndarray, times: np.ndarray, directory: Path
) -> tuple[Path, Path]:
    """Write the strict lower triangle and the time vector; return both paths."""
    matrix = directory / "dist.txt"
    vector = directory / "times.txt"
    rows = dist.tolist()
    matrix.write_text(
        "".join(" ".join(map(str, rows[k][:k])) + "\n" for k in range(1, len(rows)))
    )
    vector.write_text("".join(f"{int(t)}\n" for t in times))
    return matrix, vector
