"""The benchmark's workloads: instance catalogues, input files, in-process solves.

Each workload has a catalogue of seeded instances whose expected outputs are
recorded in ``expected.json`` (see ``record.py``).  A run's ``--seed`` picks
the order in which the catalogue is solved, so the same seed gives the same
inputs, and every output has a reference that the timed path did not produce.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import host
from generate import evolve_sequences, write_matrix, write_sequences
from snvrips import cli
from snvrips.oracle import RandomInstanceSpec, random_instance


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "matrix" or "sequences"
    n: int
    m: int
    prime: int
    # Subcommand arguments of each CLI call of one instance; the input flags
    # are appended.  All calls read the same files.
    calls: tuple[tuple[str, ...], ...]
    catalogue: int
    oracle: bool  # check counts with snv_counts_oracle (too slow for dense n=200)
    length: int = 0  # sequence length, for sequence workloads


WORKLOADS = {
    w.name: w
    for w in (
        # Dense unit graph (~5k edges, ~20k triangles): the Rips build and the
        # F_2 reduction take the time.
        Workload(
            name="dense_deformed",
            kind="matrix",
            n=200,
            m=12,
            prime=2,
            calls=(("deformed",),),
            catalogue=3,
            oracle=False,
        ),
        # Sparse unit-Hamming graph with dedup: parsing, Hamming distances and
        # the all-triples Rips scan take the time, reduction almost none.
        Workload(
            name="sequence_sparse",
            kind="sequences",
            n=400,
            m=20,
            prime=2,
            calls=(("deformed",),),
            catalogue=2,
            oracle=True,
            length=200,
        ),
        # compare --strict and --stability over F_3: classical full-diameter
        # builds, the general F_p reduction and the stability table.
        Workload(
            name="audit_p3",
            kind="matrix",
            n=60,
            m=8,
            prime=3,
            calls=(("compare", "--strict"), ("deformed", "--stability")),
            catalogue=2,
            oracle=True,
        ),
    )
}


@dataclass
class Instance:
    """One generated input, the files the program reads and the ground truth
    the correctness gate uses."""

    files: tuple[str, ...]  # input flags and paths, ready for the CLI
    labels: dict[str, int]
    dist: np.ndarray | None = None  # matrix workloads, rows in id order p0, p1, ...
    sequences: dict[str, str] | None = None  # sequence workloads


def make_instance(workload: Workload, index: int, directory: Path) -> Instance:
    """Generate catalogue instance ``index`` and write its input files."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload.kind == "matrix":
        space, labels = random_instance(
            RandomInstanceSpec(seed=index, n=workload.n, m=workload.m, d_max=4)
        )
        vector = labels.vector(space.point_ids)
        matrix, times = write_matrix(space.dist, vector, directory)
        return Instance(
            ("--matrix", str(matrix), "--times", str(times)),
            dict(labels.by_id),
            dist=space.dist,
        )
    records, times = evolve_sequences(index, workload.n, workload.length, workload.m)
    fasta, meta = write_sequences(records, times, directory)
    return Instance(
        ("--sequences", str(fasta), "--metadata", str(meta)),
        times,
        sequences=dict(records),
    )


def solve_order(workload: Workload, seed: int) -> list[int]:
    """The catalogue indices in the order a run with this seed solves them."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    return [int(i) for i in rng.permutation(workload.catalogue)]


@dataclass
class CallResult:
    argv: tuple[str, ...]
    code: int | None  # None when the call raised
    stdout: str
    stderr: str
    seconds: float
    scaled_seconds: float  # ``seconds`` at the reference host speed

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def call_argv(
    workload: Workload, instance: Instance, call: tuple[str, ...]
) -> tuple[str, ...]:
    return call + ("--prime", str(workload.prime)) + instance.files


def run_cli(argv: tuple[str, ...]) -> CallResult:
    """Run ``snvrips.cli.main`` in-process with its output captured.

    Only the call itself is timed, and the host's speed is sampled around
    and during it (see ``host.py``).  A raised exception is recorded as a
    failed call with its traceback, so one bad instance does not end the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with host.Timed() as timed:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = None
                err.write(traceback.format_exc())
    return CallResult(
        argv, code, out.getvalue(), err.getvalue(), timed.seconds, timed.scaled
    )


def solve(workload: Workload, instance: Instance) -> list[CallResult]:
    """Every CLI call of one instance, in order."""
    return [run_cli(call_argv(workload, instance, call)) for call in workload.calls]

