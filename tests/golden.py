"""Digests of the command line's reports over a fixed corpus of inputs.

    PYTHONPATH=src python tests/golden.py check    # replay every case
    PYTHONPATH=src python tests/golden.py record   # rewrite tests/golden.json

A case is one input under one command, format and prime.  It runs
``snvrips.cli.main`` in-process and keeps the exit code and the first 12 hex
digits of the sha256 of stdout and of stderr.  The inputs are generated
instances (seeds 0-19 x d_max 2, 4) and files this script writes from fixed
seeds: matrix files with zero-distance merges, which reorder the ids, two
points with times 0 and 1,000,000, a FASTA file with duplicate sequences, and
malformed inputs that must exit 1.

``record`` keeps an input's cases at a prime only if ``compare --strict``
exits 0 on it, the oracle's per-step counts equal the deformed ones and every
command exits 0; only a malformed input may exit 1, and it must.  A change
that alters report bytes on purpose re-records the corpus and lists the
changed cases.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from snvrips import RandomInstanceSpec, random_instance
from snvrips.cli import main as cli_main

CORPUS = Path(__file__).resolve().parent / "golden.json"

COMMANDS = {
    "deformed": ("deformed",),
    "deformed-stability": ("deformed", "--stability"),
    "deformed-full-stability": ("deformed", "--cap", "full", "--stability"),
    "compare-strict": ("compare", "--strict"),
    "classical": ("classical",),
    "classical-cap2": ("classical", "--cap", "2"),
    "oracle": ("oracle",),
}
FORMATS = ("json", "tsv")
PRIMES = (2, 3, 5, 7)
MALFORMED = ("bad-cell", "horizon-int64", "ragged-fasta")


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _matrix_files(directory: Path, name: str, dist, times) -> tuple[str, ...]:
    rows = [" ".join(map(str, dist[k][:k])) for k in range(1, len(times))]
    return (
        "--matrix",
        _write(directory / f"{name}.txt", "".join(f"{row}\n" for row in rows)),
        "--times",
        _write(directory / f"{name}.times", "".join(f"{t}\n" for t in times)),
    )


def _merged_matrix(k: int) -> tuple[list[list[int]], list[int]]:
    """A generated instance plus 1-3 zero-distance copies, shuffled into file
    order, so that dedup merges points and sorts the kept ids."""
    space, labels = random_instance(
        RandomInstanceSpec(seed=100 + k, n=10 + 2 * k, m=2 + k % 3, d_max=3)
    )
    rng = np.random.default_rng(1000 + k)
    sources = rng.choice(space.n, size=1 + k % 3, replace=False)
    points = np.concatenate((np.arange(space.n), sources))
    times = np.concatenate(
        (labels.vector(space.point_ids), rng.integers(0, labels.m + 1, size=sources.size))
    )
    file_order = rng.permutation(points.size)
    points = points[file_order]
    return space.dist[np.ix_(points, points)].tolist(), times[file_order].tolist()


def _fasta(directory: Path) -> tuple[str, ...]:
    """Twelve sequences, each one site away from an earlier one, over a few
    sites (so unit squares appear), plus three exact duplicates."""
    rng = np.random.default_rng(7)
    seqs = [rng.choice(list("ACGT"), size=16)]
    for _ in range(11):
        child = seqs[int(rng.integers(len(seqs)))].copy()
        site = int(rng.integers(6))
        child[site] = rng.choice([b for b in "ACGT" if b != child[site]])
        seqs.append(child)
    seqs += [seqs[int(i)].copy() for i in rng.choice(12, size=3, replace=False)]
    times = [int(t) for t in rng.integers(0, 5, size=len(seqs))]
    fasta = "".join(f">s{i}\n{''.join(s)}\n" for i, s in enumerate(seqs))
    meta = "id\ttime\n" + "".join(f"s{i}\t{t}\n" for i, t in enumerate(times))
    return (
        "--sequences",
        _write(directory / "seqs.fa", fasta),
        "--metadata",
        _write(directory / "seqs.tsv", meta),
    )


def inputs(directory: Path) -> dict[str, tuple[str, ...]]:
    """Every input of the corpus by name, as CLI flags; files go to directory."""
    found: dict[str, tuple[str, ...]] = {}
    for seed in range(20):
        for d_max in (2, 4):
            found[f"gen-s{seed}-d{d_max}"] = (
                "--n", str(8 + seed % 23), "--m", str(seed % 7),
                "--seed", str(seed), "--dmax", str(d_max),
            )  # fmt: skip
    for k in range(8):
        found[f"merged-{k}"] = _matrix_files(directory, f"merged-{k}", *_merged_matrix(k))
    found["far-labels"] = _matrix_files(directory, "far", [[0], [1]], [0, 1_000_000])
    found["fasta-duplicates"] = _fasta(directory)
    found["bad-cell"] = _matrix_files(directory, "bad", [[0], [1], ["x", 2]], [0, 1, 2])
    found["horizon-int64"] = _matrix_files(directory, "huge", [[0], [1]], [0, 2**63 - 1])
    found["ragged-fasta"] = (
        "--sequences",
        _write(directory / "ragged.fa", ">a\nACGT\n>b\nACG\n"),
        "--metadata",
        _write(directory / "ragged.tsv", "id\ttime\na\t0\nb\t1\n"),
    )
    return found


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_case(flags: tuple[str, ...], command: str, fmt: str, p: int) -> tuple[str, str]:
    """One case, in-process: "code stdout stderr" as digests, and stdout."""
    argv = [*COMMANDS[command], "--format", fmt, "--prime", str(p), *flags]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    stdout = out.getvalue()
    return f"{code} {_digest(stdout)} {_digest(err.getvalue())}", stdout


def load() -> dict[str, dict[str, str]]:
    """The corpus: "input command" -> "format pP" -> "code stdout stderr"."""
    return json.loads(CORPUS.read_text())


def changed(corpus: dict[str, dict[str, str]]) -> list[str]:
    """Replay the given cases; one line per case whose result differs."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        flags = inputs(Path(tmp))
        for line, cases in corpus.items():
            name, command = line.split(" ")
            for key, expected in cases.items():
                fmt, p = key.split(" p")
                got, _ = run_case(flags[name], command, fmt, int(p))
                if got != expected:
                    problems.append(f"{line} {key}: expected {expected}, got {got}")
    return problems


def _record_input(
    name: str, flags: tuple[str, ...], p: int
) -> dict[tuple[str, str], str]:
    """The cases of one input at prime p, or none if they may not be kept."""
    cases, counts = {}, {}
    for command in COMMANDS:
        for fmt in FORMATS:
            cases[f"{name} {command}", f"{fmt} p{p}"], stdout = run_case(
                flags, command, fmt, p
            )
            if fmt == "json" and command in ("deformed", "oracle") and stdout:
                counts[command] = json.loads(stdout)["per_step_counts"]
    codes = sorted({result.split(" ")[0] for result in cases.values()})
    if name in MALFORMED:
        reason = None if codes == ["1"] else f"malformed input exits {codes}"
    elif codes != ["0"]:
        reason = f"exit codes {codes}"
    elif counts["deformed"] != counts["oracle"]:
        reason = "oracle counts differ from deformed"
    else:
        reason = None
    if reason is None:
        return cases
    print(f"dropped {name} p{p}: {reason}", file=sys.stderr)
    return {}


def record() -> dict[str, dict[str, str]]:
    corpus: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in inputs(Path(tmp)).items():
            for p in PRIMES:
                for (line, key), result in _record_input(name, flags, p).items():
                    corpus.setdefault(line, {})[key] = result
            print(f"{name}: done", file=sys.stderr, flush=True)
    return corpus


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        corpus = record()
        lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in corpus.items())
        CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{sum(map(len, corpus.values()))} cases", file=sys.stderr)
        return 0
    if argv == ["check"]:
        corpus = load()
        problems = changed(corpus)
        for line in problems:
            print(line)
        total = sum(map(len, corpus.values()))
        print(f"{total - len(problems)} of {total} cases match", file=sys.stderr)
        return 1 if problems else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
