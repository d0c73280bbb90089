"""Time and peak-RSS bounds of the command line at scale, each stated once.

    PYTHONPATH=src python tests/bounds.py [--dir DIR] [GROUP ...]

Each GROUP (all by default) writes its input into DIR/GROUP, by default a
temporary directory, and runs its commands as ``timeout SECONDS python -m
snvrips.cli ...``; each must exit 0 with a peak RSS below its megabytes.
"""

import argparse
import multiprocessing
import os
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from generate import evolve_sequences, write_sequences  # noqa: E402


def tree(seed: int, n: int, m: int, d: Path) -> list[str]:
    write_sequences(*evolve_sequences(seed, n, 200, m), d)
    return ["--sequences", f"{d}/seqs.fa", "--metadata", f"{d}/meta.tsv"]


def matrix_4000(d: Path) -> list[str]:
    rng = np.random.default_rng(0)
    with open(d / "matrix.txt", "w") as fh:
        for k in range(1, 4000):
            fh.write(" ".join(map(str, rng.integers(1, 1000, k).tolist())) + "\n")
    (d / "times.txt").write_text("".join(f"{t}\n" for t in rng.integers(0, 10, 4000).tolist()))
    return ["--matrix", f"{d}/matrix.txt", "--times", f"{d}/times.txt"]


def far_apart(d: Path) -> list[str]:
    (d / "two.txt").write_text("1\n")
    (d / "far.txt").write_text("0\n1000000\n")
    return ["--matrix", f"{d}/two.txt", "--times", f"{d}/far.txt"]


UNIT_ROUTES = ("deformed", "compare --strict", "classical --cap 1")
FAR = [(f"{c} --format json", 60, 160) for c in ("compare --strict", "classical", "deformed")]
# group: (input writer, [(command, seconds, MB), ...])
GROUPS = {
    "tree-5000": (partial(tree, 0, 5000, 20), [(c, 20, 200) for c in UNIT_ROUTES]),
    "tree-100000": (partial(tree, 7, 100000, 30), [("deformed", 60, 300),
                    ("classical --cap 1", 22, 400), ("compare --strict", 28, 400)]),
    "n400": (None, [("deformed --n 400 --m 12 --dmax 4 --seed 0", 30, 150),
                    ("deformed --n 400 --m 12 --dmax 4 --seed 0 --stability", 5, 150)]),
    "matrix-4000": (matrix_4000, [("deformed", 60, 400)]),
    "far-apart": (far_apart, FAR),
}


def within(command: str, files: list[str], seconds: int, mb: int) -> bool:
    """Run ``snvrips COMMAND FILES`` once, print its figures, and say if it kept
    its bound.  A child starts from its parent's peak RSS: keep the caller small."""
    argv = ["timeout", str(seconds), sys.executable, "-m", "snvrips.cli", *command.split()]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.monotonic()
    pid = os.posix_spawnp("timeout", argv + files, os.environ, file_actions=quiet)
    (_, status, usage), taken = os.wait4(pid, 0), time.monotonic() - start
    code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{command}: exit {code}, {taken:.1f} of {seconds} s, peak RSS {rss_mb:.1f} of {mb} MB")
    return code == 0 and rss_mb < mb


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", type=Path, help="write each group's input into DIR/GROUP")
    parser.add_argument("groups", nargs="*", metavar="GROUP", help=", ".join(GROUPS))
    args = parser.parse_args(argv)
    if unknown := sorted(set(args.groups) - set(GROUPS)):
        parser.error(f"unknown group {', '.join(unknown)}")
    # inputs are written in a worker, so that this process stays small
    kept, worker = True, multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1)
    with tempfile.TemporaryDirectory(prefix="bounds-") as scratch, worker:
        for group in args.groups or GROUPS:
            write, rows = GROUPS[group]
            directory = (args.dir or Path(scratch)) / group
            directory.mkdir(parents=True, exist_ok=True)
            files = worker.apply(write, (directory,)) if write else []
            for command, seconds, mb in rows:
                kept &= within(command, files, seconds, mb)
    return 0 if kept else 1


if __name__ == "__main__":
    raise SystemExit(main())
