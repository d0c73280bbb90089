"""Benchmark of the snvrips command line: one workload per process.

    python3 perfbench/run.py --workload dense_deformed --seed 1 --seconds 20 --trace 0

Each process is a closed loop with one client and no threads.  It calls the
program's entry point ``snvrips.cli.main`` in-process, with standard output
captured, on seeded input files written before timing starts, one instance
after the other until ``--seconds`` have passed.  Every output is checked
(see ``gates.py``).  Times are scaled by the host's speed, sampled around
and during each timed block (see ``host.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` solves each
instance once untraced and once traced, alternating which goes first, and
prints per-layer metrics from the spans (see ``spans.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Import the package from this checkout's ``src``."""
    package = SRC / "snvrips" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import snvrips.cli

    if Path(snvrips.cli.__file__).resolve().parent != package.parent.resolve():
        sys.exit(f"error: imported snvrips from {snvrips.cli.__file__}, not from {SRC}")


if __name__ == "__main__":
    import host

    with host.Timed() as timed:
        import_program()
    import_s = (timed.seconds, timed.scaled)
    import bench

    raise SystemExit(bench.main(sys.argv[1:], import_s))
