"""Command-line entry point.

Subcommands:
  classical  one Rips barcode per time step (the reference computation)
  deformed   one barcode of the time-deformed matrix, decoded per step
  compare    run both pipelines on the same input and verify they agree
  bench      wall-clock comparison of the two pipelines plus agreement check
  oracle     per-step cycle counts by dense Gaussian elimination only

Inputs come from sequence files (`--sequences`/`--metadata`), distance
matrices (`--matrix`/`--times`), or a seeded generator (`--n`/`--m`).
Reports go to standard output, diagnostics to standard error.  Exit codes:
0 success, 1 bad input, 2 an agreement or stability check failed.  The
argument parser is built on the first ``main`` call and reused by every later
call in the process.
"""

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from .distance import check_horizon, check_prime
from .errors import InputError
from .io import InputBundle, emit_report, parse_matrix, parse_sequences
from .oracle import OracleReport, RandomInstanceSpec, random_instance, snv_counts_oracle
from .pipeline import (
    benchmark,
    classical_counts,
    classical_snv,
    correspondence,
    deformed_snv,
    stability_report,
)

# verify_correspondence is no longer read here; it stays importable under
# this module because perfbench/spans.py traces it by this name.
from .pipeline import verify_correspondence  # noqa: F401

BENCH_DEFAULTS = RandomInstanceSpec(seed=0, n=50, m=12, d_max=4)


def parse_cap(text: str | None) -> int | str | None:
    """A cap is a natural number of scale units, or 'full' for no cap; the
    pipelines reject a negative one."""
    if text is None or text == "full":
        return text
    try:
        return int(text)
    except ValueError:
        raise InputError(
            f"cap must be a natural number or 'full', got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as InputError, so it exits 1 like any bad input."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def _read(path: str) -> str:
    """A UTF-8 file's text; the parsers drop a leading byte-order mark."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def resolve_input(
    args: argparse.Namespace, default_spec: RandomInstanceSpec | None = None
) -> InputBundle:
    """Turn the input flags into a labelled distance space.

    Exactly one source is allowed: sequence files, matrix files, or the
    seeded generator.  ``default_spec`` supplies a generator fallback for
    subcommands that can run without explicit input (bench).  Every source
    must pass ``check_horizon``, so all subcommands accept the same inputs.
    """
    picked = [
        flag
        for flag, value in (
            ("--sequences", args.sequences),
            ("--matrix", args.matrix),
            ("--n", args.n),
        )
        if value is not None
    ]
    if len(picked) > 1:
        raise InputError(f"choose one input source, got {' and '.join(picked)}")

    if args.sequences is not None:
        if args.metadata is None:
            raise InputError("--sequences requires --metadata")
        bundle = parse_sequences(
            _read(args.sequences), _read(args.metadata), horizon=args.horizon
        )
    elif args.matrix is not None:
        if args.times is None:
            raise InputError("--matrix requires --times")
        bundle = parse_matrix(_read(args.matrix), _read(args.times), horizon=args.horizon)
    else:
        if args.n is not None or args.m is not None:
            if args.n is None or args.m is None:
                raise InputError("generated instances need both --n and --m")
            spec = RandomInstanceSpec(seed=args.seed, n=args.n, m=args.m, d_max=args.dmax)
        elif default_spec is not None:
            spec = default_spec
        else:
            raise InputError(
                "no input given; use --sequences/--metadata, --matrix/--times, or --n/--m"
            )
        space, labels = random_instance(spec)
        bundle = InputBundle(space, labels.extended(args.horizon))
    check_horizon(bundle.space, bundle.labels.m)
    return bundle


def _snv_report(args: argparse.Namespace, pipeline):
    """``pipeline``'s report on the input at ``--cap``, with its merges and notes."""
    bundle = resolve_input(args)
    report = pipeline(bundle.space, bundle.labels, p=args.prime, cap=parse_cap(args.cap))
    report.merges = bundle.merges
    report.notes = bundle.notes + report.notes
    return report


def _cmd_classical(args: argparse.Namespace) -> int:
    report = _snv_report(args, classical_snv)
    sys.stdout.write(emit_report(report, args.format))
    return 0


def _cmd_deformed(args: argparse.Namespace) -> int:
    report = _snv_report(args, deformed_snv)
    stab = stability_report(report) if args.stability else None
    sys.stdout.write(emit_report(report, args.format, stability=stab))
    if stab is not None and not stab.ok:
        for line in stab.violations:
            print(f"stability violation: {line}", file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    bundle = resolve_input(args)
    # The cap applies to the classical side only; the deformed run keeps its
    # default so the per-step decoding stays intact.  The verdict reads only
    # the classical per-step counts of scale-1 births, so the default cap is 1.
    counts = classical_counts(
        bundle.space, bundle.labels, p=args.prime, cap=parse_cap(args.cap)
    )
    deformed = deformed_snv(bundle.space, bundle.labels, p=args.prime)
    verdict = correspondence(counts, deformed)
    sys.stdout.write(emit_report(verdict, args.format))
    if verdict.discrepancies:
        for line in verdict.discrepancies:
            print(f"discrepancy: {line}", file=sys.stderr)
        if args.strict:
            return 2
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    bundle = resolve_input(args, default_spec=BENCH_DEFAULTS)
    result = benchmark(
        bundle.space,
        bundle.labels,
        p=args.prime,
        repetitions=args.repetitions,
    )
    sys.stdout.write(emit_report(result, args.format))
    if not result.correspondence_clean:
        print("benchmark correspondence check failed", file=sys.stderr)
        return 2
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    bundle = resolve_input(args)
    counts = snv_counts_oracle(bundle.space, bundle.labels, args.prime)
    report = OracleReport(bundle.labels.m, args.prime, counts)
    sys.stdout.write(emit_report(report, args.format))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: every ``main`` call reuses it, since
    parsing leaves no state on it."""
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("input")
    src.add_argument("--sequences", help="fasta-like sequence file")
    src.add_argument("--metadata", help="id/time table, tab or comma separated")
    src.add_argument("--matrix", help="strict lower-triangular integer distance file")
    src.add_argument("--times", help="newline-separated time vector file")
    src.add_argument(
        "--n", type=int, help="generate a seeded random instance with this many points"
    )
    src.add_argument("--m", type=int, help="largest time label for generated instances")
    src.add_argument(
        "--dmax", type=int, default=4, help="largest generated distance (default 4)"
    )
    src.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    src.add_argument(
        "--horizon",
        type=int,
        help="extend the time horizon beyond the largest label present",
    )
    common.add_argument(
        "--prime", type=int, default=2, help="coefficient field F_p (default 2)"
    )
    common.add_argument(
        "--format", choices=("json", "tsv"), default="json", help="output format"
    )

    parser = _Parser(
        prog="snvrips",
        description="Per-time-step SNV cycles from one deformed Rips barcode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classical = sub.add_parser(
        "classical", parents=[common], help="one barcode per time step"
    )
    classical.add_argument(
        "--cap",
        help="scale cap: natural number or 'full' (default: each step's diameter)",
    )
    classical.set_defaults(handler=_cmd_classical)

    deformed = sub.add_parser(
        "deformed", parents=[common], help="single barcode of the deformed matrix"
    )
    deformed.add_argument(
        "--cap",
        help="scaled-value cap: natural number or 'full' (default 2N-1)",
    )
    deformed.add_argument(
        "--stability",
        action="store_true",
        help="append the per-bar step membership table",
    )
    deformed.set_defaults(handler=_cmd_deformed)

    compare = sub.add_parser(
        "compare", parents=[common], help="run both pipelines and verify agreement"
    )
    compare.add_argument(
        "--cap",
        default="1",
        help="classical-side scale cap: natural number or 'full' for each step's "
        "diameter (default 1, where SNV births are read; the deformed side "
        "keeps its default)",
    )
    compare.add_argument(
        "--strict", action="store_true", help="exit with status 2 on any discrepancy"
    )
    compare.set_defaults(handler=_cmd_compare)

    bench = sub.add_parser(
        "bench",
        parents=[common],
        help="time classical vs deformed (default instance: seed 0, n=50, m=12)",
    )
    bench.add_argument(
        "--repetitions", type=int, default=1, help="timing repetitions (default 1)"
    )
    bench.set_defaults(handler=_cmd_bench)

    oracle = sub.add_parser(
        "oracle", parents=[common], help="per-step counts by dense elimination"
    )
    oracle.set_defaults(handler=_cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        check_prime(args.prime)
        return args.handler(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
