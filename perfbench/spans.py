"""Tracing from outside the package.

``Tracer.installed()`` replaces the public functions each ``snvrips`` module
calls across a layer boundary with wrappers that record a span (name, start,
end, parent, instance) and, from the return value, deterministic work
counters.  Spans stay in memory until the run ends; ``instance_times`` and
``instance_counts`` turn one instance's spans into per-layer figures.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from math import comb

import snvrips.cli
import snvrips.distance
import snvrips.io
import snvrips.persistence
import snvrips.pipeline

from workloads import CallResult, Instance, Workload, call_argv, run_cli


def _rips_counts(cplx, *args, **kwargs) -> dict:
    dims = [0, 0, 0]
    for s in cplx.simplices:
        dims[s.dim] += 1
    return {
        "rips.simplices_d0": dims[0],
        "rips.simplices_d1": dims[1],
        "rips.simplices_d2": dims[2],
        # build_rips tests every vertex triple against the cap
        "rips.triples_examined": comb(cplx.n_points, 3),
    }


def _reduction_counts(result, columns, dims, p, clearing=True) -> dict:
    paired_edges = set(result.pairing.values())
    edge_pairs = sum(1 for j, d in enumerate(dims) if d == 1 and result.reduced[j])
    return {
        "persistence.pairs": edge_pairs + len(result.pairing),
        "persistence.h1_pairs": len(result.pairing),
        "persistence.cleared_columns": len(paired_edges) if clearing else 0,
        "persistence.reduced_nonzeros": sum(map(len, result.reduced)),
        "persistence.essential_cycles": sum(
            1 for e in result.cycle_basis if e not in paired_edges
        ),
    }


def _count(key: str, measure):
    """A counter that records ``measure(return value)`` under ``key``."""
    return lambda result, *args, **kwargs: {key: measure(result)}


def _hamming_pairs(space_and_merges, records) -> dict:
    # build_space_from_sequences computes one Hamming distance per pair
    return {"distance.hamming_pairs": comb(len(records), 2)}


_REPORT_BYTES = _count("io.report_bytes", lambda text: len(text.encode()))
_SNV_BARS = _count("pipeline.bars", lambda report: len(report.bars))
_MERGES = _count("distance.dedup_merges", lambda deduped: len(deduped[2]))
_BARS_KEPT = _count("persistence.bars_kept", lambda barcode: len(barcode.bars))

# (module, attribute, span name, counter from the return value and arguments)
TARGETS = (
    (snvrips.cli, "parse_matrix", "io.parse", None),
    (snvrips.cli, "parse_sequences", "io.parse", None),
    (snvrips.cli, "emit_report", "io.emit", _REPORT_BYTES),
    (snvrips.cli, "deformed_snv", "pipeline.deformed", _SNV_BARS),
    (snvrips.cli, "classical_snv", "pipeline.classical", None),
    (snvrips.cli, "verify_correspondence", "pipeline.verify", None),
    (snvrips.cli, "stability_report", "pipeline.stability", None),
    (snvrips.io, "build_space_from_sequences", "distance.space", _hamming_pairs),
    (snvrips.io, "dedupe_zero_distance", "distance.dedup", _MERGES),
    (snvrips.distance, "dedupe_zero_distance", "distance.dedup", _MERGES),
    (snvrips.pipeline, "deform", "distance.deform", None),
    (snvrips.pipeline, "build_rips", "rips.build", _rips_counts),
    (snvrips.pipeline, "barcode_h1", "persistence.barcode", _BARS_KEPT),
    (snvrips.persistence, "boundary_matrix", "rips.boundary", None),
    (snvrips.persistence, "reduce_with_basis", "persistence.reduce", _reduction_counts),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index in Tracer.spans, -1 for a top-level span
    instance: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself: a CLI call, the oracle check."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index].counts = counter(result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every target while the block runs; restore them after."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# Spans whose time the deformed route spends outside decoding.
_DEFORMED_PARTS = ("distance.deform", "rips.build", "rips.boundary", "persistence.reduce")

TIME_METRICS = {
    "io.parse_s": "io.parse",
    "io.emit_s": "io.emit",
    "distance.space_s": "distance.space",
    "distance.dedup_s": "distance.dedup",
    "distance.deform_s": "distance.deform",
    "rips.build_s": "rips.build",
    "rips.boundary_s": "rips.boundary",
    "persistence.reduce_s": "persistence.reduce",
    "pipeline.deformed_s": "pipeline.deformed",
    "pipeline.classical_s": "pipeline.classical",
    "pipeline.verify_s": "pipeline.verify",
    "pipeline.stability_s": "pipeline.stability",
    "oracle.counts_s": "oracle.counts",
}

COUNT_METRICS = (
    "io.report_bytes",
    "distance.hamming_pairs",
    "distance.dedup_merges",
    "rips.simplices_d0",
    "rips.simplices_d1",
    "rips.simplices_d2",
    "rips.triples_examined",
    "persistence.pairs",
    "persistence.h1_pairs",
    "persistence.cleared_columns",
    "persistence.reduced_nonzeros",
    "persistence.essential_cycles",
    "persistence.bars_kept",
    "pipeline.bars",
)


def instance_counts(spans: list[Span], instance: int) -> dict:
    """Work counters of one instance, summed over every traced call."""
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for span in spans:
        if span.instance == instance:
            for key, value in span.counts.items():
                counts[key] += value
    # yields are ratios of the summed counts; 0 when nothing was examined
    triples = counts["rips.triples_examined"]
    counts["rips.triangle_yield"] = (
        counts["rips.simplices_d2"] / triples if triples else 0.0
    )
    found = counts["persistence.h1_pairs"] + counts["persistence.essential_cycles"]
    counts["persistence.bar_yield"] = (
        counts["persistence.bars_kept"] / found if found else 0.0
    )
    return counts


def instance_times(spans: list[Span], instance: int) -> dict:
    """Per-layer seconds of one instance.

    Every layer total sums the spans of that name; ``_self_s`` entries
    subtract the time of child spans, and ``pipeline.decode_s`` is derived as
    deformed minus the deform, build, boundary and reduce spans inside it.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    mine = [(k, s) for k, s in enumerate(spans) if s.instance == instance]

    def total(name: str, inside: str | None = None) -> float:
        return sum(
            s.seconds
            for _, s in mine
            if s.name == name and (inside is None or _has_ancestor(spans, s, inside))
        )

    def self_time(name: str) -> float:
        return sum(s.seconds - child_time[k] for k, s in mine if s.name == name)

    times = {key: total(name) for key, name in TIME_METRICS.items()}
    times["io.parse_self_s"] = self_time("io.parse")
    times["cli.self_s"] = self_time("cli.main")
    times["pipeline.decode_s"] = times["pipeline.deformed_s"] - sum(
        total(name, "pipeline.deformed") for name in _DEFORMED_PARTS
    )
    times["pipeline.classical_build_s"] = total("rips.build", "pipeline.classical")
    times["pipeline.classical_reduce_s"] = total(
        "persistence.reduce", "pipeline.classical"
    )
    return times


def traced_solve(
    tracer: Tracer, workload: Workload, instance: Instance, tag: int
) -> list[CallResult]:
    """Solve one instance with every target traced, its spans tagged ``tag``."""
    tracer.instance = tag
    results = []
    with tracer.installed():
        for call in workload.calls:
            with tracer.span("cli.main"):
                results.append(run_cli(call_argv(workload, instance, call)))
    return results
