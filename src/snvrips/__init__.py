"""Single-pass SNV cycle extraction from Vietoris-Rips barcodes.

The package turns a collection of labelled points (sequences observed at
integer time steps) into one deformed distance matrix whose single H_1
barcode encodes, per time step, the same cycle counts and lifetimes that
the classical one-filtration-per-step computation produces.  Everything
is exact integer arithmetic over a prime field.
"""

from .distance import (
    DistanceSpace,
    ScaleSchedule,
    SequenceSpace,
    TimeLabels,
    build_space_from_sequences,
    dedupe_zero_distance,
    deform,
    time_offset_base,
)
from .errors import InputError
from .io import InputBundle, emit_report, parse_matrix, parse_sequences
from .oracle import (
    RandomInstanceSpec,
    betti1_bruteforce,
    random_instance,
    snv_counts_oracle,
)
from .persistence import Bar, Barcode, barcode_h1, nonzero_sweep
from .pipeline import (
    BenchmarkResult,
    CorrespondenceReport,
    SnvBar,
    SnvReport,
    StabilityReport,
    benchmark,
    classical_counts,
    classical_snv,
    correspondence,
    deformed_snv,
    stability_report,
    verify_correspondence,
)
from .rips import Edges, FilteredComplex, build_rips

__version__ = "0.1.0"

__all__ = [
    "Bar",
    "Barcode",
    "BenchmarkResult",
    "CorrespondenceReport",
    "DistanceSpace",
    "Edges",
    "FilteredComplex",
    "InputBundle",
    "InputError",
    "RandomInstanceSpec",
    "ScaleSchedule",
    "SequenceSpace",
    "SnvBar",
    "SnvReport",
    "StabilityReport",
    "TimeLabels",
    "barcode_h1",
    "benchmark",
    "betti1_bruteforce",
    "build_rips",
    "build_space_from_sequences",
    "classical_counts",
    "classical_snv",
    "correspondence",
    "dedupe_zero_distance",
    "deform",
    "deformed_snv",
    "emit_report",
    "nonzero_sweep",
    "parse_matrix",
    "parse_sequences",
    "random_instance",
    "snv_counts_oracle",
    "stability_report",
    "time_offset_base",
    "verify_correspondence",
]
