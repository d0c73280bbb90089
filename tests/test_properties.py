"""Property tests: the clique builder against the all-triples reference, the
reduction engine against a plain standard reduction, barcode alive-counts
against dense Betti numbers over several primes, the homology sweep against
dense ranks, per-step counts against a brute-force count, zero-distance
merging in both parsers and against a brute-force merge, the matrix parser
against a reference reader, the parsers on arbitrary text, a longer horizon
against the shorter one, a zero-distance copy against the input without it,
the two pipelines against the oracle over F_2 to F_7, the sequences'
pigeonhole unit edges against Hamming distances, and the one edge list every
complex is built from against dense per-step and deformed-matrix references."""

import contextlib
import io
import itertools
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snvrips.cli as cli
import snvrips.distance
import snvrips.io
from snvrips import (
    DistanceSpace,
    InputError,
    TimeLabels,
    barcode_h1,
    classical_counts,
    classical_snv,
    deform,
    deformed_snv,
    nonzero_sweep,
    snv_counts_oracle,
    time_offset_base,
    verify_correspondence,
)
from snvrips.distance import (
    INT64_MAX,
    ScaleSchedule,
    build_space_from_sequences,
    dedupe_zero_distance,
    joins,
    merge_distances,
    group_zero_distance,
)
from snvrips.io import parse_matrix, parse_sequences
from snvrips.oracle import betti1_bruteforce, rank_mod_p
from snvrips.persistence import _PEEL_ROUNDS, _forest_cycles, reduce_with_basis
from snvrips.pipeline import SnvBar, alive_counts
from snvrips.rips import Edges, Simplex, build_rips

from helpers import (
    all_triples_rips,
    brute_force_dedupe,
    chain_boundary,
    classical_step,
    count_alive,
    edges_of,
    h0_edges,
    hamming,
    ids_of_chain,
    matrix_rips,
    read_lower_triangle,
    reference_forest_cycles,
    reference_joins,
    standard_view,
)


@st.composite
def symmetric_matrices(draw, max_n: int = 12, max_value: int = 6, min_n: int = 0):
    """Symmetric matrices with zero diagonal and off-diagonal entries >= 1."""
    n = draw(st.integers(min_n, max_n))
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
        built, reference = matrix_rips(d, c), all_triples_rips(d, c)
        for got, want in zip(
            built.values + built.faces,
            reference.values + reference.faces,
        ):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
        assert built.simplices == reference.simplices


@st.composite
def tied_edge_lists(draw, max_n: int = 14):
    """Row-major ``Edges`` on a dense random graph whose values take only a
    few distinct levels, so most simplices tie on value."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [pair for pair, keep in zip(pairs, kept) if keep]
    values = draw(st.lists(st.integers(1, 3), min_size=len(pairs), max_size=len(pairs)))
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return Edges(n, i, j, np.array(values, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(tied_edge_lists())
def test_builder_order_is_the_lexsort_by_value_dimension_and_vertices(edges):
    n, ei, ej, ev = edges
    value_of = dict(zip(zip(ei.tolist(), ej.tolist()), ev.tolist()))
    triangles = [
        (a, b, c, max(value_of[a, b], value_of[a, c], value_of[b, c]))
        for a, b, c in itertools.combinations(range(n), 3)
        if {(a, b), (a, c), (b, c)} <= value_of.keys()
    ]
    tri = np.array(triangles, dtype=np.int64).reshape(-1, 4)
    value = np.concatenate((np.zeros(n, dtype=np.int64), ev, tri[:, 3]))
    dim = np.repeat([0, 1, 2], [n, ei.size, len(tri)])
    pad = np.full(n + ei.size, -1, dtype=np.int64)
    v0 = np.concatenate((np.arange(n, dtype=np.int64), ei, tri[:, 0]))
    v1 = np.concatenate((pad[:n], ej, tri[:, 1]))
    v2 = np.concatenate((pad, tri[:, 2]))
    order = np.lexsort((v2, v1, v0, dim, value))
    rows = np.column_stack((v0, v1, v2))[order].tolist()
    want = [
        Simplex(tuple(row[: k + 1]), v)
        for row, k, v in zip(rows, dim[order].tolist(), value[order].tolist())
    ]
    assert build_rips(edges, 3).simplices == want


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_n=9, max_value=5), st.sampled_from([2, 3, 5, 7]))
def test_engine_matches_standard_reduction(d, p):
    diameter = int(d.max()) if d.shape[0] >= 2 else 0
    below_all = int(d[d > 0].min()) - 1 if diameter else 0
    for cap in (0, below_all, (below_all + diameter) // 2, diameter):
        cplx = matrix_rips(d, cap)
        result = reduce_with_basis(cplx, p)
        pairs, deaths, h0, cycles = standard_view(cplx, p)

        assert result.pairs == pairs
        # each dimension's columns as the standard reduction leaves them: a
        # column that is no death triangle and no H_0 death reduces to zero
        assert result.deaths == deaths
        # the forest walk gives each essential edge its V column, and the
        # edges left over are the H_0 deaths
        assert result.cycles == cycles
        assert h0_edges(cplx, result) == h0
        for edge, chain in result.cycles.items():
            assert max(chain) == edge
            assert chain_boundary(cplx, chain, p) == {}


@st.composite
def bar_sets(draw):
    """A horizon m and bars with birth <= m and death in (birth, m] or None."""
    m = draw(st.integers(0, 12))
    bars = []
    for _ in range(draw(st.integers(0, 8))):
        birth = draw(st.integers(0, m))
        death = draw(st.one_of(st.none(), st.integers(birth + 1, m + 1)))
        death = None if death == m + 1 else death
        bars.append(SnvBar(birth, death, 0, None, ()))
    return m, bars


@settings(max_examples=200, deadline=None)
@given(bar_sets())
def test_alive_counts_match_brute_force(m_and_bars):
    m, bars = m_and_bars
    assert alive_counts(bars, m) == [sum(b.alive_at(i) for b in bars) for i in range(m + 1)]


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_n=9, max_value=4), st.sampled_from([2, 3, 5, 7]))
def test_alive_counts_match_dense_betti(d, p):
    diameter = int(d.max()) if d.shape[0] >= 2 else 0
    barcode = barcode_h1(matrix_rips(d, diameter), p)
    for v in range(diameter + 1):
        assert count_alive(barcode, v) == betti1_bruteforce(d, v, p)


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
    cplx = matrix_rips(d, diameter)
    edge_simplices = edges_of(cplx)
    edges = [s.vertices for s in edge_simplices]
    edge_row = {e: r for r, e in enumerate(edges)}
    triangles = [pos for pos, s in enumerate(cplx.simplices) if s.dim == 2]

    # bar representatives, sums of triangle boundaries (cycles that die when
    # their youngest triangle enters) and arbitrary edge chains; coefficients
    # are any integers, not only residues, and ranks are sometimes NumPy's
    chains = [bar.representative for bar in barcode_h1(cplx, p).bars]
    coeff = st.integers(-2 * p, 2 * p)
    if triangles:
        for _ in range(data.draw(st.integers(0, 3))):
            picks = data.draw(st.lists(st.sampled_from(triangles), max_size=3))
            column = dense_boundaries(cplx, picks, edge_row, p)
            weights = [data.draw(coeff) for _ in picks]
            total = column @ np.array(weights, dtype=np.int64)
            chains.append({r: int(c) for r, c in enumerate(total) if c})
    if edges:
        for _ in range(data.draw(st.integers(0, 2))):
            picks = data.draw(st.lists(st.sampled_from(edges), max_size=4, unique=True))
            chains.append({edge_row[e]: data.draw(coeff) for e in picks})
    if data.draw(st.booleans()):
        chains = [{np.int64(r): np.int64(c) for r, c in chain.items()} for chain in chains]

    thresholds = list(range(diameter + 1))
    # a chain is tested from the value of its youngest edge with a nonzero
    # coefficient, and reads False below it
    starts = [
        max((edge_simplices[r].value for r, c in chain.items() if c % p), default=0)
        for chain in chains
    ]
    got = nonzero_sweep(cplx, chains, thresholds, p)
    for chain, start, row in zip(chains, starts, got):
        vector = np.zeros((len(edges), 1), dtype=np.int64)
        for r, c in chain.items():
            vector[r, 0] = c
        for v in thresholds:
            if v < start:
                assert not row[v]
                continue
            present = [t for t in triangles if cplx.simplices[t].value <= v]
            span = dense_boundaries(cplx, present, edge_row, p)
            raises = rank_mod_p(np.hstack((span, vector)), p) > rank_mod_p(span, p)
            assert row[v] == raises, (chain, v)


@st.composite
def zero_distance_groups(draw):
    """Point ids, a group and a time per point.  Each group's members are
    joined by a path of zero distances; other pairs inside a group may be
    zero or not, so merging must follow the path."""
    ids = draw(st.lists(st.text("abz019", min_size=1, max_size=3), min_size=1,
                        max_size=8, unique=True))
    group = draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
    times = draw(st.lists(st.integers(0, 5), min_size=len(ids), max_size=len(ids)))
    n = len(ids)
    dist = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            path = group[i] == group[j] and group[j] not in group[i + 1 : j]
            if not path:
                low = 0 if group[i] == group[j] else 1
                dist[i, j] = dist[j, i] = draw(st.integers(low, 2))
    return ids, group, times, dist


def expected_merge(ids, group, times):
    """Each group keeps its least id and smallest time.  Kept ids ascend once
    anything merged; with no merge the file order stays."""
    kept = {g: min(pid for pid, h in zip(ids, group) if h == g) for g in set(group)}
    merges = {pid: kept[g] for pid, g in zip(ids, group) if pid != kept[g]}
    labels = {
        kept[g]: min(t for t, h in zip(times, group) if h == g) for g in set(group)
    }
    return tuple(sorted(kept.values())) if merges else tuple(ids), merges, labels


def matrix_files(d: np.ndarray, times: list[int]) -> tuple[str, str]:
    """The lower-triangle matrix text and the time-vector text of ``d``."""
    rows = [" ".join(map(str, d[k, :k].tolist())) + "\n" for k in range(1, len(d))]
    return "".join(rows), "".join(f"{t}\n" for t in times)


@settings(max_examples=200, deadline=None)
@given(zero_distance_groups())
def test_parsers_keep_least_id_and_smallest_label_of_each_group(case):
    ids, group, times, dist = case
    # sequences: one distinct sequence per group, ids as drawn
    fasta = "".join(f">{pid}\n{'ACGT'[g] * 3}\n" for pid, g in zip(ids, group))
    meta = "id\ttime\n" + "".join(f"{pid}\t{t}\n" for pid, t in zip(ids, times))
    # matrix: ids p0, p1, ... in file order, zero distances along each group's path
    numbered = [f"p{k}" for k in range(len(ids))]
    for bundle, names in (
        (parse_sequences(fasta, meta), ids),
        (parse_matrix(*matrix_files(dist, times)), numbered),
    ):
        point_ids, merges, labels = expected_merge(names, group, times)
        assert bundle.space.point_ids == point_ids
        assert bundle.merges == merges
        assert bundle.labels.by_id == labels
        assert bundle.labels.m == max(times)
        assert len(bundle.notes) == len(merges)


@st.composite
def semimetrics_with_zero_chains(draw):
    """Distinct ids and a symmetric matrix with zero diagonal whose zero
    entries may form chains: a, b and b, c at distance 0 while a, c is not."""
    ids = draw(st.lists(st.text("ap019", min_size=1, max_size=3), max_size=10, unique=True))
    n = len(ids)
    zeros = draw(st.integers(0, 4))
    cells = st.sampled_from([0] * zeros + [1, 2, 3, 5, 8])
    d = np.zeros((n, n), dtype=np.int64)
    d[np.triu_indices(n, k=1)] = draw(
        st.lists(cells, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    chain = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
    for a, b in zip(chain, chain[1:]):
        d[min(a, b), max(a, b)] = 0
    return ids, d + d.T


@settings(max_examples=300, deadline=None)
@given(semimetrics_with_zero_chains())
def test_dedupe_matches_brute_force(case):
    ids, d = case
    got_ids, slot, got_merges = dedupe_zero_distance(ids, group_zero_distance(d))
    got_matrix = merge_distances(d, slot)
    want_ids, want_matrix, want_merges = brute_force_dedupe(ids, d)
    assert got_ids == want_ids
    assert got_matrix.dtype == np.int64
    assert np.array_equal(got_matrix, want_matrix)
    assert list(got_merges.items()) == list(want_merges.items())


def partition(labels) -> list[int]:
    """Each point's group named by its first member: equal lists, equal groups."""
    first: dict[int, int] = {}
    return [first.setdefault(label, k) for k, label in enumerate(labels)]


@st.composite
def graphs_in_rank_order(draw):
    """(pairs, n): distinct pairs of points 0..n-1, either end first, in a
    random order.  Some graphs are arbitrary, with isolated points and
    several components; others are a path through all points, longer than
    twice the peel bound, listed shuffled, with a few more pairs."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 16))
        chosen = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(chosen), unique=True)) if chosen else []
    else:
        n = draw(st.integers(2 * _PEEL_ROUNDS + 2, 2 * _PEEL_ROUNDS + 40))
        order = draw(st.permutations(range(n)))
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
        chosen = sorted({tuple(sorted(pair)) for pair in [*zip(order, order[1:]), *extra]
                         if pair[0] != pair[1]})
    pairs = [pair[:: draw(st.sampled_from([1, -1]))] for pair in draw(st.permutations(chosen))]
    return pairs, n


@settings(max_examples=300, deadline=None)
@given(graphs_in_rank_order())
def test_joins_marks_the_union_find_edges_and_its_groups(case):
    pairs, n = case
    joined, label = joins(np.array(pairs, dtype=np.int64).reshape(-1, 2), n)
    want_joined, want_root = reference_joins(pairs, n)
    assert joined.tolist() == want_joined
    assert partition(label.tolist()) == partition(want_root)


@settings(max_examples=200, deadline=None)
@given(semimetrics_with_zero_chains())
def test_zero_distance_groups_are_the_union_find_groups(case):
    _, d = case
    zero = np.argwhere(np.triu(d == 0, k=1)).tolist()
    assert partition(group_zero_distance(d).tolist()) == partition(
        reference_joins(zero, len(d))[1]
    )


def reads_like_the_reference(text: str, n: int) -> bool:
    """Whether ``parse_matrix`` reads ``text`` with n time entries, checking
    that it gives the reference reader's matrix, after the brute-force merge,
    or the reference's InputError text."""
    times = "0\n" * n
    try:
        full = read_lower_triangle(text, n)
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            parse_matrix(text, times)
        assert str(caught.value) == str(exc)
        return False
    ids, matrix, _ = brute_force_dedupe([f"p{i}" for i in range(n)], full)
    bundle = parse_matrix(text, times)
    assert bundle.space.point_ids == ids
    assert np.array_equal(bundle.space.dist, matrix)
    return True


MATRIX_CELLS = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["x", "+2", "1.5", "-0", "1_0", "\u0663", str(2**63 - 1), str(2**63)]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            *[st.lists(MATRIX_CELLS, min_size=k, max_size=k) for k in range(1, n)]
        )
    )
)
def test_parse_matrix_reports_the_first_bad_cell(rows):
    reads_like_the_reference("".join(" ".join(cells) + "\n" for cells in rows), len(rows) + 1)


# Matrix cells: digits with leading zeros, widths around the byte reader's
# 18-digit limit and around 256 (a width kept in 8 bits would wrap to 0 or 1),
# and now and then a cell that only ``int`` reads or none does
DIGIT_CELLS = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, 99).map(lambda v: f"00{v}"),
    st.sampled_from(
        ["9" * 18, "0" * 17 + "5", str(10**18), str(INT64_MAX), str(INT64_MAX + 1)]
        + ["0" * 19 + "7", "1" * 20, "1" * 256, "9" * 257, "0" * 256 + "3"]
    ),
)
INT_ONLY_CELLS = st.sampled_from(["+1", "1_0", "\u0663", "-1", "x"])
SPACES = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def lower_triangle_files(draw):
    """A lower-triangle text and its point count n.  It may hold one line with
    a cell too many or too few, one line too many or too few, blank and
    whitespace-only lines, runs of spaces and tabs, CRLF line ends and no
    final newline."""
    n = draw(st.integers(1, 6))
    size = max(0, n - 1 + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    rows = [[draw(DIGIT_CELLS) for _ in range(k)] for k in range(1, size + 1)]
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append(draw(DIGIT_CELLS))
        elif len(row) > 1:
            row.pop()
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(INT_ONLY_CELLS)
    lines = []
    for cells in rows:
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=2))
        line = draw(st.sampled_from(["", " ", "\t"]))
        for cell in cells:
            line += cell + draw(SPACES)
        lines.append(line.rstrip(" \t") if draw(st.booleans()) else line)
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text, n


@settings(max_examples=400, deadline=None)
@given(lower_triangle_files(), st.sampled_from([1, 2, 7, 1 << 20]))
def test_parse_matrix_reads_what_the_reference_reader_reads(case, block):
    """The same matrix as one ``int`` per cell, or the same InputError text;
    a file of digits, spaces, tabs and newlines with no cell wider than 18
    digits is read from its bytes alone, in blocks of any size."""
    text, n = case
    with mock.patch.object(snvrips.io, "_BLOCK_CHARS", block), mock.patch.object(
        snvrips.io, "_read_cells", wraps=snvrips.io._read_cells
    ) as cell_reader:
        parsed = reads_like_the_reference(text, n)
    digits_only = set(text) <= set("0123456789 \t\n")
    byte_readable = digits_only and max(map(len, text.split()), default=0) <= 18
    assert cell_reader.called == (not parsed or not byte_readable)


# Parser input: mostly well-formed files whose cells are sometimes replaced
# by negatives, values at or beyond 2^63, signs, ids, headers or stray
# characters, plus free text built from the same pieces.
ODD_CELLS = st.one_of(
    st.sampled_from(["", "-", "+", "-1", "+3", ",", ">", "id", "time", "s1", "A"]),
    st.integers(2**63 - 1, 2**64).map(str),
    st.text(max_size=2),
)
TEXTS = st.lists(
    st.one_of(ODD_CELLS, st.sampled_from([" ", "\t", ",", "\n", "\r\n", "id\ttime\n"])),
    max_size=20,
).map("".join)
HORIZONS = st.sampled_from([None, 0, 2**63])
COMMANDS = st.sampled_from(["classical", "deformed", "compare", "oracle"])


def cell(draw, valid):
    return draw(ODD_CELLS if draw(st.integers(0, 9)) == 0 else valid)


def lines(draw, rows, seps=(" ", "\t")):
    """Rows of cells joined with a drawn separator and line end; a row may be
    dropped or repeated."""
    sep = draw(st.sampled_from(seps))
    text = [sep.join(row) for row in rows]
    if text and draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(text) - 1))
        text[k:k + 1] = draw(st.sampled_from([[], [text[k], text[k]]]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(text)


@st.composite
def matrix_inputs(draw):
    n = draw(st.integers(1, 5))
    distance, time = st.integers(0, 4).map(str), st.integers(0, 3).map(str)
    rows = [[cell(draw, distance) for _ in range(k)] for k in range(1, n)]
    times = [[cell(draw, time)] for _ in range(n)]
    return lines(draw, rows), lines(draw, times)


@st.composite
def sequence_inputs(draw):
    pool = st.sampled_from(["s1", "s2", "s3", "s4"])
    ids = draw(st.lists(pool, min_size=1, unique=True))
    letters = st.sampled_from(["ACGT", "ACGA", "AGGA", "ACG"])
    fasta = []
    for rid in ids:
        fasta += [[">" + cell(draw, st.just(rid))], [cell(draw, letters)]]
    header = draw(st.sampled_from([["id", "time"], ["time", "id"], ["id", "date"]]))
    time = st.integers(0, 3).map(str)
    rows = [[cell(draw, st.just(rid)), cell(draw, time)] for rid in ids]
    table = [header] + [row if header[0] == "id" else row[::-1] for row in rows]
    return lines(draw, fasta), lines(draw, table, seps=("\t", ","))


def check_parser_and_cli(parse, flags, first, second, horizon, command):
    """``parse`` either succeeds or raises InputError, and ``cli.main`` on the
    same text in files exits 1 when parsing failed.  A parsed input may still
    be rejected later (a deformation overflowing int64), but never with an
    exception escaping ``main``."""
    try:
        parse(first, second).labels.extended(horizon)
        parsed = True
    except InputError:
        parsed = False
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("first", "second")]
        for path, text in zip(paths, (first, second)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        # every subcommand rejects a time label near 2^63 before looping over steps
        argv = [command, flags[0], paths[0], flags[1], paths[1]]
        if horizon is not None:
            argv += ["--horizon", str(horizon)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(argv)
    assert code in ((0, 1) if parsed else (1,))


def test_a_byte_order_mark_is_dropped_by_the_parsers_as_by_the_cli():
    check_parser_and_cli(
        parse_matrix, ("--matrix", "--times"), "\ufeff1\n", "0\n1\n", None, "deformed"
    )
    fasta, meta = "\ufeff>s1\nAC\n", "\ufeffid\ttime\ns1\t0\n"
    check_parser_and_cli(
        parse_sequences, ("--sequences", "--metadata"), fasta, meta, None, "deformed"
    )
    assert parse_matrix("\ufeff1\n", "\ufeff0\n1\n").space.dist.tolist() == [[0, 1], [1, 0]]
    assert parse_sequences(fasta, meta).space.point_ids == ("s1",)


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrix_inputs(), st.tuples(TEXTS, TEXTS)), HORIZONS, COMMANDS)
def test_parse_matrix_raises_only_input_error(texts, horizon, command):
    check_parser_and_cli(parse_matrix, ("--matrix", "--times"), *texts, horizon, command)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sequence_inputs(), st.tuples(TEXTS, TEXTS)), HORIZONS, COMMANDS)
def test_parse_sequences_raises_only_input_error(texts, horizon, command):
    check_parser_and_cli(
        parse_sequences, ("--sequences", "--metadata"), *texts, horizon, command
    )


@st.composite
def labelled_spaces(draw, m: int):
    """4 to 9 points at distances 1-2, so that the scale-1 graph is a random
    graph with cycles, each labelled with a step in 0..m."""
    d = draw(symmetric_matrices(max_n=9, max_value=2, min_n=4))
    ids = tuple(f"p{i}" for i in range(d.shape[0]))
    times = draw(st.lists(st.integers(0, m), min_size=len(ids), max_size=len(ids)))
    return DistanceSpace(ids, d), TimeLabels(m, dict(zip(ids, times)))


# from m = 9 or 99 every extension moves N = time_offset_base up a power of ten
@pytest.mark.parametrize("m", [0, 2, 9, 99])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_extending_the_horizon_appends_copies_of_the_last_count(m, data):
    space, labels = data.draw(labelled_spaces(m))
    k = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    longer = TimeLabels(m + k, labels.by_id)
    for run in (deformed_snv, lambda *args: classical_snv(*args, cap=1)):
        counts = run(space, labels, p).per_step_counts
        assert run(space, longer, p).per_step_counts == counts + counts[-1:] * k
    verdict = verify_correspondence(
        classical_snv(space, longer, p, cap=1), deformed_snv(space, longer, p)
    )
    assert verdict.discrepancies == []


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deformed_classical_and_oracle_agree_per_step(p, data):
    space, labels = data.draw(labelled_spaces(data.draw(st.integers(0, 4))))
    oracle = snv_counts_oracle(space, labels, p)
    assert deformed_snv(space, labels, p).per_step_counts == oracle
    assert classical_snv(space, labels, p, cap=1).per_step_counts == oracle


def step_pairs(report) -> list[tuple[int, int]]:
    """The (birth_step, death_step) multiset, -1 for a class alive at m."""
    return sorted((b.birth_step, b.death_step or -1) for b in report.bars)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_zero_distance_copy_leaves_the_counts_unchanged(data):
    # the copy's time lies between its original's label and the largest
    # label, so the merge keeps the original's label and the horizon stays
    space, labels = data.draw(labelled_spaces(data.draw(st.integers(0, 4))))
    p = data.draw(st.sampled_from([2, 3]))
    times = labels.vector(space.point_ids).tolist()
    n = len(times)
    k = data.draw(st.integers(0, n - 1))
    at = data.draw(st.integers(0, n))
    source = list(range(n))
    source.insert(at, k)
    copied = times[:]
    copied.insert(at, data.draw(st.integers(times[k], max(times))))

    plain = parse_matrix(*matrix_files(space.dist, times))
    merged = parse_matrix(*matrix_files(space.dist[np.ix_(source, source)], copied))
    assert len(merged.merges) == 1 and merged.labels.m == plain.labels.m
    assert sorted(merged.labels.by_id.values()) == sorted(plain.labels.by_id.values())
    want = deformed_snv(plain.space, plain.labels, p)
    got = deformed_snv(merged.space, merged.labels, p)
    assert got.per_step_counts == want.per_step_counts
    assert step_pairs(got) == step_pairs(want)
    classical = classical_snv(merged.space, merged.labels, p, cap=1)
    assert verify_correspondence(classical, got).discrepancies == []


LETTERS = "ACGT\u00e9"  # one letter outside ASCII, so the codes are uint32


@st.composite
def sequence_sets(draw):
    """(id, sequence, time) records of length 1-6 over a few of LETTERS, some
    of them repeated.  Ids s0, s1, ... sort differently as strings (s10
    before s2) and come in a shuffled file order."""
    length = draw(st.integers(1, 6))
    # few letters make unit-distance squares, and so cycles, likely
    letters = draw(st.sampled_from(["A\u00e9", "AC", "AC\u00e9", "ACGT", LETTERS]))
    word = st.text(letters, min_size=length, max_size=length)
    distinct = draw(st.lists(word, min_size=1, max_size=12))
    seqs = distinct + draw(st.lists(st.sampled_from(distinct), max_size=4))
    n = len(seqs)
    times = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return [(f"s{k}", seqs[k], times[k]) for k in draw(st.permutations(range(n)))]


@st.composite
def star_sets(draw):
    """(id, sequence, time) records that each differ from one random root of
    length 8-40 in 1-3 positions; the root itself is not a record.  Most rows
    share a half with the root, so the pigeonhole buckets are crowded."""
    length = draw(st.integers(8, 40))
    root = draw(st.text(LETTERS, min_size=length, max_size=length))
    places = st.lists(st.integers(0, length - 1), min_size=1, max_size=3, unique=True)
    records = []
    for k in range(draw(st.integers(1, 12))):
        seq = list(root)
        for at in draw(places):
            seq[at] = draw(st.sampled_from([c for c in LETTERS if c != root[at]]))
        records.append((f"s{k}", "".join(seq), draw(st.integers(0, 3))))
    return records


def check_default_cap_is_the_dense_route(flags, texts, m, p):
    """``deformed`` (the lower-star route) prints the same bytes as
    ``deformed --cap 2N-1`` (an explicit cap)."""
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["deformed", "--prime", str(p)]
        for flag, text in zip(flags, texts):
            path = os.path.join(tmp, flag.lstrip("-"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv += [flag, path]
        for cap in ([], ["--cap", str(2 * time_offset_base(m) - 1)]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv + cap) == 0
            outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(sequence_sets(), star_sets()), st.sampled_from([2, 3]))
def test_pigeonhole_unit_edges_and_the_lower_star_route(records, p):
    space, _ = build_space_from_sequences([(rid, seq) for rid, seq, _ in records])
    sequence = {rid: seq for rid, seq, _ in records}
    kept = [sequence[pid] for pid in space.point_ids]
    h = np.array([[hamming(a, b) for b in kept] for a in kept])
    want = np.nonzero(np.triu(h == 1))
    # a tiny block makes every chunked kernel take many chunks
    for block in (snvrips.distance._BLOCK, 8):
        with mock.patch.object(snvrips.distance, "_BLOCK", block):
            i, j, dist = space.edges(1)
            for got, expected in zip((i, j), want):
                assert got.dtype == np.int64
                assert np.array_equal(got, expected)
            assert np.array_equal(dist, np.ones(i.size, dtype=np.int64))
            assert np.array_equal(snvrips.distance.hamming_matrix(space.codes), h)
            assert space.diameter() == h.max()
    fasta = "".join(f">{rid}\n{seq}\n" for rid, seq, _ in records)
    meta = "id\ttime\n" + "".join(f"{rid}\t{t}\n" for rid, _, t in records)
    m = max(t for _, _, t in records)
    check_default_cap_is_the_dense_route(("--sequences", "--metadata"), (fasta, meta), m, p)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_n=9, max_value=3, min_n=1), st.data())
def test_matrix_default_cap_prints_the_dense_route_bytes(d, data):
    n = d.shape[0]
    times = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    p = data.draw(st.sampled_from([2, 3]))
    texts = matrix_files(d, times)
    check_default_cap_is_the_dense_route(("--matrix", "--times"), texts, max(times), p)


def deformed_reference(space, labels, p, cap):
    """The cap, bars and chains of ``deformed_snv``, decoded off the clique
    complex of the whole deformed matrix."""
    scaled = deform(space, labels)
    schedule = ScaleSchedule(labels.m)
    cap = int(scaled.max(initial=0)) if cap == "full" else cap
    cplx = matrix_rips(scaled, cap)
    bars, chains = [], []
    for bar in barcode_h1(cplx, p).bars:
        birth = schedule.step_of(bar.birth_value)
        if birth is None:
            continue
        death = None if bar.death_value is None else schedule.step_of(bar.death_value)
        representative = ids_of_chain(cplx, space.point_ids, bar.representative)
        bars.append(SnvBar(birth, death, bar.birth_value, bar.death_value, representative))
        chains.append(bar.representative)
    return cap, bars, chains


@settings(max_examples=100, deadline=None)
@given(sequence_sets(), st.sampled_from([2, 3]), st.data())
def test_one_edge_list_builds_every_complex(records, p, data):
    # the same records as sequences and as their Hamming matrix, where each
    # repeated sequence is a zero-distance copy
    fasta = "".join(f">{rid}\n{seq}\n" for rid, seq, _ in records)
    meta = "id\ttime\n" + "".join(f"{rid}\t{t}\n" for rid, _, t in records)
    full = np.array([[hamming(a, b) for _, b, _ in records] for _, a, _ in records])
    times = [t for _, _, t in records]
    sequence = {rid: seq for rid, seq, _ in records}
    sequence.update((f"p{k}", seq) for k, (_, seq, _) in enumerate(records))
    length = len(records[0][1])
    for bundle in (parse_sequences(fasta, meta), parse_matrix(*matrix_files(full, times))):
        space, labels = bundle.space, bundle.labels
        kept = [sequence[pid] for pid in space.point_ids]
        h = np.array([[hamming(a, b) for b in kept] for a in kept])
        reference = DistanceSpace(space.point_ids, h)
        for bound in (0, 1, 2, length):
            i, j, dist = space.edges(bound)
            want = np.nonzero(np.triu(h <= bound, 1))
            assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])
            assert np.array_equal(dist, h[want])
        for cap in (1, 2, "full"):
            got = classical_snv(space, labels, p, cap)
            step_cap = None if cap == "full" else cap
            steps = [
                classical_step(reference, labels, i, p, step_cap)
                for i in range(labels.m + 1)
            ]
            assert got.caps_by_step == [c for c, _ in steps]
            assert got.per_step_counts == [len(bars) for _, bars in steps]
            assert got.bars == [bar for _, bars in steps for bar in bars]
        base, m = time_offset_base(labels.m), labels.m
        drawn = data.draw(st.integers(base + m, (length + 1) * base + m))
        for cap in (base + m, 2 * base - 1, 2 * base, drawn, "full"):
            got = deformed_snv(space, labels, p, cap)
            assert (got.cap, got.bars, got.chains) == deformed_reference(
                reference, labels, p, cap
            )


@st.composite
def forests_with_closing_edges(draw):
    """(ends, cleared, essential, n): a forest on n points, isolated ones
    among them, whose edges are cleared; edges that close a cycle in one of
    its trees, which are essential, youngest first; and other edges, which
    are neither.  Vertices are shuffled, so trees interleave in vertex order,
    and edges come in a random rank order, each listed higher end first.
    Most forests are small, with pendant trees; some are one path longer
    than twice the peel bound, so that a peel of every round leaves pendant
    vertices behind."""
    path = not draw(st.integers(0, 4))
    long = st.integers(2 * _PEEL_ROUNDS + 2, 2 * _PEEL_ROUNDS + 30)
    n = draw(long if path else st.integers(1, 14))
    label = draw(st.permutations(range(n)))
    forest = set()
    for v in range(1, n):
        u = v - 1 if path else draw(st.one_of(st.none(), st.integers(0, v - 1)))
        if u is not None:
            forest.add(tuple(sorted((label[u], label[v]))))
    root = reference_joins(sorted(forest), n)[1]
    others = [pair for pair in itertools.combinations(range(n), 2) if pair not in forest]
    closing = [pair for pair in others if root[pair[0]] == root[pair[1]]]
    if closing:
        closing = draw(st.lists(st.sampled_from(closing), unique=True, min_size=int(path)))
    rest = [pair for pair in others if pair not in closing]
    rest = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
    edges = draw(st.permutations(sorted(forest) + closing + rest))
    ends = [[b, a] for a, b in edges]
    cleared = [edge in forest for edge in edges]
    essential = sorted((edges.index(edge) for edge in closing), reverse=True)
    return ends, cleared, essential, n


@settings(max_examples=300, deadline=None)
@given(forests_with_closing_edges(), st.sampled_from([2, 3, 5]))
def test_forest_cycles_visit_only_the_forest_and_find_the_same_cycles(case, p):
    # the same cycles as a rooting of every point.  With no pendant vertex
    # nothing is peeled and every tree keeps the reference's root, so each
    # cycle lists its ranks in the same order; a peel may move a root, which
    # reorders a cycle's ranks but changes no rank or coefficient.
    ends, cleared, essential, n = case
    faces = np.array(ends, dtype=np.int64).reshape(-1, 2)
    got = _forest_cycles(faces, cleared, essential, n, p)
    want = reference_forest_cycles(ends, cleared, essential, n, p)
    degree = np.bincount(faces[np.array(cleared, dtype=bool)].ravel(), minlength=n)
    degree += np.bincount(faces[essential].ravel(), minlength=n)
    assert list(got) == list(want)
    if (degree == 1).any():
        assert got == want
    else:
        assert [(e, list(c.items())) for e, c in got.items()] == [
            (e, list(c.items())) for e, c in want.items()
        ]


@st.composite
def labelled_inputs(draw):
    """A matrix space at distances 1-3 or a star-set sequence space, with
    labels that may leave the first steps empty and a horizon that may run
    past the last label."""
    if draw(st.booleans()):
        d = draw(symmetric_matrices(max_n=9, max_value=3, min_n=1))
        space = DistanceSpace(tuple(f"p{i}" for i in range(len(d))), d)
    else:
        records = draw(star_sets())
        fasta = "".join(f">{rid}\n{seq}\n" for rid, seq, _ in records)
        meta = "id\ttime\n" + "".join(f"{rid}\t0\n" for rid, _, _ in records)
        space = parse_sequences(fasta, meta).space
    first = draw(st.integers(0, 2))
    times = draw(st.lists(st.integers(first, first + 3), min_size=space.n, max_size=space.n))
    m = max(times) + draw(st.integers(0, 2))
    return space, TimeLabels(m, dict(zip(space.point_ids, times)))


@settings(max_examples=150, deadline=None)
@given(labelled_inputs(), st.sampled_from([2, 3, 5]))
def test_classical_counts_are_the_classical_reports_counts(case, p):
    space, labels = case
    for cap in (1, 2, "full"):
        counts = classical_counts(space, labels, p, cap)
        assert counts == classical_snv(space, labels, p, cap).per_step_counts
        if cap == 1:
            assert counts == snv_counts_oracle(space, labels, p)
