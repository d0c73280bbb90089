import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import snvrips.io
from snvrips import (
    InputError,
    classical_snv,
    deformed_snv,
    emit_report,
    parse_matrix,
    parse_sequences,
    stability_report,
    verify_correspondence,
)
from snvrips.io import to_json

from helpers import apex_square, square_labels, square_space

FASTA = """\
>s1
ACGT
>s2
ACGA
>s3
AGGA
"""

META = "id\ttime\ns1\t0\ns2\t0\ns3\t1\n"


def test_parse_sequences_happy_path():
    bundle = parse_sequences(FASTA, META)
    assert bundle.space.point_ids == ("s1", "s2", "s3")
    assert bundle.labels.m == 1
    assert bundle.labels.by_id == {"s1": 0, "s2": 0, "s3": 1}
    assert bundle.space.dist[0, 1] == 1
    assert bundle.space.dist[0, 2] == 2
    assert bundle.merges == {}


def test_parse_sequences_comma_metadata_and_multiline_records():
    fasta = ">a\nAC\nGT\n>b\nACGA\n"
    meta = "id,time\na,0\nb,2\n"
    bundle = parse_sequences(fasta, meta)
    assert bundle.space.dist[0, 1] == 1  # chunks joined before comparison
    assert bundle.labels.m == 2


def test_parse_sequences_merges_identical_records():
    fasta = ">s1\nACGT\n>s2\nACGT\n>s3\nAAAA\n"
    meta = "id\ttime\ns1\t2\ns2\t0\ns3\t1\n"
    bundle = parse_sequences(fasta, meta)
    assert bundle.space.point_ids == ("s1", "s3")
    assert bundle.merges == {"s2": "s1"}
    assert bundle.labels.of("s1") == 0  # smallest time in the merged group
    assert any("merged s2 into s1" in note for note in bundle.notes)


def test_parse_sequences_horizon():
    labels = parse_sequences(FASTA, META).labels
    assert labels.m == 1  # the largest time in the metadata
    assert labels.extended(5).m == 5
    with pytest.raises(InputError, match="only extend"):
        labels.extended(0)
    # a horizon given as text is bad input, not a comparison of str with int
    with pytest.raises(InputError, match="horizon must be an integer, got '5'"):
        parse_matrix("1\n", "0\n1\n").labels.extended("5")


def test_parse_sequences_errors():
    with pytest.raises(InputError, match="no metadata row for sequence id 's3'"):
        parse_sequences(FASTA, "id\ttime\ns1\t0\ns2\t0\n")
    with pytest.raises(InputError, match="unknown sequence id 'ghost'"):
        parse_sequences(FASTA, META + "ghost\t1\n")
    with pytest.raises(InputError, match="duplicate metadata row"):
        parse_sequences(FASTA, META + "s1\t1\n")
    with pytest.raises(InputError, match="not an integer"):
        parse_sequences(FASTA, "id\ttime\ns1\tzero\ns2\t0\ns3\t1\n")
    with pytest.raises(InputError, match="negative time"):
        parse_sequences(FASTA, "id\ttime\ns1\t-1\ns2\t0\ns3\t1\n")
    with pytest.raises(InputError, match="'id' and 'time'"):
        parse_sequences(FASTA, "name\tdate\ns1\t0\n")
    with pytest.raises(InputError, match="equal length"):
        parse_sequences(">a\nACG\n>b\nAC\n", "id\ttime\na\t0\nb\t0\n")
    with pytest.raises(InputError, match="before any '>'"):
        parse_sequences("ACGT\n", META)
    with pytest.raises(InputError, match="empty sequence"):
        parse_sequences(">a\n>b\nACGT\n", "id\ttime\na\t0\nb\t0\n")
    with pytest.raises(InputError, match="header without an id"):
        parse_sequences(">\nACGT\n", META)
    with pytest.raises(InputError, match="no sequence records"):
        parse_sequences("", META)


def test_parse_errors_name_the_line_of_the_file():
    # blank lines are skipped, but still counted
    with pytest.raises(InputError, match="metadata line 5: time 'z'"):
        parse_sequences(FASTA, "id\ttime\n\n\ns1\t0\ns2\tz\ns3\t1\n")
    with pytest.raises(InputError, match="metadata line 4: expected 2 columns"):
        parse_sequences(FASTA, "id\ttime\n\ns1\t0\ns2\n")
    with pytest.raises(InputError, match="times line 4: 'z'"):
        parse_matrix("1\n", "0\n\n\nz\n")


def test_parse_matrix_unit_triangle():
    bundle = parse_matrix("1\n1 1\n", "0\n0\n0\n")
    assert bundle.space.point_ids == ("p0", "p1", "p2")
    assert np.array_equal(
        bundle.space.dist, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    )
    assert bundle.labels.m == 0


def test_parse_matrix_zero_entry_merges():
    bundle = parse_matrix("0\n2 2\n", "3\n1\n0\n")
    assert bundle.space.point_ids == ("p0", "p2")
    assert bundle.merges == {"p1": "p0"}
    assert bundle.labels.of("p0") == 1  # smaller of the merged labels
    assert bundle.labels.m == 3  # horizon keeps the original maximum
    assert any("merged p1 into p0" in note for note in bundle.notes)


def test_parse_matrix_errors():
    with pytest.raises(InputError, match="2 rows but 4 time entries"):
        parse_matrix("1\n1 1\n", "0\n0\n0\n0\n")
    with pytest.raises(InputError, match="expected 2 entries, got 1"):
        parse_matrix("1\n1\n", "0\n0\n0\n")
    with pytest.raises(InputError, match="negative distance"):
        parse_matrix("-1\n", "0\n0\n")
    with pytest.raises(InputError, match="not an integer"):
        parse_matrix("x\n", "0\n0\n")
    with pytest.raises(InputError, match="times line 2.*not an integer"):
        parse_matrix("1\n", "0\nlater\n")
    with pytest.raises(InputError, match="negative time"):
        parse_matrix("1\n", "0\n-2\n")
    with pytest.raises(InputError, match="time vector is empty"):
        parse_matrix("1\n", "")


def test_parse_matrix_names_the_first_bad_cell_in_line_order():
    # a line is checked cell by cell: the first bad cell decides the message
    times = "0\n0\n0\n"
    with pytest.raises(InputError, match="line 2: negative distance -1"):
        parse_matrix("1\n-1 x\n", times)
    with pytest.raises(InputError, match="line 2: 'x' is not an integer"):
        parse_matrix("1\nx -1\n", times)
    with pytest.raises(InputError, match="line 2: 'x' is not an integer"):
        parse_matrix(f"1\nx {2**63}\n", times)
    with pytest.raises(InputError, match="line 2: negative distance -1"):
        parse_matrix(f"1\n-1 {2**63}\n", times)
    with pytest.raises(InputError, match=f"line 2: distance {2**63} exceeds int64"):
        parse_matrix(f"1\n{2**63} x\n", times)
    # lines are checked in order, each for its length before its cells
    with pytest.raises(InputError, match="line 1: negative distance -1"):
        parse_matrix("-1\nx x\n", times)
    with pytest.raises(InputError, match="line 2: expected 2 entries, got 1"):
        parse_matrix("1\nx\n", times)


def test_parse_matrix_names_a_bad_cell_before_a_later_wrong_count():
    # every cell is converted at once; the first error in line order is named
    times = "0\n" * 5
    with pytest.raises(InputError, match="line 2: 'x' is not an integer"):
        parse_matrix("1\n1 x\n1 1 1\n1 1\n", times)
    with pytest.raises(InputError, match=f"line 2: distance {2**63} exceeds int64"):
        parse_matrix(f"1\n1 {2**63}\n1 1 1\n1 1\n", times)
    with pytest.raises(InputError, match="line 4: expected 4 entries, got 2"):
        parse_matrix("1\n1 1\n1 1 1\n1 1\n", times)


def test_a_time_vector_far_longer_than_the_matrix_is_a_row_count_error():
    # 200,000 points would need a 320 GB matrix: the row count is named first
    with pytest.raises(InputError, match="1 rows but 200000 time entries need 199999"):
        parse_matrix("1\n", "0\n" * 200_000)


def test_parse_matrix_rejects_entries_beyond_int64():
    with pytest.raises(InputError, match="exceeds int64"):
        parse_matrix(f"{2**63}\n", "0\n1\n")
    assert parse_matrix(f"{2**63 - 1}\n", "0\n1\n").space.diameter() == 2**63 - 1
    # cells 256 and 257 digits wide: a width kept modulo 256 would read them
    # as their last 0 or 1 digits
    for cell in ("1" * 256, "9" * 257):
        with pytest.raises(InputError, match="exceeds int64"):
            parse_matrix(f"{cell}\n", "0\n1\n")
    assert parse_matrix("0" * 256 + "7\n", "0\n1\n").space.diameter() == 7


def test_emit_classical_square_json():
    report = classical_snv(square_space(), square_labels())
    text = emit_report(report, "json")
    doc = json.loads(text)
    assert doc["mode"] == "classical"
    assert doc["per_step_counts"] == [1]
    assert doc["point_ids"] == ["a", "b", "c", "d"]
    assert len(doc["bars"]) == 1
    rep = doc["bars"][0]["representative"]
    assert sorted(edge[:2] for edge in rep) == [
        ["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"]
    ]
    assert doc["bars"][0]["birth_value"] == 1
    assert doc["bars"][0]["death_value"] == 2


def test_emitted_bars_carry_both_views():
    space, labels = apex_square()
    doc = json.loads(emit_report(deformed_snv(space, labels)))
    bar = doc["bars"][0]
    # step-indexed and scaled-value fields both present on every bar
    assert bar["birth_step"] == 0 and bar["death_step"] == 1
    assert bar["birth_value"] == 10 and bar["death_value"] == 11
    assert bar["alive_through_horizon"] is False


def test_emit_is_byte_stable():
    space, labels = apex_square()
    first = emit_report(deformed_snv(space, labels), "json")
    second = emit_report(deformed_snv(space, labels), "json")
    assert first == second
    cl = emit_report(classical_snv(space, labels), "json")
    assert cl == emit_report(classical_snv(space, labels), "json")


def test_emit_correspondence():
    space, labels = apex_square()
    verdict = verify_correspondence(
        classical_snv(space, labels), deformed_snv(space, labels)
    )
    doc = json.loads(emit_report(verdict))
    assert doc["mode"] == "correspondence"
    assert doc["discrepancies"] == []
    assert doc["matched_deaths"] == [[0, 1]]
    tsv = emit_report(verdict, "tsv")
    assert tsv == "0\t1\n1\t1\ndiscrepancies\t0\n"


def test_emit_tsv_summary():
    space, labels = apex_square()
    assert emit_report(classical_snv(space, labels), "tsv") == "0\t1\n1\t0\n"


def test_emit_stability_nested_and_standalone():
    space, labels = apex_square()
    report = deformed_snv(space, labels)
    stab = stability_report(report)
    doc = json.loads(emit_report(report, "json", stability=stab))
    assert doc["stability"]["ok"] is True
    assert doc["stability"]["rows"][0]["member_by_step"] == [True, False]
    alone = json.loads(emit_report(stab))
    assert alone["mode"] == "stability"
    tsv = emit_report(stab, "tsv")
    assert tsv == "0\t0\t0\nviolations\t0\n"


def test_emit_rejects_unknown_formats_and_types():
    space, labels = apex_square()
    report = classical_snv(space, labels)
    with pytest.raises(InputError, match="unknown output format"):
        emit_report(report, "xml")
    with pytest.raises(InputError, match="cannot serialize"):
        emit_report({"not": "a report"})


def test_parse_then_emit_round_trip_is_stable():
    bundle = parse_matrix("1\n2 1\n1 2 1\n", "0\n0\n1\n1\n")
    first = emit_report(deformed_snv(bundle.space, bundle.labels))
    second = emit_report(
        deformed_snv(
            parse_matrix("1\n2 1\n1 2 1\n", "0\n0\n1\n1\n").space,
            parse_matrix("1\n2 1\n1 2 1\n", "0\n0\n1\n1\n").labels,
        )
    )
    assert first == second


# ASCII, astral and other non-ASCII characters, a lone surrogate, quotes,
# backslashes and control characters
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.characters(min_codepoint=0x10000),
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u2028\ud800'),
    ),
    max_size=6,
)
_INT = st.one_of(st.integers(), st.sampled_from([2**63, -(2**63) - 1, 10**30]))
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.sampled_from([True, 1, False, 0]), _INT, st.floats(), _TEXT
)
# a representative edge, also with a coefficient that is a bool
_EDGE = st.tuples(_TEXT, _TEXT, st.one_of(_INT, st.booleans()))


def _documents(leaves):
    base = st.one_of(
        leaves, _EDGE, st.just([True, 1, 0, False]), st.just([]), st.just({}), st.just(())
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(_TEXT, inner, max_size=4),
        ),
        max_leaves=24,
    )


@given(_documents(_SCALAR))
def test_writer_matches_json_dumps(doc):
    expected = json.dumps(doc, indent=2)
    assert to_json(doc) == expected
    with mock.patch.object(snvrips.io, "_SLICE", 2):  # lists of several slices
        assert to_json(doc) == expected


@given(_documents(st.one_of(_SCALAR, st.sampled_from([np.int64(3), np.int32(-1)]))))
def test_writer_rejects_what_json_dumps_rejects(doc):
    try:
        expected = json.dumps(doc, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            to_json(doc)
    else:
        assert to_json(doc) == expected


@pytest.mark.parametrize(
    "doc",
    [
        np.int64(1),
        [0, np.int64(1)],
        {"counts": [1, 2], "m": np.int64(3)},
        {"bars": [{"representative": [("a", "b", np.int64(1))]}]},
        {np.int64(1): 0},
        {"ok": np.bool_(True)},
    ],
)
def test_writer_rejects_a_numpy_scalar_anywhere(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        to_json(doc)
