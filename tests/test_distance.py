import numpy as np
import pytest

import snvrips.distance

from snvrips import (
    DistanceSpace,
    InputError,
    SequenceSpace,
    TimeLabels,
    build_space_from_sequences,
    classical_snv,
    dedupe_zero_distance,
    deform,
    parse_sequences,
    time_offset_base,
)
from snvrips.distance import (
    ScaleSchedule,
    check_horizon,
    group_zero_distance,
    merge_distances,
)

from helpers import hamming, square_space, suite_instance


def test_hamming_counts_mismatches():
    assert hamming("ACGT", "ACGT") == 0
    assert hamming("ACGT", "ACGA") == 1
    assert hamming("AAAA", "TTTT") == 4
    assert hamming([0, 1, 2], [0, 2, 2]) == 1


def test_hamming_rejects_ragged_inputs():
    with pytest.raises(InputError, match="lengths 3 and 4"):
        hamming("ACG", "ACGT")


def test_time_offset_base_values():
    assert time_offset_base(0) == 1
    assert time_offset_base(1) == 10
    assert time_offset_base(9) == 10
    assert time_offset_base(10) == 100
    assert time_offset_base(34) == 100
    assert time_offset_base(364) == 1000
    assert time_offset_base(999) == 1000
    assert time_offset_base(1000) == 10000
    with pytest.raises(InputError):
        time_offset_base(-1)


def test_time_offset_base_is_tight():
    # smallest power of ten strictly above m: m < base and base/10 <= m
    for m in range(0, 2000):
        base = time_offset_base(m)
        assert m < base
        assert base // 10 <= m
        digits = str(base)
        assert digits[0] == "1" and set(digits[1:]) <= {"0"}


def test_deform_worked_values():
    # three sequences at pairwise Hamming distance 1, steps 264/132/132
    dist = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    space = DistanceSpace(("x", "y", "z"), dist)
    labels = TimeLabels(364, {"x": 264, "y": 132, "z": 132})
    scaled = deform(space, labels)
    assert time_offset_base(labels.m) == 1000
    assert scaled.dtype == np.int64
    assert scaled[0, 1] == 1264  # h + 0.264 in 1/1000 units
    assert scaled[0, 2] == 1264
    assert scaled[1, 2] == 1132
    assert (np.diagonal(scaled) == 0).all()


def test_deform_takes_later_endpoint():
    dist = np.array([[0, 3], [3, 0]])
    space = DistanceSpace(("a", "b"), dist)
    scaled = deform(space, TimeLabels(7, {"a": 2, "b": 5}))
    assert time_offset_base(7) == 10
    assert scaled[0, 1] == 35  # 10*3 + max(2, 5)


def test_deform_recovers_both_components():
    for seed in range(25):
        space, labels, _ = suite_instance(seed)
        scaled = deform(space, labels)
        base = time_offset_base(labels.m)
        lab = labels.vector(space.point_ids)
        for i in range(space.n):
            for j in range(space.n):
                if i == j:
                    assert scaled[i, j] == 0
                    continue
                assert scaled[i, j] // base == space.dist[i, j]
                assert scaled[i, j] % base == max(lab[i], lab[j])


def test_deform_preserves_strict_distance_order():
    # h < h' implies scaled(h) < scaled(h') no matter the labels
    for seed in range(25):
        space, labels, _ = suite_instance(seed)
        scaled = deform(space, labels)
        n = space.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for a in pairs:
            for b in pairs:
                if space.dist[a] < space.dist[b]:
                    assert scaled[a] < scaled[b]


def test_schedule_matches_closed_form():
    sched = ScaleSchedule(364)
    assert sched.base == 1000
    assert sched.kappa(-1) == 0
    assert sched.kappa(0) == 1000
    assert sched.kappa(364) == 1364
    assert sched.kappa(365) == 2000
    assert sched.kappa(366) == 2001

    with pytest.raises(InputError):
        sched.kappa(-2)


def test_schedule_increments_are_unit_or_block_jump():
    for m, base in ((0, 1), (4, 10), (34, 100), (364, 1000)):
        sched = ScaleSchedule(m)
        assert sched.base == base
        values = [sched.kappa(i) for i in range(-1, 3 * (m + 1))]
        assert values == sorted(values)
        steps = {b - a for a, b in zip(values, values[1:])}
        assert steps <= {1, base - m, base}  # base only for the kappa(-1) -> kappa(0) jump


def test_step_of_inverts_first_block():
    sched = ScaleSchedule(4)
    for i in range(5):
        assert sched.step_of(sched.kappa(i)) == i
    assert sched.step_of(0) is None
    assert sched.step_of(9) is None
    assert sched.step_of(15) is None  # past N+m
    assert sched.step_of(20) is None
    with pytest.raises(InputError):
        sched.step_of(-3)


def test_schedule_index_must_be_an_integer():
    sched = ScaleSchedule(2)
    with pytest.raises(InputError, match="schedule index must be an integer, got 1.5"):
        sched.kappa(1.5)  # was read as 11.5
    assert sched.kappa(np.int64(1)) == 11


def test_scaled_value_must_be_an_integer():
    sched = ScaleSchedule(2)
    with pytest.raises(InputError, match="scaled value must be an integer, got 10.5"):
        sched.step_of(10.5)  # was read as step 0.5
    assert sched.step_of(np.int64(11)) == 1


def test_distance_space_validation():
    with pytest.raises(InputError, match="square"):
        DistanceSpace(("a", "b"), np.zeros((2, 3), dtype=int))
    with pytest.raises(InputError, match="symmetric"):
        DistanceSpace(("a", "b"), np.array([[0, 1], [2, 0]]))
    with pytest.raises(InputError, match="diagonal"):
        DistanceSpace(("a", "b"), np.array([[1, 1], [1, 0]]))
    with pytest.raises(InputError, match="merge them first"):
        DistanceSpace(("a", "b"), np.zeros((2, 2), dtype=int))
    with pytest.raises(InputError, match="distinct"):
        DistanceSpace(("a", "a"), np.array([[0, 1], [1, 0]]))
    with pytest.raises(InputError, match="2 point ids"):
        DistanceSpace(("a", "b"), np.zeros((3, 3), dtype=int))


def test_spaces_compare_by_identity_and_repr_without_the_matrix():
    a, b = square_space(), square_space()
    assert a != b and a == a
    assert len({a, b}) == 2
    assert "dist" not in repr(a)
    space, _ = build_space_from_sequences([("s1", "ACGT"), ("s2", "ACGA")])
    assert "s2" in repr(space) and hash(space) == hash(space)
    assert "dist" not in space.__dict__  # the repr built no Hamming matrix


def test_deform_rejects_int64_overflow():
    h = 999999999999999999
    space = DistanceSpace(("a", "b"), np.array([[0, h], [h, 0]]))
    with pytest.raises(InputError, match="overflow int64"):
        deform(space, TimeLabels(999, {"a": 0, "b": 999}))
    # N itself overflows even with no pair to deform
    single = DistanceSpace(("a",), np.zeros((1, 1)))
    with pytest.raises(InputError, match="overflow int64"):
        deform(single, TimeLabels(10**18, {"a": 0}))
    # the bound is exact: N*h + m = 10^11 * 92233720 + 36854775807 = 2^63 - 1
    m, h = 36854775807, 92233720
    edge = DistanceSpace(("a", "b"), np.array([[0, h], [h, 0]]))
    assert check_horizon(edge, m) == 10**11
    with pytest.raises(InputError, match="overflow int64"):
        check_horizon(edge, m + 1)


def test_sequence_horizon_is_decided_by_the_length_bound(monkeypatch):
    space, _ = build_space_from_sequences([("a", "A" * 10), ("b", "CC" + "A" * 8)])

    def refuse(codes):
        raise AssertionError("a distance was computed")

    # no distance is computed on either side of the bound
    monkeypatch.setattr(snvrips.distance, "hamming_matrix", refuse)
    assert check_horizon(space, 10**16) == 10**17
    # N*L + m = 10^18 * 10 + 10^17 overflows, though N*h + m with h = 2 fits
    with pytest.raises(InputError, match=rf"= {10**18}\*10 \+ {10**17} exceeds"):
        check_horizon(space, 10**17)


def test_time_labels_validation():
    with pytest.raises(InputError, match="outside"):
        TimeLabels(2, {"a": 3})
    with pytest.raises(InputError, match="exceeds int64"):
        TimeLabels(2**63, {"a": 0})
    with pytest.raises(InputError, match="'missing'"):
        TimeLabels(2, {"a": 1}).of("missing")
    labels = TimeLabels(2, {"a": 1, "b": 0})
    assert labels.of("a") == 1
    assert labels.vector(("b", "a")).tolist() == [0, 1]


def test_dedupe_keeps_least_id_and_label():
    ids = ("z1", "a1", "m1")
    dist = np.array([[0, 0, 2], [0, 0, 3], [2, 3, 0]])
    ids2, slot, merges = dedupe_zero_distance(ids, group_zero_distance(dist))
    assert ids2 == ("a1", "m1")
    assert slot.tolist() == [0, 0, 1]
    assert merges == {"z1": "a1"}
    assert merge_distances(dist, slot)[0, 1] == 2  # minimum cross-group distance
    # the parsers give the kept point the smallest label in the merged group
    fasta, meta = ">z1\nAC\n>a1\nAC\n>m1\nGT\n", "id,time\nz1,0\na1,2\nm1,1\n"
    bundle = parse_sequences(fasta, meta)
    assert bundle.space.point_ids == ids2
    assert bundle.labels.by_id == {"a1": 0, "m1": 1}


def test_dedupe_needs_one_group_per_point():
    for group in ([0, 1], [0, 1, 1, 2]):
        with pytest.raises(InputError, match=f"3 point ids but {len(group)} group"):
            dedupe_zero_distance(("a", "b", "c"), np.array(group))


def test_extended_takes_a_natural_horizon():
    labels = TimeLabels(2, {"a": 1})
    assert labels.extended(None) is labels
    assert labels.extended(np.int64(5)).m == 5
    for horizon, message in (("5", "integer"), (2.5, "integer"), (-1, "non-negative")):
        with pytest.raises(InputError, match=f"horizon must be .*{message}"):
            labels.extended(horizon)
    with pytest.raises(InputError, match="only extend"):
        labels.extended(1)


def test_dedupe_no_op_without_zeros():
    space = square_space()
    groups = group_zero_distance(space.dist)
    ids2, slot, merges = dedupe_zero_distance(space.point_ids, groups)
    assert ids2 == space.point_ids
    assert merges == {}
    assert np.array_equal(merge_distances(space.dist, slot), space.dist)


def test_dedupe_transitive_groups():
    # 0-distance is merged transitively even without an explicit 0 between the ends
    ids = ("a", "b", "c")
    dist = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    ids2, slot, merges = dedupe_zero_distance(ids, group_zero_distance(dist))
    assert ids2 == ("a",)
    assert merges == {"b": "a", "c": "a"}
    assert merge_distances(dist, slot).shape == (1, 1)


def test_build_space_from_sequences():
    records = [("s1", "ACGT"), ("s2", "ACGA"), ("s3", "ACGT")]
    space, merges = build_space_from_sequences(records)
    assert space.point_ids == ("s1", "s2")
    assert merges == {"s3": "s1"}
    assert space.dist[0, 1] == 1


def test_build_space_rejects_bad_records():
    with pytest.raises(InputError, match="duplicate sequence id 's1'"):
        build_space_from_sequences([("s1", "AC"), ("s1", "AG")])
    with pytest.raises(InputError, match="equal length"):
        build_space_from_sequences([("s1", "AC"), ("s2", "ACG")])
    with pytest.raises(InputError, match="no sequence records"):
        build_space_from_sequences([])


def test_a_duplicate_id_is_the_first_one_seen_before():
    for ids, dup in (("abba", "b"), ("abab", "a"), ("abcc", "c")):
        records = [(rid, "AC") for rid in ids]
        with pytest.raises(InputError) as caught:
            build_space_from_sequences(records)
        assert str(caught.value) == f"duplicate sequence id {dup!r}"


def test_distance_space_rejects_a_fractional_distance():
    with pytest.raises(InputError, match="integers within int64"):
        DistanceSpace(("a", "b"), np.array([[0, 1.5], [1.5, 0]]))
    for bad in (np.nan, np.inf, 2.0**63):
        with pytest.raises(InputError, match="integers within int64"):
            DistanceSpace(("a", "b"), np.array([[0, bad], [bad, 0]]))
    # a cast that changes nothing is accepted, from any numeric dtype
    for dtype in (float, np.int32, np.uint8, np.uint64, object):
        space = DistanceSpace(("a", "b"), np.array([[0, 2], [2, 0]], dtype=dtype))
        assert space.dist.dtype == np.int64 and space.dist.tolist() == [[0, 2], [2, 0]]


def test_distance_space_rejects_a_distance_beyond_int64():
    for dist in ([[0, 2**70], [2**70, 0]], np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64)):
        with pytest.raises(InputError, match="integers within int64"):
            DistanceSpace(("a", "b"), dist)
    with pytest.raises(InputError, match="integers within int64"):
        DistanceSpace(("a", "b"), np.array([["0", "1"], ["1", "0"]]))


def test_time_labels_reject_a_fractional_label():
    with pytest.raises(InputError, match="time label must be an integer, got 1.5"):
        TimeLabels(2, {"a": 0, "b": 1.5, "c": 0})
    with pytest.raises(InputError, match="time label must be non-negative"):
        TimeLabels(2, {"a": -1})
    # numpy integers pass, as ints
    labels = TimeLabels(np.int64(2), {"a": np.int64(1), "b": np.uint8(2)})
    assert labels.m == 2 and type(labels.m) is int and labels.by_id == {"a": 1, "b": 2}
    assert labels.vector(("b", "a")).tolist() == [2, 1]


def test_time_labels_reject_a_fractional_horizon():
    with pytest.raises(InputError, match="time horizon must be an integer, got 2.5"):
        classical_snv(square_space(), TimeLabels(2.5, {"a": 0, "b": 0, "c": 0, "d": 0}))
    with pytest.raises(InputError, match="time horizon must be an integer"):
        TimeLabels("2", {"a": 0})


def test_scale_schedule_rejects_a_negative_or_fractional_horizon():
    with pytest.raises(InputError, match="time horizon must be non-negative, got -1"):
        ScaleSchedule(-1).kappa(0)
    with pytest.raises(InputError, match="time horizon must be an integer, got 2.5"):
        ScaleSchedule(2.5).kappa(3)
    assert ScaleSchedule(np.int64(2)).kappa(3) == ScaleSchedule(2).kappa(3) == 20


def test_sequence_space_needs_an_array_of_codes():
    with pytest.raises(InputError, match="2-D array"):
        SequenceSpace(("a", "b"), [[65, 67], [65, 71]])
    with pytest.raises(InputError, match="2-D array"):
        SequenceSpace(("a", "b"), np.array([65, 67]))
    space = SequenceSpace(("a", "b"), np.array([[65, 67], [65, 71]], dtype=np.uint8))
    assert space.dist.tolist() == [[0, 1], [1, 0]]
