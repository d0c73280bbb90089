import sys
from dataclasses import replace

import numpy as np
import pytest

import snvrips.distance
import snvrips.persistence
import snvrips.pipeline
from snvrips import (
    DistanceSpace,
    InputError,
    RandomInstanceSpec,
    SequenceSpace,
    TimeLabels,
    barcode_h1,
    benchmark,
    betti1_bruteforce,
    build_rips,
    classical_counts,
    classical_snv,
    deform,
    deformed_snv,
    nonzero_sweep,
    parse_matrix,
    random_instance,
    snv_counts_oracle,
    stability_report,
    time_offset_base,
    verify_correspondence,
)
from snvrips.distance import ScaleSchedule
from snvrips.pipeline import (
    CLASSICAL_NOTE,
    SnvBar,
    correspondence,
)

from helpers import (
    apex_square,
    chain_of_ids,
    classical_step,
    corrupted_copy,
    matrix_rips,
    square_labels,
    square_space,
    suite_instance,
    unit_triangle,
)


def late_corner_square() -> tuple[DistanceSpace, TimeLabels]:
    # the fourth corner arrives at step 1, completing the 4-cycle
    space = square_space()
    return space, TimeLabels(1, {"a": 0, "b": 0, "c": 0, "d": 1})


def test_classical_square():
    report = classical_snv(square_space(), square_labels())
    assert report.mode == "classical"
    assert report.per_step_counts == [1]
    assert report.caps_by_step == [2]
    bar = report.bars[0]
    assert (bar.birth_step, bar.death_step) == (0, None)
    assert bar.birth_value == 1 and bar.death_value == 2
    assert {(a, b) for a, b, _ in bar.representative} == {
        ("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")
    }
    assert CLASSICAL_NOTE in report.notes


def test_classical_triangle_has_no_cycles():
    labels = TimeLabels(0, {"x": 0, "y": 0, "z": 0})
    assert classical_snv(unit_triangle(), labels).per_step_counts == [0]


def test_classical_rejects_unobservable_cap():
    with pytest.raises(InputError, match="cap"):
        classical_snv(square_space(), square_labels(), cap=0)


def test_every_entry_point_taking_p_rejects_a_field_that_is_not_prime():
    space, labels = random_instance(RandomInstanceSpec(3, 12, 3, 2))
    cplx = matrix_rips(space.dist, 1)
    # p = 3 passes first, so a cached check by value alone would pass 3.0 too
    assert deformed_snv(space, labels, 3).p == 3
    for p in (4, 1, 2.5, np.int64(4294967311), 3.0, np.int64(3)):
        for run in (
            lambda: deformed_snv(space, labels, p),
            lambda: classical_snv(space, labels, p),
            lambda: nonzero_sweep(cplx, [], [], p),
            lambda: snv_counts_oracle(space, labels, p),
            lambda: betti1_bruteforce(space.dist, 1, p),
        ):
            with pytest.raises(InputError, match="prime"):
                run()


def test_apex_square_both_pipelines():
    space, labels = apex_square()
    cl = classical_snv(space, labels)
    df = deformed_snv(space, labels)
    assert cl.per_step_counts == [1, 0]
    assert df.per_step_counts == [1, 0]
    assert snv_counts_oracle(space, labels, 2) == [1, 0]
    assert len(df.bars) == 1
    bar = df.bars[0]
    assert (bar.birth_step, bar.death_step) == (0, 1)
    assert (bar.birth_value, bar.death_value) == (10, 11)  # N = 10 for m = 1
    assert df.cap == 19  # 2N - 1 resolves exactly the unit-distance block


def test_late_corner_birth_step():
    space, labels = late_corner_square()
    cl = classical_snv(space, labels)
    df = deformed_snv(space, labels)
    assert cl.per_step_counts == [0, 1]
    assert df.per_step_counts == [0, 1]
    bar = df.bars[0]
    assert (bar.birth_step, bar.death_step) == (1, None)
    assert bar.birth_value == 11  # born with the step-1 edge, not at scale 2


def test_deformed_full_cap_keeps_step_intervals():
    space, labels = apex_square()
    default = deformed_snv(space, labels)
    full = deformed_snv(space, labels, cap="full")
    assert [(b.birth_step, b.death_step) for b in full.bars] == [
        (b.birth_step, b.death_step) for b in default.bars
    ]
    assert full.cap == 20  # diameter: the h=2 diagonals join label-0 corners


def test_deformed_explicit_cap():
    space, labels = apex_square()
    report = deformed_snv(space, labels, cap=15)
    assert report.cap == 15
    assert report.per_step_counts == [1, 0]


def test_degenerate_collapse_to_single_step():
    for seed in range(8):
        space, _, p = suite_instance(seed)
        labels = TimeLabels(0, {pid: 0 for pid in space.point_ids})
        cl = classical_snv(space, labels, p)
        df = deformed_snv(space, labels, p)
        assert df.per_step_counts == cl.per_step_counts
        # N = 1 and every offset is 0: the scaled matrix is the distance matrix
        assert time_offset_base(labels.m) == 1
        assert np.array_equal(deform(space, labels), space.dist)
        for bar in df.bars:
            assert (bar.birth_step, bar.death_step) == (0, None)
            assert bar.birth_value == 1
        assert sorted(b.birth_value for b in df.bars) == sorted(
            b.birth_value for b in cl.bars
        )


def test_alive_at_is_half_open():
    bar = SnvBar(1, 3, 11, 13, ())
    assert [bar.alive_at(i) for i in range(5)] == [False, True, True, False, False]
    open_bar = SnvBar(2, None, 12, None, ())
    assert open_bar.alive_at(2) and open_bar.alive_at(10)
    with pytest.raises(ValueError, match="death step"):
        SnvBar(2, 2, 12, 12, ())


def test_verify_correspondence_clean():
    space, labels = apex_square()
    verdict = verify_correspondence(
        classical_snv(space, labels), deformed_snv(space, labels)
    )
    assert verdict.ok
    assert verdict.per_step_counts_match == [True, True]
    assert verdict.matched_deaths == [(0, 1)]
    assert verdict.discrepancies == []


def test_verify_correspondence_flags_corruption():
    space, labels = apex_square()
    cl = classical_snv(space, labels)
    df = deformed_snv(space, labels)
    verdict = verify_correspondence(cl, corrupted_copy(df))
    assert not verdict.ok
    # the open-ended copy claims a class alive at step 1 that is zero there
    assert "bar 0: membership at step 1 is True but its class is zero there" in (
        verdict.discrepancies
    )
    assert verdict.matched_deaths == []


def test_verify_correspondence_flags_every_shifted_death():
    shifted = 0
    for seed in range(200):
        space, labels, p = suite_instance(seed)
        cl = classical_snv(space, labels, p)
        df = deformed_snv(space, labels, p)
        for k in range(len(df.bars)):
            try:
                bad = corrupted_copy(df, k)
            except ValueError:
                continue  # a single-step bar at the horizon has no death to shift
            shifted += 1
            discrepancies = verify_correspondence(cl, bad).discrepancies
            assert any(line.startswith(f"bar {k}: ") for line in discrepancies), (
                f"seed {seed}, bar {k}: {discrepancies}"
            )
    assert shifted == 30


def test_classical_cap_1_checks_deaths_like_the_full_diameter():
    # d_max = 2 makes unit graphs dense enough for classes to die within the
    # horizon, so the death check has work to do on every prime
    deaths = shifted = 0
    for seed in range(200):
        spec = RandomInstanceSpec(seed=seed, n=5 + seed % 10, m=seed % 5, d_max=2)
        space, labels = random_instance(spec)
        for p in (2, 3):
            cl = classical_snv(space, labels, p, cap=1)
            df = deformed_snv(space, labels, p)
            verdict = verify_correspondence(cl, df)
            assert verdict.ok, (seed, p, verdict.discrepancies)
            full = verify_correspondence(classical_snv(space, labels, p), df)
            assert full.per_step_counts_match == verdict.per_step_counts_match
            assert full.matched_deaths == verdict.matched_deaths
            deaths += len(verdict.matched_deaths)
            for k in range(len(df.bars)):
                try:
                    bad = corrupted_copy(df, k)
                except ValueError:
                    continue  # a single-step bar at the horizon has no death to shift
                shifted += 1
                discrepancies = verify_correspondence(cl, bad).discrepancies
                assert any(line.startswith(f"bar {k}: ") for line in discrepancies), (
                    f"seed {seed}, p {p}, bar {k}: {discrepancies}"
                )
    assert (deaths, shifted) == (80, 280)


def test_verify_correspondence_rejects_mismatched_inputs():
    space, labels = apex_square()
    cl = classical_snv(space, labels)
    df = deformed_snv(space, labels)
    with pytest.raises(InputError, match="classical and a deformed"):
        verify_correspondence(df, cl)
    other = TimeLabels(1, {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1})
    with pytest.raises(InputError, match="different"):
        verify_correspondence(cl, deformed_snv(space, other))


def test_verify_correspondence_compares_distinct_spaces_by_their_matrices():
    space, labels = apex_square()
    df = deformed_snv(space, labels)
    twin = DistanceSpace(space.point_ids, space.dist.copy())
    assert verify_correspondence(classical_snv(twin, labels), df).ok
    changed = space.dist.copy()
    changed[0, 2] = changed[2, 0] = 3
    other = DistanceSpace(space.point_ids, changed)
    with pytest.raises(
        InputError, match="^reports were computed over different distance matrices$"
    ):
        verify_correspondence(classical_snv(other, labels), df)


def test_verify_correspondence_compares_sequence_spaces_by_their_codes(monkeypatch):
    # two equal sequence spaces, checked with no Hamming matrix built
    def no_matrix(codes):
        raise AssertionError("a Hamming matrix was built")

    monkeypatch.setattr(snvrips.distance, "hamming_matrix", no_matrix)
    rows = ["AAAA", "AAAC", "AACC", "AACA", "CAAA"]
    ids = tuple(f"s{k}" for k in range(len(rows)))
    codes = np.array([[ord(c) for c in row] for row in rows], dtype=np.uint32)
    labels = TimeLabels(2, dict(zip(ids, [0, 0, 1, 1, 2])))
    a, b = SequenceSpace(ids, codes), SequenceSpace(ids, codes.copy())
    verdict = verify_correspondence(classical_snv(a, labels, cap=1), deformed_snv(b, labels))
    assert verdict.ok and verdict.per_step_counts_match == [True] * 3
    other = codes.copy()
    other[4, 3] = ord("G")
    with pytest.raises(
        InputError, match="^reports were computed over different distance matrices$"
    ):
        verify_correspondence(
            classical_snv(SequenceSpace(ids, other), labels, cap=1), deformed_snv(b, labels)
        )
    # a plain matrix space against a sequence space compares the matrices
    monkeypatch.undo()
    plain = DistanceSpace(ids, b.dist.copy())
    assert verify_correspondence(classical_snv(plain, labels, cap=1), deformed_snv(b, labels)).ok


def test_classical_counts_skip_zero_length_and_later_births():
    # a unit triangle (a zero-length pair at 1), a square of side 2 with
    # diagonals 3 (born at 2) and a square of side 1 with diagonals 2 (born
    # at 1), 3 apart from each other; at every cap only the last one counts
    d = np.full((11, 11), 3, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for group, side, diagonal in (([0, 1, 2], 1, 1), ([3, 4, 5, 6], 2, 3), ([7, 8, 9, 10], 1, 2)):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                apart = 1 if len(group) == 3 else (b - a) % 2
                u, v = group[a], group[b]
                d[u, v] = d[v, u] = side if apart else diagonal
    ids = tuple(f"p{k}" for k in range(11))
    space, labels = DistanceSpace(ids, d), TimeLabels(1, dict.fromkeys(ids, 0))
    for p in (2, 3):
        for cap in (1, 2, "full"):
            assert classical_counts(space, labels, p, cap) == [1, 1]
            assert classical_snv(space, labels, p, cap).per_step_counts == [1, 1]


def test_classical_counts_reject_what_classical_snv_rejects():
    space, labels = apex_square()
    for cap, error in ((0, "classical cap must be >= 1, got 0"), (1.5, "cap must be")):
        for run in (classical_counts, classical_snv):
            with pytest.raises(InputError, match=error):
                run(space, labels, 2, cap)
    with pytest.raises(InputError, match="prime"):
        classical_counts(space, labels, 4, 1)


def test_correspondence_on_suite():
    for seed in range(40):
        space, labels, p = suite_instance(seed)
        cl = classical_snv(space, labels, p)
        df = deformed_snv(space, labels, p)
        verdict = verify_correspondence(cl, df)
        assert verdict.ok, verdict.discrepancies
        assert cl.per_step_counts == snv_counts_oracle(space, labels, p)


def test_corrupted_copy_shifts_one_death():
    space, labels = apex_square()
    df = deformed_snv(space, labels)
    bad = corrupted_copy(df)
    assert bad.bars[0].death_step is None  # was 1, the horizon, so it opens up
    assert bad.per_step_counts == [1, 1]

    flat = deformed_snv(square_space(), square_labels())
    with pytest.raises(ValueError, match="horizon"):
        corrupted_copy(flat)


def test_stability_on_apex_square():
    space, labels = apex_square()
    stab = stability_report(deformed_snv(space, labels))
    assert stab.ok
    assert len(stab.rows) == 1
    row = stab.rows[0]
    assert (row.birth_step, row.last_alive_step) == (0, 0)
    assert row.member_by_step == (True, False)
    assert row.nonzero_by_step == (True, False)


def test_stability_needs_deformed_mode():
    with pytest.raises(InputError, match="deformed"):
        stability_report(classical_snv(square_space(), square_labels()))


def test_stability_membership_is_contiguous():
    for seed in range(20):
        space, labels, p = suite_instance(seed)
        stab = stability_report(deformed_snv(space, labels, p))
        assert stab.ok, stab.violations
        for row in stab.rows:
            assert row.member_by_step == tuple(
                row.birth_step <= i <= row.last_alive_step for i in range(labels.m + 1)
            )


def test_stability_names_a_birth_claimed_too_early():
    # the sweep tests a chain from its youngest edge's step on, so an earlier
    # claimed birth reads a zero class there instead of raising InputError
    space, labels = random_instance(RandomInstanceSpec(seed=0, n=14, m=4, d_max=2))
    df = deformed_snv(space, labels)
    assert df.bars[0].birth_step == 1
    df.bars[0] = replace(df.bars[0], birth_step=0)
    assert stability_report(df).violations == [
        "bar 0: membership at step 0 is True but its class is zero there"
    ]


def test_the_sweep_starts_every_bar_at_its_birth_step():
    for seed in range(200):
        space, labels, _ = suite_instance(seed)
        schedule = ScaleSchedule(labels.m)
        for p in (2, 3):
            df = deformed_snv(space, labels, p)
            edge_value = df.filtered_complex.values[0]
            for bar, chain in zip(df.bars, df.chains, strict=True):
                youngest = max(rank for rank, c in chain.items() if c % p)
                assert schedule.step_of(int(edge_value[youngest])) == bar.birth_step


def test_correspondence_needs_one_count_per_step():
    space, labels = apex_square()
    df = deformed_snv(space, labels)
    for counts in ([1], [1, 0, 0]):
        with pytest.raises(InputError, match=f"{len(counts)} classical counts for 2"):
            correspondence(counts, df)


def test_extending_the_horizon_preserves_counts():
    for seed in (0, 3, 11):
        space, labels, p = suite_instance(seed)
        wide = TimeLabels(labels.m + 3, dict(labels.by_id))
        cl = classical_snv(space, wide, p)
        df = deformed_snv(space, wide, p)
        base_counts = classical_snv(space, labels, p).per_step_counts
        assert cl.per_step_counts[: labels.m + 1] == base_counts
        assert cl.per_step_counts[labels.m + 1 :] == [base_counts[-1]] * 3
        assert df.per_step_counts == cl.per_step_counts
        assert verify_correspondence(cl, df).ok


def test_label_blocks_match_a_run_per_step():
    # labels shifted by 2 and the horizon widened: empty steps first, gaps after
    for seed in range(0, 40, 3):
        space, labels, p = suite_instance(seed)
        shifted = {pid: 2 * t + 2 for pid, t in labels.by_id.items()}
        wide = TimeLabels(2 * labels.m + 5, shifted)
        steps = [classical_step(space, wide, i, p) for i in range(wide.m + 1)]
        report = classical_snv(space, wide, p)
        assert report.caps_by_step == [cap for cap, _ in steps]
        assert report.per_step_counts == [len(bars) for _, bars in steps]
        assert report.bars == [bar for _, bars in steps for bar in bars]
        assert snv_counts_oracle(space, wide, p) == report.per_step_counts
        assert deformed_snv(space, wide, p).per_step_counts == report.per_step_counts


def test_kept_chains_align_with_bars():
    # at cap "full" the first-block filter drops bars, so a list built before
    # it, or in any other order, pairs chains with the wrong bars
    dropped = 0
    for seed in range(200):
        space, labels, p = suite_instance(seed)
        assert classical_snv(space, labels, p).chains is None
        for cap in (None, "full"):
            df = deformed_snv(space, labels, p, cap)
            assert len(df.chains) == len(df.bars)
            for chain, bar in zip(df.chains, df.bars):
                ids = bar.representative
                assert chain == chain_of_ids(df.filtered_complex, df.point_ids, ids)
            dropped += len(barcode_h1(df.filtered_complex, p).bars) - len(df.bars)
    assert dropped > 0


def test_stability_is_clean_on_merged_matrix_input():
    # three zero-distance copies: the kept ids sort as strings (p0, p1, p10,
    # ...) and p31 stands in for p7, so ids leave file order
    space, labels = random_instance(RandomInstanceSpec(seed=4, n=30, m=5, d_max=2))
    order = list(range(30)) + [0, 7, 19]
    dist = space.dist[np.ix_(order, order)]
    matrix = "\n".join(" ".join(map(str, dist[k, :k])) for k in range(1, len(order)))
    times = "\n".join(str(labels.by_id[space.point_ids[i]]) for i in order)
    bundle = parse_matrix(matrix, times)
    assert bundle.merges == {"p30": "p0", "p7": "p31", "p32": "p19"}
    assert bundle.space.point_ids[:3] == ("p0", "p1", "p10")
    for p in (2, 3, 5):
        deformed = deformed_snv(bundle.space, bundle.labels, p)
        assert any(bar.death_step is not None for bar in deformed.bars)
        assert stability_report(deformed).ok
        classical = classical_snv(bundle.space, bundle.labels, p)
        verdict = verify_correspondence(classical, deformed)
        assert verdict.ok and len(verdict.matched_deaths) == 5


def test_solves_never_build_the_simplex_list(monkeypatch):
    # nor call the views kept for the tests and the tracer, through any module
    built, called = [], []

    def recording_build(*args, **kwargs):
        built.append(build_rips(*args, **kwargs))
        return built[-1]

    def recording(name, view):
        def record(*args, **kwargs):
            called.append(name)
            return view(*args, **kwargs)

        return record

    monkeypatch.setattr(snvrips.pipeline, "build_rips", recording_build)
    package = [m for key, m in sys.modules.items() if key.split(".")[0] == "snvrips"]
    for name in ("reduce_with_basis", "boundary_matrix"):
        for module in package:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    space, labels = random_instance(RandomInstanceSpec(seed=4, n=30, m=5, d_max=2))
    for p in (2, 3):
        deformed = deformed_snv(space, labels, p)
        assert stability_report(deformed).ok
        for cap in (None, 1):
            assert verify_correspondence(classical_snv(space, labels, p, cap), deformed).ok
        assert any(bar.death_step is not None for bar in deformed.bars)
    assert len(built) > 2
    assert all("simplices" not in cplx.__dict__ for cplx in built)
    assert called == []
    # the checks can fail: the simplex list is cached once something reads
    # it, and a call of either view is recorded
    assert built[1].simplices and "simplices" in built[1].__dict__
    snvrips.persistence.reduce_with_basis(built[0], 3)
    snvrips.persistence.boundary_matrix(built[0], 3)
    assert called == ["reduce_with_basis", "boundary_matrix"]


def test_benchmark_smoke():
    space, labels, p = suite_instance(1)
    result = benchmark(space, labels, p, repetitions=2)
    assert result.repetitions == 2
    assert len(result.classical_seconds) == 2
    assert len(result.deformed_seconds) == 2
    assert result.classical_median_seconds > 0 and result.deformed_median_seconds > 0
    assert result.ratio_classical_over_deformed > 0
    assert result.correspondence_clean
    with pytest.raises(InputError, match="repetitions"):
        benchmark(space, labels, p, repetitions=0)
    with pytest.raises(InputError, match="repetitions must be an integer, got 2.5"):
        benchmark(space, labels, p, 2.5)


def test_a_fractional_classical_cap_is_rejected_not_rounded():
    # diagonals 2049 and 2048: the square dies at 2048, when (1,3) enters
    d = np.array([[0, 1, 2049, 1], [1, 0, 1, 2048], [2049, 1, 0, 1], [1, 2048, 1, 0]])
    space = DistanceSpace(("a", "b", "c", "d"), d)
    for cap in (2050, np.int64(2050), None):
        report = classical_snv(space, square_labels(), 2, cap)
        assert [(b.birth_value, b.death_value) for b in report.bars] == [(1, 2048)]
    with pytest.raises(InputError, match="cap must be an integer, got 2050.5"):
        classical_snv(space, square_labels(), 2, 2050.5)


def test_caps_must_be_integers():
    space, labels = square_space(), square_labels(2)
    with pytest.raises(InputError, match="cap must be an integer, got '2'"):
        classical_snv(space, labels, 2, "2")
    with pytest.raises(InputError, match="cap must be an integer, got 25.5"):
        deformed_snv(space, labels, 2, 25.5)
    with pytest.raises(InputError, match="cap must be non-negative"):
        deformed_snv(space, labels, 2, -1)
    assert deformed_snv(space, labels, 2, np.int64(25)).cap == 25
