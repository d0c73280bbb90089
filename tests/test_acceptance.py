"""Acceptance gate: one test per release criterion.

Every criterion is exact (zero tolerance) except the two wall-clock budgets,
which are generous bounds rather than performance claims.  A summary line per
criterion is printed at the end of the pytest run (see conftest.py).
"""

import time

import numpy as np

from snvrips import (
    DistanceSpace,
    RandomInstanceSpec,
    TimeLabels,
    barcode_h1,
    benchmark,
    betti1_bruteforce,
    classical_snv,
    deform,
    deformed_snv,
    emit_report,
    nonzero_sweep,
    random_instance,
    snv_counts_oracle,
    stability_report,
    time_offset_base,
    verify_correspondence,
)
from snvrips.distance import ScaleSchedule

from helpers import (
    chain_boundary,
    chain_of_ids,
    count_alive,
    matrix_rips,
    restrict_to_step,
    square_space,
    suite_instance,
)

SUITE_SEEDS = range(200)


def assert_representative_valid(cplx, chain, birth, death, p):
    assert chain_boundary(cplx, chain, p) == {}, "representative is not a cycle"
    if death is None:
        assert nonzero_sweep(cplx, [chain], [birth], p) == [[True]], (
            "zero class at its birth"
        )
    else:
        nonzero = nonzero_sweep(cplx, [chain], [birth, death - 1, death], p)
        assert nonzero == [[True, True, False]]


def test_1_worked_example_values():
    ids = ("x", "y", "z")
    ones = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        n_364 = time_offset_base(364)
        scaled = deform(
            DistanceSpace(ids, ones),
            TimeLabels(364, {"x": 264, "y": 132, "z": 132}),
        )
        n_34 = time_offset_base(34)
        best = min(best, time.perf_counter() - t0)
    assert n_364 == 1000
    assert n_34 == 100
    assert scaled[0, 1] == 1264
    assert scaled[0, 2] == 1264
    assert scaled[1, 2] == 1132
    assert best < 1e-3, f"worked example took {best * 1e3:.3f} ms"


def test_2_schedule_exactness():
    for m, n in ((0, 1), (4, 10), (34, 100), (364, 1000), (999, 1000), (1000, 10000)):
        assert time_offset_base(m) == n
        sched = ScaleSchedule(m)
        assert sched.kappa(-1) == 0
        assert sched.kappa(0) == n
        assert sched.kappa(m) == n + m
        assert sched.kappa(m + 1) == 2 * n


def test_3_correspondence_suite():
    t0 = time.perf_counter()
    for seed in SUITE_SEEDS:
        space, labels, p = suite_instance(seed)
        cl = classical_snv(space, labels, p)
        df = deformed_snv(space, labels, p)
        verdict = verify_correspondence(cl, df)
        assert verdict.discrepancies == [], f"seed {seed}: {verdict.discrepancies}"
        oracle = snv_counts_oracle(space, labels, p)
        assert cl.per_step_counts == oracle, f"seed {seed}: classical vs oracle"
        assert df.per_step_counts == oracle, f"seed {seed}: deformed vs oracle"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"suite took {elapsed:.1f} s"


def test_4_engine_matches_oracle_at_every_value():
    for seed in SUITE_SEEDS:
        space, labels, p = suite_instance(seed)
        scaled = deform(space, labels)
        cap = 2 * time_offset_base(labels.m) - 1
        barcode = barcode_h1(matrix_rips(scaled, cap), p)
        for v in range(cap + 1):
            assert count_alive(barcode, v) == betti1_bruteforce(scaled, v, p), (
                f"seed {seed}, value {v}"
            )


def test_5_degenerate_collapse():
    spaces = [square_space()] + [suite_instance(seed)[0] for seed in range(20)]
    for space in spaces:
        labels = TimeLabels(0, {pid: 0 for pid in space.point_ids})
        for p in (2, 3):
            cl = classical_snv(space, labels, p)
            df = deformed_snv(space, labels, p)
            assert df.per_step_counts == cl.per_step_counts
            assert [(b.birth_step, b.death_step) for b in df.bars] == [
                (0, None)
            ] * len(df.bars)
            assert sorted(b.birth_value for b in df.bars) == sorted(
                b.birth_value for b in cl.bars
            )
            for bar in df.bars:
                chain = chain_of_ids(
                    df.filtered_complex, space.point_ids, bar.representative
                )
                assert_representative_valid(
                    df.filtered_complex, chain, bar.birth_value, bar.death_value, p
                )


def test_6_representative_validity():
    for seed in SUITE_SEEDS:
        space, labels, p = suite_instance(seed)

        df = deformed_snv(space, labels, p)
        for bar in df.bars:
            chain = chain_of_ids(df.filtered_complex, space.point_ids, bar.representative)
            assert_representative_valid(
                df.filtered_complex, chain, bar.birth_value, bar.death_value, p
            )

        cl = classical_snv(space, labels, p)
        for bar in cl.bars:
            sub = restrict_to_step(space, labels, bar.birth_step)
            cplx = matrix_rips(sub.dist, cl.caps_by_step[bar.birth_step])
            chain = chain_of_ids(cplx, sub.point_ids, bar.representative)
            assert_representative_valid(
                cplx, chain, bar.birth_value, bar.death_value, p
            )


def test_7_interval_membership_and_stability():
    for seed in SUITE_SEEDS:
        space, labels, p = suite_instance(seed)
        stab = stability_report(deformed_snv(space, labels, p))
        assert stab.violations == [], f"seed {seed}: {stab.violations}"
        for row in stab.rows:
            expected = tuple(
                row.birth_step <= i <= row.last_alive_step
                for i in range(labels.m + 1)
            )
            assert row.member_by_step == expected, f"seed {seed}: gap in interval"
            assert row.nonzero_by_step == expected, f"seed {seed}: homology disagrees"


def test_8_benchmark_smoke():
    space, labels = random_instance(RandomInstanceSpec(seed=0, n=50, m=12, d_max=4))
    result = benchmark(space, labels, p=2, repetitions=1)
    assert result.classical_median_seconds > 0
    assert result.deformed_median_seconds > 0
    assert result.ratio_classical_over_deformed > 0
    assert result.correspondence_clean
    emitted = emit_report(result)
    for key in (
        "classical_median_seconds",
        "deformed_median_seconds",
        "ratio_classical_over_deformed",
    ):
        assert key in emitted
