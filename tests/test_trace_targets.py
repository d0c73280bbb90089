"""The benchmark's tracer patches package functions by name; each must exist,
and a traced solve of each input kind must still run and count its work."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_every_traced_name_resolves(spans):
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, _, _ in spans.TARGETS
        if not hasattr(module, attribute)
    ]
    assert missing == []


def test_traced_solves_of_each_input_kind(spans, tmp_path):
    from workloads import Workload, make_instance

    small = (
        Workload(
            name="matrix_small",
            kind="matrix",
            n=16,
            m=3,
            prime=3,
            calls=(("compare", "--strict"), ("deformed", "--stability")),
            catalogue=1,
            oracle=False,
        ),
        Workload(
            name="sequence_small",
            kind="sequences",
            n=16,
            m=3,
            prime=2,
            calls=(("deformed",),),
            catalogue=1,
            oracle=False,
            length=30,
        ),
    )
    tracer = spans.Tracer()
    for tag, workload in enumerate(small):
        instance = make_instance(workload, 0, tmp_path / workload.name)
        results = spans.traced_solve(tracer, workload, instance, tag)
        assert [r.code for r in results] == [0] * len(workload.calls), [
            r.stderr for r in results
        ]
        assert spans.instance_counts(tracer.spans, tag)["rips.simplices_d1"] > 0
