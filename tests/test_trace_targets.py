"""The benchmark's tracer patches package functions by name; each must exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, _, _ in spans.TARGETS
        if not hasattr(module, attribute)
    ]
    assert missing == []
