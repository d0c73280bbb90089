"""Prints one pass/fail line per acceptance criterion after every run.

Also imports hypothesis's failure-report patcher up front with its
DeprecationWarning silenced: imported lazily, the first time a property test
fails, its libcst dependency warns that mypy_extensions.TypedDict is
deprecated, and under ``-W error`` that warning ends the whole run as an
INTERNALERROR.  Every test still runs with ``-W error``."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis writes no patch, and nothing warns
        pass

_acceptance: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance.append((name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in _acceptance:
        terminalreporter.write_line(f"{verdict} {name}")
