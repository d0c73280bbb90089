"""The runner of the CI time and RSS bounds, on a run that takes no time."""

import resource

import pytest

import bounds

TRIVIAL = "oracle --n 3 --m 1"


def test_a_bound_holds_only_for_a_clean_exit_within_its_megabytes(capsys):
    # a child starts from this process's peak RSS, so generous is above that
    generous = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024 + 1000
    assert bounds.within(TRIVIAL, [], 60, generous)
    assert not bounds.within(TRIVIAL, [], 60, 1)
    assert not bounds.within(f"{TRIVIAL} --prime 4", [], 60, generous)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == [
        f"{TRIVIAL}: exit 0",
        f"{TRIVIAL}: exit 0",
        f"{TRIVIAL} --prime 4: exit 1",
    ]
    assert lines[1].endswith(" of 1 MB")


def test_an_unknown_group_is_refused(capsys):
    with pytest.raises(SystemExit, match="2"):
        bounds.main(["tree-5"])
    assert "unknown group tree-5" in capsys.readouterr().err
