import json

import pytest

import snvrips.cli as cli
import snvrips.distance
import snvrips.persistence
import snvrips.pipeline
from snvrips.pipeline import CorrespondenceReport

MATRIX = "1\n2 1\n1 2 1\n"
TIMES = "0\n0\n1\n1\n"

FASTA = ">s1\nACGT\n>s2\nACGA\n>s3\nAGGA\n"
META = "id\ttime\ns1\t0\ns2\t0\ns3\t1\n"


def write_matrix_files(tmp_path):
    matrix = tmp_path / "dist.txt"
    times = tmp_path / "times.txt"
    matrix.write_text(MATRIX)
    times.write_text(TIMES)
    return str(matrix), str(times)


def test_classical_from_matrix_files(tmp_path, capsys):
    matrix, times = write_matrix_files(tmp_path)
    assert cli.main(["classical", "--matrix", matrix, "--times", times]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "classical"
    assert doc["m"] == 1
    assert doc["per_step_counts"] == [0, 1]  # the 4-cycle closes at step 1


def test_deformed_from_sequence_files(tmp_path, capsys):
    fasta = tmp_path / "seqs.fa"
    meta = tmp_path / "meta.tsv"
    fasta.write_text(FASTA)
    meta.write_text(META)
    code = cli.main(
        ["deformed", "--sequences", str(fasta), "--metadata", str(meta), "--stability"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "deformed"
    assert "stability" in doc
    assert doc["stability"]["violations"] == []


def test_compare_generated_instance(capsys):
    assert cli.main(["compare", "--n", "8", "--m", "3", "--seed", "9", "--strict"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "correspondence"
    assert doc["discrepancies"] == []


def test_compare_classical_cap_1_prints_the_same_report(capsys):
    # compare stops the classical side at scale 1 by default; only scale-1
    # births count, so the full-diameter run prints the same bytes.  Seeds 1
    # and 3 have finite deaths to match.
    for seed in range(5):
        args = ["compare", "--n", "12", "--m", "4", "--dmax", "2", "--seed", str(seed)]
        assert cli.main(args + ["--strict", "--cap", "full"]) == 0
        full = capsys.readouterr().out
        assert cli.main(args + ["--strict"]) == 0
        assert capsys.readouterr().out == full


def test_compare_passes_the_classical_cap(monkeypatch):
    seen = []
    real = cli.classical_counts

    def spy(space, labels, p, cap):
        seen.append(cap)
        return real(space, labels, p=p, cap=cap)

    monkeypatch.setattr(cli, "classical_counts", spy)
    args = ["compare", "--n", "8", "--m", "2", "--seed", "3"]
    # the last call reuses the parser of the calls with an explicit cap
    for extra in ([], ["--cap", "full"], ["--cap", "3"], []):
        assert cli.main(args + extra) == 0
    assert seen == [1, "full", 3, 1]


def test_compare_builds_representatives_only_for_the_deformed_side(monkeypatch, capsys):
    # the forest walk and the naming of edges by point id run once per
    # deformed barcode and once per deformed bar, whatever the classical cap
    calls = {"forest": 0, "named": 0}

    def counted(key, fn):
        def run(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return run

    forest, named = snvrips.persistence._forest_cycles, snvrips.pipeline._snv_bar
    monkeypatch.setattr(snvrips.persistence, "_forest_cycles", counted("forest", forest))
    monkeypatch.setattr(snvrips.pipeline, "_snv_bar", counted("named", named))
    args = ["--n", "14", "--m", "3", "--dmax", "2", "--seed", "2"]
    assert cli.main(["deformed", *args]) == 0
    bars = len(json.loads(capsys.readouterr().out)["bars"])
    assert bars and calls == {"forest": 1, "named": bars}
    for cap in ([], ["--cap", "full"], ["--cap", "2"]):
        calls.update(forest=0, named=0)
        assert cli.main(["compare", "--strict", *args, *cap]) == 0
        assert calls == {"forest": 1, "named": bars}
    # the counters see the classical side when it builds representatives
    calls.update(forest=0, named=0)
    assert cli.main(["classical", "--cap", "1", *args]) == 0
    assert calls["forest"] == 4 and calls["named"] > 0


def test_the_reused_parser_carries_nothing_from_call_to_call(tmp_path, capsys):
    matrix, times = write_matrix_files(tmp_path)
    plain = ["deformed", "--matrix", matrix, "--times", times]
    cli.build_parser.cache_clear()
    assert cli.main(plain) == 0
    first = capsys.readouterr().out  # from a parser no call has used before
    parser = cli.build_parser()

    assert cli.main(plain + ["--stability"]) == 0
    assert "stability" in json.loads(capsys.readouterr().out)
    assert cli.main(plain) == 0
    out = capsys.readouterr().out
    assert "stability" not in json.loads(out)
    assert out == first

    # rejected after --stability was read, and between two good calls
    assert cli.main(plain + ["--stability", "--prime"]) == 1
    assert "expected one argument" in capsys.readouterr().err
    assert cli.main(plain) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is parser


def test_deformed_stability_tsv_keeps_the_table(capsys):
    args = ["deformed", "--n", "8", "--m", "2", "--seed", "5", "--cap", "full"]
    assert cli.main(args + ["--stability", "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert cli.main(args + ["--stability"]) == 0
    doc = json.loads(capsys.readouterr().out)
    counts = [f"{i}\t{c}" for i, c in enumerate(doc["per_step_counts"])]
    rows = [
        f"{k}\t{row['birth_step']}\t{row['last_alive_step']}"
        for k, row in enumerate(doc["stability"]["rows"])
    ]
    assert rows  # seed 5 has a bar, so the table is not trivially empty
    assert lines == counts + rows + ["violations\t0"]


def test_compare_strict_exits_2_on_discrepancy(monkeypatch, capsys):
    fake = CorrespondenceReport(
        m=1,
        p=2,
        per_step_counts_match=[True, False],
        matched_deaths=[],
        discrepancies=["step 1: classical count 1 != deformed count 0"],
    )
    monkeypatch.setattr(cli, "correspondence", lambda counts, deformed: fake)
    assert cli.main(["compare", "--n", "5", "--m", "1", "--strict"]) == 2
    captured = capsys.readouterr()
    assert "discrepancy" in captured.err
    # without --strict the discrepancy is reported but the exit stays 0
    assert cli.main(["compare", "--n", "5", "--m", "1"]) == 0


def test_oracle_tsv(capsys):
    assert cli.main(["oracle", "--n", "6", "--m", "2", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert [line.split("\t")[0] for line in out.splitlines()] == ["0", "1", "2"]


def test_oracle_json_matches_pipelines(capsys):
    assert cli.main(["oracle", "--n", "7", "--m", "2", "--seed", "3"]) == 0
    oracle_doc = json.loads(capsys.readouterr().out)
    assert cli.main(["deformed", "--n", "7", "--m", "2", "--seed", "3"]) == 0
    deformed_doc = json.loads(capsys.readouterr().out)
    assert oracle_doc["per_step_counts"] == deformed_doc["per_step_counts"]


def test_bench_small_instance(capsys):
    code = cli.main(["bench", "--n", "10", "--m", "3", "--repetitions", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "benchmark"
    assert doc["correspondence_clean"] is True
    assert len(doc["classical_seconds"]) == 2
    assert doc["ratio_classical_over_deformed"] > 0


def test_bench_report_schema(capsys):
    # timings keep bench out of the golden corpus, so pin its keys instead
    args = ["bench", "--n", "8", "--m", "2", "--seed", "1"]
    assert cli.main(args) == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "mode",
        "n_points",
        "m",
        "p",
        "repetitions",
        "classical_seconds",
        "deformed_seconds",
        "classical_median_seconds",
        "deformed_median_seconds",
        "ratio_classical_over_deformed",
        "correspondence_clean",
    ]
    assert cli.main(args + ["--format", "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == [
        "classical_median_seconds",
        "deformed_median_seconds",
        "ratio",
    ]


def test_missing_input_is_an_error(capsys):
    assert cli.main(["classical"]) == 1
    assert "no input given" in capsys.readouterr().err


def test_conflicting_inputs_are_an_error(tmp_path, capsys):
    matrix, times = write_matrix_files(tmp_path)
    code = cli.main(
        ["classical", "--matrix", matrix, "--times", times, "--n", "5", "--m", "1"]
    )
    assert code == 1
    assert "choose one input source" in capsys.readouterr().err


def test_missing_file_is_an_error(capsys):
    assert cli.main(["classical", "--matrix", "/no/such/file", "--times", "/none"]) == 1
    assert "error:" in capsys.readouterr().err


MATRIX_FILES = {"--matrix": MATRIX, "--times": TIMES}
SEQUENCE_FILES = {"--sequences": FASTA, "--metadata": META}


@pytest.mark.parametrize("flag", [*MATRIX_FILES, *SEQUENCE_FILES])
def test_input_that_is_not_utf8_is_an_error(flag, tmp_path, capsys):
    # a UTF-16 byte-order mark, as a Windows editor may write it
    files = MATRIX_FILES if flag in MATRIX_FILES else SEQUENCE_FILES
    argv = ["deformed"]
    for name, text in files.items():
        path = tmp_path / name.lstrip("-")
        path.write_bytes((b"\xff\xfe" if name == flag else b"") + text.encode())
        argv += [name, str(path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid UTF-8" in err
    assert str(tmp_path / flag.lstrip("-")) in err


@pytest.mark.parametrize("flag", [*MATRIX_FILES, *SEQUENCE_FILES])
def test_input_with_a_utf8_byte_order_mark(flag, tmp_path, capsys):
    # Excel and Notepad may start a UTF-8 file with a byte-order mark
    files = MATRIX_FILES if flag in MATRIX_FILES else SEQUENCE_FILES
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        argv = ["deformed", "--stability"]
        for name, text in files.items():
            path = tmp_path / name.lstrip("-")
            path.write_bytes((bom if name == flag else b"") + text.encode())
            argv += [name, str(path)]
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_matrix_needs_times(tmp_path, capsys):
    matrix, _ = write_matrix_files(tmp_path)
    assert cli.main(["classical", "--matrix", matrix]) == 1
    assert "--times" in capsys.readouterr().err


def test_bad_prime_rejected(capsys):
    args = ["oracle", "--n", "12", "--m", "3", "--seed", "4", "--format", "tsv"]
    # 4 is composite; 4294967311 is prime but (p-1)^2 overflows the oracle's
    # int64 products; 1000000000000000003 would not finish trial division
    for prime in ("4", "4294967311", "1000000000000000003"):
        assert cli.main(args + ["--prime", prime]) == 1
        assert "prime" in capsys.readouterr().err


def test_largest_allowed_prime_runs():
    # the largest prime with (p-1)^2 < 2^63
    assert cli.main(["oracle", "--n", "5", "--m", "1", "--prime", "3037000493"]) == 0


def test_bad_cap_rejected(capsys):
    assert cli.main(["deformed", "--n", "5", "--m", "1", "--cap", "wide"]) == 1
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["deformed", "--n", "5", "--m", "1", "--prime", "abc"],
        ["deformed", "--n", "5", "--m", "1", "--bogus"],
        ["deformed", "--n", "5", "--m", "1", "--format", "xml"],
        ["classical", "--n", "5", "--m", "1", "--threads", "2"],
        [],
    ],
)
def test_flag_parsing_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["deformed", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_horizon_extends_generated_instance(capsys):
    assert cli.main(["classical", "--n", "5", "--m", "1", "--horizon", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 4
    assert len(doc["per_step_counts"]) == 5
    assert cli.main(["classical", "--n", "5", "--m", "3", "--horizon", "1"]) == 1


@pytest.mark.parametrize("command", ["classical", "deformed", "compare", "bench", "oracle"])
def test_generated_instance_too_large_for_numpy_exits_1(command, capsys):
    # numpy refuses a 3e9 x 3e9 shape before allocating anything
    assert cli.main([command, "--n", "3000000000", "--m", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=3000000000" in err


def test_generated_instance_needs_both_n_and_m(capsys):
    assert cli.main(["classical", "--n", "5"]) == 1
    assert "both --n and --m" in capsys.readouterr().err


def test_cap_full_on_classical(capsys):
    assert cli.main(["classical", "--n", "5", "--m", "1", "--cap", "full"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cap"] is None  # full means each step's own diameter
    assert doc["caps_by_step"] is not None


def test_repeated_runs_are_byte_identical(capsys):
    args = ["deformed", "--n", "9", "--m", "4", "--seed", "21"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first


def test_deformed_int64_overflow_exits_1(tmp_path, capsys):
    matrix = tmp_path / "dist.txt"
    times = tmp_path / "times.txt"
    matrix.write_text("999999999999999999\n")
    times.write_text("0\n999\n")
    args = ["deformed", "--matrix", str(matrix), "--times", str(times), "--cap", "full"]
    assert cli.main(args) == 1
    assert "overflow int64" in capsys.readouterr().err


def test_labels_far_apart_finish_with_deformed_counts(tmp_path, capsys):
    # two labels a million steps apart: one computation per label, not per step
    matrix, times = tmp_path / "dist.txt", tmp_path / "times.txt"
    matrix.write_text("1\n")
    times.write_text("0\n1000000\n")
    files = ["--matrix", str(matrix), "--times", str(times), "--format", "tsv"]
    out = {}
    for command in ("deformed", "classical", "oracle", "compare"):
        strict = ["--strict"] if command == "compare" else []
        assert cli.main([command, *files, *strict]) == 0
        out[command] = capsys.readouterr().out.splitlines()
    assert len(out["deformed"]) == 1_000_001
    assert out["classical"] == out["oracle"] == out["deformed"]
    assert out["compare"] == [f"{i}\t1" for i in range(1_000_001)] + ["discrepancies\t0"]


@pytest.mark.parametrize("command", ["classical", "deformed", "compare", "oracle", "bench"])
def test_horizon_beyond_int64_bound_exits_1(command, tmp_path, capsys):
    matrix, times = tmp_path / "dist.txt", tmp_path / "times.txt"
    matrix.write_text("1\n")
    times.write_text(f"0\n{2**63 - 1}\n")
    fasta, meta = tmp_path / "seqs.fa", tmp_path / "meta.tsv"
    fasta.write_text(FASTA)
    meta.write_text(META)
    horizon = ["--horizon", str(2**63 - 1)]
    for source in (
        ["--matrix", str(matrix), "--times", str(times)],
        ["--sequences", str(fasta), "--metadata", str(meta), *horizon],
        ["--n", "3", "--m", "2", *horizon],
    ):
        assert cli.main([command, *source]) == 1
        assert "overflow int64" in capsys.readouterr().err


def test_deformed_cap_below_n_plus_m_rejected(capsys):
    args = ["deformed", "--n", "60", "--m", "12", "--seed", "3", "--format", "tsv"]
    assert cli.main(args + ["--cap", "105"]) == 1
    assert "N+m = 112" in capsys.readouterr().err
    assert cli.main(args) == 0
    default = capsys.readouterr().out
    # no deformed value lies strictly between N+m and 2N
    for cap in ("112", "150", "199"):
        assert cli.main(args + ["--cap", cap]) == 0
        assert capsys.readouterr().out == default


# a unit square AA-AC-CC-CA closing at step 1, and a copy of AA merged into s1
SQUARE_FASTA = ">s1\nAA\n>s2\nAC\n>s3\nCC\n>s4\nCA\n>s5\nAA\n"
SQUARE_META = "id\ttime\ns1\t0\ns2\t0\ns3\t1\ns4\t1\ns5\t1\n"


def test_default_deformed_on_sequences_never_builds_the_hamming_matrix(
    monkeypatch, tmp_path, capsys
):
    def refuse(codes):
        raise AssertionError("dense Hamming matrix built")

    monkeypatch.setattr(snvrips.distance, "hamming_matrix", refuse)
    fasta, meta = tmp_path / "seqs.fa", tmp_path / "meta.tsv"
    fasta.write_text(SQUARE_FASTA)
    meta.write_text(SQUARE_META)
    files = ["--sequences", str(fasta), "--metadata", str(meta)]
    assert cli.main(["deformed", *files]) == 0
    assert json.loads(capsys.readouterr().out)["per_step_counts"] == [0, 1]
    assert cli.main(["deformed", "--stability", *files]) == 0
    assert json.loads(capsys.readouterr().out)["stability"]["violations"] == []
    # every route that reads only the unit-distance pairs: compare reads
    # classical births at cap 1, and 2N - 1 = 19 for m = 1
    for argv in (["compare"], ["compare", "--strict"], ["classical", "--cap", "1"]):
        assert cli.main([*argv, *files]) == 0
        assert capsys.readouterr().err == ""
    assert cli.main(["deformed", "--cap", "19", *files]) == 0
    assert json.loads(capsys.readouterr().out)["per_step_counts"] == [0, 1]
    # the full diameter and the oracle still read the dense matrix
    for argv in (["classical"], ["oracle"]):
        with pytest.raises(AssertionError, match="dense Hamming matrix built"):
            cli.main([*argv, *files])


@pytest.mark.parametrize("command", ["classical", "deformed", "compare", "oracle", "bench"])
def test_sequence_horizon_overflow_names_the_length_bound(command, tmp_path, capsys):
    # length 6 but diameter 2: the length bound decides, and the message
    # names it
    fasta, meta = tmp_path / "seqs.fa", tmp_path / "meta.tsv"
    fasta.write_text(">s1\nAAAAAA\n>s2\nAAAACC\n>s3\nAAAAAC\n")
    meta.write_text("id\ttime\ns1\t0\ns2\t1\ns3\t1\n")
    argv = [command, "--sequences", str(fasta), "--metadata", str(meta)]
    assert cli.main(argv + ["--horizon", str(10**18)]) == 1
    assert capsys.readouterr().err == (
        "error: deformed distances overflow int64: N*max(h, 1) + m = "
        "10000000000000000000*6 + 1000000000000000000 exceeds 9223372036854775807\n"
    )


def test_running_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # numpy's allocation failure is a MemoryError with its own message
    numpy_text = "Unable to allocate 298. GiB for an array with shape (200000, 200000)"
    for exc, line in ((MemoryError(), "out of memory"), (MemoryError(numpy_text), numpy_text)):

        def exhaust(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "deformed_snv", exhaust)
        assert cli.main(["deformed", "--n", "3", "--m", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")
