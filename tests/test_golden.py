"""Replay a fixed slice of the report corpus (``golden.py``); CI replays all of it."""

import golden

# one or two inputs of each kind, under every command, format and prime
SLICE_INPUTS = (
    "gen-s3-d2",
    "gen-s12-d4",
    "merged-2",
    "merged-6",
    "fasta-duplicates",
    "bad-cell",
    "horizon-int64",
    "ragged-fasta",
)


def test_corpus_slice_replays_clean():
    corpus = golden.load()
    subset = {
        line: cases for line, cases in corpus.items() if line.split(" ")[0] in SLICE_INPUTS
    }
    per_input = len(golden.COMMANDS) * len(golden.FORMATS) * len(golden.PRIMES)
    assert sum(map(len, subset.values())) == len(SLICE_INPUTS) * per_input
    assert golden.changed(subset) == []


def test_only_malformed_inputs_exit_1():
    corpus = golden.load()
    codes = {
        (line.split(" ")[0], result.split(" ")[0])
        for line, cases in corpus.items()
        for result in cases.values()
    }
    assert sum(map(len, corpus.values())) >= 2000
    assert {name for name, code in codes if code != "0"} == set(golden.MALFORMED)
    assert {code for name, code in codes if name in golden.MALFORMED} == {"1"}
