"""Every `cubartin` subcommand against the golden corpora in tests/golden:
the exit code, stdout, stderr and `-o` digest of every build, algebra,
analyze, verify and toolkit case must stay the same.  A change that means to
alter them reruns tests/golden/regenerate.py and says why."""

import json

import pytest
from golden.regenerate import (
    ALGEBRA_CASES,
    ALGEBRA_EXPECTED,
    CASES,
    CORPORA,
    EXPECTED,
    WRITTEN,
    algebra_record,
    cli_record,
    record,
)

RECORDS = json.loads(EXPECTED.read_text())
ALGEBRA_RECORDS = json.loads(ALGEBRA_EXPECTED.read_text())
# analyze, verify and toolkit: (argv, files) cases run by cli_record
CLI_CORPORA = {path.stem: (json.loads(path.read_text()), cases) for path, cases, run in CORPORA if run is cli_record}


def test_corpus_holds_every_case():
    assert sorted(RECORDS) == sorted(CASES)
    assert all(RECORDS[name]["graph"] == text for name, text in CASES.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_build_matches_golden(name):
    assert record(RECORDS[name]["graph"]) == RECORDS[name]


def test_algebra_corpus_holds_every_case():
    assert sorted(ALGEBRA_RECORDS) == sorted(ALGEBRA_CASES)
    assert all(ALGEBRA_RECORDS[name]["argv"] == argv for name, argv in ALGEBRA_CASES.items())


@pytest.mark.parametrize("name", sorted(ALGEBRA_RECORDS))
def test_algebra_matches_golden(name):
    assert algebra_record(ALGEBRA_CASES[name]) == ALGEBRA_RECORDS[name]


@pytest.mark.parametrize("corpus", sorted(CLI_CORPORA))
def test_cli_corpus_holds_every_case(corpus):
    records, cases = CLI_CORPORA[corpus]
    assert sorted(records) == sorted(cases)
    assert all(records[name]["argv"] == argv for name, (argv, _) in cases.items())


def test_verify_reads_the_files_build_writes():
    verified, _ = CLI_CORPORA["verify"]
    for name in WRITTEN:
        assert verified[f"written-{name}"]["inputs"]["in.complex"] == RECORDS[name]["output"]["sha256"]


@pytest.mark.parametrize(
    "corpus,name", [(corpus, name) for corpus, (records, _) in sorted(CLI_CORPORA.items()) for name in sorted(records)]
)
def test_cli_matches_golden(corpus, name):
    records, cases = CLI_CORPORA[corpus]
    assert cli_record(cases[name]) == records[name]
