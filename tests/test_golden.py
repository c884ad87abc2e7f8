"""`cubartin build` and `cubartin algebra` against the golden corpora in
tests/golden: the exit code, stdout and `-o` digest of every build case, and
the exit code, stdout and stderr of every algebra case, must stay the same.
A change that means to alter them reruns tests/golden/regenerate.py and
says why."""

import json

import pytest
from golden.regenerate import ALGEBRA_CASES, ALGEBRA_EXPECTED, CASES, EXPECTED, algebra_record, record

RECORDS = json.loads(EXPECTED.read_text())
ALGEBRA_RECORDS = json.loads(ALGEBRA_EXPECTED.read_text())


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
