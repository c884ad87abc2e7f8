"""`cubartin build` against the golden corpus in tests/golden: the exit
code, stdout and `-o` digest of every case must stay the same.  A change
that means to alter them reruns tests/golden/regenerate.py and says why."""

import json

import pytest
from golden.regenerate import CASES, EXPECTED, record

RECORDS = json.loads(EXPECTED.read_text())


def test_corpus_holds_every_case():
    assert sorted(RECORDS) == sorted(CASES)
    assert all(RECORDS[name]["graph"] == text for name, text in CASES.items())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_build_matches_golden(name):
    assert record(RECORDS[name]["graph"]) == RECORDS[name]
