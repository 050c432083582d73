"""Golden regression tests: pinned schedules of the exact peeling engines.

Each case schedules one input with oggp, ``ggp(matching='arbitrary')``
and (on weight-regular inputs) wrgp, under ``fast``, ``vector`` and
``reference``; the schedule digests, error strings and work counters
must match the corpus exactly, and the three exact engines must agree
with each other.  If a change moves any of them, regenerate the corpus
with ``PYTHONPATH=src python tests/regression/regen_schedules.py`` and
explain the diff.
"""

import json

import pytest

from tests.regression.regen_schedules import CASES, ENGINES, GOLDEN, run_case

CORPUS = json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(CORPUS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedules_reproduce(name):
    got = run_case(name)
    assert got == CORPUS[name]
    if "counters" in got:
        return  # kpbs-random instances run under ``fast`` only
    for key, outcome in got.items():
        if "/fast" in key:
            for engine in ENGINES:
                assert got[key.replace("/fast", f"/{engine}")] == outcome, key
