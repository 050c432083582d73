"""Golden regression tests: pinned end-to-end executions.

Each case runs one redistribution executor — netsim or runtime, with
faults or live churn — and, where the run is checkpointed, resumes it
from its journal cut mid-run with a torn tail.  The journal bytes, the
outcome fields and the delivered digest must match the corpus exactly.
If a change moves any of them, regenerate the corpus with
``PYTHONPATH=src python tests/regression/regen_executions.py`` and
explain the diff.
"""

import json

import pytest

from tests.regression.regen_executions import CASES, GOLDEN, run_case

CORPUS = json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert sorted(CORPUS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_execution_reproduces(name):
    assert run_case(name) == CORPUS[name]
