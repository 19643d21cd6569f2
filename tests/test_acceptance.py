"""Acceptance gate: every build criterion, one pass/fail line each.

The full battery integrates large ensembles; expect a few minutes of
runtime.  Criteria 4, 6 and 8 (fringe_death, thermal_consistency,
density_persistence) compare against references for the whole
write/store/read protocol; their recorded lines print the storage-only or
full-element values beside them.
"""

import pytest

from catmem.acceptance import CRITERIA, run_criteria


@pytest.fixture(scope="module")
def results():
    out = run_criteria()
    return {r.number: r for r in out}


@pytest.mark.parametrize("number,name",
                         [(n, name) for n, name, _ in CRITERIA],
                         ids=[f"{n}_{name}" for n, name, _ in CRITERIA])
def test_criterion(results, number, name, capsys):
    result = results[number]
    with capsys.disabled():
        print(result.summary())
    assert result.name == name
    assert result.passed, "\n".join(result.lines)
