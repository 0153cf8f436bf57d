"""Acceptance gate: one test per shipped criterion, with its stated budget.

Each criterion runs through knotfog.selftest (the same code the CLI
`selftest` command executes) and prints one pass/fail line; run with
`pytest -s tests/test_acceptance.py` to see them.  The suite runs once per
module, and every test here reads that one run.
"""

import pytest

from knotfog import selftest

# name -> wall-clock budget in seconds, where one is stated
BUDGETS = {
    "pretzel-polynomial-identity": 1.0,
    "whitehead-family-table": 1.0,
    "twice-genus-soundness": 5.0,
    "basis-enumerator-closed-forms": 5.0,
}


@pytest.fixture(scope="module")
def results():
    return selftest.run_all()


@pytest.mark.parametrize("name", [name for name, _ in selftest.CRITERIA])
def test_criterion(name, results):
    result = next(r for r in results if r.name == name)
    print(f"{'PASS' if result.passed else 'FAIL'} {name} "
          f"({result.seconds:.3f}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    budget = BUDGETS.get(name)
    if budget is not None:
        assert result.seconds < budget, \
            f"{name} took {result.seconds:.3f}s, budget {budget}s"


def test_whole_suite_is_quick(results):
    assert all(r.passed for r in results)
    assert sum(r.seconds for r in results) < 10.0
