"""Fixtures shared by the test modules."""

import pytest

from groundhold.solver import LinearModel


@pytest.fixture
def highs_only():
    """Make LinearModel.feasible refuse every point, so that solve()
    hands every model to HiGHS even where its schedule fits. Tests that
    compare two formulations by their optimum use it: where the
    schedule fits both, the check would answer 0 for each without
    solving either."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearModel, "feasible", lambda self, values: False)
        yield
