"""solve() answers a model whose as-scheduled point fits without HiGHS.

Each case is solved twice, once as shipped and once with
LinearModel.feasible patched to refuse every point, which sends every
model to HiGHS; the two results must be equal field by field."""

from functools import partial

import pytest

from fixtures import network_day, one_below, random_instance, stress_instance
from groundhold.maghp import best_capacity_profiles, build_det, build_dr, build_sp, solve
from groundhold.solver import LinearModel

CASES = {
    "stress": stress_instance,
    "network_day-0": partial(network_day, 0),
    **{f"random-{seed}": partial(random_instance, seed) for seed in range(20)},
}
# the cases whose schedule fits every stage's largest capacity: all but
# three, so det takes HiGHS only on those
DET_FITS = set(CASES) - {"random-1", "random-3", "random-6"}
# the case whose schedule fits every capacity of every tree
ALL_FIT = "random-0"


def _models(instance) -> dict:
    best = best_capacity_profiles(instance)
    models = {
        "det": build_det(instance, best),
        "det-tight": build_det(instance, one_below(instance, best)),
        "sp": build_sp(instance),
    }
    for eps in (0.0, 0.02, 0.1):
        models[f"dr-{eps}"] = build_dr(instance, eps)
    return models


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_schedule_check_gives_the_highs_result(case, monkeypatch):
    """Status, objective, policy, kind, radius and the dr duals, by
    value, agree with HiGHS's; the check fires for det where the
    schedule fits the best profiles, for sp and dr on ALL_FIT, never
    where a row is one below the schedule's count, and exactly where
    HiGHS's optimum is 0."""
    feasible = LinearModel.feasible
    fired = []

    def recording(self, values):
        fired.append(feasible(self, values))
        return fired[-1]

    for name, bundle in _models(CASES[case]()).items():
        monkeypatch.setattr(LinearModel, "feasible", recording)
        checked = solve(bundle)
        monkeypatch.setattr(LinearModel, "feasible", lambda self, values: False)
        highs = solve(bundle)
        monkeypatch.undo()

        assert checked == highs, name
        assert highs.status == "optimal", name
        assert fired.pop() == (highs.objective == 0.0), name
        if name == "det-tight":
            assert highs.objective > 0.0
        elif name == "det":
            assert (highs.objective == 0.0) == (case in DET_FITS)
        elif case == ALL_FIT:
            assert highs.objective == 0.0, name

