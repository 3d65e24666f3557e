"""Distribution type and Wasserstein distance tests."""

import json
import math
import re

import numpy as np
import pytest

from fixtures import point_mass
from groundhold.pmf import (
    Pmf,
    as_real,
    make_pmf,
    pmf_from_dict,
    pmf_mean,
    pmf_to_dict,
    wasserstein_1d,
)
from oracles import wasserstein_lp

EXAMPLE = make_pmf([0, 1, 2, 3, 4, 5], [0.05, 0.10, 0.70, 0.10, 0.03, 0.02])


def random_pmf(rng, max_atoms=8, max_value=20):
    n = rng.integers(1, max_atoms + 1)
    support = np.sort(rng.choice(max_value, size=n, replace=False))
    weights = rng.dirichlet(np.ones(n))
    return make_pmf(support, weights)


def test_make_pmf_keeps_valid_weights():
    p = EXAMPLE
    assert p.support == (0, 1, 2, 3, 4, 5)
    assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)


def test_make_pmf_renormalizes_small_deviation():
    p = make_pmf([0, 1], [0.5, 0.5 + 5e-7])
    assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)
    assert p.weights[1] > p.weights[0]


def test_make_pmf_rejects_bad_input():
    with pytest.raises(ValueError, match="2 support points vs 1 weights"):
        make_pmf([0, 1], [1.0])
    with pytest.raises(ValueError, match="negative weight in"):
        make_pmf([0, 1], [0.5, -0.1])
    with pytest.raises(ValueError, match="weights sum to 1.1, not 1"):
        make_pmf([0, 1], [0.5, 0.6])
    # every comparison with NaN is false, so a mass check alone passes it
    with pytest.raises(ValueError, match=r"non-finite weight in \(nan, 0.5\)"):
        make_pmf([0, 1], [math.nan, 0.5])
    with pytest.raises(ValueError, match=r"non-finite weight in \(0.5, inf\)"):
        make_pmf([0, 1], [0.5, math.inf])
    with pytest.raises(ValueError, match="non-finite weight"):
        Pmf((0, 1), (math.nan, 1.0))
    with pytest.raises(ValueError):
        Pmf((1, 1), (0.5, 0.5))


@pytest.mark.parametrize("value", [0.7, 1.9, -3, -1.0, math.nan, math.inf, "3", True, None], ids=repr)
def test_make_pmf_refuses_a_capacity_that_is_not_a_whole_number(value):
    """A capacity is never truncated: 0.7 is refused, not read as 0."""
    with pytest.raises(ValueError) as caught:
        make_pmf([value, 5], [0.5, 0.5])
    assert str(caught.value) == f"expected a whole number of at least 0, got {value!r}"


def test_make_pmf_accepts_integral_capacities():
    p = make_pmf([np.int64(0), 3.0, np.float64(4.0), 7], [0.25] * 4)
    assert p.support == (0, 3, 4, 7)
    assert all(type(s) is int for s in p.support)


def test_pmf_mean_example():
    assert pmf_mean(EXAMPLE) == pytest.approx(2.02, abs=1e-12)


def test_wasserstein_1d_point_masses():
    assert wasserstein_1d(point_mass(3), point_mass(7)) == pytest.approx(4.0)


def test_wasserstein_1d_half_shift():
    p = make_pmf([0, 1], [0.5, 0.5])
    q = make_pmf([0, 1], [0.0, 1.0])
    assert wasserstein_1d(p, q) == pytest.approx(0.5)


def test_wasserstein_1d_metric_properties():
    """Symmetry, identity and the triangle inequality on random triples."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q, r = (random_pmf(rng) for _ in range(3))
        dpq = wasserstein_1d(p, q)
        assert dpq >= 0
        assert dpq == pytest.approx(wasserstein_1d(q, p), abs=1e-12)
        assert wasserstein_1d(p, p) == pytest.approx(0.0, abs=1e-12)
        assert dpq <= wasserstein_1d(p, r) + wasserstein_1d(r, q) + 1e-9


def test_wasserstein_1d_translation():
    """Shifting a PMF by k moves it exactly k in W1."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = random_pmf(rng)
        k = int(rng.integers(1, 6))
        q = make_pmf([s + k for s in p.support], p.weights)
        assert wasserstein_1d(p, q) == pytest.approx(k, abs=1e-9)


def test_wasserstein_lp_matches_closed_form():
    """Transportation LP with |x - y| costs equals the 1-D formula."""
    rng = np.random.default_rng(9)
    for _ in range(60):
        p, q = random_pmf(rng), random_pmf(rng)
        cost = np.abs(np.subtract.outer(p.support_array, q.support_array))
        value, coupling = wasserstein_lp(p, q, cost)
        assert value == pytest.approx(wasserstein_1d(p, q), abs=1e-8)
        assert coupling.sum(axis=1) == pytest.approx(p.weights_array, abs=1e-9)
        assert coupling.sum(axis=0) == pytest.approx(q.weights_array, abs=1e-9)
        assert np.all(coupling >= 0)


def test_wasserstein_lp_rejects_shape_mismatch():
    p = make_pmf([0, 1], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"cost matrix shape \(2, 3\) does not match \(2, 2\)"):
        wasserstein_lp(p, p, np.zeros((2, 3)))


def test_json_round_trip_is_exact():
    """Serialization preserves every float bit-for-bit."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = random_pmf(rng)
        q = pmf_from_dict(json.loads(json.dumps(pmf_to_dict(p))))
        assert q.support == p.support
        assert q.weights == p.weights


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_as_real_refuses_what_is_not_a_number(value):
    with pytest.raises(ValueError, match=re.escape(f"expected a real number, got {value!r}")):
        as_real(value)


def test_as_real_reads_numbers_and_leaves_finiteness_to_the_reader():
    for value in (3, 0.25, np.float32(0.5), np.int64(2), math.nan, math.inf):
        got = as_real(value)
        assert type(got) is float
        assert got == value or math.isnan(value)
    # a file PMF's weights go through as_real, a NaN on to Pmf's check
    with pytest.raises(ValueError, match="expected a real number, got True"):
        pmf_from_dict({"support": [0, 1], "weights": [True, False]})
    with pytest.raises(ValueError, match="non-finite weight"):
        pmf_from_dict({"support": [0, 1], "weights": [math.nan, 1.0]})
