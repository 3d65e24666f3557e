"""Discrete probability mass functions and the Wasserstein distance.

Capacities are small non-negative integers, so every distribution here is
a finite PMF on integer support, and the order-1 Wasserstein distance
between two of them has a closed form on the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .config import load_input

#: strict tolerance on sum(weights) == 1 once a distribution is built
MASS_TOL = 1e-9
#: loose tolerance within which make_pmf silently renormalizes
RENORM_TOL = 1e-6


@dataclass(frozen=True)
class Pmf:
    """PMF on a strictly increasing integer support.

    Instances are immutable and always satisfy: equal-length support and
    weights, non-negative weights, and total mass within MASS_TOL of one.
    Use make_pmf for inputs that may need renormalization.
    """

    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError(
                f"{len(self.support)} support points vs {len(self.weights)} weights"
            )
        if len(self.support) == 0:
            raise ValueError("a PMF needs at least one support point")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if not all(map(math.isfinite, self.weights)):
            raise ValueError(f"non-finite weight in {self.weights}")
        if any(w < 0 for w in self.weights):
            raise ValueError(f"negative weight in {self.weights}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.support)

    @property
    def support_array(self) -> np.ndarray:
        return np.asarray(self.support, dtype=float)

    @property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def weight_at(self, value: int) -> float:
        """Probability of a single support value (0 if absent)."""
        try:
            return self.weights[self.support.index(value)]
        except ValueError:
            return 0.0


def as_whole(value) -> int:
    """value as a whole number of at least 0, such as 3, 3.0 or a numpy
    integer: a capacity, an interval index, a slot or a slack. Anything
    else, a bool or a string included, raises ValueError naming the
    value."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if isinstance(value, bool) or whole is None or whole != value or whole < 0:
        raise ValueError(f"expected a whole number of at least 0, got {value!r}")
    return whole


def as_real(value) -> float:
    """value as a real number, such as 3, 0.25 or a numpy float: a cost,
    a weight or a probability read from a file. A bool, a string or
    anything else that is not a number raises ValueError naming the
    value; a NaN or an infinity passes, for the reader's own check to
    refuse with its own message."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"expected a real number, got {value!r}")
    return float(value)


def make_pmf(support, weights) -> Pmf:
    """Build a Pmf, renormalizing near-unit mass.

    Each support value must be a capacity, a whole number (as_whole).
    Weight vectors whose sum deviates from 1 by more than MASS_TOL but
    at most RENORM_TOL are rescaled; Pmf itself rejects a length
    mismatch, a non-finite or negative weight or any larger deviation
    with ValueError.
    """
    support = tuple(as_whole(s) for s in support)
    weights = tuple(float(w) for w in weights)
    total = math.fsum(weights)
    if MASS_TOL < abs(total - 1.0) <= RENORM_TOL:
        weights = tuple(w / total for w in weights)
    return Pmf(support, weights)


def pmf_mean(p: Pmf) -> float:
    """Expected value of the PMF."""
    return float(np.dot(p.support_array, p.weights_array))


def wasserstein_1d(p: Pmf, q: Pmf) -> float:
    """Order-1 Wasserstein distance between two PMFs on the line.

    Computed as the integral of |F_p - F_q| over the merged support,
    which is exact for discrete distributions.
    """
    xs = np.union1d(p.support_array, q.support_array)
    cum_p = np.cumsum(p.weights_array)
    cum_q = np.cumsum(q.weights_array)
    # CDF of each distribution evaluated at every merged support point
    f_p = np.concatenate(([0.0], cum_p))[
        np.searchsorted(p.support_array, xs, side="right")
    ]
    f_q = np.concatenate(([0.0], cum_q))[
        np.searchsorted(q.support_array, xs, side="right")
    ]
    gaps = np.diff(xs)
    return float(np.sum(np.abs(f_p[:-1] - f_q[:-1]) * gaps))


# ---------------------------------------------------------------------------
# JSON serialization. Encoding floats through json round-trips them exactly
# (repr is shortest-exact in Python 3), so save/load is bit-identical.


def pmf_to_dict(p: Pmf) -> dict:
    return {"support": list(p.support), "weights": list(p.weights)}


def pmf_from_dict(d: dict) -> Pmf:
    return make_pmf(d["support"], [as_real(w) for w in d["weights"]])


def load_pmf_series(path) -> list[Pmf]:
    return load_input(path, "PMF series", lambda body: [pmf_from_dict(d) for d in body])
