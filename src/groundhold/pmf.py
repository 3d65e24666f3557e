"""Discrete probability mass functions and the Wasserstein distance.

Capacities are small non-negative integers, so every distribution here is
a finite PMF on integer support, and the order-1 Wasserstein distance
between two of them has a closed form on the line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AllZeroCostsError,
    LengthMismatchError,
    MassDeviationError,
    NegativeWeightError,
)

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
            raise LengthMismatchError(
                f"{len(self.support)} support points vs {len(self.weights)} weights"
            )
        if len(self.support) == 0:
            raise LengthMismatchError("a PMF needs at least one support point")
        if any(b <= a for a, b in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(w < 0 for w in self.weights):
            raise NegativeWeightError(f"negative weight in {self.weights}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > MASS_TOL:
            raise MassDeviationError(f"weights sum to {total!r}, not 1")

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


def make_pmf(support, weights) -> Pmf:
    """Validate and build a Pmf, renormalizing near-unit mass.

    Weight vectors whose sum deviates from 1 by at most RENORM_TOL are
    rescaled; larger deviations raise MassDeviationError. Raises
    LengthMismatchError and NegativeWeightError as appropriate.
    """
    support = tuple(int(s) for s in support)
    weights = tuple(float(w) for w in weights)
    if len(support) != len(weights):
        raise LengthMismatchError(
            f"{len(support)} support points vs {len(weights)} weights"
        )
    if any(w < 0 for w in weights):
        raise NegativeWeightError(f"negative weight in {weights}")
    total = math.fsum(weights)
    if abs(total - 1.0) > RENORM_TOL:
        raise MassDeviationError(f"weights sum to {total!r}, not 1")
    if abs(total - 1.0) > MASS_TOL:
        weights = tuple(w / total for w in weights)
    return Pmf(support, weights)


def pmf_mean(p: Pmf) -> float:
    """Expected value of the PMF."""
    return float(np.dot(p.support_array, p.weights_array))


def point_mass(value: int) -> Pmf:
    return Pmf((int(value),), (1.0,))


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


def normalize_ground_costs(cost) -> np.ndarray:
    """Scale a non-negative cost matrix so its largest entry is 1.

    Keeps ambiguity radii comparable across airports whose raw capacity
    scales differ. Raises AllZeroCostsError when there is nothing to
    scale by.
    """
    c = np.asarray(cost, dtype=float)
    if np.any(c < 0):
        raise ValueError("ground costs must be non-negative")
    top = c.max() if c.size else 0.0
    if top <= 0.0:
        raise AllZeroCostsError("cost matrix has no positive entry")
    return c / top


# ---------------------------------------------------------------------------
# JSON serialization. Encoding floats through json round-trips them exactly
# (repr is shortest-exact in Python 3), so save/load is bit-identical.


def pmf_to_dict(p: Pmf) -> dict:
    return {"support": list(p.support), "weights": list(p.weights)}


def pmf_from_dict(d: dict) -> Pmf:
    return make_pmf(d["support"], d["weights"])


def save_pmf_series(path, series: list[Pmf]) -> None:
    Path(path).write_text(
        json.dumps([pmf_to_dict(p) for p in series], indent=1) + "\n"
    )


def load_pmf_series(path) -> list[Pmf]:
    return [pmf_from_dict(d) for d in json.loads(Path(path).read_text())]
