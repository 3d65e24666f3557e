"""Exception types shared across the package.

Validation failures subclass ValueError so callers that don't care about
the fine-grained type can catch the builtin. A model that ends without a
usable optimum where one is required raises SolverError.
"""


class GroundholdError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatchError(GroundholdError, ValueError):
    """Support and weight sequences differ in length."""


class NegativeWeightError(GroundholdError, ValueError):
    """A probability weight is negative."""


class MassDeviationError(GroundholdError, ValueError):
    """Probability weights sum too far from one to renormalize."""


class AllZeroCostsError(GroundholdError, ValueError):
    """A cost matrix has no strictly positive entry to scale by."""


class EmptySeriesError(GroundholdError, ValueError):
    """A PMF time series is empty."""


class TooFewIntervalsError(GroundholdError, ValueError):
    """A time series is too short to cluster."""


class InvalidChangePointCountError(GroundholdError, ValueError):
    """Requested number of change points is out of range."""


class TooManyClustersError(GroundholdError, ValueError):
    """Requested more clusters than the PMF has positive-weight atoms."""


class ScenarioExplosionError(GroundholdError, ValueError):
    """The scenario tree would enumerate more scenarios than the cap allows."""


class TimestampOutOfHorizonError(GroundholdError, ValueError):
    """An operation record falls outside the configured horizon."""


class EmptyDatasetError(GroundholdError, ValueError):
    """A training or evaluation dataset has no rows."""


class LabelOutOfRangeError(GroundholdError, ValueError):
    """A capacity label lies outside [0, max_capacity]."""


class DimensionMismatchError(GroundholdError, ValueError):
    """A feature vector does not match the model's input width."""


class SolverError(GroundholdError, RuntimeError):
    """An optimization model ended without the optimum the caller needs."""


class InfeasibleReductionError(GroundholdError, ValueError):
    """The perturbation band is too tight to reach the target mean."""


class ConfigError(GroundholdError, ValueError):
    """A pipeline configuration file is malformed."""


class MissingInputError(GroundholdError, ValueError):
    """A required input file, config entry or file field is absent or
    has the wrong shape."""
