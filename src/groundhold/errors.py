"""Exception types shared across the package.

The five types, and the exit code each leads to on the command line:

* GroundholdError - base class of the four below;
* ConfigError - a malformed config file, section or value: exit 2;
* MissingInputError - an input file that is absent a field or whose
  content is malformed, named with the file: exit 1;
* InfeasibleReductionError - a perturbation band too tight to reach the
  target mean: exit 1;
* SolverError - a model that ends without the optimum the caller needs:
  exit 1.

Any other fault in the inputs raises a plain ValueError, which the
command line also turns into exit 1; a reader of an input file wraps it
as a MissingInputError naming the file.
"""


class GroundholdError(Exception):
    """Base class for every error raised by this package."""


class SolverError(GroundholdError, RuntimeError):
    """An optimization model ended without the optimum the caller needs."""


class InfeasibleReductionError(GroundholdError, ValueError):
    """The perturbation band is too tight to reach the target mean."""


class ConfigError(GroundholdError, ValueError):
    """A pipeline configuration file is malformed."""


class MissingInputError(GroundholdError, ValueError):
    """A required input file, config entry or file field is absent or
    has the wrong shape."""
