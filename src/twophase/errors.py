"""Exception types shared across the package, the check of its sample and
trial counts, and the `Check` record of a pass/fail comparison.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from TwoPhaseError so a single except clause can catch
package-level failures without swallowing genuine bugs.
"""

import numbers
import operator
from dataclasses import dataclass

#: the comparisons a Check can make, by the sign that is printed for them
_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq}


class TwoPhaseError(Exception):
    """Base class for all package errors."""


class InvalidArgument(TwoPhaseError, ValueError):
    """An argument is outside its documented domain (t <= 0, sigma <= 0, ...)."""


class QuadratureFailure(TwoPhaseError, RuntimeError):
    """Adaptive quadrature exhausted its refinement budget."""


class FitUnstable(TwoPhaseError, RuntimeError):
    """A regression's residual is too large relative to the fitted term."""


class OutsideTubularNeighborhood(TwoPhaseError, ValueError):
    """Query point lies outside the declared tube of the surface."""


class AmbiguousProjection(TwoPhaseError, RuntimeError):
    """Two distinct nearest surface points were detected."""


class DegenerateTube(TwoPhaseError, ValueError):
    """A factor 1 - kappa*delta is nonpositive: the point is past a focal point."""


class ThresholdNotFound(TwoPhaseError, RuntimeError):
    """No admissible rate threshold was found below the search cap."""


class SandwichTooLoose(TwoPhaseError, RuntimeError):
    """The barrier gap exceeds the quantity it is meant to resolve."""


class UnsupportedGeometry(TwoPhaseError, ValueError):
    """The operation only supports its documented model geometries."""


class InsufficientHorizon(TwoPhaseError, ValueError):
    """The time series is too short for the requested transform accuracy."""


class NonConvergence(TwoPhaseError, RuntimeError):
    """An iterative solve (linear or Newton) did not reach its tolerance."""


class ConfigError(TwoPhaseError, ValueError):
    """A run configuration failed schema validation."""


def positive_count(name: str, value) -> int:
    """value as an int if it is a whole number >= 1 (JSON's 1e6 included);
    otherwise InvalidArgument, since a count below 1 checks nothing and a
    truncated one checks other samples than were asked for."""
    whole = (isinstance(value, numbers.Integral)
             or isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < 1:
        raise InvalidArgument(f"{name} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Check:
    """One pass/fail comparison, `value sense bound` (sense one of <, <=,
    >, >=, ==): the acceptance criteria and the helicoid report state each
    comparison they make as one, so the bound that is printed and written
    is the bound that decided the pass."""

    label: str
    value: float
    bound: float
    sense: str

    @property
    def passed(self) -> bool:
        return bool(_SENSES[self.sense](self.value, self.bound))
