"""Thin wrapper around adaptive Gauss-Kronrod quadrature.

The integrands in this package are finite sums of Gaussians (and products of
Gaussians with indicators), so QUADPACK's adaptive Gauss-Kronrod rule with a
tight absolute tolerance is the right tool.  The wrapper exists to turn
silent accuracy warnings into hard errors and to keep the truncation policy
(40 standard deviations for Gaussian tails) in one place.
"""

from __future__ import annotations

from scipy import integrate

from .errors import InvalidArgument, QuadratureFailure

#: absolute tolerance of every adaptive integration
DEFAULT_TOL = 1e-12

#: Gaussian tails are truncated this many standard deviations out
GAUSSIAN_CUTOFF_STD = 40.0


def integrate_adaptive(f, a: float, b: float) -> float:
    """Integrate f on [a, b] to absolute tolerance DEFAULT_TOL in at most
    200 subintervals.

    An empty interval (b == a) integrates to 0; a reversed one (b < a)
    raises InvalidArgument.  Raises QuadratureFailure if the adaptive
    refinement budget is exhausted or the reported error estimate exceeds
    100x DEFAULT_TOL.
    """
    if b < a:
        raise InvalidArgument(f"reversed interval [{a}, {b}]")
    if not (b > a):
        return 0.0
    out = integrate.quad(f, a, b, epsabs=DEFAULT_TOL, epsrel=0.0, limit=200,
                         full_output=True)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # explanation string present only on trouble
        raise QuadratureFailure(f"adaptive quadrature failed on [{a}, {b}]: {out[3]}")
    if abserr > 100.0 * DEFAULT_TOL * max(1.0, abs(value)):
        raise QuadratureFailure(
            f"quadrature error estimate {abserr:.3e} exceeds budget on [{a}, {b}]")
    return value
