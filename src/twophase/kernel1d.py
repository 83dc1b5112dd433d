"""Exact two-phase heat kernel on the line and the half-line Cauchy solution.

Sign convention (fixed throughout the package): the region x1 <= 0 carries
sigma_m and the region x1 > 0 carries sigma_s, i.e. the domain that starts
cold is {x1 > 0}.  The kernel G(x1, y1, t) is assembled from four pieces
indexed by the sign pattern of (x1, y1): a direct Gaussian plus an image
term with reflection amplitude (sqrt(sm) - sqrt(ss)) / (sqrt(sm) + sqrt(ss))
when source and target share a side, and a stretched Gaussian with
transmission amplitude 2 sqrt(s_target) / (sqrt(sm) + sqrt(ss)) when they do
not.

Integrating each Gaussian piece gives the half-line Cauchy solution in
closed form through complementary error functions, with the cold-side and
warm-side branches

    u(x1, t) = k erfc(x1 / (2 sqrt(t ss)))                      for x1 >= 0,
    u(x1, t) = erfc(xi)/2 + r erfc(-xi)/2,  xi = x1/(2 sqrt(t sm)),

where k is the interface constant, r = (sqrt(sm) - sqrt(ss)) / (sqrt(sm) +
sqrt(ss)).  At x1 = 0 both branches give exactly k for every t, which is the
quantitative heart of the hyperplane case.

Everything here is a pure function; evaluation grids can be processed in
parallel with no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import ConsistencyError, DegenerateFit, InvalidArgument
from .medium import TwoPhaseMedium, gaussian_kernel, interface_constant
from .quadrature import GAUSSIAN_CUTOFF_STD, integrate_adaptive

TWO_WAY_TOL = 1e-10


def _amplitudes(medium: TwoPhaseMedium):
    a = math.sqrt(medium.sigma_s)
    m = math.sqrt(medium.sigma_m)
    refl_m = (m - a) / (m + a)     # image amplitude on the sigma_m side
    refl_s = (a - m) / (a + m)     # image amplitude on the sigma_s side
    trans_m = 2.0 * m / (m + a)    # transmission into x1 <= 0
    trans_s = 2.0 * a / (m + a)    # transmission into x1 > 0
    return a, m, refl_m, refl_s, trans_m, trans_s


def eval_kernel(x1: float, y1, t: float, medium: TwoPhaseMedium):
    """Two-phase heat kernel G(x1, y1, t); vectorized over y1.

    Nonnegative, continuous in y1 across y1 = 0, and of unit mass in y1
    for every x1 and t > 0.
    """
    if not (t > 0.0):
        raise InvalidArgument(f"t must be positive, got {t!r}")
    a, m, refl_m, refl_s, trans_m, trans_s = _amplitudes(medium)
    ss, sm = medium.sigma_s, medium.sigma_m
    y1 = np.asarray(y1, dtype=float)

    if x1 <= 0.0:
        same = gaussian_kernel(x1 - y1, t, sm) + refl_m * gaussian_kernel(x1 + y1, t, sm)
        cross = trans_m * gaussian_kernel(x1 - (m / a) * y1, t, sm)
        val = np.where(y1 <= 0.0, same, cross)
    else:
        same = gaussian_kernel(x1 - y1, t, ss) + refl_s * gaussian_kernel(x1 + y1, t, ss)
        cross = trans_s * gaussian_kernel(x1 - (a / m) * y1, t, ss)
        val = np.where(y1 > 0.0, same, cross)
    return val if val.ndim else float(val)


def halfline_closed_form(x1: float, t: float, medium: TwoPhaseMedium) -> float:
    """Closed form of integral of G(x1, ., t) over y1 <= 0 via erfc."""
    if not (t > 0.0):
        raise InvalidArgument(f"t must be positive, got {t!r}")
    a, m, refl_m, _, _, _ = _amplitudes(medium)
    if x1 >= 0.0:
        k = interface_constant(medium)
        return k * float(erfc(x1 / (2.0 * math.sqrt(t * medium.sigma_s))))
    xi = x1 / (2.0 * math.sqrt(t * medium.sigma_m))
    return 0.5 * float(erfc(xi)) + refl_m * 0.5 * float(erfc(-xi))


def halfline_quadrature(x1: float, t: float, medium: TwoPhaseMedium) -> float:
    """Adaptive quadrature of G(x1, ., t) over y1 <= 0, to the absolute
    tolerance `quadrature.DEFAULT_TOL`.

    The integrand is a sum of Gaussians in y1; the lower limit is truncated
    40 standard deviations below the leftmost Gaussian center.
    """
    if not (t > 0.0):
        raise InvalidArgument(f"t must be positive, got {t!r}")
    a, m, *_ = _amplitudes(medium)
    if x1 <= 0.0:
        # centers of the direct and image Gaussians in the y1 variable
        centers = (x1, -x1)
        width = math.sqrt(2.0 * t * medium.sigma_m)
    else:
        # stretched Gaussian: center where x1 - (a/m) y1 = 0
        centers = ((m / a) * x1,)
        width = (m / a) * math.sqrt(2.0 * t * medium.sigma_s)
    lo = min(centers) - GAUSSIAN_CUTOFF_STD * width
    lo = min(lo, -GAUSSIAN_CUTOFF_STD * width)

    def f(y):
        return eval_kernel(x1, y, t, medium)

    return integrate_adaptive(f, lo, 0.0)


def halfline_solution(x1: float, t: float, medium: TwoPhaseMedium,
                      tol: float = TWO_WAY_TOL) -> float:
    """Temperature of the half-line Cauchy solution, checked two ways.

    Computes the closed form and the adaptive quadrature and raises
    ConsistencyError if they disagree by more than tol; returns the
    closed-form value.
    """
    exact = halfline_closed_form(x1, t, medium)
    quad = halfline_quadrature(x1, t, medium)
    if abs(exact - quad) > tol:
        raise ConsistencyError(
            f"closed form {exact!r} and quadrature {quad!r} disagree at "
            f"(x1={x1}, t={t}) by {abs(exact - quad):.3e}")
    return exact


@dataclass(frozen=True)
class DecayEstimate:
    """Envelope u <= B exp(-b/t) fitted on a sample window.

    By construction the log-residuals on the fitted window are <= 0: the
    least-squares amplitude is inflated until the bound actually holds.
    """

    B: float
    b: float

    def bound(self, t):
        return self.B * np.exp(-self.b / np.asarray(t, dtype=float))


def fit_decay_envelope(points, t_grid, medium: TwoPhaseMedium) -> DecayEstimate:
    """Fit an envelope B exp(-b/t) over points at distance >= rho from 0.

    `points` is a list of (x1, rho) pairs with rho > 0.  On the sigma_s side
    the solution u itself decays; on the sigma_m side 1 - u does, and the
    fit switches accordingly.  Underflowed samples (value 0) satisfy any
    envelope and are dropped; if everything underflows the fit is
    degenerate.
    """
    ts, logs = [], []
    for x1, rho in points:
        if not (rho > 0.0 and abs(x1) >= rho * (1.0 - 1e-12)):
            raise InvalidArgument(f"point {x1!r} is closer than rho={rho!r} to the interface")
        for t in t_grid:
            u = halfline_closed_form(x1, t, medium)
            v = u if x1 > 0.0 else 1.0 - u
            if v > 0.0:
                ts.append(t)
                logs.append(math.log(v))
    if len(ts) < 2:
        raise DegenerateFit("all sampled values underflowed; nothing to fit")
    inv_t = 1.0 / np.asarray(ts)
    logs = np.asarray(logs)
    # least squares for log v = alpha - b / t
    design = np.column_stack([np.ones_like(inv_t), -inv_t])
    (alpha, b), *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = logs - (alpha - b * inv_t)
    alpha += max(0.0, float(resid.max())) + 1e-12  # restore the envelope property
    return DecayEstimate(B=math.exp(alpha), b=float(b))
