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

import numpy as np
from scipy.special import erfc

from .errors import InvalidArgument
from .medium import TwoPhaseMedium
from .quadrature import GAUSSIAN_CUTOFF_STD, integrate_adaptive

#: the bound on |closed form - quadrature| of the half-line solution
TWO_WAY_TOL = 1e-10


def _amplitudes(medium: TwoPhaseMedium):
    a = math.sqrt(medium.sigma_s)
    m = math.sqrt(medium.sigma_m)
    refl_m = (m - a) / (m + a)     # image amplitude on the sigma_m side
    refl_s = (a - m) / (a + m)     # image amplitude on the sigma_s side
    trans_m = 2.0 * m / (m + a)    # transmission into x1 <= 0
    trans_s = 2.0 * a / (m + a)    # transmission into x1 > 0
    return a, m, refl_m, refl_s, trans_m, trans_s


def eval_kernel(x1, y1, t, medium: TwoPhaseMedium):
    """Two-phase heat kernel G(x1, y1, t), broadcast over x1, y1 and t.

    Nonnegative, continuous in y1 across y1 = 0, and of unit mass in y1
    for every x1 and t > 0.  Returns a float when every argument is a
    scalar; raises InvalidArgument unless every t is positive.
    """
    a, m, refl_m, refl_s, trans_m, trans_s = _amplitudes(medium)
    x1, y1 = np.asarray(x1, dtype=float), np.asarray(y1, dtype=float)
    t = _check_times(t)  # sigma > 0 holds for every TwoPhaseMedium
    warm = x1 <= 0.0  # target on the sigma_m side
    # per target side: conductivity, image and transmission amplitudes, stretch
    sigma, refl, trans, stretch = np.array(
        [[medium.sigma_s, medium.sigma_m], [refl_s, refl_m],
         [trans_s, trans_m], [a / m, m / a]])[:, warm.astype(int)]
    spread, scale = 4.0 * t * sigma, np.sqrt(4.0 * math.pi * t * sigma)

    def gaussian(z):  # (4 pi t sigma)^(-1/2) exp(-z^2 / (4 t sigma))
        return np.exp(-(z * z) / spread) / scale
    same = gaussian(x1 - y1) + refl * gaussian(x1 + y1)
    cross = trans * gaussian(x1 - stretch * y1)
    val = np.where((y1 <= 0.0) == warm, same, cross)
    return val if val.ndim else float(val)


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not (t > 0.0).all():
        raise InvalidArgument(f"t must be positive, got {t!r}")
    return t


def halfline_closed_form(x1, t, medium: TwoPhaseMedium):
    """Closed form of integral of G(x1, ., t) over y1 <= 0 via erfc,
    broadcast over x1 and t (a float for scalar arguments)."""
    x1, t = np.asarray(x1, dtype=float), _check_times(t)
    refl_m = _amplitudes(medium)[2]
    cold = medium.k * erfc(x1 / (2.0 * np.sqrt(t * medium.sigma_s)))
    xi = x1 / (2.0 * np.sqrt(t * medium.sigma_m))
    val = np.where(x1 >= 0.0, cold, 0.5 * erfc(xi) + refl_m * 0.5 * erfc(-xi))
    return val if val.ndim else float(val)


def halfline_quadrature(x1, t, medium: TwoPhaseMedium):
    """Adaptive quadrature of G(x1, ., t) over y1 <= 0, broadcast over x1
    and t, to the absolute tolerance `quadrature.DEFAULT_TOL` per point.

    The integrand is a sum of Gaussians in y1; the lower limit is truncated
    40 standard deviations below the leftmost Gaussian center.  The whole
    grid is one `integrate_adaptive` batch, so it raises QuadratureFailure
    if any point does; a float for scalar arguments.
    """
    x1, t = np.asarray(x1, dtype=float), _check_times(t)
    a, m, *_ = _amplitudes(medium)
    warm = x1 <= 0.0
    # leftmost center: of the direct and image Gaussians (x1, -x1) on the
    # sigma_m side, of the stretched one (x1 - (a/m) y1 = 0) on the other
    center = np.where(warm, -np.abs(x1), (m / a) * x1)
    width = np.where(warm, np.sqrt(2.0 * t * medium.sigma_m),
                     (m / a) * np.sqrt(2.0 * t * medium.sigma_s))
    lo = np.minimum(center - GAUSSIAN_CUTOFF_STD * width,
                    -GAUSSIAN_CUTOFF_STD * width)
    return integrate_adaptive(lambda y, x, s: eval_kernel(x, y, s, medium),
                              lo, 0.0, x1, t)

