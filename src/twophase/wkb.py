"""Barrier coefficients and sub/supersolutions for the transformed problem.

The Laplace-Stieltjes transform w(x, lambda) of the two-phase Cauchy
solution satisfies sigma Lap(w) = lambda w on each side of the interface
with w = k on the interface itself.  For large lambda, w is approximated in
the collar by

    f_n(x) = b exp(-sqrt(lambda/sigma) delta(x))
             [ A_0 + sum_{j=1}^{n-1} (sqrt(sigma/lambda))^j A_j
               + (sqrt(sigma/lambda))^n A_{n,+-} ],

where b is the interface value carried by the decaying function on that
side (k inside, 1-k outside for 1-w), A_0 = prod_j (1 - kappa_j delta)^(-1/2),
and the higher coefficients solve the weighted line-integral recursion

    A_j(x)      = int_0^delta [Lap A_{j-1}(x(tau)) / 2] W(tau, delta) dtau,
    A_{n,+-}(x) = int_0^delta [Lap A_{n-1}(x(tau)) / 2 +- 1] W(tau, delta) dtau,

along the normal ray x(tau) through x, with weight
W(tau, delta) = exp(-1/2 int_tau^delta Lap(delta)).  Because Lap(delta) is an
explicit rational function of the footpoint curvatures, the weight collapses
in closed form to A_0(delta)/A_0(tau); no nested quadrature is needed.

The coefficients obey, with d/dtau the derivative along the ray,

    dA_0/dtau      = -1/2 Lap(delta) A_0,
    dA_j/dtau      = -1/2 Lap(delta) A_j + 1/2 Lap A_{j-1},
    dA_{n,+-}/dtau = -1/2 Lap(delta) A_{n,+-} + 1/2 Lap A_{n-1} +- 1,

and the barriers satisfy the exact residual identity

    sigma Lap f_{n,+-} - lambda f_{n,+-}
        = b sigma q^{n-1} e^{-mu delta} (-+ 2 + q Lap A_{n,+-}),

with mu = sqrt(lambda/sigma) and q = 1/mu; for lambda beyond a calibrated
threshold the right side has a strict sign, which is what makes
w_{n,+-} = f_{n,+-} +- psi e^{-eta_n sqrt(lambda)} genuine super/subsolutions.

Implementation notes.  On radial surfaces every coefficient is a function
of the distance alone and is tabulated as a 1d quintic spline.  The
helicoid and catenoid carry a one-parameter symmetry (screw motion,
rotation), so their coefficient fields reduce to two variables: the
footpoint parameter q and the signed distance tau; they are tabulated on a
(q, tau) grid and interpolated with quintic bivariate splines.  Laplacians
are exact for the splines, in the collar chart x = z(q, s) + tau nu(q, s):

    Lap f = f_tautau + Lap(delta) f_tau + G^qq f_qq + d_q(sqrt(G) G^qq)/sqrt(G) f_q,

with G the metric of the parallel surface in the (q, symmetry parameter)
chart (`chart_metric` of the surface); radial fields keep the first two
terms.  A table point lies on a known ray, so a build projects nothing.
Reads project through `_project`, which keeps the last batch it solved in
one slot for the whole module: the many reads that a barrier call or an
identity check makes at the same points cost one projection, and a read
at any other points projects them again.  Ray integrals are the
antiderivatives of the quintic interpolants of their integrands, all rows
at once.
Barrier functions read the cached `coefficient_engine(surface, side)` and
return one value per point.  Only `gradient_identity_residual`, the check
independent of the tables, differentiates by central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.interpolate import (InterpolatedUnivariateSpline,
                               RectBivariateSpline, make_interp_spline)

from .errors import (DegenerateTube, InvalidArgument,
                     OutsideTubularNeighborhood, ThresholdNotFound,
                     UnsupportedGeometry)
from .geometry import Surface, elementary_symmetric
from .medium import TwoPhaseMedium

#: absolute central-difference step of `gradient_identity_residual`
IDENTITY_STEP = 1e-3

#: table samples across the collar in tau and across the footpoint range
#: |q| <= 0.8 c in q (c = 1 for the helicoid), before padding
N_TAU, N_Q = 121, 221


#: the last batch `_project` solved, as (surface, copy of X, (Z, delta, side))
_last_projection = None


def _project(surface: Surface, X: np.ndarray):
    """surface.project_batch(X), reusing the last batch solved in this module.

    One slot for the whole module, not one per engine: a barrier call reads
    many fields at the same points, and both sides' engines share their
    surface's projection.  The key is the surface and X's shape, dtype and
    exact bytes (values alone would equate -0.0 with 0.0, which arctan2
    tells apart); X is copied, so a caller that mutates its array misses.
    The returned arrays are read-only, since every later hit shares them.
    """
    global _last_projection
    last = _last_projection
    if (last is not None and last[0] == surface and last[1].shape == X.shape
            and last[1].dtype == X.dtype and last[1].tobytes() == X.tobytes()):
        return last[2]
    out = surface.project_batch(X)
    for a in out:
        a.flags.writeable = False
    _last_projection = (surface, X.copy(), out)
    return out


def _ray_integral(values: np.ndarray, taus: np.ndarray,
                  zero_index: int) -> np.ndarray:
    """int_0^tau of the quintic interpolant of each row (tau on the last axis).

    Exact for the spline: its antiderivative, read at every grid tau.
    """
    spline = make_interp_spline(taus, np.moveaxis(values, -1, 0), k=5)
    cum = spline.antiderivative()(taus)
    return np.moveaxis(cum - cum[zero_index], 0, -1)


class CoefficientEngine:
    """Coefficient fields A_j, A_{n,+-} on one side of a surface's collar.

    side = -1 builds the fields on the Omega side (conductivity sigma_s),
    side = +1 on the complement (sigma_m).  The engine is geometry only:
    nothing here depends on the conductivities or on lambda.  Fields are
    evaluated at arbitrary collar points through the surface projection,
    using the signed distance so that evaluation is smooth across the
    surface.  Table reads outside the tabulated (q, tau) box raise
    OutsideTubularNeighborhood; the tables never extrapolate.
    """

    def __init__(self, surface: Surface, side: int):
        if side not in (-1, +1):
            raise InvalidArgument("side must be -1 (inside) or +1 (outside)")
        self.surface = surface
        self.side = side
        self.table_order = 4 if surface.is_radial else 2
        self.delta0 = d0 = surface.delta0

        # padded uniform grids, tau containing 0 exactly; every level takes
        # two more derivatives of the last, and spline derivatives are least
        # accurate in the end cells, so the pad grows with the table order
        h = d0 / (N_TAU - 1)
        pad = 4 + 2 * self.table_order
        self._zero_index = pad
        self.taus = h * np.arange(-pad, N_TAU + pad)

        if surface.is_radial:
            kap = surface.kappas(self._any_surface_point())
            self._kap_const = -kap if side == +1 else kap
        else:
            if not hasattr(surface, "chart_metric"):
                raise UnsupportedGeometry(
                    "barrier coefficients need a ray parametrization; only "
                    "the catalog surfaces provide one")
            c = getattr(surface, "c", 1.0)
            q_lo, q_hi = -0.8 * c, 0.8 * c
            padq = pad * (q_hi - q_lo) / (N_Q - 1)
            self.q_grid = np.linspace(q_lo - padq, q_hi + padq, N_Q + 2 * pad)
        self._build_tables()

    # ------------------------------------------------------------------
    # curvature helpers (side-adjusted: the collar on this side sees kappa
    # with the sign that makes the product factors 1 - kappa tau)
    # ------------------------------------------------------------------
    def _any_surface_point(self):
        z = np.zeros(self.surface.N)
        if hasattr(self.surface, "R"):
            z[0] = self.surface.R
        return z

    def _kappas(self, q):
        if self.surface.is_radial:
            return self._kap_const
        kap = np.asarray(self.surface.kappas_at(np.asarray(q, dtype=float)))
        return -kap if self.side == +1 else kap

    def boundary_mean_term(self, q=None) -> float:
        """Lap(signed distance) at the surface: -sum of side-adjusted kappas."""
        return float(-np.sum(self._kappas(q)))

    def _lap_delta(self, q, tau):
        """Lap(signed distance) at chart coordinates (q, tau)."""
        kap = self._kappas(q)
        return -np.sum(kap / (1.0 - kap * tau[..., None]), axis=-1)

    def _weight(self, q, tau):
        """W = prod(1 - kappa tau)^(1/2) = 1 / A_0 at chart coordinates."""
        factors = 1.0 - self._kappas(q) * tau[..., None]
        if np.any(factors <= 0.0):
            raise DegenerateTube("collar reaches a focal point of the surface")
        return np.sqrt(np.prod(factors, axis=-1))

    # ------------------------------------------------------------------
    # signed collar coordinates
    # ------------------------------------------------------------------
    def signed_coords(self, X: np.ndarray):
        """(q, tau) for a batch of points; tau > 0 on this engine's side."""
        Z, delta, side_pt = _project(self.surface, X)
        tau = np.where(side_pt == self.side, delta, -delta)
        tau = np.where(side_pt == 0, 0.0, tau)
        if self.surface.is_radial:
            q = np.zeros(len(X))
        else:
            q = self.surface.ray_param(Z)
        return q, tau, Z, delta

    def _table_coords(self, X):
        """(q, tau) of points, which must lie in the tabulated box."""
        q, tau, _, _ = self.signed_coords(np.atleast_2d(np.asarray(X, dtype=float)))
        outside = (tau < self.taus[0]) | (tau > self.taus[-1])
        if not self.surface.is_radial:
            outside |= (q < self.q_grid[0]) | (q > self.q_grid[-1])
        if np.any(outside):
            i = int(np.argmax(outside))
            raise OutsideTubularNeighborhood(
                f"(q, tau) = ({q[i]:.6g}, {tau[i]:.6g}) is outside the "
                "tabulated collar")
        return q, tau

    def lap_signed_distance(self, X: np.ndarray) -> np.ndarray:
        """Laplacian of the signed distance (positive side = engine side)."""
        q, tau, _, _ = self.signed_coords(np.atleast_2d(np.asarray(X, dtype=float)))
        return self._lap_delta(q, tau)

    # ------------------------------------------------------------------
    # ray construction (non-radial surfaces root their rays at point_at(q))
    # ------------------------------------------------------------------
    def ray_points(self, q: float, taus) -> np.ndarray:
        taus = np.asarray(taus, dtype=float)
        if self.surface.is_radial:
            z = self._any_surface_point()
            nu_in = -self.surface.outward_normal(z)
        else:
            z = self.surface.point_at(np.asarray(q, dtype=float))
            nu_in = self.surface.inward_normal_at(np.asarray(q, dtype=float))
        march = nu_in if self.side == -1 else -nu_in
        return z[None, :] + taus[:, None] * march[None, :]

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _build_tables(self):
        """Tables of A_1 .. A_order and J on the grid (level 0: A_0).

        Level j integrates the chart Laplacian of level j - 1 along every
        ray at once.  Radial A_0 needs no table: its Laplacian is closed form.
        """
        taus, zi = self.taus, self._zero_index
        if self.surface.is_radial:
            qs = None
            w = self._weight(None, taus)
            self._tables = [None]

            def fit(values):
                return InterpolatedUnivariateSpline(taus, values, k=5)
        else:
            qs = self.q_grid
            w = self._weight(qs[:, None], taus[None, :])

            def fit(values):
                return RectBivariateSpline(qs, taus, values, kx=5, ky=5)
            self._tables = [fit(1.0 / w)]
        for j in range(self.table_order):
            lap = self._lap_level(j, qs, taus, grid=True)
            self._tables.append(fit(_ray_integral(0.5 * lap * w, taus, zi) / w))
        self._j_table = fit(_ray_integral(w, taus, zi) / w)

    # ------------------------------------------------------------------
    # field evaluation
    # ------------------------------------------------------------------
    def a0(self, X) -> np.ndarray:
        q, tau, _, _ = self.signed_coords(np.atleast_2d(np.asarray(X, dtype=float)))
        return 1.0 / self._weight(q, tau)

    def _table(self, j: int):
        if not 0 <= j <= self.table_order:
            raise InvalidArgument(f"A_{j} is not tabulated (table order "
                                  f"{self.table_order})")
        return self._tables[j]

    def _read(self, table, X, dtau: int) -> np.ndarray:
        """A table (or its dtau-th tau-derivative) at collar points."""
        q, tau = self._table_coords(X)
        if self.surface.is_radial:
            return np.asarray(table(tau, dtau), dtype=float)
        return table.ev(q, tau, dy=dtau)

    def field(self, j: int, X) -> np.ndarray:
        """A_j evaluated at arbitrary collar points (j <= table order)."""
        if j == 0:
            return self.a0(X)
        return self._read(self._table(j), X, 0)

    def j_integral(self, X) -> np.ndarray:
        """The forcing integral J = int_0^delta W, so that A_{n,+-} = A_n +- J."""
        return self._read(self._j_table, X, 0)

    def field_pm(self, n: int, sign: int, X) -> np.ndarray:
        return self.field(n, X) + sign * self.j_integral(X)

    # ------------------------------------------------------------------
    # derivatives
    # ------------------------------------------------------------------
    def _chart_laplacian(self, table, q, tau, grid: bool = False) -> np.ndarray:
        """Lap of a tabulated field f(q, tau), exact for its spline."""
        if self.surface.is_radial:
            return table(tau, 2) + self._lap_delta(q, tau) * table(tau, 1)

        def d(dq, dt):
            return table(q, tau, dx=dq, dy=dt, grid=grid)
        if grid:
            q, tau = q[:, None], tau[None, :]
        gqq, drift = self.surface.chart_metric(q, -self.side * tau)
        return (d(0, 2) + self._lap_delta(q, tau) * d(0, 1)
                + gqq * d(2, 0) + drift * d(1, 0))

    def _radial_lap_a0(self, tau) -> np.ndarray:
        """Closed form A_0'' + Lap(delta) A_0' on a radial collar."""
        kap = self._kap_const
        dd = self._lap_delta(None, tau)
        ddp = -np.sum((kap / (1.0 - kap * tau[..., None])) ** 2, axis=-1)
        a0 = 1.0 / self._weight(None, tau)
        a0p = -0.5 * dd * a0
        return -0.5 * (ddp * a0 + dd * a0p) + dd * a0p

    def _lap_level(self, j: int, q, tau, grid: bool = False) -> np.ndarray:
        """Lap A_j at chart coordinates (q, tau)."""
        if self.surface.is_radial and j == 0:
            return self._radial_lap_a0(tau)
        return self._chart_laplacian(self._table(j), q, tau, grid)

    def laplacian(self, j: int, X) -> np.ndarray:
        """Lap A_j at collar points (j <= table order)."""
        return self._lap_level(j, *self._table_coords(X))

    def laplacian_pm(self, n: int, sign: int, X) -> np.ndarray:
        q, tau = self._table_coords(X)
        return (self._chart_laplacian(self._table(n), q, tau)
                + sign * self._chart_laplacian(self._j_table, q, tau))


@lru_cache(maxsize=None)
def coefficient_engine(surface: Surface, side: int) -> CoefficientEngine:
    """Cached engine factory; tables are expensive and immutable, share them."""
    return CoefficientEngine(surface, side)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WkbCoefficientTable:
    """Coefficients sampled along one normal ray.

    At tau = 0 the values are exactly (1, 0, ..., 0): A_0 = 1 and all
    higher coefficients vanish on the surface.
    """

    order: int
    side: int
    z: np.ndarray
    taus: np.ndarray
    A: tuple              # arrays A_0 .. A_{n-1} on the ray grid
    An_plus: np.ndarray
    An_minus: np.ndarray

    def at_surface(self) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.taus)))
        vals = [a[idx] for a in self.A] + [self.An_plus[idx], self.An_minus[idx]]
        return np.asarray(vals)


def compute_coefficients(surface: Surface, q, n: int, side: int = -1,
                         taus=None) -> WkbCoefficientTable:
    """Fill the ray table (A_0 .. A_{n-1}, A_{n,+-}) through footpoint q.

    q is the surface parameter of the footpoint (ignored for radial
    surfaces).  n may exceed the engine's table order by one: the top
    coefficient is then integrated along this single ray from the chart
    Laplacian of the deepest tabulated field.
    """
    if n < 1:
        raise InvalidArgument("order n must be >= 1")
    eng = coefficient_engine(surface, side)
    if n > eng.table_order + 1:
        raise InvalidArgument(f"order {n} needs table order >= {n - 1}")
    if taus is None:
        taus = np.linspace(0.0, eng.delta0, 65)
    taus = np.asarray(taus, dtype=float)
    pts = eng.ray_points(q, taus)
    A = [np.where(taus == 0.0, 1.0, eng.a0(pts))]
    for j in range(1, n):
        A.append(np.where(taus == 0.0, 0.0, _coeff_on_ray(eng, j, q, taus, pts)))
    top = _coeff_on_ray(eng, n, q, taus, pts)
    jint = np.where(taus == 0.0, 0.0, eng.j_integral(pts))
    top = np.where(taus == 0.0, 0.0, top)
    z = eng.ray_points(q, np.zeros(1))[0]
    return WkbCoefficientTable(order=n, side=side, z=z, taus=taus, A=tuple(A),
                               An_plus=top + jint, An_minus=top - jint)


def _ray_profile_spline(eng: CoefficientEngine, j: int, q
                        ) -> InterpolatedUnivariateSpline:
    """One-off integration of order j along a single ray (j past the tables)."""
    taus = eng.taus
    q = np.full_like(taus, q)
    lap = eng._lap_level(j - 1, q, taus)
    w = eng._weight(q, taus)
    return InterpolatedUnivariateSpline(
        taus, _ray_integral(0.5 * lap * w, taus, eng._zero_index) / w, k=5)


def _coeff_on_ray(eng: CoefficientEngine, j: int, q, taus, pts) -> np.ndarray:
    if j <= eng.table_order:
        return eng.field(j, pts)
    return np.asarray(_ray_profile_spline(eng, j, q)(taus), dtype=float)


def gradient_identity_residual(surface: Surface, j: int, x, side: int = -1,
                               sign: int = 0) -> np.ndarray:
    """Residual of the ray-derivative identity for A_j (or A_{j,+-}).

    Checks d A_j/dtau + 1/2 Lap(delta) A_j - 1/2 Lap A_{j-1} (-+ 1 for the
    forced top coefficient) at collar points x, one value per point.  The
    left side is a fresh central difference along the ray, not the tables'
    own tau-derivative; everything on the right comes from the table
    machinery, so the residual measures the end-to-end consistency of the
    recursion.  Contract: O(h^2) plus quadrature noise, with h =
    IDENTITY_STEP; x must lie at least 2h from the surface.
    """
    eng = coefficient_engine(surface, side)
    X = np.atleast_2d(np.asarray(x, dtype=float))

    if j <= eng.table_order:
        def fieldfunc(P):
            return eng.field(j, P) if sign == 0 else eng.field_pm(j, sign, P)
    else:
        # one order past the tables: the identity only probes points on the
        # ray through each x, so one single-ray profile per point suffices
        qx, _, _, _ = eng.signed_coords(X)
        ray_splines = [_ray_profile_spline(eng, j, float(q)) for q in qx]

        def fieldfunc(P):
            _, taup, _, _ = eng.signed_coords(P)
            vals = np.array([float(spline(tp))
                             for spline, tp in zip(ray_splines, taup)])
            if sign != 0:
                vals = vals + sign * eng.j_integral(P)
            return vals

    # every read at X first, then the two shifted batches: one projection each
    h = IDENTITY_STEP
    Z, delta, _ = _project(surface, X)
    if np.any(delta < 2 * h):
        raise InvalidArgument("the identity check needs delta > 2h; the "
                              "central difference would cross the surface")
    lap_prev = eng.laplacian(j - 1, X) if j >= 1 else 0.0
    dd = eng.lap_signed_distance(X)
    rhs = -0.5 * dd * fieldfunc(X) + 0.5 * lap_prev + float(sign)
    e = (X - Z) / delta[:, None]
    lhs = (fieldfunc(X + h * e) - fieldfunc(X - h * e)) / (2.0 * h)
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# harmonic correctors on model collars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialCorrector:
    """Harmonic corrector on a radial annulus collar.

    The collar is [R - delta0, R] (side -1) or [R, R + delta0] (side +1) in
    the effective radial dimension d (d = N for a sphere collar, d = 2 for
    a cylinder collar).  psi is the radial harmonic function with psi = 0 at
    r = R and psi = 2 on the far wall; log profile for d = 2, power profile
    r^(2-d) for d >= 3.
    """

    R: float
    d: int
    side: int
    delta0: float

    def _r(self, tau):
        return self.R + self.side * np.asarray(tau, dtype=float)

    def _profile(self, r):
        r_far = self.R + self.side * self.delta0
        if self.d == 2:
            return 2.0 * np.log(r / self.R) / np.log(r_far / self.R)
        p = 2.0 - self.d
        return 2.0 * (r ** p - self.R ** p) / (r_far ** p - self.R ** p)

    def psi(self, tau):
        return self._profile(self._r(tau))

    @property
    def surface_slope(self) -> float:
        # d psi / d tau at tau = 0
        r_far = self.R + self.side * self.delta0
        if self.d == 2:
            return float(self.side * 2.0 / (self.R * np.log(r_far / self.R)))
        p = 2.0 - self.d
        return float(self.side * 2.0 * p * self.R ** (p - 1) / (r_far ** p - self.R ** p))


# ---------------------------------------------------------------------------
# barriers
# ---------------------------------------------------------------------------

def _side_value(medium: TwoPhaseMedium, side: int) -> float:
    """Interface value of the decaying function on the given side."""
    return medium.k if side == -1 else 1.0 - medium.k


def _s_terms(eng: CoefficientEngine, X, n: int, sign: int) -> list:
    """The table reads A_0, A_1 .. A_{n-1}, A_{n,+-} at points X."""
    return ([eng.a0(X)] + [eng.field(j, X) for j in range(1, n)]
            + [eng.field_pm(n, sign, X)])


def _s_sum(terms: list, q: float) -> np.ndarray:
    """S = A_0 + sum q^j A_j + q^n A_{n,+-} from the table reads (or the
    same sum of their derivatives or Laplacians)."""
    S = terms[0].copy()
    for j, a in enumerate(terms[1:], start=1):
        S += q ** j * a
    return S


def _f_values(b: float, mu: float, tau, terms: list) -> np.ndarray:
    """f = b e^{-mu tau} S at every point of the reads."""
    return b * np.exp(-mu * tau) * _s_sum(terms, 1.0 / mu)


def barrier_f(surface: Surface, medium: TwoPhaseMedium, x, lam: float, n: int,
              sign: int, side: int = -1) -> np.ndarray:
    """Barrier values f_{n,+-}(x, lambda) on the given side, one per point.

    On the Omega side this approximates w itself and equals k on the
    surface; on the outer side it approximates 1 - w and equals 1 - k
    there.  Higher coefficients enter with powers of sqrt(sigma/lambda),
    so f -> b e^{-sqrt(lambda/sigma) delta} A_0 as lambda -> infinity.
    """
    if not (lam > 0.0):
        raise InvalidArgument(f"lambda must be positive, got {lam!r}")
    eng = coefficient_engine(surface, side)
    mu = math.sqrt(lam / medium.side_conductivity(side))
    X = np.atleast_2d(np.asarray(x, dtype=float))
    _, tau, _, _ = eng.signed_coords(X)
    return _f_values(_side_value(medium, side), mu, tau,
                     _s_terms(eng, X, n, sign))


@dataclass(frozen=True)
class BarrierThresholds:
    """Calibrated decay rate eta_n and admissible lambda threshold."""

    eta: float
    lam_min: float


def calibrate_thresholds(surface: Surface, medium: TwoPhaseMedium, n: int,
                         side: int = -1, outer_w=None,
                         engine: Optional[CoefficientEngine] = None
                         ) -> BarrierThresholds:
    """Find eta_n and the smallest lambda making the barriers strict.

    eta_n is half the exponential rate of f at the far collar wall,
    eta_n = delta0 / (2 sqrt(sigma_side)).  lambda_n is located by bisection
    as the smallest rate for which (a) the residual sign pattern holds on a
    sample of collar points for both signs and (b) the far-wall bound
    max(|f_+|, |f_-|, outer_w) <= e^{-eta_n sqrt(lambda)} holds.  outer_w,
    if given, is a callable lambda -> |w| at the far collar wall.  engine,
    if given, must be `coefficient_engine(surface, side)`; no caller in
    the package passes it.
    """
    eng = engine if engine is not None else coefficient_engine(surface, side)
    sigma = medium.side_conductivity(side)
    eta = 0.5 * eng.delta0 / math.sqrt(sigma)

    if eng.surface.is_radial:
        q_samples = [0.0]
    else:
        lo, hi = eng.q_grid[4], eng.q_grid[-5]
        q_samples = list(np.linspace(0.7 * lo, 0.7 * hi, 5))
    tau_samples = np.linspace(0.0, eng.delta0, 17)
    sample_pts = [eng.ray_points(q, tau_samples) for q in q_samples]
    wall_pts = [eng.ray_points(q, np.array([eng.delta0])) for q in q_samples]
    b = _side_value(medium, side)
    # nothing read from the tables depends on lambda: read them once, both
    # signs on a ray before its wall point, so each batch projects once
    reads = []
    for pts, wall in zip(sample_pts, wall_pts):
        laps = {sign: eng.laplacian_pm(n, sign, pts) for sign in (+1, -1)}
        wall_tau = eng.signed_coords(wall)[1]
        reads += [(sign, laps[sign], wall_tau, _s_terms(eng, wall, n, sign))
                  for sign in (+1, -1)]

    def admissible(lam: float) -> bool:
        # the residual equals (positive prefactor) * (-2 sign + q Lap A_{n,+-});
        # testing the bracket avoids spurious failures when the exponential
        # prefactor underflows at very large lambda
        bound = math.exp(-eta * math.sqrt(lam))
        if outer_w is not None and outer_w(lam) > bound:
            return False
        q_rate = math.sqrt(sigma / lam)
        mu = math.sqrt(lam / sigma)
        for sign, lap_pm, wall_tau, wall_terms in reads:
            bracket = -2.0 * sign + q_rate * lap_pm
            if np.any(sign * bracket >= 0.0):
                return False
            if np.any(np.abs(_f_values(b, mu, wall_tau, wall_terms)) > bound):
                return False
        return True

    lo, hi = 1.0, 1e10
    if not admissible(hi):
        raise ThresholdNotFound(
            f"no admissible lambda below {hi:g}; coefficient tables are "
            "inconsistent or outer_w never falls below the wall bound")
    if admissible(lo):
        return BarrierThresholds(eta=eta, lam_min=lo)
    for _ in range(48):
        mid = math.sqrt(lo * hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return BarrierThresholds(eta=eta, lam_min=hi)


def barrier_w(surface: Surface, medium: TwoPhaseMedium, x, lam: float, n: int,
              sign: int, side: int = -1, *, corrector,
              thresholds: BarrierThresholds) -> np.ndarray:
    """Corrected barrier w_{n,+-} = f_{n,+-} +- psi e^{-eta_n sqrt(lambda)},
    one value per point.

    Equals the interface constant on the surface for both signs; for
    lambda >= lambda_n the pair encloses the exact solution pointwise.
    `corrector` supplies psi(tau) on this side's collar and `thresholds`
    comes from `calibrate_thresholds`.
    """
    if lam < thresholds.lam_min:
        raise InvalidArgument(
            f"lambda = {lam:g} is below the calibrated threshold "
            f"{thresholds.lam_min:g}")
    X = np.atleast_2d(np.asarray(x, dtype=float))
    _, tau, _, _ = coefficient_engine(surface, side).signed_coords(X)
    f = barrier_f(surface, medium, X, lam, n, sign, side)
    return f + sign * corrector.psi(tau) * math.exp(
        -thresholds.eta * math.sqrt(lam))


# ---------------------------------------------------------------------------
# near-boundary law and boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearBoundaryFit:
    """Measured vs predicted small-distance behavior of Lap A_s."""

    s: int
    p: int
    measured_coefficient: float
    predicted_coefficient: float
    fitted_exponent: float
    expected_exponent: int
    deltas: np.ndarray
    values: np.ndarray


def near_boundary_law(surface: Surface, q, s: int, p: int, side: int = -1
                      ) -> NearBoundaryFit:
    """Fit Lap A_s ~ c delta^(p-2-s) near the surface and compare with theory.

    On a surface whose first p-1 symmetric curvature functions vanish,
    Lap A_s = -2^-(s+1) (-1)^p (s+2)! C(p, s+2) H_p delta^(p-2-s) + O(delta^(p-1-s))
    for s = 0 .. p-2.  The exponent is fitted on a log-log window of 13
    distances from 1e-3 delta0 to 1e-1 delta0 and the coefficient by
    extrapolating Lap A_s / delta^(p-2-s) to delta -> 0.
    """
    if not (0 <= s <= p - 2):
        raise InvalidArgument("need 0 <= s <= p-2")
    eng = coefficient_engine(surface, side)
    deltas = np.geomspace(1e-3 * eng.delta0, 1e-1 * eng.delta0, 13)
    pts = eng.ray_points(q, deltas)
    vals = eng.laplacian(s, pts)

    logv = np.log(np.abs(vals))
    exponent = float(np.polyfit(np.log(deltas), logv, 1)[0])

    scaled = vals / deltas ** (p - 2 - s)
    coef = float(np.polynomial.polynomial.polyfit(deltas, scaled, 2)[0])

    kap = eng._kappas(q)
    Hp = float(elementary_symmetric(kap)[p - 1])
    predicted = (-(2.0 ** -(s + 1)) * (-1.0) ** p * math.factorial(s + 2)
                 * math.comb(p, s + 2) * Hp)
    return NearBoundaryFit(s=s, p=p, measured_coefficient=coef,
                           predicted_coefficient=predicted,
                           fitted_exponent=exponent, expected_exponent=p - 2 - s,
                           deltas=deltas, values=vals)


def boundary_laplacians(surface: Surface, q, j_max: int, side: int = -1
                        ) -> np.ndarray:
    """Surface limits of Lap A_j for j = 0..j_max, by small-delta extrapolation."""
    eng = coefficient_engine(surface, side)
    deltas = np.geomspace(1e-3 * eng.delta0, 8e-2 * eng.delta0, 9)
    pts = eng.ray_points(q, deltas)
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        vals = eng.laplacian(j, pts)
        out[j] = float(np.polynomial.polynomial.polyfit(deltas, vals, 2)[0])
    return out


def boundary_normal_derivative(surface: Surface, medium: TwoPhaseMedium,
                               lam, n: int, sign: int, q=0.0,
                               side: int = -1, corrector=None,
                               eta: Optional[float] = None) -> np.ndarray:
    """Conormal derivative of the corrected barrier at the surface, one
    value per rate in `lam`.

    Returns D such that sigma_side * D equals sigma_s dw/dnu from inside
    (side -1) or sigma_m dw/dnu from outside (side +1).  Explicitly

        D = b [ mu + Lap(delta)/2 - 1/2 sum_{j=1}^n q^j Lap A_{j-1} - sign q^n ]
            - sign psi'(0) e^{-eta sqrt(lambda)},

    with b the side's interface value, q = sqrt(sigma/lambda) and the
    surface limits Lap A_{j-1} from `boundary_laplacians`; the +- pair
    brackets the exact conormal derivative.  The corrector term enters
    only when both `corrector` and `eta` are given.
    """
    eng = coefficient_engine(surface, side)
    lam = np.asarray(lam, dtype=float)
    mu = np.sqrt(lam / medium.side_conductivity(side))
    qq = 1.0 / mu
    lap_boundary = boundary_laplacians(surface, q, n - 1, side)
    val = mu + 0.5 * eng.boundary_mean_term(q)
    val -= 0.5 * sum(qq ** j * lap_boundary[j - 1] for j in range(1, n + 1))
    val -= sign * qq ** n
    out = _side_value(medium, side) * val
    if corrector is not None and eta is not None:
        out -= sign * corrector.surface_slope * np.exp(-eta * np.sqrt(lam))
    return out
