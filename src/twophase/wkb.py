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

Implementation notes.  Every table is the coefficient array of a tensor
Chebyshev series on N_CHEB Chebyshev-Lobatto nodes per axis (Trefethen,
Spectral Methods in MATLAB, SIAM 2000).  On radial surfaces every
coefficient is a function of the distance alone and the series is in tau
only.  The helicoid and catenoid carry a one-parameter symmetry (screw
motion, rotation), so their coefficient fields reduce to two variables:
the footpoint parameter q and the signed distance tau.  The build works on
the nodes.  The chart Laplacian of a level, in the collar chart
x = z(q, s) + tau nu(q, s),

    Lap f = f_tautau + Lap(delta) f_tau + G^qq f_qq + d_q(sqrt(G) G^qq)/sqrt(G) f_q,

takes its derivatives from the series (`chebder`), with G the metric of
the parallel surface in the (q, symmetry parameter) chart (`chart_metric`
of the surface); radial fields keep the first two terms and take Lap A_0
in closed form.  The ray integral from tau = 0 is the antiderivative of the
series (`chebint`, the `cumsum` of the Chebfun Guide), all rows at once.
Levels A_0 .. A_{order+1}, Lap A_0 .. Lap A_order, J and Lap J are all
tabulated when the engine is built, so every read is one interpolation,
the top coefficient one order past the Laplacian tables included.  A node
lies on a known ray, so a build projects nothing.

`table_box` gives the table order, 4 on radial surfaces and 2 on the
minimal ones, and the box the tables cover: the collar with a margin of
p = 4 + 2 order steps, tau in [-p h, delta0 + p h] with h = delta0/120
and, on the minimal surfaces, |q| <= 0.8 c + p 1.6 c/220 (c = 1 for the
helicoid).  Reads outside this box raise OutsideTubularNeighborhood; a
footpoint on the q box's edge projects back to within an ulp of it, so q
may pass the edge by a few ulps of the box width (`_Q_EDGE_ULPS`).

Reads go in fixed-shape blocks of `_READ_BLOCK` points.  `_basis` lays
the Chebyshev basis out degree-major, one (N_CHEB, _READ_BLOCK) array per
block, the last block padded with x = 0.  On the minimal surfaces a block's
values are the transposed coefficient array times its q basis (one dgemm),
times its tau basis and summed over the degree axis; on radial surfaces
they are the tau series times its tau basis (one gemv).  Every product has
the same shape whatever the batch, and a point's column uses only its own
basis values, so a point's value does not depend on the batch it is read
in; a single matrix product over the whole batch would group its sums by
the batch size.  Reads project through `_project`, which keeps the last
batch it solved in one slot for the whole module, with the footpoint
parameters q and each engine's bases at those points: the many reads that
a barrier call or an identity check makes at the same points cost one
projection and one basis, and a read at any other points projects them
again.  Barrier functions read the cached `coefficient_engine(surface,
side)` and return one value per point.  Only `gradient_identity_residual`,
the check independent of the tables' own derivatives, differentiates by
central differences.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebint, chebpts2, chebvander

from .errors import (DegenerateTube, InvalidArgument,
                     OutsideTubularNeighborhood, ThresholdNotFound,
                     UnsupportedGeometry)
from .geometry import Surface
from .medium import TwoPhaseMedium

#: absolute central-difference step of `gradient_identity_residual`
IDENTITY_STEP = 1e-3

#: Chebyshev-Lobatto nodes per table axis.  On the minimal surfaces the top
#: Laplacian moves by <= 4.8e-5 from 32 to 40 nodes and by <= 1.0e-6 from 40
#: to 48; past that the round-off of repeated differentiation grows (6.5e-6
#: from 40 to 64)
N_CHEB = 40

#: the calibration footpoints span |q| <= CALIBRATION_Q c on the minimal surfaces
CALIBRATION_Q = 0.7 * (0.8 + 4 * 1.6 / 220)

#: how far, in ulps of the q box's width, a projected footpoint may lie past
#: the box's edge: a ray rooted on the edge projects back to within an ulp
#: of it.  The series is still read at the projected q, a few ulps outside
#: [-1, 1] in its own variable, so nothing is clamped
_Q_EDGE_ULPS = 4

#: points per block of a table read, the shape of its every matrix product
#: (the module notes say why).  Of 32, 64, 128 and 256, 64 read fastest at
#: 17 and 64 points and within 1% of the fastest at 20000
_READ_BLOCK = 64


class _ProjectionSlot(threading.local):
    """The last batch `_project` solved on the calling thread, as `last` =
    (surface, copy of X, (Z, delta, side, q), {engine: its bases at those
    points}); each thread sees only its own."""

    last = None


_projection = _ProjectionSlot()


def _project(surface: Surface, X: np.ndarray):
    """(Z, delta, side) = surface.project_batch(X) and the footpoint
    parameters q = surface.ray_param(Z), reusing the last batch this
    thread solved.

    One slot per thread for the whole module, not one per engine: a
    barrier call reads many fields at the same points, and both sides'
    engines share their surface's projection.  Per thread, because
    `CoefficientEngine._bases` reads the slot again after projecting, and
    another thread's batch in between would hand it bases of other points.
    The key is the surface and X's shape, dtype and exact bits, compared
    through uint64 views of the float64 X (values alone would equate -0.0
    with 0.0, which arctan2 tells apart); X is copied, so a caller that
    mutates its array misses.
    The returned arrays are read-only, since every later hit shares them.
    The slot also holds each engine's Chebyshev bases at these points
    (`CoefficientEngine._bases`), so they go with the projection.
    """
    last = _projection.last
    if (last is not None and last[0] == surface and last[1].shape == X.shape
            and last[1].dtype == X.dtype
            and np.array_equal(last[1].view(np.uint64), X.view(np.uint64))):
        return last[2]
    Z, delta, side = surface.project_batch(X)
    out = (Z, delta, side, surface.ray_param(Z))
    for a in out:
        a.flags.writeable = False
    _projection.last = (surface, X.copy(), out, {})
    return out


def _basis(v: np.ndarray, box: tuple) -> np.ndarray:
    """Chebyshev basis T_0 .. T_{N_CHEB-1} at v mapped from box onto
    [-1, 1], degree-major in blocks of _READ_BLOCK points: shape (blocks,
    N_CHEB, _READ_BLOCK), the last block padded with x = 0.  It is filled
    in place by chebvander's recurrence T_k = T_{k-1} 2x - T_{k-2}, so
    every value has chebvander's bits."""
    lo, hi = box
    blocks = -(-len(v) // _READ_BLOCK)
    x = np.zeros((blocks, _READ_BLOCK))
    x.reshape(-1)[:len(v)] = (2.0 * v - (lo + hi)) / (hi - lo)
    x2 = 2.0 * x
    out = np.empty((blocks, N_CHEB, _READ_BLOCK))
    out[:, 0] = 1.0
    out[:, 1] = x
    for k in range(2, N_CHEB):
        np.multiply(out[:, k - 1], x2, out=out[:, k])
        out[:, k] -= out[:, k - 2]
    return out


def table_box(surface: Surface) -> tuple:
    """(table order, tau box, q box) of the tables of `surface`, as the
    module notes give them; no q box (None) on radial surfaces."""
    order = 4 if surface.is_radial else 2
    h = surface.delta0 / 120
    pad = 4 + 2 * order
    tau_box = (-pad * h, (120 + pad) * h)
    if surface.is_radial:
        return order, tau_box, None
    c = getattr(surface, "c", 1.0)
    q_lo, q_hi = -0.8 * c, 0.8 * c
    padq = pad * (q_hi - q_lo) / 220
    return order, tau_box, (q_lo - padq, q_hi + padq)


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
        if not (surface.is_radial or hasattr(surface, "chart_metric")):
            raise UnsupportedGeometry(
                "barrier coefficients need a ray parametrization; only "
                "the catalog surfaces provide one")
        self.delta0 = surface.delta0
        self.table_order, self._tau_box, self._q_box = table_box(surface)
        self._build_tables()

    # ------------------------------------------------------------------
    # curvature helpers (side-adjusted: the collar on this side sees kappa
    # with the sign that makes the product factors 1 - kappa tau)
    # ------------------------------------------------------------------
    def _kappas(self, q):
        kap = self.surface.kappas_at(q)
        return -kap if self.side == +1 else kap

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
    def signed_coords(self, X):
        """(q, tau) for a batch of points; tau > 0 on this engine's side."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _, delta, side_pt, q = _project(self.surface, X)
        tau = np.where(side_pt == self.side, delta, -delta)
        tau = np.where(side_pt == 0, 0.0, tau)
        return q, tau

    def _table_coords(self, X):
        """(q, tau) of points, which must lie in the tabulated box (q within
        _Q_EDGE_ULPS ulps of the box width past its edges)."""
        q, tau = self.signed_coords(X)
        outside = (tau < self._tau_box[0]) | (tau > self._tau_box[1])
        if self._q_box is not None:
            lo, hi = self._q_box
            slack = _Q_EDGE_ULPS * np.spacing(hi - lo)
            outside |= (q < lo - slack) | (q > hi + slack)
        if np.any(outside):
            i = int(np.argmax(outside))
            raise OutsideTubularNeighborhood(
                f"(q, tau) = ({q[i]:.6g}, {tau[i]:.6g}) is outside the "
                "tabulated collar")
        return q, tau

    def lap_signed_distance(self, X: np.ndarray) -> np.ndarray:
        """Laplacian of the signed distance (positive side = engine side)."""
        q, tau = self.signed_coords(X)
        return self._lap_delta(q, tau)

    # ------------------------------------------------------------------
    # ray construction (non-radial surfaces root their rays at point_at(q))
    # ------------------------------------------------------------------
    def _any_surface_point(self):
        z = np.zeros(self.surface.N)
        if hasattr(self.surface, "R"):
            z[0] = self.surface.R
        return z

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
        """Coefficient arrays of A_1 .. A_{order+1}, Lap A_0 .. Lap A_order,
        J and Lap J (rows q, columns tau; one row on radial surfaces).

        Level j + 1 integrates 1/2 Lap A_j W along every ray at once, from
        the node values of Lap A_j.  Derivatives and the ray integral act on
        a level's series coefficients, through matrices built once from
        `chebder` and `chebint`, and return values at the nodes.
        """
        x = chebpts2(N_CHEB)
        eye = np.eye(N_CHEB)
        to_coef = np.linalg.inv(chebvander(x, N_CHEB - 1))

        def axis(box):
            """Nodes of box, and the matrices that take a series' coefficients
            to its values and its first and second derivatives there."""
            lo, hi = box
            scl = 2.0 / (hi - lo)
            return (0.5 * (lo + hi) + 0.5 * (hi - lo) * x,
                    *(chebvander(x, N_CHEB - 1 - m) @ chebder(eye, m, scl)
                      for m in (0, 1, 2)))

        lo, hi = self._tau_box
        tau, et0, et1, et2 = axis(self._tau_box)
        tau = tau[None, :]
        from_surface = chebvander(x, N_CHEB) @ chebint(
            eye, lbnd=-(lo + hi) / (hi - lo), scl=0.5 * (hi - lo))
        radial = self._q_box is None
        if radial:
            q, eq0, to_coef_q = np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1))
        else:
            q, eq0, eq1, eq2 = axis(self._q_box)
            q, to_coef_q = q[:, None], to_coef
            gqq, drift = self.surface.chart_metric(q, -self.side * tau)
        w = self._weight(q, tau)
        lap_delta = self._lap_delta(q, tau)

        def fit(values):
            return to_coef_q @ values @ to_coef.T

        def chart_laplacian(coef):
            rows = eq0 @ coef          # a series in tau at each q node
            lap = rows @ et2.T + lap_delta * (rows @ et1.T)
            if not radial:
                cols = coef @ et0.T    # a series in q at each tau node
                lap += gqq * (eq2 @ cols) + drift * (eq1 @ cols)
            return lap

        def ray_integral(values):
            """int_0^tau of each row's series, at the nodes."""
            return values @ to_coef.T @ from_surface.T

        a = 1.0 / w
        self._fields, self._laps = [None], []
        for j in range(self.table_order + 1):
            lap = (self._radial_lap_a0(q, tau) if radial and j == 0
                   else chart_laplacian(fit(a)))
            self._laps.append(fit(lap))
            a = ray_integral(0.5 * lap * w) / w
            self._fields.append(fit(a))
        self._j_table = fit(ray_integral(w) / w)
        self._lap_j_table = fit(chart_laplacian(self._j_table))

    def _radial_lap_a0(self, q, tau) -> np.ndarray:
        """Closed form A_0'' + Lap(delta) A_0' on a radial collar."""
        kap = self._kappas(q)
        dd = self._lap_delta(q, tau)
        ddp = -np.sum((kap / (1.0 - kap * tau[..., None])) ** 2, axis=-1)
        a0 = 1.0 / self._weight(q, tau)
        a0p = -0.5 * dd * a0
        return -0.5 * (ddp * a0 + dd * a0p) + dd * a0p

    # ------------------------------------------------------------------
    # field evaluation
    # ------------------------------------------------------------------
    def a0(self, X) -> np.ndarray:
        q, tau = self.signed_coords(X)
        return 1.0 / self._weight(q, tau)

    def _table(self, tables: list, j: int) -> np.ndarray:
        if not 0 <= j < len(tables):
            raise InvalidArgument(f"level {j} is not tabulated (table order "
                                  f"{self.table_order})")
        return tables[j]

    def _bases(self, X):
        """(q basis, or None on radial surfaces; tau basis; point count) at
        points in the box, in `_basis`'s blocks and kept in the projection
        slot: the reads of every level at the same points build them once."""
        q, tau = self._table_coords(X)
        bases = _projection.last[3]
        if self not in bases:
            bq = None if self._q_box is None else _basis(q, self._q_box)
            bases[self] = (bq, _basis(tau, self._tau_box), len(tau))
        return bases[self]

    def _interpolate(self, coef: np.ndarray, X) -> np.ndarray:
        """A coefficient array's series at collar points, one fixed-shape
        matrix product per block of points, as the module notes say."""
        bq, bt, n = self._bases(X)
        bt = bt[:, :coef.shape[1]]
        if bq is None:
            vals = np.matmul(coef[0], bt)
        else:
            vals = np.matmul(coef.T, bq)
            vals *= bt
            vals = vals.sum(axis=1)
        return vals.reshape(-1)[:n]

    def field(self, j: int, X) -> np.ndarray:
        """A_j at arbitrary collar points (j <= table order + 1)."""
        if j == 0:
            return self.a0(X)
        return self._interpolate(self._table(self._fields, j), X)

    def j_integral(self, X) -> np.ndarray:
        """The forcing integral J = int_0^delta W, so that A_{n,+-} = A_n +- J."""
        return self._interpolate(self._j_table, X)

    def field_pm(self, n: int, sign: int, X) -> np.ndarray:
        return self.field(n, X) + sign * self.j_integral(X)

    def laplacian(self, j: int, X) -> np.ndarray:
        """Lap A_j at collar points (j <= table order)."""
        return self._interpolate(self._table(self._laps, j), X)

    def laplacian_pm(self, n: int, sign: int, X) -> np.ndarray:
        return self.laplacian(n, X) + sign * self._interpolate(self._lap_j_table, X)


#: every engine built, by (surface, side); filled under _ENGINES_LOCK
_ENGINES: dict = {}
_ENGINES_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def coefficient_engine(surface: Surface, side: int) -> CoefficientEngine:
    """Cached engine factory; tables are expensive and immutable, share them.

    Each (surface, side) is built once, also when threads ask for it at
    the same time: lru_cache alone calls the factory again on a second miss
    that arrives before the first build returns, so builds go through
    _ENGINES under a lock.
    """
    with _ENGINES_LOCK:
        if (surface, side) not in _ENGINES:
            _ENGINES[surface, side] = CoefficientEngine(surface, side)
        return _ENGINES[surface, side]


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WkbCoefficientTable:
    """Coefficients sampled along one normal ray, every row read from the
    engine's tables.  At tau = 0, A_0 (closed form) reads exactly 1 and the
    higher coefficients, ray integrals from the surface, vanish to
    round-off.
    """

    taus: np.ndarray
    A: tuple              # arrays A_0 .. A_{n-1} on the ray grid
    An_plus: np.ndarray
    An_minus: np.ndarray

    def at_surface(self) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.taus)))
        vals = [a[idx] for a in self.A] + [self.An_plus[idx], self.An_minus[idx]]
        return np.asarray(vals)


def compute_coefficients(surface: Surface, q, n: int, side: int, *,
                         taus) -> WkbCoefficientTable:
    """Fill the ray table (A_0 .. A_{n-1}, A_{n,+-}) through footpoint q at
    the ray distances `taus`.

    q is the surface parameter of the footpoint (ignored for radial
    surfaces).  Every coefficient is read from the engine's tables, which
    reach A_{order+1}, so n may exceed the table order by one.  Nothing is
    written in: the row tau = 0 is read like every other row.
    """
    if n < 1:
        raise InvalidArgument("order n must be >= 1")
    eng = coefficient_engine(surface, side)
    taus = np.asarray(taus, dtype=float)
    pts = eng.ray_points(q, taus)
    A = [eng.field(j, pts) for j in range(n)]
    top = eng.field(n, pts)
    jint = eng.j_integral(pts)
    return WkbCoefficientTable(taus=taus, A=tuple(A), An_plus=top + jint,
                               An_minus=top - jint)


def gradient_identity_residual(surface: Surface, j: int, x,
                               side: int) -> np.ndarray:
    """Residual of the ray-derivative identity for A_j.

    Checks d A_j/dtau + 1/2 Lap(delta) A_j - 1/2 Lap A_{j-1} at collar
    points x, one value per point.  The left side is a fresh central
    difference along the ray, not the tables' own tau-derivative;
    everything on the right comes from the table machinery, so the residual
    measures the end-to-end consistency of the recursion.  Contract: O(h^2)
    plus interpolation noise, with h = IDENTITY_STEP; x must lie at least
    2h from the surface.
    """
    eng = coefficient_engine(surface, side)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    # every read at X first, then the two shifted batches: one projection each
    h = IDENTITY_STEP
    Z, delta, _, _ = _project(surface, X)
    if np.any(delta < 2 * h):
        raise InvalidArgument("the identity check needs delta > 2h; the "
                              "central difference would cross the surface")
    lap_prev = eng.laplacian(j - 1, X) if j >= 1 else 0.0
    dd = eng.lap_signed_distance(X)
    rhs = -0.5 * dd * eng.field(j, X) + 0.5 * lap_prev
    e = (X - Z) / delta[:, None]
    lhs = (eng.field(j, X + h * e) - eng.field(j, X - h * e)) / (2.0 * h)
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# harmonic correctors on model collars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialCorrector:
    """Harmonic corrector on the collar of a sphere or cylinder.

    The collar is [R - delta0, R] (side -1) or [R, R + delta0] (side +1),
    with R, delta0 and the radial dimension d (N for a sphere, 2 for a
    cylinder) those of `surface`.  psi is the radial harmonic function with
    psi = 0 at r = R and psi = 2 on the far wall; log profile for d = 2,
    power profile r^(2-d) for d >= 3.  A surface with no radial collar
    (plane, helicoid, catenoid) raises UnsupportedGeometry.
    """

    surface: Surface
    side: int

    def __post_init__(self):
        if not (self.surface.is_radial and self.surface.radial_dim >= 2):
            raise UnsupportedGeometry(f"{type(self.surface).__name__} has no "
                                      "radial collar to correct")

    def _profile(self, r):
        R, d = self.surface.R, self.surface.radial_dim
        r_far = R + self.side * self.surface.delta0
        if d == 2:
            return 2.0 * np.log(r / R) / np.log(r_far / R)
        p = 2.0 - d
        return 2.0 * (r ** p - R ** p) / (r_far ** p - R ** p)

    def psi(self, tau):
        return self._profile(self.surface.R
                             + self.side * np.asarray(tau, dtype=float))

    @property
    def surface_slope(self) -> float:
        # d psi / d tau at tau = 0
        R, d = self.surface.R, self.surface.radial_dim
        r_far = R + self.side * self.surface.delta0
        if d == 2:
            return float(self.side * 2.0 / (R * np.log(r_far / R)))
        p = 2.0 - d
        return float(self.side * 2.0 * p * R ** (p - 1) / (r_far ** p - R ** p))


# ---------------------------------------------------------------------------
# barriers
# ---------------------------------------------------------------------------

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
              sign: int, side: int) -> np.ndarray:
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
    _, tau = eng.signed_coords(x)
    return _f_values(medium.side_value(side), mu, tau,
                     _s_terms(eng, x, n, sign))


@dataclass(frozen=True)
class BarrierThresholds:
    """Calibrated decay rate eta_n and admissible lambda threshold."""

    eta: float
    lam_min: float


def calibrate_thresholds(surface: Surface, medium: TwoPhaseMedium, n: int,
                         side: int, outer_w=None,
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
        edge = CALIBRATION_Q * getattr(eng.surface, "c", 1.0)
        q_samples = list(np.linspace(-edge, edge, 5))
    tau_samples = np.linspace(0.0, eng.delta0, 17)
    pts = np.concatenate([eng.ray_points(q, tau_samples) for q in q_samples])
    wall = np.concatenate([eng.ray_points(q, [eng.delta0]) for q in q_samples])
    b = medium.side_value(side)
    # nothing read from the tables depends on lambda: read them once, the
    # collar points in one batch and the wall points in another
    laps = {sign: eng.laplacian_pm(n, sign, pts) for sign in (+1, -1)}
    wall_tau = eng.signed_coords(wall)[1]
    reads = [(sign, laps[sign], wall_tau, _s_terms(eng, wall, n, sign))
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
              sign: int, side: int, *, corrector,
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
    _, tau = coefficient_engine(surface, side).signed_coords(x)
    f = barrier_f(surface, medium, x, lam, n, sign, side)
    return f + sign * corrector.psi(tau) * math.exp(
        -thresholds.eta * math.sqrt(lam))


# ---------------------------------------------------------------------------
# near-boundary law and boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearBoundaryFit:
    """Measured vs predicted small-distance behavior of Lap A_0."""

    measured_coefficient: float
    predicted_coefficient: float
    fitted_exponent: float
    deltas: np.ndarray
    values: np.ndarray


def near_boundary_law(surface: Surface, q, side: int) -> NearBoundaryFit:
    """Fit Lap A_0 ~ c delta^0 near an N = 3 minimal surface and compare
    with theory.

    On a surface whose first p - 1 symmetric curvature functions vanish,
    Lap A_s = -2^-(s+1) (-1)^p (s+2)! C(p, s+2) H_p delta^(p-2-s)
    + O(delta^(p-1-s)).  In N = 3 a minimal surface has H_1 = 0 and
    H_2 = kappa_1 kappa_2, so p = 2, s = 0 and Lap A_0 -> -H_2 at exponent
    0.  The exponent is fitted on a log-log window of 13 distances from
    1e-3 delta0 to 1e-1 delta0 and the coefficient by extrapolating Lap A_0
    to delta -> 0.  A radial surface raises InvalidArgument.
    """
    if surface.is_radial:
        raise InvalidArgument("the near-boundary law needs a minimal surface")
    eng = coefficient_engine(surface, side)
    deltas = np.geomspace(1e-3 * eng.delta0, 1e-1 * eng.delta0, 13)
    pts = eng.ray_points(q, deltas)
    vals = eng.laplacian(0, pts)

    logv = np.log(np.abs(vals))
    exponent = float(np.polyfit(np.log(deltas), logv, 1)[0])
    coef = float(np.polynomial.polynomial.polyfit(deltas, vals, 2)[0])

    kap = eng._kappas(q)
    return NearBoundaryFit(measured_coefficient=coef,
                           predicted_coefficient=-float(kap[0] * kap[1]),
                           fitted_exponent=exponent, deltas=deltas, values=vals)


def boundary_laplacians(surface: Surface, j_max: int, side: int) -> np.ndarray:
    """Surface values of Lap A_j for j = 0..j_max at the surface point of
    footpoint 0, read from the tables at tau = 0 (which they contain)."""
    eng = coefficient_engine(surface, side)
    pt = eng.ray_points(0.0, [0.0])
    return np.array([eng.laplacian(j, pt)[0] for j in range(j_max + 1)])


def boundary_normal_derivative(surface: Surface, medium: TwoPhaseMedium,
                               lam, n: int, sign: int,
                               side: int) -> np.ndarray:
    """Conormal derivative of the barrier f_{n,sign} at the surface point of
    footpoint 0, one value per rate in `lam`.

    Returns D such that sigma_side * D equals sigma_s df/dnu from inside
    (side -1) or sigma_m df/dnu from outside (side +1).  Explicitly

        D = b [ mu + Lap(delta)/2 - 1/2 sum_{j=1}^n q^j Lap A_{j-1} - sign q^n ],

    with b the side's interface value, q = sqrt(sigma/lambda) and the
    surface values Lap A_{j-1} from `boundary_laplacians`.  The corrected
    barrier w_{n,sign} adds - sign psi'(0) e^{-eta sqrt(lambda)}; that pair
    brackets the exact conormal derivative.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.sqrt(lam / medium.side_conductivity(side))
    qq = 1.0 / mu
    lap_boundary = boundary_laplacians(surface, n - 1, side)
    val = mu + 0.5 * float(coefficient_engine(surface, side)._lap_delta(
        0.0, np.zeros(())))
    val -= 0.5 * sum(qq ** j * lap_boundary[j - 1] for j in range(1, n + 1))
    val -= sign * qq ** n
    return medium.side_value(side) * val
