"""Surface catalog: signed distance, projection and principal curvatures.

Each surface is the boundary of a reference domain Omega and carries

  * a nearest-point projection z(x) with distance delta(x), valid in a
    tubular neighborhood of half-width delta0 where the nearest point is
    unique,
  * principal curvatures kappa_j at surface points, taken with respect to
    the normal pointing INTO Omega (so a sphere bounding a ball has
    kappa_j = +1/R).

The declared delta0 always satisfies max_j |kappa_j| < 1/(2 delta0) on the
test patch.  With these conventions the distance function obeys

    |grad delta| = 1,
    Lap delta = -sum_j kappa_j / (1 - kappa_j delta)   inside Omega,
    Lap delta = +sum_j kappa_j / (1 + kappa_j delta)   outside,

with kappa_j evaluated at z(x), and the product expansion

    prod_j (1 - kappa_j delta) = 1 + sum_i (-1)^i H_i delta^i

in the elementary symmetric functions H_i of the kappa_j.  The helicoid
and catenoid have N = 3, so H_1 = 0 (they are minimal) and H_2 =
kappa_1 kappa_2 is their only other one.

Which side is Omega, per variant: Hyperplane {x1 > 0}; Sphere and Cylinder
the interior; Catenoid the axis-containing region; Helicoid the region
{x2 cos x3 - x1 sin x3 > 0}.  Surfaces are immutable and projection is a
pure function, so batch queries parallelize freely.

A variant's dataclass fields are its only settable values, checked by its
`__post_init__`: Hyperplane(N), Sphere(R, N), Cylinder(R, N), Helicoid()
and Catenoid(c).  `kappas(z)` is `kappas_at(ray_param(z))`, with the
footpoint parameter `ray_param` 0 on the radial variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import (AmbiguousProjection, InvalidArgument, NonConvergence,
                     UnsupportedGeometry)


class Surface:
    """Common interface; concrete variants implement the batch kernels.

    `delta0` is the barrier collar half-width and always satisfies
    max|kappa_j| < 1/(2 delta0); it is what the asymptotic machinery uses.
    The helicoid and catenoid search for the nearest point within
    `projection_radius` = 1.5 delta0 of the query's own surface parameter,
    where it is guaranteed unique.  The closed-form radial variants need no
    radius: their nearest point is unique everywhere but the center (sphere)
    or the axis (cylinder), where projecting raises.
    """

    N: int
    delta0: float
    is_radial = False

    @property
    def projection_radius(self) -> float:
        return 1.5 * self.delta0

    @property
    def radial_dim(self) -> int:
        """Radial dimension d: Lap w = w'' + (d-1)/r w' for w = w(r).

        Plane 1 (r is the distance from the plane), sphere N, cylinder 2.
        """
        raise UnsupportedGeometry(f"{type(self).__name__} has no radial reduction")

    # -- batch kernels ----------------------------------------------------
    def project_batch(self, X: np.ndarray):
        """Return (Z, delta, side) for an (m, N) array of query points.

        No tube check is applied: past the helicoid's or catenoid's
        `projection_radius` the nearest point may not be unique, and
        callers bound their own region (the
        coefficient tables raise OutsideTubularNeighborhood past theirs).
        """
        raise NotImplementedError

    def ray_param(self, Z) -> np.ndarray:
        """Footpoint parameter q of surface points Z, shape Z.shape[:-1];
        0 here, on the radial variants, whose curvatures never vary."""
        return np.zeros(np.shape(Z)[:-1])

    def kappas_at(self, q) -> np.ndarray:
        """Inward principal curvatures at parameters q: q.shape + (N-1,)."""
        raise NotImplementedError

    def kappas(self, z) -> np.ndarray:
        """Principal curvatures at a surface point, inward convention."""
        return self.kappas_at(self.ray_param(z))

    def outward_normal(self, z: np.ndarray) -> np.ndarray:
        """Outward unit normal at a surface point (the radial variants)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# flat and radial variants (closed-form projections)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperplane(Surface):
    """The hyperplane {x1 = 0} bounding Omega = {x1 > 0}."""

    N: int = 3
    delta0 = 1.0
    is_radial = True
    radial_dim = 1

    def __post_init__(self):
        if not self.N >= 1:
            raise InvalidArgument("Hyperplane needs N >= 1")

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        Z = X.copy()
        Z[:, 0] = 0.0
        delta = np.abs(X[:, 0])
        side = np.where(X[:, 0] > 0.0, -1, np.where(X[:, 0] < 0.0, 1, 0))
        return Z, delta, side

    def kappas_at(self, q):
        return np.zeros(np.shape(q) + (self.N - 1,))

    def outward_normal(self, z):
        nu = np.zeros(self.N)
        nu[0] = -1.0
        return nu


@dataclass(frozen=True)
class Sphere(Surface):
    """Sphere of radius R bounding the open ball Omega = {|x| < R}."""

    R: float = 1.0
    N: int = 3
    is_radial = True

    def __post_init__(self):
        if not (self.R > 0.0 and self.N >= 2):
            raise InvalidArgument("Sphere needs R > 0 and N >= 2")

    @property
    def radial_dim(self) -> int:
        return self.N

    @property
    def delta0(self) -> float:  # max|kappa| = 1/R < 1/(2 delta0)
        return 0.45 * self.R

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        r = np.linalg.norm(X, axis=1)
        if np.any(r < 1e-12 * self.R):
            raise AmbiguousProjection("the center is equidistant from the whole sphere")
        Z = X * (self.R / r)[:, None]
        delta = np.abs(self.R - r)
        side = np.where(r < self.R, -1, np.where(r > self.R, 1, 0))
        return Z, delta, side

    def kappas_at(self, q):
        return np.full(np.shape(q) + (self.N - 1,), 1.0 / self.R)

    def outward_normal(self, z):
        z = np.asarray(z, dtype=float)
        return z / np.linalg.norm(z)


@dataclass(frozen=True)
class Cylinder(Surface):
    """Cylinder {x1^2 + x2^2 = R^2} bounding its interior, axis along x3."""

    R: float = 1.0
    N: int = 3
    is_radial = True
    radial_dim = 2

    def __post_init__(self):
        if not (self.R > 0.0 and self.N >= 3):
            raise InvalidArgument("Cylinder needs R > 0 and N >= 3")

    @property
    def delta0(self) -> float:
        return 0.45 * self.R

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        rho = np.hypot(X[:, 0], X[:, 1])
        if np.any(rho < 1e-12 * self.R):
            raise AmbiguousProjection("axis points are equidistant from the whole cylinder")
        Z = X.copy()
        scale = self.R / rho
        Z[:, 0] = X[:, 0] * scale
        Z[:, 1] = X[:, 1] * scale
        delta = np.abs(self.R - rho)
        side = np.where(rho < self.R, -1, np.where(rho > self.R, 1, 0))
        return Z, delta, side

    def kappas_at(self, q):
        kap = np.zeros(np.shape(q) + (self.N - 1,))
        kap[..., 0] = 1.0 / self.R
        return kap

    def outward_normal(self, z):
        z = np.asarray(z, dtype=float)
        nu = np.zeros(self.N)
        rho = math.hypot(z[0], z[1])
        nu[0] = z[0] / rho
        nu[1] = z[1] / rho
        return nu


# ---------------------------------------------------------------------------
# minimal variants (parametric Newton projections)
# ---------------------------------------------------------------------------

def _newton_1d(gh, s0, X):
    """Damped vector Newton for the minima of a 1d objective per point of X.

    gh(s) returns (f', f'') at every point.  At most 60 steps, each clipped
    to 0.25.  A point stops moving once its own step is below 1e-15, so
    where it stops depends on that point alone, not on the rest of the
    batch.  Raises NonConvergence unless every point stops at a strict
    minimum: |f'| <= 1e-8 (1 + |x|^2) and f'' > 0 where it stops.
    """
    s = np.asarray(s0, dtype=float).copy()
    moving = np.ones(s.shape, dtype=bool)
    for _ in range(60):
        g, h = gh(s)
        h = np.where(h > 1e-9, h, 1e-9)  # objective is convex near the minimum
        step = np.clip(-g / h, -0.25, 0.25)
        s = np.where(moving, s + step, s)
        moving &= ~(np.abs(step) < 1e-15)
        if not np.any(moving):
            break
    g, h = gh(s)
    ok = (np.abs(g) <= 1e-8 * (1.0 + np.sum(X * X, axis=1))) & (h > 0.0)
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise NonConvergence(
            f"projection Newton stopped at s = {s[i]:.6g} with f' = "
            f"{g[i]:.3e}, f'' = {h[i]:.3e} for x = {X[i].tolist()}")
    return s


@dataclass(frozen=True)
class Helicoid(Surface):
    """The pitch-1 helicoid (rho cos s, rho sin s, s), a minimal surface.

    Omega = {x2 cos x3 - x1 sin x3 > 0}.  Principal curvatures at parameter
    rho are +-1/(1 + rho^2); the second symmetric function is -1/(1+rho^2)^2
    and the mean curvature vanishes identically.
    """

    N = 3
    delta0 = 0.40

    # surface trace in the slice x3 = 0 is the x1-axis; the point at
    # parameter q is (q, 0, 0) and every surface point is a screw image of it
    def point_at(self, q):
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape + (3,))
        out[..., 0] = q
        return out

    def inward_normal_at(self, q):
        q = np.asarray(q, dtype=float)
        den = np.sqrt(1.0 + q * q)
        out = np.zeros(q.shape + (3,))
        out[..., 1] = 1.0 / den
        out[..., 2] = -q / den
        return out

    def kappas_at(self, q):
        a = 1.0 / (1.0 + np.asarray(q, dtype=float) ** 2)
        return np.stack([a, -a], axis=-1)

    def ray_param(self, Z):
        Z = np.asarray(Z, dtype=float)
        return Z[..., 0] * np.cos(Z[..., 2]) + Z[..., 1] * np.sin(Z[..., 2])

    def chart_metric(self, q, t):
        """(G^qq, d_q(sqrt(G) G^qq) / sqrt(G)) of the parallel surface.

        G is the metric of {z + t nu_in} in the (rho, screw angle) chart:
        sqrt(G) = P / sqrt(a) and G^qq = (1/a + t^2 a) a / P^2, with
        a = 1/(1 + rho^2) and P = 1 - a^2 t^2.
        """
        a = 1.0 / (1.0 + q * q)
        at2 = (a * t) ** 2
        gqq = (1.0 + at2) / (1.0 - at2) ** 2
        return gqq, gqq * q * a * (1.0 - 8.0 * at2 / (1.0 - at2 * at2))

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
        r2 = x1 * x1 + x2 * x2

        # the minimizer satisfies |s - x3| <= delta(x); scan 25 offsets o
        # with x1 cos(x3 + o) + x2 sin(x3 + o) = A cos o + B sin o
        window = self.projection_radius + 0.05
        offsets = np.linspace(-window, window, 25)
        c3, s3 = np.cos(x3), np.sin(x3)
        A, B = x1 * c3 + x2 * s3, x2 * c3 - x1 * s3
        S = x3[:, None] + offsets[None, :]
        rr = A[:, None] * np.cos(offsets) + B[:, None] * np.sin(offsets)
        vals = r2[:, None] - rr ** 2 + (x3[:, None] - S) ** 2
        s = S[np.arange(len(X)), np.argmin(vals, axis=1)]

        def gh(s):
            cs, sn = np.cos(s), np.sin(s)
            rho, b = x1 * cs + x2 * sn, -x1 * sn + x2 * cs
            return (-2.0 * rho * b - 2.0 * (x3 - s),
                    2.0 * (rho ** 2 - b ** 2) + 2.0)

        s = _newton_1d(gh, s, X)
        cs, sn = np.cos(s), np.sin(s)
        rho = x1 * cs + x2 * sn
        Z = np.stack([rho * cs, rho * sn, s], axis=1)
        delta = np.sqrt(np.maximum(r2 - rho ** 2 + (x3 - s) ** 2, 0.0))
        side = np.where(B > 0.0, -1, np.where(B < 0.0, 1, 0))
        return Z, delta, side


@dataclass(frozen=True)
class Catenoid(Surface):
    """Catenoid of waist radius c, the surface of revolution r = c cosh(z/c).

    Omega is the axis-containing region {r < c cosh(x3/c)}.  With respect to
    the inward (toward-axis) normal the principal curvatures at profile
    height v are -+ sech^2(v/c)/c (meridian negative, parallel positive);
    the surface is minimal and H_2 = -sech^4(v/c)/c^2, equal to -1/c^2 at
    the waist.
    """

    c: float = 1.0
    N = 3

    def __post_init__(self):
        if not (self.c > 0.0):
            raise InvalidArgument("Catenoid needs c > 0")

    @property
    def delta0(self) -> float:  # max|kappa| = 1/c at the waist
        return 0.40 * self.c

    def _g(self, v):
        return self.c * np.cosh(np.asarray(v, dtype=float) / self.c)

    def _gp(self, v):
        return np.sinh(np.asarray(v, dtype=float) / self.c)

    def _gpp(self, v):
        return np.cosh(np.asarray(v, dtype=float) / self.c) / self.c

    def point_at(self, q):
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape + (3,))
        out[..., 0] = self._g(q)
        out[..., 2] = q
        return out

    def inward_normal_at(self, q):
        q = np.asarray(q, dtype=float)
        gp = self._gp(q)
        den = np.sqrt(1.0 + gp * gp)
        out = np.zeros(q.shape + (3,))
        out[..., 0] = -1.0 / den
        out[..., 2] = gp / den
        return out

    def kappas_at(self, q):
        q = np.asarray(q, dtype=float)
        g, gp, gpp = self._g(q), self._gp(q), self._gpp(q)
        w2 = 1.0 + gp * gp
        k_mer = -gpp / w2 ** 1.5
        k_par = 1.0 / (g * np.sqrt(w2))
        return np.stack([k_mer, k_par], axis=-1)

    def ray_param(self, Z):
        return np.asarray(Z, dtype=float)[..., 2]

    def chart_metric(self, q, t):
        """(G^qq, d_q(sqrt(G) G^qq) / sqrt(G)) of the parallel surface.

        G is the metric of {z + t nu_in} in the (height v, rotation angle)
        chart: sqrt(G) = g sqrt(1 + g'^2) P and
        G^qq = 1 / ((1 + g'^2) (1 - kappa_mer t)^2), where kappa_mer = -k,
        k = sech^2(v/c)/c and P = 1 - k^2 t^2.
        """
        w2 = np.cosh(q / self.c) ** 2
        k = 1.0 / (self.c * w2)
        kt = k * t
        return (1.0 / (w2 * (1.0 + kt) ** 2),
                4.0 * k * kt * np.tanh(q / self.c) / ((1.0 + kt) ** 3 * (1.0 - kt)))

    def project_batch(self, X):
        X = np.asarray(X, dtype=float)
        r = np.hypot(X[:, 0], X[:, 1])
        zeta = X[:, 2]
        c = self.c

        window = self.projection_radius + 0.05 * c
        offsets = np.linspace(-window, window, 25)
        V = zeta[:, None] + offsets[None, :]
        vals = (r[:, None] - self._g(V)) ** 2 + (zeta[:, None] - V) ** 2
        v = V[np.arange(len(X)), np.argmin(vals, axis=1)]

        def gh(v):
            ch, sh = np.cosh(v / c), np.sinh(v / c)
            dr = r - c * ch
            return (-2.0 * sh * dr - 2.0 * (zeta - v),
                    2.0 * sh ** 2 - 2.0 * (ch / c) * dr + 2.0)

        v = _newton_1d(gh, v, X)
        g = self._g(v)
        theta = np.arctan2(X[:, 1], X[:, 0])
        Z = np.stack([g * np.cos(theta), g * np.sin(theta), v], axis=1)
        delta = np.sqrt(np.maximum((r - g) ** 2 + (zeta - v) ** 2, 0.0))
        g_zeta = self._g(zeta)
        side = np.where(r < g_zeta, -1, np.where(r > g_zeta, 1, 0))
        return Z, delta, side

