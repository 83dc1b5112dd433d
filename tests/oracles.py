"""Test oracles: checks and reference constructions that only the tests run.

No subcommand, acceptance criterion or benchmark workload of `twophase`
reaches these, so they live with the tests; `test_hygiene.py` keeps the
package free of such code.  A method of a package class is a plain function
of the object here: `ray_derivative(eng, j, X)` for what would be
`eng.ray_derivative(j, X)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebder
from scipy import sparse
from scipy.linalg.lapack import dptsv
from scipy.special import erfc, kve

from twophase.elliptic import (GridField, TransmissionSolution,
                               _exterior_log_derivative,
                               _interior_log_derivative, _stencil)
from twophase.errors import (InvalidArgument, OutsideTubularNeighborhood,
                             TwoPhaseError)
from twophase.geometry import Catenoid, Cylinder, Helicoid, Sphere, Surface
from twophase.helicoid import McEstimate, _mc_fractions
from twophase import kernel1d
from twophase.kernel1d import TWO_WAY_TOL, halfline_closed_form
from twophase.medium import TwoPhaseMedium
from twophase.parabolic import Grid1D, indicator_data
from twophase.wkb import (CoefficientEngine, RadialCorrector, _s_sum,
                          _s_terms, coefficient_engine)


class OnSurface(TwoPhaseError, ValueError):
    """The requested quantity is only defined off the surface (side limits exist)."""


class DegenerateFit(TwoPhaseError, RuntimeError):
    """All samples underflowed; no envelope can be fitted."""


class ConsistencyError(TwoPhaseError, RuntimeError):
    """Two independent evaluation routes disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# geometry: checked single-point projection and distance-function identities
# ---------------------------------------------------------------------------

_ON_SURFACE_TOL = 1e-13


@dataclass(frozen=True)
class Projection:
    """Nearest-point data: z on the surface, distance, outward normal, side.

    side is -1 inside Omega, +1 outside, 0 on the surface.  The query point
    is reconstructed as x = z + delta * (side-dependent direction); in terms
    of the distance gradient, z = x - delta * grad(delta)(x).
    """

    z: np.ndarray
    delta: float
    nu: np.ndarray          # outward unit normal to Omega at z
    side: int

    @property
    def grad_delta(self) -> np.ndarray:
        """Unit gradient of the distance at the query point (away from surface)."""
        return -self.nu if self.side < 0 else self.nu


def project(surface: Surface, x) -> Projection:
    """Projection of one point; on the helicoid and catenoid, raises once
    `projection_radius` is exceeded."""
    x = np.asarray(x, dtype=float)
    if x.shape != (surface.N,):
        raise InvalidArgument(f"expected a point in R^{surface.N}, got shape {x.shape}")
    Z, delta, side = surface.project_batch(x[None, :])
    d = float(delta[0])
    # the closed-form radial projections are unique everywhere they are defined
    radius = math.inf if surface.is_radial else surface.projection_radius
    if d >= radius:
        raise OutsideTubularNeighborhood(
            f"delta(x) = {d:.6g} >= projection radius = {radius:.6g}")
    z = Z[0]
    s = int(side[0]) if d > _ON_SURFACE_TOL else 0
    return Projection(z=z, delta=d, nu=outward_normal(surface, z), side=s)


def outward_normal(surface: Surface, z) -> np.ndarray:
    """Outward unit normal at a surface point of any catalog surface."""
    if isinstance(surface, Helicoid):
        return helicoid_outward_normal(surface, z)
    if isinstance(surface, Catenoid):
        return catenoid_outward_normal(surface, z)
    return surface.outward_normal(z)


def helicoid_outward_normal(surface: Helicoid, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    s = z[2]
    rho = surface.ray_param(z)
    n_in = np.array([-math.sin(s), math.cos(s), -rho]) / math.sqrt(1.0 + rho * rho)
    return -n_in


def catenoid_outward_normal(surface: Catenoid, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    v = z[2]
    gp = float(surface._gp(v))
    den = math.sqrt(1.0 + gp * gp)
    theta = math.atan2(z[1], z[0])
    # inward is (-1, gp)/den in the (radial, vertical) plane
    return np.array([math.cos(theta) / den, math.sin(theta) / den, -gp / den])


def elementary_symmetric(kappas) -> np.ndarray:
    """Elementary symmetric polynomials H_1..H_n of the given curvatures.

    Computed by the stable Vieta recurrence (building the coefficients of
    prod_j (x + kappa_j) one root at a time).
    """
    kappas = np.asarray(kappas, dtype=float)
    e = np.zeros(len(kappas) + 1)
    e[0] = 1.0
    for j, kap in enumerate(kappas):
        upper = j + 1
        e[1:upper + 1] = e[1:upper + 1] + kap * e[0:upper]
    return e[1:]


def h_funcs(surface: Surface, z) -> np.ndarray:
    """Elementary symmetric functions H_1..H_{N-1} at a surface point."""
    return elementary_symmetric(surface.kappas(np.asarray(z, dtype=float)))


def laplacian_of_distance(surface: Surface, x) -> float:
    """Laplacian of the distance function at a tube point off the surface.

    Inside Omega this is -sum kappa_j / (1 - kappa_j delta); outside the
    sign of both the sum and the delta term flips.  On the surface only the
    side limits exist, so a query at delta = 0 raises OnSurface.
    """
    pr = project(surface, x)
    if pr.side == 0:
        raise OnSurface("Lap(delta) on the surface is defined only as a side limit")
    kap = surface.kappas(pr.z)
    if pr.side < 0:
        return float(-np.sum(kap / (1.0 - kap * pr.delta)))
    return float(np.sum(kap / (1.0 + kap * pr.delta)))


def curvature_product_expansion(surface: Surface, x) -> tuple[float, float]:
    """Evaluate both sides of prod(1 - kappa_j delta) = 1 + sum (-1)^i H_i delta^i."""
    pr = project(surface, x)
    kap = surface.kappas(pr.z)
    lhs = float(np.prod(1.0 - kap * pr.delta))
    H = elementary_symmetric(kap)
    i = np.arange(1, len(H) + 1)
    rhs = 1.0 + float(np.sum((-1.0) ** i * H * pr.delta ** i))
    return lhs, rhs


def tangential_gradient_check(surface: Surface, x, i: int, h: float = 1e-4) -> float:
    """|grad(delta) . grad(H_i o z)| by central differences; zero in exact arithmetic.

    The composite field H_i(z(x)) is constant along normal rays, so its
    gradient is tangential and orthogonal to grad(delta).  The returned
    residual is O(h^2) for smooth variants.
    """
    x = np.asarray(x, dtype=float)
    pr = project(surface, x)
    e = pr.grad_delta

    def field(p):
        Z, _, _ = surface.project_batch(p[None, :])
        return h_funcs(surface, Z[0])[i - 1]

    grad = np.empty(surface.N)
    for axis in range(surface.N):
        step = np.zeros(surface.N)
        step[axis] = h
        grad[axis] = (field(x + step) - field(x - step)) / (2.0 * h)
    return abs(float(e @ grad))


# ---------------------------------------------------------------------------
# wkb: exact ray derivatives, the barrier residual identity, correctors
# ---------------------------------------------------------------------------

def _tau_derivative(eng: CoefficientEngine, coef: np.ndarray, X) -> np.ndarray:
    """d/dtau of a table's series at collar points: `chebder` of its
    coefficient array along the tau axis, read like the table itself."""
    lo, hi = eng._tau_box
    return eng._interpolate(chebder(coef, 1, 2.0 / (hi - lo), axis=1), X)


def ray_derivative(eng: CoefficientEngine, j: int, X) -> np.ndarray:
    """dA_j/dtau = grad(delta) . grad(A_j) at collar points, exact for
    the tables; A_0 has the closed form -1/2 Lap(delta) A_0."""
    if j == 0:
        return -0.5 * eng.lap_signed_distance(X) * eng.a0(X)
    return _tau_derivative(eng, eng._table(eng._fields, j), X)


def ray_derivative_pm(eng: CoefficientEngine, n: int, sign: int, X) -> np.ndarray:
    return (ray_derivative(eng, n, X)
            + sign * _tau_derivative(eng, eng._j_table, X))


def first_coefficient(surface: Surface, tau, side: int):
    """Exact A_1 at depth tau on `side` of a cylinder (kappa = 1/R) or a
    sphere in N = 4 (three curvatures 1/R): the recursion A_1 = A_0
    int_0^tau [Lap A_0 / 2] / A_0 ds in closed form,

        cylinder:     k^2 tau / (8 (1 - k tau)^(3/2)),
        sphere N = 4: -3 k^2 tau / (8 (1 - k tau)^(5/2)),

    with k = kappa inside (side -1) and k = -kappa outside (side +1),
    where the collar sees the curvatures with the opposite sign.
    (In N = 3, A_0 = R/r is harmonic and every A_j of the sphere is 0.)
    """
    tau = np.asarray(tau, dtype=float)
    kap = -side / surface.R
    if isinstance(surface, Cylinder):
        return kap ** 2 * tau / (8.0 * (1.0 - kap * tau) ** 1.5)
    if isinstance(surface, Sphere) and surface.N == 4:
        return -3.0 * kap ** 2 * tau / (8.0 * (1.0 - kap * tau) ** 2.5)
    raise InvalidArgument("closed-form A_1 for a cylinder or a sphere in N = 4")


def first_coefficient_error(surface: Surface, side: int) -> float:
    """max |A_1 - closed form| of the tables on `side` at 9 depths on
    [0, delta0]."""
    eng = coefficient_engine(surface, side)
    taus = np.linspace(0.0, eng.delta0, 9)
    got = eng.field(1, eng.ray_points(0.0, taus))
    return float(np.max(np.abs(got - first_coefficient(surface, taus, side))))


def elliptic_residual(surface: Surface, medium: TwoPhaseMedium, x, lam: float,
                      n: int, sign: int, side: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(sigma Lap f - lambda f, predicted right side) at collar points.

    One value per point in each array.  The left side assembles the
    Laplacian of e^{-mu delta} S from the tables' exact ray derivatives and
    chart Laplacians, so the two agree to table accuracy, the surface
    included; for lambda past the calibrated threshold the common value is
    strictly negative for the + barrier and strictly positive for the -
    barrier.
    """
    if not (lam > 0.0):
        raise InvalidArgument(f"lambda must be positive, got {lam!r}")
    eng = coefficient_engine(surface, side)
    sigma = medium.side_conductivity(side)
    mu = math.sqrt(lam / sigma)
    q = 1.0 / mu
    X = np.atleast_2d(np.asarray(x, dtype=float))
    _, tau = eng.signed_coords(X)
    dd = eng.lap_signed_distance(X)

    S = _s_sum(_s_terms(eng, X, n, sign), q)
    s_tau = _s_sum([ray_derivative(eng, j, X) for j in range(n)]
                   + [ray_derivative_pm(eng, n, sign, X)], q)
    lap_pm = eng.laplacian_pm(n, sign, X)
    lap_S = _s_sum([eng.laplacian(j, X) for j in range(n)] + [lap_pm], q)

    # the mu^2 S term cancels against lambda f exactly; assemble without it
    scale = medium.side_value(side) * sigma * np.exp(-mu * tau)
    lhs = scale * (-mu * dd * S - 2.0 * mu * s_tau + lap_S)
    rhs = scale * q ** (n - 1) * (-2.0 * sign + q * lap_pm)
    return lhs, rhs


@dataclass(frozen=True)
class SlabCorrector:
    """psi = 2 delta / delta0: harmonic, 0 on the surface, 2 on the far wall."""

    delta0: float

    def psi(self, tau):
        return 2.0 * np.asarray(tau, dtype=float) / self.delta0

    @property
    def surface_slope(self) -> float:
        return 2.0 / self.delta0


def psi_at_radius(corr: RadialCorrector, r):
    return corr._profile(np.asarray(r, dtype=float))


# ---------------------------------------------------------------------------
# elliptic: the radial transmission solution outside and its flux balance,
# and a COO-triplet assembly of the grid operator
# ---------------------------------------------------------------------------

def outside_value(tr: TransmissionSolution, r):
    """w(r) for r >= R."""
    r = np.asarray(r, dtype=float)
    mu = math.sqrt(tr.lam / tr.medium.sigma_m)
    R, nu = tr.surface.R, 0.5 * tr.surface.radial_dim - 1.0
    beta = 1.0 - tr.interface_value
    ratio = (r ** -nu * kve(nu, mu * r)) / (R ** -nu * kve(nu, mu * R))
    return 1.0 - beta * ratio * np.exp(-mu * (r - R))


def flux_mismatch(tr: TransmissionSolution) -> float:
    """sigma_s dw/dr|_- minus sigma_m dw/dr|_+ at r = R (should vanish)."""
    mu_s = math.sqrt(tr.lam / tr.medium.sigma_s)
    mu_m = math.sqrt(tr.lam / tr.medium.sigma_m)
    gin = _interior_log_derivative(tr.surface, mu_s)
    gout = _exterior_log_derivative(tr.surface, mu_m)
    inner = tr.medium.sigma_s * tr.interface_value * gin
    outer = -tr.medium.sigma_m * (1.0 - tr.interface_value) * gout
    return inner - outer


def assemble_operator_coo(field: GridField, lam: float, boundary: dict
                          ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """`elliptic.assemble_operator` built from (row, col, value) triplets
    that scipy sorts into CSR: the reference the direct CSR fill must match
    byte for byte."""
    main, cx, cy, rhs = _stencil(field, lam, boundary)
    idx = np.arange(main.size).reshape(main.shape)
    rows = [idx[:, :-1], idx[:, 1:], idx[:-1, :], idx[1:, :], idx]
    cols = [idx[:, 1:], idx[:, :-1], idx[1:, :], idx[:-1, :], idx]
    vals = [-cx, -cx, -cy, -cy, main]
    A = sparse.csr_matrix((np.concatenate([v.ravel() for v in vals]),
                           (np.concatenate([r.ravel() for r in rows]),
                            np.concatenate([c.ravel() for c in cols]))),
                          shape=(main.size, main.size))
    return A, rhs.ravel()


# ---------------------------------------------------------------------------
# helicoid: pointwise side tests, the scalar screw, the half-space oracle
# ---------------------------------------------------------------------------

def in_omega(x) -> bool:
    """Side test x2 cos x3 - x1 sin x3 > 0 (False on the surface itself)."""
    x = np.asarray(x, dtype=float)
    return bool(x[1] * math.cos(x[2]) - x[0] * math.sin(x[2]) > 0.0)


def on_surface_value(x) -> float:
    """The defining function x2 cos x3 - x1 sin x3 (zero exactly on H)."""
    x = np.asarray(x, dtype=float)
    return float(x[1] * math.cos(x[2]) - x[0] * math.sin(x[2]))


def screw(x, alpha: float) -> np.ndarray:
    """Screw motion: rotation by alpha in the x1-x2 plane plus lift alpha."""
    x = np.asarray(x, dtype=float)
    c, s = math.cos(alpha), math.sin(alpha)
    if x.ndim == 1:
        return np.array([x[0] * c - x[1] * s, x[0] * s + x[1] * c, x[2] + alpha])
    return np.stack([x[..., 0] * c - x[..., 1] * s,
                     x[..., 0] * s + x[..., 1] * c,
                     x[..., 2] + alpha], axis=-1)


def helicoid_point(rho: float, s: float) -> np.ndarray:
    return np.array([rho * math.cos(s), rho * math.sin(s), s])


def plane_halfspace_mc(x1: float, t: float, n_samples: int = 10 ** 6,
                       rng_seed: int = 0) -> McEstimate:
    """Oracle case: Omega = {x1 > 0}; exact answer is erfc(x1/(2 sqrt(t)))/2."""
    if not t > 0.0:
        raise InvalidArgument(f"t must be positive, got {t!r}")
    scale = math.sqrt(2.0 * t)

    def count(gen, c, rows):
        # the first coordinate of each point's 3d normal: the helicoid's
        # Gaussian with Omega replaced by the half-space
        v = c[:, 0]
        v *= scale
        v += x1
        return int(np.count_nonzero(v <= 0.0))

    return _mc_fractions([(count, n_samples, rng_seed)], 1)[0]


def plane_halfspace_exact(x1: float, t: float) -> float:
    return 0.5 * float(erfc(x1 / (2.0 * math.sqrt(t))))


# ---------------------------------------------------------------------------
# kernel1d: the half-line solution checked two ways, and its decay envelope
# ---------------------------------------------------------------------------

def halfline_solution(x1, t, medium: TwoPhaseMedium):
    """Temperature of the half-line Cauchy solution, checked two ways.

    Computes the closed form and the adaptive quadrature, broadcast over x1
    and t, and raises ConsistencyError where they differ by more than
    TWO_WAY_TOL; returns the closed-form values (a float for scalars).
    """
    exact = halfline_closed_form(x1, t, medium)
    diff = np.abs(exact - kernel1d.halfline_quadrature(x1, t, medium))
    if np.any(diff > TWO_WAY_TOL):
        x1, t = np.broadcast_arrays(x1, t)
        i = np.unravel_index(np.argmax(diff), np.shape(diff))
        raise ConsistencyError(
            f"closed form and quadrature disagree at (x1={x1[i]}, t={t[i]}) "
            f"by {np.max(diff):.3e}")
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
    for x1, rho in points:
        if not (rho > 0.0 and abs(x1) >= rho * (1.0 - 1e-12)):
            raise InvalidArgument(f"point {x1!r} is closer than rho={rho!r} to the interface")
    X, T = np.meshgrid([x1 for x1, _ in points], t_grid, indexing="ij")
    u = halfline_closed_form(X, T, medium)
    v = np.where(X > 0.0, u, 1.0 - u)
    if np.count_nonzero(v > 0.0) < 2:
        raise DegenerateFit("all sampled values underflowed; nothing to fit")
    inv_t, logs = 1.0 / T[v > 0.0], np.log(v[v > 0.0])
    # least squares for log v = alpha - b / t
    design = np.column_stack([np.ones_like(inv_t), -inv_t])
    (alpha, b), *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = logs - (alpha - b * inv_t)
    alpha += max(0.0, float(resid.max())) + 1e-12  # restore the envelope property
    return DecayEstimate(B=math.exp(alpha), b=float(b))


# ---------------------------------------------------------------------------
# parabolic: the time stepper without its field offset
# ---------------------------------------------------------------------------

def unshifted_evolve(grid: Grid1D, times, cells) -> np.ndarray:
    """`parabolic.evolve`'s recorded U from indicator data, stepping u
    itself rather than u + `STEP_OFFSET`, so the cold side's tail decays
    through the subnormal range: the reference for the claim that the
    offset moves no recorded value but the smallest.  `cells` are the
    recorded cells, as in `TimeSeries.cells`."""
    vol, cond = grid.volumes, grid.conductances()
    summed = np.zeros_like(vol)
    summed[:-1] += cond
    summed[1:] += cond
    u = indicator_data(grid)
    U = np.empty((len(times), len(cells)))
    U[0] = u[cells]
    for step in range(1, len(times)):
        dt = times[step] - times[step - 1]
        theta = 1.0 if step <= 10 else 0.5
        vol_dt = vol / dt
        rhs = vol_dt * u
        if theta < 1.0:
            flux = (u[1:] - u[:-1]) * cond * (1.0 - theta)
            rhs[:-1] += flux
            rhs[1:] -= flux
        *_, u, info = dptsv(summed * theta + vol_dt, cond * -theta, rhs)
        assert info == 0
        U[step] = u[cells]
    return U


# ---------------------------------------------------------------------------
# medium: the one-phase Gaussian kernel and conductivity-pair helpers
# ---------------------------------------------------------------------------

def gaussian_kernel(z, t, sigma):
    """One-phase heat kernel (4 pi t sigma)^(-1/2) exp(-z^2/(4 t sigma)),
    the fundamental solution of u_t = sigma u_zz, for t, sigma > 0.

    Even in z, unit mass in z for every t > 0, and obeys the scaling
    kernel(z, t, sigma) = kernel(z / sqrt(sigma), t, 1) / sqrt(sigma).
    Broadcasts over z, t and sigma.
    """
    z = np.asarray(z, dtype=float)
    val = np.exp(-(z * z) / (4.0 * t * sigma)) / np.sqrt(4.0 * math.pi * t * sigma)
    return val if val.ndim else float(val)


def phases_distinct(med: TwoPhaseMedium) -> bool:
    return med.sigma_s != med.sigma_m


def mu(med: TwoPhaseMedium) -> float:
    """Lower conductivity bound min(sigma_s, sigma_m)."""
    return min(med.sigma_s, med.sigma_m)


def swapped(med: TwoPhaseMedium) -> TwoPhaseMedium:
    return TwoPhaseMedium(med.sigma_m, med.sigma_s)
