"""Solvers for sigma Lap(w) = lambda w and curvature extraction from them.

Three layers:

  * closed-form radial solutions of the rate equation around the radial
    catalog surfaces: a `Hyperplane`, `Sphere` or `Cylinder` goes in as is
    and its `radial_dim` d selects the profile (modified Bessel /
    exponential basis, evaluated through exponentially scaled functions so
    lambda sweeps can reach 1e8 and beyond),
  * large-rate asymptotics of the conormal derivative: on the interface

        sigma_s dw/dnu|_- = c0 sqrt(lambda) - k sigma_s H_1 / 2 + O(1/sqrt(lambda)),

    with c0 = sqrt(sigma_s sigma_m) / (sqrt(sigma_s) + sqrt(sigma_m)), so a
    regression of the detrended derivative against {1, lambda^(-1/2)}
    recovers the summed principal curvatures; on the N = 3 minimal
    surfaces the constant term vanishes and the lambda^(-1/2) coefficient
    isolates sigma H_2 / 2 with phase weights sigma_s vs sigma_m, the
    imbalance that forces H_2 = 0 for distinct conductivities,
  * a Cartesian finite-volume discretization of the full transmission
    problem on 2d grids with harmonic-mean face conductivities; the grid's
    width picks banded Cholesky (up to BANDED_MAX_NX cells, factored in
    place in one Fortran-ordered band buffer per thread, with the residual
    from a five-point apply of the stencil) or conjugate
    gradients preconditioned with a cell-centred multigrid V-cycle (2x2
    agglomeration, Galerkin coarse operators, damped-Jacobi smoothing;
    Alcouffe, Brandt, Dendy & Painter 1981 treat the discontinuous
    coefficients); the disk convergence study solves and samples one
    quadrant, since the disk problem is even in x and y; plus
    inverse-positivity checks of the discrete operator (and the classical
    failure of the maximum principle at lambda = 0 on an exterior annulus).

Lambda-sweep points are independent and parallelize freely; each linear
solve owns its grid exclusively.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbsv
from scipy.sparse.linalg import LinearOperator, cg, splu, spsolve
from scipy.special import ive, kve

from . import wkb
from .errors import (FitUnstable, InvalidArgument, NonConvergence,
                     SandwichTooLoose, positive_count)
from .geometry import Sphere, Surface
from .medium import TwoPhaseMedium


def _interior_log_derivative(surface: Surface, mu):
    """phi'(R)/phi(R) for the interior radial solution phi = r^(1-d/2) I_(d/2-1)(mu r),
    at one rate mu or elementwise over an array of them."""
    if surface.radial_dim == 1:
        return mu  # plane: e^(-mu delta) decays into Omega, away from the wall
    nu = 0.5 * surface.radial_dim - 1.0
    return mu * ive(nu + 1, mu * surface.R) / ive(nu, mu * surface.R)


def _exterior_log_derivative(surface: Surface, mu: float) -> float:
    """psi'(R)/psi(R) for the decaying exterior solution psi = r^(1-d/2) K_(d/2-1)(mu r)."""
    if surface.radial_dim == 1:
        return -mu
    nu = 0.5 * surface.radial_dim - 1.0
    return -mu * kve(nu + 1, mu * surface.R) / kve(nu, mu * surface.R)


@dataclass(frozen=True)
class RadialSolution:
    """Bounded solution of w'' + (d-1)/r w' = (lambda/sigma) w with w(R) = value.

    d is `surface.radial_dim`.  Profile evaluation is scaled so that
    mu * R up to ~1e5 is handled without overflow.
    """

    surface: Surface
    lam: float
    sigma: float
    value: float

    @property
    def mu(self) -> float:
        return math.sqrt(self.lam / self.sigma)

    def __call__(self, r):
        """Solution value at radius r (plane: r is the distance from the wall)."""
        r = np.asarray(r, dtype=float)
        mu, d = self.mu, self.surface.radial_dim
        if d == 1:
            return self.value * np.exp(-mu * r)
        R, nu = self.surface.R, 0.5 * d - 1.0
        ratio = (r ** -nu * ive(nu, mu * r)) / (R ** -nu * ive(nu, mu * R))
        return self.value * ratio * np.exp(-mu * (R - r))

    def normal_derivative(self) -> float:
        """Conormal derivative dw/dnu at the interface (outward from Omega).

        For the plane this is +mu*value (the solution decays into Omega).
        """
        return self.value * _interior_log_derivative(self.surface, self.mu)


def solve_radial_dirichlet(surface: Surface, lam: float, sigma: float,
                           k: float) -> RadialSolution:
    """Bounded solution on the Omega side with w = k on the interface.

    Plane: k e^(-mu delta).  Sphere in R^3: k R sinh(mu r) / (r sinh(mu R)).
    Cylinder: k I0(mu r) / I0(mu R).  Higher dimensions use half-integer
    Bessel orders through exponentially scaled evaluations.
    """
    if not (lam > 0.0 and sigma > 0.0):
        raise InvalidArgument("lambda and sigma must be positive")
    surface.radial_dim  # raises UnsupportedGeometry off the radial catalog
    return RadialSolution(surface=surface, lam=lam, sigma=sigma, value=k)


@dataclass(frozen=True)
class TransmissionSolution:
    """Two-piece radial solution: sigma_s inside, sigma_m outside, w -> 1 far out."""

    surface: Surface
    lam: float
    medium: TwoPhaseMedium
    interface_value: float


def solve_radial_transmission(surface: Surface, lam: float,
                              medium: TwoPhaseMedium) -> TransmissionSolution:
    """Match the interior and exterior radial solutions across the interface.

    Continuity of w and of sigma dw/dr at r = R determine the interface
    value; as lambda grows it tends to the interface constant k, the
    transform-side shadow of the small-time limit.
    """
    if surface.radial_dim == 1:
        return TransmissionSolution(surface, lam, medium,
                                    interface_value=medium.k)
    if not lam > 0.0:
        raise InvalidArgument("lambda must be positive")
    gin = _interior_log_derivative(surface, math.sqrt(lam / medium.sigma_s))
    gout = _exterior_log_derivative(surface, math.sqrt(lam / medium.sigma_m))
    beta = medium.sigma_s * gin / (medium.sigma_s * gin - medium.sigma_m * gout)
    return TransmissionSolution(surface, lam, medium,
                                interface_value=1.0 - beta)


# ---------------------------------------------------------------------------
# curvature extraction from the large-rate expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureFit:
    """Regression of the detrended conormal derivative on {1, 1/sqrt(lambda)}."""

    lambda_grid: np.ndarray
    detrended: np.ndarray
    constant_term: float
    slope_term: float
    residual_norm: float
    sum_kappa_estimate: float


def extract_mean_curvature(surface: Surface, medium: TwoPhaseMedium,
                           lambda_grid) -> CurvatureFit:
    """Estimate the summed principal curvatures from a lambda sweep.

    Samples sigma_s dw/dnu|_- - c0 sqrt(lambda) for the Dirichlet-k radial
    solution and regresses on {1, lambda^(-1/2)} with weights sqrt(lambda);
    the constant term equals -k sigma_s (sum kappa)/2, so the estimate is
    -2 constant / (k sigma_s).
    """
    lam = np.asarray(lambda_grid, dtype=float)
    if not np.all(lam > 0.0):
        raise InvalidArgument("every rate of the sweep must be positive")
    k, sigma_s = medium.k, medium.sigma_s
    c0 = k * math.sqrt(sigma_s)
    det = (sigma_s * (k * _interior_log_derivative(surface, np.sqrt(lam / sigma_s)))
           - c0 * np.sqrt(lam))
    design = np.column_stack([np.ones_like(lam), lam ** -0.5])
    wts = lam ** 0.25  # sqrt of the weights sqrt(lambda)
    coef, *_ = np.linalg.lstsq(design * wts[:, None], det * wts, rcond=None)
    resid = det - design @ coef
    residual_norm = float(np.linalg.norm(resid))
    constant = float(coef[0])
    scale = k * medium.sigma_s
    if abs(constant) > 1e-8 * scale and residual_norm > 0.01 * abs(constant):
        raise FitUnstable(
            f"residual norm {residual_norm:.3e} exceeds 1% of the constant "
            f"term {constant:.3e}")
    return CurvatureFit(lambda_grid=lam, detrended=det, constant_term=constant,
                        slope_term=float(coef[1]), residual_norm=residual_norm,
                        sum_kappa_estimate=-2.0 * constant / scale)


def log_rate_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """Log-spaced rate grid over [lo, hi], 0 < lo < hi, `per_decade` (a
    positive integer) points per decade."""
    if not 0.0 < lo < hi:
        raise InvalidArgument(f"need 0 < lo < hi, got {lo!r}, {hi!r}")
    decades = math.log10(hi / lo)
    n = int(round(decades * positive_count("per_decade", per_decade))) + 1
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class HigherOrderFit:
    """The lambda^(-1/2) coefficient of the detrended derivative."""

    side: int
    coefficient: float
    predicted: float
    half_gap_max: float


def higher_order_fit(surface: Surface, medium: TwoPhaseMedium) -> dict:
    """The lambda^(-1/2) coefficient on both phase sides of an N = 3
    minimal surface, where H_1 = 0 and H_2 is the first symmetric
    curvature that can be non-zero (p = 2).

    The order-3 barrier pair brackets the conormal derivative at footpoint
    q = 0; its midpoint less c0 sqrt(lambda) is sigma b Lap(delta)/2 - 1/2 b
    sigma sum_{j=1..3} (sigma/lambda)^(j/2) Lap A_{j-1}, so the coefficient
    is -1/2 b sigma^(3/2) Lap A_0 at the surface, compared with
    c0 sigma H_2 / 2.  The sides' ratio sigma_s/sigma_m is the imbalance
    that forces H_2 = 0.  SandwichTooLoose is raised if the bracket's
    half-gap exceeds the term at lambda = 1e4, where their ratio,
    ~ 1/lambda, is largest, and InvalidArgument on a radial surface.
    """
    if surface.is_radial:
        raise InvalidArgument("the higher-order fit needs a minimal surface")
    kap = surface.kappas_at(0.0)
    H2 = float(kap[0] * kap[1])
    lam = 1e4
    c0 = medium.k * math.sqrt(medium.sigma_s)
    out = {}
    for side in (-1, +1):
        sigma = medium.side_conductivity(side)
        b = medium.side_value(side)
        lap_a = wkb.boundary_laplacians(surface, 0, side)[0]
        coefficient = float(-0.5 * b * sigma ** 1.5 * lap_a)
        halfgap = sigma * b * (sigma / lam) ** 1.5
        if halfgap > max(abs(coefficient) * lam ** -0.5, 1e-300):
            raise SandwichTooLoose("barrier half-gap exceeds the term")
        out[side] = HigherOrderFit(side=side, coefficient=coefficient,
                                   predicted=c0 * sigma * H2 / 2,
                                   half_gap_max=halfgap)
    out["ratio"] = out[-1].coefficient / out[+1].coefficient
    out["predicted_ratio"] = medium.sigma_s / medium.sigma_m
    return out


#: the rates of the barrier sandwich
SANDWICH_LAMS = (1e3, 1e4, 1e5)


def radial_barrier_sandwich(surface: Surface, medium: TwoPhaseMedium) -> dict:
    """Check w_{1,-} <= w_exact <= w_{1,+} on a 64-point radial collar grid
    at each rate of SANDWICH_LAMS.

    `surface` is a sphere or cylinder.  w_exact is the Dirichlet-k radial
    solution on its Omega side; the barriers are the order-1 pair corrected
    by the radial harmonic function.  Returns the worst signed margins
    (positive = ordering holds) and the conormal-derivative bracket at the
    interface.
    """
    n = 1
    eng = wkb.coefficient_engine(surface, -1)
    k = medium.k
    d0 = eng.delta0
    taus = np.linspace(0.0, d0, 64)
    R = surface.R
    corr = wkb.RadialCorrector(surface, side=-1)

    def wall_value(lam):
        sol = solve_radial_dirichlet(surface, lam, medium.sigma_s, k)
        return abs(float(sol(R - d0)))

    thresholds = wkb.calibrate_thresholds(surface, medium, n, side=-1,
                                          outer_w=wall_value)
    out = {"thresholds": thresholds, "lams": [], "upper_margin": [],
           "lower_margin": [], "surface_values": [],
           "derivative_ordering": []}
    pts = eng.ray_points(0.0, taus)
    for lam in SANDWICH_LAMS:
        exact = solve_radial_dirichlet(surface, lam, medium.sigma_s, k)
        wex = exact(R - taus)
        wp, wm = (wkb.barrier_w(surface, medium, pts, lam, n, sign, -1,
                                corrector=corr, thresholds=thresholds)
                  for sign in (+1, -1))
        dn_exact = exact.normal_derivative()
        dn_plus, dn_minus = (float(
            wkb.boundary_normal_derivative(surface, medium, lam, n, sign,
                                           side=-1)
            - sign * corr.surface_slope * np.exp(-thresholds.eta * np.sqrt(lam)))
            for sign in (+1, -1))
        out["lams"].append(lam)
        out["upper_margin"].append(float(np.min((wp - wex)[1:])))
        out["lower_margin"].append(float(np.min((wex - wm)[1:])))
        out["surface_values"].append((float(wp[0]), float(wex[0]), float(wm[0])))
        out["derivative_ordering"].append(
            (dn_plus, float(dn_exact), dn_minus))
    return out


# ---------------------------------------------------------------------------
# Cartesian finite-volume discretization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """A uniform 2d grid of cell width h and its (ny, nx) per-cell
    conductivities sigma, rows along y.

    The assembled operator for -div(sigma grad w) + lambda w is an M-matrix
    for lambda > 0: strictly diagonally dominant with nonpositive
    off-diagonal entries.
    """

    h: float
    sigma: np.ndarray


@dataclass(frozen=True)
class GridSolution:
    """A grid solve's (ny, nx) cell values, its CG iterations (0 from the
    banded path) and its final relative residual |b - A w| / |b|."""

    values: np.ndarray
    iterations: int
    residual: float


def _harmonic(a, b):
    return 2.0 * a * b / (a + b)


def _stencil(field: GridField, lam: float, boundary: dict) -> tuple:
    """(main, cx, cy, rhs) of -div(sigma grad w) + lambda w on the (ny, nx)
    cell layout: the main diagonal, the x- and y-couplings (harmonic-mean
    faces, negated in the matrix) and the Dirichlet terms of the right-hand
    side.  `boundary` maps face names ("xlo", "xhi", "ylo", "yhi") to values
    (scalars or arrays on the face).
    """
    sig = field.sigma
    h2 = field.h ** 2
    main = np.full(sig.shape, lam, dtype=float)
    rhs = np.zeros(sig.shape)
    cx = _harmonic(sig[:, :-1], sig[:, 1:]) / h2
    main[:, :-1] += cx
    main[:, 1:] += cx
    cy = _harmonic(sig[:-1, :], sig[1:, :]) / h2
    main[:-1, :] += cy
    main[1:, :] += cy
    faces = {"xlo": np.s_[:, 0], "xhi": np.s_[:, -1],
             "ylo": np.s_[0, :], "yhi": np.s_[-1, :]}
    if not boundary.keys() <= faces.keys():
        raise InvalidArgument(f"unknown boundary faces "
                              f"{sorted(boundary.keys() - faces.keys())}")
    for name, sl in faces.items():
        if name in boundary:
            ce = 2.0 * sig[sl] / h2
            main[sl] += ce
            rhs[sl] += ce * np.asarray(boundary[name])
    return main, cx, cy, rhs


def assemble_operator(field: GridField, lam: float, boundary: dict
                      ) -> tuple[sparse.csr_matrix, np.ndarray]:
    """CSR matrix A and Dirichlet terms rhs of `_stencil`: every equation is
    divided by the cell volume, so A w = rhs + source matches
    -div(sigma grad w) + lambda w = f pointwise.

    The CSR arrays are filled directly, in scipy's canonical layout: row i
    holds its couplings in column order i - nx, i - 1, i, i + 1, i + nx.  A
    neighbour missing at the grid's edge is left out, not stored as an
    explicit zero: zeros would carry into the Galerkin coarse operators and
    change the coarsest level's LU ordering.
    """
    main, cx, cy, rhs = _stencil(field, lam, boundary)
    ny, nx = main.shape
    idx = np.arange(main.size, dtype=np.int32).reshape(ny, nx)
    vals = np.empty((ny, nx, 5))
    cols = np.full((ny, nx, 5), -1, dtype=np.int32)
    vals[1:, :, 0] = -cy
    cols[1:, :, 0] = idx[:-1, :]
    vals[:, 1:, 1] = -cx
    cols[:, 1:, 1] = idx[:, :-1]
    vals[:, :, 2] = main
    cols[:, :, 2] = idx
    vals[:, :-1, 3] = -cx
    cols[:, :-1, 3] = idx[:, 1:]
    vals[:-1, :, 4] = -cy
    cols[:-1, :, 4] = idx[1:, :]
    present = cols >= 0
    indptr = np.zeros(main.size + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=2, dtype=np.int32), out=indptr[1:])
    A = sparse.csr_matrix((vals[present], cols[present], indptr),
                          shape=(main.size, main.size))
    return A, rhs.ravel()


# multigrid V-cycle: damped-Jacobi weight, sweeps before and after the
# coarse correction, its over-correction (the Galerkin operator of
# piecewise-constant agglomeration is about twice too stiff), and the size
# at which a level is factorized instead of coarsened further.  Measured
# for conductivity contrasts up to 100: random sigma in [1, 100] on 97x97
# takes 18 iterations, and the disk study at (100, 1) and (1, 100) takes
# 13-27 iterations at h = 1/32 and 1/64 (17-20 for sigma in [0.5, 4])
MG_OMEGA = 0.8
MG_SWEEPS = 2
MG_COARSE_SCALE = 1.8
MG_COARSEST_CELLS = 64


def _agglomeration(shape: tuple) -> tuple[sparse.csr_matrix, tuple]:
    """Piecewise-constant prolongation from 2x2 blocks (ceil sizes) and the
    coarse grid shape.  Each fine cell has one entry, 1 at its block."""
    ny, nx = shape
    coarse = (-(-ny // 2), -(-nx // 2))
    block = ((np.arange(ny, dtype=np.int32) // 2)[:, None] * coarse[1]
             + np.arange(nx, dtype=np.int32) // 2)
    P = sparse.csr_matrix((np.ones(ny * nx), block.ravel(),
                           np.arange(ny * nx + 1, dtype=np.int32)),
                          shape=(ny * nx, coarse[0] * coarse[1]))
    return P, coarse


def _cycle(levels: list, coarsest, level: int, r: np.ndarray) -> np.ndarray:
    """One V-cycle from `level` down: (A, omega / diag A, P) per level and
    the coarsest level's LU factorization."""
    if level == len(levels):
        return coarsest.solve(r)
    A, wd, P = levels[level]
    x = wd * r
    for _ in range(MG_SWEEPS - 1):
        x += wd * (r - A @ x)
    x += MG_COARSE_SCALE * (P @ _cycle(levels, coarsest, level + 1,
                                       P.T @ (r - A @ x)))
    for _ in range(MG_SWEEPS):
        x += wd * (r - A @ x)
    return x


def _vcycle(A: sparse.csr_matrix, shape: tuple) -> LinearOperator:
    """Symmetric multigrid V-cycle for A, as a CG preconditioner.

    Cell-centred 2x2 agglomeration with Galerkin coarse operators P^T A P,
    MG_SWEEPS damped-Jacobi sweeps before and after each coarse correction,
    and an LU factorization on the coarsest level.  Jacobi and the
    factorization are symmetric and the sweeps mirror each other, so the
    cycle is a symmetric positive definite approximate inverse.

    The operator holds A (about 64 bytes per cell) and the hierarchy built
    from it (about 53 more): coarse operators, prolongations, smoother
    diagonals and the factorization.  The recursion `_cycle` is a module
    function, so nothing in the hierarchy refers back to the operator, and
    all of it is freed by reference counting when the caller drops the
    operator rather than at the cyclic garbage collector's next pass.
    """
    n = A.shape[0]
    levels = []
    while A.shape[0] > MG_COARSEST_CELLS:
        P, shape = _agglomeration(shape)
        levels.append((A, MG_OMEGA / A.diagonal(), P))
        A = (P.T @ (A @ P)).tocsr()
    coarsest = splu(A.tocsc())
    return LinearOperator(
        (n, n), matvec=lambda r: _cycle(levels, coarsest, 0, r), dtype=float)


# the widest grid (nx, the operator's band width) solved by banded Cholesky,
# O(ny nx^3), instead of V-cycle CG, O(ny nx) per iteration.  Medians with
# OpenBLAS on one thread (2 vCPUs), n x n cells, sigma uniform in [0.5, 4],
# four Dirichlet faces, banded vs CG: n = 32 1.3 vs 6.6 ms, 64 9.1 vs 12.8,
# 72 13.2 vs 15.5, 80 18.4 vs 16.9, 96 26.8 vs 22.3, 192 230 vs 59 ms
BANDED_MAX_NX = 64


class _BandSlot(threading.local):
    """The calling thread's band buffer for the banded path, as `ab`: one
    Fortran-ordered (nx + 1, ny nx) array, replaced when the grid's shape
    changes; each thread sees only its own."""

    ab = None


_band = _BandSlot()


def _band_form(main, cx, cy) -> np.ndarray:
    """The stencil in LAPACK upper band form, bandwidth nx, written into the
    calling thread's band buffer: row nx holds the main diagonal, nx - 1
    the x- and 0 the y-couplings, rows 1 to nx - 2 zeros.

    The buffer is Fortran-ordered so that `dpbsv(..., overwrite_ab=1)`
    factors it in place; f2py copies a C-ordered array whatever the flag.
    One buffer (264 KiB at 32 x 32) serves every solve of a thread, so a
    run of solves maps, faults in and unmaps no block per solve.  The
    factor of the previous solve fills it, so every row is written again:
    the fill-in rows are zeroed and so are the x-couplings across row ends.
    """
    ny, nx = main.shape
    ab = _band.ab
    if ab is None or ab.shape != (nx + 1, main.size):
        ab = _band.ab = np.zeros((nx + 1, main.size), order="F")
    ab[1:nx - 1] = 0.0
    xrow = ab[nx - 1].reshape(ny, nx)
    xrow[:, 0] = 0.0
    xrow[:, 1:] = -cx
    ab[0].reshape(ny, nx)[1:, :] = -cy
    ab[nx] = main.ravel()
    return ab


def _apply_stencil(main, cx, cy, w) -> np.ndarray:
    """A w for the stencil (main, cx, cy) of `_stencil`, w on the (ny, nx)
    cell layout: the five-point matvec, with no matrix formed."""
    Aw = main * w
    Aw[:, :-1] -= cx * w[:, 1:]
    Aw[:, 1:] -= cx * w[:, :-1]
    Aw[:-1, :] -= cy * w[1:, :]
    Aw[1:, :] -= cy * w[:-1, :]
    return Aw


def grid_modified_helmholtz(field: GridField, lam: float, source,
                            boundary: dict) -> GridSolution:
    """Solve -div(sigma grad w) + lambda w = source with Dirichlet data.

    Harmonic-mean face conductivities preserve flux continuity across the
    discrete interface; faces absent from `boundary` carry zero flux.  The
    operator is symmetric positive definite with band width nx, the
    field's width, and nx picks the solver.  Up to BANDED_MAX_NX cells, a
    banded Cholesky factorization of the stencil's band form, in place in
    the calling thread's band buffer (`_band_form`).  Wider,
    conjugate gradients to relative residual 1e-10 within 40000
    iterations, preconditioned by one multigrid V-cycle per iteration
    (`_vcycle`): the iteration count then stays near 20 as h shrinks, where
    a diagonal preconditioner needs O(1/h).  The solution carries the CG
    iteration count (0 from the banded path) and the final relative
    residual |b - A w| / |b|.  An unknown face name, or a singular
    (lambda = 0, no Dirichlet face) or indefinite operator raises
    InvalidArgument.
    """
    if not lam >= 0.0:
        raise InvalidArgument("lambda must be nonnegative")
    if lam == 0.0 and not boundary:
        raise InvalidArgument("lambda = 0 with no Dirichlet face makes the "
                              "operator singular")
    source = np.asarray(source, dtype=float).ravel()
    ny, nx = field.sigma.shape
    iterations, info = 0, 0
    if nx <= BANDED_MAX_NX:
        main, cx, cy, rhs = _stencil(field, lam, boundary)
        b = rhs.ravel() + source
        _, sol, info = dpbsv(_band_form(main, cx, cy), b, overwrite_ab=1)
        if info != 0:
            raise InvalidArgument(f"the operator is not positive definite "
                                  f"(dpbsv info={info})")
        Aw = _apply_stencil(main, cx, cy, sol.reshape(ny, nx)).ravel()
    else:
        A, rhs = assemble_operator(field, lam, boundary)
        b = rhs + source

        def count(xk):
            nonlocal iterations
            iterations += 1

        sol, info = cg(A, b, rtol=1e-10, atol=0.0, maxiter=40000,
                       M=_vcycle(A, field.sigma.shape), callback=count)
        Aw = A @ sol
    b_norm = np.linalg.norm(b)
    residual = float(np.linalg.norm(b - Aw) / b_norm) if b_norm else 0.0
    if info != 0:
        raise NonConvergence(
            f"conjugate gradients stopped after {iterations} iterations at "
            f"relative residual {residual:.2e} (info={info})")
    return GridSolution(values=sol.reshape(ny, nx), iterations=iterations,
                        residual=residual)


# the grid convergence study: a disk of radius DISK_R (sigma_s inside) in
# the square [-DISK_L, DISK_L]^2, Dirichlet value 1 on the box, at rate
# DISK_LAM and cell widths DISK_HS
DISK_R = 1.0
DISK_L = 3.0
DISK_LAM = 100.0
DISK_HS = (1 / 32, 1 / 64, 1 / 128)


def solve_disk(medium: TwoPhaseMedium, h: float) -> GridSolution:
    """The 2d disk transmission solve, source DISK_LAM outside the disk.

    The problem is even in x and in y, so only the quadrant [0, L]^2 is
    solved and returned, with the Dirichlet faces xhi and yhi and zero flux
    across the two mirror faces.  The discrete full-square solution is
    itself mirror symmetric, so this is its quadrant, at a quarter of the
    cells.
    """
    x = (np.arange(int(round(DISK_L / h))) + 0.5) * h
    sig = np.where(x[None, :] ** 2 + x[:, None] ** 2 < DISK_R ** 2,
                   medium.sigma_s, medium.sigma_m)
    quadrant = GridField(h=h, sigma=sig)
    return grid_modified_helmholtz(quadrant, DISK_LAM,
                                   DISK_LAM * (sig == medium.sigma_m),
                                   {"xhi": 1.0, "yhi": 1.0})


def disk_interface_values(values: np.ndarray, h: float) -> np.ndarray:
    """Bilinear samples of the cell values of a `solve_disk` quadrant of
    cell width h at 64 angles on the circle r = DISK_R, each taken at its
    image (|x|, |y|) in the quadrant, whose first cell centre is (h/2, h/2).
    Within half a cell of a mirror face the image lies between a cell and
    the cell's own mirror image, so the fractional index is clamped at 0."""
    ny, nx = values.shape
    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    fx = np.maximum((np.abs(DISK_R * np.cos(theta)) - 0.5 * h) / h, 0.0)
    fy = np.maximum((np.abs(DISK_R * np.sin(theta)) - 0.5 * h) / h, 0.0)
    ix = np.clip(np.floor(fx).astype(int), 0, nx - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, ny - 2)
    tx, ty = fx - ix, fy - iy
    v = values
    return ((1 - tx) * (1 - ty) * v[iy, ix] + tx * (1 - ty) * v[iy, ix + 1]
            + (1 - tx) * ty * v[iy + 1, ix] + tx * ty * v[iy + 1, ix + 1])


def disk_convergence_study(medium: TwoPhaseMedium) -> dict:
    """Interface-value error of the 2d disk solve at each h of DISK_HS
    against the radial oracle at DISK_LAM, with the CG iteration count and
    final relative residual per h."""
    oracle = solve_radial_transmission(Sphere(R=DISK_R, N=2), DISK_LAM, medium)
    errs, iterations, residuals = [], [], []
    for h in DISK_HS:
        sol = solve_disk(medium, h)
        vals = disk_interface_values(sol.values, h)
        errs.append(float(np.max(np.abs(vals - oracle.interface_value))))
        iterations.append(sol.iterations)
        residuals.append(sol.residual)
    hs = np.asarray(DISK_HS)
    errs = np.asarray(errs)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return {"hs": hs, "errors": errs, "observed_order": order,
            "oracle_value": oracle.interface_value,
            "iterations": iterations, "residuals": residuals}


# ---------------------------------------------------------------------------
# discrete maximum principle
# ---------------------------------------------------------------------------

def discrete_max_principle_check(lam: float, trials: int, rng_seed: int,
                                 n: int, sigma_range) -> dict:
    """Inverse positivity of the discrete operator under random data.

    For each trial on an n x n grid of the unit square: a conductivity field
    uniform in sigma_range, nonnegative random Dirichlet data and a
    nonnegative random source, solved by `grid_modified_helmholtz` (banded
    Cholesky up to n = BANDED_MAX_NX, so at the gate's n = 32).  The
    minimum solution value over all trials is reported; for lambda > 0 the
    operator is an M-matrix, so the minimum should not dip below solver
    roundoff.  A negative minimum is reported, not raised; trials and n
    must be positive integers.
    """
    if not lam > 0.0:
        raise InvalidArgument("the check applies to lambda > 0; see the "
                              "annulus counterexample for lambda = 0")
    trials, n = positive_count("trials", trials), positive_count("n", n)
    rng = np.random.default_rng(rng_seed)

    def trial_min(_) -> float:
        sig = rng.uniform(sigma_range[0], sigma_range[1], size=(n, n))
        boundary = {name: rng.uniform(0.0, 1.0, size=n)
                    for name in ("xlo", "xhi", "ylo", "yhi")}
        source = rng.uniform(0.0, 1.0, size=(n, n)) * lam
        field = GridField(h=1.0 / n, sigma=sig)
        sol = grid_modified_helmholtz(field, lam, source, boundary)
        return float(sol.values.min())

    return {"trials": trials, "min_value": min(map(trial_min, range(trials))),
            "seed": rng_seed}


def annulus_counterexample() -> dict:
    """The failure of inverse positivity at lambda = 0 on an exterior domain.

    The harmonic profile w = |x|^(2-N) - 1 on {|x| > 1} in R^N, N = 3, has
    w = 0 on the only true boundary piece yet is negative throughout the
    domain.  On a radial annulus grid with geometric-mean face radii the
    profile is an exact discrete solution of the lambda = 0 operator, so
    the discrete setup reproduces the failure: zero residual, admissible
    boundary data, interior values below -0.4.

    The outer truncation value is the profile's own trace; it stands for
    the uncontrolled behavior at infinity and is not part of the domain
    boundary.
    """
    N = 3
    r = np.linspace(1.0, 2.0, 201)  # 200 cells across the annulus 1 < r < 2
    w = r ** (2 - N) - 1.0
    faces = np.sqrt(r[:-1] * r[1:])  # geometric mean makes the flux constant
    flux = faces ** (N - 1) * np.diff(w) / np.diff(r)
    residual = np.diff(flux)  # interior conservation defect of -div grad w
    # solve the discrete Dirichlet problem with the profile's own trace at the
    # truncation radius and 0 on the true boundary, recovering the profile
    c = faces ** (N - 1) / np.diff(r)
    rhs = np.zeros(len(r) - 2)
    rhs[0] += c[0] * w[0]
    rhs[-1] += c[-1] * w[-1]
    A = sparse.diags([-c[1:-1], c[:-1] + c[1:], -c[1:-1]], [-1, 0, 1],
                     format="csc")
    sol = spsolve(A, rhs)
    return {
        "boundary_value": float(w[0]),
        "truncation_value": float(w[-1]),
        "min_interior": float(sol.min()),
        "profile_residual": float(np.max(np.abs(residual))),
        "profile_matches": float(np.max(np.abs(sol - w[1:-1]))),
    }
