import gc
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from twophase import elliptic as ell
from twophase import geometry as geo
from twophase import wkb
from twophase.errors import (InvalidArgument, NonConvergence, SandwichTooLoose,
                             UnsupportedGeometry)
from twophase.medium import TwoPhaseMedium

from oracles import assemble_operator_coo, flux_mismatch, outside_value

MED = TwoPhaseMedium(1.0, 4.0)
K = MED.k
SPHERE = geo.Sphere(R=1.0, N=3)
CYLINDER = geo.Cylinder(R=2.0, N=3)
PLANE = geo.Hyperplane()
#: the curvature sweep, 12 rates per decade on [1e2, 1e6]
RATES = ell.log_rate_grid(1e2, 1e6, 12)


# -- radial Dirichlet solutions ---------------------------------------------------

def test_plane_boundary_value():
    sol = ell.solve_radial_dirichlet(PLANE, 7.0, 1.0, K)
    assert sol(0.0) == pytest.approx(K, abs=1e-15)


def test_sphere_normal_derivative_closed_form():
    # k (mu coth(mu R) - 1/R) at mu = 20; coth(20) = 1 up to 1e-17
    sol = ell.solve_radial_dirichlet(SPHERE, 400.0, 1.0, K)
    assert sol.normal_derivative() == pytest.approx(19.0 * K, rel=1e-12)


def test_sphere_profile_matches_sinh_form():
    sol = ell.solve_radial_dirichlet(SPHERE, 25.0, 1.0, K)
    for r in (0.3, 0.6, 0.9):
        expect = K * math.sinh(5 * r) / (r * math.sinh(5.0))
        assert sol(r) == pytest.approx(expect, rel=1e-12)


def test_cylinder_normal_derivative_asymptotics():
    # I1/I0 uniform asymptotics: mu (1 - 1/(2 mu R)) = 99.75 at mu R = 200
    sol = ell.solve_radial_dirichlet(CYLINDER, 1e4, 1.0, K)
    assert abs(sol.normal_derivative() / K - 99.75) < 0.01


def test_radial_solution_no_overflow_at_huge_rates():
    sol = ell.solve_radial_dirichlet(SPHERE, 1e10, 1.0, K)
    assert np.isfinite(sol.normal_derivative())
    assert sol(0.99) == pytest.approx(K * math.exp(-1e5 * 0.01), rel=1e-2)


def _ode_residual(sol, r) -> np.ndarray:
    """Residual of the radial equation by central differences.

    An independent check of the closed form; the step balances truncation
    against roundoff, which floors the attainable residual near sqrt(eps)
    relative.  (The high-precision oracle below verifies the profile too.)
    """
    r = np.asarray(r, dtype=float)
    h = (12.0 * np.finfo(float).eps) ** 0.25 / max(sol.mu, 1.0)
    d = sol.surface.radial_dim
    wpp = (sol(r + h) - 2.0 * sol(r) + sol(r - h)) / h ** 2
    wp = (sol(r + h) - sol(r - h)) / (2.0 * h)
    coef = (d - 1) / r if d > 1 else 0.0
    return (wpp + coef * wp - (sol.lam / sol.sigma) * sol(r)) / max(
        1.0, sol.lam / sol.sigma)


def test_ode_residual_spot_checks():
    # double-precision finite differences bottom out near 1e-8 relative;
    # the high-precision oracle below pushes to the stated 1e-10
    for surface, rs in ((SPHERE, np.linspace(0.55, 0.99, 16)),
                        (CYLINDER, np.linspace(1.2, 1.98, 16))):
        sol = ell.solve_radial_dirichlet(surface, 37.0, 1.3, K)
        assert np.max(np.abs(_ode_residual(sol, rs))) < 1e-7


def test_ode_residual_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    for surface, r_checks in ((SPHERE, np.linspace(0.55, 0.99, 16)),
                              (CYLINDER, np.linspace(1.2, 1.98, 16))):
        lam, sigma = 37.0, 1.3
        sol = ell.solve_radial_dirichlet(surface, lam, sigma, K)
        mu = mpmath.sqrt(mpmath.mpf(lam) / sigma)
        nu = mpmath.mpf(surface.radial_dim) / 2 - 1
        R = mpmath.mpf(surface.R)

        def w(r):
            return (K * r ** -nu * mpmath.besseli(nu, mu * r)
                    / (R ** -nu * mpmath.besseli(nu, mu * R)))

        h = mpmath.mpf("1e-12")
        for r in r_checks:
            r = mpmath.mpf(float(r))
            wpp = (w(r + h) - 2 * w(r) + w(r - h)) / h ** 2
            wp = (w(r + h) - w(r - h)) / (2 * h)
            resid = wpp + (surface.radial_dim - 1) / r * wp - lam / sigma * w(r)
            assert abs(float(resid / (lam / sigma))) < 1e-10
            # and the package solution matches the high-precision profile
            assert abs(float(w(r)) - sol(float(r))) < 1e-12


# -- transmission -----------------------------------------------------------------

def test_transmission_equal_phases_tends_to_half():
    med = TwoPhaseMedium(2.0, 2.0)
    tr = ell.solve_radial_transmission(SPHERE, 1e8, med)
    assert abs(tr.interface_value - 0.5) < 1e-3


def test_transmission_large_rate_tends_to_k():
    tr = ell.solve_radial_transmission(SPHERE, 1e8, MED)
    assert abs(tr.interface_value - K) < 1e-3


def test_transmission_flux_match_random():
    rng = np.random.default_rng(4)
    for _ in range(6):
        lam = 10.0 ** rng.uniform(0.5, 6.0)
        R = rng.uniform(0.5, 3.0)
        g = geo.Sphere(R=R, N=3)
        tr = ell.solve_radial_transmission(g, lam, MED)
        scale = math.sqrt(lam) * max(MED.sigma_s, MED.sigma_m)
        assert abs(flux_mismatch(tr)) < 1e-10 * scale


def test_plane_transmission_fluxes_match():
    # k e^(-mu_s delta) inside and 1 - (1-k) e^(-mu_m delta) outside are exact
    for lam in (1.0, 10.0, 100.0):
        tr = ell.solve_radial_transmission(PLANE, lam, MED)
        scale = math.sqrt(lam) * max(MED.sigma_s, MED.sigma_m)
        assert abs(flux_mismatch(tr)) < 1e-14 * scale


def test_transmission_interface_value_tends_to_k_for_many_pairs():
    for pair in [(1.0, 4.0), (4.0, 1.0), (2.0, 3.0), (0.5, 5.0)]:
        med = TwoPhaseMedium(*pair)
        vals = [ell.solve_radial_transmission(SPHERE, lam, med).interface_value
                for lam in (1e4, 1e6, 1e8)]
        errs = [abs(v - med.k) for v in vals]
        assert errs[-1] < 1e-3
        assert errs[0] > errs[-1]  # monotone approach


def test_transmission_outside_value_continuous():
    tr = ell.solve_radial_transmission(SPHERE, 100.0, MED)
    assert outside_value(tr, 1.0) == pytest.approx(tr.interface_value, rel=1e-12)
    assert outside_value(tr, 50.0) == pytest.approx(1.0, abs=1e-10)


# -- curvature extraction -----------------------------------------------------------

def test_extract_plane_zero():
    fit = ell.extract_mean_curvature(PLANE, MED, RATES)
    assert abs(fit.sum_kappa_estimate) < 1e-8


def test_extract_sphere():
    fit = ell.extract_mean_curvature(SPHERE, MED, RATES)
    assert abs(fit.sum_kappa_estimate - 2.0) < 0.02


def test_extract_cylinder():
    fit = ell.extract_mean_curvature(CYLINDER, MED, RATES)
    assert abs(fit.sum_kappa_estimate - 0.5) < 0.005


def test_extract_matches_target_for_other_media():
    med = TwoPhaseMedium(3.0, 2.0)
    fit = ell.extract_mean_curvature(SPHERE, med, RATES)
    assert abs(fit.sum_kappa_estimate - 2.0) < 0.02


@pytest.mark.parametrize("surface", [PLANE, SPHERE, CYLINDER,
                                     geo.Sphere(R=1.3, N=4)],
                         ids=["plane", "sphere", "cylinder", "4-sphere"])
def test_extract_sweep_equals_one_radial_solve_per_rate(surface):
    # the sweep's array expression does each rate's arithmetic in the order
    # one Dirichlet solve per rate does it
    lam = ell.log_rate_grid(1e2, 1e6, 200)
    per_rate = [MED.sigma_s * ell.solve_radial_dirichlet(
        surface, lv, MED.sigma_s, K).normal_derivative()
        - K * math.sqrt(MED.sigma_s) * math.sqrt(lv) for lv in lam]
    fit = ell.extract_mean_curvature(surface, MED, lam)
    assert np.array_equal(fit.detrended, per_rate)


def test_extract_rejects_nonpositive_rates():
    with pytest.raises(InvalidArgument):
        ell.extract_mean_curvature(SPHERE, MED, [0.0, 1e2, 1e3])


# -- higher-order fit ---------------------------------------------------------------

@pytest.mark.parametrize("surface", [geo.Catenoid(c=1.0), geo.Helicoid()])
def test_higher_order_fit_minimal_patches(surface):
    fits = ell.higher_order_fit(surface, MED)
    for side in (-1, +1):
        f = fits[side]
        assert abs(f.coefficient - f.predicted) < 0.10 * abs(f.predicted)
    assert fits["predicted_ratio"] == pytest.approx(0.25, abs=1e-15)
    assert abs(fits["ratio"] - 0.25) < 0.025


def test_higher_order_fit_catenoid_inside_value():
    # sigma_s = 1, H2 = -1 at the waist: coefficient -k/2
    fits = ell.higher_order_fit(geo.Catenoid(c=1.0), MED)
    f = fits[-1]
    assert f.predicted == pytest.approx(-K / 2.0, rel=1e-12)
    assert f.coefficient == pytest.approx(-K / 2.0, rel=0.10)


@pytest.mark.parametrize("surface", [geo.Catenoid(c=1.0), geo.Helicoid()])
@pytest.mark.parametrize("side", [-1, +1])
def test_higher_order_coefficient_matches_the_bracket_midpoint(surface, side):
    # sqrt(lambda) (sigma D_mid - c0 sqrt(lambda)) is the coefficient plus
    # O(lambda^(-1/2)): at 1e8 the next term is ~1e-4 sqrt(sigma) Lap A_1
    lam = 1e8
    sigma = MED.side_conductivity(side)
    mid = float(wkb.boundary_normal_derivative(surface, MED, lam, 3, 0,
                                               side=side))
    c0 = MED.k * math.sqrt(MED.sigma_s)
    scaled = math.sqrt(lam) * (sigma * mid - c0 * math.sqrt(lam))
    coefficient = ell.higher_order_fit(surface, MED)[side].coefficient
    assert scaled == pytest.approx(coefficient, rel=1e-6)


def test_higher_order_fit_needs_a_minimal_surface():
    # H_1 = 0 and H_2 = kappa_1 kappa_2 hold on the helicoid and catenoid
    for surface in (geo.Sphere(R=1.0, N=3), geo.Sphere(R=1.0, N=4)):
        with pytest.raises(InvalidArgument):
            ell.higher_order_fit(surface, MED)


def test_higher_order_fit_rejects_a_loose_sandwich():
    # the half-gap sigma b (sigma/lambda)^(3/2) at lambda = 1e4 outgrows the
    # term once sigma_m is large
    with pytest.raises(SandwichTooLoose):
        ell.higher_order_fit(geo.Catenoid(c=1.0), TwoPhaseMedium(1.0, 1e4))
    fits = ell.higher_order_fit(geo.Catenoid(c=1.0), TwoPhaseMedium(1.0, 3e3))
    for side in (-1, +1):
        assert fits[side].half_gap_max < abs(fits[side].coefficient) / 1e2


# -- grid solver ----------------------------------------------------------------------

def square(n, sigma):
    """An n x n grid of the unit square."""
    return ell.GridField(h=1.0 / n, sigma=sigma)


def superlu(field, lam, source, boundary):
    """SuperLU's solution of the reference (COO-triplet) assembly, the
    reference of the grid solve on either path."""
    A, rhs = assemble_operator_coo(field, lam, boundary)
    return spsolve(A.tocsc(), rhs + np.ravel(source)).reshape(field.sigma.shape)


def rel_err(values, ref):
    return np.max(np.abs(values - ref)) / np.max(np.abs(ref))


def test_grid_1d_plane_interface_value():
    # the plane interface x = 0 on a slab of ny rows, zero flux across the
    # y faces: every row is the 1d transmission profile
    lam = 100.0
    n, ny = 512, 8
    L = 2.0
    h = 2 * L / n
    centers = -L + (np.arange(n) + 0.5) * h
    sigma = np.tile(np.where(centers < 0.0, MED.sigma_m, MED.sigma_s), (ny, 1))
    field = ell.GridField(h=h, sigma=sigma)
    source = np.tile(lam * (centers < 0.0).astype(float), (ny, 1))
    sol = ell.grid_modified_helmholtz(field, lam, source,
                                      {"xlo": 1.0, "xhi": 0.0})
    i = n // 2
    u_interface = 0.5 * (sol.values[:, i - 1] + sol.values[:, i])
    assert np.max(np.abs(u_interface - K)) < 5.0 * h


def test_grid_harmonic_faces_are_exact_for_piecewise_linear_profiles():
    # lambda = 0 on a 40 x 4 slab with sigma = 1 | 4 split on a cell face and
    # u = 0, 1 on the x faces: the exact solution is linear on each side
    # with a continuous flux, which harmonic face means reproduce to
    # roundoff (1.2e-14; the arithmetic mean misses it by 7.3e-3)
    nx, ny, split = 40, 4, 15
    h = 1.0 / nx
    x = (np.arange(nx) + 0.5) * h
    x_s = split * h
    sigma = np.tile(np.where(np.arange(nx) < split, 1.0, 4.0), (ny, 1))
    field = ell.GridField(h=h, sigma=sigma)
    sol = ell.grid_modified_helmholtz(field, 0.0, np.zeros(nx * ny),
                                      {"xlo": 0.0, "xhi": 1.0})
    q = 1.0 / (x_s / 1.0 + (1.0 - x_s) / 4.0)  # the flux sigma u'
    exact = np.where(x < x_s, q * x, q * x_s + q * (x - x_s) / 4.0)
    assert np.max(np.abs(sol.values - exact)) <= 1e-12


def test_grid_zero_data_zero_solution():
    n = 24
    field = square(n, np.ones((n, n)))
    sol = ell.grid_modified_helmholtz(field, 3.0, np.zeros(n * n),
                                      {k: 0.0 for k in ("xlo", "xhi", "ylo", "yhi")})
    assert np.max(np.abs(sol.values)) < 1e-14


def test_grid_operator_is_m_matrix():
    rng = np.random.default_rng(0)
    n = 16
    field = square(n, rng.uniform(0.5, 4.0, (n, n)))
    A, _ = ell.assemble_operator(field, 2.0, {"xlo": 0.0})
    dense = A.toarray()
    off = dense - np.diag(np.diag(dense))
    assert np.all(off <= 0.0)
    assert np.all(np.diag(dense) > 0.0)
    # rows dominate strictly thanks to lambda > 0
    assert np.all(np.diag(dense) - np.abs(off).sum(axis=1) >= 2.0 - 1e-12)


FACES = ("xlo", "xhi", "ylo", "yhi")


@pytest.mark.parametrize("shape", [(1, 257), (257, 1), (7, 65), (33, 33),
                                   (96, 96)])
def test_assembly_matches_the_coo_reference_byte_for_byte(shape):
    # every Dirichlet-face subset, none included, scalar and array data
    rng = np.random.default_rng(sum(shape))
    ny, nx = shape
    field = ell.GridField(h=1.0 / nx,
                          sigma=rng.uniform(0.5, 4.0, shape))
    for k in range(len(FACES) + 1):
        for faces in itertools.combinations(FACES, k):
            boundary = {}
            for i, name in enumerate(faces):
                size = nx if name[0] == "y" else ny
                boundary[name] = rng.uniform(0.0, 1.0, size if i % 2 else None)
            A, rhs = ell.assemble_operator(field, 1.5, boundary)
            ref, ref_rhs = assemble_operator_coo(field, 1.5, boundary)
            for name in ("indptr", "indices", "data"):
                got, want = getattr(A, name), getattr(ref, name)
                assert got.dtype == want.dtype, (faces, name)
                assert got.tobytes() == want.tobytes(), (faces, name)
            assert rhs.dtype == ref_rhs.dtype
            assert rhs.tobytes() == ref_rhs.tobytes()
            # the banded path's residual applies the stencil with no matrix
            main, cx, cy, _ = ell._stencil(field, 1.5, boundary)
            w = rng.uniform(-1.0, 1.0, shape)
            Aw = ell._apply_stencil(main, cx, cy, w).ravel()
            assert rel_err(Aw, A @ w.ravel()) <= 1e-13, faces


def _cg_problem(n, seed):
    """A random-sigma n x n grid wide enough for the CG path, its source
    and two Dirichlet faces."""
    assert n > ell.BANDED_MAX_NX
    rng = np.random.default_rng(seed)
    field = square(n, rng.uniform(0.5, 4.0, (n, n)))
    boundary = {"xlo": rng.uniform(0.0, 1.0, n), "yhi": 1.0}
    return field, rng.uniform(0.0, 1.0, n * n), boundary


def test_cg_solve_leaves_nothing_for_the_cyclic_collector():
    # the V-cycle hierarchy is freed by reference counting when the solve
    # returns; a recursive closure once kept it in a reference cycle, and
    # the collector then found 26 objects here
    field, source, boundary = _cg_problem(97, 97)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sol = ell.grid_modified_helmholtz(field, 1.0, source, boundary)
        assert sol.iterations > 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_cg_solve_memory_stays_bounded():
    # traced peak of one CG-path solve at 192 x 192: 295 B/cell with COO
    # triplet assembly, (P.T @ A) @ P products and a cyclic V-cycle, 197
    # B/cell with the direct CSR fill, P.T @ (A @ P) and an acyclic one
    field, source, boundary = _cg_problem(192, 192)
    gc.collect()
    tracemalloc.start()
    try:
        ell.grid_modified_helmholtz(field, 1.0, source, boundary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 240 * field.sigma.size


def test_grid_width_picks_the_solver():
    # banded Cholesky up to BANDED_MAX_NX cells wide, V-cycle CG beyond;
    # both paths agree with SuperLU
    rng = np.random.default_rng(7)
    ny = 40
    for nx, banded in ((ell.BANDED_MAX_NX, True),
                       (ell.BANDED_MAX_NX + 1, False)):
        field = ell.GridField(h=1.0 / nx,
                              sigma=rng.uniform(0.5, 4.0, (ny, nx)))
        boundary = {"xlo": rng.uniform(0.0, 1.0, ny),
                    "yhi": rng.uniform(0.0, 1.0, nx)}
        source = rng.uniform(0.0, 1.0, ny * nx)
        sol = ell.grid_modified_helmholtz(field, 1.0, source, boundary)
        assert (sol.iterations == 0) == banded
        assert sol.residual <= 1e-10
        assert rel_err(sol.values, superlu(field, 1.0, source, boundary)) <= 1e-8


def _banded_problem(shape, seed):
    """A random-sigma grid for the banded path, its source and four
    Dirichlet faces."""
    ny, nx = shape
    assert nx <= ell.BANDED_MAX_NX
    rng = np.random.default_rng(seed)
    field = ell.GridField(h=1.0 / nx,
                          sigma=rng.uniform(0.5, 4.0, shape))
    boundary = {name: rng.uniform(0.0, 1.0, nx if name[0] == "y" else ny)
                for name in FACES}
    return field, rng.uniform(0.0, 1.0, ny * nx), boundary


def _banded_solve(problem, fresh=False):
    """The solution's bytes and the residual of one banded solve, in a new
    band buffer if `fresh`."""
    if fresh:
        ell._band.ab = None
    sol = ell.grid_modified_helmholtz(problem[0], 2.0, *problem[1:])
    assert sol.iterations == 0
    return sol.values.tobytes(), sol.residual


def test_banded_solves_do_not_see_the_last_factor():
    # the band buffer holds the previous solve's factor, fill-in included
    a, b = _banded_problem((32, 32), 1), _banded_problem((32, 32), 2)
    first = _banded_solve(a)
    _banded_solve(b)
    assert _banded_solve(a) == first


def test_banded_solves_across_shapes_match_fresh_buffers():
    problems = [_banded_problem(shape, seed) for seed, shape in
                enumerate([(32, 32), (8, 40), (32, 32), (1, 9), (9, 1)])]
    reused = [_banded_solve(p) for p in problems]
    assert reused == [_banded_solve(p, fresh=True) for p in problems]


def test_a_banded_solve_allocates_no_band_matrix():
    # the (33, 1024) band matrix takes 264 KiB; a fresh one per solve, its
    # factor copy and a copy for the residual's dsbmv peaked at 850 KiB.  One
    # band buffer per thread, factored in place, leaves 82 KiB of stencil
    # and vectors
    problem = _banded_problem((32, 32), 3)
    _banded_solve(problem)
    gc.collect()
    tracemalloc.start()
    try:
        _banded_solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 33 * 1024 * 8


def test_max_principle_checks_on_threads_match_serial_ones():
    # each thread fills and factors its own band buffer; a shared one hands
    # a trial another thread's band or factor, and dpbsv then fails
    def check(seed):
        return ell.discrete_max_principle_check(lam=10.0, trials=40,
                                                rng_seed=seed, n=32,
                                                sigma_range=(0.5, 4.0))

    seeds = (11, 12, 13, 14)
    serial = [check(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            threaded = list(pool.map(check, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.fixture(scope="module")
def disk_study():
    return ell.disk_convergence_study(MED)


def test_disk_convergence_order(disk_study):
    assert disk_study["observed_order"] >= 0.9
    assert disk_study["errors"][-1] < disk_study["errors"][0]


def _circle_samples(values, lo, h):
    """Bilinear samples of a full-square grid at the 64 circle angles of
    `disk_interface_values`."""
    theta = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    fx = (ell.DISK_R * np.cos(theta) - lo - 0.5 * h) / h
    fy = (ell.DISK_R * np.sin(theta) - lo - 0.5 * h) / h
    ix, iy = np.floor(fx).astype(int), np.floor(fy).astype(int)
    tx, ty = fx - ix, fy - iy
    return ((1 - tx) * (1 - ty) * values[iy, ix]
            + tx * (1 - ty) * values[iy, ix + 1]
            + (1 - tx) * ty * values[iy + 1, ix]
            + tx * ty * values[iy + 1, ix + 1])


def test_disk_quadrant_matches_full_square_direct_solve():
    # the quadrant solve is the full square's quadrant, and its circle
    # samples, taken at the mirror images, are the full square's samples
    h, L, lam = 1 / 32, ell.DISK_L, ell.DISK_LAM
    sol = ell.solve_disk(MED, h)
    m = int(round(L / h))
    x = -L + (np.arange(2 * m) + 0.5) * h
    X, Y = np.meshgrid(x, x)
    sigma = np.where(X ** 2 + Y ** 2 < ell.DISK_R ** 2, MED.sigma_s, MED.sigma_m)
    full = ell.GridField(h=h, sigma=sigma)
    ref = superlu(full, lam, lam * (sigma == MED.sigma_m),
                  {k: 1.0 for k in ("xlo", "xhi", "ylo", "yhi")})
    assert np.max(np.abs(sol.values - ref[m:, m:])) <= 1e-9
    assert np.max(np.abs(ell.disk_interface_values(sol.values, h)
                         - _circle_samples(ref, -L, h))) <= 1e-9


@pytest.mark.parametrize("shape", [(33, 33), (97, 97), (1, 257)])
def test_vcycle_cg_matches_direct_on_random_sigma(shape):
    # CG preconditioned by the V-cycle, as the grid solve runs it above
    # BANDED_MAX_NX cells, here at every width
    rng = np.random.default_rng(sum(shape))
    ny, nx = shape
    sigma = rng.uniform(0.5, 4.0, shape)
    if ny == 1:  # one row: Dirichlet at both ends
        boundary = {"xlo": 1.0, "xhi": 0.3}
    else:        # two Dirichlet faces, zero flux across the other two
        boundary = {"xlo": rng.uniform(0.0, 1.0, ny),
                    "yhi": rng.uniform(0.0, 1.0, nx)}
    field = ell.GridField(h=1.0 / nx, sigma=sigma)
    source = rng.uniform(0.0, 1.0, sigma.size)
    A, rhs = ell.assemble_operator(field, 1.0, boundary)
    b = rhs + source
    iterations = []
    sol, info = ell.cg(A, b, rtol=1e-10, atol=0.0, M=ell._vcycle(A, shape),
                       callback=lambda xk: iterations.append(1))
    assert info == 0
    assert 0 < len(iterations) <= 30
    assert np.linalg.norm(b - A @ sol) / np.linalg.norm(b) <= 1e-10
    assert rel_err(sol.reshape(shape), superlu(field, 1.0, source, boundary)) <= 1e-8


def test_disk_study_cg_iterations_stay_bounded(disk_study):
    rep = disk_study
    assert len(rep["iterations"]) == len(rep["hs"]) == 3
    assert max(rep["iterations"]) <= 30
    assert max(rep["residuals"]) <= 1e-10


def test_cg_nonconvergence_names_iterations_and_residual(monkeypatch):
    monkeypatch.setattr(ell, "cg", lambda A, b, **kw: (np.zeros_like(b), 7))
    n = ell.BANDED_MAX_NX + 1  # wide enough for the CG path
    field = square(n, np.ones((n, n)))
    with pytest.raises(NonConvergence, match=r"after 0 iterations at relative "
                       r"residual 1\.00e\+00"):
        ell.grid_modified_helmholtz(field, 1.0, np.ones(n * n), {"xlo": 0.0})


#: one grid on each side of BANDED_MAX_NX, named by the path it takes
PATHS = pytest.mark.parametrize("n", [ell.BANDED_MAX_NX + 1, 8],
                                ids=["cg", "direct"])


@PATHS
def test_singular_operator_is_rejected(n):
    # lambda = 0 and no Dirichlet face: constants span the null space
    field = square(n, np.ones((n, n)))
    with pytest.raises(InvalidArgument, match="singular"):
        ell.grid_modified_helmholtz(field, 0.0, np.ones(n * n), {})


@PATHS
def test_unknown_boundary_face_is_rejected(n):
    # a misspelled face used to become a zero-flux face, silently
    field = square(n, np.ones((n, n)))
    with pytest.raises(InvalidArgument, match="unknown boundary faces"):
        ell.grid_modified_helmholtz(field, 0.0, np.ones(n * n),
                                    {"xlow": 1.0})


def test_direct_solve_rejects_an_indefinite_operator():
    n = 8
    field = square(n, -np.ones((n, n)))
    with pytest.raises(InvalidArgument, match="not positive definite"):
        ell.grid_modified_helmholtz(field, 1.0, np.ones(n * n), {"xlo": 0.0})


def test_vcycle_cg_at_conductivity_contrast_100():
    rng = np.random.default_rng(100)
    n = 97
    sigma = rng.uniform(1.0, 100.0, (n, n))
    field = square(n, sigma)
    boundary = {"xlo": rng.uniform(0.0, 1.0, n), "yhi": rng.uniform(0.0, 1.0, n)}
    source = rng.uniform(0.0, 1.0, n * n)
    sol = ell.grid_modified_helmholtz(field, 1.0, source, boundary)
    assert 0 < sol.iterations <= 30
    assert rel_err(sol.values, superlu(field, 1.0, source, boundary)) <= 1e-8


@pytest.mark.parametrize("sigmas", [(100.0, 1.0), (1.0, 100.0)])
def test_disk_study_cg_at_conductivity_contrast_100(sigmas):
    for h in (1 / 32, 1 / 64):
        sol = ell.solve_disk(TwoPhaseMedium(*sigmas), h)
        assert sol.iterations <= 30
        assert sol.residual <= 1e-10


# -- maximum principle ------------------------------------------------------------------

def test_max_principle_uniform_sigma():
    rep = ell.discrete_max_principle_check(lam=1.0, trials=20, rng_seed=1,
                                           n=32, sigma_range=(1.0, 1.0))
    assert rep["min_value"] >= -1e-12


def test_max_principle_random_sigma():
    rep = ell.discrete_max_principle_check(lam=10.0, trials=30, rng_seed=2,
                                           n=32, sigma_range=(0.5, 4.0))
    assert rep["min_value"] >= -1e-10


def test_max_principle_trials_match_sparse_reference():
    # each trial redrawn in the check's order and solved by SuperLU on the
    # assembled CSR operator, against the banded Cholesky path
    lam, n, trials, seed = 10.0, 16, 12, 5
    rep = ell.discrete_max_principle_check(lam=lam, trials=trials,
                                           rng_seed=seed, n=n,
                                           sigma_range=(0.5, 4.0))
    rng = np.random.default_rng(seed)
    mins = []
    for _ in range(trials):
        sig = rng.uniform(0.5, 4.0, size=(n, n))
        boundary = {name: rng.uniform(0.0, 1.0, size=n)
                    for name in ("xlo", "xhi", "ylo", "yhi")}
        source = rng.uniform(0.0, 1.0, size=(n, n)) * lam
        field = square(n, sig)
        A, rhs = assemble_operator_coo(field, lam, boundary)
        ref = spsolve(A.tocsc(), rhs + source.ravel())
        sol = ell.grid_modified_helmholtz(field, lam, source, boundary)
        err = np.max(np.abs(sol.values.ravel() - ref)) / np.max(np.abs(ref))
        assert err <= 1e-14
        mins.append(float(ref.min()))
    assert rep["trials"] == trials
    assert abs(rep["min_value"] - min(mins)) <= 1e-15


def test_max_principle_rejects_lambda_zero():
    with pytest.raises(InvalidArgument):
        ell.discrete_max_principle_check(lam=0.0, trials=1, rng_seed=0,
                                         n=32, sigma_range=(0.5, 4.0))


@pytest.mark.parametrize("trials, n", [(0, 8), (2, 0)])
def test_max_principle_rejects_counts_that_do_no_work(trials, n):
    with pytest.raises(InvalidArgument, match="must be a positive integer"):
        ell.discrete_max_principle_check(lam=10.0, trials=trials, rng_seed=0,
                                         n=n, sigma_range=(0.5, 4.0))


@pytest.mark.parametrize("lo, hi, per_decade", [
    (0.0, 1e6, 12), (-1.0, 1e6, 12), (1e6, 1e2, 12), (1e2, 1e6, 0),
    (1e2, 1e6, 1.5)])
def test_log_rate_grid_rejects_sweeps_that_cannot_be_fitted(lo, hi,
                                                             per_decade):
    with pytest.raises(InvalidArgument):
        ell.log_rate_grid(lo, hi, per_decade)


def test_annulus_counterexample_reproduces_failure():
    rep = ell.annulus_counterexample()
    assert rep["boundary_value"] == 0.0           # admissible data on the true boundary
    assert rep["profile_residual"] < 1e-10        # discretely harmonic
    assert rep["min_interior"] < -0.4             # yet negative inside
    assert rep["profile_matches"] < 1e-10         # the solve recovers the profile


def test_radial_solvers_reject_minimal_surfaces():
    for surface in (geo.Helicoid(), geo.Catenoid(c=1.0)):
        with pytest.raises(UnsupportedGeometry):
            surface.radial_dim
        with pytest.raises(UnsupportedGeometry):
            ell.solve_radial_dirichlet(surface, 10.0, 1.0, K)
        with pytest.raises(UnsupportedGeometry):
            ell.solve_radial_transmission(surface, 10.0, MED)
        with pytest.raises(UnsupportedGeometry):
            ell.extract_mean_curvature(surface, MED, RATES)
