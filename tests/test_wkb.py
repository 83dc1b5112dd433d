import math
import sys
import threading
import time

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebval2d
from scipy.integrate import quad

from twophase import geometry as geo, helicoid as hl, wkb
from twophase.errors import (DegenerateTube, InvalidArgument,
                             OutsideTubularNeighborhood, ThresholdNotFound,
                             UnsupportedGeometry)
from twophase.medium import TwoPhaseMedium

from oracles import (SlabCorrector, elliptic_residual,
                     first_coefficient, first_coefficient_error,
                     psi_at_radius, ray_derivative)

MED = TwoPhaseMedium(1.0, 4.0)
PLANE = geo.Hyperplane(N=3)
SPHERE = geo.Sphere(R=1.0, N=3)
CYLINDER = geo.Cylinder(R=2.0, N=3)
HELICOID = geo.Helicoid()
CATENOID = geo.Catenoid(c=1.0)

ALL = {"plane": PLANE, "sphere": SPHERE, "cylinder": CYLINDER,
       "helicoid": HELICOID, "catenoid": CATENOID}


# -- A0 -------------------------------------------------------------------------

def test_a0_is_one_on_surface():
    for surface in (SPHERE, HELICOID):
        z = (np.array([1.0, 0.0, 0.0]) if surface.is_radial
             else surface.point_at(np.asarray(0.3)))
        eng = wkb.coefficient_engine(surface, -1)
        assert eng.a0(z[None, :])[0] == pytest.approx(1.0, abs=1e-12)


def test_a0_sphere_example():
    x = np.array([0.0, 0.0, 0.81])  # delta = 0.19 inside
    eng = wkb.coefficient_engine(SPHERE, -1)
    assert eng.a0(x[None, :])[0] == pytest.approx(1.0 / 0.81, rel=1e-12)


def test_a0_hyperplane_is_one_everywhere():
    for x1 in (0.2, -0.5, 0.9):
        eng = wkb.coefficient_engine(PLANE, -1 if x1 > 0.0 else +1)
        assert eng.a0(np.array([[x1, 2.0, -1.0]]))[0] == 1.0


def test_a0_degenerate_tube():
    # a collar wider than the focal distance 1/kappa cannot be tabulated
    class WideCollarSphere(geo.Sphere):
        @property
        def delta0(self):
            return 1.05 * self.R

    with pytest.raises(DegenerateTube):
        wkb.CoefficientEngine(WideCollarSphere(), -1)


def test_engine_needs_a_chart():
    # a non-radial surface without chart_metric has no ray parametrization
    class Chartless(geo.Surface):
        N = 3
        delta0 = 0.5

    with pytest.raises(UnsupportedGeometry):
        wkb.CoefficientEngine(Chartless(), -1)


# -- the coefficient recursion ----------------------------------------------------

def test_plane_forced_coefficient_is_distance():
    taus = np.linspace(0.0, 1.0, 9)
    table = wkb.compute_coefficients(PLANE, 0.0, 1, side=-1, taus=taus)
    assert np.allclose(table.An_plus, taus, atol=1e-13)
    assert np.allclose(table.An_minus, -taus, atol=1e-13)


@pytest.mark.parametrize("name", sorted(ALL))
def test_surface_row_is_exact(name):
    # the row is read from the tables: A_0 in closed form, the rest from
    # ray integrals that start at tau = 0
    table = wkb.compute_coefficients(ALL[name], 0.0, 3, side=-1,
                                     taus=np.linspace(0.0, 0.3, 7))
    row = table.at_surface()
    assert row[0] == 1.0
    assert np.max(np.abs(row[1:])) <= 1e-12


def test_sphere_first_coefficient_vanishes():
    # for the unit 2-sphere, Lap A_0 = 0 identically, so A_1 = 0
    eng = wkb.coefficient_engine(SPHERE, -1)
    taus = np.linspace(0.0, eng.delta0, 9)
    pts = eng.ray_points(0.0, taus)
    assert np.max(np.abs(eng.field(1, pts))) < 1e-8
    assert np.max(np.abs(eng.laplacian(0, pts))) < 1e-12


def test_cylinder_first_coefficient_two_ways():
    # independent oracle: quadrature of the symbolic Lap A_0 in radial form
    eng = wkb.coefficient_engine(CYLINDER, -1)
    kap = 0.5

    def lap_a0(t):
        return (0.75 * kap ** 2 * (1 - kap * t) ** -2.5
                - kap / (1 - kap * t) * 0.5 * kap * (1 - kap * t) ** -1.5)

    for delta in (0.2, 0.5, 0.8):
        w = lambda t: math.sqrt(1 - kap * t)
        oracle = quad(lambda t: 0.5 * lap_a0(t) * w(t), 0.0, delta)[0] / w(delta)
        p = eng.ray_points(0.0, np.array([delta]))[0]
        assert eng.field(1, p[None, :])[0] == pytest.approx(oracle, abs=1e-8)
        # the closed form of `first_coefficient` is this integral
        assert first_coefficient(CYLINDER, delta, -1) == pytest.approx(
            oracle, abs=1e-14)


@pytest.mark.parametrize("surface, side", [
    (geo.Cylinder(R=1.0, N=3), -1), (geo.Sphere(R=1.0, N=4), -1),
    (geo.Cylinder(R=1.0, N=3), +1), (CYLINDER, +1), (geo.Sphere(R=1.0, N=4), +1),
], ids=["cylinder", "sphere-N4", "cylinder-outside", "cylinder-R2-outside",
        "sphere-N4-outside"])
def test_first_coefficient_matches_its_closed_form(surface, side):
    # the tables read 1.6e-16 (cylinder) and 7.7e-16 (sphere) at 9 depths
    # inside; outside, where kappa -> -kappa, 6.2e-17 (R = 1), 3.1e-17
    # (R = 2) and 1.5e-16 (sphere)
    assert first_coefficient_error(surface, side) <= 1e-12


def test_recursion_consistency_across_orders():
    taus = np.linspace(0.0, 0.35, 8)
    t2 = wkb.compute_coefficients(HELICOID, 0.2, 2, side=-1, taus=taus)
    t3 = wkb.compute_coefficients(HELICOID, 0.2, 3, side=-1, taus=taus)
    for j in range(2):
        assert np.allclose(t2.A[j], t3.A[j], atol=1e-14)


def test_compute_coefficients_rejects_bad_order():
    with pytest.raises(InvalidArgument):
        wkb.compute_coefficients(SPHERE, 0.0, 0, side=-1,
                                 taus=np.linspace(0.0, 0.1, 5))


# -- gradient identities ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL))
def test_gradient_identities_j_up_to_three(name):
    surface = ALL[name]
    eng = wkb.coefficient_engine(surface, -1)
    rng = np.random.default_rng(7)
    if surface.is_radial:
        samples = [(0.0, f) for f in (0.15, 0.45, 0.75)]
    else:
        samples = [(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 0.75))
                   for _ in range(6)]
    for q, frac in samples:
        p = eng.ray_points(q, np.array([frac * eng.delta0]))[0]
        for j in range(4):
            res = wkb.gradient_identity_residual(surface, j, p, side=-1)
            assert res < 1e-4, (name, j, q, frac, res)


def test_gradient_identity_returns_one_value_per_point():
    # a cylinder batch on and one past the tables (order 4), and a helicoid
    # batch past its tables (order 2) on rays of different q, where each
    # point needs its own ray profile
    eng = wkb.coefficient_engine(CYLINDER, -1)
    X = eng.ray_points(0.0, np.array([0.2, 0.5, 0.7]) * eng.delta0)
    hel = wkb.coefficient_engine(HELICOID, -1)
    Y = np.vstack([hel.ray_points(q, np.array([0.4 * hel.delta0]))
                   for q in (-0.3, 0.1)])
    for surface, j, P in [(CYLINDER, 2, X), (CYLINDER, 5, X),
                          (HELICOID, 3, Y)]:
        batch = wkb.gradient_identity_residual(surface, j, P, -1)
        assert np.shape(batch) == (len(P),)
        assert len(set(batch.tolist())) == len(P)
        for i in range(len(P)):
            assert batch[i] == wkb.gradient_identity_residual(
                surface, j, P[i], -1)[0]


def test_gradient_identity_sphere_j0_symbolic():
    # grad(delta) . grad(A_0) = -Lap(delta) A_0 / 2 = (1 - delta)^(-2) on the
    # unit sphere from inside
    eng = wkb.coefficient_engine(SPHERE, -1)
    p = eng.ray_points(0.0, np.array([0.1]))[0]
    lhs = ray_derivative(eng, 0, p[None, :])[0]
    assert lhs == pytest.approx((1 - 0.1) ** -2, rel=1e-6)


def _fd_laplacian(fieldfunc, X, h):
    """Cartesian 7-point Laplacian; every stencil point is projected anew."""
    out = -6.0 * fieldfunc(X)
    for e in np.eye(3):
        out += fieldfunc(X + h * e) + fieldfunc(X - h * e)
    return out / h ** 2


def _general_collar_points(name, eng, rng, m, q_max, depth):
    """m collar points on rays through |q| < q_max at tau in depth * delta0,
    moved by a random screw motion (helicoid) or rotation (catenoid)."""
    q = rng.uniform(-q_max, q_max, m)
    tau = rng.uniform(*depth, m) * eng.delta0
    X = np.concatenate([eng.ray_points(qi, [ti]) for qi, ti in zip(q, tau)])
    alpha = rng.uniform(-math.pi, math.pi, m)
    if name == "helicoid":
        return hl.screw_many(X, alpha)
    cos, sin = np.cos(alpha), np.sin(alpha)
    return np.stack([X[:, 0] * cos - X[:, 1] * sin,
                     X[:, 0] * sin + X[:, 1] * cos, X[:, 2]], axis=1)


@pytest.mark.parametrize("name", ["helicoid", "catenoid"])
@pytest.mark.parametrize("side", [-1, +1])
def test_chart_laplacian_matches_cartesian_stencil(name, side):
    # independent of the chart: finite differences in Cartesian axes at
    # general collar points (rays moved by a random screw motion or
    # rotation); Richardson extrapolation over h and h/2 removes the O(h^2)
    # truncation, which reaches 5e-4 for A_2 near the far wall
    eng = wkb.coefficient_engine(ALL[name], side)
    X = _general_collar_points(name, eng,
                               np.random.default_rng([11, side + 1, len(name)]),
                               24, 0.8, (0.05, 0.95))
    h = 1e-3 * eng.delta0
    cases = [(lambda P, j=j: eng.field(j, P), eng.laplacian(j, X))
             for j in range(3)]
    cases += [(lambda P, sign=sign: eng.field_pm(2, sign, P),
               eng.laplacian_pm(2, sign, X)) for sign in (+1, -1)]
    for fieldfunc, exact in cases:
        coarse = _fd_laplacian(fieldfunc, X, h)
        fine = _fd_laplacian(fieldfunc, X, 0.5 * h)
        assert np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact)) < 2e-4


@pytest.mark.parametrize("name", ["helicoid", "catenoid"])
@pytest.mark.parametrize("side", [-1, +1])
def test_top_laplacian_matches_a_coarse_richardson_stencil(name, side):
    # the 7-point Laplacian of the A_2 table at h = 0.04, 0.02 and 0.01 with
    # two Richardson steps (O(h^2), then O(h^4)): steps this coarse keep the
    # tables' round-off, divided by h^2, far below the bound, so the check
    # sees the error of the tabulated Lap A_2 itself
    eng = wkb.coefficient_engine(ALL[name], side)
    X = _general_collar_points(name, eng,
                               np.random.default_rng([13, side + 1, len(name)]),
                               16, 0.6, (0.15, 0.85))
    stencils = [_fd_laplacian(lambda P: eng.field(2, P), X, h)
                for h in (0.04, 0.02, 0.01)]
    once = [(4.0 * fine - coarse) / 3.0
            for coarse, fine in zip(stencils, stencils[1:])]
    twice = (16.0 * once[1] - once[0]) / 15.0
    assert np.max(np.abs(twice - eng.laplacian(2, X))) <= 1e-5


def test_table_reads_outside_the_tables_raise():
    eng = wkb.coefficient_engine(HELICOID, -1)
    x = eng.ray_points(2.5, np.array([0.2]))
    with pytest.raises(OutsideTubularNeighborhood):
        eng.field(1, x)
    with pytest.raises(OutsideTubularNeighborhood):
        eng.laplacian(1, x)
    far = eng.ray_points(0.0, np.array([1.5 * eng.delta0]))
    with pytest.raises(OutsideTubularNeighborhood):
        eng.j_integral(far)
    with pytest.raises(InvalidArgument):
        eng.laplacian(eng.table_order + 1, eng.ray_points(0.0, [0.2]))


def test_boundedness_of_forced_laplacians():
    # |Lap A_{n,+-}| stays bounded over the collar; report the constant
    for name in ("cylinder", "helicoid"):
        surface = ALL[name]
        eng = wkb.coefficient_engine(surface, -1)
        taus = np.linspace(0.0, eng.delta0, 12)
        pts = eng.ray_points(0.1 if not surface.is_radial else 0.0, taus)
        for sign in (+1, -1):
            vals = eng.laplacian_pm(2, sign, pts)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) < 50.0


# -- barriers -------------------------------------------------------------------

def test_barrier_boundary_value_is_k():
    for sign in (+1, -1):
        z = np.array([1.0, 0.0, 0.0])
        assert wkb.barrier_f(SPHERE, MED, z, 123.0, 1, sign, -1) == pytest.approx(
            MED.k, abs=1e-14)


def test_barrier_plane_example():
    x = np.array([0.5, -2.0, 1.0])
    for sign in (+1, -1):
        got = wkb.barrier_f(PLANE, MED, x, 100.0, 1, sign, -1)
        expect = (2.0 / 3.0) * math.exp(-5.0) * (1.0 + sign * 0.05)
        assert got == pytest.approx(expect, rel=1e-13)


def test_barrier_outside_prefactor():
    z = np.array([1.0, 0.0, 0.0])
    got = wkb.barrier_f(SPHERE, MED, z, 50.0, 1, +1, side=+1)
    assert got == pytest.approx(1.0 - MED.k, abs=1e-14)


def test_barrier_large_rate_limit():
    # the higher terms carry powers of sqrt(sigma/lambda); the ratio against
    # the leading term tends to 1 (delta kept small enough that the
    # exponential is representable at lambda = 1e8)
    x = np.array([0.0, 0.995, 0.0])
    eng = wkb.coefficient_engine(SPHERE, -1)
    lam = 1e8
    f = wkb.barrier_f(SPHERE, MED, x, lam, 1, +1, -1)
    leading = MED.k * math.exp(-math.sqrt(lam) * 0.005) * eng.a0(x[None, :])[0]
    assert f / leading == pytest.approx(1.0, abs=1e-3)


def test_barrier_rejects_nonpositive_rate():
    with pytest.raises(InvalidArgument):
        wkb.barrier_f(SPHERE, MED, np.array([0.9, 0.0, 0.0]), 0.0, 1, +1,
                      -1)


def test_elliptic_residual_plane_sign_strict_all_rates():
    x = np.array([0.4, 0.0, 0.0])
    for lam in (1.0, 10.0, 1e4):
        for sign in (+1, -1):
            lhs, rhs = elliptic_residual(PLANE, MED, x, lam, 1, sign, -1)
            expect = -2.0 * sign * MED.k * math.exp(-math.sqrt(lam) * 0.4)
            assert lhs == pytest.approx(expect, rel=1e-10)
            assert rhs == pytest.approx(expect, rel=1e-10)
            assert sign * lhs < 0.0


def test_elliptic_residual_sphere_agreement():
    eng = wkb.coefficient_engine(SPHERE, -1)
    for tau in (0.1, 0.3):
        p = eng.ray_points(0.0, np.array([tau]))[0]
        for sign in (+1, -1):
            lhs, rhs = elliptic_residual(SPHERE, MED, p, 1e4, 1, sign, -1)
            assert abs(lhs - rhs) < 1e-4 * abs(rhs)
            assert sign * lhs < 0.0


def test_elliptic_residual_on_surface_reduces():
    z = np.array([1.0, 0.0, 0.0])
    eng = wkb.coefficient_engine(SPHERE, -1)
    for sign in (+1, -1):
        lhs, rhs = elliptic_residual(SPHERE, MED, z, 400.0, 1, sign, -1)
        lap_pm = eng.laplacian_pm(1, sign, z[None, :])[0]
        expect = MED.k * 1.0 * (-2.0 * sign + lap_pm / 20.0)
        assert rhs == pytest.approx(expect, rel=1e-10)
        assert lhs == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("name", ["helicoid", "catenoid", "cylinder"])
@pytest.mark.parametrize("side", [-1, +1])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", [+1, -1])
def test_elliptic_residual_identity_closes(name, side, n, sign):
    # exact ray derivatives: the two sides agree to table accuracy from the
    # surface itself to deep in the collar, with no step error times 2 mu
    surface = ALL[name]
    eng = wkb.coefficient_engine(surface, side)
    taus = np.array([0.0, 1e-3, 0.2, 0.7]) * eng.delta0
    qs = [0.0] if surface.is_radial else [-0.4, 0.0, 0.3]
    X = np.concatenate([eng.ray_points(q, taus) for q in qs])
    lhs, rhs = elliptic_residual(surface, MED, X, 1e4, n, sign, side)
    assert lhs.shape == rhs.shape == (len(X),)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-6


def test_barrier_functions_return_one_value_per_point():
    eng = wkb.coefficient_engine(SPHERE, -1)
    th = wkb.calibrate_thresholds(SPHERE, MED, 1, -1)
    corr = wkb.RadialCorrector(SPHERE, side=-1)
    X = eng.ray_points(0.0, np.array([0.1, 0.4, 0.8]) * eng.delta0)
    calls = [
        lambda P: wkb.barrier_f(SPHERE, MED, P, 1e4, 2, +1, -1),
        lambda P: wkb.barrier_w(SPHERE, MED, P, 1e4, 1, -1, -1,
                                corrector=corr, thresholds=th),
        lambda P: elliptic_residual(SPHERE, MED, P, 1e4, 2, +1, -1)[0],
        lambda P: elliptic_residual(SPHERE, MED, P, 1e4, 2, -1, -1)[1],
    ]
    for call in calls:
        batch = call(X)
        assert np.shape(batch) == (3,)
        assert len(set(batch.tolist())) == 3
        for i in range(3):
            assert batch[i] == call(X[i])[0]


def _collar_batch(eng, n: int, rng) -> np.ndarray:
    """n seeded points of eng's collar at depths in [0.05, 0.85] delta0:
    random radial directions on a sphere or a cylinder (whose axis
    coordinate is drawn in [-2, 2]), footpoints |q| <= 0.5 c on a minimal
    surface."""
    taus = rng.uniform(0.05, 0.85, n) * eng.delta0
    surface = eng.surface
    if surface.is_radial:
        d = surface.radial_dim
        X = rng.uniform(-2.0, 2.0, (n, surface.N))
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        X[:, :d] = (surface.R + eng.side * taus)[:, None] * u
        return X
    qs = rng.uniform(-0.5, 0.5, n) * getattr(surface, "c", 1.0)
    return np.concatenate([eng.ray_points(q, [t]) for q, t in zip(qs, taus)])


#: more than two read blocks, the last one partial
BLOCK_BATCH = 2 * wkb._READ_BLOCK + 37


@pytest.mark.parametrize("side", [-1, +1])
@pytest.mark.parametrize("name", ["helicoid", "catenoid", "sphere"])
def test_a_point_reads_the_same_bits_in_any_block(name, side):
    eng = wkb.coefficient_engine(ALL[name], side)
    rng = np.random.default_rng([30, side + 1])
    X = _collar_batch(eng, BLOCK_BATCH, rng)
    top = eng.table_order
    reads = ([lambda P, j=j: eng.field(j, P) for j in range(1, top + 2)]
             + [lambda P, j=j: eng.laplacian(j, P) for j in range(top + 1)]
             + [lambda P, s=s: eng.field_pm(top + 1, s, P) for s in (1, -1)]
             + [lambda P, s=s: eng.laplacian_pm(top, s, P) for s in (1, -1)])
    batch = [read(X) for read in reads]
    assert all(b.shape == (BLOCK_BATCH,) for b in batch)
    last_block = np.arange(2 * wkb._READ_BLOCK, BLOCK_BATCH)
    picks = np.concatenate([rng.choice(2 * wkb._READ_BLOCK, 24, replace=False),
                            rng.choice(last_block, 5, replace=False),
                            [BLOCK_BATCH - 1]])
    for i in picks:
        alone = [read(X[i]) for read in reads]
        lo = max(i - 5, 0)          # at offset i - lo in a short slice
        sliced = [read(X[lo:i + 3]) for read in reads]
        for b, a, s in zip(batch, alone, sliced):
            assert a.shape == (1,) and a[0] == b[i]
            assert s[i - lo] == b[i]
    for read in reads:
        assert read(np.empty((0, 3))).shape == (0,)


@pytest.mark.parametrize("name", ["helicoid", "catenoid", "sphere", "cylinder"])
def test_reads_match_numpys_chebyshev_series(name):
    # an independent evaluation of the stored series: a transposed or
    # shifted block layout reads other points' values, the same in any batch
    eng = wkb.coefficient_engine(ALL[name], -1)
    X = _collar_batch(eng, BLOCK_BATCH, np.random.default_rng(31))
    q, tau = eng.signed_coords(X)

    def mapped(v, box):
        return (2.0 * v - (box[0] + box[1])) / (box[1] - box[0])

    top = eng.table_order
    tables = ([(eng._fields[j], eng.field(j, X)) for j in range(1, top + 2)]
              + [(eng._laps[j], eng.laplacian(j, X)) for j in range(top + 1)]
              + [(eng._j_table, eng.j_integral(X))])
    t = mapped(tau, eng._tau_box)
    for coef, got in tables:
        if eng._q_box is None:
            want = chebval(t, coef[0])
        else:
            want = chebval2d(mapped(q, eng._q_box), t, coef)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(coef))


def test_each_batch_is_projected_once(monkeypatch):
    eng = wkb.coefficient_engine(HELICOID, -1)
    counted = []
    project = geo.Helicoid.project_batch

    def counting(self, X):
        counted.append(len(X))
        return project(self, X)
    monkeypatch.setattr(geo.Helicoid, "project_batch", counting)
    monkeypatch.setattr(wkb._projection, "last", None)
    taus = np.linspace(0.05, 0.3, 5) * eng.delta0
    X = eng.ray_points(0.0, taus)
    elliptic_residual(HELICOID, MED, X, 1e4, 2, +1, -1)
    assert counted == [5]
    th = wkb.BarrierThresholds(eta=0.5 * eng.delta0, lam_min=1.0)
    wkb.barrier_w(HELICOID, MED, eng.ray_points(0.2, taus), 1e4, 2, +1, -1,
                  corrector=SlabCorrector(eng.delta0), thresholds=th)
    assert counted == [5, 5]
    # a caller that mutates its array in place reads its new points
    X[0, 2] += 1e-3
    first = eng.field(1, X)
    assert len(counted) == 3
    assert np.array_equal(eng.field(1, X), first) and len(counted) == 3
    # -0.0 equals 0.0 as a value but not as bytes: it misses the slot
    assert np.all(X[:, 0] == 0.0)
    Y = X.copy()
    Y[:, 0] = -0.0
    eng.field(1, Y)
    assert len(counted) == 4
    for cached in wkb._project(HELICOID, Y):
        assert not cached.flags.writeable
    assert len(counted) == 4


def _on_two_threads(read):
    """read(0) and read(1) started together on two threads, with the
    interpreter switching threads every microsecond; their results."""
    results = [None, None]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        results[i] = read(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_read_through_their_own_projection():
    # the reads project their points, then fetch the bases kept with
    # the projection; another thread's batch in between must not be read
    eng = wkb.coefficient_engine(HELICOID, -1)
    taus = np.linspace(0.05, 0.3, 6) * eng.delta0
    point_sets = [eng.ray_points(q, taus) for q in (-0.3, 0.4)]

    def reads(X):
        return np.concatenate([eng.field(1, X), eng.laplacian(1, X),
                               eng.field(2, X), eng.laplacian(0, X)])

    expected = [reads(X) for X in point_sets]
    results = _on_two_threads(
        lambda i: [reads(point_sets[i]) for _ in range(300)])
    for got, want in zip(results, expected):
        assert got is not None
        assert all(np.array_equal(g, want) for g in got)


def test_concurrent_first_requests_build_one_engine(monkeypatch):
    surface = geo.Sphere(R=1.7, N=3)  # an engine no other test asks for
    builds = []
    init = wkb.CoefficientEngine.__init__

    def slow_init(self, *args):
        builds.append(args)
        time.sleep(0.05)  # the other thread asks while this build runs
        init(self, *args)

    monkeypatch.setattr(wkb.CoefficientEngine, "__init__", slow_init)
    engines = _on_two_threads(lambda i: wkb.coefficient_engine(surface, -1))
    assert builds == [(surface, -1)]
    assert engines[0] is not None and engines[0] is engines[1]


def test_threshold_calibration_and_barrier_w():
    eng = wkb.coefficient_engine(SPHERE, -1)
    th = wkb.calibrate_thresholds(SPHERE, MED, 1, -1)
    assert th.eta == pytest.approx(0.5 * eng.delta0, rel=1e-12)
    assert 0.0 < th.lam_min < 1e3
    corr = wkb.RadialCorrector(SPHERE, side=-1)
    z = np.array([1.0, 0.0, 0.0])
    for sign in (+1, -1):
        val = wkb.barrier_w(SPHERE, MED, z, 1e4, 1, sign, -1,
                            corrector=corr, thresholds=th)
        assert val == pytest.approx(MED.k, abs=1e-14)
    with pytest.raises(InvalidArgument):
        wkb.barrier_w(SPHERE, MED, z, 0.5 * th.lam_min, 1, +1, -1,
                      corrector=corr, thresholds=th)


def test_threshold_not_found_when_the_wall_bound_never_holds():
    # |w| = 1 at the far wall exceeds e^(-eta sqrt(lambda)) at every rate
    with pytest.raises(ThresholdNotFound):
        wkb.calibrate_thresholds(SPHERE, MED, 1, -1,
                                 outer_w=lambda lam: 1.0)


def _reference_thresholds(surface, n, side, eng):
    """calibrate_thresholds' bisection, reading the tables at every step."""
    sigma = MED.side_conductivity(side)
    eta = 0.5 * eng.delta0 / math.sqrt(sigma)
    edge = wkb.CALIBRATION_Q * getattr(surface, "c", 1.0)
    q_samples = [0.0] if surface.is_radial else list(np.linspace(-edge, edge, 5))
    tau_samples = np.linspace(0.0, eng.delta0, 17)

    def admissible(lam):
        bound = math.exp(-eta * math.sqrt(lam))
        q_rate = math.sqrt(sigma / lam)
        for q in q_samples:
            pts = eng.ray_points(q, tau_samples)
            wall = eng.ray_points(q, np.array([eng.delta0]))[0]
            for sign in (+1, -1):
                bracket = -2.0 * sign + q_rate * eng.laplacian_pm(n, sign, pts)
                if np.any(sign * bracket >= 0.0):
                    return False
                if abs(wkb.barrier_f(surface, MED, wall, lam, n, sign,
                                     side)[0]) > bound:
                    return False
        return True

    lo, hi = 1.0, 1e10
    assert admissible(hi)
    if admissible(lo):
        return wkb.BarrierThresholds(eta=eta, lam_min=lo)
    for _ in range(48):
        mid = math.sqrt(lo * hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return wkb.BarrierThresholds(eta=eta, lam_min=hi)


@pytest.mark.parametrize("name", ["sphere", "helicoid", "catenoid"])
@pytest.mark.parametrize("side", [-1, +1])
def test_calibration_reads_once_without_changing_thresholds(name, side):
    surface = ALL[name]
    eng = wkb.coefficient_engine(surface, side)
    for n in (1, 2):
        th = wkb.calibrate_thresholds(surface, MED, n, side=side)
        assert th == _reference_thresholds(surface, n, side, eng)


@pytest.mark.parametrize("name", ["helicoid", "catenoid"])
def test_calibration_projects_each_ray_and_wall_point_once(name, monkeypatch):
    # 5 q samples: their 5 x 17 ray points in one batch, then the 5 wall
    # points in another, both signs read from each
    surface = ALL[name]
    wkb.coefficient_engine(surface, -1)
    project, points = type(surface).project_batch, []
    monkeypatch.setattr(type(surface), "project_batch",
                        lambda self, X: points.append(len(X)) or project(self, X))
    wkb.calibrate_thresholds(surface, MED, 2, side=-1)
    assert points == [85, 5]


def test_barrier_w_outer_wall_ordering():
    eng = wkb.coefficient_engine(PLANE, -1)
    th = wkb.calibrate_thresholds(PLANE, MED, 1, -1)
    lam = max(1e4, 2.0 * th.lam_min)
    x = np.array([eng.delta0, 0.0, 0.0])
    corr = SlabCorrector(eng.delta0)
    wp = wkb.barrier_w(PLANE, MED, x, lam, 1, +1, -1, corrector=corr,
                       thresholds=th)
    wm = wkb.barrier_w(PLANE, MED, x, lam, 1, -1, -1, corrector=corr,
                       thresholds=th)
    bound = math.exp(-th.eta * math.sqrt(lam))
    assert wp >= bound
    assert wm <= -bound + 2e-16
    assert wp > wm


# -- near-boundary law -----------------------------------------------------------

def test_near_boundary_law_plane_trivial():
    eng = wkb.coefficient_engine(PLANE, -1)
    deltas = np.geomspace(1e-3, 1e-1, 7)
    pts = eng.ray_points(0.0, deltas)
    assert np.max(np.abs(eng.laplacian(0, pts))) < 1e-12


@pytest.mark.parametrize("name,q", [("helicoid", 0.0), ("catenoid", 0.0)])
def test_near_boundary_law_minimal_patches(name, q):
    fit = wkb.near_boundary_law(ALL[name], q, side=-1)
    assert fit.predicted_coefficient == pytest.approx(1.0, abs=1e-12)
    assert abs(fit.measured_coefficient - 1.0) < 0.02
    assert abs(fit.fitted_exponent - 0.0) < 0.1


def test_near_boundary_law_off_axis():
    # H_2 = -(1 + q^2)^-2 at parameter q on the helicoid
    q = 0.4
    fit = wkb.near_boundary_law(HELICOID, q, side=-1)
    expect = (1.0 + q * q) ** -2
    assert fit.predicted_coefficient == pytest.approx(expect, rel=1e-12)
    assert fit.measured_coefficient == pytest.approx(expect, rel=0.02)


def test_near_boundary_law_needs_a_minimal_surface():
    # H_1 = 0 and H_2 = kappa_1 kappa_2 hold on the helicoid and catenoid;
    # on a sphere in N = 3 the law would predict -1 where Lap A_0 is 0
    for surface in (geo.Sphere(R=1.0, N=3), geo.Sphere(R=1.0, N=4)):
        with pytest.raises(InvalidArgument):
            wkb.near_boundary_law(surface, 0.0, side=-1)


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("surface, q, expected", [
    (CYLINDER, 0.0, 0.5 ** 2 / 4),       # kappa^2 / 4 at kappa = 1/R
    (HELICOID, 0.0, 1.0),                # 1 / (1 + q^2)^2
    (HELICOID, 0.3, 1.0 / 1.09 ** 2),
], ids=["cylinder", "helicoid-0", "helicoid-0.3"])
def test_boundary_laplacian_of_a0_matches_its_closed_form(
        surface, q, expected, side):
    eng = wkb.coefficient_engine(surface, side)
    lap = eng.laplacian(0, eng.ray_points(q, [0.0]))[0]
    assert abs(lap - expected) <= 1e-9
    if q == 0.0:  # boundary_laplacians reads the same row at footpoint 0
        assert wkb.boundary_laplacians(surface, 0, side=side)[0] == lap


# -- harmonic correctors ----------------------------------------------------------

def test_slab_corrector_midpoint():
    assert SlabCorrector(0.8).psi(0.4) == 1.0


#: the gate's radial collars: inner [0.55, 1] (delta0 = 0.45) and outer
#: [2, 2.9] (delta0 = 0.9)
SPHERE_IN = wkb.RadialCorrector(SPHERE, side=-1)
CYLINDER_OUT = wkb.RadialCorrector(CYLINDER, side=+1)


def test_radial_corrector_example():
    # sphere, d = 3: psi(r) = 2 (1/r - 1) / (1/0.55 - 1) = 22/9 (1/r - 1)
    assert SPHERE_IN.psi(0.25) == pytest.approx(22 / 27, rel=1e-13)  # r = 0.75
    assert SPHERE_IN.surface_slope == pytest.approx(22 / 9, rel=1e-13)
    # cylinder, d = 2: psi(r) = 2 log(r / 2) / log(1.45)
    assert CYLINDER_OUT.psi(0.45) == pytest.approx(
        2 * math.log(1.225) / math.log(1.45), rel=1e-13)          # r = 2.45
    assert CYLINDER_OUT.surface_slope == pytest.approx(
        1 / math.log(1.45), rel=1e-13)


@pytest.mark.parametrize("surface", [geo.Hyperplane(), geo.Helicoid(),
                                     geo.Catenoid()],
                         ids=["plane", "helicoid", "catenoid"])
def test_radial_corrector_needs_a_radial_collar(surface):
    with pytest.raises(UnsupportedGeometry):
        wkb.RadialCorrector(surface, side=-1)


def test_corrector_boundary_values_exact():
    for corr, delta0 in ((SlabCorrector(0.4), 0.4), (SPHERE_IN, 0.45),
                         (CYLINDER_OUT, 0.9)):
        assert corr.psi(0.0) == 0.0
        assert corr.psi(delta0) == pytest.approx(2.0, abs=1e-14)


def test_radial_corrector_is_harmonic():
    corr = SPHERE_IN
    rs = np.linspace(0.58, 0.97, 9)
    h = 1e-5
    for r in rs:
        lap = ((psi_at_radius(corr, r + h) - 2 * psi_at_radius(corr, r)
                + psi_at_radius(corr, r - h)) / h ** 2
               + (2.0 / r) * (psi_at_radius(corr, r + h)
                              - psi_at_radius(corr, r - h)) / (2 * h))
        assert abs(lap) < 1e-4


def test_corrector_strictly_inside_bounds():
    taus = np.linspace(0.05, 0.85, 9)
    vals = CYLINDER_OUT.psi(taus)
    assert np.all((0.0 < vals) & (vals < 2.0))


# -- the outer collar --------------------------------------------------------------

def test_outside_engine_boundary_row_and_symmetry():
    # the flip symmetry of the helicoid makes the two collars congruent:
    # the surface limits of Lap A_j agree side to side
    inner = wkb.boundary_laplacians(HELICOID, 2, side=-1)
    outer = wkb.boundary_laplacians(HELICOID, 2, side=+1)
    assert np.allclose(inner, outer, atol=1e-4)
    table = wkb.compute_coefficients(HELICOID, 0.0, 2, side=+1,
                                     taus=np.linspace(0.0, 0.3, 5))
    row = table.at_surface()
    assert row[0] == 1.0 and np.max(np.abs(row[1:])) <= 1e-12


def test_outside_sphere_collar_uses_flipped_curvature():
    eng = wkb.coefficient_engine(SPHERE, +1)
    x = np.array([0.0, 0.0, 1.2])  # delta = 0.2 outside
    assert eng.a0(x[None, :])[0] == pytest.approx((1.0 + 0.2) ** -1.0, rel=1e-12)
