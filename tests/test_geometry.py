import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twophase import geometry as geo
from twophase.errors import (AmbiguousProjection, InvalidArgument,
                             NonConvergence, OutsideTubularNeighborhood)

from oracles import (OnSurface, curvature_product_expansion,
                     elementary_symmetric, laplacian_of_distance, project,
                     screw, tangential_gradient_check)

SPHERE = geo.Sphere(R=1.0, N=3)
CYLINDER = geo.Cylinder(R=2.0, N=3)
HELICOID = geo.Helicoid()
CATENOID = geo.Catenoid(c=1.0)
PLANE = geo.Hyperplane(N=3)

ALL = {"plane": PLANE, "sphere": SPHERE, "cylinder": CYLINDER,
       "helicoid": HELICOID, "catenoid": CATENOID}


def _random_tube_point(surface, rng, frac=0.8):
    if isinstance(surface, geo.Hyperplane):
        x = rng.uniform(-2.0, 2.0, 3)
        x[0] = rng.uniform(-0.8, 0.8)
        return x
    if isinstance(surface, geo.Sphere):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        return u * (surface.R + rng.uniform(-frac, frac) * surface.delta0)
    if isinstance(surface, geo.Cylinder):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        rho = surface.R + rng.uniform(-frac, frac) * surface.delta0
        return np.array([rho * u[0], rho * u[1], rng.uniform(-1.0, 1.0)])
    q = rng.uniform(-0.5, 0.5)
    tau = rng.uniform(-frac, frac) * surface.delta0
    z = surface.point_at(np.asarray(q))
    n = surface.inward_normal_at(np.asarray(q))
    return z + tau * n


# -- projection ---------------------------------------------------------------

def test_project_hyperplane_example():
    pr = project(PLANE, np.array([0.3, 5.0, -2.0]))
    assert np.allclose(pr.z, [0.0, 5.0, -2.0])
    assert pr.delta == pytest.approx(0.3)
    assert pr.side == -1  # x1 > 0 is the inside


def test_project_sphere_radial_oracle():
    pr = project(SPHERE, np.array([0.0, 0.0, 0.4]))
    assert np.allclose(pr.z, [0.0, 0.0, 1.0], atol=1e-14)
    assert pr.delta == pytest.approx(0.6, abs=1e-14)
    assert pr.side == -1


def test_project_helicoid_fixed_point():
    x = HELICOID.point_at(np.asarray(2.0))
    x = project(geo.Helicoid(), np.array([2 * math.cos(1.3), 2 * math.sin(1.3), 1.3]))
    assert x.delta == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(x.z, [2 * math.cos(1.3), 2 * math.sin(1.3), 1.3], atol=1e-9)


@pytest.mark.parametrize("name", sorted(ALL))
def test_reconstruction_identity(name):
    surface = ALL[name]
    rng = np.random.default_rng(11)
    for _ in range(8):
        x = _random_tube_point(surface, rng)
        pr = project(surface, x)
        assert np.linalg.norm(pr.z + pr.delta * pr.grad_delta - x) < 1e-10
        assert abs(np.linalg.norm(pr.nu) - 1.0) < 1e-12


@pytest.mark.parametrize("name", sorted(ALL))
def test_projection_idempotent(name):
    surface = ALL[name]
    rng = np.random.default_rng(3)
    for _ in range(5):
        pr = project(surface, _random_tube_point(surface, rng))
        again = project(surface, pr.z)
        assert again.delta < 1e-9


def _ray_point(surface, q, angle, tau):
    """(x, z): x lies at signed depth tau (> 0 into Omega) on the normal at z.

    q and angle place z; the helicoid and catenoid rays start from the
    profile point at parameter q and are moved by a screw or a rotation
    through angle, symmetries that map each surface to itself.
    """
    c, s = math.cos(angle), math.sin(angle)
    if isinstance(surface, geo.Hyperplane):
        z, n_in = np.array([0.0, q, angle]), np.array([1.0, 0.0, 0.0])
    elif isinstance(surface, geo.Sphere):
        u = np.array([c * math.cos(q), s * math.cos(q), math.sin(q)])
        z, n_in = surface.R * u, -u
    elif isinstance(surface, geo.Cylinder):
        u = np.array([c, s, 0.0])
        z, n_in = surface.R * u + np.array([0.0, 0.0, q]), -u
    else:
        z0 = surface.point_at(np.asarray(q))
        x0 = z0 + tau * surface.inward_normal_at(np.asarray(q))
        if isinstance(surface, geo.Helicoid):
            return screw(x0, angle), screw(z0, angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return rot @ x0, rot @ z0
    return z + tau * n_in, z


@pytest.mark.parametrize("name", sorted(ALL))
@given(q=st.floats(-1.5, 1.5), angle=st.floats(-10.0, 10.0),
       frac=st.floats(1e-3, 0.95), sign=st.sampled_from([-1, 1]))
@settings(max_examples=150, deadline=None)
def test_projection_recovers_ray_points(name, q, angle, frac, sign):
    surface = ALL[name]
    tau = sign * frac * surface.delta0
    x, z = _ray_point(surface, q, angle, tau)
    Z, delta, side = surface.project_batch(x[None, :])
    assert abs(delta[0] - abs(tau)) < 1e-10
    assert side[0] == -sign
    assert np.linalg.norm(Z[0] - z) < 1e-10


@pytest.mark.parametrize("name", ["helicoid", "catenoid"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_projection_of_a_point_does_not_depend_on_its_batch(name, sign):
    # the 33-point rays of `twophase wkb` at three footpoints
    surface = ALL[name]
    taus = sign * np.linspace(0.0, surface.delta0, 33)
    for q in (0.0, 0.27, -0.41):
        X = (surface.point_at(np.asarray(q))
             + taus[:, None] * surface.inward_normal_at(np.asarray(q)))
        batch = surface.project_batch(X)
        for i in range(len(X)):
            alone = surface.project_batch(X[i:i + 1])
            for got, want in zip(batch, alone):
                assert got[i:i + 1].tobytes() == want.tobytes(), (q, i)


def test_radial_dim_of_the_catalog():
    assert (PLANE.radial_dim, SPHERE.radial_dim, CYLINDER.radial_dim) == (1, 3, 2)
    assert geo.Sphere(R=1.0, N=2).radial_dim == 2


def test_project_outside_tube_raises():
    with pytest.raises(OutsideTubularNeighborhood):
        project(HELICOID, np.array([0.0, 5.0, 0.0]))


def test_project_center_ambiguous():
    with pytest.raises(AmbiguousProjection):
        project(SPHERE, np.zeros(3))


def test_newton_projection_checks_where_it_stops():
    X, s0 = np.zeros((3, 3)), np.zeros(3)
    ones = np.ones_like
    # (s - 1)^2 / 2: every point reaches the minimum at s = 1
    s = geo._newton_1d(lambda s: (s - 1.0, ones(s)), s0, X)
    assert np.array_equal(s, np.ones(3))
    # f' = 1 never vanishes: the steps run out away from any stationary point
    with pytest.raises(NonConvergence):
        geo._newton_1d(lambda s: (ones(s), ones(s)), s0, X)
    # -s^2 is stationary at s = 0, but that is a maximum
    with pytest.raises(NonConvergence):
        geo._newton_1d(lambda s: (-2.0 * s, -2.0 * ones(s)), s0, X)


def test_newton_stops_each_point_on_its_own_step():
    # f' = 2.9 s - 0.1 lands in one step, then rounds back and forth by
    # 4.8e-18 forever; f' = s - 3 needs 12 clipped steps.  The fast point
    # stops at its first sub-1e-15 step, as it does alone.
    def fast(s):
        return 2.9 * s - 0.1, np.full_like(s, 2.9)

    def both(s):
        return np.array([2.9 * s[0] - 0.1, s[1] - 3.0]), np.array([2.9, 1.0])

    alone = geo._newton_1d(fast, np.zeros(1), np.zeros((1, 3)))
    s = geo._newton_1d(both, np.zeros(2), np.zeros((2, 3)))
    assert s[0] == alone[0]
    assert s[1] == 3.0


# -- eikonal / distance laplacian ---------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL))
def test_eikonal_unit_gradient(name):
    surface = ALL[name]
    rng = np.random.default_rng(13)
    h = 1e-4
    for _ in range(5):
        x = _random_tube_point(surface, rng)
        if project(surface, x).delta < 3 * h:
            continue
        grad = np.empty(3)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            dp = surface.project_batch((x + e)[None, :])[1][0]
            dm = surface.project_batch((x - e)[None, :])[1][0]
            grad[axis] = (dp - dm) / (2 * h)
        assert abs(np.linalg.norm(grad) - 1.0) < 1e-6


def test_laplacian_of_distance_hyperplane_zero():
    assert laplacian_of_distance(PLANE, np.array([0.4, 3.0, 1.0])) == 0.0


def test_laplacian_of_distance_sphere_example():
    x = np.array([0.0, 0.0, 0.75])  # delta = 0.25 inside
    got = laplacian_of_distance(SPHERE, x)
    assert got == pytest.approx(-8.0 / 3.0, rel=1e-12)


def test_laplacian_of_distance_on_surface_raises():
    with pytest.raises(OnSurface):
        laplacian_of_distance(SPHERE, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("name", sorted(ALL))
def test_laplacian_of_distance_matches_finite_differences(name):
    surface = ALL[name]
    rng = np.random.default_rng(17)
    h = 1e-4
    checked = 0
    while checked < 20:
        x = _random_tube_point(surface, rng)
        if project(surface, x).delta < 5 * h:
            continue
        fd = 0.0
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            dp = surface.project_batch((x + e)[None, :])[1][0]
            d0 = surface.project_batch(x[None, :])[1][0]
            dm = surface.project_batch((x - e)[None, :])[1][0]
            fd += (dp - 2 * d0 + dm) / h ** 2
        assert abs(fd - laplacian_of_distance(surface, x)) < 1e-5
        checked += 1


# -- symmetric functions -------------------------------------------------------

def test_elementary_symmetric_zero_curvatures():
    assert np.all(elementary_symmetric(np.zeros(4)) == 0.0)


def test_elementary_symmetric_sphere_binomials():
    got = elementary_symmetric(np.full(3, 0.5))  # N = 4, R = 2
    assert np.allclose(got, [1.5, 0.75, 0.125], atol=1e-15)


def test_elementary_symmetric_helicoid_pair():
    rho = 0.9
    a = 1.0 / (1.0 + rho * rho)
    got = elementary_symmetric(np.array([a, -a]))
    assert got[0] == pytest.approx(0.0, abs=1e-16)
    assert got[1] == pytest.approx(-a * a, rel=1e-14)
    at_axis = elementary_symmetric(np.array([1.0, -1.0]))
    assert at_axis[1] == -1.0


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
@settings(max_examples=50)
def test_elementary_symmetric_matches_bruteforce(kappas):
    from itertools import combinations
    got = elementary_symmetric(kappas)
    for i in range(1, len(kappas) + 1):
        brute = sum(math.prod(c) for c in combinations(kappas, i))
        assert got[i - 1] == pytest.approx(brute, rel=1e-10, abs=1e-10)


# -- product expansion ----------------------------------------------------------

def test_product_expansion_on_surface_is_one():
    lhs, rhs = curvature_product_expansion(SPHERE, np.array([1.0, 0.0, 0.0]))
    assert lhs == 1.0 and rhs == 1.0


def test_product_expansion_sphere_value():
    lhs, rhs = curvature_product_expansion(SPHERE, np.array([0.7, 0.0, 0.0]))
    assert lhs == pytest.approx(0.49, abs=1e-12)
    assert rhs == pytest.approx(lhs, abs=1e-14)


def test_product_expansion_catenoid_waist():
    # kappa = (-1, +1) at the waist of the unit catenoid: both sides
    # (1 - 0.2)(1 + 0.2) = 1 + H2 * 0.04 = 0.96
    x = np.array([0.8, 0.0, 0.0])
    lhs, rhs = curvature_product_expansion(CATENOID, x)
    assert lhs == pytest.approx(0.96, abs=1e-12)
    assert rhs == pytest.approx(lhs, abs=1e-14)


@pytest.mark.parametrize("name", sorted(ALL))
def test_product_expansion_agrees_everywhere(name):
    surface = ALL[name]
    rng = np.random.default_rng(23)
    for _ in range(10):
        lhs, rhs = curvature_product_expansion(
            surface, _random_tube_point(surface, rng))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


# -- tangential gradients and minimality ----------------------------------------

def test_tangential_gradient_hyperplane_exact_zero():
    assert tangential_gradient_check(PLANE, np.array([0.3, 1.0, 2.0]), 1) == 0.0


def test_tangential_gradient_sphere_constant_field():
    x = np.array([0.0, 0.8, 0.0])
    assert tangential_gradient_check(SPHERE, x, 1) < 1e-6


def test_tangential_gradient_helicoid_random_rays():
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = _random_tube_point(HELICOID, rng, frac=0.7)
        if project(HELICOID, x).delta < 1e-3:
            continue
        assert tangential_gradient_check(HELICOID, x, 2, h=1e-4) < 1e-5


@pytest.mark.parametrize("surface", [HELICOID, CATENOID])
def test_minimal_surfaces_have_zero_mean_curvature(surface):
    rng = np.random.default_rng(31)
    for _ in range(10):
        q = rng.uniform(-0.7, 0.7)
        H = elementary_symmetric(np.asarray(surface.kappas_at(np.asarray(q))))
        assert abs(H[0]) < 1e-12


@pytest.mark.parametrize("name", sorted(ALL))
def test_kappas_at_has_one_row_per_footpoint(name):
    surface = ALL[name]
    for q in (0.0, np.asarray(0.3), np.linspace(-0.5, 0.5, 4),
              np.zeros((2, 3))):
        assert surface.kappas_at(q).shape == np.shape(q) + (surface.N - 1,)


@pytest.mark.parametrize("name", sorted(ALL))
def test_kappas_is_kappas_at_of_the_ray_param(name):
    surface = ALL[name]
    rng = np.random.default_rng(37)
    X = np.array([_random_tube_point(surface, rng) for _ in range(8)])
    Z = surface.project_batch(X)[0]
    q = surface.ray_param(Z)
    assert q.shape == (8,)
    if surface.is_radial:
        assert np.all(q == 0.0)
    for z, qi in zip(Z, q):
        assert surface.kappas(z).tolist() == surface.kappas_at(qi).tolist()


def test_constants_are_not_fields():
    # each variant's fields are its only settable values
    assert [[f.name for f in dataclasses.fields(cls)] for cls in (
        geo.Hyperplane, geo.Sphere, geo.Cylinder, geo.Helicoid,
        geo.Catenoid)] == [["N"], ["R", "N"], ["R", "N"], [], ["c"]]
    with pytest.raises(TypeError):
        geo.Helicoid(N=4)
    with pytest.raises(TypeError):
        geo.Sphere(is_radial=False)


@pytest.mark.parametrize("build", [
    lambda: geo.Sphere(N=1),
    lambda: geo.Sphere(R=0.0), lambda: geo.Cylinder(N=2),
    lambda: geo.Cylinder(R=-1.0), lambda: geo.Catenoid(c=0.0),
    lambda: geo.Hyperplane(N=0)])
def test_surfaces_reject_values_out_of_range(build):
    with pytest.raises(InvalidArgument):
        build()


@pytest.mark.parametrize("name", sorted(ALL))
def test_delta0_admissibility(name):
    surface = ALL[name]
    if isinstance(surface, geo.Hyperplane):
        return
    qs = np.linspace(-0.7, 0.7, 15)
    if surface.is_radial:
        kmax = float(np.max(np.abs(surface.kappas(
            surface.project_batch(np.array([[surface.R, 0.0, 0.0]]))[0][0]))))
    else:
        kmax = float(np.max(np.abs(surface.kappas_at(qs))))
    assert kmax < 1.0 / (2.0 * surface.delta0)
