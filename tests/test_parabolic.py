import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from twophase import geometry as geo
from twophase import kernel1d as k1
from twophase import parabolic as par
from twophase.errors import (InsufficientHorizon, InvalidArgument,
                             UnsupportedGeometry)
from twophase.medium import TwoPhaseMedium

from oracles import fit_decay_envelope, unshifted_evolve

MED = TwoPhaseMedium(1.0, 4.0)
K = MED.k
PLANE = geo.Hyperplane()
SPHERE = geo.Sphere(R=1.0, N=3)


def _plane_series(probes, h_fine=2e-3, t_end=1.0, include=(), far=12.0,
                  ratio=1.06):
    grid = par.interface_grid(PLANE, MED, h_fine=h_fine, far=far)
    times = par.geometric_times(1e-6, t_end, ratio=ratio, include=include)
    return par.evolve(grid, times, probes)


@pytest.mark.parametrize("sizes", [
    {"h_fine": 0.0}, {"h_fine": -1e-3}, {"h_max": 0.0}, {"h_max": -0.05},
    {"far": 0.0}, {"far": -1.0}])
def test_interface_grid_rejects_steps_that_never_end(sizes):
    # the graded faces would loop forever; h_max only matters past the
    # fine core, so far exceeds fine_width
    with pytest.raises(InvalidArgument):
        par.interface_grid(PLANE, MED, **{"h_fine": 2e-3, "h_max": 0.05,
                                          "far": 4.0, **sizes})


@pytest.mark.parametrize("t_start, ratio", [
    (0.0, 1.08), (-1e-6, 1.08), (1e-6, 1.0), (1e-6, 0.5)])
def test_geometric_times_rejects_grids_that_never_end(t_start, ratio):
    with pytest.raises(InvalidArgument):
        par.geometric_times(t_start, 1.0, ratio=ratio)


def test_interface_value_matches_constant():
    tg = np.geomspace(1e-2, 1.0, 7)
    series = _plane_series((), include=tg, far=26.0)
    mask = np.isin(series.times, tg)
    dev = np.abs(series.interface_values()[mask] - K)
    assert dev.max() < 5e-5  # default mesh; the probe below tightens this


def test_interface_probe_plane_under_tolerance():
    rep = par.interface_constancy_probe(PLANE, MED, np.geomspace(1e-2, 1.0, 9))
    assert rep["max_deviation"] < 1e-6


def test_constant_one_is_stationary():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=6.0)
    times = par.geometric_times(1e-5, 1.0)
    series = par.evolve(grid, times, grid.centers, u0=np.ones(len(grid.sigma)))
    assert np.max(np.abs(series.U - 1.0)) < 1e-11


def test_solution_stays_in_unit_interval():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=8.0)
    series = par.evolve(grid, par.geometric_times(1e-6, 1.0, ratio=1.06),
                        grid.centers)
    assert series.U.min() >= -1e-12
    assert series.U.max() <= 1.0 + 1e-12


def test_discrete_conservation_with_zero_flux_walls():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=8.0)
    times = par.geometric_times(1e-5, 0.5)
    series = par.evolve(grid, times, grid.centers)
    mass0 = float(series.U[0] @ grid.volumes)
    mass1 = float(series.U[-1] @ grid.volumes)
    assert mass1 == pytest.approx(mass0, rel=1e-10)


def test_ordering_preserved_implicit_euler():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=8.0)
    times = par.geometric_times(1e-5, 1.0)
    u0 = par.indicator_data(grid)
    u1 = np.minimum(1.0, u0 + 0.2)
    a = par.evolve(grid, times, grid.centers, u0=u0)
    b = par.evolve(grid, times, grid.centers, u0=u1)
    assert np.all(b.U - a.U >= -1e-12)


def test_profile_matches_erfc_oracle():
    xs = (-0.8, -0.2, 0.1, 0.5)
    series = _plane_series(xs, h_fine=1e-3, t_end=0.5, include=(0.25,),
                           far=12.0)
    idx = int(np.flatnonzero(series.times == 0.25)[0])
    for x in xs:
        exact = k1.halfline_closed_form(x, 0.25, MED)
        got = float(series.probe(x)[idx])
        assert abs(got - exact) < 1e-4


def test_sphere_probe_small_time_limit_and_drift():
    tg = np.geomspace(1e-3, 1.0, 10)
    rep = par.interface_constancy_probe(SPHERE, MED, tg)
    # early times approach the interface constant, late times drift away
    assert rep["deviations"][0] < 0.03
    assert rep["max_deviation"] > 1e-2
    assert rep["richardson_gap"] < 0.1 * rep["max_deviation"]


def test_evolve_on_sphere_grid_starts_from_indicator():
    grid = par.interface_grid(SPHERE, MED, h_fine=5e-3, far=4.0)
    series = par.evolve(grid, par.geometric_times(1e-5, 0.1), grid.centers)
    r = grid.centers
    assert np.array_equal(series.U[0], np.where(r > 1.0, 1.0, 0.0))
    assert 0.5 < series.interface_values()[-1] < 1.0


def test_radial_grid_weight_follows_surface_dimension():
    for surface, d in [(PLANE, 1), (geo.Sphere(R=1.0, N=4), 4),
                       (geo.Cylinder(R=1.0, N=4), 2)]:
        assert par.interface_grid(surface, MED, h_fine=2e-3, far=2.0).d == d
    with pytest.raises(UnsupportedGeometry):
        par.interface_grid(geo.Helicoid(), MED, h_fine=2e-3, far=2.0)


def test_cylinder_probe_drifts_less_than_sphere():
    tg = np.geomspace(1e-2, 1.0, 6)
    sph = par.interface_constancy_probe(SPHERE, MED, tg)
    cyl = par.interface_constancy_probe(geo.Cylinder(R=1.0), MED, tg)
    assert 0.0 < cyl["max_deviation"] < sph["max_deviation"]


def test_decay_shape_bound_from_fitted_envelope():
    t_grid = np.geomspace(1e-3, 1.0, 21)
    est = fit_decay_envelope([(0.75, 0.75)], t_grid, MED)
    series = _plane_series((0.75,), h_fine=2e-3, include=t_grid, far=26.0)
    mask = np.isin(series.times, t_grid)
    u = series.probe(0.75)[mask]
    # simulated values carry O(1e-5) discretization error on top of the bound
    assert np.all(u <= est.bound(t_grid) + 1e-4)


def test_evolve_requires_zero_start():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=4.0)
    with pytest.raises(InvalidArgument):
        par.evolve(grid, [0.1, 0.2], ())


@pytest.mark.parametrize("surface, probes", [
    (PLANE, (-0.7, -0.05, 0.0, 0.013, 0.4)),
    (SPHERE, (0.2, 0.95, 1.0, 1.004, 1.6)),
])
def test_recorded_probes_equal_the_full_history(surface, probes):
    # 61 steps span the switch from implicit Euler (step 10) to
    # Crank-Nicolson (step 11)
    grid = par.interface_grid(surface, MED, h_fine=5e-3, far=4.0)
    times = par.geometric_times(1e-4, 1e-2)
    c = grid.centers
    xs = probes + (c[0], c[7], c[-1])
    recorded = par.evolve(grid, times, xs)
    full = par.evolve(grid, times, c)
    assert len(times) > 12
    assert len(recorded.cells) < 16 < len(full.cells) == len(c)
    assert np.array_equal(recorded.interface_values(), full.interface_values())
    for x in xs:
        assert np.array_equal(recorded.probe(x), full.probe(x))


def test_probe_outside_the_cell_centers_is_rejected():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=4.0)
    times = par.geometric_times(1e-4, 1e-2)
    c = grid.centers
    series = par.evolve(grid, times, c)
    for x in (c[0] - 1e-3, c[-1] + 1e-3, math.nan):
        with pytest.raises(InvalidArgument, match="outside the cell centers"):
            series.probe(x)
        with pytest.raises(InvalidArgument, match="outside the cell centers"):
            par.evolve(grid, times, (0.1, x))


def test_probe_of_cells_not_recorded_is_rejected():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=4.0)
    series = par.evolve(grid, par.geometric_times(1e-4, 1e-2), (0.1,))
    assert np.all(np.isfinite(series.probe(0.1)))
    assert np.all(np.isfinite(series.probe(0.0)))  # the interface face
    for x in (-0.5, 0.2):
        with pytest.raises(InvalidArgument, match="not recorded"):
            series.probe(x)


def test_evolve_memory_does_not_grow_with_the_step_count():
    # the (steps x cells) history took 182 x cells x 8 bytes here
    grid = par.interface_grid(PLANE, MED, h_fine=1e-3, far=16.0)
    cells = len(grid.sigma)
    assert cells > 3000
    for ratio in (1.08, 1.02):
        times = par.geometric_times(1e-6, 1.0, ratio=ratio)
        assert len(times) >= 182
        tracemalloc.start()
        try:
            par.evolve(grid, times, (-0.3, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * cells * 8


def _banded_step(grid, u, dt, theta):
    """One theta step by a general (1, 1) band solve, as a reference."""
    vol, cond = grid.volumes, grid.conductances()
    ab = np.zeros((3, len(vol)))
    ab[1] = vol / dt
    ab[1, :-1] += theta * cond
    ab[1, 1:] += theta * cond
    ab[0, 1:] = -theta * cond
    ab[2, :-1] = -theta * cond
    rhs = vol / dt * u
    flux = cond * (u[1:] - u[:-1])
    rhs[:-1] += (1.0 - theta) * flux
    rhs[1:] -= (1.0 - theta) * flux
    return solve_banded((1, 1), ab, rhs)


def test_evolve_steps_match_a_general_band_solve():
    # step 1 is implicit Euler, step 11 the first Crank-Nicolson step
    grid = par.interface_grid(SPHERE, MED, h_fine=5e-3, far=4.0)
    u0 = np.random.default_rng(7).uniform(0.0, 1.0, len(grid.sigma))
    series = par.evolve(grid, par.geometric_times(1e-4, 1e-3), grid.centers,
                        u0=u0)
    t, U = series.times, series.U
    for step, theta in ((1, 1.0), (11, 0.5)):
        ref = _banded_step(grid, U[step - 1], t[step] - t[step - 1], theta)
        assert np.max(np.abs(U[step] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _offset_gap(surface, probes):
    """The recorded U of `evolve` from t = 1e-7 to 1 and of the unshifted
    reference stepper, with the mask of reference values >= 2^-800."""
    grid = par.interface_grid(surface, MED, h_fine=2e-3, far=8.0)
    times = par.geometric_times(1e-7, 1.0)
    series = par.evolve(grid, times, probes)
    ref = unshifted_evolve(grid, times, series.cells)
    return series.U, ref, np.abs(ref) >= 2.0 ** -800


FAR_PROBES = [(PLANE, (-3.0, 0.6, 1.5, 3.0)),
              (SPHERE, (0.2, 0.5, 1.5, 3.0)),
              (geo.Cylinder(R=2.0, N=3), (0.5, 1.2, 3.5, 5.0))]


@pytest.mark.parametrize("surface, probes", FAR_PROBES,
                         ids=["plane", "sphere", "cylinder"])
def test_the_offset_moves_no_value_above_two_to_the_minus_800(surface,
                                                              probes):
    # the far probes on the cold side record values that pass through the
    # subnormal range; every value >= 2^-800 absorbs the offset 2^-900
    U, ref, big = _offset_gap(surface, probes)
    assert big.any() and (~big).any()
    assert np.array_equal(U[big], ref[big])
    assert np.max(np.abs(U - ref)[~big]) <= 2.0 ** -800


def test_an_offset_of_one_moves_recorded_values(monkeypatch):
    # an O(1) offset enters the step matrix's nearly singular constant mode
    # (3.9e-12 at the interface here): the comparison above must see it
    monkeypatch.setattr(par, "STEP_OFFSET", 1.0)
    U, ref, big = _offset_gap(*FAR_PROBES[0])
    assert np.max(np.abs(U - ref)[big]) > 1e-13


def test_evolve_rejects_a_step_matrix_that_is_not_positive_definite():
    faces = np.linspace(0.0, 1.0, 11)
    grid = par.Grid1D(faces=faces, sigma=-np.ones(10), d=1, interface_index=5)
    with pytest.raises(InvalidArgument, match="not positive definite"):
        par.evolve(grid, [0.0, 1.0], ())


# -- transform ---------------------------------------------------------------------

def test_transform_of_constant_one():
    grid = par.interface_grid(PLANE, MED, h_fine=5e-3, far=6.0)
    times = par.geometric_times(1e-6, 0.5, ratio=1.05)
    probes = [0.0, -0.3, 0.8]
    series = par.evolve(grid, times, probes, u0=np.ones(len(grid.sigma)))
    for lam in (30.0, 100.0):
        tr = par.laplace_stieltjes(series, lam, probes, tol=1e-6)
        assert np.allclose(tr.values, 1.0, atol=1e-9)


def test_transform_interface_value_is_k():
    series = _plane_series((), h_fine=1e-3, t_end=0.8, far=10.0, ratio=1.05)
    for lam in (25.0, 100.0):
        tr = par.laplace_stieltjes(series, lam, [0.0], tol=1e-6)
        assert abs(tr.values[0] - K) < 1e-3


def test_transform_matches_elliptic_closed_form():
    probes = np.array([-0.6, -0.3, -0.1, -0.05, 0.05, 0.1, 0.2, 0.4, 0.6, 0.0])
    series = _plane_series(probes, h_fine=1e-3, t_end=0.8, far=10.0,
                           ratio=1.05)
    for lam in (25.0, 50.0, 100.0, 200.0):
        tr = par.laplace_stieltjes(series, lam, probes, tol=1e-6)
        exact = np.where(
            probes >= 0.0,
            K * np.exp(-probes * math.sqrt(lam / MED.sigma_s)),
            1.0 - (1.0 - K) * np.exp(probes * math.sqrt(lam / MED.sigma_m)))
        assert np.max(np.abs(tr.values - exact)) < 1e-3


def test_transform_tail_bound_dominates():
    series = _plane_series((), h_fine=5e-3, t_end=0.2, far=6.0)
    tr = par.laplace_stieltjes(series, 100.0, [0.0], tol=1e-6)
    assert tr.tail_bound == pytest.approx(math.exp(-20.0), rel=1e-12)
    assert abs(tr.values[0] - K) < 1e-3


def test_transform_insufficient_horizon():
    series = _plane_series((), h_fine=5e-3, t_end=0.2, far=6.0)
    with pytest.raises(InsufficientHorizon):
        par.laplace_stieltjes(series, 5.0, [0.0], tol=1e-6)


def test_transform_rejects_nonpositive_rate():
    series = _plane_series((), h_fine=5e-3, t_end=0.2, far=6.0)
    with pytest.raises(InvalidArgument):
        par.laplace_stieltjes(series, -1.0, [0.0], tol=1e-6)
