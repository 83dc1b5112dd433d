import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from twophase import kernel1d as k1
from twophase.errors import InvalidArgument
from twophase.medium import TwoPhaseMedium
from twophase.quadrature import integrate_adaptive

from oracles import (ConsistencyError, DegenerateFit, fit_decay_envelope,
                     gaussian_kernel, halfline_solution)

MED = TwoPhaseMedium(1.0, 4.0)


def test_equal_phases_collapse_to_one_gaussian():
    med = TwoPhaseMedium(1.0, 1.0)
    got = k1.eval_kernel(0.3, -0.2, 0.5, med)
    assert got == pytest.approx(gaussian_kernel(0.5, 0.5, 1.0), rel=1e-14)


def test_transmission_piece_direct_substitution():
    # target on the sigma_m side, source on the sigma_s side
    got = k1.eval_kernel(-0.5, 0.5, 1.0, MED)
    amp = 2.0 * 2.0 / (2.0 + 1.0)
    assert got == pytest.approx(amp * gaussian_kernel(-0.5 - 2.0 * 0.5, 1.0, 4.0),
                                rel=1e-14)


def test_kernel_continuous_in_y_across_zero():
    for x1 in (-0.7, 0.4):
        below = k1.eval_kernel(x1, -1e-13, 0.3, MED)
        above = k1.eval_kernel(x1, +1e-13, 0.3, MED)
        assert below == pytest.approx(above, rel=1e-9)


def test_kernel_mass_at_random_points():
    rng = np.random.default_rng(5)
    for _ in range(6):
        x1 = rng.uniform(-2.0, 2.0)
        t = 10.0 ** rng.uniform(-2.0, 1.0)
        width = 50.0 * math.sqrt(t * MED.M) + 5.0 * abs(x1)
        mass = integrate_adaptive(lambda y: k1.eval_kernel(x1, y, t, MED),
                                  -width, 0.0)
        mass += integrate_adaptive(lambda y: k1.eval_kernel(x1, y, t, MED),
                                   0.0, width)
        assert abs(mass - 1.0) < 1e-10


def test_integrate_adaptive_interval_orientation():
    assert integrate_adaptive(lambda y: 1.0, 1.0, 1.0) == 0.0
    with pytest.raises(InvalidArgument):
        integrate_adaptive(lambda y: 1.0, 1.0, 0.0)


def test_kernel_rejects_nonpositive_time():
    with pytest.raises(InvalidArgument):
        k1.eval_kernel(0.1, 0.2, 0.0, MED)


def test_halfline_interface_value_time_independent():
    for t in np.geomspace(1e-3, 1e3, 13):
        assert halfline_solution(0.0, t, MED) == pytest.approx(2.0 / 3.0,
                                                                  abs=1e-10)


def test_halfline_equal_phases_gives_half():
    med = TwoPhaseMedium(2.0, 2.0)
    for t in (0.01, 1.0, 50.0):
        assert halfline_solution(0.0, t, med) == pytest.approx(0.5, abs=1e-12)


def test_halfline_deep_point_small():
    # erfc oracle: u(3, 0.01) = k erfc(3 / (2 sqrt(0.01)))
    val = halfline_solution(3.0, 0.01, MED)
    assert val == pytest.approx(MED.k * erfc(15.0), rel=1e-6)
    assert val < 1e-8


def test_two_way_agreement_on_grid():
    worst = 0.0
    for x1 in np.linspace(-2.0, 2.0, 10):
        for t in np.geomspace(1e-2, 10.0, 10):
            a = k1.halfline_closed_form(x1, t, MED)
            b = k1.halfline_quadrature(x1, t, MED)
            worst = max(worst, abs(a - b))
    assert worst < 1e-10


def test_halfline_bounds_open_interval():
    # strict bounds hold wherever double precision can resolve both tails
    # (beyond |xi| ~ 5.8 the erfc tail is absorbed into 1.0 by rounding)
    for x1 in np.linspace(-4.0, 4.0, 17):
        for t in (1e-3, 0.1, 10.0):
            side_sigma = MED.sigma_s if x1 >= 0.0 else MED.sigma_m
            if abs(x1) / (2.0 * math.sqrt(t * side_sigma)) > 5.0:
                continue
            u = k1.halfline_closed_form(x1, t, MED)
            assert 0.0 < u < 1.0


def miss_by_twice_the_tolerance(monkeypatch):
    """Make the quadrature miss the closed form by 2 TWO_WAY_TOL everywhere."""
    quadrature = k1.halfline_quadrature
    monkeypatch.setattr(k1, "halfline_quadrature", lambda x1, t, medium: (
        quadrature(x1, t, medium) + 2.0 * k1.TWO_WAY_TOL))


def test_halfline_solution_raises_on_disagreement(monkeypatch):
    miss_by_twice_the_tolerance(monkeypatch)
    with pytest.raises(ConsistencyError):
        halfline_solution(0.3, 0.5, MED)


def test_envelope_plane_rate_near_quarter():
    med = TwoPhaseMedium(1.0, 1.0)
    t_grid = np.geomspace(1e-3, 1.0, 25)
    est = fit_decay_envelope([(1.0, 1.0)], t_grid, med)
    # exact exponential rate is rho^2 / (4 sigma) = 1/4
    assert abs(est.b - 0.25) < 0.05
    for t in t_grid:
        u = 0.5 * erfc(1.0 / (2.0 * math.sqrt(t)))
        assert u <= est.bound(t) * (1.0 + 1e-9)


def test_envelope_two_phase_rate_bound():
    t_grid = np.geomspace(1e-3, 1.0, 25)
    est = fit_decay_envelope([(0.5, 0.5)], t_grid, MED)
    assert est.b >= 0.9 * 0.5 ** 2 / 4.0


def test_envelope_deep_small_time_trivial():
    # at distance >= 1 and t = 1e-3 the solution is far below 1e-20
    assert k1.halfline_closed_form(1.0, 1e-3, MED) < 1e-20


def test_envelope_sigma_m_side_uses_one_minus_u():
    t_grid = np.geomspace(1e-3, 1.0, 25)
    est = fit_decay_envelope([(-0.5, 0.5)], t_grid, MED)
    # on the sigma_m = 4 side the rate is rho^2/(4 sigma_m) = 1/64
    assert abs(est.b - 1.0 / 64.0) < 0.35 / 64.0


def test_envelope_degenerate_when_everything_underflows():
    with pytest.raises(DegenerateFit):
        fit_decay_envelope([(30.0, 30.0)], [1e-4, 2e-4], MED)


def test_envelope_rejects_inconsistent_distance():
    with pytest.raises(InvalidArgument):
        fit_decay_envelope([(0.1, 0.5)], [0.1], MED)


# -- the batched quadrature against the reference -------------------------------

def _grid_30x30():
    rng = np.random.default_rng(31)
    x1 = np.sort(rng.uniform(-2.0, 2.0, 30))
    t = np.sort(10.0 ** rng.uniform(-2.0, 1.0, 30))
    return np.meshgrid(x1, t, indexing="ij")


def test_batched_quadrature_matches_scipy_quad_and_closed_form():
    X, T = _grid_30x30()
    batch = k1.halfline_quadrature(X, T, MED)
    assert batch.shape == (30, 30)
    a, m = math.sqrt(MED.sigma_s), math.sqrt(MED.sigma_m)
    worst = 0.0
    for x1, t, value in zip(X.ravel(), T.ravel(), batch.ravel()):
        # the documented lower limit: 40 widths below the leftmost center
        if x1 <= 0.0:
            width = math.sqrt(2.0 * t * MED.sigma_m)
            lo = -abs(x1) - 40.0 * width
        else:
            lo = -40.0 * (m / a) * math.sqrt(2.0 * t * MED.sigma_s)
        ref = quad(lambda y: k1.eval_kernel(x1, y, t, MED), lo, 0.0,
                   epsabs=1e-12, epsrel=0.0, limit=200)[0]
        worst = max(worst, abs(value - ref))
    assert worst <= 1e-14
    assert np.max(np.abs(batch - k1.halfline_closed_form(X, T, MED))) <= 1e-10


def test_batched_quadrature_bitwise_equals_single_calls():
    X, T = _grid_30x30()
    batch = k1.halfline_quadrature(X, T, MED)
    single = [k1.halfline_quadrature(x1, t, MED)
              for x1, t in zip(X.ravel().tolist(), T.ravel().tolist())]
    assert batch.ravel().tolist() == single


def test_eval_kernel_arrays_equal_scalar_calls():
    x1 = np.array([-0.7, 0.0, 0.4])[:, None, None]
    y1 = np.array([-0.5, -1e-13, 0.0, 1e-13, 0.6])[None, :, None]
    t = np.array([0.05, 1.0])[None, None, :]
    grid = k1.eval_kernel(x1, y1, t, MED)
    assert grid.shape == (3, 5, 2)
    for i, j, k in np.ndindex(grid.shape):
        single = k1.eval_kernel(float(x1[i, 0, 0]), float(y1[0, j, 0]),
                                float(t[0, 0, k]), MED)
        assert isinstance(single, float)
        assert grid[i, j, k] == single
    times = k1.eval_kernel(0.4, -1e-13, t.ravel(), MED)
    assert times.tolist() == [k1.eval_kernel(0.4, -1e-13, s, MED) for s in t.ravel()]


def test_halfline_functions_broadcast_and_reject_bad_times(monkeypatch):
    t = np.geomspace(1e-3, 1e3, 13)
    np.testing.assert_array_equal(halfline_solution(0.0, t, MED),
                                  [k1.halfline_closed_form(0.0, s, MED) for s in t])
    for func in (k1.halfline_closed_form, k1.halfline_quadrature):
        with pytest.raises(InvalidArgument):
            func(np.zeros(2), np.array([1.0, 0.0]), MED)
    miss_by_twice_the_tolerance(monkeypatch)
    with pytest.raises(ConsistencyError):
        halfline_solution(np.array([0.0, 0.3]), 0.5, MED)
