"""Contract of the batched adaptive Gauss-Kronrod quadrature."""

import math

import numpy as np
import pytest

from twophase.errors import InvalidArgument, QuadratureFailure
from twophase.quadrature import DEFAULT_TOL, integrate_adaptive


def test_scalar_problem_returns_float():
    got = integrate_adaptive(np.exp, 0.0, 1.0)
    assert isinstance(got, float)
    assert got == pytest.approx(math.e - 1.0, abs=DEFAULT_TOL)
    assert integrate_adaptive(lambda y: 1.0, 0.0, 2.5) == pytest.approx(2.5, abs=1e-15)


def test_batch_broadcasts_limits_and_args():
    # integral of y^p over [0, b] = b^(p+1) / (p+1)
    p = np.array([[0.0], [1.0], [2.0]])
    b = np.array([0.5, 1.0, 2.0, 3.0])
    got = integrate_adaptive(lambda y, q: y ** q, 0.0, b, p)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, b ** (p + 1) / (p + 1), rtol=0, atol=1e-13)


def test_jump_is_resolved_by_bisection():
    # bisection closes in on the jump until its interval is one ulp wide
    got = integrate_adaptive(lambda y: np.where(y < 1 / 3, 0.0, 1.0), 0.0, 1.0)
    assert abs(got - 2.0 / 3.0) < 1e-15


def test_singularity_exhausts_subinterval_budget():
    with pytest.raises(QuadratureFailure, match="200 subintervals"):
        integrate_adaptive(lambda y: 1.0 / np.abs(y - 1 / 3), 0.0, 1.0)
    with pytest.raises(QuadratureFailure, match="200 subintervals"):
        integrate_adaptive(lambda y: np.sin(1e4 * y), 0.0, 1.0)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureFailure, match="non-finite"):
        integrate_adaptive(lambda y: np.full_like(y, np.nan), 0.0, 1.0)
    # one bad problem fails the whole batch
    with np.errstate(invalid="ignore"), \
            pytest.raises(QuadratureFailure, match="non-finite"):
        integrate_adaptive(lambda y, s: np.sqrt(s - y), 0.0, 1.0, [2.0, 0.5])


def test_empty_interval_in_batch_gives_zero():
    got = integrate_adaptive(np.cos, [0.0, 1.0, 0.0], [math.pi / 2, 1.0, 1.0])
    assert got[1] == 0.0
    assert got[0] == pytest.approx(1.0, abs=DEFAULT_TOL)
    assert got[2] == pytest.approx(math.sin(1.0), abs=DEFAULT_TOL)


def test_reversed_interval_in_batch_raises():
    with pytest.raises(InvalidArgument):
        integrate_adaptive(np.cos, [0.0, 1.0, 0.0], [1.0, 0.5, 2.0])


def test_each_problem_independent_of_its_batch():
    # a hard problem next to an easy one changes neither of them
    def f(y, w):
        return np.exp(-((y - 0.3) / w) ** 2)

    widths = np.array([1.0, 0.1, 0.3])
    batch = integrate_adaptive(f, -8.0, 8.0, widths)
    for w, value in zip(widths, batch):
        assert value == integrate_adaptive(f, -8.0, 8.0, w)
        assert value == pytest.approx(math.sqrt(math.pi) * w, abs=DEFAULT_TOL)
