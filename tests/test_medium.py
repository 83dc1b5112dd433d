import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twophase.errors import InvalidArgument
from twophase.medium import TwoPhaseMedium
from twophase.quadrature import integrate_adaptive

from oracles import gaussian_kernel, mu, phases_distinct, swapped


def test_interface_constant_examples():
    assert TwoPhaseMedium(1.0, 1.0).k == 0.5
    assert TwoPhaseMedium(1.0, 4.0).k == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert TwoPhaseMedium(4.0, 1.0).k == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_interface_constant_range_and_half_iff_equal():
    k = TwoPhaseMedium(2.0, 3.0).k
    assert 0.0 < k < 1.0
    assert k != 0.5
    assert TwoPhaseMedium(7.3, 7.3).k == 0.5


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_swap_duality(ss, sm):
    med = TwoPhaseMedium(ss, sm)
    assert med.k + swapped(med).k == pytest.approx(1.0, abs=1e-14)


def test_medium_validation():
    with pytest.raises(InvalidArgument):
        TwoPhaseMedium(-1.0, 2.0)
    with pytest.raises(InvalidArgument):
        TwoPhaseMedium(1.0, 0.0)
    with pytest.raises(InvalidArgument):
        TwoPhaseMedium(1.0, math.nan)


def test_medium_derived_fields():
    med = TwoPhaseMedium(4.0, 1.0)
    assert mu(med) == 1.0 and med.M == 4.0
    assert phases_distinct(med)
    assert not phases_distinct(TwoPhaseMedium(2.0, 2.0))
    assert med.side_conductivity(-1) == 4.0
    assert med.side_conductivity(+1) == 1.0
    assert med.side_value(-1) == med.k
    assert med.side_value(+1) == 1.0 - med.k
    for side in (0, 2):
        with pytest.raises(InvalidArgument):
            med.side_conductivity(side)
        with pytest.raises(InvalidArgument):
            med.side_value(side)


def test_gaussian_kernel_peak_value():
    assert gaussian_kernel(0.0, 1.0, 1.0) == pytest.approx((4 * math.pi) ** -0.5, abs=1e-16)


def test_gaussian_kernel_even():
    assert gaussian_kernel(0.7, 0.3, 2.0) == gaussian_kernel(-0.7, 0.3, 2.0)


def test_gaussian_kernel_unit_mass_quadrature():
    t, sigma = 0.5, 3.0
    half = 40.0 * math.sqrt(t * sigma)
    mass = integrate_adaptive(lambda z: gaussian_kernel(z, t, sigma), -half, half)
    assert abs(mass - 1.0) < 1e-12


@given(st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.floats(0.01, 10.0))
def test_gaussian_kernel_scaling(z, t, sigma):
    lhs = gaussian_kernel(z, t, sigma)
    rhs = gaussian_kernel(z / math.sqrt(sigma), t, 1.0) / math.sqrt(sigma)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gaussian_kernel_monotone_in_distance():
    zs = np.linspace(0.0, 5.0, 50)
    vals = gaussian_kernel(zs, 0.7, 1.3)
    assert np.all(np.diff(vals) < 0.0)
