"""Planted defects: each acceptance criterion must FAIL on a known fault.

A criterion that passes whatever the code does checks nothing.  Each test
here plants one fault in the package, rebuilds what the fault reaches and
asserts that the criterion named for it reports FAIL, for the reason it is
named for.

Covered so far, `wkb-identities`, through `wkb.chebint`, the ray integral
of every coefficient table:

  * (a) the ray integral's constant taken at the box's lower end
    tau = -p h instead of at the surface: every A_j, j >= 1, and J are off
    by a multiple of 1/W, which solves the homogeneous ray equation, so
    the identity residuals cannot see it; the surface row reads 0.100;
  * (b) every ray integral scaled by 1 + 1e-3: the surface row stays at
    round-off, and the identity residuals read 8.9e-4.

Not yet covered, each for want of a planted defect that it alone must
catch:

  * interface-constant-1d, kernel-mass-two-way: the 1D kernel's closed
    form and quadrature;
  * near-boundary-law: the fitted exponent and coefficient of Lap A_0;
  * mean-curvature-extraction: the radial log-derivatives and the fit;
  * barrier-sandwich: catches defect (a) today, but no test holds it to;
  * higher-order-coefficient: reads Lap A_0 at the surface in closed
    form; an independent collar solve would be the check of it;
  * grid-solver-convergence: a face conductivity changed from the
    harmonic to the arithmetic mean passes it;
  * helicoid-half-value: its estimates sit at the origin, where every
    region whose horizontal slices are half-planes through the axis gives
    exactly 1/2;
  * maximum-principle, rigidity-probe: no fault planted yet.
"""

import re

import pytest

from twophase import acceptance, wkb

chebint = wkb.chebint


@pytest.fixture
def fresh_engines(monkeypatch):
    """Engines built after the test plants its fault, and dropped after it,
    so no other test reads a faulty table."""
    def clear():
        wkb.coefficient_engine.cache_clear()
        wkb._ENGINES.clear()
        wkb._projection.last = None

    clear()
    yield monkeypatch
    clear()


def _row_and_residual(record):
    """The measured surface-row maximum and identity-residual maximum."""
    row, residual = map(float, re.findall(r"\d\.\d+e[-+]\d+", record.measured))
    return row, residual


def test_integration_constant_at_the_box_end_fails_identities(fresh_engines):
    fresh_engines.setattr(wkb, "chebint",
                          lambda c, **kw: chebint(c, **{**kw, "lbnd": -1}))
    record = acceptance.criterion_wkb_identities(jobs=1)
    row, residual = _row_and_residual(record)
    assert not record.passed
    assert row > 1e-12 and residual < 1e-4


def test_scaled_ray_integral_fails_identities(fresh_engines):
    fresh_engines.setattr(wkb, "chebint",
                          lambda c, **kw: (1.0 + 1e-3) * chebint(c, **kw))
    record = acceptance.criterion_wkb_identities(jobs=1)
    row, residual = _row_and_residual(record)
    assert not record.passed
    assert row <= 1e-12 and residual > 1e-4
