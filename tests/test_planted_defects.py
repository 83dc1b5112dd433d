"""Planted defects: each acceptance criterion must FAIL on a known fault.

A criterion that passes whatever the code does checks nothing.  Each test
here plants one fault in the package, rebuilds what the fault reaches and
asserts that the criterion named for it reports FAIL, for the reason it is
named for: the failed checks, looked up by label, are the ones that name
the fault, each of them with its value past its bound.

Covered so far: `wkb-identities`, through `wkb.chebint`, the ray integral
of every coefficient table:

  * (a) the ray integral's constant taken at the box's lower end
    tau = -p h instead of at the surface: every A_j, j >= 1, and J are off
    by a multiple of 1/W, which solves the homogeneous ray equation, so
    the identity residuals cannot see it; the surface row reads 0.100;
  * (b) every ray integral scaled by 1 + 1e-3: the surface row stays at
    round-off, and the identity residuals read 8.9e-4.

and `barrier-sandwich`, through the same ray integral:

  * (a) again: the barriers no longer meet the exact solution at the
    surface, |w+- - k| reads 9.7e-5 to 2.0e-3 against 1e-12, while their
    margins off the surface and the derivative bracket still hold;

and `helicoid-half-value`, through the helicoid's side test and screw
motions:

  * (c) the side test's turn left unreduced, its floor step dropped: a
    point then counts as in Omega wherever (x3 - theta) / (2 pi) > 1/2,
    so all nine estimates miss 1/2, by 550 to 4000 standard errors at
    the gate's seed, and the screw and flip identities count violations;
  * (d) `screw_many` rotating by -alpha while it still translates by
    alpha: that map does not preserve Omega, so the symmetry identities
    count violations, while the nine estimates, which never screw a
    point, still pass.

and the two criteria of the solver loops, `maximum-principle` through the
grid stencil and `rigidity-probe` through the 1D stepper's faces:

  * (e) `elliptic._stencil`'s x- and y-couplings with the wrong sign: the
    operator stays symmetric positive definite but is no M-matrix, so the
    banded solves go negative, to -0.478 at the gate's config, while the
    lambda = 0 annulus counterexample, which does not use the stencil,
    still holds;
  * (f) `Grid1D.conductances` with the arithmetic face mean of sigma in
    place of the harmonic one: the conormal flux is then not continuous
    across the interface face, and the plane's interface value moves
    1.13e-4 from k, against the 1e-6 bound.

Not yet covered, each for want of a planted defect that it alone must
catch:

  * interface-constant-1d, kernel-mass-two-way: the 1D kernel's closed
    form and quadrature;
  * near-boundary-law: the fitted exponent and coefficient of Lap A_0;
  * mean-curvature-extraction: the radial log-derivatives and the fit;
  * higher-order-coefficient: reads Lap A_0 at the surface in closed
    form; an independent collar solve would be the check of it;
  * grid-solver-convergence: a face conductivity changed from the
    harmonic to the arithmetic mean passes it;
  * helicoid-half-value, beyond (c) and (d): its estimates sit at the
    origin, where every region whose horizontal slices are half-planes
    through the axis gives exactly 1/2.
"""

import pytest

from twophase import acceptance, helicoid, wkb
from twophase import elliptic as ell
from twophase import parabolic as par

chebint = wkb.chebint
turns = helicoid._turns
screw_many = helicoid.screw_many
stencil = ell._stencil


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


def _failed(criterion):
    """The criterion's checks by label, and the labels of those that fail."""
    checks, _ = criterion(jobs=1)
    by_label = {c.label: c for c in checks}
    return by_label, {c.label for c in checks if not c.passed}


def _box_end_constant(monkeypatch):
    monkeypatch.setattr(wkb, "chebint",
                        lambda c, **kw: chebint(c, **{**kw, "lbnd": -1}))


def test_integration_constant_at_the_box_end_fails_identities(fresh_engines):
    _box_end_constant(fresh_engines)
    checks, failed = _failed(acceptance.criterion_wkb_identities)
    assert failed == {"surface max |A_j|, j >= 1"}
    assert checks["surface max |A_j|, j >= 1"].value > 0.05  # reads 0.100


def test_scaled_ray_integral_fails_identities(fresh_engines):
    fresh_engines.setattr(wkb, "chebint",
                          lambda c, **kw: (1.0 + 1e-3) * chebint(c, **kw))
    checks, failed = _failed(acceptance.criterion_wkb_identities)
    assert failed == {"max identity residual"}
    residual = checks["max identity residual"]
    assert residual.value > 5.0 * residual.bound


def test_integration_constant_at_the_box_end_fails_the_surface_values(
        fresh_engines):
    _box_end_constant(fresh_engines)
    checks, failed = _failed(acceptance.criterion_barrier_sandwich)
    assert failed == {"surface max |w+- - k|"}
    assert checks["surface max |w+- - k|"].value > 1e-5


#: the symmetry identities' checks of `helicoid-half-value`
SYMMETRY = {"screw_violations", "flip_violations", "surface_coincidence_max"}


def test_unreduced_turn_fails_half_value(monkeypatch):
    def unreduced(P, rows):
        g = turns(P, rows)
        g += rows[1]  # add back the whole turns the floor step took off
        return g

    monkeypatch.setattr(helicoid, "_turns", unreduced)
    checks, failed = _failed(acceptance.criterion_helicoid_half)
    estimates = set(checks) - SYMMETRY
    assert len(estimates) == 9 and estimates <= failed
    # each misses 1/2 by more than 100 times its 3-standard-error bound
    assert all(checks[label].value > 100.0 * checks[label].bound
               for label in estimates)


def test_screw_rotating_backwards_fails_symmetry(monkeypatch):
    def backwards(X, alphas):
        Y = screw_many(X, -alphas)
        Y[:, 2] += 2.0 * alphas  # the translation stays +alpha
        return Y

    monkeypatch.setattr(helicoid, "screw_many", backwards)
    _, failed = _failed(acceptance.criterion_helicoid_half)
    assert failed and failed <= SYMMETRY  # the nine estimates still pass


def test_couplings_of_the_wrong_sign_fail_the_maximum_principle(monkeypatch):
    def flipped(field, lam, boundary):
        main, cx, cy, rhs = stencil(field, lam, boundary)
        return main, -cx, -cy, rhs

    monkeypatch.setattr(ell, "_stencil", flipped)
    _, failed = _failed(acceptance.criterion_max_principle)
    assert failed == {"trial minimum"}  # the annulus does not use the stencil


def test_arithmetic_face_mean_fails_the_rigidity_probe(monkeypatch):
    def arithmetic(grid):
        w, s = grid.widths, grid.sigma
        return (grid.face_areas[1:-1] * 0.5 * (s[:-1] + s[1:])
                / (0.5 * (w[:-1] + w[1:])))

    monkeypatch.setattr(par.Grid1D, "conductances", arithmetic)
    _, failed = _failed(acceptance.criterion_rigidity_probe)
    assert failed == {"plane max deviation"}  # the sphere still drifts
