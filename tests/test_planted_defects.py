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

and the two criteria of the 1D kernel, `interface-constant-1d` and
`kernel-mass-two-way`, through its image amplitude:

  * (g) `kernel1d._amplitudes`' reflection amplitude on the sigma_m side
    scaled by 1 + 1e-6: the quadrature of u(0, t) moves 1.67e-7 from k,
    and the kernel's mass 1.44e-7 from 1, while the closed form, which
    reads the same amplitude, still agrees with the quadrature (5.9e-16);

and `mean-curvature-extraction`, through the radial reduction:

  * (h) `Sphere.radial_dim` = N - 1 in place of N: the sphere's fitted
    curvature sum is off by 0.50 relative, against the 0.01 bound, while
    the plane and cylinder still pass.

and `near-boundary-law`, through the chart Laplacian:

  * (j) `wkb.chebder`'s second-derivative matrices scaled by 1.05: the
    tables' Lap A_0 at the surface is then 1.05 times its value, and the
    fitted coefficient misses -H_2 by 0.050 relative against the 0.02
    bound (5.06e-6 clean), while the fitted exponent (1.59e-4) still
    passes.  Earlier candidates faulted the metric term G^qq and Lap(delta),
    which this criterion cannot see: at tau = 0 on an N = 3 minimal
    surface, A_0 = 1 along the whole surface, so d_q A_0 = d_qq A_0 = 0,
    and d_tau A_0 = -Lap(delta) A_0 / 2 = 0 because Lap(delta) = -H_1 = 0
    there.  Only d_tautau A_0 reaches Lap A_0(0).

One planted defect shows what a criterion cannot see, and the test oracle
that does:

  * (i) every ray integral scaled by 1 + 1e-6: `wkb-identities` still
    passes, while the tables' A_1 misses its closed form
    (`oracles.first_coefficient`) by 1.38e-7 on the cylinder and
    7.52e-7 on the sphere in N = 4, against 1.6e-16 and 7.7e-16 clean.

Not yet covered, each for want of a planted defect that it alone must
catch:

  * higher-order-coefficient: its side checks hold the same
    Lap A_0(0) = -H_2 that near-boundary-law holds, at 10% instead of 2%,
    so (j) passes them at 0.050.  Its ratio check cannot see a fault
    common to both sides: with b = k inside, 1 - k outside and
    k / (1 - k) = sqrt(sigma_m / sigma_s), the ratio of the coefficients
    is sigma_s / sigma_m times Lap A_0^in(0) / Lap A_0^out(0).  An
    independent collar solve would be the check of it;
  * grid-solver-convergence: a face conductivity changed from the
    harmonic to the arithmetic mean passes it;
  * helicoid-half-value, beyond (c) and (d): its estimates sit at the
    origin, where every region whose horizontal slices are half-planes
    through the axis gives exactly 1/2.
"""

import pytest

from twophase import acceptance, helicoid, kernel1d, wkb
from twophase import elliptic as ell
from twophase import geometry as geo
from twophase import parabolic as par

from oracles import first_coefficient_error

chebint = wkb.chebint
chebder = wkb.chebder
turns = helicoid._turns
screw_many = helicoid.screw_many
stencil = ell._stencil
amplitudes = kernel1d._amplitudes


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


def test_slightly_scaled_ray_integral_passes_identities_not_the_oracle(
        fresh_engines):
    fresh_engines.setattr(wkb, "chebint",
                          lambda c, **kw: (1.0 + 1e-6) * chebint(c, **kw))
    _, failed = _failed(acceptance.criterion_wkb_identities)
    assert failed == set()
    for surface in (geo.Cylinder(R=1.0, N=3), geo.Sphere(R=1.0, N=4)):
        assert first_coefficient_error(surface, -1) > 1e-8  # 1.38e-7, 7.52e-7


def test_integration_constant_at_the_box_end_fails_the_surface_values(
        fresh_engines):
    _box_end_constant(fresh_engines)
    checks, failed = _failed(acceptance.criterion_barrier_sandwich)
    assert failed == {"surface max |w+- - k|"}
    assert checks["surface max |w+- - k|"].value > 1e-5


def test_scaled_second_derivatives_fail_the_near_boundary_law(
        fresh_engines):
    fresh_engines.setattr(wkb, "chebder", lambda c, m=1, scl=1: (
        1.05 if m == 2 else 1.0) * chebder(c, m, scl))
    checks, failed = _failed(acceptance.criterion_near_boundary_law)
    assert failed == {"coefficient rel err"}
    assert checks["coefficient rel err"].value > 0.04  # reads 0.050
    # the same Lap A_0(0), held to 10%, and the identities both pass
    for criterion in (acceptance.criterion_higher_order,
                      acceptance.criterion_wkb_identities):
        assert _failed(criterion)[1] == set()


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


def _scaled_reflection(monkeypatch):
    def scaled(medium):
        a, m, refl_m, refl_s, trans_m, trans_s = amplitudes(medium)
        return a, m, refl_m * (1.0 + 1e-6), refl_s, trans_m, trans_s

    monkeypatch.setattr(kernel1d, "_amplitudes", scaled)


def test_scaled_reflection_fails_the_interface_constant(monkeypatch):
    _scaled_reflection(monkeypatch)
    checks, failed = _failed(acceptance.criterion_interface_constant)
    assert failed == {"max |u(0, t) - k|"}
    assert checks["max |u(0, t) - k|"].value > 1e-7  # reads 1.67e-7


def test_scaled_reflection_fails_the_kernel_mass_alone(monkeypatch):
    _scaled_reflection(monkeypatch)
    checks, failed = _failed(acceptance.criterion_kernel_mass)
    assert failed == {"max |mass - 1|"}  # reads 1.44e-7
    # the closed form reads the same amplitude as the quadrature
    assert checks["max |closed form - quadrature|"].value < 1e-14


def test_sphere_in_the_wrong_dimension_fails_curvature_extraction(
        monkeypatch):
    monkeypatch.setattr(geo.Sphere, "radial_dim",
                        property(lambda self: self.N - 1))
    checks, failed = _failed(acceptance.criterion_mean_curvature)
    assert failed == {"sphere rel err"}
    assert checks["sphere rel err"].value > 0.4  # reads 0.50
