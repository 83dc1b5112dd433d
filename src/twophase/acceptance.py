"""Desk-scale acceptance suite: one criterion per headline property.

Each criterion takes the worker count `jobs` (only `helicoid-half-value`
uses it, for its Monte-Carlo batches; the others ignore it) and returns
(checks, details): one `Check(label, value, bound, sense)` per comparison
it makes, and a JSON-ready dict of what else it computed.  A criterion
passes when all its checks pass.  `CriterionRecord` derives that and the
printed line (each check as `label value sense bound`, with `!` before
the sense of a failed one), and `cli.run_acceptance` the `acceptance.json`
entry, from the checks alone, so the bound that is shown is the bound
that was compared.
`run_all` runs the selected criteria on a pool of `jobs` threads, so that
the Monte Carlo, which spends its time outside the interpreter lock,
overlaps the criteria that hold it, and it prints and returns the records
in `CRITERIA` order; one job runs them one after the other.  Each record's
`runtime` is that criterion's own wall time, which under overlap includes
waiting for the lock; it is printed, never written.  `run_all` is used
both by the command line (`twophase all`) and by the test suite.  Bounds
are pinned here, and no check or detail depends on `jobs`.

The settings that a criterion shares with a subcommand's default config
are pinned here too, once each, as the read-only mappings MEDIUM,
MAX_PRINCIPLE, HALF_VALUE and CURVATURE_SWEEP: `twophase maxprinciple`,
`helicoid` and `extract-curvature` with no config run what the gate checks,
and `maxprinciple` and `helicoid` exit on the gate's own checks.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import elliptic as ell
from . import geometry as geo
from . import helicoid as hel
from . import kernel1d as k1
from . import parabolic as par
from . import quadrature, wkb
from .errors import Check
from .medium import TwoPhaseMedium


@dataclass
class CriterionRecord:
    name: str
    checks: list
    details: dict
    runtime: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def line(self) -> str:
        checks = "; ".join(
            f"{c.label} {c.value:.3g} {'' if c.passed else '!'}{c.sense} "
            f"{float(c.bound)!r}" for c in self.checks)
        return (f"{'PASS' if self.passed else 'FAIL'}  {self.name}: "
                f"{checks} ({self.runtime:.1f}s)")


#: the conductivity pair of the gate and of every default config
MEDIUM = MappingProxyType({"sigma_s": 1.0, "sigma_m": 4.0})

#: `maximum-principle`: rate, trials, seed, cells per side and the range of
#: the random conductivities
MAX_PRINCIPLE = MappingProxyType({"lam": 10.0, "trials": 100, "seed": 99,
                                  "n": 32, "sigma_range": (0.5, 4.0)})

#: `maximum-principle`: no trial's minimum may lie below -MAX_PRINCIPLE_TOL
MAX_PRINCIPLE_TOL = 1e-10

#: `helicoid-half-value`: samples per estimate, base seed, times, radii and
#: samples of the symmetry identities
HALF_VALUE = MappingProxyType({"n_samples": 10 ** 6, "seed": 1234,
                               "t_values": (0.1, 1.0, 10.0),
                               "r_values": (0.5, 1.0, 2.0),
                               "symmetry_samples": 10 ** 4})

#: `mean-curvature-extraction`: the rate sweep, log-spaced
CURVATURE_SWEEP = MappingProxyType({"lambda_range": (1e2, 1e6),
                                    "per_decade": 12})


def _medium14() -> TwoPhaseMedium:
    return TwoPhaseMedium(**MEDIUM)


def _rel(value, target) -> float:
    return abs(value - target) / abs(target)


def positivity_check(report: dict) -> Check:
    """`maximum-principle`'s check of `ell.discrete_max_principle_check`'s
    report, which `twophase maxprinciple` exits on too."""
    return Check("trial minimum", report["min_value"], -MAX_PRINCIPLE_TOL, ">=")


# ---------------------------------------------------------------------------

def criterion_interface_constant(jobs: int) -> tuple:
    """1d exact: the kernel's quadrature of u(0, t) equals k for all t."""
    t_values = np.geomspace(1e-3, 1e3, 13)
    media = [TwoPhaseMedium(*pair)
             for pair in [(1.0, 4.0), (4.0, 1.0), (1.0, 1.0), (2.0, 3.0)]]
    worst = np.max([np.abs(k1.halfline_quadrature(0.0, t_values, med) - med.k)
                    for med in media])
    return ([Check("max |u(0, t) - k|", worst, 1e-10, "<")],
            {"pairs": len(media), "n_times": len(t_values)})


def criterion_kernel_mass(jobs: int) -> tuple:
    """Unit kernel mass and quadrature/closed-form agreement."""
    med = _medium14()
    rng = np.random.default_rng(2024)
    x1, t = np.array([(rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2, 1))
                      for _ in range(6)]).T
    reach = 50.0 * np.sqrt(t * med.M) + 5 * np.abs(x1)

    def kernel(y, x, s):
        return k1.eval_kernel(x, y, s, med)

    mass = quadrature.integrate_adaptive(kernel, [-reach, 0.0 * reach],
                                         [0.0 * reach, reach], x1, t).sum(axis=0)
    X, T = np.meshgrid(np.linspace(-2.0, 2.0, 10), np.geomspace(1e-2, 10.0, 10),
                       indexing="ij")
    pair = k1.halfline_closed_form(X, T, med) - k1.halfline_quadrature(X, T, med)
    return ([Check("max |mass - 1|", np.max(np.abs(mass - 1.0)),
                   k1.TWO_WAY_TOL, "<"),
             Check("max |closed form - quadrature|", np.max(np.abs(pair)),
                   k1.TWO_WAY_TOL, "<")],
            {"mass_points": len(x1), "two_way_points": X.size})


#: the surfaces of the criteria, built once at import so that criteria on
#: concurrent threads share one instance of each
_CATALOG = MappingProxyType({
    "plane": geo.Hyperplane(N=3),
    "sphere": geo.Sphere(R=1.0, N=3),
    "cylinder": geo.Cylinder(R=2.0, N=3),
    "helicoid": geo.Helicoid(),
    "catenoid": geo.Catenoid(c=1.0),
})


def criterion_wkb_identities(jobs: int) -> tuple:
    """Ray-table surface row (read, not written) and the derivative
    identities for j <= 3, at the step wkb.IDENTITY_STEP."""
    rng = np.random.default_rng(7)
    a0, rows, residuals = [], [], {}
    for name, surf in _CATALOG.items():
        eng = wkb.coefficient_engine(surf, -1)
        table = wkb.compute_coefficients(surf, 0.0, 3, side=-1,
                                         taus=np.linspace(0.0, eng.delta0, 17))
        surface_row = table.at_surface()
        a0.append(abs(surface_row[0] - 1.0))
        rows.append(np.max(np.abs(surface_row[1:])))
        if surf.is_radial:
            samples = [(0.0, t) for t in (0.05, 0.15, 0.3)]
        else:
            samples = [(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.3))
                       for _ in range(6)]
        # tau * delta0 / 0.4 keeps the fraction of the collar
        pts = np.array([eng.ray_points(q, np.array([tau * eng.delta0 / 0.4]))[0]
                        for q, tau in samples])
        residuals[name] = np.max([wkb.gradient_identity_residual(
            surf, j, pts, side=-1) for j in range(4)])
    return ([Check("surface |A_0 - 1|", np.max(a0), 0.0, "=="),
             Check("surface max |A_j|, j >= 1", np.max(rows), 1e-12, "<="),
             Check("max identity residual", np.max(list(residuals.values())),
                   1e-4, "<")],
            {"identity_residuals": residuals})


def criterion_near_boundary_law(jobs: int) -> tuple:
    """Lap A_0 -> -H_2 with the right distance exponent on minimal patches."""
    fits = {name: wkb.near_boundary_law(_CATALOG[name], 0.0, side=-1)
            for name in ("helicoid", "catenoid")}
    return ([Check("coefficient rel err", np.max(
                [_rel(f.measured_coefficient, f.predicted_coefficient)
                 for f in fits.values()]), 0.02, "<"),
             Check("exponent err", np.max(
                 [abs(f.fitted_exponent) for f in fits.values()]), 0.1, "<")],
            {name: {"coefficient": [f.measured_coefficient,
                                    f.predicted_coefficient],
                    "exponent": [f.fitted_exponent, 0]}
             for name, f in fits.items()})


def criterion_mean_curvature(jobs: int) -> tuple:
    """Summed-curvature extraction on plane, sphere, cylinder."""
    med = _medium14()
    grid = ell.log_rate_grid(*CURVATURE_SWEEP["lambda_range"],
                             CURVATURE_SWEEP["per_decade"])
    sums = {name: ell.extract_mean_curvature(_CATALOG[name], med,
                                             grid).sum_kappa_estimate
            for name in ("plane", "sphere", "cylinder")}
    return ([Check("plane |sum kappa|", abs(sums["plane"]), 1e-8, "<"),
             Check("sphere rel err", _rel(sums["sphere"], 2.0), 0.01, "<"),
             Check("cylinder rel err", _rel(sums["cylinder"], 0.5), 0.01, "<")],
            sums)


def criterion_barrier_sandwich(jobs: int) -> tuple:
    """Order-1 barriers enclose the exact radial solution pointwise, meet
    it at the surface, and bracket its conormal derivative there."""
    med = _medium14()
    reps = {name: ell.radial_barrier_sandwich(_CATALOG[name], med)
            for name in ("sphere", "cylinder")}
    upper, lower, values, dn = (np.array([rep[key] for rep in reps.values()])
                                for key in ("upper_margin", "lower_margin",
                                            "surface_values",
                                            "derivative_ordering"))
    # a - b has the sign of the comparison of a and b, so the largest
    # difference is <= 0 exactly when dn+ <= dn_exact <= dn- everywhere
    return ([Check("min upper margin", np.min(upper), 0.0, ">"),
             Check("min lower margin", np.min(lower), 0.0, ">"),
             Check("surface max |w+- - k|",
                   np.max(np.abs(values[..., [0, 2]] - med.k)), 1e-12, "<"),
             Check("max dn order gap", np.max(dn[..., :-1] - dn[..., 1:]),
                   0.0, "<=")],
            {name: {key: value for key, value in rep.items()
                    if key != "thresholds"} for name, rep in reps.items()})


def criterion_higher_order(jobs: int) -> tuple:
    """lambda^(-1/2) coefficient and the phase imbalance on minimal patches."""
    med = _medium14()
    checks, details = [], {}
    for name in ("catenoid", "helicoid"):
        fits = ell.higher_order_fit(_CATALOG[name], med)
        pairs = {f"side {side:+d}": (fits[side].coefficient,
                                     fits[side].predicted)
                 for side in (-1, +1)}
        pairs["ratio"] = (fits["ratio"], fits["predicted_ratio"])
        checks += [Check(f"{name} {key} rel err", _rel(*pair), 0.10, "<")
                   for key, pair in pairs.items()]
        details[name] = pairs
    return checks, details


def criterion_grid_convergence(jobs: int) -> tuple:
    """2d disk transmission solve converges to the radial oracle."""
    rep = ell.disk_convergence_study(_medium14())
    return ([Check("observed order", rep["observed_order"], 0.9, ">=")],
            {"errors": rep["errors"].tolist(),
             "cg_iterations": rep["iterations"],
             "relative_residuals": rep["residuals"]})


def criterion_helicoid_half(jobs: int) -> tuple:
    """Monte-Carlo half-value and half-density identities on the helicoid."""
    records, checks = hel.half_value_checks(**HALF_VALUE, jobs=jobs)
    return checks, {"records": records}


def criterion_max_principle(jobs: int) -> tuple:
    """Inverse positivity for lambda > 0; the annulus failure at lambda = 0."""
    mp = MAX_PRINCIPLE
    rep = ell.discrete_max_principle_check(mp["lam"], mp["trials"], mp["seed"],
                                           mp["n"], mp["sigma_range"])
    ce = ell.annulus_counterexample()
    return ([positivity_check(rep),
             Check("lambda = 0 annulus interior minimum", ce["min_interior"],
                   -0.4, "<")],
            {"positivity": rep, "counterexample": ce})


def criterion_rigidity_probe(jobs: int) -> tuple:
    """Flat interfaces hold the constant; a sphere interface drifts, by
    more than its step-halving (Richardson) gap."""
    med = _medium14()
    plane = par.interface_constancy_probe(_CATALOG["plane"], med,
                                          np.geomspace(1e-2, 1.0, 9))
    sphere = par.interface_constancy_probe(_CATALOG["sphere"], med,
                                           np.geomspace(1e-3, 1.0, 10))
    return ([Check("plane max deviation", plane["max_deviation"], 1e-6, "<"),
             Check("sphere max deviation", sphere["max_deviation"], 1e-2, ">"),
             Check("sphere Richardson gap", sphere["richardson_gap"],
                   0.1 * sphere["max_deviation"], "<")],
            {"plane": plane, "sphere": sphere})


CRITERIA = [
    ("interface-constant-1d", criterion_interface_constant),
    ("kernel-mass-two-way", criterion_kernel_mass),
    ("wkb-identities", criterion_wkb_identities),
    ("near-boundary-law", criterion_near_boundary_law),
    ("mean-curvature-extraction", criterion_mean_curvature),
    ("barrier-sandwich", criterion_barrier_sandwich),
    ("higher-order-coefficient", criterion_higher_order),
    ("grid-solver-convergence", criterion_grid_convergence),
    ("helicoid-half-value", criterion_helicoid_half),
    ("maximum-principle", criterion_max_principle),
    ("rigidity-probe", criterion_rigidity_probe),
]


def run_all(jobs: int, names=None) -> list[CriterionRecord]:
    """The criteria (those in `names`, if given) on a pool of `jobs` threads,
    each record printed and returned in `CRITERIA` order."""
    def timed(criterion):
        name, fn = criterion
        t0 = time.perf_counter()
        checks, details = fn(jobs)
        return CriterionRecord(name, checks, details,
                               time.perf_counter() - t0)

    chosen = [(name, fn) for name, fn in CRITERIA
              if names is None or name in names]
    records = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # map yields in submission order and, if a criterion raises,
        # cancels the ones not yet started
        for rec in pool.map(timed, chosen):
            records.append(rec)
            print(rec.line(), flush=True)
    return records
