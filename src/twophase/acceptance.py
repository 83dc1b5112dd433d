"""Desk-scale acceptance suite: one check per headline property.

Each criterion takes the worker count `jobs` (only `helicoid-half-value`
uses it, for its Monte-Carlo batches; the others ignore it) and returns a
record with the measured quantity, the target, the tolerance it was held
to, and a pass flag.  `run_all` runs the selected criteria on a pool of
`jobs` threads, so that the Monte Carlo, which spends its time outside the
interpreter lock, overlaps the criteria that hold it, and it prints and
returns the records in `CRITERIA` order; one job runs them one after the
other.  Each record's `runtime` is that criterion's own wall time, which
under overlap includes waiting for the lock.  `run_all` is used both by
the command line (`twophase all`) and by the test suite.  Tolerances are
pinned here, and no record depends on `jobs`.

The settings that a criterion shares with a subcommand's default config
are pinned here too, once each, as the read-only mappings MEDIUM,
MAX_PRINCIPLE, HALF_VALUE and CURVATURE_SWEEP: `twophase maxprinciple`,
`helicoid` and `extract-curvature` with no config run what the gate checks.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import elliptic as ell
from . import geometry as geo
from . import helicoid as hel
from . import kernel1d as k1
from . import parabolic as par
from . import quadrature, wkb
from .medium import TwoPhaseMedium


@dataclass
class CriterionRecord:
    name: str
    passed: bool
    expected: str
    measured: str
    tolerance: str
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"{mark}  {self.name}: measured {self.measured}, "
                f"expected {self.expected} (tol {self.tolerance}, "
                f"{self.runtime:.1f}s)")


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


# ---------------------------------------------------------------------------

def criterion_interface_constant(jobs: int) -> CriterionRecord:
    """1d exact: u(0, t) equals the interface constant for all t."""
    tol = 1e-10
    t_values = np.geomspace(1e-3, 1e3, 13)
    media = [TwoPhaseMedium(*pair)
             for pair in [(1.0, 4.0), (4.0, 1.0), (1.0, 1.0), (2.0, 3.0)]]
    worst = max(np.max(np.abs(k1.halfline_solution(0.0, t_values, med) - med.k))
                for med in media)
    return CriterionRecord(
        name="interface-constant-1d", passed=worst < tol,
        expected="0", measured=f"{worst:.3e}", tolerance=f"{tol:.1e}",
        runtime=0.0, details={"pairs": 4, "n_times": len(t_values)})


def criterion_kernel_mass(jobs: int) -> CriterionRecord:
    """Unit kernel mass and quadrature/closed-form agreement."""
    tol = k1.TWO_WAY_TOL
    med = _medium14()
    rng = np.random.default_rng(2024)
    x1, t = np.array([(rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2, 1))
                      for _ in range(6)]).T
    reach = 50.0 * np.sqrt(t * med.M) + 5 * np.abs(x1)

    def kernel(y, x, s):
        return k1.eval_kernel(x, y, s, med)

    mass = quadrature.integrate_adaptive(kernel, [-reach, 0.0 * reach],
                                         [0.0 * reach, reach], x1, t).sum(axis=0)
    worst_mass = float(np.max(np.abs(mass - 1.0)))
    X, T = np.meshgrid(np.linspace(-2.0, 2.0, 10), np.geomspace(1e-2, 10.0, 10),
                       indexing="ij")
    worst_pair = float(np.max(np.abs(k1.halfline_closed_form(X, T, med)
                                     - k1.halfline_quadrature(X, T, med))))
    worst = max(worst_mass, worst_pair)
    return CriterionRecord(
        name="kernel-mass-two-way", passed=worst < tol,
        expected="0", measured=f"mass {worst_mass:.2e}, two-way {worst_pair:.2e}",
        tolerance=f"{tol:.1e}", runtime=0.0)


#: the surfaces of the criteria, built once at import so that criteria on
#: concurrent threads share one instance of each
_CATALOG = MappingProxyType({
    "plane": geo.Hyperplane(N=3),
    "sphere": geo.Sphere(R=1.0, N=3),
    "cylinder": geo.Cylinder(R=2.0, N=3),
    "helicoid": geo.Helicoid(),
    "catenoid": geo.Catenoid(c=1.0),
})


def criterion_wkb_identities(jobs: int) -> CriterionRecord:
    """Ray-table surface row (read, not written) and the derivative
    identities for j <= 3."""
    tol = 1e-4
    row_tol = 1e-12
    rng = np.random.default_rng(7)
    worst = 0.0
    a0_exact = True
    row_max = 0.0
    for name, surf in _CATALOG.items():
        eng = wkb.coefficient_engine(surf, -1)
        table = wkb.compute_coefficients(surf, 0.0, 3, side=-1,
                                         taus=np.linspace(0.0, eng.delta0, 17))
        surface_row = table.at_surface()
        a0_exact = a0_exact and surface_row[0] == 1.0
        row_max = max(row_max, float(np.max(np.abs(surface_row[1:]))))
        if surf.is_radial:
            samples = [(0.0, t) for t in (0.05, 0.15, 0.3)]
        else:
            samples = [(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.3))
                       for _ in range(6)]
        # tau * delta0 / 0.4 keeps the fraction of the collar
        pts = np.array([eng.ray_points(q, np.array([tau * eng.delta0 / 0.4]))[0]
                        for q, tau in samples])
        for j in range(4):
            worst = max(worst, float(np.max(wkb.gradient_identity_residual(
                surf, j, pts, side=-1))))
    return CriterionRecord(
        name="wkb-identities",
        passed=a0_exact and row_max <= row_tol and worst < tol,
        expected="surface row A_0 == 1, higher rows 0; residuals 0",
        measured=(f"A_0 == 1 {a0_exact}, higher rows {row_max:.2e}, "
                  f"max residual {worst:.2e}"),
        tolerance=f"rows {row_tol:.0e}; residuals {tol:.1e} at h=1e-3",
        runtime=0.0)


def criterion_near_boundary_law(jobs: int) -> CriterionRecord:
    """Lap A_0 -> -H_2 with the right distance exponent on minimal patches."""
    coef_tol = 0.02
    exp_tol = 0.1
    worst_rel = 0.0
    worst_exp = 0.0
    for name in ("helicoid", "catenoid"):
        surf = _CATALOG[name]
        fit = wkb.near_boundary_law(surf, 0.0, 0, 2, side=-1)
        worst_rel = max(worst_rel, abs(fit.measured_coefficient
                                       - fit.predicted_coefficient)
                        / abs(fit.predicted_coefficient))
        worst_exp = max(worst_exp, abs(fit.fitted_exponent
                                       - fit.expected_exponent))
    passed = worst_rel < coef_tol and worst_exp < exp_tol
    return CriterionRecord(
        name="near-boundary-law", passed=passed,
        expected="coefficient -H2, exponent p-2-s",
        measured=f"rel err {worst_rel:.2e}, exponent err {worst_exp:.2e}",
        tolerance=f"{coef_tol:.0%} / {exp_tol}", runtime=0.0)


def criterion_mean_curvature(jobs: int) -> CriterionRecord:
    """Summed-curvature extraction on plane, sphere, cylinder."""
    med = _medium14()
    abs_tol = 1e-8
    rel_tol = 0.01
    grid = ell.log_rate_grid(*CURVATURE_SWEEP["lambda_range"],
                                   CURVATURE_SWEEP["per_decade"])
    fits = {name: ell.extract_mean_curvature(_CATALOG[name], med, grid)
            for name in ("plane", "sphere", "cylinder")}
    ok = abs(fits["plane"].sum_kappa_estimate) < abs_tol
    rels = {}
    for name, target in (("sphere", 2.0), ("cylinder", 0.5)):
        rels[name] = abs(fits[name].sum_kappa_estimate - target) / target
        ok = ok and rels[name] < rel_tol
    return CriterionRecord(
        name="mean-curvature-extraction", passed=ok,
        expected="0, 2, 0.5",
        measured=(f"plane {fits['plane'].sum_kappa_estimate:.1e}, "
                  f"sphere rel {rels['sphere']:.2e}, "
                  f"cylinder rel {rels['cylinder']:.2e}"),
        tolerance=f"plane {abs_tol:.0e}; others {rel_tol:.0%}", runtime=0.0,
        details={name: fit.sum_kappa_estimate for name, fit in fits.items()})


def criterion_barrier_sandwich(jobs: int) -> CriterionRecord:
    """Order-1 barriers enclose the exact radial solution pointwise."""
    med = _medium14()
    lams = [1e3, 1e4, 1e5]
    ok = True
    detail = {}
    for name in ("sphere", "cylinder"):
        rep = ell.radial_barrier_sandwich(_CATALOG[name], med, lams)
        k = med.k
        for i, lam in enumerate(rep["lams"]):
            up, lo = rep["upper_margin"][i], rep["lower_margin"][i]
            wp0, wex0, wm0 = rep["surface_values"][i]
            dnp, dnex, dnm = rep["derivative_ordering"][i]
            ok = ok and up > 0.0 and lo > 0.0
            ok = ok and abs(wp0 - k) < 1e-12 and abs(wm0 - k) < 1e-12
            ok = ok and dnp <= dnex <= dnm
        detail[name] = {"upper": rep["upper_margin"], "lower": rep["lower_margin"]}
    return CriterionRecord(
        name="barrier-sandwich", passed=ok,
        expected="strict enclosure off the surface; equality at it",
        measured="margins positive" if ok else "ordering violated",
        tolerance="strict", runtime=0.0, details=detail)


def criterion_higher_order(jobs: int) -> CriterionRecord:
    """lambda^(-1/2) coefficient and the phase imbalance on minimal patches."""
    med = _medium14()
    tol = 0.10
    ok = True
    msgs = []
    for name in ("catenoid", "helicoid"):
        surf = _CATALOG[name]
        fits = ell.higher_order_fit(surf, med, p=2)
        for side in (-1, +1):
            f = fits[side]
            rel = abs(f.coefficient - f.predicted) / abs(f.predicted)
            ok = ok and rel < tol
            msgs.append(f"{name} side {side:+d} rel {rel:.2e}")
        ratio_rel = abs(fits["ratio"] - fits["predicted_ratio"]) / abs(
            fits["predicted_ratio"])
        ok = ok and ratio_rel < tol
        msgs.append(f"{name} ratio rel {ratio_rel:.2e}")
    return CriterionRecord(
        name="higher-order-coefficient", passed=ok,
        expected="k p! 2^-p sigma^(p/2) H_p per side; ratio (ss/sm)^(p/2)",
        measured="; ".join(msgs), tolerance=f"{tol:.0%}", runtime=0.0)


def criterion_grid_convergence(jobs: int) -> CriterionRecord:
    """2d disk transmission solve converges to the radial oracle."""
    med = _medium14()
    rep = ell.disk_convergence_study(med, lam=100.0)
    return CriterionRecord(
        name="grid-solver-convergence", passed=rep["observed_order"] >= 0.9,
        expected=">= 0.9", measured=f"order {rep['observed_order']:.3f}, "
        f"errors {np.array2string(rep['errors'], precision=2)}",
        tolerance="order >= 0.9", runtime=0.0,
        details={"errors": rep["errors"].tolist(),
                 "cg_iterations": rep["iterations"],
                 "relative_residuals": rep["residuals"]})


def criterion_helicoid_half(jobs: int) -> CriterionRecord:
    """Monte-Carlo half-value and half-density identities on the helicoid."""
    records, sym = hel.half_value_checks(**HALF_VALUE, jobs=jobs)
    means = iter(rec["estimate"] for rec in records)
    msgs = [f"u(t={t}) {next(means):.4f}" for t in HALF_VALUE["t_values"]]
    msgs += [f"cap/ball(r={r}) {next(means):.4f}/{next(means):.4f}"
             for r in HALF_VALUE["r_values"]]
    msgs.append(f"symmetry violations {sym['screw_violations']}"
                f"+{sym['flip_violations']}")
    return CriterionRecord(
        name="helicoid-half-value", passed=all(rec["pass"] for rec in records),
        expected="all 0.5 within 3 stderr; zero violations",
        measured="; ".join(msgs), tolerance="3 stderr / exact", runtime=0.0,
        details={"records": records})


def criterion_max_principle(jobs: int) -> CriterionRecord:
    """Inverse positivity for lambda > 0; the annulus failure at lambda = 0."""
    mp = MAX_PRINCIPLE
    rep = ell.discrete_max_principle_check(mp["lam"], mp["trials"], mp["seed"],
                                           mp["n"], mp["sigma_range"])
    ce = ell.annulus_counterexample()
    tol = MAX_PRINCIPLE_TOL
    ok = rep["min_value"] >= -tol and ce["min_interior"] < -0.4
    return CriterionRecord(
        name="maximum-principle", passed=ok,
        expected=f"min >= -{tol:.0e}; counterexample interior < -0.4",
        measured=(f"min {rep['min_value']:.2e}; "
                  f"counterexample {ce['min_interior']:.3f}"),
        tolerance=f"{tol:.0e} / -0.4", runtime=0.0,
        details={"positivity": rep, "counterexample": ce})


def criterion_rigidity_probe(jobs: int) -> CriterionRecord:
    """Flat interfaces hold the constant; a sphere interface drifts."""
    med = _medium14()
    plane = par.interface_constancy_probe(_CATALOG["plane"], med,
                                          np.geomspace(1e-2, 1.0, 9))
    sphere = par.interface_constancy_probe(_CATALOG["sphere"], med,
                                           np.geomspace(1e-3, 1.0, 10))
    flat_tol = 1e-6
    drift_floor = 1e-2
    stable = sphere["richardson_gap"] < 0.1 * sphere["max_deviation"]
    ok = (plane["max_deviation"] < flat_tol
          and sphere["max_deviation"] > drift_floor and stable)
    return CriterionRecord(
        name="rigidity-probe", passed=ok,
        expected=f"plane < {flat_tol:.0e}; sphere > {drift_floor:.0e} (stable)",
        measured=(f"plane {plane['max_deviation']:.2e}; sphere "
                  f"{sphere['max_deviation']:.2e} "
                  f"(gap {sphere['richardson_gap']:.1e})"),
        tolerance="as stated", runtime=0.0)


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
    def timed(fn):
        t0 = time.perf_counter()
        rec = fn(jobs)
        rec.runtime = time.perf_counter() - t0
        return rec

    chosen = [fn for name, fn in CRITERIA if names is None or name in names]
    records = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        # map yields in submission order and, if a criterion raises,
        # cancels the ones not yet started
        for rec in pool.map(timed, chosen):
            records.append(rec)
            print(rec.line(), flush=True)
    return records
