"""Command-line front end: every experiment as a subcommand.

Each run takes a JSON config (defaults are built in and any file values
are merged over them; unknown keys are rejected), writes CSV for sweeps
and JSON for scalar reports into the output directory, and always writes a
manifest holding the tool, its version, the subcommand, the fully
resolved configuration and the outputs named relative to the output
directory.  `--seed N` is the config value `seed`, so only `helicoid` and
`maxprinciple` accept it.  `--jobs` sets the worker threads of the
Monte-Carlo batches (`helicoid`, and `all` through its helicoid
criterion) and, for `all`, also the threads the criteria run on; the other
subcommands accept it and ignore it, and below 1 it is an invalid
configuration for all of them.  Identical
config and seed produce byte-identical artifacts, wherever they are
written and whatever `--jobs` is.  The default configs of `maxprinciple`,
`helicoid` and `extract-curvature` read the settings pinned in
`acceptance`, so each runs what its criterion checks.

Exit codes: 0 success, 1 numeric failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Mapping
from importlib import metadata

import numpy as np

from . import acceptance
from . import elliptic as ell
from . import geometry as geo
from . import helicoid as hl
from . import kernel1d as k1
from . import parabolic as par
from . import wkb
from .errors import ConfigError, TwoPhaseError
from .medium import TwoPhaseMedium


def _version() -> str:
    try:
        return metadata.version("twophase")
    except metadata.PackageNotFoundError:
        return "0.0.dev"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _merge_config(defaults: dict, override: dict, context: str) -> dict:
    out = dict(defaults)
    for key, val in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {context} config "
                              f"(known: {sorted(defaults)})")
        out[key] = val
    return out


def _medium_from(spec) -> TwoPhaseMedium:
    spec = _merge_config(acceptance.MEDIUM, dict(spec), "medium")
    return TwoPhaseMedium(float(spec["sigma_s"]), float(spec["sigma_m"]))


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _probes_from(probes, interface: bool) -> list:
    """The config's probe list: JSON numbers, and "interface" if allowed."""
    def ok(x):
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                or interface and x == "interface")
    if not (isinstance(probes, list) and all(map(ok, probes))):
        allowed = ' or "interface"' if interface else ""
        raise ConfigError(f"probes must be numbers{allowed}, got {probes!r}")
    return probes


def _surface_from(spec: dict) -> geo.Surface:
    spec = dict(spec)
    variant = spec.pop("variant", None)
    try:
        if variant in ("hyperplane", "plane"):
            return geo.Hyperplane(N=int(spec.pop("N", 3)), **spec)
        if variant == "sphere":
            return geo.Sphere(R=float(spec.pop("R", 1.0)),
                              N=int(spec.pop("N", 3)), **spec)
        if variant == "cylinder":
            return geo.Cylinder(R=float(spec.pop("R", 1.0)),
                                N=int(spec.pop("N", 3)), **spec)
        if variant == "helicoid":
            return geo.Helicoid(**spec)
        if variant == "catenoid":
            return geo.Catenoid(c=float(spec.pop("c", 1.0)), **spec)
    except TypeError as exc:
        raise ConfigError(f"bad surface spec: {exc}")
    raise ConfigError(f"unknown surface variant {variant!r}")


def _radial_surface(kind, R, N=3) -> geo.Surface:
    """The catalog surface named by a `kind`/`R`/`N` config; a plane has no R."""
    spec = {"variant": kind, "N": N}
    if kind != "plane":
        spec["R"] = R
    return _surface_from(spec)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(outdir: str, subcommand: str, config: dict, outputs: list) -> None:
    _write_json(os.path.join(outdir, "manifest.json"), {
        "tool": "twophase",
        "version": _version(),
        "subcommand": subcommand,
        "config": config,
        "outputs": [os.path.relpath(p, outdir) for p in outputs],
    })


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_kernel1d(config: dict, outdir: str) -> int:
    defaults = {
        "medium": acceptance.MEDIUM,
        "x1": [0.0],
        "t": list(np.geomspace(1e-3, 1e3, 13)),
        "tolerance": k1.TWO_WAY_TOL,
    }
    cfg = _merge_config(defaults, config, "kernel1d")
    med = _medium_from(cfg["medium"])
    X, T = np.meshgrid(np.asarray(cfg["x1"], dtype=float),
                       np.asarray(cfg["t"], dtype=float), indexing="ij")
    uq, uc = k1.halfline_quadrature(X, T, med), k1.halfline_closed_form(X, T, med)
    diff = np.abs(uq - uc)
    worst = float(diff.max(initial=0.0))
    rows = [(x1, t, *vals) for (x1, t), *vals in zip(
        itertools.product(cfg["x1"], cfg["t"]), uq.ravel().tolist(),
        uc.ravel().tolist(), diff.ravel().tolist())]
    path = os.path.join(outdir, "kernel1d.csv")
    _write_csv(path, ["x1", "t", "u_quadrature", "u_closed_form", "abs_diff"],
               rows)
    _manifest(outdir, "kernel1d", cfg, [path])
    print(f"kernel1d: {len(rows)} points, max two-way diff {worst:.3e}")
    return 0 if worst < cfg["tolerance"] else 1


def run_simulate(config: dict, outdir: str) -> int:
    defaults = {
        "medium": acceptance.MEDIUM,
        "kind": "plane",
        "R": 1.0,
        "t_grid": list(np.geomspace(1e-2, 1.0, 9)),
        "probes": ["interface"],
        "h_fine": 2e-3,
        "t_start": 1e-6,
    }
    cfg = _merge_config(defaults, config, "simulate")
    probes = _probes_from(cfg["probes"], interface=True)
    med = _medium_from(cfg["medium"])
    t_grid = np.asarray(cfg["t_grid"], dtype=float)
    grid = par.interface_grid(_radial_surface(cfg["kind"], cfg["R"]), med,
                              h_fine=cfg["h_fine"],
                              far=par.far_wall_distance(med, t_grid.max()))
    times = par.geometric_times(cfg["t_start"], float(t_grid.max()),
                                include=t_grid)
    series = par.evolve(grid, times, [x for x in probes if x != "interface"])
    mask = np.isin(series.times, t_grid)
    rows = []
    for pid, x in enumerate(probes):
        vals = (series.interface_values()[mask] if x == "interface"
                else series.probe(x)[mask])
        for t, u in zip(series.times[mask], vals):
            rows.append((t, pid, u))
    path = os.path.join(outdir, "simulate.csv")
    _write_csv(path, ["t", "probe_id", "u"], rows)
    _manifest(outdir, "simulate", cfg, [path])
    print(f"simulate: {cfg['kind']} interface, {len(rows)} samples")
    return 0


def run_transform(config: dict, outdir: str) -> int:
    defaults = {
        "medium": acceptance.MEDIUM,
        "lambdas": [25.0, 50.0, 100.0, 200.0],
        "probes": [-0.4, -0.1, 0.0, 0.05, 0.3],
        "t_end": 0.8,
        "h_fine": 1e-3,
        "tolerance": 1e-5,
    }
    cfg = _merge_config(defaults, config, "transform")
    probes = _probes_from(cfg["probes"], interface=False)
    med = _medium_from(cfg["medium"])
    k = med.k
    grid = par.interface_grid(geo.Hyperplane(), med, h_fine=cfg["h_fine"],
                              far=10.0)
    times = par.geometric_times(1e-7, cfg["t_end"], ratio=1.05)
    series = par.evolve(grid, times, probes)
    rows = []
    worst = 0.0
    for lam in cfg["lambdas"]:
        tr = par.laplace_stieltjes(series, float(lam), probes,
                                   tol=cfg["tolerance"])
        for pid, (x, w_time) in enumerate(zip(tr.probes, tr.values)):
            if x >= 0.0:
                w_ell = k * math.exp(-x * math.sqrt(lam / med.sigma_s))
            else:
                w_ell = 1.0 - (1.0 - k) * math.exp(x * math.sqrt(lam / med.sigma_m))
            worst = max(worst, abs(w_time - w_ell))
            rows.append((lam, pid, w_time, w_ell, abs(w_time - w_ell)))
    path = os.path.join(outdir, "transform.csv")
    _write_csv(path, ["lambda", "probe_id", "w_time", "w_elliptic", "diff"],
               rows)
    _manifest(outdir, "transform", cfg, [path])
    print(f"transform: max |w_time - w_elliptic| = {worst:.3e}")
    return 0 if worst < 2e-3 else 1


def run_wkb(config: dict, outdir: str) -> int:
    defaults = {
        "surface": {"variant": "sphere", "R": 1.0, "N": 3},
        "side": -1,
        "order": 2,
        "q": 0.0,
        "n_points": 33,
    }
    cfg = _merge_config(defaults, config, "wkb")
    surf = _surface_from(cfg["surface"])
    side = int(cfg["side"])
    n = int(cfg["order"])
    eng = wkb.coefficient_engine(surf, side)
    taus = np.linspace(0.0, eng.delta0, int(cfg["n_points"]))
    table = wkb.compute_coefficients(surf, cfg["q"], n, side=side, taus=taus)
    header = (["tau"] + [f"A{j}" for j in range(n)]
              + [f"A{n}_plus", f"A{n}_minus", "residual_max"])
    # the identity residuals of every interior ray point, one call per
    # tabulated j <= n
    h = wkb.IDENTITY_STEP
    inner = (taus > 2 * h) & (taus < eng.delta0 - 2 * h)
    pts = eng.ray_points(cfg["q"], taus[inner])
    residual = np.full(len(taus), float("nan"))
    residual[inner] = np.max(
        [wkb.gradient_identity_residual(surf, j, pts, side=side)
         for j in range(min(n, eng.table_order + 1) + 1)], axis=0)
    rows = []
    for i, tau in enumerate(taus):
        row = [tau] + [table.A[j][i] for j in range(n)]
        row += [table.An_plus[i], table.An_minus[i], residual[i]]
        rows.append(row)
    path = os.path.join(outdir, "wkb.csv")
    _write_csv(path, header, rows)
    _manifest(outdir, "wkb", cfg, [path])
    print(f"wkb: order-{n} ray table with {len(taus)} samples")
    return 0


def run_extract_curvature(config: dict, outdir: str) -> int:
    defaults = {
        "medium": acceptance.MEDIUM,
        "geometry": {"kind": "sphere", "R": 1.0, "N": 3},
        **acceptance.CURVATURE_SWEEP,
    }
    cfg = _merge_config(defaults, config, "extract-curvature")
    med = _medium_from(cfg["medium"])
    surface = _radial_surface(**_merge_config(
        defaults["geometry"], cfg["geometry"], "geometry"))
    lo, hi = cfg["lambda_range"]
    grid = ell.log_rate_grid(lo, hi, cfg["per_decade"])
    fit = ell.extract_mean_curvature(surface, med, grid)
    k = med.k
    rows = []
    for lam, det in zip(fit.lambda_grid, fit.detrended):
        dn = det + k * math.sqrt(med.sigma_s) * math.sqrt(lam)
        rows.append((lam, dn / med.sigma_s, det, fit.constant_term,
                     fit.sum_kappa_estimate))
    path = os.path.join(outdir, "extract_curvature.csv")
    _write_csv(path, ["lambda", "normal_derivative", "detrended",
                      "fit_constant", "sigma_kappa_estimate"], rows)
    _manifest(outdir, "extract-curvature", cfg, [path])
    print(f"extract-curvature: sum kappa = {fit.sum_kappa_estimate:.6f} "
          f"(target {sum(surface.kappas(None))})")
    return 0


def run_maxprinciple(config: dict, outdir: str) -> int:
    defaults = {**acceptance.MAX_PRINCIPLE, "counterexample": True}
    cfg = _merge_config(defaults, config, "maxprinciple")
    rep = ell.discrete_max_principle_check(cfg["lam"], cfg["trials"],
                                           cfg["seed"], cfg["n"],
                                           cfg["sigma_range"])
    payload = dict(rep)
    if cfg["counterexample"]:
        payload["lambda0_counterexample"] = ell.annulus_counterexample()
    path = os.path.join(outdir, "maxprinciple.json")
    _write_json(path, payload)
    _manifest(outdir, "maxprinciple", cfg, [path])
    print(f"maxprinciple: min value {rep['min_value']:.3e} over "
          f"{rep['trials']} trials")
    return 0 if rep["min_value"] >= -acceptance.MAX_PRINCIPLE_TOL else 1


def run_helicoid(config: dict, outdir: str, *, jobs: int) -> int:
    cfg = _merge_config(acceptance.HALF_VALUE, config, "helicoid")
    records, _ = hl.half_value_checks(
        cfg["n_samples"], int(cfg["seed"]), cfg["t_values"],
        cfg["r_values"], cfg["symmetry_samples"], jobs)
    path = os.path.join(outdir, "helicoid.json")
    _write_json(path, records)
    _manifest(outdir, "helicoid", cfg, [path])
    n_fail = sum(not r["pass"] for r in records)
    print(f"helicoid: {len(records)} checks, {n_fail} failures")
    return 0 if n_fail == 0 else 1


def run_acceptance(config: dict, outdir: str, *, jobs: int) -> int:
    defaults = {"criteria": None}
    cfg = _merge_config(defaults, config, "all")
    if cfg["criteria"] is not None:
        known = {name for name, _ in acceptance.CRITERIA}
        unknown = set(cfg["criteria"]) - known
        if unknown:
            raise ConfigError(f"unknown criteria {sorted(unknown)} "
                              f"(known: {sorted(known)})")
    records = acceptance.run_all(jobs, names=cfg["criteria"])
    # runtimes go to stdout only, so the artifact is seed-deterministic
    payload = [{
        "name": r.name, "pass": r.passed, "expected": r.expected,
        "measured": r.measured, "tolerance": r.tolerance,
    } for r in records]
    path = os.path.join(outdir, "acceptance.json")
    _write_json(path, payload)
    _manifest(outdir, "all", cfg, [path])
    return 0 if all(r.passed for r in records) else 1


# ---------------------------------------------------------------------------

_RUNNERS = {
    "kernel1d": run_kernel1d,
    "simulate": run_simulate,
    "transform": run_transform,
    "wkb": run_wkb,
    "extract-curvature": run_extract_curvature,
    "maxprinciple": run_maxprinciple,
    "helicoid": run_helicoid,
    "all": run_acceptance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophase",
        description="Two-phase heat-conduction numerical laboratory")
    parser.add_argument("subcommand", choices=sorted(_RUNNERS))
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="the config's RNG seed (helicoid and "
                        "maxprinciple; a config error elsewhere)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker threads for the Monte-Carlo batches of "
                        "helicoid and all, and for the criteria of all (the "
                        "others accept and ignore it)")
    parser.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ConfigError("config root must be a JSON object")
        else:
            config = {}
        if args.seed is not None:
            config["seed"] = args.seed
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    runner = _RUNNERS[args.subcommand]
    try:
        if args.subcommand in ("helicoid", "all"):
            return runner(config, args.out, jobs=args.jobs)
        return runner(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TwoPhaseError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
