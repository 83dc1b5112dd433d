"""Command-line front end: every experiment as a subcommand.

Each run takes a JSON config, writes CSV for sweeps and JSON for scalar
reports into the output directory, and always writes a manifest holding
the tool, its version, the subcommand, the fully resolved configuration
and the outputs named relative to the output directory.

Each subcommand declares its keys once, in `_RUNNERS`, each with a
default and a kind that fixes its JSON type, range and non-emptiness: a
positive or finite number, a positive count, a seed, a side, a flag, a
non-empty list, a range, one of a set, or an object merged over its own
defaults; a surface's keys are the fields of its class (`_SURFACES`).
Every key a config sets, `--seed` included, is checked before any work,
and so are the surface it names, which must build, and a `wkb` ray.

`--seed N` is the config value `seed`, so only `helicoid` and
`maxprinciple` accept it.  `--jobs` sets the worker threads of the
Monte-Carlo batches (`helicoid`, and `all` through its helicoid
criterion) and, for `all`, also the threads the criteria run on; the other
subcommands accept it and ignore it, and below 1 it is an invalid
configuration for all of them.  Identical config and seed produce
byte-identical artifacts, wherever they are written and whatever `--jobs`
is.  The default configs of `maxprinciple`, `helicoid` and
`extract-curvature` read the settings pinned in `acceptance`, so each
runs what its criterion checks.

Exit codes: 0 success; 1 numeric failure (a library routine raised a
`TwoPhaseError`); 2 invalid configuration, reported before anything is
computed or written as `config error: <key> must be <kind>, got <value>`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .errors import ConfigError, InvalidArgument, TwoPhaseError, positive_count
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


# ---------------------------------------------------------------------------
# config kinds: each checks (key, value) and returns the value to use
# ---------------------------------------------------------------------------

def _wrong(key: str, what: str, value) -> ConfigError:
    return ConfigError(f"{key} must be {what}, got {json.dumps(value)}")


def _kind(what: str, ok):
    def check(key, value):
        if not ok(value):
            raise _wrong(key, what, value)
        return value
    return check


def _number(v) -> bool:
    """A finite JSON number; true and false are not numbers."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _nonempty(v, ok) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(ok, v))


def _one_of(*names):
    return _kind("one of " + ", ".join(map(json.dumps, names)),
                 lambda v: isinstance(v, str) and v in names)


def _count(key, value) -> int:
    try:
        return positive_count(key, value)
    except InvalidArgument:
        raise _wrong(key, "a positive integer", value) from None


_POSITIVE = _kind("a positive number", lambda v: _number(v) and v > 0)
_NUMBER = _kind("a finite number", _number)
_SEED = _kind("an integer in [0, 2**64)",
              lambda v: type(v) is int and 0 <= v < 2 ** 64)
_SIDE = _kind("-1 or 1", lambda v: type(v) is int and v in (-1, 1))
_FLAG = _kind("true or false", lambda v: isinstance(v, bool))
_NUMBERS = _kind("a non-empty list of numbers",
                 lambda v: _nonempty(v, _number))
_POSITIVES = _kind("a non-empty list of positive numbers",
                   lambda v: _nonempty(v, lambda x: _number(x) and x > 0))
_RANGE = _kind("[lo, hi] with 0 < lo < hi",
               lambda v: isinstance(v, list) and len(v) == 2
               and all(map(_number, v)) and 0 < v[0] < v[1])


def _nested(schema: dict) -> tuple:
    """(default, kind) of a nested object, merged over its own defaults."""
    return ({k: default for k, (default, _) in schema.items()},
            lambda key, value: _merge_config(schema, value, key))


#: surface variant -> its class, whose fields are the variant's keys
_SURFACES = {"plane": geo.Hyperplane, "sphere": geo.Sphere, "cylinder": geo.Cylinder,
             "helicoid": geo.Helicoid, "catenoid": geo.Catenoid}
_VARIANT = _one_of(*_SURFACES)
_RADIAL_VARIANTS = [v for v, cls in _SURFACES.items() if cls.is_radial]
_RADIAL = _one_of(*_RADIAL_VARIANTS)
#: the kind of a surface field, by its type; the surface checks its range
_FIELD_KIND = {"int": _count, "float": _NUMBER}


def _keys(*variants) -> dict:
    """{key: (default, kind)} of the fields of the surfaces `variants`."""
    return {f.name: (f.default, _FIELD_KIND[f.type]) for v in variants
            for f in dataclasses.fields(_SURFACES[v])}


def _surface(variant: str, values: Mapping) -> geo.Surface:
    """The catalog surface `variant`, built from the keys of `values` it
    reads; a value the surface rejects is a config error."""
    keys = {k: values[k] for k in _keys(variant) if k in values}
    try:
        return _SURFACES[variant](**keys)
    except InvalidArgument as exc:
        raise ConfigError(f"{exc}, got {json.dumps(keys)}") from None


def _surface_spec(key, spec) -> dict:
    """A wkb surface: a variant and the keys it reads, over their defaults."""
    if not isinstance(spec, dict):
        raise _wrong(key, "a JSON object", spec)
    variant = _VARIANT("variant", spec.get("variant"))
    return _merge_config({"variant": (variant, _VARIANT), **_keys(variant)},
                         spec, f"the {variant} surface")


def _wkb_ray(cfg: dict) -> None:
    """A wkb ray reads the tables of its surface, which must build: `order`
    at most one past the table order, `q` in the q box ([0, 0] if radial)."""
    variant, n, q = cfg["surface"]["variant"], cfg["order"], cfg["q"]
    order, _, q_box = wkb.table_box(_surface(variant, cfg["surface"]))
    if n > order + 1:
        raise _wrong("order", f"at most {order + 1} on the {variant}", n)
    lo, hi = q_box or (0.0, 0.0)
    if not lo <= q <= hi:
        raise _wrong("q", f"in [{lo:.6g}, {hi:.6g}] on the {variant}", q)


def _merge_config(schema: dict, override: dict, context: str) -> dict:
    """The defaults of `schema` ({key: (default, kind)}) with the values of
    the object `override`, each checked against its key's kind.  Where a
    `kind` names the surface, the surface must build, and setting a surface
    key it does not read is an error too; so is a `wkb` ray off the tables."""
    if not isinstance(override, dict):
        raise _wrong(context, "a JSON object", override)
    out = {key: default for key, (default, _) in schema.items()}
    for key, value in override.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {context} "
                              f"(known: {sorted(schema)})")
        out[key] = schema[key][1](key, value)
    if "kind" in out:
        unread = override.keys() & _keys(*_SURFACES) - _keys(out["kind"]).keys()
        if unread:
            raise ConfigError(f"kind {out['kind']!r} does not read "
                              f"{sorted(unread)} in {context}")
        _surface(out["kind"], out)
    if "surface" in out:
        _wkb_ray(out)
    return out


def _pinned(defaults: Mapping, **kinds) -> dict:
    """{key: (default, kind)} of settings pinned in `acceptance`."""
    return {key: (defaults[key], kind) for key, kind in kinds.items()}


_MEDIUM = _nested(_pinned(acceptance.MEDIUM, sigma_s=_POSITIVE,
                          sigma_m=_POSITIVE))


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
# subcommands: each runs a config checked against its keys in _RUNNERS
# ---------------------------------------------------------------------------

def run_kernel1d(cfg: dict, outdir: str) -> tuple:
    med = TwoPhaseMedium(**cfg["medium"])
    X, T = np.meshgrid(cfg["x1"], cfg["t"], indexing="ij")
    uq, uc = k1.halfline_quadrature(X, T, med), k1.halfline_closed_form(X, T, med)
    diff = np.abs(uq - uc)
    worst = float(diff.max(initial=0.0))
    rows = [(x1, t, *vals) for (x1, t), *vals in zip(
        itertools.product(cfg["x1"], cfg["t"]), uq.ravel().tolist(),
        uc.ravel().tolist(), diff.ravel().tolist())]
    path = os.path.join(outdir, "kernel1d.csv")
    _write_csv(path, ["x1", "t", "u_quadrature", "u_closed_form", "abs_diff"],
               rows)
    print(f"kernel1d: {len(rows)} points, max two-way diff {worst:.3e}")
    return path, 0 if worst < cfg["tolerance"] else 1


def run_simulate(cfg: dict, outdir: str) -> tuple:
    probes = cfg["probes"]
    med = TwoPhaseMedium(**cfg["medium"])
    t_end = max(cfg["t_grid"])
    grid = par.interface_grid(_surface(cfg["kind"], cfg), med,
                              h_fine=cfg["h_fine"],
                              far=par.far_wall_distance(med, t_end))
    times = par.geometric_times(cfg["t_start"], t_end, include=cfg["t_grid"])
    series = par.evolve(grid, times, [x for x in probes if x != "interface"])
    mask = np.isin(series.times, cfg["t_grid"])
    rows = []
    for pid, x in enumerate(probes):
        vals = (series.interface_values()[mask] if x == "interface"
                else series.probe(x)[mask])
        for t, u in zip(series.times[mask], vals):
            rows.append((t, pid, u))
    path = os.path.join(outdir, "simulate.csv")
    _write_csv(path, ["t", "probe_id", "u"], rows)
    print(f"simulate: {cfg['kind']} interface, {len(rows)} samples")
    return path, 0


def run_transform(cfg: dict, outdir: str) -> tuple:
    probes = cfg["probes"]
    med = TwoPhaseMedium(**cfg["medium"])
    k = med.k
    grid = par.interface_grid(geo.Hyperplane(), med, h_fine=cfg["h_fine"],
                              far=10.0)
    times = par.geometric_times(1e-7, cfg["t_end"], ratio=1.05)
    series = par.evolve(grid, times, probes)
    rows = []
    worst = 0.0
    for lam in cfg["lambdas"]:
        tr = par.laplace_stieltjes(series, lam, probes, tol=cfg["tolerance"])
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
    print(f"transform: max |w_time - w_elliptic| = {worst:.3e}")
    return path, 0 if worst < 2e-3 else 1


def run_wkb(cfg: dict, outdir: str) -> tuple:
    surf = _surface(cfg["surface"]["variant"], cfg["surface"])
    side, n = cfg["side"], cfg["order"]
    eng = wkb.coefficient_engine(surf, side)
    taus = np.linspace(0.0, eng.delta0, cfg["n_points"])
    table = wkb.compute_coefficients(surf, cfg["q"], n, side=side, taus=taus)
    header = (["tau"] + [f"A{j}" for j in range(n)]
              + [f"A{n}_plus", f"A{n}_minus", "residual_max"])
    # the identity residuals of every interior ray point, one call per j <= n
    h = wkb.IDENTITY_STEP
    inner = (taus > 2 * h) & (taus < eng.delta0 - 2 * h)
    pts = eng.ray_points(cfg["q"], taus[inner])
    residual = np.full(len(taus), np.nan)
    residual[inner] = np.max(
        [wkb.gradient_identity_residual(surf, j, pts, side=side)
         for j in range(n + 1)], axis=0)
    rows = []
    for i, tau in enumerate(taus):
        row = [tau] + [table.A[j][i] for j in range(n)]
        row += [table.An_plus[i], table.An_minus[i], residual[i]]
        rows.append(row)
    path = os.path.join(outdir, "wkb.csv")
    _write_csv(path, header, rows)
    print(f"wkb: order-{n} ray table with {len(taus)} samples")
    return path, 0


def run_extract_curvature(cfg: dict, outdir: str) -> tuple:
    med = TwoPhaseMedium(**cfg["medium"])
    surface = _surface(cfg["geometry"]["kind"], cfg["geometry"])
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
    print(f"extract-curvature: sum kappa = {fit.sum_kappa_estimate:.6f} "
          f"(target {sum(surface.kappas_at(0.0))})")
    return path, 0


def run_maxprinciple(cfg: dict, outdir: str) -> tuple:
    rep = ell.discrete_max_principle_check(cfg["lam"], cfg["trials"],
                                           cfg["seed"], cfg["n"],
                                           cfg["sigma_range"])
    payload = dict(rep)
    if cfg["counterexample"]:
        payload["lambda0_counterexample"] = ell.annulus_counterexample()
    path = os.path.join(outdir, "maxprinciple.json")
    _write_json(path, payload)
    print(f"maxprinciple: min value {rep['min_value']:.3e} over "
          f"{rep['trials']} trials")
    return path, 0 if acceptance.positivity_check(rep).passed else 1


def run_helicoid(cfg: dict, outdir: str, *, jobs: int) -> tuple:
    records, _ = hl.half_value_checks(
        cfg["n_samples"], cfg["seed"], cfg["t_values"], cfg["r_values"],
        cfg["symmetry_samples"], jobs)
    path = os.path.join(outdir, "helicoid.json")
    _write_json(path, records)
    n_fail = sum(not r["pass"] for r in records)
    print(f"helicoid: {len(records)} checks, {n_fail} failures")
    return path, 0 if n_fail == 0 else 1


def run_acceptance(cfg: dict, outdir: str, *, jobs: int) -> tuple:
    records = acceptance.run_all(jobs, names=cfg["criteria"])
    # runtimes go to stdout only, so the artifact is seed-deterministic
    payload = [{"name": r.name, "pass": r.passed, "details": r.details,
                "checks": [{**dataclasses.asdict(c), "pass": c.passed}
                           for c in r.checks]} for r in records]
    path = os.path.join(outdir, "acceptance.json")
    _write_json(path, payload)
    return path, 0 if all(r.passed for r in records) else 1


# ---------------------------------------------------------------------------

_CRITERIA = [name for name, _ in acceptance.CRITERIA]

#: subcommand -> (runner, its keys as {key: (default, kind)}): the schema
_RUNNERS = {
    "kernel1d": (run_kernel1d, {
        "medium": _MEDIUM, "x1": ([0.0], _NUMBERS),
        "t": (list(np.geomspace(1e-3, 1e3, 13)), _POSITIVES),
        "tolerance": (k1.TWO_WAY_TOL, _POSITIVE)}),
    "simulate": (run_simulate, {
        "medium": _MEDIUM, "kind": ("plane", _RADIAL), "R": _keys("sphere")["R"],
        "t_grid": (list(np.geomspace(1e-2, 1.0, 9)), _POSITIVES),
        "probes": (["interface"], _kind(
            'a non-empty list of numbers or "interface"',
            lambda v: _nonempty(v, lambda x: x == "interface" or _number(x)))),
        "h_fine": (2e-3, _POSITIVE), "t_start": (1e-6, _POSITIVE)}),
    "transform": (run_transform, {
        "medium": _MEDIUM, "lambdas": ([25.0, 50.0, 100.0, 200.0], _POSITIVES),
        "probes": ([-0.4, -0.1, 0.0, 0.05, 0.3], _NUMBERS),
        "t_end": (0.8, _POSITIVE), "h_fine": (1e-3, _POSITIVE),
        "tolerance": (1e-5, _POSITIVE)}),
    "wkb": (run_wkb, {
        "surface": (_surface_spec("surface", {"variant": "sphere"}),
                    _surface_spec),
        "side": (-1, _SIDE), "order": (2, _count), "q": (0.0, _NUMBER),
        "n_points": (33, _count)}),
    "extract-curvature": (run_extract_curvature, {
        "medium": _MEDIUM,
        "geometry": _nested({"kind": ("sphere", _RADIAL),
                             **_keys(*_RADIAL_VARIANTS)}),
        **_pinned(acceptance.CURVATURE_SWEEP, lambda_range=_RANGE,
                  per_decade=_count)}),
    "maxprinciple": (run_maxprinciple, {
        **_pinned(acceptance.MAX_PRINCIPLE, lam=_POSITIVE, trials=_count,
                  seed=_SEED, n=_count, sigma_range=_RANGE),
        "counterexample": (True, _FLAG)}),
    "helicoid": (run_helicoid, _pinned(
        acceptance.HALF_VALUE, n_samples=_count, seed=_SEED,
        t_values=_POSITIVES, r_values=_POSITIVES, symmetry_samples=_count)),
    "all": (run_acceptance, {"criteria": (None, _kind(
        f"null or a non-empty list of names from {json.dumps(_CRITERIA)}",
        lambda v: v is None or _nonempty(v, lambda x: x in _CRITERIA)))}),
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
    runner, schema = _RUNNERS[args.subcommand]
    try:
        config = {}
        if args.config is not None:
            with open(args.config) as fh:
                config = json.load(fh)
        if args.seed is not None and isinstance(config, dict):
            config["seed"] = args.seed  # any other root is rejected below
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = _merge_config(schema, config, f"the {args.subcommand} config")
        os.makedirs(args.out, exist_ok=True)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    jobs = {"jobs": args.jobs} if args.subcommand in ("helicoid", "all") else {}
    try:
        path, code = runner(cfg, args.out, **jobs)
    except TwoPhaseError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    _manifest(args.out, args.subcommand, cfg, [path])
    return code


if __name__ == "__main__":
    sys.exit(main())
