"""Seeded inputs and timed bodies of the three benchmark workloads.

`make_inputs(name, seed, workdir)` runs in the child's set-up, before the
clock starts: it writes the CLI configs and builds the point sets, and
returns them with a digest.  `run(name, inputs, outdir, notes)` is the
timed region: it calls only the package's public API or `twophase.cli.main`,
and checks every output it produces, returning `[(check, passed), ...]`.

The seed reaches the package only through the generated configs and point
sets.  `gate` has pinned inputs, so its seed does not apply.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from twophase import cli, wkb
from twophase import geometry as geo
from twophase import helicoid as hl
from twophase.medium import TwoPhaseMedium

MEDIUM = TwoPhaseMedium(1.0, 4.0)

#: wkb-catalog: the acceptance suite's five surfaces, each on both sides
CATALOG = [
    ("plane", {"variant": "plane", "N": 3}, geo.Hyperplane(N=3)),
    ("sphere", {"variant": "sphere", "R": 1.0, "N": 3}, geo.Sphere(R=1.0, N=3)),
    ("cylinder", {"variant": "cylinder", "R": 2.0, "N": 3},
     geo.Cylinder(R=2.0, N=3)),
    ("helicoid", {"variant": "helicoid"}, geo.Helicoid()),
    ("catenoid", {"variant": "catenoid", "c": 1.0}, geo.Catenoid(c=1.0)),
]
SIDES = (-1, +1)

#: collar points per surface/side pair at which every A_j and Lap A_j is read
WKB_POINTS = 20_000
#: the acceptance gate's identity tolerance, on the collar fraction it samples
#: (tau <= 0.75 delta0); the wkb table also reaches the far collar wall, where
#: the residual is recorded but not held to the tolerance
WKB_RESIDUAL_TOL = 1e-4
WKB_RESIDUAL_DEPTH = 0.75
#: the A_0 closed form against the engine's projected evaluation
A0_TOL = 1e-9

#: lab sizes (the CLI defaults enlarged so each subcommand does real work)
KERNEL_X1, KERNEL_T = 30, 30
MC_SAMPLES = 10 ** 6
MAXPRINCIPLE_TRIALS = 500
H_FINE = 1e-4
TRANSFORM_H_FINE = 1e-4
PER_DECADE = 200
#: flat-interface constancy of `simulate`: its grid keeps the default far-field
#: cell size (h_max = 0.05), which holds u = k to 3.5e-6 at every h_fine; the
#: acceptance's 1e-6 belongs to its finer h_max = 0.02
PLANE_TOL = 1e-5


def _write_json(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest(configs: dict, arrays: list) -> str:
    h = hashlib.sha256()
    for key in sorted(configs):
        h.update(key.encode())
        h.update(json.dumps(configs[key], sort_keys=True).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pair_label(name: str, side: int) -> str:
    return f"{name}_{'inside' if side == -1 else 'outside'}"


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def _gate_inputs(seed: int, workdir: str) -> dict:
    return {"digest": _digest({"gate": "pinned acceptance inputs"}, [])}


def _gate_run(inputs: dict, outdir: str, notes: dict) -> list:
    rc = cli.main(["all", "--out", outdir])
    records = _read_json(os.path.join(outdir, "acceptance.json"))
    checks = [("all.exit_code", rc == 0),
              ("all.criteria", len(records) == 11)]
    checks += [(f"all.{r['name']}", r["pass"] is True) for r in records]
    return checks


# ---------------------------------------------------------------------------
# wkb-catalog
# ---------------------------------------------------------------------------

def _side_kappas(surface, side: int, q) -> np.ndarray:
    """Principal curvatures seen from `side` (inward convention flipped
    outside), one row per footpoint parameter q."""
    if surface.is_radial:
        z = np.zeros(surface.N)
        z[0] = getattr(surface, "R", 0.0)
        kap = np.broadcast_to(surface.kappas(z), (len(q), surface.N - 1))
    else:
        kap = surface.kappas_at(q)
    return -kap if side == +1 else kap


def collar_points(surface, side: int, n: int, rng) -> tuple:
    """n points of the collar on `side`, with footpoint parameter q, depth
    tau in [0.05, 0.85] delta0 and the closed-form A_0 at each.

    Minimal surfaces: points on the normal ray through point_at(q), then a
    random screw motion (helicoid) or rotation about the axis (catenoid),
    both symmetries of the surface, so the projection sees general points.
    """
    tau = rng.uniform(0.05, 0.85, n) * surface.delta0
    march = -1.0 if side == +1 else 1.0      # +1: away from Omega
    if isinstance(surface, geo.Hyperplane):
        q = np.zeros(n)
        X = rng.uniform(-2.0, 2.0, (n, 3))
        X[:, 0] = march * tau                 # Omega = {x1 > 0}
    elif isinstance(surface, geo.Sphere):
        q = np.zeros(n)
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        X = (surface.R - march * tau)[:, None] * u
    elif isinstance(surface, geo.Cylinder):
        q = np.zeros(n)
        theta = rng.uniform(-math.pi, math.pi, n)
        rho = surface.R - march * tau
        X = np.stack([rho * np.cos(theta), rho * np.sin(theta),
                      rng.uniform(-2.0, 2.0, n)], axis=1)
    else:
        scale = getattr(surface, "c", 1.0)
        q = rng.uniform(-0.5, 0.5, n) * scale
        X = (surface.point_at(q)
             + march * tau[:, None] * surface.inward_normal_at(q))
        alpha = rng.uniform(-math.pi, math.pi, n)
        if isinstance(surface, geo.Helicoid):
            X = hl.screw_many(X, alpha)
        else:
            c, s = np.cos(alpha), np.sin(alpha)
            X = np.stack([X[:, 0] * c - X[:, 1] * s,
                          X[:, 0] * s + X[:, 1] * c, X[:, 2]], axis=1)
    kap = _side_kappas(surface, side, q)
    a0 = np.prod(1.0 - kap * tau[:, None], axis=1) ** -0.5
    return X, a0


def _wkb_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    pairs, configs, arrays = [], {}, []
    for name, spec, surface in CATALOG:
        for side in SIDES:
            label = _pair_label(name, side)
            q0 = 0.0 if surface.is_radial else float(
                rng.uniform(-0.4, 0.4) * getattr(surface, "c", 1.0))
            cfg = {"surface": spec, "side": side, "order": 2, "q": q0,
                   "n_points": 33}
            configs[label] = cfg
            X, a0 = collar_points(surface, side, WKB_POINTS, rng)
            arrays += [X, a0]
            pairs.append({"label": label, "surface": surface, "side": side,
                          "config": _write_json(
                              os.path.join(workdir, f"wkb-{label}.json"), cfg),
                          "X": X, "a0": a0})
    return {"pairs": pairs, "digest": _digest(configs, arrays)}


def _wkb_run(inputs: dict, outdir: str, notes: dict) -> list:
    checks = []
    for pair in inputs["pairs"]:
        label, surface, side = pair["label"], pair["surface"], pair["side"]
        out = os.path.join(outdir, label)
        # 1-2: cold engine build, ray table and identity residuals
        rc = cli.main(["wkb", "--config", pair["config"], "--out", out])
        checks.append((f"{label}.wkb.exit_code", rc == 0))
        rows = [(float(r["tau"]), float(r["residual_max"])) for r in
                _read_csv(os.path.join(out, "wkb.csv"))]
        depth = WKB_RESIDUAL_DEPTH * surface.delta0
        inner = [res for tau, res in rows
                 if math.isfinite(res) and tau <= depth]
        checks.append((f"{label}.wkb.residuals",
                       len(inner) > 0 and max(inner) < WKB_RESIDUAL_TOL))
        notes[f"{label}.residual_max_full_collar"] = max(
            res for _, res in rows if math.isfinite(res))
        # 3: barrier thresholds from the cached engine
        eng = wkb.coefficient_engine(surface, side)
        for n in (1, 2):
            th = wkb.calibrate_thresholds(surface, MEDIUM, n, side=side,
                                          engine=eng)
            checks.append((f"{label}.threshold_n{n}",
                           math.isfinite(th.lam_min) and th.lam_min > 0.0))
        # 4: table reads at the seeded collar points
        X = pair["X"]
        values_finite = True
        for j in range(eng.table_order + 1):
            field = eng.field(j, X)
            lap = eng.laplacian(j, X)
            values_finite &= bool(np.all(np.isfinite(field))
                                  and np.all(np.isfinite(lap)))
            if j == 0:
                a0_err = float(np.max(np.abs(field - pair["a0"])))
        checks.append((f"{label}.fields_finite", values_finite))
        checks.append((f"{label}.a0_closed_form", a0_err < A0_TOL))
    return checks


# ---------------------------------------------------------------------------
# lab
# ---------------------------------------------------------------------------

def _lab_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    maxprinciple_seed = int(rng.integers(1, 2 ** 31))
    R_sphere = float(rng.uniform(0.8, 1.5))
    R_cyl = float(rng.uniform(1.5, 2.5))
    configs = {
        "kernel1d": {
            "x1": sorted(rng.uniform(-2.0, 2.0, KERNEL_X1).tolist()),
            "t": sorted((10.0 ** rng.uniform(-2.0, 1.0, KERNEL_T)).tolist())},
        "helicoid": {"n_samples": MC_SAMPLES},
        "maxprinciple": {"trials": MAXPRINCIPLE_TRIALS},
        "simulate-sphere": {"kind": "sphere", "R": R_sphere,
                            "h_fine": H_FINE},
        "simulate-plane": {"kind": "plane", "h_fine": H_FINE},
        "transform": {
            "h_fine": TRANSFORM_H_FINE,
            "lambdas": sorted(rng.uniform(25.0, 200.0, 4).tolist()),
            "probes": sorted(rng.uniform(-0.4, 0.3, 5).tolist())},
        "extract-sphere": {"geometry": {"kind": "sphere", "R": R_sphere,
                                        "N": 3},
                           "per_decade": PER_DECADE},
        "extract-cylinder": {"geometry": {"kind": "cylinder", "R": R_cyl,
                                          "N": 3},
                             "per_decade": PER_DECADE},
    }
    paths = {k: _write_json(os.path.join(workdir, f"{k}.json"), v)
             for k, v in configs.items()}
    return {"configs": configs, "paths": paths, "seed": maxprinciple_seed,
            "jobs": os.cpu_count() or 1,
            "digest": _digest({**configs, "seed": maxprinciple_seed}, [])}


def _lab_run(inputs: dict, outdir: str, notes: dict) -> list:
    cfg, paths = inputs["configs"], inputs["paths"]
    checks = []

    def sub(label, command, *extra):
        out = os.path.join(outdir, label)
        rc = cli.main([command, "--config", paths[label], "--out", out,
                       *extra])
        checks.append((f"{label}.exit_code", rc == 0))
        return out

    out = sub("kernel1d", "kernel1d")
    rows = _read_csv(os.path.join(out, "kernel1d.csv"))
    checks.append(("kernel1d.points", len(rows) == KERNEL_X1 * KERNEL_T))

    # no --seed: the MC runs at the subcommand's pinned seed, as in the gate.
    # Its ten 3-standard-error pass flags fail together by chance on ~3% of
    # seeds, and the cost of the MC does not depend on the seed.
    out = sub("helicoid", "helicoid", "--jobs", str(inputs["jobs"]))
    records = _read_json(os.path.join(out, "helicoid.json"))
    checks += [(f"helicoid.{r['test']}", r["pass"] is True) for r in records]

    out = sub("maxprinciple", "maxprinciple", "--seed", str(inputs["seed"]))
    rep = _read_json(os.path.join(out, "maxprinciple.json"))
    checks.append(("maxprinciple.min_value", rep["min_value"] >= -1e-10
                   and rep["trials"] == MAXPRINCIPLE_TRIALS))
    checks.append(("maxprinciple.counterexample",
                   rep["lambda0_counterexample"]["min_interior"] < -0.4))

    k = MEDIUM.k
    out = sub("simulate-plane", "simulate")
    u = [float(r["u"]) for r in _read_csv(os.path.join(out, "simulate.csv"))]
    notes["simulate-plane.max_deviation"] = max(abs(v - k) for v in u)
    checks.append(("simulate-plane.constant",
                   notes["simulate-plane.max_deviation"] < PLANE_TOL))
    out = sub("simulate-sphere", "simulate")
    u = [float(r["u"]) for r in _read_csv(os.path.join(out, "simulate.csv"))]
    checks.append(("simulate-sphere.drifts",
                   all(0.0 <= v <= 1.0 for v in u)
                   and max(abs(v - k) for v in u) > 1e-2))

    out = sub("transform", "transform")
    diffs = [float(r["diff"]) for r in
             _read_csv(os.path.join(out, "transform.csv"))]
    checks.append(("transform.agreement", max(diffs) < 2e-3))

    for label in ("extract-sphere", "extract-cylinder"):
        out = sub(label, "extract-curvature")
        rows = _read_csv(os.path.join(out, "extract_curvature.csv"))
        g = cfg[label]["geometry"]
        target = (g["N"] - 1 if g["kind"] == "sphere" else 1) / g["R"]
        estimate = float(rows[-1]["sigma_kappa_estimate"])
        checks.append((f"{label}.sum_kappa",
                       abs(estimate - target) < 0.01 * target))
    return checks


_WORKLOADS = {
    "gate": (_gate_inputs, _gate_run),
    "wkb-catalog": (_wkb_inputs, _wkb_run),
    "lab": (_lab_inputs, _lab_run),
}


def make_inputs(name: str, seed: int, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    return _WORKLOADS[name][0](seed, workdir)


def run(name: str, inputs: dict, outdir: str, notes: dict) -> list:
    """Timed body; `notes` receives measured values that are reported but
    not held to a tolerance."""
    return _WORKLOADS[name][1](inputs, outdir, notes)
