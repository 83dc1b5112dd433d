"""Wrap the public functions of each twophase module and read off the
per-layer metrics of `metrics.PER_LAYER` from the recorded spans."""

from __future__ import annotations

import numpy as np

from twophase import acceptance
from twophase import elliptic as ell
from twophase import geometry as geo
from twophase import helicoid as hl
from twophase import kernel1d as k1
from twophase import parabolic as par
from twophase import quadrature, wkb

import metrics

_SURFACE = {"Hyperplane": "plane", "Sphere": "sphere", "Cylinder": "cylinder",
            "Helicoid": "helicoid", "Catenoid": "catenoid"}
_SIDE = {-1: "inside", 1: "outside"}

#: length-N vectors CG keeps besides the operator: b, x, r, z, p, A p and
#: the Jacobi diagonal
_CG_VECTORS = 7


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points(index, name):
    def measure(tr, span, args, kwargs, result):
        tr.count(name, len(np.atleast_2d(_arg(args, kwargs, index, "X"))))
    return measure


def _h_label(h) -> str:
    return f"h1_{round(1.0 / h)}" if h else "h_unknown"


def instrument(tr) -> None:
    """Install every wrapper on `tr`; `tr.restore()` removes them."""
    span = tr.wrap

    def patch(owner, attr, name, measure=None, attrs=None):
        tr.patch(owner, attr, lambda f: span(f, name, measure, attrs))

    # acceptance: run_all iterates the module-level CRITERIA list
    tr.patch(acceptance, "CRITERIA", lambda crit: [
        (n, span(fn, f"acceptance.{n}")) for n, fn in crit])

    # elliptic, grid
    def grid_attrs(args, kwargs):
        field = args[0]
        return {"h": field.h, "cells": int(field.sigma.size)}

    def grid_measure(tr, sp, args, kwargs, result):
        tr.count("elliptic.grid_modified_helmholtz.cells", sp[5]["cells"])

    patch(ell, "grid_modified_helmholtz", "elliptic.grid_modified_helmholtz",
          grid_measure, grid_attrs)
    patch(ell, "assemble_operator", "elliptic.assemble_operator")
    patch(ell, "spsolve", "elliptic.spsolve")

    def traced_cg(cg):
        def wrapper(A, b, *args, callback=None, **kwargs):
            parent = tr.current()
            h = parent[5].get("h") if parent else None
            iterations = [0]

            def count_iteration(xk):
                iterations[0] += 1
                if callback is not None:
                    callback(xk)

            sp = tr.begin("elliptic.cg", h=h)
            try:
                out = cg(A, b, *args, callback=count_iteration, **kwargs)
            finally:
                tr.end(sp)
            sp[5]["iterations"] = iterations[0]
            tr.count(f"elliptic.cg.iterations.{_h_label(h)}", iterations[0])
            op_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
            tr.count("elliptic.grid.bytes_computed",
                     op_bytes + _CG_VECTORS * A.shape[0] * A.dtype.itemsize)
            return out
        return wrapper

    tr.patch(ell, "cg", traced_cg)

    # elliptic, radial
    patch(ell, "solve_radial_dirichlet", "elliptic.solve_radial_dirichlet")
    patch(ell, "solve_radial_transmission", "elliptic.solve_radial_transmission")

    # wkb: builds, cache, reads
    def build_measure(tr, sp, args, kwargs, result):
        surface = _SURFACE.get(type(args[1]).__name__, type(args[1]).__name__)
        side = _SIDE.get(_arg(args, kwargs, 2, "side"), "unknown")
        sp[5]["pair"] = f"{surface}_{side}"
        tr.count(f"wkb.engine_build.{surface}_{side}.s", sp[4] - sp[3])

    patch(wkb.CoefficientEngine, "__init__", "wkb.engine_build", build_measure)

    def traced_engine(factory):
        def coefficient_engine(*args, **kwargs):
            hits = factory.cache_info().hits
            sp = tr.begin("wkb.coefficient_engine")
            try:
                return factory(*args, **kwargs)
            finally:
                tr.end(sp)
                tr.count("wkb.coefficient_engine.hits",
                         factory.cache_info().hits - hits)
        return coefficient_engine

    tr.patch(wkb, "coefficient_engine", traced_engine)
    patch(wkb.CoefficientEngine, "field", "wkb.field",
          _points(2, "wkb.field.points"))
    patch(wkb.CoefficientEngine, "laplacian", "wkb.laplacian",
          _points(2, "wkb.laplacian.points"))
    for name in ("calibrate_thresholds", "gradient_identity_residual",
                 "compute_coefficients"):
        patch(wkb, name, f"wkb.{name}")

    # geometry: Newton projections of the minimal surfaces
    for cls in (geo.Helicoid, geo.Catenoid):
        name = f"geometry.{cls.__name__}.project_batch"
        patch(cls, "project_batch", name, _points(1, name + ".points"))

    # kernel1d / quadrature (kernel1d bound integrate_adaptive at import)
    patch(k1, "halfline_quadrature", "kernel1d.halfline_quadrature")
    tr.patch(k1, "eval_kernel",
             lambda f: tr.counter(f, "kernel1d.eval_kernel.calls"))
    patch(quadrature, "integrate_adaptive", "quadrature.integrate_adaptive")
    patch(k1, "integrate_adaptive", "quadrature.integrate_adaptive")

    # parabolic
    def evolve_measure(tr, sp, args, kwargs, result):
        steps = len(result.times) - 1
        tr.count("parabolic.evolve.steps", steps)
        tr.count("parabolic.evolve.cell_steps", steps * result.U.shape[1])

    patch(par, "evolve", "parabolic.evolve", evolve_measure)
    patch(par, "laplace_stieltjes", "parabolic.laplace_stieltjes")

    # helicoid Monte Carlo
    def mc_measure(tr, sp, args, kwargs, result):
        tr.count("helicoid.mc.samples", result.n_samples)

    for name in ("u_gaussian_mc", "sphere_cap_density", "ball_density"):
        patch(hl, name, "helicoid.mc", mc_measure)
    patch(hl, "symmetry_identities_check", "helicoid.symmetry_identities_check")


def collect(tr) -> dict:
    """Per-layer metrics from the spans and counts (cli.* and trace.overhead_s
    are added by the parent, which sees both repeats)."""
    agg = tr.aggregate()
    counts = tr.counts

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    out = {}
    for c in metrics.CRITERIA:
        out[f"acceptance.{c}.wall_s"] = agg.get(f"acceptance.{c}", {}).get(
            "total_s", 0.0)
    g = "elliptic.grid_modified_helmholtz"
    out[f"{g}.calls"] = calls(g)
    out[f"{g}.cells"] = counts[f"{g}.cells"]
    out[f"{g}.self_s"] = self_s(g)
    for h in metrics.CG_LEVELS:
        out[f"elliptic.cg.iterations.{h}"] = counts[f"elliptic.cg.iterations.{h}"]
    for name in ("elliptic.cg", "elliptic.assemble_operator"):
        out[f"{name}.self_s"] = self_s(name)
    out["elliptic.grid.bytes_computed"] = counts["elliptic.grid.bytes_computed"]
    for name in ("elliptic.spsolve", "elliptic.solve_radial_dirichlet",
                 "elliptic.solve_radial_transmission",
                 "wkb.calibrate_thresholds", "wkb.gradient_identity_residual",
                 "kernel1d.halfline_quadrature",
                 "quadrature.integrate_adaptive", "parabolic.evolve"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["wkb.engine_build.count"] = calls("wkb.engine_build")
    out["wkb.engine_build.s"] = agg.get("wkb.engine_build", {}).get(
        "total_s", 0.0)
    for p in metrics.ENGINE_PAIRS:
        out[f"wkb.engine_build.{p}.s"] = counts[f"wkb.engine_build.{p}.s"]
    n_engine = calls("wkb.coefficient_engine")
    out["wkb.coefficient_engine.calls"] = n_engine
    out["wkb.coefficient_engine.hit_ratio"] = (
        counts["wkb.coefficient_engine.hits"] / n_engine if n_engine else 0.0)
    for name in ("wkb.field", "wkb.laplacian",
                 "geometry.Helicoid.project_batch",
                 "geometry.Catenoid.project_batch"):
        out[f"{name}.points"] = counts[f"{name}.points"]
        out[f"{name}.self_s"] = self_s(name)
    for name in ("wkb.compute_coefficients", "parabolic.laplace_stieltjes",
                 "helicoid.symmetry_identities_check"):
        out[f"{name}.self_s"] = self_s(name)
    out["kernel1d.eval_kernel.calls"] = counts["kernel1d.eval_kernel.calls"]
    out["parabolic.evolve.steps"] = counts["parabolic.evolve.steps"]
    out["parabolic.evolve.cell_steps"] = counts["parabolic.evolve.cell_steps"]
    samples, mc_s = counts["helicoid.mc.samples"], self_s("helicoid.mc")
    out["helicoid.mc.samples"] = samples
    out["helicoid.mc.self_s"] = mc_s
    out["helicoid.mc.samples_per_s"] = samples / mc_s if mc_s > 0 else 0.0
    out["trace.spans"] = len(tr.spans)
    return out
