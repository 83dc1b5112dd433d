"""The benchmark's tracer wraps package functions by name; a renamed or
removed function must fail here rather than break a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

from twophase import elliptic as ell
from twophase import geometry as geo
from twophase import kernel1d as k1
from twophase import quadrature
from twophase.medium import TwoPhaseMedium

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    from tracer import Tracer
    return layers, Tracer()


def test_benchmark_layers_instrument_and_restore(monkeypatch):
    layers, tr = _tracing(monkeypatch)
    original = ell.solve_radial_transmission
    try:
        layers.instrument(tr)
        assert ell.solve_radial_transmission is not original
        ell.solve_radial_transmission(geo.Sphere(), 10.0, TwoPhaseMedium(1.0, 4.0))
        metrics = layers.collect(tr)
    finally:
        assert tr.restore()
    assert ell.solve_radial_transmission is original
    assert metrics["elliptic.solve_radial_transmission.calls"] == 1


def test_benchmark_layers_see_one_batched_quadrature(monkeypatch):
    # the kernel1d layer of the lab trace: one grid is one quadrature call,
    # made through the names the tracer wraps
    layers, tr = _tracing(monkeypatch)
    names = [(k1, "halfline_quadrature"), (k1, "eval_kernel"),
             (k1, "integrate_adaptive"), (quadrature, "integrate_adaptive")]
    originals = [getattr(owner, attr) for owner, attr in names]
    X, T = np.meshgrid([-1.0, 0.0, 0.5], [0.01, 0.1, 1.0], indexing="ij")
    try:
        layers.instrument(tr)
        k1.halfline_quadrature(X, T, TwoPhaseMedium(1.0, 4.0))
        metrics = layers.collect(tr)
    finally:
        assert tr.restore()
    assert [getattr(owner, attr) for owner, attr in names] == originals
    assert metrics["kernel1d.halfline_quadrature.calls"] == 1
    assert metrics["quadrature.integrate_adaptive.calls"] == 1
    assert metrics["kernel1d.eval_kernel.calls"] >= 1
