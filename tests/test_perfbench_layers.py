"""The benchmark's tracer wraps package functions by name; a renamed or
removed function must fail here rather than break a traced benchmark run."""

import sys
from pathlib import Path

from twophase import elliptic as ell
from twophase import geometry as geo
from twophase.medium import TwoPhaseMedium

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_layers_instrument_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    from tracer import Tracer

    original = ell.solve_radial_transmission
    tr = Tracer()
    try:
        layers.instrument(tr)
        assert ell.solve_radial_transmission is not original
        ell.solve_radial_transmission(geo.Sphere(), 10.0, TwoPhaseMedium(1.0, 4.0))
        metrics = layers.collect(tr)
    finally:
        assert tr.restore()
    assert ell.solve_radial_transmission is original
    assert metrics["elliptic.solve_radial_transmission.calls"] == 1
