"""Numerical laboratory for two-phase heat conduction.

The package implements and cross-checks the constructive machinery behind
the rigidity of flat interfaces in two-phase heat conductors:

  * `medium`    -- conductivity pairs and the interface constant
  * `kernel1d`  -- the exact two-phase heat kernel on the line and its
                   half-line Cauchy solution (quadrature vs closed form)
  * `geometry`  -- surface catalog with signed distance, projections
                   and principal curvatures
  * `wkb`       -- barrier coefficients A_j, the forced pair A_{n,+-},
                   harmonic correctors, sub/supersolution barriers
  * `elliptic`  -- radial solvers for sigma Lap w = lambda w, curvature
                   extraction from large-rate asymptotics, grid solver,
                   discrete maximum-principle checks
  * `parabolic` -- time stepping from indicator data and the
                   Laplace-Stieltjes bridge to the elliptic family
  * `helicoid`  -- one-phase screw-symmetry identities and half-value
                   Monte-Carlo densities
  * `acceptance`, `cli` -- the acceptance suite and the `twophase` command

Importing the package defaults OpenBLAS, OpenMP and MKL to one thread each
(a variable the caller has set keeps its value): the package runs its own
`--jobs` pool, and BLAS threads on the same cores only compete with it.
The default takes effect only where `twophase` is imported before numpy,
as in the `twophase` script and `python -m twophase.cli`, and it reaches
child processes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .medium import TwoPhaseMedium

__all__ = ["TwoPhaseMedium"]
