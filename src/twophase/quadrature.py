"""Batched adaptive Gauss-Kronrod quadrature of sums of Gaussians.

One `integrate_adaptive` call integrates a batch of problems: each refinement
round evaluates the integrand once, on the 21 Kronrod nodes of every open
interval of every problem, so numpy's per-call overhead is paid per round,
not per node.  The truncation policy for Gaussian tails lives here too.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, QuadratureFailure

#: absolute tolerance of every adaptive integration
DEFAULT_TOL = 1e-12

#: Gaussian tails are truncated this many standard deviations out
GAUSSIAN_CUTOFF_STD = 40.0

#: refinement budget: subintervals per problem
MAX_SUBINTERVALS = 200

# QUADPACK's qk21 rule (Piessens et al., QUADPACK, Springer 1983) on the 21
# nodes in increasing order; the 10-point Gauss rule weights every 2nd node
_XGK = [0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122, 0.0]
_WGK = [0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169]
_WG = [0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0,
       0.21908636251598204, 0.0, 0.26926671930999635, 0.0,
       0.29552422471475287, 0.0]
_X = np.array([-v for v in _XGK[:-1]] + _XGK[::-1])
_WK, _WG = (np.array(w[:-1] + w[::-1]) for w in (_WGK, _WG))


def _qk21(fy: np.ndarray, half: np.ndarray):
    """Kronrod value and QUADPACK's qk21 error estimate of each row of fy;
    row sums, so that a row's result does not depend on the other rows."""
    resk, resg = (fy * _WK).sum(axis=1), (fy * _WG).sum(axis=1)
    resabs = (np.abs(fy) * _WK).sum(axis=1) * half
    resasc = (np.abs(fy - 0.5 * resk[:, None]) * _WK).sum(axis=1) * half
    err = np.abs((resk - resg) * half)
    ratio = np.divide(200.0 * err, resasc, out=np.zeros_like(err),
                      where=resasc > 0.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return resk * half, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def integrate_adaptive(f, a, b, *args):
    """Integrate f(y, *args) over [a, b] for every problem of a batch.

    `a`, `b` and `args` broadcast to the shape of the batch.  `f` receives
    an (intervals x 21) node array and each arg gathered per interval as a
    column; its result is broadcast to the node array.  An interval is
    accepted when its qk21 error estimate is at most DEFAULT_TOL x (its
    length / its problem's length), so the accepted errors of a problem sum
    to at most DEFAULT_TOL; every other interval is bisected.  Returns a
    float for scalar inputs, else an array of the batch's shape.

    An empty interval (b == a) integrates to 0; a reversed one (b < a)
    raises InvalidArgument.  Raises QuadratureFailure when a problem needs
    more than MAX_SUBINTERVALS subintervals or f returns a non-finite value.
    """
    a, b, *args = np.broadcast_arrays(np.asarray(a, dtype=float),
                                      np.asarray(b, dtype=float), *args)
    shape, a, b, args = a.shape, a.ravel(), b.ravel(), [v.ravel() for v in args]
    if np.any(b < a):
        raise InvalidArgument(f"reversed interval [{a[b < a][0]}, {b[b < a][0]}]")
    total, pieces = np.zeros(a.size), np.ones(a.size, dtype=int)
    pid = np.flatnonzero(b > a)
    lo, hi = a[pid], b[pid]
    while pid.size:
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y = center[:, None] + half[:, None] * _X
        fy = np.broadcast_to(f(y, *(v[pid, None] for v in args)), y.shape)
        if not np.all(np.isfinite(fy)):
            raise QuadratureFailure("non-finite integrand value")
        value, err = _qk21(fy, half)
        done = err <= DEFAULT_TOL * (hi - lo) / (b - a)[pid]
        np.add.at(total, pid[done], value[done])
        pid, lo, mid, hi = (v[~done] for v in (pid, lo, center, hi))
        np.add.at(pieces, pid, 1)
        if pieces.max() > MAX_SUBINTERVALS:
            i = np.argmax(pieces)
            raise QuadratureFailure(f"more than {MAX_SUBINTERVALS} "
                                    f"subintervals needed on [{a[i]}, {b[i]}]")
        pid, lo, hi = np.tile(pid, 2), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return float(total[0]) if shape == () else total.reshape(shape)
