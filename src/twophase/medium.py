"""Conductivity pairs, the interface constant, and one-phase Gaussian kernels.

A two-phase conductor takes one constant conductivity sigma_s inside the
domain and another sigma_m outside.  Everything downstream is built from
these two numbers and from the one-dimensional Gaussian kernel

    (4 pi t sigma)^(-1/2) exp(-z^2 / (4 t sigma)),

the fundamental solution of u_t = sigma u_zz.  Conductivities are plain
positive reals; the problem is nondimensional and no unit system is
enforced.  All values here are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


@dataclass(frozen=True)
class TwoPhaseMedium:
    """Conductivity pair (sigma_s inside, sigma_m outside).

    Equal conductivities are permitted; the interface constant is then
    exactly 1/2.
    """

    sigma_s: float
    sigma_m: float

    def __post_init__(self):
        for name in ("sigma_s", "sigma_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidArgument(f"{name} must be a positive real, got {value!r}")

    @property
    def M(self) -> float:
        """Upper conductivity bound max(sigma_s, sigma_m)."""
        return max(self.sigma_s, self.sigma_m)

    @property
    def k(self) -> float:
        """Interface constant sqrt(sigma_m) / (sqrt(sigma_s) + sqrt(sigma_m))."""
        return interface_constant(self)

    def side_conductivity(self, side: int) -> float:
        """Conductivity of one side of the interface: -1 inside, +1 outside."""
        if side == -1:
            return self.sigma_s
        if side == +1:
            return self.sigma_m
        raise InvalidArgument(f"side must be -1 or +1, got {side!r}")

    def side_value(self, side: int) -> float:
        """Interface value of the decaying function: k inside, 1 - k outside."""
        if side == -1:
            return self.k
        if side == +1:
            return 1.0 - self.k
        raise InvalidArgument(f"side must be -1 or +1, got {side!r}")


def interface_constant(medium: TwoPhaseMedium) -> float:
    """Temperature value forced on the interface in the small-time limit.

    Exactly sqrt(sigma_m) / (sqrt(sigma_s) + sqrt(sigma_m)); lies in (0, 1),
    equals 1/2 iff the two conductivities coincide, and satisfies the swap
    duality k(a, b) + k(b, a) = 1.
    """
    rs = math.sqrt(medium.sigma_s)
    rm = math.sqrt(medium.sigma_m)
    return rm / (rs + rm)


def gaussian_kernel(z, t, sigma):
    """One-phase heat kernel (4 pi t sigma)^(-1/2) exp(-z^2/(4 t sigma)).

    Even in z, unit mass in z for every t > 0, and obeys the scaling
    kernel(z, t, sigma) = kernel(z / sqrt(sigma), t, 1) / sqrt(sigma).
    Broadcasts over z, t and sigma.
    """
    if not (np.asarray(t) > 0.0).all():
        raise InvalidArgument(f"t must be positive, got {t!r}")
    if not (np.asarray(sigma) > 0.0).all():
        raise InvalidArgument(f"sigma must be positive, got {sigma!r}")
    z = np.asarray(z, dtype=float)
    val = np.exp(-(z * z) / (4.0 * t * sigma)) / np.sqrt(4.0 * math.pi * t * sigma)
    return val if val.ndim else float(val)
