"""Conductivity pairs and the interface constant.

A two-phase conductor takes one constant conductivity sigma_s inside the
domain and another sigma_m outside.  Everything downstream is built from
these two numbers.  Conductivities are plain positive reals; the problem
is nondimensional and no unit system is enforced.  A medium is immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        """Interface constant sqrt(sigma_m) / (sqrt(sigma_s) + sqrt(sigma_m)).

        The temperature forced on the interface in the small-time limit;
        lies in (0, 1), equals 1/2 iff the two conductivities coincide, and
        satisfies the swap duality k(a, b) + k(b, a) = 1.
        """
        rs = math.sqrt(self.sigma_s)
        rm = math.sqrt(self.sigma_m)
        return rm / (rs + rm)

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

