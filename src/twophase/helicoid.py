"""One-phase helicoid checks: symmetry identities and half-value densities.

The helicoid H = {(rho cos s, rho sin s, s)} bounds the open region

    Omega = {x : x2 cos x3 - x1 sin x3 > 0},

which is preserved by every screw motion k_alpha (rotation by alpha in the
x1-x2 plane followed by translation alpha along x3) and swapped with its
complement by the flip g(x) = (x1, -x2, -x3).  On H the two maps agree:
g = k_{-2 x3}.  For the one-phase heat flow started from the indicator of
the complement, uniqueness of bounded solutions turns those symmetries into
u(k_alpha x, t) = u(x, t) and u(g x, t) = 1 - u(x, t); combined on H they
force u = 1/2 there for all time.  The same scaling argument gives the
half-density identities: spheres and balls centered on H carry exactly half
their measure in the complement.

All of this is checked by seeded Monte Carlo with a counter-based
generator (Philox), split into fixed-order batches so estimates are
bit-for-bit reproducible for a given (seed, n_samples) and safe to farm
out to parallel workers.  Dimensions N >= 4 add flat factors R^(N-3); by
separation of variables the extra coordinates decouple, so they are not
simulated separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import InvalidArgument

_BATCH = 1 << 18


def in_omega(x) -> bool:
    """Side test x2 cos x3 - x1 sin x3 > 0 (False on the surface itself)."""
    x = np.asarray(x, dtype=float)
    return bool(x[1] * math.cos(x[2]) - x[0] * math.sin(x[2]) > 0.0)


def omega_indicator(X: np.ndarray) -> np.ndarray:
    """Vectorized indicator of Omega for an (m, 3) array of points."""
    return (X[:, 1] * np.cos(X[:, 2]) - X[:, 0] * np.sin(X[:, 2]) > 0.0)


def on_surface_value(x) -> float:
    """The defining function x2 cos x3 - x1 sin x3 (zero exactly on H)."""
    x = np.asarray(x, dtype=float)
    return float(x[1] * math.cos(x[2]) - x[0] * math.sin(x[2]))


def screw(x, alpha: float) -> np.ndarray:
    """Screw motion: rotation by alpha in the x1-x2 plane plus lift alpha."""
    x = np.asarray(x, dtype=float)
    c, s = math.cos(alpha), math.sin(alpha)
    if x.ndim == 1:
        return np.array([x[0] * c - x[1] * s, x[0] * s + x[1] * c, x[2] + alpha])
    return np.stack([x[..., 0] * c - x[..., 1] * s,
                     x[..., 0] * s + x[..., 1] * c,
                     x[..., 2] + alpha], axis=-1)


def flip(x) -> np.ndarray:
    """The involution g(x) = (x1, -x2, -x3), an isometry swapping the sides."""
    x = np.asarray(x, dtype=float)
    return x * np.array([1.0, -1.0, -1.0])


def helicoid_point(rho: float, s: float) -> np.ndarray:
    return np.array([rho * math.cos(s), rho * math.sin(s), s])


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error and provenance.

    stderr is the sample standard deviation over sqrt(n); reported
    intervals are mean +- 3 stderr.
    """

    mean: float
    stderr: float
    n_samples: int
    rng_seed: int

    def within(self, target: float) -> bool:
        """The estimate lies within 3 standard errors of target."""
        return abs(self.mean - target) <= 3.0 * max(self.stderr, 1e-300)


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(stream))


def _mc_fraction(indicator, sampler, n_samples: int, rng_seed: int,
                 n_jobs: int = 1) -> McEstimate:
    """Batched Bernoulli mean of indicator(sampler(generator, m)).

    Each batch draws from its own jumped Philox stream (keyed by the batch
    index) and the per-batch counts are reduced in batch order, so the
    estimate is bit-for-bit reproducible for a given (seed, n_samples)
    whether the batches run sequentially or on a thread pool.
    """
    sizes = []
    done = 0
    while done < n_samples:
        sizes.append(min(_BATCH, n_samples - done))
        done += sizes[-1]

    def one(stream_and_size):
        stream, m = stream_and_size
        gen = _philox(rng_seed, stream)
        return int(np.count_nonzero(indicator(sampler(gen, m))))

    work = list(enumerate(sizes))
    if n_jobs > 1 and len(work) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            counts = list(pool.map(one, work))
    else:
        counts = [one(w) for w in work]
    hits = sum(counts)
    p = hits / n_samples
    sd = math.sqrt(n_samples / (n_samples - 1) * p * (1.0 - p)) if n_samples > 1 else 0.0
    return McEstimate(mean=p, stderr=sd / math.sqrt(n_samples),
                      n_samples=n_samples, rng_seed=rng_seed)


def u_gaussian_mc(x, t: float, n_samples: int = 10 ** 6,
                  rng_seed: int = 0, n_jobs: int = 1) -> McEstimate:
    """One-phase solution u(x, t) as the Gaussian mass of the complement.

    With unit conductivity, u(x, t) = P[x + sqrt(2 t) Z lies outside Omega]
    for a standard normal Z in R^3, matching the kernel
    (4 pi t)^(-3/2) exp(-|xi|^2 / (4 t)).
    """
    if not t > 0.0:
        raise InvalidArgument(f"t must be positive, got {t!r}")
    x = np.asarray(x, dtype=float)
    scale = math.sqrt(2.0 * t)

    def sampler(gen, m):
        return x[None, :] + scale * gen.standard_normal((m, 3))

    return _mc_fraction(lambda P: ~omega_indicator(P), sampler,
                        n_samples, rng_seed, n_jobs)


def sphere_cap_density(x, r: float, n_samples: int = 10 ** 6,
                       rng_seed: int = 0, n_jobs: int = 1) -> McEstimate:
    """Fraction of the sphere of radius r about x lying outside Omega.

    For x on the helicoid the exact value is 1/2 for every radius.
    """
    if not r > 0.0:
        raise InvalidArgument(f"r must be positive, got {r!r}")
    x = np.asarray(x, dtype=float)

    def sampler(gen, m):
        z = gen.standard_normal((m, 3))
        z /= np.linalg.norm(z, axis=1)[:, None]
        return x[None, :] + r * z

    return _mc_fraction(lambda P: ~omega_indicator(P), sampler,
                        n_samples, rng_seed, n_jobs)


def ball_density(x, r: float, n_samples: int = 10 ** 6,
                 rng_seed: int = 0, n_jobs: int = 1) -> McEstimate:
    """Fraction of the ball of radius r about x lying outside Omega."""
    if not r > 0.0:
        raise InvalidArgument(f"r must be positive, got {r!r}")
    x = np.asarray(x, dtype=float)

    def sampler(gen, m):
        z = gen.standard_normal((m, 3))
        z /= np.linalg.norm(z, axis=1)[:, None]
        radii = r * gen.random(m) ** (1.0 / 3.0)
        return x[None, :] + radii[:, None] * z

    return _mc_fraction(lambda P: ~omega_indicator(P), sampler,
                        n_samples, rng_seed, n_jobs)


def plane_halfspace_mc(x1: float, t: float, n_samples: int = 10 ** 6,
                       rng_seed: int = 0) -> McEstimate:
    """Oracle case: Omega = {x1 > 0}; exact answer is erfc(x1/(2 sqrt(t)))/2."""
    if not t > 0.0:
        raise InvalidArgument(f"t must be positive, got {t!r}")
    scale = math.sqrt(2.0 * t)

    def sampler(gen, m):
        return x1 + scale * gen.standard_normal(m)

    return _mc_fraction(lambda v: v <= 0.0, sampler, n_samples, rng_seed)


def plane_halfspace_exact(x1: float, t: float) -> float:
    return 0.5 * float(erfc(x1 / (2.0 * math.sqrt(t))))


def symmetry_identities_check(n_samples: int = 10 ** 4,
                              rng_seed: int = 0) -> dict:
    """Randomized verification of the screw/flip identities.

    (a) screw motions preserve the side of Omega; (b) the flip swaps the
    sides (off the surface); (c) on the surface, g(x) = k_{-2 x3}(x)
    pointwise.  Violations are counted, with a witness point kept for
    debugging; the group law k_a k_b = k_{a+b} is checked alongside.
    The points come from Philox key rng_seed + 2^64, which no Monte-Carlo
    batch keyed by a seed below 2^64 shares.
    """
    gen = _philox(rng_seed + 2 ** 64)
    pts = gen.uniform(-5.0, 5.0, size=(n_samples, 3))
    alphas = gen.uniform(-10.0, 10.0, size=n_samples)

    screw_bad = np.flatnonzero(omega_indicator(screw_many(pts, alphas))
                               != omega_indicator(pts))

    on_h = np.abs(pts[:, 1] * np.cos(pts[:, 2]) - pts[:, 0] * np.sin(pts[:, 2])) < 1e-9
    off = pts[~on_h]
    flipped = off * np.array([1.0, -1.0, -1.0])
    flip_bad = int(np.count_nonzero(omega_indicator(flipped) == omega_indicator(off)))

    rhos = gen.uniform(-5.0, 5.0, size=n_samples)
    ss = gen.uniform(-10.0, 10.0, size=n_samples)
    surf = np.stack([rhos * np.cos(ss), rhos * np.sin(ss), ss], axis=1)
    gx = surf * np.array([1.0, -1.0, -1.0])
    kx = screw_many(surf, -2.0 * surf[:, 2])
    coincide = float(np.max(np.linalg.norm(gx - kx, axis=1)))

    a, b = gen.uniform(-10.0, 10.0, size=n_samples), gen.uniform(-10.0, 10.0, size=n_samples)
    comp = screw_many(screw_many(pts, a), b)
    direct = screw_many(pts, a + b)
    group_law = float(np.max(np.linalg.norm(comp - direct, axis=1)
                             / np.maximum(1.0, np.linalg.norm(pts, axis=1))))

    return {
        "n_samples": n_samples,
        "seed": rng_seed,
        "screw_violations": int(screw_bad.size),
        "flip_violations": flip_bad,
        "surface_coincidence_max": coincide,
        "group_law_max": group_law,
        "witness": pts[screw_bad[-1]].tolist() if screw_bad.size else None,
    }


def screw_many(X: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Screw motions with per-point angles (vectorized)."""
    c, s = np.cos(alphas), np.sin(alphas)
    return np.stack([X[:, 0] * c - X[:, 1] * s,
                     X[:, 0] * s + X[:, 1] * c,
                     X[:, 2] + alphas], axis=1)
