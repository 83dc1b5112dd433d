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

Which side of H a point lies on is read off its angle about the x3-axis:
x2 cos x3 - x1 sin x3 = rho sin(theta - x3), so the point lies in Omega iff
the turn g = (x3 - theta) / (2 pi), reduced to [0, 1), exceeds 1/2
(`_turns`).  That costs one SIMD arctan2 and a floor per point where the
defining function costs a scalar-libm sine and cosine.

All of this is checked by seeded Monte Carlo, split into fixed-order
batches of _BATCH points, batch b of seed s drawn from its own SFC64
stream, seeded by the child b of SeedSequence(s) (`_stream`), so estimates
are bit-for-bit reproducible for a given (seed, n_samples) and safe to farm
out to a thread pool.  A batch reads its stream in cache-sized chunks of
_CHUNK points: each chunk's normals (then, for the ball, its radii) are
drawn into one chunk buffer, moved into place and tested in one two-row
scratch block, and only the batch's count of points outside Omega leaves
it, so a worker needs O(_CHUNK) memory whatever the sample count and no
chunk allocates a temporary.  `half_value_checks` is the one report of the
half-value identities, shared by `twophase helicoid` and the acceptance
gate; it runs the batches of all its estimates on one thread pool.
Dimensions N >= 4 add flat factors R^(N-3); by separation of variables the
extra coordinates decouple, so they are not simulated separately.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import Check, InvalidArgument, positive_count

_BATCH = 1 << 18
_CHUNK = 1 << 14
_TURN = 0.5 / math.pi


def _defining(X: np.ndarray) -> np.ndarray:
    """x2 cos x3 - x1 sin x3 per point: positive in Omega, zero on H."""
    return X[:, 1] * np.cos(X[:, 2]) - X[:, 0] * np.sin(X[:, 2])


def _turns(P: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The turn g from each point of the (k, 3) array P to H's ruling at its
    height: (x3 - atan2(x2, x1)) / (2 pi) - floor(.), in [0, 1), written
    into rows[0] and returned; rows is a (2, k) scratch block.

    x2 cos x3 - x1 sin x3 = rho sin(2 pi (1 - g)), so the point lies in
    Omega iff g > 1/2.
    """
    g, whole = rows
    np.arctan2(P[:, 1], P[:, 0], out=g)
    np.subtract(P[:, 2], g, out=g)
    g *= _TURN
    g -= np.floor(g, out=whole)
    return g


def omega_indicator(X: np.ndarray) -> np.ndarray:
    """Vectorized indicator of Omega for an (m, 3) array of points."""
    X = np.asarray(X, dtype=float)
    return _turns(X, np.empty((2, len(X)))) > 0.5


def flip(x) -> np.ndarray:
    """The involution g(x) = (x1, -x2, -x3), an isometry swapping the sides."""
    x = np.asarray(x, dtype=float)
    return x * np.array([1.0, -1.0, -1.0])


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

    def check(self, label: str, target: float) -> Check:
        """|mean - target| held to 3 standard errors."""
        return Check(label, abs(self.mean - target),
                     3.0 * max(self.stderr, 1e-300), "<=")


def _stream(seed: int, stream: int) -> np.random.Generator:
    """SFC64 seeded by SeedSequence(seed).spawn(stream + 1)[stream].

    A spawn key is hashed after the seed's words padded to the pool size,
    so no two (seed, stream) pairs with seeds below 2^128 feed the hash the
    same words; a flat SeedSequence((seed, stream)) gives seed s, stream 1
    the words of seed s + 2^32, stream 0.
    """
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(stream,))))


def _batch_count(count, rng_seed: int, stream: int, m: int) -> int:
    """How many of batch `stream`'s m points lie outside Omega.

    The batch reads its stream (rng_seed, stream) _CHUNK points at a time:
    each chunk's (k, 3) standard normals fill the batch's one chunk buffer,
    and `count(gen, c, rows)` moves them in place, drawing any further
    variates of the chunk from gen and working in the (2, k) scratch block
    rows, and returns the chunk's count.
    """
    gen = _stream(rng_seed, stream)
    size = min(m, _CHUNK)
    buf, scratch = np.empty((size, 3)), np.empty((2, size))
    outside = 0
    for lo in range(0, m, _CHUNK):
        k = min(_CHUNK, m - lo)
        outside += count(gen, gen.standard_normal(out=buf[:k]), scratch[:, :k])
    return outside


def _mc_fractions(estimates, n_jobs: int) -> list:
    """Bernoulli means of the estimates (count, n_samples, rng_seed).

    An estimate's n_samples points are split into batches of _BATCH (the
    last one partial), batch b drawn from the stream (rng_seed, b)
    by `_batch_count`.  The batches of all the estimates run on one pool of
    n_jobs threads (at most one per batch), and each estimate adds up its own
    batches' counts, so it is bit-for-bit reproducible for a given
    (seed, n_samples) whatever n_jobs is and whichever estimates share the
    pool.  A worker holds one chunk of _CHUNK points at a time, so the
    draws take O(n_jobs _CHUNK) memory, not O(_BATCH).  Every n_samples
    must be a positive integer.
    """
    estimates = [(count, positive_count("n_samples", n), seed)
                 for count, n, seed in estimates]
    work = [(i, count, seed, stream, min(_BATCH, n - start))
            for i, (count, n, seed) in enumerate(estimates)
            for stream, start in enumerate(range(0, n, _BATCH))]

    with ThreadPoolExecutor(max_workers=max(1, min(n_jobs, len(work)))) as pool:
        counts = list(pool.map(lambda item: _batch_count(*item[1:]), work))
    hits = [0] * len(estimates)
    for (i, *_), outside in zip(work, counts):
        hits[i] += outside
    out = []
    for outside, (_, n, seed) in zip(hits, estimates):
        p = outside / n
        sd = math.sqrt(n / (n - 1) * p * (1.0 - p)) if n > 1 else 0.0
        out.append(McEstimate(mean=p, stderr=sd / math.sqrt(n),
                              n_samples=n, rng_seed=seed))
    return out


def _normalize_rows(c: np.ndarray, rows: np.ndarray) -> None:
    """c /= |row|, summing the squares in np.linalg.norm's order in the
    (2, k) scratch block rows."""
    norm, square = rows
    np.multiply(c[:, 0], c[:, 0], out=norm)
    norm += np.multiply(c[:, 1], c[:, 1], out=square)
    norm += np.multiply(c[:, 2], c[:, 2], out=square)
    np.sqrt(norm, out=norm)
    for col in c.T:
        col /= norm


def _outside(x: np.ndarray, c: np.ndarray, rows: np.ndarray) -> int:
    """Count of the points c + x outside Omega; c is moved in place and the
    (2, k) scratch block rows overwritten."""
    for col, shift in zip(c.T, x):
        col += shift
    g = _turns(c, rows)
    return len(g) - np.count_nonzero(np.greater(g, 0.5, out=g))


def _gaussian_count(x, t: float):
    """The chunk count of u(x, t): normals z move to x + sqrt(2 t) z."""
    if not t > 0.0:
        raise InvalidArgument(f"t must be positive, got {t!r}")
    x = np.asarray(x, dtype=float)
    scale = math.sqrt(2.0 * t)
    return lambda gen, c, rows: _outside(x, np.multiply(c, scale, out=c), rows)


def _cap_count(x, r: float):
    """The chunk count of the sphere of radius r about x."""
    if not r > 0.0:
        raise InvalidArgument(f"r must be positive, got {r!r}")
    x = np.asarray(x, dtype=float)

    def count(gen, c, rows):
        _normalize_rows(c, rows)
        c *= r
        return _outside(x, c, rows)

    return count


def _ball_count(x, r: float):
    """The chunk count of the ball of radius r about x: each chunk draws
    its radii's uniforms from the batch's stream right after its normals."""
    if not r > 0.0:
        raise InvalidArgument(f"r must be positive, got {r!r}")
    x = np.asarray(x, dtype=float)

    def count(gen, c, rows):
        _normalize_rows(c, rows)
        radii = np.cbrt(gen.random(out=rows[0]), out=rows[0])
        radii *= r
        for col in c.T:
            col *= radii
        return _outside(x, c, rows)

    return count


def u_gaussian_mc(x, t: float, n_samples: int,
                  rng_seed: int = 0, n_jobs: int = 1) -> McEstimate:
    """One-phase solution u(x, t) as the Gaussian mass of the complement.

    With unit conductivity, u(x, t) = P[x + sqrt(2 t) Z lies outside Omega]
    for a standard normal Z in R^3, matching the kernel
    (4 pi t)^(-3/2) exp(-|xi|^2 / (4 t)).
    """
    return _mc_fractions([(_gaussian_count(x, t), n_samples, rng_seed)],
                         n_jobs)[0]


def sphere_cap_density(x, r: float, n_samples: int,
                       rng_seed: int = 0, n_jobs: int = 1) -> McEstimate:
    """Fraction of the sphere of radius r about x lying outside Omega.

    For x on the helicoid the exact value is 1/2 for every radius.
    """
    return _mc_fractions([(_cap_count(x, r), n_samples, rng_seed)],
                         n_jobs)[0]


def ball_density(x, r: float, n_samples: int,
                 rng_seed: int = 0, n_jobs: int = 1) -> McEstimate:
    """Fraction of the ball of radius r about x lying outside Omega."""
    return _mc_fractions([(_ball_count(x, r), n_samples, rng_seed)],
                         n_jobs)[0]


def half_value_checks(n_samples: int, seed: int, t_values, r_values,
                      symmetry_samples: int, jobs: int) -> tuple:
    """The half-value report at the origin, a point of the helicoid.

    u(0, t) for each t (seeds seed + i), the sphere-cap and ball densities
    for each r (seeds seed + 10 + i and seed + 20 + i), each held to 1/2
    within 3 standard errors, then the symmetry identities at seed: no
    screw or flip violation and the flip within 1e-12 of k_{-2 x3} on H.
    Returns (records, checks): one record per estimate, named with the
    values as given, then the symmetry record; one check per estimate, in
    that order, then the symmetry identities' three.  Each record's pass
    is that of its checks.  The batches of all the estimates share one
    pool of `jobs` threads of its own: a caller that is itself a pool
    worker must not queue them on its pool, where a worker waiting on
    tasks queued behind it can deadlock.  symmetry_samples is checked
    before any draw.
    """
    positive_count("symmetry_samples", symmetry_samples)
    x0 = np.zeros(3)
    tests, estimates = [], []
    for i, t in enumerate(t_values):
        tests.append(f"u_on_surface_t_{t}")
        estimates.append((_gaussian_count(x0, float(t)), n_samples, seed + i))
    for i, r in enumerate(r_values):
        tests += [f"cap_density_r_{r}", f"ball_density_r_{r}"]
        estimates += [(_cap_count(x0, float(r)), n_samples, seed + 10 + i),
                      (_ball_count(x0, float(r)), n_samples, seed + 20 + i)]
    fractions = _mc_fractions(estimates, jobs)
    checks = [est.check(test, 0.5) for test, est in zip(tests, fractions)]
    records = [{"test": c.label, "estimate": est.mean, "stderr": est.stderr,
                "n": est.n_samples, "seed": est.rng_seed, "pass": c.passed}
               for c, est in zip(checks, fractions)]
    sym = symmetry_identities_check(symmetry_samples, rng_seed=seed)
    identities = [Check("screw_violations", sym["screw_violations"], 0, "=="),
                  Check("flip_violations", sym["flip_violations"], 0, "=="),
                  Check("surface_coincidence_max",
                        sym["surface_coincidence_max"], 1e-12, "<")]
    records.append({"test": "symmetry_identities",
                    "estimate": sym["surface_coincidence_max"],
                    "stderr": 0.0, "n": sym["n_samples"], "seed": sym["seed"],
                    "pass": all(c.passed for c in identities)})
    return records, checks + identities


def symmetry_identities_check(n_samples: int, rng_seed: int) -> dict:
    """Randomized verification of the screw/flip identities.

    (a) screw motions preserve the side of Omega; (b) the flip swaps the
    sides (off the surface); (c) on the surface, g(x) = k_{-2 x3}(x)
    pointwise.  Violations of (a) and (b) are counted, and (c) reports
    its largest distance.  The points come from the stream
    (rng_seed + 2^64, 0), which no Monte-Carlo batch keyed by a seed below
    2^64 shares.  n_samples must be a positive integer.
    """
    n_samples = positive_count("symmetry_samples", n_samples)
    gen = _stream(rng_seed + 2 ** 64, 0)
    pts = gen.uniform(-5.0, 5.0, size=(n_samples, 3))
    alphas = gen.uniform(-10.0, 10.0, size=n_samples)

    screw_bad = int(np.count_nonzero(omega_indicator(screw_many(pts, alphas))
                                     != omega_indicator(pts)))

    on_h = np.abs(_defining(pts)) < 1e-9
    off = pts[~on_h]
    flip_bad = int(np.count_nonzero(omega_indicator(flip(off)) == omega_indicator(off)))

    rhos = gen.uniform(-5.0, 5.0, size=n_samples)
    ss = gen.uniform(-10.0, 10.0, size=n_samples)
    surf = np.stack([rhos * np.cos(ss), rhos * np.sin(ss), ss], axis=1)
    kx = screw_many(surf, -2.0 * surf[:, 2])
    coincide = float(np.max(np.linalg.norm(flip(surf) - kx, axis=1)))

    return {
        "n_samples": n_samples,
        "seed": rng_seed,
        "screw_violations": screw_bad,
        "flip_violations": flip_bad,
        "surface_coincidence_max": coincide,
    }


def screw_many(X: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Screw motions with per-point angles (vectorized)."""
    c, s = np.cos(alphas), np.sin(alphas)
    return np.stack([X[:, 0] * c - X[:, 1] * s,
                     X[:, 0] * s + X[:, 1] * c,
                     X[:, 2] + alphas], axis=1)
