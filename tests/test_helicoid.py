import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twophase import helicoid as hl
from twophase.errors import InvalidArgument

from oracles import (helicoid_point, in_omega, on_surface_value,
                     plane_halfspace_exact, plane_halfspace_mc, screw)

N_FAST = 10 ** 5  # most tests run at reduced sample counts for speed


def test_in_omega_examples():
    assert in_omega([0.0, 1.0, 0.0]) is True
    assert in_omega([0.0, -1.0, 0.0]) is False
    assert on_surface_value(helicoid_point(2.0, 1.3)) == pytest.approx(0.0, abs=1e-15)


@given(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0))
@settings(max_examples=60)
def test_parametric_points_lie_on_surface(rho, s):
    assert abs(on_surface_value(helicoid_point(rho, s))) < 1e-12 * (1 + abs(rho))


@given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
@settings(max_examples=60)
def test_screw_group_law(a, b):
    x = np.array([0.7, -1.1, 2.0])
    once = screw(screw(x, a), b)
    direct = screw(x, a + b)
    assert np.linalg.norm(once - direct) < 1e-13 * (1 + np.linalg.norm(x))


def test_angle_side_test_agrees_with_the_defining_function():
    # 1.25 10^6 seeded points with |x3| up to 60, a fifth of them within
    # 10^-12..10^-1 of the axis; only points where the defining function
    # itself is round-off are skipped
    rng = np.random.default_rng(2024)
    checked = 0
    for near_axis in (False, False, False, False, True):
        P = rng.uniform(-60.0, 60.0, (250_000, 3))
        rho = (10.0 ** rng.uniform(-12.0, -1.0, len(P)) if near_axis
               else rng.uniform(0.0, 5.0, len(P)))
        theta = rng.uniform(-math.pi, math.pi, len(P))
        P[:, 0], P[:, 1] = rho * np.cos(theta), rho * np.sin(theta)
        d = hl._defining(P)
        clear = np.abs(d) >= 1e-12 * (1.0 + np.linalg.norm(P, axis=1))
        assert np.array_equal(hl.omega_indicator(P)[clear], d[clear] > 0.0)
        checked += int(np.count_nonzero(clear))
    assert checked >= 10 ** 6


def test_flip_is_involution_and_screw_identity():
    x = np.array([1.0, 2.0, -3.0])
    assert np.allclose(hl.flip(hl.flip(x)), x)
    assert np.allclose(screw(x, 0.0), x)


def test_symmetry_identities_zero_violations():
    rep = hl.symmetry_identities_check(10 ** 4, rng_seed=3)
    assert rep["screw_violations"] == 0
    assert rep["flip_violations"] == 0
    assert rep["surface_coincidence_max"] < 1e-12


def test_screw_many_group_law():
    # k_b k_a = k_{a+b}, point by point, relative to max(1, |x|)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5.0, 5.0, size=(10 ** 4, 3))
    a, b = rng.uniform(-10.0, 10.0, size=(2, 10 ** 4))
    comp = hl.screw_many(hl.screw_many(pts, a), b)
    direct = hl.screw_many(pts, a + b)
    assert np.max(np.linalg.norm(comp - direct, axis=1)
                  / np.maximum(1.0, np.linalg.norm(pts, axis=1))) < 1e-14


def test_u_half_on_surface():
    for t in (0.1, 1.0, 10.0):
        est = hl.u_gaussian_mc(np.zeros(3), t, N_FAST, rng_seed=11)
        assert est.check("mean", 0.5).passed


def test_u_half_off_axis_surface_point():
    x = helicoid_point(1.5, 0.7)
    est = hl.u_gaussian_mc(x, 0.5, N_FAST, rng_seed=13)
    assert est.check("mean", 0.5).passed


def test_u_deep_point_small():
    # far inside Omega at tiny time the Gaussian mass outside is negligible
    x = np.array([0.0, 3.0, 0.0])
    est = hl.u_gaussian_mc(x, 0.01, N_FAST, rng_seed=17)
    assert est.mean < 1e-4


def test_plane_halfspace_matches_erfc():
    est = plane_halfspace_mc(1.0, 0.25, 4 * N_FAST, rng_seed=5)
    exact = plane_halfspace_exact(1.0, 0.25)
    assert exact == pytest.approx(0.5 * math.erfc(1.0), rel=1e-12)
    assert est.check("mean", exact).passed


def test_cap_and_ball_densities_half():
    for r in (0.5, 1.0, 2.0):
        cap = hl.sphere_cap_density(np.zeros(3), r, N_FAST, rng_seed=7)
        ball = hl.ball_density(np.zeros(3), r, N_FAST, rng_seed=8)
        assert cap.check("mean", 0.5).passed
        assert ball.check("mean", 0.5).passed


def test_small_radius_cap_tangent_plane_regime():
    x = np.array([1.0, 0.0, 0.0])
    assert abs(on_surface_value(x)) == 0.0  # on-surface check first
    est = hl.sphere_cap_density(x, 0.01, N_FAST, rng_seed=9)
    assert est.check("mean", 0.5).passed


def test_ball_density_equals_weighted_cap_average():
    # coarea: the ball average is the r'^2-weighted average of cap densities
    r = 1.0
    shells = (np.arange(8) + 0.5) / 8.0 * r
    weights = shells ** 2
    caps = [hl.sphere_cap_density(np.zeros(3), float(s), N_FAST, rng_seed=20 + i)
            for i, s in enumerate(shells)]
    weighted = float(np.sum(weights * [c.mean for c in caps]) / np.sum(weights))
    ball = hl.ball_density(np.zeros(3), r, 4 * N_FAST, rng_seed=30)
    stderr = math.sqrt(sum((w / np.sum(weights) * c.stderr) ** 2
                           for w, c in zip(weights, caps)) + ball.stderr ** 2)
    assert abs(weighted - ball.mean) < 4.0 * stderr


def test_proof_replay_identities():
    x = np.array([0.7, 0.4, -0.3])
    t = 1.0
    u_x = hl.u_gaussian_mc(x, t, 4 * N_FAST, rng_seed=1)
    u_gx = hl.u_gaussian_mc(hl.flip(x), t, 4 * N_FAST, rng_seed=2)
    u_kx = hl.u_gaussian_mc(screw(x, 2.1), t, 4 * N_FAST, rng_seed=3)
    sigma = math.hypot(u_x.stderr, u_gx.stderr)
    assert abs(u_x.mean + u_gx.mean - 1.0) < 4.0 * sigma
    sigma2 = math.hypot(u_x.stderr, u_kx.stderr)
    assert abs(u_kx.mean - u_x.mean) < 4.0 * sigma2
    # combining both identities at a surface point forces the half value
    z = helicoid_point(-0.9, 0.4)
    u_z = hl.u_gaussian_mc(z, t, 4 * N_FAST, rng_seed=4)
    u_gz = hl.u_gaussian_mc(screw(z, -2.0 * z[2]), t, 4 * N_FAST, rng_seed=5)
    assert abs(u_z.mean + u_gz.mean - 1.0) < 4.0 * math.hypot(u_z.stderr, u_gz.stderr)


def test_bitwise_reproducibility():
    a = hl.u_gaussian_mc(np.zeros(3), 1.0, N_FAST, rng_seed=42)
    b = hl.u_gaussian_mc(np.zeros(3), 1.0, N_FAST, rng_seed=42)
    assert a == b
    c = hl.ball_density(np.ones(3) * 0.1, 0.5, N_FAST, rng_seed=42)
    d = hl.ball_density(np.ones(3) * 0.1, 0.5, N_FAST, rng_seed=42)
    assert c == d


def test_distinct_seeds_give_distinct_streams():
    a = hl._stream(6, 0).standard_normal(8)
    b = hl._stream(7, 0).standard_normal(8)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("key, other", [((5, 1), (5 + 2 ** 32, 0)),
                                        ((5, 0), (5, 1))])
def test_keys_that_share_seed_words_get_distinct_streams(key, other):
    # a flat SeedSequence((seed, stream)) maps both keys of the first pair
    # to the same words, hence to the same stream (and the symmetry key
    # S + 2^64 to batch 1 of S for S >= 2^32, which the next test covers)
    assert (hl._stream(*key).random(4).tolist()
            != hl._stream(*other).random(4).tolist())


def test_symmetry_check_has_its_own_stream(monkeypatch):
    stream, keys = hl._stream, []
    monkeypatch.setattr(hl, "_stream",
                        lambda *key: keys.append(key) or stream(*key))
    for seed in (5, 2 ** 40 + 5):
        keys.clear()
        hl.symmetry_identities_check(10, rng_seed=seed)
        hl.u_gaussian_mc(np.zeros(3), 1.0, hl._BATCH + 10, rng_seed=seed)
        sym_key, *mc_keys = keys  # the MC run has two batches
        assert len(mc_keys) == 2
        assert all(stream(*sym_key).random() != stream(*key).random()
                   for key in mc_keys)


def test_invalid_arguments():
    with pytest.raises(InvalidArgument):
        hl.u_gaussian_mc(np.zeros(3), 0.0, 10)
    with pytest.raises(InvalidArgument):
        hl.sphere_cap_density(np.zeros(3), -1.0, 10)
    with pytest.raises(InvalidArgument):
        hl.ball_density(np.zeros(3), 0.0, 10)


@pytest.mark.parametrize("n_samples", [0, 1.5])
def test_half_value_checks_reject_sample_counts_that_do_no_work(n_samples):
    with pytest.raises(InvalidArgument, match="n_samples must be a positive"):
        hl.half_value_checks(n_samples, 1, (1.0,), (1.0,), 10, jobs=1)


def test_half_value_checks_reject_symmetry_samples_before_any_draw(
        monkeypatch):
    def no_draws(*_):
        raise AssertionError("the Monte Carlo ran before the check")
    monkeypatch.setattr(hl, "_mc_fractions", no_draws)
    with pytest.raises(InvalidArgument,
                       match="symmetry_samples must be a positive"):
        hl.half_value_checks(10, 1, (1.0,), (1.0,), 0, jobs=1)


def test_symmetry_check_rejects_zero_samples():
    with pytest.raises(InvalidArgument, match="must be a positive integer"):
        hl.symmetry_identities_check(0, rng_seed=1)


# -- the batch kernels against the straightforward samplers ------------------

N_REF = 300_001  # one partial 2^18 batch, ending in a partial 2^14 chunk


def _reference(indicator, sampler, n_samples, rng_seed):
    """Whole-batch sampling: each batch's points, then the indicator."""
    hits = 0
    for stream, start in enumerate(range(0, n_samples, hl._BATCH)):
        m = min(hl._BATCH, n_samples - start)
        hits += int(np.count_nonzero(indicator(sampler(hl._stream(rng_seed, stream), m))))
    p = hits / n_samples
    sd = math.sqrt(n_samples / (n_samples - 1) * p * (1.0 - p))
    return hl.McEstimate(mean=p, stderr=sd / math.sqrt(n_samples),
                         n_samples=n_samples, rng_seed=rng_seed)


def _outside(P):
    return ~(P[:, 1] * np.cos(P[:, 2]) - P[:, 0] * np.sin(P[:, 2]) > 0.0)


def _unit_normals(gen, m):
    z = gen.standard_normal((m, 3))
    return z / np.linalg.norm(z, axis=1)[:, None]


X_REF = np.array([0.4, -0.3, 0.9])


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_gaussian_kernel_matches_reference(n_jobs):
    scale = math.sqrt(2.0 * 0.7)
    ref = _reference(_outside, lambda gen, m: X_REF + scale * gen.standard_normal((m, 3)),
                     N_REF, 31)
    assert hl.u_gaussian_mc(X_REF, 0.7, N_REF, rng_seed=31, n_jobs=n_jobs) == ref


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_cap_kernel_matches_reference(n_jobs):
    ref = _reference(_outside, lambda gen, m: X_REF + 1.3 * _unit_normals(gen, m),
                     N_REF, 32)
    assert hl.sphere_cap_density(X_REF, 1.3, N_REF, rng_seed=32, n_jobs=n_jobs) == ref


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_ball_kernel_matches_reference(n_jobs):
    def sampler(gen, m):
        # each chunk of the batch draws its normals, then its radii
        points = []
        for lo in range(0, m, hl._CHUNK):
            k = min(hl._CHUNK, m - lo)
            z = _unit_normals(gen, k)
            radii = 1.3 * gen.random(k) ** (1.0 / 3.0)
            points.append(X_REF + radii[:, None] * z)
        return np.concatenate(points)

    ref = _reference(_outside, sampler, N_REF, 33)
    assert hl.ball_density(X_REF, 1.3, N_REF, rng_seed=33, n_jobs=n_jobs) == ref


def test_plane_kernel_matches_reference():
    scale = math.sqrt(2.0 * 0.3)
    ref = _reference(lambda v: v <= 0.0,
                     lambda gen, m: 0.2 + scale * gen.standard_normal((m, 3))[:, 0],
                     N_REF, 34)
    assert plane_halfspace_mc(0.2, 0.3, N_REF, rng_seed=34) == ref


def test_batch_buffers_survive_more_workers_than_cores(monkeypatch):
    # many small batches on 4 threads with a short switch interval: a chunk
    # buffer or stream shared by two batches would change some batch's count
    monkeypatch.setattr(hl, "_BATCH", 1000)
    monkeypatch.setattr(hl, "_CHUNK", 256)
    serial = hl.ball_density(X_REF, 1.3, 40_001, rng_seed=35, n_jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = [hl.ball_density(X_REF, 1.3, 40_001, rng_seed=35, n_jobs=4)
                  for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert pooled == [serial] * 3


def test_draws_take_chunk_memory_not_batch_memory():
    # two workers, each holding one chunk and its (2, 2^14) scratch block
    # (1.25 MiB); two (2^18, 3) batch buffers alone would be 12 MiB
    tracemalloc.start()
    try:
        hl.ball_density(X_REF, 1.3, 10 ** 6, rng_seed=36, n_jobs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


@pytest.mark.parametrize("estimate", [hl.u_gaussian_mc, hl.sphere_cap_density,
                                      hl.ball_density])
def test_a_batch_allocates_no_temporary_per_chunk(estimate):
    # one full batch on one thread: its (2^14, 3) chunk buffer and (2, 2^14)
    # scratch block, 640 KiB, plus the generator; one 2^14-point
    # temporary would add 128 KiB
    estimate(X_REF, 1.3, 1000, rng_seed=37)  # first-call set-up
    tracemalloc.start()
    try:
        estimate(X_REF, 1.3, hl._BATCH, rng_seed=37)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * 2 ** 10 + 64 * 2 ** 10


@pytest.mark.parametrize("seed", range(5))
def test_row_normalizer_is_bitwise_linalg_norm(seed):
    # a count comparison would not see a changed summation order; the bits do
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((hl._CHUNK + 3, 3))
    z *= 10.0 ** rng.uniform(-3.0, 3.0, len(z))[:, None]
    expected = z / np.linalg.norm(z, axis=1)[:, None]
    hl._normalize_rows(z, np.empty((2, len(z))))
    assert z.tobytes() == expected.tobytes()


def test_half_value_checks_records():
    records, checks = hl.half_value_checks(5000, 3, [1.0], [0.5, 2], 100, 1)
    estimates = ["u_on_surface_t_1.0", "cap_density_r_0.5",
                 "ball_density_r_0.5", "cap_density_r_2", "ball_density_r_2"]
    assert [r["test"] for r in records] == estimates + ["symmetry_identities"]
    assert [c.label for c in checks] == estimates + [
        "screw_violations", "flip_violations", "surface_coincidence_max"]
    assert [r["seed"] for r in records] == [3, 13, 23, 14, 24, 3]
    cap = hl.sphere_cap_density(np.zeros(3), 0.5, 5000, rng_seed=13)
    assert records[1]["estimate"] == cap.mean
    assert checks[1] == cap.check("cap_density_r_0.5", 0.5)
    assert records[-1]["estimate"] == checks[-1].value
    assert all(r["pass"] for r in records) and all(c.passed for c in checks)
