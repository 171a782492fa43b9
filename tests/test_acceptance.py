"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two pipeline criteria
(7 and 8) train real mixtures and take several minutes; everything else is
fast. Criterion 7 reproduces the published benchmark protocol and asserts
the absolute PSNR bands only when the goldhill image is available (drop it
at tests/data/goldhill.pgm or point PCAGMM_GOLDHILL at it); otherwise it
runs the same protocol on scikit-image's camera image, or without
scikit-image on the benchmark's seeded synthetic image, and asserts the
tolerance-free orderings.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import pcagmm.palm as palm_mod
from pcagmm.degrade import degrade, dft_downsample, gauss_blur
from pcagmm.formats import load_model, read_image, save_model, write_image
from pcagmm.gmm import EmConfig, GmmParams, fit_gmm, gauss_logpdf, gmm_estep
from pcagmm.linalg import random_stiefel
from pcagmm.metrics import bicubic_upsample, nearest_upsample, psnr
from pcagmm.palm import MStepProblem, SolverConfig, palm_minimize
from pcagmm.patches import PatchGeometry, aggregate, extract_low, extract_pairs
from pcagmm.pca_gmm import (
    PcaGmmModel,
    fit_pcagmm,
    lift_component,
    pcagmm_estep,
)
from pcagmm.stats import SufficientStats, accumulate_stats
from pcagmm.superres import reconstruct


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def random_cov(rng, d, shift=0.5):
    A = rng.standard_normal((d, d))
    return A @ A.T + shift * np.eye(d)


def test_criterion_1_lifting_identity_suite():
    start = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, n + 1))
        basis = random_stiefel(n, d, seed=int(rng.integers(1 << 30)))
        offset = rng.standard_normal(n)
        variances = rng.uniform(0.5, 4.0, d)
        sigma = float(rng.uniform(0.05, 1.5))
        lifted = lift_component(basis, offset, variances, sigma)
        for _ in range(20):
            x = rng.standard_normal(n)
            y = x - offset
            p = basis.T @ y
            reduced = gauss_logpdf(p, np.zeros(d), np.diag(variances))
            lhs = reduced - (y @ y - p @ p) / (2 * sigma**2)
            rhs = 0.5 * (n - d) * np.log(2 * np.pi * sigma**2) + gauss_logpdf(
                x, lifted.mean, lifted.cov
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    elapsed = time.time() - start
    report(
        1,
        "lifting identity",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def raw_objective(X, w, sigma, U, b):
    """The frame/offset objective G(U, b) straight from the raw samples:
    weighted residual energy off span(U), plus the Mahalanobis energy and the
    log-volume of the reduced mean and covariance about b."""
    weight = w.sum()
    Y = X - b
    mean = U.T @ (w @ Y) / weight
    cov = U.T @ sum(wi * np.outer(y, y) for wi, y in zip(w, Y)) @ U / weight
    off = sum(wi * np.sum((y - U @ (U.T @ y)) ** 2) for wi, y in zip(w, Y))
    Z = Y @ U - mean
    mah = sum(wi * z @ np.linalg.solve(cov, z) for wi, z in zip(w, Z))
    return off / sigma**2 + mah + weight * np.linalg.slogdet(cov)[1]


def test_criterion_2_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(1, min(5, n) + 1))
        X = rng.standard_normal((30, n)) @ np.diag(rng.uniform(0.5, 2.0, n))
        w = rng.uniform(0.05, 1.0, 30)
        stats = accumulate_stats(X, w[:, None], 0)
        problem = MStepProblem(stats=stats, sigma=float(rng.uniform(0.1, 1.0)))
        U = random_stiefel(n, d, seed=int(rng.integers(1 << 30)))
        h = 1e-6

        gU = palm_mod._Point(problem, U).grad_U()
        fd = np.zeros_like(gU)
        for i in range(n):
            for j in range(d):
                E = np.zeros_like(U)
                E[i, j] = h
                plus = palm_mod._Point(problem, U + E).G
                minus = palm_mod._Point(problem, U - E).G
                fd[i, j] = (plus - minus) / (2 * h)
        worst = max(worst, np.linalg.norm(gU - fd) / max(np.linalg.norm(fd), 1.0))

    # the offset in closed form: the weighted mean the solver returns is no
    # worse than a random offset under the sample-based objective
    offset_rng = np.random.default_rng(22)
    worst_gap = -np.inf
    for _ in range(50):
        n = int(offset_rng.integers(3, 21))
        d = int(offset_rng.integers(1, min(5, n) + 1))
        X = offset_rng.standard_normal((30, n)) @ np.diag(
            offset_rng.uniform(0.5, 2.0, n)
        )
        w = offset_rng.uniform(0.05, 1.0, 30)
        sigma = float(offset_rng.uniform(0.1, 1.0))
        U = random_stiefel(n, d, seed=int(offset_rng.integers(1 << 30)))
        b = offset_rng.standard_normal(n)
        stats = accumulate_stats(X, w[:, None], 0)
        _, m, _ = palm_minimize(MStepProblem(stats=stats, sigma=sigma), U)
        at_b = raw_objective(X, w, sigma, U, b)
        worst_gap = max(
            worst_gap, (raw_objective(X, w, sigma, U, m) - at_b) / abs(at_b)
        )
    elapsed = time.time() - start
    report(
        2,
        "gradients vs finite differences, offset in closed form",
        worst < 1e-5 and worst_gap <= 1e-10 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, worst offset gap {worst_gap:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_descent_suites():
    start = time.time()
    rng = np.random.default_rng(3)
    palm_ok = True
    for _ in range(50):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, min(4, n) + 1))
        X = rng.standard_normal((40, n)) @ np.diag(rng.uniform(0.5, 2.0, n))
        w = rng.uniform(0.05, 1.0, 40)
        stats = accumulate_stats(X, w[:, None], 0)
        problem = MStepProblem(stats=stats, sigma=float(rng.uniform(0.1, 0.8)))
        U0 = random_stiefel(n, d, seed=int(rng.integers(1 << 30)))
        _, _, trace = palm_minimize(problem, U0, config=SolverConfig(max_iters=60))
        palm_ok = palm_ok and bool(np.all(np.diff(trace) <= 0.0))

    em_ok = True
    worst_rel = -np.inf
    for fit_seed in range(10):
        fit_rng = np.random.default_rng(100 + fit_seed)
        K = int(fit_rng.integers(1, 6))
        n = int(fit_rng.integers(4, 9))
        d = int(fit_rng.integers(1, min(3, n) + 1))
        N = int(fit_rng.integers(200, 2001))
        centers = 3.0 * fit_rng.standard_normal((K, n))
        X = np.concatenate(
            [
                c
                + fit_rng.standard_normal((N // K + 1, d))
                @ random_stiefel(n, d, seed=fit_seed + k).T
                + 0.05 * fit_rng.standard_normal((N // K + 1, n))
                for k, c in enumerate(centers)
            ]
        )[:N]
        _, trace = fit_pcagmm(
            X, K, d, sigma=0.1, em_config=EmConfig(max_iters=12), seed=fit_seed
        )
        diffs = np.diff(trace.objective)
        scale = np.maximum(np.abs(trace.objective[:-1]), 1.0)
        worst_rel = max(worst_rel, float(np.max(diffs / scale)))
        em_ok = em_ok and bool(np.all(diffs <= 1e-6 * scale))
    elapsed = time.time() - start
    report(
        3,
        "descent (solver exact, EM within slack)",
        palm_ok and em_ok and elapsed < 120.0,
        f"worst EM rel increase {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalences():
    start = time.time()
    rng = np.random.default_rng(4)

    # (a) full-dimension responsibilities match the plain mixture
    n, K = 4, 3
    covs = np.stack([random_cov(rng, n) for _ in range(K)])
    alpha = rng.uniform(0.2, 1.0, K)
    params = GmmParams(
        alpha=alpha / alpha.sum(), means=rng.standard_normal((K, n)), covs=covs
    )
    variances, bases = np.linalg.eigh(params.covs)
    model = PcaGmmModel(
        alpha=params.alpha,
        bases=bases,
        offsets=params.means,
        variances=variances,
        sigma=0.5,
    )
    X = rng.standard_normal((200, n))
    estep_err = float(
        np.max(np.abs(pcagmm_estep(model, X) - gmm_estep(params, X)))
    )

    # (b) tiny-sigma frame optimization recovers the top eigenspace
    Xp = rng.standard_normal((300, 8))
    Xp[:, :2] *= 5.0
    stats = accumulate_stats(Xp, np.ones((300, 1)), 0)
    problem = MStepProblem(stats=stats, sigma=1e-3)
    center = stats.mean
    U, _, _ = palm_minimize(problem, random_stiefel(8, 2, seed=0))
    scatter = (Xp - center).T @ (Xp - center)
    _, vecs = np.linalg.eigh(scatter)
    cosines = np.linalg.svd(vecs[:, -2:].T @ U, compute_uv=False)
    angle = float(np.arccos(np.clip(cosines.min(), 0.0, 1.0)))

    # (c) the closed-form two-pixel problem
    stats2 = SufficientStats(weight=1.0, mean=np.zeros(2), scatter=np.diag([4.0, 1.0]))
    problem2 = MStepProblem(stats=stats2, sigma=1.0)
    U0 = np.array([[np.cos(1.2)], [np.sin(1.2)]])
    _, _, trace = palm_minimize(problem2, U0)
    gap = float(trace[-1] - (-4.0 + np.log(4.0)))

    elapsed = time.time() - start
    report(
        4,
        "oracle equivalences",
        estep_err <= 1e-10 and angle < 0.02 and abs(gap) <= 1e-6 and elapsed < 60.0,
        f"estep err {estep_err:.2e}, angle {angle:.3f} rad, gap {gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_degradation_operator():
    start = time.time()
    rng = np.random.default_rng(5)

    a, b = rng.random((16, 16)), rng.random((16, 16))
    lin = float(
        np.abs(
            degrade(0.3 * a + 0.6 * b, 2, noise_std=0.0)
            - 0.3 * degrade(a, 2, noise_std=0.0)
            - 0.6 * degrade(b, 2, noise_std=0.0)
        ).max()
    )

    const = float(np.abs(degrade(np.full((12, 12), 0.42), 2, noise_std=0.0) - 0.42).max())

    m, n = 16, 12
    i = np.arange(m)[:, None]
    cosine = np.cos(2 * np.pi * i / m) * np.ones((1, n))
    keep_err = float(
        np.abs(
            dft_downsample(cosine, (8, 6))
            - np.cos(2 * np.pi * np.arange(8)[:, None] / 8) * np.ones((1, 6))
        ).max()
    )
    stripes = 0.5 + 0.25 * (-1.0) ** np.arange(m)[:, None] * np.ones((1, n))
    kill_err = float(np.abs(dft_downsample(stripes, (8, 6)) - 0.5).max())

    elapsed = time.time() - start
    report(
        5,
        "degradation operator",
        lin <= 1e-10 and const <= 1e-12 and keep_err <= 1e-10 and kill_err <= 1e-10
        and elapsed < 10.0,
        f"lin {lin:.1e}, const {const:.1e}, cosine {keep_err:.1e}/{kill_err:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_perfect_reconstruction():
    start = time.time()
    rng = np.random.default_rng(6)
    image = rng.random((21, 18))
    ps = extract_low(image, 4)
    err2d = float(np.abs(aggregate(ps.data, ps.origins, 4, 0.4, image.shape) - image).max())
    volume = rng.random((9, 8, 10))
    psv = extract_low(volume, 3)
    err3d = float(
        np.abs(aggregate(psv.data, psv.origins, 3, 0.4, volume.shape) - volume).max()
    )
    elapsed = time.time() - start
    report(
        6,
        "perfect reconstruction",
        err2d <= 1e-12 and err3d <= 1e-12 and elapsed < 10.0,
        f"2d {err2d:.1e}, 3d {err3d:.1e}, {elapsed:.1f}s",
    )


def _benchmark_image(monkeypatch):
    """The published 2D benchmark uses goldhill, which cannot be bundled.
    Without it, the ordering assertions run on scikit-image's camera image,
    or else on the benchmark's seeded synthetic 512 x 512 image. Returns the
    image and its name."""
    candidates = [os.environ.get("PCAGMM_GOLDHILL", "")]
    candidates.append(Path(__file__).parent / "data" / "goldhill.pgm")
    for cand in candidates:
        if cand and Path(cand).is_file():
            return read_image(str(cand)), "goldhill"
    try:
        import skimage.data
    except ImportError:
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
        import synth

        return synth.image2d(512, 1), "synthetic image2d(512, 1)"
    return skimage.data.camera().astype(float) / 255.0, "camera"


@pytest.mark.slow
def test_criterion_7_benchmark_2d(monkeypatch):
    start = time.time()
    image, name = _benchmark_image(monkeypatch)
    assert image.shape == (512, 512)
    geom = PatchGeometry(tau=4, q=2, dims=2)
    quarter = image[:256, :256]
    pairs = extract_pairs(quarter, degrade(quarter, 2, seed=1), geom)
    assert 15000 <= pairs.count <= 16000  # stride-1 enumeration of the quarter
    low = degrade(image, 2, seed=2)

    values = {}
    values["bicubic"] = psnr(image, bicubic_upsample(low, 2))
    params, _ = fit_gmm(pairs.data, 100, EmConfig(max_iters=30), seed=0)
    values["gmm"] = psnr(image, np.clip(reconstruct(low, params, geom, 0.1), 0, 1))
    for d in (20, 12, 4):
        model, _ = fit_pcagmm(
            pairs.data,
            100,
            d,
            sigma=0.02,
            em_config=EmConfig(max_iters=15),
            solver_config=SolverConfig(max_iters=30),
            seed=0,
        )
        values[f"pcagmm d={d}"] = psnr(
            image, np.clip(reconstruct(low, model, geom, 0.1), 0, 1)
        )
    elapsed = time.time() - start

    ordering_ok = all(
        values[key] > values["bicubic"]
        for key in ("gmm", "pcagmm d=20", "pcagmm d=12", "pcagmm d=4")
    )
    monotone_ok = (
        values["pcagmm d=4"] <= values["pcagmm d=12"] + 0.3
        and values["pcagmm d=12"] <= values["pcagmm d=20"] + 0.3
        and values["pcagmm d=4"] <= values["pcagmm d=20"] + 0.3
    )
    bands_ok = True
    if name == "goldhill":
        targets = {
            "bicubic": (28.99, 0.3),
            "gmm": (31.62, 0.6),
            "pcagmm d=20": (31.53, 0.6),
            "pcagmm d=12": (31.44, 0.6),
            "pcagmm d=4": (30.54, 0.8),
        }
        bands_ok = all(
            abs(values[key] - mid) <= tol for key, (mid, tol) in targets.items()
        )
    detail = ", ".join(f"{key} {val:.2f}" for key, val in values.items())
    detail += f"; image={name}" + ("" if name == "goldhill" else " (bands not asserted)")
    detail += f", {elapsed:.0f}s"
    report(7, "2D benchmark protocol", ordering_ok and monotone_ok and bands_ok, detail)


@pytest.mark.slow
def test_criterion_8_volume_smoke():
    start = time.time()
    rng = np.random.default_rng(8)
    volume = gauss_blur(rng.standard_normal((64, 64, 64)), 3.0)
    volume = 0.05 + 0.9 * (volume - volume.min()) / (volume.max() - volume.min())
    geom = PatchGeometry(tau=4, q=2, dims=3)
    low = degrade(volume, 2, seed=3)
    pairs = extract_pairs(volume, low, geom, max_patches=20000, seed=4)
    assert pairs.count == 20000
    model, trace = fit_pcagmm(
        pairs.data,
        10,
        20,
        sigma=0.02,
        em_config=EmConfig(max_iters=6),
        solver_config=SolverConfig(max_iters=30),
        seed=0,
    )
    estimate = np.clip(reconstruct(low, model, geom, 0.1), 0, 1)
    assert estimate.shape == volume.shape
    ours = psnr(volume, estimate)
    baseline = psnr(volume, nearest_upsample(low, 2))
    elapsed = time.time() - start
    report(
        8,
        "3D smoke test",
        ours >= baseline + 1.0 and elapsed < 600.0,
        f"mixture {ours:.2f} dB vs nearest {baseline:.2f} dB, {elapsed:.0f}s",
    )


def test_criterion_9_format_roundtrips(tmp_path):
    start = time.time()
    rng = np.random.default_rng(9)
    ok = True
    for case in range(100):
        if case % 2 == 0:
            K = int(rng.integers(1, 6))
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, n + 1))
            alpha = rng.uniform(0.1, 1.0, K)
            model = PcaGmmModel(
                alpha=alpha / alpha.sum(),
                bases=np.stack(
                    [
                        random_stiefel(n, d, seed=int(rng.integers(1 << 30)))
                        for _ in range(K)
                    ]
                ),
                offsets=rng.standard_normal((K, n)),
                variances=rng.uniform(0.5, 4.0, (K, d)),
                sigma=float(rng.uniform(0.01, 2.0)),
            )
            path = tmp_path / f"m{case}.pgmm"
            save_model(path, model, PatchGeometry(tau=2, q=2, dims=2))
            loaded, _ = load_model(path)
            ok = ok and np.array_equal(loaded.alpha, model.alpha)
            ok = ok and np.array_equal(loaded.bases, model.bases)
            ok = ok and np.array_equal(loaded.offsets, model.offsets)
            ok = ok and np.array_equal(loaded.variances, model.variances)
            ok = ok and loaded.sigma == model.sigma
        else:
            shape = tuple(int(v) for v in rng.integers(2, 7, size=3))
            volume = rng.random(shape)
            path = tmp_path / f"v{case}.vol"
            write_image(path, volume)
            ok = ok and np.array_equal(read_image(path), volume)
        if not ok:
            break
    elapsed = time.time() - start
    report(9, "format round trips", ok and elapsed < 5.0, f"{elapsed:.1f}s")
