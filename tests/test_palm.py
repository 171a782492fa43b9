import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcagmm
import pcagmm.palm as palm_mod
from pcagmm.errors import InvalidShape, LineSearchFailed, NotPositiveDefinite
from pcagmm.linalg import project_stiefel, random_stiefel, stiefel_defect
from pcagmm.palm import MStepProblem, ipalm_minimize, palm_minimize
from pcagmm.stats import SufficientStats, accumulate_stats


def problem_from_samples(X, weights, sigma):
    beta = np.asarray(weights, dtype=float)[:, None]
    stats = accumulate_stats(X, beta, 0)
    return MStepProblem(stats=stats, sigma=sigma), stats


def make_problem(rng, n, n_samples=40, sigma=0.3):
    X = rng.standard_normal((n_samples, n)) @ np.diag(rng.uniform(0.5, 2.0, n))
    w = rng.uniform(0.05, 1.0, n_samples)
    stats = accumulate_stats(X, w[:, None], 0)
    return MStepProblem(stats=stats, sigma=sigma), X, w


def centred_problem(mean, scatter, weight, sigma):
    stats = SufficientStats(weight=weight, mean=mean, scatter=scatter)
    return MStepProblem(stats=stats, sigma=sigma)


def angle_problem(theta):
    return np.array([[np.cos(theta)], [np.sin(theta)]])


CLOSED_FORM_MIN = -4.0 + np.log(4.0)


def closed_form_problem():
    return centred_problem(np.zeros(2), np.diag([4.0, 1.0]), 1.0, 1.0)


def fd_grad_U(problem, U, h=1e-6):
    g = np.zeros_like(U)
    for i in range(U.shape[0]):
        for j in range(U.shape[1]):
            E = np.zeros_like(U)
            E[i, j] = h
            plus = palm_mod._Point(problem, U + E).G
            minus = palm_mod._Point(problem, U - E).G
            g[i, j] = (plus - minus) / (2 * h)
    return g


def raw_objective(problem, X, w, U, b):
    """G(U, b) of the frame/offset objective straight from the raw samples:
    weighted residual energy off span(U), plus the Mahalanobis energy and the
    log-volume of the reduced mean and covariance about b."""
    weight = problem.stats.weight
    resid = weight * (problem.stats.mean - b)
    scatter = sum(wi * np.outer(x - b, x - b) for wi, x in zip(w, X))
    mean = U.T @ resid / weight
    cov = U.T @ scatter @ U / weight
    Y = X - b
    off = sum(wi * np.sum((y - U @ (U.T @ y)) ** 2) for wi, y in zip(w, Y))
    Z = Y @ U - mean
    mah = sum(wi * z @ np.linalg.solve(cov, z) for wi, z in zip(w, Z))
    return off / problem.sigma**2 + mah + weight * np.linalg.slogdet(cov)[1]


class TestEval:
    def test_identity_scatter(self):
        for d in (1, 2, 3):
            problem = centred_problem(np.zeros(4), np.eye(4), 1.0, 1.0)
            U = random_stiefel(4, d, seed=d)
            assert palm_mod._Point(problem, U).G == pytest.approx(-d, abs=1e-12)

    def test_closed_form_angle_zero(self):
        problem = closed_form_problem()
        value = palm_mod._Point(problem, angle_problem(0.0)).G
        assert value == pytest.approx(CLOSED_FORM_MIN, abs=1e-12)

    def test_two_route_difference(self):
        # independent route: the sample-based G(U, b) at b = the weighted
        # mean; must differ from G by a U-independent shift
        rng = np.random.default_rng(0)
        problem, X, w = make_problem(rng, 7)
        m = problem.stats.mean
        frames = [random_stiefel(7, 3, seed=s) for s in range(3)]
        for U1, U2 in zip(frames, frames[1:]):
            lhs = palm_mod._Point(problem, U1).G - palm_mod._Point(problem, U2).G
            rhs = raw_objective(problem, X, w, U1, m) - raw_objective(
                problem, X, w, U2, m
            )
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_offset_gap_in_closed_form(self, seed):
        # G(U, b) - G(U, m) = w ||(I - U U^T) e||^2 / sigma^2
        #                     + w (log(1 + u) - u / (1 + u)),
        # e = m - b, g = U^T e, u = w g^T A^{-1} g: the weighted mean is the
        # exact offset minimizer
        rng = np.random.default_rng(30 + seed)
        problem, X, w = make_problem(rng, 6)
        U = random_stiefel(6, 2, seed=seed)
        m, weight = problem.stats.mean, problem.stats.weight
        b = m + rng.standard_normal(6)
        e = m - b
        g = U.T @ e
        u = weight * g @ np.linalg.solve(palm_mod._Point(problem, U).A, g)
        gap = weight * np.sum((e - U @ g) ** 2) / problem.sigma**2 + weight * (
            np.log1p(u) - u / (1.0 + u)
        )
        got = raw_objective(problem, X, w, U, b) - raw_objective(problem, X, w, U, m)
        assert gap > 0.0
        assert got == pytest.approx(gap, rel=1e-8)

    def test_degenerate_projected_scatter_raises(self):
        v = np.array([1.0, 0.0, 0.0])
        problem = centred_problem(np.zeros(3), np.outer(v, v), 1.0, 1.0)
        U = np.eye(3)[:, :2]
        with pytest.raises(NotPositiveDefinite):
            palm_mod._Point(problem, U)


class TestGradients:
    def test_isotropic_stationarity(self):
        # identity scatter: the gradient has no component leaving the span of
        # the frame
        problem = centred_problem(np.zeros(6), np.eye(6), 1.0, 1.0)
        U = random_stiefel(6, 2, seed=9)
        g = palm_mod._Point(problem, U).grad_U()
        assert np.linalg.norm(g - U @ (U.T @ g)) < 1e-8

    def test_angle_chain_rule(self):
        problem = closed_form_problem()
        for theta in (0.3, 1.0, 2.2):
            U = angle_problem(theta)
            dU = np.array([[-np.sin(theta)], [np.cos(theta)]])
            t = 4.0 * np.cos(theta) ** 2 + np.sin(theta) ** 2
            tp = -6.0 * np.sin(theta) * np.cos(theta)
            expected = (-1.0 + 1.0 / t) * tp
            got = float(np.sum(palm_mod._Point(problem, U).grad_U() * dU))
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        d = int(rng.integers(1, min(5, n) + 1))
        problem, _, _ = make_problem(rng, n)
        U = random_stiefel(n, d, seed=seed)
        gU = palm_mod._Point(problem, U).grad_U()
        gUf = fd_grad_U(problem, U)
        assert np.linalg.norm(gU - gUf) <= 1e-5 * max(np.linalg.norm(gUf), 1.0)


def dense_reference(problem, X, w, U):
    """G and dG/dU with the scatter about the weighted mean summed from the
    raw samples as an n x n matrix and A = U^T C U inverted outright."""
    weight, sig2 = problem.stats.weight, problem.sigma**2
    Y = X - w @ X / w.sum()
    C = (Y * w[:, None]).T @ Y
    A = U.T @ C @ U
    G = -np.trace(A) / sig2 + weight * np.linalg.slogdet(A)[1]
    gU = -(2.0 / sig2) * C @ U + 2.0 * weight * C @ U @ np.linalg.inv(A)
    return G, gU


# C U and A = U^T C U, the moments one frame costs
class TestFrameMoments:
    @pytest.mark.parametrize("n", [6, 40])
    @pytest.mark.parametrize("distance", [1e-2, 1.0, 30.0])
    def test_matches_dense_scatter(self, n, distance):
        # data near and far from the origin
        rng = np.random.default_rng(n)
        shift = distance * rng.standard_normal(n)
        X = shift + rng.standard_normal((5 * n, n)) @ np.diag(rng.uniform(0.5, 2.0, n))
        w = rng.uniform(0.05, 1.0, 5 * n)
        problem = MStepProblem(stats=accumulate_stats(X, w[:, None], 0), sigma=0.3)
        U = random_stiefel(n, 3, seed=1)
        G, gU = dense_reference(problem, X, w, U)
        point = palm_mod._Point(problem, U)
        assert point.G == pytest.approx(G, rel=1e-12)
        assert np.linalg.norm(point.grad_U() - gU) <= 1e-12 * np.linalg.norm(gU)

    @pytest.mark.parametrize("offset", [0.0, 1.0, 30.0, 1e3])
    def test_projected_scatter_keeps_its_digits_far_from_the_origin(self, offset):
        # data of spread 0.1 to 0.001 sitting `offset` away from the origin:
        # A against the scatter about the weighted mean summed row by row in
        # extended precision
        rng = np.random.default_rng(21)
        n = 12
        X = offset + rng.standard_normal((400, n)) * np.linspace(0.1, 0.001, n)
        w = rng.uniform(0.05, 1.0, 400)
        stats = accumulate_stats(X, w[:, None], 0)
        U = random_stiefel(n, 4, seed=2)
        A = palm_mod._Point(MStepProblem(stats=stats, sigma=1.0), U).A
        wl, Xl = w.astype(np.longdouble), X.astype(np.longdouble)
        Y = (Xl - wl @ Xl / wl.sum()) @ U.astype(np.longdouble)
        ref = (Y * wl[:, None]).T @ Y
        err = np.linalg.norm((A - ref).astype(float))
        assert err <= 1e-10 * np.linalg.norm(ref.astype(float))

    def test_scatter_is_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((300, 40))
        beta = rng.uniform(0.0, 1.0, (300, 2))
        stats = accumulate_stats(X, beta, 1)
        assert stats.scatter.tobytes() == stats.scatter.T.copy().tobytes()


class TestPalm:
    def test_stationary_start_terminates_immediately(self):
        problem = closed_form_problem()
        U, b, trace = palm_minimize(problem, angle_problem(0.0))
        assert trace.size == 2
        assert trace[0] == trace[-1] == pytest.approx(CLOSED_FORM_MIN, abs=1e-12)
        np.testing.assert_allclose(U, angle_problem(0.0), atol=1e-12)

    def test_converges_to_closed_form_minimum(self):
        problem = closed_form_problem()
        U, b, trace = palm_minimize(problem, angle_problem(1.2))
        assert trace[-1] == pytest.approx(CLOSED_FORM_MIN, abs=1e-6)
        assert abs(abs(U[0, 0]) - 1.0) < 1e-4 and abs(U[1, 0]) < 1e-3

    @pytest.mark.parametrize("minimize", [palm_minimize, ipalm_minimize])
    def test_offset_is_a_copy_of_the_weighted_mean(self, minimize):
        rng = np.random.default_rng(15)
        for seed in range(4):
            problem, _, _ = make_problem(rng, 7)
            _, b, _ = minimize(problem, random_stiefel(7, 3, seed=seed))
            assert b.tobytes() == problem.stats.mean.tobytes()
            assert not np.shares_memory(b, problem.stats.mean)

    def test_trace_monotone_and_frame_feasible(self):
        rng = np.random.default_rng(2)
        for seed in range(6):
            problem, _, _ = make_problem(rng, 6)
            U0 = random_stiefel(6, 2, seed=seed)
            U, b, trace = palm_minimize(problem, U0)
            assert np.all(np.diff(trace) <= 0.0)
            assert np.linalg.norm(U.T @ U - np.eye(2)) <= 1e-10

    def test_beats_random_search(self):
        rng = np.random.default_rng(8)
        problem, X, w = make_problem(rng, 6)
        U0 = random_stiefel(6, 2, seed=1)
        _, _, trace = palm_minimize(problem, U0)
        best = np.inf
        for i in range(1000):
            U = random_stiefel(6, 2, seed=1000 + i)
            try:
                best = min(best, palm_mod._Point(problem, U).G)
            except NotPositiveDefinite:
                continue
        assert trace[-1] <= best + 1e-9

    def test_subspace_recovery_at_small_sigma(self):
        # dominant first term at tiny sigma makes the optimal frame span the
        # top eigenvectors of the scatter about the mean
        rng = np.random.default_rng(10)
        X = rng.standard_normal((200, 8))
        X[:, :2] *= 5.0
        w = np.ones(200)
        stats = accumulate_stats(X, w[:, None], 0)
        problem = MStepProblem(stats=stats, sigma=1e-3)
        center = stats.mean
        U, _, _ = palm_minimize(problem, random_stiefel(8, 2, seed=0))
        scatter = (X - center).T @ (X - center)
        _, vecs = np.linalg.eigh(scatter)
        top = vecs[:, -2:]
        cosines = np.linalg.svd(top.T @ U, compute_uv=False)
        assert np.arccos(np.clip(cosines.min(), 0.0, 1.0)) < 0.02

    def test_right_rotation_invariance(self):
        rng = np.random.default_rng(12)
        problem, _, _ = make_problem(rng, 6)
        U = random_stiefel(6, 3, seed=2)
        R = random_stiefel(3, 3, seed=3)
        assert palm_mod._Point(problem, U @ R).G == pytest.approx(
            palm_mod._Point(problem, U).G, rel=1e-9, abs=1e-9
        )

    def test_line_search_failure_on_bogus_gradient(self, monkeypatch):
        problem = closed_form_problem()
        monkeypatch.setattr(
            palm_mod._Point,
            "grad_U",
            lambda point: np.full_like(point.U, 1e180),
        )
        with pytest.raises(LineSearchFailed):
            palm_minimize(problem, angle_problem(1.0))

    def test_factors_each_point_once(self, monkeypatch):
        # G and the gradient at one frame share one Cholesky factor, so no
        # matrix reaches try_cholesky twice in a solve
        factored = []

        def counting(M):
            factored.append(M.tobytes())
            return try_cholesky(M)

        try_cholesky = palm_mod.try_cholesky
        monkeypatch.setattr(palm_mod, "try_cholesky", counting)
        for minimize in (palm_minimize, ipalm_minimize):
            rng = np.random.default_rng(14)
            for seed in range(6):
                problem, _, _ = make_problem(rng, 8)
                factored.clear()
                _, _, trace = minimize(problem, random_stiefel(8, 3, seed=seed))
                assert trace.size > 2
                assert len(factored) == len(set(factored))

    @pytest.mark.parametrize("minimize", [palm_minimize, ipalm_minimize])
    def test_start_frame_without_scatter_is_nudged(self, minimize):
        # U0 = e3 sees no scatter, so U0^T C U0 = 0 does not factor; the
        # solve starts from the seeded tangent nudge of U0
        mean = np.array([1.0, 2.0, 3.0])
        problem = centred_problem(mean, np.diag([4.0, 1.0, 0.0]), 1.0, 1.0)
        U0 = np.eye(3)[:, 2:]
        with pytest.raises(NotPositiveDefinite):
            palm_mod._Point(problem, U0)
        start = palm_mod._perturb_tangent(U0, np.random.default_rng(0))
        assert 0.0 < np.linalg.norm(start - U0) <= 1e-5
        U, b, trace = minimize(problem, U0)
        assert trace[0] == palm_mod._Point(problem, start).G
        assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0.0)
        assert stiefel_defect(U) <= 1e-10

    # b0 is the weighted mean of the statistics, the offset the solver returns
    @pytest.mark.parametrize(
        "U0, b0",
        [
            (np.eye(3)[:, :1], np.zeros(2)),  # frame rows do not fit n = 2
            (np.ones((2, 3)), np.zeros(2)),  # wider than n
            (np.ones((2, 0)), np.zeros(2)),  # no columns
            (np.eye(2)[:, :1], np.zeros(3)),  # frame rows do not fit n = 3
        ],
    )
    @pytest.mark.parametrize("minimize", [palm_minimize, ipalm_minimize])
    def test_start_must_fit_statistics(self, minimize, U0, b0):
        with pytest.raises(InvalidShape):
            minimize(centred_problem(b0, np.eye(b0.size), 1.0, 1.0), U0)


def failing_cholesky(call):
    """try_cholesky that reports failure on its call numbered `call`,
    counting from 1."""
    real, count = palm_mod.try_cholesky, [0]

    def patched(M):
        count[0] += 1
        return None if count[0] == call else real(M)

    return patched


class TestBlockStep:
    # frame_step factors its start point on the first try_cholesky call
    @staticmethod
    def frame_step(gamma, tau=None, U_prev=None):
        rng = np.random.default_rng(3)
        problem, _, _ = make_problem(rng, 6)
        U = random_stiefel(6, 2, seed=3)
        point = palm_mod._Point(problem, U)
        tau = tau or palm_mod._initial_tau(problem)
        return tau, palm_mod._block_step(
            point, U if U_prev is None else U_prev, gamma, tau
        )

    @staticmethod
    def assert_same_step(got, want):
        assert got[0].G == want[0].G and got[1:] == want[1:]
        np.testing.assert_array_equal(got[0].U, want[0].U)

    def test_unfactorable_candidate_is_rejected_like_too_little_decrease(
        self, monkeypatch
    ):
        # the first candidate is accepted at tau when it factors; when it
        # does not, tau doubles and the step is the one taken at 2 tau
        tau, first = self.frame_step(0.0)
        assert first[2] == tau
        _, doubled = self.frame_step(0.0, 2.0 * tau)
        assert doubled[0].G != first[0].G
        monkeypatch.setattr(palm_mod, "try_cholesky", failing_cholesky(2))
        _, got = self.frame_step(0.0, tau)
        self.assert_same_step(got, doubled)

    def test_unfactorable_extrapolation_falls_back_to_the_monotone_step(
        self, monkeypatch
    ):
        # the extrapolated base point does not factor, so the step is the
        # plain backtracked step from the current frame
        U_prev = project_stiefel(
            random_stiefel(6, 2, seed=3) + 0.05 * np.eye(6)[:, 2:4]
        )
        tau, inertial = self.frame_step(0.5, None, U_prev)
        _, monotone = self.frame_step(0.0, tau)
        assert inertial[0].G != monotone[0].G
        monkeypatch.setattr(palm_mod, "try_cholesky", failing_cholesky(2))
        _, got = self.frame_step(0.5, tau, U_prev)
        self.assert_same_step(got, monotone)


class TestIpalm:
    def test_closed_form_within_twice_palm_iterations(self):
        problem = closed_form_problem()

        def iters_to_target(minimize):
            _, _, trace = minimize(problem, angle_problem(1.2))
            hits = np.flatnonzero(trace <= CLOSED_FORM_MIN + 1e-6)
            assert hits.size, "minimum never reached"
            return hits[0]

        assert iters_to_target(ipalm_minimize) <= 2 * iters_to_target(palm_minimize)

    def test_descent_over_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            problem, _, _ = make_problem(rng, 5)
            U0 = random_stiefel(5, 2, seed=seed)
            _, _, trace = ipalm_minimize(problem, U0)
            assert trace[-1] <= trace[0]
            assert np.all(np.diff(trace) <= 1e-12)


# each bad input and the error it must raise, with python -O as well
BAD_INPUTS = {
    "SolverConfig(max_iters=0)": "InvalidParameter",
    "MStepProblem(stats=STATS, sigma=0.0)": "InvalidParameter",
    "palm_minimize(MStepProblem(stats=STATS, sigma=1.0), np.zeros((2, 3)))":
        "InvalidShape",
    "SufficientStats(weight=-1.0, mean=np.zeros(2), scatter=np.eye(2))":
        "InvalidParameter",
    "SufficientStats(weight=1.0, mean=np.zeros(2), scatter=np.eye(3))":
        "InvalidShape",
}


# each Stiefel postcondition, made to fail by a defect function that always
# reports 1 in the named module, and the error it must raise under python -O
BROKEN_FRAMES = {
    "broken(linalg).project_stiefel(np.eye(3)[:, :2])": "RankDeficient",
    "broken(palm).palm_minimize(PROBLEM, np.eye(2)[:, :1])": "RankDeficient",
}


def test_stiefel_checks_survive_optimize_flag():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from pcagmm import linalg, palm\n"
        "from pcagmm.stats import SufficientStats\n"
        "STATS = SufficientStats(weight=1.0, mean=np.zeros(2), "
        "scatter=np.diag([4.0, 1.0]))\n"
        "PROBLEM = palm.MStepProblem(stats=STATS, sigma=1.0)\n"
        "DEFECT = linalg.stiefel_defect\n"
        "def broken(module):\n"
        "    module.stiefel_defect = lambda U: 1.0\n"
        "    return module\n"
        "for expr in sys.argv[1:]:\n"
        "    try:\n"
        "        eval(expr)\n"
        "        print('accepted')\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
        "    linalg.stiefel_defect = palm.stiefel_defect = DEFECT\n"
    )
    src = str(Path(pcagmm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *BROKEN_FRAMES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(BROKEN_FRAMES.values())


def test_input_checks_survive_optimize_flag():
    # python -O strips assert statements; the checks must still raise
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from pcagmm.palm import MStepProblem, SolverConfig, palm_minimize\n"
        "from pcagmm.stats import SufficientStats\n"
        "STATS = SufficientStats(weight=1.0, mean=np.zeros(2), scatter=np.eye(2))\n"
        "for expr in sys.argv[1:]:\n"
        "    try:\n"
        "        eval(expr)\n"
        "        print('accepted')\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    src = str(Path(pcagmm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *BAD_INPUTS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(BAD_INPUTS.values())
