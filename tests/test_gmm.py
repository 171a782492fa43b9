import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import pcagmm.linalg as linalg_mod
from pcagmm.errors import (
    DegenerateDensity,
    EmptyComponent,
    InvalidShape,
    NotPositiveDefinite,
)
from pcagmm.gmm import (
    EmConfig,
    GmmParams,
    _fill_whitening,
    _normalize_rows,
    _run_em,
    _score_blocks,
    fit_gmm,
    gauss_logpdf,
    gmm_estep,
    gmm_mstep,
    gmm_nll,
    kmeanspp_indices,
)
from pcagmm.stats import _EMPTY_REL


def random_params(rng, K, n):
    covs = np.empty((K, n, n))
    for k in range(K):
        A = rng.standard_normal((n, n))
        covs[k] = A @ A.T + np.eye(n)
    alpha = rng.uniform(0.2, 1.0, K)
    return GmmParams(alpha=alpha / alpha.sum(), means=rng.standard_normal((K, n)), covs=covs)


def dense_covs(X, beta):
    """Covariances of the M-step over every row, (X - mu)^T diag(beta) (X - mu)
    divided by the column mass, before the floor."""
    cols = beta.sum(axis=0)
    means = beta.T @ X / cols[:, None]
    covs = []
    for k in range(beta.shape[1]):
        D = X - means[k]
        covs.append((D.T * beta[:, k]) @ D / cols[k])
    return np.array(covs), means


def naive_density(x, mu, sigma):
    """Direct density evaluation with an explicit inverse; small dims only."""
    n = x.size
    diff = x - mu
    quad = diff @ np.linalg.inv(sigma) @ diff
    return (2 * np.pi) ** (-n / 2) * np.linalg.det(sigma) ** -0.5 * np.exp(-quad / 2)


class TestLogpdf:
    def test_at_mean_identity_cov(self):
        n = 4
        x = np.ones(n)
        assert gauss_logpdf(x, x, np.eye(n)) == pytest.approx(
            -0.5 * n * np.log(2 * np.pi), abs=1e-12
        )

    def test_standard_normal_origin(self):
        assert gauss_logpdf(np.zeros(1), np.zeros(1), np.eye(1)) == pytest.approx(
            -0.9189385, abs=1e-7
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_against_explicit_inverse(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T + np.eye(3)
        x, mu = rng.standard_normal(3), rng.standard_normal(3)
        assert gauss_logpdf(x, mu, sigma) == pytest.approx(
            np.log(naive_density(x, mu, sigma)), rel=1e-10
        )

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            gauss_logpdf(np.zeros(2), np.zeros(3), np.eye(3))


class TestNll:
    def test_single_point_at_mean(self):
        n = 3
        params = GmmParams(
            alpha=np.ones(1), means=np.zeros((1, n)), covs=np.eye(n)[None]
        )
        assert gmm_nll(params, np.zeros((1, n))) == pytest.approx(
            0.5 * n * np.log(2 * np.pi), abs=1e-12
        )

    def test_empty_data(self):
        params = GmmParams(
            alpha=np.ones(1), means=np.zeros((1, 2)), covs=np.eye(2)[None]
        )
        assert gmm_nll(params, np.zeros((0, 2))) == 0.0

    # at n = 1, K = 2, a budget of 8 bytes leaves blocks of n + 1 = 2 rows
    # scored one component a product, and 48 leaves 3-row blocks of both
    @pytest.mark.parametrize(
        "budget", [None, 8, 48], ids=["whole", "rows2-chunk1", "rows3"]
    )
    def test_against_naive_summation(self, budget, monkeypatch):
        rng = np.random.default_rng(2)
        params = random_params(rng, 2, 1)
        X = rng.standard_normal((20, 1))
        if budget is not None:
            monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", budget)
        naive = -sum(
            np.log(
                sum(
                    params.alpha[k] * naive_density(x, params.means[k], params.covs[k])
                    for k in range(2)
                )
            )
            for x in X
        )
        assert gmm_nll(params, X) == pytest.approx(naive, rel=1e-10)


class TestEstep:
    def test_single_component(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, 1, 2)
        beta = gmm_estep(params, rng.standard_normal((10, 2)))
        np.testing.assert_allclose(beta, 1.0)

    def test_identical_components_split_evenly(self):
        params = GmmParams(
            alpha=np.full(2, 0.5),
            means=np.zeros((2, 2)),
            covs=np.repeat(np.eye(2)[None], 2, axis=0),
        )
        beta = gmm_estep(params, np.random.default_rng(1).standard_normal((12, 2)))
        np.testing.assert_allclose(beta, 0.5, atol=1e-14)

    # at n = 2, K = 3, 10 rows: a budget of 16 bytes leaves blocks of
    # n + 1 = 3 rows (the last of 1) scored one component a product, 144
    # leaves 3-row blocks of all three, and 128 blocks of 4, 4 and 2 rows
    # scored two components and then one
    @pytest.mark.parametrize(
        "seed, budget",
        [
            pytest.param(seed, budget, id=f"{seed}-{name}" if budget else f"{seed}")
            for name, budget in [
                ("", None),
                ("rows3-chunk1", 16),
                ("rows3", 144),
                ("rows4-chunk2", 128),
            ]
            for seed in range(3)
        ],
    )
    def test_against_direct_ratio(self, seed, budget, monkeypatch):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 3, 2)
        X = rng.standard_normal((10, 2))
        if budget is not None:
            monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", budget)
        beta = gmm_estep(params, X)
        for i, x in enumerate(X):
            joint = np.array(
                [
                    params.alpha[k] * naive_density(x, params.means[k], params.covs[k])
                    for k in range(3)
                ]
            )
            np.testing.assert_allclose(beta[i], joint / joint.sum(), atol=1e-10)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-10)

    def test_degenerate_density_raises(self):
        params = GmmParams(
            alpha=np.ones(1), means=np.zeros((1, 1)), covs=np.eye(1)[None]
        )
        with pytest.raises(DegenerateDensity):
            gmm_estep(params, np.full((1, 1), 1e200))

    def test_zero_weight_component_is_never_factored(self):
        # its covariance does not factor, yet weight 0 leaves it out
        rng = np.random.default_rng(3)
        params = random_params(rng, 2, 3)
        params.alpha = np.array([1.0, 0.0])
        params.covs[1] = 0.0
        X = rng.standard_normal((8, 3))
        beta = gmm_estep(params, X)
        assert np.array_equal(beta, np.tile([1.0, 0.0], (8, 1)))
        alone = -sum(gauss_logpdf(x, params.means[0], params.covs[0]) for x in X)
        assert gmm_nll(params, X) == pytest.approx(alone, rel=1e-12)

    def test_blocks_keep_more_rows_than_the_dimension(self, monkeypatch):
        # a budget of one row for all components: fewer components a product
        # keep n + 1 rows a block, and the scores stay those of one product
        rng = np.random.default_rng(4)
        K, n = 8, 4
        params = random_params(rng, K, n)
        whiten, log_const = np.zeros((n + 1, K * n)), np.full(K, -np.inf)
        for k in range(K):
            L = np.linalg.cholesky(params.covs[k])
            _fill_whitening(whiten, log_const, k, L, params.means[k], params.alpha[k])
        X = rng.standard_normal((50, n))
        whole = [s.copy() for _, s in _score_blocks(X, whiten, log_const)]
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", 8 * K * n)
        blocks = [(r, s.copy()) for r, s in _score_blocks(X, whiten, log_const)]
        assert len(whole) == 1
        assert all(r.stop - r.start >= n + 1 for r, _ in blocks[:-1])
        np.testing.assert_allclose(
            np.vstack([s for _, s in blocks]), whole[0], rtol=1e-13
        )

    @pytest.mark.parametrize("K, n", [(20, 80), (20, 160), (2, 400)])
    @pytest.mark.parametrize("N", [4_000, 16_000])
    def test_working_set_does_not_grow_with_the_rows(self, N, K, n, traced_peak):
        # beyond its N x K output, the E-step holds the (n + 1) x K n stacked
        # whitening and one block of at most _BLOCK_BYTES of whitened rows (at
        # n = 160 a product scores 5 of the 20 components); at n = 400 factoring
        # one covariance, three n x n arrays, outgrows a block of n + 1 rows
        rng = np.random.default_rng(35)
        params = random_params(rng, K, n)
        X = rng.standard_normal((N, n))
        _, peak = traced_peak(gmm_estep, params, X)
        whitening = 8 * (n + 1) * K * n
        factoring = 3 * 8 * n * n  # the factor, the identity and the inverse
        scratch = max(linalg_mod._BLOCK_BYTES, factoring)
        assert peak - 8 * N * K < whitening + scratch + (1 << 19)

    @pytest.mark.parametrize("score", [gmm_estep, gmm_nll])
    def test_covariance_that_does_not_factor_raises(self, score):
        # covariances are floored where they are estimated; scoring factors
        # them as stored instead of scoring a shifted matrix
        params = GmmParams(
            alpha=np.full(2, 0.5),
            means=np.zeros((2, 2)),
            covs=np.stack([np.eye(2), np.zeros((2, 2))]),
        )
        with pytest.raises(NotPositiveDefinite):
            score(params, np.random.default_rng(2).standard_normal((5, 2)))
        with pytest.raises(NotPositiveDefinite):
            gauss_logpdf(np.zeros(2), np.zeros(2), params.covs[1])


class TestNormalizeRows:
    """The in-place normalization against scipy's logsumexp, with
    exp(L - norm) as the reference responsibilities. The scores lie in
    [1, 6], so every normalizer is at least 1 and below 8: the reference
    rounds norm to a double before exp(L - norm), and at |norm| = 40 that
    half-ulp, 3.6e-15, alone exceeds the 1e-15 bound."""

    @staticmethod
    def log_scores(case):
        L = np.random.default_rng(40).uniform(1.0, 6.0, (25, 6))
        if case == "zero-weight column":
            L[:, 2] = -np.inf
        elif case == "max leads by 1e3":
            L[::2, 0] = L[::2].max(axis=1) + 1e3
        elif case == "one component":
            L = L[:, :1]
        elif case == "no rows":
            L = L[:0]
        return L

    @pytest.mark.parametrize(
        "case",
        ["dense", "zero-weight column", "max leads by 1e3", "one component", "no rows"],
    )
    def test_matches_logsumexp(self, case):
        L = self.log_scores(case)
        ref_norm = logsumexp(L, axis=1)
        ref_beta = np.exp(L - ref_norm[:, None])
        beta, norm = _normalize_rows(L.copy())
        assert beta.shape == L.shape and norm.shape == (L.shape[0],)
        np.testing.assert_allclose(norm, ref_norm, rtol=1e-15, atol=0)
        np.testing.assert_allclose(beta, ref_beta, rtol=0, atol=1e-15)

    def test_normalizes_in_place(self):
        L = self.log_scores("dense")
        beta, _ = _normalize_rows(L)
        assert beta is L

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_row_without_finite_max_raises(self, bad):
        L = self.log_scores("dense")
        L[3] = -np.inf
        L[3, 1] = bad
        with pytest.raises(DegenerateDensity):
            _normalize_rows(L)


class TestMstep:
    def test_unweighted_moments(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 3))
        params = gmm_mstep(X, np.ones((40, 1)))
        np.testing.assert_allclose(params.alpha, [1.0])
        np.testing.assert_allclose(params.means[0], X.mean(axis=0), atol=1e-12)
        D = X - X.mean(axis=0)
        np.testing.assert_allclose(params.covs[0], D.T @ D / 40, atol=1e-12)

    def test_hard_partition_recovers_cluster_moments(self):
        rng = np.random.default_rng(6)
        X = np.concatenate([rng.standard_normal((15, 2)), 5 + rng.standard_normal((25, 2))])
        beta = np.zeros((40, 2))
        beta[:15, 0] = 1.0
        beta[15:, 1] = 1.0
        params = gmm_mstep(X, beta)
        for k, rows in enumerate((X[:15], X[15:])):
            np.testing.assert_allclose(params.alpha[k], rows.shape[0] / 40)
            np.testing.assert_allclose(params.means[k], rows.mean(axis=0), atol=1e-12)
            D = rows - rows.mean(axis=0)
            np.testing.assert_allclose(
                params.covs[k], D.T @ D / rows.shape[0], atol=1e-12
            )

    def test_identical_samples_floored(self):
        X = np.ones((10, 3))
        params = gmm_mstep(X, np.ones((10, 1)))
        params.validate()  # covariance factorizable thanks to the floor

    def test_empty_column_raises(self):
        X = np.random.default_rng(7).standard_normal((10, 2))
        beta = np.zeros((10, 2))
        beta[:, 0] = 1.0
        with pytest.raises(EmptyComponent) as err:
            gmm_mstep(X, beta)
        assert err.value.indices == (1,)

    def test_row_floor_drops_at_most_the_floored_mass(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((200, 5))
        w = 10.0 ** rng.uniform(-20.0, 0.0, 200)
        beta = np.stack([1.0 - w, w], axis=1)
        params = gmm_mstep(X, beta)
        ref, means = dense_covs(X, beta)
        dropped = beta < _EMPTY_REL
        assert 0 < dropped[:, 1].sum() < 200
        for k in range(2):
            d2 = np.sum((X - means[k]) ** 2, axis=1)
            bound = np.sum(beta[dropped[:, k], k] * d2[dropped[:, k]]) / beta[:, k].sum()
            scale = np.linalg.norm(ref[k], 2)
            assert np.linalg.norm(params.covs[k] - ref[k], 2) <= bound + 1e-12 * scale

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_far_from_origin_matches_centred_reference(self, shift):
        # at shift 1e3 the raw moment minus the outer product of the mean is
        # off by about 7e-7 relative
        rng = np.random.default_rng(31)
        X = shift + 0.05 * rng.standard_normal((300, 6))
        beta = rng.dirichlet(np.full(3, 0.3), 300)
        params = gmm_mstep(X, beta)
        ref, _ = dense_covs(X, beta)
        for k in range(3):
            err = np.linalg.norm(params.covs[k] - ref[k], 2)
            assert err <= 1e-9 * np.linalg.norm(ref[k], 2)

    def test_rows_at_the_floor_are_kept(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((40, 3))
        beta = np.full((40, 2), _EMPTY_REL)
        beta[:, 0] = 1.0 - _EMPTY_REL
        params = gmm_mstep(X, beta)
        ref, _ = dense_covs(X, beta)
        np.testing.assert_allclose(params.covs, ref, rtol=1e-12, atol=1e-14)

    def test_no_rows_names_every_column(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyComponent) as err:
                gmm_mstep(np.zeros((0, 3)), np.zeros((0, 4)))
        assert err.value.indices == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "beta_shape", [(9, 2), (11, 2), (10,), (10, 2, 1)]
    )
    def test_responsibility_shape_mismatch(self, beta_shape):
        X = np.random.default_rng(33).standard_normal((10, 3))
        with pytest.raises(InvalidShape):
            gmm_mstep(X, np.full(beta_shape, 0.5))

    def test_peak_memory_below_one_copy_of_the_data(self, traced_peak):
        # a hard partition: each component gathers one eighth of the rows
        rng = np.random.default_rng(34)
        N, n, K = 20_000, 80, 8
        X = rng.standard_normal((N, n))
        beta = np.zeros((N, K))
        beta[np.arange(N), np.arange(N) % K] = 1.0
        _, peak = traced_peak(gmm_mstep, X, beta)
        assert peak < X.nbytes


class TestFit:
    def test_recovers_single_gaussian_mean(self):
        rng = np.random.default_rng(8)
        true_mean = np.array([1.0, -2.0])
        X = true_mean + rng.standard_normal((4000, 2))
        params, trace = fit_gmm(X, 1, seed=0)
        stderr = 1.0 / np.sqrt(4000)
        assert np.all(np.abs(params.means[0] - X.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(params.means[0] - true_mean) <= 3 * stderr)

    def test_separates_two_clusters(self):
        rng = np.random.default_rng(9)
        X = np.concatenate(
            [rng.normal(-3.0, 0.2, 300), rng.normal(3.0, 0.2, 300)]
        ).reshape(-1, 1)
        params, trace = fit_gmm(X, 2, seed=1)
        centers = np.sort(params.means.ravel())
        assert abs(centers[0] + 3.0) < 0.1 and abs(centers[1] - 3.0) < 0.1

    def test_boundary_n_equals_k(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params, trace = fit_gmm(X, 3, seed=2)
        params.validate()

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_monotone(self, seed):
        rng = np.random.default_rng(seed)
        X = np.concatenate(
            [rng.standard_normal((150, 3)), 4 + rng.standard_normal((150, 3))]
        )
        params, trace = fit_gmm(X, 3, EmConfig(max_iters=40), seed=seed)
        if trace.n_reseeds == 0:
            diffs = np.diff(trace.objective)
            scale = np.maximum(np.abs(trace.objective[:-1]), 1.0)
            assert np.all(diffs <= 1e-8 * scale)

    def test_fixed_point_single_component(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 2))
        params = gmm_mstep(X, np.ones((50, 1)))
        again = gmm_mstep(X, gmm_estep(params, X))
        np.testing.assert_allclose(again.means, params.means, atol=1e-12)
        np.testing.assert_allclose(again.covs, params.covs, atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(InvalidShape):
            fit_gmm(np.zeros((2, 2)), 3)


class _Scripted:
    """One-component model for _run_em whose objective follows a script: each
    M-step moves it to the next value."""

    def __init__(self, values):
        self.values = values
        self.step = 0
        self.alpha = np.ones(1)
        self.means = np.zeros((1, 1))
        self.n_components = 1

    @staticmethod
    def log_joint(model, X):
        return np.full((X.shape[0], 1), -model.values[model.step] / X.shape[0])

    @staticmethod
    def mstep(model, X, beta):
        model.step += 1
        return model


@pytest.mark.parametrize(
    "values, max_iters, stop",
    [
        ([10.0, 5.0, 7.0, 1.0], 10, "rise"),
        ([10.0, 5.0, 5.0, 1.0], 10, "tolerance"),
        ([10.0, 5.0, 5.0 + 1e-9, 1.0], 10, "tolerance"),  # rose within the tolerance
        ([10.0, 5.0, 7.0], 1, "max_iters"),
    ],
)
def test_em_stop_reason(values, max_iters, stop):
    _, trace = _run_em(
        np.zeros((2, 1)),
        _Scripted(values),
        _Scripted.log_joint,
        _Scripted.mstep,
        None,
        EmConfig(max_iters=max_iters, tol=1e-5),
    )
    assert trace.stop == stop
    np.testing.assert_allclose(trace.objective, values[: min(3, max_iters + 1)])


def exact_kmeanspp_indices(X, K, rng):
    """Seeding with the squared distances computed as ||x - c||^2 directly."""
    N = X.shape[0]
    chosen = [int(rng.integers(N))]
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    for _ in range(K - 1):
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(N)))
            continue
        chosen.append(int(rng.choice(N, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((X - X[chosen[-1]]) ** 2, axis=1))
    return np.asarray(chosen)


class TestKmeansppSeeding:
    def test_offset_data_with_duplicates_never_repeats_a_row(self):
        # at an offset of 1e3 the product form ||x||^2 - 2 x.c + ||c||^2
        # cancels to rounding noise on rows equal to a seed; clamped at 0,
        # that noise must neither raise in rng.choice nor pick such a row
        rng = np.random.default_rng(19)
        distinct = 1e3 + rng.standard_normal((40, 6))
        X = np.concatenate([distinct, distinct[:15], distinct[:15]])
        for seed in range(5):
            idx, _ = kmeanspp_indices(X, 30, np.random.default_rng(seed))
            assert idx.shape == (30,)
            assert len({X[i].tobytes() for i in idx}) == 30

    def test_identical_rows(self):
        X = np.full((12, 5), 0.37)
        idx, _ = kmeanspp_indices(X, 4, np.random.default_rng(0))
        assert idx.shape == (4,)
        assert np.all((0 <= idx) & (idx < 12))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_distances(self, seed):
        rng = np.random.default_rng(20 + seed)
        X = rng.standard_normal((300, 8)) * rng.uniform(0.1, 3.0, 8) + 2.0
        np.testing.assert_array_equal(
            kmeanspp_indices(X, 20, np.random.default_rng(seed))[0],
            exact_kmeanspp_indices(X, 20, np.random.default_rng(seed)),
        )
