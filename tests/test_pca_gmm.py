import warnings

import numpy as np
import pytest

import pcagmm.gmm as gmm_mod
import pcagmm.linalg as linalg_mod
import pcagmm.pca_gmm as pca_mod
from pcagmm.errors import EmptyComponent, InvalidParameter, NotPositiveDefinite
from pcagmm.gmm import EmConfig, GmmParams, fit_gmm, gauss_logpdf, gmm_estep, gmm_nll
from pcagmm.linalg import random_stiefel, stiefel_defect
from pcagmm.palm import SolverConfig
from pcagmm.pca_gmm import (
    PcaGmmModel,
    fit_pcagmm,
    lift_component,
    pcagmm_estep,
    pcagmm_objective,
    recover_component,
)
from pcagmm.stats import _EMPTY_REL, SufficientStats, accumulate_stats


def random_cov(rng, d, shift=0.5):
    A = rng.standard_normal((d, d))
    return A @ A.T + shift * np.eye(d)


def random_variances(rng, *shape):
    return rng.uniform(0.5, 4.0, shape)


def random_model(rng, K, n, d, sigma=0.3):
    alpha = rng.uniform(0.2, 1.0, K)
    return PcaGmmModel(
        alpha=alpha / alpha.sum(),
        bases=np.stack([random_stiefel(n, d, seed=int(rng.integers(1 << 30))) for _ in range(K)]),
        offsets=rng.standard_normal((K, n)),
        variances=random_variances(rng, K, d),
        sigma=sigma,
    )


def full_dim_view(params):
    """Embed plain mixture parameters as a subspace model with d = n: each
    frame is the eigenbasis of a covariance, the variances its eigenvalues."""
    variances, bases = np.linalg.eigh(params.covs)
    return PcaGmmModel(
        alpha=params.alpha.copy(),
        bases=bases,
        offsets=params.means.copy(),
        variances=variances,
        sigma=0.7,
    )


def lifted_params(model):
    """Lift every component into a plain full-dimensional mixture."""
    lifted = [
        lift_component(model.bases[k], model.offsets[k], model.variances[k], model.sigma)
        for k in range(model.n_components)
    ]
    return GmmParams(
        alpha=model.alpha.copy(),
        means=np.stack([g.mean for g in lifted]),
        covs=np.stack([g.cov for g in lifted]),
    )


def log_joint_factor(basis, offset, variances, sigma, x):
    """Left side of the lifting identity in log form: reduced density times
    the off-subspace residual factor."""
    y = x - offset
    p = basis.T @ y
    residual = y @ y - p @ p
    return gauss_logpdf(p, np.zeros(p.size), np.diag(variances)) - residual / (
        2.0 * sigma**2
    )


class TestLift:
    def test_identity_at_full_dimension(self):
        rng = np.random.default_rng(0)
        variances = random_variances(rng, 4)
        mean = rng.standard_normal(4)
        lifted = lift_component(np.eye(4), mean, variances, 0.5)
        np.testing.assert_allclose(lifted.mean, mean, atol=1e-14)
        np.testing.assert_allclose(lifted.cov, np.diag(variances), atol=1e-14)

    def test_axis_aligned_block_structure(self):
        s, sigma = 2.5, 0.4
        offset = np.array([0.3, -0.7])
        lifted = lift_component(np.array([[1.0], [0.0]]), offset, np.array([s]), sigma)
        np.testing.assert_allclose(lifted.cov, np.diag([s, sigma**2]), atol=1e-14)
        np.testing.assert_allclose(lifted.mean, offset)

    @pytest.mark.parametrize("seed", range(6))
    def test_lifting_identity(self, seed):
        # both routes of the density identity in log form
        rng = np.random.default_rng(seed)
        n, d = 8, 3
        basis = random_stiefel(n, d, seed=seed)
        offset = rng.standard_normal(n)
        variances = random_variances(rng, d)
        sigma = rng.uniform(0.1, 0.8)
        lifted = lift_component(basis, offset, variances, sigma)
        for _ in range(20):
            x = rng.standard_normal(n)
            lhs = log_joint_factor(basis, offset, variances, sigma, x)
            rhs = 0.5 * (n - d) * np.log(2 * np.pi * sigma**2) + gauss_logpdf(
                x, lifted.mean, lifted.cov
            )
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_eigenvalue_structure(self):
        rng = np.random.default_rng(7)
        n, d, sigma = 9, 3, 0.35
        variances = random_variances(rng, d)
        lifted = lift_component(
            random_stiefel(n, d, seed=1), rng.standard_normal(n), variances, sigma
        )
        lifted_evals = np.sort(np.linalg.eigvalsh(lifted.cov))
        reduced_evals = np.sort(variances)
        stray = np.sort(
            np.setdiff1d(
                np.arange(n),
                [np.argmin(np.abs(lifted_evals - e)) for e in reduced_evals],
            )
        )
        assert stray.size == n - d
        np.testing.assert_allclose(lifted_evals[stray], sigma**2, rtol=1e-8)

    def test_logdet_relation(self):
        rng = np.random.default_rng(8)
        n, d, sigma = 7, 2, 0.6
        variances = random_variances(rng, d)
        lifted = lift_component(
            random_stiefel(n, d, seed=2), rng.standard_normal(n), variances, sigma
        )
        assert np.linalg.slogdet(lifted.cov)[1] == pytest.approx(
            np.log(variances).sum() + (n - d) * np.log(sigma**2), rel=1e-8
        )


class TestObjective:
    def test_reduces_to_plain_nll_at_full_dimension(self):
        rng = np.random.default_rng(1)
        params = GmmParams(
            alpha=np.ones(1),
            means=rng.standard_normal((1, 3)),
            covs=random_cov(rng, 3)[None],
        )
        model = full_dim_view(params)
        X = rng.standard_normal((25, 3))
        assert pcagmm_objective(model, X) == pytest.approx(
            gmm_nll(params, X), rel=1e-12
        )

    def test_in_subspace_data_matches_reduced_nll(self):
        rng = np.random.default_rng(2)
        n, d = 6, 2
        model = random_model(rng, 1, n, d, sigma=1e6)
        basis, offset = model.bases[0], model.offsets[0]
        coeffs = rng.standard_normal((30, d))
        X = coeffs @ basis.T + offset
        reduced = GmmParams(
            alpha=np.ones(1), means=np.zeros((1, d)), covs=np.diag(model.variances[0])[None]
        )
        assert pcagmm_objective(model, X) == pytest.approx(
            gmm_nll(reduced, coeffs), rel=1e-10
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_two_route_evaluation(self, seed):
        # reduced-form objective equals the lifted-mixture objective minus
        # N (n - d) log sqrt(2 pi sigma^2)
        rng = np.random.default_rng(seed)
        n, d, N = 7, 3, 40
        model = random_model(rng, 3, n, d, sigma=0.5)
        X = rng.standard_normal((N, n))
        low_route = pcagmm_objective(model, X)
        lifted_route = gmm_nll(lifted_params(model), X)
        shift = N * (n - d) * np.log(np.sqrt(2 * np.pi * model.sigma**2))
        assert lifted_route == pytest.approx(low_route + shift, rel=1e-8)

    def test_empty_data(self):
        model = random_model(np.random.default_rng(3), 2, 5, 2)
        assert pcagmm_objective(model, np.zeros((0, 5))) == 0.0


class TestEstep:
    def test_single_component(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 1, 5, 2)
        beta = pcagmm_estep(model, rng.standard_normal((12, 5)))
        np.testing.assert_allclose(beta, 1.0)

    @pytest.mark.parametrize("score", [pcagmm_estep, pcagmm_objective])
    def test_covariance_that_does_not_factor_raises(self, score):
        # a trace-scaled shift would make diag(1, -1e-7) factor; scoring
        # takes the variances as stored and scores no shifted matrix
        model = random_model(np.random.default_rng(4), 1, 5, 2)
        model.variances[0] = [1.0, -1e-7]
        with pytest.raises(NotPositiveDefinite):
            score(model, np.random.default_rng(5).standard_normal((12, 5)))

    def test_matches_plain_estep_at_full_dimension(self):
        rng = np.random.default_rng(5)
        covs = np.stack([random_cov(rng, 3) for _ in range(3)])
        alpha = rng.uniform(0.1, 1.0, 3)
        params = GmmParams(
            alpha=alpha / alpha.sum(), means=rng.standard_normal((3, 3)), covs=covs
        )
        model = full_dim_view(params)
        X = rng.standard_normal((30, 3))
        np.testing.assert_allclose(
            pcagmm_estep(model, X), gmm_estep(params, X), atol=1e-10
        )

    def test_disjoint_subspaces_separate(self):
        rng = np.random.default_rng(6)
        n = 4
        bases = np.zeros((2, n, 1))
        bases[0, 0, 0] = 1.0
        bases[1, 2, 0] = 1.0
        model = PcaGmmModel(
            alpha=np.full(2, 0.5),
            bases=bases,
            offsets=np.zeros((2, n)),
            variances=np.full((2, 1), 4.0),
            sigma=0.05,
        )
        t = rng.uniform(1.0, 2.0, 20)
        X0 = np.zeros((20, n))
        X0[:, 0] = t
        X1 = np.zeros((20, n))
        X1[:, 2] = t
        beta0 = pcagmm_estep(model, X0)
        beta1 = pcagmm_estep(model, X1)
        assert np.all(beta0[:, 0] >= 0.99)
        assert np.all(beta1[:, 1] >= 0.99)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 4, 6, 2)
        beta = pcagmm_estep(model, rng.standard_normal((50, 6)))
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-10)

    @staticmethod
    def direct_log_joint(model, X):
        """Per-component, per-sample reference: log alpha_k plus the reduced
        density of U^T (x - b) minus ||x - b||^2 - ||U^T (x - b)||^2 over
        2 sigma^2."""
        out = np.empty((X.shape[0], model.n_components))
        for k in range(model.n_components):
            U, b = model.bases[k], model.offsets[k]
            for i, x in enumerate(X):
                y = x - b
                p = U.T @ y
                out[i, k] = (
                    np.log(model.alpha[k])
                    + gauss_logpdf(p, np.zeros(p.size), np.diag(model.variances[k]))
                    - (y @ y - p @ p) / (2.0 * model.sigma**2)
                )
        return out

    @pytest.mark.parametrize("shift, tol", [(0.0, 1e-10), (1e3, 1e-7)])
    def test_log_joint_matches_direct_residual(self, shift, tol):
        # the shift moves data and offsets together; expanding ||x - b||^2
        # about the origin instead of the data mean is off by 5e-6 at 1e3
        rng = np.random.default_rng(30)
        model = random_model(rng, 4, 40, 3, sigma=0.05)
        X = rng.standard_normal((150, 40)) + shift
        model.offsets += shift
        got = pca_mod._log_joint(model, X)
        np.testing.assert_allclose(got, self.direct_log_joint(model, X), rtol=0, atol=tol)

    @pytest.mark.parametrize("N", [15, 5])
    @pytest.mark.parametrize("shift, tol", [(0.0, 1e-10), (1e3, 1e-7)])
    def test_log_joint_across_block_edges(self, N, shift, tol, monkeypatch):
        # blocks of 7 rows: two whole blocks and a 1-row block, or one partial
        K, n, d = 4, 40, 3
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", 7 * 8 * max(K * d, n))
        rng = np.random.default_rng(33)
        model = random_model(rng, K, n, d, sigma=0.05)
        X = rng.standard_normal((N, n)) + shift
        model.offsets += shift
        got = pca_mod._log_joint(model, X)
        np.testing.assert_allclose(got, self.direct_log_joint(model, X), rtol=0, atol=tol)

    def test_component_without_weight_scores_minus_inf(self, monkeypatch):
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", 7 * 8 * 6)  # 7-row blocks
        rng = np.random.default_rng(31)
        model = random_model(rng, 3, 6, 2)
        model.alpha = np.array([0.5, 0.0, 0.5])
        scores = pca_mod._log_joint(model, rng.standard_normal((20, 6)))
        assert np.all(scores[:, 1] == -np.inf)
        assert np.all(np.isfinite(scores[:, [0, 2]]))

    def test_no_rows(self):
        model = random_model(np.random.default_rng(32), 3, 5, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = pcagmm_estep(model, np.zeros((0, 5)))
        assert beta.shape == (0, 3)


class TestStats:
    def test_unit_weights(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((15, 4))
        stats = accumulate_stats(X, np.ones((15, 1)), 0)
        assert stats.weight == pytest.approx(15.0)
        D = X - X.mean(axis=0)
        np.testing.assert_allclose(stats.mean, X.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(stats.scatter, D.T @ D, atol=1e-12)

    def test_zero_weights(self):
        X = np.random.default_rng(9).standard_normal((10, 3))
        beta = np.zeros((10, 2))
        beta[:, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = accumulate_stats(X, beta, 1)
        assert stats.weight == 0.0
        np.testing.assert_array_equal(stats.mean, 0.0)
        np.testing.assert_array_equal(stats.scatter, 0.0)

    def test_against_naive_loop(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((20, 4))
        beta = rng.uniform(0.0, 1.0, (20, 3))
        beta /= beta.sum(axis=1, keepdims=True)
        stats = accumulate_stats(X, beta, 1)
        mean = sum(b * x for b, x in zip(beta[:, 1], X)) / beta[:, 1].sum()
        scatter = sum(b * np.outer(x - mean, x - mean) for b, x in zip(beta[:, 1], X))
        assert stats.weight == pytest.approx(beta[:, 1].sum(), abs=1e-12)
        np.testing.assert_allclose(stats.mean, mean, atol=1e-12)
        np.testing.assert_allclose(stats.scatter, scatter, atol=1e-12)

    def test_centered_second_moment_psd(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((30, 3))
        beta = rng.uniform(0.1, 1.0, (30, 1))
        stats = accumulate_stats(X, beta, 0)
        assert np.linalg.eigvalsh(stats.scatter).min() >= -1e-10

    def test_row_floor_drops_at_most_the_floored_mass(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((200, 5))
        w = 10.0 ** rng.uniform(-20.0, 0.0, 200)
        beta = np.stack([1.0 - w, w], axis=1)
        stats = accumulate_stats(X, beta, 1)
        dropped = w < _EMPTY_REL
        assert 0 < dropped.sum() < 200
        norms = np.linalg.norm(X, axis=1)
        bound = [np.sum(w[dropped] * norms[dropped] ** p) for p in (0, 1, 2)]
        sum_x = sum(b * x for b, x in zip(w, X))
        sum_outer = sum(b * np.outer(x, x) for b, x in zip(w, X))
        m = stats.mean
        assert abs(stats.weight - w.sum()) <= bound[0] + 1e-13
        assert np.linalg.norm(stats.weight * m - sum_x) <= bound[1] + 1e-13
        second = stats.scatter + stats.weight * np.outer(m, m)
        assert np.linalg.norm(second - sum_outer, 2) <= bound[2] + 1e-13

    def test_row_floor_keeps_rows_at_the_floor(self):
        X = np.random.default_rng(34).standard_normal((40, 3))
        stats = accumulate_stats(X, np.full((40, 1), _EMPTY_REL), 0)
        assert stats.weight == pytest.approx(40 * _EMPTY_REL, rel=1e-14)
        D = X - X.mean(axis=0)
        np.testing.assert_allclose(stats.mean, X.mean(axis=0), rtol=1e-13)
        np.testing.assert_allclose(
            stats.scatter, _EMPTY_REL * D.T @ D, rtol=1e-12, atol=1e-25
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_unstarved_column_has_positive_weight(self, seed):
        # EM counts a column as starved below _EMPTY_REL * N; any column at or
        # above that mass has an entry at or above _EMPTY_REL
        rng = np.random.default_rng(seed)
        N = 500
        w = rng.dirichlet(np.full(N, 0.05)) * (_EMPTY_REL * N) * (1.0 + 1e-9)
        assert w.sum() >= _EMPTY_REL * N
        stats = accumulate_stats(rng.standard_normal((N, 4)), w[:, None], 0)
        assert stats.weight > 0.0


class TestRecover:
    @staticmethod
    def assert_eigenbasis(stats, basis, U, v, scatter, tol):
        """U spans basis, U^T S U / w is diag(v) for the reference scatter S
        about the weighted mean, and v descends."""
        P = basis @ basis.T
        assert np.linalg.norm(U @ U.T - P) <= 1e-12
        A = U.T @ scatter @ U / stats.weight
        off = A - np.diag(np.diag(A))
        assert np.linalg.norm(off) <= tol * np.linalg.norm(A)
        np.testing.assert_allclose(np.diag(A), v, rtol=tol)
        assert np.all(np.diff(v) <= 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_frame_diagonalizes_the_projected_scatter(self, seed):
        rng = np.random.default_rng(40 + seed)
        n, d = 9, 4
        X = rng.standard_normal((60, n)) * rng.uniform(0.2, 3.0, n) + rng.standard_normal(n)
        w = rng.uniform(0.05, 1.0, 60)
        stats = accumulate_stats(X, w[:, None], 0)
        basis = random_stiefel(n, d, seed=seed)
        U, v = recover_component(stats, basis)
        assert stiefel_defect(U) <= 1e-12
        self.assert_eigenbasis(stats, basis, U, v, stats.scatter, 1e-12)
        # the variances are the eigenvalues of the projected covariance
        A = basis.T @ stats.scatter @ basis / stats.weight
        np.testing.assert_allclose(v, np.linalg.eigvalsh(A)[::-1], rtol=1e-12)

    def test_full_dimension_identity_frame(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((20, 3))
        stats = accumulate_stats(X, np.ones((20, 1)), 0)
        U, v = recover_component(stats, np.eye(3))
        D = X - X.mean(axis=0)
        np.testing.assert_allclose((U * v) @ U.T, D.T @ D / 20, atol=1e-12)
        self.assert_eigenbasis(stats, np.eye(3), U, v, D.T @ D, 1e-12)

    def test_scatter_matches_naive_recentering(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 4))
        w = rng.uniform(0.1, 1.0, 20)
        stats = accumulate_stats(X, w[:, None], 0)
        basis = random_stiefel(4, 2, seed=4)
        U, v = recover_component(stats, basis)
        mean = w @ X / w.sum()
        scatter = sum(wi * np.outer(x - mean, x - mean) for wi, x in zip(w, X))
        P = basis @ basis.T
        np.testing.assert_allclose(
            (U * v) @ U.T, P @ scatter @ P / stats.weight, atol=1e-10
        )

    def test_empty_component(self):
        stats = SufficientStats(weight=0.0, mean=np.zeros(3), scatter=np.zeros((3, 3)))
        with pytest.raises(EmptyComponent):
            recover_component(stats, np.eye(3)[:, :1])


class TestInit:
    def test_nearest_seed_matches_broadcast_argmin_with_ties(self):
        # integer coordinates keep every squared distance exact, so grid
        # points halfway between two seeds tie exactly; the seeding pass must
        # give a tie to the earlier seed, as argmin does
        X = np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0)), axis=-1)
        X = X.reshape(-1, 2)
        n_ties = 0
        for seed in range(5):
            seeds, labels = gmm_mod.kmeanspp_indices(
                X, 8, np.random.default_rng(seed)
            )
            d2 = ((X[:, None, :] - X[seeds][None, :, :]) ** 2).sum(axis=2)
            n_ties += np.sum(np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1)
            np.testing.assert_array_equal(labels, np.argmin(d2, axis=1))
        assert n_ties > 0

    def test_nearest_seed_matches_broadcast_argmin(self):
        # on float data the product form rounds differently from the direct
        # distances; it must agree wherever the nearest seed is well defined
        rng = np.random.default_rng(17)
        X = rng.standard_normal((500, 9)) * 3.0 + 5.0
        seeds, labels = gmm_mod.kmeanspp_indices(X, 25, rng)
        d2 = ((X[:, None, :] - X[seeds][None, :, :]) ** 2).sum(axis=2)
        two = np.sort(d2, axis=1)[:, :2]
        clear = two[:, 1] - two[:, 0] > 1e-9 * two[:, 1]
        assert np.mean(clear) > 0.9
        np.testing.assert_array_equal(labels[clear], np.argmin(d2, axis=1)[clear])

    def test_seed_drawn_on_zero_distances_gets_no_rows(self):
        # three distinct integer rows, four copies each: after three seeds
        # every squared distance is exactly 0, so seeds 3 and 4 are drawn
        # uniformly, take no rows and start from all the data
        X = np.tile([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], (4, 1))
        seeds, labels = gmm_mod.kmeanspp_indices(X, 5, np.random.default_rng(0))
        assert len({X[i].tobytes() for i in seeds[:3]}) == 3
        assert sorted(set(labels.tolist())) == [0, 1, 2]
        np.testing.assert_array_equal(X, X[seeds][labels])
        model = pca_mod._init_model(X, 5, 1, 0.1, np.random.default_rng(0))
        for k in (3, 4):
            np.testing.assert_allclose(model.offsets[k], X.mean(axis=0), rtol=1e-12)
        np.testing.assert_array_equal(model.offsets[:3], X[seeds[:3]])

    def test_seeding_goes_through_the_pca_gmm_attribute(self, monkeypatch):
        # the benchmark's tracer wraps pca_gmm.kmeanspp_indices
        calls = []

        def counting(*args):
            calls.append(args[1])
            return gmm_mod.kmeanspp_indices(*args)

        monkeypatch.setattr(pca_mod, "kmeanspp_indices", counting)
        X = np.random.default_rng(18).standard_normal((60, 5))
        pca_mod._init_model(X, 3, 2, 0.1, np.random.default_rng(0))
        assert calls == [3]

    def test_cluster_of_one_point_is_initialised_from_all_the_data(self):
        # k-means++ seeds the far outlier, whose cluster is then the outlier
        # alone; that component starts from the PCA of every row instead
        rng = np.random.default_rng(19)
        X = rng.standard_normal((60, 5)) * np.linspace(2.0, 0.5, 5)
        X[0] = 1e3
        _, labels = gmm_mod.kmeanspp_indices(X, 2, np.random.default_rng(0))
        k = labels[0]
        assert np.flatnonzero(labels == k).tolist() == [0]
        model = pca_mod._init_model(X, 2, 2, 0.1, np.random.default_rng(0))
        np.testing.assert_allclose(model.offsets[k], X.mean(axis=0), rtol=1e-12)
        Y = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Y.T @ Y / 60)
        np.testing.assert_allclose(model.variances[k], evals[:-3:-1], rtol=1e-10)
        U = model.bases[k]
        assert np.linalg.norm(U @ U.T - evecs[:, -2:] @ evecs[:, -2:].T) <= 1e-8

    @pytest.mark.parametrize(
        "case",
        [
            "m<d",
            "m=d",
            "m=d+1",
            "m>n",
            "repeated rows",
            "m=n",
            "repeated rows, m<n",
            "m<n, n=200",
        ],
    )
    def test_frame_spans_top_eigenvectors(self, case):
        # one cluster of m points; the frame must be orthonormal even where
        # the centred cluster has rank below d, and span the top eigenvectors
        # of the cluster scatter wherever the eigengap defines them. Clusters
        # of m <= n points are factored through their m x m Gram matrix.
        n, d = (200, 20) if case == "m<n, n=200" else (12, 5)
        m = {
            "m<d": 3,
            "m=d": 5,
            "m=d+1": 6,
            "m>n": 40,
            "repeated rows": 30,
            "m=n": 12,
            "repeated rows, m<n": 8,
            "m<n, n=200": 60,
        }[case]
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m, n)) @ np.diag(np.linspace(3.0, 0.5, n))
        if case.startswith("repeated rows"):
            X[1:] = X[1]
        model = pca_mod._init_model(X, 1, d, 0.1, np.random.default_rng(0))
        U = model.bases[0]
        assert stiefel_defect(U) <= 1e-10
        np.testing.assert_allclose(model.offsets[0], X.mean(axis=0), atol=1e-12)
        Y = X - X.mean(axis=0)
        evals, evecs = np.linalg.eigh(Y.T @ Y / m)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        floor = 1e-6 * evals[0] + 1e-12
        np.testing.assert_allclose(
            model.variances[0],
            np.maximum(evals[:d], floor),
            rtol=1e-10,
            atol=1e-12 * evals[0],
        )
        gaps = evals[:d] - evals[1 : d + 1]
        top = max(r + 1 for r in range(d) if gaps[r] > 1e-6 * evals[0])
        P_init = U[:, :top] @ U[:, :top].T
        P_eigh = evecs[:, :top] @ evecs[:, :top].T
        assert np.linalg.norm(P_init - P_eigh) <= 1e-8
        assert top == min(d, np.linalg.matrix_rank(Y))


class TestFlooredStats:
    def test_jitter_on_the_diagonal_copy_is_bitwise_the_identity_sum(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((50, 7))
        w = rng.uniform(0.1, 1.0, (50, 1))
        stats = accumulate_stats(X, w, 0)
        before = stats.scatter.copy()
        floored = pca_mod._floored_stats(stats)
        m = stats.mean
        second = float(np.trace(before)) + stats.weight * float(m @ m)
        eps = 1e-10 * (second / 7 + 1e-12)
        # the mean diagonal of the second moment about the origin
        assert second == pytest.approx(np.sum(w * X * X), rel=1e-13)
        assert floored.scatter.tobytes() == (before + eps * np.eye(7)).tobytes()
        assert stats.scatter.tobytes() == before.tobytes()
        assert floored.mean is stats.mean and floored.weight == stats.weight


class TestFit:
    @pytest.mark.parametrize("sigma", [1e-300, 1e160, 0.0, -0.1, np.nan, np.inf])
    def test_sigma_square_must_be_positive_and_finite(self, sigma):
        X = np.random.default_rng(0).standard_normal((20, 4))
        with pytest.raises(InvalidParameter, match="sigma"):
            fit_pcagmm(X, 2, 2, sigma=sigma)

    def test_recovers_planar_subspace(self):
        rng = np.random.default_rng(15)
        n, d = 6, 2
        basis = random_stiefel(n, d, seed=5)
        offset = rng.standard_normal(n)
        X = rng.standard_normal((600, d)) @ np.diag([3.0, 2.0]) @ basis.T + offset
        X += 0.05 * rng.standard_normal(X.shape)
        model, trace = fit_pcagmm(X, 1, d, sigma=0.05, seed=0)
        center = X.mean(axis=0)
        scatter = (X - center).T @ (X - center)
        _, vecs = np.linalg.eigh(scatter)
        top = vecs[:, -d:]
        cosines = np.linalg.svd(top.T @ model.bases[0], compute_uv=False)
        assert np.arccos(np.clip(cosines.min(), 0.0, 1.0)) < 0.05

    def test_full_dimension_matches_plain_fit(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((300, 3)) .dot(np.diag([2.0, 1.0, 0.5])) + 1.0
        model, trace = fit_pcagmm(X, 1, 3, sigma=0.3, seed=1)
        params, plain = fit_gmm(X, 1, seed=1)
        reduced_nll = gmm_nll(lifted_params(model), X)
        assert reduced_nll == pytest.approx(plain.objective[-1], rel=1e-4)

    def test_two_lines_in_r4(self):
        rng = np.random.default_rng(17)
        dirs = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]) / np.sqrt(2)
        centers = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])
        t = rng.standard_normal(400)
        X = np.concatenate(
            [
                np.outer(t[:200], dirs[0]) + centers[0],
                np.outer(t[200:], dirs[1]) + centers[1],
            ]
        )
        X += 0.05 * rng.standard_normal(X.shape)
        model, trace = fit_pcagmm(X, 2, 1, sigma=0.05, seed=2)
        got = []
        for k in range(2):
            cos = [abs(float(model.bases[k][:, 0] @ d)) for d in dirs]
            got.append(max(cos))
        assert all(c > 0.99 for c in got)

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_monotone(self, seed):
        rng = np.random.default_rng(seed)
        basis = random_stiefel(5, 2, seed=seed)
        X = rng.standard_normal((250, 2)) @ basis.T + rng.standard_normal(5)
        X += 0.1 * rng.standard_normal(X.shape)
        model, trace = fit_pcagmm(
            X, 2, 2, sigma=0.1, em_config=EmConfig(max_iters=15), seed=seed
        )
        diffs = np.diff(trace.objective)
        scale = np.maximum(np.abs(trace.objective[:-1]), 1.0)
        assert np.all(diffs <= 1e-6 * scale)

    def test_lifting_identity_on_fitted_model(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((200, 4)) * np.array([3.0, 2.0, 0.3, 0.2])
        model, _ = fit_pcagmm(X, 2, 2, sigma=0.2, em_config=EmConfig(max_iters=8), seed=3)
        for k in range(model.n_components):
            params = (model.bases[k], model.offsets[k], model.variances[k], model.sigma)
            lifted = lift_component(*params)
            for _ in range(20):
                x = rng.standard_normal(4)
                lhs = log_joint_factor(*params, x)
                rhs = (4 - 2) / 2 * np.log(2 * np.pi * model.sigma**2) + gauss_logpdf(
                    x, lifted.mean, lifted.cov
                )
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    def test_frames_are_eigenbases_of_the_last_m_step(self):
        # the fit after 5 updates made its last M-step from the
        # responsibilities of the fit after 4: every offset is the weighted
        # mean and every frame diagonalizes the projected scatter
        rng = np.random.default_rng(20)
        X = rng.standard_normal((100, 4)) * [3.0, 2.0, 1.0, 0.5] + 3.0
        fit = lambda iters: fit_pcagmm(
            X, 2, 2, sigma=0.3, em_config=EmConfig(max_iters=iters, tol=0.0), seed=4
        )
        beta = pcagmm_estep(fit(4)[0], X)
        model, trace = fit(5)
        assert trace.n_reseeds == 0
        for k in range(2):
            stats = accumulate_stats(X, beta, k)
            np.testing.assert_array_equal(model.offsets[k], stats.mean)
            U, v = model.bases[k], model.variances[k]
            A = U.T @ stats.scatter @ U / stats.weight
            off = A - np.diag(np.diag(A))
            assert np.linalg.norm(off) <= 1e-12 * np.linalg.norm(A)
            np.testing.assert_allclose(np.diag(A), v, rtol=1e-8)
            assert np.all(np.diff(v) <= 0.0)


class TestWorkingSet:
    """Training memory at N = 4,000 and 16,000 rows (n=80, K=50, d=20): the
    E-step's scratch does not grow with N, and training grows by at most the
    rows of X and one N x K matrix."""

    K, n, d = 50, 80, 20

    def inputs(self):
        rng = np.random.default_rng(35)
        model = random_model(rng, self.K, self.n, self.d)
        return model, [rng.standard_normal((N, self.n)) for N in (4_000, 16_000)]

    def test_estep_scratch_is_bounded(self, traced_peak):
        # the stacked frames (0.64 MB), one block's B x Kd products and its
        # B x n and B x K scratch; the row normalizers are 0.13 MB at 16,000
        ceiling = 4 << 20
        model, sizes = self.inputs()
        for X in sizes:
            beta, peak = traced_peak(pcagmm_estep, model, X)
            assert peak - beta.nbytes < ceiling, (X.shape, peak)

    def test_training_grows_by_the_data_and_one_responsibility_matrix(
        self, traced_peak
    ):
        _, sizes = self.inputs()
        peaks = [
            traced_peak(
                lambda: fit_pcagmm(
                    X, self.K, self.d, 0.3, EmConfig(max_iters=1),
                    SolverConfig(max_iters=2),
                )
            )[1]
            for X in sizes
        ]
        extra_rows = sizes[1].shape[0] - sizes[0].shape[0]
        allowed = 1.1 * extra_rows * (self.n + self.K) * 8
        assert peaks[1] - peaks[0] <= allowed, peaks


# Both fitters run the same EM loop; each supplies only its initialization,
# M-step and component reset.
FITTERS = {
    "gmm": lambda X, config: fit_gmm(X, 2, config, seed=0),
    "pcagmm": lambda X, config: fit_pcagmm(
        X, 2, 2, 0.3, em_config=config, solver_config=SolverConfig(max_iters=5), seed=0
    ),
}


def two_clusters(seed=21):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [rng.standard_normal((150, 3)), 4.0 + rng.standard_normal((150, 3))]
    )


@pytest.mark.parametrize("kind", sorted(FITTERS))
class TestSharedEm:
    def test_stops_at_max_iters(self, kind):
        _, trace = FITTERS[kind](two_clusters(), EmConfig(max_iters=4, tol=0.0))
        assert trace.objective.shape == (5,)

    def test_stops_at_first_small_decrease(self, kind):
        full = FITTERS[kind](two_clusters(), EmConfig(max_iters=6, tol=0.0))[1].objective
        rel = -np.diff(full) / np.maximum(np.abs(full[:-1]), 1.0)
        tol = rel[2] * (1.0 + 1e-9)
        stop = int(np.argmax(rel < tol))
        _, trace = FITTERS[kind](two_clusters(), EmConfig(max_iters=6, tol=tol))
        np.testing.assert_array_equal(trace.objective, full[: stop + 2])

    def test_reseeds_starved_component(self, kind, monkeypatch):
        # component 1 starts far from the data, so it gets no responsibility
        module, init, field = {
            "gmm": (gmm_mod, "_init_params", "means"),
            "pcagmm": (pca_mod, "_init_model", "offsets"),
        }[kind]
        original = getattr(module, init)

        def far_component(*args):
            model = original(*args)
            getattr(model, field)[1] += 1e3
            return model

        monkeypatch.setattr(module, init, far_component)
        model, trace = FITTERS[kind](two_clusters(), EmConfig(max_iters=10))
        assert trace.n_reseeds == 1
        assert np.all(np.abs(getattr(model, field)[1]) < 10.0)
        assert model.alpha.min() > 0.2
