import numpy as np
import pytest

import pcagmm.linalg as linalg_mod
from pcagmm import superres
from pcagmm.degrade import degrade
from pcagmm.errors import InvalidParameter
from pcagmm.gmm import GmmParams
from pcagmm.linalg import random_stiefel
from pcagmm.metrics import nearest_upsample, psnr
from pcagmm.patches import PatchGeometry, aggregate, extract_low, extract_pairs
from pcagmm.pca_gmm import PcaGmmModel, lift_component
from pcagmm.superres import _selection_scores, precompute_conditionals, reconstruct

GEOM = PatchGeometry(tau=2, q=2, dims=2)  # n_high=16, n_low=4, n=20
GEOM3 = PatchGeometry(tau=2, q=2, dims=3)  # n_high=64, n_low=8, n=72


def select_component(blocks, x_low):
    """Index of the component with maximal weighted low-block density; ties
    resolve to the smallest index. The patch-by-patch reference of the
    selection in reconstruct."""
    return int(np.argmax(_selection_scores(blocks, np.atleast_2d(x_low))[0]))


def mmse_patch(blocks, k, x_low):
    """Conditional mean of the high block given the observed low block. The
    patch-by-patch reference of the estimates in reconstruct."""
    return blocks.mean_high[k] + blocks.gain[k] @ (
        np.asarray(x_low, dtype=float) - blocks.mean_low[k]
    )


def random_gmm(rng, K, n):
    covs = np.empty((K, n, n))
    for k in range(K):
        A = rng.standard_normal((n, n))
        covs[k] = A @ A.T + np.eye(n)
    alpha = rng.uniform(0.2, 1.0, K)
    return GmmParams(
        alpha=alpha / alpha.sum(), means=rng.standard_normal((K, n)), covs=covs
    )


def random_reduced(rng, K, n, d, sigma=0.3):
    alpha = rng.uniform(0.2, 1.0, K)
    return PcaGmmModel(
        alpha=alpha / alpha.sum(),
        bases=np.stack(
            [random_stiefel(n, d, seed=int(rng.integers(1 << 30))) for _ in range(K)]
        ),
        offsets=rng.standard_normal((K, n)),
        variances=rng.uniform(0.5, 4.0, (K, d)),
        sigma=sigma,
    )


def full_dim_view(params, sigma=0.5):
    """Plain mixture parameters as a subspace model with d = n: each frame is
    the eigenbasis of a covariance, the variances its eigenvalues."""
    variances, bases = np.linalg.eigh(params.covs)
    return PcaGmmModel(
        alpha=params.alpha, bases=bases, offsets=params.means, variances=variances,
        sigma=sigma,
    )


def lift(model, k):
    return lift_component(
        model.bases[k], model.offsets[k], model.variances[k], model.sigma
    )


def lifted_blocks(model, geom, k):
    """The conditioning blocks of component k from its n x n lift, sliced and
    solved the way the dense path does."""
    lifted = lift(model, k)
    nh, nl = geom.n_high, geom.n_low
    low = lifted.cov[nh:, nh:]
    L = np.linalg.cholesky(low)
    whiten = np.linalg.inv(L)
    return {
        "mean_high": lifted.mean[:nh],
        "mean_low": lifted.mean[nh:],
        "gain": np.linalg.solve(low, lifted.cov[:nh, nh:].T).T,
        "whiten_low": whiten,
        "shift_low": whiten @ lifted.mean[nh:],
        "log_norm_low": -0.5 * nl * np.log(2 * np.pi) - np.log(np.diag(L)).sum(),
    }


def with_spectrum(model, rng, low, high):
    """The model with the variances of every component spread over
    [low, high], in a random order."""
    d = model.reduced_dim
    for k in range(model.n_components):
        model.variances[k] = rng.permutation(np.geomspace(low, high, d))
    return model


class TestReducedConditionals:
    # (geometry, d): d below n_low, above n_low, and d = n
    CASES = {
        "2d-d<nl": (GEOM, 3),
        "2d-d>nl": (GEOM, 10),
        "2d-d=n": (GEOM, GEOM.n_joint),
        "3d-d<nl": (GEOM3, 5),
        "3d-d>nl": (GEOM3, 20),
        "3d-d=n": (GEOM3, GEOM3.n_joint),
    }

    @pytest.mark.parametrize("indefinite", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_lifted_blocks(self, case, indefinite):
        geom, d = self.CASES[case]
        rng = np.random.default_rng(40)
        model = random_reduced(rng, 3, geom.n_joint, d, sigma=0.3)
        if indefinite:  # diag(v) - sigma^2 I has entries of both signs
            with_spectrum(model, rng, 0.1 * model.sigma**2, 4.0)
        blocks = precompute_conditionals(model, geom)
        assert blocks.valid.all()
        for k in range(model.n_components):
            for name, expected in lifted_blocks(model, geom, k).items():
                got = getattr(blocks, name)[k]
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(
                    expected
                ), (name, k)

    def test_reconstruct_3d_equals_lifted_model(self):
        rng = np.random.default_rng(41)
        model = with_spectrum(
            random_reduced(rng, 3, GEOM3.n_joint, 12), rng, 0.02, 4.0
        )
        lifted = [lift(model, k) for k in range(model.n_components)]
        dense = GmmParams(
            alpha=model.alpha,
            means=np.stack([g.mean for g in lifted]),
            covs=np.stack([g.cov for g in lifted]),
        )
        low = 3.0 * rng.standard_normal((4, 5, 6))
        np.testing.assert_allclose(
            reconstruct(low, model, GEOM3), reconstruct(low, dense, GEOM3),
            rtol=0, atol=1e-10,
        )

    def test_memory_stays_below_one_lifted_covariance(self, traced_peak):
        geom = PatchGeometry(tau=4, q=2, dims=3)  # n = 576
        n = geom.n_joint
        model = random_reduced(np.random.default_rng(42), 2, n, 20)
        _, peak = traced_peak(precompute_conditionals, model, geom)
        assert peak < n * n * 8, peak


class TestPrecompute:
    def test_block_diagonal_gives_zero_gain(self):
        n = GEOM.n_joint
        cov = np.eye(n)
        params = GmmParams(alpha=np.ones(1), means=np.zeros((1, n)), covs=cov[None])
        blocks = precompute_conditionals(params, GEOM)
        np.testing.assert_allclose(blocks.gain[0], 0.0, atol=1e-14)

    def test_full_dimension_lift_equals_direct_partition(self):
        rng = np.random.default_rng(0)
        n = GEOM.n_joint
        params = random_gmm(rng, 1, n)
        model = full_dim_view(params)
        a = precompute_conditionals(params, GEOM)
        b = precompute_conditionals(model, GEOM)
        np.testing.assert_allclose(a.gain, b.gain, atol=1e-10)
        np.testing.assert_allclose(a.mean_high, b.mean_high, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gain_residual(self, seed):
        rng = np.random.default_rng(seed)
        model = random_reduced(rng, 2, GEOM.n_joint, 4)
        blocks = precompute_conditionals(model, GEOM)
        nh = GEOM.n_high
        for k in range(2):
            lifted = lift(model, k)
            cross = lifted.cov[:nh, nh:]
            low = lifted.cov[nh:, nh:]
            assert np.linalg.norm(blocks.gain[k] @ low - cross) <= 1e-9 * max(
                np.linalg.norm(cross), 1.0
            )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        from pcagmm.errors import InvalidShape

        with pytest.raises(InvalidShape):
            precompute_conditionals(random_gmm(rng, 1, 7), GEOM)


class TestSelect:
    def test_single_component(self):
        rng = np.random.default_rng(2)
        blocks = precompute_conditionals(random_gmm(rng, 1, GEOM.n_joint), GEOM)
        assert select_component(blocks, rng.standard_normal(GEOM.n_low)) == 0

    def test_density_dominance(self):
        n, nl = GEOM.n_joint, GEOM.n_low
        means = np.zeros((2, n))
        means[1] += 50.0
        params = GmmParams(
            alpha=np.full(2, 0.5),
            means=means,
            covs=np.repeat(np.eye(n)[None], 2, axis=0),
        )
        blocks = precompute_conditionals(params, GEOM)
        assert select_component(blocks, np.zeros(nl)) == 0
        assert select_component(blocks, np.full(nl, 50.0)) == 1

    def test_matches_naive_ratio(self):
        rng = np.random.default_rng(3)
        params = random_gmm(rng, 3, GEOM.n_joint)
        blocks = precompute_conditionals(params, GEOM)
        nh = GEOM.n_high
        from pcagmm.gmm import gauss_logpdf

        for _ in range(100):
            x = rng.standard_normal(GEOM.n_low)
            naive = [
                np.log(params.alpha[k])
                + gauss_logpdf(x, params.means[k][nh:], params.covs[k][nh:, nh:])
                for k in range(3)
            ]
            assert select_component(blocks, x) == int(np.argmax(naive))

    def test_ties_break_to_smallest_index(self):
        rng = np.random.default_rng(20)
        params = random_gmm(rng, 1, GEOM.n_joint)
        twice = GmmParams(
            alpha=np.array([0.5, 0.5]),
            means=np.repeat(params.means, 2, axis=0),
            covs=np.repeat(params.covs, 2, axis=0),
        )
        blocks = precompute_conditionals(twice, GEOM)
        for _ in range(10):
            assert select_component(blocks, rng.standard_normal(GEOM.n_low)) == 0

    def test_excluded_component_is_never_read(self):
        rng = np.random.default_rng(21)
        params = random_gmm(rng, 3, GEOM.n_joint)
        params.covs[1][GEOM.n_high :, GEOM.n_high :] = -np.eye(GEOM.n_low)
        with pytest.warns(UserWarning, match="excluding component 1"):
            blocks = precompute_conditionals(params, GEOM)
        # the excluded whitening and mean are uninitialized; poison them
        blocks.whiten_low[1] = np.nan
        blocks.shift_low[1] = np.nan
        blocks.log_norm_low[1] = np.nan
        blocks.mean_low[1] = np.nan
        scores = _selection_scores(blocks, rng.standard_normal((10, GEOM.n_low)))
        assert np.all(scores[:, 1] == -np.inf)
        assert np.all(np.isfinite(scores[:, [0, 2]]))

    def test_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(4)
        params = random_gmm(rng, 3, GEOM.n_joint)
        blocks1 = precompute_conditionals(params, GEOM)
        scaled = GmmParams(
            alpha=params.alpha * 0.25, means=params.means, covs=params.covs
        )
        blocks2 = precompute_conditionals(scaled, GEOM)
        for _ in range(20):
            x = rng.standard_normal(GEOM.n_low)
            assert select_component(blocks1, x) == select_component(blocks2, x)


class TestMmse:
    def test_zero_innovation(self):
        rng = np.random.default_rng(5)
        blocks = precompute_conditionals(random_gmm(rng, 1, GEOM.n_joint), GEOM)
        np.testing.assert_allclose(
            mmse_patch(blocks, 0, blocks.mean_low[0]), blocks.mean_high[0], atol=1e-12
        )

    def test_zero_gain(self):
        n = GEOM.n_joint
        params = GmmParams(
            alpha=np.ones(1),
            means=np.arange(float(n))[None],
            covs=np.eye(n)[None],
        )
        blocks = precompute_conditionals(params, GEOM)
        x = np.random.default_rng(6).standard_normal(GEOM.n_low)
        np.testing.assert_allclose(mmse_patch(blocks, 0, x), blocks.mean_high[0])

    def test_scalar_conditional_mean(self):
        geom = None  # scalar blocks need n_high = n_low = 1, build by hand
        from pcagmm.superres import ConditionalBlocks

        blocks = ConditionalBlocks(
            log_alpha=np.zeros(1),
            mean_high=np.zeros((1, 1)),
            mean_low=np.zeros((1, 1)),
            gain=np.ones((1, 1, 1)),  # cov [[2, 1], [1, 1]] gives gain 1/1 = 1
            whiten_low=np.ones((1, 1, 1)),
            shift_low=np.zeros((1, 1)),
            log_norm_low=np.zeros(1),
            valid=np.ones(1, dtype=bool),
        )
        assert mmse_patch(blocks, 0, np.array([1.0]))[0] == pytest.approx(1.0)

    def test_affine_in_observation(self):
        rng = np.random.default_rng(7)
        blocks = precompute_conditionals(random_gmm(rng, 2, GEOM.n_joint), GEOM)
        a, b = rng.standard_normal(GEOM.n_low), rng.standard_normal(GEOM.n_low)
        combo = (
            mmse_patch(blocks, 1, a)
            + mmse_patch(blocks, 1, b)
            - 2.0 * mmse_patch(blocks, 1, 0.5 * (a + b))
        )
        assert np.linalg.norm(combo) <= 1e-10


class TestReconstruct:
    def test_constant_input_constant_output(self):
        n = GEOM.n_joint
        mean = np.full(n, 0.5)
        params = GmmParams(alpha=np.ones(1), means=mean[None], covs=(1e-4 * np.eye(n))[None])
        out = reconstruct(np.full((6, 6), 0.5), params, GEOM)
        assert out.shape == (12, 12)
        np.testing.assert_allclose(out, 0.5, atol=1e-10)

    def test_output_extents_and_coverage(self):
        rng = np.random.default_rng(9)
        model = random_reduced(rng, 2, GEOM.n_joint, 3)
        out = reconstruct(rng.random((7, 9)), model, GEOM)
        assert out.shape == (14, 18)
        assert np.all(np.isfinite(out))

    def test_gmm_model_equals_full_dimension_subspace_model(self):
        rng = np.random.default_rng(10)
        n = GEOM.n_joint
        params = random_gmm(rng, 2, n)
        model = full_dim_view(params)
        low = rng.random((6, 8))
        np.testing.assert_allclose(
            reconstruct(low, params, GEOM), reconstruct(low, model, GEOM), atol=1e-8
        )

    def test_beats_nearest_neighbor_on_joint_gaussian_data(self):
        # single-component model learned from exact joint statistics of
        # (high patch, degraded-high patch) pairs
        rng = np.random.default_rng(11)
        base = degrade(rng.random((128, 128)), 2, noise_std=0.0)  # smooth texture
        base = (base - base.min()) / (base.max() - base.min())
        high_train, high_test = base[:, :32], base[:, 32:]
        low_train = degrade(high_train, 2, noise_std=0.01, seed=0)
        low_test = degrade(high_test, 2, noise_std=0.01, seed=1)
        pairs = extract_pairs(high_train, low_train, GEOM)
        mean = pairs.data.mean(axis=0)
        D = pairs.data - mean
        cov = D.T @ D / pairs.count + 1e-8 * np.eye(GEOM.n_joint)
        params = GmmParams(alpha=np.ones(1), means=mean[None], covs=cov[None])
        recon = reconstruct(low_test, params, GEOM, gamma=0.1)
        baseline = nearest_upsample(low_test, 2)
        assert psnr(high_test, recon) > psnr(high_test, baseline)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -50.0])
    def test_gamma_outside_range_is_rejected(self, gamma):
        rng = np.random.default_rng(12)
        with pytest.raises(InvalidParameter, match="gamma"):
            reconstruct(rng.random((6, 6)), random_gmm(rng, 1, GEOM.n_joint), GEOM, gamma)


def reference_reconstruct(low, model, geom, gamma):
    """Patch by patch: select_component, mmse_patch, then one aggregate."""
    blocks = precompute_conditionals(model, geom)
    ps = extract_low(low, geom.tau)
    ks = [select_component(blocks, x) for x in ps.data]
    estimates = np.array([mmse_patch(blocks, k, x) for k, x in zip(ks, ps.data)])
    out_dims = tuple(geom.q * m for m in low.shape)
    out = aggregate(estimates, geom.q * ps.origins, geom.high_edge, gamma, out_dims)
    return out, set(ks)


def excluding_model(rng):
    params = random_gmm(rng, 3, GEOM.n_joint)
    params.covs[1][GEOM.n_high :, GEOM.n_high :] = -np.eye(GEOM.n_low)
    return params


# low extents give a 6 x 8 patch grid in 2D and 3 x 4 x 5 in 3D
TILED_CASES = {
    "2d-pcagmm": (GEOM, (7, 9), lambda rng: random_reduced(rng, 3, GEOM.n_joint, 4)),
    "2d-gmm": (GEOM, (7, 9), lambda rng: random_gmm(rng, 3, GEOM.n_joint)),
    "2d-excluded": (GEOM, (7, 9), excluding_model),
    "3d-pcagmm": (GEOM3, (4, 5, 6), lambda rng: random_reduced(rng, 3, GEOM3.n_joint, 5)),
    "3d-gmm": (GEOM3, (4, 5, 6), lambda rng: random_gmm(rng, 3, GEOM3.n_joint)),
}


class TestTiledReconstruct:
    @pytest.mark.filterwarnings("ignore:excluding component 1")
    @pytest.mark.parametrize("case", sorted(TILED_CASES))
    def test_equals_patchwise_reference(self, case, monkeypatch):
        geom, extents, make_model = TILED_CASES[case]
        rng = np.random.default_rng(30)
        model = make_model(rng)
        low = 10.0 * rng.standard_normal(extents)  # wide enough to pick several
        expected, chosen = reference_reconstruct(low, model, geom, 0.3)
        assert len(chosen) > 1  # the tiles group patches of several components
        if case == "2d-excluded":
            assert 1 not in chosen
        count = int(np.prod([m - geom.tau + 1 for m in extents]))
        # one patch, a count that divides no grid row, more than every patch
        for size in (1, 3, count + 1):
            monkeypatch.setattr(superres, "_TILE_BYTES", size * 8 * geom.n_high)
            np.testing.assert_allclose(
                reconstruct(low, model, geom, gamma=0.3), expected, rtol=0, atol=1e-12
            )

    @pytest.mark.filterwarnings("ignore:excluding component 1")
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("case", sorted(TILED_CASES))
    def test_equals_patchwise_reference_in_row_blocks(self, case, rows, monkeypatch):
        # selection scores the tile `rows` patches at a time; the overlap-add
        # chunks and slabs shrink with it
        geom, _, make_model = TILED_CASES[case]
        K = make_model(np.random.default_rng(30)).n_components
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", rows * 8 * max(K, geom.n_low))
        self.test_equals_patchwise_reference(case, monkeypatch)

    def test_memory_is_bounded_by_the_tile(self, traced_peak):
        geom = PatchGeometry(tau=4, q=2, dims=2)
        rng = np.random.default_rng(31)
        model = random_gmm(rng, 2, geom.n_joint)
        ceiling = 6 << 20
        # below what the estimates of every patch of the larger image need
        assert ceiling < (256 - geom.tau + 1) ** 2 * geom.n_high * 8
        for edge in (128, 256):
            low = rng.random((edge, edge))
            out, peak = traced_peak(reconstruct, low, model, geom)
            # the input and the accumulator, 12 bytes per output sample; the
            # result is the accumulator's sums, divided in place
            assert peak - low.nbytes - 12 * out.size < ceiling, (edge, peak)
