import numpy as np
import pytest

import pcagmm.linalg as linalg_mod
from pcagmm import superres
from pcagmm.degrade import degrade
from pcagmm.errors import DegenerateDensity, InvalidParameter, NotPositiveDefinite
from pcagmm.gmm import GmmParams, _score_blocks, gauss_logpdf
from pcagmm.linalg import random_stiefel
from pcagmm.metrics import nearest_upsample, psnr
from pcagmm.patches import PatchGeometry, aggregate, extract_low, extract_pairs
from pcagmm.pca_gmm import PcaGmmModel, lift_component
from pcagmm.superres import (
    _quadratic_blocks,
    _select,
    precompute_conditionals,
    reconstruct,
)

GEOM = PatchGeometry(tau=2, q=2, dims=2)  # n_high=16, n_low=4, n=20
GEOM3 = PatchGeometry(tau=2, q=2, dims=3)  # n_high=64, n_low=8, n=72


def low_block(model, geom, k):
    """Mean and covariance of component k's low block, sliced from its n x n
    form (a subspace component is lifted first)."""
    if isinstance(model, PcaGmmModel):
        lifted = lift(model, k)
        mean, cov = lifted.mean, lifted.cov
    else:
        mean, cov = model.means[k], model.covs[k]
    nh = geom.n_high
    return mean[nh:], cov[nh:, nh:]


def reference_scores(model, geom, x_low):
    """Per component, log alpha_k plus gauss_logpdf of x_low under its low
    block; -inf where the low block does not factor."""
    scores = np.full(model.n_components, -np.inf)
    for k in range(model.n_components):
        try:
            scores[k] = np.log(model.alpha[k]) + gauss_logpdf(
                x_low, *low_block(model, geom, k)
            )
        except NotPositiveDefinite:
            pass
    return scores


def select_component(model, geom, x_low):
    """Index of the component with maximal weighted low-block density; ties
    resolve to the smallest index. The patch-by-patch reference of the
    selection in reconstruct, scored one component at a time."""
    return int(np.argmax(reference_scores(model, geom, x_low)))


def stacked_scores(blocks, X):
    """len(X) x K scores of the low patches X by the selection kernel that
    blocks holds: the stacked whitening or the quadratic form."""
    scores = np.empty((len(X), len(blocks.log_const)))
    if blocks.whiten is None:
        pairs = _quadratic_blocks(X, blocks.quadratic, blocks.centre)
    else:
        pairs = _score_blocks(X, blocks.whiten, blocks.log_const)
    for rows, block in pairs:
        scores[rows] = block
    return scores


def selected(blocks, x_low):
    """The selection kernel's choice for one low patch."""
    return int(_select(blocks, np.atleast_2d(x_low))[0])


def select_row_bytes(K, nl):
    """Bytes per patch of selection's largest scratch array: the whitened
    rows (K n_low) when K <= n_low, otherwise the larger of the quadratic
    form's features (T + n_low + 1, T = n_low (n_low + 1) / 2) and scores (K)."""
    if K <= nl:
        return 8 * K * nl
    return 8 * max(nl * (nl + 1) // 2 + nl + 1, K)


def quadratic_bound(model, geom, X):
    """len(X) x K bound on the error of the quadratic form's scores:
    N eps (||P_k|| (||y||^2 + ||m_k||^2) + |c_k| + 1), with N = T + n_low + 1
    the length of its dot product, P_k the low block's precision, c_k the
    log weight plus log normalizer, and y = x - c, m_k = mean_k - c centred
    on the alpha-weighted mean c of the low means, taken here from the model.
    Against the origin instead of c, ||x||^2 replaces ||y||^2."""
    nl, K = geom.n_low, model.n_components
    moments = [low_block(model, geom, k) for k in range(K)]
    centre = model.alpha @ np.array([mean for mean, _ in moments])
    y2 = np.sum((X - centre) ** 2, axis=1)
    bound = np.empty((len(X), K))
    for k, (mean, cov) in enumerate(moments):
        const = np.log(model.alpha[k]) - 0.5 * (
            nl * np.log(2 * np.pi) + np.linalg.slogdet(cov)[1]
        )
        bound[:, k] = np.linalg.norm(np.linalg.inv(cov), 2) * (
            y2 + np.sum((mean - centre) ** 2)
        ) + abs(const) + 1
    return (nl * (nl + 1) // 2 + nl + 1) * np.finfo(float).eps * bound


def shifted(model, by):
    """The model with every mean moved by `by`."""
    if isinstance(model, PcaGmmModel):
        model.offsets += by
    else:
        model.means += by
    return model


def ill_conditioned_gmm(rng, K, geom, cond):
    """K components whose low blocks have condition number cond, each in a
    random eigenbasis, with identity high blocks and no cross block."""
    nh, nl = geom.n_high, geom.n_low
    covs = np.zeros((K, geom.n_joint, geom.n_joint))
    covs[:, :nh, :nh] = np.eye(nh)
    for k in range(K):
        R = random_stiefel(nl, nl, seed=int(rng.integers(1 << 30)))
        covs[k, nh:, nh:] = (R * np.geomspace(1.0 / cond, 1.0, nl)) @ R.T
    alpha = rng.uniform(0.2, 1.0, K)
    return GmmParams(
        alpha=alpha / alpha.sum(), means=rng.standard_normal((K, geom.n_joint)),
        covs=covs,
    )


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
        "whiten": whiten.T,
        "shift": whiten @ lifted.mean[nh:],
        "log_const": np.log(model.alpha[k])
        - 0.5 * nl * np.log(2 * np.pi)
        - np.log(np.diag(L)).sum(),
    }


def component_fields(blocks, k):
    """Component k's slice of every per-component field of blocks; its
    whitening and shift are its columns of the stacked whitening."""
    nl = blocks.mean_low.shape[1]
    cols = slice(k * nl, (k + 1) * nl)
    return {
        "mean_high": blocks.mean_high[k],
        "mean_low": blocks.mean_low[k],
        "gain": blocks.gain[k],
        "whiten": blocks.whiten[:nl, cols],
        "shift": -blocks.whiten[nl, cols],
        "log_const": blocks.log_const[k],
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
            fields = component_fields(blocks, k)
            for name, expected in lifted_blocks(model, geom, k).items():
                got = fields[name]
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


# K = 5 components select through the quadratic form in 2D (n_low = 4) and
# through the whitening in 3D (n_low = 8); the -K<=nl and -K>nl cases take
# the other path on each geometry
SELECT_MODELS = {
    "2d-gmm": (GEOM, lambda rng: random_gmm(rng, 5, GEOM.n_joint)),
    "2d-pcagmm": (GEOM, lambda rng: random_reduced(rng, 5, GEOM.n_joint, 6)),
    "3d-gmm": (GEOM3, lambda rng: random_gmm(rng, 5, GEOM3.n_joint)),
    "3d-pcagmm": (GEOM3, lambda rng: random_reduced(rng, 5, GEOM3.n_joint, 12)),
    "2d-gmm-K<=nl": (GEOM, lambda rng: random_gmm(rng, 4, GEOM.n_joint)),
    "2d-pcagmm-K<=nl": (GEOM, lambda rng: random_reduced(rng, 4, GEOM.n_joint, 6)),
    "3d-gmm-K>nl": (GEOM3, lambda rng: random_gmm(rng, 12, GEOM3.n_joint)),
    "3d-pcagmm-K>nl": (GEOM3, lambda rng: random_reduced(rng, 12, GEOM3.n_joint, 12)),
}
QUADRATIC_MODELS = ["2d-gmm", "2d-pcagmm", "3d-gmm-K>nl", "3d-pcagmm-K>nl"]


class TestSelect:
    def test_single_component(self):
        rng = np.random.default_rng(2)
        blocks = precompute_conditionals(random_gmm(rng, 1, GEOM.n_joint), GEOM)
        assert selected(blocks, rng.standard_normal(GEOM.n_low)) == 0

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
        assert selected(blocks, np.zeros(nl)) == 0
        assert selected(blocks, np.full(nl, 50.0)) == 1

    def test_matches_naive_ratio(self):
        rng = np.random.default_rng(3)
        params = random_gmm(rng, 3, GEOM.n_joint)
        blocks = precompute_conditionals(params, GEOM)
        nh = GEOM.n_high
        for _ in range(100):
            x = rng.standard_normal(GEOM.n_low)
            naive = [
                np.log(params.alpha[k])
                + gauss_logpdf(x, params.means[k][nh:], params.covs[k][nh:, nh:])
                for k in range(3)
            ]
            assert selected(blocks, x) == int(np.argmax(naive))

    @pytest.mark.parametrize("case", sorted(SELECT_MODELS))
    def test_scores_equal_per_component_densities(self, case):
        geom, make_model = SELECT_MODELS[case]
        rng = np.random.default_rng(3)
        model = make_model(rng)
        blocks = precompute_conditionals(model, geom)
        X = 10.0 * rng.standard_normal((50, geom.n_low))
        expected = np.array([reference_scores(model, geom, x) for x in X])
        scores = stacked_scores(blocks, X)
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)
        if blocks.whiten is None:
            assert np.all(np.abs(scores - expected) <= quadratic_bound(model, geom, X))
        chosen = [select_component(model, geom, x) for x in X]
        assert len(set(chosen)) > 1
        assert _select(blocks, X).tolist() == chosen

    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("case", sorted(SELECT_MODELS))
    def test_row_blocks_select_as_one_block(self, case, rows, monkeypatch):
        # 20 rows: blocks of 1, of 3 with a remainder of 2, of 7 with 6
        geom, make_model = SELECT_MODELS[case]
        rng = np.random.default_rng(4)
        model = make_model(rng)
        blocks = precompute_conditionals(model, geom)
        X = 10.0 * rng.standard_normal((20, geom.n_low))
        expected = [select_component(model, geom, x) for x in X]
        assert len(set(expected)) > 1
        row_bytes = select_row_bytes(model.n_components, geom.n_low)
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", rows * row_bytes)
        assert _select(blocks, X).tolist() == expected

    @pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
    def test_zero_rows(self, geom):
        rng = np.random.default_rng(5)
        for K in (3, geom.n_low + 1):  # the whitening, then the quadratic form
            blocks = precompute_conditionals(random_gmm(rng, K, geom.n_joint), geom)
            empty = np.empty((0, geom.n_low))
            assert stacked_scores(blocks, empty).shape == (0, K)
            ks = _select(blocks, empty)
            assert ks.shape == (0,) and ks.dtype == np.intp

    def test_ties_break_to_smallest_index(self):
        # one component repeated wherever order is 0 scores bitwise equally
        # there; the other component is far away. Five components select
        # through the quadratic form in 2D and the whitening in 3D; four in
        # 2D and nine in 3D take the other path.
        rng = np.random.default_rng(20)
        for geom, order in (
            (GEOM, [1, 0, 0, 1, 0]),
            (GEOM3, [1, 0, 0, 1, 0]),
            (GEOM, [1, 0, 0, 1]),
            (GEOM3, [1, 0, 0, 1, 0, 1, 1, 1, 0]),
        ):
            K = len(order)
            params = random_gmm(rng, 2, geom.n_joint)
            params.means[1] += 1e3
            repeated = GmmParams(
                alpha=np.full(K, 1.0 / K),
                means=params.means[order],
                covs=params.covs[order],
            )
            blocks = precompute_conditionals(repeated, geom)
            X = rng.standard_normal((50, geom.n_low))
            scores = stacked_scores(blocks, X)
            first, *others = np.flatnonzero(np.array(order) == 0)
            for k in others:
                assert np.array_equal(scores[:, first], scores[:, k])
            assert np.all(_select(blocks, X) == first)

    def test_excluded_component_is_never_read(self):
        rng = np.random.default_rng(21)
        for K in (3, 6):  # the whitening, then the quadratic form
            params = random_gmm(rng, K, GEOM.n_joint)
            params.covs[1][GEOM.n_high :, GEOM.n_high :] = -np.eye(GEOM.n_low)
            params.means[1] = np.nan  # not even the centre reads it
            with pytest.warns(UserWarning, match="excluding component 1"):
                blocks = precompute_conditionals(params, GEOM)
            # its stacked whitening block and shift, or its row of the
            # quadratic form, are zero and its constant is -inf, so it scores
            # -inf; its means and gain are never read: poison them
            assert blocks.log_const[1] == -np.inf
            if blocks.whiten is None:
                assert not blocks.quadratic[1, :-1].any()
                assert blocks.quadratic[1, -1] == -np.inf
                assert np.all(np.isfinite(blocks.centre))
            else:
                excluded = component_fields(blocks, 1)
                assert not excluded["whiten"].any() and not excluded["shift"].any()
            blocks.mean_low[1] = np.nan
            blocks.mean_high[1] = np.nan
            blocks.gain[1] = np.nan
            X = rng.standard_normal((10, GEOM.n_low))
            scores = stacked_scores(blocks, X)
            assert np.all(scores[:, 1] == -np.inf)
            assert np.all(np.isfinite(np.delete(scores, 1, axis=1)))
            assert 1 not in _select(blocks, X)

    def test_invariant_to_weight_rescaling(self):
        rng = np.random.default_rng(4)
        params = random_gmm(rng, 3, GEOM.n_joint)
        blocks1 = precompute_conditionals(params, GEOM)
        scaled = GmmParams(
            alpha=params.alpha * 0.25, means=params.means, covs=params.covs
        )
        blocks2 = precompute_conditionals(scaled, GEOM)
        X = rng.standard_normal((20, GEOM.n_low))
        assert np.array_equal(_select(blocks1, X), _select(blocks2, X))

    def test_patch_of_zero_density_raises(self):
        # its whitened square, or its square y_i^2 in the quadratic form,
        # overflows under every component; with two such coordinates the
        # product y_i y_j overflows too and a score can be NaN. No
        # RuntimeWarning escapes (the test configuration makes one an error).
        rng = np.random.default_rng(22)
        for K in (3, 6):  # the whitening, then the quadratic form
            blocks = precompute_conditionals(random_gmm(rng, K, GEOM.n_joint), GEOM)
            for coords in ([2], [1, 2]):
                X = rng.standard_normal((10, GEOM.n_low))
                X[7, coords] = 1e200
                with pytest.raises(DegenerateDensity, match="zero density"):
                    _select(blocks, X)

    def test_no_weight_on_a_valid_component_raises(self):
        # the only weighted component is excluded: every patch has zero
        # density, and the quadratic form's centre falls back to the plain
        # mean of the valid low means
        rng = np.random.default_rng(26)
        for K in (3, 6):  # the whitening, then the quadratic form
            params = excluding_model(rng, K)
            params.alpha[:] = 0.0
            params.alpha[1] = 1.0
            with pytest.warns(UserWarning, match="excluding component 1"):
                blocks = precompute_conditionals(params, GEOM)
            assert blocks.centre is None or np.all(np.isfinite(blocks.centre))
            with pytest.raises(DegenerateDensity, match="zero density"):
                _select(blocks, rng.standard_normal((10, GEOM.n_low)))

    @pytest.mark.parametrize("case", QUADRATIC_MODELS)
    def test_quadratic_form_is_centred(self, case):
        # data and means 1e3 from the origin: about the origin, the expanded
        # form would cancel terms of size ||x||^2 and miss the bound by a
        # factor of thousands
        geom, make_model = SELECT_MODELS[case]
        rng = np.random.default_rng(23)
        model = shifted(make_model(rng), 1e3)
        blocks = precompute_conditionals(model, geom)
        X = 10.0 * rng.standard_normal((50, geom.n_low)) + 1e3
        expected = np.array([reference_scores(model, geom, x) for x in X])
        scores = stacked_scores(blocks, X)
        assert np.all(np.abs(scores - expected) <= quadratic_bound(model, geom, X))
        assert _select(blocks, X).tolist() == expected.argmax(axis=1).tolist()

    @pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
    def test_ill_conditioned_low_blocks(self, geom):
        # every low block has condition number 1e8; the patches are drawn
        # around the component means, and further out
        rng = np.random.default_rng(24)
        K = geom.n_low + 2
        model = ill_conditioned_gmm(rng, K, geom, 1e8)
        blocks = precompute_conditionals(model, geom)
        assert blocks.whiten is None
        nh = geom.n_high
        X = model.means[rng.integers(K, size=60), nh:] + np.repeat(
            [0.01, 1.0], 30
        )[:, None] * rng.standard_normal((60, geom.n_low))
        expected = np.array([reference_scores(model, geom, x) for x in X])
        scores = stacked_scores(blocks, X)
        assert np.all(np.abs(scores - expected) <= quadratic_bound(model, geom, X))
        assert _select(blocks, X).tolist() == expected.argmax(axis=1).tolist()

    @pytest.mark.parametrize("geom", [GEOM, GEOM3], ids=["2d", "3d"])
    def test_components_against_n_low_pick_one_matrix(self, geom):
        nl = geom.n_low
        rng = np.random.default_rng(25)
        for K in (1, nl, nl + 1, 3 * nl):
            blocks = precompute_conditionals(random_gmm(rng, K, geom.n_joint), geom)
            if K <= nl:
                assert blocks.whiten.shape == (nl + 1, K * nl)
                assert blocks.quadratic is None and blocks.centre is None
            else:
                assert blocks.whiten is None
                assert blocks.quadratic.shape == (K, nl * (nl + 1) // 2 + nl + 1)
                assert blocks.centre.shape == (nl,)


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
            mean_high=np.zeros((1, 1)),
            mean_low=np.zeros((1, 1)),
            gain=np.ones((1, 1, 1)),  # cov [[2, 1], [1, 1]] gives gain 1/1 = 1
            log_const=np.zeros(1),
            valid=np.ones(1, dtype=bool),
            whiten=np.array([[1.0], [0.0]]),
            quadratic=None,
            centre=None,
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
    ks = [select_component(model, geom, x) for x in ps.data]
    estimates = np.array([mmse_patch(blocks, k, x) for k, x in zip(ks, ps.data)])
    out_dims = tuple(geom.q * m for m in low.shape)
    out = aggregate(estimates, geom.q * ps.origins, geom.high_edge, gamma, out_dims)
    return out, set(ks)


def excluding_model(rng, K=3):
    params = random_gmm(rng, K, GEOM.n_joint)
    params.covs[1][GEOM.n_high :, GEOM.n_high :] = -np.eye(GEOM.n_low)
    return params


# low extents give a 6 x 8 patch grid in 2D and 3 x 4 x 5 in 3D; K = 3
# selects through the whitening, the K>nl cases through the quadratic form
TILED_CASES = {
    "2d-pcagmm": (GEOM, (7, 9), lambda rng: random_reduced(rng, 3, GEOM.n_joint, 4)),
    "2d-gmm": (GEOM, (7, 9), lambda rng: random_gmm(rng, 3, GEOM.n_joint)),
    "2d-excluded": (GEOM, (7, 9), excluding_model),
    "3d-pcagmm": (GEOM3, (4, 5, 6), lambda rng: random_reduced(rng, 3, GEOM3.n_joint, 5)),
    "3d-gmm": (GEOM3, (4, 5, 6), lambda rng: random_gmm(rng, 3, GEOM3.n_joint)),
    "2d-pcagmm-K>nl": (
        GEOM, (7, 9), lambda rng: random_reduced(rng, 6, GEOM.n_joint, 4)
    ),
    "2d-gmm-K>nl": (GEOM, (7, 9), lambda rng: random_gmm(rng, 6, GEOM.n_joint)),
    "2d-excluded-K>nl": (GEOM, (7, 9), lambda rng: excluding_model(rng, 6)),
    "3d-pcagmm-K>nl": (
        GEOM3, (4, 5, 6), lambda rng: random_reduced(rng, 10, GEOM3.n_joint, 5)
    ),
    "3d-gmm-K>nl": (GEOM3, (4, 5, 6), lambda rng: random_gmm(rng, 10, GEOM3.n_joint)),
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
        if case.startswith("2d-excluded"):
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
        row_bytes = select_row_bytes(K, geom.n_low)
        monkeypatch.setattr(linalg_mod, "_BLOCK_BYTES", rows * row_bytes)
        self.test_equals_patchwise_reference(case, monkeypatch)

    def test_memory_is_bounded_by_the_tile(self, traced_peak):
        geom = PatchGeometry(tau=4, q=2, dims=2)
        rng = np.random.default_rng(31)
        ceiling = 6 << 20
        # below what the estimates of every patch of the larger image need
        assert ceiling < (256 - geom.tau + 1) ** 2 * geom.n_high * 8
        # K = 2 selects through the whitening, K = 20 > n_low = 16 through
        # the quadratic form
        for K in (2, 20):
            model = random_gmm(rng, K, geom.n_joint)
            for edge in (128, 256):
                low = rng.random((edge, edge))
                out, peak = traced_peak(reconstruct, low, model, geom)
                # the input and the accumulator, 12 bytes per output sample;
                # the result is the accumulator's sums, divided in place
                assert peak - low.nbytes - 12 * out.size < ceiling, (K, edge, peak)
            # selection holds the labels and, per row block, scratch arrays
            # of at most _BLOCK_BYTES each: the block next to a column of
            # ones, its whitened rows and its scores, or the quadratic form's
            # features and scores
            blocks = precompute_conditionals(model, geom)
            X = rng.random((8192, geom.n_low))
            ks, peak = traced_peak(_select, blocks, X)
            scratch = 3 if blocks.quadratic is None else 2
            assert peak - ks.nbytes < scratch * linalg_mod._BLOCK_BYTES, (K, peak)
