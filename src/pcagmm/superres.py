"""Component selection and MMSE estimation of high-resolution patches from a
trained joint model, plus the end-to-end reconstruction driver."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape, NotPositiveDefinite
from .gmm import GmmParams, _log_scores, _whitening
from .linalg import regularize_spd, solve_spd, solve_triangular, try_cholesky

# aggregate and extract_low are re-exported where the benchmark's tracer looks them up.
from .patches import OverlapAdd, aggregate, extract_low, low_patch_tiles
from .pca_gmm import PcaGmmModel, lift_component

_TILE_BYTES = 4 << 20  # estimates that reconstruct holds at once


@dataclass(frozen=True)
class ConditionalBlocks:
    """Per-component quantities for selecting a component from the low block
    and conditioning the high block on it.

    log_alpha    : (K,) log mixture weights (-inf for excluded components)
    mean_high    : (K, n_high)
    mean_low     : (K, n_low)
    gain         : (K, n_high, n_low) cross-covariance times inverse low block
    whiten_low   : (K, n_low, n_low) L^{-1}, L the lower Cholesky factor of
                   the low block
    shift_low    : (K, n_low) L^{-1} mean_low
    log_norm_low : (K,) log normalizer -n_low/2 log(2 pi) - log det L
    valid        : (K,) bool, False for excluded components

    The whitening (whiten_low, shift_low, log_norm_low) is made once here, so
    selection costs one small product per component and batch of patches.
    An excluded component's low-block fields are left uninitialized;
    selection never reads them because its log weight is -inf.
    """

    log_alpha: np.ndarray
    mean_high: np.ndarray
    mean_low: np.ndarray
    gain: np.ndarray
    whiten_low: np.ndarray
    shift_low: np.ndarray
    log_norm_low: np.ndarray
    valid: np.ndarray


def _lifted_moments(model, k):
    if isinstance(model, PcaGmmModel):
        lifted = lift_component(
            model.bases[k],
            model.offsets[k],
            model.means[k],
            model.covs[k],
            model.sigma,
        )
        return lifted.mean, lifted.cov
    return model.means[k], model.covs[k]


def precompute_conditionals(model, geom):
    """Lift every component, partition it into high/low blocks matching the
    joint patch layout, and factor and whiten the low blocks once.

    A component whose low block stays indefinite even after regularization is
    excluded from selection with a warning instead of aborting.
    """
    if not isinstance(model, (PcaGmmModel, GmmParams)):
        raise InvalidShape(f"unsupported model type {type(model).__name__}")
    if model.dim != geom.n_joint:
        raise InvalidShape(
            f"model dimension {model.dim} does not match joint patch dimension "
            f"{geom.n_joint}"
        )
    nh, nl = geom.n_high, geom.n_low
    K = model.n_components
    blocks = ConditionalBlocks(
        log_alpha=np.full(K, -np.inf),
        mean_high=np.empty((K, nh)),
        mean_low=np.empty((K, nl)),
        gain=np.zeros((K, nh, nl)),
        whiten_low=np.empty((K, nl, nl)),
        shift_low=np.empty((K, nl)),
        log_norm_low=np.empty(K),
        valid=np.zeros(K, dtype=bool),
    )
    for k in range(K):
        mean, cov = _lifted_moments(model, k)
        cov_low = cov[nh:, nh:]
        L = try_cholesky(cov_low)
        if L is None:
            try:
                L = try_cholesky(regularize_spd(cov_low))
            except NotPositiveDefinite:
                L = None
        if L is None:
            warnings.warn(f"excluding component {k}: low block not positive definite")
            continue
        cross = cov[:nh, nh:]
        # gain = cross @ cov_low^{-1} through the factor
        blocks.gain[k] = solve_triangular(
            L.T, solve_triangular(L, cross.T, lower=True), lower=False
        ).T
        blocks.mean_high[k] = mean[:nh]
        blocks.mean_low[k] = mean[nh:]
        (
            blocks.whiten_low[k],
            blocks.shift_low[k],
            blocks.log_norm_low[k],
        ) = _whitening(L, blocks.mean_low[k])
        with np.errstate(divide="ignore"):
            blocks.log_alpha[k] = np.log(model.alpha[k])
        blocks.valid[k] = True
    if not blocks.valid.any():
        raise NotPositiveDefinite("every component was excluded")
    return blocks


def _selection_scores(blocks, XL):
    """N x K matrix of log alpha_k plus the low-block log density."""
    XL = np.atleast_2d(np.asarray(XL, dtype=float))
    return _log_scores(
        XL,
        blocks.log_alpha,
        lambda k: (blocks.whiten_low[k], blocks.shift_low[k], blocks.log_norm_low[k]),
    )


def select_component(blocks, x_low):
    """Index of the component with maximal weighted low-block density; ties
    resolve to the smallest index."""
    scores = _selection_scores(blocks, x_low)[0]
    return int(np.argmax(scores))


def mmse_patch(blocks, k, x_low):
    """Conditional mean of the high block given the observed low block."""
    return blocks.mean_high[k] + blocks.gain[k] @ (
        np.asarray(x_low, dtype=float) - blocks.mean_low[k]
    )


def conditional_covariance(model, geom, k):
    """Covariance of the high block given the low block, for diagnostics."""
    nh = geom.n_high
    _, cov = _lifted_moments(model, k)
    cov_low = regularize_spd(cov[nh:, nh:])
    cross = cov[:nh, nh:]
    return cov[:nh, :nh] - cross @ solve_spd(cov_low, cross.T)


def reconstruct(low, model, geom, gamma=0.1):
    """Estimate the high-resolution image from a low-resolution one.

    Enumerates low patches at stride one in raster order, one tile at a time.
    For each tile it picks the best component and its conditional mean per
    patch and adds the estimates at q-times the origins, with Gaussian pixel
    weights, into one overlap-add accumulator; the weighted sums are divided
    once at the end. A tile holds at most _TILE_BYTES of estimates, so apart
    from the input and the output-sized accumulators memory does not grow
    with the image. The result is not clipped; clipping happens at image
    export.
    """
    low = np.asarray(low, dtype=float)
    if low.ndim != geom.dims:
        raise InvalidShape(
            f"image dimensionality {low.ndim} does not match geometry dims {geom.dims}"
        )
    blocks = precompute_conditionals(model, geom)
    acc = OverlapAdd(tuple(geom.q * m for m in low.shape), geom.high_edge, gamma)
    tile = max(1, _TILE_BYTES // (8 * geom.n_high))
    for patches in low_patch_tiles(low, geom.tau, tile):
        ks = np.argmax(_selection_scores(blocks, patches.data), axis=1)
        # group the patches by component so that each group is a row range
        order = np.argsort(ks)
        x = patches.data[order]
        ks, starts = np.unique(ks[order], return_index=True)
        estimates = np.empty((patches.count, geom.n_high))
        for k, rows in zip(ks, map(slice, starts, [*starts[1:], patches.count])):
            innovation = x[rows] - blocks.mean_low[k]
            np.matmul(innovation, blocks.gain[k].T, out=estimates[rows])
            estimates[rows] += blocks.mean_high[k]
        acc.add(estimates, geom.q * patches.origins[order])
    return acc.finish()
