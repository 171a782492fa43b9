"""Component selection and MMSE estimation of high-resolution patches from a
trained joint model, plus the end-to-end reconstruction driver."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape, NotPositiveDefinite
from .gmm import GmmParams, _log_scores
from .linalg import regularize_spd, solve_spd, solve_triangular, try_cholesky
from .patches import aggregate, extract_low
from .pca_gmm import PcaGmmModel, lift_component


@dataclass(frozen=True)
class ConditionalBlocks:
    """Per-component quantities for conditioning the high block on the low.

    log_alpha  : (K,) log mixture weights (-inf for excluded components)
    mean_high  : (K, n_high)
    mean_low   : (K, n_low)
    gain       : (K, n_high, n_low) cross-covariance times inverse low block
    chol_low   : (K, n_low, n_low) lower Cholesky factors of the low blocks
    valid      : (K,) bool, False for excluded components

    mean_low and chol_low of an excluded component are left uninitialized;
    selection never reads them because its log weight is -inf.
    """

    log_alpha: np.ndarray
    mean_high: np.ndarray
    mean_low: np.ndarray
    gain: np.ndarray
    chol_low: np.ndarray
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
    joint patch layout, and factor the low blocks once.

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
        chol_low=np.empty((K, nl, nl)),
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
        blocks.chol_low[k] = L
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
        XL, blocks.log_alpha, blocks.mean_low, blocks.chol_low.__getitem__
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

    Enumerates low patches at stride one, picks the best component and its
    conditional mean per patch, and aggregates the estimates at q-times the
    origins with Gaussian pixel weights. The result is not clipped; clipping
    happens at image export.
    """
    low = np.asarray(low, dtype=float)
    if low.ndim != geom.dims:
        raise InvalidShape(
            f"image dimensionality {low.ndim} does not match geometry dims {geom.dims}"
        )
    blocks = precompute_conditionals(model, geom)
    patches = extract_low(low, geom.tau, stride=1)
    ks = np.argmax(_selection_scores(blocks, patches.data), axis=1)
    estimates = np.empty((patches.count, geom.n_high))
    for k in np.unique(ks):
        rows = ks == k
        innovation = patches.data[rows] - blocks.mean_low[k]
        estimates[rows] = innovation @ blocks.gain[k].T + blocks.mean_high[k]
    out_dims = tuple(geom.q * m for m in low.shape)
    return aggregate(
        estimates, geom.q * patches.origins, geom.high_edge, gamma, out_dims
    )
