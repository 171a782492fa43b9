"""Component selection and MMSE estimation of high-resolution patches from a
trained joint model, plus the end-to-end reconstruction driver."""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensity, InvalidShape, NotPositiveDefinite
from .gmm import GmmParams, _fill_whitening, _inverse_factor, _score_blocks
from .linalg import block_rows, regularized_cholesky, solve_triangular, try_cholesky

# aggregate and extract_low are re-exported where the benchmark's tracer looks them up.
from .patches import OverlapAdd, aggregate, extract_low, low_patch_tiles
from .pca_gmm import PcaGmmModel

_TILE_BYTES = 2 << 20  # estimates that reconstruct holds at once


@dataclass(frozen=True)
class ConditionalBlocks:
    """Per-component quantities for selecting a component from the low block
    and conditioning the high block on it.

    mean_high : (K, n_high)
    mean_low  : (K, n_low)
    gain      : (K, n_high, n_low) cross-covariance times inverse low block
    log_const : (K,) log alpha_k plus the log normalizer of the low block
                N(mean_low[k], L_k L_k^T), L_k its lower Cholesky factor
    valid     : (K,) bool, False for excluded components

    Selection holds exactly one of two matrices, by K against n_low alone;
    the other field is None:

    whiten    : (n_low + 1, K n_low) when K <= n_low, the stacked whitening
                of gmm._fill_whitening; an excluded component's columns are 0
    quadratic : (K, T + n_low + 1) when K > n_low, T = n_low (n_low + 1) / 2:
                row k holds -P_ii / 2 and -P_ij (i < j) of the precision
                P_k = L_k^{-T} L_k^{-1} in np.triu_indices order, then P_k m_k
                and log_const[k] - m_k^T P_k m_k / 2, m_k = mean_low[k] -
                centre, so that x scores log_const[k] - (y - m_k)^T P_k
                (y - m_k) / 2 as one dot product with [y_i y_j (i <= j), y, 1],
                y = x - centre; an excluded component's row is 0 but for -inf
    centre    : (n_low,) with quadratic, the alpha-weighted mean of the valid
                low means, which keeps the expanded form's rounding at the
                scale of the patches' spread, not of their distance from 0

    An excluded component's constant is -inf, so it scores -inf and its other
    fields are never read; its means are NaN, so a read would show.
    """

    mean_high: np.ndarray
    mean_low: np.ndarray
    gain: np.ndarray
    log_const: np.ndarray
    valid: np.ndarray
    whiten: np.ndarray | None
    quadratic: np.ndarray | None
    centre: np.ndarray | None


def _conditioning_moments(model, k, nh):
    """Mean, low covariance block C_LL and cross-block factors (A, R) of
    component k, with C_HL = A R^T, or C_HL = R^T when A is None.

    A subspace component is read from its reduced parameters: its mean is b,
    and with D = diag(v) - sigma^2 I, C = sigma^2 I + U D U^T, so C_LL =
    sigma^2 I + U_L D U_L^T and C_HL = U_H (U_L D)^T, and R has d columns
    instead of n_high. No n x n array is formed.
    """
    if isinstance(model, PcaGmmModel):
        U, sigma2 = model.bases[k], model.sigma**2
        ul_d = U[nh:] * (model.variances[k] - sigma2)
        cov_low = ul_d @ U[nh:].T + sigma2 * np.eye(U.shape[0] - nh)
        cov_low = 0.5 * (cov_low + cov_low.T)
        return model.offsets[k], cov_low, U[:nh], ul_d
    cov = model.covs[k]
    return model.means[k], cov[nh:, nh:], None, cov[:nh, nh:].T


def precompute_conditionals(model, geom):
    """Partition every component into high/low blocks matching the joint
    patch layout, and factor the low blocks once into the selection matrix
    that ConditionalBlocks describes.

    A subspace component's blocks come straight from its reduced parameters
    (see _conditioning_moments), so no n x n covariance is formed; the gain
    C_HL C_LL^{-1} then costs a solve with d right-hand sides.

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
    quadratic = K > nl
    blocks = ConditionalBlocks(
        mean_high=np.full((K, nh), np.nan),
        mean_low=np.full((K, nl), np.nan),
        gain=np.zeros((K, nh, nl)),
        log_const=np.full(K, -np.inf),
        valid=np.zeros(K, dtype=bool),
        whiten=None if quadratic else np.zeros((nl + 1, K * nl)),
        quadratic=np.zeros((K, nl * (nl + 1) // 2 + nl + 1)) if quadratic else None,
        centre=np.empty(nl) if quadratic else None,
    )
    inverse = np.empty((K, nl, nl)) if quadratic else None  # each valid L_k^{-1}
    for k in range(K):
        mean, cov_low, left, right = _conditioning_moments(model, k, nh)
        try:
            L = try_cholesky(cov_low)
            if L is None:
                _, L = regularized_cholesky(cov_low)
        except NotPositiveDefinite:
            warnings.warn(f"excluding component {k}: low block not positive definite")
            continue
        # gain = C_HL C_LL^{-1} = A (C_LL^{-1} R)^T through the factor
        solved = solve_triangular(
            L.T, solve_triangular(L, right, lower=True), lower=False
        )
        blocks.gain[k] = solved.T if left is None else left @ solved.T
        blocks.mean_high[k] = mean[:nh]
        blocks.mean_low[k] = mean[nh:]
        if quadratic:
            inverse[k], blocks.log_const[k] = _inverse_factor(L, model.alpha[k])
        else:
            _fill_whitening(
                blocks.whiten, blocks.log_const, k, L, mean[nh:], model.alpha[k]
            )
        blocks.valid[k] = True
    if not blocks.valid.any():
        raise NotPositiveDefinite("every component was excluded")
    if quadratic:
        _fill_quadratic(blocks, inverse, model.alpha)
    return blocks


def _fill_quadratic(blocks, inverse, alpha):
    """Write the centre and the rows of blocks.quadratic (see
    ConditionalBlocks) from each valid component's L_k^{-1} in inverse.
    P_k m_k and m_k^T P_k m_k are taken through w = L_k^{-1} m_k, so the
    latter is the square ||w||^2. With no weight on any valid component,
    whose patches all score -inf, the centre is their plain mean."""
    valid = blocks.valid
    weights = alpha[valid]
    blocks.centre[:] = np.average(
        blocks.mean_low[valid], axis=0, weights=weights if weights.any() else None
    )
    n = blocks.centre.size
    upper = np.triu_indices(n)
    half = np.where(upper[0] == upper[1], -0.5, -1.0)
    quad, T = blocks.quadratic, len(half)
    quad[:, -1] = blocks.log_const  # -inf for an excluded component
    for k in np.flatnonzero(valid):
        Linv = inverse[k]
        w = Linv @ (blocks.mean_low[k] - blocks.centre)
        quad[k, :T] = half * (Linv.T @ Linv)[upper]
        quad[k, T:-1] = Linv.T @ w
        quad[k, -1] -= 0.5 * (w @ w)


def _quadratic_blocks(X, quadratic, centre):
    """Yield each row block of X as (rows, scores): its slice and its B x K
    scores through the quadratic form of ConditionalBlocks, as
    gmm._score_blocks does through the whitening.

    A block's features are written transposed into one reused
    (T + n + 1) x B buffer: the n products y[i:] * y[i] (the upper triangle
    in np.triu_indices order), y = x - centre, then a row of ones; one
    product with the form scores the block. Neither the buffer nor the
    scores exceed _BLOCK_BYTES (a block has at least one row), and both are
    reused, so a block's scores are valid until the next block is drawn. A
    patch whose features overflow scores -inf or NaN under every component.
    """
    n = X.shape[1]
    K, width = quadratic.shape
    T = width - n - 1
    rows = block_rows(8 * max(width, K))
    F = np.empty(min(rows, len(X)) * width)
    scores = np.empty(min(rows, len(X)) * K)
    for first in range(0, len(X), rows):
        x = X[first : first + rows]
        B = len(x)
        f = F[: B * width].reshape(width, B)
        y = f[T:-1]
        np.subtract(x.T, centre[:, None], out=y)
        f[-1] = 1.0
        out = scores[: B * K].reshape(B, K)
        with np.errstate(over="ignore", invalid="ignore"):
            start = 0
            for i in range(n):
                np.multiply(y[i:], y[i], out=f[start : start + n - i])
                start += n - i
            np.matmul(f.T, quadratic.T, out=out)
        yield slice(first, first + B), out


def _select(blocks, XL):
    """Per row of XL, the component of largest weighted low-block density,
    ties to the smallest, scored in row blocks by the stacked whitening
    kernel when K <= n_low and through the quadratic form when K > n_low,
    whichever of the two blocks holds. Raises DegenerateDensity where a row's
    best score is not finite (argmax stops at a NaN): the patch has zero
    density under every component."""
    ks = np.empty(len(XL), dtype=np.intp)
    if blocks.whiten is None:
        pairs = _quadratic_blocks(XL, blocks.quadratic, blocks.centre)
    else:
        pairs = _score_blocks(XL, blocks.whiten, blocks.log_const)
    for rows, scores in pairs:
        best = scores.argmax(axis=1)
        # each row's best score, through the flat index of its argmax
        top = scores.ravel().take(best + scores.shape[1] * np.arange(len(best)))
        if not np.all(np.isfinite(top)):
            raise DegenerateDensity("a patch has zero density under every component")
        ks[rows] = best
    return ks


def reconstruct(low, model, geom, gamma=0.1):
    """Estimate the high-resolution image from a low-resolution one.

    Enumerates low patches at stride one in raster order, one tile at a time.
    For each tile it picks the best component and its conditional mean per
    patch and adds the estimates at q-times the origins, with Gaussian pixel
    weights, into one overlap-add accumulator, whose weighted sums are divided
    in place at the end. Besides the input and the accumulator (12 bytes per
    output sample), it holds one buffer of at most _TILE_BYTES of estimates
    and scratch in blocks of at most _BLOCK_BYTES, so memory does not grow
    with the image otherwise. The result is not clipped; clipping happens at
    image export.
    """
    low = np.asarray(low, dtype=float)
    if low.ndim != geom.dims:
        raise InvalidShape(
            f"image dimensionality {low.ndim} does not match geometry dims {geom.dims}"
        )
    blocks = precompute_conditionals(model, geom)
    acc = OverlapAdd(tuple(geom.q * m for m in low.shape), geom.high_edge, gamma)
    tile = max(1, _TILE_BYTES // (8 * geom.n_high))
    buffer = None
    for patches in low_patch_tiles(low, geom.tau, tile):
        count = patches.count
        if buffer is None:  # the first tile is the largest
            buffer = np.empty((count, geom.n_high))
        ks = _select(blocks, patches.data)
        # group the patches by component so that each group is a row range
        order = np.argsort(ks)
        x = patches.data[order]
        origins = geom.q * patches.origins[order]
        del patches
        sizes = np.bincount(ks, minlength=len(blocks.valid))
        ends = np.cumsum(sizes)
        estimates = buffer[:count]
        for k in np.flatnonzero(sizes):
            rows = slice(ends[k] - sizes[k], ends[k])
            x[rows] -= blocks.mean_low[k]
            np.matmul(x[rows], blocks.gain[k].T, out=estimates[rows])
            estimates[rows] += blocks.mean_high[k]
        del x, order, ks  # the overlap-add holds the peak; it needs only these two
        acc.add(estimates, origins)
        del estimates, origins  # before the next tile is gathered
    del buffer
    return acc.finish()
