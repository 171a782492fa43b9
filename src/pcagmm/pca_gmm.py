"""Gaussian mixtures with a per-component low-dimensional subspace.

Each component models the data as a d-dimensional Gaussian living on an
affine subspace (orthonormal frame U, offset b) plus isotropic residual
noise of scale sigma off the subspace. Turning U within its span changes no
density, so each frame is held in the eigenbasis of its reduced covariance:
a component is the Gaussian with mean b and covariance
U diag(v) U^T + sigma^2 (I - U U^T); all mixture computations stay in the
reduced dimension. lift_component below forms that n x n covariance as a
reference; no production path calls it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyComponent, InvalidParameter, InvalidShape, NotPositiveDefinite
from .gmm import (
    EmConfig,
    _normalize_rows,
    _run_em,
    check_mixture,
    kmeanspp_indices,
)
from .linalg import regularize_spd, stiefel_defect

# palm_minimize is re-exported next to ipalm_minimize, where the benchmark's
# tracer looks both solvers up.
from .palm import MStepProblem, SolverConfig, ipalm_minimize, palm_minimize
from .stats import _EMPTY_REL, SufficientStats, accumulate_stats


@dataclass
class PcaGmmModel:
    """Mixture of subspace Gaussians.

    alpha    : (K,) mixture weights on the simplex
    bases    : (K, n, d) orthonormal frames
    offsets  : (K, n) component means
    variances: (K, d) variances along the frame columns, positive and finite
    sigma    : residual noise scale off the subspace, > 0
    """

    alpha: np.ndarray
    bases: np.ndarray
    offsets: np.ndarray
    variances: np.ndarray
    sigma: float

    @property
    def n_components(self):
        return self.alpha.shape[0]

    @property
    def dim(self):
        return self.bases.shape[1]

    @property
    def reduced_dim(self):
        return self.bases.shape[2]

    def validate(self):
        K, n, d = self.n_components, self.dim, self.reduced_dim
        if (
            self.bases.shape != (K, n, d)
            or self.offsets.shape != (K, n)
            or self.variances.shape != (K, d)
            or d > n
        ):
            raise InvalidShape("inconsistent parameter shapes")
        check_sigma(self.sigma)
        check_mixture(self.alpha, self.offsets, self.variances)
        if not np.all(self.variances > 0.0):
            raise NotPositiveDefinite("a reduced variance is not positive")
        for k in range(K):
            if not stiefel_defect(self.bases[k]) <= 1e-10:
                raise InvalidParameter(f"frame {k} is not orthonormal")
        return self


def check_sigma(sigma):
    """Return sigma as a float; raise InvalidParameter unless sigma > 0 and
    sigma^2, which every score divides by, is a positive finite double."""
    sigma = float(sigma)
    if not (sigma > 0.0 and 0.0 < sigma * sigma < np.inf):
        raise InvalidParameter(
            f"sigma must be positive with a positive, finite square, got {sigma!r}"
        )
    return sigma


@dataclass(frozen=True)
class LiftedGaussian:
    """Full-dimensional equivalent of one subspace component."""

    mean: np.ndarray
    cov: np.ndarray


def lift_component(basis, offset, variances, sigma):
    """Full-dimensional mean and covariance of a subspace component.

    Uses the explicit form U diag(v) U^T + sigma^2 (I - U U^T), which costs
    O(n^2 d) and never inverts an n x n matrix.
    """
    basis = np.asarray(basis, dtype=float)
    n = basis.shape[0]
    lifted_cov = (basis * np.asarray(variances, dtype=float)) @ basis.T
    lifted_cov += sigma**2 * (np.eye(n) - basis @ basis.T)
    return LiftedGaussian(
        mean=np.array(offset, dtype=float),
        cov=0.5 * (lifted_cov + lifted_cov.T),
    )


_BLOCK_BYTES = 1 << 20  # bytes of one row block's largest scratch array


def _sq_dist(X, offsets):
    """N x K matrix of ||x - b_k||^2, expanded about the row mean c as
    ||x - c||^2 - 2 (x - c).(b_k - c) + ||b_k - c||^2, so that an offset common
    to the data and the b_k cancels before any product. The cross term is one
    N x K product, X (B - c)^T less c.(b_k - c). _log_joint calls it on one
    row block at a time, so X - c is block-sized."""
    c = X.mean(axis=0)
    D = offsets - c
    d2 = X @ D.T
    d2 -= D @ c
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", D, D)
    Y = X - c
    d2 += np.einsum("ij,ij->i", Y, Y)[:, None]
    return d2


def _log_joint(model, X):
    """N x K matrix of per-component log scores (-inf where alpha_k is 0).

    Each row block of X, sized so that no scratch array exceeds _BLOCK_BYTES,
    makes one product with the n x Kd concatenation of the frames. Less the
    stacked b_k^T U_k and squared in place, it holds every component's y^2,
    y = U_k^T (x - b_k): the reduced density takes sum y^2 / v_k, and the
    residual ||x - b_k||^2 - sum y^2, clamped at 0, over 2 sigma^2.
    Nothing is factored, and no N x n or N x Kd array is made.
    """
    X = np.asarray(X, dtype=float)
    v = model.variances
    if not np.all(v > 0.0):
        raise NotPositiveDefinite("a reduced variance is not positive")
    K, n, d = model.bases.shape
    with np.errstate(divide="ignore"):
        log_norm = np.log(model.alpha) - 0.5 * np.log(2 * np.pi * v).sum(axis=1)
    frames = model.bases.transpose(1, 0, 2).reshape(n, K * d)
    shift = np.einsum("kn,knd->kd", model.offsets, model.bases).reshape(K * d)
    scores = np.empty((X.shape[0], K))
    rows = max(1, _BLOCK_BYTES // (8 * max(K * d, n)))
    for start in range(0, X.shape[0], rows):
        x = X[start : start + rows]
        Y = x @ frames
        Y -= shift
        Y *= Y
        Y = Y.reshape(-1, K, d)
        energy = _sq_dist(x, model.offsets)
        energy -= Y.sum(axis=2)
        np.maximum(energy, 0.0, out=energy)
        energy *= 0.5 / model.sigma**2
        energy += 0.5 * np.einsum("bkd,kd->bk", Y, 1.0 / v)
        np.subtract(log_norm, energy, out=scores[start : start + rows])
    return scores


def pcagmm_objective(model, X):
    """Negative log of the mixture of reduced densities times the residual
    factor, summed over samples; evaluated in the log domain."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        return 0.0
    _, norm = _normalize_rows(_log_joint(model, X))
    return float(-np.sum(norm))


def pcagmm_estep(model, X):
    """Row-stochastic responsibilities, computed in the log domain."""
    beta, _ = _normalize_rows(_log_joint(model, X))
    return beta


def recover_component(stats, basis):
    """Frame and variances of the component whose frame spans `basis` and
    whose offset is stats.mean: the projected scatter U^T C U / w, floored by
    regularize_spd (the one floor of every estimated covariance), is
    Q diag(v) Q^T with v descending, and the frame turns to U Q, which spans
    what U spans. Raises EmptyComponent when the mass is below _EMPTY_REL.
    """
    if stats.weight < _EMPTY_REL:
        raise EmptyComponent()
    T = basis.T @ (stats.scatter @ basis)
    v, Q = np.linalg.eigh(regularize_spd(T / stats.weight))
    return basis @ Q[:, ::-1], v[::-1]


def _init_model(X, K, d, sigma, rng):
    """Per-cluster PCA initialization: offset at the cluster mean, frame and
    variances from the top eigenpairs of the cluster scatter.

    The clusters are the nearest-seed labels of the k-means++ seeding pass
    (kmeanspp_indices). A cluster of fewer than two points, such as the empty
    one of a seed drawn when every sample already sat on a seed, is
    initialized from all the data.

    Each centred cluster Y of m points is factored on its smaller side: the
    n x n scatter Y^T Y when m > n, otherwise the m x m Gram matrix Y Y^T,
    whose eigenvectors E give the scatter's as the columns of Y^T E. The
    frame is the Q factor of those top d columns, zero-padded to d, so it is
    orthonormal even where the cluster has rank below d."""
    n = X.shape[1]
    _, labels = kmeanspp_indices(X, K, rng)

    bases = np.empty((K, n, d))
    offsets = np.empty((K, n))
    variances = np.empty((K, d))
    for k in range(K):
        pts = X[labels == k]
        if pts.shape[0] < 2:
            pts = X
        m = pts.shape[0]
        center = pts.mean(axis=0)
        Y = pts - center
        lam, E = np.linalg.eigh(Y.T @ Y if m > n else Y @ Y.T)
        lam, E = lam[: -d - 1 : -1], E[:, : -d - 1 : -1]
        frame = np.zeros((n, d))
        frame[:, : lam.size] = E if m > n else Y.T @ E
        top = np.zeros(d)
        top[: lam.size] = np.maximum(lam, 0.0) / m
        floor = 1e-6 * top[0] + 1e-12
        bases[k] = np.linalg.qr(frame)[0]
        offsets[k] = center
        variances[k] = np.maximum(top, floor)
    return PcaGmmModel(
        alpha=np.full(K, 1.0 / K),
        bases=bases,
        offsets=offsets,
        variances=variances,
        sigma=float(sigma),
    )


def _floored_stats(stats):
    """Add an isotropic jitter to the scatter C: 1e-10 times the mean diagonal
    of the second moment about the origin, (trace C + w ||mean||^2) / n, plus
    1e-22. Clusters of near-constant patches have numerically rank-deficient
    scatter, on which the frame objective is unbounded below; the jitter keeps
    every projected scatter factorable without visibly moving the optimum."""
    m, n = stats.mean, stats.mean.size
    second = float(np.trace(stats.scatter)) + stats.weight * float(m @ m)
    scatter = stats.scatter.copy()
    scatter.flat[:: n + 1] += 1e-10 * (second / n + 1e-12)
    return SufficientStats(weight=stats.weight, mean=stats.mean, scatter=scatter)


def fit_pcagmm(X, K, d, sigma, em_config=None, solver_config=None, seed=0):
    """EM fit of the subspace mixture.

    Every iteration runs the responsibility update, accumulates per-component
    moments, minimizes each component's frame objective warm-started at the
    previous frame with the offset at its exact minimizer, the weighted mean,
    and turns the frame to the eigenbasis of its reduced covariance
    (recover_component). A starved component restarts at a sample with every
    variance max(1e-6, sigma^2), keeping its frame. Returns the model and
    the trace of _run_em.
    """
    X = np.asarray(X, dtype=float)
    sigma = check_sigma(sigma)
    solver_config = solver_config or SolverConfig()
    N, n = X.shape
    if not 1 <= d <= n:
        raise InvalidShape(f"need 1 <= d <= n, got d={d}, n={n}")
    model = _init_model(X, K, d, sigma, np.random.default_rng(seed))

    def mstep(model, X, beta):
        model.alpha = beta.sum(axis=0) / N
        for k in range(K):
            stats = _floored_stats(accumulate_stats(X, beta, k))
            problem = MStepProblem(stats=stats, sigma=model.sigma)
            U, b, _ = ipalm_minimize(problem, model.bases[k], config=solver_config)
            model.bases[k], model.variances[k] = recover_component(stats, U)
            model.offsets[k] = b
            del stats, problem  # before the next component's two scatters
        return model

    def reset(model, k, x):
        model.offsets[k] = x
        model.variances[k] = max(1e-6, model.sigma**2)

    return _run_em(X, model, _log_joint, mstep, reset, em_config or EmConfig())
