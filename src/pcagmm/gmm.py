"""Full-dimensional Gaussian mixture models fitted by EM.

This is both the baseline method of the benchmark tables and the numerical
foundation reused by the reduced model and by component selection: the one
stacked whitening kernel for full-covariance Gaussians, which scores this
E-step and superres selection, responsibility computation and the EM loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDensity,
    EmptyComponent,
    InvalidParameter,
    InvalidShape,
    NotPositiveDefinite,
)
from .linalg import (
    block_rows,
    cholesky_spd,
    regularize_spd,
    solve_triangular,
    try_cholesky,
)
from .stats import _EMPTY_REL, floored_moments

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GmmParams:
    """Mixture weights plus per-component mean and covariance.

    alpha : (K,) nonnegative, sums to one
    means : (K, n)
    covs  : (K, n, n) symmetric positive definite
    """

    alpha: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    @property
    def n_components(self):
        return self.alpha.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def validate(self):
        K, n = self.n_components, self.dim
        if self.means.shape != (K, n) or self.covs.shape != (K, n, n):
            raise InvalidShape("inconsistent parameter shapes")
        check_mixture(self.alpha, self.means)
        # each covariance must factor as it stands, with no diagonal shift
        for k, cov in enumerate(self.covs):
            if try_cholesky(cov) is None:
                raise NotPositiveDefinite(f"covariance {k} is not positive definite")
        return self


def check_mixture(alpha, *finite):
    """Raise InvalidParameter unless the mixture weights are nonnegative and
    sum to one and every parameter in `finite` is finite."""
    if not (np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-12):
        raise InvalidParameter("mixture weights are not on the probability simplex")
    if not all(np.all(np.isfinite(x)) for x in finite):
        raise InvalidParameter("mixture parameters are not finite")


@dataclass
class EmConfig:
    max_iters: int = 100
    tol: float = 1e-5  # stop when the relative objective decrease drops below


@dataclass
class EmTrace:
    """Objective value before the first update and after every iteration, and
    why EM stopped: "tolerance" (the last decrease fell below the tolerance),
    "rise" (the objective rose by more than the tolerance; EM stops there too)
    or "max_iters"."""

    objective: np.ndarray
    stop: str
    n_reseeds: int = 0


def gauss_logpdf(x, mu, sigma):
    """Log density of a multivariate normal at one point, through the Cholesky
    factor and one triangular solve: the reference of the stacked kernel."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x.shape != mu.shape or sigma.shape != (x.size, x.size):
        raise InvalidShape("inconsistent density argument shapes")
    L = cholesky_spd(sigma)
    z = solve_triangular(L, x - mu, lower=True)
    return float(-0.5 * (x.size * _LOG_2PI + z @ z) - np.sum(np.log(np.diag(L))))


def _inverse_factor(L, alpha):
    """L^{-1} and log alpha plus the log normalizer -n/2 log(2 pi) - log det L
    of N(., L L^T) with weight alpha (-inf at alpha = 0)."""
    n = L.shape[0]
    log_norm = -0.5 * n * _LOG_2PI - np.sum(np.log(np.diag(L)))
    with np.errstate(divide="ignore"):
        log_const = np.log(alpha) + log_norm
    return solve_triangular(L, np.eye(n), lower=True), log_const


def _fill_whitening(whiten, log_const, k, L, mean, alpha):
    """Write N(mean, L L^T) with weight alpha as component k of a stacked
    whitening: columns k n to (k + 1) n of the (n + 1) x K n matrix whiten get
    L^{-T} above the shift row -(L^{-1} mean)^T, and log_const[k] gets the
    constant of _inverse_factor, so that
    log alpha + log N(x) = log_const[k] - ||[x, 1] whiten_k||^2 / 2."""
    n = L.shape[0]
    Linv, log_const[k] = _inverse_factor(L, alpha)
    cols = slice(k * n, (k + 1) * n)
    whiten[:n, cols] = Linv.T
    whiten[n, cols] = -(Linv @ mean)


def _score_blocks(X, whiten, log_const):
    """Yield each row block of X as (rows, scores): its slice and its B x K
    scores log_const[k] - ||[x, 1] whiten_k||^2 / 2 (see _fill_whitening).

    A block of at least n + 1 rows is copied next to a column of ones; one
    product whitens and shifts it for a chunk of components, as many as fit
    in _BLOCK_BYTES at n + 1 rows and at least one, so a product never reads
    more of the whitening than it writes (past n of about 360 one component's
    product, the size of its whitening, exceeds _BLOCK_BYTES). The squares
    are taken in place (an overflow scores -inf) and summed per component
    times -1/2 by one matrix-vector product. X1, Z and scores are reused, so
    a block's scores are valid until the next block is drawn.
    """
    n, K = X.shape[1], len(log_const)
    per = min(K, block_rows(8 * n * (n + 1)))
    rows = max(n + 1, block_rows(8 * per * n))
    X1 = np.ones((min(rows, len(X)), n + 1))
    Z = np.empty(len(X1) * per * n)
    scores = np.empty(len(X1) * K)
    half = np.full(n, -0.5)  # scaling by a power of two commutes with rounding
    chunks = [(k, min(per, K - k)) for k in range(0, K, per)]
    for first in range(0, len(X), rows):
        x = X[first : first + rows]
        B = len(x)
        X1[:B, :n] = x
        out = scores[: B * K].reshape(B, K)
        for k, c in chunks:
            z = Z[: B * c * n].reshape(B, c * n)
            np.matmul(X1[:B], whiten[:, k * n : (k + c) * n], out=z)
            with np.errstate(over="ignore"):
                z *= z
            z = z.reshape(B * c, n)
            if c == K:  # one chunk: the sums land in place
                np.matmul(z, half, out=scores[: B * K])
            else:
                out[:, k : k + c] = (z @ half).reshape(B, c)
        out += log_const
        yield slice(first, first + B), out


def _log_joint(model, X):
    """N x K matrix of log(alpha_k) + log density of x_i under component k,
    for any mixture with weights alpha, means and covariances covs.

    Each covariance is factored as stored, one at a time, into the stacked
    whitening, which holds (n + 1) K n floats; a component of weight 0 is
    never factored and scores -inf."""
    n, K = X.shape[1], model.n_components
    whiten = np.zeros((n + 1, K * n))
    log_const = np.full(K, -np.inf)
    for k in np.flatnonzero(model.alpha > 0):
        L = cholesky_spd(model.covs[k])
        _fill_whitening(whiten, log_const, k, L, model.means[k], model.alpha[k])
    out = np.empty((X.shape[0], K))
    for rows, scores in _score_blocks(X, whiten, log_const):
        out[rows] = scores
    return out


def _normalize_rows(log_joint):
    """Turn the N x K log scores into responsibilities in place; return them
    and each row's log normalizer, its max plus the log of the row sum of
    exp(L - max). Raises DegenerateDensity where a row max is not finite."""
    top = log_joint.max(axis=1)
    if not np.all(np.isfinite(top)):
        raise DegenerateDensity("some sample has zero density under every component")
    log_joint -= top[:, None]
    beta = np.exp(log_joint, out=log_joint)
    total = beta.sum(axis=1)
    beta /= total[:, None]
    return beta, top + np.log(total)


def gmm_nll(params, X):
    """Negative log-likelihood, accumulated in the log domain."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] == 0:
        return 0.0
    _, norm = _normalize_rows(_log_joint(params, X))
    return float(-np.sum(norm))


def gmm_estep(params, X):
    """Row-stochastic responsibilities of each component for each sample."""
    X = np.asarray(X, dtype=float)
    beta, _ = _normalize_rows(_log_joint(params, X))
    return beta


def gmm_mstep(X, beta):
    """Maximum-likelihood update from responsibilities beta (N x K): mixture
    weights, weighted means and weighted covariances about those means.

    The weights use every row. Each mean m_k and scatter come from
    floored_moments of column k, over the rows with beta[:, k] >= _EMPTY_REL;
    the covariance is that scatter divided by the full column mass c_k, then
    floored by regularize_spd. Against the dense estimates over every row,
    the mean moves by at most D_k^(1) / c_k and the covariance, before the
    floor, by at most D_k^(2) / c_k in the 2-norm, where D_k^(p) is the sum
    over dropped rows of beta_ik ||x_i - m_k||^p.

    Raises InvalidShape unless X is N x n and beta N x K, and EmptyComponent
    naming every column whose mass is below _EMPTY_REL N, or every column
    when there are no rows.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if X.ndim != 2 or beta.ndim != 2 or beta.shape[0] != X.shape[0]:
        raise InvalidShape(
            f"expected samples (N, n) and responsibilities (N, K), got "
            f"{X.shape} and {beta.shape}"
        )
    N, n = X.shape
    K = beta.shape[1]
    cols = beta.sum(axis=0)
    starved = np.flatnonzero(cols < _EMPTY_REL * N) if N else np.arange(K)
    if starved.size:
        raise EmptyComponent(starved)
    alpha = cols / N
    means = np.empty((K, n))
    covs = np.empty((K, n, n))
    for k in range(K):
        _, means[k], scatter = floored_moments(X, beta[:, k])
        covs[k] = regularize_spd(scatter / cols[k])
    return GmmParams(alpha=alpha, means=means, covs=covs)


def kmeanspp_indices(X, K, rng):
    """Indices of K seed samples chosen by squared-distance-weighted sampling,
    and for every sample the index into them of its nearest seed.

    The squared distance of every sample to a new seed c is expanded as
    ||x||^2 - 2 x.c + ||c||^2: the squared norms are computed once and each
    seed costs one matrix-vector product, with no N x n temporary. The
    expansion is clamped at 0, so rounding never yields a negative weight.
    Next to each sample's running minimum the pass keeps the seed that set
    it; a later seed takes a sample only when strictly nearer, so a tie goes
    to the earlier seed, and a seed drawn when every minimum is 0 takes none.
    """
    N = X.shape[0]
    if N < K:
        raise InvalidShape(f"need at least K={K} samples, got {N}")
    sq = np.einsum("ij,ij->i", X, X)

    def dist2(c):
        d2 = X @ X[c]
        d2 *= -2.0
        d2 += sq
        d2 += sq[c]
        return np.maximum(d2, 0.0, out=d2)

    chosen = [int(rng.integers(N))]
    d2 = dist2(chosen[0])
    labels = np.zeros(N, dtype=np.intp)
    for _ in range(K - 1):
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(N)))
            continue
        chosen.append(int(rng.choice(N, p=d2 / total)))
        new = dist2(chosen[-1])
        np.copyto(labels, len(chosen) - 1, where=new < d2)
        np.minimum(d2, new, out=d2)
    return np.asarray(chosen), labels


def _init_params(X, K, base_cov, rng):
    seeds, _ = kmeanspp_indices(X, K, rng)
    return GmmParams(
        alpha=np.full(K, 1.0 / K),
        means=X[seeds].copy(),
        covs=np.repeat(base_cov[None], K, axis=0),
    )


def _run_em(X, model, log_joint, mstep, reset, config):
    """EM iterations shared by every mixture; returns the model and its trace.

    log_joint(model, X) gives the N x K log scores, mstep(model, X, beta) the
    updated model, and reset(model, k, x) restarts component k at sample x.
    One density pass per iteration serves both the responsibilities and the
    objective entry; the previous responsibilities are dropped before it, so
    one N x K matrix is alive at a time. The trace holds the objective of the
    initial model and of the model after every update. EM stops when the
    objective decreases by less than the tolerance, which includes any rise,
    or after config.max_iters updates; the trace's stop field says which. The
    trace is nonincreasing up to floating-point reduction order except across
    reseeds and, on a rise, at its last entry: the risen objective of the
    returned model. Before an update, every starved component is reset onto
    one of the worst-explained samples with weight 1/K before renormalization.
    """
    N = X.shape[0]
    objective = []
    n_reseeds = 0
    while True:
        beta, norm = _normalize_rows(log_joint(model, X))
        objective.append(float(-np.sum(norm)))
        if len(objective) > 1:
            prev = objective[-2]
            band = config.tol * max(abs(prev), 1.0)
            if prev - objective[-1] < band:
                stop = "rise" if objective[-1] - prev > band else "tolerance"
                break
        if len(objective) > config.max_iters:
            stop = "max_iters"
            break
        starved = np.flatnonzero(beta.sum(axis=0) < _EMPTY_REL * N)
        if starved.size:
            worst_order = np.argsort(beta.max(axis=1))
            del beta
            for j, k in enumerate(starved):
                reset(model, k, X[worst_order[j % N]])
            model.alpha[starved] = 1.0 / model.n_components
            model.alpha /= model.alpha.sum()
            n_reseeds += len(starved)
            beta, _ = _normalize_rows(log_joint(model, X))
        model = mstep(model, X, beta)
        del beta
    return model, EmTrace(
        objective=np.asarray(objective), stop=stop, n_reseeds=n_reseeds
    )


def fit_gmm(X, K, config=None, seed=0):
    """EM fit of a K-component mixture; returns the parameters and the
    objective trace of _run_em. A starved component restarts at a sample
    with the covariance of all the data."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    base_cov = regularize_spd(np.cov(X.T, bias=True).reshape(n, n))

    def mstep(params, X, beta):
        return gmm_mstep(X, beta)

    def reset(params, k, x):
        params.means[k] = x
        params.covs[k] = base_cov

    # passed inline: a local name would keep the initial parameters alive
    # through every update
    return _run_em(
        X,
        _init_params(X, K, base_cov, np.random.default_rng(seed)),
        _log_joint,
        mstep,
        reset,
        config or EmConfig(),
    )
