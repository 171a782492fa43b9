"""Full-dimensional Gaussian mixture models fitted by EM.

This is both the baseline method of the benchmark tables and the numerical
foundation reused by the reduced model and by component selection: the
Gaussian scoring kernel, responsibility computation and the EM loop.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import (
    DegenerateDensity,
    EmptyComponent,
    InvalidParameter,
    InvalidShape,
    NotPositiveDefinite,
)
from .linalg import cholesky_spd, regularize_spd, solve_triangular, try_cholesky
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
        check_mixture(self.alpha, self.covs, self.means)
        return self


def check_mixture(alpha, covs, *finite):
    """Raise InvalidParameter unless the mixture weights are nonnegative and
    sum to one and every parameter in `finite` is finite, and
    NotPositiveDefinite unless every covariance factors as it stands, with no
    diagonal shift."""
    if not (np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-12):
        raise InvalidParameter("mixture weights are not on the probability simplex")
    if not all(np.all(np.isfinite(x)) for x in finite):
        raise InvalidParameter("mixture parameters are not finite")
    for k, cov in enumerate(covs):
        if try_cholesky(cov) is None:
            raise NotPositiveDefinite(f"covariance {k} is not positive definite")


@dataclass
class EmConfig:
    max_iters: int = 100
    tol: float = 1e-5  # stop when the relative objective decrease drops below


@dataclass
class EmTrace:
    """Objective value before the first update and after every iteration,
    with the per-component mean norms at the same points, and why EM stopped:
    "tolerance" (the last decrease fell below the tolerance), "rise" (the
    objective rose by more than the tolerance; EM stops there too) or
    "max_iters"."""

    objective: np.ndarray
    stop: str
    n_reseeds: int = 0
    mean_norms: np.ndarray | None = None


def gauss_logpdf(x, mu, sigma):
    """Log density of a multivariate normal, evaluated through the Cholesky
    factor rather than an explicit inverse."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x.shape != mu.shape or sigma.shape != (x.size, x.size):
        raise InvalidShape("inconsistent density argument shapes")
    return float(_logpdf_rows(x[None], *_whitening(cholesky_spd(sigma), mu))[0])


def _whitening(L, mu):
    """Whitening of N(mu, L L^T): (L^{-1}, L^{-1} mu, log normalizer), so that
    log N(x) = normalizer - ||L^{-1} x - L^{-1} mu||^2 / 2."""
    Linv = solve_triangular(L, np.eye(L.shape[0]), lower=True)
    return Linv, Linv @ mu, -0.5 * L.shape[0] * _LOG_2PI - np.sum(np.log(np.diag(L)))


def _logpdf_rows(X, Linv, shift, log_norm, work=None):
    """Log densities of the rows of X under the Gaussian whose whitening is
    (Linv, shift, log_norm). The rows are whitened as X L^{-T} - L^{-1} mu, in
    `work` when it is given (an array shaped like X), so no N-row temporary is
    made."""
    Z = np.matmul(X, Linv.T, out=work)
    Z -= shift
    return log_norm - 0.5 * np.einsum("ij,ij->i", Z, Z)


def _log_scores(X, log_alpha, whiten, project=None):
    """N x K matrix of log alpha_k + log N(rows_k; mu_k, L_k L_k^T), where
    whiten(k) gives component k's whitening (see _whitening) and rows_k is X,
    or project(k) for components that score the samples in their own
    coordinates.

    Only one component's whitening and rows are alive at a time, and every
    component is whitened in one N x m work array. A component whose log
    weight is -inf scores -inf without calling whiten or project.
    """
    out = np.full((X.shape[0], len(log_alpha)), -np.inf)
    work = None
    for k in np.flatnonzero(log_alpha != -np.inf):
        rows = X if project is None else project(k)
        Linv, shift, log_norm = whiten(k)
        if work is None:
            work = np.empty((rows.shape[0], Linv.shape[0]))
        out[:, k] = log_alpha[k] + _logpdf_rows(rows, Linv, shift, log_norm, work)
    return out


def _log_joint(model, X, project=None):
    """N x K matrix of log(alpha_k) + log density of x_i under component k,
    for any mixture with weights alpha, means and covariances covs; project
    is passed on to _log_scores."""
    with np.errstate(divide="ignore"):
        log_alpha = np.log(model.alpha)
    return _log_scores(
        X,
        log_alpha,
        lambda k: _whitening(cholesky_spd(model.covs[k]), model.means[k]),
        project,
    )


def _normalize_rows(log_joint):
    norm = logsumexp(log_joint, axis=1)
    if not np.all(np.isfinite(norm)):
        raise DegenerateDensity(
            "some sample has zero density under every component"
        )
    return np.exp(log_joint - norm[:, None]), norm


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
    objective entry. The trace holds the objective of the initial model and
    of the model after every update. EM stops when the objective decreases by
    less than the tolerance, which includes any rise, or after
    config.max_iters updates; the trace's stop field says which. The trace is
    nonincreasing up to floating-point reduction order except across reseeds
    and, on a rise, at its last entry: the risen objective of the returned
    model. Before an update, every starved component is reset onto one of the
    worst-explained samples with weight 1/K before renormalization.
    """
    N = X.shape[0]
    objective = []
    mean_norms = []
    n_reseeds = 0
    while True:
        beta, norm = _normalize_rows(log_joint(model, X))
        objective.append(float(-np.sum(norm)))
        mean_norms.append(np.linalg.norm(model.means, axis=1))
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
            for j, k in enumerate(starved):
                reset(model, k, X[worst_order[j % N]])
            model.alpha[starved] = 1.0 / model.n_components
            model.alpha /= model.alpha.sum()
            n_reseeds += len(starved)
            beta, _ = _normalize_rows(log_joint(model, X))
        model = mstep(model, X, beta)
    return model, EmTrace(
        objective=np.asarray(objective),
        stop=stop,
        n_reseeds=n_reseeds,
        mean_norms=np.asarray(mean_norms),
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
