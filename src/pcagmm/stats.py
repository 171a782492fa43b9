"""Weighted moment accumulators that decouple M-steps from the raw data."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidShape

# Rows whose responsibility is below _EMPTY_REL are left out of the M-step
# sums, and EM counts a component whose column mass is below _EMPTY_REL * N
# as starved; such a column is the only kind that can lose every row.
_EMPTY_REL = 1e-12


@dataclass(frozen=True)
class SufficientStats:
    """Responsibility-weighted moments of the data in centred form.

    weight  : total responsibility mass (unnormalized)
    mean    : weighted mean, shape (n,); zero when weight is 0
    scatter : sum w_i (x_i - mean)(x_i - mean)^T, shape (n, n), stored symmetric
    """

    weight: float
    mean: np.ndarray
    scatter: np.ndarray

    def __post_init__(self):
        if not self.weight >= 0.0:
            raise InvalidParameter(f"weight must be nonnegative, got {self.weight}")
        n = self.mean.size
        if self.mean.ndim != 1 or self.scatter.shape != (n, n):
            raise InvalidShape(
                f"inconsistent moment shapes {self.mean.shape} and "
                f"{self.scatter.shape}"
            )


def floored_moments(X, w):
    """Weighted moments of the rows of X that carry mass, those with
    w >= _EMPTY_REL: their mass sum w_i, weighted mean and scatter about that
    mean. With no kept row all three are zero.

    A dropped row changes the mass by w < _EMPTY_REL, the first moment by
    w ||x|| and the second moment about any fixed b by w ||x - b||^2. The kept
    rows are gathered once, centred and scaled in place by sqrt(w); the
    scatter is one Y^T Y, a symmetric rank-k update (half the flops of a
    general product, and exactly symmetric). Centring before the product
    keeps the digits a raw moment minus the outer product of the mean would
    cancel when the data sit far from the origin.
    """
    rows = np.flatnonzero(w >= _EMPTY_REL)
    w = w[rows]
    Y = X[rows]
    weight = float(w.sum())
    mean = w @ Y / weight if rows.size else np.zeros(X.shape[1])
    Y -= mean
    Y *= np.sqrt(w)[:, None]
    return weight, mean, Y.T @ Y


def accumulate_stats(X, beta, k):
    """SufficientStats of component k from samples X and responsibilities
    beta (rows sum to one): the floored_moments of column k. A component that
    EM does not count as starved has column mass >= _EMPTY_REL N, so some row
    is kept and its weight is positive.
    """
    weight, mean, scatter = floored_moments(
        np.asarray(X, dtype=float), np.asarray(beta, dtype=float)[:, k]
    )
    return SufficientStats(weight=weight, mean=mean, scatter=scatter)
