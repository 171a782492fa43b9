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
    """Responsibility-weighted zeroth, first and second moments of the data.

    weight    : total responsibility mass (unnormalized)
    sum_x     : weighted sample sum, shape (n,)
    sum_outer : weighted sum of outer products, shape (n, n), stored symmetric
    """

    weight: float
    sum_x: np.ndarray
    sum_outer: np.ndarray

    def __post_init__(self):
        if not self.weight >= 0.0:
            raise InvalidParameter(f"weight must be nonnegative, got {self.weight}")
        if self.sum_x.ndim != 1 or self.sum_outer.shape != (
            self.sum_x.size,
            self.sum_x.size,
        ):
            raise InvalidShape(
                f"inconsistent moment shapes {self.sum_x.shape} and "
                f"{self.sum_outer.shape}"
            )


def floored_moments(X, w, about=None):
    """Weighted moments of the rows of X that carry mass: the rows with
    w >= _EMPTY_REL. Returns the kept mass sum w_i, the sum of w_i x_i and the
    scatter sum w_i (x_i - about)(x_i - about)^T, about the origin when about
    is None.

    A dropped row changes the three by w < _EMPTY_REL times 1, ||x|| and
    ||x - about||^2. The kept rows are gathered once, centred and scaled in
    place by sqrt(w); the scatter is one Y^T Y, which runs as a symmetric
    rank-k update (half the flops of a general product, and the result is
    exactly symmetric). Centring before the product keeps the scatter accurate
    when the data sit far from the origin, where the raw moment minus the
    outer product of the mean cancels most of its digits.
    """
    rows = np.flatnonzero(w >= _EMPTY_REL)
    w = w[rows]
    Y = X[rows]
    sum_x = w @ Y
    if about is not None:
        Y -= about
    Y *= np.sqrt(w)[:, None]
    return float(w.sum()), sum_x, Y.T @ Y


def accumulate_stats(X, beta, k):
    """Accumulate SufficientStats for component k from samples X and
    responsibilities beta (rows sum to one): the floored_moments of column k
    about the origin.

    Only the rows with beta[:, k] >= _EMPTY_REL enter the sums, so a dropped
    row changes the weight, sum_x and sum_outer by less than _EMPTY_REL times
    1, ||x|| and ||x||^2. A component that EM does not count as starved has
    column mass >= _EMPTY_REL N, so some row is kept and its weight is
    positive.
    """
    weight, sum_x, sum_outer = floored_moments(
        np.asarray(X, dtype=float), np.asarray(beta, dtype=float)[:, k]
    )
    return SufficientStats(weight=weight, sum_x=sum_x, sum_outer=sum_outer)
