"""Weighted moment accumulators that decouple M-steps from the raw data."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidShape
from .gmm import _EMPTY_REL


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


def accumulate_stats(X, beta, k):
    """Accumulate SufficientStats for component k from samples X and
    responsibilities beta (rows sum to one).

    Only the rows with beta[:, k] >= _EMPTY_REL enter the sums. A dropped row
    x changes the weight, sum_x and sum_outer by beta < _EMPTY_REL times 1,
    ||x|| and ||x||^2. A component that EM does not count as starved has
    column mass >= _EMPTY_REL N, so some row is kept and its weight is
    positive. The kept rows are gathered once and scaled in place by
    sqrt(beta).
    """
    X = np.asarray(X, dtype=float)
    w = np.asarray(beta, dtype=float)[:, k]
    rows = np.flatnonzero(w >= _EMPTY_REL)
    w = w[rows]
    Y = X[rows]
    sum_x = w @ Y
    # Y^T Y of one operand runs as a symmetric rank-k update: half the flops
    # of a general product, and the result is exactly symmetric
    Y *= np.sqrt(w)[:, None]
    return SufficientStats(weight=float(w.sum()), sum_x=sum_x, sum_outer=Y.T @ Y)
