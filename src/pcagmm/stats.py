"""Weighted moment accumulators that decouple M-steps from the raw data."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, InvalidShape


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

    def scatter_about(self, b):
        """Scatter S about b and residual r = sum_x - weight b, both affine
        images of the stored moments."""
        r = self.sum_x - self.weight * b
        S = (
            self.sum_outer
            - np.outer(self.sum_x, b)
            - np.outer(b, self.sum_x)
            + self.weight * np.outer(b, b)
        )
        return S, r


def accumulate_stats(X, beta, k):
    """Accumulate SufficientStats for component k from samples X and
    responsibilities beta (rows sum to one)."""
    X = np.asarray(X, dtype=float)
    w = np.asarray(beta, dtype=float)[:, k]
    outer = (X.T * w) @ X
    return SufficientStats(
        weight=float(w.sum()),
        sum_x=w @ X,
        sum_outer=0.5 * (outer + outer.T),
    )
