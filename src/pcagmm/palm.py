"""Alternating proximal-gradient minimization of the per-component M-step
objective over the product of a Stiefel manifold and R^n.

The objective is assembled from sufficient statistics only, so one solve
costs the same no matter how many samples produced the statistics. With
b held fixed and the scatter about b written as S and the weighted
residual as r, the objective reads

    G(U, b) = -(tr(U^T S U) - ||r||^2 / w) / sigma^2
              - r^T U (U^T S U)^{-1} U^T r
              + w log det(U^T S U),

where w is the total responsibility mass. The proximal step on U is the
projection onto the set of matrices with orthonormal columns; the b block
is unconstrained.

The statistics are centred: with C the scatter about the weighted mean m and
e = m - b, the scatter about b is S = C + w e e^T and r = w e, exactly. S is
never formed: every term reads C through FrameMoments, one n x n by n x d
product per frame, and b enters only through that one rank-one term. G and
both gradients at one (U, b) share one Cholesky factor of U^T S U, and both
blocks take the same backtracked proximal-gradient step.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParameter,
    InvalidShape,
    LineSearchFailed,
    NotPositiveDefinite,
    RankDeficient,
)
from .linalg import project_stiefel, solve_triangular, stiefel_defect, try_cholesky
from .stats import SufficientStats

# An accepted step must decrease G by at least
# tau * (1 - 1/BACKTRACK_MARGIN) / 2 * ||step||^2.
BACKTRACK_MARGIN = 1.1
MAX_BACKTRACKS = 60

# A rejected candidate multiplies its block's curvature estimate tau by
# LIPSCHITZ_GROWTH; between outer iterations BACKTRACK_FACTOR relaxes the
# accepted estimates so step sizes can grow again.
LIPSCHITZ_GROWTH = 2.0
BACKTRACK_FACTOR = 0.9

# The solve stops once an outer iteration moves (U, b) by less than
# TOL_STEP * sqrt(n*d + n).
TOL_STEP = 1e-7

# Steps below this scale are numerical noise from the projection; they are
# treated as no movement so stationary starts terminate cleanly.
_STEP_DEADBAND = 1e-14

# A candidate whose required sufficient decrease is below the floating-point
# noise of the objective cannot be validated; the block is numerically
# stationary and the step is treated as no movement.
_NOISE_FLOOR = 1e-10


@dataclass(frozen=True)
class MStepProblem:
    """Inputs of one component's M-step objective."""

    stats: SufficientStats
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and self.stats.weight > 0.0):
            raise InvalidParameter(
                f"need sigma > 0 and weight > 0, got sigma={self.sigma}, "
                f"weight={self.stats.weight}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget of the solver."""

    max_iters: int = 100

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise InvalidParameter(f"invalid solver configuration {self}")


class FrameMoments:
    """The moments of a problem seen through one frame U.

    Holds C U and U^T C U, where C is the scatter about the weighted mean: the
    one n x n by n x d product a frame costs. The offset b enters every
    quantity of the objective only through the rank-one term w e e^T of
    S(b) = C + w e e^T, e = mean - b, so no step on b does any n x n work. U
    need not be orthonormal (the extrapolated frame is not).
    """

    def __init__(self, stats, U):
        self.stats = stats
        self.U = U
        self.CU = stats.scatter @ U
        self.A = U.T @ self.CU

    def about(self, b):
        """(T, e, g): T = U^T S(b) U = A + w g g^T, e = mean - b and
        g = U^T e. The residual r(b) = sum w_i (x_i - b) is w e."""
        e = self.stats.mean - b
        g = self.U.T @ e
        return self.A + self.stats.weight * np.outer(g, g), e, g

    def scatter_U(self, e, g):
        """S(b) U = C U + w e g^T for the e and g returned by about()."""
        return self.CU + self.stats.weight * np.outer(e, g)


class _Point:
    """The objective at one (frame, b), from one Cholesky factor of
    T = U^T S(b) U.

    Construction factors T and evaluates G; both gradients read the same
    factor, and t = T^{-1} U^T r is solved once, on first use.
    """

    def __init__(self, problem, frame, b):
        self.problem, self.frame, self.b = problem, frame, b
        w = problem.stats.weight
        T, e, g = frame.about(b)
        L = try_cholesky(0.5 * (T + T.T))
        if L is None:
            raise NotPositiveDefinite(
                "projected scatter U^T S U is not positive definite"
            )
        r, v = w * e, w * g
        z = solve_triangular(L, v, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        self.G = float(
            -(np.trace(T) - r @ r / w) / problem.sigma**2 - z @ z + w * logdet
        )
        self.L, self.e, self.g, self.r, self.v, self.z = L, e, g, r, v, z

    @cached_property
    def t(self):
        """T^{-1} U^T r."""
        return solve_triangular(self.L.T, self.z, lower=False)

    def at_U(self, U):
        return _point(self.problem, U, self.b)

    def at_b(self, b):
        return _Point(self.problem, self.frame, b)

    def grad_U(self):
        """Euclidean gradient of G with respect to U, in the ambient space."""
        w, sig2 = self.problem.stats.weight, self.problem.sigma**2
        L, r, t = self.L, self.r, self.t
        SU = self.frame.scatter_U(self.e, self.g)
        # SU T^{-1} through the factor, one triangular solve pair per column
        SUTinv = solve_triangular(
            L.T, solve_triangular(L, SU.T, lower=True), lower=False
        ).T
        return (
            -(2.0 / sig2) * SU
            - 2.0 * np.outer(r, t)
            + 2.0 * SU @ np.outer(t, t)
            + 2.0 * w * SUTinv
        )

    def grad_b(self):
        """Gradient of G with respect to b; only its part in ker(U^T) is
        affine in b."""
        sig2 = self.problem.sigma**2
        U, r, v, z = self.frame.U, self.r, self.v, self.z
        # perpendicular residual pull plus the in-subspace log-volume trade-off
        return -(2.0 / sig2) * (r - U @ v) - 2.0 * float(z @ z) * (U @ self.t)


def _point(problem, U, b):
    return _Point(problem, FrameMoments(problem.stats, U), b)


def _perturb_tangent(U, rng, scale=1e-6):
    noise = rng.standard_normal(U.shape)
    noise -= U @ (U.T @ noise)
    return project_stiefel(U + scale * noise)


def _leading_eigenvalue(stats, b):
    # power iteration on the scatter about b, applied as C v + w e (e.v)
    e = stats.mean - b

    def scatter(v):
        return stats.scatter @ v + (stats.weight * (e @ v)) * e

    v = np.full(b.size, b.size**-0.5)
    for _ in range(8):
        w = scatter(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ scatter(v))


def _initial_tau(problem, b):
    # curvature scales of the dominant quadratic terms; backtracking corrects
    # underestimates, the relaxation factor corrects overestimates
    sig2 = problem.sigma**2
    w = problem.stats.weight
    tau_u = max(1.0, 2.0 * _leading_eigenvalue(problem.stats, b) / sig2)
    tau_b = max(1.0, 4.0 * w / sig2)
    return tau_u, tau_b


def palm_minimize(problem, U0, b0, config=None):
    """Alternating projected-gradient descent on G from (U0, b0).

    Returns (U, b, trace) where trace holds the objective value at the start
    and after every outer iteration; the trace is nonincreasing because every
    block step passes a sufficient-decrease test.
    """
    return _minimize(problem, U0, b0, config or SolverConfig(), inertial=False)


def ipalm_minimize(problem, U0, b0, config=None):
    """Inertial variant with extrapolation factor (r-1)/(r+2) per block.

    An extrapolated step that would increase G is recomputed as a plain
    backtracked step, so the returned trace is nonincreasing as well.
    """
    return _minimize(problem, U0, b0, config or SolverConfig(), inertial=True)


def _minimize(problem, U0, b0, config, inertial):
    U = np.array(U0, dtype=float)
    b = np.array(b0, dtype=float)
    n = problem.stats.mean.size
    if not (
        U.ndim == 2 and U.shape[0] == n and 1 <= U.shape[1] <= n and b.shape == (n,)
    ):
        raise InvalidShape(
            f"need a frame of shape (n, d) with 1 <= d <= n = {n} and an offset "
            f"of shape (n,), got {U.shape} and {b.shape}"
        )
    tol = TOL_STEP * np.sqrt(n * U.shape[1] + n)

    try:
        point = _point(problem, U, b)
    except NotPositiveDefinite:
        # degenerate projected scatter at the start; nudge off the bad frame
        point = _point(problem, _perturb_tangent(U, np.random.default_rng(0)), b)

    tau_u, tau_b = _initial_tau(problem, b)
    trace = [point.G]
    U_prev, b_prev = point.frame.U, b

    for it in range(1, config.max_iters + 1):
        gamma = (it - 1.0) / (it + 2.0) if inertial else 0.0
        U, b = point.frame.U, point.b
        point, step_u, tau_u = _block_step(
            point, U, U_prev, gamma, tau_u, point.at_U, _Point.grad_U, project_stiefel
        )
        # the b block takes its gradient at the updated frame
        point, step_b, tau_b = _block_step(
            point, b, b_prev, gamma, tau_b, point.at_b, _Point.grad_b, _identity
        )
        U_prev, b_prev = U, b

        trace.append(point.G)
        if np.hypot(step_u, step_b) < tol:
            break
        tau_u *= BACKTRACK_FACTOR
        tau_b *= BACKTRACK_FACTOR

    if not stiefel_defect(point.frame.U) <= 1e-10:
        raise RankDeficient("solver frame lost orthonormality")
    return point.frame.U, point.b, np.asarray(trace)


def _identity(x):
    return x


def _block_step(point, x, x_prev, gamma, tau, at, grad, prox):
    """One proximal-gradient step on the block of `point` whose value is x.

    at(x) is the point with this block at x, grad(point) the block gradient
    and prox the proximal map of the block's constraint. With gamma > 0 the
    step is first taken from the extrapolated x + gamma (x - x_prev) and kept
    if it does not increase G; otherwise it backtracks from x, growing tau on
    every rejected candidate. Returns (point, step length, tau); the accepted
    candidate is the returned point, so the next gradient reuses its factor.
    """
    if gamma > 0.0:
        try:
            y = x + gamma * (x - x_prev)
            # a block that did not move extrapolates to x itself; reuse its
            # factored point
            base = point if np.array_equal(y, x) else at(y)
            cand_x = prox(y - grad(base) / tau)
            cand = at(cand_x)
            if cand.G <= point.G:
                return cand, float(np.linalg.norm(cand_x - x)), tau
        except (NotPositiveDefinite, RankDeficient):
            pass  # fall through to the monotone step

    g = grad(point)
    tau_in = tau
    for _ in range(MAX_BACKTRACKS):
        # a candidate that cannot be projected or factored is rejected like
        # one that fails the sufficient-decrease test
        try:
            cand_x = prox(x - g / tau)
            step2 = float(np.sum((cand_x - x) ** 2))
            required = tau * (1.0 - 1.0 / BACKTRACK_MARGIN) / 2.0 * step2
            if step2 <= _STEP_DEADBAND**2 or required <= _NOISE_FLOOR * (
                1.0 + abs(point.G)
            ):
                # numerically stationary: no validated descent is available,
                # so stay put and do not let the escalated curvature estimate
                # leak into later iterations
                return point, 0.0, tau_in
            cand = at(cand_x)
            if point.G - cand.G >= required:
                return cand, np.sqrt(step2), tau
        except (NotPositiveDefinite, RankDeficient):
            pass
        tau *= LIPSCHITZ_GROWTH
    raise LineSearchFailed(f"no acceptable block step after {MAX_BACKTRACKS} tries")
