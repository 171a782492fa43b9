"""Proximal-gradient minimization of the per-component M-step objective over
the Stiefel manifold of orthonormal frames.

The objective is assembled from sufficient statistics only, so one solve
costs the same no matter how many samples produced the statistics. With C
the scatter about the weighted mean m, w the total responsibility mass and
A = U^T C U, the objective at a frame U is

    G(U) = -tr(A) / sigma^2 + w log det A.

It is the frame/offset objective G(U, b) of the paper at its exact
b-minimizer b = m. With e = m - b, g = U^T e and u = w g^T A^{-1} g, every U
gives

    G(U, b) - G(U, m) = w ||(I - U U^T) e||^2 / sigma^2
                        + w (log(1 + u) - u / (1 + u)) >= 0,

so the offset block of the alternating (inertial) PALM iteration is solved in
closed form and the solver keeps one block, the frame. Minimizing one block
exactly keeps the sufficient-decrease descent of block-coordinate proximal
gradient (Bolte, Sabach and Teboulle 2014). The proximal step on U is the
projection onto the set of matrices with orthonormal columns.

A frame costs one n x n by n x d product, C U; G and its gradient at that
frame share one Cholesky factor of A.
"""

from dataclasses import dataclass

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

# A rejected candidate multiplies the curvature estimate tau by
# LIPSCHITZ_GROWTH; between outer iterations BACKTRACK_FACTOR relaxes the
# accepted estimate so step sizes can grow again.
LIPSCHITZ_GROWTH = 2.0
BACKTRACK_FACTOR = 0.9

# The solve stops once an outer iteration moves U by less than
# TOL_STEP * sqrt(n*d).
TOL_STEP = 1e-7

# Steps below this scale are numerical noise from the projection; they are
# treated as no movement so stationary starts terminate cleanly.
_STEP_DEADBAND = 1e-14

# A candidate whose required sufficient decrease is below the floating-point
# noise of the objective cannot be validated; the frame is numerically
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


class _Point:
    """The objective at one frame U, from one Cholesky factor of A = U^T C U.

    Construction forms C U and A, factors A and evaluates G; the gradient
    reads the same factor. U need not be orthonormal (the extrapolated frame
    is not).
    """

    def __init__(self, problem, U):
        self.problem, self.U = problem, U
        self.CU = problem.stats.scatter @ U
        self.A = U.T @ self.CU
        self.L = try_cholesky(0.5 * (self.A + self.A.T))
        if self.L is None:
            raise NotPositiveDefinite(
                "projected scatter U^T C U is not positive definite"
            )
        logdet = 2.0 * float(np.sum(np.log(np.diag(self.L))))
        self.G = float(
            -np.trace(self.A) / problem.sigma**2 + problem.stats.weight * logdet
        )

    def grad_U(self):
        """Euclidean gradient of G with respect to U, in the ambient space:
        -(2 / sigma^2) C U + 2 w C U A^{-1}."""
        w, sig2 = self.problem.stats.weight, self.problem.sigma**2
        # C U A^{-1} through the factor, one triangular solve pair per column
        CUAinv = solve_triangular(
            self.L.T, solve_triangular(self.L, self.CU.T, lower=True), lower=False
        ).T
        return -(2.0 / sig2) * self.CU + 2.0 * w * CUAinv


def _perturb_tangent(U, rng, scale=1e-6):
    noise = rng.standard_normal(U.shape)
    noise -= U @ (U.T @ noise)
    return project_stiefel(U + scale * noise)


def _leading_eigenvalue(C):
    # power iteration on the scatter about the weighted mean
    v = np.full(C.shape[0], C.shape[0] ** -0.5)
    for _ in range(8):
        w = C @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ (C @ v))


def _initial_tau(problem):
    # curvature scale of the dominant quadratic term; backtracking corrects
    # an underestimate, the relaxation factor an overestimate
    sig2 = problem.sigma**2
    return max(1.0, 2.0 * _leading_eigenvalue(problem.stats.scatter) / sig2)


def palm_minimize(problem, U0, config=None):
    """Projected-gradient descent on G from U0.

    Returns (U, b, trace): b is the exact offset minimizer, a copy of the
    weighted mean, and trace holds the objective value at the start and after
    every outer iteration; the trace is nonincreasing because every step
    passes a sufficient-decrease test.
    """
    return _minimize(problem, U0, config or SolverConfig(), inertial=False)


def ipalm_minimize(problem, U0, config=None):
    """Inertial variant with extrapolation factor (r-1)/(r+2).

    An extrapolated step that would increase G is recomputed as a plain
    backtracked step, so the returned trace is nonincreasing as well.
    """
    return _minimize(problem, U0, config or SolverConfig(), inertial=True)


def _minimize(problem, U0, config, inertial):
    U = np.array(U0, dtype=float)
    n = problem.stats.mean.size
    if not (U.ndim == 2 and U.shape[0] == n and 1 <= U.shape[1] <= n):
        raise InvalidShape(
            f"need a frame of shape (n, d) with 1 <= d <= n = {n}, got {U.shape}"
        )
    tol = TOL_STEP * np.sqrt(U.size)

    try:
        point = _Point(problem, U)
    except NotPositiveDefinite:
        # degenerate projected scatter at the start; nudge off the bad frame
        point = _Point(problem, _perturb_tangent(U, np.random.default_rng(0)))

    tau = _initial_tau(problem)
    trace = [point.G]
    U_prev = point.U

    for it in range(1, config.max_iters + 1):
        gamma = (it - 1.0) / (it + 2.0) if inertial else 0.0
        U = point.U
        point, step, tau = _block_step(point, U_prev, gamma, tau)
        U_prev = U

        trace.append(point.G)
        if step < tol:
            break
        tau *= BACKTRACK_FACTOR

    if not stiefel_defect(point.U) <= 1e-10:
        raise RankDeficient("solver frame lost orthonormality")
    return point.U, problem.stats.mean.copy(), np.asarray(trace)


def _block_step(point, U_prev, gamma, tau):
    """One proximal-gradient step on the frame of `point`.

    With gamma > 0 the step is first taken from the extrapolated frame
    U + gamma (U - U_prev) and kept if it does not increase G; otherwise it
    backtracks from U, growing tau on every rejected candidate. Returns
    (point, step length, tau); the accepted candidate is the returned point,
    so the next gradient reuses its factor.
    """
    U, problem = point.U, point.problem
    if gamma > 0.0:
        try:
            Y = U + gamma * (U - U_prev)
            cand = _Point(
                problem, project_stiefel(Y - _Point(problem, Y).grad_U() / tau)
            )
            if cand.G <= point.G:
                return cand, float(np.linalg.norm(cand.U - U)), tau
        except (NotPositiveDefinite, RankDeficient):
            pass  # fall through to the monotone step

    g = point.grad_U()
    tau_in = tau
    for _ in range(MAX_BACKTRACKS):
        # a candidate that cannot be projected or factored is rejected like
        # one that fails the sufficient-decrease test
        try:
            cand_U = project_stiefel(U - g / tau)
            step2 = float(np.sum((cand_U - U) ** 2))
            required = tau * (1.0 - 1.0 / BACKTRACK_MARGIN) / 2.0 * step2
            if step2 <= _STEP_DEADBAND**2 or required <= _NOISE_FLOOR * (
                1.0 + abs(point.G)
            ):
                # numerically stationary: no validated descent is available,
                # so stay put and do not let the escalated curvature estimate
                # leak into later iterations
                return point, 0.0, tau_in
            cand = _Point(problem, cand_U)
            if point.G - cand.G >= required:
                return cand, np.sqrt(step2), tau
        except (NotPositiveDefinite, RankDeficient):
            pass
        tau *= LIPSCHITZ_GROWTH
    raise LineSearchFailed(f"no acceptable frame step after {MAX_BACKTRACKS} tries")
