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

S is never formed: every term reads the moments through FrameMoments, one
n x n by n x d product per frame, and b enters through rank-one corrections.
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
    n: int
    d: int

    def __post_init__(self):
        if not (self.sigma > 0.0 and self.stats.weight > 0.0):
            raise InvalidParameter(
                f"need sigma > 0 and weight > 0, got sigma={self.sigma}, "
                f"weight={self.stats.weight}"
            )
        if not (self.stats.sum_x.size == self.n and 1 <= self.d <= self.n):
            raise InvalidShape(
                f"need 1 <= d <= n = {self.stats.sum_x.size}, got n={self.n}, "
                f"d={self.d}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Step-size, extrapolation and stopping parameters.

    tol_step=None resolves to 1e-7 * sqrt(n*d + n) for the problem at hand.
    backtrack_factor relaxes the accepted curvature estimates between outer
    iterations so step sizes can grow again; lipschitz_growth inflates them
    when the sufficient-decrease test rejects a step.
    """

    max_iters: int = 100
    tol_step: float | None = None
    backtrack_factor: float = 0.9
    lipschitz_growth: float = 2.0
    extrapolation: str = "dynamic"  # "none" or "dynamic", (r-1)/(r+2)

    def __post_init__(self):
        if not (
            self.max_iters >= 1
            and (self.tol_step is None or self.tol_step > 0.0)
            and 0.0 < self.backtrack_factor < 1.0
            and self.lipschitz_growth > 1.0
            and self.extrapolation in ("none", "dynamic")
        ):
            raise InvalidParameter(f"invalid solver configuration {self}")


class FrameMoments:
    """The moments of a problem seen through one frame U.

    Holds S0 U, U^T S0 U and U^T sum_x, where S0 is sum_outer: the one
    n x n by n x d product a frame costs. The offset b enters every quantity
    of the objective only through rank-one corrections of these, so no step
    on b does any n x n work. U need not be orthonormal (the extrapolated
    frame is not).
    """

    def __init__(self, stats, U):
        self.stats = stats
        self.U = U
        self.SU = stats.sum_outer @ U
        self.A = U.T @ self.SU
        self.p = U.T @ stats.sum_x

    def about(self, b):
        """(T, v, q): T = U^T S(b) U, v = U^T r(b) and q = U^T b, where S(b)
        is the scatter about b and r(b) = sum_x - weight b the residual."""
        w = self.stats.weight
        q = self.U.T @ b
        pq = np.outer(self.p, q)
        T = self.A - pq - pq.T + w * np.outer(q, q)
        return T, self.p - w * q, q

    def scatter_U(self, b, q):
        """S(b) U for the q = U^T b returned by about()."""
        w = self.stats.weight
        return (
            self.SU
            - np.outer(self.stats.sum_x, q)
            + np.outer(b, w * q - self.p)
        )


def _chol_projected(frame, b):
    T, v, q = frame.about(b)
    L = try_cholesky(0.5 * (T + T.T))
    if L is None:
        raise NotPositiveDefinite(
            "projected scatter U^T S U is not positive definite"
        )
    return T, v, q, L


def _residual(problem, b):
    return problem.stats.sum_x - problem.stats.weight * b


def _eval(problem, frame, b):
    w = problem.stats.weight
    sig2 = problem.sigma**2
    T, v, _, L = _chol_projected(frame, b)
    r = _residual(problem, b)
    y = solve_triangular(L, v, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(
        -(np.trace(T) - r @ r / w) / sig2 - y @ y + w * logdet
    )


def _grad_U(problem, frame, b):
    w = problem.stats.weight
    sig2 = problem.sigma**2
    _, v, q, L = _chol_projected(frame, b)
    r = _residual(problem, b)
    z = solve_triangular(L, v, lower=True)
    t = solve_triangular(L.T, z, lower=False)  # t = T^{-1} U^T r
    SU = frame.scatter_U(b, q)
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


def _grad_b(problem, frame, b):
    sig2 = problem.sigma**2
    _, v, _, L = _chol_projected(frame, b)
    r = _residual(problem, b)
    U = frame.U
    z = solve_triangular(L, v, lower=True)
    t = solve_triangular(L.T, z, lower=False)
    # perpendicular residual pull plus the in-subspace log-volume trade-off
    return -(2.0 / sig2) * (r - U @ v) - 2.0 * float(z @ z) * (U @ t)


def eval_G(problem, U, b):
    """Value of the M-step objective at (U, b)."""
    return _eval(problem, FrameMoments(problem.stats, U), b)


def grad_G_U(problem, U, b):
    """Euclidean gradient of the objective with respect to U.

    Matches central finite differences of eval_G in the ambient space.
    """
    return _grad_U(problem, FrameMoments(problem.stats, U), b)


def grad_G_b(problem, U, b):
    """Gradient of the objective with respect to b.

    Note the component along span(U) is a nonlinear function of b; only the
    part in ker(U^T) is affine in b.
    """
    return _grad_b(problem, FrameMoments(problem.stats, U), b)


def _perturb_tangent(U, rng, scale=1e-6):
    noise = rng.standard_normal(U.shape)
    noise -= U @ (U.T @ noise)
    return project_stiefel(U + scale * noise)


def _leading_eigenvalue(stats, b):
    # power iteration on the scatter about b, applied as sum_outer v minus
    # its rank-one corrections
    def scatter(v):
        return (
            stats.sum_outer @ v
            - stats.sum_x * (b @ v)
            + b * (stats.weight * (b @ v) - stats.sum_x @ v)
        )

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
    backtracked step, so the returned trace is nonincreasing as well. With
    extrapolation="none" this is exactly palm_minimize.
    """
    config = config or SolverConfig()
    return _minimize(
        problem, U0, b0, config, inertial=(config.extrapolation == "dynamic")
    )


def _minimize(problem, U0, b0, config, inertial):
    U = np.array(U0, dtype=float)
    b = np.array(b0, dtype=float)
    tol = config.tol_step
    if tol is None:
        tol = 1e-7 * np.sqrt(problem.n * problem.d + problem.n)
    growth = config.lipschitz_growth

    frame = FrameMoments(problem.stats, U)
    try:
        G = _eval(problem, frame, b)
    except NotPositiveDefinite:
        # degenerate projected scatter at the start; nudge off the bad frame
        frame = FrameMoments(
            problem.stats, _perturb_tangent(U, np.random.default_rng(0))
        )
        G = _eval(problem, frame, b)

    tau_u, tau_b = _initial_tau(problem, b)
    trace = [G]
    U_prev, b_prev = frame.U, b

    for it in range(1, config.max_iters + 1):
        gamma = (it - 1.0) / (it + 2.0) if inertial else 0.0

        # U block
        new_frame, new_G, step_u, tau_u = _u_step(
            problem, frame, U_prev, b, G, gamma, tau_u, growth
        )
        U_prev = frame.U
        if new_frame is not None:
            frame, G = new_frame, new_G

        # b block (gradient taken at the updated U)
        new_b, new_G, step_b, tau_b = _b_step(
            problem, frame, b, b_prev, G, gamma, tau_b, growth
        )
        b_prev = b
        if new_b is not None:
            b, G = new_b, new_G

        trace.append(G)
        if np.hypot(step_u, step_b) < tol:
            break
        tau_u *= config.backtrack_factor
        tau_b *= config.backtrack_factor

    if not stiefel_defect(frame.U) <= 1e-10:
        raise RankDeficient("solver frame lost orthonormality")
    return frame.U, b, np.asarray(trace)


def _u_step(problem, frame, U_prev, b, G, gamma, tau, growth):
    """One frame step; returns the accepted candidate's FrameMoments (None if
    the frame stays), so the next gradient reuses its product."""
    U = frame.U
    if gamma > 0.0:
        Uy = U + gamma * (U - U_prev)
        try:
            g = _grad_U(problem, FrameMoments(problem.stats, Uy), b)
            cand = FrameMoments(problem.stats, project_stiefel(Uy - g / tau))
            cand_G = _eval(problem, cand, b)
            if cand_G <= G:
                return cand, cand_G, float(np.linalg.norm(cand.U - U)), tau
        except (NotPositiveDefinite, RankDeficient):
            pass  # fall through to the monotone step

    g = _grad_U(problem, frame, b)
    tau_in = tau
    for _ in range(MAX_BACKTRACKS):
        try:
            cand_U = project_stiefel(U - g / tau)
        except RankDeficient:
            tau *= growth
            continue
        step2 = float(np.sum((cand_U - U) ** 2))
        required = tau * (1.0 - 1.0 / BACKTRACK_MARGIN) / 2.0 * step2
        if step2 <= _STEP_DEADBAND**2 or required <= _NOISE_FLOOR * (1.0 + abs(G)):
            # numerically stationary: no validated descent is available, so
            # stay put and do not let the escalated curvature estimate leak
            # into later iterations
            return None, G, 0.0, tau_in
        cand = FrameMoments(problem.stats, cand_U)
        try:
            cand_G = _eval(problem, cand, b)
        except NotPositiveDefinite:
            tau *= growth
            continue
        if G - cand_G >= required:
            return cand, cand_G, np.sqrt(step2), tau
        tau *= growth
    raise LineSearchFailed(f"no acceptable frame step after {MAX_BACKTRACKS} tries")


def _b_step(problem, frame, b, b_prev, G, gamma, tau, growth):
    if gamma > 0.0:
        by = b + gamma * (b - b_prev)
        try:
            cand = by - _grad_b(problem, frame, by) / tau
            cand_G = _eval(problem, frame, cand)
            if cand_G <= G:
                return cand, cand_G, float(np.linalg.norm(cand - b)), tau
        except NotPositiveDefinite:
            pass

    g = _grad_b(problem, frame, b)
    tau_in = tau
    for _ in range(MAX_BACKTRACKS):
        cand = b - g / tau
        step2 = float(np.sum((cand - b) ** 2))
        required = tau * (1.0 - 1.0 / BACKTRACK_MARGIN) / 2.0 * step2
        if step2 <= _STEP_DEADBAND**2 or required <= _NOISE_FLOOR * (1.0 + abs(G)):
            return None, G, 0.0, tau_in
        try:
            cand_G = _eval(problem, frame, cand)
        except NotPositiveDefinite:
            tau *= growth
            continue
        if G - cand_G >= required:
            return cand, cand_G, np.sqrt(step2), tau
        tau *= growth
    raise LineSearchFailed(f"no acceptable offset step after {MAX_BACKTRACKS} tries")
