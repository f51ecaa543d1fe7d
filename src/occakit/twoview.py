"""Two-view orthogonal CCA.

Maximizes F(X, Y) = tr^2(X^T C Y) / (tr(X^T A X) tr(Y^T B Y)), with
A = S1 S1^T, B = S2 S2^T and C = S1 S2^T, over pairs of orthonormal-column
matrices inside the range of their views.  The problem is a two-view
``MultiViewProblem``: a spectrum sigma_i per view and the cross block
K = diag(sigma_1) V_1^T V_2 diag(sigma_2), from the thin SVDs
S_i = U_i diag(sigma_i) V_i^T of ``reduce_views``; A, B and C are never
formed.  The solver alternates trace-fractional solves in X and Y (the
multiset engine with two views), with the multiset realignment after
every sweep.  Classical CCA (principal angles between the row spaces of
the views) and QR post-orthogonalization are the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import multiset
from .errors import ContractViolation, RankDeficiencyError
from .linalg import as_matrix, fix_svd_signs, orthonormalize, pair_align
from .linalg import require_count, require_orthonormal, require_stop_rule, scale_of
from .multiset import MultiViewProblem, _pull, _run, _unit_scores, build_multiview
from .scf import ScfConfig, _Iterate

class TwoViewProblem(MultiViewProblem):
    """What ``build_two_view`` returns: centered views S1 (n x q) and
    S2 (m x q), with the sizes n, m and q and the covariance blocks
    A = S1 S1^T, B = S2 S2^T and C = S1 S2^T, formed only when read.  No
    solver or evaluator reads them; each takes any two-view problem.
    """

    n = property(lambda self: self.views[0].shape[0])
    m = property(lambda self: self.views[1].shape[0])
    q = property(lambda self: self.views[0].shape[1])

    A = cached_property(lambda self: self.views[0] @ self.views[0].T)
    B = cached_property(lambda self: self.views[1] @ self.views[1].T)
    C = cached_property(lambda self: self.views[0] @ self.views[1].T)


def build_two_view(S1, S2):
    """Check and wrap centered views (features x samples) as views 0 and 1
    of ``build_multiview``."""
    return TwoViewProblem(build_multiview([S1, S2]).views)


def objective_f(X, Y, prob):
    """Signed correlation tr(X^T C Y)/sqrt(tr(X^T A X) tr(Y^T B Y)); F = f^2.

    Evaluated on the data, as the sum of the entrywise product of the
    projected samples S1^T X and S2^T Y, each scaled to unit Frobenius
    norm (the evaluator of ``total_correlation``)."""
    Z1, Z2 = _unit_scores([X, Y], prob)
    return float(np.sum(Z1 * Z2))


def objective_F(X, Y, prob):
    """Squared-correlation objective tr^2(X^T C Y)/(tr(X^T A X) tr(Y^T B Y))."""
    return objective_f(X, Y, prob) ** 2


@dataclass
class AltConfig:
    eps_alt: float = 1e-8
    max_outer: int = 30

    def __post_init__(self):
        require_stop_rule(self, "eps_alt", "max_outer")


@dataclass
class OccaReport:
    """Outer-iteration trace of the alternating solver.

    ``xcy_min_eigs`` and ``xcy_asyms`` certify, per outer step, that
    X^T C Y stayed symmetric positive semidefinite after realignment.
    ``inner_iterations`` holds the (X, Y) SCF sweeps per outer step, those
    of the projected solve when 5k < r (0 when its search space is the
    iterate alone).
    """

    X: np.ndarray
    Y: np.ndarray
    F_trace: list = field(default_factory=list)
    f_final: float = 0.0
    grad_norm_final: float = 0.0
    outer_iterations: int = 0
    termination_reason: str = "max_outer"
    xcy_min_eigs: list = field(default_factory=list)
    xcy_asyms: list = field(default_factory=list)
    inner_iterations: list = field(default_factory=list)


def occa_alternate(prob, k, X0=None, Y0=None, alt_cfg=None, scf_cfg=None):
    """Alternating maximization of F on any two-view ``MultiViewProblem``,
    in its one reduction ``prob.reduced()``: view i enters as its spectrum
    sigma_i and the cross block K = diag(sigma_1) V_1^T V_2 diag(sigma_2),
    so q < n needs nothing special.  The outer loop is ``multiset._run``:
    each outer step is one Gauss-Seidel cycle (hatX, then hatY) and its
    realignment ``multiset._realign``.  Stops when the gradient norm is at
    most ``eps_alt`` (``grad_tol``) or at the outer-iteration cap
    (``max_outer``); a small change of F alone does not stop it, since F
    can creep far from the fixed point.  F never decreases, X^T C Y =
    hatX^T K hatY is symmetric PSD after every step (``xcy_asyms`` over
    ``scale_of(K)``) and diagonal at the end, where one ``pair_align``
    rotates the pair into its canonical basis, and X = U_1 hatX lies in
    the range of its view.  The start is X0 (default: leading identity
    columns) projected onto the range and orthonormalized, i.e. X0 itself
    at full rank; likewise for Y0.  Raises ``RankDeficiencyError`` unless
    k is below the numerical rank of both views, which ``reduce_views``
    decides.
    """
    alt_cfg = alt_cfg or AltConfig()
    scf_cfg = scf_cfg or ScfConfig()
    if len(prob.views) != 2:
        raise ContractViolation(f"occa_alternate needs two views, got {len(prob.views)}")
    prob.require_rank_above(k)
    n, m = (S.shape[0] for S in prob.views)
    X0 = np.eye(n)[:, :k] if X0 is None else require_orthonormal(np.array(X0, dtype=float), "X0")
    Y0 = np.eye(m)[:, :k] if Y0 is None else require_orthonormal(np.array(Y0, dtype=float), "Y0")
    if X0.shape != (n, k) or Y0.shape != (m, k):
        raise ContractViolation(f"X0, Y0 must be {n}x{k}, {m}x{k}; got {X0.shape}, {Y0.shape}")
    reduced = prob.reduced()
    sigmas = [rv.sigma for rv in reduced]
    blocks = prob.blocks([(0, 1)])
    K = blocks[0, 1]
    hat = [orthonormalize(rv.U.T @ P0) for rv, P0 in zip(reduced, (X0, Y0))]
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])

    report = OccaReport(X=X0, Y=Y0)
    k_scale = scale_of(K)

    def stop(hat, _):
        # X^T C Y = hatX^T K hatY
        W = hat[0].T @ K @ hat[1]
        report.xcy_asyms.append(float(np.max(np.abs(W - W.T))) / k_scale)
        report.xcy_min_eigs.append(float(np.linalg.eigvalsh(0.5 * (W + W.T))[0]))

        # F is eta of either subproblem at the realigned pair, and the
        # partial gradients of F are the subproblem gradients
        its = [
            _Iterate(h, _pull(s, hat, rho, blocks, sigmas), (sigmas[s] ** 2)[:, None] * h)
            for s, h in enumerate(hat)
        ]
        report.F_trace.append(its[0].eta)
        gx, gy = (it.grad() for it in its)
        report.grad_norm_final = float(np.sqrt(np.linalg.norm(gx) ** 2 + np.linalg.norm(gy) ** 2))
        return "grad_tol" if report.grad_norm_final <= alt_cfg.eps_alt else None

    record = _run(hat, rho, [(0, 1)], blocks, sigmas, "gauss_seidel", scf_cfg,
                  alt_cfg.max_outer, stop)
    hat = pair_align(hat[0], hat[1], K)
    report.outer_iterations = record.cycles
    report.inner_iterations = [tuple(sweeps) for sweeps in record.per_cycle_subproblem_iters]
    if record.termination_reason != "max_cycles":
        report.termination_reason = record.termination_reason
    report.X, report.Y = (rv.U @ h for rv, h in zip(reduced, hat))
    report.f_final = record.g_trace[-1] / 2.0
    return report


def classical_cca(prob, k, rank_tol=None):
    """Classical CCA baseline from the principal angles between the row
    spaces of the two views (Bjorck & Golub, Math. Comp. 27, 1973).

    With S_i = U_i diag(sigma_i) V_i^T from ``prob.reduced()`` (given
    ``rank_tol``, from ``reduce_views`` keeping singular values above it
    times the largest), the SVD V_1^T V_2 = P diag(c) Q^T gives the
    correlations c as cosines, without squaring the condition number.
    Returns (X1, X2, c[:k]) with X1 = U_1 diag(1/sigma_1) P_k and
    X2 = U_2 diag(1/sigma_2) Q_k, so X1^T A X1 = X2^T B X2 = I.  Raises
    ``RankDeficiencyError`` when k exceeds the numerical rank of a view.
    """
    if len(prob.views) != 2:
        raise ContractViolation(f"classical_cca needs two views, got {len(prob.views)}")
    require_count("k", k)
    reduced = prob.reduced() if rank_tol is None else multiset.reduce_views(prob.views, rank_tol)
    for view, rv in enumerate(reduced):
        if k > rv.r:
            raise RankDeficiencyError(
                f"k={k} exceeds numerical rank {rv.r} of view {view}", view=view
            )
    r1, r2 = reduced
    P, c, Qt = np.linalg.svd(r1.V.T @ r2.V, full_matrices=False)
    P, Qt = fix_svd_signs(P, Qt)
    X1 = r1.U @ (P[:, :k] / r1.sigma[:, None])
    X2 = r2.U @ (Qt[:k].T / r2.sigma[:, None])
    return X1, X2, c[:k].copy()


def post_orthogonalize(X):
    """Thin-QR orthonormalization with the deterministic sign convention.

    Raises RankDeficiencyError when the columns of X are numerically
    dependent (more columns than rows, or sigma_k <= 1e-12 sigma_1);
    policy for treating that case as zero correlation belongs to the
    caller.
    """
    X = as_matrix(X, "X")
    if X.shape[0] < X.shape[1]:
        raise RankDeficiencyError(f"X must be tall, got {X.shape}")
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficiencyError(
            f"columns are numerically dependent: sigma_k = {sv[-1]:.3e}, sigma_1 = {sv[0]:.3e}"
        )
    return orthonormalize(X)
