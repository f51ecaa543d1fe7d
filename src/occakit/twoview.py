"""Two-view orthogonal CCA.

Maximizes the squared-correlation objective

    F(X, Y) = tr^2(X^T C Y) / (tr(X^T A X) tr(Y^T B Y))

over pairs of orthonormal-column matrices inside the range of their
views, by alternating trace-fractional solves in X and Y (the multiset
engine with two views), with a joint realignment after every sweep.  Also
provides the classical (whitened) CCA solution and QR post-
orthogonalization as baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ContractViolation, DegenerateViewError, RankDeficiencyError
from .linalg import as_matrix, ensure_orthonormal, fix_svd_signs, orthonormalize, pair_align
from .linalg import require_orthonormal
from .multiset import update_view, view_spec
from .scf import ScfConfig, _Iterate

# Row means above this (relative to the matrix scale) fail the
# centering contract.
_CENTER_TOL = 1e-10


def _check_centered(S, what):
    scale = max(1.0, float(np.max(np.abs(S))))
    worst = float(np.max(np.abs(S.mean(axis=1))))
    if worst > _CENTER_TOL * scale:
        raise ContractViolation(
            f"{what} is not centered: max|row mean| = {worst:.3e} (scale {scale:.3e})"
        )


@dataclass
class TwoViewProblem:
    """Covariance blocks A = S1 S1^T, B = S2 S2^T, C = S1 S2^T of a
    centered two-view dataset."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    n: int
    m: int
    q: int


def build_two_view(S1, S2):
    """Assemble the covariance blocks from centered views (features x samples)."""
    S1 = as_matrix(S1, "S1")
    S2 = as_matrix(S2, "S2")
    if S1.shape[1] != S2.shape[1]:
        raise ContractViolation(
            f"views disagree on sample count: {S1.shape[1]} vs {S2.shape[1]}"
        )
    _check_centered(S1, "S1")
    _check_centered(S2, "S2")
    A = S1 @ S1.T
    B = S2 @ S2.T
    return TwoViewProblem(
        A=0.5 * (A + A.T),
        B=0.5 * (B + B.T),
        C=S1 @ S2.T,
        n=S1.shape[0],
        m=S2.shape[0],
        q=S1.shape[1],
    )


def objective_f(X, Y, prob):
    """Signed correlation tr(X^T C Y)/sqrt(tr(X^T A X) tr(Y^T B Y)); F = f^2."""
    a = float(np.einsum("ij,ij->", X, prob.A @ X))
    b = float(np.einsum("ij,ij->", Y, prob.B @ Y))
    if a <= 0.0:
        raise DegenerateViewError("view 1 has zero variance in the projected subspace")
    if b <= 0.0:
        raise DegenerateViewError("view 2 has zero variance in the projected subspace")
    c = float(np.einsum("ij,ij->", X, prob.C @ Y))
    return c / np.sqrt(a * b)


def objective_F(X, Y, prob):
    """Squared-correlation objective tr^2(X^T C Y)/(tr(X^T A X) tr(Y^T B Y))."""
    return objective_f(X, Y, prob) ** 2


@dataclass
class AltConfig:
    eps_alt: float = 1e-8
    max_outer: int = 30

    def __post_init__(self):
        if self.eps_alt <= 0:
            raise ContractViolation("eps_alt must be positive")
        if self.max_outer < 1:
            raise ContractViolation("max_outer must be at least 1")


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
    """Alternating maximization of F as the two-view multiset problem:
    A and B are cut to their numerical range (A = U_A diag(sigma_A^2)
    U_A^T, rank rule of ``classical_cca``) and C to K = U_A^T C U_B, so
    q < n needs nothing special.  Per outer step: the Gauss-Seidel update
    of hatX (warm-started SCF, ``multiset.update_view``), then of hatY,
    then a joint realignment.  When 5k is below a view's rank r its SCF
    runs in the search space W = orth[hatX, hatX_prev, grad, D,
    diag(sigma^2) grad] of at most 5k columns, not in all r dimensions.
    Stops on the gradient norm, the relative change of F, or the outer-
    iteration cap.  F never decreases, X^T C Y is symmetric PSD after
    every step, and X = U_A hatX lies in the range of its view.  The start
    is X0 (default: leading identity columns) projected onto the range and
    orthonormalized, i.e. X0 itself at full rank; likewise for Y0.
    Raises ``RankDeficiencyError`` (1-based ``.view``) unless k is below
    the numerical rank of both views.
    """
    alt_cfg = alt_cfg or AltConfig()
    scf_cfg = scf_cfg or ScfConfig()
    if not (1 <= k < min(prob.n, prob.m)):
        raise ContractViolation(f"need 1 <= k < min(n, m) = {min(prob.n, prob.m)}, got k={k}")
    X0 = np.eye(prob.n)[:, :k] if X0 is None else require_orthonormal(np.array(X0, dtype=float), "X0")
    Y0 = np.eye(prob.m)[:, :k] if Y0 is None else require_orthonormal(np.array(Y0, dtype=float), "Y0")
    if X0.shape != (prob.n, k) or Y0.shape != (prob.m, k):
        want = f"{prob.n}x{k}, {prob.m}x{k}"
        raise ContractViolation(f"X0, Y0 must be {want}; got {X0.shape}, {Y0.shape}")
    U_A, lam_A = _range_whitener(prob, 1, k)
    U_B, lam_B = _range_whitener(prob, 2, k)
    for view, lam in ((1, lam_A), (2, lam_B)):
        # a view's SCF subproblem has dimension rank and needs k below it
        if k >= lam.size:
            raise RankDeficiencyError(
                f"k={k} must be below the numerical rank {lam.size} of view {view}", view=view
            )
    sigmas = [np.sqrt(lam_A), np.sqrt(lam_B)]
    K = U_A.T @ prob.C @ U_B
    blocks = {(0, 1): K, (1, 0): K.T}
    hat = [orthonormalize(U_A.T @ X0), orthonormalize(U_B.T @ Y0)]
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])
    prev = [None, None]

    report = OccaReport(X=X0, Y=Y0)
    c_scale = max(1.0, float(np.max(np.abs(prob.C))))
    F_prev = None
    reason = "max_outer"
    for outer in range(1, alt_cfg.max_outer + 1):
        _, ix = update_view(0, hat, prev, rho, blocks, sigmas, scf_cfg)
        _, iy = update_view(1, hat, prev, rho, blocks, sigmas, scf_cfg)
        hX, hY = pair_align(hat[0], hat[1], K)
        hat = [ensure_orthonormal(hX), ensure_orthonormal(hY)]

        # X^T C Y = hatX^T K hatY
        W = hat[0].T @ K @ hat[1]
        report.xcy_asyms.append(float(np.max(np.abs(W - W.T))) / c_scale)
        report.xcy_min_eigs.append(float(np.linalg.eigvalsh(0.5 * (W + W.T))[0]))
        report.inner_iterations.append((ix, iy))

        # F is eta of either subproblem at the realigned pair, and the
        # partial gradients of F are the subproblem gradients
        its = [_Iterate(hat[s], view_spec(s, hat, rho, blocks, sigmas)) for s in (0, 1)]
        F_val = its[0].eta
        report.F_trace.append(F_val)
        gx, gy = (it.grad() for it in its)
        gnorm = float(np.sqrt(np.linalg.norm(gx) ** 2 + np.linalg.norm(gy) ** 2))

        if gnorm <= alt_cfg.eps_alt:
            reason = "grad_tol"
        elif (
            F_prev is not None
            and F_val != 0.0
            and abs((F_val - F_prev) / F_val) <= alt_cfg.eps_alt
        ):
            reason = "rel_change_tol"
        F_prev = F_val
        if reason != "max_outer":
            report.outer_iterations = outer
            break
    else:
        report.outer_iterations = alt_cfg.max_outer

    report.X, report.Y = U_A @ hat[0], U_B @ hat[1]
    report.f_final = objective_f(report.X, report.Y, prob)
    report.grad_norm_final = gnorm
    report.termination_reason = reason
    return report


def _range_whitener(prob, view, k, rank_tol=None):
    """Eigen factors of the covariance of ``view`` (1: A, 2: B) restricted
    to its numerical range: eigenvalues above ``rank_tol`` (default
    max(n, m, q) eps) times the largest.  Returns (Q_r, lam_r) with columns
    ordered by decreasing eigenvalue; raises when the rank is below k."""
    Cov = prob.A if view == 1 else prob.B
    if rank_tol is None:
        rank_tol = max(prob.n, prob.m, prob.q) * np.finfo(float).eps
    vals, vecs = sla.eigh(0.5 * (Cov + Cov.T))
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    thr = rank_tol * max(vals[0], 0.0)
    r = int(np.sum(vals > thr))
    if r == 0:
        raise RankDeficiencyError(f"view {view} covariance is numerically zero", view=view)
    if k > r:
        raise RankDeficiencyError(f"k={k} exceeds numerical rank {r} of view {view}", view=view)
    return vecs[:, :r], vals[:r]


def classical_cca(prob, k, rank_tol=None):
    """Classical (covariance-whitened) CCA baseline.

    Whitens each view by the pseudo-inverse square root of its covariance
    restricted to the numerical range, SVDs the whitened cross-covariance
    and maps back.  Returns (X1, X2, correlations) with X1^T A X1 = I,
    X2^T B X2 = I and correlations sorted nonincreasing in [0, 1].
    """
    Q1, lam1 = _range_whitener(prob, 1, k, rank_tol)
    Q2, lam2 = _range_whitener(prob, 2, k, rank_tol)
    W1 = Q1 / np.sqrt(lam1)
    W2 = Q2 / np.sqrt(lam2)
    T = W1.T @ prob.C @ W2
    U, sig, Vt = np.linalg.svd(T, full_matrices=False)
    U, Vt = fix_svd_signs(U, Vt)
    X1 = W1 @ U[:, :k]
    X2 = W2 @ Vt[:k, :].T
    return X1, X2, sig[:k].copy()


def post_orthogonalize(X):
    """Thin-QR orthonormalization with the deterministic sign convention.

    Raises RankDeficiencyError when the columns of X are numerically
    dependent (sigma_k <= 1e-12 sigma_1); policy for treating that case
    as zero correlation belongs to the caller.
    """
    X = as_matrix(X, "X")
    if X.shape[0] < X.shape[1]:
        raise ContractViolation(f"X must be tall, got {X.shape}")
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficiencyError(
            f"columns are numerically dependent: sigma_k/sigma_1 = {sv[-1] / sv[0]:.3e}"
        )
    Q, R = np.linalg.qr(X)
    d = np.diag(R).copy()
    d[d == 0] = 1.0
    return Q * np.sign(d)
