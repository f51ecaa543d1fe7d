"""Trace-fractional subproblem solver.

Maximizes eta(G) = tr^2(G^T D) / tr(G^T A G) over matrices G with
orthonormal columns, for a symmetric positive definite A and a nonzero
D.  The solver is a self-consistent-field (SCF) fixed-point iteration on
the eigenvector-dependent symmetric operator

    E(G) = A - xi(G) (D G^T + G D^T),    xi(G) = tr(G^T A G) / tr(G^T D),

whose k-smallest eigenbasis, realigned against D, is the next iterate.
The objective never decreases along the iteration, and every iterate
after the first satisfies D^T G >= 0 (positive semidefinite).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ContractViolation, UndefinedRatioError
from .linalg import (
    align,
    as_matrix,
    dist_tr,
    ensure_orthonormal,
    k_smallest_eigenbasis,
    orthonormalize,
    require_orthonormal,
    sample_tangent,
)

# Cap on the scaled gradient norm when xi blows up (tr(G^T D) near 0);
# the relative-change test then decides termination.
_SCALED_GRAD_CAP = 1e300


@dataclass
class SubproblemSpec:
    """Data (A, D) of one trace-fractional subproblem.

    ``A`` must be symmetric positive definite and ``D`` nonzero; both are
    checked once at construction (skip with ``validate=False`` when the
    caller already guarantees them, e.g. in inner solver loops).
    """

    A: np.ndarray          # n x n symmetric positive definite
    D: np.ndarray          # n x k, nonzero
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        self.A = np.asarray(self.A, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        if validate:
            self.A = as_matrix(self.A, "A")
            self.D = as_matrix(self.D, "D")
            n = self.A.shape[0]
            if self.A.shape[1] != n:
                raise ContractViolation(f"A must be square, got {self.A.shape}")
            if self.D.shape[0] != n:
                raise ContractViolation(
                    f"D must have {n} rows to match A, got {self.D.shape}"
                )
            asym = float(np.max(np.abs(self.A - self.A.T)))
            if asym > 1e-10:
                raise ContractViolation(f"A is not symmetric: max|A - A^T| = {asym:.3e}")
            if not self.D.any():
                raise ContractViolation("D must be nonzero")
            lam_min = float(np.linalg.eigvalsh(self.A)[0])
            if lam_min <= 1e-12 * float(np.max(np.abs(self.A))):
                raise ContractViolation(
                    f"A must be positive definite; smallest eigenvalue {lam_min:.3e}"
                )

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def k(self):
        return self.D.shape[1]


@dataclass
class ScfConfig:
    eps_scf: float = 1e-5
    max_iter: int = 30

    def __post_init__(self):
        if self.eps_scf <= 0:
            raise ContractViolation("eps_scf must be positive")
        if self.max_iter < 1:
            raise ContractViolation("max_iter must be at least 1")


@dataclass
class ScfReport:
    """Per-iteration trace of one SCF solve plus final certificates.

    ``eta_trace[0]`` is the objective at the (aligned) starting point;
    entry ``nu`` corresponds to iterate ``nu``.  The remaining lists have
    one entry per completed iteration: the eigengap of E at the previous
    iterate, the scaled gradient norm used in the stopping test, the
    smallest eigenvalue of sym(D^T G) (the PSD certificate) and the
    subspace distance from the previous iterate.
    """

    solution: np.ndarray
    eta_trace: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    dtg_min_eigs: list = field(default_factory=list)
    subspace_dists: list = field(default_factory=list)
    iterations: int = 0
    termination_reason: str = "max_iter"
    zero_ratio_events: int = 0


def _phis(G, spec):
    phi_d = float(np.trace(G.T @ spec.D))
    phi_a = float(np.einsum("ij,ij->", G, spec.A @ G))
    return phi_d, phi_a


def eta(G, spec):
    """Objective value tr^2(G^T D) / tr(G^T A G); invariant under D -> -D."""
    phi_d, phi_a = _phis(G, spec)
    return phi_d**2 / phi_a


def grad_eta(G, spec):
    """Riemannian gradient of eta at G (tangent to the orthonormality
    constraint): -(2/xi^2) ([A G - xi D] - G M(G)) with
    M(G) = sym(G^T A G - xi G^T D).  Undefined when tr(G^T D) = 0."""
    phi_d, phi_a = _phis(G, spec)
    if phi_d == 0.0:
        raise UndefinedRatioError(
            "tr(G^T D) = 0: gradient undefined; realign or perturb G"
        )
    xi = phi_a / phi_d
    R = spec.A @ G - xi * spec.D
    M = G.T @ R
    M = 0.5 * (M + M.T)
    return (-2.0 / xi**2) * (R - G @ M)


def build_E(G, spec):
    """The eigenvector-dependent operator E(G) = A - xi(G)(D G^T + G D^T),
    symmetrized exactly to kill rounding."""
    phi_d, phi_a = _phis(G, spec)
    if phi_d == 0.0:
        raise UndefinedRatioError("tr(G^T D) = 0: E(G) undefined; realign or perturb G")
    xi = phi_a / phi_d
    S = spec.D @ G.T
    E = spec.A - xi * (S + S.T)
    return 0.5 * (E + E.T)


def kkt_residual(G, spec):
    """Joint first-order residual: max of the stationarity residual
    max|A G - xi D - G M(G)| and the symmetry residual max|G^T D - D^T G|.
    The first block equals (xi^2/2) * grad_eta(G) entrywise."""
    phi_d, phi_a = _phis(G, spec)
    if phi_d == 0.0:
        raise UndefinedRatioError("tr(G^T D) = 0: KKT residual undefined")
    xi = phi_a / phi_d
    R = spec.A @ G - xi * spec.D
    M = G.T @ R
    M = 0.5 * (M + M.T)
    r_stat = float(np.max(np.abs(R - G @ M)))
    W = G.T @ spec.D
    r_sym = float(np.max(np.abs(W - W.T)))
    return max(r_stat, r_sym)


def _scaled_grad_norm(G, spec, norm_a1, norm_d1):
    """Entrywise-1-norm gradient scaled by xi^2 (|A|_1 + |D|_1); this is
    the left-hand side of the gradient stopping test."""
    phi_d, phi_a = _phis(G, spec)
    if phi_d == 0.0:
        return _SCALED_GRAD_CAP
    xi = phi_a / phi_d
    g1 = float(np.sum(np.abs(grad_eta(G, spec))))
    denom = xi**2 * (norm_a1 + norm_d1)
    if denom == 0.0 or not np.isfinite(denom):
        return _SCALED_GRAD_CAP
    return min(g1 / denom, _SCALED_GRAD_CAP)


def _identity_start(n, k):
    return np.eye(n)[:, :k].copy()


def _recover_zero_ratio(G, spec, retries=3, perturb_scale=1e-3):
    """Called when tr(G^T D) = 0: align first (fixes everything except an
    exactly-zero G^T D), then nudge by a small deterministic Gaussian
    perturbation and realign, up to ``retries`` times.

    Returns (G, number_of_zero_ratio_events).
    """
    G = align(G, spec.D)
    events = 0
    rng = np.random.default_rng(0x0CCA)
    for _ in range(retries):
        if float(np.trace(G.T @ spec.D)) != 0.0:
            return G, events
        events += 1
        G = orthonormalize(G + perturb_scale * rng.standard_normal(G.shape))
        G = align(G, spec.D)
    if float(np.trace(G.T @ spec.D)) == 0.0:
        raise UndefinedRatioError(
            "tr(G^T D) = 0 even after alignment and perturbation retries"
        )
    return G, events


def scf_solve(spec, G0=None, cfg=None):
    """Run the SCF iteration on one trace-fractional subproblem.

    Each sweep builds E at the current iterate, takes the eigenbasis of
    its k smallest eigenvalues and realigns it against D.  Stops when the scaled
    gradient norm drops below ``eps_scf``, when the relative objective
    change drops below ``eps_scf**1.5``, or after ``max_iter`` sweeps.

    The start defaults to the leading identity columns.  A start with
    G^T D = 0 is first aligned, then nudged by a small deterministic
    Gaussian perturbation (up to three times) before giving up.
    """
    cfg = cfg or ScfConfig()
    k = spec.k
    n = spec.n
    if not (1 <= k < n):
        raise ContractViolation(f"need 1 <= k < n, got k={k}, n={n}")
    if G0 is None:
        G = _identity_start(n, k)
    else:
        G = require_orthonormal(np.array(G0, dtype=float), "G0")
        if G.shape != (n, k):
            raise ContractViolation(f"G0 must be {n}x{k}, got {G.shape}")

    norm_a1 = float(np.sum(np.abs(spec.A)))
    norm_d1 = float(np.sum(np.abs(spec.D)))
    rel_tol = cfg.eps_scf**1.5

    zero_events = 0
    if float(np.trace(G.T @ spec.D)) == 0.0:
        G, zero_events = _recover_zero_ratio(G, spec)
    e_prev = eta(G, spec)
    report = ScfReport(solution=G, eta_trace=[e_prev], zero_ratio_events=zero_events)

    reason = "max_iter"
    for nu in range(1, cfg.max_iter + 1):
        E = build_E(G, spec)
        eig = k_smallest_eigenbasis(E, k)
        G_new = align(eig.basis, spec.D)
        G_new = ensure_orthonormal(G_new)
        phi_d = float(np.trace(G_new.T @ spec.D))
        if phi_d == 0.0:
            # transient degenerate iterate: recover and keep going
            G_new, extra = _recover_zero_ratio(G_new, spec)
            report.zero_ratio_events += 1 + extra
        e_new = eta(G_new, spec)
        report.eta_trace.append(e_new)

        scaled = _scaled_grad_norm(G_new, spec, norm_a1, norm_d1)
        W = G_new.T @ spec.D
        Wsym = 0.5 * (W + W.T)
        report.gaps.append(eig.gap)
        report.grad_norms.append(scaled)
        report.dtg_min_eigs.append(float(np.linalg.eigvalsh(Wsym)[0]))
        report.subspace_dists.append(dist_tr(G, G_new))

        G = G_new
        if scaled <= cfg.eps_scf:
            reason = "grad_tol"
        elif e_new != 0.0 and abs((e_new - e_prev) / e_new) <= rel_tol:
            reason = "rel_change_tol"
        e_prev = e_new
        if reason != "max_iter":
            report.iterations = nu
            break
    else:
        report.iterations = cfg.max_iter

    report.solution = G
    report.termination_reason = reason
    return report


@dataclass
class SecondOrderReport:
    passed: bool
    worst_margin: float
    samples: int


def second_order_check(G, spec, samples, rng):
    """Sampled test of the second-order optimality condition at a
    stationary G: for tangent directions H,

        tr^2(D^T H) <= eta(G) (tr(H^T A H) - tr(H M(G) H^T)).

    Draws ``samples`` random tangent vectors (unit Frobenius norm) and
    reports the worst margin, normalized by max(1, |lhs|, |rhs|); the
    check passes when every margin is >= -1e-8.  Raises when called at a
    clearly non-stationary point (scaled first-order residual > 1e-4).
    """
    if samples < 1:
        raise ContractViolation("samples must be >= 1")
    G = require_orthonormal(np.asarray(G, dtype=float), "G")
    phi_d, phi_a = _phis(G, spec)
    scale = max(1.0, float(np.max(np.abs(spec.A))), float(np.max(np.abs(spec.D))))
    if phi_d != 0.0:
        resid = kkt_residual(G, spec)
    else:
        # the gradient is defined (and zero) at phi_d = 0 even though xi is not
        dG = (2 * phi_d / phi_a) * spec.D - (2 * phi_d**2 / phi_a**2) * (spec.A @ G)
        sym = 0.5 * (G.T @ dG + dG.T @ G)
        resid = float(np.max(np.abs(dG - G @ sym)))
    if resid > 1e-4 * scale:
        raise ContractViolation(
            f"second_order_check requires a stationary point; residual {resid:.3e}"
        )

    e = phi_d**2 / phi_a
    # eta(G) * M(G) written without dividing by phi_d, so the phi_d = 0
    # case (eta = 0) is handled cleanly
    GtAG = G.T @ spec.A @ G
    GtD = G.T @ spec.D
    eta_m = (phi_d**2 / phi_a) * 0.5 * (GtAG + GtAG.T) - phi_d * 0.5 * (GtD + GtD.T)

    rng = np.random.default_rng(rng)
    worst = np.inf
    ok = True
    for _ in range(samples):
        H = sample_tangent(G, rng)
        nrm = np.linalg.norm(H)
        if nrm == 0.0:
            continue
        H = H / nrm
        lhs = float(np.trace(spec.D.T @ H)) ** 2
        rhs = e * float(np.einsum("ij,ij->", H, spec.A @ H)) - float(
            np.einsum("ij,ij->", H @ eta_m, H)
        )
        margin = (rhs - lhs) / max(1.0, abs(lhs), abs(rhs))
        if margin < worst:
            worst = margin
        if margin < -1e-8:
            ok = False
    return SecondOrderReport(passed=ok, worst_margin=float(worst), samples=samples)
