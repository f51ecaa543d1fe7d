"""Trace-fractional subproblem solver.

Maximizes eta(G) = tr^2(G^T D) / tr(G^T A G) over matrices G with
orthonormal columns, for a symmetric positive definite A and a nonzero
D.  The solver is a self-consistent-field (SCF) fixed-point iteration on
the eigenvector-dependent symmetric operator

    E(G) = A - xi(G) (D G^T + G D^T),    xi(G) = tr(G^T A G) / tr(G^T D),

whose k-smallest eigenbasis, realigned against D, is the next iterate.
The objective never decreases along the iteration, and every iterate
after the first satisfies D^T G >= 0 (positive semidefinite).

A sweep pays only for its arithmetic.  The facts that hold for a whole
solve are checked once at its start: A and D finite, A square and
symmetric within 1e-10 (a smaller asymmetry averaged away), D with A's
row count.  Every E(G) is then exactly symmetric by construction, so
each sweep checks only that the scalar xi(G) is finite and that LAPACK
succeeded, and calls the unchecked kernels behind
``k_smallest_eigenbasis`` and ``align``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation, UndefinedRatioError
from .linalg import (
    _align,
    _k_smallest,
    align,
    as_matrix,
    dist_tr,
    ensure_orthonormal,
    orthonormalize,
    require_orthonormal,
    sample_tangent,
)

# Cap on the scaled gradient norm when xi blows up (tr(G^T D) near 0);
# the relative-change test then decides termination.
_SCALED_GRAD_CAP = 1e300
# tr(G^T D) = 0 recovery: perturbation scale and number of attempts.
_PERTURB_SCALE = 1e-3
_ZERO_RATIO_RETRIES = 3


@dataclass
class SubproblemSpec:
    """Data (A, D) of one trace-fractional subproblem.

    ``A`` must be symmetric positive definite and ``D`` nonzero; both are
    checked once at construction (skip with ``validate=False`` when the
    caller already guarantees them, e.g. in inner solver loops).  A
    validated ``A`` that is not exactly symmetric becomes (A + A^T)/2.
    ``scf_solve`` checks finiteness, shapes and symmetry again once per
    solve, so it rejects an unvalidated spec with non-finite or
    asymmetric data too.
    """

    A: np.ndarray          # n x n symmetric positive definite
    D: np.ndarray          # n x k, nonzero
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        self.A = np.asarray(self.A, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        if validate:
            self.A, self.D = _symmetric_data(self.A, self.D)
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


def _symmetric_data(A, D):
    """(A, D) checked: both finite, A square and symmetric within 1e-10,
    D with A's row count.  A smaller asymmetry is averaged away, so the
    returned A is exactly symmetric; a valid pair comes back as given."""
    A = as_matrix(A, "A")
    D = as_matrix(D, "D")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ContractViolation(f"A must be square, got {A.shape}")
    if D.shape[0] != n:
        raise ContractViolation(f"D must have {n} rows to match A, got {D.shape}")
    asym = float(abs(A - A.T).max())
    if asym > 1e-10:
        raise ContractViolation(f"A is not symmetric: max|A - A^T| = {asym:.3e}")
    if asym > 0.0:
        A = 0.5 * (A + A.T)
    return A, D


@dataclass
class ScfConfig:
    eps_scf: float = 1e-5
    max_iter: int = 30

    def __post_init__(self):
        if not (self.eps_scf > 0 and np.isfinite(self.eps_scf)):
            raise ContractViolation(f"eps_scf must be positive and finite, got {self.eps_scf!r}")
        if self.max_iter < 1:
            raise ContractViolation("max_iter must be at least 1")


@dataclass
class ScfReport:
    """Per-iteration trace of one SCF solve plus final certificates.

    ``eta_trace[0]`` is the objective at the starting point as given
    (aligned against D only when tr(G^T D) = 0 there); entry ``nu``
    corresponds to iterate ``nu``.  ``gaps`` and ``grad_norms`` have one
    entry per completed iteration: the eigengap of E at the previous
    iterate and the scaled gradient norm used in the stopping test.

    The certificates ``dtg_min_eigs`` (smallest eigenvalue of
    sym(D^T G) at each new iterate, the PSD certificate) and
    ``subspace_dists`` (distance from the previous iterate) are computed
    on first read from the stored ``iterates`` G_0 ... G_nu (each taken
    after any tr(G^T D) = 0 recovery) and ``D``, so a caller that never
    reads them pays nothing for them.
    """

    solution: np.ndarray
    eta_trace: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    iterations: int = 0
    termination_reason: str = "max_iter"
    zero_ratio_events: int = 0
    iterates: list = field(default_factory=list, repr=False, compare=False)
    D: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def dtg_min_eigs(self):
        out = []
        for G in self.iterates[1:]:
            W = G.T @ self.D
            out.append(float(np.linalg.eigvalsh(0.5 * (W + W.T))[0]))
        return out

    @cached_property
    def subspace_dists(self):
        return [dist_tr(G, G_new) for G, G_new in zip(self.iterates, self.iterates[1:])]


class _Iterate:
    """One iterate G of a subproblem (A, D) with the products that every
    quantity at G is built from, each computed once: A G (given, so a
    caller with a diagonal A never forms it densely), G^T D,
    phi_d = tr(G^T D) and phi_a = tr(G^T A G)."""

    def __init__(self, G, D, AG):
        self.G = G
        self.D = D
        self.AG = AG
        self.GtD = G.T @ D
        self.phi_d = float(self.GtD.trace())
        self.phi_a = float(np.einsum("ij,ij->", G, self.AG))

    @property
    def eta(self):
        return self.phi_d**2 / self.phi_a

    @property
    def xi(self):
        if self.phi_d == 0.0:
            raise UndefinedRatioError("tr(G^T D) = 0: xi(G) undefined; realign or perturb G")
        return self.phi_a / self.phi_d

    def stationarity(self):
        """A G - xi D - G M(G) with M(G) = sym(G^T A G - xi G^T D)."""
        R = self.AG - self.xi * self.D
        M = self.G.T @ R
        M = 0.5 * (M + M.T)
        return R - self.G @ M

    def grad(self):
        return (-2.0 / self.xi**2) * self.stationarity()


def eta(G, spec):
    """Objective value tr^2(G^T D) / tr(G^T A G); invariant under D -> -D."""
    return _Iterate(G, spec.D, spec.A @ G).eta


def grad_eta(G, spec):
    """Riemannian gradient of eta at G (tangent to the orthonormality
    constraint): -(2/xi^2) ([A G - xi D] - G M(G)) with
    M(G) = sym(G^T A G - xi G^T D).  Undefined when tr(G^T D) = 0."""
    return _Iterate(G, spec.D, spec.A @ G).grad()


def build_E(G, spec, xi=None):
    """The eigenvector-dependent operator E(G) = A - xi(G)(D G^T + G D^T),
    exactly symmetric when A is.  ``xi`` is xi(G) when the caller already
    has it, else it is computed here."""
    if xi is None:
        xi = _Iterate(G, spec.D, spec.A @ G).xi
    S = spec.D @ G.T
    return spec.A - xi * (S + S.T)


def kkt_residual(G, spec):
    """Joint first-order residual: max of the stationarity residual
    max|A G - xi D - G M(G)| and the symmetry residual max|G^T D - D^T G|.
    The first block equals (xi^2/2) * grad_eta(G) entrywise."""
    it = _Iterate(G, spec.D, spec.A @ G)
    r_stat = float(np.max(np.abs(it.stationarity())))
    r_sym = float(np.max(np.abs(it.GtD - it.GtD.T)))
    return max(r_stat, r_sym)


def _scaled_grad_norm(it, norm_a1, norm_d1):
    """Entrywise-1-norm gradient at the iterate ``it`` scaled by
    xi^2 (|A|_1 + |D|_1); this is the left-hand side of the gradient
    stopping test."""
    if it.phi_d == 0.0:
        return _SCALED_GRAD_CAP
    xi = it.xi
    g1 = float(abs(it.grad()).sum())
    denom = xi**2 * (norm_a1 + norm_d1)
    if denom == 0.0 or not math.isfinite(denom):
        return _SCALED_GRAD_CAP
    return min(g1 / denom, _SCALED_GRAD_CAP)


def _identity_start(n, k):
    return np.eye(n)[:, :k].copy()


def _recover_zero_ratio(G, spec):
    """Called when tr(G^T D) = 0: align first (fixes everything except an
    exactly-zero G^T D), then nudge by a small deterministic Gaussian
    perturbation and realign, up to ``_ZERO_RATIO_RETRIES`` times.

    Returns (G, number_of_zero_ratio_events).
    """
    G = align(G, spec.D)
    events = 0
    rng = np.random.default_rng(0x0CCA)
    for _ in range(_ZERO_RATIO_RETRIES):
        if float(np.trace(G.T @ spec.D)) != 0.0:
            return G, events
        events += 1
        G = orthonormalize(G + _PERTURB_SCALE * rng.standard_normal(G.shape))
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

    The start defaults to the leading identity columns and is used as
    given: it is aligned against D only when tr(G^T D) = 0, and then also
    nudged by a small deterministic Gaussian perturbation (up to three
    times) before giving up.  An unaligned start matters: the sign of
    tr(G^T D) is the sign of xi in the first E(G), so it decides which
    eigenbasis the first sweep takes and hence where the solve goes.

    Checked once per solve, before the first sweep: A and D finite, A
    square and symmetric within 1e-10 (``ContractViolation`` otherwise; a
    smaller asymmetry is averaged away for the whole solve), D with n
    rows, ``1 <= k < n`` and ``G0``.  Checked on every sweep: that xi(G) is
    finite (``ContractViolation``) and that LAPACK succeeded
    (``SolverFailure``; an E that overflows despite a finite xi fails
    there).  E is exactly symmetric by construction, so the sweep calls
    the kernels of ``k_smallest_eigenbasis`` and ``align`` without their
    input checks; the results are the ones those functions return.
    """
    cfg = cfg or ScfConfig()
    A, D = _symmetric_data(spec.A, spec.D)
    if A is not spec.A or D is not spec.D:
        spec = SubproblemSpec(A, D, validate=False)
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

    norm_a1 = float(abs(spec.A).sum())
    norm_d1 = float(abs(spec.D).sum())
    rel_tol = cfg.eps_scf**1.5

    zero_events = 0
    cur = _Iterate(G, spec.D, spec.A @ G)
    if cur.phi_d == 0.0:
        G, zero_events = _recover_zero_ratio(G, spec)
        cur = _Iterate(G, spec.D, spec.A @ G)
    e_prev = cur.eta
    report = ScfReport(
        solution=G, eta_trace=[e_prev], zero_ratio_events=zero_events, iterates=[G], D=spec.D
    )

    reason = "max_iter"
    for nu in range(1, cfg.max_iter + 1):
        xi = cur.xi
        if not math.isfinite(xi):
            raise ContractViolation(f"E contains non-finite entries: xi(G) = {xi!r}")
        eig = _k_smallest(build_E(G, spec, xi=xi), k)
        G_new = ensure_orthonormal(_align(eig.basis, spec.D))
        new = _Iterate(G_new, spec.D, spec.A @ G_new)
        if new.phi_d == 0.0:
            # transient degenerate iterate: recover and keep going
            G_new, extra = _recover_zero_ratio(G_new, spec)
            report.zero_ratio_events += 1 + extra
            new = _Iterate(G_new, spec.D, spec.A @ G_new)
        e_new = new.eta
        report.eta_trace.append(e_new)

        scaled = _scaled_grad_norm(new, norm_a1, norm_d1)
        report.gaps.append(eig.gap)
        report.grad_norms.append(scaled)
        report.iterates.append(G_new)

        G, cur = G_new, new
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
    it = _Iterate(G, spec.D, spec.A @ G)
    phi_d, phi_a = it.phi_d, it.phi_a
    scale = max(1.0, float(np.max(np.abs(spec.A))), float(np.max(np.abs(spec.D))))
    if phi_d != 0.0:
        resid = kkt_residual(G, spec)
    else:
        # the gradient is defined (and zero) at phi_d = 0 even though xi is not
        dG = (2 * phi_d / phi_a) * spec.D - (2 * phi_d**2 / phi_a**2) * it.AG
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
    GtD = it.GtD
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
