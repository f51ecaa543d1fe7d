"""Trace-fractional subproblem solver.

Maximizes eta(G) = tr^2(G^T D) / tr(G^T A G) over matrices G with
orthonormal columns, for a symmetric positive definite A and a nonzero
D.  The solver is a self-consistent-field (SCF) fixed-point iteration on
the eigenvector-dependent symmetric operator

    E(G) = A - xi(G) (D G^T + G D^T),    xi(G) = tr(G^T A G) / tr(G^T D),

whose k-smallest eigenbasis, realigned against D, is the next iterate.
The objective never decreases along the iteration, and every iterate
after the first satisfies D^T G >= 0 (positive semidefinite).

A sweep pays only for its arithmetic.  The data are checked once, where a
``SubproblemSpec`` is made: A by ``linalg.symmetric_matrix``, D finite
with A's row count.  Every E(G) is then exactly symmetric by
construction, so a sweep checks only that LAPACK succeeded, and calls
the unchecked kernels behind ``build_E``, ``k_smallest_eigenbasis`` and
``align``; ``_Iterate`` checks xi(G) where it forms it.  Every public
function of a point G checks G once, by ``_at``: finite, of shape (n, k).

xi(G) is undefined where tr(G^T D) = 0.  One deterministic rule,
``_settled``, moves such a G to tr(G^T D) > 0: ``scf_solve`` applies it
to the start and to each sweep's iterate, the multiset step to a view's
iterate before it picks its search space.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ContractViolation, UndefinedRatioError
from .linalg import (
    _align,
    _k_smallest,
    as_matrix,
    dist_tr,
    orthonormalize,
    require_orthonormal,
    require_stop_rule,
    require_subspace_size,
    scale_of,
    symmetric_matrix,
)

# Step along D/||D||_F that moves a G with G^T D = 0 off that set.
_NUDGE = 1e-3


@dataclass
class SubproblemSpec:
    """Data (A, D) of one trace-fractional subproblem, checked once, here:
    no function that takes a spec checks its data again.

    Construction always checks ``A`` by ``symmetric_matrix`` (finite and
    square; an asymmetry at rounding level becomes (A + A^T)/2, a larger
    one raises) and ``D`` finite with A's row count.  ``validate=False``
    skips only the costlier ``D`` nonzero and ``A`` positive definite (an
    eigensolve), for a caller that guarantees them (an inner solver loop).
    """

    A: np.ndarray          # n x n symmetric positive definite
    D: np.ndarray          # n x k, nonzero
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        self.A = symmetric_matrix(self.A, "A")
        self.D = as_matrix(self.D, "D")
        if self.D.shape[0] != self.n:
            raise ContractViolation(f"D must have {self.n} rows to match A, got {self.D.shape}")
        if validate:
            if not self.D.any():
                raise ContractViolation("D must be nonzero")
            lam_min = float(np.linalg.eigvalsh(self.A)[0])
            if lam_min <= 1e-12 * scale_of(self.A):
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
        require_stop_rule(self, "eps_scf", "max_iter")


@dataclass
class ScfReport:
    """Per-iteration trace of one SCF solve plus final certificates.

    ``eta_trace[0]`` is the objective at the starting point as given
    (moved by ``_settled`` only when tr(G^T D) = 0 there); entry
    ``nu`` corresponds to iterate ``nu``, and ``iterations``, the number
    of sweeps, is ``len(eta_trace) - 1``.  ``gaps`` and ``grad_norms``
    have one entry per sweep: the eigengap of E at the previous iterate
    and the scaled gradient norm used in the stopping test.
    ``zero_ratio_events`` counts the iterates, the start included, at
    which tr(G^T D) = 0 made ``_settled`` move G.

    The certificates ``dtg_min_eigs`` (smallest eigenvalue of
    sym(D^T G) at each new iterate, the PSD certificate) and
    ``subspace_dists`` (distance from the previous iterate) are computed
    on first read from the stored ``iterates`` G_0 ... G_nu (each taken
    after any ``_settled`` step) and ``D``, so a caller that never
    reads them pays nothing for them.
    """

    solution: np.ndarray
    eta_trace: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    termination_reason: str = "max_iter"
    zero_ratio_events: int = 0
    iterates: list = field(default_factory=list, repr=False, compare=False)
    D: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def iterations(self):
        return len(self.eta_trace) - 1

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
        return _square(self.phi_d, "tr(G^T D)") / self.phi_a

    @cached_property
    def xi(self):
        """phi_a / phi_d, formed and checked on first read."""
        if self.phi_d == 0.0:
            raise UndefinedRatioError("tr(G^T D) = 0: xi(G) undefined")
        xi = self.phi_a / self.phi_d
        if not math.isfinite(xi):
            raise ContractViolation(f"xi(G) = {xi!r} is not finite; rescale D")
        return xi

    def stationarity(self):
        """A G - xi D - G M(G) with M(G) = sym(G^T A G - xi G^T D)."""
        R = self.AG - self.xi * self.D
        M = self.G.T @ R
        M = 0.5 * (M + M.T)
        return R - self.G @ M

    def grad(self):
        xi2 = _square(self.xi, "xi(G)")
        if xi2 == 0.0 or not math.isfinite(2.0 / xi2):
            raise ContractViolation(f"xi(G) = {self.xi:.3e}: 2/xi^2 overflows; rescale D")
        return (-2.0 / xi2) * self.stationarity()


def _square(x, what):
    """x**2 for the float ``x`` named ``what``; ``ContractViolation`` where
    it overflows, which only a rescaled D avoids."""
    try:
        return x**2
    except OverflowError:
        raise ContractViolation(
            f"{what} = {x:.3e} overflows when squared; rescale D "
            "(the maximizer does not depend on the scale of D)"
        ) from None


def _at(G, spec):
    """The ``_Iterate`` at G, once G is finite of shape (spec.n, spec.k)."""
    G = as_matrix(G, "G")
    if G.shape != (spec.n, spec.k):
        raise ContractViolation(f"G must be {spec.n}x{spec.k} to match (A, D), got {G.shape}")
    return _Iterate(G, spec.D, spec.A @ G)


def eta(G, spec):
    """Objective value tr^2(G^T D) / tr(G^T A G); invariant under D -> -D."""
    return _at(G, spec).eta


def grad_eta(G, spec):
    """Riemannian gradient of eta at G (tangent to the orthonormality
    constraint): -(2/xi^2) ([A G - xi D] - G M(G)) with
    M(G) = sym(G^T A G - xi G^T D).  Undefined when tr(G^T D) = 0."""
    return _at(G, spec).grad()


def build_E(G, spec):
    """The eigenvector-dependent operator E(G) = A - xi(G)(D G^T + G D^T),
    exactly symmetric when A is."""
    it = _at(G, spec)
    return _build_E(it.G, spec, it.xi)


def _build_E(G, spec, xi):
    """``build_E``'s unchecked kernel, run by every ``scf_solve`` sweep."""
    S = spec.D @ G.T
    return spec.A - xi * (S + S.T)


def kkt_residual(G, spec):
    """Joint first-order residual: max of the stationarity residual
    max|A G - xi D - G M(G)| and the symmetry residual max|G^T D - D^T G|.
    The first block equals (xi^2/2) * grad_eta(G) entrywise."""
    it = _at(G, spec)
    r_stat = float(np.max(np.abs(it.stationarity())))
    r_sym = float(np.max(np.abs(it.GtD - it.GtD.T)))
    return max(r_stat, r_sym)


def _scaled_grad_norm(it, norm_a1, norm_d1):
    """Entrywise-1-norm gradient at the iterate ``it`` scaled by
    xi^2 (|A|_1 + |D|_1), inf where that scale is 0 or not finite; this
    is the left-hand side of the gradient stopping test."""
    g1 = float(abs(it.grad()).sum())
    denom = _square(it.xi, "xi(G)") * (norm_a1 + norm_d1)
    if denom == 0.0 or not math.isfinite(denom):
        return math.inf
    return g1 / denom


def _settled(G, D, times_A):
    """The ``_Iterate`` at the orthonormal G, with ``times_A(G)`` = A G,
    after the rule for tr(G^T D) = 0, where xi(G) is undefined: such a G
    is aligned against D, so that tr(G^T D) = ||G^T D||_* > 0.

    Only when G^T D = 0 is G first moved to the Q of the QR of
    G + 1e-3 D/||D||_F; then Q^T D = 1e-3 R^-T D^T D / ||D||_F is nonzero,
    so one step always suffices.  Deterministic in (G, D); D = 0 raises
    ``UndefinedRatioError``.  The iterate's ``G`` is the given array
    exactly when no step was taken.
    """
    it = _Iterate(G, D, times_A(G))
    if it.phi_d == 0.0:
        if not it.GtD.any():
            d = float(np.linalg.norm(D))
            if d == 0.0:
                raise UndefinedRatioError("D = 0: tr(G^T D) = 0 for every G")
            G = orthonormalize(G + (_NUDGE / d) * D)
        G = _align(G, D)
        it = _Iterate(G, D, times_A(G))
    return it


def scf_solve(spec, G0=None, cfg=None):
    """Run the SCF iteration on one trace-fractional subproblem.

    Each sweep builds E at the current iterate, takes the eigenbasis of
    its k smallest eigenvalues and realigns it against D.  Stops when the
    scaled gradient norm (inf where xi^2 (|A|_1 + |D|_1) is 0 or not
    finite) drops below ``eps_scf``, when the relative objective change
    drops below ``eps_scf**1.5``, or after ``max_iter`` sweeps.

    The start defaults to the leading identity columns and is used as
    given.  An unaligned start matters: the sign of tr(G^T D) is the sign
    of xi in the first E(G), so it decides which eigenbasis the first
    sweep takes and hence where the solve goes.  ``_settled`` moves the
    start, and every iterate a sweep returns, with tr(G^T D) = 0 (one
    ``zero_ratio_events`` each) by a deterministic step that always ends
    at tr(G^T D) > 0; D = 0 raises ``UndefinedRatioError``.

    The spec's data were checked when it was made (``SubproblemSpec``).
    Checked once per solve, before the first sweep: ``1 <= k < n`` and
    ``G0``.  Checked on every sweep, whose kernels are unchecked (see the
    module docstring): that LAPACK returned no NaN (``SolverFailure``; an
    E that overflows despite a finite xi fails there).  Data whose xi(G)
    is not finite (checked where ``_Iterate`` forms it), or whose
    tr(G^T D) or xi(G) overflows when squared, raises
    ``ContractViolation``: the maximizer does not depend on the scale of
    D, so rescaling D avoids it.
    """
    cfg = cfg or ScfConfig()
    k = spec.k
    n = spec.n
    require_subspace_size(k, n)
    if G0 is None:
        G = np.eye(n, k)
    else:
        G = require_orthonormal(np.array(G0, dtype=float), "G0")
        if G.shape != (n, k):
            raise ContractViolation(f"G0 must be {n}x{k}, got {G.shape}")

    norm_a1 = float(abs(spec.A).sum())
    norm_d1 = float(abs(spec.D).sum())
    rel_tol = cfg.eps_scf**1.5

    times_A = partial(np.matmul, spec.A)
    report = ScfReport(solution=G, D=spec.D)
    cur = _settled(G, spec.D, times_A)
    report.zero_ratio_events += cur.G is not G
    report.eta_trace.append(cur.eta)
    report.iterates.append(cur.G)

    while report.termination_reason == "max_iter" and report.iterations < cfg.max_iter:
        eig = _k_smallest(_build_E(cur.G, spec, cur.xi), k)
        G = _align(eig.basis, spec.D)
        cur = _settled(G, spec.D, times_A)
        report.zero_ratio_events += cur.G is not G
        e_prev, e_new = report.eta_trace[-1], cur.eta
        scaled = _scaled_grad_norm(cur, norm_a1, norm_d1)
        report.eta_trace.append(e_new)
        report.gaps.append(eig.gap)
        report.grad_norms.append(scaled)
        report.iterates.append(cur.G)
        if scaled <= cfg.eps_scf:
            report.termination_reason = "grad_tol"
        elif e_new != 0.0 and abs((e_new - e_prev) / e_new) <= rel_tol:
            report.termination_reason = "rel_change_tol"

    report.solution = cur.G
    return report


@dataclass
class SecondOrderReport:
    passed: bool
    worst_margin: float
    dimension: int         # p = nk - k(k+1)/2, the tangent space's dimension


def second_order_check(G, spec):
    """Exact test of the second-order optimality condition at a
    stationary G: for every tangent direction H,

        tr^2(D^T H) <= eta(G) (tr(H^T A H) - tr(H M(G) H^T)).

    With H = U [Omega; J], U = [G, G_perp] from a complete QR of G, Omega
    skew and J free, rhs - lhs is the quadratic form
    eta (I_k (x) U^T A U) - (eta M (x) I_n) - vec(U^T D) vec(U^T D)^T in
    vec([Omega; J]).  Restricted to the orthonormal tangent basis (each
    entry of J, and (e_a e_b^T - e_b e_a^T)/sqrt(2) for a < b) of dimension
    p = nk - k(k+1)/2, its smallest eigenvalue over its largest eigenvalue
    magnitude (the form's spectral norm; 1 for a zero form) is
    ``worst_margin``, and the check passes when that is >= -1e-8.  Dense in
    nk: O((nk)^2) memory, O((nk)^3) time.

    Needs G of shape (n, k) and 1 <= k < n.  Raises at a clearly
    non-stationary point, a ``kkt_residual`` above 1e-4 of
    ``scale_of(A, D)``; both tests are unchanged by A, D -> cA, cD.
    """
    it = _at(G, spec)
    G = require_orthonormal(it.G, "G")
    n, k = G.shape
    require_subspace_size(k, n)
    scale = scale_of(spec.A, spec.D)
    # the gradient of eta is exactly zero where tr(G^T D) = 0, though xi is undefined
    resid = kkt_residual(G, spec) if it.phi_d != 0.0 else 0.0
    if resid > 1e-4 * scale:
        raise ContractViolation(
            f"second_order_check requires a stationary point; residual {resid:.3e}"
        )

    e = it.eta
    # eta(G) * M(G) written without dividing by phi_d, so the phi_d = 0
    # case (eta = 0) is handled cleanly
    GtAG = G.T @ spec.A @ G
    GtD = it.GtD
    eta_m = e * 0.5 * (GtAG + GtAG.T) - it.phi_d * 0.5 * (GtD + GtD.T)

    U = np.hstack([G, np.linalg.qr(G, mode="complete")[0][:, k:]])
    d = (U.T @ spec.D).ravel(order="F")
    Q = e * np.kron(np.eye(k), U.T @ spec.A @ U) - np.kron(eta_m, np.eye(n)) - np.outer(d, d)
    at = np.arange(n * k).reshape(k, n)  # at[c, i]: the place of entry (i, c) in vec
    a, b = np.triu_indices(k, 1)
    eye = np.eye(n * k)
    skew = math.sqrt(0.5) * (eye[:, at[b, a]] - eye[:, at[a, b]])
    B = np.hstack([eye[:, at[:, k:].ravel()], skew])
    vals = np.linalg.eigvalsh(B.T @ Q @ B)
    worst = float(vals[0] / scale_of(vals))
    return SecondOrderReport(passed=worst >= -1e-8, worst_margin=worst, dimension=B.shape[1])
