"""Range-constrained orthogonal multiset CCA.

Each view is reduced to thin-SVD coordinates, which realizes the
constraint that every projection lives inside the range of its own data
matrix.  One outer cycle updates each view's reduced projection by
solving a trace-fractional subproblem (the same SCF core as the two-view
solver) against the weighted pull of the other views; cycles follow
either a Jacobi scheme (all updates read the previous cycle's iterates,
so they can run in parallel) or a Gauss-Seidel scheme (updates consume
fresh iterates; the total correlation then never decreases).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateViewError,
    IsolatedViewError,
    RankDeficiencyError,
)
from .linalg import align, as_matrix, fix_svd_signs
from .scf import ScfConfig, SubproblemSpec, eta, scf_solve


@dataclass
class RangeReducedView:
    """Thin SVD factors S = U diag(sigma) V^T truncated at numerical rank."""

    U: np.ndarray        # n_i x r, orthonormal columns
    sigma: np.ndarray    # r positive singular values, nonincreasing
    V: np.ndarray        # q x r, orthonormal columns

    @property
    def r(self):
        return int(self.sigma.size)


@dataclass
class OmccaConfig:
    eps_outer: float = 1e-6
    max_cycles: int = 100
    scheme: str = "gauss_seidel"   # or "jacobi"
    scf_cfg: ScfConfig = field(default_factory=ScfConfig)

    def __post_init__(self):
        if self.eps_outer <= 0:
            raise ContractViolation("eps_outer must be positive")
        if self.max_cycles < 1:
            raise ContractViolation("max_cycles must be at least 1")
        if self.scheme not in ("gauss_seidel", "jacobi"):
            raise ContractViolation(f"scheme must be gauss_seidel or jacobi, got {self.scheme!r}")


@dataclass
class OmccaReport:
    """Cycle trace of the multiset solver.

    ``g_trace`` holds the total correlation (the real objective) after
    each cycle; ``loop_g_trace`` the per-cycle sum of subproblem optima
    that drives the stopping test.  ``ds_terms_per_cycle`` counts the
    nonzero off-diagonal weights, i.e. one K_sj hatX_j product per ordered
    pair of selected views (exactly 2(l-1) per cycle under tree weighting).
    """

    projections: list
    g_trace: list = field(default_factory=list)
    loop_g_trace: list = field(default_factory=list)
    cycles: int = 0
    per_cycle_subproblem_iters: list = field(default_factory=list)
    ds_terms_per_cycle: list = field(default_factory=list)
    termination_reason: str = "max_cycles"


def reduce_views(views, rank_tol=None):
    """Thin SVD of every centered view, truncated at numerical rank, with
    the deterministic column-sign convention applied."""
    out = []
    for idx, S in enumerate(views):
        S = as_matrix(S, f"view {idx}")
        if not S.any():
            raise DegenerateViewError(f"view {idx} is identically zero")
        U, s, Vt = np.linalg.svd(S, full_matrices=False)
        tol = rank_tol if rank_tol is not None else max(S.shape) * np.finfo(float).eps
        r = int(np.sum(s > tol * s[0]))
        if r == 0:
            raise DegenerateViewError(f"view {idx} is numerically zero")
        U, Vt = fix_svd_signs(U[:, :r], Vt[:r, :])
        out.append(RangeReducedView(U=U, sigma=s[:r].copy(), V=Vt.T))
    return out


def _cross_blocks(reduced, pairs):
    """Reduced cross blocks K_ij = diag(sigma_i) V_i^T V_j diag(sigma_j)
    for the unordered ``pairs`` (i < j), keyed by both orders; K_ji is
    stored as the transpose of K_ij.  This is the only work whose size
    depends on the sample count q."""
    blocks = {}
    for i, j in pairs:
        ri, rj = reduced[i], reduced[j]
        blocks[i, j] = ri.sigma[:, None] * (ri.V.T @ rj.V) * rj.sigma
        blocks[j, i] = blocks[i, j].T
    return blocks


def _scaled_norm(hatX_j, rv):
    """sqrt(tr(hatX_j^T Sigma_j^2 hatX_j)), the norm of diag(sigma_j) hatX_j."""
    SX = rv.sigma[:, None] * hatX_j
    den = float(np.sum(SX * SX))
    if den <= 0.0:
        raise DegenerateViewError("projected variance vanished in a reduced view")
    return np.sqrt(den)


def _pull(s, hatX, rho, blocks, reduced):
    """sum_{j != s} rho_sj K_sj hatX_j / ||diag(sigma_j) hatX_j||_F."""
    acc = None
    for j in range(len(reduced)):
        if j == s or rho[s, j] == 0.0:
            continue
        term = (rho[s, j] / _scaled_norm(hatX[j], reduced[j])) * (blocks[s, j] @ hatX[j])
        acc = term if acc is None else acc + term
    if acc is None:
        raise IsolatedViewError(f"view {s} has no nonzero pair weights")
    return acc


def _g(hatX, rho, pairs, blocks, reduced):
    """sum over selected pairs of 2 rho_ij tr(hatX_i^T K_ij hatX_j)
    / (||diag(sigma_i) hatX_i||_F ||diag(sigma_j) hatX_j||_F)."""
    norms = [_scaled_norm(hx, rv) for hx, rv in zip(hatX, reduced)]
    total = 0.0
    for i, j in pairs:
        corr = float(np.sum(hatX[i] * (blocks[i, j] @ hatX[j])))
        total += 2.0 * rho[i, j] * corr / (norms[i] * norms[j])
    return total


def compute_Ds(s, hatX, weights, reduced):
    """Weighted pull of the other views on view ``s`` in reduced
    coordinates:

        D_s = sum_{j != s} rho_sj K_sj hatX_j / ||diag(sigma_j) hatX_j||_F,
        K_sj = diag(sigma_s) V_s^T V_j diag(sigma_j).

    Pairs with zero weight are skipped entirely, so sparse weightings pay
    only for their selected edges.  Builds the blocks of view ``s`` on
    every call; ``rcomcca`` builds all of them once per solve.
    """
    pairs = [p for p in weights.selected_pairs() if s in p]
    return _pull(s, hatX, weights.rho, _cross_blocks(reduced, pairs), reduced)


def g_objective(hatX, weights, reduced):
    """Total correlation in reduced coordinates; equals the original-
    coordinate objective through X_i = U_i hatX_i."""
    pairs = weights.selected_pairs()
    return _g(hatX, weights.rho, pairs, _cross_blocks(reduced, pairs), reduced)


def total_correlation(projections, views, weights):
    """Weighted sum of pairwise correlations of the projected views,
    evaluated on the original data matrices."""
    rho = weights.rho
    ell = len(views)
    if len(projections) != ell:
        raise ContractViolation(f"{len(projections)} projections for {ell} views")
    Z = []
    for idx, (S, X) in enumerate(zip(views, projections)):
        S = np.asarray(S)
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != S.shape[0]:
            raise ContractViolation(
                f"projection {idx} has shape {X.shape}, expected ({S.shape[0]}, k)"
            )
        if X.shape[1] != projections[0].shape[1]:
            raise ContractViolation("projections disagree on k")
        z = S.T @ X
        den = float(np.sum(z * z))
        if den <= 0.0:
            raise DegenerateViewError("a projection captured zero variance")
        Z.append(z / np.sqrt(den))
    total = 0.0
    for i in range(ell):
        for j in range(i + 1, ell):
            if rho[i, j] == 0.0:
                continue
            total += 2.0 * rho[i, j] * float(np.sum(Z[i] * Z[j]))
    return total


def rcomcca(views, k, weights, cfg=None, rank_tol=None, threads=1):
    """Range-constrained multiset solver.

    Reduces every view by thin SVD and builds the reduced cross block of
    every selected pair once, so a cycle costs nothing that grows with
    the sample count.  Starts each reduced projection at the leading
    identity columns and cycles over the views, solving each
    view's trace-fractional subproblem by SCF warm-started at its current
    value.  Stops when the per-cycle sum of subproblem optima changes by
    at most ``eps_outer`` relative, or at the cycle cap.  ``threads``
    parallelizes the subproblem solves of a Jacobi cycle only; results
    are merged in view order, so the outcome is identical at any thread
    count.
    """
    cfg = cfg or OmccaConfig()
    if len(views) < 2:
        raise ContractViolation("need at least two views")
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    qs = {np.asarray(v).shape[1] for v in views}
    if len(qs) != 1:
        raise ContractViolation(f"views disagree on sample count: {sorted(qs)}")
    q = qs.pop()
    reduced = reduce_views(views, rank_tol=rank_tol)
    for idx, rv in enumerate(reduced):
        if k > rv.r:
            raise RankDeficiencyError(
                f"k={k} exceeds numerical rank {rv.r} of view {idx}", view=idx
            )
    if k > q:
        raise ContractViolation(f"k={k} exceeds sample count {q}")

    ell = len(views)
    rho = weights.rho
    pairs = weights.selected_pairs()
    blocks = _cross_blocks(reduced, pairs)
    hatX = [np.eye(rv.r)[:, :k].copy() for rv in reduced]

    def subproblem(s):
        D_s = _pull(s, hatX, rho, blocks, reduced)
        return SubproblemSpec(np.diag(reduced[s].sigma**2), D_s, validate=False)

    report = OmccaReport(projections=[])
    loop_g_prev = 0.0
    reason = "max_cycles"
    gauss_seidel = cfg.scheme == "gauss_seidel"

    for cycle in range(1, cfg.max_cycles + 1):
        iters = []
        loop_g = 0.0

        if gauss_seidel:
            for s in range(ell):
                spec = subproblem(s)
                e_old = eta(hatX[s], spec)
                rep = scf_solve(spec, G0=hatX[s], cfg=cfg.scf_cfg)
                if rep.eta_trace[-1] >= e_old:
                    hatX[s] = rep.solution
                    loop_g += rep.eta_trace[-1]
                else:
                    # tolerance slack only; keep the stale iterate so the
                    # objective stays monotone
                    loop_g += e_old
                iters.append(rep.iterations)
        else:
            specs = [subproblem(s) for s in range(ell)]

            def solve(s):
                return scf_solve(specs[s], G0=hatX[s], cfg=cfg.scf_cfg)

            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    reps = list(pool.map(solve, range(ell)))
            else:
                reps = [solve(s) for s in range(ell)]
            for s, rep in enumerate(reps):
                hatX[s] = rep.solution
                loop_g += rep.eta_trace[-1]
                iters.append(rep.iterations)
            # simultaneous updates only align each view to its partners'
            # stale representatives, which can leave the merged set
            # mutually anti-aligned (the subspaces are fine, the signs
            # oscillate); one in-subspace realignment sweep against the
            # fresh partners repairs that without moving any subspace
            for s in range(ell):
                hatX[s] = align(hatX[s], _pull(s, hatX, rho, blocks, reduced))

        report.loop_g_trace.append(loop_g)
        report.g_trace.append(_g(hatX, rho, pairs, blocks, reduced))
        report.per_cycle_subproblem_iters.append(iters)
        report.ds_terms_per_cycle.append(2 * len(pairs))

        if abs(loop_g - loop_g_prev) <= cfg.eps_outer * loop_g:
            reason = "rel_change_tol"
            report.cycles = cycle
            break
        loop_g_prev = loop_g
    else:
        report.cycles = cfg.max_cycles

    report.projections = [rv.U @ hx for rv, hx in zip(reduced, hatX)]
    report.termination_reason = reason
    return report
