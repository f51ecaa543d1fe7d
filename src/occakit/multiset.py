"""Range-constrained orthogonal multiset CCA.

A ``MultiViewProblem`` reduces each view once to thin-SVD coordinates,
which realizes the constraint that every projection lives inside the
range of its own data matrix.  One outer cycle updates each view's
reduced projection by solving a trace-fractional subproblem (the same
SCF core as the two-view solver) against the weighted pull of the other
views' current iterates, inside a search space of at most 4k columns
when 5k is below the view's rank, and keeps the view's iterate when the
solve ends lower; cycles follow either a Jacobi scheme (all updates read
the previous cycle's iterates) or a Gauss-Seidel scheme (updates consume
fresh iterates; the total correlation then never decreases).  Both run
on the calling thread.  ``_run`` is the one outer loop, for both schemes
and for the two-view solver; it realigns every cycle by ``_realign``, and
after each Jacobi cycle but the last it tries an Anderson extrapolation
of the cycle map, kept only where it raises the total correlation.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ContractViolation,
    DegenerateViewError,
    IsolatedViewError,
    RankDeficiencyError,
    ViewError,
)
from .linalg import align, as_matrix, fix_svd_signs, orthonormalize
from .linalg import require_count, require_stop_rule, scale_of
from .scf import ScfConfig, SubproblemSpec, _Iterate, _settled, scf_solve

# The switch to the projected step: a view's subproblem is solved in a
# search space of at most 4k columns only when this many blocks of k
# columns are below the view's rank, otherwise in its whole reduced
# space.  It is 5, not 4, so that rank-9 views at k = 2 (criterion 8)
# keep the full-space solve.
_SEARCH_BLOCKS = 5
# Unit search directions keep only the part of their span whose singular
# values exceed this; below it the Gram matrix that measures them is noise.
_DROP_TOL = 1e-6
# Row means above this (relative to the view's ``scale_of``) fail the
# centering contract.
_CENTER_TOL = 1e-10
# The Jacobi extrapolation mixes the last this-many-plus-one (snapshot,
# committed) pairs of cycles, that is this many differences.
_ANDERSON_DEPTH = 3


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
        require_stop_rule(self, "eps_outer", "max_cycles")
        if self.scheme not in ("gauss_seidel", "jacobi"):
            raise ContractViolation(f"scheme must be gauss_seidel or jacobi, got {self.scheme!r}")


@dataclass
class OmccaReport:
    """Cycle trace of the multiset solver.

    ``g_trace`` holds the total correlation (the real objective) after
    each cycle; ``loop_g_trace`` the per-cycle sum of the subproblem
    objectives at the kept iterates, which drives the stopping test.
    ``per_cycle_subproblem_iters`` counts the SCF sweeps of each view's
    solve, those of the projected solve when 5k < r (0 when its search
    space is the iterate alone), including a solve whose result was
    dropped.
    ``ds_terms_per_cycle`` counts the nonzero off-diagonal weights, i.e.
    one K_sj hatX_j product per ordered pair of selected views (exactly
    2(l-1) per cycle under tree weighting).
    ``extrapolated`` lists the Jacobi cycles whose Anderson candidate was
    kept; their ``g_trace`` entry is the total correlation at it.
    """

    projections: list
    g_trace: list = field(default_factory=list)
    loop_g_trace: list = field(default_factory=list)
    cycles: int = 0
    per_cycle_subproblem_iters: list = field(default_factory=list)
    ds_terms_per_cycle: list = field(default_factory=list)
    extrapolated: list = field(default_factory=list)
    termination_reason: str = "max_cycles"


def _checked_views(views):
    """The views as float arrays, once they are finite, 2-d, nonzero and on
    one sample count; an error names the i-th view "view i" (``.view`` i)."""
    views = [as_matrix(v, f"view {idx}") for idx, v in enumerate(views)]
    for idx, S in enumerate(views):
        if S.shape[1] != views[0].shape[1]:
            msg = f"view {idx} has {S.shape[1]} samples, view 0 has {views[0].shape[1]}"
            raise ViewError(f"views disagree on sample count: {msg}", view=idx)
        if not S.any():
            raise DegenerateViewError(f"view {idx} is identically zero", view=idx)
    return views


def _check_centered(views):
    """Raise ``ViewError`` (0-based ``.view``) for the first view whose row
    means exceed ``_CENTER_TOL`` times its ``scale_of``, in any units."""
    for idx, S in enumerate(views):
        scale = scale_of(S)
        worst = float(np.max(np.abs(S.mean(axis=1))))
        if worst > _CENTER_TOL * scale:
            raise ViewError(
                f"view {idx} is not centered: max|row mean| = {worst:.3e} (scale {scale:.3e})",
                view=idx,
            )


def reduce_views(views, rank_tol=None):
    """Thin SVD of every centered view, truncated at numerical rank, with
    the deterministic column-sign convention applied.  The rank counts the
    singular values above ``rank_tol`` times the largest (default
    max(n_i, q) eps; a given ``rank_tol`` must lie in [0, 1)).  This is
    the package's one rank rule."""
    if rank_tol is not None and not 0.0 <= rank_tol < 1.0:
        raise ContractViolation(f"rank_tol must lie in [0, 1), got {rank_tol!r}")
    out = []
    for S in _checked_views(views):
        U, s, Vt = np.linalg.svd(S, full_matrices=False)
        tol = rank_tol if rank_tol is not None else max(S.shape) * np.finfo(float).eps
        r = int(np.sum(s > tol * s[0]))
        U, Vt = fix_svd_signs(U[:, :r], Vt[:r, :])
        out.append(RangeReducedView(U=U, sigma=s[:r].copy(), V=Vt.T))
    return out


def _product(reduced, i, j):
    """V_i^T V_j, the one product of a cross block whose size depends on
    the sample count q."""
    return reduced[i].V.T @ reduced[j].V


def _cross_blocks(reduced, pairs, products=None):
    """Reduced cross blocks K_ij = diag(sigma_i) V_i^T V_j diag(sigma_j)
    for the unordered ``pairs`` (i < j), keyed by both orders; K_ji is
    stored as the transpose of K_ij.  Each V_i^T V_j is read from the
    dict ``products`` where it is there and added to it where not."""
    products = {} if products is None else products
    blocks = {}
    for i, j in pairs:
        if (i, j) not in products:
            products[i, j] = _product(reduced, i, j)
        blocks[i, j] = reduced[i].sigma[:, None] * products[i, j] * reduced[j].sigma
        blocks[j, i] = blocks[i, j].T
    return blocks


@dataclass(eq=False)
class MultiViewProblem:
    """Views on one sample count, made by ``build_multiview``, shared by the
    weights, solvers and evaluators.  Computed on first use and kept:
    ``reduced()``, the one reduction; ``blocks(pairs)``, its K_ij;
    ``rho_hat``, the affinities ||K_ij||_* / sqrt(sum sigma_i^2
    sum sigma_j^2) = nuclear(S_i S_j^T) / sqrt(tr(S_i S_i^T) tr(S_j S_j^T)).
    Both scale one V_i^T V_j per pair, formed once."""

    views: list
    _reduced: list = field(default=None, init=False, repr=False)
    _blocks: dict = field(default_factory=dict, init=False, repr=False)
    _products: dict = field(default_factory=dict, init=False, repr=False)

    def reduced(self):
        """Thin-SVD factors of every view, truncated by ``reduce_views``' default rule."""
        if self._reduced is None:
            self._reduced = reduce_views(self.views)
        return self._reduced

    def blocks(self, pairs):
        """The ``_cross_blocks`` dict, extended by the ``pairs`` not yet in it."""
        missing = [p for p in pairs if p not in self._blocks]
        self._blocks.update(_cross_blocks(self.reduced(), missing, self._products))
        return self._blocks

    @cached_property
    def rho_hat(self):
        """Pair affinities in [0, 1], symmetric with zero diagonal.  Each
        spectrum is first divided by the power of two of its largest value
        (``np.frexp``), which changes no bit of the ratio and keeps it in
        range at any data scale."""
        ell = len(self.views)
        pairs = list(itertools.combinations(range(ell), 2))
        unit = [RangeReducedView(rv.U, np.ldexp(rv.sigma, -np.frexp(rv.sigma[0])[1]), rv.V)
                for rv in self.reduced()]
        power = [float(np.sum(rv.sigma**2)) for rv in unit]
        blocks = _cross_blocks(unit, pairs, self._products)
        R = np.zeros((ell, ell))
        for i, j in pairs:
            R[i, j] = R[j, i] = np.linalg.norm(blocks[i, j], "nuc") / np.sqrt(power[i] * power[j])
        return R

    def require_rank_above(self, k):
        """Raise ``ContractViolation`` unless k is an integer >= 1 and ``RankDeficiencyError``
        (0-based ``.view``) unless k is below the numerical rank of every view."""
        require_count("k", k)
        for view, rv in enumerate(self.reduced()):
            # a view's SCF subproblem has dimension rank and needs k below it
            if k >= rv.r:
                raise RankDeficiencyError(
                    f"k={k} must be below the numerical rank {rv.r} of view {view}", view=view
                )


def build_multiview(views):
    """Check and wrap two or more centered views (features by samples); a
    ``MultiViewProblem`` is returned as it is."""
    if isinstance(views, MultiViewProblem):
        return views
    if len(views) < 2:
        raise ContractViolation("need at least two views")
    views = _checked_views(views)
    _check_centered(views)
    return MultiViewProblem(views)


def _scaled_norm(hatX_j, sigma_j, j):
    """sqrt(tr(hatX_j^T Sigma_j^2 hatX_j)), the norm of diag(sigma_j) hatX_j
    of view ``j``; only underflow zeroes it (hatX_j orthonormal, sigma_j > 0)."""
    SX = sigma_j[:, None] * hatX_j
    den = float(np.sum(SX * SX))
    if den <= 0.0:
        raise ViewError(f"view {j} leaves floating-point range; rescale the data", view=j)
    return np.sqrt(den)


def _pull(s, hatX, rho, blocks, sigmas):
    """sum_{j != s} rho_sj K_sj hatX_j / ||diag(sigma_j) hatX_j||_F."""
    acc = None
    for j in range(len(sigmas)):
        if j == s or rho[s, j] == 0.0:
            continue
        term = (rho[s, j] / _scaled_norm(hatX[j], sigmas[j], j)) * (blocks[s, j] @ hatX[j])
        acc = term if acc is None else acc + term
    if acc is None:
        raise IsolatedViewError(f"view {s} has no nonzero pair weights", view=s)
    return acc


def _g(hatX, rho, pairs, blocks, sigmas):
    """sum over selected pairs of 2 rho_ij tr(hatX_i^T K_ij hatX_j)
    / (||diag(sigma_i) hatX_i||_F ||diag(sigma_j) hatX_j||_F)."""
    norms = [_scaled_norm(hx, sig, j) for j, (hx, sig) in enumerate(zip(hatX, sigmas))]
    total = 0.0
    for i, j in pairs:
        corr = float(np.sum(hatX[i] * (blocks[i, j] @ hatX[j])))
        total += 2.0 * rho[i, j] * corr / (norms[i] * norms[j])
    return total


def _search_space(G, directions):
    """Orthonormal basis [G, Q] of span[G, directions], G's columns first.

    The directions are scaled to unit columns and deflated against G; the
    eigenvectors of their Gram matrix pick the part of their span that is
    not negligible (singular values above ``_DROP_TOL``), which a second
    deflation and a QR make orthonormal and orthogonal to G.  Each column
    is first divided by the power of two of its largest entry, which
    changes no bit of the unit column and keeps its norm in range."""
    B = np.hstack(directions)
    B = np.ldexp(B, -np.frexp(np.max(np.abs(B), axis=0))[1])
    norms = np.linalg.norm(B, axis=0)
    B = B[:, norms > 0.0] / norms[norms > 0.0]
    B -= G @ (G.T @ B)
    mu, V = np.linalg.eigh(B.T @ B)
    keep = mu > _DROP_TOL**2
    if not keep.any():
        return G
    Q = B @ V[:, keep]
    return np.hstack([G, orthonormalize(Q - G @ (G.T @ Q))])


def _solve_view(s, hatX, rho, blocks, sigmas, scf_cfg):
    """Solve the subproblem of view ``s`` from ``hatX[s]`` against its
    partners' current iterates, without committing anything.

    The start G is ``scf._settled``'s: hatX_s, moved by its rule only
    where tr(hatX_s^T D_s) = 0.  SCF solves (W^T Lambda_s W, W^T D_s)
    (Lambda_s = diag(sigma_s^2)) and its solution Z is lifted back as W Z.
    When 5k < r_s, W is the search space orth[G, grad_s, D_s,
    Lambda_s grad_s] (grad_s the subproblem gradient at G) and SCF starts
    from [I_k; 0]; a W of k columns means G is already a KKT point.
    Otherwise (5k >= r_s) W = I and SCF starts from G.  A solution that
    ends lower than G (tolerance slack only) is dropped, so no step lowers
    the subproblem objective.  Returns (the kept iterate, the objective at
    it, SCF sweeps); the iterate is G itself when nothing moved.
    """
    r, k = hatX[s].shape
    lam = sigmas[s] ** 2
    D = _pull(s, hatX, rho, blocks, sigmas)
    cur = _settled(hatX[s], D, lambda X: lam[:, None] * X)
    G = cur.G
    if _SEARCH_BLOCKS * k >= r:
        W, start = np.eye(r), G
    else:
        grad = cur.grad()
        W = _search_space(G, [grad, D, lam[:, None] * grad])
        if W.shape[1] == k:
            return G, cur.eta, 0
        start = np.eye(W.shape[1], k)
    A = W.T @ (lam[:, None] * W)
    sub = SubproblemSpec(A, W.T @ D, validate=False)
    rep = scf_solve(sub, G0=start, cfg=scf_cfg)
    X = W @ rep.solution
    e = _Iterate(X, D, lam[:, None] * X).eta
    if e < cur.eta:
        return G, cur.eta, rep.iterations
    return X, e, rep.iterations


def _selected_pairs(weights, ell):
    """``weights.selected_pairs()``, once ``weights`` is for ``ell`` views."""
    if weights.size != ell:
        raise ContractViolation(f"weights are for {weights.size} views, got {ell} views")
    return weights.selected_pairs()


def _checked_points(points, rows, what):
    """``points`` as float arrays, once each is finite with ``rows[i]``
    rows and all share one k.  A bad one raises a ``ViewError`` whose
    ``.view`` is its position, naming it "<what> i"."""
    if len(points) != len(rows):
        raise ContractViolation(f"{len(points)} {what}s for {len(rows)} views")
    checked = []
    for idx, (X, n) in enumerate(zip(points, rows)):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != n:
            raise ViewError(f"{what} {idx} has shape {X.shape}, expected ({n}, k)", view=idx)
        if checked and X.shape[1] != checked[0].shape[1]:
            raise ViewError(f"{what}s disagree on k", view=idx)
        if not np.isfinite(X).all():
            raise ViewError(f"{what} {idx} contains non-finite entries", view=idx)
        checked.append(X)
    return checked


def compute_Ds(s, hatX, weights, reduced):
    """Weighted pull of the other views on view ``s`` in reduced
    coordinates:

        D_s = sum_{j != s} rho_sj K_sj hatX_j / ||diag(sigma_j) hatX_j||_F,
        K_sj = diag(sigma_s) V_s^T V_j diag(sigma_j).

    Pairs with zero weight are skipped entirely, so sparse weightings pay
    only for their selected edges.  Builds the blocks of view ``s`` on
    every call; ``rcomcca`` reads them from its problem, built once.
    Every iterate hatX_i must be finite, r_i x k with one k.
    """
    pairs = [p for p in _selected_pairs(weights, len(reduced)) if s in p]
    hatX = _checked_points(hatX, [rv.r for rv in reduced], "iterate")
    sigmas = [rv.sigma for rv in reduced]
    return _pull(s, hatX, weights.rho, _cross_blocks(reduced, pairs), sigmas)


def g_objective(hatX, weights, reduced):
    """Total correlation in reduced coordinates; equals the original-
    coordinate objective through X_i = U_i hatX_i.  Every iterate hatX_i
    must be finite, r_i x k with one k."""
    pairs = _selected_pairs(weights, len(reduced))
    hatX = _checked_points(hatX, [rv.r for rv in reduced], "iterate")
    sigmas = [rv.sigma for rv in reduced]
    return _g(hatX, weights.rho, pairs, _cross_blocks(reduced, pairs), sigmas)


def _unit_scores(projections, views):
    """The projected samples S_i^T X_i of every view (a list or a problem),
    each scaled to unit Frobenius norm, after checking the projections
    (finite, n_i x k with one k).  A bad projection raises a ``ViewError``
    whose ``.view`` is the position of that projection (and of its view)."""
    views = build_multiview(views).views
    projections = _checked_points(projections, [S.shape[0] for S in views], "projection")
    Z = []
    for idx, (S, X) in enumerate(zip(views, projections)):
        z = S.T @ X
        den = float(np.sum(z * z))
        if den <= 0.0:
            raise DegenerateViewError(f"projection {idx} captured zero variance", view=idx)
        Z.append(z / np.sqrt(den))
    return Z


def total_correlation(projections, views, weights):
    """Weighted sum of pairwise correlations of the projected views,
    evaluated on the original data matrices."""
    Z = _unit_scores(projections, views)
    total = 0.0
    for i, j in _selected_pairs(weights, len(Z)):
        total += 2.0 * weights.rho[i, j] * float(np.sum(Z[i] * Z[j]))
    return total


def _realign(hatX, rho, blocks, sigmas):
    """The realignment of every cycle and extrapolation candidate: rotates
    each view of ``hatX`` in place, in view order, inside its own span so
    that hatX_s^T D_s, D_s its partners' current pull, is symmetric PSD.
    g never falls, no subspace moves, and views cannot end anti-aligned.
    For two views it is ``pair_align`` up to a joint rotation, at rounding."""
    for s in range(len(hatX)):
        hatX[s] = align(hatX[s], _pull(s, hatX, rho, blocks, sigmas))


class _Extrapolation:
    """Type-II Anderson extrapolation of the Jacobi cycle map x -> y
    (Walker & Ni, SINUM 49, 2011) over the last ``_ANDERSON_DEPTH + 1``
    (snapshot, committed) pairs.

    ``propose(x, y)`` records the pair of the cycle just run and, once two
    are stored, rotates every stored block of view s onto y_s by
    orthogonal Procrustes, so the proposal depends on the stored subspaces
    alone.  With the views flattened and f_i = y_i - x_i it solves
    min ||f_c - dF gamma|| by least squares and returns the blocks of
    z = y_c - dY gamma, not yet retracted onto the constraint set."""

    def __init__(self):
        self.pairs = collections.deque(maxlen=_ANDERSON_DEPTH + 1)

    def propose(self, x, y):
        self.pairs.append((list(x), list(y)))
        if len(self.pairs) < 2:
            return None
        # per view, one batched SVD gives the polar factor of every stored
        # block's M^T y_s; rows alternate x_0, y_0, x_1, y_1, ...
        rows = []
        for s, ref in enumerate(y):
            M = np.stack([blocks[s] for pair in self.pairs for blocks in pair])
            U, _, Vt = np.linalg.svd(M.transpose(0, 2, 1) @ ref)
            rows.append((M @ (U @ Vt)).reshape(len(M), -1))
        XY = np.hstack(rows).T
        Y = XY[:, 1::2]
        F = Y - XY[:, 0::2]
        gamma = np.linalg.lstsq(np.diff(F, axis=1), F[:, -1], rcond=None)[0]
        z = Y[:, -1] - np.diff(Y, axis=1) @ gamma
        ends = np.cumsum([b.size for b in y])
        return [part.reshape(b.shape) for part, b in zip(np.split(z, ends[:-1]), y)]


def _cycle(hatX, rho, blocks, sigmas, scheme, scf_cfg):
    """One outer cycle: solves the views of ``hatX`` in order by
    ``_solve_view``, committing each result in place at once, so a cycle
    depends on nothing but ``hatX``.  Returns the list the solves read
    (``hatX`` itself for Gauss-Seidel, so view s sees the fresh iterates of
    the views before it; for Jacobi the Jacobi snapshot, a copy of ``hatX``
    as the previous cycle left it), the sum of the subproblem objectives at
    the kept iterates and each view's SCF sweeps.  A solve that leaves
    floating-point range raises a ``ViewError`` naming the view."""
    read = hatX if scheme == "gauss_seidel" else list(hatX)
    loop_g, sweeps = 0.0, []
    for s in range(len(hatX)):
        try:
            hatX[s], e_s, its = _solve_view(s, read, rho, blocks, sigmas, scf_cfg)
        except ViewError:
            raise
        except ContractViolation as exc:
            msg = f"view {s} leaves floating-point range; rescale the data ({exc})"
            raise ViewError(msg, view=s) from exc
        # summed left to right: builtin sum() compensates on Python >= 3.12
        loop_g += e_s
        sweeps.append(its)
    return read, loop_g, sweeps


def _run(hatX, rho, pairs, blocks, sigmas, scheme, scf_cfg, max_cycles, stop):
    """The outer loop of every solver: each cycle is ``_cycle`` on ``hatX``
    in place, then ``_realign``; its loop_g, g and sweeps go into an
    ``OmccaReport`` without projections, returned once ``stop(hatX,
    record)`` gives a reason, or at the cap (reason ``max_cycles``).  After
    a Jacobi cycle that does neither, the ``_Extrapolation`` candidate,
    orthonormalized view by view and realigned by ``_realign``, replaces
    the committed iterates when its total correlation is strictly higher."""
    record = OmccaReport(projections=[])
    extrapolation = _Extrapolation()
    for cycle in range(1, max_cycles + 1):
        read, loop_g, sweeps = _cycle(hatX, rho, blocks, sigmas, scheme, scf_cfg)
        _realign(hatX, rho, blocks, sigmas)
        record.cycles = cycle
        record.loop_g_trace.append(loop_g)
        record.g_trace.append(_g(hatX, rho, pairs, blocks, sigmas))
        record.per_cycle_subproblem_iters.append(sweeps)
        record.ds_terms_per_cycle.append(2 * len(pairs))
        reason = stop(hatX, record)
        if reason is not None:
            record.termination_reason = reason
            break
        if scheme == "jacobi" and cycle < max_cycles:
            z = extrapolation.propose(read, hatX)
            if z is not None:
                z = [orthonormalize(b) for b in z]
                _realign(z, rho, blocks, sigmas)
                g_z = _g(z, rho, pairs, blocks, sigmas)
                if g_z > record.g_trace[-1]:
                    hatX[:] = z
                    record.g_trace[-1] = g_z
                    record.extrapolated.append(cycle)
    return record


def rcomcca(views, k, weights, cfg=None, threads=1):
    """Range-constrained multiset solver on ``build_multiview(views)``.

    Takes the thin-SVD reduction and the reduced cross block of every
    selected pair from the problem, so a cycle costs nothing that grows
    with the sample count.  Starts each reduced projection at the leading
    identity columns and runs ``_run`` in the configured order, each
    view's subproblem solved by ``_solve_view``.  Stops when the per-cycle
    sum of subproblem optima changes by at most ``eps_outer`` relative, or
    at the cycle cap (``max_cycles``).  ``_run`` tries its extrapolation
    step only between Jacobi cycles, so the returned projections are always
    a plain realigned cycle's output, at the cap too.  ``threads`` must be
    a positive integer and has no effect: every cycle runs on the calling
    thread.  Raises ``RankDeficiencyError`` (0-based ``.view``) unless k
    is below the numerical rank of every view.  Pass the problem that
    ``build_weights`` read: a bare list is reduced again, in each call.
    """
    cfg = cfg or OmccaConfig()
    prob = build_multiview(views)
    require_count("threads", threads)
    pairs = _selected_pairs(weights, len(prob.views))
    prob.require_rank_above(k)

    rho = weights.rho
    blocks = prob.blocks(pairs)
    reduced = prob.reduced()
    sigmas = [rv.sigma for rv in reduced]
    hatX = [np.eye(rv.r, k) for rv in reduced]

    def stop(_, record):
        loop_g_last, loop_g = [0.0, *record.loop_g_trace][-2:]
        return "rel_change_tol" if abs(loop_g - loop_g_last) <= cfg.eps_outer * loop_g else None

    report = _run(hatX, rho, pairs, blocks, sigmas, cfg.scheme, cfg.scf_cfg, cfg.max_cycles, stop)
    report.projections = [rv.U @ hx for rv, hx in zip(reduced, hatX)]
    return report
