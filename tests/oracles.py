"""Independent reference implementations the tests check the library
against.  Everything here deliberately avoids the code paths under test:
gradient ascent instead of SCF, scipy's subspace angles instead of
dist_tr, a stacked generalized eigenproblem instead of whitened SVD,
explicit spanning-tree enumeration instead of Kruskal, covariance
whitening instead of principal angles, the dense cross product instead
of reduced cross blocks.
"""

import itertools

import numpy as np
import scipy.linalg as sla


def _batch_orthonormalize(G):
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return Q * np.sign(d)[..., None, :]


def _polar_retract(G):
    U, _, Vt = np.linalg.svd(G, full_matrices=False)
    return U @ Vt


def _eta_batch(G, A, D):
    num = np.einsum("sij,ij->s", G, D) ** 2
    den = np.einsum("sij,sij->s", G, np.einsum("ij,sjk->sik", A, G))
    return num / den


def pga_best_eta(A, D, n_starts=1000, iters=400, seed=0):
    """Multi-start projected gradient ascent on eta over the Stiefel
    manifold (batched over starts, monotone per start by step rejection).
    Returns the best objective value found and its point."""
    n, k = D.shape
    rng = np.random.default_rng(seed)
    G = _batch_orthonormalize(rng.standard_normal((n_starts, n, k)))
    G[0, :, :] = np.eye(n)[:, :k]
    step = np.full(n_starts, 0.5)
    best = _eta_batch(G, A, D)
    for _ in range(iters):
        phi_d = np.einsum("sij,ij->s", G, D)
        AG = np.einsum("ij,sjk->sik", A, G)
        phi_a = np.einsum("sij,sij->s", G, AG)
        grad = (2 * phi_d / phi_a)[:, None, None] * D[None] - (
            2 * phi_d**2 / phi_a**2
        )[:, None, None] * AG
        W = np.einsum("sji,sjk->sik", G, grad)
        T = grad - G @ (0.5 * (W + W.transpose(0, 2, 1)))
        cand = _polar_retract(G + step[:, None, None] * T)
        val = _eta_batch(cand, A, D)
        up = val > best
        step = np.where(up, np.minimum(step * 1.5, 10.0), step * 0.5)
        step = np.maximum(step, 1e-12)
        G = np.where(up[:, None, None], cand, G)
        best = np.maximum(val, best)
    i = int(np.argmax(best))
    return float(best[i]), G[i]


def _F_batch(X, Y, A, B, C):
    num = np.einsum("sij,sij->s", X, np.einsum("ij,sjk->sik", C, Y)) ** 2
    da = np.einsum("sij,sij->s", X, np.einsum("ij,sjk->sik", A, X))
    db = np.einsum("sij,sij->s", Y, np.einsum("ij,sjk->sik", B, Y))
    return num / (da * db)


def pga_best_F(A, B, C, k, n_starts=1000, iters=400, seed=0):
    """Multi-start projected gradient ascent on the two-view objective F
    over the product of two Stiefel manifolds."""
    n, m = C.shape
    rng = np.random.default_rng(seed)
    X = _batch_orthonormalize(rng.standard_normal((n_starts, n, k)))
    Y = _batch_orthonormalize(rng.standard_normal((n_starts, m, k)))
    X[0, :, :] = np.eye(n)[:, :k]
    Y[0, :, :] = np.eye(m)[:, :k]
    step = np.full(n_starts, 0.5)
    best = _F_batch(X, Y, A, B, C)

    def tangent(G, Z):
        W = np.einsum("sji,sjk->sik", G, Z)
        return Z - G @ (0.5 * (W + W.transpose(0, 2, 1)))

    for _ in range(iters):
        CY = np.einsum("ij,sjk->sik", C, Y)
        CtX = np.einsum("ji,sjk->sik", C, X)
        AX = np.einsum("ij,sjk->sik", A, X)
        BY = np.einsum("ij,sjk->sik", B, Y)
        c = np.einsum("sij,sij->s", X, CY)
        a = np.einsum("sij,sij->s", X, AX)
        b = np.einsum("sij,sij->s", Y, BY)
        gx = (2 * c / (a * b))[:, None, None] * CY - (2 * c**2 / (a**2 * b))[:, None, None] * AX
        gy = (2 * c / (a * b))[:, None, None] * CtX - (2 * c**2 / (a * b**2))[:, None, None] * BY
        Xc = _polar_retract(X + step[:, None, None] * tangent(X, gx))
        Yc = _polar_retract(Y + step[:, None, None] * tangent(Y, gy))
        val = _F_batch(Xc, Yc, A, B, C)
        up = val > best
        step = np.where(up, np.minimum(step * 1.5, 10.0), step * 0.5)
        step = np.maximum(step, 1e-12)
        X = np.where(up[:, None, None], Xc, X)
        Y = np.where(up[:, None, None], Yc, Y)
        best = np.maximum(val, best)
    i = int(np.argmax(best))
    return float(best[i]), X[i], Y[i]


def subspace_distance(G1, G2):
    """Sum of sines of the principal angles, via scipy's angle routine."""
    return float(np.sum(np.sin(sla.subspace_angles(G1, G2))))


def flat_spectrum_views(m, n, q, scales=(4.0, 0.25), seed=0):
    """Two centered views with S_i S_i^T = c_i I, every singular value of
    a view equal (n <= m < q/2), and the cosines of the principal angles
    between their row spaces, largest first.

    View 1's rows are sqrt(c_1) times m orthonormal directions u_j of
    sample space orthogonal to the ones vector; view 2's are sqrt(c_2)
    times cos(theta_j) u_j + sin(theta_j) w_j, j < n, with the w_j
    orthonormal and orthogonal to the u_j and to the ones vector.  The
    row spaces share part of each direction, and the cosines are the
    cos(theta_j).  Each view's rows are then turned by a random
    orthogonal matrix, which keeps its row space and its S_i S_i^T."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((q, m + n))
    Q, _ = np.linalg.qr(G - G.mean(axis=0))
    U, W = Q[:, :m], Q[:, m:]
    cosines = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
    V = U[:, :n] * cosines + W * np.sqrt(1.0 - cosines**2)
    O1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    O2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c1, c2 = scales
    return np.sqrt(c1) * (U @ O1).T, np.sqrt(c2) * (V @ O2).T, cosines


def gev_cca_correlations(S1, S2, k):
    """Canonical correlations from the stacked symmetric generalized
    eigenproblem [[0, C], [C^T, 0]] w = lambda [[A, 0], [0, B]] w."""
    A = S1 @ S1.T
    B = S2 @ S2.T
    C = S1 @ S2.T
    n, m = C.shape
    lhs = np.zeros((n + m, n + m))
    lhs[:n, n:] = C
    lhs[n:, :n] = C.T
    rhs = np.zeros((n + m, n + m))
    rhs[:n, :n] = A
    rhs[n:, n:] = B
    vals = sla.eigh(lhs, rhs, eigvals_only=True)
    return np.sort(vals)[::-1][:k]


def covariance_cca(S1, S2, k):
    """Covariance-whitened CCA, the formula classical CCA used before it
    moved to principal angles: eigendecompose A = S1 S1^T and B = S2 S2^T,
    keep the eigenvalues above max(n, m, q) eps of the largest, whiten by
    the pseudo-inverse square roots and SVD the whitened cross-covariance
    C = S1 S2^T.  Returns (X1, X2, correlations)."""
    n, m, q = S1.shape[0], S2.shape[0], S1.shape[1]
    tol = max(n, m, q) * np.finfo(float).eps

    def whitener(cov):
        vals, vecs = sla.eigh(cov)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        r = int(np.sum(vals > tol * vals[0]))
        return vecs[:, :r] / np.sqrt(vals[:r])

    W1, W2 = whitener(S1 @ S1.T), whitener(S2 @ S2.T)
    U, sig, Vt = np.linalg.svd(W1.T @ (S1 @ S2.T) @ W2, full_matrices=False)
    return W1 @ U[:, :k], W2 @ Vt[:k].T, sig[:k]


def dense_rho_hat(Si, Sj):
    """Pair affinity from the dense cross product: the nuclear norm of
    Si Sj^T over sqrt(tr(Si Si^T) tr(Sj Sj^T))."""
    nuc = np.linalg.svd(Si @ Sj.T, compute_uv=False).sum()
    return nuc / np.sqrt(np.trace(Si @ Si.T) * np.trace(Sj @ Sj.T))


def best_spanning_tree(rho_hat):
    """Maximum-affinity spanning tree by explicit enumeration (small l
    only; 16 candidate trees at l = 4)."""
    ell = rho_hat.shape[0]
    pairs = [(i, j) for i in range(ell) for j in range(i + 1, ell)]
    best_edges, best_weight = None, -np.inf
    for combo in itertools.combinations(pairs, ell - 1):
        parent = list(range(ell))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        ok = True
        for i, j in combo:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if not ok:
            continue
        w = sum(rho_hat[i, j] for i, j in combo)
        if w > best_weight:
            best_weight, best_edges = w, set(combo)
    return best_edges, best_weight


def fd_directional_eta(A, D, G, H, h=1e-6):
    """Central finite difference of eta along the polar retraction of
    G + tH; equals the Riemannian inner product of the gradient with H."""

    def retract(t):
        U, _, Vt = np.linalg.svd(G + t * H, full_matrices=False)
        return U @ Vt

    def eta_at(M):
        return float(np.trace(M.T @ D)) ** 2 / float(np.einsum("ij,ij->", M, A @ M))

    return (eta_at(retract(h)) - eta_at(retract(-h))) / (2 * h)


def sample_tangent(G, rng):
    """A random tangent direction at the Stiefel point ``G``:
    H = G K + (I - G G^T) J with K random skew-symmetric and J Gaussian,
    so ``H^T G`` is skew."""
    rng = np.random.default_rng(rng)
    n, k = G.shape
    Z = rng.standard_normal((k, k))
    K = 0.5 * (Z - Z.T)
    J = rng.standard_normal((n, k))
    return G @ K + J - G @ (G.T @ J)


def view_spec(s, hatX, rho, blocks, sigmas):
    """Subproblem of view ``s`` as a dense spec: A = diag(sigma_s^2) and
    D = its pull.  The solvers state it as (sigma_s^2, pull) instead."""
    from occakit import SubproblemSpec
    from occakit.multiset import _pull

    D = _pull(s, hatX, rho, blocks, sigmas)
    return SubproblemSpec(np.diag(sigmas[s] ** 2), D, validate=False)


def _full_update(s, hat, rho, blocks, sigmas, scf_cfg):
    """Keep-if-not-lower SCF step on view ``s`` over its whole reduced
    space; returns the subproblem objective at the kept iterate."""
    from occakit import eta, scf_solve

    spec = view_spec(s, hat, rho, blocks, sigmas)
    e_old = eta(hat[s], spec)
    rep = scf_solve(spec, G0=hat[s], cfg=scf_cfg)
    if rep.eta_trace[-1] < e_old:
        return e_old
    hat[s] = rep.solution
    return rep.eta_trace[-1]


def full_space_rcomcca(views, k, weights, cfg):
    """The multiset alternation with every subproblem solved by SCF on the
    view's whole reduced space, replayed through ``view_spec``, the
    public scf_solve and align.  Jacobi cycles that neither stop nor reach
    the cap are followed by the library's Anderson proposal, retracted
    here through the public orthonormalize and align and kept where
    g_objective rises.  Returns (projections, g_trace)."""
    from occakit import align, g_objective, orthonormalize, reduce_views, scf_solve
    from occakit.multiset import _Extrapolation

    reduced = reduce_views(views)
    rho = weights.rho
    blocks = {}
    for i, j in weights.selected_pairs():
        ri, rj = reduced[i], reduced[j]
        blocks[i, j] = np.diag(ri.sigma) @ ri.V.T @ rj.V @ np.diag(rj.sigma)
        blocks[j, i] = blocks[i, j].T
    sigmas = [rv.sigma for rv in reduced]

    def realigned(hat):
        for s in range(len(hat)):
            hat[s] = align(hat[s], view_spec(s, hat, rho, blocks, sigmas).D)
        return hat

    hat = [np.eye(rv.r)[:, :k] for rv in reduced]
    g_trace = []
    loop_prev = 0.0
    extrapolation = _Extrapolation()
    for cycle in range(1, cfg.max_cycles + 1):
        if cfg.scheme == "gauss_seidel":
            loop_g = sum(
                _full_update(s, hat, rho, blocks, sigmas, cfg.scf_cfg) for s in range(len(hat))
            )
        else:
            specs = [view_spec(s, hat, rho, blocks, sigmas) for s in range(len(hat))]
            reps = [scf_solve(sp, G0=h, cfg=cfg.scf_cfg) for sp, h in zip(specs, hat)]
            read, hat = hat, realigned([rep.solution for rep in reps])
            loop_g = sum(rep.eta_trace[-1] for rep in reps)
        g_trace.append(g_objective(hat, weights, reduced))
        if abs(loop_g - loop_prev) <= cfg.eps_outer * loop_g:
            break
        loop_prev = loop_g
        if cfg.scheme == "jacobi" and cycle < cfg.max_cycles:
            z = extrapolation.propose(read, hat)
            if z is not None:
                z = realigned([orthonormalize(b) for b in z])
                g_z = g_objective(z, weights, reduced)
                if g_z > g_trace[-1]:
                    hat, g_trace[-1] = z, g_z
    return [rv.U @ h for rv, h in zip(reduced, hat)], g_trace


def full_space_occa(prob, k, alt_cfg, scf_cfg):
    """Two-view alternation with full-space SCF solves on the range-cut
    problem (eigenvalues of A, B above max(n, m, q) eps of the largest),
    replayed through view_spec, scf_solve and pair_align from the leading
    identity columns.  Returns (X, Y, F_trace)."""
    from occakit import grad_eta, orthonormalize, pair_align

    tol = max(prob.n, prob.m, prob.q) * np.finfo(float).eps

    def range_cut(cov):
        vals, vecs = sla.eigh(cov)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        r = int(np.sum(vals > tol * vals[0]))
        return vecs[:, :r], vals[:r]

    (U_A, lam_A), (U_B, lam_B) = range_cut(prob.A), range_cut(prob.B)
    K = U_A.T @ prob.C @ U_B
    blocks = {(0, 1): K, (1, 0): K.T}
    sigmas = [np.sqrt(lam_A), np.sqrt(lam_B)]
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])
    hat = [orthonormalize(U_A[:k].T), orthonormalize(U_B[:k].T)]
    F_trace = []
    for _ in range(alt_cfg.max_outer):
        for s in (0, 1):
            _full_update(s, hat, rho, blocks, sigmas, scf_cfg)
        hat = list(pair_align(hat[0], hat[1], K))
        specs = [view_spec(s, hat, rho, blocks, sigmas) for s in (0, 1)]
        F = float(np.trace(hat[0].T @ specs[0].D)) ** 2 / float(
            np.sum(hat[0] * (specs[0].A @ hat[0]))
        )
        gnorm = np.sqrt(sum(np.linalg.norm(grad_eta(hat[s], specs[s])) ** 2 for s in (0, 1)))
        done = gnorm <= alt_cfg.eps_alt or (
            len(F_trace) > 0 and abs((F - F_trace[-1]) / F) <= alt_cfg.eps_alt
        )
        F_trace.append(F)
        if done:
            break
    return U_A @ hat[0], U_B @ hat[1], F_trace
