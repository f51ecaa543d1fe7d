"""Dense linear-algebra primitives shared by every solver.

All matrices are plain ``numpy.ndarray`` with real (float64) entries.
Matrices with orthonormal columns ("Stiefel points") are ordinary arrays
that satisfy ``max|G^T G - I| <= ORTH_TOL``; helpers below test, enforce
and repair that invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ContractViolation, SolverFailure

# Orthonormality drift beyond this triggers a thin-QR repair.
ORTH_TOL = 1e-10


def as_matrix(M, what="matrix"):
    """Validate and return ``M`` as a finite 2-d float64 array."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ContractViolation(f"{what} must be 2-d and non-empty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ContractViolation(f"{what} contains non-finite entries")
    return M


def orthonormality_error(G):
    G = np.asarray(G)
    k = G.shape[1]
    return float(np.max(np.abs(G.T @ G - np.eye(k))))


def is_orthonormal(G, tol=ORTH_TOL):
    return orthonormality_error(G) <= tol


def require_orthonormal(G, what="G", tol=ORTH_TOL):
    G = as_matrix(G, what)
    if G.shape[0] < G.shape[1]:
        raise ContractViolation(f"{what} must be tall (n >= k), got shape {G.shape}")
    err = orthonormality_error(G)
    if err > tol:
        raise ContractViolation(f"{what} is not orthonormal: max|G^T G - I| = {err:.3e}")
    return G


def orthonormalize(G):
    """Thin QR of ``G`` with the diagonal of R forced nonnegative.

    The sign fix makes the result deterministic and leaves an
    already-orthonormal input unchanged.
    """
    Q, R = np.linalg.qr(G)
    d = np.diag(R).copy()
    d[d == 0] = 1.0
    return Q * np.sign(d)


def ensure_orthonormal(G, tol=ORTH_TOL):
    """Return ``G`` itself if within drift tolerance, else a QR repair."""
    if orthonormality_error(G) > tol:
        return orthonormalize(G)
    return G


def fix_svd_signs(U, Vt):
    """Apply the column-sign convention to SVD factors.

    The first nonzero entry of each left singular vector is made
    nonnegative; the matching row of ``Vt`` absorbs the flip.  Guarantees
    run-to-run determinism wherever SVD factors feed outputs.
    """
    U = U.copy()
    Vt = Vt.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
            Vt[j, :] = -Vt[j, :]
    return U, Vt


@dataclass
class EigenResult:
    """Orthonormal basis of the invariant subspace for the k smallest
    eigenvalues of a symmetric matrix, with the eigengap above it."""

    basis: np.ndarray      # n x k, orthonormal columns
    values: np.ndarray     # k eigenvalues, ascending
    gap: float             # lambda_{k+1} - lambda_k, >= 0


def k_smallest_eigenbasis(E, k):
    """Eigenbasis for the ``k`` algebraically smallest eigenvalues of ``E``.

    ``E`` must be symmetric within 1e-10 (checked), ``1 <= k < n``.  The
    dense symmetric eigensolver computes the k + 1 smallest eigenpairs,
    the extra one giving the gap.  A zero ``gap`` flags a degenerate
    eigenvalue at position k; the returned subspace is then only
    determined up to the tie.
    """
    E = as_matrix(E, "E")
    n = E.shape[0]
    if E.shape[1] != n:
        raise ContractViolation(f"E must be square, got shape {E.shape}")
    if not (1 <= k < n):
        raise ContractViolation(f"need 1 <= k < n, got k={k}, n={n}")
    asym = float(np.max(np.abs(E - E.T)))
    if asym > 1e-10:
        raise ContractViolation(f"E is not symmetric: max|E - E^T| = {asym:.3e}")
    try:
        vals, vecs = sla.eigh(0.5 * (E + E.T), subset_by_index=(0, k))
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure is exotic
        raise SolverFailure(f"dense symmetric eigensolver failed: {exc}") from exc
    gap = float(vals[k] - vals[k - 1])
    return EigenResult(basis=vecs[:, :k], values=vals[:k].copy(), gap=max(gap, 0.0))


def align(G, D):
    """Rotate ``G`` in its own column space so that ``G^T D`` becomes
    symmetric positive semidefinite with maximal trace.

    Uses the SVD ``G^T D = U S V^T`` and returns ``G @ U @ V^T``; the new
    trace equals the sum of singular values of the old ``G^T D``.  When
    ``G^T D`` is exactly zero there is nothing to align and ``G`` is
    returned unchanged.
    """
    G = np.asarray(G, dtype=float)
    D = np.asarray(D, dtype=float)
    if G.shape != D.shape:
        raise ContractViolation(f"G and D must share a shape, got {G.shape} vs {D.shape}")
    W = G.T @ D
    if not W.any():
        return G.copy()
    U, _, Vt = np.linalg.svd(W)
    return G @ (U @ Vt)


def pair_align(X, Y, C):
    """Jointly rotate ``X`` and ``Y`` so that ``X^T C Y`` becomes symmetric
    PSD with trace equal to its nuclear norm.

    Returns ``(X @ U, Y @ V)`` from the SVD ``X^T C Y = U S V^T``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    C = np.asarray(C, dtype=float)
    if C.shape != (X.shape[0], Y.shape[0]) or X.shape[1] != Y.shape[1]:
        raise ContractViolation(
            f"shape mismatch: X {X.shape}, Y {Y.shape}, C {C.shape}"
        )
    W = X.T @ C @ Y
    if not W.any():
        return X.copy(), Y.copy()
    U, _, Vt = np.linalg.svd(W)
    return X @ U, Y @ Vt.T


def dist_tr(G1, G2):
    """Trace-norm subspace distance: the sum of sines of the principal
    angles between the column spaces of ``G1`` and ``G2``.

    Zero iff the spans coincide; equals k for orthogonal subspaces.  The
    sines are taken as the singular values of (I - G1 G1^T) G2, which is
    exact near zero angles where the arccos-of-cosine route loses half
    the working precision.
    """
    G1 = np.asarray(G1, dtype=float)
    G2 = np.asarray(G2, dtype=float)
    if G1.shape != G2.shape:
        raise ContractViolation(f"dimension mismatch: {G1.shape} vs {G2.shape}")
    P = G2 - G1 @ (G1.T @ G2)
    sin = np.clip(np.linalg.svd(P, compute_uv=False), 0.0, 1.0)
    return float(np.sum(sin))


def sample_tangent(G, rng):
    """Draw a random tangent direction at ``G``: H = G K + (I - G G^T) J
    with K random skew-symmetric and J Gaussian.  ``H^T G`` is skew."""
    rng = np.random.default_rng(rng)
    n, k = G.shape
    Z = rng.standard_normal((k, k))
    K = 0.5 * (Z - Z.T)
    J = rng.standard_normal((n, k))
    return G @ K + J - G @ (G.T @ J)
